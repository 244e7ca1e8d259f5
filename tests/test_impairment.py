import json

import pytest

from msim.errors import EmptySpec, MalformedPlan
from msim.impairment import ImpairmentHandler, PlanSpec, generate_plans

HEADER = "functionality,step,invocation_index,action,value\n"


def write_plan(tmp_path, body, name="plan.csv"):
    path = tmp_path / name
    path.write_text(HEADER + body)
    return path


def test_load_counts_rules(tmp_path):
    handler = ImpairmentHandler()
    path = write_plan(
        tmp_path,
        "addParticipant,addParticipantStep,1,FAIL,SimulatedFault\n"
        "addParticipant,getUserStep,2,DELAY,10\n",
    )
    assert handler.load_plan(path) == 2


@pytest.mark.parametrize(
    "row",
    [
        "f,s,1,DELAY,-5",            # negative delay
        "f,s,1,DELAY,x",             # non-numeric delay
        "f,s,0,FAIL,SimulatedFault", # index below one
        "f,s,1,EXPLODE,10",          # unknown action
        "f,s,x,DELAY,10",            # non-integer index
        "f,s,1,DELAY",               # missing column
        "f,s,1,FAIL,",               # missing error name
        "f,s,1,FAIL,SimulatedCrash", # unregistered error name
    ],
)
def test_malformed_rows_rejected(tmp_path, row):
    handler = ImpairmentHandler()
    with pytest.raises(MalformedPlan) as info:
        handler.load_plan(write_plan(tmp_path, row + "\n"))
    assert info.value.line_no == 2


def test_simulator_plan_accepts_application_error_names(make_sim, tmp_path):
    # The simulator's registry also holds the sample app's domain errors.
    sim = make_sim()
    plan = write_plan(tmp_path, "addParticipant,addParticipantStep,1,FAIL,TournamentFull\n")
    assert sim.impairment.load_plan(plan) == 1
    with pytest.raises(MalformedPlan):
        ImpairmentHandler().load_plan(plan)


def test_missing_header_rejected(tmp_path):
    path = tmp_path / "plan.csv"
    path.write_text("addParticipant,step,1,DELAY,10\n")
    handler = ImpairmentHandler()
    with pytest.raises(MalformedPlan):
        handler.load_plan(path)


def test_consult_fires_on_matching_invocation_only(tmp_path):
    handler = ImpairmentHandler()
    handler.load_plan(write_plan(
        tmp_path,
        "addParticipant,addParticipantStep,1,FAIL,SimulatedInfraFault\n",
    ))
    first = handler.consult("addParticipant", "addParticipantStep")
    assert first is not None and first.kind == "fail"
    assert first.error_name == "SimulatedInfraFault"
    assert handler.consult("addParticipant", "addParticipantStep") is None


def test_consult_without_rules_returns_none():
    handler = ImpairmentHandler()
    assert handler.consult("anything", "step") is None


def test_delay_rule_fires_at_second_invocation(tmp_path):
    # Oracle: scripted double invocation against invocation_index=2.
    handler = ImpairmentHandler()
    handler.load_plan(write_plan(tmp_path, "f,s,2,DELAY,25\n"))
    assert handler.consult("f", "s") is None
    action = handler.consult("f", "s")
    assert action.kind == "delay" and action.delay_ms == 25


def test_first_loaded_rule_for_a_key_fires(tmp_path):
    handler = ImpairmentHandler()
    handler.load_plan(write_plan(tmp_path, "f,s,1,DELAY,25\n", name="a.csv"))
    assert handler.load_plan(write_plan(
        tmp_path, "f,s,1,FAIL,SimulatedFault\nf,s,2,FAIL,SimulatedFault\n",
        name="b.csv")) == 2
    first = handler.consult("f", "s")
    assert first.kind == "delay" and first.delay_ms == 25
    assert handler.consult("f", "s").kind == "fail"
    assert [e["action"] for e in handler.report_entries()] == ["DELAY", "FAIL"]


def test_reload_resets_counters_for_identical_reruns(tmp_path):
    # Oracle: run the consult script twice around a reload; the fired
    # reports must be identical modulo timestamps.
    path = write_plan(tmp_path, "f,s,1,FAIL,SimulatedFault\n")

    def run(handler):
        handler.consult("f", "s")
        handler.consult("f", "s")
        return [
            {k: v for k, v in e.items() if k != "ts"}
            for e in handler.report_entries()
        ]

    handler = ImpairmentHandler()
    handler.load_plan(path)
    first = run(handler)
    handler.load_plan(path)
    second = run(handler)[len(first):]
    assert first == second
    assert len(first) == 1


def test_report_written_as_jsonl(tmp_path):
    report = tmp_path / "report.jsonl"
    handler = ImpairmentHandler(report_path=str(report))
    handler.load_plan(write_plan(tmp_path, "f,s,1,DELAY,5\n"))
    handler.consult("f", "s")
    entry = json.loads(report.read_text().splitlines()[0])
    assert entry["functionality"] == "f"
    assert entry["step"] == "s"
    assert entry["invocation"] == 1
    assert entry["action"] == "DELAY"
    assert entry["value"] == 5
    assert "ts" in entry


# -- plan generation ---------------------------------------------------------


def test_cross_product_cardinality(tmp_path):
    paths = generate_plans(
        PlanSpec(
            functionalities=["addParticipant"],
            steps=["a", "b"],
            actions=[("DELAY", 10), ("FAIL", "SimulatedFault")],
        ),
        tmp_path,
    )
    rows = paths[0].read_text().splitlines()[1:]
    assert len(rows) == 4


def test_single_cell_cross_product(tmp_path):
    paths = generate_plans(
        PlanSpec(["f"], ["s"], [("DELAY", 5)]), tmp_path
    )
    assert len(paths[0].read_text().splitlines()[1:]) == 1


def test_three_by_three_rows_distinct(tmp_path):
    # Oracle: set cardinality over generated rows.
    paths = generate_plans(
        PlanSpec(
            ["addParticipant"],
            ["a", "b", "c"],
            [("FAIL", "SimulatedFault"), ("DELAY", 10), ("DELAY", 100)],
        ),
        tmp_path,
    )
    rows = paths[0].read_text().splitlines()[1:]
    assert len(rows) == 9
    assert len(set(rows)) == 9


def test_one_file_per_functionality(tmp_path):
    paths = generate_plans(
        PlanSpec(["f1", "f2"], ["s"], [("DELAY", 1)]), tmp_path
    )
    assert sorted(p.name for p in paths) == ["f1.csv", "f2.csv"]


def test_empty_spec_rejected(tmp_path):
    with pytest.raises(EmptySpec):
        generate_plans(PlanSpec([], ["s"], [("DELAY", 1)]), tmp_path)


def test_generated_plans_load_back(tmp_path):
    generate_plans(
        PlanSpec(["f1", "f2"], ["s1", "s2"], [("DELAY", 1), ("FAIL", "SimulatedFault")]),
        tmp_path,
    )
    handler = ImpairmentHandler()
    assert handler.load_dir(tmp_path) == 8
