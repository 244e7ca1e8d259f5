import pytest

from msim.coordination import Step, Workflow, WorkflowStatus
from msim.errors import (
    DuplicateStepName,
    SimulatedFault,
    SimulatorError,
    UnknownStep,
)
from msim.sampleapp.domain import TournamentFull
from msim.transaction.base import UowStatus
from tests.conftest import seed_basic


def probe_steps(trace, names):
    return [Step(name, (lambda n: lambda u: trace.append(n))(name)) for name in names]


def make_workflow(sim, steps, name="probe"):
    uow = sim.transactions.create_unit_of_work()
    return Workflow(name, sim.transactions, uow, steps, recorder=sim.recorder)


# -- construction ------------------------------------------------------------


def test_single_step_workflow_valid(saga_sim):
    wf = make_workflow(saga_sim, probe_steps([], ["only"]))
    assert wf.status is WorkflowStatus.BUILT


def test_listing_shape_two_steps(saga_sim):
    trace = []
    steps = probe_steps(trace, ["getUserStep", "addParticipantStep"])
    wf = make_workflow(saga_sim, steps)
    wf.execute()
    assert trace == ["getUserStep", "addParticipantStep"]
    assert wf.status is WorkflowStatus.COMMITTED


def test_duplicate_step_name_rejected(saga_sim):
    steps = [Step("a", lambda u: None), Step("a", lambda u: None)]
    with pytest.raises(DuplicateStepName):
        make_workflow(saga_sim, steps)


def test_positional_compensation_rejected():
    # A dependency tuple in the old third position must not be taken as a
    # compensation.
    with pytest.raises(TypeError):
        Step("b", lambda u: None, ("a",))


# -- execution order -----------------------------------------------------------


def test_declaration_order_breaks_ties(saga_sim):
    shape = ["C", "A", "B"]
    trace = []
    wf = make_workflow(saga_sim, probe_steps(trace, shape))
    wf.execute()
    assert trace == ["C", "A", "B"]


# -- failure handling -----------------------------------------------------------


def test_step_failure_aborts_and_reraises(saga_sim):
    trace = []
    steps = [
        Step("one", lambda u: trace.append("one")),
        Step("two", lambda u: (_ for _ in ()).throw(SimulatedFault("boom"))),
        Step("three", lambda u: trace.append("three")),
    ]
    wf = make_workflow(saga_sim, steps)
    with pytest.raises(SimulatedFault):
        wf.execute()
    assert wf.status is WorkflowStatus.ABORTED
    assert wf.uow.status is UowStatus.ABORTED
    assert trace == ["one"]


def test_three_step_saga_failure_runs_earlier_compensation(saga_sim):
    # Oracle: probe-instrumented run; step one's compensation fires, step
    # three never runs.
    ran = []
    steps = [
        Step("one", lambda u: ran.append("one"),
             compensation=lambda u: ran.append("undo-one")),
        Step("two", lambda u: (_ for _ in ()).throw(SimulatedFault("no")),
             compensation=lambda u: ran.append("undo-two")),
        Step("three", lambda u: ran.append("three")),
    ]
    wf = make_workflow(saga_sim, steps)
    with pytest.raises(SimulatedFault):
        wf.execute()
    assert ran == ["one", "undo-one"]


def test_causal_failure_runs_no_compensation(causal_sim):
    # The same steps under causal consistency: nothing was written before
    # commit, so the service keeps no compensation and abort runs none.
    ran = []
    steps = [
        Step("one", lambda u: ran.append("one"),
             compensation=lambda u: ran.append("undo-one")),
        Step("two", lambda u: (_ for _ in ()).throw(SimulatedFault("no"))),
    ]
    wf = make_workflow(causal_sim, steps)
    with pytest.raises(SimulatedFault):
        wf.execute()
    assert ran == ["one"]
    assert wf.uow.compensations == []


def test_exactly_one_of_commit_or_abort(saga_sim):
    commits, aborts = [], []
    service = saga_sim.transactions
    original_commit, original_abort = service._do_commit, service._do_abort
    service._do_commit = lambda uow: (commits.append(1), original_commit(uow))[1]
    service._do_abort = lambda uow: (aborts.append(1), original_abort(uow))[1]
    try:
        wf = make_workflow(saga_sim, [Step("ok", lambda u: None)])
        wf.execute()
        failing = make_workflow(
            saga_sim,
            [Step("bad", lambda u: (_ for _ in ()).throw(SimulatedFault("x")))],
        )
        with pytest.raises(SimulatedFault):
            failing.execute()
    finally:
        service._do_commit, service._do_abort = original_commit, original_abort
    assert commits == [1]
    assert aborts == [1]


# -- execute_until ------------------------------------------------------------------


def test_execute_until_pauses_without_commit(saga_sim):
    trace = []
    steps = probe_steps(trace, ["a", "b", "c"])
    wf = make_workflow(saga_sim, steps)
    wf.execute_until("b")
    assert trace == ["a", "b"]
    assert wf.status is WorkflowStatus.PAUSED
    assert wf.uow.status is UowStatus.ACTIVE
    wf.execute()
    assert trace == ["a", "b", "c"]
    assert wf.status is WorkflowStatus.COMMITTED


def test_execute_until_last_step_then_execute_commits(saga_sim):
    trace = []
    steps = probe_steps(trace, ["a", "b"])
    wf = make_workflow(saga_sim, steps)
    wf.execute_until("b")
    assert wf.status is WorkflowStatus.PAUSED
    wf.execute()
    assert wf.status is WorkflowStatus.COMMITTED
    assert trace == ["a", "b"]


def test_execute_until_unknown_step(saga_sim):
    wf = make_workflow(saga_sim, [Step("a", lambda u: None)])
    with pytest.raises(UnknownStep):
        wf.execute_until("ghost")


def test_pause_transparency(make_sim):
    # Oracle: paused-then-resumed run ends in the same domain payload as an
    # uninterrupted run, absent interleavings.
    results = {}
    for label in ("plain", "paused"):
        sim = make_sim(transaction_model="saga")
        execution_id, tournament_id, _, user_ids = seed_basic(sim)
        wf, _ = sim.app.functionalities.add_participant(
            tournament_id, execution_id, user_ids[0])
        if label == "paused":
            wf.execute_until("getUserStep")
        wf.execute()
        results[label] = sim.store.latest(tournament_id).domain_payload()
    assert results["plain"] == results["paused"]


def test_finished_workflow_cannot_run_again(saga_sim):
    wf = make_workflow(saga_sim, [Step("a", lambda u: None)])
    wf.execute()
    with pytest.raises(SimulatorError):
        wf.execute()


# -- interleaving visibility (saga vs causal) -----------------------------------------


def test_paused_saga_exposes_intermediate_state_to_reader(make_sim):
    sim = make_sim(transaction_model="saga")
    execution_id, tournament_id, _, user_ids = seed_basic(sim)
    writer, _ = sim.app.functionalities.add_participant(
        tournament_id, execution_id, user_ids[0])
    writer.execute_until("addParticipantStep")
    reader_view = sim.app.get_tournament(tournament_id)
    assert str(user_ids[0]) in reader_view["participants"]
    writer.execute()


def test_paused_causal_writer_hides_staged_state_from_reader(make_sim):
    sim = make_sim(transaction_model="tcc", tcc_commit_store_ms=0.0)
    execution_id, tournament_id, _, user_ids = seed_basic(sim)
    writer, _ = sim.app.functionalities.add_participant(
        tournament_id, execution_id, user_ids[0])
    writer.execute_until("addParticipantStep")
    reader_view = sim.app.get_tournament(tournament_id)
    assert reader_view["participants"] == {}
    writer.execute()
    assert str(user_ids[0]) in sim.app.get_tournament(tournament_id)["participants"]


def test_aborted_workflow_records_connected_compensation_spans(saga_sim):
    sim = saga_sim
    steps = [
        Step("writes", lambda u: None, compensation=lambda u: None),
        Step("fails", lambda u: (_ for _ in ()).throw(SimulatedFault("x"))),
    ]
    wf = make_workflow(sim, steps, name="abortTrace")
    with pytest.raises(SimulatedFault):
        wf.execute()
    spans = sim.recorder.finished_spans()
    root = next(s for s in spans if s.name == "abortTrace")
    compensation = next(s for s in spans if s.name == "compensate:writes")
    assert compensation.trace_id == root.trace_id
    assert compensation.parent_span_id == root.span_id


def test_every_executed_step_has_exactly_one_span(saga_sim):
    sim = saga_sim
    trace = []
    steps = probe_steps(trace, ["a", "b"])
    wf = make_workflow(sim, steps, name="spanCheck")
    wf.execute()
    spans = sim.recorder.finished_spans()
    roots = [s for s in spans if s.name == "spanCheck"]
    step_spans = [s for s in spans if s.name.startswith("step:")]
    assert len(roots) == 1
    assert sorted(s.name for s in step_spans) == ["step:a", "step:b"]


# -- unit-of-work registry ---------------------------------------------------------------


@pytest.mark.parametrize("model", ["saga", "tcc"])
def test_terminated_units_of_work_are_retired(make_sim, model):
    sim = make_sim(transaction_model=model, tcc_commit_store_ms=0.0)
    execution_id, tournament_id, _, user_ids = seed_basic(sim, capacity=1)
    committed, _ = sim.app.functionalities.add_participant(
        tournament_id, execution_id, user_ids[0])
    committed.execute()
    aborted, _ = sim.app.functionalities.add_participant(
        tournament_id, execution_id, user_ids[1])
    with pytest.raises(TournamentFull):
        aborted.execute()
    paused, _ = sim.app.functionalities.add_participant(
        tournament_id, execution_id, user_ids[1])
    paused.execute_until("getUserStep")
    assert committed.uow.status is UowStatus.COMMITTED
    assert aborted.uow.status is UowStatus.ABORTED
    for workflow in (committed, aborted):
        with pytest.raises(SimulatorError, match="unknown unit of work"):
            sim.transactions.lookup(workflow.uow.uow_id)
    assert sim.transactions.lookup(paused.uow.uow_id) is paused.uow
