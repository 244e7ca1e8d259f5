import json
import os

import pytest

from msim.clock import VirtualClock
from msim.coordination import Step, Workflow
from msim.errors import SimulatedFault, UnbalancedSpan
from msim.monitoring import Span, SpanRecorder
from tests.conftest import seed_basic


def test_root_with_two_children():
    recorder = SpanRecorder(VirtualClock())
    root = recorder.create_root("workflow")
    kids = [recorder.start_span(root, f"step:{i}") for i in range(2)]
    for _, span_id in kids:
        recorder.end_span(span_id)
    recorder.end_span(root[1])
    spans = recorder.finished_spans()
    assert len(spans) == 3
    by_name = {s.name: s for s in spans}
    for i in range(2):
        child = by_name[f"step:{i}"]
        assert child.parent_span_id == root[1]
        assert child.trace_id == root[0]


def test_end_twice_is_unbalanced():
    recorder = SpanRecorder(VirtualClock())
    _, span_id = recorder.create_root("w")
    recorder.end_span(span_id)
    with pytest.raises(UnbalancedSpan):
        recorder.end_span(span_id)


def test_end_unknown_is_unbalanced():
    with pytest.raises(UnbalancedSpan):
        SpanRecorder(VirtualClock()).end_span(999)


def test_open_span_has_no_duration():
    span = Span(trace_id=1, span_id=1, parent_span_id=None, name="w", start_ns=0)
    with pytest.raises(UnbalancedSpan):
        span.duration_ns()


def test_remote_parent_context_links_traces():
    recorder = SpanRecorder(VirtualClock())
    root = recorder.create_root("workflow")
    # context extracted on one "service", injected on another
    remote_ctx = (root[0], root[1])
    _, child = recorder.start_span(remote_ctx, "handle:AddParticipant")
    recorder.end_span(child)
    span = recorder.finished_spans()[0]
    assert span.trace_id == root[0]
    assert span.parent_span_id == root[1]


def test_flush_writes_jsonl_and_clears(tmp_path):
    recorder = SpanRecorder(VirtualClock())
    _, a = recorder.create_root("w")
    recorder.end_span(a)
    out = tmp_path / "spans.jsonl"
    assert recorder.flush(out) == 1
    assert recorder.flush(out) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert set(record) == {
        "trace_id", "span_id", "parent_span_id", "name",
        "start_ns", "end_ns", "attributes",
    }


def test_open_spans_survive_flush(tmp_path):
    recorder = SpanRecorder(VirtualClock())
    root = recorder.create_root("w")
    assert recorder.flush(tmp_path / "s.jsonl") == 0
    recorder.end_span(root[1])
    assert recorder.flush(tmp_path / "s.jsonl") == 1


def test_injected_delay_reflected_in_step_span(make_sim, tmp_path):
    # A 25 ms impairment delay must land inside the step's span.
    sim = make_sim()
    execution_id, tournament_id, _, user_ids = seed_basic(sim)
    plan = tmp_path / "addParticipant.csv"
    plan.write_text(
        "functionality,step,invocation_index,action,value\n"
        "addParticipant,addParticipantStep,1,DELAY,25\n"
    )
    sim.impairment.load_plan(plan)
    sim.app.add_participant(tournament_id, execution_id, user_ids[0])
    spans = {s.name: s for s in sim.recorder.finished_spans()}
    step_span = spans["step:addParticipantStep"]
    assert step_span.duration_ns() >= 25 * 1e6


# One add_participant under saga with a remote version counter: the lock,
# the step install and the unlock each take a counter call.
ADD_PARTICIPANT_SPANS = sorted([
    "addParticipant", "step:getUserStep", "step:addParticipantStep",
    "handle:GetStudent", "handle:AddParticipant", "handle:transaction.commit",
    *["handle:version.increment_and_get"] * 3,
])


@pytest.mark.parametrize("mode", ["rpc", "broker"])
def test_handler_spans_join_their_callers_trace(make_sim, mode):
    # A handler's span joins its caller's trace however deeply it was sent,
    # so every transport records the same spans, compensations included.
    sim = make_sim(transaction_model="saga", transport_mode=mode,
                   versioning_strategy="centralized-remote", rpc_one_way_ms=0.0,
                   broker_delivery_ms=0.0, broker_poll_ms=0.1)
    execution_id, tournament_id, _, user_ids = seed_basic(sim)
    sim.recorder.flush(os.devnull)
    sim.app.add_participant(tournament_id, execution_id, user_ids[0])
    assert sorted(s.name for s in sim.recorder.finished_spans()) == ADD_PARTICIPANT_SPANS

    adding, _ = sim.app.functionalities.add_participant(
        tournament_id, execution_id, user_ids[1])
    failing = Workflow(
        "failingAdd", sim.transactions, adding.uow,
        [*adding.steps, Step("fails", lambda u: (_ for _ in ()).throw(SimulatedFault("x")))],
        recorder=sim.recorder)
    with pytest.raises(SimulatedFault):
        failing.execute()
    spans = sim.recorder.finished_spans()
    root = next(s for s in spans if s.name == "failingAdd")
    compensation = next(s for s in spans if s.name == "compensate:addParticipantStep")
    assert compensation.trace_id == root.trace_id
