import threading
import time
from dataclasses import replace

import pytest

from msim.aggregate import NOT_IN_SAGA
from msim.errors import (
    SemanticLockConflict,
    ServiceUnavailable,
    SimulatedFault,
    SimulatedInfraFault,
    SimulatorError,
)
from msim.messaging import Command, SagaCommandEnvelope
from msim.notification import DomainEvent
from msim.sampleapp.domain import IN_UPDATE_TOURNAMENT
from msim.sampleapp.services import TournamentService
from msim.transaction.base import UowStatus
from tests.conftest import queue_waiter, seed_basic


def test_register_changed_is_immediately_visible(saga_sim):
    sim = saga_sim
    execution_id, tournament_id, _, user_ids = seed_basic(sim)
    versions_before = len(sim.store.versions(execution_id))
    uow = sim.transactions.create_unit_of_work()
    execution = sim.transactions.aggregate_load(uow, execution_id)
    execution.students[user_ids[0]] = replace(execution.students[user_ids[0]], name="mid-saga")
    sim.transactions.register_changed(uow, execution)
    # persisted before any commit: another unit of work sees it
    other = sim.transactions.create_unit_of_work()
    seen = sim.transactions.aggregate_load(other, execution_id)
    assert seen.students[user_ids[0]].name == "mid-saga"
    assert len(sim.store.versions(execution_id)) == versions_before + 1
    sim.transactions.commit(uow)


def test_saga_uow_starts_empty(saga_sim):
    uow = saga_sim.transactions.create_unit_of_work()
    assert uow.snapshot_version == 0
    assert uow.locks == []
    assert uow.compensations == []


def test_commit_resets_all_locks(saga_sim):
    sim = saga_sim
    execution_id, tournament_id, _, user_ids = seed_basic(sim)
    sim.app.add_participant(tournament_id, execution_id, user_ids[0])
    assert sim.store.latest(tournament_id).saga_state == NOT_IN_SAGA


def test_forbidden_state_rejected_before_handler(saga_sim):
    sim = saga_sim
    sim.transactions.lock_wait_ms = 5  # keep the bounded wait short
    execution_id, tournament_id, _, user_ids = seed_basic(sim)
    # Park the tournament in the forbidden state via a paused saga.
    workflow, _ = sim.app.functionalities.add_participant(
        tournament_id, execution_id, user_ids[0])
    workflow.execute_until("addParticipantStep")
    assert sim.store.latest(tournament_id).saga_state == IN_UPDATE_TOURNAMENT

    other = sim.transactions.create_unit_of_work()
    with pytest.raises(SemanticLockConflict):
        sim.transactions.acquire_semantic_lock(
            other, tournament_id, [IN_UPDATE_TOURNAMENT], IN_UPDATE_TOURNAMENT)
    workflow.execute()
    assert sim.store.latest(tournament_id).saga_state == NOT_IN_SAGA


def test_lock_acquired_when_not_in_saga(saga_sim):
    sim = saga_sim
    execution_id, tournament_id, _, user_ids = seed_basic(sim)
    uow = sim.transactions.create_unit_of_work()
    sim.transactions.acquire_semantic_lock(
        uow, tournament_id, [IN_UPDATE_TOURNAMENT], IN_UPDATE_TOURNAMENT)
    assert sim.store.latest(tournament_id).saga_state == IN_UPDATE_TOURNAMENT
    assert len(uow.locks) == 1
    sim.transactions.commit(uow)
    assert sim.store.latest(tournament_id).saga_state == NOT_IN_SAGA


def test_concurrent_sagas_serialize_with_retries(saga_sim):
    # Oracle: sequential execution would commit both additions; the
    # concurrent run must match (total additions = 2).
    sim = saga_sim
    execution_id, tournament_id, _, user_ids = seed_basic(sim)
    errors = []

    def add(user_id):
        try:
            sim.app.add_participant(tournament_id, execution_id, user_id)
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=add, args=(u,)) for u in user_ids[:2]]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []
    view = sim.app.get_tournament(tournament_id)
    assert len(view["participants"]) == 2
    assert sim.store.latest(tournament_id).saga_state == NOT_IN_SAGA


def test_abort_runs_compensations_in_reverse_and_restores_payload(saga_sim, tmp_path):
    # Oracle: compare the aborted run's final domain payload against a run
    # that never happened.
    sim = saga_sim
    execution_id, tournament_id, _, user_ids = seed_basic(sim)
    baseline = sim.store.latest(tournament_id).domain_payload()

    plan = tmp_path / "addParticipant.csv"
    plan.write_text(
        "functionality,step,invocation_index,action,value\n"
        "addParticipant,addParticipantStep,1,FAIL,SimulatedFault\n"
    )
    sim.impairment.load_plan(plan)
    with pytest.raises(SimulatedFault):
        sim.app.add_participant(tournament_id, execution_id, user_ids[0])
    assert sim.store.latest(tournament_id).domain_payload() == baseline
    assert sim.store.latest(tournament_id).saga_state == NOT_IN_SAGA


def test_abort_after_persisted_step_compensates_the_write(saga_sim, tmp_path):
    # Step one persists a participant; step two fails with a domain error.
    # The compensation must rewrite the tournament to its pre-saga payload,
    # modulo extra chain versions.
    sim = saga_sim
    execution_id, tournament_id, _, user_ids = seed_basic(sim)
    baseline = sim.store.latest(tournament_id).domain_payload()
    chain_before = len(sim.store.versions(tournament_id))

    from msim.coordination import Step, Workflow

    functionalities = sim.app.functionalities
    uow = sim.transactions.create_unit_of_work()

    def add_step(u):
        student = sim.gateway.send(Command(
            target_service="execution", command_type="GetStudent",
            payload={"execution_aggregate_id": execution_id,
                     "user_aggregate_id": user_ids[0]},
            unit_of_work_ref=u.uow_id, target_aggregate_id=execution_id))
        sim.gateway.send(SagaCommandEnvelope(
            inner=Command(
                target_service="tournament", command_type="AddParticipant",
                payload={"tournament_aggregate_id": tournament_id,
                         "student": student},
                unit_of_work_ref=u.uow_id,
                target_aggregate_id=tournament_id),
            forbidden_states=[IN_UPDATE_TOURNAMENT],
            acquire_state=IN_UPDATE_TOURNAMENT))

    def undo_add(u):
        sim.gateway.send(Command(
            target_service="tournament", command_type="RemoveParticipant",
            payload={"tournament_aggregate_id": tournament_id,
                     "user_aggregate_id": user_ids[0]},
            unit_of_work_ref=u.uow_id, target_aggregate_id=tournament_id))

    def failing_step(u):
        raise SimulatedFault("step two is broken")

    workflow = Workflow(
        "twoStepWrite", sim.transactions, uow,
        [Step("persistStep", add_step, compensation=undo_add),
         Step("failingStep", failing_step)])
    with pytest.raises(SimulatedFault):
        workflow.execute()

    final = sim.store.latest(tournament_id)
    assert final.domain_payload() == baseline
    assert final.saga_state == NOT_IN_SAGA
    assert len(sim.store.versions(tournament_id)) > chain_before


def test_abort_with_no_completed_steps_runs_no_compensations(saga_sim):
    sim = saga_sim
    seed_basic(sim)
    uow = sim.transactions.create_unit_of_work()
    ran = []
    sim.transactions.register_compensation(uow, lambda u: ran.append(1), "probe")
    uow.compensations.clear()  # as if no step had completed
    sim.transactions.abort(uow)
    assert ran == []
    assert uow.status is UowStatus.ABORTED


def fail_version_counter_once(sim, on_call):
    """Make the on_call-th next counter increment raise ServiceUnavailable."""
    increment = sim.versioning.increment_and_get_version_number
    calls = []

    def flaky_increment():
        calls.append(1)
        if len(calls) == on_call:
            raise ServiceUnavailable("version counter down")
        return increment()

    sim.versioning.increment_and_get_version_number = flaky_increment


def test_retried_abort_runs_each_compensation_once(saga_sim):
    # The first unlock write of the abort fails, so the gateway resends the
    # abort; the retry must finish the unlock without compensating again.
    sim = saga_sim
    _, tournament_id, _, _ = seed_basic(sim)
    from msim.coordination import Step, Workflow

    ran = []

    def lock_step(u):
        sim.transactions.acquire_semantic_lock(
            u, tournament_id, [IN_UPDATE_TOURNAMENT], IN_UPDATE_TOURNAMENT)

    def failing_step(u):
        fail_version_counter_once(sim, on_call=1)
        raise SimulatedFault("step two is broken")

    uow = sim.transactions.create_unit_of_work()
    workflow = Workflow(
        "lockThenFail", sim.transactions, uow,
        [Step("lockStep", lock_step, compensation=lambda u: ran.append(1)),
         Step("failingStep", failing_step)])
    with pytest.raises(SimulatedFault):
        workflow.execute()

    assert ran == [1]
    assert sim.store.latest(tournament_id).saga_state == NOT_IN_SAGA
    assert uow.status is UowStatus.ABORTED
    with pytest.raises(SimulatorError, match="unknown unit of work"):
        sim.transactions.lookup(uow.uow_id)


def test_retried_commit_writes_each_unlock_once(saga_sim):
    # The second unlock write of the commit fails, so the gateway resends
    # the commit; the retry must not rewrite the lock already released.
    sim = saga_sim
    execution_id, tournament_id, _, _ = seed_basic(sim)
    uow = sim.transactions.create_unit_of_work()
    for aggregate_id in (tournament_id, execution_id):
        sim.transactions.acquire_semantic_lock(
            uow, aggregate_id, [IN_UPDATE_TOURNAMENT], IN_UPDATE_TOURNAMENT)
    chains = {a: len(sim.store.versions(a)) for a in (tournament_id, execution_id)}
    fail_version_counter_once(sim, on_call=2)
    sim.transactions.commit(uow)

    assert uow.status is UowStatus.COMMITTED
    for aggregate_id, length in chains.items():
        assert len(sim.store.versions(aggregate_id)) == length + 1
        assert sim.store.latest(aggregate_id).saga_state == NOT_IN_SAGA


def test_compensation_failure_does_not_stop_remaining(saga_sim):
    sim = saga_sim
    seed_basic(sim)
    uow = sim.transactions.create_unit_of_work()
    ran = []

    def bad(u):
        raise RuntimeError("compensation broke")

    sim.transactions.register_compensation(uow, lambda u: ran.append("first"), "c1")
    sim.transactions.register_compensation(uow, bad, "c2")
    sim.transactions._do_abort(uow)
    assert ran == ["first"]  # reverse order reached the earlier compensation
    assert sim.transactions.compensation_failures
    assert "c2" in sim.transactions.compensation_failures[0]


def test_lock_is_reentrant_for_the_holding_saga(saga_sim, tmp_path):
    # A handler that fails with an infra error after acquiring the lock is
    # retried by the gateway; the retry must not conflict with the saga's
    # own lock.
    sim = saga_sim
    sim.transactions.lock_wait_ms = 5
    execution_id, tournament_id, _, user_ids = seed_basic(sim)
    attempts = []

    def flaky_handler(command):
        attempts.append(1)
        if len(attempts) == 1:
            raise SimulatedInfraFault("transient failure after lock acquisition")
        return {}

    sim.gateway.register_handler(
        "flaky", flaky_handler, decorators=(sim.transactions.decorator(),))
    uow = sim.transactions.create_unit_of_work()
    sim.gateway.send(SagaCommandEnvelope(
        inner=Command(
            target_service="flaky", command_type="Wobble",
            unit_of_work_ref=uow.uow_id,
            target_aggregate_id=tournament_id),
        forbidden_states=[IN_UPDATE_TOURNAMENT],
        acquire_state=IN_UPDATE_TOURNAMENT))
    assert len(attempts) == 2
    assert len(uow.locks) == 1
    sim.transactions.commit(uow)
    assert sim.store.latest(tournament_id).saga_state == NOT_IN_SAGA


def test_handler_failure_discards_step_buffer(saga_sim):
    # A handler that stages a change and then raises must leave no trace.
    sim = saga_sim
    execution_id, tournament_id, _, user_ids = seed_basic(sim)
    versions_before = sim.store.versions(execution_id)

    def exploding_handler(command):
        uow = sim.transactions.lookup(command.unit_of_work_ref)
        execution = sim.transactions.aggregate_load(uow, execution_id)
        execution.students[user_ids[0]] = replace(
            execution.students[user_ids[0]], name="never-visible")
        sim.transactions.register_changed(uow, execution)
        raise SimulatedFault("after staging")

    sim.gateway.register_handler(
        "exploder", exploding_handler,
        decorators=(sim.transactions.decorator(),))
    uow = sim.transactions.create_unit_of_work()
    with pytest.raises(SimulatedFault):
        sim.gateway.send(Command(
            target_service="exploder", command_type="Explode",
            unit_of_work_ref=uow.uow_id))
    assert sim.store.versions(execution_id) == versions_before
    latest = sim.store.latest(execution_id)
    assert latest.students[user_ids[0]].name != "never-visible"


def test_event_installs_only_with_its_publishers_step(saga_sim):
    # A saga's outbox batch is one handler's step. The execution changes in
    # one step, so a later step of the same unit of work, or code outside
    # any handler, has no version of it to install the event with.
    sim = saga_sim
    txn = sim.transactions
    execution_id, _, _, user_ids = seed_basic(sim)

    def renamed_event():
        return DomainEvent(
            event_id=sim.notification.event_ids.new_event_id(),
            event_type="UpdateStudentNameEvent",
            publisher_aggregate_id=execution_id,
            publisher_version=0,
            payload={"user_aggregate_id": user_ids[0], "new_name": "renamed"})

    def rename(command):
        uow = txn.lookup(command.unit_of_work_ref)
        execution = txn.aggregate_load(uow, execution_id)
        execution.students[user_ids[0]] = replace(
            execution.students[user_ids[0]], name="renamed")
        txn.register_changed(uow, execution)
        return {}

    def announce(command):
        txn.register_event(txn.lookup(command.unit_of_work_ref), renamed_event())
        return {}

    for service, handler in (("renamer", rename), ("announcer", announce)):
        sim.gateway.register_handler(service, handler, decorators=(txn.decorator(),))
    uow = txn.create_unit_of_work()
    events_before = len(sim.store.events())
    sim.gateway.send(Command(target_service="renamer", command_type="Rename",
                             unit_of_work_ref=uow.uow_id))
    with pytest.raises(SimulatorError, match="publisher"):
        sim.gateway.send(Command(target_service="announcer", command_type="Announce",
                                 unit_of_work_ref=uow.uow_id))
    with pytest.raises(SimulatorError, match="publisher"):
        txn.register_event(uow, renamed_event())
    assert len(sim.store.events()) == events_before
    assert sim.store.latest(execution_id).students[user_ids[0]].name == "renamed"
    txn.commit(uow)


def test_saga_unit_of_work_buffers_no_changes_or_events(saga_sim):
    sim = saga_sim
    execution_id, _, _, user_ids = seed_basic(sim)
    workflow, _ = sim.app.functionalities.update_student_name(
        execution_id, user_ids[0], "renamed")
    workflow.execute_until("updateStudentNameStep")
    assert workflow.uow.changed == {}
    assert workflow.uow.events == []
    workflow.execute()


def test_semantic_lock_waiters_enter_in_queue_order(saga_sim):
    # The head waiter gives up at its bound without holding up the two
    # behind it. The last one forbids another saga state, so it could take
    # the lock at once, yet it enters only after the waiter queued before it.
    sim = saga_sim
    service = sim.transactions
    _, tournament_id, _, _ = seed_basic(sim)
    other_state = "IN_OTHER_SAGA"
    holder = service.create_unit_of_work()
    service.acquire_semantic_lock(
        holder, tournament_id, [IN_UPDATE_TOURNAMENT], IN_UPDATE_TOURNAMENT)
    uows = {}
    outcomes = {}
    waiters = []
    for name, wait_ms, state in (("impatient", 50, IN_UPDATE_TOURNAMENT),
                                 ("first", 5000, IN_UPDATE_TOURNAMENT),
                                 ("second", 5000, other_state)):
        uows[name] = uow = service.create_unit_of_work()
        service.lock_wait_ms = wait_ms  # read as the waiter queues
        waiters.append(queue_waiter(
            service._gate, tournament_id, outcomes, name,
            lambda uow=uow, state=state: service.acquire_semantic_lock(
                uow, tournament_id, [state], state)))
    impatient, first, second = waiters

    impatient.join(5)
    assert isinstance(outcomes["impatient"], SemanticLockConflict)
    assert uows["impatient"].locks == []
    assert first.is_alive() and second.is_alive()
    service.commit(holder)
    first.join(5)
    second.join(5)
    assert not first.is_alive() and not second.is_alive()
    assert outcomes["first"] == outcomes["second"] == "entered"
    states = [sim.store.record_at(tournament_id, version).saga_state
              for version in sim.store.versions(tournament_id)[-3:]]
    assert states == [NOT_IN_SAGA, IN_UPDATE_TOURNAMENT, other_state]


@pytest.mark.parametrize("clock_mode", ["virtual", "real"])
def test_no_lock_taken_for_a_unit_of_work_that_ended(make_sim, clock_mode):
    # A broker handler still waiting for the lock when its caller timed out
    # must not take the lock once the holder releases it: the caller's unit
    # of work has aborted and will never release a lock again.
    sim = make_sim(transaction_model="saga", transport_mode="broker",
                   broker_response_timeout_s=0.2, saga_lock_wait_ms=1000,
                   retry_max_attempts=1, clock_mode=clock_mode)
    execution_id, tournament_id, _, user_ids = seed_basic(sim, students=3)
    gate = sim.transactions._gate
    holder, _ = sim.app.functionalities.add_participant(
        tournament_id, execution_id, user_ids[0])
    holder.execute_until("addParticipantStep")
    late, _ = sim.app.functionalities.add_participant(
        tournament_id, execution_id, user_ids[1])
    with pytest.raises(ServiceUnavailable):
        late.execute()
    assert late.uow.status is UowStatus.ABORTED

    holder.execute()
    deadline = time.monotonic() + 5
    while tournament_id in gate._queues:
        assert time.monotonic() < deadline, "the late handler never left the gate"
        time.sleep(0.001)
    assert late.uow.locks == []
    assert sim.store.latest(tournament_id).saga_state == NOT_IN_SAGA
    sim.app.add_participant(tournament_id, execution_id, user_ids[2])
    participants = sim.app.get_tournament(tournament_id)["participants"]
    assert str(user_ids[2]) in participants
    assert str(user_ids[1]) not in participants


def test_no_step_installs_after_its_unit_of_work_aborted(make_sim, monkeypatch):
    # A broker handler still running when its caller timed out must not
    # install its step once the workflow has aborted: no compensation would
    # ever undo that write.
    sim = make_sim(transaction_model="saga", transport_mode="broker",
                   broker_delivery_ms=1.0, broker_poll_ms=1.0,
                   broker_response_timeout_s=0.2, retry_max_attempts=1)
    execution_id, tournament_id, _, user_ids = seed_basic(sim)
    original = TournamentService._ops["AddParticipant"]
    finished = threading.Event()

    def slow_add(self, uow, payload):
        try:
            time.sleep(0.4)
            return original(self, uow, payload)
        finally:
            finished.set()

    monkeypatch.setitem(TournamentService._ops, "AddParticipant", slow_add)
    with pytest.raises(ServiceUnavailable):
        sim.app.add_participant(tournament_id, execution_id, user_ids[0])
    versions_after_abort = sim.store.versions(tournament_id)
    assert finished.wait(5)
    time.sleep(0.05)  # let the handler's step end after its body returned
    assert sim.store.versions(tournament_id) == versions_after_abort
    latest = sim.store.latest(tournament_id)
    assert user_ids[0] not in latest.participants
    assert latest.saga_state == NOT_IN_SAGA


def test_no_step_installs_after_its_caller_gave_up(make_sim, monkeypatch):
    # The handler ends after its caller's 0.2-s timeout (100-ms delivery plus
    # 150 ms of work) but before the abort reaches the saga service (sent at
    # 0.2 s, delivered 100 ms later). Its step registered no compensation, so
    # it must install nothing; only the lock and its release are written.
    sim = make_sim(transaction_model="saga", transport_mode="local",
                   retry_max_attempts=1, clock_mode="real")
    execution_id, tournament_id, _, user_ids = seed_basic(sim)
    # Seeded over the local transport: a 100-ms delivery makes seeding slow.
    sim.gateway.configure_transport(
        "broker", delivery_ms=100.0, poll_ms=1.0, response_timeout_s=0.2)
    versions_before = sim.store.versions(tournament_id)
    original = TournamentService._ops["AddParticipant"]
    finished = threading.Event()

    def late_add(self, uow, payload):
        try:
            time.sleep(0.15)
            return original(self, uow, payload)
        finally:
            finished.set()

    monkeypatch.setitem(TournamentService._ops, "AddParticipant", late_add)
    with pytest.raises(ServiceUnavailable):
        sim.app.add_participant(tournament_id, execution_id, user_ids[0])
    assert finished.wait(5)
    time.sleep(0.05)  # let the handler's step end after its body returned
    versions = sim.store.versions(tournament_id)
    assert len(versions) == len(versions_before) + 2
    latest = sim.store.latest(tournament_id)
    assert user_ids[0] not in latest.participants
    assert latest.saga_state == NOT_IN_SAGA


def test_saga_chains_are_never_compacted(saga_sim):
    sim = saga_sim
    execution_id, _, _, user_ids = seed_basic(sim)
    versions = sim.store.versions(execution_id)
    for i in range(20):
        sim.app.update_student_name(execution_id, user_ids[0], f"name-{i}")
    assert sim.store.versions(execution_id)[:len(versions)] == versions
    assert len(sim.store.versions(execution_id)) == len(versions) + 20
