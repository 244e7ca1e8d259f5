import sys
import threading
from dataclasses import replace

import pytest

from msim import SimConfig, Simulator
from msim.errors import (
    AggregateNotInSnapshot,
    ConcurrentCommitConflict,
    IncompatibleVersioningStrategy,
    MergeConflictUnresolvable,
    SimulatorError,
)
from msim.notification import DomainEvent
from msim.sampleapp.domain import TournamentFull
from msim.transaction.base import UowStatus
from tests.conftest import queue_waiter, seed_basic
from tests.test_acceptance import _staged_two_aggregates_plus_event


def stage_participant(sim, uow, tournament_id, user_id, name="extra"):
    tournament = sim.transactions.aggregate_load(uow, tournament_id)
    from msim.sampleapp.domain import MemberRef

    tournament.participants[user_id] = MemberRef(user_id=user_id, name=name)
    sim.transactions.register_changed(uow, tournament)
    return tournament


# -- snapshots and loads ----------------------------------------------------------


def test_snapshot_fixed_at_creation(causal_sim):
    sim = causal_sim
    seed_basic(sim)
    horizon = sim.versioning.get_version_number()
    uow = sim.transactions.create_unit_of_work()
    assert uow.snapshot_version == horizon


def test_create_unit_of_work_makes_no_versioning_call(causal_sim, monkeypatch):
    sim = causal_sim
    seed_basic(sim)
    used = []

    class Spy:
        def __getattr__(self, name):
            used.append(name)
            return getattr(sim.versioning, name)

    monkeypatch.setattr(sim.transactions, "_versioning", Spy())
    uow = sim.transactions.create_unit_of_work()
    assert uow.snapshot_version == sim.versioning.get_version_number()
    assert used == []


def test_load_resolves_greatest_version_at_or_below_snapshot(causal_sim):
    # Oracle: brute-force max-<= filter over the committed chain.
    sim = causal_sim
    execution_id, tournament_id, _, user_ids = seed_basic(sim)
    uow = sim.transactions.create_unit_of_work()
    # two newer commits land after the snapshot
    sim.app.update_student_name(execution_id, user_ids[0], "newer-1")
    sim.app.update_student_name(execution_id, user_ids[0], "newer-2")

    chain_versions = sim.store.versions(execution_id)
    expected = max(v for v in chain_versions if v <= uow.snapshot_version)
    loaded = sim.transactions.aggregate_load(uow, execution_id)
    assert loaded.prev_version == expected
    assert loaded.students[user_ids[0]].name == "student-0"


def test_load_beyond_snapshot_raises(causal_sim):
    sim = causal_sim
    uow = sim.transactions.create_unit_of_work()  # snapshot before any commit
    execution_id, *_ = seed_basic(sim)
    with pytest.raises(AggregateNotInSnapshot):
        sim.transactions.aggregate_load(uow, execution_id)


def test_repeatable_read_despite_concurrent_commits(causal_sim):
    sim = causal_sim
    execution_id, tournament_id, _, user_ids = seed_basic(sim)
    uow = sim.transactions.create_unit_of_work()
    first = sim.transactions.aggregate_load(uow, execution_id)
    sim.app.update_student_name(execution_id, user_ids[0], "concurrent")
    second = sim.transactions.aggregate_load(uow, execution_id)
    assert first.domain_payload() == second.domain_payload()
    assert second.students[user_ids[0]].name == "student-0"


def test_staged_changes_invisible_until_commit(causal_sim):
    sim = causal_sim
    execution_id, tournament_id, _, user_ids = seed_basic(sim)
    versions_before = sim.store.versions(tournament_id)
    uow = sim.transactions.create_unit_of_work()
    stage_participant(sim, uow, tournament_id, user_ids[0])
    assert sim.store.versions(tournament_id) == versions_before
    reader = sim.transactions.create_unit_of_work()
    seen = sim.transactions.aggregate_load(reader, tournament_id)
    assert seen.participants == {}
    sim.transactions.commit(uow)


def test_latest_staged_copy_wins_within_uow(causal_sim):
    sim = causal_sim
    execution_id, tournament_id, _, user_ids = seed_basic(sim)
    uow = sim.transactions.create_unit_of_work()
    stage_participant(sim, uow, tournament_id, user_ids[0], name="first")
    second = stage_participant(sim, uow, tournament_id, user_ids[1], name="second")
    staged = uow.changed[tournament_id]
    assert staged is second
    assert set(staged.participants) == {user_ids[0], user_ids[1]}


def test_event_of_an_unchanged_publisher_is_refused(causal_sim):
    sim = causal_sim
    execution_id, tournament_id, _, user_ids = seed_basic(sim)
    uow = sim.transactions.create_unit_of_work()
    stage_participant(sim, uow, tournament_id, user_ids[0])
    with pytest.raises(SimulatorError, match="publisher"):
        sim.transactions.register_event(uow, DomainEvent(
            event_id=sim.notification.event_ids.new_event_id(),
            event_type="UpdateStudentNameEvent",
            publisher_aggregate_id=execution_id,
            publisher_version=0,
            payload={"user_aggregate_id": user_ids[0], "new_name": "renamed"}))
    assert uow.events == []


def test_abort_discards_staged_state(causal_sim):
    sim = causal_sim
    execution_id, tournament_id, _, user_ids = seed_basic(sim)
    snapshot = {
        aggregate_id: sim.store.versions(aggregate_id)
        for aggregate_id in (execution_id, tournament_id)
    }
    uow = sim.transactions.create_unit_of_work()
    stage_participant(sim, uow, tournament_id, user_ids[0])
    sim.transactions.abort(uow)
    assert uow.status is UowStatus.ABORTED
    for aggregate_id, versions in snapshot.items():
        assert sim.store.versions(aggregate_id) == versions


# -- commit and merge ----------------------------------------------------------------


def test_commit_without_concurrency_needs_no_merge(causal_sim):
    sim = causal_sim
    execution_id, tournament_id, _, user_ids = seed_basic(sim)
    merges = []
    sim.transactions.commit_stage_hook = (
        lambda stage: merges.append(stage) if stage.startswith("commit:merged") else None
    )
    uow = sim.transactions.create_unit_of_work()
    stage_participant(sim, uow, tournament_id, user_ids[0])
    sim.transactions.commit(uow)
    assert merges == []
    latest = sim.store.latest(tournament_id)
    assert user_ids[0] in latest.participants


def test_concurrent_additions_merge_to_union(causal_sim):
    # Oracle: the union of the two sequential outcomes.
    sim = causal_sim
    execution_id, tournament_id, _, user_ids = seed_basic(sim)
    uow_a = sim.transactions.create_unit_of_work()
    uow_b = sim.transactions.create_unit_of_work()
    stage_participant(sim, uow_a, tournament_id, user_ids[0], name="p1")
    stage_participant(sim, uow_b, tournament_id, user_ids[1], name="p2")
    sim.transactions.commit(uow_a)
    sim.transactions.commit(uow_b)  # merges against uow_a's commit
    final = sim.store.latest(tournament_id)
    assert set(final.participants) == {user_ids[0], user_ids[1]}


def test_commit_version_shared_by_all_staged_aggregates(causal_sim):
    sim = causal_sim
    execution_id, tournament_id, _, user_ids = seed_basic(sim)
    uow = sim.transactions.create_unit_of_work()
    stage_participant(sim, uow, tournament_id, user_ids[0])
    execution = sim.transactions.aggregate_load(uow, execution_id)
    execution.students[user_ids[0]] = replace(execution.students[user_ids[0]], name="renamed")
    sim.transactions.register_changed(uow, execution)
    sim.transactions.commit(uow)
    assert (
        sim.store.latest(tournament_id).version
        == sim.store.latest(execution_id).version
    )


def test_atomic_visibility_by_snapshot(causal_sim):
    sim = causal_sim
    execution_id, tournament_id, _, user_ids = seed_basic(sim)
    before = sim.transactions.create_unit_of_work()
    uow = sim.transactions.create_unit_of_work()
    stage_participant(sim, uow, tournament_id, user_ids[0])
    execution = sim.transactions.aggregate_load(uow, execution_id)
    execution.students[user_ids[0]] = replace(execution.students[user_ids[0]], name="renamed")
    sim.transactions.register_changed(uow, execution)
    sim.transactions.commit(uow)
    after = sim.transactions.create_unit_of_work()

    # reader below the commit version sees none of the writes
    old_t = sim.transactions.aggregate_load(before, tournament_id)
    old_e = sim.transactions.aggregate_load(before, execution_id)
    assert old_t.participants == {}
    assert old_e.students[user_ids[0]].name == "student-0"
    # reader at or above sees all of them
    new_t = sim.transactions.aggregate_load(after, tournament_id)
    new_e = sim.transactions.aggregate_load(after, execution_id)
    assert user_ids[0] in new_t.participants
    assert new_e.students[user_ids[0]].name == "renamed"


def test_post_merge_invariant_failure_converts_to_abort(causal_sim):
    # Capacity 1 tournament: two staged additions merge to two participants,
    # the re-verification fails, and the reserved version is handed back.
    sim = causal_sim
    app = sim.app
    execution_id = app.create_execution("SE")
    creator = app.create_user("creator")
    app.enroll_student(execution_id, creator)
    u1, u2 = app.create_user("a"), app.create_user("b")
    app.enroll_student(execution_id, u1)
    app.enroll_student(execution_id, u2)
    tournament_id = app.create_tournament(execution_id, creator, 0, 100, 1)

    uow_a = sim.transactions.create_unit_of_work()
    uow_b = sim.transactions.create_unit_of_work()
    stage_participant(sim, uow_a, tournament_id, u1)
    stage_participant(sim, uow_b, tournament_id, u2)
    sim.transactions.commit(uow_a)
    counter_before = sim.versioning.get_version_number()
    with pytest.raises(TournamentFull):
        sim.transactions.commit(uow_b)
    assert uow_b.status is UowStatus.ABORTED
    assert sim.versioning.get_version_number() == counter_before
    assert set(sim.store.latest(tournament_id).participants) == {u1}


@pytest.mark.parametrize("versioning", ["centralized", "centralized-remote"])
def test_unresolvable_merge_aborts(make_sim, versioning):
    # The failed commit hands its reserved version back to the counter, over
    # the transport when the counter is remote.
    sim = make_sim(transaction_model="tcc", tcc_commit_store_ms=0.0,
                   versioning_strategy=versioning)
    execution_id, tournament_id, _, user_ids = seed_basic(sim)
    uow_a = sim.transactions.create_unit_of_work()
    uow_b = sim.transactions.create_unit_of_work()
    t_a = sim.transactions.aggregate_load(uow_a, tournament_id)
    t_a.max_participants = 50
    sim.transactions.register_changed(uow_a, t_a)
    t_b = sim.transactions.aggregate_load(uow_b, tournament_id)
    t_b.max_participants = 60
    sim.transactions.register_changed(uow_b, t_b)
    sim.transactions.commit(uow_a)
    counter = sim.versioning.get_version_number()
    with pytest.raises(MergeConflictUnresolvable):
        sim.transactions.commit(uow_b)
    assert sim.versioning.get_version_number() == counter
    assert sim.store.latest(tournament_id).max_participants == 50


def test_merge_abort_retires_unit_of_work(causal_sim):
    sim = causal_sim
    _, tournament_id, _, _ = seed_basic(sim)
    uow_a = sim.transactions.create_unit_of_work()
    uow_b = sim.transactions.create_unit_of_work()
    for uow, limit in ((uow_a, 50), (uow_b, 60)):
        tournament = sim.transactions.aggregate_load(uow, tournament_id)
        tournament.max_participants = limit
        sim.transactions.register_changed(uow, tournament)
    sim.transactions.commit(uow_a)
    with pytest.raises(MergeConflictUnresolvable):
        sim.transactions.commit(uow_b)
    assert uow_b.status is UowStatus.ABORTED
    for uow in (uow_a, uow_b):
        with pytest.raises(SimulatorError, match="unknown unit of work"):
            sim.transactions.lookup(uow.uow_id)


# -- read-only commits ------------------------------------------------------------


def read_only_uow(sim, *aggregate_ids):
    uow = sim.transactions.create_unit_of_work()
    for aggregate_id in aggregate_ids:
        sim.transactions.aggregate_load(uow, aggregate_id)
    return uow


def park_committer_at(sim, uow, stage):
    """Run uow's commit in a thread that blocks at `stage` until released.

    Returns (thread, release event); the commit section is held on return.
    """
    parked, release = threading.Event(), threading.Event()

    def hook(reached):
        if reached == stage:
            parked.set()
            release.wait(5)

    sim.transactions.commit_stage_hook = hook
    thread = threading.Thread(target=sim.transactions._do_commit, args=(uow,))
    thread.start()
    assert parked.wait(5), f"committer never reached {stage}"
    return thread, release


def forbid_install(sim, monkeypatch):
    def install(*args, **kwargs):
        raise AssertionError("a read-only commit installed into the store")

    monkeypatch.setattr(sim.store, "install", install)


def test_read_only_commit_reserves_no_version_and_leaves_store(causal_sim, monkeypatch):
    sim = causal_sim
    execution_id, tournament_id, _, _ = seed_basic(sim)
    uow = read_only_uow(sim, execution_id, tournament_id)
    stages = []
    sim.transactions.commit_stage_hook = stages.append
    counter = sim.versioning.get_version_number()
    forbid_install(sim, monkeypatch)
    sim.transactions.commit(uow)
    assert uow.status is UowStatus.COMMITTED
    assert sim.versioning.get_version_number() == counter
    assert stages == []


def test_repeated_read_only_commit_is_a_no_op(causal_sim, monkeypatch):
    sim = causal_sim
    _, tournament_id, _, _ = seed_basic(sim)
    uow = read_only_uow(sim, tournament_id)
    counter = sim.versioning.get_version_number()
    forbid_install(sim, monkeypatch)
    for _ in range(2):
        sim.transactions._do_commit(uow)
        assert uow.status is UowStatus.COMMITTED
        assert sim.versioning.get_version_number() == counter


def test_read_only_commit_does_not_wait_for_the_commit_section(causal_sim):
    sim = causal_sim
    sim.transactions.commit_wait_ms = 5
    _, tournament_id, _, user_ids = seed_basic(sim)
    writer = sim.transactions.create_unit_of_work()
    stage_participant(sim, writer, tournament_id, user_ids[0])
    reader = read_only_uow(sim, tournament_id)
    thread, release = park_committer_at(sim, writer, "commit:pre-install")
    try:
        sim.transactions._do_commit(reader)  # the section is held by the writer
        assert reader.status is UowStatus.COMMITTED
    finally:
        release.set()
        thread.join(5)
    assert not thread.is_alive()
    assert writer.status is UowStatus.COMMITTED


def test_commit_section_waiters_enter_in_queue_order(causal_sim):
    # While a writer holds the commit section, the head waiter gives up at
    # its bound without holding up the two behind it, which then enter in
    # the order they queued.
    sim = causal_sim
    service = sim.transactions
    _, tournament_id, _, user_ids = seed_basic(sim, students=4)
    uows = {}
    for name, user_id in zip(("writer", "impatient", "first", "second"), user_ids):
        uows[name] = service.create_unit_of_work()
        stage_participant(sim, uows[name], tournament_id, user_id)
    thread, release = park_committer_at(sim, uows["writer"], "commit:pre-install")
    entered = []

    def record_entry(stage):
        if stage == "commit:begin":
            entered.append(threading.current_thread().name)

    service.commit_stage_hook = record_entry
    outcomes = {}
    waiters = []
    try:
        for name, wait_ms in (("impatient", 50), ("first", 5000), ("second", 5000)):
            service.commit_wait_ms = wait_ms  # read as the waiter queues
            waiters.append(queue_waiter(
                service._gate, None, outcomes, name,
                lambda uow=uows[name]: service._do_commit(uow)))
        impatient, first, second = waiters
        impatient.join(5)
        assert isinstance(outcomes["impatient"], ConcurrentCommitConflict)
        assert first.is_alive() and second.is_alive()
    finally:
        release.set()
        thread.join(5)
        for waiter in waiters:
            waiter.join(5)
    assert not thread.is_alive()
    assert not any(waiter.is_alive() for waiter in waiters)
    assert entered == ["first", "second"]
    assert outcomes["first"] == outcomes["second"] == "entered"
    assert uows["impatient"].status is UowStatus.ACTIVE
    participants = sim.store.latest(tournament_id).participants
    assert set(participants) == {user_ids[0], user_ids[2], user_ids[3]}


def test_read_only_commit_keeps_snapshot_isolation(causal_sim):
    # A reader created while a two-aggregate commit is mid-install sees
    # neither record; once the install lands a new reader sees both.
    sim = causal_sim
    execution_id, _, _, user_ids = seed_basic(sim)
    user_id = user_ids[0]
    writer = _staged_two_aggregates_plus_event(sim, execution_id, user_id)
    thread, release = park_committer_at(sim, writer, "install:swap")
    try:
        reader = sim.transactions.create_unit_of_work()
        execution = sim.transactions.aggregate_load(reader, execution_id)
        user = sim.transactions.aggregate_load(reader, user_id)
        assert execution.students[user_id].name == "student-0"
        assert user.name == "student-0"
        sim.transactions.commit(reader)
        assert reader.status is UowStatus.COMMITTED
    finally:
        release.set()
        thread.join(5)
    assert not thread.is_alive()
    assert writer.status is UowStatus.COMMITTED
    after = sim.transactions.create_unit_of_work()
    assert sim.transactions.aggregate_load(after, execution_id).students[user_id].name == "renamed"
    assert sim.transactions.aggregate_load(after, user_id).name == "renamed"


def test_no_lost_updates_under_concurrency(causal_sim):
    # Oracle: N concurrent merge-adds with unbounded retries must equal the
    # N-fold sequential result.
    sim = causal_sim
    sim.gateway.retry_policy = type(sim.gateway.retry_policy)(
        max_attempts=10_000, base_backoff_ms=1, multiplier=1.0)
    execution_id, tournament_id, _, user_ids = seed_basic(sim, students=8)
    errors = []

    def add(user_id):
        try:
            sim.app.add_participant(tournament_id, execution_id, user_id)
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    threads = [threading.Thread(target=add, args=(u,)) for u in user_ids]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []
    assert len(sim.store.latest(tournament_id).participants) == 8


# -- chain compaction ----------------------------------------------------------------


def test_live_old_snapshot_still_loads_after_many_commits(causal_sim):
    sim = causal_sim
    execution_id, _, _, user_ids = seed_basic(sim)
    old = sim.transactions.create_unit_of_work()
    expected = sim.store.latest(execution_id).version
    for i in range(50):
        sim.app.update_student_name(execution_id, user_ids[0], f"name-{i}")
    loaded = sim.transactions.aggregate_load(old, execution_id)
    assert loaded.prev_version == expected
    assert loaded.students[user_ids[0]].name == "student-0"
    sim.transactions.commit(old)
    # Once the old snapshot is gone, the next commit drops what only it read.
    sim.app.update_student_name(execution_id, user_ids[0], "last")
    assert expected not in sim.store.versions(execution_id)


def test_chain_stays_bounded_without_old_units_of_work(causal_sim):
    sim = causal_sim
    execution_id, _, _, user_ids = seed_basic(sim)
    for i in range(50):
        sim.app.update_student_name(execution_id, user_ids[i % 2], f"name-{i}")
        assert len(sim.store.versions(execution_id)) <= 2
    assert sim.store.latest(execution_id).students[user_ids[1]].name == "name-49"


def test_units_of_work_created_during_commits_always_load(causal_sim):
    # Readers take snapshots while writers commit and compact; each must
    # still find the version at or below its snapshot.
    sim = causal_sim
    execution_id, tournament_id, _, user_ids = seed_basic(sim, students=4)
    stop = threading.Event()
    errors = []

    def write():
        i = 0
        while not stop.is_set():
            sim.app.update_student_name(execution_id, user_ids[i % 4], f"w-{i}")
            i += 1

    def read():
        while not stop.is_set():
            uow = sim.transactions.create_unit_of_work()
            for aggregate_id in (execution_id, tournament_id):
                record = sim.transactions.aggregate_load(uow, aggregate_id)
                assert record.prev_version <= uow.snapshot_version
            sim.transactions.commit(uow)

    def run(body, *args):
        try:
            body(*args)
        except Exception as exc:
            errors.append(exc)
            stop.set()

    threads = [threading.Thread(target=run, args=(write,))]
    threads += [threading.Thread(target=run, args=(read,)) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        stop.wait(1.0)
    finally:
        stop.set()
        for thread in threads:
            thread.join(10)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    sim.app.update_student_name(execution_id, user_ids[0], "last")
    assert len(sim.store.versions(execution_id)) <= 2


def test_causal_requires_centralized_versioning():
    with pytest.raises(IncompatibleVersioningStrategy):
        Simulator(SimConfig(
            transaction_model="tcc", versioning_strategy="snowflake"))


def test_causal_allows_remote_centralized(make_sim):
    sim = make_sim(
        transaction_model="tcc",
        versioning_strategy="centralized-remote",
        tcc_commit_store_ms=0.0,
    )
    execution_id, tournament_id, _, user_ids = seed_basic(sim)
    sim.app.add_participant(tournament_id, execution_id, user_ids[0])
    assert len(sim.app.get_tournament(tournament_id)["participants"]) == 1
