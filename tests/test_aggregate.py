import threading
from dataclasses import FrozenInstanceError, replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from msim.aggregate import (
    AggregateIdGenerator,
    EventSubscription,
    LifecycleState,
    SimulationStore,
)
from msim.errors import AggregateDeleted, AggregateNotFound, InjectedCrash, SimulatorError
from msim.notification import DomainEvent
from msim.sampleapp.domain import CourseExecution, MemberRef, Tournament


def make_tournament(aggregate_id=1, version=0, **kwargs):
    t = Tournament(
        aggregate_id,
        execution_id=kwargs.get("execution_id", 99),
        creator=MemberRef(user_id=50, name="carol"),
        start_time=kwargs.get("start_time", 0),
        end_time=kwargs.get("end_time", 100),
        max_participants=kwargs.get("max_participants", 10),
    )
    t.version = version
    return t


# -- id generation -----------------------------------------------------------


def test_first_id_is_one():
    assert AggregateIdGenerator().new_aggregate_id() == 1


def test_ids_strictly_increase():
    gen = AggregateIdGenerator()
    a, b = gen.new_aggregate_id(), gen.new_aggregate_id()
    assert a != b and b > a


def test_concurrent_ids_are_unique():
    # Oracle: collect every id into a set and compare cardinalities.
    gen = AggregateIdGenerator()
    results = [[] for _ in range(8)]

    def worker(bucket):
        for _ in range(1250):
            bucket.append(gen.new_aggregate_id())

    threads = [threading.Thread(target=worker, args=(results[i],)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    all_ids = [i for bucket in results for i in bucket]
    assert len(all_ids) == 10_000
    assert len(set(all_ids)) == 10_000


# -- version chains and the store ---------------------------------------------


def test_latest_committed_returns_max_version():
    store = SimulationStore()
    for v in (3, 5):
        rec = make_tournament(version=v)
        store.install(records=[rec])
    assert store.latest_committed(1).version == 5


def test_unknown_id_raises():
    with pytest.raises(AggregateNotFound):
        SimulationStore().latest_committed(42)


def test_deleted_chain_raises_and_blocks_successors():
    # Oracle: a 3-version chain whose head is DELETED must refuse reads
    # and further appends.
    store = SimulationStore()
    for v in (1, 2):
        store.install(records=[make_tournament(version=v)])
    tombstone = make_tournament(version=7)
    tombstone.state = LifecycleState.DELETED
    store.install(records=[tombstone])
    with pytest.raises(AggregateDeleted):
        store.latest_committed(1)
    with pytest.raises(AggregateDeleted):
        store.install(records=[make_tournament(version=8)])


def test_duplicate_version_rejected():
    store = SimulationStore()
    store.install(records=[make_tournament(version=4)])
    with pytest.raises(SimulatorError):
        store.install(records=[make_tournament(version=4)])


def test_working_copy_rejected():
    with pytest.raises(SimulatorError):
        SimulationStore().install(records=[make_tournament(version=0)])


def test_out_of_order_install_keeps_chain_sorted():
    store = SimulationStore()
    store.install(records=[make_tournament(version=6)])
    store.install(records=[make_tournament(version=4)])
    assert store.versions(1) == [4, 6]
    assert store.latest_committed(1).version == 6


def test_record_at_or_below():
    store = SimulationStore()
    for v in (4, 9, 12):
        store.install(records=[make_tournament(version=v)])
    assert store.record_at_or_below(1, 10).version == 9
    assert store.record_at_or_below(1, 4).version == 4
    assert store.record_at_or_below(1, 3) is None


@pytest.mark.parametrize("oldest_snapshot, kept", [
    (None, [4, 9, 12, 15]),  # no snapshot given: the whole chain stays
    (3, [4, 9, 12, 15]),     # nothing at or below the snapshot to keep
    (4, [4, 9, 12, 15]),
    (11, [9, 12, 15]),       # 9 still serves snapshots 9..11
    (12, [12, 15]),
    (20, [15]),
])
def test_install_compacts_below_the_oldest_snapshot(oldest_snapshot, kept):
    store = SimulationStore()
    for v in (4, 9, 12):
        store.install(records=[make_tournament(version=v)])
    store.install(records=[make_tournament(version=15)], oldest_snapshot=oldest_snapshot)
    assert store.versions(1) == kept


@given(
    versions=st.lists(st.integers(1, 60), min_size=1, max_size=12, unique=True),
    probe=st.integers(0, 65),
)
def test_bisected_lookups_equal_linear_scan(versions, probe):
    # Oracle: linear scans over the installed chain. Versions arrive out of
    # order with gaps, and the probe may name a version that is missing.
    store = SimulationStore()
    for v in versions:
        store.install(records=[make_tournament(version=v)])
    chain = sorted(versions)
    assert store.versions(1) == chain
    below = [v for v in chain if v <= probe]
    got = store.record_at_or_below(1, probe)
    assert (got.version if got else None) == (below[-1] if below else None)
    if probe in chain:
        assert store.record_at(1, probe).version == probe
        with pytest.raises(SimulatorError):
            store.install(records=[make_tournament(version=probe)])
        assert store.versions(1) == chain
    else:
        with pytest.raises(AggregateNotFound):
            store.record_at(1, probe)


def test_event_ids_deduplicated_in_install_and_delivery():
    store = SimulationStore()
    event = make_event(1, "E", 7, 1)
    store.install(events=[event, event])
    store.install(events=[event, make_event(2, "E", 7, 2)])
    assert [e.event_id for e in store.events()] == [1, 2]
    assert store.publish(2) == 2
    assert store.publish(2) == 0
    assert store.published_count() == 2


def test_crashed_install_events_never_become_visible():
    store = SimulationStore()
    store.install(events=[make_event(1, "E", 7, 1)])

    def crash_at_swap(stage):
        if stage == "install:swap":
            raise InjectedCrash(stage)

    with pytest.raises(InjectedCrash):
        store.install(events=[make_event(2, "Lost", 7, 2), make_event(3, "Lost", 7, 3)],
                      stage_hook=crash_at_swap)
    assert [e.event_id for e in store.events()] == [1]
    store.install(events=[make_event(4, "E", 7, 4)])
    assert [e.event_id for e in store.events()] == [1, 4]
    # The crashed batch left no id behind either: it can still be installed.
    store.install(events=[make_event(2, "Lost", 7, 2)])
    assert [e.event_id for e in store.events()] == [1, 4, 2]


def test_prev_links_terminate():
    # Chain-walk oracle: following prev links must reach a record with no
    # predecessor without revisiting versions.
    store = SimulationStore()
    prev = None
    for v in (2, 5, 9):
        rec = make_tournament(version=v)
        rec.prev_version = prev
        store.install(records=[rec])
        prev = v
    seen = set()
    cursor = store.latest_committed(1)
    while cursor.prev_version is not None:
        assert cursor.version not in seen
        seen.add(cursor.version)
        assert cursor.version > cursor.prev_version
        cursor = store.record_at(1, cursor.prev_version)
    assert cursor.version == 2


def test_install_batch_is_atomic_reference_swap():
    store = SimulationStore()
    recs = [make_tournament(aggregate_id=i, version=1) for i in (1, 2, 3)]
    state_before = store._state
    store.install(records=recs)
    assert store._state is not state_before
    assert all(store.latest(i).version == 1 for i in (1, 2, 3))


# -- subscriptions -----------------------------------------------------------


def make_event(event_id, event_type, sender, version):
    return DomainEvent(
        event_id=event_id,
        event_type=event_type,
        publisher_aggregate_id=sender,
        publisher_version=version,
        payload={},
    )


def test_subscription_matching_rules():
    sub = EventSubscription("UpdateStudentNameEvent", 7, 3)
    assert sub.matches(make_event(1, "UpdateStudentNameEvent", 7, 5))
    assert not sub.matches(make_event(2, "UpdateStudentNameEvent", 7, 3))
    assert not sub.matches(make_event(3, "UpdateStudentNameEvent", 8, 5))
    assert not sub.matches(make_event(4, "OtherEvent", 7, 5))


def test_negative_last_version_rejected():
    with pytest.raises(SimulatorError):
        EventSubscription("X", 1, -1)


def test_tournament_declares_member_subscriptions():
    t = make_tournament()
    t.participants[60] = MemberRef(user_id=60, name="alice", exec_version=4)
    subs = t.get_event_subscriptions()
    name_subs = [s for s in subs if s.event_type == "UpdateStudentNameEvent"]
    anon_subs = [s for s in subs if s.event_type == "AnonymizeUserEvent"]
    assert {s.sender_aggregate_id for s in name_subs} == {99}
    assert {s.sender_aggregate_id for s in anon_subs} == {50, 60}
    assert {s.sender_last_version for s in name_subs} == {0, 4}


def test_subscription_payload_match():
    sub = EventSubscription("UpdateStudentNameEvent", 7, 3,
                            payload_match=("user_aggregate_id", 60))
    event = make_event(1, "UpdateStudentNameEvent", 7, 5)
    assert sub.matches(replace(event, payload={"user_aggregate_id": 60}))
    assert not sub.matches(replace(event, payload={"user_aggregate_id": 61}))
    assert not sub.matches(event)
    assert not sub.matches(replace(event, publisher_version=3,
                                   payload={"user_aggregate_id": 60}))


def test_member_subscriptions_name_their_member():
    t = make_tournament()
    t.participants[60] = MemberRef(user_id=60, name="alice", exec_version=4)
    name_subs = [s for s in t.get_event_subscriptions()
                 if s.event_type == "UpdateStudentNameEvent"]
    assert {s.payload_match for s in name_subs} == {
        ("user_aggregate_id", 50), ("user_aggregate_id", 60)}


# -- members as value objects ---------------------------------------------------


def test_member_is_frozen():
    member = MemberRef(user_id=60, name="alice")
    with pytest.raises(FrozenInstanceError):
        member.name = "bob"


def test_copy_for_write_shares_members_and_isolates_replacements():
    store = SimulationStore()
    committed = make_tournament(version=1)
    committed.participants[60] = MemberRef(user_id=60, name="alice")
    execution = CourseExecution(99, "SE-101")
    execution.students[60] = MemberRef(user_id=60, name="alice")
    execution.version = 1
    store.install(records=[committed, execution])

    copy = store.latest(1).copy_for_write()
    assert copy.creator is committed.creator
    assert copy.participants[60] is committed.participants[60]
    copy.participants[60] = replace(copy.participants[60], name="renamed")
    copy.creator = replace(copy.creator, name="renamed")
    assert store.latest(1).participants[60].name == "alice"
    assert store.latest(1).creator.name == "carol"

    exec_copy = store.latest(99).copy_for_write()
    assert exec_copy.students[60] is execution.students[60]
    exec_copy.students[60] = replace(exec_copy.students[60], name="renamed")
    assert store.latest(99).students[60].name == "alice"
