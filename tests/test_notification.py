import sys
import threading
import time
from dataclasses import replace

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from msim.aggregate import EventSubscription, SimulationStore
from msim.clock import VirtualClock
from msim.errors import InjectedCrash
from msim.notification import DomainEvent, NotificationService
from tests.conftest import seed_basic


# -- transactional outbox ------------------------------------------------------


def test_commit_stores_unpublished_event_with_commit_version(saga_sim):
    sim = saga_sim
    execution_id, tournament_id, _, user_ids = seed_basic(sim)
    sim.app.update_student_name(execution_id, user_ids[0], "renamed")
    events = [e for e in sim.store.events() if e.event_type == "UpdateStudentNameEvent"]
    assert len(events) == 1
    event = events[0]
    assert event in sim.store.events()[sim.store.published_count():]
    assert event.publisher_version == sim.store.latest(execution_id).version


def test_aborted_unit_of_work_stores_no_events(causal_sim):
    sim = causal_sim
    execution_id, tournament_id, _, user_ids = seed_basic(sim)
    before = len(sim.store.events())
    uow = sim.transactions.create_unit_of_work()
    execution = sim.transactions.aggregate_load(uow, execution_id)
    execution.students[user_ids[0]] = replace(execution.students[user_ids[0]], name="renamed")
    sim.transactions.register_changed(uow, execution)
    sim.transactions.register_event(
        uow,
        DomainEvent(
            event_id=sim.notification.event_ids.new_event_id(),
            event_type="UpdateStudentNameEvent",
            publisher_aggregate_id=execution_id,
            publisher_version=0,
            payload={"user_aggregate_id": user_ids[0], "new_name": "renamed"},
        ),
    )
    sim.transactions.abort(uow)
    assert len(sim.store.events()) == before


def test_crash_between_aggregate_and_event_write_leaves_nothing(causal_sim):
    # Oracle: scan both stores after an injected crash at the stage between
    # the aggregate record install and the event install.
    sim = causal_sim
    execution_id, tournament_id, _, user_ids = seed_basic(sim)
    versions_before = sim.store.versions(execution_id)
    events_before = len(sim.store.events())

    uow = sim.transactions.create_unit_of_work()
    execution = sim.transactions.aggregate_load(uow, execution_id)
    execution.students[user_ids[0]] = replace(execution.students[user_ids[0]], name="renamed")
    sim.transactions.register_changed(uow, execution)
    sim.transactions.register_event(
        uow,
        DomainEvent(
            event_id=sim.notification.event_ids.new_event_id(),
            event_type="UpdateStudentNameEvent",
            publisher_aggregate_id=execution_id,
            publisher_version=0,
            payload={"user_aggregate_id": user_ids[0], "new_name": "renamed"},
        ),
    )

    def crash_between_record_and_event(stage):
        if stage == "install:event:0":
            raise InjectedCrash(stage)

    sim.transactions.commit_stage_hook = crash_between_record_and_event
    with pytest.raises(InjectedCrash):
        sim.transactions._do_commit(uow)
    assert sim.store.versions(execution_id) == versions_before
    assert len(sim.store.events()) == events_before


# -- publication ---------------------------------------------------------------


def test_publish_makes_events_visible_to_subscribers(make_sim):
    # rpc: no subscriber sees an event until a publication moves the
    # published cursor past it.
    sim = make_sim(transport_mode="rpc", rpc_one_way_ms=0)
    execution_id, tournament_id, _, user_ids = seed_basic(sim)
    sim.app.update_student_name(execution_id, user_ids[0], "renamed-1")
    sim.app.update_student_name(execution_id, user_ids[0], "renamed-2")
    sim.app.anonymize_user(user_ids[1])
    subs = [
        EventSubscription("UpdateStudentNameEvent", execution_id, 0),
        EventSubscription("AnonymizeUserEvent", user_ids[1], 0),
    ]
    assert sim.notification.get_subscribed_events(subs) == []

    assert sim.notification.publish_pending() == 3
    got = sim.notification.get_subscribed_events(subs)
    assert len(got) == 3
    assert {e.event_type for e in got} == {"UpdateStudentNameEvent", "AnonymizeUserEvent"}


def test_publish_with_no_pending_events(saga_sim):
    assert saga_sim.notification.publish_pending() == 0


def test_publish_marks_exactly_once(saga_sim):
    sim = saga_sim
    execution_id, tournament_id, _, user_ids = seed_basic(sim)
    sim.app.update_student_name(execution_id, user_ids[0], "renamed")
    assert sim.notification.publish_pending() == 1
    assert sim.notification.publish_pending() == 0



def make_event(event_id, event_type, publisher=1):
    return DomainEvent(event_id=event_id, event_type=event_type,
                       publisher_aggregate_id=publisher, publisher_version=event_id,
                       payload={})


def test_publication_pays_the_delivery_latency_once():
    clock = VirtualClock()
    store = SimulationStore()
    notification = NotificationService(store, clock, delivery_latency_ms=7)
    notification.declare_subscription("Subscribed")

    assert notification.publish_pending() == 0
    assert clock.now_ms() == 0
    store.install(events=[make_event(1, "Unsubscribed")])
    assert notification.publish_pending() == 1
    assert clock.now_ms() == 0
    # Pending events of two publishers and a type nobody subscribes to.
    store.install(events=[make_event(2, "Subscribed", publisher=1),
                          make_event(3, "Subscribed", publisher=2),
                          make_event(4, "Unsubscribed")])
    assert notification.publish_pending() == 3
    assert clock.now_ms() == 7
    assert notification.publish_pending() == 0
    assert clock.now_ms() == 7


def test_concurrent_publishers_publish_each_event_once():
    store = SimulationStore()
    notification = NotificationService(store, VirtualClock())
    per_installer = 300
    installers_done = threading.Event()
    counts = []

    def install():
        for _ in range(per_installer):
            event_id = notification.event_ids.new_event_id()
            store.install(events=[make_event(event_id, "E")])

    def publish():
        total = 0
        while not installers_done.is_set():
            total += notification.publish_pending()
        counts.append(total + notification.publish_pending())

    installers = [threading.Thread(target=install) for _ in range(2)]
    publishers = [threading.Thread(target=publish) for _ in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in publishers + installers:
            thread.start()
        for thread in installers:
            thread.join(timeout=30)
        installers_done.set()
        for thread in publishers:
            thread.join(timeout=30)
    finally:
        installers_done.set()
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in publishers + installers)
    assert sum(counts) == 2 * per_installer
    assert store.published_count() == len(store.events()) == 2 * per_installer


# -- subscription queries ----------------------------------------------------------


def brute_force_matches(events, subscriptions):
    # Independent oracle: literal triple filter over every stored event.
    out = {}
    for event in events:
        for sub in subscriptions:
            if (
                event.event_type == sub.event_type
                and event.publisher_aggregate_id == sub.sender_aggregate_id
                and event.publisher_version > sub.sender_last_version
            ):
                out[event.event_id] = event
    return sorted(out.values(), key=lambda e: (e.publisher_version, e.event_id))


def test_get_subscribed_events_matches_brute_force(saga_sim):
    sim = saga_sim
    execution_id, tournament_id, _, user_ids = seed_basic(sim)
    for i in range(3):
        sim.app.update_student_name(execution_id, user_ids[0], f"name-{i}")
    sim.app.anonymize_user(user_ids[1])
    sim.notification.publish_pending()

    published = sim.store.events()[: sim.store.published_count()]
    subs = [
        EventSubscription("UpdateStudentNameEvent", execution_id, 0),
        EventSubscription("AnonymizeUserEvent", user_ids[1], 0),
    ]
    got = sim.notification.get_subscribed_events(subs)
    assert got == brute_force_matches(published, subs)
    assert [e.publisher_version for e in got] == sorted(
        e.publisher_version for e in got
    )


def test_last_version_boundary_is_strict(saga_sim):
    sim = saga_sim
    execution_id, tournament_id, _, user_ids = seed_basic(sim)
    sim.app.update_student_name(execution_id, user_ids[0], "renamed")
    sim.notification.publish_pending()
    event = [e for e in sim.store.events() if e.event_type == "UpdateStudentNameEvent"][0]
    at_boundary = [
        EventSubscription("UpdateStudentNameEvent", execution_id, event.publisher_version)
    ]
    below = [
        EventSubscription(
            "UpdateStudentNameEvent", execution_id, event.publisher_version - 1
        )
    ]
    assert sim.notification.get_subscribed_events(at_boundary) == []
    assert len(sim.notification.get_subscribed_events(below)) == 1


_types = st.sampled_from(["A", "B"])
_senders = st.integers(1, 2)
_versions = st.integers(0, 6)
_payload_values = st.integers(1, 3)

_events = st.lists(
    st.tuples(
        _types, _senders, _versions,
        st.dictionaries(st.sampled_from(["user", "other"]), _payload_values, max_size=2),
    ),
    max_size=25,
)
_subscriptions = st.lists(
    st.builds(
        EventSubscription, _types, _senders, _versions,
        st.none() | st.tuples(st.sampled_from(["user", "other"]), _payload_values),
    ),
    max_size=10,
)


@given(events=_events, later=_events,
       publish_upto=st.tuples(st.integers(0, 50), st.integers(0, 50)),
       subscriptions=_subscriptions)
@example(  # the lowest of several watermarks on one (type, sender) decides
    events=[("A", 1, 3, {}), ("A", 2, 3, {"user": 2})],
    later=[], publish_upto=(2, 2),
    subscriptions=[EventSubscription("A", 1, 4), EventSubscription("A", 1, 1),
                   EventSubscription("A", 2, 5, ("user", 2)),
                   EventSubscription("A", 2, 2, ("user", 2))],
)
def test_indexed_matching_equals_brute_force_filter(events, later, publish_upto,
                                                     subscriptions):
    # Oracle: every published event that any subscription's own matches()
    # accepts, ordered by publisher version. Watermarks and versions share a
    # small range, so events land on, below and above each watermark. One
    # service answers queries as the log grows and as a prefix of it is
    # published, so an index kept from an earlier publication would show.
    store = SimulationStore()
    notification = NotificationService(store, VirtualClock())

    def check():
        published = store.events()[: store.published_count()]
        for subs in (subscriptions, *([sub] for sub in subscriptions)):
            expected = sorted(
                (e for e in published if any(s.matches(e) for s in subs)),
                key=lambda e: (e.publisher_version, e.event_id),
            )
            assert notification.get_subscribed_events(subs) == expected

    check()
    first_id = 1
    for batch, upto in zip((events, later), publish_upto):
        log = [
            DomainEvent(event_id=i, event_type=event_type, publisher_aggregate_id=sender,
                        publisher_version=version, payload=payload)
            for i, (event_type, sender, version, payload) in enumerate(batch, first_id)
        ]
        first_id += len(batch)
        store.install(events=log)
        check()
        store.publish(upto)
        check()


def brute_force_matches_payload(events, subscriptions):
    return sorted((e for e in events if any(s.matches(e) for s in subscriptions)),
                  key=lambda e: (e.publisher_version, e.event_id))


class CountingPayload(dict):
    """A payload that records itself in looked_up on each key lookup."""

    def __init__(self, looked_up, **items):
        super().__init__(**items)
        self._looked_up = looked_up

    def __contains__(self, key):
        self._looked_up.append(self)
        return super().__contains__(key)

    def __getitem__(self, key):
        self._looked_up.append(self)
        return super().__getitem__(key)


def test_a_query_after_a_publication_reads_only_the_new_payloads():
    # The index is extended by what a publication adds: after the first
    # payload query has indexed 1 000 published events, publishing one more
    # and querying again looks into that one event's payload only.
    store = SimulationStore()
    notification = NotificationService(store, VirtualClock())
    looked_up = []

    def publish(event_id, user):
        event = DomainEvent(event_id=event_id, event_type="A", publisher_aggregate_id=1,
                            publisher_version=event_id,
                            payload=CountingPayload(looked_up, user=user))
        store.install(events=[event])
        notification.publish_pending()

    for event_id in range(1, 1001):
        publish(event_id, user=event_id % 10)
    subs = [EventSubscription("A", 1, 0, ("user", 3))]
    assert len(notification.get_subscribed_events(subs)) == 100
    looked_up.clear()
    publish(1001, user=3)
    assert len(notification.get_subscribed_events(subs)) == 101
    assert len({id(payload) for payload in looked_up}) == 1


def test_queries_during_publications_see_a_published_prefix():
    # Oracle: each query answered while events are published one at a time
    # holds every match among the events published before it started and
    # nothing beyond the matches among those published once it returned.
    # Reading the log takes the store's lock, so a publication running
    # during the query has finished before the upper bound is read.
    store = SimulationStore()
    notification = NotificationService(store, VirtualClock())
    subs = [EventSubscription("A", 1, 2, ("user", 1)),
            EventSubscription("A", 2, 0, ("other", 2)),
            EventSubscription("B", 1, 0)]
    total = 300
    querying, done = threading.Event(), threading.Event()
    errors = []

    def publish():
        try:
            querying.wait(5)
            for event_id in range(1, total + 1):
                store.install(events=[DomainEvent(
                    event_id=event_id, event_type="AB"[event_id % 2],
                    publisher_aggregate_id=1 + event_id % 3 % 2,
                    publisher_version=event_id % 7,
                    payload={"user": event_id % 3, "other": event_id % 4})])
                notification.publish_pending()
                time.sleep(0)  # let the querier in between publications
        except Exception as exc:
            errors.append(exc)
        finally:
            done.set()

    def query():
        try:
            while not done.is_set():
                before = store.published_count()
                got = notification.get_subscribed_events(subs)
                log = store.events()
                after = store.published_count()
                lower = brute_force_matches_payload(log[:before], subs)
                upper = brute_force_matches_payload(log[:after], subs)
                assert got == sorted(got, key=lambda e: (e.publisher_version, e.event_id))
                assert {e.event_id for e in lower} <= {e.event_id for e in got}
                assert {e.event_id for e in got} <= {e.event_id for e in upper}
                querying.set()
        except Exception as exc:
            errors.append(exc)
        finally:
            querying.set()

    threads = [threading.Thread(target=query) for _ in range(2)]
    threads.append(threading.Thread(target=publish))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        done.set()
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert store.published_count() == total
    assert notification.get_subscribed_events(subs) == brute_force_matches_payload(
        store.events(), subs)


def test_empty_subscription_list(saga_sim):
    assert saga_sim.notification.get_subscribed_events([]) == []


# -- handling cycles ----------------------------------------------------------------


def test_event_cycle_updates_subscribed_tournament(saga_sim):
    sim = saga_sim
    execution_id, tournament_id, _, user_ids = seed_basic(sim)
    sim.app.add_participant(tournament_id, execution_id, user_ids[0])
    sim.app.update_student_name(execution_id, user_ids[0], "renamed")
    sim.publish_pending()
    processed = sim.run_event_handling_cycle("tournament")
    assert processed >= 1
    view = sim.app.get_tournament(tournament_id)
    assert view["participants"][str(user_ids[0])]["name"] == "renamed"


def test_no_matching_events_processes_zero(saga_sim):
    sim = saga_sim
    seed_basic(sim)
    assert sim.run_event_handling_cycle("tournament") == 0


def test_rename_of_non_member_calls_no_handler(saga_sim):
    sim = saga_sim
    execution_id, tournament_id, _, user_ids = seed_basic(sim)
    sim.app.add_participant(tournament_id, execution_id, user_ids[0])
    sim.app.update_student_name(execution_id, user_ids[1], "renamed")
    sim.publish_pending()
    assert sim.run_event_handling_cycle("tournament") == 0


def test_rename_of_member_calls_handler_once_per_holding_tournament(saga_sim):
    sim = saga_sim
    execution_id, first, creator_id, user_ids = seed_basic(sim)
    second, third = (
        sim.app.create_tournament(execution_id, creator_id, start_time=0,
                                  end_time=1000, max_participants=10)
        for _ in range(2))
    for tournament_id in (first, second):
        sim.app.add_participant(tournament_id, execution_id, user_ids[0])
    sim.app.add_participant(third, execution_id, user_ids[1])
    sim.app.update_student_name(execution_id, user_ids[0], "renamed")
    sim.publish_pending()
    assert sim.run_event_handling_cycle("tournament") == 2
    for tournament_id in (first, second):
        view = sim.app.get_tournament(tournament_id)
        assert view["participants"][str(user_ids[0])]["name"] == "renamed"
    sim.app.update_student_name(execution_id, creator_id, "renamed-creator")
    sim.publish_pending()
    assert sim.run_event_handling_cycle("tournament") == 3


def test_cycle_is_idempotent_over_one_event(saga_sim):
    # Oracle: domain payload snapshot comparison between cycles.
    sim = saga_sim
    execution_id, tournament_id, _, user_ids = seed_basic(sim)
    sim.app.add_participant(tournament_id, execution_id, user_ids[0])
    sim.app.update_student_name(execution_id, user_ids[0], "renamed")
    sim.publish_pending()
    sim.run_event_handling_cycle("tournament")
    snapshot = sim.store.latest(tournament_id).domain_payload()
    sim.publish_pending()
    sim.run_event_handling_cycle("tournament")
    assert sim.store.latest(tournament_id).domain_payload() == snapshot


def test_sender_last_version_is_monotone(saga_sim):
    sim = saga_sim
    execution_id, tournament_id, _, user_ids = seed_basic(sim)
    sim.app.add_participant(tournament_id, execution_id, user_ids[0])

    def watermarks():
        return [
            s.sender_last_version
            for s in sim.store.latest(tournament_id).get_event_subscriptions()
        ]

    history = [watermarks()]
    for i in range(3):
        sim.app.update_student_name(execution_id, user_ids[0], f"name-{i}")
        sim.run_event_cycles(2)
        history.append(watermarks())
    for before, after in zip(history, history[1:]):
        assert all(b <= a for b, a in zip(before, after))


def test_eventual_delivery_within_two_cycles(make_sim):
    for transport in ("local", "rpc"):
        sim = make_sim(transport_mode=transport, rpc_one_way_ms=0)
        execution_id, tournament_id, _, user_ids = seed_basic(sim)
        sim.app.add_participant(tournament_id, execution_id, user_ids[0])
        sim.app.update_student_name(execution_id, user_ids[0], "renamed")
        sim.run_event_cycles(2)
        view = sim.app.get_tournament(tournament_id)
        assert view["participants"][str(user_ids[0])]["name"] == "renamed"


def test_infra_failure_of_one_reaction_leaves_the_others_running(make_sim):
    # The first tournament's semantic lock is held by a paused workflow, so
    # its reaction fails with ServiceUnavailable once retries run out. The
    # second tournament still reacts in the same cycle; the first reacts on
    # a later cycle, after the lock is released.
    sim = make_sim(transaction_model="saga", retry_max_attempts=2, retry_base_ms=1,
                   saga_lock_wait_ms=5)
    execution_id, first, creator_id, user_ids = seed_basic(sim)
    alice, bob = user_ids
    second = sim.app.create_tournament(execution_id, creator_id, start_time=0,
                                       end_time=1000, max_participants=10)
    for tournament_id in (first, second):
        sim.app.add_participant(tournament_id, execution_id, alice)
    paused, _ = sim.app.functionalities.add_participant(first, execution_id, bob)
    paused.execute_until("addParticipantStep")

    def name_in(tournament_id):
        return sim.app.get_tournament(tournament_id)["participants"][str(alice)]["name"]

    sim.app.update_student_name(execution_id, alice, "alicia")
    sim.publish_pending()
    assert sim.run_event_handling_cycle("tournament") == 1
    assert name_in(second) == "alicia"
    assert name_in(first) == "student-0"

    paused.execute()
    assert sim.run_event_handling_cycle("tournament") == 1
    assert name_in(first) == "alicia"
