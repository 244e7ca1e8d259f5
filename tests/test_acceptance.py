"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Functional criteria (1-6) are factored as helpers parametrized by transport
so the transparency criterion (11) can replay them under every transport
with zero application changes.
"""

import statistics
import threading
import time
from contextlib import contextmanager
from dataclasses import replace

import pytest

from msim import SimConfig, Simulator
from msim.aggregate import NOT_IN_SAGA
from msim.bench import BenchConfig, run_bench
from msim.errors import (
    IncompatibleVersioningStrategy,
    InjectedCrash,
    SimulatedFault,
)
from msim.impairment import PlanSpec, generate_plans
from msim.notification import DomainEvent

TRANSPORTS = ("local", "local-serialized", "rpc", "broker")

_FAST_TRANSPORT = dict(
    rpc_one_way_ms=1.0, broker_delivery_ms=1.0, broker_poll_ms=1.0)

UNBOUNDED_RETRIES = dict(
    retry_max_attempts=1_000_000, retry_base_ms=1.0, retry_multiplier=1.0)


@contextmanager
def criterion(number, description, budget_s):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} FAIL  {description}")
        raise
    elapsed = time.monotonic() - start
    assert elapsed < budget_s, (
        f"criterion {number} exceeded its {budget_s}s budget: {elapsed:.1f}s"
    )
    print(f"ACCEPTANCE {number:02d} PASS  {description}  ({elapsed:.2f}s)")


def make_sim(**overrides):
    overrides.setdefault("clock_mode", "virtual")
    for key, value in _FAST_TRANSPORT.items():
        overrides.setdefault(key, value)
    return Simulator(SimConfig(**overrides))


def seed(sim, students, capacity):
    app = sim.app
    execution_id = app.create_execution("SE-101")
    creator_id = app.create_user("creator")
    app.enroll_student(execution_id, creator_id)
    user_ids = []
    for i in range(students):
        user_id = app.create_user(f"student-{i}")
        app.enroll_student(execution_id, user_id)
        user_ids.append(user_id)
    tournament_id = app.create_tournament(
        execution_id, creator_id, 0, 10_000, capacity)
    return execution_id, tournament_id, creator_id, user_ids


def storm(sim, tournament_id, execution_id, user_ids):
    failures = []
    barrier = threading.Barrier(len(user_ids))

    def add(user_id):
        barrier.wait()
        try:
            sim.app.add_participant(tournament_id, execution_id, user_id)
        except Exception as exc:
            failures.append(exc)

    threads = [threading.Thread(target=add, args=(u,)) for u in user_ids]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return failures


# -- criteria 1-6 as transport-parametrizable checks -----------------------------


def check_lost_update_prevention(transport):
    sim = make_sim(transaction_model="tcc", transport_mode=transport,
                   tcc_commit_store_ms=0.5, **UNBOUNDED_RETRIES)
    try:
        execution_id, tournament_id, _, user_ids = seed(sim, 16, 1000)
        failures = storm(sim, tournament_id, execution_id, user_ids)
        assert failures == [], failures[:3]
        final = sim.store.latest(tournament_id)
        assert len(final.participants) == 16  # sequential oracle
        assert set(final.participants) == set(user_ids)
    finally:
        sim.close()


def check_saga_serialization(transport):
    sim = make_sim(transaction_model="saga", transport_mode=transport)
    try:
        execution_id, tournament_id, _, user_ids = seed(sim, 16, 1000)
        failures = storm(sim, tournament_id, execution_id, user_ids)
        assert failures == [], failures[:3]  # success rate 100%
        final = sim.store.latest(tournament_id)
        assert len(final.participants) == 16

        # Serial-order witness: walking the committed chain, lock windows
        # never interleave and each unlock closes over exactly one addition.
        count_at_last_unlock = 0
        for record in (sim.store.record_at(tournament_id, v)
                       for v in sim.store.versions(tournament_id)):
            if record.saga_state == NOT_IN_SAGA:
                added = len(record.participants) - count_at_last_unlock
                assert added in (0, 1)
                count_at_last_unlock = len(record.participants)
        assert count_at_last_unlock == 16
    finally:
        sim.close()


def check_compensation_soundness(transport, tmp_path):
    # Domain fault on the first invocation: saga aborts and the tournament
    # payload equals the pre-run payload.
    sim = make_sim(transaction_model="saga", transport_mode=transport,
                   saga_lock_wait_ms=10)
    try:
        execution_id, tournament_id, _, user_ids = seed(sim, 2, 10)
        baseline = sim.store.latest(tournament_id).domain_payload()
        plan = tmp_path / f"domain-{transport}.csv"
        plan.write_text(
            "functionality,step,invocation_index,action,value\n"
            "addParticipant,addParticipantStep,1,FAIL,SimulatedFault\n")
        sim.impairment.load_plan(plan)
        with pytest.raises(SimulatedFault):
            sim.app.add_participant(tournament_id, execution_id, user_ids[0])
        assert sim.store.latest(tournament_id).domain_payload() == baseline
    finally:
        sim.close()

    # Infra fault on the first invocation only: the gateway retry succeeds
    # and the participant lands.
    sim = make_sim(transaction_model="saga", transport_mode=transport)
    try:
        execution_id, tournament_id, _, user_ids = seed(sim, 2, 10)
        plan = tmp_path / f"infra-{transport}.csv"
        plan.write_text(
            "functionality,step,invocation_index,action,value\n"
            "addParticipant,addParticipantStep,1,FAIL,SimulatedInfraFault\n")
        sim.impairment.load_plan(plan)
        sim.app.add_participant(tournament_id, execution_id, user_ids[0])
        assert user_ids[0] in sim.store.latest(tournament_id).participants
    finally:
        sim.close()


def check_snapshot_isolation(transport):
    # Causal: a paused writer's staged state is invisible to a reader.
    sim = make_sim(transaction_model="tcc", transport_mode=transport,
                   tcc_commit_store_ms=0.0)
    try:
        execution_id, tournament_id, _, user_ids = seed(sim, 1, 10)
        writer, _ = sim.app.functionalities.add_participant(
            tournament_id, execution_id, user_ids[0])
        writer.execute_until("addParticipantStep")
        assert sim.app.get_tournament(tournament_id)["participants"] == {}
        writer.execute()
        assert len(sim.app.get_tournament(tournament_id)["participants"]) == 1
    finally:
        sim.close()

    # Saga: the same interleaving exposes the intermediate committed state.
    sim = make_sim(transaction_model="saga", transport_mode=transport)
    try:
        execution_id, tournament_id, _, user_ids = seed(sim, 1, 10)
        writer, _ = sim.app.functionalities.add_participant(
            tournament_id, execution_id, user_ids[0])
        writer.execute_until("addParticipantStep")
        view = sim.app.get_tournament(tournament_id)
        assert str(user_ids[0]) in view["participants"]
        writer.execute()
    finally:
        sim.close()


def _staged_two_aggregates_plus_event(sim, execution_id, user_id):
    txn = sim.transactions
    uow = txn.create_unit_of_work()
    execution = txn.aggregate_load(uow, execution_id)
    execution.students[user_id] = replace(execution.students[user_id], name="renamed")
    txn.register_changed(uow, execution)
    user = txn.aggregate_load(uow, user_id)
    user.name = "renamed"
    txn.register_changed(uow, user)
    txn.register_event(uow, DomainEvent(
        event_id=sim.notification.event_ids.new_event_id(),
        event_type="UpdateStudentNameEvent",
        publisher_aggregate_id=execution_id,
        publisher_version=0,
        payload={"user_aggregate_id": user_id, "new_name": "renamed"}))
    return uow


def check_atomic_visibility_outbox(transport):
    def fresh():
        sim = make_sim(transaction_model="tcc", transport_mode=transport,
                       tcc_commit_store_ms=0.0)
        execution_id, tournament_id, _, user_ids = seed(sim, 1, 10)
        return sim, execution_id, user_ids[0]

    # Enumerate the stages of a clean commit first.
    sim, execution_id, user_id = fresh()
    stages = []
    uow = _staged_two_aggregates_plus_event(sim, execution_id, user_id)
    sim.transactions.commit_stage_hook = stages.append
    sim.transactions._do_commit(uow)
    sim.close()
    assert len(stages) >= 7  # begin, reserve, 2 staged, pre-install, installs, swap

    # Crash at every stage: the store must hold all three records or none.
    for crash_index in range(len(stages)):
        sim, execution_id, user_id = fresh()
        before = (
            len(sim.store.versions(execution_id)),
            len(sim.store.versions(user_id)),
            len(sim.store.events()),
        )
        uow = _staged_two_aggregates_plus_event(sim, execution_id, user_id)
        seen = [0]

        def crash_at(stage, crash_index=crash_index, seen=seen):
            if seen[0] == crash_index:
                seen[0] += 1
                raise InjectedCrash(stage)
            seen[0] += 1

        sim.transactions.commit_stage_hook = crash_at
        with pytest.raises(InjectedCrash):
            sim.transactions._do_commit(uow)
        after = (
            len(sim.store.versions(execution_id)),
            len(sim.store.versions(user_id)),
            len(sim.store.events()),
        )
        delta = tuple(b - a for a, b in zip(before, after))
        assert delta == (0, 0, 0), f"partial commit at stage {stages[crash_index]}"
        sim.close()


def check_event_propagation(transport):
    sim = make_sim(transaction_model="saga", transport_mode=transport)
    try:
        execution_id, tournament_id, _, user_ids = seed(sim, 2, 10)
        app = sim.app
        # a second tournament subscribing to the same student
        second_tournament = app.create_tournament(
            execution_id, user_ids[0], 0, 10_000, 10)
        app.add_participant(tournament_id, execution_id, user_ids[0])

        def watermarks():
            marks = []
            for tid in (tournament_id, second_tournament):
                marks.extend(
                    s.sender_last_version
                    for s in sim.store.latest(tid).get_event_subscriptions())
            return marks

        before = watermarks()
        app.update_student_name(execution_id, user_ids[0], "renamed")
        sim.run_event_cycles(2)  # two publish+handle cycles at most
        assert (sim.app.get_tournament(tournament_id)
                ["participants"][str(user_ids[0])]["name"] == "renamed")
        assert (sim.app.get_tournament(second_tournament)
                ["creator"]["name"] == "renamed")
        after = watermarks()
        assert all(b <= a for b, a in zip(before, after))
    finally:
        sim.close()


# -- the twelve criteria ----------------------------------------------------------


def test_criterion_01_lost_update_prevention():
    with criterion(1, "TCC lost-update prevention: 16 concurrent adds -> 16", 5):
        check_lost_update_prevention("local")


def test_criterion_02_saga_serialization():
    with criterion(2, "Saga storm: 100% success, serial-order history", 5):
        check_saga_serialization("local")


def test_criterion_03_compensation_soundness(tmp_path):
    with criterion(3, "Compensations: domain fault aborts clean, infra fault retries", 1):
        check_compensation_soundness("local", tmp_path)


def test_criterion_04_snapshot_isolation():
    with criterion(4, "Snapshot isolation vs saga intermediate visibility", 1):
        check_snapshot_isolation("local")


def test_criterion_05_atomic_visibility_outbox():
    with criterion(5, "Crash injection: causal commit is all-or-nothing", 2):
        check_atomic_visibility_outbox("local")


def test_criterion_06_event_propagation():
    with criterion(6, "Rename propagates to every subscriber within 2 cycles", 1):
        check_event_propagation("local")


def test_criterion_07_relative_benchmark_ordering():
    with criterion(7, "Bench: saga median < tcc median; succ 100% vs <100%", 60):
        reports = {
            model: run_bench(BenchConfig(
                model=model, transport="local", clients=16,
                requests_per_client=25, runs=5))
            for model in ("saga", "tcc")
        }
        medians = {
            model: statistics.median(r["median_ms"] for r in rep["runs"])
            for model, rep in reports.items()
        }
        success = {
            model: (
                sum(r["committed"] for r in rep["runs"])
                / (5 * 16 * 25) * 100.0
            )
            for model, rep in reports.items()
        }
        assert medians["saga"] < medians["tcc"], medians
        assert success["saga"] == 100.0, success
        assert success["tcc"] < 100.0, success


def test_criterion_08_versioning_swap_effect():
    with criterion(8, "Remote versioning adds >= the round-trips' worth vs snowflake", 60):
        one_way_ms = 10.0
        medians = {}
        for versioning in ("centralized-remote", "snowflake"):
            report = run_bench(BenchConfig(
                model="saga", transport="rpc", versioning=versioning,
                clients=4, requests_per_client=5, rpc_one_way_ms=one_way_ms))
            medians[versioning] = report["runs"][0]["median_ms"]
        # three counter operations per request (lock, write, unlock), each a
        # full round trip over the rpc transport
        added_worth = 3 * 2 * one_way_ms
        delta = medians["centralized-remote"] - medians["snowflake"]
        assert delta >= added_worth, (medians, added_worth)


def test_criterion_09_snowflake_properties():
    with criterion(9, "Snowflake: 100k ids, no collisions, per-generator ordered", 2):
        from msim.clock import RealClock
        from msim.versioning import SnowflakeVersionService

        clock = RealClock()
        generators = [
            SnowflakeVersionService(clock, machine_id=m)
            for m in range(4)
        ]
        buckets = [[] for _ in range(4)]

        def worker(gen, bucket):
            for _ in range(25_000):
                bucket.append(gen.increment_and_get_version_number())

        threads = [
            threading.Thread(target=worker, args=(generators[i], buckets[i]))
            for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        all_ids = [i for b in buckets for i in b]
        assert len(set(all_ids)) == 100_000
        for bucket in buckets:
            assert all(a < b for a, b in zip(bucket, bucket[1:]))


def test_criterion_10_tcc_snowflake_incompatibility():
    with criterion(10, "tcc + snowflake rejected at startup", 5):
        with pytest.raises(IncompatibleVersioningStrategy):
            Simulator(SimConfig(
                transaction_model="tcc", versioning_strategy="snowflake"))


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_criterion_11_transport_transparency(transport, tmp_path):
    with criterion(11, f"criteria 1-6 hold under transport={transport}", 120):
        check_lost_update_prevention(transport)
        check_saga_serialization(transport)
        check_compensation_soundness(transport, tmp_path)
        check_snapshot_isolation(transport)
        check_atomic_visibility_outbox(transport)
        check_event_propagation(transport)


def test_criterion_12_plan_generator_cardinality(tmp_path):
    with criterion(12, "3 steps x 3 actions -> 9 distinct rows per functionality", 5):
        paths = generate_plans(
            PlanSpec(
                functionalities=["addParticipant", "updateStudentName"],
                steps=["s1", "s2", "s3"],
                actions=[("FAIL", "SimulatedFault"), ("DELAY", 10), ("DELAY", 100)],
            ),
            tmp_path,
        )
        for path in paths:
            rows = path.read_text().splitlines()[1:]
            assert len(rows) == 9
            assert len(set(rows)) == 9
