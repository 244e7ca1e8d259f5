import threading

import pytest

from msim.clock import RealClock, VirtualClock
from msim.errors import ClockMovedBackwards, InvalidConfig, UnsupportedByStrategy
from msim.versioning import CentralizedVersionService, SnowflakeVersionService


# -- centralized --------------------------------------------------------------


def test_fresh_counter_reads_zero():
    assert CentralizedVersionService().get_version_number() == 0


def test_increment_sequence():
    svc = CentralizedVersionService()
    for _ in range(3):
        svc.increment_and_get_version_number()
    assert svc.get_version_number() == 3


def test_two_sequential_increments():
    svc = CentralizedVersionService()
    n = svc.increment_and_get_version_number()
    assert svc.increment_and_get_version_number() == n + 1


def test_db_latency_paid_once_per_counter_operation():
    clock = VirtualClock()
    svc = CentralizedVersionService(clock=clock, db_latency_ms=5)
    svc.increment_and_get_version_number()
    svc.get_version_number()
    assert clock.now_ns() == 10_000_000


def test_concurrent_increments_are_distinct_and_gap_free():
    # Linearizable-counter oracle: an increment-only history observes
    # every value in the range exactly once, in some order.
    svc = CentralizedVersionService()
    seen = [[] for _ in range(4)]

    def worker(bucket):
        for _ in range(250):
            bucket.append(svc.increment_and_get_version_number())

    threads = [threading.Thread(target=worker, args=(seen[i],)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    observed = sorted(v for bucket in seen for v in bucket)
    assert observed == list(range(1, 1001))


# -- snowflake -----------------------------------------------------------------


def test_snowflake_config_validation():
    with pytest.raises(InvalidConfig):
        SnowflakeVersionService(VirtualClock(), machine_id=1 << 10)


def test_snowflake_frozen_clock_zero_case():
    clock = VirtualClock()  # frozen at the epoch origin
    svc = SnowflakeVersionService(clock, machine_id=0)
    assert svc.increment_and_get_version_number() == 0
    assert svc.increment_and_get_version_number() == 1


def test_snowflake_machine_bits_position():
    clock = VirtualClock()
    svc = SnowflakeVersionService(clock, machine_id=3)
    assert svc.increment_and_get_version_number() == 3 << 12


def test_snowflake_unsupported_operations():
    svc = SnowflakeVersionService(VirtualClock())
    with pytest.raises(UnsupportedByStrategy):
        svc.get_version_number()
    with pytest.raises(UnsupportedByStrategy):
        svc.get_next_version_number()
    with pytest.raises(UnsupportedByStrategy):
        svc.decrement_version_number()


def test_snowflake_spins_to_next_millisecond():
    clock = VirtualClock()
    svc = SnowflakeVersionService(clock)
    ids = [svc.increment_and_get_version_number() for _ in range(4097)]
    assert len(set(ids)) == 4097
    assert ids[-1] == 1 << 22  # next millisecond, sequence reset


def test_snowflake_clock_moved_backwards():
    clock = VirtualClock(start_ns=int(5e6))
    svc = SnowflakeVersionService(clock)
    svc.increment_and_get_version_number()
    clock._now_ns = 0  # simulate regression
    with pytest.raises(ClockMovedBackwards):
        svc.increment_and_get_version_number()


def test_snowflake_bulk_uniqueness_across_machines():
    # Oracle: set cardinality over all generators, plus per-generator
    # sortedness.
    clock = RealClock()
    generators = [
        SnowflakeVersionService(clock, machine_id=m)
        for m in range(4)
    ]
    per_generator = [[] for _ in range(4)]

    def worker(gen, bucket):
        for _ in range(25_000):
            bucket.append(gen.increment_and_get_version_number())

    threads = [
        threading.Thread(target=worker, args=(generators[i], per_generator[i]))
        for i in range(4)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    everything = [i for bucket in per_generator for i in bucket]
    assert len(everything) == 100_000
    assert len(set(everything)) == 100_000
    for bucket in per_generator:
        assert all(a < b for a, b in zip(bucket, bucket[1:]))


# -- remote proxy -----------------------------------------------------------------


def test_remote_versioning_routes_through_transport(make_sim):
    sim = make_sim(
        versioning_strategy="centralized-remote",
        transport_mode="rpc",
        rpc_one_way_ms=10.0,
    )
    start = sim.clock.now_ns()
    value = sim.versioning.increment_and_get_version_number()
    elapsed_ms = (sim.clock.now_ns() - start) / 1e6
    assert value >= 1
    assert elapsed_ms >= 20.0  # request + response legs
