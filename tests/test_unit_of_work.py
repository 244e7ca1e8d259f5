"""The staging contract both transactional models share."""

import sys
import threading
import time
from dataclasses import replace

import pytest

from msim.messaging import Command
from msim.transaction.base import FifoGate
from tests.conftest import seed_basic


@pytest.mark.parametrize("model", ["saga", "tcc"])
def test_handler_sees_its_own_change(make_sim, model):
    # One handler loads and changes the same aggregate twice. Its second
    # load must return the copy its first change staged, under either model.
    sim = make_sim(transaction_model=model, tcc_commit_store_ms=0.0)
    txn = sim.transactions
    execution_id, _, _, user_ids = seed_basic(sim)

    def rename_both(command):
        uow = txn.lookup(command.unit_of_work_ref)
        for user_id, name in zip(user_ids, ("first", "second")):
            execution = txn.aggregate_load(uow, execution_id)
            execution.students[user_id] = replace(execution.students[user_id], name=name)
            txn.register_changed(uow, execution)
        return {}

    sim.gateway.register_handler("renamer", rename_both, decorators=(txn.decorator(),))
    uow = txn.create_unit_of_work()
    sim.gateway.send(txn.envelope(uow, Command(
        target_service="renamer", command_type="RenameBoth", unit_of_work_ref=uow.uow_id)))
    txn.commit(uow)
    students = sim.store.latest(execution_id).students
    assert [students[user_id].name for user_id in user_ids] == ["first", "second"]


def test_gate_holds_each_key_for_one_caller_at_a_time():
    # More threads than cores contend for two keys under a short switch
    # interval; an unguarded read-modify-write under a held key would lose
    # updates, and every key is released once the holders are done.
    gate = FifoGate()
    counts = {0: 0, 1: 0}
    rounds, threads_per_key = 300, 4

    def hold_and_count(key):
        for _ in range(rounds):
            with gate.hold((key,), 10_000, lambda: AssertionError("gate wait timed out")):
                seen = counts[key]
                time.sleep(0)  # let another thread run mid-update
                counts[key] = seen + 1

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=hold_and_count, args=(i % 2,))
                   for i in range(2 * threads_per_key)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert counts == {0: rounds * threads_per_key, 1: rounds * threads_per_key}
    assert gate._queues == {}


def test_gate_holds_overlapping_key_sets_without_deadlock():
    # Callers name two keys in opposite orders, beside callers of one key.
    # Each joins all its queues in one step, so none waits for another in a
    # cycle, no update made under a held key is lost, and every key is
    # released once the holders are done.
    gate = FifoGate()
    counts = {"a": 0, "b": 0}
    rounds = 200
    key_sets = [("a", "b"), ("b", "a"), ("a",), ("b",)] * 2

    def hold_and_count(keys):
        for _ in range(rounds):
            with gate.hold(keys, 10_000, lambda: AssertionError("gate wait timed out")):
                for key in keys:
                    seen = counts[key]
                    time.sleep(0)  # let another thread run mid-update
                    counts[key] = seen + 1

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=hold_and_count, args=(keys,))
                   for keys in key_sets]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    expected = {key: rounds * sum(key in keys for keys in key_sets) for key in counts}
    assert counts == expected
    assert gate._queues == {}
