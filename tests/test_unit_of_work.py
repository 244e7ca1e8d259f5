"""The staging contract both transactional models share."""

from dataclasses import replace

import pytest

from msim.messaging import Command
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
