import threading
from dataclasses import fields, replace

import pytest

from msim import SimConfig, Simulator
from msim.errors import InvalidConfig, MalformedPlan, ServiceUnavailable
from msim.messaging import Command, SagaCommandEnvelope
from msim.sampleapp.domain import IN_UPDATE_TOURNAMENT
from tests.conftest import seed_basic


def test_config_accepts_dotted_keys():
    cfg = SimConfig.from_mapping({
        "transaction.model": "tcc",
        "transport.mode": "rpc",
        "transport.rpc.one_way_ms": 3.5,
        "retry.max_attempts": 7,
        "versioning.strategy": "centralized",
    })
    assert cfg.transaction_model == "tcc"
    assert cfg.transport_mode == "rpc"
    assert cfg.rpc_one_way_ms == 3.5
    assert cfg.retry_max_attempts == 7
    assert set(SimConfig._DOTTED.values()) <= {f.name for f in fields(SimConfig)}
    # Every dotted key the config has ever accepted, each with a value that
    # differs from its field's default, so a key that lands on the wrong
    # field, or on none, fails.
    dotted = {
        "transaction.model": ("transaction_model", "tcc"),
        "transport.mode": ("transport_mode", "broker"),
        "transport.rpc.one_way_ms": ("rpc_one_way_ms", 1.5),
        "transport.broker.delivery_ms": ("broker_delivery_ms", 2.5),
        "transport.broker.poll_ms": ("broker_poll_ms", 3.5),
        "retry.max_attempts": ("retry_max_attempts", 9),
        "retry.base_ms": ("retry_base_ms", 4.5),
        "retry.multiplier": ("retry_multiplier", 1.5),
        "versioning.strategy": ("versioning_strategy", "centralized-remote"),
        "versioning.machine_id": ("versioning_machine_id", 3),
        "versioning.epoch_origin_ms": ("versioning_epoch_origin_ms", 1000),
        "versioning.db_ms": ("versioning_db_ms", 5.5),
        "impairment.report_path": ("impairment_report_path", "report.jsonl"),
        "impairment.plan_dir": ("impairment_plan_dir", "plans"),
        "saga.lock_wait_ms": ("saga_lock_wait_ms", 6.5),
        "transaction.tcc.commit_wait_ms": ("tcc_commit_wait_ms", 7.5),
        "transaction.tcc.commit_store_ms": ("tcc_commit_store_ms", 8.5),
    }
    defaults = SimConfig()
    for key, (name, value) in dotted.items():
        assert getattr(defaults, name) != value
        assert getattr(SimConfig.from_mapping({key: value}), name) == value, key


def test_config_rejects_unknown_keys():
    for key in ("transport.warp", "events.manual_mode", "events.publish_interval_ms",
                "events.handle_interval_ms", "coordination.parallel_steps"):
        with pytest.raises(InvalidConfig):
            SimConfig.from_mapping({key: 1})


def test_config_rejects_unknown_values():
    with pytest.raises(InvalidConfig):
        SimConfig(transport_mode="telepathy")
    with pytest.raises(InvalidConfig):
        SimConfig(transaction_model="two-phase-commit")
    with pytest.raises(InvalidConfig):
        SimConfig(transaction_model="tcc", versioning_strategy="snowflake")


@pytest.mark.parametrize("overrides", [
    {"versioning_strategy": "lamport"},
    {"clock_mode": "sundial"},
    {"retry_max_attempts": 0},
    {"retry_multiplier": 0.5},
    {"broker_response_timeout_s": -1},
    {"saga_lock_wait_ms": -5},
    {"tcc_commit_wait_ms": -1},
    {"tcc_commit_store_ms": -2},
    {"versioning_db_ms": -3},
    {"retry_base_ms": -10},
])
def test_config_rejects_invalid_values(overrides):
    with pytest.raises(InvalidConfig):
        SimConfig(**overrides)


@pytest.mark.parametrize("transport", ["local", "local-serialized", "rpc", "broker"])
@pytest.mark.parametrize("latency", [
    {"rpc_one_way_ms": -1},
    {"broker_delivery_ms": -3},
    {"broker_poll_ms": 0},
])
def test_config_rejects_a_bad_latency_whatever_the_transport(transport, latency):
    # A latency its transport does not use is refused all the same.
    with pytest.raises(InvalidConfig, match=next(iter(latency))):
        SimConfig(transport_mode=transport, **latency)


def run_workload(sim):
    execution_id, tournament_id, _, user_ids = seed_basic(sim, students=3)
    sim.app.add_participant(tournament_id, execution_id, user_ids[0])
    sim.app.add_participant(tournament_id, execution_id, user_ids[1])
    sim.app.update_student_name(execution_id, user_ids[0], "renamed")
    sim.run_event_cycles(2)
    return tournament_id


def test_all_committed_records_satisfy_invariants(make_sim):
    # Full store scan: every committed version of every aggregate must
    # still pass its own invariant check.
    for model in ("saga", "tcc"):
        sim = make_sim(transaction_model=model, tcc_commit_store_ms=0.0)
        run_workload(sim)
        for record in sim.store.all_records():
            record.verify_invariants()


def test_transport_transparency_of_returned_payloads(make_sim):
    # Identical workload, identical view payload, for every transport.
    views = {}
    for transport in ("local", "local-serialized", "rpc", "broker"):
        sim = make_sim(
            transport_mode=transport,
            rpc_one_way_ms=0.5, broker_delivery_ms=0.5, broker_poll_ms=0.5)
        tournament_id = run_workload(sim)
        view = sim.app.get_tournament(tournament_id)
        view.pop("as_of_version")
        views[transport] = view
    baseline = views["local"]
    for transport, view in views.items():
        assert view == baseline, transport


def test_commit_is_idempotent_under_retry(causal_sim):
    sim = causal_sim
    execution_id, tournament_id, _, user_ids = seed_basic(sim)
    uow = sim.transactions.create_unit_of_work()
    execution = sim.transactions.aggregate_load(uow, execution_id)
    execution.students[user_ids[0]] = replace(execution.students[user_ids[0]], name="renamed")
    sim.transactions.register_changed(uow, execution)
    sim.transactions._do_commit(uow)
    versions = sim.store.versions(execution_id)
    sim.transactions._do_commit(uow)  # retried commit command: no-op
    assert sim.store.versions(execution_id) == versions


def test_forbidden_state_rejects_before_handler_runs(saga_sim):
    sim = saga_sim
    sim.transactions.lock_wait_ms = 5
    sim.gateway.retry_policy = type(sim.gateway.retry_policy)(
        max_attempts=1, base_backoff_ms=1, multiplier=1)
    execution_id, tournament_id, _, user_ids = seed_basic(sim)
    paused, _ = sim.app.functionalities.add_participant(
        tournament_id, execution_id, user_ids[0])
    paused.execute_until("addParticipantStep")  # holds the semantic lock

    calls = []
    sim.gateway.register_handler(
        "probe", lambda c: calls.append(1) or {},
        decorators=(sim.transactions.decorator(),))
    blocked = sim.transactions.create_unit_of_work()
    with pytest.raises(ServiceUnavailable):
        sim.gateway.send(SagaCommandEnvelope(
            inner=Command(
                target_service="probe", command_type="Anything",
                unit_of_work_ref=blocked.uow_id,
                target_aggregate_id=tournament_id),
            forbidden_states=[IN_UPDATE_TOURNAMENT],
            acquire_state=IN_UPDATE_TOURNAMENT))
    assert calls == []  # rejected before the handler ran
    paused.execute()


def test_failed_construction_leaves_no_consumer_thread(tmp_path):
    (tmp_path / "plan.csv").write_text(
        "functionality,step,invocation_index,action,value\nx,y,0,FAIL,SimulatedFault\n")
    before = set(threading.enumerate())
    with pytest.raises(MalformedPlan):
        Simulator(SimConfig(transport_mode="broker", impairment_plan_dir=str(tmp_path)))
    assert set(threading.enumerate()) <= before  # no thread left behind


def test_saga_runs_on_snowflake_ids_under_the_virtual_clock(make_sim):
    # At virtual time 0, machine 0's first snowflake id is 0, the version
    # that marks an uncommitted working copy.
    sim = make_sim(versioning_strategy="snowflake", clock_mode="virtual")
    execution_id, tournament_id, _, user_ids = seed_basic(sim)
    sim.app.add_participant(tournament_id, execution_id, user_ids[0])
    assert str(user_ids[0]) in sim.app.get_tournament(tournament_id)["participants"]


def test_context_manager_closes_the_broker():
    with Simulator(SimConfig(transport_mode="broker", clock_mode="virtual")) as sim:
        sim.app.create_user("alice")
    with pytest.raises(ServiceUnavailable, match="broker closed"):
        sim.app.create_user("bob")
