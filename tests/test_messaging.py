import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from msim.clock import RealClock, VirtualClock
from msim.errors import (
    DomainError,
    DuplicateRegistration,
    InfraError,
    InvalidConfig,
    InvalidLatencySpec,
    ProgrammingError,
    SerializationError,
    ServiceUnavailable,
    SimulatedFault,
    SimulatedInfraFault,
    SimulatorError,
    default_registry,
)
from msim.messaging import (
    Command,
    CommandGateway,
    CommandHandlerDecorator,
    RetryPolicy,
    SagaCommandEnvelope,
)


def make_gateway(clock=None, **policy):
    return CommandGateway(
        clock=clock or VirtualClock(),
        error_registry=default_registry(),
        retry_policy=RetryPolicy(**policy) if policy else RetryPolicy(),
    )


def cmd(service="echo", command_type="Echo", payload=None, **kwargs):
    return Command(
        target_service=service,
        command_type=command_type,
        payload=payload or {},
        **kwargs,
    )


# -- dispatch, classification, retry -------------------------------------------


def test_send_returns_handler_payload():
    gw = make_gateway()
    gw.register_handler("echo", lambda c: {"echo": c.payload["x"]})
    assert gw.send(cmd(payload={"x": 41})) == {"echo": 41}


def test_domain_error_not_retried():
    gw = make_gateway(max_attempts=5)
    calls = []

    def handler(c):
        calls.append(1)
        raise SimulatedFault("business rule broken")

    gw.register_handler("echo", handler)
    with pytest.raises(SimulatedFault):
        gw.send(cmd())
    assert len(calls) == 1


def test_infra_error_retried_until_success():
    # Oracle: probe handler counts its own invocations.
    gw = make_gateway(max_attempts=3, base_backoff_ms=1)
    calls = []

    def handler(c):
        calls.append(1)
        if len(calls) == 1:
            raise SimulatedInfraFault("transient")
        return {"ok": True}

    gw.register_handler("echo", handler)
    assert gw.send(cmd()) == {"ok": True}
    assert len(calls) == 2


def test_retry_exhaustion_raises_service_unavailable():
    gw = make_gateway(max_attempts=4, base_backoff_ms=1)
    calls = []

    def handler(c):
        calls.append(1)
        raise SimulatedInfraFault("still down")

    gw.register_handler("echo", handler)
    with pytest.raises(ServiceUnavailable):
        gw.send(cmd())
    assert len(calls) == 4


def test_unregistered_error_name_fails_fast():
    registry = default_registry()
    err = registry.reconstruct("SomethingNovel", "details")
    assert isinstance(err, ProgrammingError)
    assert not isinstance(err, (DomainError, InfraError))
    assert "SomethingNovel" in str(err) and "details" in str(err)


# -- the fail-fast set: only an InfraError is retried ------------------------------


@pytest.fixture(params=["local", "local-serialized", "rpc", "broker"])
def any_transport(request):
    """A gateway on each transport whose first backoff (1 s) no send can hide."""
    clock = VirtualClock()
    gw = make_gateway(clock=clock, max_attempts=5, base_backoff_ms=1000)
    gw.configure_transport(request.param)
    yield gw, clock
    gw.close()


def test_handler_programming_error_fails_on_first_attempt(any_transport):
    gw, clock = any_transport
    calls = []

    def handler_with_a_bug(c):
        calls.append(1)
        return {"value": c.payload["missing"]}

    gw.register_handler("echo", handler_with_a_bug)
    start = clock.now_ns()
    with pytest.raises(ProgrammingError) as info:
        gw.send(cmd())
    assert calls == [1]
    assert (clock.now_ns() - start) / 1e6 < 1000  # no backoff was waited
    assert "KeyError: 'missing'" in str(info.value)
    assert "handler_with_a_bug" in str(info.value)  # the handler-side traceback


def test_unknown_service_fails_at_once(any_transport):
    gw, clock = any_transport
    start = clock.now_ns()
    with pytest.raises(SimulatorError, match="no handler for service nowhere") as info:
        gw.send(cmd(service="nowhere"))
    assert not isinstance(info.value, InfraError)  # an enclosing call won't retry it
    assert clock.now_ns() == start


def test_unregistered_domain_error_travels_as_its_registered_base(any_transport):
    gw, _ = any_transport
    calls = []

    class RuleOnlyThisTestKnows(DomainError):
        pass

    class FaultOnlyThisTestKnows(SimulatedFault):
        pass

    def handler(c):
        calls.append(1)
        if c.payload["error"] == "rule":
            raise RuleOnlyThisTestKnows("broken")
        raise FaultOnlyThisTestKnows("injected")

    gw.register_handler("echo", handler)
    with pytest.raises(DomainError, match="RuleOnlyThisTestKnows: broken"):
        gw.send(cmd(payload={"error": "rule"}))
    with pytest.raises(SimulatedFault, match="FaultOnlyThisTestKnows: injected"):
        gw.send(cmd(payload={"error": "fault"}))
    assert calls == [1, 1]


def test_command_to_a_retired_unit_of_work_fails_on_first_attempt(saga_sim):
    transactions = saga_sim.transactions
    uow = transactions.create_unit_of_work()
    transactions.commit(uow)  # a terminated unit of work leaves the registry
    lookups = []
    lookup = transactions.lookup
    transactions.lookup = lambda uow_id: lookups.append(uow_id) or lookup(uow_id)
    with pytest.raises(ProgrammingError, match="unknown unit of work"):
        transactions.commit(uow)
    assert lookups == [uow.uow_id]


@pytest.mark.parametrize("mode", ["local-serialized", "rpc", "broker"])
def test_reply_the_wire_cannot_carry_fails_on_first_attempt(mode):
    gw = make_gateway(clock=RealClock(), max_attempts=5, base_backoff_ms=1000)
    calls = []

    def handler(c):
        calls.append(1)
        return {"bad": object()} if c.payload.get("bad") else {"ok": True}

    gw.register_handler("svc", handler)
    gw.configure_transport(mode, one_way_ms=1, delivery_ms=1, poll_ms=1,
                           response_timeout_s=2.0)
    try:
        start = time.monotonic()
        with pytest.raises(SerializationError):
            gw.send(cmd(service="svc", payload={"bad": True}))
        assert time.monotonic() - start < 0.5  # neither a backoff nor the timeout
        assert calls == [1]
        assert gw.send(cmd(service="svc")) == {"ok": True}  # the service still answers
    finally:
        gw.close()


def test_duplicate_registration_rejected():
    gw = make_gateway()
    gw.register_handler("echo", lambda c: {})
    with pytest.raises(DuplicateRegistration):
        gw.register_handler("echo", lambda c: {})


def test_error_name_registered_once():
    registry = default_registry()
    registry.register(SimulatedFault)  # the same class again is fine
    impostor = type("SimulatedFault", (DomainError,), {})
    with pytest.raises(DuplicateRegistration):
        registry.register(impostor)


@pytest.mark.parametrize("policy", [{"max_attempts": 0}, {"multiplier": 0.5}])
def test_retry_policy_rejects_invalid_values(policy):
    with pytest.raises(InvalidConfig):
        RetryPolicy(**policy)


@given(st.integers(min_value=1, max_value=8))
def test_backoff_follows_geometric_formula(attempt):
    policy = RetryPolicy(max_attempts=10, base_backoff_ms=20, multiplier=2)
    assert policy.backoff_ms(attempt) == 20 * 2 ** (attempt - 1)


# -- decorators ------------------------------------------------------------------


def test_decorator_sees_every_command_once():
    gw = make_gateway()
    seen = []

    class Logging(CommandHandlerDecorator):
        def handle(self, message, proceed):
            seen.append(message.command_type)
            return proceed(message)

    gw.register_handler("echo", lambda c: {}, decorators=[Logging()])
    gw.send(cmd())
    gw.send(cmd(command_type="Other"))
    assert seen == ["Echo", "Other"]


def test_decorator_invocation_order_is_nested():
    # Oracle: record call order with probes; expect A->B->handler->B->A.
    gw = make_gateway()
    trace = []

    class Probe(CommandHandlerDecorator):
        def __init__(self, name):
            self.name = name

        def handle(self, message, proceed):
            trace.append(f"{self.name}:in")
            result = proceed(message)
            trace.append(f"{self.name}:out")
            return result

    gw.register_handler(
        "echo", lambda c: trace.append("handler") or {},
        decorators=[Probe("A"), Probe("B")],
    )
    gw.send(cmd())
    assert trace == ["A:in", "B:in", "handler", "B:out", "A:out"]


# -- transports ------------------------------------------------------------------


def test_local_transport_matches_direct_invocation():
    gw = make_gateway()
    handler = lambda c: {"doubled": c.payload["x"] * 2}
    gw.register_handler("echo", handler)
    direct = handler(cmd(payload={"x": 4}))
    assert gw.send(cmd(payload={"x": 4})) == direct


def test_local_serialized_surfaces_serialization_errors_at_dispatch():
    gw = make_gateway()
    gw.register_handler("echo", lambda c: {})
    gw.configure_transport("local-serialized")
    with pytest.raises(SerializationError):
        gw.send(cmd(payload={"bad": object()}))


def test_rpc_latency_applied_both_ways():
    clock = VirtualClock()
    gw = make_gateway(clock=clock)
    gw.register_handler("echo", lambda c: {})
    gw.configure_transport("rpc", one_way_ms=10)
    start = clock.now_ns()
    gw.send(cmd())
    assert (clock.now_ns() - start) / 1e6 >= 20


def test_invalid_latency_rejected():
    gw = make_gateway()
    with pytest.raises(InvalidLatencySpec):
        gw.configure_transport("rpc", one_way_ms=-1)
    with pytest.raises(InvalidLatencySpec):
        gw.configure_transport("warp-drive")
    with pytest.raises(InvalidLatencySpec):
        gw.configure_transport("broker", delivery_ms=-1, poll_ms=1)
    with pytest.raises(InvalidLatencySpec):
        gw.configure_transport("broker", delivery_ms=1, poll_ms=0)


def test_broker_correlates_concurrent_responses():
    # Oracle: echo the command id in the payload; every caller must get
    # its own response back.
    gw = make_gateway(clock=RealClock())
    gw.register_handler("echo", lambda c: {"id_seen": c.payload["marker"]})
    gw.configure_transport("broker", delivery_ms=1, poll_ms=1)
    results = {}
    lock = threading.Lock()

    def caller(marker):
        response = gw.send(cmd(payload={"marker": marker}))
        with lock:
            results[marker] = response["id_seen"]

    threads = [threading.Thread(target=caller, args=(i,)) for i in range(12)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert results == {i: i for i in range(12)}
    gw.close()


def test_broker_response_timeout():
    gw = make_gateway(clock=RealClock(), max_attempts=1)
    gw.register_handler("slow", lambda c: time.sleep(1.0) or {})
    gw.configure_transport(
        "broker", delivery_ms=0, poll_ms=1, response_timeout_s=0.1
    )
    with pytest.raises(ServiceUnavailable):
        gw.send(cmd(service="slow"))
    gw.close()


def test_broker_handler_can_send_to_its_own_service():
    gw = make_gateway(clock=RealClock(), max_attempts=1)

    def handler(c):
        if c.payload.get("inner"):
            return {"depth": 1}
        return {"depth": gw.send(cmd(service="svc", payload={"inner": True}))["depth"] + 1}

    gw.register_handler("svc", handler)
    gw.configure_transport("broker", delivery_ms=1, poll_ms=1, response_timeout_s=1.0)
    start = time.monotonic()
    assert gw.send(cmd(service="svc")) == {"depth": 2}
    assert time.monotonic() - start < 0.5
    gw.close()


def test_broker_runs_one_services_handlers_concurrently():
    # Oracle: each handler waits at a 2-party barrier, which only a second
    # handler running at the same time can release.
    gw = make_gateway(clock=RealClock(), max_attempts=1)
    barrier = threading.Barrier(2, timeout=1.0)
    gw.register_handler("svc", lambda c: {"index": barrier.wait()})
    gw.configure_transport("broker", delivery_ms=1, poll_ms=1, response_timeout_s=2.0)
    results, errors = [], []

    def caller():
        try:
            results.append(gw.send(cmd(service="svc"))["index"])
        except ServiceUnavailable as exc:
            errors.append(exc)

    threads = [threading.Thread(target=caller) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=5.0)
        assert not t.is_alive()
    assert errors == []
    assert sorted(results) == [0, 1]
    gw.close()


def test_broker_drops_message_whose_caller_gave_up():
    gw = make_gateway(clock=RealClock(), max_attempts=1)
    calls = []
    gw.register_handler("svc", lambda c: calls.append(1) or {})
    gw.configure_transport(
        "broker", delivery_ms=200, poll_ms=1, response_timeout_s=0.05
    )
    with pytest.raises(ServiceUnavailable):
        gw.send(cmd(service="svc"))
    time.sleep(0.4)
    assert calls == []
    gw.close()


def test_broker_idle_consumer_takes_message_at_its_poll_tick():
    # The consumer goes idle at 0 ms and polls every 20 ms; a message sent
    # at 5 ms with no delivery latency is taken at the 20 ms tick.
    clock = VirtualClock()
    gw = make_gateway(clock=clock)
    handled = []
    gw.register_handler("svc", lambda c: handled.append(clock.now_ns()) or {})
    gw.configure_transport("broker", delivery_ms=0, poll_ms=20)
    clock.advance_ms(5)
    gw.send(cmd(service="svc"))
    assert 20_000_000 <= handled[0] < 40_000_000
    gw.close()


def test_idle_broker_uses_no_cpu():
    # A fresh interpreter, so other tests' threads stay out of the measurement.
    code = (
        "import time\n"
        "from msim import SimConfig, Simulator\n"
        "sim = Simulator(SimConfig(transport_mode='broker'))\n"
        "time.sleep(0.2)\n"
        "start = time.process_time()\n"
        "time.sleep(1.0)\n"
        "print((time.process_time() - start) * 1000)\n"
        "sim.close()\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert float(done.stdout) < 5.0


def test_broker_consumers_under_stress_lose_no_message():
    # More callers than cores and a short switch interval: every send must
    # come back with its own payload, each handler run exactly once.
    gw = make_gateway(clock=RealClock(), max_attempts=1)
    handled = []
    gw.register_handler("stress", lambda c: handled.append(1) or dict(c.payload))
    gw.configure_transport("broker", delivery_ms=0.5, poll_ms=0.5, response_timeout_s=5.0)
    mismatches = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        def caller(client):
            for i in range(10):
                payload = {"client": client, "i": i}
                if gw.send(cmd(service="stress", payload=payload)) != payload:
                    mismatches.append(payload)

        threads = [threading.Thread(target=caller, args=(c,)) for c in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=20.0)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
        gw.close()
    assert mismatches == []
    assert len(handled) == 80


def test_broker_close_stops_every_consumer():
    # The caller consumes its own message, so once the broker is closed no
    # service takes another one and no thread of the broker's is left behind.
    gw = make_gateway(clock=RealClock(), max_attempts=1)
    handled = []
    for service in ("closing", "other"):
        gw.register_handler(service, lambda c: time.sleep(0.02) or handled.append(1) or {})
    gw.configure_transport("broker", delivery_ms=1, poll_ms=1)
    before = threading.active_count()
    threads = [threading.Thread(target=gw.send, args=(cmd(service="closing"),))
               for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=5.0)
        assert not t.is_alive()
    assert len(handled) == 4
    gw.close()
    assert threading.active_count() == before
    for service in ("closing", "other"):
        with pytest.raises(ServiceUnavailable, match="broker closed"):
            gw.send(cmd(service=service))
    assert len(handled) == 4


def test_broker_reuses_its_parked_consumer():
    # Back-to-back sends from one caller are all consumed on that caller's
    # thread; the broker starts no thread of its own for them.
    gw = make_gateway(clock=RealClock(), max_attempts=1)
    ran_on = []
    gw.register_handler("svc", lambda c: ran_on.append(threading.current_thread()) or {})
    gw.configure_transport("broker", delivery_ms=1, poll_ms=1)
    before = threading.active_count()
    try:
        for _ in range(20):
            gw.send(cmd(service="svc"))
        assert threading.active_count() == before
    finally:
        gw.close()
    assert len(ran_on) == 20
    assert set(ran_on) == {threading.current_thread()}


def test_broker_runs_each_handler_on_its_callers_thread():
    gw = make_gateway(clock=RealClock(), max_attempts=1)
    ran_on = []
    gw.register_handler(
        "svc", lambda c: ran_on.append((c.payload["caller"], threading.current_thread())) or {})
    gw.configure_transport("broker", delivery_ms=1, poll_ms=1)
    before = threading.active_count()

    def caller(index):
        for _ in range(10):
            gw.send(cmd(service="svc", payload={"caller": index}))

    callers = [threading.Thread(target=caller, args=(i,)) for i in range(2)]
    try:
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=5.0)
            assert not t.is_alive()
        assert threading.active_count() == before
    finally:
        gw.close()
    assert len(ran_on) == 20
    assert all(thread is callers[index] for index, thread in ran_on)


def test_broker_service_answers_after_a_timed_out_handler(monkeypatch):
    raised = []
    monkeypatch.setattr(threading, "excepthook", raised.append)
    gw = make_gateway(clock=RealClock(), max_attempts=1)
    ran_on, finished = [], threading.Event()

    def handler(c):
        ran_on.append(threading.current_thread())
        if c.payload.get("slow"):
            time.sleep(0.2)
            finished.set()
        return {"slow": c.payload.get("slow", False)}

    gw.register_handler("svc", handler)
    gw.configure_transport("broker", delivery_ms=1, poll_ms=1, response_timeout_s=0.05)
    try:
        with pytest.raises(ServiceUnavailable):
            gw.send(cmd(service="svc", payload={"slow": True}))
        assert finished.wait(2.0)
        assert gw.send(cmd(service="svc")) == {"slow": False}
    finally:
        gw.close()
    assert len(ran_on) == 2
    assert raised == []


def test_broker_send_after_close_fails_at_once():
    gw = make_gateway(clock=RealClock(), max_attempts=1)
    gw.register_handler("svc", lambda c: {})
    gw.configure_transport("broker", delivery_ms=1, poll_ms=1, response_timeout_s=5.0)
    gw.send(cmd(service="svc"))
    gw.close()
    start = time.monotonic()
    with pytest.raises(ServiceUnavailable):
        gw.send(cmd(service="svc"))
    assert time.monotonic() - start < 0.5


# -- envelopes ---------------------------------------------------------------------


def test_saga_envelope_requires_in_saga_state():
    from msim.errors import SimulatorError

    with pytest.raises(SimulatorError):
        SagaCommandEnvelope(
            inner=cmd(), forbidden_states=[], acquire_state="NOT_IN_SAGA"
        )
