import threading
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from msim.clock import RealClock, VirtualClock
from msim.errors import (
    DomainError,
    DuplicateRegistration,
    InvalidLatencySpec,
    SerializationError,
    ServiceUnavailable,
    SimulatedFault,
    SimulatedInfraFault,
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


def test_unregistered_error_name_becomes_generic_domain_error():
    registry = default_registry()
    err = registry.reconstruct("SomethingNovel", "details")
    assert isinstance(err, DomainError)
    assert "SomethingNovel" in str(err)


def test_duplicate_registration_rejected():
    gw = make_gateway()
    gw.register_handler("echo", lambda c: {})
    with pytest.raises(DuplicateRegistration):
        gw.register_handler("echo", lambda c: {})


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


# -- envelopes ---------------------------------------------------------------------


def test_saga_envelope_requires_in_saga_state():
    from msim.errors import SimulatorError

    with pytest.raises(SimulatorError):
        SagaCommandEnvelope(
            inner=cmd(), forbidden_states=[], acquire_state="NOT_IN_SAGA"
        )
