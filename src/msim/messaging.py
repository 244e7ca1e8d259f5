"""Command dispatch: one gateway, four simulated transports.

Downstream-to-upstream invocations travel as Command objects through a
single gateway interface. The transport behind it is configuration:

* local            -- direct call on the caller's thread, no serialization.
* rpc              -- serialized, with a one-way latency applied to request
  and response.
* local-serialized -- rpc at zero latency: a direct call, but commands and
  responses are forced through the canonical byte encoding so payload
  problems surface locally.
* broker           -- serialized, and run on the caller's thread once the
  next poll tick and the delivery latency have passed on the clock; the
  reply pays the delivery latency back. A message that comes due after its
  caller's response timeout is dropped, a handler makes no saga effect
  after it, and a reply that returns after it is discarded.

A handler's exception comes back as the (name, message) pair that
errors.py classifies. send() retries only an InfraError, with exponential
backoff, and then raises ServiceUnavailable (an InfraError an enclosing
call may retry); any other error, or an unknown service, fails at once. A
broker reply timeout is not retried: the handler may have made its effect
just before its caller gave up, with only its reply late, and a retry
would make that effect again.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, field

from . import serialization
from .clock import Clock
from .context import ambient
from .errors import (
    DuplicateRegistration,
    ErrorRegistry,
    InfraError,
    InvalidConfig,
    InvalidLatencySpec,
    ServiceUnavailable,
    SimulatorError,
)

TRANSACTION_SERVICE = "transaction"


class WireMessage:
    """One codec for every message: its fields, after the class's ``kind`` tag.

    The nested ``inner`` message is encoded in place, ``trace_parent``
    travels as a list, and a tagged dict decodes as the class its kind names.
    """

    kind: str | None = None

    def to_wire(self) -> dict:
        kind = self.kind
        data = {"kind": kind, **vars(self)} if kind else vars(self).copy()
        if "inner" in data:
            data["inner"] = data["inner"].to_wire()
        if data.get("trace_parent"):
            data["trace_parent"] = list(data["trace_parent"])
        return data

    @classmethod
    def from_wire(cls, data: dict):
        data = data.copy()
        kind = data.pop("kind", None)
        if kind is not None or cls is WireMessage:
            cls = _KINDS.get(kind)
            if cls is None:
                raise SimulatorError(f"unknown message kind: {kind}")
        if "inner" in data:
            data["inner"] = WireMessage.from_wire(data["inner"])
        if data.get("trace_parent"):
            data["trace_parent"] = tuple(data["trace_parent"])
        return cls(**data)


@dataclass
class Command(WireMessage):
    kind = "command"

    target_service: str
    command_type: str
    payload: dict = field(default_factory=dict)
    command_id: int | None = None
    unit_of_work_ref: int | None = None
    target_aggregate_id: int | None = None
    # Stamped from the ambient workflow context at dispatch time.
    functionality: str | None = None
    step: str | None = None
    trace_parent: tuple | None = None
    # Infrastructure commands (versioning, commit/abort) bypass impairment.
    infrastructure: bool = False

    @property
    def inner(self) -> "Command":
        return self


@dataclass
class SagaCommandEnvelope(WireMessage):
    """Saga wrapper: forbidden states to reject on, state to acquire."""

    kind = "saga"

    inner: Command
    forbidden_states: list
    acquire_state: str

    def __post_init__(self):
        from .aggregate import NOT_IN_SAGA

        if self.acquire_state == NOT_IN_SAGA:
            raise SimulatorError("acquire_state must name an in-saga state")


@dataclass
class CausalCommandEnvelope(WireMessage):
    """Causal wrapper carrying the caller's snapshot and transaction id."""

    kind = "causal"

    inner: Command
    snapshot_version: int
    uow_id: int


_KINDS = {cls.kind: cls for cls in (Command, SagaCommandEnvelope, CausalCommandEnvelope)}


def inner_command(message) -> Command:
    return message.inner


@dataclass
class CommandResponse(WireMessage):
    """A handler's payload, or the wire name and message of its error."""

    command_id: int
    payload: object = None
    error_name: str | None = None
    error_message: str | None = None


@dataclass(frozen=True)
class RetryPolicy:
    max_attempts: int = 5
    base_backoff_ms: float = 20.0
    multiplier: float = 2.0

    def __post_init__(self):
        if self.max_attempts < 1:
            raise InvalidConfig("max_attempts must be >= 1")
        if self.multiplier < 1:
            raise InvalidConfig("multiplier must be >= 1")

    def backoff_ms(self, attempt: int) -> float:
        """Backoff after the attempt-th failure (1-based)."""
        return self.base_backoff_ms * self.multiplier ** (attempt - 1)


class CommandHandlerDecorator:
    """Middleware hook around domain command handling.

    handle() receives the (possibly enveloped) message and a proceed
    callable; implementations may unwrap, reject, or augment before
    delegating inward.
    """

    def handle(self, message, proceed):
        return proceed(message)


# ---------------------------------------------------------------------------
# Transports


class Transport:
    def dispatch(self, message, execute) -> CommandResponse:
        raise NotImplementedError

    # No transport acts on this any more; perfbench/tracer.py wraps it by name.
    def on_service_registered(self, service: str, execute) -> None:
        pass

    def close(self) -> None:
        pass


class LocalTransport(Transport):
    def dispatch(self, message, execute) -> CommandResponse:
        return execute(message)


class RpcTransport(Transport):
    """Point-to-point call with a fixed one-way latency each direction."""

    def __init__(self, clock: Clock, one_way_ms: float):
        if one_way_ms < 0:
            raise InvalidLatencySpec("rpc one-way latency must be >= 0")
        self._clock = clock
        self.one_way_ms = one_way_ms

    def dispatch(self, message, execute) -> CommandResponse:
        wire = serialization.roundtrip(message.to_wire())
        self._clock.sleep_ms(self.one_way_ms)
        response = execute(WireMessage.from_wire(wire))
        self._clock.sleep_ms(self.one_way_ms)
        return CommandResponse.from_wire(serialization.roundtrip(response.to_wire()))


class SerializedLocalTransport(RpcTransport):
    """The rpc transport at zero latency: a direct call through the byte encoding."""


class BrokerTransport(Transport):
    """A message broker whose delivery runs on the caller's thread.

    A message is taken at the first poll tick at or after it was sent, ticks
    falling every ``poll_ms`` from when the transport started, and no earlier
    than ``delivery_ms`` after it was sent; its reply travels back in
    ``delivery_ms``. Both waits go through the clock. The handler runs on
    the caller's thread in between, as under rpc, so one service's handlers
    run as concurrently as their callers and a broker starts no thread.

    The caller gives up ``response_timeout_s`` of wall time after it sent.
    A message that comes due after that is dropped, and a reply that comes
    back after it is discarded; either way the send raises
    ServiceUnavailable. While the handler runs, ``ambient.delivery`` holds
    that deadline, and a saga refuses any effect past it. A send after
    close() fails at once.
    """

    def __init__(
        self,
        clock: Clock,
        delivery_ms: float,
        poll_ms: float,
        response_timeout_s: float = 10.0,
    ):
        if delivery_ms < 0 or poll_ms <= 0:
            raise InvalidLatencySpec("broker latencies must be >= 0 (poll > 0)")
        self._clock = clock
        self.delivery_ms = delivery_ms
        self.poll_ms = poll_ms
        self.response_timeout_s = response_timeout_s
        self._started_ns = clock.now_ns()
        self._closed = False

    def dispatch(self, message, execute) -> CommandResponse:
        service = message.inner.target_service
        if self._closed:
            raise ServiceUnavailable(f"broker closed: no delivery to {service}")
        wire = serialization.roundtrip(message.to_wire())
        give_up = time.monotonic() + self.response_timeout_s
        sent_ns = self._clock.now_ns()
        poll_ns = self.poll_ms * 1e6
        ticks = math.ceil((sent_ns - self._started_ns) / poll_ns)
        due_ns = max(self._started_ns + ticks * poll_ns, sent_ns + self.delivery_ms * 1e6)
        self._clock.sleep_ms((due_ns - sent_ns) / 1e6)
        if time.monotonic() < give_up:
            outer, ambient.delivery = ambient.delivery, give_up
            try:
                response = execute(WireMessage.from_wire(wire))
            finally:
                ambient.delivery = outer
            if time.monotonic() < give_up:
                reply = serialization.roundtrip(response.to_wire())
                self._clock.sleep_ms(self.delivery_ms)
                return CommandResponse.from_wire(reply)
        raise ServiceUnavailable(
            f"no response from {service} within {self.response_timeout_s}s"
        )

    def close(self) -> None:
        self._closed = True


# ---------------------------------------------------------------------------
# Gateway


class CommandGateway:
    """Dispatch entry point shared by every functionality.

    send() is synchronous and applies the retry policy.
    """

    def __init__(
        self,
        clock: Clock,
        error_registry: ErrorRegistry,
        retry_policy: RetryPolicy | None = None,
        impairment=None,
        recorder=None,
    ):
        self._clock = clock
        self._errors = error_registry
        self.retry_policy = retry_policy or RetryPolicy()
        self._impairment = impairment
        self._recorder = recorder
        self._handlers: dict[str, object] = {}
        self._transport: Transport = LocalTransport()
        self._id_lock = threading.Lock()
        self._next_id = 1

    # -- configuration ---------------------------------------------------

    def configure_transport(self, mode: str, **latency) -> None:
        self._transport.close()
        if mode == "local":
            transport: Transport = LocalTransport()
        elif mode == "local-serialized":
            transport = SerializedLocalTransport(self._clock, 0)
        elif mode == "rpc":
            transport = RpcTransport(self._clock, latency.get("one_way_ms", 10.0))
        elif mode == "broker":
            transport = BrokerTransport(
                self._clock,
                latency.get("delivery_ms", 5.0),
                latency.get("poll_ms", 5.0),
                latency.get("response_timeout_s", 10.0),
            )
        else:
            raise InvalidLatencySpec(f"unknown transport mode: {mode}")
        self._transport = transport

    def register_handler(self, service: str, handler, decorators=()) -> None:
        if service in self._handlers:
            raise DuplicateRegistration(f"handler already registered for {service}")
        self._handlers[service] = _compose(tuple(decorators), handler)

    # -- dispatch ----------------------------------------------------------

    def _stamp(self, message) -> Command:
        command = message.inner
        if command.command_id is None:
            with self._id_lock:
                command.command_id = self._next_id
                self._next_id += 1
        if not command.infrastructure:
            if command.functionality is None:
                command.functionality = ambient.functionality
            if command.step is None:
                command.step = ambient.step
        if command.trace_parent is None:
            command.trace_parent = ambient.trace_parent
        return command

    def send(self, message):
        """Dispatch and return the handler payload, retrying only an InfraError."""
        command = self._stamp(message)
        if command.target_service not in self._handlers:
            raise SimulatorError(f"no handler for service {command.target_service}")
        policy = self.retry_policy
        for attempt in range(1, policy.max_attempts + 1):
            response = self._transport.dispatch(message, self._execute)
            if response.error_name is None:
                return response.payload
            error = self._errors.reconstruct(response.error_name, response.error_message)
            if not isinstance(error, InfraError):
                raise error
            if attempt == policy.max_attempts:
                raise ServiceUnavailable(
                    f"{command.target_service} unavailable after {attempt} attempts: "
                    f"last error {response.error_name} ({response.error_message})"
                ) from error
            self._clock.sleep_ms(policy.backoff_ms(attempt))

    # -- server side -------------------------------------------------------

    def _execute(self, message) -> CommandResponse:
        command = message.inner
        span_id = None
        try:
            if (
                self._impairment is not None
                and not command.infrastructure
                and command.functionality
                and command.step
            ):
                action = self._impairment.consult(command.functionality, command.step)
                if action is not None:
                    if action.kind == "delay":
                        self._clock.sleep_ms(action.delay_ms)
                    else:
                        raise self._errors.reconstruct(action.error_name, "injected fault")
            if self._recorder is not None and command.trace_parent is not None:
                _, span_id = self._recorder.start_span(
                    command.trace_parent,
                    f"handle:{command.command_type}",
                    {"service": command.target_service},
                )
            result = self._handlers[command.target_service](message)
            return CommandResponse(command.command_id, payload=result)
        except Exception as exc:
            name, text = self._errors.describe(exc)
            return CommandResponse(command.command_id, error_name=name, error_message=text)
        finally:
            if span_id is not None:
                self._recorder.end_span(span_id)

    def close(self) -> None:
        self._transport.close()


def _compose(decorators, handler):
    """Chain the decorators around the handler, outermost first.

    Built once per registration. Each layer's ``handle`` is still looked up
    per message, so a wrapper patched onto or removed from a decorator class
    (as perfbench's tracer does) applies to handlers already registered.
    """

    def terminal(message):
        return handler(message.inner)

    chain = terminal
    for decorator in reversed(decorators):
        def make(layer, nxt):
            return lambda message: layer.handle(message, nxt)

        chain = make(decorator, chain)
    return chain
