"""Command dispatch: one gateway, four simulated transports.

Downstream-to-upstream invocations travel as Command objects through a
single gateway interface. The transport behind it is configuration:

* local            -- direct call on the caller's thread, no serialization.
* rpc              -- serialized, with a one-way latency applied to request
  and response.
* local-serialized -- rpc at zero latency: a direct call, but commands and
  responses are forced through the canonical byte encoding so payload
  problems surface locally.
* broker           -- serialized, handed to a parked consumer of the target
  service (one is started when none is idle), so one service's handlers run
  concurrently; each reply goes back to its caller's own slot. Poll ticks
  and delivery latency are waited out through the clock, and a message
  whose caller gave up is dropped.

A handler's exception comes back as the (name, message) pair that
errors.py classifies. send() retries only an InfraError, with exponential
backoff, and then raises ServiceUnavailable (an InfraError an enclosing
call may retry); any other error, or an unknown service, fails at once. A
broker reply timeout is not retried: a retry would reuse the command id,
so the first message, still queued, could run as well.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from queue import SimpleQueue

from . import serialization
from .clock import Clock
from .context import ambient
from .errors import (
    DuplicateRegistration,
    ErrorRegistry,
    InfraError,
    InvalidConfig,
    InvalidLatencySpec,
    SerializationError,
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


class _Reply:
    """One dispatch's reply slot; the caller sets ``given_up`` when it times out."""

    __slots__ = ("arrived", "wire", "given_up")

    def __init__(self):
        self.arrived = threading.Event()
        self.wire = None
        self.given_up = False


class BrokerTransport(Transport):
    """Per-service pools of parked consumers; each reply goes to its caller's slot.

    A consumer is a thread parked on its own inbox, with no timeout, so an
    idle broker never wakes. dispatch() hands the message straight to the
    service's most recently parked consumer, or starts one when none is idle.
    Handlers of one service thus run concurrently, and the pool grows only
    when every consumer is busy, so its size follows the service's peak of
    messages in flight.

    A message is taken at the first poll tick at or after it was sent, ticks
    falling every ``poll_ms`` from when the transport started, and no earlier
    than ``delivery_ms`` after it was sent. The consumer sleeps through the
    clock until then.

    A message whose caller has already given up is dropped at delivery. A
    handler already running when its caller times out still completes; its
    response is discarded. A send after close() fails at once.
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
        self._idle: dict[str, list[SimpleQueue]] = {}
        self._consumers: list[tuple[threading.Thread, SimpleQueue]] = []
        self._lock = threading.Lock()
        self._closed = False

    def _consume(self, service, inbox):
        while (job := inbox.get()) is not None:
            reply, wire, due_ns, execute = job
            self._clock.sleep_ms((due_ns - self._clock.now_ns()) / 1e6)
            if not reply.given_up:
                response = execute(WireMessage.from_wire(serialization.decode(wire)))
                try:
                    reply.wire = serialization.encode(response.to_wire())
                except SerializationError as exc:
                    response = CommandResponse(
                        response.command_id, error_name=type(exc).__name__,
                        error_message=str(exc))
                    reply.wire = serialization.encode(response.to_wire())
                reply.arrived.set()
            with self._lock:
                self._idle[service].append(inbox)

    def dispatch(self, message, execute) -> CommandResponse:
        service = message.inner.target_service
        wire = serialization.encode(message.to_wire())
        sent_ns = self._clock.now_ns()
        poll_ns = self.poll_ms * 1e6
        ticks = math.ceil((sent_ns - self._started_ns) / poll_ns)
        due_ns = max(self._started_ns + ticks * poll_ns, sent_ns + self.delivery_ms * 1e6)
        reply = _Reply()
        with self._lock:
            if self._closed:
                raise ServiceUnavailable(f"broker closed: no delivery to {service}")
            idle = self._idle.setdefault(service, [])
            if idle:
                inbox = idle.pop()
            else:
                inbox = SimpleQueue()
                consumer = threading.Thread(
                    target=self._consume, args=(service, inbox),
                    name=f"broker-poller-{service}", daemon=True)
                self._consumers.append((consumer, inbox))
                consumer.start()
            # Under the lock, so close() cannot put its stop marker first.
            inbox.put((reply, wire, due_ns, execute))
        if not reply.arrived.wait(self.response_timeout_s):
            reply.given_up = True
            raise ServiceUnavailable(
                f"no response from {service} within {self.response_timeout_s}s"
            )
        self._clock.sleep_ms(self.delivery_ms)
        return CommandResponse.from_wire(serialization.decode(reply.wire))

    def close(self) -> None:
        with self._lock:
            self._closed = True
            for _, inbox in self._consumers:
                inbox.put(None)
        for consumer, _ in self._consumers:
            consumer.join(timeout=1.0)


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
