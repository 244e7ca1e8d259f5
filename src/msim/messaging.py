"""Command dispatch: one gateway, four simulated transports.

Downstream-to-upstream invocations travel as Command objects through a
single gateway interface. The transport behind it is configuration:

* local            -- direct call on the caller's thread, no serialization.
* local-serialized -- direct call, but commands and responses are forced
  through the canonical byte encoding so payload problems surface locally.
* rpc              -- serialized, with a one-way latency applied to request
  and response.
* broker           -- serialized, queued per service, taken by event-driven
  consumers that run one service's handlers concurrently, response routed
  back by correlation id. Poll ticks and delivery latency are waited out
  through the clock, and a message whose caller gave up is dropped.

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
from collections import deque
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
    SerializationError,
    ServiceUnavailable,
    SimulatorError,
)

TRANSACTION_SERVICE = "transaction"


@dataclass
class Command:
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

    def to_wire(self) -> dict:
        return {
            "kind": "command",
            "target_service": self.target_service,
            "command_type": self.command_type,
            "payload": self.payload,
            "command_id": self.command_id,
            "unit_of_work_ref": self.unit_of_work_ref,
            "target_aggregate_id": self.target_aggregate_id,
            "functionality": self.functionality,
            "step": self.step,
            "trace_parent": list(self.trace_parent) if self.trace_parent else None,
            "infrastructure": self.infrastructure,
        }

    @classmethod
    def from_wire(cls, data: dict) -> "Command":
        trace = data.get("trace_parent")
        return cls(
            target_service=data["target_service"],
            command_type=data["command_type"],
            payload=data["payload"],
            command_id=data["command_id"],
            unit_of_work_ref=data["unit_of_work_ref"],
            target_aggregate_id=data["target_aggregate_id"],
            functionality=data["functionality"],
            step=data["step"],
            trace_parent=tuple(trace) if trace else None,
            infrastructure=data["infrastructure"],
        )


@dataclass
class SagaCommandEnvelope:
    """Saga wrapper: forbidden states to reject on, state to acquire."""

    inner: Command
    forbidden_states: list
    acquire_state: str

    def __post_init__(self):
        from .aggregate import NOT_IN_SAGA

        if self.acquire_state == NOT_IN_SAGA:
            raise SimulatorError("acquire_state must name an in-saga state")

    def to_wire(self) -> dict:
        return {
            "kind": "saga",
            "inner": self.inner.to_wire(),
            "forbidden_states": list(self.forbidden_states),
            "acquire_state": self.acquire_state,
        }


@dataclass
class CausalCommandEnvelope:
    """Causal wrapper carrying the caller's snapshot and transaction id."""

    inner: Command
    snapshot_version: int
    uow_id: int

    def to_wire(self) -> dict:
        return {
            "kind": "causal",
            "inner": self.inner.to_wire(),
            "snapshot_version": self.snapshot_version,
            "uow_id": self.uow_id,
        }


def message_from_wire(data: dict):
    kind = data.get("kind")
    if kind == "command":
        return Command.from_wire(data)
    if kind == "saga":
        return SagaCommandEnvelope(
            inner=Command.from_wire(data["inner"]),
            forbidden_states=data["forbidden_states"],
            acquire_state=data["acquire_state"],
        )
    if kind == "causal":
        return CausalCommandEnvelope(
            inner=Command.from_wire(data["inner"]),
            snapshot_version=data["snapshot_version"],
            uow_id=data["uow_id"],
        )
    raise SimulatorError(f"unknown message kind: {kind}")


def inner_command(message) -> Command:
    return message.inner if hasattr(message, "inner") else message


@dataclass
class CommandResponse:
    """A handler's payload, or the wire name and message of its error."""

    command_id: int
    payload: object = None
    error_name: str | None = None
    error_message: str | None = None

    def to_wire(self) -> dict:
        return {
            "command_id": self.command_id,
            "payload": self.payload,
            "error_name": self.error_name,
            "error_message": self.error_message,
        }

    @classmethod
    def from_wire(cls, data: dict) -> "CommandResponse":
        return cls(
            command_id=data["command_id"],
            payload=data["payload"],
            error_name=data["error_name"],
            error_message=data["error_message"],
        )


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

    def on_service_registered(self, service: str, execute) -> None:
        pass

    def close(self) -> None:
        pass


class LocalTransport(Transport):
    def dispatch(self, message, execute) -> CommandResponse:
        return execute(message)


class SerializedLocalTransport(Transport):
    """Direct call with a mandatory round-trip through the byte encoding."""

    def dispatch(self, message, execute) -> CommandResponse:
        wire = serialization.roundtrip(message.to_wire())
        response = execute(message_from_wire(wire))
        return CommandResponse.from_wire(serialization.roundtrip(response.to_wire()))


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
        response = execute(message_from_wire(wire))
        self._clock.sleep_ms(self.one_way_ms)
        return CommandResponse.from_wire(serialization.roundtrip(response.to_wire()))


class _ServiceQueue:
    """One service's queue and its leader/followers consumer pool."""

    def __init__(self):
        self.items: deque = deque()  # (arrived_ns, command_id, wire)
        self.lock = threading.Lock()
        self.arrived = threading.Condition(self.lock)  # the leader parks here
        self.promoted = threading.Condition(self.lock)  # idle followers park here
        self.has_leader = False
        self.idle = 0
        self.consumers: list[threading.Thread] = []


class BrokerTransport(Transport):
    """Per-service queues taken by event-driven consumers; responses correlate by id.

    Each service queue has a leader/followers pool of consumer threads. The
    leader parks until a message is enqueued, with no timeout, so an idle
    broker never wakes. It sleeps through the clock until the message is due,
    promotes an idle follower to leader (or starts one when none is idle) and
    then runs the handler itself. Handlers of one service thus run
    concurrently, and the pool grows only when every consumer is busy, so its
    size follows the service's peak of messages in flight.

    A message that reaches an idle consumer is taken at the first poll tick
    at or after its arrival, ticks falling every ``poll_ms`` from when the
    consumer went idle; a busy consumer takes the next message as soon as its
    handler returns. Either way the message is delivered no earlier than
    ``delivery_ms`` after it was sent.

    A message whose caller has already given up (its ``command_id`` is no
    longer pending) is dropped at delivery. A handler already running when
    its caller times out still completes; its response is discarded.
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
        self._queues: dict[str, _ServiceQueue] = {}
        self._pending: dict[int, tuple[threading.Event, list]] = {}
        self._pending_lock = threading.Lock()
        self._closed = False

    def on_service_registered(self, service: str, execute) -> None:
        if service in self._queues:
            return
        queue = _ServiceQueue()
        self._queues[service] = queue
        with queue.lock:
            self._start_consumer(service, queue, execute)

    def _start_consumer(self, service, queue, execute) -> None:
        """Add a consumer to the pool; the caller holds ``queue.lock``."""
        consumer = threading.Thread(
            target=self._consume,
            args=(service, queue, execute, self._clock.now_ns()),
            name=f"broker-poller-{service}",
            daemon=True,
        )
        queue.consumers.append(consumer)
        consumer.start()

    def _consume(self, service, queue, execute, idle_since_ns):
        poll_ns = self.poll_ms * 1e6
        delivery_ns = self.delivery_ms * 1e6
        leading = False
        while True:
            with queue.lock:
                if not leading:
                    queue.idle += 1
                    while queue.has_leader and not self._closed:
                        queue.promoted.wait()
                    queue.idle -= 1
                    queue.has_leader = leading = True
                while not queue.items and not self._closed:
                    queue.arrived.wait()
                if self._closed:
                    return
                arrived_ns, command_id, wire = queue.items.popleft()
            # The first poll tick at or after arrival, counted from idle.
            ticks = max(0, math.ceil((arrived_ns - idle_since_ns) / poll_ns))
            due_ns = max(idle_since_ns + ticks * poll_ns, arrived_ns + delivery_ns)
            remaining_ms = (due_ns - self._clock.now_ns()) / 1e6
            if remaining_ms > 0:
                self._clock.sleep_ms(remaining_ms)
            with self._pending_lock:
                if command_id not in self._pending:
                    continue  # the caller gave up: drop it and keep leading
            with queue.lock:
                queue.has_leader = leading = False
                if queue.idle:
                    queue.promoted.notify()
                elif not self._closed:
                    self._start_consumer(service, queue, execute)
            message = message_from_wire(serialization.decode(wire))
            response = execute(message)
            try:
                response_wire = serialization.encode(response.to_wire())
            except SerializationError as exc:
                response = CommandResponse(
                    command_id, error_name=type(exc).__name__, error_message=str(exc))
                response_wire = serialization.encode(response.to_wire())
            with self._pending_lock:
                waiter = self._pending.get(command_id)
            if waiter is not None:
                event, slot = waiter
                slot.append(response_wire)
                event.set()
            idle_since_ns = self._clock.now_ns()

    def dispatch(self, message, execute) -> CommandResponse:
        command = inner_command(message)
        service = command.target_service
        queue = self._queues[service]
        event = threading.Event()
        slot: list = []
        with self._pending_lock:
            self._pending[command.command_id] = (event, slot)
        try:
            wire = serialization.encode(message.to_wire())
            with queue.lock:
                queue.items.append((self._clock.now_ns(), command.command_id, wire))
                queue.arrived.notify()
            if not event.wait(self.response_timeout_s):
                raise ServiceUnavailable(
                    f"no response from {service} within {self.response_timeout_s}s"
                )
        finally:
            with self._pending_lock:
                self._pending.pop(command.command_id, None)
        self._clock.sleep_ms(self.delivery_ms)
        return CommandResponse.from_wire(serialization.decode(slot[0]))

    def close(self) -> None:
        self._closed = True
        consumers = []
        for queue in self._queues.values():
            with queue.lock:
                queue.arrived.notify_all()
                queue.promoted.notify_all()
                consumers += queue.consumers
        for consumer in consumers:
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
            transport = SerializedLocalTransport()
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
        for service in self._handlers:
            transport.on_service_registered(service, self._execute)

    def register_handler(self, service: str, handler, decorators=()) -> None:
        if service in self._handlers:
            raise DuplicateRegistration(f"handler already registered for {service}")
        self._handlers[service] = _compose(tuple(decorators), handler)
        self._transport.on_service_registered(service, self._execute)

    # -- dispatch ----------------------------------------------------------

    def _stamp(self, message) -> Command:
        command = inner_command(message)
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
        command = inner_command(message)
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
        return handler(inner_command(message))

    chain = terminal
    for decorator in reversed(decorators):
        def make(layer, nxt):
            return lambda message: layer.handle(message, nxt)

        chain = make(decorator, chain)
    return chain
