"""Span tracing for the benchmark's traced rounds.

The tracer records spans from outside the program: ``install()`` wraps the
public entry points of each msim layer, and ``uninstall()`` puts the
originals back, so untraced rounds run the program exactly as shipped.
Wrapping happens before a Simulator is built, because the gateway binds its
handlers and the broker binds its pollers at construction.

A span has a name, a layer, a start, an end and a parent. Spans of one
client workflow share a trace id. A span's self time is its duration minus
the time its children cover. Time spent inside ``RealClock.sleep_ms`` is
modeled latency: it is charged to the innermost open span of the sleeping
thread, and a layer's overhead is its self time minus its modeled time.

Broker handlers run on poller threads. A handler span takes the dispatching
span as its parent, matched by ``command_id``; a poller's delivery sleep,
which happens before the handler starts, is charged to the oldest dispatch
still waiting for that service's poller.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict, deque

from msim import serialization
from msim.aggregate import SimulationStore
from msim.clock import RealClock
from msim.coordination import Workflow
from msim.errors import (
    ConcurrentCommitConflict,
    InvariantViolation,
    MergeConflictUnresolvable,
    SemanticLockConflict,
)
from msim.impairment import ImpairmentHandler
from msim.messaging import (
    BrokerTransport,
    CommandGateway,
    LocalTransport,
    RetryPolicy,
    RpcTransport,
    SerializedLocalTransport,
    inner_command,
)
from msim.monitoring import SpanRecorder
from msim.notification import EventHandlingLoop, NotificationService
from msim.sampleapp.domain import CourseExecution, Tournament, User
from msim.sampleapp.services import ExecutionService, TournamentService, UserService
from msim.transaction import CausalUnitOfWorkService, SagaUnitOfWorkService
from msim.transaction.causal import CausalCommandDecorator
from msim.transaction.saga import SagaCommandDecorator
from msim.versioning import CentralizedVersionService, RemoteVersionService

_POLLER_PREFIX = "broker-poller-"
_MISSING = object()
REQUEST_SPAN = "coordination.request"


class Span:
    __slots__ = ("trace_id", "span_id", "parent", "name", "layer", "start_ns",
                 "end_ns", "child_ns", "modeled_ns", "service")

    def __init__(self, trace_id, span_id, parent, name, layer):
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent = parent
        self.name = name
        self.layer = layer
        self.service = None
        self.child_ns = 0
        self.modeled_ns = 0
        self.end_ns = None
        self.start_ns = time.monotonic_ns()

    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns

    def self_ns(self) -> int:
        return max(0, self.duration_ns() - self.child_ns)

    def to_json(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_span_id": self.parent.span_id if self.parent else None,
            "name": self.name,
            "layer": self.layer,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "modeled_ns": self.modeled_ns,
        }


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._span_ids = itertools.count(1)
        self._trace_ids = itertools.count(1)
        self._patches: list[tuple] = []
        self.reset()

    # -- span lifecycle ------------------------------------------------------

    def reset(self) -> None:
        """Forget every recorded span and counter (spans still open stay valid)."""
        with self._lock:
            self.spans: list[Span] = []
            self.counters: defaultdict = defaultdict(float)
            self.client_traces: set[int] = set()
            self._linked: dict[int, Span] = {}
            self._waiting: defaultdict = defaultdict(deque)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, layer: str, name: str, parent: Span | None = None) -> Span:
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        trace_id = parent.trace_id if parent is not None else next(self._trace_ids)
        span = Span(trace_id, next(self._span_ids), parent, name, layer)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end_ns = time.monotonic_ns()
        stack = self._stack()
        if not stack or stack[-1] is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        stack.pop()
        if span.parent is not None:
            span.parent.child_ns += span.duration_ns()
        self.spans.append(span)

    def open_request(self) -> Span:
        """Root span of one client workflow."""
        span = self.open("coordination", REQUEST_SPAN)
        self.client_traces.add(span.trace_id)
        return span

    def count(self, key: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[key] += amount

    # -- broker linking -----------------------------------------------------

    def _link(self, command_id, service, span) -> None:
        span.service = service
        with self._lock:
            self._linked[command_id] = span
            self._waiting[service].append(span)

    def _unlink(self, command_id) -> Span | None:
        with self._lock:
            span = self._linked.pop(command_id, None)
            if span is not None:
                waiting = self._waiting[span.service]
                if span in waiting:
                    waiting.remove(span)
            return span

    def _charge_sleep(self, slept_ns: int) -> None:
        stack = self._stack()
        if stack:
            stack[-1].modeled_ns += slept_ns
            return
        name = threading.current_thread().name
        if not name.startswith(_POLLER_PREFIX):
            return  # outside every traced workflow
        with self._lock:
            waiting = self._waiting.get(name[len(_POLLER_PREFIX):])
            if waiting:
                waiting[0].modeled_ns += slept_ns

    # -- patching -------------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, replacement)

    def _wrap(self, owner, attr, layer, name, after=None):
        """Record a span around owner.attr; after(args, result, exc) counts."""
        original = getattr(owner, attr)
        tracer = self
        span_name = name if callable(name) else (lambda args: name)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = tracer.open(layer, span_name(args))
            result = exc = None
            try:
                result = original(*args, **kwargs)
                return result
            except BaseException as error:
                exc = error
                raise
            finally:
                tracer.close(span)
                if after is not None:
                    after(args, result, exc)

        self._patch(owner, attr, traced)

    def install(self, versioning_strategy: str) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._patch_clock()
        self._patch_messaging()
        self._wrap(serialization, "encode", "serialization", "serialization.encode",
                   after=self._after_encode)
        self._wrap(serialization, "decode", "serialization", "serialization.decode")
        self._patch_transactions()
        self._patch_aggregates()
        versioning = (RemoteVersionService if versioning_strategy == "centralized-remote"
                      else CentralizedVersionService)
        for op in ("get_version_number", "get_next_version_number",
                   "increment_and_get_version_number", "decrement_version_number"):
            self._wrap(versioning, op, "versioning", "versioning.op")
        self._wrap(NotificationService, "publish_pending", "notification",
                   "notification.publish", after=self._counter("notification.events_published"))
        self._wrap(EventHandlingLoop, "run_event_handling_cycle", "notification",
                   "notification.cycle", after=self._counter("notification.events_processed"))
        self._wrap(NotificationService, "get_subscribed_events", "notification",
                   "notification.match")
        for service in (UserService, ExecutionService, TournamentService):
            self._wrap(service, "handle", "sampleapp", "sampleapp.handle",
                       after=self._after_service_handle)
        self._wrap(Workflow, "execute", "coordination", "coordination.workflow")
        self._wrap(SpanRecorder, "create_root", "monitoring", "monitoring.open")
        self._wrap(SpanRecorder, "start_span", "monitoring", "monitoring.open",
                   after=self._after_start_span)
        self._wrap(SpanRecorder, "end_span", "monitoring", "monitoring.close")
        self._wrap(ImpairmentHandler, "consult", "impairment", "impairment.consult",
                   after=self._after_consult)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def _patch_clock(self) -> None:
        original = RealClock.sleep_ms
        tracer = self

        @functools.wraps(original)
        def sleep_ms(clock, ms):
            start = time.monotonic_ns()
            try:
                return original(clock, ms)
            finally:
                tracer._charge_sleep(time.monotonic_ns() - start)

        self._patch(RealClock, "sleep_ms", sleep_ms)

    def _patch_messaging(self) -> None:
        tracer = self
        self._wrap(CommandGateway, "send", "messaging", "messaging.send")
        backoff = RetryPolicy.backoff_ms

        @functools.wraps(backoff)
        def backoff_ms(policy, attempt):
            value = backoff(policy, attempt)
            tracer.count("messaging.retries")
            tracer.count("messaging.backoff_ns", value * 1e6)
            return value

        self._patch(RetryPolicy, "backoff_ms", backoff_ms)

        def traced_execute(execute):
            def handle(message):
                parent = tracer._unlink(inner_command(message).command_id)
                span = tracer.open("messaging", "messaging.handle", parent=parent)
                try:
                    return execute(message)
                finally:
                    tracer.close(span)
            return handle

        for transport in (LocalTransport, SerializedLocalTransport, RpcTransport,
                          BrokerTransport):
            original = transport.dispatch

            def dispatch(self_, message, execute, _original=original):
                command = inner_command(message)
                span = tracer.open("messaging", "messaging.dispatch")
                broker = isinstance(self_, BrokerTransport)
                if broker:
                    tracer._link(command.command_id, command.target_service, span)
                try:
                    return _original(self_, message, traced_execute(execute))
                finally:
                    if broker:
                        tracer._unlink(command.command_id)
                    tracer.close(span)

            self._patch(transport, "dispatch", functools.wraps(original)(dispatch))

        registered = BrokerTransport.on_service_registered

        @functools.wraps(registered)
        def on_service_registered(self_, service, execute):
            return registered(self_, service, traced_execute(execute))

        self._patch(BrokerTransport, "on_service_registered", on_service_registered)

    def _patch_transactions(self) -> None:
        for service, layer in ((SagaUnitOfWorkService, "transaction.saga"),
                               (CausalUnitOfWorkService, "transaction.causal")):
            for op in ("create_unit_of_work", "aggregate_load", "register_changed",
                       "register_event"):
                self._wrap(service, op, layer, f"{layer}.uow")
        self._wrap(SagaCommandDecorator, "handle", "transaction.saga", "transaction.saga.step")
        self._wrap(CausalCommandDecorator, "handle", "transaction.causal",
                   "transaction.causal.step")
        self._wrap(SagaUnitOfWorkService, "acquire_semantic_lock", "transaction.saga",
                   "transaction.saga.lock", after=self._after_lock)
        self._wrap(SagaUnitOfWorkService, "transaction_handler", "transaction.saga",
                   lambda args: "transaction.saga." + args[1].command_type.split(".")[-1])
        self._wrap(CausalUnitOfWorkService, "transaction_handler", "transaction.causal",
                   lambda args: "transaction.causal." + args[1].command_type.split(".")[-1],
                   after=self._after_causal_handler)

    def _patch_aggregates(self) -> None:
        self._wrap(SimulationStore, "install", "aggregate", "aggregate.install")
        for cls in (User, CourseExecution, Tournament):
            self._wrap(cls, "copy_for_write", "aggregate", "aggregate.copy",
                       after=self._after_copy)
            self._wrap(cls, "verify_invariants", "aggregate", "aggregate.verify")
            self._wrap(cls, "merge_fields", "aggregate", "aggregate.merge")
            self._wrap(cls, "domain_payload", "aggregate", "aggregate.payload")

    # -- counting hooks ---------------------------------------------------------

    def _counter(self, key):
        """Hook adding a wrapped call's integer result to counter ``key``."""
        def after(args, result, exc):
            if exc is None:
                self.count(key, result)
        return after

    def _after_encode(self, args, result, exc) -> None:
        if exc is None:
            self.count("serialization.bytes", len(result))

    def _after_consult(self, args, result, exc) -> None:
        if result is not None:
            self.count("impairment.fired")

    def _after_copy(self, args, result, exc) -> None:
        source = args[0]
        if isinstance(source, Tournament):
            members = len(source.participants) + 1
        elif isinstance(source, CourseExecution):
            members = len(source.students)
        else:
            members = 0
        self.count("aggregate.members_copied", members)

    def _after_lock(self, args, result, exc) -> None:
        if isinstance(exc, SemanticLockConflict):
            self.count("transaction.saga.lock_conflicts")

    def _after_causal_handler(self, args, result, exc) -> None:
        if args[1].command_type != "transaction.commit":
            return
        if exc is None:
            self.count("transaction.causal.commits")
        elif isinstance(exc, ConcurrentCommitConflict):
            self.count("transaction.causal.commit_conflicts")
        elif isinstance(exc, (MergeConflictUnresolvable, InvariantViolation)):
            self.count("transaction.causal.merge_aborts")

    def _after_start_span(self, args, result, exc) -> None:
        if len(args) > 2 and str(args[2]).startswith("compensate:"):
            self.count("transaction.saga.compensations")

    def _after_service_handle(self, args, result, exc) -> None:
        if args[1].command_type.startswith("Process") and exc is None:
            self.count("notification.reactions")
            if result.get("changed"):
                self.count("notification.useful_reactions")



LAYERS = ("aggregate", "transaction.saga", "transaction.causal", "messaging",
          "serialization", "versioning", "notification", "coordination",
          "monitoring", "impairment", "sampleapp")


def summarize(spans, counters, client_traces, workflows: int) -> dict:
    """Per-layer metrics, each per client workflow unless it is a ratio.

    Returns {name: (value, unit)}. Times are self times unless the name says
    busy or cycle time; every layer is also split into modeled and overhead
    time.
    """
    count = defaultdict(int)
    incl = defaultdict(int)
    self_ = defaultdict(int)
    modeled = defaultdict(int)
    layer_self = defaultdict(int)
    layer_modeled = defaultdict(int)
    client_latency = client_modeled = 0
    for span in spans:
        count[span.name] += 1
        incl[span.name] += span.duration_ns()
        self_[span.name] += span.self_ns()
        modeled[span.name] += span.modeled_ns
        layer_self[span.layer] += span.self_ns()
        layer_modeled[span.layer] += span.modeled_ns
        if span.trace_id in client_traces:
            client_modeled += span.modeled_ns
        if span.name == REQUEST_SPAN:
            client_latency += span.duration_ns()

    def per(n):
        return (n / workflows, "count")

    def ms(ns):
        return (ns / 1e6 / workflows, "ms")

    def ratio(num, den):
        return (num / den if den else 0.0, "ratio")

    commit = "transaction.causal.commit"
    metrics = {
        "aggregate.copies": per(count["aggregate.copy"]),
        "aggregate.copy_ms": ms(self_["aggregate.copy"]),
        "aggregate.members_copied": per(counters["aggregate.members_copied"]),
        "aggregate.verify_ms": ms(self_["aggregate.verify"]),
        "aggregate.installs": per(count["aggregate.install"]),
        "aggregate.install_ms": ms(self_["aggregate.install"]),
        "aggregate.merges": per(count["aggregate.merge"]),
        "aggregate.merge_ms": ms(self_["aggregate.merge"]),
        "aggregate.payload_ms": ms(self_["aggregate.payload"]),
        "transaction.saga.lock_acquires": per(count["transaction.saga.lock"]),
        "transaction.saga.lock_wait_ms": ms(self_["transaction.saga.lock"]),
        "transaction.saga.lock_conflicts": per(counters["transaction.saga.lock_conflicts"]),
        "transaction.saga.compensations": per(counters["transaction.saga.compensations"]),
        "transaction.causal.commits": per(counters["transaction.causal.commits"]),
        "transaction.causal.commit_wait_ms": ms(self_[commit] - modeled[commit]),
        "transaction.causal.commit_store_ms": ms(modeled[commit]),
        "transaction.causal.commit_conflicts":
            per(counters["transaction.causal.commit_conflicts"]),
        "transaction.causal.merge_aborts": per(counters["transaction.causal.merge_aborts"]),
        "messaging.sends": per(count["messaging.send"]),
        "messaging.dispatches": per(count["messaging.dispatch"]),
        "messaging.sends_per_dispatch":
            ratio(count["messaging.send"], count["messaging.dispatch"]),
        "messaging.retries": per(counters["messaging.retries"]),
        "messaging.backoff_ms": ms(counters["messaging.backoff_ns"]),
        "messaging.dispatch_self_ms": ms(self_["messaging.dispatch"]),
        "serialization.calls":
            per(count["serialization.encode"] + count["serialization.decode"]),
        "serialization.self_ms": ms(layer_self["serialization"]),
        "serialization.bytes": (counters["serialization.bytes"] / workflows, "B"),
        "versioning.ops": per(count["versioning.op"]),
        "versioning.busy_ms": ms(incl["versioning.op"]),
        "notification.cycles": per(count["notification.cycle"]),
        "notification.cycle_ms":
            ms(incl["notification.cycle"] + incl["notification.publish"]),
        "notification.match_ms": ms(incl["notification.match"]),
        "notification.events_published": per(counters["notification.events_published"]),
        "notification.events_processed": per(counters["notification.events_processed"]),
        "notification.useful_ratio": ratio(counters["notification.useful_reactions"],
                                           counters["notification.events_processed"]),
        "coordination.workflows": per(count["coordination.workflow"]),
        "coordination.self_ms": ms(layer_self["coordination"]),
        "monitoring.spans": per(count["monitoring.open"]),
        "monitoring.span_ms": ms(incl["monitoring.open"] + incl["monitoring.close"]),
        "impairment.consults": per(count["impairment.consult"]),
        "impairment.fired": per(counters["impairment.fired"]),
        "sampleapp.calls": per(count["sampleapp.handle"]),
        "clock.modeled_ms": ms(client_modeled),
        "clock.overhead_ms": ms(client_latency - client_modeled),
    }
    for layer in LAYERS:
        metrics[f"{layer}.modeled_ms"] = ms(layer_modeled[layer])
        metrics[f"{layer}.overhead_ms"] = ms(layer_self[layer] - layer_modeled[layer])
    return metrics


def broker_dispatch_durations_ms(spans) -> list[float]:
    """Durations of the dispatches that went through a broker queue."""
    return [span.duration_ns() / 1e6 for span in spans
            if span.name == "messaging.dispatch" and span.service is not None]


def write_jsonl(spans, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span.to_json(), sort_keys=True) + "\n")
