"""Event propagation: transactional outbox, publisher, and handling cycles.

Events are written to the publisher's event log in the same atomic install
as the aggregate versions that emitted them (the transactional outbox).
A publisher cycle then marks them published and, in distributed topologies,
copies them into each subscribing service's own log. Downstream aggregates
consume through subscription matching: an event is delivered to a
subscriber when its type and sender match and its publisher version is
strictly newer than what the subscriber has already processed.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, replace

from .aggregate import LifecycleState, SimulationStore
from .clock import Clock
from .errors import DomainError

SHARED_LOG = "shared"


@dataclass(frozen=True)
class DomainEvent:
    event_id: int
    event_type: str
    publisher_aggregate_id: int
    publisher_version: int
    payload: dict
    published: bool = False

    def mark_published(self) -> "DomainEvent":
        return replace(self, published=True)

    def with_publisher_version(self, version: int) -> "DomainEvent":
        return replace(self, publisher_version=version)


class EventIdGenerator:
    def __init__(self):
        self._counter = itertools.count(1)
        self._lock = threading.Lock()

    def new_event_id(self) -> int:
        with self._lock:
            return next(self._counter)


class NotificationService:
    """Event store façade plus the publisher, run on demand by publish_pending().

    topology "shared": one log for every service (local deployments).
    topology "per-service": each service owns a log; publishing copies
    events to subscriber logs with the configured delivery latency.
    """

    def __init__(
        self,
        store: SimulationStore,
        clock: Clock,
        topology: str = "shared",
        delivery_latency_ms: float = 0.0,
    ):
        self._store = store
        self._clock = clock
        self.topology = topology
        self.delivery_latency_ms = delivery_latency_ms
        self._subscribed_types: dict[str, set[str]] = {}
        self.event_ids = EventIdGenerator()
        # log key -> (the log tuple indexed, its index). The store replaces
        # a log's tuple on every change, so the tuple's identity tells
        # whether the index is current.
        self._log_indexes: dict[str, tuple] = {}

    def declare_subscription(self, service: str, event_type: str) -> None:
        self._subscribed_types.setdefault(service, set()).add(event_type)

    def log_key(self, service: str) -> str:
        """Which store log a service writes to / reads from."""
        return SHARED_LOG if self.topology == "shared" else service

    # -- publication -----------------------------------------------------

    def publish_pending(self) -> int:
        """Deliver every unpublished event to its subscribers, exactly once.

        Returns the number of events published this cycle.
        """
        published = 0
        for service in list(self._store.event_services()):
            pending = [e for e in self._store.events_of(service) if not e.published]
            if not pending:
                continue
            # A subscriber reading the publisher's own log (every subscriber
            # in the shared topology) already sees the events there.
            subscribers = [(subscriber, types)
                           for subscriber, types in self._subscribed_types.items()
                           if self.log_key(subscriber) != service]
            deliveries = [(subscriber, event.mark_published())
                          for event in pending
                          for subscriber, types in subscribers
                          if event.event_type in types]
            if deliveries and self.delivery_latency_ms:
                self._clock.sleep_ms(self.delivery_latency_ms)
            published += self._store.publish_batch(
                service, [e.event_id for e in pending], deliveries
            )
        return published

    # -- subscription queries ----------------------------------------------

    def _log_index(self, log_key: str) -> dict:
        """Published events of one log by (event_type, publisher), built once
        per log version: each entry is (events in log order, {payload key:
        {value: events}}), the payload part filled per key on first use."""
        log = self._store.events_of(log_key)
        cached = self._log_indexes.get(log_key)
        if cached is not None and cached[0] is log:
            return cached[1]
        index: dict[tuple, tuple] = {}
        for event in log:
            if event.published:
                key = (event.event_type, event.publisher_aggregate_id)
                if key not in index:
                    index[key] = ([], {})
                index[key][0].append(event)
        self._log_indexes[log_key] = (log, index)
        return index

    def get_subscribed_events(self, service: str, subscriptions) -> list[DomainEvent]:
        """Events visible to `service` matching any subscription, oldest first.

        Each subscription looks up the events of its (event_type, sender),
        narrowed by its payload requirement, in an index of the log, so a
        query costs what its subscriptions match, not the log's length.
        """
        index = self._log_index(self.log_key(service))
        matched: dict[int, DomainEvent] = {}
        for sub in subscriptions:
            entry = index.get((sub.event_type, sub.sender_aggregate_id))
            if entry is None:
                continue
            events, by_key = entry
            if sub.payload_match is not None:
                key, value = sub.payload_match
                by_value = by_key.get(key)
                if by_value is None:
                    # Built whole before it is published: another thread
                    # querying the same log sees it complete or not at all.
                    by_value = {}
                    for event in events:
                        if key in event.payload:
                            by_value.setdefault(event.payload[key], []).append(event)
                    by_key[key] = by_value
                events = by_value.get(value, ())
            for event in events:
                if event.publisher_version > sub.sender_last_version:
                    matched[event.event_id] = event
        return sorted(matched.values(), key=lambda e: (e.publisher_version, e.event_id))


class EventHandlingLoop:
    """Runs local consumption cycles: match events to live aggregates and
    dispatch each to its registered handler.

    Handlers launch the corresponding processing functionality. A handler's
    DomainError is caught and the event is retried on the next cycle;
    processing is at-least-once, so handlers must be idempotent.
    """

    def __init__(self, store: SimulationStore, notification: NotificationService):
        self._store = store
        self._notification = notification
        # aggregate_type -> event_type -> handler(aggregate_id, event)
        self._handlers: dict[str, dict[str, object]] = {}

    def register(self, aggregate_type: str, event_type: str, handler) -> None:
        self._handlers.setdefault(aggregate_type, {})[event_type] = handler
        self._notification.declare_subscription(aggregate_type, event_type)

    def registered_types(self):
        return list(self._handlers.keys())

    def run_event_handling_cycle(self, aggregate_type: str) -> int:
        """One consumption cycle for every live aggregate of the type."""
        handlers = self._handlers.get(aggregate_type, {})
        if not handlers:
            return 0
        processed = 0
        for aggregate_id in self._store.ids_of_type(aggregate_type):
            latest = self._store.latest(aggregate_id)
            if latest.state is not LifecycleState.ACTIVE:
                continue
            subscriptions = latest.get_event_subscriptions()
            if not subscriptions:
                continue
            events = self._notification.get_subscribed_events(
                aggregate_type, subscriptions
            )
            for event in events:
                handler = handlers.get(event.event_type)
                if handler is None:
                    continue
                try:
                    handler(aggregate_id, event)
                    processed += 1
                except DomainError:
                    pass  # the event is still unprocessed: retried next cycle
        return processed
