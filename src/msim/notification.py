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

    def get_subscribed_events(self, service: str, subscriptions) -> list[DomainEvent]:
        """Events visible to `service` matching any subscription, oldest first.

        Subscriptions are indexed by (event_type, sender) and then by their
        payload requirement, keeping the lowest watermark of each, so every
        event costs a few dict lookups however many subscriptions there are.
        """
        # (event_type, sender) -> (lowest watermark without a payload
        # requirement or None, {payload key: {value: lowest watermark}})
        index: dict[tuple, tuple] = {}
        for sub in subscriptions:
            unrestricted, by_key = index.get(
                (sub.event_type, sub.sender_aggregate_id), (None, {}))
            watermark = sub.sender_last_version
            if sub.payload_match is None:
                if unrestricted is None or watermark < unrestricted:
                    unrestricted = watermark
            else:
                key, value = sub.payload_match
                by_value = by_key.setdefault(key, {})
                if value not in by_value or watermark < by_value[value]:
                    by_value[value] = watermark
            index[(sub.event_type, sub.sender_aggregate_id)] = (unrestricted, by_key)

        matched: dict[int, DomainEvent] = {}
        for event in self._store.events_of(self.log_key(service)):
            if not event.published:
                continue
            entry = index.get((event.event_type, event.publisher_aggregate_id))
            if entry is None:
                continue
            unrestricted, by_key = entry
            version = event.publisher_version
            if unrestricted is not None and version > unrestricted:
                matched.setdefault(event.event_id, event)
                continue
            for key, by_value in by_key.items():
                if key not in event.payload:
                    continue
                watermark = by_value.get(event.payload[key])
                if watermark is not None and version > watermark:
                    matched.setdefault(event.event_id, event)
                    break
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
