"""Event propagation: transactional outbox, publisher, and handling cycles.

Events are written to the store's one event log in the same atomic install
as the aggregate versions that emitted them (the transactional outbox).
A publisher cycle then moves the log's published cursor past them, after
the configured delivery latency, so every service sees them at once.
Downstream aggregates consume through subscription matching: an event is
delivered to a subscriber when its type and sender match and its publisher
version is strictly newer than what the subscriber has already processed.
The store indexes the events as it publishes them; a subscription query
reads that index.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, replace

from .aggregate import LifecycleState, SimulationStore
from .clock import Clock
from .errors import DomainError, InfraError


@dataclass(frozen=True)
class DomainEvent:
    event_id: int
    event_type: str
    publisher_aggregate_id: int
    publisher_version: int
    payload: dict

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

    Each publishing service's relay is modeled as running in parallel with
    the others, so one publication pays the delivery latency once.
    """

    def __init__(self, store: SimulationStore, clock: Clock, delivery_latency_ms: float = 0.0):
        self._store = store
        self._clock = clock
        self.delivery_latency_ms = delivery_latency_ms
        self._subscribed_types: set[str] = set()
        self.event_ids = EventIdGenerator()

    def declare_subscription(self, event_type: str) -> None:
        self._subscribed_types.add(event_type)

    # -- publication -----------------------------------------------------

    def publish_pending(self) -> int:
        """Publish every pending event, exactly once.

        Returns the number of events published this cycle.
        """
        published = self._store.published_count()
        pending = self._store.events(published)
        if self.delivery_latency_ms and any(
            event.event_type in self._subscribed_types for event in pending
        ):
            self._clock.sleep_ms(self.delivery_latency_ms)
        return self._store.publish(published + len(pending))

    # -- subscription queries ----------------------------------------------

    def get_subscribed_events(self, subscriptions) -> list[DomainEvent]:
        """Published events matching any subscription, oldest first.

        Each subscription reads the store's index of the published events
        of its (event_type, sender), narrowed by its payload requirement, so
        a query costs what its subscriptions match, not the log's length.
        """
        matched: dict[int, DomainEvent] = {}
        for sub in subscriptions:
            for event in self._store.published_events(
                    sub.event_type, sub.sender_aggregate_id, sub.payload_match):
                if event.publisher_version > sub.sender_last_version:
                    matched[event.event_id] = event
        return sorted(matched.values(), key=lambda e: (e.publisher_version, e.event_id))


class EventHandlingLoop:
    """Runs local consumption cycles: match events to live aggregates and
    dispatch each to its registered handler.

    Handlers launch the corresponding processing functionality. A handler's
    DomainError or InfraError is caught and the event is retried on the next
    cycle, so one reaction's failure does not stop the others; processing is
    at-least-once, so handlers must be idempotent.
    """

    def __init__(self, store: SimulationStore, notification: NotificationService):
        self._store = store
        self._notification = notification
        # aggregate_type -> event_type -> handler(aggregate_id, event)
        self._handlers: dict[str, dict[str, object]] = {}

    def register(self, aggregate_type: str, event_type: str, handler) -> None:
        self._handlers.setdefault(aggregate_type, {})[event_type] = handler
        self._notification.declare_subscription(event_type)

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
            events = self._notification.get_subscribed_events(subscriptions)
            for event in events:
                handler = handlers.get(event.event_type)
                if handler is None:
                    continue
                try:
                    handler(aggregate_id, event)
                    processed += 1
                except (DomainError, InfraError):
                    pass  # the event is still unprocessed: retried next cycle
        return processed
