"""Aggregates: identity, immutable version chains, and the committed store.

Aggregates evolve copy-on-write: every successful commit appends a new
immutable record to the aggregate's version chain, linked to its
predecessor through ``prev_version``. Working copies carry version 0 until
a transaction service assigns the commit version.

A chain keeps every version unless its writer says which versions a reader
can still need: an install given the oldest snapshot still live drops, from
each chain it touches, every version below the greatest one at or below
that snapshot, as MVCC garbage collection does. Causal commits pass it;
saga writes do not, so saga chains keep their full history.

The store keeps all committed state for every simulated service: aggregate
chains plus one append-only domain event log. Mutations go through
``install()``, which builds a fresh state structure and publishes it with a
single reference swap; the state counts the visible entries of the event
list, and an install writes its events at that count. A crash at any
intermediate point of a commit therefore leaves either the complete batch
or nothing, which is what makes the transactional outbox honest under fault
injection. Publishing moves one cursor, so the published events are always
a prefix of the log.
"""

from __future__ import annotations

import copy
import itertools
import threading
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum

from .errors import (
    AggregateDeleted,
    AggregateNotFound,
    MergeConflictUnresolvable,
    SimulatorError,
)

NOT_IN_SAGA = "NOT_IN_SAGA"


class LifecycleState(str, Enum):
    ACTIVE = "ACTIVE"
    INACTIVE = "INACTIVE"
    DELETED = "DELETED"


@dataclass(frozen=True)
class EventSubscription:
    """Declared interest in an upstream aggregate's events.

    Matches events of event_type published by sender_aggregate_id with a
    publisher version strictly greater than sender_last_version. When
    payload_match is a (key, value) pair, the event's payload must also map
    key to value; the value must be hashable, since matching indexes it.
    """

    event_type: str
    sender_aggregate_id: int
    sender_last_version: int = 0
    payload_match: tuple | None = None

    def __post_init__(self):
        if self.sender_last_version < 0:
            raise SimulatorError("sender_last_version must be >= 0")

    def matches(self, event) -> bool:
        if not (
            event.event_type == self.event_type
            and event.publisher_aggregate_id == self.sender_aggregate_id
            and event.publisher_version > self.sender_last_version
        ):
            return False
        if self.payload_match is None:
            return True
        key, value = self.payload_match
        return key in event.payload and event.payload[key] == value


class Aggregate:
    """Base class for one committed version (or working copy) of an aggregate.

    Concrete aggregates must implement verify_invariants() and may override
    get_event_subscriptions() and merge_fields() to participate in event
    propagation and causal conflict resolution.
    """

    aggregate_type = "aggregate"

    def __init__(self, aggregate_id: int, state: LifecycleState = LifecycleState.ACTIVE):
        self.aggregate_id = aggregate_id
        self.version = 0  # working copy until a transaction service commits it
        self.prev_version: int | None = None
        self.state = state
        self.saga_state = NOT_IN_SAGA

    def verify_invariants(self) -> None:
        raise NotImplementedError

    def get_event_subscriptions(self) -> list[EventSubscription]:
        return []

    def merge_fields(self, committed: "Aggregate", ancestor: "Aggregate | None") -> "Aggregate":
        raise MergeConflictUnresolvable(
            f"{type(self).__name__} does not implement a merge"
        )

    def domain_payload(self) -> dict:
        """Comparable view of the domain state, excluding version bookkeeping."""
        raise NotImplementedError

    def copy_for_write(self) -> "Aggregate":
        dup = copy.deepcopy(self)
        dup.prev_version = self.version
        dup.version = 0
        return dup

    def __repr__(self):
        return (
            f"<{type(self).__name__} id={self.aggregate_id} v={self.version} "
            f"state={self.state.value} saga={self.saga_state}>"
        )


class AggregateIdGenerator:
    """Allocates unique, strictly increasing logical aggregate ids."""

    def __init__(self, start: int = 1):
        self._counter = itertools.count(start)
        self._lock = threading.Lock()

    def new_aggregate_id(self) -> int:
        with self._lock:
            return next(self._counter)


def _by_version(record):
    return record.version


class _StoreState:
    __slots__ = ("records", "event_count", "published")

    def __init__(self, records: dict, event_count: int, published: int):
        # records:     aggregate_id -> list of records sorted by version
        # event_count: how many entries of the store's event list are visible
        # published:   length of the published prefix of those entries
        self.records = records
        self.event_count = event_count
        self.published = published


class SimulationStore:
    """Committed aggregate chains plus one event log with a published cursor.

    Readers take a snapshot of the current state reference and never block.
    install() validates, builds the next state, and swaps it in atomically;
    stage_hook (when given) is called between internal build steps so tests
    can inject crashes at every intermediate point.
    """

    def __init__(self):
        self._state = _StoreState({}, 0, 0)
        self._events = []
        self._event_ids = set()  # ids of the visible events
        self._lock = threading.RLock()

    # -- writes ---------------------------------------------------------

    def install(self, records=(), events=(), stage_hook=None, oldest_snapshot=None) -> None:
        """Atomically append committed records and outbox events.

        records: iterable of Aggregate (version already assigned, > 0)
        events:  iterable of DomainEvent; one whose id is already in the log
        is skipped
        oldest_snapshot: when given, no reader can ask for a version below
        it any more, so each touched chain keeps only its greatest version
        at or below it and every version above.
        """
        hook = stage_hook or (lambda stage: None)
        with self._lock:
            state = self._state
            new_records = dict(state.records)
            for i, rec in enumerate(records):
                if rec.version <= 0:
                    raise SimulatorError("cannot install an uncommitted working copy")
                chain = list(new_records.get(rec.aggregate_id, ()))
                at = bisect_left(chain, rec.version, key=_by_version)
                if chain:
                    latest = chain[-1]
                    if latest.state is LifecycleState.DELETED and rec.version > latest.version:
                        raise AggregateDeleted(
                            f"aggregate {rec.aggregate_id} is deleted; no successors allowed"
                        )
                    if at < len(chain) and chain[at].version == rec.version:
                        raise SimulatorError(
                            f"duplicate version {rec.version} for aggregate {rec.aggregate_id}"
                        )
                chain.insert(at, rec)
                if oldest_snapshot is not None:
                    oldest_readable = bisect_right(chain, oldest_snapshot, key=_by_version) - 1
                    if oldest_readable > 0:
                        del chain[:oldest_readable]
                new_records[rec.aggregate_id] = chain
                hook(f"install:record:{i}")
            batch = {}  # event id -> event, in arrival order
            for i, event in enumerate(events):
                if event.event_id not in self._event_ids:
                    batch.setdefault(event.event_id, event)
                hook(f"install:event:{i}")
            hook("install:swap")
            self._events[state.event_count:] = batch.values()
            self._event_ids.update(batch)
            self._state = _StoreState(
                new_records, state.event_count + len(batch), state.published
            )

    def publish(self, upto: int) -> int:
        """Publish the first `upto` events of the log.

        Returns how many events this call newly published, so a second call
        with the same `upto` returns 0.
        """
        with self._lock:
            state = self._state
            upto = min(upto, state.event_count)
            if upto <= state.published:
                return 0
            self._state = _StoreState(state.records, state.event_count, upto)
            return upto - state.published

    # -- reads ------------------------------------------------------------

    def _chain(self, aggregate_id: int):
        chain = self._state.records.get(aggregate_id)
        if not chain:
            raise AggregateNotFound(f"aggregate {aggregate_id} not found")
        return chain

    def exists(self, aggregate_id: int) -> bool:
        return aggregate_id in self._state.records

    def latest(self, aggregate_id: int) -> Aggregate:
        """Most recent record regardless of lifecycle state."""
        return self._chain(aggregate_id)[-1]

    def latest_committed(self, aggregate_id: int) -> Aggregate:
        rec = self.latest(aggregate_id)
        if rec.state is LifecycleState.DELETED:
            raise AggregateDeleted(f"aggregate {aggregate_id} is deleted")
        return rec

    def latest_or_none(self, aggregate_id: int) -> Aggregate | None:
        chain = self._state.records.get(aggregate_id)
        return chain[-1] if chain else None

    def record_at(self, aggregate_id: int, version: int) -> Aggregate:
        chain = self._chain(aggregate_id)
        at = bisect_left(chain, version, key=_by_version)
        if at < len(chain) and chain[at].version == version:
            return chain[at]
        raise AggregateNotFound(f"aggregate {aggregate_id} has no version {version}")

    def record_at_or_below(self, aggregate_id: int, max_version: int) -> Aggregate | None:
        """Greatest committed version <= max_version, or None."""
        chain = self._chain(aggregate_id)
        at = bisect_right(chain, max_version, key=_by_version)
        return chain[at - 1] if at else None

    def versions(self, aggregate_id: int) -> list[int]:
        return [r.version for r in self._chain(aggregate_id)]

    def ids_of_type(self, aggregate_type: str) -> list[int]:
        state = self._state
        return [
            aid
            for aid, chain in state.records.items()
            if chain and chain[-1].aggregate_type == aggregate_type
        ]

    def all_records(self):
        state = self._state
        for chain in state.records.values():
            yield from chain

    def events(self) -> list:
        """Every visible event, oldest first."""
        return self._events[: self._state.event_count]

    def published_count(self) -> int:
        """Length of the published prefix of events()."""
        return self._state.published
