"""Aggregates: identity, immutable version chains, and the committed store.

Aggregates evolve copy-on-write: every successful commit appends a new
immutable record to the aggregate's version chain, linked to its chain
predecessor through ``prev_version`` under both models. Working copies
carry version 0 until a transaction service assigns the commit version.

A chain keeps every version unless its writer says which versions a reader
can still need: an install given the oldest snapshot still live drops, from
each chain it touches, every version below the greatest one at or below
that snapshot, as MVCC garbage collection does. Causal commits pass it;
saga writes do not, so saga chains keep their full history.

The store keeps all committed state for every simulated service: aggregate
chains plus one append-only domain event log. Mutations go through
``install()``, which validates the batch and builds each touched chain as a
new list before it changes anything; only after its last stage does it
write the events past the visible count, put the new chains in place and
advance that count. A crash at any intermediate point of a commit therefore
leaves either the complete batch or nothing, which is what makes the
transactional outbox honest under fault injection. An install refuses,
with ``StaleWrite``, a record whose ``prev_version`` is no longer its
chain's latest: it would lose the change that superseded it. Publishing
moves one cursor, so the published events are always a prefix of the log,
and indexes only the newly published events.
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
    StaleWrite,
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


class SimulationStore:
    """Committed aggregate chains plus one event log with a published cursor.

    Readers never block: a chain, once in place, is never changed, and an
    install replaces it with a new list. install() validates and builds the
    touched chains, then puts them in place and only then extends the event
    log, so a reader sees a record before its events; stage_hook (when
    given) is called between internal build steps so tests can inject
    crashes at every intermediate point. The index of published events
    only grows, so only a query naming a new payload key takes the lock.
    """

    def __init__(self):
        self._records = {}  # aggregate_id -> list of records sorted by version
        self._events = []
        self._published = 0  # length of the published prefix of _events
        self._event_ids = set()  # ids of the events in the log
        # (type, publisher, None) -> published events, oldest first, and
        # (type, publisher, payload key) -> {value: those events}
        self._index = {}
        self._payload_keys = set()  # the payload keys some query has named
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
            touched = {}  # aggregate_id -> its new chain
            for i, rec in enumerate(records):
                if rec.version <= 0:
                    raise SimulatorError("cannot install an uncommitted working copy")
                chain = touched.get(rec.aggregate_id)
                if chain is None:
                    chain = touched[rec.aggregate_id] = list(
                        self._records.get(rec.aggregate_id, ()))
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
                if rec.prev_version is not None and (
                        not chain or chain[-1].version != rec.prev_version):
                    raise StaleWrite(f"aggregate {rec.aggregate_id} moved past "
                                     f"version {rec.prev_version} since it was read")
                chain.insert(at, rec)
                if oldest_snapshot is not None:
                    oldest_readable = bisect_right(chain, oldest_snapshot, key=_by_version) - 1
                    if oldest_readable > 0:
                        del chain[:oldest_readable]
                hook(f"install:record:{i}")
            batch = {}  # event id -> event, in arrival order
            for i, event in enumerate(events):
                if event.event_id not in self._event_ids:
                    batch.setdefault(event.event_id, event)
                hook(f"install:event:{i}")
            hook("install:swap")
            self._records.update(touched)
            self._event_ids.update(batch)
            self._events.extend(batch.values())

    def publish(self, upto: int) -> int:
        """Publish the first `upto` events of the log, indexing the new ones.

        Returns how many events this call newly published, so a second call
        with the same `upto` returns 0.
        """
        with self._lock:
            newly = self._events[self._published:upto]
            for event in newly:
                entry = (event.event_type, event.publisher_aggregate_id, None)
                self._index.setdefault(entry, []).append(event)
                for key in self._payload_keys:
                    self._index_payload(event, key)
            self._published += len(newly)
            return len(newly)

    def _index_payload(self, event, key) -> None:
        if key in event.payload:
            entry = (event.event_type, event.publisher_aggregate_id, key)
            self._index.setdefault(entry, {}).setdefault(event.payload[key], []).append(event)

    # -- reads ------------------------------------------------------------

    def _chain(self, aggregate_id: int):
        chain = self._records.get(aggregate_id)
        if not chain:
            raise AggregateNotFound(f"aggregate {aggregate_id} not found")
        return chain

    def exists(self, aggregate_id: int) -> bool:
        return aggregate_id in self._records

    def latest(self, aggregate_id: int) -> Aggregate:
        """Most recent record regardless of lifecycle state."""
        return self._chain(aggregate_id)[-1]

    def latest_committed(self, aggregate_id: int) -> Aggregate:
        rec = self.latest(aggregate_id)
        if rec.state is LifecycleState.DELETED:
            raise AggregateDeleted(f"aggregate {aggregate_id} is deleted")
        return rec

    def latest_or_none(self, aggregate_id: int) -> Aggregate | None:
        chain = self._records.get(aggregate_id)
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
        # Iterate a copy, since an install may grow the dict meanwhile.
        # dict.copy() runs no Python code, so no thread switch splits it;
        # list(items()) allocates a tuple per entry, which can start a
        # garbage collection whose finalizers switch threads mid-copy.
        return [
            aid
            for aid, chain in self._records.copy().items()
            if chain and chain[-1].aggregate_type == aggregate_type
        ]

    def all_records(self):
        for chain in self._records.copy().values():
            yield from chain

    def events(self, start: int = 0) -> list:
        """A copy of the event log from index start, oldest first."""
        with self._lock:
            return self._events[start:]

    def published_events(self, event_type: str, publisher: int, payload_match=None):
        """Published events of event_type by publisher, oldest first, with
        payload[key] == value when payload_match is (key, value). The first
        query naming a key indexes the published events by it, once.
        """
        if payload_match is None:
            return self._index.get((event_type, publisher, None), ())
        key, value = payload_match
        if key not in self._payload_keys:
            with self._lock:
                if key not in self._payload_keys:
                    for event in self._events[:self._published]:
                        self._index_payload(event, key)
                    self._payload_keys.add(key)  # visible once complete
        return self._index.get((event_type, publisher, key), {}).get(value, ())

    def published_count(self) -> int:
        """Length of the published prefix of events()."""
        return self._published
