"""Causal transaction service: snapshot reads, deferred persistence, and a
commit-time merge under optimistic concurrency.

A unit of work fixes its snapshot at creation: the horizon, the highest
commit version fully installed. Only the committer inside the install
section writes it, after its install, so the snapshot is always a
consistent cut. Taking it costs no version-counter call. The unit of work
is the write batch. A load copies the greatest committed version at or
below the snapshot, repeat-read from a per-transaction cache. Nothing
becomes visible before commit; abort simply discards the staged state.

A unit of work that staged no record and no event commits at once: its
snapshot already is a consistent cut, so it neither waits for admission
nor reserves a version nor pays the modeled store write (the
read-only transactions of Cure and Wren). Only a commit with a staged
record or event takes the writer path below.

A writer commit is admitted twice by one FifoGate, FIFO and bounded each
time. It first holds the keys of the aggregates it staged, so only commits
that write a common aggregate wait for each other, as Cure and Wren commit
disjoint transactions in parallel. Holding them, it merges each staged
aggregate against any version committed after the snapshot (three-way, via
the aggregate's merge_fields), re-verifies invariants and pays the modeled
store write. Still holding them, it holds the key None, the install
section, only to reserve the next version number, stamp its records and
outbox events with it and install them in a single atomic batch, giving
the transaction atomic visibility. Installs thus land in version order, so
the horizon never passes a version still being written. That install also
compacts each chain it touches: versions below the greatest one at or
below the oldest snapshot of any live unit of work (the committer's
included) can never be read again, so they are dropped, as MVCC garbage
collection does; a unit of work takes its snapshot under the registry lock
that this minimum is computed under. A committer that cannot enter in time
fails with a retryable conflict, modeling the optimistic-concurrency aborts
a real store would produce under contention. A merge the domain declares
unresolvable, or an invariant broken after merge, converts the commit into
an abort before any version is reserved.

This model needs strictly sequential versions to order causal history, so
it refuses to run on the decentralized snowflake strategy.
"""

from __future__ import annotations

from ..aggregate import LifecycleState
from ..errors import (
    AggregateDeleted,
    AggregateNotInSnapshot,
    ConcurrentCommitConflict,
    InvariantViolation,
    MergeConflictUnresolvable,
    SimulatorError,
)
from ..messaging import CausalCommandEnvelope, CommandHandlerDecorator
from .base import FifoGate, UnitOfWork, UnitOfWorkService, UowStatus


class CausalUnitOfWorkService(UnitOfWorkService):
    def __init__(self, *args, commit_wait_ms: float = 70.0, commit_store_ms: float = 5.0,
                 **kwargs):
        super().__init__(*args, **kwargs)
        # Keys: each written aggregate's id, and None for the install section.
        self._gate = FifoGate()
        # Highest fully installed commit version: the safe snapshot horizon
        # (the raw counter may already name a version still being written).
        self._horizon = 0
        self.commit_wait_ms = commit_wait_ms
        # Modeled store transaction: the atomic multi-aggregate + outbox
        # write, paid while the written aggregates' keys are held.
        self.commit_store_ms = commit_store_ms

    # -- lifecycle -------------------------------------------------------

    def _snapshot_version(self) -> int:
        # The horizon, not the counter: the counter may already name a
        # version still being installed, and it is never below the horizon.
        # Read under the registry lock, so a commit that computes the oldest
        # live snapshot either sees this unit of work or runs before it reads
        # a horizon at or above that snapshot.
        return self._horizon

    def _oldest_live_snapshot(self) -> int:
        """Smallest snapshot of a live unit of work, the committer's included:
        no load can ask for a version below the chain's greatest one at or
        below it."""
        with self._registry_lock:
            return min(uow.snapshot_version for uow in self._registry.values())

    def _batch(self, uow: UnitOfWork):
        return uow

    def _read(self, uow: UnitOfWork, aggregate_id: int):
        """The record at the causal snapshot; repeatable through the cache."""
        record = uow.read_cache.get(aggregate_id)
        if record is None:
            record = self._store.record_at_or_below(aggregate_id, uow.snapshot_version)
            if record is None:
                raise AggregateNotInSnapshot(
                    f"aggregate {aggregate_id} has no version <= snapshot "
                    f"{uow.snapshot_version}"
                )
            if record.state is LifecycleState.DELETED:
                raise AggregateDeleted(f"aggregate {aggregate_id} is deleted")
            uow.read_cache[aggregate_id] = record
        return record

    def envelope(self, uow, command, lock_states=None):
        """Every command carries the caller's snapshot; no locks are taken."""
        return CausalCommandEnvelope(
            inner=command, snapshot_version=uow.snapshot_version, uow_id=uow.uow_id
        )

    # -- commit / abort -----------------------------------------------------

    def _do_commit(self, uow: UnitOfWork) -> None:
        """Install the staged records and events as one new version.

        Only a unit of work with a staged record or event waits for
        admission and reserves a version; a read-only one is committed as is.
        """
        if uow.status is UowStatus.COMMITTED:
            return  # retried commit command after a transport hiccup
        if not uow.changed and not uow.events:
            uow.status = UowStatus.COMMITTED
            return
        with self._admit(uow.changed):
            self._hook("commit:begin")
            try:
                final_records = []
                for aggregate_id, staged in uow.changed.items():
                    latest = self._store.latest_or_none(aggregate_id)
                    # The version this transaction read: the merge ancestor.
                    # None for an aggregate it created.
                    ancestor = uow.read_cache.get(aggregate_id)
                    working = staged
                    if latest is not None and latest.version > uow.snapshot_version:
                        working = staged.merge_fields(latest, ancestor)
                        working.verify_invariants()
                        self._hook(f"commit:merged:{aggregate_id}")
                    working.prev_version = None if latest is None else latest.version
                    final_records.append(working)
                    self._hook(f"commit:staged:{aggregate_id}")
            except (InvariantViolation, MergeConflictUnresolvable):
                uow.status = UowStatus.ABORTED  # commit converts to abort
                raise
            self._hook("commit:pre-install")
            if self.commit_store_ms > 0:
                self._clock.sleep_ms(self.commit_store_ms)
            with self._admit((None,)):
                commit_version = self._versioning.increment_and_get_version_number()
                self._hook("commit:version-reserved")
                for record in final_records:
                    record.version = commit_version
                outbox = [e.with_publisher_version(commit_version) for e in uow.events]
                self._store.install(
                    records=final_records, events=outbox, stage_hook=self._hook,
                    oldest_snapshot=self._oldest_live_snapshot(),
                )
                self._horizon = commit_version
                uow.status = UowStatus.COMMITTED

    def _admit(self, keys):
        """Hold keys, or fail with a retryable conflict after commit_wait_ms."""
        return self._gate.hold(
            keys, self.commit_wait_ms,
            lambda: ConcurrentCommitConflict(
                f"commit admission busy for more than {self.commit_wait_ms}ms"),
        )

    def _do_abort(self, uow: UnitOfWork) -> None:
        """Discard staged state; the store was never touched."""
        if uow.status is UowStatus.ACTIVE:
            uow.changed.clear()
            uow.events.clear()
            uow.status = UowStatus.ABORTED

    def decorator(self):
        return CausalCommandDecorator(self)


class CausalCommandDecorator(CommandHandlerDecorator):
    """Installed on every causal-mode handler.

    Unwraps the causal envelope so handler-side loads resolve against the
    caller's snapshot (the envelope's uow reference names the transaction
    context that carries it).
    """

    def __init__(self, service: CausalUnitOfWorkService):
        self._service = service

    def handle(self, message, proceed):
        command = message.inner
        if isinstance(message, CausalCommandEnvelope):
            uow = self._service.lookup(message.uow_id)
            if uow.snapshot_version != message.snapshot_version:
                raise SimulatorError(
                    "causal envelope snapshot does not match its unit of work"
                )
        return proceed(command)
