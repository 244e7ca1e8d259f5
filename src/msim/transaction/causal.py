"""Causal transaction service: snapshot reads, deferred persistence, and a
commit-time merge under optimistic concurrency.

A unit of work fixes its snapshot at creation: the horizon, the highest
commit version fully installed. Only the committer inside the commit
section writes it, after its install, so the snapshot is always a
consistent cut. Taking it costs no version-counter call. Loads resolve to
the greatest committed version at or below the snapshot and repeat-read
from a per-transaction cache. Nothing becomes visible before commit; abort
simply discards the staged state.

A unit of work that staged no record and no event commits at once: its
snapshot already is a consistent cut, so it neither enters the commit
section nor reserves a version nor pays the modeled store write (the
read-only transactions of Cure and Wren). Only a commit with a staged
record or event takes the writer path below.

Commit is serialized: one committer at a time reserves the next version
number, merges each staged aggregate against any version committed after
the snapshot (three-way, via the aggregate's merge_fields), re-verifies
invariants, and installs all staged versions plus their outbox events in a
single atomic batch, giving the transaction atomic visibility. That install
also compacts each chain it touches: versions below the greatest one at or
below the oldest snapshot of any live unit of work (the committer's
included) can never be read again, so they are dropped, as MVCC garbage
collection does; a unit of work takes its snapshot under the registry lock
that this minimum is computed under. Entry into the commit section is FIFO
and bounded, through the FifoGate shared with the saga semantic locks: a
committer that cannot acquire it in time fails with a retryable conflict,
modeling the optimistic-concurrency aborts a real store would produce
under contention. A merge the domain declares
unresolvable, or an invariant broken after merge, converts the commit into
an abort and returns the reserved version number.

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
        self._gate = FifoGate()
        self._section_busy = False
        # Highest fully installed commit version: the safe snapshot horizon
        # (the raw counter may already name a version still being written).
        self._horizon = 0
        self.commit_wait_ms = commit_wait_ms
        # Modeled store transaction: the atomic multi-aggregate + outbox
        # write, paid while the commit section is held.
        self.commit_store_ms = commit_store_ms

    # -- commit section: fair FIFO admission with a bounded wait -----------

    def _take_commit_section(self) -> bool:
        if self._section_busy:
            return False
        self._section_busy = True
        return True

    def _enter_commit_section(self) -> None:
        self._gate.enter(
            None, self._take_commit_section, self.commit_wait_ms,
            lambda: ConcurrentCommitConflict(
                f"commit section busy for more than {self.commit_wait_ms}ms"),
        )

    def _exit_commit_section(self) -> None:
        with self._gate.changed():
            self._section_busy = False

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

    def aggregate_load(self, uow: UnitOfWork, aggregate_id: int):
        """Working copy consistent with the causal snapshot; repeatable."""
        staged = uow.changed.get(aggregate_id)
        if staged is not None:
            return staged
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
        return record.copy_for_write()

    def register_changed(self, uow: UnitOfWork, working_copy) -> None:
        """Stage only; nothing is visible until commit."""
        working_copy.verify_invariants()
        uow.changed[working_copy.aggregate_id] = working_copy

    def register_event(self, uow: UnitOfWork, event) -> None:
        if event.publisher_aggregate_id not in uow.changed:
            raise SimulatorError(
                "event publisher is not a changed aggregate in this unit of work"
            )
        uow.events.append(event)

    def envelope(self, uow, command, lock_states=None):
        """Every command carries the caller's snapshot; no locks are taken."""
        return CausalCommandEnvelope(
            inner=command, snapshot_version=uow.snapshot_version, uow_id=uow.uow_id
        )

    # -- commit / abort -----------------------------------------------------

    def _do_commit(self, uow: UnitOfWork) -> None:
        """Install the staged records and events as one new version.

        Only a unit of work with a staged record or event enters the commit
        section and reserves a version; a read-only one is committed as is.
        """
        if uow.status is UowStatus.COMMITTED:
            return  # retried commit command after a transport hiccup
        if not uow.changed and not uow.events:
            uow.status = UowStatus.COMMITTED
            return
        self._enter_commit_section()
        try:
            self._hook("commit:begin")
            commit_version = self._versioning.increment_and_get_version_number()
            self._hook("commit:version-reserved")
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
                    working.version = commit_version
                    working.prev_version = None if ancestor is None else ancestor.version
                    final_records.append(working)
                    self._hook(f"commit:staged:{aggregate_id}")
                outbox = [e.with_publisher_version(commit_version) for e in uow.events]
                self._hook("commit:pre-install")
                if self.commit_store_ms > 0:
                    self._clock.sleep_ms(self.commit_store_ms)
                self._store.install(
                    records=final_records, events=outbox, stage_hook=self._hook,
                    oldest_snapshot=self._oldest_live_snapshot(),
                )
                self._horizon = max(self._horizon, commit_version)
                uow.status = UowStatus.COMMITTED
            except (InvariantViolation, MergeConflictUnresolvable):
                # Commit converts to abort; hand back the reserved version.
                self._versioning.decrement_version_number()
                uow.status = UowStatus.ABORTED
                raise
        finally:
            self._exit_commit_section()

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
