"""Saga transaction service: semantic locks, per-step persistence,
compensating transactions.

Each service invocation is a local transaction: its handler's step frame is
the write batch, installed atomically when the handler finishes, so
intermediate states become visible step by step while a handler failure
drops only that step's frame. A load copies the latest committed version
unless the step already changed the aggregate. The frame is the outbox: an
event is accepted only when the running frame holds its publisher, and a
change or an event outside any handler is refused. The unit of work
buffers nothing.

Isolation comes from semantic locks: the saga state travels on the
aggregate's version chain, and a command whose envelope forbids the current
state is rejected with a retryable conflict, queuing conflicting
functionalities behind the gateway backoff. The wait for a forbidden state
to clear is bounded and FIFO per aggregate: a lock holds its aggregate's
key of a FifoGate, the admission causal commits also use, while it writes,
so its version-counter call holds up no other aggregate. An unlock takes
no key: it writes, then wakes the waiters. Commit releases the locks. Abort
runs the registered compensations in reverse order, each writing a new
committed version that restores the pre-saga domain state, then releases
the locks.

A handler has two effects: taking a semantic lock and installing its step.
A broker handler makes neither once its caller's response deadline has
passed, so a handler that outlives its caller's timeout changes nothing the
abort would not undo. The handler runs on its caller's thread, so no lock
guards that check: the caller cannot give up while it runs. A write whose
aggregate moved since it was loaded raises StaleWrite, so the gateway
retries its command, which reloads it; an unlock is then finished by the
retried commit or abort, so an aggregate is always unlocked.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..aggregate import NOT_IN_SAGA
from ..context import ambient
from ..errors import AggregateDeleted, SemanticLockConflict, SimulatorError
from ..messaging import CommandHandlerDecorator, SagaCommandEnvelope
from .base import FifoGate, LockRecord, UnitOfWork, UnitOfWorkService, UowStatus


@dataclass
class StepFrame:
    """The write batch of one handler invocation."""

    changed: dict = field(default_factory=dict)  # aggregate_id -> staged working copy
    events: list = field(default_factory=list)


def _refuse_if_caller_gave_up():
    """Refuse a saga effect once the running broker delivery's caller has
    given up. A handler outside any broker delivery is never refused."""
    if ambient.delivery is not None and time.monotonic() >= ambient.delivery:
        raise SimulatorError("the caller gave up on this command; effect refused")


class SagaUnitOfWorkService(UnitOfWorkService):
    def __init__(self, *args, lock_wait_ms: float = 100.0, **kwargs):
        super().__init__(*args, **kwargs)
        self._gate = FifoGate()
        self.lock_wait_ms = lock_wait_ms

    # -- lifecycle -------------------------------------------------------

    def _batch(self, uow: UnitOfWork):
        return ambient.frame

    def _read(self, uow: UnitOfWork, aggregate_id: int):
        return self._store.latest_committed(aggregate_id)

    def flush_step(self, frame: StepFrame) -> None:
        """Install a handler's step, the local transaction of one service
        invocation, records and events in one batch, unless its caller gave
        up. Each changed aggregate takes one new version, and each event
        carries its publisher's."""
        if not frame.changed:
            return
        for record in frame.changed.values():
            record.version = self._versioning.increment_and_get_version_number()
        events = [event.with_publisher_version(
                      frame.changed[event.publisher_aggregate_id].version)
                  for event in frame.events]
        _refuse_if_caller_gave_up()
        self._store.install(records=frame.changed.values(), events=events,
                            stage_hook=self._hook)

    # -- semantic locks ------------------------------------------------------

    def acquire_semantic_lock(self, uow, aggregate_id, forbidden_states, acquire_state):
        """Atomic check-and-set of the aggregate's saga state.

        Waits up to lock_wait_ms, in FIFO order per aggregate, for a
        forbidden state to clear (woken by unlock writes) before surfacing
        SemanticLockConflict; the conflict is infrastructure-classified so
        the gateway queues the caller with backoff. The lock is written
        holding only its aggregate's key, so its version-counter call holds
        up no other aggregate. A handler whose caller gave up takes no lock:
        the caller's abort may already have released its locks.
        """
        if any(lock.aggregate_id == aggregate_id for lock in uow.locks):
            return  # re-entrant: this saga already holds the lock

        def ready():
            latest = self._store.latest_committed(aggregate_id)
            return latest.saga_state not in forbidden_states

        with self._gate.hold(
            (aggregate_id,), self.lock_wait_ms,
            lambda: SemanticLockConflict(
                f"aggregate {aggregate_id} is in a forbidden saga state"),
            ready=ready,
        ):
            latest = self._store.latest_committed(aggregate_id)
            record = latest.copy_for_write()
            record.saga_state = acquire_state
            record.version = self._versioning.increment_and_get_version_number()
            _refuse_if_caller_gave_up()
            self._store.install(records=[record])
            uow.locks.append(LockRecord(aggregate_id, latest.saga_state))

    def register_compensation(self, uow: UnitOfWork, action, label: str) -> None:
        uow.compensations.append((label, action))

    def envelope(self, uow, command, lock_states=None):
        """A command that declares lock states takes a semantic lock."""
        if lock_states is None:
            return command
        return SagaCommandEnvelope(
            inner=command,
            forbidden_states=list(lock_states),
            acquire_state=lock_states[0],
        )

    # -- commit / abort ----------------------------------------------------------

    def _release_locks(self, uow: UnitOfWork, restore: bool) -> None:
        """Unlock each aggregate, newest lock first, writing its saga state
        before this saga (restore) or NOT_IN_SAGA, then wake its waiters.

        Each lock leaves the unit of work once its unlock is written, so a
        commit or abort retried after a failed unlock never rewrites the
        saga state of an aggregate that another saga may have locked since.
        """
        while uow.locks:
            lock = uow.locks[-1]
            try:
                record = self._store.latest_committed(lock.aggregate_id).copy_for_write()
            except AggregateDeleted:
                pass  # tombstoned mid-saga; nothing left to unlock
            else:
                record.saga_state = lock.previous_saga_state if restore else NOT_IN_SAGA
                record.version = self._versioning.increment_and_get_version_number()
                self._store.install(records=[record])
                self._gate.changed()
            uow.locks.pop()

    def _do_commit(self, uow: UnitOfWork) -> None:
        """Release every semantic lock; compensations are discarded."""
        if uow.status is UowStatus.COMMITTED:
            return
        self._release_locks(uow, restore=False)
        uow.compensations.clear()
        uow.status = UowStatus.COMMITTED

    def _do_abort(self, uow: UnitOfWork) -> None:
        """Run compensations in reverse registration order, then unlock.

        Every command of the unit of work has by now replied or been given
        up, and a handler whose caller gave up neither locks nor installs,
        so the drain below releases every lock, a compensation's own
        included. A failing compensation is recorded and the remaining ones
        still run, maximizing the amount of restored state. Compensations
        and released locks are taken off the unit of work as they run, so an
        abort retried after a failed unlock write only finishes the
        remaining unlocks.
        """
        if uow.status is not UowStatus.ACTIVE:
            return
        compensations, uow.compensations = uow.compensations, []
        for label, action in reversed(compensations):
            span_id = None
            if self._recorder is not None:
                _, span_id = self._recorder.start_span(
                    ambient.trace_parent, f"compensate:{label}"
                )
            try:
                action(uow)
            except Exception as exc:
                self.compensation_failures.append(f"{label}: {exc}")
            finally:
                if span_id is not None:
                    self._recorder.end_span(span_id)
        self._release_locks(uow, restore=True)
        uow.status = UowStatus.ABORTED

    def decorator(self):
        return SagaCommandDecorator(self)


class SagaCommandDecorator(CommandHandlerDecorator):
    """Installed on every saga-mode handler.

    Enforces semantic locks declared on the envelope before the handler
    runs, and scopes the handler invocation as one local transaction:
    registered changes and events buffer in the invocation's own step
    frame, the running frame of its thread (saved and restored, so handlers
    nest), and install atomically on success or are dropped on failure.
    """

    def __init__(self, service: SagaUnitOfWorkService):
        self._service = service

    def handle(self, message, proceed):
        command = message.inner
        uow = self._service.lookup(command.unit_of_work_ref)
        outer, frame = ambient.frame, StepFrame()
        ambient.frame = frame
        try:
            if isinstance(message, SagaCommandEnvelope):
                self._service.acquire_semantic_lock(
                    uow,
                    command.target_aggregate_id,
                    message.forbidden_states,
                    message.acquire_state,
                )
            result = proceed(command)
            self._service.flush_step(frame)
        finally:
            ambient.frame = outer
        return result
