"""Saga transaction service: semantic locks, per-step persistence,
compensating transactions.

Each service invocation is a local transaction: changes and events
registered during a command handler buffer in its step frame and install as
one atomic batch when the handler finishes, so intermediate states become
visible step by step while a handler failure drops only that step's frame.
The step frame is the outbox: an event is accepted only when the running
frame holds its publisher, and is refused in any other step or outside a
handler. A change registered outside any handler installs at once. The
unit of work buffers nothing.

Isolation comes from semantic locks: the saga state travels on the
aggregate's version chain, and a command whose envelope forbids the current
state is rejected with a retryable conflict, queuing conflicting
functionalities behind the gateway backoff. The wait for a forbidden state
to clear is bounded and FIFO per aggregate: it goes through the FifoGate
shared with the causal commit section. Commit releases the locks. Abort
runs the registered compensations in reverse order, each writing a new
committed version that restores the pre-saga domain state, then releases
the locks.

A handler has two effects: taking a semantic lock and installing its step.
A broker handler makes each under its delivery's lock, and neither once its
caller gave up, so a handler that outlives its caller's timeout changes
nothing the abort would not undo. Unlock writes are never refused, so an
aggregate is always unlocked.
"""

from __future__ import annotations

import threading
from contextlib import nullcontext
from dataclasses import dataclass, field

from ..aggregate import NOT_IN_SAGA
from ..context import ambient
from ..errors import AggregateDeleted, SemanticLockConflict, SimulatorError
from ..messaging import CommandHandlerDecorator, SagaCommandEnvelope
from .base import FifoGate, LockRecord, UnitOfWork, UnitOfWorkService, UowStatus


@dataclass
class StepFrame:
    """The buffered writes of one handler invocation."""

    records: list = field(default_factory=list)
    events: list = field(default_factory=list)


class _Running(threading.local):
    """The step frame of the saga handler running on this thread, if any."""

    frame: StepFrame | None = None


_running = _Running()


def _effect():
    """Hold the running broker delivery while a saga effect is made; it
    refuses the effect once the caller gave up. A handler running on its
    caller's thread has no delivery and is never refused."""
    return ambient.delivery or nullcontext()


class SagaUnitOfWorkService(UnitOfWorkService):
    def __init__(self, *args, lock_wait_ms: float = 100.0, **kwargs):
        super().__init__(*args, **kwargs)
        self._gate = FifoGate()
        self.lock_wait_ms = lock_wait_ms

    # -- lifecycle -------------------------------------------------------

    def aggregate_load(self, uow: UnitOfWork, aggregate_id: int):
        return self._store.latest_committed(aggregate_id).copy_for_write()

    def register_changed(self, uow: UnitOfWork, working_copy) -> None:
        """Validate and version a working copy; buffer it in the running
        handler's step frame, or install it at once outside any handler."""
        working_copy.verify_invariants()
        working_copy.version = self._versioning.increment_and_get_version_number()
        frame = _running.frame
        if frame is None:
            self._store.install(records=[working_copy], stage_hook=self._hook)
        else:
            frame.records.append(working_copy)

    def register_event(self, uow: UnitOfWork, event) -> None:
        """Buffer an event in its publisher's step: the running frame must
        hold the publisher, whose latest copy there stamps the event."""
        frame = _running.frame
        publisher = None if frame is None else next(
            (record for record in reversed(frame.records)
             if record.aggregate_id == event.publisher_aggregate_id), None)
        if publisher is None:
            raise SimulatorError(
                "event publisher is not changed in the running saga step")
        frame.events.append(event.with_publisher_version(publisher.version))

    def flush_step(self, frame: StepFrame) -> None:
        """Install a handler's step, the local transaction of one service
        invocation, records and events in one batch, unless its caller gave
        up. An event always travels with its publisher's record."""
        if frame.records:
            with _effect():
                self._store.install(records=frame.records, events=frame.events,
                                    stage_hook=self._hook)

    # -- semantic locks ------------------------------------------------------

    def _install_saga_state(self, latest, saga_state: str) -> None:
        """Write latest's next version, carrying saga_state."""
        record = latest.copy_for_write()
        record.saga_state = saga_state
        record.version = self._versioning.increment_and_get_version_number()
        self._store.install(records=[record])

    def acquire_semantic_lock(self, uow, aggregate_id, forbidden_states, acquire_state):
        """Atomic check-and-set of the aggregate's saga state.

        Waits up to lock_wait_ms, in FIFO order per aggregate, for a
        forbidden state to clear (woken by unlock writes) before surfacing
        SemanticLockConflict; the conflict is infrastructure-classified so
        the gateway queues the caller with backoff. A handler still waiting
        when its caller gave up takes no lock: the caller's abort may
        already have released its locks.
        """
        if any(lock.aggregate_id == aggregate_id for lock in uow.locks):
            return  # re-entrant: this saga already holds the lock

        def try_acquire():
            with _effect():
                latest = self._store.latest_committed(aggregate_id)
                if latest.saga_state in forbidden_states:
                    return False
                self._install_saga_state(latest, acquire_state)
                uow.locks.append(LockRecord(aggregate_id, latest.saga_state))
                return True

        self._gate.enter(
            aggregate_id, try_acquire, self.lock_wait_ms,
            lambda: SemanticLockConflict(
                f"aggregate {aggregate_id} is in a forbidden saga state"),
        )

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

    def _write_saga_state(self, aggregate_id: int, saga_state: str) -> None:
        with self._gate.changed():
            try:
                latest = self._store.latest_committed(aggregate_id)
            except AggregateDeleted:
                return  # tombstoned mid-saga; nothing left to unlock
            self._install_saga_state(latest, saga_state)

    def _do_commit(self, uow: UnitOfWork) -> None:
        """Release every semantic lock; compensations are discarded.

        Each lock leaves the unit of work once its unlock is written, so a
        commit retried after a failed unlock never rewrites the saga state
        of an aggregate that another saga may have locked since.
        """
        if uow.status is UowStatus.COMMITTED:
            return
        while uow.locks:
            self._write_saga_state(uow.locks[-1].aggregate_id, NOT_IN_SAGA)
            uow.locks.pop()
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
        while uow.locks:
            lock = uow.locks[-1]
            self._write_saga_state(lock.aggregate_id, lock.previous_saga_state)
            uow.locks.pop()
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
        outer, frame = _running.frame, StepFrame()
        _running.frame = frame
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
            _running.frame = outer
        return result
