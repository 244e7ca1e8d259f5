"""Saga transaction service: semantic locks, per-step persistence,
compensating transactions.

Each service invocation is a local transaction: changes registered during a
command handler buffer in a step frame and install atomically when the
handler finishes, so intermediate states become visible step by step while
a handler failure discards only that step's writes. Isolation comes from
semantic locks: the saga state travels on the aggregate's version chain,
and a command whose envelope forbids the current state is rejected with a
retryable conflict, queuing conflicting functionalities behind the gateway
backoff. The wait for a forbidden state to clear is bounded and FIFO per
aggregate: it goes through the FifoGate shared with the causal commit
section. Commit releases the locks. Abort first discards every step still
open, so a handler that outlived its caller installs nothing, then runs
the registered compensations in reverse order, each writing a new
committed version that restores the pre-saga domain state.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from ..aggregate import NOT_IN_SAGA
from ..context import ambient
from ..errors import AggregateDeleted, SemanticLockConflict, SimulatorError
from ..messaging import CommandHandlerDecorator, SagaCommandEnvelope
from .base import FifoGate, LockRecord, UnitOfWork, UnitOfWorkService, UowStatus


@dataclass(eq=False)
class StepFrame:
    """The buffered writes of one handler invocation, on the thread running it."""

    thread: int = field(default_factory=threading.get_ident)
    records: list = field(default_factory=list)
    events: list = field(default_factory=list)


def _open_frame(uow: UnitOfWork) -> StepFrame | None:
    """The calling thread's innermost open step frame of uow, if any."""
    thread = threading.get_ident()
    for frame in reversed(uow.step_frames):
        if frame.thread == thread:
            return frame
    return None


def _drop_writes(uow: UnitOfWork, frame: StepFrame) -> None:
    for record in frame.records:
        uow.changed.pop(record.aggregate_id, None)
    for event in frame.events:
        uow.events.remove(event)


class SagaUnitOfWorkService(UnitOfWorkService):
    def __init__(self, *args, lock_wait_ms: float = 100.0, **kwargs):
        super().__init__(*args, **kwargs)
        self._gate = FifoGate()
        self.lock_wait_ms = lock_wait_ms

    # -- lifecycle -------------------------------------------------------

    def aggregate_load(self, uow: UnitOfWork, aggregate_id: int):
        return self._store.latest_committed(aggregate_id).copy_for_write()

    def register_changed(self, uow: UnitOfWork, working_copy) -> None:
        """Validate and persist immediately (at step-frame granularity)."""
        working_copy.verify_invariants()
        working_copy.version = self._versioning.increment_and_get_version_number()
        uow.changed[working_copy.aggregate_id] = working_copy
        self._persist(uow, records=[working_copy])

    def register_event(self, uow: UnitOfWork, event) -> None:
        publisher = uow.changed.get(event.publisher_aggregate_id)
        if publisher is None or publisher.version == 0:
            raise SimulatorError(
                "register_event requires register_changed on the publisher first"
            )
        event = event.with_publisher_version(publisher.version)
        uow.events.append(event)
        self._persist(uow, events=[event])

    def _persist(self, uow: UnitOfWork, records=(), events=()) -> None:
        """Buffer a write in the calling handler's step frame, or install it
        at once outside any handler. A handler whose frame the abort
        discarded also finds none, so an aborting unit of work refuses it:
        that write would land after its caller gave up."""
        frame = _open_frame(uow)
        if frame is not None:
            frame.records.extend(records)
            frame.events.extend(events)
            return
        with uow.step_lock:
            if uow.aborting:
                raise SimulatorError(f"unit of work {uow.uow_id} is aborting; write refused")
            self._store.install(records=records, events=self._outbox_entries(uow, events),
                                stage_hook=self._hook)

    # -- step frames: the local transaction of one service invocation ------

    def open_step(self, uow: UnitOfWork) -> StepFrame:
        frame = StepFrame()
        uow.step_frames.append(frame)
        return frame

    def flush_step(self, uow: UnitOfWork, frame: StepFrame) -> None:
        """Install the frame's writes, unless abort discarded the frame."""
        with uow.step_lock:
            if frame not in uow.step_frames:
                raise SimulatorError(
                    f"unit of work {uow.uow_id} aborted while the step ran; step discarded")
            uow.step_frames.remove(frame)
            if frame.records or frame.events:
                self._store.install(
                    records=frame.records,
                    events=self._outbox_entries(uow, frame.events),
                    stage_hook=self._hook,
                )

    def discard_step(self, uow: UnitOfWork, frame: StepFrame) -> None:
        """Drop the frame's writes; a no-op once abort discarded the frame."""
        with uow.step_lock:
            if frame not in uow.step_frames:
                return
            uow.step_frames.remove(frame)
        _drop_writes(uow, frame)

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
        the gateway queues the caller with backoff. A unit of work whose
        abort has begun takes no new lock: a handler still waiting when
        its caller gave up must not lock the aggregate for good.
        """
        if any(lock.aggregate_id == aggregate_id for lock in uow.locks):
            return  # re-entrant: this saga already holds the lock

        def try_acquire():
            if uow.aborting:
                raise SimulatorError(f"unit of work {uow.uow_id} takes no new locks")
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
        for frame in list(uow.step_frames):
            self.flush_step(uow, frame)
        while uow.locks:
            self._write_saga_state(uow.locks[-1].aggregate_id, NOT_IN_SAGA)
            uow.locks.pop()
        uow.compensations.clear()
        uow.status = UowStatus.COMMITTED

    def _do_abort(self, uow: UnitOfWork) -> None:
        """Discard open steps, run compensations in reverse registration
        order, then unlock.

        Abort first marks the unit of work aborting: a step still open, whose
        handler outlived its caller, then installs nothing, and no new lock
        is taken; the compensations' own steps open later and install. A
        failing compensation is recorded and the remaining ones still run,
        maximizing the amount of restored state. Compensations and released
        locks are taken off the unit of work as they run, so an abort retried
        after a failed unlock write only finishes the remaining unlocks.
        """
        if uow.status is not UowStatus.ACTIVE:
            return
        with uow.step_lock:
            uow.aborting = True
            discarded = list(uow.step_frames)
            uow.step_frames.clear()
        for frame in discarded:
            _drop_writes(uow, frame)
        # A lock request that read aborting before it was set holds the
        # gate's lock until its lock is on uow.locks, so passing through the
        # gate waits it out before the drain below reads uow.locks; later
        # requests, the waiters woken here included, are refused. A commit
        # needs no such step: it follows only steps whose commands all
        # returned, so no lock request of uow is in flight, and it keeps
        # read-only commits off the gate.
        with self._gate.changed():
            pass
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
    registered changes install atomically on success and are discarded on
    failure.
    """

    def __init__(self, service: SagaUnitOfWorkService):
        self._service = service

    def handle(self, message, proceed):
        command = message.inner
        uow = self._service.lookup(command.unit_of_work_ref)
        # Opened before the lock wait, so an abort that begins while this
        # handler runs always finds and discards its frame.
        frame = self._service.open_step(uow)
        try:
            if isinstance(message, SagaCommandEnvelope):
                self._service.acquire_semantic_lock(
                    uow,
                    command.target_aggregate_id,
                    message.forbidden_states,
                    message.acquire_state,
                )
            result = proceed(command)
        except BaseException:
            self._service.discard_step(uow, frame)
            raise
        self._service.flush_step(uow, frame)
        return result
