"""Unit-of-work lifecycle shared by both transactional models.

A UnitOfWork is the transaction context passed through a functionality's
command chain: it carries the model-specific state (saga locks and
compensations, or the causal write batch and read cache). Both models stage
writes in a batch of changed working copies and events; UnitOfWorkService holds
the staging contract once: a load returns the running batch's staged copy,
else a copy of the committed record the model reads (``_read``); a change is
verified and staged by aggregate id; an event needs its publisher's change in
the same batch; both raise when no batch runs (``_batch``). A saga's batch is
its running handler's step, a causal one its unit of work, and each installs
atomically, events with their publishers. The service also wraps each
application command for its model before the command is sent (``envelope``)
and decides whether a step's compensation is kept, so application code names
no model. Both models bound their waits, a semantic lock or a commit's
admission, with a FifoGate: a caller holds a set of keys, FIFO per key,
for a block of its own, and the gate's lock is never held across that
block.

Commit and abort are themselves dispatched as infrastructure commands
through the gateway, so they inherit transport latency and the retry loop;
handlers on the "transaction" service route them back to the model service.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import Enum

from ..errors import SimulatorError
from ..messaging import TRANSACTION_SERVICE, Command


class UowStatus(Enum):
    ACTIVE = "ACTIVE"
    COMMITTED = "COMMITTED"
    ABORTED = "ABORTED"


@dataclass
class LockRecord:
    aggregate_id: int
    previous_saga_state: str


@dataclass
class UnitOfWork:
    uow_id: int
    snapshot_version: int = 0
    status: UowStatus = UowStatus.ACTIVE
    # saga state
    locks: list = field(default_factory=list)  # LockRecord, acquisition order
    compensations: list = field(default_factory=list)  # (label, callable)
    # causal state: the write batch, staged until commit, and the reads
    changed: dict = field(default_factory=dict)  # aggregate_id -> staged working copy
    events: list = field(default_factory=list)  # staged outbox events of changed publishers
    read_cache: dict = field(default_factory=dict)  # aggregate_id -> committed record read


class FifoGate:
    """Bounded FIFO admission per key, the wait both transactional models
    share.

    A caller names its keys and joins every key's queue in one step under
    the gate's lock, so the queues share one total order and no two callers
    can wait for each other in a cycle. It enters once it heads every queue
    and its ready(), a pure check run under the gate's lock, is true, so a
    waiter cannot starve behind lucky latecomers. It then holds its keys
    for its whole ``with`` block, outside the gate's lock, so a slow holder
    stalls only the callers that share a key with it. A caller still
    outside after wait_ms raises the conflict its caller supplies. Leaving
    wakes the waiters, and so does changed(), called once a state that some
    ready() reads has changed. One condition serves every key.
    """

    def __init__(self):
        self._cond = threading.Condition(threading.Lock())
        self._queues: dict[object, deque] = {}

    @contextmanager
    def hold(self, keys, wait_ms: float, conflict, ready=lambda: True):
        """Hold every key of `keys` once this caller heads each key's queue
        and ready() is true.

        conflict() builds the exception raised once wait_ms has passed.
        """
        # Wall time: a virtual-clock deadline would never pass while the
        # waiters block on a real condition.
        now = time.monotonic
        deadline = now() + wait_ms / 1000.0
        token = object()
        keys = set(keys)
        try:
            with self._cond:
                queues = [self._queues.setdefault(key, deque()) for key in keys]
                for queue in queues:
                    queue.append(token)
                while not (all(queue[0] is token for queue in queues) and ready()):
                    remaining = deadline - now()
                    if remaining <= 0:
                        raise conflict()
                    self._cond.wait(remaining)
            yield
        finally:
            with self._cond:
                for key in keys:
                    queue = self._queues[key]
                    queue.remove(token)
                    if not queue:
                        del self._queues[key]
                self._cond.notify_all()

    def changed(self) -> None:
        """Wake every waiter: a state some ready() reads has changed."""
        with self._cond:
            self._cond.notify_all()


class UnitOfWorkService:
    """Abstract transaction service: createUnitOfWork / commit / abort plus
    registration of aggregate loads, changes, and emitted events."""

    def __init__(self, store, versioning, gateway, clock, recorder=None):
        self._store = store
        self._versioning = versioning
        self._gateway = gateway
        self._clock = clock
        self._recorder = recorder
        self._registry: dict[int, UnitOfWork] = {}
        self._registry_lock = threading.Lock()
        self._uow_counter = 0
        # Test hook: called with a stage label at each point of a commit.
        self.commit_stage_hook = None
        self.compensation_failures: list[str] = []

    # -- registry ---------------------------------------------------------

    def create_unit_of_work(self) -> UnitOfWork:
        with self._registry_lock:
            self._uow_counter += 1
            uow = UnitOfWork(uow_id=self._uow_counter,
                             snapshot_version=self._snapshot_version())
            self._registry[uow.uow_id] = uow
            return uow

    def _snapshot_version(self) -> int:
        """Snapshot of a new unit of work, read under the registry lock; 0
        when the model reads the latest committed versions."""
        return 0

    def lookup(self, uow_id: int) -> UnitOfWork:
        with self._registry_lock:
            uow = self._registry.get(uow_id)
        if uow is None:
            raise SimulatorError(f"unknown unit of work: {uow_id}")
        return uow

    def _hook(self, stage: str) -> None:
        if self.commit_stage_hook is not None:
            self.commit_stage_hook(stage)

    # -- staged writes ------------------------------------------------------

    def _batch(self, uow: UnitOfWork):
        """Where writes stage now (`changed`, `events`), or None."""
        raise NotImplementedError

    def _read(self, uow: UnitOfWork, aggregate_id: int):
        """The committed record a load copies."""
        raise NotImplementedError

    def aggregate_load(self, uow: UnitOfWork, aggregate_id: int):
        """The running batch's staged copy, else a fresh working copy."""
        batch = self._batch(uow)
        staged = None if batch is None else batch.changed.get(aggregate_id)
        if staged is not None:
            return staged
        return self._read(uow, aggregate_id).copy_for_write()

    def register_changed(self, uow: UnitOfWork, working_copy) -> None:
        """Verify a working copy and stage it in place of any earlier one."""
        batch = self._batch(uow)
        if batch is None:
            raise SimulatorError("no write batch is running to stage this change")
        working_copy.verify_invariants()
        batch.changed[working_copy.aggregate_id] = working_copy

    def register_event(self, uow: UnitOfWork, event) -> None:
        """Stage an event in the batch that holds its publisher's change."""
        batch = self._batch(uow)
        if batch is None or event.publisher_aggregate_id not in batch.changed:
            raise SimulatorError("event publisher is not changed in the running batch")
        batch.events.append(event)

    def envelope(self, uow: UnitOfWork, command: Command, lock_states=None):
        """Wrap an application command for this model before it is sent.

        lock_states names the saga states that forbid the command, the
        first being the one it acquires; only the saga model reads it.
        """
        raise NotImplementedError

    def register_compensation(self, uow: UnitOfWork, action, label: str) -> None:
        """Record an undo action for a completed step. A no-op unless the
        model writes before commit and must undo on abort (sagas)."""

    def decorator(self):
        raise NotImplementedError

    def _do_commit(self, uow: UnitOfWork) -> None:
        raise NotImplementedError

    def _do_abort(self, uow: UnitOfWork) -> None:
        raise NotImplementedError

    # -- commit / abort via the gateway ---------------------------------------

    def commit(self, uow: UnitOfWork) -> None:
        self._send_transaction_op(uow, "transaction.commit")

    def abort(self, uow: UnitOfWork) -> None:
        self._send_transaction_op(uow, "transaction.abort")

    def _send_transaction_op(self, uow: UnitOfWork, op: str) -> None:
        self._gateway.send(Command(target_service=TRANSACTION_SERVICE, command_type=op,
                                   unit_of_work_ref=uow.uow_id, infrastructure=True))

    def transaction_handler(self, command: Command):
        """Gateway handler for the transaction service.

        A unit of work that commit or abort leaves terminated is retired from
        the registry, so the registry holds only live transactions.
        """
        uow = self.lookup(command.unit_of_work_ref)
        try:
            if command.command_type == "transaction.commit":
                self._do_commit(uow)
            elif command.command_type == "transaction.abort":
                self._do_abort(uow)
            else:
                raise SimulatorError(f"unknown transaction op: {command.command_type}")
        finally:
            if uow.status is not UowStatus.ACTIVE:
                with self._registry_lock:
                    self._registry.pop(uow.uow_id, None)
        return {"status": uow.status.value}
