"""Unit-of-work lifecycle shared by both transactional models.

A UnitOfWork is the transaction context passed through a functionality's
command chain: it carries the model-specific state (saga locks and
compensations, or the causal staged changes, events and read cache). The
service owning it decides when changes become visible: a saga installs each
handler's step when the handler finishes, a causal transaction stages
everything until commit. Either way an event installs in the same atomic
batch as its publisher's changed version, and registering one whose
publisher that batch lacks raises. The service also wraps each application
command for its model before the command is sent (``envelope``) and decides
whether a step's compensation is kept, so application code names no model.

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
    # causal state
    changed: dict = field(default_factory=dict)  # aggregate_id -> staged working copy
    events: list = field(default_factory=list)  # staged outbox events
    read_cache: dict = field(default_factory=dict)  # aggregate_id -> committed record read


class FifoGate:
    """Bounded FIFO admission, the one wait both transactional models share.

    Callers queue per key and only the head of a key's queue may enter, so a
    waiter cannot starve behind lucky latecomers. The head enters once its
    try_enter, run under the gate's lock, returns true; a caller still
    outside after wait_ms raises the conflict its caller supplies. A state
    change that may let a waiter in runs inside changed(), which wakes the
    waiters. One condition serves every key.
    """

    def __init__(self):
        self._cond = threading.Condition(threading.Lock())
        self._queues: dict[object, deque] = {}

    def enter(self, key, try_enter, wait_ms: float, conflict) -> None:
        """Wait until try_enter() succeeds at the head of key's queue.

        conflict() builds the exception raised once wait_ms has passed.
        """
        # Wall time: a virtual-clock deadline would never pass while the
        # waiters block on a real condition.
        now = time.monotonic
        deadline = now() + wait_ms / 1000.0
        token = object()
        with self._cond:
            queue = self._queues.setdefault(key, deque())
            queue.append(token)
            try:
                while not (queue[0] is token and try_enter()):
                    remaining = deadline - now()
                    if remaining <= 0:
                        raise conflict()
                    self._cond.wait(remaining)
            finally:
                queue.remove(token)
                if not queue:
                    del self._queues[key]
                self._cond.notify_all()

    @contextmanager
    def changed(self):
        """Run the body under the gate's lock, then wake every waiter."""
        with self._cond:
            yield
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

    # -- contract -----------------------------------------------------------

    def aggregate_load(self, uow: UnitOfWork, aggregate_id: int):
        raise NotImplementedError

    def register_changed(self, uow: UnitOfWork, working_copy) -> None:
        raise NotImplementedError

    def register_event(self, uow: UnitOfWork, event) -> None:
        raise NotImplementedError

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
        self._gateway.send(
            Command(
                target_service=TRANSACTION_SERVICE,
                command_type="transaction.commit",
                unit_of_work_ref=uow.uow_id,
                infrastructure=True,
            )
        )

    def abort(self, uow: UnitOfWork) -> None:
        self._gateway.send(
            Command(
                target_service=TRANSACTION_SERVICE,
                command_type="transaction.abort",
                unit_of_work_ref=uow.uow_id,
                infrastructure=True,
            )
        )

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
