"""Workflow execution.

A functionality is a list of uniquely named steps, run in the order they
are listed. The workflow wraps each step in a span, exposes the step to
fault injection through the ambient context, and drives the unit of work:
commit when every step succeeded, abort on the first failure.

execute_until() runs the steps only up to (and including) a named one and
pauses without committing, which is how tests build exact interleavings of
concurrent functionalities.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .context import step_scope
from .errors import DuplicateStepName, SimulatorError, UnknownStep
from .transaction.base import UowStatus


@dataclass
class Step:
    name: str
    body: object  # callable(unit_of_work)
    # callable(unit_of_work); the unit-of-work service decides if it runs
    compensation: object = field(default=None, kw_only=True)


class WorkflowStatus(Enum):
    BUILT = "BUILT"
    RUNNING = "RUNNING"
    PAUSED = "PAUSED"
    COMMITTED = "COMMITTED"
    ABORTED = "ABORTED"


@dataclass
class Workflow:
    functionality_name: str
    uow_service: object
    uow: object
    steps: list = field(default_factory=list)
    recorder: object = None

    def __post_init__(self):
        self._index = {s.name: i for i, s in enumerate(self.steps)}
        if len(self._index) != len(self.steps):
            raise DuplicateStepName("step names must be unique within a workflow")
        self.status = WorkflowStatus.BUILT
        self._next = 0  # index of the next step to run
        self._root_ctx = None

    # -- public API ---------------------------------------------------------

    def execute(self) -> None:
        """Run all remaining steps, then commit; abort on the first failure."""
        self._run(until=None)

    def execute_until(self, step_name: str) -> None:
        """Run steps in order up to and including step_name, then pause.

        No commit or abort happens; a later execute()/execute_until() call
        resumes from the next step.
        """
        if step_name not in self._index:
            raise UnknownStep(f"no step named {step_name!r}")
        self._run(until=step_name)

    # -- execution ------------------------------------------------------------

    def _run(self, until: str | None) -> None:
        if self.status not in (WorkflowStatus.BUILT, WorkflowStatus.PAUSED):
            raise SimulatorError(f"cannot run a workflow in status {self.status.name}")
        self.status = WorkflowStatus.RUNNING
        if self._root_ctx is None and self.recorder is not None:
            self._root_ctx = self.recorder.create_root(self.functionality_name)
        stop = len(self.steps) if until is None else self._index[until] + 1
        while self._next < stop:
            self._run_step(self.steps[self._next])
            self._next += 1
        if until is not None:
            self.status = WorkflowStatus.PAUSED
            return
        self._finish_commit()

    def _finish_commit(self) -> None:
        with step_scope(self.functionality_name, None, self._root_ctx):
            try:
                self.uow_service.commit(self.uow)
            except BaseException:
                # A commit that failed validation already aborted inside the
                # service; anything else still holds staged state to discard.
                if self.uow.status is UowStatus.ACTIVE:
                    self.uow_service.abort(self.uow)
                self._terminate(WorkflowStatus.ABORTED)
                raise
        self._terminate(WorkflowStatus.COMMITTED)

    def _terminate(self, status: WorkflowStatus) -> None:
        self.status = status
        if self._root_ctx is not None:
            self.recorder.end_span(self._root_ctx[1])
            self._root_ctx = None

    def _run_step(self, step: Step) -> None:
        span_id = None
        if self.recorder is not None:
            _, span_id = self.recorder.start_span(self._root_ctx, f"step:{step.name}")
        trace = (self._root_ctx[0], span_id) if span_id is not None else None
        try:
            with step_scope(self.functionality_name, step.name, trace):
                step.body(self.uow)
        except BaseException as exc:
            if span_id is not None:
                self.recorder.end_span(span_id)
            self._fail(exc)
        else:
            if span_id is not None:
                self.recorder.end_span(span_id)
            if step.compensation is not None:
                self.uow_service.register_compensation(
                    self.uow, step.compensation, label=step.name
                )

    def _fail(self, exc: BaseException) -> None:
        """Abort the unit of work, then re-raise the step's error."""
        try:
            # Compensations run inside the workflow's trace context.
            with step_scope(self.functionality_name, None, self._root_ctx):
                if self.uow.status is UowStatus.ACTIVE:
                    self.uow_service.abort(self.uow)
        finally:
            self._terminate(WorkflowStatus.ABORTED)
        raise exc
