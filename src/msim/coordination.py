"""Workflow construction and execution.

A functionality is a set of named steps with explicit dependencies. The
execution plan runs them in a deterministic topological order (ready steps
tie-break by declaration order), wraps each step in a span, exposes the
step to fault injection through the ambient context, and drives the unit of
work: commit when every step succeeded, abort on the first failure.

execute_until() runs the plan only up to (and including) a named step and
pauses without committing, which is how tests build exact interleavings of
concurrent functionalities.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from graphlib import CycleError, TopologicalSorter

from .context import step_scope
from .errors import CyclicDependencies, DuplicateStepName, SimulatorError, UnknownStep
from .transaction.base import UowStatus


@dataclass
class Step:
    name: str
    body: object  # callable(unit_of_work)
    dependencies: tuple = ()
    # callable(unit_of_work); the unit-of-work service decides if it runs
    compensation: object = None

    def __post_init__(self):
        self.dependencies = tuple(self.dependencies)


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
        self.status = WorkflowStatus.BUILT
        self._executed: set[str] = set()
        self._order = _validate_and_order(self.steps)
        self._by_name = {s.name: s for s in self.steps}
        self._root_ctx = None

    # -- public API ---------------------------------------------------------

    def execute(self) -> None:
        """Run all remaining steps, then commit; abort on the first failure."""
        self._run(until=None)

    def execute_until(self, step_name: str) -> None:
        """Run steps in plan order up to and including step_name, then pause.

        No commit or abort happens; a later execute()/execute_until() call
        resumes from the next unexecuted step.
        """
        if step_name not in self._by_name:
            raise UnknownStep(f"no step named {step_name!r}")
        self._run(until=step_name)

    # -- execution ------------------------------------------------------------

    def _run(self, until: str | None) -> None:
        if self.status not in (WorkflowStatus.BUILT, WorkflowStatus.PAUSED):
            raise SimulatorError(f"cannot run a workflow in status {self.status.name}")
        self.status = WorkflowStatus.RUNNING
        if self._root_ctx is None and self.recorder is not None:
            self._root_ctx = self.recorder.create_root(self.functionality_name)
        plan = [name for name in self._order if name not in self._executed]
        if until is not None:
            cutoff = self._order.index(until)
            plan = [n for n in plan if self._order.index(n) <= cutoff]
        for name in plan:
            self._run_step(self._by_name[name])
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
            self._executed.add(step.name)
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


def build_workflow(
    functionality_name: str,
    steps,
    uow_service,
    uow,
    recorder=None,
) -> Workflow:
    """Validate step names and dependencies and return a BUILT workflow."""
    return Workflow(
        functionality_name=functionality_name,
        uow_service=uow_service,
        uow=uow,
        steps=list(steps),
        recorder=recorder,
    )


def _validate_and_order(steps) -> list[str]:
    names = [s.name for s in steps]
    if len(names) != len(set(names)):
        raise DuplicateStepName("step names must be unique within a workflow")
    by_name = {s.name: s for s in steps}
    for step in steps:
        for dep in step.dependencies:
            if dep not in by_name:
                raise SimulatorError(f"step {step.name!r} depends on unknown {dep!r}")
    declaration_rank = {name: i for i, name in enumerate(names)}
    sorter = TopologicalSorter({s.name: set(s.dependencies) for s in steps})
    try:
        sorter.prepare()
    except CycleError as exc:
        raise CyclicDependencies(str(exc)) from exc
    order: list[str] = []
    while sorter.is_active():
        ready = sorted(sorter.get_ready(), key=declaration_rank.__getitem__)
        order.extend(ready)
        sorter.done(*ready)
    return order
