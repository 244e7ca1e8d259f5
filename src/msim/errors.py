"""Exception taxonomy and the wire-level error name registry.

Errors fall into two families with different retry semantics:

* ``DomainError`` -- a business-rule failure. It aborts the enclosing unit
  of work and is never retried by the command gateway.
* ``InfraError`` -- a transient infrastructure failure (lock conflicts,
  simulated outages). The gateway retries these with exponential backoff.

When a command crosses a simulated service boundary, exceptions travel as
``(error_name, message)`` pairs and are rebuilt on the caller side from the
registry below, so classification survives serialization.
"""

from __future__ import annotations


class SimulatorError(Exception):
    """Base class for every error raised by the simulator."""


class DomainError(SimulatorError):
    """Business failure. Propagated to the caller without retry."""


class InfraError(SimulatorError):
    """Transient failure. Retried by the command gateway."""


class InvariantViolation(DomainError):
    """An aggregate invariant does not hold. Aborts the unit of work."""

    def __init__(self, name: str, message: str = ""):
        super().__init__(message or name)
        self.name = name


class AggregateNotFound(DomainError):
    pass


class AggregateDeleted(DomainError):
    pass


class AggregateNotInSnapshot(DomainError):
    """No committed version at or below the requested causal snapshot."""


class MergeConflictUnresolvable(DomainError):
    """The domain merge declared two concurrent versions incompatible."""


class SemanticLockConflict(InfraError):
    """Target aggregate holds a forbidden saga state. Retryable."""


class ConcurrentCommitConflict(InfraError):
    """Causal commit could not enter the commit section in time. Retryable."""


class ServiceUnavailable(SimulatorError):
    """Raised by the gateway fallback once every retry attempt failed."""


class SerializationError(SimulatorError):
    pass


class DuplicateRegistration(SimulatorError):
    pass


class UnsupportedByStrategy(SimulatorError):
    """Operation not provided by the configured versioning strategy."""


class CounterUnderflow(DomainError):
    """Decrement requested on a centralized counter already at zero."""


class ClockMovedBackwards(SimulatorError):
    pass


class SequenceExhausted(SimulatorError):
    """Snowflake sequence overflow with spinning disabled (test hook)."""


class InvalidLatencySpec(SimulatorError):
    pass


class InvalidConfig(SimulatorError):
    pass


class IncompatibleVersioningStrategy(InvalidConfig):
    """Causal transactions require centralized versioning."""


class CyclicDependencies(SimulatorError):
    pass


class DuplicateStepName(SimulatorError):
    pass


class UnknownStep(SimulatorError):
    pass


class UnbalancedSpan(SimulatorError):
    pass


class MalformedPlan(SimulatorError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class EmptySpec(SimulatorError):
    pass


class EmptyInput(SimulatorError):
    pass


class SimulatedFault(DomainError):
    """Default injected fault. Domain-classified: aborts without retry."""


class SimulatedInfraFault(InfraError):
    """Injected transient fault. Engages the gateway backoff."""


class InjectedCrash(BaseException):
    """Process crash injected mid-commit.

    Deliberately a BaseException so no recovery code can swallow it: a real
    crash would not run rollback handlers either.
    """


_BUILTIN_ERRORS = (
    InvariantViolation,
    AggregateNotFound,
    AggregateDeleted,
    AggregateNotInSnapshot,
    MergeConflictUnresolvable,
    SemanticLockConflict,
    ConcurrentCommitConflict,
    CounterUnderflow,
    SimulatedFault,
    SimulatedInfraFault,
)


class ErrorRegistry:
    """Maps wire-level error names back to exception classes.

    Replaces reflection-based reconstruction: only registered names rebuild
    into their concrete class; unknown domain errors fall back to a generic
    DomainError carrying the original name in the message.
    """

    def __init__(self):
        self._by_name: dict[str, type[BaseException]] = {}

    def register(self, exc_class: type[BaseException]) -> None:
        name = exc_class.__name__
        existing = self._by_name.get(name)
        if existing is not None and existing is not exc_class:
            raise DuplicateRegistration(f"error name already registered: {name}")
        self._by_name[name] = exc_class

    def lookup(self, name: str):
        return self._by_name.get(name)

    def reconstruct(self, name: str, message: str) -> BaseException:
        cls = self._by_name.get(name)
        if cls is None:
            return DomainError(f"{name}: {message}")
        return cls(message or name)


def default_registry() -> ErrorRegistry:
    registry = ErrorRegistry()
    for cls in _BUILTIN_ERRORS:
        registry.register(cls)
    return registry
