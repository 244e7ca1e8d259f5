"""Exception taxonomy and the one place that classifies failures for retry.

* ``DomainError`` -- a business-rule failure. It aborts the enclosing unit
  of work and fails on its first attempt.
* ``InfraError`` -- a transient infrastructure failure (conflicts, outages,
  a service that stayed unavailable). The only error the gateway retries.

Any other exception a handler raises is a programming error: it travels as
``ProgrammingError``, naming the original type and message with the
handler-side traceback, and fails on its first attempt. Across a service
boundary an exception travels as ``(error_name, message)``, named by its
nearest registered class and rebuilt from the registry on the caller side.
"""

from __future__ import annotations

import traceback


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


class ServiceUnavailable(InfraError):
    """Retries exhausted or no broker reply. An enclosing call retries it."""


class SerializationError(SimulatorError):
    pass


class ProgrammingError(SimulatorError):
    """A handler raised an exception outside both families. Never retried."""


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


class InvalidConfig(SimulatorError):
    pass


class InvalidLatencySpec(InvalidConfig):
    pass


class IncompatibleVersioningStrategy(InvalidConfig):
    """Causal transactions require centralized versioning."""


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
    DomainError,
    InfraError,
    ServiceUnavailable,
    SerializationError,
    ProgrammingError,
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
    """Maps exceptions to wire-level error names and back.

    Replaces reflection-based reconstruction: only registered names rebuild
    into their concrete class.
    """

    def __init__(self):
        self._by_name: dict[str, type[BaseException]] = {}

    def register(self, exc_class: type[BaseException]) -> None:
        name = exc_class.__name__
        existing = self._by_name.get(name)
        if existing is not None and existing is not exc_class:
            raise DuplicateRegistration(f"error name already registered: {name}")
        self._by_name[name] = exc_class

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def describe(self, exc: Exception) -> tuple[str, str]:
        """The (error_name, message) a handler's exception travels as.

        A registered class travels under its own name. An unregistered one
        travels under its nearest registered base, with its own name kept in
        the message. With no registered base it is a programming error.
        """
        for cls in type(exc).__mro__:
            if self._by_name.get(cls.__name__) is cls:
                if cls is type(exc):
                    return cls.__name__, str(exc)
                return cls.__name__, f"{type(exc).__name__}: {exc}"
        trace = "".join(traceback.format_exception(exc))
        return ProgrammingError.__name__, f"{type(exc).__name__}: {exc}\n{trace}"

    def reconstruct(self, name: str, message: str) -> Exception:
        cls = self._by_name.get(name)
        if cls is None:
            return ProgrammingError(f"unregistered error {name}: {message}")
        return cls(message or name)


def default_registry() -> ErrorRegistry:
    registry = ErrorRegistry()
    for cls in _BUILTIN_ERRORS:
        registry.register(cls)
    return registry
