import ast
import threading
from pathlib import Path

import pytest

import msim
from msim import clock
from msim.clock import RealClock, VirtualClock


@pytest.fixture
def real_sleeps(monkeypatch):
    """Record this thread's real sleeps; other threads still sleep."""
    calls = []
    caller = threading.current_thread()
    sleep = clock.time.sleep
    monkeypatch.setattr(
        clock.time, "sleep",
        lambda s: calls.append(s) if threading.current_thread() is caller else sleep(s))
    return calls


@pytest.mark.parametrize("ms", [0, -1.5])
def test_virtual_sleep_of_zero_or_less_does_nothing(real_sleeps, ms):
    subject = VirtualClock(start_ns=7)
    subject.sleep_ms(ms)
    assert real_sleeps == []
    assert subject.now_ns() == 7


@pytest.mark.parametrize("ms", [0, -1.5])
def test_real_sleep_of_zero_or_less_does_nothing(real_sleeps, ms):
    RealClock().sleep_ms(ms)
    assert real_sleeps == []


def test_virtual_sleep_advances_time_without_waiting_it_out(real_sleeps):
    subject = VirtualClock()
    subject.sleep_ms(250)
    assert subject.now_ns() == 250_000_000
    assert sum(real_sleeps) < 0.25


# Every place in the program that reads wall time or builds a wait on it,
# as (module under msim/, enclosing function). Everything else times itself
# through a Clock; a new wall-time read fails below until it does too.
WALL_TIME_USES = {
    ("clock.py", "RealClock.now_ns"),
    ("clock.py", "RealClock.sleep_ms"),
    ("messaging.py", "BrokerTransport.dispatch"),
    ("transaction/saga.py", "_refuse_if_caller_gave_up"),
    ("transaction/base.py", "FifoGate.__init__"),
    ("transaction/base.py", "FifoGate.hold"),
    ("impairment.py", "ImpairmentHandler.consult"),
    ("bench/runner.py", "_storm"),
}


class WallTimeUses(ast.NodeVisitor):
    """Collects the enclosing function of each use of the time module and
    each threading.Condition or threading.Barrier construction. A function
    nested in another counts as part of it."""

    def __init__(self):
        self.found = set()
        self._scope = []  # (name, is a function) from the module down

    def _enter(self, node):
        self._scope.append((node.name, not isinstance(node, ast.ClassDef)))
        self.generic_visit(node)
        self._scope.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = _enter

    def _record(self):
        names = []
        for name, is_function in self._scope:
            names.append(name)
            if is_function:
                break
        self.found.add(".".join(names) or "<module>")

    def visit_Attribute(self, node):
        if isinstance(node.value, ast.Name) and node.value.id == "time":
            self._record()
        self.generic_visit(node)

    def visit_ImportFrom(self, node):
        if node.module == "time":
            self._record()

    def visit_Call(self, node):
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name in ("Condition", "Barrier"):
            self._record()
        self.generic_visit(node)


def test_wall_time_is_read_only_where_listed():
    root = Path(msim.__file__).resolve().parent
    found = set()
    for path in sorted(root.rglob("*.py")):
        visitor = WallTimeUses()
        visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
        module = path.relative_to(root).as_posix()
        found |= {(module, where) for where in visitor.found}
    assert found == WALL_TIME_USES
