"""Every function and class in msim is reached from the program itself.

A definition that only tests name is machinery no workflow uses; the few
that exist as test helpers are listed below, and a new one fails here until
it is deleted or listed.
"""

import ast
from pathlib import Path

import msim

SRC = Path(msim.__file__).resolve().parent
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# Defined in msim, named only by tests.
TEST_ONLY_DEFINITIONS = {
    "InjectedCrash",
    "finished_spans",
    "matches",
    "exists",
    "record_at",
    "versions",
    "all_records",
    "generate_plans",
    "execute_until",
}


class Names(ast.NodeVisitor):
    """Collects the names a module defines and the names it uses: each Name,
    Attribute and string constant outside a definition of the same name."""

    def __init__(self):
        self.defined = set()
        self.used = set()
        self._enclosing = []

    def _define(self, node):
        self.defined.add(node.name)
        self._enclosing.append(node.name)
        self.generic_visit(node)
        self._enclosing.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = _define

    def _use(self, name):
        if name not in self._enclosing:
            self.used.add(name)

    def visit_Name(self, node):
        self._use(node.id)

    def visit_Attribute(self, node):
        self._use(node.attr)
        self.generic_visit(node)

    def visit_Constant(self, node):
        if isinstance(node.value, str):
            self._use(node.value)


def _scan(paths):
    names = Names()
    for path in paths:
        names.visit(ast.parse(path.read_text(encoding="utf-8")))
    return names


def test_every_definition_is_used_outside_tests():
    program = _scan(sorted(SRC.rglob("*.py")))
    used = program.used | _scan(sorted(PERFBENCH.rglob("*.py"))).used
    dunders = {name for name in program.defined if name.startswith("__")}
    assert program.defined - dunders - used == TEST_ONLY_DEFINITIONS
