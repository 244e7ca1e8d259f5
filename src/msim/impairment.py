"""Deterministic fault and delay injection from CSV plans.

A rule binds (functionality, step, invocation_index) to an action: delay
the step by N milliseconds, or fail it with a named error. Per-pair
invocation counters make "fail on the first attempt, succeed on the retry"
scenarios reproducible; counters reset whenever a plan is (re)loaded.

CSV format, header required::

    functionality,step,invocation_index,action,value

where action is DELAY (value = milliseconds >= 0) or FAIL (value = a
registered error name). Fired rules are appended to a JSONL report.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from .errors import EmptySpec, MalformedPlan

_HEADER = "functionality,step,invocation_index,action,value"


@dataclass(frozen=True)
class ImpairmentRule:
    functionality: str
    step: str
    invocation_index: int
    action: str  # DELAY | FAIL
    value: object  # delay ms (int) or error name (str)


@dataclass(frozen=True)
class ImpairmentAction:
    kind: str  # "delay" | "fail"
    delay_ms: int = 0
    error_name: str = ""


@dataclass
class PlanSpec:
    """Input for the cross-product plan generator."""

    functionalities: list
    steps: list
    actions: list  # (action, value) pairs, e.g. ("DELAY", 10) or ("FAIL", "SimulatedFault")


class ImpairmentHandler:
    """Thread-safe singleton-per-simulator consulted on each step invocation."""

    def __init__(self, report_path: str | None = None):
        self._lock = threading.Lock()
        self._rules: list[ImpairmentRule] = []
        self._counters: dict[tuple[str, str], int] = {}
        self._report: list[dict] = []
        self.report_path = report_path

    # -- plan loading --------------------------------------------------

    def load_plan(self, path) -> int:
        """Parse one CSV plan. Adds its rules and resets all counters."""
        rules = []
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        if not lines or lines[0].strip() != _HEADER:
            raise MalformedPlan(1, f"expected header '{_HEADER}'")
        for line_no, raw in enumerate(lines[1:], start=2):
            line = raw.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 5:
                raise MalformedPlan(line_no, f"expected 5 columns, got {len(parts)}")
            functionality, step, index_s, action, value_s = (p.strip() for p in parts)
            try:
                index = int(index_s)
            except ValueError:
                raise MalformedPlan(line_no, f"bad invocation_index: {index_s!r}")
            if index < 1:
                raise MalformedPlan(line_no, "invocation_index must be >= 1")
            if action == "DELAY":
                try:
                    delay = int(value_s)
                except ValueError:
                    raise MalformedPlan(line_no, f"bad delay value: {value_s!r}")
                if delay < 0:
                    raise MalformedPlan(line_no, "DELAY value must be >= 0")
                rules.append(ImpairmentRule(functionality, step, index, "DELAY", delay))
            elif action == "FAIL":
                if not value_s:
                    raise MalformedPlan(line_no, "FAIL requires an error name")
                rules.append(ImpairmentRule(functionality, step, index, "FAIL", value_s))
            else:
                raise MalformedPlan(line_no, f"unknown action: {action!r}")
        with self._lock:
            self._rules.extend(rules)
            self._counters.clear()
        return len(rules)

    def load_dir(self, directory) -> int:
        total = 0
        for csv_path in sorted(Path(directory).glob("*.csv")):
            total += self.load_plan(csv_path)
        return total

    def clear(self) -> None:
        with self._lock:
            self._rules.clear()
            self._counters.clear()
            self._report.clear()

    # -- consultation --------------------------------------------------

    def consult(self, functionality: str, step: str) -> ImpairmentAction | None:
        """Advance the (functionality, step) counter; return the action due now."""
        with self._lock:
            key = (functionality, step)
            count = self._counters.get(key, 0) + 1
            self._counters[key] = count
            for rule in self._rules:
                if (
                    rule.functionality == functionality
                    and rule.step == step
                    and rule.invocation_index == count
                ):
                    entry = {
                        "ts": time.time(),
                        "functionality": functionality,
                        "step": step,
                        "invocation": count,
                        "action": rule.action,
                        "value": rule.value,
                    }
                    self._report.append(entry)
                    if self.report_path:
                        with open(self.report_path, "a", encoding="utf-8") as fh:
                            fh.write(json.dumps(entry, sort_keys=True) + "\n")
                    if rule.action == "DELAY":
                        return ImpairmentAction(kind="delay", delay_ms=int(rule.value))
                    return ImpairmentAction(kind="fail", error_name=str(rule.value))
        return None

    def report_entries(self) -> list[dict]:
        with self._lock:
            return [dict(e) for e in self._report]


def generate_plans(spec: PlanSpec, out_dir) -> list[Path]:
    """Write one CSV per functionality holding the (step x action) cross-product."""
    if not spec.functionalities or not spec.steps or not spec.actions:
        raise EmptySpec("plan spec needs functionalities, steps, and actions")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for functionality in spec.functionalities:
        rows = [_HEADER]
        for step in spec.steps:
            for action, value in spec.actions:
                rows.append(f"{functionality},{step},1,{action},{value}")
        path = out / f"{functionality}.csv"
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        paths.append(path)
    return paths
