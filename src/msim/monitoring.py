"""In-process span recorder with JSONL export.

One master root span wraps each coordinated workflow; every executed step
gets a child span, and command handlers link their spans to the caller's
context so traces stay connected across simulated service boundaries.
"""

from __future__ import annotations

import json
import threading
from dataclasses import asdict, dataclass, field

from .clock import Clock
from .errors import UnbalancedSpan


@dataclass
class Span:
    trace_id: int
    span_id: int
    parent_span_id: int | None
    name: str
    start_ns: int
    end_ns: int | None = None
    attributes: dict = field(default_factory=dict)

    def duration_ns(self) -> int:
        if self.end_ns is None:
            raise UnbalancedSpan(f"span {self.span_id} still open")
        return self.end_ns - self.start_ns

    def to_json(self) -> dict:
        return asdict(self)


class SpanRecorder:
    """Thread-safe span lifecycle manager. flush() is exclusive with recording."""

    def __init__(self, clock: Clock):
        self._clock = clock
        self._lock = threading.Lock()
        self._open: dict[int, Span] = {}
        self._finished: list[Span] = []
        self._next_trace = 1
        self._next_span = 1

    def create_root(self, name: str, attributes: dict | None = None) -> tuple[int, int]:
        """Open a master root span; returns its (trace_id, span_id) context."""
        with self._lock:
            trace_id = self._next_trace
            self._next_trace += 1
            return self._start_locked(trace_id, None, name, attributes)

    def start_span(
        self,
        parent_ctx: tuple[int, int] | None,
        name: str,
        attributes: dict | None = None,
    ) -> tuple[int, int]:
        """Open a child span under parent_ctx, which may come from a remote caller."""
        with self._lock:
            if parent_ctx is None:
                trace_id = self._next_trace
                self._next_trace += 1
                return self._start_locked(trace_id, None, name, attributes)
            trace_id, parent_span_id = parent_ctx
            return self._start_locked(trace_id, parent_span_id, name, attributes)

    def _start_locked(self, trace_id, parent_span_id, name, attributes):
        span_id = self._next_span
        self._next_span += 1
        self._open[span_id] = Span(
            trace_id=trace_id,
            span_id=span_id,
            parent_span_id=parent_span_id,
            name=name,
            start_ns=self._clock.now_ns(),
            attributes=dict(attributes or {}),
        )
        return trace_id, span_id

    def end_span(self, span_id: int) -> None:
        with self._lock:
            span = self._open.pop(span_id, None)
            if span is None:
                raise UnbalancedSpan(f"unknown or already ended span: {span_id}")
            span.end_ns = self._clock.now_ns()
            self._finished.append(span)

    def finished_spans(self) -> list[Span]:
        with self._lock:
            return list(self._finished)

    def open_span_count(self) -> int:
        with self._lock:
            return len(self._open)

    def flush(self, path) -> int:
        """Append all finished spans to path as JSONL and clear the buffer."""
        with self._lock:
            spans, self._finished = self._finished, []
        with open(path, "a", encoding="utf-8") as fh:
            for span in spans:
                fh.write(json.dumps(span.to_json(), sort_keys=True) + "\n")
        return len(spans)
