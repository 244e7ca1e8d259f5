"""Per-thread execution context.

Carries the (functionality, step) pair and the active trace span while a
workflow step runs, so the command gateway can stamp outgoing commands
without the application threading these values through every call, and
the broker delivery whose handler the thread runs.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager


class _Ambient(threading.local):
    def __init__(self):
        self.functionality = None
        self.step = None
        self.trace_parent = None
        self.delivery = None


ambient = _Ambient()


@contextmanager
def step_scope(functionality, step, trace_parent=None):
    prev = (ambient.functionality, ambient.step, ambient.trace_parent)
    ambient.functionality = functionality
    ambient.step = step
    ambient.trace_parent = trace_parent
    try:
        yield
    finally:
        ambient.functionality, ambient.step, ambient.trace_parent = prev
