"""Controllable clock: real time for benchmarks, virtual time for tests."""

from __future__ import annotations

import threading
import time


class Clock:
    def now_ns(self) -> int:
        raise NotImplementedError

    def now_ms(self) -> int:
        return self.now_ns() // 1_000_000

    def sleep_ms(self, ms: float) -> None:
        raise NotImplementedError


class RealClock(Clock):
    def now_ns(self) -> int:
        return time.monotonic_ns()

    def sleep_ms(self, ms: float) -> None:
        if ms > 0:
            time.sleep(ms / 1000.0)


class VirtualClock(Clock):
    """Virtual time: ``sleep_ms`` advances one shared counter instead of blocking.

    Sleeps are instant and never block or yield, but concurrent sleeps add
    up instead of overlapping and threads still interleave on the real
    scheduler, so two runs are not reproducible. A sleep of zero or less
    does nothing.
    """

    def __init__(self, start_ns: int = 0):
        self._now_ns = start_ns
        self._lock = threading.Lock()

    def now_ns(self) -> int:
        with self._lock:
            return self._now_ns

    def advance_ms(self, ms: float) -> None:
        with self._lock:
            self._now_ns += int(ms * 1e6)

    def sleep_ms(self, ms: float) -> None:
        if ms > 0:
            self.advance_ms(ms)
