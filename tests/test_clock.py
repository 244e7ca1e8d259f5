import threading

import pytest

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
