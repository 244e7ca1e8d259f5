"""Commit version generation.

Both transactional models only reserve versions, through the one reserving
operation ``increment_and_get_version_number``. Three interchangeable
strategies provide it:

* centralized -- one monotonic counter, linearizable under concurrency.
  ``get_version_number`` reads it.
* snowflake   -- decentralized 64-bit ids in the fixed 41/10/12 layout
  (timestamp ms | machine id 0-1023 | sequence), unique across machines and
  strictly increasing per generator. It has no global current value, so
  it cannot be read.
* centralized-remote -- the centralized counter behind the command gateway,
  putting the configured transport latency on the critical path of every
  version request.
"""

from __future__ import annotations

import threading

from .clock import Clock
from .errors import ClockMovedBackwards, InvalidConfig, UnsupportedByStrategy
from .messaging import Command

VERSIONING_SERVICE = "versioning"

# Snowflake id layout, from the high bits down, below a zero sign bit.
TIMESTAMP_BITS = 41
MACHINE_BITS = 10
SEQUENCE_BITS = 12


class VersionService:
    def increment_and_get_version_number(self) -> int:
        raise NotImplementedError

    def get_version_number(self) -> int:
        raise UnsupportedByStrategy(f"{type(self).__name__} has no global current version")

    # No strategy offers these two; perfbench/tracer.py wraps them by name.
    def get_next_version_number(self) -> int:
        raise UnsupportedByStrategy("no strategy peeks at the next version")

    def decrement_version_number(self) -> int:
        raise UnsupportedByStrategy("no strategy takes a version back")


class CentralizedVersionService(VersionService):
    """Single atomic counter; every operation is linearizable.

    The counter models a database-backed sequence row: db_latency_ms is the
    per-operation store round trip, spent while holding the counter lock,
    which is exactly the contention bottleneck a decentralized generator
    removes. Zero by default; the simulator wires in its configured cost.
    """

    def __init__(self, clock: Clock | None = None, db_latency_ms: float = 0.0):
        self._value = 0
        self._lock = threading.Lock()
        self._clock = clock
        self.db_latency_ms = db_latency_ms

    def _db_access(self):
        if self._clock is not None and self.db_latency_ms > 0:
            self._clock.sleep_ms(self.db_latency_ms)

    def get_version_number(self) -> int:
        with self._lock:
            self._db_access()
            return self._value

    def increment_and_get_version_number(self) -> int:
        with self._lock:
            self._db_access()
            self._value += 1
            return self._value


class SnowflakeVersionService(VersionService):
    """Decentralized id generator in the classic 41/10/12 layout.

    Sequence exhaustion within one millisecond spins to the next tick.
    """

    def __init__(self, clock: Clock, machine_id: int = 0, epoch_origin_ms: int = 0):
        if not 0 <= machine_id < (1 << MACHINE_BITS):
            raise InvalidConfig(f"machine_id {machine_id} out of range for {MACHINE_BITS} bits")
        self._clock = clock
        self._machine = machine_id << SEQUENCE_BITS
        self._epoch_origin_ms = epoch_origin_ms
        self._lock = threading.Lock()
        self._last_ms = -1
        self._sequence = 0

    def _now_ms(self) -> int:
        return self._clock.now_ms() - self._epoch_origin_ms

    def increment_and_get_version_number(self) -> int:
        with self._lock:
            now = self._now_ms()
            if now < self._last_ms:
                raise ClockMovedBackwards(
                    f"clock at {now}ms, last id issued at {self._last_ms}ms"
                )
            if now == self._last_ms:
                self._sequence += 1
                if self._sequence >= 1 << SEQUENCE_BITS:
                    while now <= self._last_ms:
                        self._clock.sleep_ms(0.05)
                        now = self._now_ms()
                    self._last_ms = now
                    self._sequence = 0
            else:
                self._last_ms = now
                self._sequence = 0
            return (self._last_ms << (MACHINE_BITS + SEQUENCE_BITS)) | self._machine | self._sequence


class RemoteVersionService(VersionService):
    """A centralized counter reached over the transport.

    It registers the counter as the gateway's versioning service, so
    rpc/broker modes add their round-trip latency to every version request.
    """

    def __init__(self, gateway, backend: CentralizedVersionService):
        self._gateway = gateway
        ops = {
            "version.get": backend.get_version_number,
            "version.increment_and_get": backend.increment_and_get_version_number,
        }
        gateway.register_handler(
            VERSIONING_SERVICE, lambda command: {"value": ops[command.command_type]()})

    def _call(self, op: str) -> int:
        response = self._gateway.send(
            Command(
                target_service=VERSIONING_SERVICE,
                command_type=f"version.{op}",
                payload={},
                infrastructure=True,
            )
        )
        return response["value"]

    def get_version_number(self) -> int:
        return self._call("get")

    def increment_and_get_version_number(self) -> int:
        return self._call("increment_and_get")
