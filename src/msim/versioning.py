"""Commit version generation.

Two interchangeable strategies plus a remote proxy:

* centralized -- one monotonic counter, linearizable under concurrency.
* snowflake   -- decentralized 64-bit ids (timestamp | machine | sequence),
  unique across machines and strictly increasing per generator. Has no
  global current value, so read/decrement operations are unsupported.
* centralized-remote -- a proxy that routes counter operations through the
  command gateway, putting the configured transport latency on the critical
  path of every version request.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from .clock import Clock
from .errors import (
    ClockMovedBackwards,
    CounterUnderflow,
    InvalidConfig,
    SequenceExhausted,
    UnsupportedByStrategy,
)

VERSIONING_SERVICE = "versioning"


@dataclass(frozen=True)
class SnowflakeConfig:
    epoch_origin_ms: int = 0
    machine_id: int = 0
    timestamp_bits: int = 41
    machine_bits: int = 10
    sequence_bits: int = 12

    def __post_init__(self):
        if self.timestamp_bits + self.machine_bits + self.sequence_bits != 63:
            raise InvalidConfig("snowflake bit widths must sum to 63")
        if not 0 <= self.machine_id < (1 << self.machine_bits):
            raise InvalidConfig(
                f"machine_id {self.machine_id} out of range for {self.machine_bits} bits"
            )


class VersionService:
    def get_version_number(self) -> int:
        raise NotImplementedError

    def get_next_version_number(self) -> int:
        raise NotImplementedError

    def increment_and_get_version_number(self) -> int:
        raise NotImplementedError

    def decrement_version_number(self) -> int:
        raise NotImplementedError


class CentralizedVersionService(VersionService):
    """Single atomic counter; every operation is linearizable.

    The counter models a database-backed sequence row: db_latency_ms is the
    per-operation store round trip, spent while holding the counter lock,
    which is exactly the contention bottleneck a decentralized generator
    removes. Zero by default; the simulator wires in its configured cost.
    """

    def __init__(self, start: int = 0, clock: Clock | None = None, db_latency_ms: float = 0.0):
        self._value = start
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

    def get_next_version_number(self) -> int:
        with self._lock:
            self._db_access()
            return self._value + 1

    def increment_and_get_version_number(self) -> int:
        with self._lock:
            self._db_access()
            self._value += 1
            return self._value

    def decrement_version_number(self) -> int:
        with self._lock:
            if self._value <= 0:
                raise CounterUnderflow("version counter already at zero")
            self._db_access()
            self._value -= 1
            return self._value


class SnowflakeVersionService(VersionService):
    """Decentralized id generator in the classic 41/10/12 layout.

    Sequence exhaustion within one millisecond spins to the next tick;
    allow_spin=False turns that into SequenceExhausted for tests running
    under a frozen clock.
    """

    def __init__(self, clock: Clock, config: SnowflakeConfig | None = None, allow_spin: bool = True):
        self._clock = clock
        self._config = config or SnowflakeConfig()
        self._allow_spin = allow_spin
        self._lock = threading.Lock()
        self._last_ms = -1
        self._sequence = 0

    def _now_ms(self) -> int:
        return self._clock.now_ms() - self._config.epoch_origin_ms

    def get_version_number(self) -> int:
        raise UnsupportedByStrategy("snowflake has no global current version")

    def get_next_version_number(self) -> int:
        raise UnsupportedByStrategy("snowflake has no global current version")

    def decrement_version_number(self) -> int:
        raise UnsupportedByStrategy("snowflake ids cannot be returned")

    def increment_and_get_version_number(self) -> int:
        cfg = self._config
        seq_mask = (1 << cfg.sequence_bits) - 1
        with self._lock:
            now = self._now_ms()
            if now < self._last_ms:
                raise ClockMovedBackwards(
                    f"clock at {now}ms, last id issued at {self._last_ms}ms"
                )
            if now == self._last_ms:
                self._sequence += 1
                if self._sequence > seq_mask:
                    if not self._allow_spin:
                        raise SequenceExhausted(
                            f"more than {seq_mask + 1} ids requested in one ms"
                        )
                    while now <= self._last_ms:
                        self._clock.sleep_ms(0.05)
                        now = self._now_ms()
                    self._last_ms = now
                    self._sequence = 0
            else:
                self._last_ms = now
                self._sequence = 0
            return (
                (self._last_ms << (cfg.machine_bits + cfg.sequence_bits))
                | (cfg.machine_id << cfg.sequence_bits)
                | self._sequence
            )


class RemoteVersionService(VersionService):
    """Proxy for a standalone centralized counter reached over the transport.

    Version operations become infrastructure commands, so rpc/broker modes
    add their round-trip latency to every version request.
    """

    def __init__(self, gateway, target_service: str = VERSIONING_SERVICE):
        self._gateway = gateway
        self._target = target_service

    def _call(self, op: str) -> int:
        from .messaging import Command

        response = self._gateway.send(
            Command(
                target_service=self._target,
                command_type=f"version.{op}",
                payload={},
                infrastructure=True,
            )
        )
        return response["value"]

    def get_version_number(self) -> int:
        return self._call("get")

    def get_next_version_number(self) -> int:
        return self._call("get_next")

    def increment_and_get_version_number(self) -> int:
        return self._call("increment_and_get")

    def decrement_version_number(self) -> int:
        return self._call("decrement")


def version_command_handler(backend: CentralizedVersionService):
    """Gateway handler exposing a centralized counter as a remote service."""

    ops = {
        "version.get": backend.get_version_number,
        "version.get_next": backend.get_next_version_number,
        "version.increment_and_get": backend.increment_and_get_version_number,
        "version.decrement": backend.decrement_version_number,
    }

    def handle(command):
        return {"value": ops[command.command_type]()}

    return handle
