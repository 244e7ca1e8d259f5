"""Simulator configuration.

Every behavioral switch lives here so the same application code runs under
different transactional models, transports, and versioning strategies with
zero code changes. Keys accept either attribute names or the dotted form
used in config files (e.g. ``transport.mode``).
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .errors import IncompatibleVersioningStrategy, InvalidConfig

TRANSPORT_MODES = ("local", "local-serialized", "rpc", "broker")
VERSIONING_STRATEGIES = ("centralized", "snowflake", "centralized-remote")
TRANSACTION_MODELS = ("saga", "tcc")


@dataclass
class SimConfig:
    transaction_model: str = "saga"
    transport_mode: str = "local"
    rpc_one_way_ms: float = 10.0
    broker_delivery_ms: float = 5.0
    broker_poll_ms: float = 5.0
    broker_response_timeout_s: float = 10.0
    retry_max_attempts: int = 5
    retry_base_ms: float = 20.0
    retry_multiplier: float = 2.0
    versioning_strategy: str = "centralized"
    versioning_machine_id: int = 0
    versioning_epoch_origin_ms: int = 0
    # Store round trip per centralized counter operation (the contention
    # bottleneck the snowflake strategy eliminates).
    versioning_db_ms: float = 0.0
    impairment_report_path: str | None = None
    impairment_plan_dir: str | None = None
    # Bounded waits before concurrency conflicts surface as retryable errors.
    saga_lock_wait_ms: float = 100.0
    tcc_commit_wait_ms: float = 70.0
    # Modeled store transaction for the atomic causal commit batch.
    tcc_commit_store_ms: float = 5.0
    clock_mode: str = "real"

    # Dotted keys whose field the "." -> "_" rule cannot derive.
    _DOTTED = {
        "transport.rpc.one_way_ms": "rpc_one_way_ms",
        "transport.broker.delivery_ms": "broker_delivery_ms",
        "transport.broker.poll_ms": "broker_poll_ms",
        "transaction.tcc.commit_wait_ms": "tcc_commit_wait_ms",
        "transaction.tcc.commit_store_ms": "tcc_commit_store_ms",
    }

    def __post_init__(self):
        if self.transaction_model not in TRANSACTION_MODELS:
            raise InvalidConfig(f"unknown transaction.model: {self.transaction_model}")
        if self.transport_mode not in TRANSPORT_MODES:
            raise InvalidConfig(f"unknown transport.mode: {self.transport_mode}")
        if self.versioning_strategy not in VERSIONING_STRATEGIES:
            raise InvalidConfig(f"unknown versioning.strategy: {self.versioning_strategy}")
        if self.transaction_model == "tcc" and self.versioning_strategy == "snowflake":
            raise IncompatibleVersioningStrategy(
                "transactional causal consistency requires centralized versioning"
            )
        if self.clock_mode not in ("real", "virtual"):
            raise InvalidConfig(f"unknown clock_mode: {self.clock_mode}")
        if self.retry_max_attempts < 1:
            raise InvalidConfig("retry.max_attempts must be >= 1")
        if self.retry_multiplier < 1:
            raise InvalidConfig("retry.multiplier must be >= 1")
        for name in ("broker_response_timeout_s", "broker_poll_ms"):
            if getattr(self, name) <= 0:
                raise InvalidConfig(f"{name} must be > 0")
        for name in ("rpc_one_way_ms", "broker_delivery_ms", "retry_base_ms",
                     "versioning_db_ms", "saga_lock_wait_ms",
                     "tcc_commit_wait_ms", "tcc_commit_store_ms"):
            if getattr(self, name) < 0:
                raise InvalidConfig(f"{name}: a wait or latency must be >= 0")

    @classmethod
    def from_mapping(cls, mapping: dict) -> "SimConfig":
        known = {f.name for f in fields(cls)}
        kwargs = {}
        for key, value in mapping.items():
            field = cls._DOTTED.get(key, key.replace(".", "_").replace("-", "_"))
            if field not in known:
                raise InvalidConfig(f"unknown config key: {key}")
            kwargs[field] = value
        return cls(**kwargs)
