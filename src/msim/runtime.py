"""Simulator runtime: builds and wires every module from one SimConfig.

Swapping the transactional model, the transport, or the versioning strategy
is purely a configuration change; the wiring below is the only place that
reads those switches.
"""

from __future__ import annotations

from .aggregate import AggregateIdGenerator, SimulationStore
from .clock import RealClock, VirtualClock
from .config import SimConfig
from .errors import default_registry
from .impairment import ImpairmentHandler
from .messaging import TRANSACTION_SERVICE, CommandGateway, RetryPolicy
from .monitoring import SpanRecorder
from .notification import EventHandlingLoop, NotificationService
from .sampleapp.facade import register_sample_app
from .transaction import CausalUnitOfWorkService, SagaUnitOfWorkService
from .versioning import (
    VERSIONING_SERVICE,
    CentralizedVersionService,
    RemoteVersionService,
    SnowflakeConfig,
    SnowflakeVersionService,
    version_command_handler,
)


class Simulator:
    def __init__(self, config: SimConfig):
        self.config = config
        # Virtual time starts 1 ms after the origin: a snowflake id issued at
        # 0 ms by machine 0 is 0, the version that marks a working copy.
        self.clock = (VirtualClock(start_ns=1_000_000) if config.clock_mode == "virtual"
                      else RealClock())
        self.errors = default_registry()
        self.recorder = SpanRecorder(self.clock)
        self.impairment = ImpairmentHandler(
            report_path=config.impairment_report_path, errors=self.errors)
        # Before the gateway and its transport exist, so a malformed plan
        # fails with nothing left to close.
        self._register_sample_errors()
        if config.impairment_plan_dir:
            self.impairment.load_dir(config.impairment_plan_dir)
        self.store = SimulationStore()
        self.ids = AggregateIdGenerator()

        self.gateway = CommandGateway(
            clock=self.clock,
            error_registry=self.errors,
            retry_policy=RetryPolicy(
                max_attempts=config.retry_max_attempts,
                base_backoff_ms=config.retry_base_ms,
                multiplier=config.retry_multiplier,
            ),
            impairment=self.impairment,
            recorder=self.recorder,
        )
        self.gateway.configure_transport(
            config.transport_mode,
            one_way_ms=config.rpc_one_way_ms,
            delivery_ms=config.broker_delivery_ms,
            poll_ms=config.broker_poll_ms,
            response_timeout_s=config.broker_response_timeout_s,
        )

        self.versioning = self._build_versioning(config)

        delivery = (
            config.rpc_one_way_ms
            if config.transport_mode == "rpc"
            else config.broker_delivery_ms if config.transport_mode == "broker" else 0.0
        )
        self.notification = NotificationService(self.store, self.clock, delivery_latency_ms=delivery)

        self.transactions = self._build_transactions(config)
        self.gateway.register_handler(
            TRANSACTION_SERVICE, self.transactions.transaction_handler
        )

        self.events = EventHandlingLoop(self.store, self.notification)
        self.app = register_sample_app(self)

    # -- wiring helpers -----------------------------------------------------

    def _build_versioning(self, config: SimConfig):
        if config.versioning_strategy == "snowflake":
            return SnowflakeVersionService(
                self.clock,
                SnowflakeConfig(
                    epoch_origin_ms=config.versioning_epoch_origin_ms,
                    machine_id=config.versioning_machine_id,
                ),
            )
        backend = CentralizedVersionService(
            clock=self.clock, db_latency_ms=config.versioning_db_ms
        )
        if config.versioning_strategy == "centralized":
            return backend
        # centralized-remote: the counter lives behind the transport.
        self.gateway.register_handler(
            VERSIONING_SERVICE, version_command_handler(backend)
        )
        return RemoteVersionService(self.gateway)

    def _build_transactions(self, config: SimConfig):
        common = dict(
            store=self.store,
            versioning=self.versioning,
            gateway=self.gateway,
            clock=self.clock,
            recorder=self.recorder,
        )
        if config.transaction_model == "tcc":
            return CausalUnitOfWorkService(
                commit_wait_ms=config.tcc_commit_wait_ms,
                commit_store_ms=config.tcc_commit_store_ms,
                **common,
            )
        return SagaUnitOfWorkService(lock_wait_ms=config.saga_lock_wait_ms, **common)

    def _register_sample_errors(self):
        from .sampleapp.domain import NotAStudent, StudentNotEnrolled, TournamentFull

        for cls in (NotAStudent, StudentNotEnrolled, TournamentFull):
            self.errors.register(cls)

    # -- event cycle passthroughs ---------------------------------------------

    def publish_pending(self) -> int:
        return self.notification.publish_pending()

    def run_event_handling_cycle(self, aggregate_type: str = "tournament") -> int:
        return self.events.run_event_handling_cycle(aggregate_type)

    def run_event_cycles(self, count: int = 2) -> int:
        """Publish + handle `count` times; returns total events processed."""
        processed = 0
        for _ in range(count):
            self.publish_pending()
            for aggregate_type in self.events.registered_types():
                processed += self.events.run_event_handling_cycle(aggregate_type)
        return processed

    def close(self) -> None:
        self.gateway.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False
