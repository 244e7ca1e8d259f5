"""Contention benchmark: concurrent addParticipant storms against one
tournament, reporting per-request latency, median, nearest-rank p95, and
success rate for any (model x transport x versioning) configuration.
"""

from __future__ import annotations

import json
import random
import sys
import threading
import time
from dataclasses import asdict, dataclass, field

from ..config import SimConfig
from ..errors import InvalidConfig
from ..runtime import Simulator
from .stats import compute_stats


@dataclass
class BenchConfig:
    model: str = "saga"  # saga | tcc
    transport: str = "local"
    versioning: str = "centralized"
    clients: int = 16
    requests_per_client: int = 25
    seed: int = 0
    runs: int = 1
    impairments_dir: str | None = None
    trace_out: str | None = None
    report_path: str | None = None
    rpc_one_way_ms: float = 10.0
    retry_max_attempts: int = 5
    retry_base_ms: float = 20.0
    retry_multiplier: float = 2.0
    extra_sim_config: dict = field(default_factory=dict)

    def validate(self) -> None:
        if self.clients < 1 or self.requests_per_client < 1 or self.runs < 1:
            raise InvalidConfig("clients, requests, and runs must be >= 1")
        self.sim_config()

    def sim_config(self) -> SimConfig:
        """The simulator config; extra_sim_config keys may be dotted, and an
        unknown one raises InvalidConfig."""
        return SimConfig.from_mapping({
            "transaction_model": self.model,
            "transport_mode": self.transport,
            "versioning_strategy": self.versioning,
            "rpc_one_way_ms": self.rpc_one_way_ms,
            "retry_max_attempts": self.retry_max_attempts,
            "retry_base_ms": self.retry_base_ms,
            "retry_multiplier": self.retry_multiplier,
            "clock_mode": "real",
            "impairment_plan_dir": self.impairments_dir,
            **self.extra_sim_config,
        })


def _seed_world(sim: Simulator, cfg: BenchConfig):
    """One tournament with capacity for every request, and enrolled students."""
    total = cfg.clients * cfg.requests_per_client
    app = sim.app
    execution_id = app.create_execution("BENCH-101")
    creator_id = app.create_enrolled_student(execution_id, "creator")
    user_ids = [
        app.create_enrolled_student(execution_id, f"student-{i}")
        for i in range(total)
    ]
    tournament_id = app.create_tournament(
        execution_id, creator_id, start_time=0, end_time=10_000,
        max_participants=total)
    rng = random.Random(cfg.seed)
    rng.shuffle(user_ids)
    return tournament_id, execution_id, user_ids


def _storm(sim: Simulator, cfg: BenchConfig, tournament_id, execution_id, user_ids):
    latencies_ms: list[float] = []
    outcomes: list[bool] = []
    results_lock = threading.Lock()
    barrier = threading.Barrier(cfg.clients)

    def client(worker: int):
        assigned = user_ids[
            worker * cfg.requests_per_client:(worker + 1) * cfg.requests_per_client
        ]
        barrier.wait()
        for user_id in assigned:
            start = time.monotonic()
            try:
                sim.app.add_participant(tournament_id, execution_id, user_id)
                ok = True
            except Exception:
                ok = False
            elapsed_ms = (time.monotonic() - start) * 1000.0
            with results_lock:
                latencies_ms.append(elapsed_ms)
                outcomes.append(ok)

    threads = [
        threading.Thread(target=client, args=(i,), name=f"bench-client-{i}")
        for i in range(cfg.clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return latencies_ms, outcomes


def _run_once(cfg: BenchConfig) -> dict:
    """Seed and storm one fresh simulator; return that run's entry."""
    sim = Simulator(cfg.sim_config())
    try:
        tournament_id, execution_id, user_ids = _seed_world(sim, cfg)
        latencies, outcomes = _storm(sim, cfg, tournament_id, execution_id, user_ids)
        committed = sum(outcomes)
        median_ms, p95_ms = compute_stats(latencies)
        final = sim.app.get_tournament(tournament_id)
        if cfg.trace_out:
            sim.recorder.flush(cfg.trace_out)
    finally:
        sim.close()
    return {
        "latencies_ms": [round(v, 3) for v in latencies],
        "median_ms": round(median_ms, 3),
        "p95_ms": round(p95_ms, 3),
        "success_rate": round(100.0 * committed / len(outcomes), 3),
        "committed": committed,
        "final_participant_count": len(final["participants"]),
    }


def run_bench(cfg: BenchConfig) -> dict:
    """Run the storm `runs` times on fresh simulators; return the report."""
    cfg.validate()
    # Finer thread switching keeps lock-hold times reflecting modeled
    # latencies instead of interpreter scheduling quanta.
    previous_switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(0.001)
    try:
        runs = [_run_once(cfg) for _ in range(cfg.runs)]
    finally:
        sys.setswitchinterval(previous_switch_interval)
    report = {"config": _config_dict(cfg), "runs": runs}
    if cfg.report_path:
        with open(cfg.report_path, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
    return report


def _config_dict(cfg: BenchConfig) -> dict:
    data = asdict(cfg)
    data.pop("extra_sim_config")
    return data


def format_report(report: dict) -> str:
    """Human-readable table, one row per run."""
    cfg = report["config"]
    header = (
        f"model={cfg['model']} transport={cfg['transport']} "
        f"versioning={cfg['versioning']} clients={cfg['clients']} "
        f"requests={cfg['requests_per_client']} seed={cfg['seed']}"
    )
    lines = [header, f"{'run':>4} {'med (ms)':>10} {'p95 (ms)':>10} {'succ (%)':>9}"]
    for i, run in enumerate(report["runs"], 1):
        lines.append(
            f"{i:>4} {run['median_ms']:>10.2f} {run['p95_ms']:>10.2f} "
            f"{run['success_rate']:>9.1f}"
        )
    return "\n".join(lines)
