"""Closed-loop benchmark for msim.

    python3 perfbench/run.py --workload hotspot-saga --seed 1 --seconds 30 --trace 0

Two client threads in this process each send their next workflow only when
the previous one has returned. A run repeats rounds until --seconds are
spent; each round builds a fresh world (timed as set-up), storms it and
checks the outputs. With --trace 0 the last line reports the end-to-end
metrics of BENCHMARK.json; with --trace 1 rounds alternate untraced and
traced, and the last line reports the per-layer metrics of the traced
rounds plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = HERE / ".work"
MIN_ROUNDS = 2
JOIN_TIMEOUT_S = 150.0
# run_bench's interpreter switch interval, so latencies compare with sim-bench.
SWITCH_INTERVAL_S = 0.001


@dataclass
class Round:
    traced: bool
    setup_s: float
    storm_s: float
    cpu_s: float
    logs: list  # per client: [(op, ok, latency_ms, observed)]
    failures: list
    properties: dict
    spans: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    client_traces: set = field(default_factory=set)

    @property
    def workflows(self) -> int:
        return sum(len(log) for log in self.logs)

    @property
    def completed(self) -> int:
        return sum(ok for log in self.logs for _, ok, _, _ in log)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def storm(sim, workload, world, plans, tracer):
    """Run each client's plan on its own thread; return logs, wall and CPU time."""
    logs = [[] for _ in plans]
    errors = []
    barrier = threading.Barrier(len(plans) + 1)

    def client(index):
        log = logs[index]
        barrier.wait()
        for n, op in enumerate(plans[index], 1):
            root = tracer.open_request() if tracer else None
            start = time.perf_counter()
            try:
                observed, ok = workload.call(sim, world, op), True
            except Exception as exc:  # a failed workflow is counted, not fatal
                observed, ok = type(exc).__name__, False
            latency_ms = (time.perf_counter() - start) * 1000.0
            if root is not None:
                tracer.close(root)
            log.append((op, ok, latency_ms, observed))
            try:
                workload.after_request(sim, world, index, n)
            except Exception as exc:
                errors.append(f"client {index} after request {n}: {exc!r}")
                return

    threads = [threading.Thread(target=client, args=(i,), name=f"perfbench-client-{i}",
                                daemon=True) for i in range(len(plans))]
    for thread in threads:
        thread.start()
    barrier.wait()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    deadline = wall0 + JOIN_TIMEOUT_S
    for thread in threads:
        thread.join(max(0.0, deadline - time.perf_counter()))
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError(f"clients still running after {JOIN_TIMEOUT_S}s")
    return logs, wall, cpu, errors


def run_round(workload, seed, index, tracer):
    from msim import SimConfig, Simulator

    rng = random.Random(f"{workload.name}:{seed}:{index}")
    # The previous round's world is cyclic garbage; free it before timing
    # anything so it neither inflates peak memory nor triggers a full
    # collection inside this round.
    gc.collect()
    if tracer is not None:
        tracer.install(workload.config["versioning_strategy"])
    try:
        start = time.perf_counter()
        sim = Simulator(SimConfig(clock_mode="real", **workload.config))
        try:
            world = workload.build(sim, rng, WORKDIR)
            setup_s = time.perf_counter() - start
            plans = workload.plans(world, rng)
            if tracer is not None:
                tracer.reset()
            logs, storm_s, cpu_s, errors = storm(sim, workload, world, plans, tracer)
            result = Round(tracer is not None, setup_s, storm_s, cpu_s, logs, errors, {})
            if tracer is not None:
                result.spans, result.counters = tracer.spans, dict(tracer.counters)
                result.client_traces = tracer.client_traces
                tracer.reset()
            result.failures += workload.check(sim, world, logs)
            if sim.recorder.open_span_count():
                result.failures.append(
                    f"{sim.recorder.open_span_count()} program spans left open")
            result.properties = workload.properties(sim, world, logs)
        finally:
            sim.close()
    finally:
        if tracer is not None:
            tracer.uninstall()
    return result


def nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def round_latencies(r, kind):
    """Latencies of one round's completed reads or writes."""
    from workloads import READ

    return [ms for log in r.logs for op, ok, ms, _ in log
            if ok and (op.kind == READ) == (kind == "read")]


def round_percentiles(rounds, kind, q):
    return [nearest_rank(round_latencies(r, kind), q) for r in rounds]


def latency_metrics(rounds, kind):
    """Each round's p50 and p95; the run reports the median round's p50 and
    the lowest round's p95.

    On a shared 2-vCPU VM the tail follows the host's steal time, not the
    program: mixed-tcc's read p95 was 14.6 ms in rounds with under 1 % steal
    and 20.7 ms in one with 27 %, while its p50 moved by 1 ms. Such phases
    last up to minutes, so a median over rounds still takes them up; the
    quietest round is the one closest to the program's own tail, and a
    change to that tail moves it in every round.
    """
    samples = [len(round_latencies(r, kind)) for r in rounds]
    if not all(samples):
        raise RuntimeError(f"a round completed no {kind} workflows to time")
    return {
        f"{kind}_p50_ms": (statistics.median(round_percentiles(rounds, kind, 0.5)),
                           "ms", sum(samples)),
        f"{kind}_p95_ms": (min(round_percentiles(rounds, kind, 0.95)),
                           "ms", sum(samples)),
    }


def end_to_end(rounds):
    """{name: (value, unit, samples)} over the untraced rounds.

    Rates and p50s are medians over rounds, so one round caught in a slow
    phase of a shared machine does not move them; see latency_metrics for
    the p95s.
    """
    workflows = sum(r.workflows for r in rounds)
    completed = sum(r.completed for r in rounds)
    return {
        "setup_s": (statistics.median(r.setup_s for r in rounds), "s", len(rounds)),
        "throughput_wps": (statistics.median(r.completed / r.storm_s for r in rounds),
                           "1/s", completed),
        **latency_metrics(rounds, "read"),
        **latency_metrics(rounds, "write"),
        "cpu_ms_per_wf": (statistics.median(1000.0 * r.cpu_s / r.workflows for r in rounds),
                          "ms", workflows),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
        "success_pct": (100.0 * completed / workflows, "%", workflows),
    }


def per_layer(rounds, untraced):
    """{name: (value, unit)} over the traced rounds, plus tracing overhead."""
    import tracer as tracing

    traced_wps = sum(r.completed for r in rounds) / sum(r.storm_s for r in rounds)
    plain_wps = sum(r.completed for r in untraced) / sum(r.storm_s for r in untraced)
    metrics = tracing.summarize(
        [s for r in rounds for s in r.spans],
        _sum_counters(r.counters for r in rounds),
        set().union(*(r.client_traces for r in rounds)),
        sum(r.workflows for r in rounds))
    metrics["tracing.throughput_wps"] = (traced_wps, "1/s")
    metrics["tracing.untraced_throughput_wps"] = (plain_wps, "1/s")
    metrics["tracing.overhead_pct"] = (100.0 * (1.0 - traced_wps / plain_wps), "%")
    return metrics


def _sum_counters(dicts):
    total = defaultdict(float)
    for counters in dicts:
        for key, value in counters.items():
            total[key] += value
    return total


def broker_floor_failures(durations_ms, floor_ms):
    """Every broker dispatch pays two modeled deliveries, so none is faster."""
    if not durations_ms:
        return ["traced run recorded no broker dispatch"]
    if min(durations_ms) < floor_ms:
        return [f"broker dispatch finished in {min(durations_ms):.3f} ms, "
                f"below the modeled floor of {floor_ms} ms"]
    return []


def properties(rounds, traced_layers):
    """Workload properties that later claims cite, summed over the rounds."""
    from workloads import READ

    workflows = sum(r.workflows for r in rounds)
    reads = sum(1 for r in rounds for log in r.logs for op, _, _, _ in log if op.kind == READ)
    props = {"rounds": len(rounds), "workflows": workflows,
             "read_share": reads / workflows, "write_share": 1 - reads / workflows,
             "round_setup_s": [r.setup_s for r in rounds],
             "round_throughput_wps": [r.completed / r.storm_s for r in rounds],
             "round_cpu_ms_per_wf": [1000.0 * r.cpu_s / r.workflows for r in rounds]}
    for kind in ("read", "write"):
        for q in (0.5, 0.95):
            props[f"round_{kind}_p{round(100 * q)}_ms"] = round_percentiles(rounds, kind, q)
    for r in rounds:
        for key, value in r.properties.items():
            props.setdefault(key, []).append(value)
    if "events_processed" in props:
        props["events_processed_per_cycle"] = (
            sum(props["events_processed"]) / max(1, sum(props["event_cycles"])))
    if traced_layers:
        copies = traced_layers["aggregate.copies"][0]
        commits = traced_layers["transaction.causal.commits"][0]
        props["members_per_copied_aggregate"] = (
            traced_layers["aggregate.members_copied"][0] / copies if copies else 0.0)
        props["merges_per_tcc_commit"] = (
            traced_layers["aggregate.merges"][0] / commits if commits else 0.0)
    return props


def declared_metrics(trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "msim" / "__init__.py").is_file():
        print(f"perfbench: no msim sources under {ROOT / 'src'}; "
              "run from the root of a repository checkout", file=sys.stderr)
        return 2
    # Everything that imports msim loads only from here on, so a directory
    # without the sources exits above instead of failing on an import.
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import CLIENTS, WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    WORKDIR.mkdir(exist_ok=True)
    previous_interval = sys.getswitchinterval()
    sys.setswitchinterval(SWITCH_INTERVAL_S)
    try:
        rounds = []
        start = time.perf_counter()
        while True:
            traced = tracer is not None and len(rounds) % 2 == 1
            rounds.append(run_round(workload, args.seed, len(rounds),
                                    tracer if traced else None))
            elapsed = time.perf_counter() - start
            if (len(rounds) >= MIN_ROUNDS
                    and elapsed + elapsed / len(rounds) > args.seconds):
                break
    finally:
        sys.setswitchinterval(previous_interval)

    untraced = [r for r in rounds if not r.traced]
    traced = [r for r in rounds if r.traced]
    e2e = end_to_end(untraced)
    layers = per_layer(traced, untraced) if traced else {}
    failures = [f for r in rounds for f in r.failures]
    floor_ms = None
    if traced:
        import tracer as tracing

        spans = [s for r in traced for s in r.spans]
        if workload.config["transport_mode"] == "broker":
            from msim import SimConfig

            floor_ms = 2 * SimConfig(**workload.config).broker_delivery_ms
            failures += broker_floor_failures(tracing.broker_dispatch_durations_ms(spans),
                                              floor_ms)
        tracing.write_jsonl(traced[-1].spans, WORKDIR / f"{workload.name}.trace.jsonl")

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "environment": {"command": [Path(sys.executable).name, *sys.argv],
                        "nproc": os.cpu_count(),
                        "python": platform.python_version(),
                        "switch_interval_s": SWITCH_INTERVAL_S,
                        "clients": CLIENTS},
        "properties": properties(rounds, layers),
        "checks": {"failures": failures[:20], "failed_count": len(failures),
                   "broker_floor_ms": floor_ms},
        "end_to_end": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in e2e.items()},
    }
    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace} "
          f"rounds={len(rounds)} (traced {len(traced)})")
    for name, (value, unit, samples) in e2e.items():
        print(f"  {name:<16} {value:>12.3f} {unit:<4} n={samples}")
    for name, (value, unit) in layers.items():
        print(f"  {name:<40} {value:>12.4f} {unit}")
    for failure in failures[:20]:
        print(f"  CHECK FAILED: {failure}")
    print("record " + json.dumps(record, sort_keys=True))

    metrics = layers if args.trace else {k: (v, u) for k, (v, u, _) in e2e.items()}
    declared = declared_metrics(bool(args.trace))
    if set(metrics) != set(declared) or any(declared[k] != metrics[k][1] for k in metrics):
        print("perfbench: metrics do not match BENCHMARK.json: "
              f"{sorted(set(metrics) ^ set(declared))}", file=sys.stderr)
        return 1
    attempted = sum(r.workflows for r in rounds)
    failed = attempted - sum(r.completed for r in rounds)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
