import json
import math
import sys

import pytest
from click.testing import CliRunner
from hypothesis import given
from hypothesis import strategies as st

from msim.bench import BenchConfig, compute_stats, run_bench
from msim.bench.cli import main as cli_main
from msim.bench.runner import format_report
from msim.errors import EmptyInput, InvalidConfig, MalformedPlan


# -- statistics -------------------------------------------------------------


def test_single_sample():
    assert compute_stats([48]) == (48, 48)


def test_constant_samples():
    assert compute_stats([5, 5, 5, 5]) == (5, 5)


def test_one_to_hundred():
    # Derived by hand from the nearest-rank formulas: median = lower middle
    # = 50th element; p95 = ceil(0.95*100) = 95th element.
    assert compute_stats(list(range(1, 101))) == (50, 95)


def test_empty_input():
    with pytest.raises(EmptyInput):
        compute_stats([])


@given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=400))
def test_stats_match_nearest_rank_oracle(values):
    # Oracle: index the sorted list directly with the rank formulas.
    ordered = sorted(values)
    n = len(ordered)
    expected_median = ordered[(n + 1) // 2 - 1]
    expected_p95 = ordered[math.ceil(0.95 * n) - 1]
    assert compute_stats(values) == (expected_median, expected_p95)


# -- config validation ----------------------------------------------------------


def test_tcc_with_snowflake_rejected():
    with pytest.raises(InvalidConfig):
        BenchConfig(model="tcc", versioning="snowflake").validate()


def test_tcc_with_remote_centralized_allowed():
    BenchConfig(model="tcc", versioning="centralized-remote").validate()


def test_nonpositive_counts_rejected():
    with pytest.raises(InvalidConfig):
        BenchConfig(clients=0).validate()


def test_unknown_extra_sim_config_key_rejected():
    with pytest.raises(InvalidConfig):
        BenchConfig(extra_sim_config={"events_manual_mode": True}).validate()


def test_extra_sim_config_accepts_dotted_keys():
    cfg = BenchConfig(extra_sim_config={"transport.broker.delivery_ms": 1.5})
    assert cfg.sim_config().broker_delivery_ms == 1.5


# -- runs --------------------------------------------------------------------------


def small(model="saga", **kwargs):
    kwargs.setdefault("clients", 2)
    kwargs.setdefault("requests_per_client", 3)
    kwargs.setdefault("extra_sim_config", {"tcc_commit_store_ms": 0.0})
    return BenchConfig(model=model, **kwargs)


def test_single_request_run():
    report = run_bench(BenchConfig(model="saga", clients=1, requests_per_client=1))
    run = report["runs"][0]
    assert run["success_rate"] == 100.0
    assert len(run["latencies_ms"]) == 1


def test_report_schema_and_conservation(tmp_path):
    path = tmp_path / "report.json"
    report = run_bench(small(report_path=str(path)))
    persisted = json.loads(path.read_text())
    assert persisted["config"]["model"] == "saga"
    for run in persisted["runs"]:
        assert set(run) >= {"latencies_ms", "median_ms", "p95_ms", "success_rate"}
        # conservation: committed requests equal participants in the store
        assert run["final_participant_count"] == run["committed"]


def test_same_seed_same_success_counts():
    # Oracle: repeat-run comparison at a deterministic configuration.
    committed = [
        run_bench(small(model="tcc", seed=7))["runs"][0]["committed"]
        for _ in range(2)
    ]
    assert committed[0] == committed[1] == 6


def test_every_config_combination_runs():
    # Config-only switching: all valid (model x transport x versioning)
    # combinations run the identical sample app.
    for model in ("saga", "tcc"):
        for transport in ("local", "local-serialized", "rpc", "broker"):
            for versioning in ("centralized", "snowflake", "centralized-remote"):
                if model == "tcc" and versioning == "snowflake":
                    continue
                report = run_bench(BenchConfig(
                    model=model, transport=transport, versioning=versioning,
                    clients=1, requests_per_client=1,
                    rpc_one_way_ms=0.5,
                    extra_sim_config={
                        "tcc_commit_store_ms": 0.0,
                        "broker_delivery_ms": 0.5,
                        "broker_poll_ms": 0.5,
                    },
                ))
                assert report["runs"][0]["success_rate"] == 100.0


def test_multiple_runs_recorded():
    report = run_bench(small(runs=2))
    assert len(report["runs"]) == 2


def test_format_report_is_tabular():
    report = run_bench(small())
    text = format_report(report)
    assert "med (ms)" in text and "succ (%)" in text


def test_trace_out_writes_spans(tmp_path):
    trace = tmp_path / "trace.jsonl"
    run_bench(small(trace_out=str(trace)))
    assert trace.exists()
    assert len(trace.read_text().splitlines()) > 0


def test_failed_run_restores_switch_interval(tmp_path):
    (tmp_path / "plan.csv").write_text("not the header\n")
    before = sys.getswitchinterval()
    with pytest.raises(MalformedPlan):
        run_bench(small(impairments_dir=str(tmp_path)))
    assert sys.getswitchinterval() == before


# -- cli ------------------------------------------------------------------------------


def test_cli_runs_and_writes_report(tmp_path):
    report_path = tmp_path / "out.json"
    result = CliRunner().invoke(cli_main, [
        "--model", "saga", "--transport", "local",
        "--versioning", "centralized",
        "--clients", "2", "--requests", "2", "--seed", "3",
        "--report", str(report_path),
    ])
    assert result.exit_code == 0, result.output
    assert "succ (%)" in result.output
    assert json.loads(report_path.read_text())["config"]["clients"] == 2


def test_cli_rejects_invalid_combination():
    for args, message in [
        (["--model", "tcc", "--versioning", "snowflake"], "requires centralized versioning"),
        (["--transport", "rpc", "--rpc-one-way-ms", "-1"], "latency must be >= 0"),
    ]:
        result = CliRunner().invoke(cli_main, args)
        assert result.exit_code == 2, args
        assert "Traceback" not in result.output
        assert message in result.output
