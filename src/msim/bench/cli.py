"""sim-bench: run the contention benchmark from the command line."""

from __future__ import annotations

import click

from ..config import TRANSACTION_MODELS, TRANSPORT_MODES, VERSIONING_STRATEGIES
from ..errors import InvalidConfig
from .runner import BenchConfig, format_report, run_bench


@click.command(name="sim-bench")
@click.option("--model", type=click.Choice(TRANSACTION_MODELS), default="saga",
              show_default=True, help="Transactional model.")
@click.option("--transport", type=click.Choice(TRANSPORT_MODES), default="local",
              show_default=True, help="Simulated transport.")
@click.option("--versioning", type=click.Choice(VERSIONING_STRATEGIES),
              default="centralized", show_default=True,
              help="Version number strategy.")
@click.option("--clients", type=int, default=16, show_default=True,
              help="Concurrent simulated clients.")
@click.option("--requests", type=int, default=25, show_default=True,
              help="Requests issued by each client.")
@click.option("--seed", type=int, default=0, show_default=True,
              help="Workload shuffle seed.")
@click.option("--runs", type=int, default=1, show_default=True,
              help="Independent benchmark runs.")
@click.option("--impairments", "impairments_dir",
              type=click.Path(exists=True, file_okay=False), default=None,
              help="Directory of CSV impairment plans to load.")
@click.option("--trace-out", type=click.Path(dir_okay=False), default=None,
              envvar="SIM_TRACE_PATH", help="Flush spans to this JSONL file.")
@click.option("--report", "report_path", type=click.Path(dir_okay=False),
              default=None, help="Write the JSON report here.")
@click.option("--rpc-one-way-ms", type=float, default=10.0, show_default=True,
              help="One-way latency for the rpc transport.")
def main(model, transport, versioning, clients, requests, seed, runs,
         impairments_dir, trace_out, report_path, rpc_one_way_ms):
    """Storm one tournament with concurrent addParticipant requests."""
    cfg = BenchConfig(
        model=model,
        transport=transport,
        versioning=versioning,
        clients=clients,
        requests_per_client=requests,
        seed=seed,
        runs=runs,
        impairments_dir=impairments_dir,
        trace_out=trace_out,
        report_path=report_path,
        rpc_one_way_ms=rpc_one_way_ms,
    )
    try:
        report = run_bench(cfg)
    except InvalidConfig as exc:
        raise click.UsageError(str(exc)) from exc
    click.echo(format_report(report))
    if report_path:
        click.echo(f"report written to {report_path}")


if __name__ == "__main__":
    main()
