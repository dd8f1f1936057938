"""Command-line entry point: ``python -m repro <command>``.

Commands
--------
``demo``
    The quickstart flow: register a view, match a query, execute both.
``examples``
    The paper's worked Examples 1-4, step by step.
``figures [--quick]``
    Rerun the Section 5 sweep and print the Figure 2-4 tables and the
    filtering statistics.
``explain-rewrite <sql> [--json]``
    Trace one query through the rewrite path and print the match-funnel
    report: filter-tree narrowing per level, each candidate's reject
    reason or compensation steps, and the plan cost comparison.
``difftest [--seed N --cases N]``
    Differential correctness: generate seeded random queries with
    covering views over small TPC-H data, execute the original and
    every substitute plan, bag-compare the rows, and shrink any
    divergence to a minimal repro (``--emit DIR`` writes the repro
    script, obs trace, and corpus case; ``--corpus DIR`` re-runs the
    committed regression corpus; ``--cdc``
    appends the CDC interleaving harness, checking deferred view
    maintenance against full recompute at every checkpoint).
``cdc-soak [--seed N --steps N]``
    Fixed-seed CDC soak gate: stream inserts / deletes / predicate
    deletes through the change log while the applier runs in partial
    batches, asserting zero torn reads at every checkpoint, strictly
    monotone LSNs, and bounded applier lag. Non-zero exit on any
    violation; wired into CI.
``workload-report <journal> [--json]``
    Aggregate a workload journal (what a
    :class:`~repro.obs.recorder.WorkloadRecorder` attached to a
    ``ViewServer`` writes) into query-shape frequencies, the ranked
    reject-reason funnel, cache hit rate, and latency percentiles;
    ``--json`` emits the advisor-consumable aggregate.
``repro-top [--journal PATH | --demo]``
    Live terminal dashboard: RED metrics, reject funnel, CDC lag, SLO
    burn rates and the server's telemetry sketches (its own process's
    hub: pool workers' sketches are not merged) -- over a recorded
    journal or a demo in-process server, read from ``stats()``.

The serving layer (rewrite cache, worker pool, CDC beside reads) is
load-tested by the serve-path benchmark, ``python -m benchmarks.e2e``
from a source checkout, not by a command here.
"""

from __future__ import annotations

import argparse
import sys


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=(
            "Reproduction of Goldstein & Larson (SIGMOD 2001): view matching "
            "with a filter tree."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    subparsers.add_parser("demo", help="register a view, match, execute, verify")
    subparsers.add_parser("examples", help="walk through the paper's Examples 1-4")
    figures = subparsers.add_parser(
        "figures", help="rerun the Section 5 sweep (Figures 2-4)"
    )
    figures.add_argument(
        "--quick", action="store_true", help="reduced sweep (seconds, not minutes)"
    )
    figures.add_argument("--views", type=int, default=None, help="max view count")
    figures.add_argument("--queries", type=int, default=None, help="query batch size")
    figures.add_argument("--seed", type=int, default=42)
    explain = subparsers.add_parser(
        "explain-rewrite",
        help="trace one query's rewrite path and print the match funnel",
    )
    explain.add_argument("sql", help="the SELECT statement to explain")
    explain.add_argument(
        "--view",
        action="append",
        default=None,
        metavar="NAME=SQL",
        help="register this view instead of the demo pool (repeatable)",
    )
    explain.add_argument(
        "--json", action="store_true", help="emit the JSON trace export"
    )
    explain.add_argument(
        "--validate",
        action="store_true",
        help="check the export against the trace schema (exit 1 on mismatch)",
    )
    difftest = subparsers.add_parser(
        "difftest",
        help="execute every rewrite against the engine and compare rows",
    )
    difftest.add_argument("--seed", type=int, default=0, help="base RNG seed")
    difftest.add_argument(
        "--cases", type=int, default=200, help="random cases to run"
    )
    difftest.add_argument(
        "--views-per-case", type=int, default=3, help="covering views per case"
    )
    difftest.add_argument(
        "--scale", type=float, default=0.0005, help="TPC-H data scale factor"
    )
    difftest.add_argument(
        "--data-seed", type=int, default=11, help="data generator seed"
    )
    difftest.add_argument(
        "--shrink-budget",
        type=int,
        default=400,
        help="oracle calls allowed per divergence shrink (0 disables)",
    )
    difftest.add_argument(
        "--max-divergences",
        type=int,
        default=5,
        help="stop after this many divergences",
    )
    difftest.add_argument(
        "--emit",
        default=None,
        metavar="DIR",
        help="write shrunk repro scripts, traces, and corpus cases here",
    )
    difftest.add_argument(
        "--corpus",
        default=None,
        metavar="DIR",
        help="also re-run the committed regression corpus in DIR",
    )
    difftest.add_argument(
        "--cdc",
        action="store_true",
        help=(
            "also run the CDC interleaving harness: randomized base "
            "mutations through the change log with partial applier "
            "batches, recompute- and rewrite-checked at checkpoints"
        ),
    )
    difftest.add_argument(
        "--cdc-steps",
        type=int,
        default=200,
        metavar="N",
        help="mutation/scan/merge/churn steps for the --cdc harness",
    )
    soak = subparsers.add_parser(
        "cdc-soak",
        help="fixed-seed CDC soak: torn reads, LSN order, bounded lag",
    )
    soak.add_argument("--seed", type=int, default=0, help="RNG seed")
    soak.add_argument("--steps", type=int, default=400, help="soak steps")
    soak.add_argument(
        "--scale", type=float, default=0.002, help="TPC-H data scale factor"
    )
    soak.add_argument(
        "--data-seed", type=int, default=11, help="data generator seed"
    )
    soak.add_argument(
        "--checkpoint-every", type=int, default=25, help="steps per checkpoint"
    )
    soak.add_argument(
        "--lag-bound",
        type=int,
        default=None,
        metavar="RECORDS",
        help=(
            "fail if per-view applier lag exceeds this many log records "
            "at any checkpoint (default: 2 checkpoint intervals x 3 "
            "rows/step)"
        ),
    )
    report = subparsers.add_parser(
        "workload-report",
        help="aggregate a recorded workload journal into an advisor input",
    )
    report.add_argument(
        "journal", help="journal path a WorkloadRecorder wrote"
    )
    report.add_argument(
        "--json",
        action="store_true",
        help="emit the advisor-consumable JSON aggregate",
    )
    report.add_argument(
        "--top", type=int, default=10, help="fingerprints/rejects to list"
    )
    top = subparsers.add_parser(
        "repro-top",
        help="live terminal dashboard over a journal or a demo server",
    )
    top.add_argument(
        "--journal",
        default=None,
        metavar="PATH",
        help="render from this recorded journal instead of a live server",
    )
    top.add_argument(
        "--demo",
        action="store_true",
        help="spin up an in-process demo server and watch it live",
    )
    top.add_argument(
        "--interval", type=float, default=1.0, help="seconds between frames"
    )
    top.add_argument(
        "--iterations",
        type=int,
        default=None,
        metavar="N",
        help="stop after N frames (default: run until interrupted)",
    )
    top.add_argument(
        "--once",
        action="store_true",
        help="print a single frame and exit (no screen clearing)",
    )
    arguments = parser.parse_args(argv)

    if arguments.command == "difftest":
        from .cli import run_difftest

        return run_difftest(
            seed=arguments.seed,
            cases=arguments.cases,
            views_per_case=arguments.views_per_case,
            scale=arguments.scale,
            data_seed=arguments.data_seed,
            shrink_budget=arguments.shrink_budget,
            max_divergences=arguments.max_divergences,
            emit=arguments.emit,
            corpus=arguments.corpus,
            cdc=arguments.cdc,
            cdc_steps=arguments.cdc_steps,
        )

    if arguments.command == "cdc-soak":
        from .cli import run_cdc_soak

        return run_cdc_soak(
            seed=arguments.seed,
            steps=arguments.steps,
            scale=arguments.scale,
            data_seed=arguments.data_seed,
            checkpoint_every=arguments.checkpoint_every,
            lag_bound=arguments.lag_bound,
        )

    if arguments.command == "explain-rewrite":
        from .cli import run_explain_rewrite

        return run_explain_rewrite(
            arguments.sql,
            views=tuple(arguments.view) if arguments.view else (),
            json_output=arguments.json,
            validate=arguments.validate,
        )

    if arguments.command == "demo":
        from .cli import run_demo

        return run_demo()
    if arguments.command == "examples":
        from .cli import run_examples

        return run_examples()
    if arguments.command == "workload-report":
        from .cli import run_workload_report

        return run_workload_report(
            arguments.journal,
            json_output=arguments.json,
            top=arguments.top,
        )
    if arguments.command == "repro-top":
        from .cli import run_repro_top

        return run_repro_top(
            journal=arguments.journal,
            demo=arguments.demo,
            interval=arguments.interval,
            iterations=arguments.iterations,
            once=arguments.once,
        )
    from .cli import run_figures

    return run_figures(
        quick=arguments.quick,
        views=arguments.views,
        queries=arguments.queries,
        seed=arguments.seed,
    )


if __name__ == "__main__":
    sys.exit(main())
