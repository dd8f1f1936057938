"""Command-line entry point: ``python -m repro <command>``.

:data:`COMMANDS` is the whole command line: one row per command with its
name, help text, arguments and handler. ``python -m repro --help`` lists
the commands and ``python -m repro <command> --help`` their flags. Each
handler imports what it runs when it runs.

The serving layer (rewrite cache, worker pool, CDC beside reads) is
load-tested by the serve-path benchmark, ``python -m benchmarks.e2e``
from a source checkout, not by a command here.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Callable, NamedTuple


def _demo(arguments: argparse.Namespace) -> int:
    """Register a view, match a query against it, execute and verify."""
    from . import (
        ViewMatcher,
        execute,
        generate_tpch,
        materialize_view,
        statement_to_sql,
        tpch_catalog,
    )

    catalog = tpch_catalog()
    database = generate_tpch(scale=0.001, seed=1)
    matcher = ViewMatcher(catalog)
    view = catalog.bind_sql(
        """
        select l_partkey, sum(l_extendedprice * l_quantity) as revenue,
               count_big(*) as cnt
        from lineitem, part
        where l_partkey = p_partkey and p_partkey <= 150
        group by l_partkey
        """
    )
    matcher.register_view("part_revenue", view)
    materialize_view("part_revenue", view, database)
    query = catalog.bind_sql(
        """
        select l_partkey, sum(l_extendedprice * l_quantity)
        from lineitem, part
        where l_partkey = p_partkey and p_partkey >= 50 and p_partkey <= 100
        group by l_partkey
        """
    )
    print("query:      ", statement_to_sql(query))
    matches = matcher.substitutes(query)
    if not matches:
        print("no substitute found")
        return 1
    substitute = matches[0].substitute
    print("substitute: ", statement_to_sql(substitute))
    original = execute(query, database)
    rewritten = execute(substitute, database)
    equal = original.bag_equals(rewritten, float_digits=9)
    print(
        f"rows: {original.row_count} (original) vs {rewritten.row_count} "
        f"(rewrite); bag-equal: {equal}"
    )
    return 0 if equal else 1


def _examples(arguments: argparse.Namespace) -> int:
    """The paper's Examples 1-4 (delegates to the examples script)."""
    import importlib.util
    import pathlib

    path = (
        pathlib.Path(__file__).resolve().parent.parent.parent
        / "examples"
        / "paper_walkthrough.py"
    )
    if not path.exists():
        print("examples/paper_walkthrough.py not found; run from a source checkout")
        return 1
    spec = importlib.util.spec_from_file_location("paper_walkthrough", path)
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()
    return 0


def _figures(arguments: argparse.Namespace) -> int:
    """Rerun the Section 5 sweep and print all figure tables."""
    from .experiments import ExperimentConfig, ExperimentHarness, render_all

    if arguments.quick:
        view_counts: tuple[int, ...] = (0, 50, 100, 200)
        query_count = 30
    else:
        view_counts = (0, 100, 200, 400, 600, 800, 1000)
        query_count = 100
    if arguments.views is not None:
        step = max(arguments.views // 5, 1)
        view_counts = (0,) + tuple(range(step, arguments.views + 1, step))
    if arguments.queries is not None:
        query_count = arguments.queries
    config = ExperimentConfig(
        view_counts=view_counts, query_count=query_count, seed=arguments.seed
    )
    print(
        f"sweep: views {list(config.view_counts)}, "
        f"{config.query_count} queries, seed {config.seed}"
    )
    result = ExperimentHarness(config).run()
    print()
    print(render_all(result))
    return 0


_DEMO_VIEWS: tuple[tuple[str, str], ...] = (
    (
        "part_revenue",
        """
        select l_partkey, sum(l_extendedprice * l_quantity) as revenue,
               count_big(*) as cnt
        from lineitem, part
        where l_partkey = p_partkey and p_partkey <= 150
        group by l_partkey
        """,
    ),
    (
        "cheap_lineitems",
        """
        select l_orderkey, l_partkey, l_extendedprice
        from lineitem
        where l_extendedprice <= 1000
        """,
    ),
    (
        "order_totals",
        """
        select o_custkey, sum(o_totalprice) as total, count_big(*) as cnt
        from orders
        group by o_custkey
        """,
    ),
)


def _explain_rewrite(arguments: argparse.Namespace) -> int:
    """Trace one query through the full rewrite path and explain it.

    Optimizes the query over the TPC-H catalog with a
    :class:`~repro.obs.RewriteTracer` installed, then prints the
    match-funnel report: per-level filter-tree narrowing, every
    candidate's fate (reject reason or compensation steps), and the
    final cost comparison. Without ``--view`` a small demo pool is
    registered. ``--validate`` checks the JSON export against the frozen
    schema (non-zero exit on mismatch).
    """
    import json

    from .catalog import tpch_catalog
    from .core.matcher import ViewMatcher
    from .errors import ReproError
    from .obs import (
        RewriteTracer,
        render_trace,
        tracing,
        validate_trace_dict,
    )
    from .optimizer import Optimizer
    from .stats import synthetic_tpch_stats

    sql = arguments.sql
    json_output, validate = arguments.json, arguments.validate
    catalog = tpch_catalog()
    matcher = ViewMatcher(catalog)
    definitions = list(_DEMO_VIEWS)
    if arguments.view:
        definitions = []
        for spec in arguments.view:
            name, separator, view_sql = spec.partition("=")
            if not separator or not name.strip():
                print(f"bad --view (expected NAME=SQL): {spec!r}")
                return 2
            definitions.append((name.strip(), view_sql))
    for name, view_sql in definitions:
        try:
            matcher.register_view(name, catalog.bind_sql(view_sql))
        except (ReproError, ValueError) as exc:
            print(f"cannot register view {name}: {exc}")
            return 2
    optimizer = Optimizer(catalog, synthetic_tpch_stats(scale=0.5), matcher)

    tracer = RewriteTracer(sql=sql)
    error: str | None = None
    dropped = 0
    with tracing(tracer):
        try:
            with tracer.span("parse"):
                statement = catalog.bind_sql(sql)
            dropped = optimizer.optimize(statement).preaggregations_dropped
        except (ReproError, ValueError) as exc:
            error = str(exc)
    trace = tracer.finish(error=error)

    if json_output or validate:
        payload = trace.to_dict()
        if validate:
            problems = validate_trace_dict(
                json.loads(json.dumps(payload))
            )
            if problems:
                for problem in problems:
                    print(f"schema violation: {problem}")
                return 1
        if json_output:
            print(json.dumps(payload, indent=2))
        else:
            print("trace validates against the export schema")
    else:
        print(render_trace(trace))  # includes the error line, if any
        if dropped:
            # Why the cost comparison lists fewer pre-aggregation rows
            # than the query has sub-joins: these were never built.
            print(
                f"  {dropped} pre-aggregation alternative(s) dropped before "
                "matching: the rest of the plan alone left no budget for "
                "any view read"
            )
    if error is not None:
        if json_output or validate:
            print(f"error: {error}")
        return 1
    return 0


def _difftest(arguments: argparse.Namespace) -> int:
    """Differential correctness: execute every rewrite, compare rows.

    Runs the randomized harness over small generated TPC-H data and
    bag-compares the original and every substitute plan, shrinking each
    divergence to a minimal (query, view, data) triple; ``--corpus`` and
    ``--cdc`` add the committed regression cases and the CDC
    interleaving harness to the same run. Non-zero exit on any
    divergence or corpus failure.
    """
    from .catalog import tpch_catalog
    from .difftest import (
        CdcDifftestConfig,
        DifftestConfig,
        load_corpus,
        run_cdc_difftest,
        run_corpus_case,
        run_difftest,
        write_divergence_artifacts,
    )

    catalog = tpch_catalog()
    failures = 0
    if arguments.corpus is not None:
        corpus_cases = load_corpus(arguments.corpus)
        print(
            f"corpus: {len(corpus_cases)} committed cases from {arguments.corpus}"
        )
        for case in corpus_cases:
            outcome = run_corpus_case(case, catalog)
            print(f"  {outcome.describe()}")
            if not outcome.ok:
                failures += 1
    config = DifftestConfig(
        seed=arguments.seed,
        cases=arguments.cases,
        views_per_case=arguments.views_per_case,
        scale=arguments.scale,
        data_seed=arguments.data_seed,
        shrink_budget=arguments.shrink_budget,
        max_divergences=arguments.max_divergences,
    )
    report = run_difftest(config, catalog=catalog)
    print(report.summary())
    if arguments.emit is not None:
        for divergence in report.divergences:
            paths = write_divergence_artifacts(
                divergence,
                arguments.emit,
                catalog,
                float_digits=config.float_digits,
            )
            for path in paths:
                print(f"  wrote {path}")
    failures += len(report.divergences) + report.match_errors
    if arguments.cdc:
        cdc_config = CdcDifftestConfig(
            seed=arguments.seed,
            steps=arguments.cdc_steps,
            scale=arguments.scale,
            data_seed=arguments.data_seed,
        )
        cdc_report = run_cdc_difftest(cdc_config, catalog=catalog)
        print(cdc_report.summary())
        failures += len(cdc_report.divergences)
    return 1 if failures else 0


def _cdc_soak(arguments: argparse.Namespace) -> int:
    """Soak the CDC pipeline: torn reads, LSN order, bounded applier lag.

    Runs the fixed-seed CDC interleaving harness with a hard lag gate:
    besides the per-checkpoint recompute and rewrite checks (a stale
    view must serve exactly the rows its applied LSN implies -- no torn
    reads), the run fails if LSNs ever go non-monotone or if the
    applier's lag exceeds ``--lag-bound`` records at any checkpoint.
    Non-zero exit on any divergence; this is the CI gate for the CDC
    subsystem.
    """
    from .difftest import CdcDifftestConfig, run_cdc_difftest

    lag_bound = arguments.lag_bound
    if lag_bound is None:
        lag_bound = 2 * arguments.checkpoint_every * 3  # <= 3 rows per step
    config = CdcDifftestConfig(
        seed=arguments.seed,
        steps=arguments.steps,
        scale=arguments.scale,
        data_seed=arguments.data_seed,
        checkpoint_every=arguments.checkpoint_every,
        lag_bound_records=lag_bound,
    )
    report = run_cdc_difftest(config)
    print(report.summary())
    for divergence in report.divergences:
        print(f"FAIL: {divergence.summary()}")
    return 1 if not report.ok else 0


def _journal_missing(journal: str) -> bool:
    import os

    if os.path.exists(journal) or os.path.exists(f"{journal}.1"):
        return False
    print(f"no journal at {journal}")
    return True


def _workload_report(arguments: argparse.Namespace) -> int:
    """Aggregate a recorded workload journal into a report.

    Reads the JSONL journal (including rotated files) that a
    :class:`~repro.obs.recorder.WorkloadRecorder` attached with
    ``ViewServer.attach_recorder`` wrote. Exit 2 when the journal does
    not exist, 1 when it holds no readable events.
    """
    import json

    from .obs.recorder import load_journal

    journal, top = arguments.journal, arguments.top
    if _journal_missing(journal):
        return 2
    aggregate = load_journal(journal)
    if aggregate.events == 0:
        print(f"journal {journal} holds no readable events")
        return 1
    if arguments.json:
        print(json.dumps(aggregate.to_advisor_input(top=top), indent=2))
    else:
        print(aggregate.render(top=top))
    return 0


def _repro_top(arguments: argparse.Namespace) -> int:
    """The ``repro-top`` live dashboard.

    ``--journal`` replays a recorded workload journal (re-read every
    tick, so it may still be written to); ``--demo`` spins up a small
    in-process server with a background load thread and renders its
    ``stats()``: RED metrics, reject funnel, the server process's
    telemetry sketches (pool workers' sketches are not merged) and SLO
    burn.
    """
    from .obs.dashboard import DashboardLoop, journal_frame, server_frame

    iterations = 1 if arguments.once else arguments.iterations
    clear = not arguments.once and iterations is None
    journal, interval = arguments.journal, arguments.interval
    if journal is not None:
        from .obs.recorder import load_journal

        if _journal_missing(journal):
            return 2
        loop = DashboardLoop(
            lambda: journal_frame(load_journal(journal)),
            interval=interval,
            iterations=iterations,
            clear=clear,
        )
        return loop.run()
    if not arguments.demo:
        print("repro-top needs --journal PATH or --demo")
        return 2

    import threading

    from .catalog import tpch_catalog
    from .obs.slo import SloObjectives
    from .service import ViewServer
    from .sql.printer import statement_to_sql
    from .stats import synthetic_tpch_stats
    from .workload import WorkloadGenerator

    catalog = tpch_catalog()
    stats = synthetic_tpch_stats(scale=0.1)
    generator = WorkloadGenerator(catalog, stats, seed=42)
    views = [
        (name, statement_to_sql(generated.statement))
        for name, generated in generator.generate_views(20)
    ]
    queries = [
        statement_to_sql(generated.statement)
        for generated in generator.generate_queries(8)
    ]
    server = ViewServer(
        catalog, stats, slo=SloObjectives(), trace_sample_rate=0.1
    )
    stop = threading.Event()

    def drive() -> None:
        while not stop.is_set():
            for sql in queries:
                if stop.is_set():
                    return
                server.serve(sql)

    try:
        for name, sql in views:
            server.register_view(name, sql)
        for sql in queries:  # one synchronous pass so frame 1 has data
            server.serve(sql)
        load = threading.Thread(target=drive, daemon=True, name="repro-top")
        load.start()
        loop = DashboardLoop(
            lambda: server_frame(server),
            interval=interval,
            iterations=iterations,
            clear=clear,
        )
        code = loop.run()
        stop.set()
        load.join(timeout=2.0)
        return code
    finally:
        stop.set()
        server.close()


def _arg(*flags: str, **options: Any) -> tuple[tuple[str, ...], dict[str, Any]]:
    """One ``add_argument`` call, kept as data."""
    return flags, options


class Command(NamedTuple):
    """One row of the command table."""

    name: str
    help: str
    arguments: tuple[tuple[tuple[str, ...], dict[str, Any]], ...]
    handler: Callable[[argparse.Namespace], int]


COMMANDS: tuple[Command, ...] = (
    Command("demo", "register a view, match, execute, verify", (), _demo),
    Command("examples", "walk through the paper's Examples 1-4", (), _examples),
    Command(
        "figures",
        "rerun the Section 5 sweep (Figures 2-4)",
        (
            _arg(
                "--quick",
                action="store_true",
                help="reduced sweep (seconds, not minutes)",
            ),
            _arg("--views", type=int, default=None, help="max view count"),
            _arg("--queries", type=int, default=None, help="query batch size"),
            _arg("--seed", type=int, default=42),
        ),
        _figures,
    ),
    Command(
        "explain-rewrite",
        "trace one query's rewrite path and print the match funnel",
        (
            _arg("sql", help="the SELECT statement to explain"),
            _arg(
                "--view",
                action="append",
                default=None,
                metavar="NAME=SQL",
                help="register this view instead of the demo pool (repeatable)",
            ),
            _arg("--json", action="store_true", help="emit the JSON trace export"),
            _arg(
                "--validate",
                action="store_true",
                help="check the export against the trace schema (exit 1 on mismatch)",
            ),
        ),
        _explain_rewrite,
    ),
    Command(
        "difftest",
        "execute every rewrite against the engine and compare rows",
        (
            _arg("--seed", type=int, default=0, help="base RNG seed"),
            _arg("--cases", type=int, default=200, help="random cases to run"),
            _arg(
                "--views-per-case",
                type=int,
                default=3,
                help="covering views per case",
            ),
            _arg(
                "--scale", type=float, default=0.0005, help="TPC-H data scale factor"
            ),
            _arg("--data-seed", type=int, default=11, help="data generator seed"),
            _arg(
                "--shrink-budget",
                type=int,
                default=400,
                help="oracle calls allowed per divergence shrink (0 disables)",
            ),
            _arg(
                "--max-divergences",
                type=int,
                default=5,
                help="stop after this many divergences",
            ),
            _arg(
                "--emit",
                default=None,
                metavar="DIR",
                help="write shrunk repro scripts, traces, and corpus cases here",
            ),
            _arg(
                "--corpus",
                default=None,
                metavar="DIR",
                help="also re-run the committed regression corpus in DIR",
            ),
            _arg(
                "--cdc",
                action="store_true",
                help=(
                    "also run the CDC interleaving harness: randomized base "
                    "mutations through the change log with partial applier "
                    "batches, recompute- and rewrite-checked at checkpoints"
                ),
            ),
            _arg(
                "--cdc-steps",
                type=int,
                default=200,
                metavar="N",
                help="mutation/scan/merge/churn steps for the --cdc harness",
            ),
        ),
        _difftest,
    ),
    Command(
        "cdc-soak",
        "fixed-seed CDC soak: torn reads, LSN order, bounded lag",
        (
            _arg("--seed", type=int, default=0, help="RNG seed"),
            _arg("--steps", type=int, default=400, help="soak steps"),
            _arg(
                "--scale", type=float, default=0.002, help="TPC-H data scale factor"
            ),
            _arg("--data-seed", type=int, default=11, help="data generator seed"),
            _arg(
                "--checkpoint-every",
                type=int,
                default=25,
                help="steps per checkpoint",
            ),
            _arg(
                "--lag-bound",
                type=int,
                default=None,
                metavar="RECORDS",
                help=(
                    "fail if per-view applier lag exceeds this many log records "
                    "at any checkpoint (default: 2 checkpoint intervals x 3 "
                    "rows/step)"
                ),
            ),
        ),
        _cdc_soak,
    ),
    Command(
        "workload-report",
        "aggregate a recorded workload journal into an advisor input",
        (
            _arg("journal", help="journal path a WorkloadRecorder wrote"),
            _arg(
                "--json",
                action="store_true",
                help="emit the advisor-consumable JSON aggregate",
            ),
            _arg("--top", type=int, default=10, help="fingerprints/rejects to list"),
        ),
        _workload_report,
    ),
    Command(
        "repro-top",
        "live terminal dashboard over a journal or a demo server",
        (
            _arg(
                "--journal",
                default=None,
                metavar="PATH",
                help="render from this recorded journal instead of a live server",
            ),
            _arg(
                "--demo",
                action="store_true",
                help="spin up an in-process demo server and watch it live",
            ),
            _arg(
                "--interval", type=float, default=1.0, help="seconds between frames"
            ),
            _arg(
                "--iterations",
                type=int,
                default=None,
                metavar="N",
                help="stop after N frames (default: run until interrupted)",
            ),
            _arg(
                "--once",
                action="store_true",
                help="print a single frame and exit (no screen clearing)",
            ),
        ),
        _repro_top,
    ),
)


def build_parser() -> argparse.ArgumentParser:
    """The argument parser :data:`COMMANDS` declares."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=(
            "Reproduction of Goldstein & Larson (SIGMOD 2001): view matching "
            "with a filter tree."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS:
        subparser = subparsers.add_parser(command.name, help=command.help)
        for flags, options in command.arguments:
            subparser.add_argument(*flags, **options)
        subparser.set_defaults(handler=command.handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    arguments = build_parser().parse_args(argv)
    return arguments.handler(arguments)


if __name__ == "__main__":
    sys.exit(main())
