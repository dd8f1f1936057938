"""Implementations behind ``python -m repro``."""

from __future__ import annotations


def run_demo() -> int:
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


def run_explain_rewrite(
    sql: str,
    views: tuple[str, ...] = (),
    json_output: bool = False,
    validate: bool = False,
) -> int:
    """Trace one query through the full rewrite path and explain it.

    Optimizes ``sql`` over the TPC-H catalog with a
    :class:`~repro.obs.RewriteTracer` installed, then prints the
    match-funnel report: per-level filter-tree narrowing, every
    candidate's fate (reject reason or compensation steps), and the
    final cost comparison. ``views`` is a list of ``name=SQL``
    registrations; without it a small demo pool is used. ``--json``
    emits the machine-readable trace instead; ``--validate``
    additionally checks it against the frozen export schema (non-zero
    exit on mismatch).
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

    catalog = tpch_catalog()
    matcher = ViewMatcher(catalog)
    definitions = list(_DEMO_VIEWS)
    if views:
        definitions = []
        for spec in views:
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


def run_examples() -> int:
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


def run_workload_report(
    journal: str,
    json_output: bool = False,
    top: int = 10,
) -> int:
    """Aggregate a recorded workload journal into a report.

    Reads the JSONL journal (including rotated files) written by a
    :class:`~repro.obs.recorder.WorkloadRecorder` attached to a server
    with ``ViewServer.attach_recorder`` -- and prints query-shape
    frequencies, the ranked reject-reason funnel, cache hit rate, and
    latency percentiles. ``--json`` emits the advisor-consumable aggregate
    instead. Exit 2 when the journal does not exist, 1 when it holds
    no readable events.
    """
    import json
    import os

    from .obs.recorder import load_journal

    if not os.path.exists(journal) and not os.path.exists(f"{journal}.1"):
        print(f"no journal at {journal}")
        return 2
    aggregate = load_journal(journal)
    if aggregate.events == 0:
        print(f"journal {journal} holds no readable events")
        return 1
    if json_output:
        print(json.dumps(aggregate.to_advisor_input(top=top), indent=2))
    else:
        print(aggregate.render(top=top))
    return 0


def run_repro_top(
    journal: str | None = None,
    demo: bool = False,
    interval: float = 1.0,
    iterations: int | None = None,
    once: bool = False,
) -> int:
    """The ``repro-top`` live dashboard.

    ``--journal PATH`` replays a recorded workload journal (re-read
    every tick, so it may still be written to); ``--demo`` spins up a
    small in-process server with a background load thread and renders
    its ``stats()``: live RED metrics, reject funnel, the server
    process's telemetry sketches (pool workers' sketches are not
    merged) and SLO burn. ``--once`` renders a single frame without
    clearing the screen -- the scriptable/CI form.
    """
    from .obs.dashboard import DashboardLoop, journal_frame, server_frame

    if once:
        iterations = 1
    clear = not once and iterations is None
    if journal is not None:
        import os

        from .obs.recorder import load_journal

        if not os.path.exists(journal) and not os.path.exists(f"{journal}.1"):
            print(f"no journal at {journal}")
            return 2
        loop = DashboardLoop(
            lambda: journal_frame(load_journal(journal)),
            interval=interval,
            iterations=iterations,
            clear=clear,
        )
        return loop.run()
    if not demo:
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


def run_difftest(
    seed: int = 0,
    cases: int = 200,
    views_per_case: int = 3,
    scale: float = 0.0005,
    data_seed: int = 11,
    shrink_budget: int = 400,
    max_divergences: int = 5,
    emit: str | None = None,
    corpus: str | None = None,
    cdc: bool = False,
    cdc_steps: int = 200,
) -> int:
    """Differential correctness: execute every rewrite, compare rows.

    Runs the randomized harness (``cases`` seeded random queries with
    correlated covering views over small generated TPC-H data), executes
    the original and every substitute plan, and bag-compares the
    results. Each divergence is shrunk to a minimal (query, view, data)
    triple within ``shrink_budget`` oracle calls; with ``--emit DIR``
    the shrunk repro script, the obs trace of the bad rewrite, and a
    corpus-format case are written there. ``--corpus DIR`` additionally
    re-runs every committed regression case. ``--cdc`` appends the CDC interleaving harness
    (``cdc_steps`` randomized insert / delete / delete_where / partial
    scan / partial merge / register churn steps with recompute and
    rewrite checks at every checkpoint) to the same run. Non-zero exit
    on any divergence or corpus failure.
    """
    from .catalog import tpch_catalog
    from .difftest import (
        DifftestConfig,
        load_corpus,
        run_corpus_case,
        run_difftest as run_harness,
        write_divergence_artifacts,
    )

    catalog = tpch_catalog()
    failures = 0
    if corpus is not None:
        corpus_cases = load_corpus(corpus)
        print(f"corpus: {len(corpus_cases)} committed cases from {corpus}")
        for case in corpus_cases:
            outcome = run_corpus_case(case, catalog)
            print(f"  {outcome.describe()}")
            if not outcome.ok:
                failures += 1
    config = DifftestConfig(
        seed=seed,
        cases=cases,
        views_per_case=views_per_case,
        scale=scale,
        data_seed=data_seed,
        shrink_budget=shrink_budget,
        max_divergences=max_divergences,
    )
    report = run_harness(config, catalog=catalog)
    print(report.summary())
    if emit is not None:
        for divergence in report.divergences:
            paths = write_divergence_artifacts(
                divergence, emit, catalog, float_digits=config.float_digits
            )
            for path in paths:
                print(f"  wrote {path}")
    failures += len(report.divergences) + report.match_errors
    if cdc:
        from .difftest import CdcDifftestConfig, run_cdc_difftest

        cdc_config = CdcDifftestConfig(
            seed=seed, steps=cdc_steps, scale=scale, data_seed=data_seed
        )
        cdc_report = run_cdc_difftest(cdc_config, catalog=catalog)
        print(cdc_report.summary())
        failures += len(cdc_report.divergences)
    return 1 if failures else 0


def run_cdc_soak(
    seed: int = 0,
    steps: int = 400,
    scale: float = 0.002,
    data_seed: int = 11,
    checkpoint_every: int = 25,
    lag_bound: int | None = None,
) -> int:
    """Soak the CDC pipeline: torn reads, LSN order, bounded applier lag.

    Runs the fixed-seed CDC interleaving harness with a hard lag gate:
    besides the per-checkpoint recompute and rewrite checks (a stale
    view must serve exactly the rows its applied LSN implies -- no torn
    reads), the run fails if LSNs ever go non-monotone or if the
    applier's lag exceeds ``lag_bound`` records at any checkpoint
    (default: two checkpoint intervals' worth of log records). Non-zero
    exit on any divergence; this is the CI gate for the CDC subsystem.
    """
    from .difftest import CdcDifftestConfig, run_cdc_difftest

    if lag_bound is None:
        lag_bound = 2 * checkpoint_every * 3  # <= 3 rows per step
    config = CdcDifftestConfig(
        seed=seed,
        steps=steps,
        scale=scale,
        data_seed=data_seed,
        checkpoint_every=checkpoint_every,
        lag_bound_records=lag_bound,
    )
    report = run_cdc_difftest(config)
    print(report.summary())
    for divergence in report.divergences:
        print(f"FAIL: {divergence.summary()}")
    return 1 if not report.ok else 0


def run_figures(
    quick: bool = False,
    views: int | None = None,
    queries: int | None = None,
    seed: int = 42,
) -> int:
    """Rerun the Section 5 sweep and print all figure tables."""
    from .experiments import ExperimentConfig, ExperimentHarness, render_all

    if quick:
        view_counts: tuple[int, ...] = (0, 50, 100, 200)
        query_count = 30
    else:
        view_counts = (0, 100, 200, 400, 600, 800, 1000)
        query_count = 100
    if views is not None:
        step = max(views // 5, 1)
        view_counts = (0,) + tuple(range(step, views + 1, step))
    if queries is not None:
        query_count = queries
    config = ExperimentConfig(
        view_counts=view_counts, query_count=query_count, seed=seed
    )
    print(
        f"sweep: views {list(config.view_counts)}, "
        f"{config.query_count} queries, seed {config.seed}"
    )
    result = ExperimentHarness(config).run()
    print()
    print(render_all(result))
    return 0
