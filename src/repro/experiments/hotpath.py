"""Hot-path benchmark: bitset-interned filtering vs. the reference path.

Measures the two costs the interning work targets, before and after, on
the same registered view pool:

* **candidate filtering** -- one :meth:`FilterTree.candidates` call with a
  warm probe cache, comparing the bitset-interned tree against the plain
  frozenset reference tree (``use_interning=False``);
* **full matching** -- one :meth:`ViewMatcher.match` invocation on the
  interned tree, each candidate decided from its registration-time
  :class:`~repro.core.matching.ViewRecord`.

Both trees see the *same* queries against the *same* views and the engine
verifies they agree exactly: identical candidate sets per query and
identical matcher funnel statistics (candidates considered, matches,
substitutes, rejection reasons). A speed number from a mode that returned
different answers would be meaningless.

The report serializes to ``BENCH_matching.json``; the committed copy is
the regression baseline the CI smoke job checks new runs against.
"""

from __future__ import annotations

import dataclasses
import json
import os
import platform
import time
from dataclasses import dataclass

from ..catalog import tpch_catalog
from ..core import ViewMatcher
from ..core.filtertree import QueryProbe
from ..core.interning import packed_backend_name
from ..core.parallel import (
    default_worker_count,
    effective_cpu_count,
    fork_available,
)
from ..memsize import cache_memory_report, packed_table_bytes, view_memory_report
from ..sql.printer import statement_to_sql
from ..stats import synthetic_tpch_stats
from ..workload import WorkloadGenerator

# Latency regression tolerance for the CI gate: a fresh run may be at
# most this many times slower than the committed baseline at the largest
# measured view count (absorbs host-speed differences between the
# machine that committed the baseline and the CI runner).
REGRESSION_FACTOR = 2.0

# The single-pass probe compiler must beat the preserved reference
# pipeline by at least this factor at the gated view count. Both sides
# are timed in the same process on the same descriptions, so the gate is
# host-independent.
PROBE_SPEEDUP_FLOOR = 2.0

# Calibration-normalized regression budget for the fast probe-build
# latency against the committed baseline. Wider than the other
# normalized tolerances because the measurement itself is dispersed:
# the probe loop is short enough (tens of microseconds per pass) that
# scheduler interference moves the best-of result by up to ~2x between
# otherwise-identical runs on one host, and calibration does not track
# it (the calibration loop is an order of magnitude longer). The
# regression class this check exists for -- accidentally timing the
# multi-walk reference pipeline, with its per-lookup class rescans, as
# the fast path -- costs 3.5-4.5x at 1,000 views, still far outside the
# budget; the in-process PROBE_SPEEDUP_FLOOR gate handles ratios
# host-independently.
PROBE_REGRESSION_TOLERANCE = 0.6

# The end-to-end section times the fork fan-out leg only where it has
# cores to use. It carries no speedup floor: both legs run the same
# serving stack, so the section verifies identical results and reports
# timings; serve-path throughput is gated by ``benchmarks/e2e``.
END_TO_END_MIN_CORES = 2

# The persistent serving pool must beat fork-per-batch rewriting on both
# sustained throughput and p99 latency (ratios > 1.0) where it has cores
# to use. A single-core host still skips the per-batch fork plus the
# full result pickle, so the pool usually wins there too, but scheduler
# noise between two process fleets on one core is large -- the gate
# degrades to "not meaningfully worse" with headroom.
POOL_MIN_CORES = 2
POOL_RATIO_FLOOR = 1.0
POOL_SINGLE_CORE_RATIO_FLOOR = 0.8
# Ratio gates only apply to runs at a real catalog size: below this many
# views the batches are so small that per-request IPC overhead and one
# mid-load fleet swap dominate the measurement, and the ratios are
# scheduler noise. Smoke-sized runs still gate on zero failed requests.
POOL_GATE_MIN_VIEWS = 500

# Tolerance for the tracing-overhead guard: with the null tracer
# installed (tracing disabled), the instrumented hot path may be at most
# this fraction slower than the committed baseline. Much tighter than
# REGRESSION_FACTOR because it polices a specific promise -- disabled
# tracing costs one contextvar read per stage -- rather than host speed.
TRACING_OVERHEAD_TOLERANCE = 0.05

# Budget for the always-on telemetry pipeline: serving the same workload
# with the workload recorder + SLO tracker attached may be at most this
# fraction slower than without them. Measured as an on/off ratio in one
# process, so host speed divides out by construction (no calibration
# needed); the cache is disabled on both sides so the comparison times
# real rewrite work rather than journal writes against cache probes.
TELEMETRY_OVERHEAD_TOLERANCE = 0.25

# Resident-footprint budget for the memory gate: amortized deep-walk
# bytes per registered view (filter tree + descriptions + view
# records, shared catalog/statistics excluded). Calibration-free --
# bytes don't depend on host speed -- and sized with ~50 % headroom over
# the ~16-17 KB/view measured at 1,000 (smoke) and 10,000 views, so it
# catches a structural regression (a dropped ``__slots__``, an
# accidentally per-view copy of shared state such as the column domain)
# rather than getsizeof jitter between interpreters.
MEMORY_BYTES_PER_VIEW_BUDGET = 24 * 1024


@dataclass(frozen=True)
class HotpathConfig:
    """Benchmark sizes. The defaults mirror the Section 5 sweep shape."""

    view_counts: tuple[int, ...] = (100, 500, 1000, 10000)
    query_count: int = 25
    seed: int = 42
    scale: float = 0.5
    filter_repetitions: int = 40  # candidate-filter passes per timing run
    filter_runs: int = 3          # timing runs (best-of)
    match_repetitions: int = 3    # full-match passes per timing run
    match_runs: int = 3           # full-match timing runs (best-of)
    probe_repetitions: int = 20   # probe-build passes per timing run
    probe_runs: int = 3           # probe-build timing runs (best-of)
    # End-to-end serving sweep: sequential serve loop vs. batched
    # rewrite_many through the full ViewServer stack. () disables it.
    end_to_end_view_counts: tuple[int, ...] = (1000, 10000)
    end_to_end_runs: int = 3
    # Maintenance throughput point: rows/sec applied incrementally
    # through the CDC change log to this many registered rollup views,
    # against a full-recompute estimate extrapolated from a timed
    # sample. 0 disables the section. The smoke config keeps the same
    # values, so the CI baseline gate compares like-for-like work.
    maintenance_view_count: int = 1000
    maintenance_scale: float = 0.002
    maintenance_data_seed: int = 11
    maintenance_insert_batches: int = 20
    maintenance_batch_rows: int = 5
    maintenance_recompute_sample: int = 20
    # Catalog-scale point: register this many views through the packed
    # interned path only (no reference tree -- it would take minutes and
    # prove nothing new) and time candidate filtering, demonstrating the
    # per-level sweeps keep python-level work sublinear in catalog size.
    # 0 disables the section (the smoke config: a 100k registration is
    # a minutes-scale build, not a CI smoke).
    catalog_scale_views: int = 100000
    catalog_scale_repetitions: int = 10
    catalog_scale_runs: int = 2
    # Sustained-load serving-pool point: the persistent worker pool vs.
    # fork-per-batch ``rewrite_many`` over the same distinct-query
    # schedule at this many views, with live epoch swaps injected during
    # the pool run. 0 disables the section. The smoke config shrinks it
    # (the committed-baseline comparison then skips on the view-count
    # mismatch; the absolute pool-vs-fork gate still applies).
    pool_views: int = 1000
    pool_queries: int = 25
    pool_passes: int = 8
    pool_workers: int = 2
    pool_scale: float = 0.5
    pool_churn_cycles: int = 2
    # Telemetry-pipeline overhead point: the same workload served with
    # and without a workload recorder + SLO tracker attached, at this
    # many registered views. 0 disables the section. Cheap enough to
    # stay on in smoke, which is where the CI gate reads it.
    telemetry_overhead_views: int = 200
    telemetry_overhead_runs: int = 3
    # Memory accounting (deep-walk bytes per view at the largest
    # view_counts entry, plus rewrite-cache bytes per entry from a small
    # serving run). Cheap enough to stay on in smoke.
    measure_memory: bool = True

    @classmethod
    def smoke(cls) -> "HotpathConfig":
        """CI-sized: still the gated points (1000 views for filtering and
        probe building, 10000 for end-to-end serving), fewer queries.

        The leading 100-view size is a warm-up, not a gated point: the
        committed baseline's 1000-view numbers come from the full sweep,
        where the adaptive interpreter and allocator have been through
        two smaller sizes before the 1000-view timings run. A smoke run
        that starts cold at 1000 views measures the same code ~15-20%
        slower, which the normalized baseline tolerances cannot absorb on a
        noisy runner -- so the smoke sweep reproduces the full sweep's
        warm-up shape instead of comparing cold against warm.
        """
        return cls(
            view_counts=(100, 1000),
            query_count=8,
            filter_repetitions=10,
            filter_runs=2,
            match_repetitions=1,
            match_runs=2,
            # Probe building is the tightest baseline check; best-of-2
            # wobbles ~30% run-to-run on a busy runner, so the smoke
            # config samples it harder than the full sweep -- the cost
            # is milliseconds.
            probe_repetitions=12,
            probe_runs=5,
            end_to_end_view_counts=(10000,),
            end_to_end_runs=2,
            catalog_scale_views=0,
            pool_views=40,
            pool_queries=8,
            pool_passes=4,
            pool_scale=0.1,
            pool_churn_cycles=1,
        )


class HotpathMismatchError(AssertionError):
    """The before/after modes disagreed on candidates or match results."""


def _build_matcher(catalog, views, *, use_interning):
    matcher = ViewMatcher(catalog, use_interning=use_interning)
    for name, view in views:
        matcher.register_view(name, view.statement)
    return matcher


def _calibrate(runs: int = 5) -> float:
    """Best-of timing (us) of a fixed pure-Python reference workload.

    The tracing-overhead gate normalizes hot-path latencies by this
    number before comparing against the committed baseline: both are
    measured in the same process, so host-speed differences between the
    baseline machine and the CI runner cancel out. The workload mixes
    dict lookups, set sizing, and integer arithmetic -- the same
    interpreter operations the filter tree and matcher spend their time
    on. The report takes the minimum over samples interleaved with the
    hot-path timings, so the calibration floor is measured under the
    same load windows as the latencies it normalizes.
    """
    payload = list(range(256))
    table = {i: frozenset((i, i + 1, i + 2)) for i in payload}
    best = None
    for _ in range(runs):
        start = time.perf_counter()
        acc = 0
        for _ in range(100):
            for i in payload:
                acc += len(table[i]) + (i & 7)
        elapsed = (time.perf_counter() - start) * 1e6
        best = elapsed if best is None else min(best, elapsed)
    assert acc >= 0  # keep the loop observable
    return best


def _time_filter(tree, descriptions, repetitions: int, runs: int) -> float:
    """Best-of-``runs`` mean latency (us) of one candidate search.

    The search proper -- the packed sweep or the lattice walk -- for an
    already-compiled probe; probe compilation is timed on its own
    (:func:`_time_probe`).
    """
    compiled = [
        (tree.compile_probe(description), description.is_aggregate)
        for description in descriptions
    ]
    best = None
    for _ in range(runs):
        start = time.perf_counter()
        for _ in range(repetitions):
            for probe, aggregate in compiled:
                tree.collect_candidates(probe, [], aggregate)
        elapsed = time.perf_counter() - start
        per_call = elapsed / (repetitions * len(descriptions)) * 1e6
        best = per_call if best is None else min(best, per_call)
    return best


def _time_match(matcher, descriptions, repetitions: int, runs: int) -> float:
    """Best-of-``runs`` mean latency (us) of one full ``match`` invocation.

    Best-of, like :func:`_time_filter`: the minimum over runs converges
    to the true cost floor, which the 5 % tracing-overhead gate needs --
    a single-run mean wobbles by 15 % with host load alone.
    """
    best = None
    for _ in range(runs):
        start = time.perf_counter()
        for _ in range(repetitions):
            for description in descriptions:
                matcher.match(description)
        elapsed = time.perf_counter() - start
        per_call = elapsed / (repetitions * len(descriptions)) * 1e6
        best = per_call if best is None else min(best, per_call)
    return best


def _time_probe(descriptions, options, builder, repetitions, runs) -> float:
    """Best-of-``runs`` mean latency (us) of one probe construction.

    ``builder`` is :meth:`QueryProbe.of` (the fused single-pass compiler)
    or :meth:`QueryProbe.of_reference` (the preserved multi-walk
    pipeline). A warm-up pass derives the descriptions' output metadata
    and merged classes first so both builders are timed at their steady
    state.
    """
    for description in descriptions:
        builder(description, options)
    best = None
    for _ in range(runs):
        start = time.perf_counter()
        for _ in range(repetitions):
            for description in descriptions:
                builder(description, options)
        elapsed = time.perf_counter() - start
        per_call = elapsed / (repetitions * len(descriptions)) * 1e6
        best = per_call if best is None else min(best, per_call)
    return best


def _verify_probes(descriptions, options) -> None:
    """The fast and reference probe compilers must agree exactly."""
    for description in descriptions:
        fast = QueryProbe.of(description, options)
        slow = QueryProbe.of_reference(description, options)
        if fast != slow:
            raise HotpathMismatchError(
                "fast and reference probes diverge for "
                f"{description.tables}: {fast} vs {slow}"
            )


def _time_serving(serve_batch, runs: int) -> float:
    """Best-of-``runs`` wall-clock (ms) of serving the whole batch once."""
    best = None
    for _ in range(runs):
        start = time.perf_counter()
        serve_batch()
        elapsed = (time.perf_counter() - start) * 1e3
        best = elapsed if best is None else min(best, elapsed)
    return best


def _run_end_to_end(config, catalog, stats, views, queries, echo) -> list[dict]:
    """Serve the workload end to end: sequential vs. batched.

    One server, the default serving stack: the sequential leg is one
    ``serve`` call per query, the batched leg one ``rewrite_many`` over
    all of them, optionally fanning its misses out across forked
    workers. The rewrite cache is disabled so every timing run measures
    real rewrite work, and the legs' results are verified identical
    before anything is timed.
    """
    from ..service import ViewServer

    sqls = [statement_to_sql(query) for query in queries]
    # Affinity-aware: on a cpuset-restricted runner the fan-out gate must
    # key off the cores this process can actually use, not the host's.
    cpu_count = effective_cpu_count()
    workers = default_worker_count()
    measure_parallel = fork_available() and cpu_count >= END_TO_END_MIN_CORES
    entries: list[dict] = []
    for view_count in config.end_to_end_view_counts:
        definitions = [
            (name, view.statement) for name, view in views[:view_count]
        ]
        with ViewServer(
            catalog, stats, cache_enabled=False, workers=1
        ) as server:
            server.register_views(definitions)

            sequential_results = [server.serve(sql) for sql in sqls]
            batched_results = server.rewrite_many(sqls)
            for a, b in zip(sequential_results, batched_results):
                if (a.ok, a.view_names) != (b.ok, b.view_names):
                    raise HotpathMismatchError(
                        f"end-to-end modes diverge on {a.sql!r}: "
                        f"sequential {a.view_names} vs batched {b.view_names}"
                    )

            sequential_ms = _time_serving(
                lambda: [server.serve(sql) for sql in sqls],
                config.end_to_end_runs,
            )
            batched_ms = _time_serving(
                lambda: server.rewrite_many(sqls), config.end_to_end_runs
            )
            parallel_ms = None
            if measure_parallel:
                parallel_ms = _time_serving(
                    lambda: server.rewrite_many(sqls, parallel=workers),
                    config.end_to_end_runs,
                )
        best_ms = min(batched_ms, parallel_ms or batched_ms)
        entry = {
            "views": view_count,
            "queries": len(sqls),
            "cpu_count": cpu_count,
            "workers": workers if parallel_ms is not None else 1,
            "sequential_ms": round(sequential_ms, 2),
            "batched_ms": round(batched_ms, 2),
            "batched_parallel_ms": (
                round(parallel_ms, 2) if parallel_ms is not None else None
            ),
            "speedup": round(sequential_ms / best_ms, 2),
            "modes_identical": True,  # verified above
        }
        entries.append(entry)
        if echo is not None:
            parallel = (
                f"parallel {parallel_ms:8.1f}ms"
                if parallel_ms is not None
                else "parallel     (skipped)"
            )
            echo(
                f"{view_count:5d} views end-to-end: sequential "
                f"{sequential_ms:8.1f}ms   batched {batched_ms:8.1f}ms   "
                f"{parallel}   ({entry['speedup']:.2f}x)"
            )
    return entries


def _funnel(matcher) -> dict:
    statistics = matcher.statistics
    return {
        "invocations": statistics.invocations,
        "considered": statistics.views_considered,
        "matches": statistics.matches,
        "substitutes": statistics.substitutes,
        "rejects_by_reason": dict(sorted(statistics.rejects_by_reason.items())),
    }


def _verify_modes(interned, reference, descriptions) -> tuple[dict, dict]:
    """Cross-check the two modes; returns both funnels (must be equal)."""
    for description in descriptions:
        fast = sorted(v.name for v in interned.filter_tree.candidates(description))
        slow = sorted(v.name for v in reference.filter_tree.candidates(description))
        if fast != slow:
            raise HotpathMismatchError(
                f"candidate sets diverge: interned {fast} vs reference {slow}"
            )
    interned.statistics.reset()
    reference.statistics.reset()
    for description in descriptions:
        interned.match(description)
        reference.match(description)
    interned_funnel = _funnel(interned)
    reference_funnel = _funnel(reference)
    if interned_funnel != reference_funnel:
        raise HotpathMismatchError(
            "matcher statistics diverge: "
            f"{interned_funnel} vs {reference_funnel}"
        )
    return interned_funnel, reference_funnel


def _maintenance_view_sql(index: int, group_columns, bounds) -> str:
    """The ``index``-th distinct single-table rollup over ``orders``."""
    group = group_columns[index % len(group_columns)]
    bound = bounds[(index // len(group_columns)) % len(bounds)]
    return (
        f"select {group} as g, sum(o_totalprice) as total, "
        f"count_big(*) as cnt from orders "
        f"where o_custkey <= {bound} group by {group}"
    )


def _run_maintenance(config: HotpathConfig, catalog, echo) -> dict:
    """Incremental-vs-recompute maintenance throughput at ``n`` views.

    Registers ``maintenance_view_count`` distinct rollup views over
    ``orders`` through the CDC pipeline, streams
    ``maintenance_insert_batches`` insert batches through the change
    log, and times one full drain: the applier computes each view's
    delta against its shadow base state and folds it into the stored
    rows. The alternative -- recomputing every view from scratch per
    batch -- is estimated by timing ``maintenance_recompute_sample``
    full view executions and extrapolating, which is exactly what the
    paper's Section 4 maintenance discussion trades against.
    """
    import random

    from ..cdc import CdcPipeline
    from ..datagen import generate_tpch
    from ..engine.executor import execute

    database = generate_tpch(
        scale=config.maintenance_scale, seed=config.maintenance_data_seed
    )
    orders = database.relation("orders")
    custkeys = sorted({row[1] for row in orders.rows})
    group_columns = (
        "o_custkey", "o_clerk", "o_orderstatus",
        "o_orderpriority", "o_shippriority",
    )
    per_group = -(-config.maintenance_view_count // len(group_columns))
    step = max(len(custkeys) // (per_group + 1), 1)
    bounds = [custkeys[min((i + 1) * step, len(custkeys) - 1)]
              for i in range(per_group)]

    pipeline = CdcPipeline(catalog, database)
    statements = [
        catalog.bind_sql(_maintenance_view_sql(i, group_columns, bounds))
        for i in range(config.maintenance_view_count)
    ]
    start = time.perf_counter()
    for index, statement in enumerate(statements):
        pipeline.register_view(f"bench_mv_{index}", statement)
    register_seconds = time.perf_counter() - start

    # Insert batches: duplicates of sampled orders rows with fresh keys,
    # appended to the change log via the transactional-outbox path.
    rng = random.Random(config.seed)
    key_position = orders.column_position("o_orderkey")
    next_key = max(row[key_position] for row in orders.rows) + 1
    batches = []
    for _ in range(config.maintenance_insert_batches):
        batch = []
        for _ in range(config.maintenance_batch_rows):
            template = list(rng.choice(orders.rows))
            template[key_position] = next_key
            next_key += 1
            batch.append(tuple(template))
        batches.append(batch)
    for batch in batches:
        pipeline.insert("orders", batch)

    start = time.perf_counter()
    pipeline.drain()
    incremental_seconds = time.perf_counter() - start
    rows_applied = sum(len(batch) for batch in batches)
    stats = pipeline.stats.snapshot()

    # Full-recompute estimate: time a sample of complete view
    # executions against the live table, extrapolate to the pool.
    sample_step = max(
        len(statements) // config.maintenance_recompute_sample, 1
    )
    sample = statements[::sample_step][:config.maintenance_recompute_sample]
    start = time.perf_counter()
    for statement in sample:
        execute(statement, database)
    sample_seconds = time.perf_counter() - start
    recompute_cycle_seconds = (
        sample_seconds / len(sample) * len(statements)
    )
    per_batch_seconds = incremental_seconds / len(batches)
    section = {
        "views": config.maintenance_view_count,
        "base_rows": len(orders.rows),
        "insert_batches": len(batches),
        "rows_applied": rows_applied,
        "register_seconds": round(register_seconds, 3),
        "incremental_seconds": round(incremental_seconds, 3),
        "incremental_rows_per_second": round(
            rows_applied / incremental_seconds, 1
        ),
        "recompute_sample": len(sample),
        "recompute_cycle_seconds": round(recompute_cycle_seconds, 3),
        # One insert batch kept every view fresh in per_batch_seconds;
        # the recompute alternative pays the full cycle per batch.
        "speedup_vs_recompute": round(
            recompute_cycle_seconds / per_batch_seconds, 1
        ),
        "applier": stats,
    }
    if echo is not None:
        echo(
            f"maintenance at {section['views']} views: "
            f"{section['incremental_rows_per_second']:,.0f} rows/s "
            f"incremental ({incremental_seconds:.2f}s for "
            f"{rows_applied} rows), full recompute cycle est. "
            f"{recompute_cycle_seconds:.2f}s "
            f"({section['speedup_vs_recompute']:.0f}x per batch)"
        )
    return section


def _environment() -> dict:
    """Host/backend facts stamped into the report.

    ``cpu_count`` and the numpy presence/version matter for interpreting
    any entry: the end-to-end fan-out gate keys off the core count, and
    the candidate-filter numbers differ between the ``packed-numpy`` and
    ``packed-pure`` sweep backends.
    """
    try:
        import numpy  # noqa: F401 -- presence probe, may be absent

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        # ``cpu_count`` is the *usable* core count (cpuset/affinity
        # aware) -- the one every parallel gate keys off; the host's
        # logical count is kept alongside for provenance.
        "cpu_count": effective_cpu_count(),
        "cpu_count_logical": os.cpu_count() or 1,
        "numpy": numpy_version,
        "packed_backend": packed_backend_name(),
    }


def _measure_cache_memory(catalog, stats, views, queries) -> dict:
    """Bytes-per-entry of the rewrite cache after a small serving run.

    Registers a modest view pool and serves each workload query once, so
    every entry is a real ``OptimizationResult`` over this catalog; the
    per-entry figure barely depends on the pool size, so 200 views keep
    this cheap inside the bench.
    """
    from ..service.server import ViewServer

    pool = views[: min(200, len(views))]
    server = ViewServer(catalog, stats, workers=1)
    try:
        server.register_views(
            (name, generated.statement) for name, generated in pool
        )
        for statement in queries:
            server.serve(statement_to_sql(statement))
        report = cache_memory_report(server.cache, exclude=(catalog, stats))
    finally:
        server.close()
    report["views_registered"] = len(pool)
    return report


def _measure_telemetry_overhead(
    config, catalog, stats, views, queries, echo
) -> dict | None:
    """On/off cost of the workload recorder + SLO tracker; self-normalized.

    Serves the same query list through two identically configured
    servers -- one plain, one with an SLO tracker and a journaling
    recorder attached -- and reports the relative slowdown. Both sides
    carry the always-on matcher sketches (those are the pipeline's
    baseline, gated implicitly by the tracing-overhead check), so the
    fraction isolates the per-request observation cost the telemetry
    subsystem adds: one SLO ring update and one JSON line per request.
    The ratio is measured within one process, so no calibration
    normalization is needed.
    """
    if not config.telemetry_overhead_views:
        return None
    import tempfile

    from ..obs.recorder import WorkloadRecorder
    from ..obs.slo import SloObjectives
    from ..service import ViewServer

    pool = views[: min(config.telemetry_overhead_views, len(views))]
    definitions = [(name, view.statement) for name, view in pool]
    sqls = [statement_to_sql(query) for query in queries]

    def serve_time(server) -> float:
        for sql in sqls:  # warm memos outside the timed runs
            server.serve(sql)
        best = float("inf")
        for _ in range(config.telemetry_overhead_runs):
            started = time.perf_counter()
            for sql in sqls:
                server.serve(sql)
            best = min(best, time.perf_counter() - started)
        return best * 1000.0

    with ViewServer(
        catalog, stats, workers=1, cache_enabled=False
    ) as plain:
        plain.register_views(definitions)
        off_ms = serve_time(plain)
    with tempfile.TemporaryDirectory() as tmpdir, ViewServer(
        catalog,
        stats,
        workers=1,
        cache_enabled=False,
        slo=SloObjectives(),
    ) as instrumented:
        instrumented.register_views(definitions)
        recorder = WorkloadRecorder(os.path.join(tmpdir, "journal.jsonl"))
        instrumented.attach_recorder(recorder)
        on_ms = serve_time(instrumented)
        recorder.close()
    overhead = on_ms / off_ms - 1.0
    section = {
        "views": len(pool),
        "queries": len(sqls),
        "runs": config.telemetry_overhead_runs,
        "telemetry_off_ms": round(off_ms, 2),
        "telemetry_on_ms": round(on_ms, 2),
        "overhead_fraction": round(overhead, 4),
    }
    if echo is not None:
        echo(
            f"telemetry overhead at {len(pool)} views: "
            f"off {off_ms:8.1f}ms   on {on_ms:8.1f}ms   "
            f"({overhead:+.1%})"
        )
    return section


def _run_pool_bench(config: "HotpathConfig", echo) -> dict:
    """The sustained-load serving-pool point (see ``service.loadgen``)."""
    from ..service.loadgen import PoolBenchConfig, run_pool_benchmark

    bench = PoolBenchConfig(
        views=config.pool_views,
        queries=config.pool_queries,
        passes=config.pool_passes,
        workers=config.pool_workers,
        seed=config.seed,
        scale=config.pool_scale,
        churn_cycles=config.pool_churn_cycles,
    )
    report = run_pool_benchmark(bench, echo=None)
    if echo is not None:
        echo(
            f"serving pool at {bench.views} views: "
            f"{report.pool.throughput:.0f}/s vs "
            f"{report.fork_batch.throughput:.0f}/s fork-per-batch "
            f"({report.throughput_ratio:.2f}x), p99 "
            f"{report.pool.percentile(0.99) * 1e3:.0f}ms vs "
            f"{report.fork_batch.percentile(0.99) * 1e3:.0f}ms "
            f"({report.p99_ratio:.2f}x), {report.swaps} live swaps"
        )
    return report.to_dict()


def _run_catalog_scale(
    config, catalog, stats, queries, sizes, echo
) -> dict | None:
    """The 100k-view point: packed/interned path only.

    A fresh generator with the config seed reproduces the main pool as a
    prefix and extends it to ``catalog_scale_views``. Only the interned
    matcher is built (the reference tree at this size would dominate the
    whole bench); correctness of the packed path against the reference is
    pinned at the sweep sizes and by the property tests, so this point
    measures scale, not equivalence. ``filter_scaleup`` relates the
    per-query latency to the largest sweep entry: sublinear python-level
    work shows up as a scaleup well under the view-count ratio.
    """
    target = config.catalog_scale_views
    if not target:
        return None
    generator = WorkloadGenerator(catalog, stats, seed=config.seed)
    started = time.perf_counter()
    pool = generator.generate_views(target)
    generate_seconds = time.perf_counter() - started
    started = time.perf_counter()
    matcher = _build_matcher(catalog, pool, use_interning=True)
    register_seconds = time.perf_counter() - started
    descriptions = [matcher.describe_query(q) for q in queries]
    filter_us = _time_filter(
        matcher.filter_tree,
        descriptions,
        config.catalog_scale_repetitions,
        config.catalog_scale_runs,
    )
    mean_candidates = sum(
        len(matcher.filter_tree.candidates(d)) for d in descriptions
    ) / len(descriptions)
    match_us = _time_match(matcher, descriptions, 1, config.catalog_scale_runs)
    entry = {
        "views": target,
        "generate_seconds": round(generate_seconds, 2),
        "register_seconds": round(register_seconds, 2),
        "registrations_per_second": round(target / register_seconds, 1),
        "candidate_filter_us": round(filter_us, 2),
        "ns_per_view": round(filter_us * 1000.0 / target, 3),
        "mean_candidates": round(mean_candidates, 2),
        "packed_table_bytes": packed_table_bytes(matcher.filter_tree),
    }
    base = max(sizes, key=lambda item: item["views"]) if sizes else None
    if base is not None:
        base_us = base["candidate_filter_us"]["interned"]
        entry["filter_scaleup"] = {
            "vs_views": base["views"],
            "view_ratio": round(target / base["views"], 2),
            "latency_ratio": round(filter_us / base_us, 2),
        }
    if echo is not None:
        scaleup = entry.get("filter_scaleup")
        note = (
            f"   {scaleup['latency_ratio']:.2f}x latency for "
            f"{scaleup['view_ratio']:.0f}x views"
            if scaleup
            else ""
        )
        echo(
            f"{target:6d} views (catalog scale): filter "
            f"{filter_us:8.1f}us ({entry['ns_per_view']:.2f}ns/view)   "
            f"match {match_us:8.1f}us   "
            f"register {register_seconds:.1f}s{note}"
        )
    return entry


def run_hotpath_benchmark(
    config: HotpathConfig | None = None, echo=print
) -> dict:
    """Run the sweep; returns the JSON-serializable report dict."""
    config = config or HotpathConfig()
    catalog = tpch_catalog()
    stats = synthetic_tpch_stats(scale=config.scale)
    generator = WorkloadGenerator(catalog, stats, seed=config.seed)
    views = generator.generate_views(
        max(config.view_counts + config.end_to_end_view_counts)
    )
    queries = [
        q.statement for q in generator.generate_queries(config.query_count)
    ]

    sizes = []
    memory_views = None
    calibrations = [_calibrate()]
    for view_count in config.view_counts:
        pool = views[:view_count]
        interned = _build_matcher(catalog, pool, use_interning=True)
        reference = _build_matcher(catalog, pool, use_interning=False)
        descriptions = [interned.describe_query(q) for q in queries]

        # Probe compilation, timed both ways on the same descriptions:
        # the fused single-pass compiler against the preserved multi-walk
        # reference pipeline (verified to produce identical probes).
        _verify_probes(descriptions, interned.options)
        probe_fast = _time_probe(
            descriptions,
            interned.options,
            QueryProbe.of,
            config.probe_repetitions,
            config.probe_runs,
        )
        probe_reference = _time_probe(
            descriptions,
            interned.options,
            QueryProbe.of_reference,
            config.probe_repetitions,
            config.probe_runs,
        )

        funnel, _ = _verify_modes(interned, reference, descriptions)

        interned_filter = _time_filter(
            interned.filter_tree,
            descriptions,
            config.filter_repetitions,
            config.filter_runs,
        )
        reference_filter = _time_filter(
            reference.filter_tree,
            descriptions,
            config.filter_repetitions,
            config.filter_runs,
        )
        interned_match = _time_match(
            interned, descriptions, config.match_repetitions, config.match_runs
        )
        reference = None

        mean_candidates = sum(
            len(interned.filter_tree.candidates(d)) for d in descriptions
        ) / len(descriptions)
        entry = {
            "views": view_count,
            "queries": len(descriptions),
            "mean_candidates": round(mean_candidates, 2),
            "probe_build_us": {
                "fast": round(probe_fast, 2),
                "reference": round(probe_reference, 2),
                "speedup": round(probe_reference / probe_fast, 2),
            },
            "candidate_filter_us": {
                "interned": round(interned_filter, 2),
                "reference": round(reference_filter, 2),
                "speedup": round(reference_filter / interned_filter, 2),
            },
            # The key predates view records; the committed baseline and
            # the tracing-overhead gate read it.
            "full_match_us": {"with_contexts": round(interned_match, 2)},
            "funnel": funnel,
            "modes_identical": True,  # _verify_modes raised otherwise
        }
        sizes.append(entry)
        if config.measure_memory and view_count == max(config.view_counts):
            memory_views = view_memory_report(
                interned.filter_tree,
                exclude=(catalog, stats, interned.options),
            )
        calibrations.append(_calibrate())
        if echo is not None:
            probe = entry["probe_build_us"]
            filt = entry["candidate_filter_us"]
            full = entry["full_match_us"]
            echo(
                f"{view_count:5d} views: probe {probe['fast']:7.1f}us vs "
                f"{probe['reference']:7.1f}us ({probe['speedup']:.2f}x)   "
                f"filter {filt['interned']:8.1f}us "
                f"vs {filt['reference']:8.1f}us ({filt['speedup']:.2f}x)   "
                f"match {full['with_contexts']:8.1f}us"
            )

    end_to_end = (
        _run_end_to_end(config, catalog, stats, views, queries, echo)
        if config.end_to_end_view_counts
        else []
    )

    maintenance = (
        _run_maintenance(config, catalog, echo)
        if config.maintenance_view_count
        else None
    )

    memory = None
    if config.measure_memory and memory_views is not None:
        memory = {
            "views": memory_views,
            "cache": _measure_cache_memory(catalog, stats, views, queries),
        }
        if echo is not None:
            echo(
                f"memory: {memory_views['bytes_per_view']:,.0f} bytes/view "
                f"at {memory_views['views']} views "
                f"({memory_views['packed_table_bytes']:,} packed), "
                f"{memory['cache']['bytes_per_entry']:,.0f} bytes/cache-entry"
            )

    telemetry_overhead = _measure_telemetry_overhead(
        config, catalog, stats, views, queries, echo
    )

    catalog_scale = _run_catalog_scale(
        config, catalog, stats, queries, sizes, echo
    )

    serving_pool = _run_pool_bench(config, echo) if config.pool_views else None
    calibrations.append(_calibrate())

    environment = _environment()
    return {
        "benchmark": "hotpath-matching",
        "config": dataclasses.asdict(config),
        # ``environment`` is the single source of host facts (python,
        # cpu_count, numpy, backend); the old duplicated top-level
        # python/cpu_count fields are gone and readers fall back when
        # consuming pre-dedup baselines.
        "environment": environment,
        "calibration_us": round(min(calibrations), 2),
        "sizes": sizes,
        "memory": memory,
        "catalog_scale": catalog_scale,
        "end_to_end": end_to_end,
        "maintenance": maintenance,
        "telemetry_overhead": telemetry_overhead,
        "serving_pool": serving_pool,
    }


def _report_cpu_count(report: dict) -> int:
    """Usable cores from a report; tolerates pre-dedup baselines.

    Current reports carry the count only under ``environment``; older
    ones duplicated it at the top level.
    """
    environment = report.get("environment") or {}
    return environment.get("cpu_count") or report.get("cpu_count") or 1


def check_against_baseline(
    report: dict, baseline: dict, echo=print
) -> list[str]:
    """Regression check for CI; returns a list of failure messages.

    Compares the interned candidate-filter latency at the largest view
    count measured by *both* reports; a fresh run more than
    ``REGRESSION_FACTOR`` times slower than the committed baseline fails.
    The fast probe-build latency is gated much tighter
    (``PROBE_REGRESSION_TOLERANCE``) but calibration-normalized, so
    host-speed differences divide out instead of eating the budget. The
    interned-vs-reference speedup is reported but not gated here (it is
    gated absolutely by :func:`check_speedup_gates`).
    """
    failures: list[str] = []
    fresh_by_views = {entry["views"]: entry for entry in report["sizes"]}
    base_by_views = {entry["views"]: entry for entry in baseline["sizes"]}
    shared = sorted(set(fresh_by_views) & set(base_by_views))
    if not shared:
        return [
            "no common view count between fresh run "
            f"{sorted(fresh_by_views)} and baseline {sorted(base_by_views)}"
        ]
    views = shared[-1]
    fresh_us = fresh_by_views[views]["candidate_filter_us"]["interned"]
    base_us = base_by_views[views]["candidate_filter_us"]["interned"]
    limit = base_us * REGRESSION_FACTOR
    if echo is not None:
        echo(
            f"baseline check at {views} views: fresh {fresh_us:.1f}us, "
            f"baseline {base_us:.1f}us, limit {limit:.1f}us"
        )
    if fresh_us > limit:
        failures.append(
            f"candidate filtering at {views} views regressed: "
            f"{fresh_us:.1f}us > {REGRESSION_FACTOR:g}x baseline "
            f"({base_us:.1f}us)"
        )
    failures.extend(_check_probe_regression(report, baseline, views, echo))
    failures.extend(_check_maintenance_regression(report, baseline, echo))
    failures.extend(_check_pool_regression(report, baseline, echo))
    return failures


def check_pool_slo(
    report: dict, baseline: dict | None = None, echo=print
) -> list[str]:
    """The serving-pool SLO gate; returns failure messages.

    In-run, host-independent gates on the ``serving_pool`` section:

    * zero failed requests in either serving mode (a pool that sheds or
      errors under sustained load fails outright, whatever its speed);
    * the pool's sustained throughput and p99 latency must beat
      fork-per-batch (``POOL_RATIO_FLOOR``) on hosts with at least
      ``POOL_MIN_CORES`` cores; single-core hosts get the
      noise-absorbing ``POOL_SINGLE_CORE_RATIO_FLOOR`` instead. The
      ratio gates need a real catalog (``POOL_GATE_MIN_VIEWS``) --
      smoke-sized sections report but do not gate the ratios.

    With ``baseline``, additionally applies the calibration-normalized
    regression gates (:func:`_check_pool_regression`).
    """
    failures: list[str] = []
    pool = report.get("serving_pool")
    if not pool:
        if echo is not None:
            echo("pool SLO check skipped: report has no serving_pool section")
        return failures
    for mode in ("pool", "fork_batch"):
        failed = pool[mode]["failures"]
        if failed:
            failures.append(
                f"serving-pool bench: {failed} failed requests in the "
                f"{mode} run (must be 0)"
            )
    if pool["views"] < POOL_GATE_MIN_VIEWS:
        if echo is not None:
            echo(
                f"pool ratio gates skipped: {pool['views']} views is a "
                f"smoke-sized run (< {POOL_GATE_MIN_VIEWS}); ratios were "
                f"{pool['throughput_ratio']:.2f}x throughput, "
                f"{pool['p99_ratio']:.2f}x p99"
            )
        if baseline is not None:
            failures.extend(_check_pool_regression(report, baseline, echo))
        return failures
    cores = _report_cpu_count(report)
    single_core = cores < POOL_MIN_CORES
    floor = POOL_SINGLE_CORE_RATIO_FLOOR if single_core else POOL_RATIO_FLOOR
    note = " (single-core host)" if single_core else ""
    for name, ratio in (
        ("throughput", pool["throughput_ratio"]),
        ("p99 latency", pool["p99_ratio"]),
    ):
        if echo is not None:
            echo(
                f"pool SLO gate at {pool['views']} views: {name} ratio "
                f"{ratio:.2f}x vs fork-per-batch (floor {floor:g}x){note}"
            )
        if ratio < floor:
            failures.append(
                f"serving pool at {pool['views']} views: {name} ratio "
                f"{ratio:.2f}x vs fork-per-batch is under the "
                f"{floor:g}x floor{note}"
            )
    if baseline is not None:
        failures.extend(_check_pool_regression(report, baseline, echo))
    return failures


def _check_pool_regression(
    report: dict, baseline: dict, echo=print
) -> list[str]:
    """Serving-pool throughput/p99 vs. the committed baseline.

    Calibration-normalized like the maintenance gate: throughput is
    multiplied by the run's own ``calibration_us`` (work per host-speed
    unit, invariant across machines) and may drop to at most
    ``1 / REGRESSION_FACTOR`` of the baseline; p99 latency is divided by
    ``calibration_us`` and may grow to at most ``REGRESSION_FACTOR``
    times the baseline. Skipped with a note when the baseline predates
    the section or measured a different configuration -- regenerate with
    ``bench-hotpath --output``.
    """
    fresh = report.get("serving_pool")
    base = baseline.get("serving_pool")
    if not fresh:
        return []
    if not base:
        if echo is not None:
            echo(
                "pool regression check skipped: baseline has no "
                "serving_pool section; regenerate with --output"
            )
        return []
    if (base.get("views"), base.get("workers")) != (
        fresh.get("views"),
        fresh.get("workers"),
    ):
        if echo is not None:
            echo(
                "pool regression check skipped: baseline measured "
                f"{base.get('views')} views / {base.get('workers')} "
                f"workers, fresh run {fresh.get('views')} / "
                f"{fresh.get('workers')}"
            )
        return []
    fresh_calibration = report.get("calibration_us")
    base_calibration = baseline.get("calibration_us")
    if not fresh_calibration or not base_calibration:
        return [
            "pool regression check needs calibration_us in both reports; "
            "regenerate the baseline with bench-hotpath --output"
        ]
    failures: list[str] = []
    # requests/sec x host-speed proxy: invariant across machines.
    fresh_thr = fresh["pool"]["throughput_rps"] * fresh_calibration
    base_thr = base["pool"]["throughput_rps"] * base_calibration
    floor = base_thr / REGRESSION_FACTOR
    if echo is not None:
        echo(
            f"pool throughput check at {fresh['views']} views: fresh "
            f"{fresh_thr:,.0f} norm-req/s, baseline {base_thr:,.0f}, "
            f"floor {floor:,.0f}"
        )
    if fresh_thr < floor:
        failures.append(
            f"serving-pool throughput at {fresh['views']} views regressed: "
            f"{fresh_thr:,.0f} norm-req/s is under 1/{REGRESSION_FACTOR:g} "
            f"of baseline ({base_thr:,.0f})"
        )
    # latency / host-speed proxy, smaller is better.
    fresh_p99 = fresh["pool"]["p99_ms"] / fresh_calibration
    base_p99 = base["pool"]["p99_ms"] / base_calibration
    limit = base_p99 * REGRESSION_FACTOR
    if echo is not None:
        echo(
            f"pool p99 check at {fresh['views']} views: fresh "
            f"{fresh_p99:.3f} norm-ms, baseline {base_p99:.3f}, "
            f"limit {limit:.3f}"
        )
    if fresh_p99 > limit:
        failures.append(
            f"serving-pool p99 at {fresh['views']} views regressed: "
            f"{fresh_p99:.3f} norm-ms is over {REGRESSION_FACTOR:g}x "
            f"baseline ({base_p99:.3f})"
        )
    return failures


def _check_maintenance_regression(
    report: dict, baseline: dict, echo=print
) -> list[str]:
    """Incremental maintenance throughput vs. the committed baseline.

    Gates the rows/sec the CDC applier sustained at the benchmark's view
    count: a fresh run slower than ``1 / REGRESSION_FACTOR`` of the
    baseline fails. Both throughputs are calibration-normalized
    (multiplied by their own run's ``calibration_us``) so host speed
    divides out. Skipped with a note when the baseline predates the
    maintenance section or measured a different view count -- regenerate
    with ``--output``.
    """
    fresh = report.get("maintenance")
    base = baseline.get("maintenance")
    if not fresh:
        return []
    if not base:
        if echo is not None:
            echo(
                "maintenance check skipped: baseline has no maintenance "
                "section; regenerate with --output"
            )
        return []
    if base.get("views") != fresh.get("views"):
        if echo is not None:
            echo(
                "maintenance check skipped: baseline measured "
                f"{base.get('views')} views, fresh run "
                f"{fresh.get('views')}"
            )
        return []
    fresh_calibration = report.get("calibration_us")
    base_calibration = baseline.get("calibration_us")
    if not fresh_calibration or not base_calibration:
        return [
            "maintenance check needs calibration_us in both reports; "
            "regenerate the baseline with bench-hotpath --output"
        ]
    # rows/sec x host-speed proxy: invariant across machines.
    fresh_norm = fresh["incremental_rows_per_second"] * fresh_calibration
    base_norm = base["incremental_rows_per_second"] * base_calibration
    floor = base_norm / REGRESSION_FACTOR
    if echo is not None:
        echo(
            f"maintenance check at {fresh['views']} views: fresh "
            f"{fresh_norm:,.0f} norm-rows/s, baseline {base_norm:,.0f}, "
            f"floor {floor:,.0f}"
        )
    if fresh_norm < floor:
        return [
            f"incremental maintenance at {fresh['views']} views "
            f"regressed: {fresh_norm:,.0f} normalized rows/s < "
            f"1/{REGRESSION_FACTOR:g} of baseline ({base_norm:,.0f})"
        ]
    return []


def _check_probe_regression(
    report: dict, baseline: dict, views: int, echo=print
) -> list[str]:
    """Probe-build regression vs. the committed baseline (>25 % fails).

    Both latencies are normalized by their own run's ``calibration_us``
    so the tight budget measures the code, not the host. Baselines from
    before the fast/reference probe split (scalar ``probe_build_us``)
    are skipped with a note -- regenerate with ``--output``.
    """
    fresh_entry = {e["views"]: e for e in report["sizes"]}[views]
    base_entry = {e["views"]: e for e in baseline["sizes"]}[views]
    base_probe = base_entry.get("probe_build_us")
    fresh_calibration = report.get("calibration_us")
    base_calibration = baseline.get("calibration_us")
    if not isinstance(base_probe, dict):
        if echo is not None:
            echo(
                "probe-build check skipped: baseline predates the "
                "fast/reference split; regenerate with --output"
            )
        return []
    if not fresh_calibration or not base_calibration:
        return [
            "probe-build check needs calibration_us in both reports; "
            "regenerate the baseline with bench-hotpath --output"
        ]
    fresh_ratio = fresh_entry["probe_build_us"]["fast"] / fresh_calibration
    base_ratio = base_probe["fast"] / base_calibration
    limit = base_ratio * (1.0 + PROBE_REGRESSION_TOLERANCE)
    if echo is not None:
        echo(
            f"probe-build check at {views} views: fresh "
            f"{fresh_ratio:.3f}x-cal, baseline {base_ratio:.3f}x-cal, "
            f"limit {limit:.3f}x-cal"
        )
    if fresh_ratio > limit:
        return [
            f"probe building at {views} views regressed: "
            f"{fresh_ratio:.3f}x calibration > baseline "
            f"{base_ratio:.3f}x + {PROBE_REGRESSION_TOLERANCE:.0%}"
        ]
    return []


def check_speedup_gates(report: dict, echo=print) -> list[str]:
    """Absolute in-run speedup gates; returns failure messages.

    * Probe building: the single-pass compiler must beat the preserved
      reference pipeline by ``PROBE_SPEEDUP_FLOOR`` at the 1000-view
      point (both sides timed in-run, so the gate holds on any host).
    * Memory: when the report carries a ``memory`` section, the deep-walk
      bytes per registered view must stay within
      ``MEMORY_BYTES_PER_VIEW_BUDGET`` -- calibration-free, since bytes
      do not depend on host speed.
    """
    failures: list[str] = []
    sizes = {entry["views"]: entry for entry in report["sizes"]}
    if sizes:
        views = 1000 if 1000 in sizes else max(sizes)
        speedup = sizes[views]["probe_build_us"]["speedup"]
        if echo is not None:
            echo(
                f"probe-build speedup gate at {views} views: "
                f"{speedup:.2f}x (floor {PROBE_SPEEDUP_FLOOR:g}x)"
            )
        if speedup < PROBE_SPEEDUP_FLOOR:
            failures.append(
                f"probe building at {views} views is only {speedup:.2f}x "
                f"faster than the reference pipeline "
                f"(floor {PROBE_SPEEDUP_FLOOR:g}x)"
            )
    memory = report.get("memory")
    if memory and memory.get("views"):
        per_view = memory["views"]["bytes_per_view"]
        count = memory["views"]["views"]
        if echo is not None:
            echo(
                f"memory gate at {count} views: {per_view:,.0f} bytes/view "
                f"(budget {MEMORY_BYTES_PER_VIEW_BUDGET:,})"
            )
        # Calibration-free: bytes are host-speed independent, so no
        # normalization is needed (or possible) here.
        if per_view > MEMORY_BYTES_PER_VIEW_BUDGET:
            failures.append(
                f"resident footprint at {count} views is "
                f"{per_view:,.0f} bytes/view, over the "
                f"{MEMORY_BYTES_PER_VIEW_BUDGET:,}-byte budget"
            )
    return failures


def check_tracing_overhead(
    report: dict,
    baseline: dict,
    tolerance: float = TRACING_OVERHEAD_TOLERANCE,
    echo=print,
) -> list[str]:
    """Guard the null-tracer overhead promise; returns failure messages.

    The tracing instrumentation threaded through the filter tree,
    matcher, and optimizer must be a strict no-op when disabled. This
    compares the fresh run's interned candidate-filter and full-match
    latencies (measured with the default null tracer installed) against
    the committed baseline at the largest shared view count, failing on
    a more-than-``tolerance`` relative regression.

    Latencies are first normalized by each run's own ``calibration_us``
    (a fixed pure-Python workload timed in the same process), so
    host-speed and load differences between the baseline machine and
    the gating runner divide out -- without that, wall-clock swings of
    50 % between CI runs would drown a 5 % budget. Both reports must
    carry ``calibration_us``; regenerate the baseline with ``--output``
    if it predates the field.

    The default ``tolerance`` states the promise as measured on a quiet
    host. Shared runners show ~15 % normalized noise between load
    epochs even after calibration, so CI passes a wider
    ``--overhead-tolerance``; the gate then catches the realistic
    failure mode -- a dropped ``tracer.active`` guard putting trace
    construction on the hot path costs 2-10x, far outside any sane
    budget -- rather than the last few percent.
    """
    fresh_calibration = report.get("calibration_us")
    base_calibration = baseline.get("calibration_us")
    if not fresh_calibration or not base_calibration:
        return [
            "tracing-overhead check needs calibration_us in both reports; "
            "regenerate the baseline with bench-hotpath --output"
        ]
    failures: list[str] = []
    fresh_by_views = {entry["views"]: entry for entry in report["sizes"]}
    base_by_views = {entry["views"]: entry for entry in baseline["sizes"]}
    shared = sorted(set(fresh_by_views) & set(base_by_views))
    if not shared:
        return [
            "no common view count between fresh run "
            f"{sorted(fresh_by_views)} and baseline {sorted(base_by_views)}"
        ]
    views = shared[-1]
    checks = (
        (
            "candidate filtering",
            fresh_by_views[views]["candidate_filter_us"]["interned"],
            base_by_views[views]["candidate_filter_us"]["interned"],
        ),
        (
            "full matching",
            fresh_by_views[views]["full_match_us"]["with_contexts"],
            base_by_views[views]["full_match_us"]["with_contexts"],
        ),
    )
    for label, fresh_us, base_us in checks:
        fresh_ratio = fresh_us / fresh_calibration
        base_ratio = base_us / base_calibration
        limit = base_ratio * (1.0 + tolerance)
        if echo is not None:
            echo(
                f"tracing-overhead check ({label}, {views} views): "
                f"fresh {fresh_us:.1f}us/{fresh_ratio:.3f}x-cal, "
                f"baseline {base_us:.1f}us/{base_ratio:.3f}x-cal, "
                f"limit {limit:.3f}x-cal"
            )
        if fresh_ratio > limit:
            failures.append(
                f"{label} at {views} views exceeds the disabled-tracing "
                f"overhead budget: {fresh_ratio:.3f}x calibration > "
                f"baseline {base_ratio:.3f}x + {tolerance:.0%}"
            )
    failures.extend(_check_telemetry_overhead(report, tolerance, echo))
    return failures


def _check_telemetry_overhead(
    report: dict,
    tolerance: float = TELEMETRY_OVERHEAD_TOLERANCE,
    echo=print,
) -> list[str]:
    """Gate the telemetry pipeline's on/off serving overhead.

    Reads the fresh report's ``telemetry_overhead`` section (both sides
    of the ratio are measured in one process, so no baseline or
    calibration is involved) and fails when attaching the recorder +
    SLO tracker slowed serving by more than ``tolerance``. Reports that
    predate the section (or ran with the point disabled) pass -- the CI
    smoke config always measures it.
    """
    section = report.get("telemetry_overhead")
    if not section:
        return []
    overhead = section["overhead_fraction"]
    if echo is not None:
        echo(
            f"telemetry-overhead check ({section['views']} views): "
            f"on {section['telemetry_on_ms']:.1f}ms vs "
            f"off {section['telemetry_off_ms']:.1f}ms "
            f"({overhead:+.1%}, budget {tolerance:.0%})"
        )
    if overhead > tolerance:
        return [
            f"telemetry pipeline overhead {overhead:.1%} exceeds the "
            f"{tolerance:.0%} budget (recorder + SLO attached vs plain "
            f"serving at {section['views']} views)"
        ]
    return []


def profile_hotpath(
    config: HotpathConfig | None = None, top: int = 20, echo=print
) -> None:
    """``cProfile`` the two gated phases and print the top-``top`` rows.

    Profiles probe building (the fused single-pass compiler) and full
    matching separately, at the largest configured view count, so a
    regression flagged by the bench gate can be attributed to a function
    without re-running anything by hand.
    """
    import cProfile
    import io
    import pstats

    config = config or HotpathConfig()
    catalog = tpch_catalog()
    stats = synthetic_tpch_stats(scale=config.scale)
    generator = WorkloadGenerator(catalog, stats, seed=config.seed)
    view_count = max(config.view_counts)
    views = generator.generate_views(view_count)
    queries = [
        q.statement for q in generator.generate_queries(config.query_count)
    ]
    matcher = _build_matcher(catalog, views, use_interning=True)
    descriptions = [matcher.describe_query(q) for q in queries]
    options = matcher.options

    def profile_phase(label, body) -> None:
        body()  # warm caches and memos outside the profile
        profiler = cProfile.Profile()
        profiler.enable()
        body()
        profiler.disable()
        stream = io.StringIO()
        pstats.Stats(profiler, stream=stream).sort_stats(
            "cumulative"
        ).print_stats(top)
        echo(f"--- {label} ({view_count} views, top {top} by cumulative) ---")
        echo(stream.getvalue().rstrip())

    profile_phase(
        "probe build",
        lambda: [
            QueryProbe.of(description, options)
            for _ in range(config.probe_repetitions)
            for description in descriptions
        ],
    )
    profile_phase(
        "full match",
        lambda: [
            matcher.match(description)
            for _ in range(config.match_repetitions)
            for description in descriptions
        ],
    )


def write_report(report: dict, path: str) -> None:
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=False)
        handle.write("\n")


__all__ = [
    "HotpathConfig",
    "HotpathMismatchError",
    "END_TO_END_MIN_CORES",
    "POOL_MIN_CORES",
    "POOL_RATIO_FLOOR",
    "POOL_SINGLE_CORE_RATIO_FLOOR",
    "PROBE_REGRESSION_TOLERANCE",
    "PROBE_SPEEDUP_FLOOR",
    "REGRESSION_FACTOR",
    "TELEMETRY_OVERHEAD_TOLERANCE",
    "TRACING_OVERHEAD_TOLERANCE",
    "check_against_baseline",
    "check_pool_slo",
    "check_speedup_gates",
    "check_tracing_overhead",
    "profile_hotpath",
    "run_hotpath_benchmark",
    "write_report",
]
