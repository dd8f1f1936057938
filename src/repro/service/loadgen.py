"""Closed-loop load generation for the rewrite-serving benchmark.

Drives a :class:`~repro.service.server.ViewServer` the way `repro
serve-bench` and ``benchmarks/bench_service.py`` need: generate a TPC-H
workload (Section 5 generator), register the view pool through the
server, then replay the query batch for several passes from N concurrent
closed-loop workers -- each worker keeps exactly one request in flight,
so offered load adapts to service rate instead of overrunning the queue.

The benchmark runs the same schedule twice, cache enabled and disabled,
and reports the cache hit rate and the median/percentile rewrite
latencies of both runs side by side. The first pass over the batch is
all misses, every later pass should hit, so with ``repeat`` passes the
expected hit rate is ``(repeat - 1) / repeat``. Beside it,
:func:`measure_telemetry_overhead` times serving with and without the
workload recorder and SLO tracker, and ``serve-bench`` fails when that
costs more than :data:`TELEMETRY_OVERHEAD_TOLERANCE`.

The pool benchmark (:func:`run_pool_benchmark`) carries its own gates:
:func:`check_pool_slo` (zero failures, an applied swap) and, against a
committed report such as ``BENCH_pool.json``, the
calibration-normalized throughput and p99 bounds.
"""

from __future__ import annotations

import itertools
import os
import statistics as stats_module
import tempfile
import threading
import time
from dataclasses import dataclass, field

from ..catalog.tpch import tpch_catalog
from ..sql.printer import statement_to_sql
from ..stats.tpch_synthetic import synthetic_tpch_stats
from ..workload.generator import WorkloadGenerator
from .server import ServedResult, ViewServer


@dataclass(frozen=True)
class BenchConfig:
    """Knobs of one serve-bench run."""

    views: int = 100
    queries: int = 25
    repeat: int = 8
    workers: int = 4
    seed: int = 42
    scale: float = 0.5
    cache_size: int = 4096
    # When set, the cache-enabled run journals every served request to
    # this path (``repro.obs.recorder`` JSONL), ready for
    # ``repro workload-report`` / ``repro-top --journal``.
    journal: str | None = None

    @classmethod
    def smoke(cls) -> "BenchConfig":
        """A reduced configuration that finishes in a few seconds.

        Used by CI so the serving path cannot silently rot; keeps
        ``repeat`` high enough that the expected hit rate stays above the
        80 % acceptance bar.
        """
        return cls(views=20, queries=8, repeat=6, workers=2, scale=0.1)


@dataclass
class LoadRunResult:
    """What one closed-loop run over the schedule produced."""

    results: list[ServedResult] = field(default_factory=list)
    client_seconds: list[float] = field(default_factory=list)
    wall_seconds: float = 0.0

    @property
    def served(self) -> int:
        """Requests that produced a plan."""
        return sum(1 for r in self.results if r.ok)

    @property
    def failures(self) -> int:
        """Requests that errored, timed out, or were shed."""
        return len(self.results) - self.served

    def serve_latencies(self) -> list[float]:
        """Server-side rewrite latencies (seconds) of successful requests."""
        return [r.latency_seconds for r in self.results if r.ok]

    def median_latency(self) -> float:
        """Median server-side rewrite latency in seconds (0.0 when empty)."""
        latencies = self.serve_latencies()
        return stats_module.median(latencies) if latencies else 0.0

    @property
    def throughput(self) -> float:
        """Successful requests per wall-clock second."""
        return self.served / self.wall_seconds if self.wall_seconds else 0.0


def run_closed_loop(
    server: ViewServer, schedule: list[str], workers: int
) -> LoadRunResult:
    """Replay ``schedule`` against ``server`` from N closed-loop threads.

    Each worker repeatedly claims the next schedule index and blocks on
    ``submit`` until the response arrives -- one outstanding request per
    worker, the classic closed-loop harness shape.
    """
    run = LoadRunResult()
    next_index = itertools.count()
    lock = threading.Lock()

    def worker() -> None:
        local_results: list[ServedResult] = []
        local_latencies: list[float] = []
        while True:
            index = next(next_index)
            if index >= len(schedule):
                break
            started = time.perf_counter()
            result = server.submit(schedule[index])
            local_latencies.append(time.perf_counter() - started)
            local_results.append(result)
        with lock:
            run.results.extend(local_results)
            run.client_seconds.extend(local_latencies)

    threads = [
        threading.Thread(target=worker, name=f"loadgen-{i}")
        for i in range(workers)
    ]
    wall_started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    run.wall_seconds = time.perf_counter() - wall_started
    return run


@dataclass
class BenchReport:
    """The serve-bench outcome: both runs plus the derived headline numbers."""

    config: BenchConfig
    cached: LoadRunResult
    baseline: LoadRunResult
    hit_rate: float
    cached_server_report: str

    @property
    def median_cached_ms(self) -> float:
        """Median rewrite latency with the cache enabled, in milliseconds."""
        return self.cached.median_latency() * 1e3

    @property
    def median_baseline_ms(self) -> float:
        """Median rewrite latency with the cache disabled, in milliseconds."""
        return self.baseline.median_latency() * 1e3

    @property
    def speedup(self) -> float:
        """Baseline median over cached median (0.0 when degenerate)."""
        cached = self.cached.median_latency()
        return self.baseline.median_latency() / cached if cached else 0.0

    def render(self) -> str:
        """The benchmark's printed output (headline numbers first)."""
        c = self.config
        lines = [
            f"serve-bench: {c.views} views, {c.queries} queries x "
            f"{c.repeat} passes, {c.workers} workers, seed {c.seed}",
            f"cache hit-rate:            {self.hit_rate:.1%}",
            f"median rewrite latency:    {self.median_cached_ms:.3f} ms "
            f"(cached) vs {self.median_baseline_ms:.3f} ms (no cache)",
            f"median latency speedup:    {self.speedup:.1f}x",
            f"throughput:                {self.cached.throughput:.0f}/s "
            f"(cached) vs {self.baseline.throughput:.0f}/s (no cache)",
            f"failures:                  {self.cached.failures} (cached), "
            f"{self.baseline.failures} (no cache)",
            "",
            "-- cached server --",
            self.cached_server_report,
        ]
        return "\n".join(lines)


def build_workload(config: BenchConfig) -> tuple[list[tuple[str, str]], list[str]]:
    """Generate the view pool and query batch as SQL text.

    Returns ``(views, queries)`` where views are ``(name, sql)`` pairs.
    Queries go through the printer and back through the server's parser,
    so the benchmark exercises the full serving path including parse and
    fingerprint stages.
    """
    catalog = tpch_catalog()
    stats = synthetic_tpch_stats(scale=config.scale)
    generator = WorkloadGenerator(catalog, stats, seed=config.seed)
    views = [
        (name, statement_to_sql(generated.statement))
        for name, generated in generator.generate_views(config.views)
    ]
    queries = [
        statement_to_sql(generated.statement)
        for generated in generator.generate_queries(config.queries)
    ]
    return views, queries


def _run_one(
    config: BenchConfig,
    views: list[tuple[str, str]],
    schedule: list[str],
    cache_enabled: bool,
    recorder=None,
) -> tuple[LoadRunResult, ViewServer]:
    catalog = tpch_catalog()
    stats = synthetic_tpch_stats(scale=config.scale)
    server = ViewServer(
        catalog,
        stats,
        workers=config.workers,
        queue_depth=max(4 * config.workers, 16),
        cache_size=config.cache_size,
        cache_enabled=cache_enabled,
    )
    if recorder is not None:
        server.attach_recorder(recorder)
    try:
        for name, sql in views:
            server.register_view(name, sql)
        run = run_closed_loop(server, schedule, config.workers)
    finally:
        server.close()
    return run, server


def run_service_benchmark(
    config: BenchConfig | None = None, echo=print
) -> BenchReport:
    """Run the full serve-bench comparison and print its report.

    Pass ``echo=None`` to suppress printing (tests); the returned
    :class:`BenchReport` carries every number either way.
    """
    config = config or BenchConfig()
    views, queries = build_workload(config)
    schedule = queries * config.repeat
    recorder = None
    if config.journal:
        from ..obs.recorder import WorkloadRecorder

        recorder = WorkloadRecorder(config.journal)
    try:
        cached_run, cached_server = _run_one(
            config, views, schedule, cache_enabled=True, recorder=recorder
        )
    finally:
        if recorder is not None:
            recorder.close()
    baseline_run, _ = _run_one(config, views, schedule, cache_enabled=False)
    assert cached_server.cache is not None
    report = BenchReport(
        config=config,
        cached=cached_run,
        baseline=baseline_run,
        hit_rate=cached_server.cache.statistics.hit_rate,
        cached_server_report=cached_server.report(),
    )
    if echo is not None:
        echo(report.render())
    return report


# Budget for the always-on telemetry pipeline: serving the same workload
# with the workload recorder + SLO tracker attached may be at most this
# fraction slower than without them. Measured as an on/off ratio in one
# process, so host speed divides out by construction (no calibration
# needed); the cache is disabled on both sides so the comparison times
# real rewrite work rather than journal writes against cache probes.
TELEMETRY_OVERHEAD_TOLERANCE = 0.25
# The workload the budget is measured on, whatever serve-bench's own
# options: best of TELEMETRY_RUNS timed passes over this view pool.
TELEMETRY_WORKLOAD = BenchConfig(views=200, queries=25)
TELEMETRY_RUNS = 3


def measure_telemetry_overhead(echo=print) -> dict:
    """On/off cost of the workload recorder + SLO tracker; self-normalized.

    Serves the same query list through two identically configured
    servers (cache off) -- one plain, one with an SLO tracker and a
    journaling recorder attached -- and reports the relative slowdown
    of the best of ``TELEMETRY_RUNS`` timed passes. Both sides carry the
    always-on matcher sketches, so the fraction isolates the per-request
    observation cost the telemetry subsystem adds: one SLO ring update
    and one JSON line per request.
    """
    from ..obs.recorder import WorkloadRecorder
    from ..obs.slo import SloObjectives

    definitions, sqls = build_workload(TELEMETRY_WORKLOAD)
    catalog = tpch_catalog()
    stats = synthetic_tpch_stats(scale=TELEMETRY_WORKLOAD.scale)

    def serve_time(server) -> float:
        for sql in sqls:  # warm memos outside the timed runs
            server.serve(sql)
        best = float("inf")
        for _ in range(TELEMETRY_RUNS):
            started = time.perf_counter()
            for sql in sqls:
                server.serve(sql)
            best = min(best, time.perf_counter() - started)
        return best * 1000.0

    with ViewServer(catalog, stats, workers=1, cache_enabled=False) as plain:
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
        "views": len(definitions),
        "queries": len(sqls),
        "runs": TELEMETRY_RUNS,
        "telemetry_off_ms": round(off_ms, 2),
        "telemetry_on_ms": round(on_ms, 2),
        "overhead_fraction": round(overhead, 4),
    }
    if echo is not None:
        echo(
            f"telemetry overhead at {len(definitions)} views: "
            f"off {off_ms:8.1f}ms   on {on_ms:8.1f}ms   "
            f"({overhead:+.1%})"
        )
    return section


def check_telemetry_overhead(
    section: dict | None,
    tolerance: float = TELEMETRY_OVERHEAD_TOLERANCE,
    echo=print,
) -> list[str]:
    """Gate the telemetry pipeline's on/off serving overhead.

    ``section`` is :func:`measure_telemetry_overhead`'s result (both
    sides of the ratio come from one process, so no baseline or
    calibration is involved); fails when attaching the recorder + SLO
    tracker slowed serving by more than ``tolerance``. ``None`` passes.
    """
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


# ---------------------------------------------------------------------------
# Sustained-load pool benchmark


@dataclass(frozen=True)
class PoolBenchConfig:
    """Knobs of one pool-bench run (``repro pool-bench``).

    The benchmark replays the same distinct-query batch for
    ``warmup_passes + passes`` passes through one server's
    :meth:`ViewServer.start_pool` persistent workers (cache disabled, so
    every request really optimizes), with ``churn_cycles`` epoch swaps
    injected between timed passes to prove swaps do not stall the fleet.

    Throughput is the median per-pass rate (robust to scheduler noise on
    small hosts), latency percentiles are over per-request server-side
    latencies.
    """

    views: int = 1000
    queries: int = 25
    passes: int = 8
    warmup_passes: int = 2
    workers: int = 2
    seed: int = 42
    scale: float = 0.5
    churn_cycles: int = 2

    @classmethod
    def smoke(cls) -> "PoolBenchConfig":
        """A reduced configuration that finishes in a few seconds (CI)."""
        return cls(
            views=40,
            queries=8,
            passes=4,
            warmup_passes=1,
            scale=0.1,
            churn_cycles=1,
        )


@dataclass
class PoolRunStats:
    """The pool's sustained-load numbers."""

    served: int = 0
    failures: int = 0
    latencies: list[float] = field(default_factory=list)
    pass_seconds: list[float] = field(default_factory=list)
    batch_size: int = 0

    @property
    def throughput(self) -> float:
        """Median per-pass successful requests per second."""
        rates = [
            self.batch_size / seconds
            for seconds in self.pass_seconds
            if seconds > 0
        ]
        return stats_module.median(rates) if rates else 0.0

    def percentile(self, q: float) -> float:
        """The ``q``-quantile (0..1) of per-request latency, seconds."""
        if not self.latencies:
            return 0.0
        ordered = sorted(self.latencies)
        return ordered[min(len(ordered) - 1, int(q * (len(ordered) - 1)))]

    def to_dict(self) -> dict:
        return {
            "served": self.served,
            "failures": self.failures,
            "throughput_rps": round(self.throughput, 1),
            "p50_ms": round(self.percentile(0.50) * 1e3, 2),
            "p99_ms": round(self.percentile(0.99) * 1e3, 2),
        }


@dataclass
class PoolBenchReport:
    """The pool's numbers plus the churn outcome."""

    config: PoolBenchConfig
    pool: PoolRunStats
    swaps: int = 0

    def to_dict(self) -> dict:
        return {
            "views": self.config.views,
            "queries": self.config.queries,
            "passes": self.config.passes,
            "workers": self.config.workers,
            "seed": self.config.seed,
            "scale": self.config.scale,
            "churn_cycles": self.config.churn_cycles,
            "pool": self.pool.to_dict(),
            "swaps": self.swaps,
        }

    def render(self) -> str:
        c = self.config
        pool = self.pool
        lines = [
            f"pool-bench: {c.views} views, {c.queries} queries x "
            f"{c.passes} passes, {c.workers} workers, seed {c.seed}",
            f"throughput:  {pool.throughput:8.1f}/s",
            f"p50 latency: {pool.percentile(0.5) * 1e3:8.1f}ms",
            f"p99 latency: {pool.percentile(0.99) * 1e3:8.1f}ms",
            f"failures:    {pool.failures}",
            f"epoch swaps during load: {self.swaps}",
        ]
        return "\n".join(lines)


def _timed_passes(
    run_batch, stats: PoolRunStats, config: PoolBenchConfig, before_pass=None
) -> None:
    for _ in range(config.warmup_passes):
        run_batch()
    for index in range(config.passes):
        if before_pass is not None:
            before_pass(index)
        started = time.perf_counter()
        results = run_batch()
        stats.pass_seconds.append(time.perf_counter() - started)
        for result in results:
            if result.ok:
                stats.served += 1
                stats.latencies.append(result.latency_seconds)
            else:
                stats.failures += 1


def run_pool_benchmark(
    config: PoolBenchConfig | None = None, echo=print
) -> PoolBenchReport:
    """Sustained load through the persistent worker pool.

    One server, one registered view pool, cache disabled. The pool
    serves the schedule while ``churn_cycles`` view registrations force
    live generation swaps.
    """
    config = config or PoolBenchConfig()
    views, queries = build_workload(
        BenchConfig(
            views=config.views,
            queries=config.queries,
            seed=config.seed,
            scale=config.scale,
        )
    )
    catalog = tpch_catalog()
    stats = synthetic_tpch_stats(scale=config.scale)
    server = ViewServer(catalog, stats, cache_enabled=False)
    pool = PoolRunStats(batch_size=len(queries))
    try:
        for name, sql in views:
            server.register_view(name, sql)
        server.start_pool(workers=config.workers)
        # Spread the swaps over the run, never before the first pass (the
        # un-churned pool must be measured too).
        churn_at = {
            max(1, (i + 1) * config.passes // (config.churn_cycles + 1))
            for i in range(config.churn_cycles)
        }

        def churn(index: int) -> None:
            if index in churn_at:
                # A real epoch swap races the pass about to start.
                server.register_view(
                    f"pool_bench_churn_{index}", views[index % len(views)][1]
                )

        _timed_passes(
            lambda: server.rewrite_many(queries),
            pool,
            config,
            before_pass=churn,
        )
        # Let any still-pending generation swap land before reading the
        # counters: the watcher re-forks asynchronously, and back-to-back
        # publications coalesce into one swap.
        serving = server.serving_pool
        settle = time.monotonic() + 10.0
        while time.monotonic() < settle:
            applied = server.stats()["pool"]["swaps"]
            if serving.epoch == server.epoch and (
                applied >= 1 or not config.churn_cycles
            ):
                break
            time.sleep(0.01)
        pool_stats = server.stats().get("pool", {})
        report = PoolBenchReport(
            config=config,
            pool=pool,
            swaps=pool_stats.get("swaps", 0),
        )
    finally:
        server.close()
    if echo is not None:
        echo(report.render())
    return report


# Regression tolerance of the pool baseline gate: calibration-normalized
# throughput may fall to 1/REGRESSION_FACTOR of the committed report's,
# and p99 may grow to REGRESSION_FACTOR times it (absorbs host-speed
# differences the calibration leaves between the machine that committed
# the baseline and the runner).
REGRESSION_FACTOR = 2.0


def _calibrate(runs: int = 5) -> float:
    """Best-of timing (us) of a fixed pure-Python reference workload.

    The pool regression gate normalizes throughput and p99 by this
    number before comparing against the committed baseline: both are
    measured in the same process, so host-speed differences between the
    baseline machine and the CI runner cancel out. The workload mixes
    dict lookups, set sizing, and integer arithmetic -- the same
    interpreter operations the filter tree and matcher spend their time
    on. ``pool-bench`` takes the minimum of samples before and after
    the pool run, so the calibration floor is measured under the same
    load windows as the numbers it normalizes.
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


def check_pool_slo(
    report: dict, baseline: dict | None = None, echo=print
) -> list[str]:
    """The serving-pool SLO gate; returns failure messages.

    In-run, host-independent gates on the ``serving_pool`` section:

    * zero failed requests (a pool that sheds or errors under sustained
      load fails outright, whatever its speed);
    * at least one applied epoch swap when the run injected churn (a
      fleet that never swapped did not serve the churn it claims to).

    No throughput or latency ratio is gated: the pool's throughput is
    guarded end to end by ``benchmarks/e2e``'s ``pool_churn_1k``. With
    ``baseline``, additionally applies the calibration-normalized
    regression gates (:func:`_check_pool_regression`).
    """
    failures: list[str] = []
    pool = report.get("serving_pool")
    if not pool:
        if echo is not None:
            echo("pool SLO check skipped: report has no serving_pool section")
        return failures
    failed = pool["pool"]["failures"]
    if failed:
        failures.append(
            f"serving-pool bench: {failed} failed requests (must be 0)"
        )
    if pool.get("churn_cycles") and not pool["swaps"]:
        failures.append(
            f"serving-pool bench: {pool['churn_cycles']} churn cycles "
            "applied no epoch swap"
        )
    if baseline is not None:
        failures.extend(_check_pool_regression(report, baseline, echo))
    return failures


def _check_pool_regression(
    report: dict, baseline: dict, echo=print
) -> list[str]:
    """Serving-pool throughput/p99 vs. the committed baseline.

    Calibration-normalized: throughput is
    multiplied by the run's own ``calibration_us`` (work per host-speed
    unit, invariant across machines) and may drop to at most
    ``1 / REGRESSION_FACTOR`` of the baseline; p99 latency is divided by
    ``calibration_us`` and may grow to at most ``REGRESSION_FACTOR``
    times the baseline. Skipped with a note when the baseline predates
    the section or measured a different configuration -- regenerate with
    ``pool-bench --output``.
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
            "regenerate the baseline with pool-bench --output"
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


__all__ = [
    "BenchConfig",
    "BenchReport",
    "LoadRunResult",
    "PoolBenchConfig",
    "PoolBenchReport",
    "PoolRunStats",
    "REGRESSION_FACTOR",
    "TELEMETRY_OVERHEAD_TOLERANCE",
    "build_workload",
    "check_pool_slo",
    "check_telemetry_overhead",
    "measure_telemetry_overhead",
    "run_closed_loop",
    "run_pool_benchmark",
    "run_service_benchmark",
]
