"""One run of one workload: set-up, warm-up, timed phase, check, metrics.

A run is either untraced (end-to-end metrics) or traced (per-layer
metrics); both execute the identical schedule. The orchestrating CLI runs
each in its own process so ``peak_rss_mb`` is that run's alone.
"""

from __future__ import annotations

import contextlib
import gc
import itertools
import os
import platform
import resource
import signal
import statistics
import threading
import time
from dataclasses import dataclass, field

from repro import (
    CdcPipeline,
    Optimizer,
    ViewServer,
    generate_tpch,
    synthetic_tpch_stats,
    tpch_catalog,
)
from repro import memsize
from repro.core.interning import packed_backend_name
from repro.core.matching import template_cache_info
from repro.core.parallel import effective_cpu_count

from . import oracle, tracing, workloads
from .metrics import percentile, ratio



class Skipped(Exception):
    """The host cannot run this workload (one core and a worker pool)."""


def _children() -> list[int]:
    """Pids of this process's children, running or zombie (Linux /proc)."""
    pids: list[int] = []
    try:
        for task in os.listdir("/proc/self/task"):
            with open(f"/proc/self/task/{task}/children") as handle:
                pids.extend(int(pid) for pid in handle.read().split())
    except OSError:
        pass
    return pids


def reap_children(grace: float = 5.0) -> None:
    """Stop and wait for every process this run started.

    ``server.close()`` joins the pool's workers, but exporting a snapshot
    to shared memory also starts ``multiprocessing``'s resource-tracker
    process, which nobody waits for: it outlives the run as an orphan
    (a zombie where pid 1 does not reap). It exits once its pipe closes;
    anything still alive after ``grace`` seconds is killed, and every
    child is waited for.
    """
    try:
        from multiprocessing import resource_tracker

        resource_tracker._resource_tracker._stop()
    except Exception:  # private API: the generic sweep below covers it
        pass
    deadline = time.monotonic() + grace
    killed = False
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return  # no children left
        if pid:
            continue
        if time.monotonic() >= deadline:
            if killed:
                return  # unkillable; do not hang the run on it
            for child in _children():
                with contextlib.suppress(OSError):
                    os.kill(child, signal.SIGKILL)
            killed, deadline = True, time.monotonic() + grace
        time.sleep(0.01)


def environment() -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    getaffinity = getattr(os, "sched_getaffinity", None)
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "numpy": numpy_version,
        "packed_backend": packed_backend_name(),
        "nproc": effective_cpu_count(),
        "nproc_logical": os.cpu_count() or 1,
        "affinity": sorted(getaffinity(0)) if getaffinity else None,
    }


@dataclass
class Program:
    """What set-up builds: the system under test plus set-up timings."""

    catalog: object
    stats: object
    server: ViewServer
    pipeline: CdcPipeline | None = None
    config: dict = field(default_factory=dict)
    seconds: float = 0.0
    register_seconds: float = 0.0
    materialize_seconds: float = 0.0

    def close(self) -> None:
        self.server.close()  # also drains and joins the worker pool


def client_count(spec: workloads.WorkloadSpec) -> int:
    """Closed-loop clients: one per pool worker, else one."""
    if not spec.pool:
        return 1
    return min(workloads.POOL_ARGS["workers"], effective_cpu_count())


def set_up(workload: workloads.Workload) -> Program:
    """Bind + register (+ materialize / start pool) until servable."""
    spec = workload.spec
    started = time.perf_counter()
    catalog = tpch_catalog()
    stats = synthetic_tpch_stats(scale=workloads.STATS_SCALE)
    server_args = workloads.accepted_arguments(
        ViewServer,
        {**workloads.SERVER_ARGS, "cache_enabled": spec.cache_enabled},
    )
    server = ViewServer(catalog, stats, **server_args)
    program = Program(catalog, stats, server, config={"server": server_args})
    if spec.cdc_rows_per_cycle:
        database = generate_tpch(
            scale=workloads.CDC_DATA_SCALE, seed=workloads.CDC_DATA_SEED
        )
        program.pipeline = CdcPipeline(catalog, database)
        server.attach_cdc(program.pipeline)
        materialize_started = time.perf_counter()
        for name, sql in workload.views:
            program.pipeline.register_view(name, catalog.bind_sql(sql))
        program.materialize_seconds = time.perf_counter() - materialize_started
    register_started = time.perf_counter()
    server.register_views(workload.views)
    program.register_seconds = time.perf_counter() - register_started
    if spec.pool:
        pool_args = workloads.accepted_arguments(
            server.start_pool,
            {**workloads.POOL_ARGS, "workers": client_count(spec)},
        )
        server.start_pool(**pool_args)
        program.config["pool"] = pool_args
    program.seconds = time.perf_counter() - started
    return program


class Client:
    """Closed-loop execution of a schedule, recording what clients see."""

    def __init__(self, program: Program, spec: workloads.WorkloadSpec):
        self.program = program
        self.spec = spec
        self.records: list = []  # (start, end, ServedResult | None)
        self.publishes: list = []  # (call start, call seconds, epoch)
        self.drain_seconds = 0.0
        self.depth_max = 0
        self.sample_depth = False

    def request(self, sql: str) -> None:
        server = self.program.server
        started = time.perf_counter()
        try:
            if self.spec.entry == "serve":
                served = server.serve(sql)
            else:
                served = server.rewrite(
                    sql, max_staleness=self.spec.max_staleness
                )
        except Exception:  # a crash is a failed request, not a lost run
            served = None
        self.records.append((started, time.perf_counter(), served))
        if self.sample_depth:
            depth = server.serving_pool.stats()["depth"]
            self.depth_max = max(self.depth_max, depth)

    def publish(self, added: list, dropped: list) -> None:
        """Drop ``dropped``, then register ``added`` as one timed epoch."""
        program = self.program
        if program.pipeline is not None:
            for name, sql in added:
                program.pipeline.register_view(
                    name, program.catalog.bind_sql(sql)
                )
        for name in dropped:
            program.server.unregister_view(name)
            if program.pipeline is not None:
                program.pipeline.unregister_view(name)
        started = time.perf_counter()
        epoch = program.server.register_views([tuple(p) for p in added])
        self.publishes.append((started, time.perf_counter() - started, epoch))

    def execute(self, op) -> None:
        kind = op[0]
        if kind == "request":
            self.request(op[1])
        elif kind == "publish":
            self.publish(op[1], op[2])
        elif kind == "insert":
            self.program.pipeline.insert(op[1], op[2])
        elif kind == "drain":
            started = time.perf_counter()
            self.program.pipeline.drain()
            self.drain_seconds += time.perf_counter() - started
        else:
            raise ValueError(f"unknown op {kind!r}")

    def run(self, ops: list, threads: int) -> float:
        """Execute ``ops`` with ``threads`` closed-loop clients; wall s."""
        started = time.perf_counter()
        if threads <= 1:
            for op in ops:
                self.execute(op)
            return time.perf_counter() - started
        cursor = itertools.count()  # next() is atomic under the GIL
        failures: list = []

        def client() -> None:
            try:
                while (index := next(cursor)) < len(ops):
                    self.execute(ops[index])
            except BaseException as exc:
                failures.append(exc)
                raise

        workers = [
            threading.Thread(target=client, name=f"e2e-client-{n}")
            for n in range(threads)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        if failures:
            raise failures[0]
        return time.perf_counter() - started


def _publish_latencies(client: Client) -> list[float]:
    """Per publish: call start -> first response carrying its epoch."""
    finished = sorted(
        (end, served.epoch)
        for _, end, served in client.records
        if served is not None and served.ok
    )
    latencies = []
    for started, _, epoch in client.publishes:
        for end, seen in finished:
            if end >= started and seen >= epoch:
                latencies.append(end - started)
                break
    return latencies


def end_to_end_metrics(
    workload: workloads.Workload,
    programs: list,
    client: Client,
    wall: float,
) -> dict:
    program = programs[-1]
    ok = [r for r in client.records if r[2] is not None and r[2].ok]
    latencies = sorted(end - start for start, end, _ in ok)
    # plan_cost_ratio guards "faster because it stopped finding views"; a
    # fixed sample of the schedule's distinct texts is enough for that and
    # keeps the no-substitutes optimizer out of the time budget.
    served_cost: dict[str, float] = {}
    for _, _, served in ok:
        served_cost.setdefault(served.sql, served.result.cost)
    sample = workload.cost_sample
    baseline = Optimizer(program.catalog, program.stats)  # no matcher
    baseline_cost = sum(
        baseline.optimize(program.catalog.bind_sql(sql)).cost for sql in sample
    )
    metrics = {
        "setup_s": workload.generate_seconds
        + statistics.median(p.seconds for p in programs),
        "latency_p50_ms": percentile(latencies, 0.50) * 1e3,
        "latency_p99_ms": percentile(latencies, 0.99) * 1e3,
        "throughput_qps": len(ok) / wall,
        "failed_share": 1.0 - len(ok) / len(client.records),
        "rewrite_share": sum(s.uses_view for _, _, s in ok) / len(ok),
        "plan_cost_ratio": sum(served_cost[sql] for sql in sample)
        / baseline_cost,
        "register_views_per_s": len(workload.views)
        / statistics.median(p.register_seconds for p in programs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    publish = _publish_latencies(client)
    if publish:
        metrics["publish_ms"] = statistics.median(publish) * 1e3
    if client.drain_seconds:
        metrics["maintain_rows_per_s"] = (
            workload.sizes["rows_inserted"] / client.drain_seconds
        )
    return metrics


def per_layer_metrics(
    workload: workloads.Workload,
    program: Program,
    client: Client,
    wall: float,
    threads: int,
    recorder: tracing.Recorder,
    before: dict,
) -> tuple[dict, dict]:
    """Layer metrics from spans plus the program's public counters."""
    server = program.server
    spans = recorder.summary()
    self_by_layer = tracing.layer_self_seconds(spans)
    root_seconds = recorder.root_seconds()

    def span(name: str, key: str = "total_s"):
        return spans.get(name, {}).get(key, 0)

    def hit_ratio(misses: int, lookups: int) -> float:
        return 1.0 - misses / lookups if lookups else 0.0

    ok = [s for _, _, s in client.records if s is not None and s.ok]
    optimized = [s.result for s in ok if not s.cache_hit]
    invocations = sum(r.invocations for r in optimized)
    candidates = sum(r.candidates_considered for r in optimized)
    skipped = sum(r.candidates_skipped for r in optimized)
    considered = candidates - skipped
    stats = server.stats()
    cache = stats["cache"] or {}
    pool = stats.get("pool", {})
    histogram = stats["latency"].get("fingerprint", {"count": 0, "mean": 0.0})
    fingerprints = histogram["count"] - before["fingerprint"]["count"]
    fingerprint_seconds = (
        histogram["count"] * histogram["mean"]
        - before["fingerprint"]["count"] * before["fingerprint"]["mean"]
    )
    requests = span("service.server.serve", "calls") or span(
        "service.server.rewrite", "calls"
    )
    match_calls = span("core.matcher.match", "calls")
    match_self = span("core.matcher.match", "self_s")
    describe_parents = spans.get("core.describe", {}).get("parents", {})
    server_describes = describe_parents.get(
        "service.server.serve", 0
    ) + describe_parents.get("service.server.rewrite", 0)
    templates = template_cache_info()
    template_hits = templates["hits"] - before["templates"]["hits"]
    template_stores = templates["stores"] - before["templates"]["stores"]
    applier = (
        program.pipeline.stats.snapshot()
        if program.pipeline is not None
        else {}
    )
    tree = server.snapshots.current.matcher.filter_tree
    exclude = (program.catalog, program.stats, server.snapshots.options)
    views = memsize.view_memory_report(tree, exclude=exclude)
    cache_bytes = (
        memsize.cache_memory_report(server.cache, exclude=exclude)
        if server.cache is not None
        else {"bytes_per_entry": 0.0}
    )
    pool_overhead = [
        (end - start) - served.result.optimize_seconds
        for start, end, served in client.records
        if served is not None and served.ok
    ]
    us = 1e6
    metrics = {
        "sql.parse_us": ratio(span("sql.bind"), span("sql.bind", "calls")) * us,
        "sql.parse_calls": span("sql.bind", "calls"),
        "service.server.self_us": ratio(
            self_by_layer.get("service.server", 0.0), requests
        ) * us,
        "service.server.fingerprint_us": ratio(
            fingerprint_seconds, fingerprints
        ) * us,
        "service.server.statement_memo_hit_ratio": hit_ratio(
            spans.get("sql.bind", {}).get("parents", {}).get(
                "service.server.serve", 0
            ),
            span("service.server.serve", "calls"),
        ),
        "service.server.description_memo_hit_ratio": hit_ratio(
            server_describes, span("optimizer.optimize", "calls")
        ),
        "service.cache.hit_ratio": ratio(
            cache.get("hits", 0) - before["cache"].get("hits", 0),
            cache.get("hits", 0)
            + cache.get("misses", 0)
            - before["cache"].get("hits", 0)
            - before["cache"].get("misses", 0),
        ),
        "service.cache.evictions": cache.get("evictions", 0)
        - before["cache"].get("evictions", 0),
        "service.cache.lookup_us": ratio(
            span("service.cache.get"), span("service.cache.get", "calls")
        ) * us,
        "service.cache.bytes_per_entry": cache_bytes["bytes_per_entry"],
        "service.snapshot.register_us_per_view": ratio(
            program.register_seconds, len(workload.views)
        ) * us,
        "service.snapshot.publish_call_ms": (
            statistics.median(p[1] for p in client.publishes) * 1e3
            if client.publishes
            else 0.0
        ),
        "service.snapshot.epochs": stats["epoch"] - before["epoch"],
        "service.pool.overhead_ms": (
            statistics.median(pool_overhead) * 1e3 if pool else 0.0
        ),
        "service.pool.worker_busy_ratio": (
            ratio(
                sum(r.optimize_seconds for r in optimized),
                wall * pool.get("target", 0),
            )
        ),
        "service.pool.depth_max": client.depth_max,
        "service.pool.swaps": pool.get("swaps", 0),
        "service.pool.redelivered": pool.get("redelivered", 0),
        "service.pool.respawns": pool.get("respawns", 0),
        "service.pool.throttled": stats["counters"].get("pool_throttled", 0),
        "service.pool.saturated": pool.get("saturated", 0),
        "service.shm.bytes_exported": pool.get("shm_bytes", 0),
        "service.shm.tables_exported": pool.get("shm_tables", 0),
        "core.describe.us_per_call": ratio(
            span("core.describe"), span("core.describe", "calls")
        ) * us,
        "core.describe.calls_per_query": ratio(
            span("core.describe", "calls"), len(optimized)
        ),
        "core.matcher.invocations_per_query": ratio(
            invocations, len(optimized)
        ),
        "core.matcher.candidates_per_invocation": ratio(
            considered, invocations
        ),
        "core.matcher.candidate_fraction": ratio(
            considered, invocations * views["views"]
        ),
        "core.filtertree.candidates_us_per_invocation": ratio(
            span("core.filtertree.candidates"), match_calls
        ) * us,
        "core.filtertree.share_of_request": ratio(
            self_by_layer.get("core.filtertree", 0.0), root_seconds
        ),
        "core.preverify.screen_us_per_call": ratio(
            span("core.preverify.screen"),
            span("core.preverify.screen", "calls"),
        ) * us,
        "core.preverify.reject_ratio": ratio(
            sum(r.preverified_rejects for r in optimized), considered
        ),
        "core.matching.verify_us_per_invocation": ratio(
            match_self, match_calls
        ) * us,
        "core.matching.us_per_candidate": ratio(match_self, considered) * us,
        "core.matching.match_ratio": ratio(
            sum(r.substitutes_produced for r in optimized), considered
        ),
        "core.matching.template_replay_ratio": ratio(
            template_hits, template_hits + template_stores
        ),
        "optimizer.self_us_per_query": ratio(
            self_by_layer.get("optimizer", 0.0),
            span("optimizer.optimize", "calls"),
        ) * us,
        "optimizer.skipped_ratio": ratio(skipped, candidates),
        "optimizer.substitutes_per_query": ratio(
            sum(r.substitutes_produced for r in optimized), len(optimized)
        ),
        "cdc.insert_us_per_row": ratio(
            span("cdc.insert"), workload.sizes["rows_inserted"]
        ) * us,
        "cdc.applier.scan_s": applier.get("scan_seconds", 0.0),
        "cdc.applier.merge_s": applier.get("merge_seconds", 0.0),
        "cdc.applier.delta_batches_per_row": ratio(
            applier.get("delta_batches_merged", 0),
            applier.get("base_rows_scanned", 0),
        ),
        "engine.materialize_s_per_view": ratio(
            program.materialize_seconds, len(workload.views)
        ),
        "memsize.bytes_per_view": views["bytes_per_view"],
        "memsize.packed_table_bytes": views["packed_table_bytes"],
        "trace.coverage_ratio": ratio(root_seconds, wall * threads),
    }
    trace = {
        "spans": {
            name: {k: v for k, v in row.items() if k != "parents"}
            for name, row in sorted(spans.items())
        },
        "layer_self_s": dict(sorted(self_by_layer.items())),
    }
    return metrics, trace


def run(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    check: bool = True,
    smoke: bool = False,
) -> dict:
    """Run one workload once; returns the detailed result document.

    Raises :class:`Skipped` when the host cannot run it and
    :class:`oracle.CheckFailed` when an output is wrong -- in both cases
    no metric is reported.
    """
    spec = workloads.SPECS[name]
    if spec.pool and effective_cpu_count() < 2:
        raise Skipped(f"{name} needs 2 usable cores for its worker pool")
    phases: dict[str, float] = {}  # wall seconds of each stage of this run
    mark = time.perf_counter()

    def phase(label: str) -> None:
        nonlocal mark
        now = time.perf_counter()
        phases[label] = now - mark
        mark = now

    catalog = tpch_catalog()
    stats = synthetic_tpch_stats(scale=workloads.STATS_SCALE)
    workload = workloads.build(
        spec,
        seed,
        seconds,
        catalog,
        stats,
        view_scale=0.1 if smoke else 1.0,
        request_scale=0.05 if smoke else 1.0,
    )
    phase("generate")

    programs: list[Program] = []
    repeats = 1 if (trace or smoke) else spec.setup_repeats
    for _ in range(repeats):
        if programs:
            programs[-1].close()
        programs.append(set_up(workload))
    program = programs[-1]
    phase("set_up")
    try:
        threads = client_count(spec)
        recorder = tracing.Recorder()
        if trace:
            tracing.instrument(recorder, program.server, program.pipeline)
        warm = Client(program, spec)
        for sql in workload.warmup:
            warm.request(sql)
        phase("warm_up")
        stats_before = program.server.stats()
        before = {
            "epoch": stats_before["epoch"],
            "cache": stats_before["cache"] or {},
            "fingerprint": stats_before["latency"].get(
                "fingerprint", {"count": 0, "mean": 0.0}
            ),
            "templates": template_cache_info(),
        }
        client = Client(program, spec)
        client.sample_depth = trace and spec.pool
        gc.collect()
        recorder.enabled = trace
        with tracing.GcWatch() if trace else contextlib.nullcontext() as gc_watch:
            wall = client.run(workload.ops, threads)
        recorder.enabled = False
        phase("timed")

        attempted = len(client.records)
        failed = sum(
            1 for _, _, s in client.records if s is None or not s.ok
        )
        result = {
            "workload": name,
            "seed": seed,
            "seconds": seconds,
            "traced": trace,
            "smoke": smoke,
            "digest": workload.digest,
            "sizes": workload.sizes,
            "config": program.config,
            "environment": environment(),
            "attempted": attempted,
            "failed": failed,
            "timed_wall_s": wall,
            "phases_s": phases,
        }
        if failed:
            raise oracle.CheckFailed(
                f"{failed} of {attempted} requests failed"
            )
        result["metrics"] = end_to_end_metrics(
            workload, programs, client, wall
        )
        if trace:
            layers, result["trace"] = per_layer_metrics(
                workload, program, client, wall, threads, recorder, before
            )
            layers["runtime.gc_pause_s"] = gc_watch.pause_seconds
            layers["runtime.gc_full_collections"] = gc_watch.full_collections
            result["metrics"].update(layers)
        phase("metrics")
        if check:
            result["check"] = oracle.check(workload, program, client)
            phase("check")
        return result
    finally:
        program.close()
