"""The rewrite server: a thread-safe front-end over the optimizer.

:class:`ViewServer.submit` takes raw SQL and returns a
:class:`ServedResult` -- the optimized (possibly view-rewritten) plan plus
serving metadata: which epoch answered, whether the rewrite cache hit,
and the end-to-end latency. Requests run on a bounded
:class:`~concurrent.futures.ThreadPoolExecutor`; when every queue slot is
taken the server sheds load by returning a rejected result instead of
queueing unboundedly, and a per-request deadline expires requests that
waited too long in the queue.

Request hot path (no locks anywhere):

1. parse + bind the SQL and compute its canonical fingerprint (memoized
   by exact text, so a repeated query string skips the parser entirely);
2. read the current :class:`CatalogSnapshot` -- a single attribute read;
3. probe the :class:`RewriteCache` under (fingerprint, epoch);
4. on a miss, optimize against the snapshot's immutable matcher and
   insert the result.

Writers (:meth:`register_view` / :meth:`unregister_view`) build and
publish a new snapshot under the manager's writer lock and purge the
cache's previous generation; in-flight readers keep using whatever
snapshot they already picked up, so matches are never torn.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass

from ..catalog.catalog import Catalog
from ..core.options import DEFAULT_OPTIONS, MatchOptions
from ..core.parallel import fork_available
from ..errors import DeadlineExceeded, ReproError
from ..maintenance.maintainer import ViewChangeEvent, ViewMaintainer
from ..obs.slo import SloObjectives, SloTracker
from ..obs.telemetry import TelemetryHub, TraceContext, trace_context
from ..obs.trace import (
    RewriteTrace,
    RewriteTracer,
    TraceSampler,
    activate,
    current_tracer,
    deactivate,
)
from ..optimizer.optimizer import OptimizationResult, OptimizerConfig
from ..sql.statements import SelectStatement
from ..stats.statistics import DatabaseStats
from .cache import LruMemo, RewriteCache
from .fingerprint import statement_fingerprint
from .metrics import MetricsRegistry
from .snapshot import CatalogSnapshot, SnapshotManager

_STAGE_ORDER = ("parse", "fingerprint", "match", "plan", "hit", "miss", "total")


@dataclass(frozen=True)
class ServedResult:
    """The outcome of one ``submit`` call.

    Exactly one of three shapes: a success (``result`` is set), an error
    (``error`` is set -- parse/bind/validation failures), or a shed
    request (``timed_out`` or ``rejected``). ``epoch`` records which
    snapshot answered; ``view_names`` is empty for plans that read only
    base tables.
    """

    sql: str
    fingerprint: str | None = None
    epoch: int = -1
    cache_hit: bool = False
    result: OptimizationResult | None = None
    error: str | None = None
    timed_out: bool = False
    rejected: bool = False
    latency_seconds: float = 0.0
    # The staleness bound (seconds) this request was served under, or
    # None for the default fully-synchronous-freshness semantics.
    max_staleness: float | None = None

    @property
    def ok(self) -> bool:
        """True when the request produced a plan."""
        return self.result is not None

    @property
    def uses_view(self) -> bool:
        """True when the chosen plan reads at least one materialized view."""
        return self.result is not None and self.result.uses_view

    @property
    def view_names(self) -> tuple[str, ...]:
        """The views the chosen plan reads (empty on failure)."""
        return self.result.view_names if self.result is not None else ()


class ViewServer:
    """Concurrent query-rewrite service over one catalog/statistics pair."""

    def __init__(
        self,
        catalog: Catalog,
        stats: DatabaseStats,
        options: MatchOptions = DEFAULT_OPTIONS,
        optimizer_config: OptimizerConfig | None = None,
        workers: int = 4,
        queue_depth: int = 64,
        cache_size: int = 1024,
        cache_enabled: bool = True,
        default_deadline: float | None = None,
        use_filter_tree: bool = True,
        index_registry=None,
        trace_sample_rate: float = 0.0,
        trace_capacity: int = 64,
        slo: SloObjectives | None = None,
    ):
        """``trace_sample_rate`` turns on rewrite-path tracing for a
        deterministic 1-in-N fraction of served requests (0 disables it
        entirely; the hot path then costs one contextvar read per stage).
        The most recent ``trace_capacity`` traces are retained and
        available through :meth:`traces`.

        Every epoch serves from one filter tree derived copy-on-write
        from its predecessor's, so a registration costs its delta;
        :meth:`rewrite_many` may fan batch misses out across forked
        workers when the catalog is large enough.

        ``slo`` attaches latency/error objectives: every served request
        burns the error budget when it errors, times out, is rejected,
        or exceeds the target p99, and multi-window burn rates surface
        in :meth:`stats` and :meth:`prometheus_metrics`.
        """
        if workers < 1:
            raise ValueError("need at least one worker")
        if queue_depth < 1:
            raise ValueError("queue depth must be positive")
        self.catalog = catalog
        # One hub per server: every epoch's matcher, every forked batch
        # worker, and an attached CDC applier all merge into it, so the
        # whole pipeline's sketches read out of one place.
        self.telemetry = TelemetryHub()
        self.snapshots = SnapshotManager(
            catalog,
            stats,
            options=options,
            optimizer_config=optimizer_config,
            index_registry=index_registry,
            use_filter_tree=use_filter_tree,
            telemetry=self.telemetry,
        )
        self.cache: RewriteCache | None = (
            RewriteCache(cache_size) if cache_enabled else None
        )
        self.metrics = MetricsRegistry()
        self.default_deadline = default_deadline
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-serve"
        )
        self._slots = threading.BoundedSemaphore(queue_depth)
        self._memo_limit = max(4 * cache_size, 256)
        self._statement_memo = LruMemo(self._memo_limit)
        self._sampler = TraceSampler(trace_sample_rate)
        self._traces: deque[RewriteTrace] = deque(maxlen=trace_capacity)
        self._traces_lock = threading.Lock()
        self._closed = False
        self._cdc = None
        self.slo = SloTracker(slo) if slo is not None else None
        self._recorder = None
        self._serving_pool = None
        self.snapshots.add_listener(self._on_publish)

    # -- serving -------------------------------------------------------------

    def submit(self, sql: str, deadline: float | None = None) -> ServedResult:
        """Serve one SQL query, blocking until its result is ready.

        ``deadline`` (seconds, defaulting to the server-wide
        ``default_deadline``) bounds how long the request may sit in the
        worker queue; an expired request is returned ``timed_out`` without
        being optimized. When every queue slot is occupied the request is
        immediately ``rejected`` (closed-loop callers should back off).
        """
        future = self.submit_async(sql, deadline)
        return future.result()

    def submit_async(
        self, sql: str, deadline: float | None = None
    ) -> "Future[ServedResult]":
        """Like :meth:`submit` but returns a future immediately."""
        if self._closed:
            raise RuntimeError("server is closed")
        if deadline is None:
            deadline = self.default_deadline
        if not self._slots.acquire(blocking=False):
            self.metrics.counter("rejected").increment()
            shed = ServedResult(sql=sql, rejected=True)
            self._observe(shed)
            future: Future[ServedResult] = Future()
            future.set_result(shed)
            return future
        enqueued = time.perf_counter()
        try:
            return self._pool.submit(self._serve_slot, sql, deadline, enqueued)
        except BaseException:
            self._slots.release()
            raise

    def _serve_slot(
        self, sql: str, deadline: float | None, enqueued: float
    ) -> ServedResult:
        try:
            deadline_at: float | None = None
            if deadline is not None:
                remaining = deadline - (time.perf_counter() - enqueued)
                if remaining <= 0:
                    self.metrics.counter("timeouts").increment()
                    expired = ServedResult(sql=sql, timed_out=True)
                    self._observe(expired)
                    return expired
                # The budget left after queueing bounds the optimization
                # itself: a request that dequeues just under its deadline
                # must not run unboundedly once it starts.
                deadline_at = time.monotonic() + remaining
            return self.serve(sql, deadline_at=deadline_at)
        finally:
            self._slots.release()

    def serve(
        self,
        sql: str,
        max_staleness: float | None = None,
        deadline_at: float | None = None,
    ) -> ServedResult:
        """The synchronous serving path (what pool workers execute).

        Callable directly for single-threaded use; ``submit`` adds the
        queue, deadline, and backpressure semantics around it. When the
        sampler elects this request, a :class:`RewriteTracer` is scoped
        to it (contextvar, so concurrent workers never share one) and
        the finished trace lands in the :meth:`traces` ring.

        ``max_staleness`` bounds how stale (seconds of maintenance lag) a
        view may be and still rewrite this query; see :meth:`rewrite`.
        ``deadline_at`` (absolute ``time.monotonic()``) bounds the
        optimization itself -- an overrun mid-search returns
        ``timed_out`` instead of running to completion.
        """
        if not self._sampler.should_sample():
            result = self._serve(sql, max_staleness, deadline_at)
            self._observe(result)
            return result
        # Install the TraceContext *before* constructing the tracer: the
        # tracer captures the context's trace id at init, so CDC spans
        # recorded under the same context stitch back under this one id.
        with trace_context(TraceContext.new()):
            tracer = RewriteTracer(sql=sql)
            token = activate(tracer)
            try:
                result = self._serve(sql, max_staleness, deadline_at)
            finally:
                deactivate(token)
        trace = tracer.finish(
            cache_hit=result.cache_hit if result.ok else None,
            epoch=result.epoch if result.epoch >= 0 else None,
            error=result.error,
        )
        with self._traces_lock:
            self._traces.append(trace)
        self.metrics.counter("traces_sampled").increment()
        self._observe(result)
        return result

    def _observe(self, result: ServedResult) -> None:
        """Feed one served outcome to the SLO tracker and the recorder.

        Called once per request at the serving boundary (including shed
        and expired requests, which burn error budget without ever
        reaching the optimizer).
        """
        if self.slo is not None:
            self.slo.record(
                result.latency_seconds,
                error=bool(result.error)
                or result.timed_out
                or result.rejected,
            )
        recorder = self._recorder
        if recorder is not None:
            recorder.record_result(result)

    def attach_recorder(self, recorder) -> None:
        """Start journaling served outcomes to a workload recorder.

        ``recorder`` is duck-typed (anything with ``record_result``),
        normally a :class:`repro.obs.recorder.WorkloadRecorder`. One
        recorder at a time; pass ``None`` to detach.
        """
        self._recorder = recorder

    def rewrite(
        self,
        sql: str,
        *,
        max_staleness: float | None = None,
        tenant: str = "default",
        deadline: float | None = None,
    ) -> ServedResult:
        """Serve one query, optionally bounding acceptable view staleness.

        With a persistent worker pool attached (:meth:`start_pool`), the
        request routes through it: ``tenant`` feeds per-tenant admission
        control and ``deadline`` bounds the request's total budget in
        seconds. Without a pool both are served in-process (``tenant``
        is ignored; ``deadline`` bounds the optimization).

        With a CDC pipeline attached (:meth:`attach_cdc`), stored views
        may lag the base tables; ``max_staleness`` says how much lag this
        caller tolerates:

        * ``None`` (default) -- staleness-unaware: every registered view
          is eligible, exactly as without CDC.
        * ``0`` -- demand perfect freshness: a view whose applied LSN
          trails the change-log head is skipped (``STALE`` in the match
          funnel), so the plan never reads data the applier has not
          caught up with.
        * ``t > 0`` -- a view is eligible while its maintenance lag is at
          most ``t`` seconds -- the stale-but-cheap rewrite still wins
          when the data is recent enough for this caller.

        Bounded requests bypass the rewrite cache: eligibility varies
        with the applier's progress, which a (fingerprint, epoch) cache
        key cannot represent.
        """
        if self._serving_pool is not None:
            return self._serving_pool.rewrite(
                sql,
                tenant=tenant,
                max_staleness=max_staleness,
                deadline=deadline,
            )
        deadline_at = (
            time.monotonic() + deadline if deadline is not None else None
        )
        return self.serve(
            sql, max_staleness=max_staleness, deadline_at=deadline_at
        )

    def _serve(
        self,
        sql: str,
        max_staleness: float | None = None,
        deadline_at: float | None = None,
    ) -> ServedResult:
        started = time.perf_counter()
        self.metrics.counter("requests").increment()
        try:
            statement, fingerprint = self._bind(sql)
        except (ReproError, ValueError) as exc:
            self.metrics.counter("errors").increment()
            latency = time.perf_counter() - started
            self.metrics.histogram("total").record(latency)
            return ServedResult(
                sql=sql, error=str(exc), latency_seconds=latency
            )
        snapshot = self.snapshots.current  # the one lock-free snapshot read
        if max_staleness is not None:
            # Bounded-staleness requests skip the cache both ways: an
            # entry cached here would leak a lag-dependent plan to
            # unbounded callers, and a cached unbounded plan may read
            # views this bound excludes.
            self.metrics.counter("bounded_requests").increment()
            staleness = snapshot.staleness_bound(max_staleness)
            try:
                result = self._optimize(
                    snapshot,
                    statement,
                    staleness=staleness,
                    deadline_at=deadline_at,
                )
            except DeadlineExceeded:
                return self._overran(sql, started)
            latency = time.perf_counter() - started
            self.metrics.histogram("miss").record(latency)
            self.metrics.histogram("total").record(latency)
            if result.uses_view:
                self.metrics.counter("rewrites").increment()
            return ServedResult(
                sql=sql,
                fingerprint=fingerprint,
                epoch=snapshot.epoch,
                cache_hit=False,
                result=result,
                latency_seconds=latency,
                max_staleness=max_staleness,
            )
        tracer = current_tracer()
        if self.cache is not None:
            probe_started = time.perf_counter() if tracer.active else 0.0
            cached = self.cache.get(fingerprint, snapshot.epoch)
            if tracer.active:
                tracer.record_span(
                    "cache probe",
                    time.perf_counter() - probe_started,
                    hit=cached is not None,
                    epoch=snapshot.epoch,
                )
            if cached is not None:
                latency = time.perf_counter() - started
                self.metrics.counter("cache_hits").increment()
                self.metrics.histogram("hit").record(latency)
                self.metrics.histogram("total").record(latency)
                return ServedResult(
                    sql=sql,
                    fingerprint=fingerprint,
                    epoch=snapshot.epoch,
                    cache_hit=True,
                    result=cached,
                    latency_seconds=latency,
                )
            self.metrics.counter("cache_misses").increment()
        try:
            result = self._optimize(
                snapshot, statement, deadline_at=deadline_at
            )
        except DeadlineExceeded:
            return self._overran(sql, started)
        if self.cache is not None:
            self.cache.put(fingerprint, snapshot.epoch, result)
        latency = time.perf_counter() - started
        self.metrics.histogram("miss").record(latency)
        self.metrics.histogram("total").record(latency)
        if result.uses_view:
            self.metrics.counter("rewrites").increment()
        return ServedResult(
            sql=sql,
            fingerprint=fingerprint,
            epoch=snapshot.epoch,
            cache_hit=False,
            result=result,
            latency_seconds=latency,
        )

    def _overran(self, sql: str, started: float) -> ServedResult:
        """A request whose optimization overran its deadline mid-search."""
        self.metrics.counter("timeouts").increment()
        latency = time.perf_counter() - started
        self.metrics.histogram("total").record(latency)
        return ServedResult(
            sql=sql, timed_out=True, latency_seconds=latency
        )

    def _bind(self, sql: str) -> tuple[SelectStatement, str]:
        tracer = current_tracer()
        memo = self._statement_memo.get(sql)
        if memo is not None:
            if tracer.active:
                tracer.record_span("parse", 0.0, memoized=True)
            return memo
        parse_started = time.perf_counter()
        statement = self.catalog.bind_sql(sql)
        parse_seconds = time.perf_counter() - parse_started
        self.metrics.histogram("parse").record(parse_seconds)
        fingerprint_started = time.perf_counter()
        fingerprint = statement_fingerprint(statement)
        fingerprint_seconds = time.perf_counter() - fingerprint_started
        self.metrics.histogram("fingerprint").record(fingerprint_seconds)
        if tracer.active:
            tracer.record_span("parse", parse_seconds, memoized=False)
            tracer.record_span("fingerprint", fingerprint_seconds)
        self._statement_memo.put(sql, (statement, fingerprint))
        return statement, fingerprint

    def _optimize(
        self,
        snapshot: CatalogSnapshot,
        statement: SelectStatement,
        staleness=None,
        deadline_at: float | None = None,
    ) -> OptimizationResult:
        result = snapshot.optimizer.optimize(
            statement, staleness=staleness, deadline=deadline_at
        )
        self._record_optimized(result)
        return result

    def _record_optimized(self, result: OptimizationResult) -> None:
        self.metrics.histogram("match").record(result.matching_seconds)
        self.metrics.histogram("plan").record(
            max(result.optimize_seconds - result.matching_seconds, 0.0)
        )
        tracer = current_tracer()
        if tracer.active:
            tracer.record_span(
                "optimize",
                result.optimize_seconds,
                matching_seconds=result.matching_seconds,
                invocations=result.invocations,
                substitutes=result.substitutes_produced,
            )

    # -- batched serving -----------------------------------------------------

    def rewrite_many(
        self,
        sqls,
        *,
        max_staleness: float | None = None,
        tenant: str = "default",
        deadline: float | None = None,
    ) -> list[ServedResult]:
        """Serve a batch of SQL queries, amortizing per-request overheads.

        With a persistent worker pool attached (:meth:`start_pool`), the
        whole batch is fanned through the pool's long-lived workers and
        ``tenant``/``deadline`` apply per request.

        Otherwise the batch runs in-process: one snapshot read, one cache
        probe per *distinct* fingerprint, and one optimization per
        distinct miss serve the whole batch -- duplicate query shapes
        within the batch are optimized once and the shared result fanned
        back to every occurrence (``cache_hit`` stays ``False`` on those:
        they were deduplicated, not cached). Results are returned in
        input order and each carries the whole batch's wall-clock
        latency.

        Tracing is likewise amortized: the sampler is consulted once per
        batch, and an elected batch produces a single trace covering
        every parse, cache-probe, and optimize span in it.

        ``max_staleness`` applies one staleness bound (see
        :meth:`rewrite`) to the whole batch: the policy is frozen once
        against the batch's snapshot, and bounded batches bypass the
        rewrite cache entirely.
        """
        sqls = list(sqls)
        if self._serving_pool is not None:
            return self._serving_pool.rewrite_many(
                sqls,
                tenant=tenant,
                max_staleness=max_staleness,
                deadline=deadline,
            )
        if not self._sampler.should_sample():
            results = self._rewrite_many(sqls, max_staleness)
            for result in results:
                self._observe(result)
            return results
        with trace_context(TraceContext.new()):
            tracer = RewriteTracer(sql=f"<batch of {len(sqls)}>")
            token = activate(tracer)
            try:
                results = self._rewrite_many(sqls, max_staleness)
            finally:
                deactivate(token)
        epoch = next((r.epoch for r in results if r.epoch >= 0), None)
        trace = tracer.finish(cache_hit=None, epoch=epoch, error=None)
        with self._traces_lock:
            self._traces.append(trace)
        self.metrics.counter("traces_sampled").increment()
        for result in results:
            self._observe(result)
        return results

    def _rewrite_many(
        self,
        sqls: list[str],
        max_staleness: float | None = None,
    ) -> list[ServedResult]:
        started = time.perf_counter()
        self.metrics.counter("batch_requests").increment()
        self.metrics.counter("batch_queries").increment(len(sqls))
        snapshot = self.snapshots.current  # one snapshot serves the batch
        staleness = None
        use_cache = self.cache is not None
        if max_staleness is not None:
            self.metrics.counter("bounded_requests").increment()
            staleness = snapshot.staleness_bound(max_staleness)
            use_cache = False  # lag-dependent plans must not be cached
        bound: list[tuple[SelectStatement, str] | None] = []
        errors: list[str | None] = []
        for sql in sqls:
            try:
                bound.append(self._bind(sql))
                errors.append(None)
            except (ReproError, ValueError) as exc:
                bound.append(None)
                errors.append(str(exc))
                self.metrics.counter("errors").increment()
        unique: dict[str, SelectStatement] = {}
        for pair in bound:
            if pair is not None and pair[1] not in unique:
                unique[pair[1]] = pair[0]
        resolved: dict[str, OptimizationResult] = {}
        hits: set[str] = set()
        misses: list[tuple[str, SelectStatement]] = []
        tracer = current_tracer()
        probe_started = time.perf_counter() if tracer.active else 0.0
        for fingerprint, statement in unique.items():
            cached = (
                self.cache.get(fingerprint, snapshot.epoch)
                if use_cache
                else None
            )
            if cached is not None:
                resolved[fingerprint] = cached
                hits.add(fingerprint)
                self.metrics.counter("cache_hits").increment()
            else:
                misses.append((fingerprint, statement))
                if use_cache:
                    self.metrics.counter("cache_misses").increment()
        if tracer.active:
            # One amortized probe span for the whole batch.
            tracer.record_span(
                "cache probe",
                time.perf_counter() - probe_started,
                hit=bool(hits),
                epoch=snapshot.epoch,
            )
        for fingerprint, statement in misses:
            result = self._optimize(snapshot, statement, staleness=staleness)
            resolved[fingerprint] = result
            if use_cache:
                self.cache.put(fingerprint, snapshot.epoch, result)
            if result.uses_view:
                self.metrics.counter("rewrites").increment()
        latency = time.perf_counter() - started
        self.metrics.histogram("batch_total").record(latency)
        results: list[ServedResult] = []
        for sql, pair, error in zip(sqls, bound, errors):
            if pair is None:
                results.append(
                    ServedResult(sql=sql, error=error, latency_seconds=latency)
                )
                continue
            statement, fingerprint = pair
            results.append(
                ServedResult(
                    sql=sql,
                    fingerprint=fingerprint,
                    epoch=snapshot.epoch,
                    cache_hit=fingerprint in hits,
                    result=resolved[fingerprint],
                    latency_seconds=latency,
                    max_staleness=max_staleness,
                )
            )
        return results

    # -- catalog mutation ----------------------------------------------------

    def register_view(
        self, name: str, definition: str | SelectStatement
    ) -> int:
        """Register a view (SQL text or bound statement); returns the epoch.

        Publishing the new snapshot bumps the epoch, which wholesale
        invalidates the cache's previous generation.
        """
        snapshot = self.snapshots.register_view(name, definition)
        return snapshot.epoch

    def register_views(self, definitions) -> int:
        """Register a batch of views in one epoch; returns that epoch.

        ``definitions`` is a mapping or an iterable of ``(name,
        definition)`` pairs, each definition SQL text or a bound
        statement. The whole batch publishes a single snapshot, so
        bulk-loading a large catalog costs one tree build rather than one
        rebuild per view (see :meth:`SnapshotManager.register_views`).
        """
        if hasattr(definitions, "items"):
            definitions = definitions.items()
        snapshot = self.snapshots.register_views(definitions)
        return snapshot.epoch

    def unregister_view(self, name: str) -> int:
        """Drop a view from the served catalog; returns the new epoch."""
        snapshot = self.snapshots.unregister_view(name)
        return snapshot.epoch

    def _on_publish(self, snapshot: CatalogSnapshot) -> None:
        self.metrics.counter("epoch_bumps").increment()
        if self.cache is not None:
            self.cache.purge_stale(snapshot.epoch)

    def attach_maintainer(self, maintainer: ViewMaintainer) -> None:
        """Subscribe to a maintainer's staleness signals.

        Base-table inserts/deletes propagated by the maintainer evict
        exactly the cache entries whose plans read an affected view --
        the per-entry invalidation channel (epoch bumps handle
        registration changes).
        """
        maintainer.add_listener(self._on_view_change)

    def _on_view_change(self, event: ViewChangeEvent) -> None:
        if self.cache is None or not event.views:
            return
        evicted = self.cache.invalidate_views(event.views)
        if evicted:
            self.metrics.counter("staleness_evictions").increment(evicted)

    def attach_cdc(self, pipeline) -> None:
        """Wire a :class:`repro.cdc.CdcPipeline` into serving.

        Three effects: snapshots carry the pipeline's freshness tracker
        (enabling ``max_staleness`` on :meth:`rewrite` /
        :meth:`rewrite_many`), applier merges evict cached rewrites that
        read the views whose contents just moved, and
        :meth:`prometheus_metrics` / :meth:`stats` export per-view lag
        and applier throughput.
        """
        self._cdc = pipeline
        pipeline.add_listener(self._on_view_change)
        self.snapshots.attach_freshness(pipeline.freshness)
        # Point the applier's telemetry at this server's hub so CDC
        # scan/merge sketches and spans land next to the serving ones
        # (and under the same trace id when a traced request drives the
        # applier).
        applier = getattr(pipeline, "applier", None)
        if applier is not None and hasattr(applier, "telemetry"):
            applier.telemetry = self.telemetry

    # -- persistent worker pool ----------------------------------------------

    @property
    def serving_pool(self):
        """The attached :class:`~repro.service.pool.ServingPool` (or None)."""
        return self._serving_pool

    def start_pool(
        self,
        workers: int | None = None,
        max_queue: int = 1024,
        max_retries: int = 1,
        admission=None,
        export_shared_memory: bool = True,
    ):
        """Attach a persistent forked worker pool and route rewrites to it.

        Workers are forked holding the current epoch snapshot (packed
        filter-tree rows exported to shared memory first) and respawned on
        epoch change or death; see :class:`repro.service.pool.ServingPool`.
        ``admission`` is an optional
        :class:`~repro.service.pool.AdmissionController` for per-tenant
        token-bucket throttling. Returns the pool.
        """
        from .pool import ServingPool  # deferred: pool imports ServedResult

        if self._closed:
            raise RuntimeError("server is closed")
        if self._serving_pool is not None:
            raise RuntimeError("serving pool already started")
        if not fork_available():
            raise RuntimeError("persistent worker pool requires os.fork")
        self._serving_pool = ServingPool(
            self,
            workers=workers,
            max_queue=max_queue,
            max_retries=max_retries,
            admission=admission,
            export_shared_memory=export_shared_memory,
        )
        return self._serving_pool

    def stop_pool(self, drain: bool = True) -> None:
        """Detach and shut down the worker pool (no-op when absent);
        rewrites fall back to the in-process path."""
        pool, self._serving_pool = self._serving_pool, None
        if pool is not None:
            pool.close(drain=drain)

    # -- introspection & lifecycle ------------------------------------------

    @property
    def epoch(self) -> int:
        """The currently served epoch."""
        return self.snapshots.epoch

    def traces(self) -> tuple[RewriteTrace, ...]:
        """The most recent sampled traces, oldest first."""
        with self._traces_lock:
            return tuple(self._traces)

    def stats(self) -> dict:
        """A structured snapshot of every serving metric.

        Keys: ``epoch``, ``views`` (registered count), ``cache`` (counter
        dict, or ``None`` with caching disabled), ``counters``, and
        ``latency`` (per-stage histogram summaries in seconds).
        """
        metrics = self.metrics.snapshot()
        stats = {
            "epoch": self.snapshots.epoch,
            "views": self.snapshots.current.view_count,
            "cache": (
                self.cache.statistics.snapshot()
                if self.cache is not None
                else None
            ),
            "counters": metrics["counters"],
            "latency": metrics["latency"],
            "memos": {"statement": self._statement_memo.stats()},
            "telemetry": self.telemetry.snapshot(),
        }
        if self.slo is not None:
            stats["slo"] = self.slo.snapshot()
        if self._serving_pool is not None:
            stats["pool"] = self._serving_pool.stats()
        if self._cdc is not None:
            stats["cdc"] = {
                "head_lsn": self._cdc.head_lsn,
                "applier": self._cdc.stats.snapshot(),
                "views": {
                    f.view: {
                        "applied_lsn": f.applied_lsn,
                        "lag_records": f.lag_records,
                        "lag_seconds": f.lag_seconds,
                    }
                    for f in self._cdc.freshness.all_freshness()
                },
            }
        return stats

    def prometheus_metrics(self, prefix: str = "repro") -> str:
        """Prometheus text exposition for this server.

        Combines the registry's counters and stage histograms with
        serving gauges (epoch, registered views), the rewrite cache's
        counters, and the current snapshot matcher's reject-reason
        tallies (labelled ``{prefix}_match_rejects_total{{reason=...}}``).
        With a CDC pipeline attached, also exports per-view freshness
        gauges (``{prefix}_cdc_view_lag_records{{view=...}}`` and
        friends) plus applier throughput counters. Suitable for a
        ``/metrics`` scrape endpoint or a one-shot dump.
        """
        snapshot = self.snapshots.current
        lines = []
        body = self.metrics.to_prometheus(prefix=prefix)
        if body:
            lines.append(body.rstrip("\n"))
        hub = self.telemetry.to_prometheus(prefix=prefix)
        if hub:
            lines.append(hub.rstrip("\n"))
        if self.slo is not None:
            lines.append(self.slo.to_prometheus(prefix=prefix).rstrip("\n"))
        lines.append(f"# TYPE {prefix}_epoch gauge")
        lines.append(f"{prefix}_epoch {snapshot.epoch}")
        lines.append(f"# TYPE {prefix}_views_registered gauge")
        lines.append(f"{prefix}_views_registered {snapshot.view_count}")
        if self.cache is not None:
            # Named rewrite_cache_* so they cannot collide with the
            # registry's cache_hits/cache_misses request counters.
            cache = self.cache.statistics.snapshot()
            for key in (
                "hits",
                "misses",
                "evictions",
                "epoch_invalidations",
                "view_invalidations",
            ):
                metric = f"{prefix}_rewrite_cache_{key}_total"
                lines.append(f"# TYPE {metric} counter")
                lines.append(f"{metric} {cache[key]}")
        entries = f"{prefix}_memo_entries"
        evicted = f"{prefix}_memo_evictions_total"
        lines.append(f"# TYPE {entries} gauge")
        lines.append(f"# TYPE {evicted} counter")
        memo = self._statement_memo
        lines.append(f'{entries}{{memo="statement"}} {len(memo)}')
        lines.append(f'{evicted}{{memo="statement"}} {memo.evictions}')
        if self._serving_pool is not None:
            pool = self._serving_pool.stats()
            for key, kind in (
                ("depth", "gauge"),
                ("busy", "gauge"),
                ("workers", "gauge"),
                ("generation", "gauge"),
                ("epoch", "gauge"),
                ("submitted", "counter"),
                ("completed", "counter"),
                ("crashes", "counter"),
                ("respawns", "counter"),
                ("swaps", "counter"),
                ("redelivered", "counter"),
                ("saturated", "counter"),
            ):
                suffix = "_total" if kind == "counter" else ""
                metric = f"{prefix}_pool_{key}{suffix}"
                lines.append(f"# TYPE {metric} {kind}")
                lines.append(f"{metric} {pool[key]}")
            utilization = (
                pool["busy"] / pool["target"] if pool["target"] else 0.0
            )
            metric = f"{prefix}_pool_utilization"
            lines.append(f"# TYPE {metric} gauge")
            lines.append(f"{metric} {format(utilization, '.6g')}")
            if "shm_bytes" in pool:
                metric = f"{prefix}_pool_shm_bytes"
                lines.append(f"# TYPE {metric} gauge")
                lines.append(f"{metric} {pool['shm_bytes']}")
        rejects = snapshot.matcher.statistics.rejects_by_reason
        if rejects:
            metric = f"{prefix}_match_rejects_total"
            lines.append(f"# TYPE {metric} counter")
            for reason, count in sorted(rejects.items()):
                lines.append(
                    f'{metric}{{reason="{reason.lower()}"}} {count}'
                )
        if self._cdc is not None:
            lines.append(f"# TYPE {prefix}_cdc_head_lsn gauge")
            lines.append(f"{prefix}_cdc_head_lsn {self._cdc.head_lsn}")
            lag_records = f"{prefix}_cdc_view_lag_records"
            lag_seconds = f"{prefix}_cdc_view_lag_seconds"
            applied = f"{prefix}_cdc_view_applied_lsn"
            freshness = self._cdc.freshness.all_freshness()
            if freshness:
                lines.append(f"# TYPE {applied} gauge")
                lines.append(f"# TYPE {lag_records} gauge")
                lines.append(f"# TYPE {lag_seconds} gauge")
                for f in freshness:
                    lines.append(
                        f'{applied}{{view="{f.view}"}} {f.applied_lsn}'
                    )
                    lines.append(
                        f'{lag_records}{{view="{f.view}"}} {f.lag_records}'
                    )
                    lines.append(
                        f'{lag_seconds}{{view="{f.view}"}} '
                        f"{format(f.lag_seconds, '.6g')}"
                    )
            applier = self._cdc.stats
            lines.append(f"# TYPE {prefix}_cdc_records_scanned_total counter")
            lines.append(
                f"{prefix}_cdc_records_scanned_total "
                f"{applier.records_scanned}"
            )
            lines.append(f"# TYPE {prefix}_cdc_rows_applied_total counter")
            lines.append(
                f"{prefix}_cdc_rows_applied_total "
                f"{applier.base_rows_scanned}"
            )
            lines.append(f"# TYPE {prefix}_cdc_apply_rows_per_second gauge")
            lines.append(
                f"{prefix}_cdc_apply_rows_per_second "
                f"{format(applier.rows_per_second, '.6g')}"
            )
            lines.append(f"# TYPE {prefix}_cdc_delta_evaluations_total counter")
            lines.append(
                f"{prefix}_cdc_delta_evaluations_total "
                f"{applier.delta_evaluations}"
            )
            lines.append(f"# TYPE {prefix}_cdc_join_index_builds_total counter")
            lines.append(
                f"{prefix}_cdc_join_index_builds_total "
                f"{applier.join_index_builds}"
            )
        return "\n".join(lines) + "\n"

    def report(self) -> str:
        """Human-readable serving report (counters + stage latencies)."""
        stats = self.stats()
        lines = [
            f"epoch {stats['epoch']}, {stats['views']} views registered"
        ]
        if stats["cache"] is not None:
            cache = stats["cache"]
            lines.append(
                f"cache: {cache['hits']} hits / {cache['misses']} misses "
                f"(hit rate {cache['hit_rate']:.1%}), "
                f"{cache['evictions']} evictions, "
                f"{cache['epoch_invalidations']} epoch + "
                f"{cache['view_invalidations']} staleness invalidations"
            )
        lines.append(self.metrics.report(histogram_order=_STAGE_ORDER))
        return "\n".join(lines)

    def close(self) -> None:
        """Stop accepting work, shut the worker pools down and let go of
        the served catalog.

        Afterwards the server holds an empty epoch, an empty cache and an
        empty statement memo, and no listener refers back to it: every
        registered view is freed by reference counting, without waiting
        for (or, frozen at publish, being lost to) the cyclic collector.
        """
        self.stop_pool(drain=True)
        self._closed = True
        self._pool.shutdown(wait=True)
        self.snapshots.close()
        if self.cache is not None:
            self.cache.clear()
        self._statement_memo.clear()

    def __enter__(self) -> "ViewServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


__all__ = ["ServedResult", "ViewServer"]
