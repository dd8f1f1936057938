"""The rewrite server: a thread-safe front-end over the optimizer.

A request takes one of two paths. :meth:`ViewServer.serve` answers in
this process, on the caller's thread; :meth:`ViewServer.rewrite` hands
the request to the forked worker pool when one is started
(:meth:`ViewServer.start_pool`) and is :meth:`serve` otherwise. Either
returns a :class:`ServedResult` -- the optimized (possibly
view-rewritten) plan plus serving metadata: which epoch answered,
whether the rewrite cache hit, and the end-to-end latency. A per-request
``deadline`` bounds the optimization; a full pool queue sheds the
request as ``rejected``.

Request hot path (the only lock on it is the telemetry hub's, held for
one counter add or sketch sample at a time):

1. look the SQL text up in the statement memo, which maps exact text to
   its canonical fingerprint; a text not in it is parsed, bound and
   fingerprinted. The memo keeps no bound statement: a statement lives
   only for the request that bound it;
2. read the current :class:`CatalogSnapshot` -- a single attribute read;
3. probe the :class:`RewriteCache` under (fingerprint, epoch); a hit
   reached through the memo never touches the parser;
4. on a miss, bind the text (again, when the memo answered step 1),
   optimize against the snapshot's immutable matcher and insert the
   result as a compact frame (scalars plus the plan's pickle, see
   :meth:`OptimizationResult.to_frame`) -- the caller gets that same
   object, so the first read of its ``plan`` decodes it once for both.

Writers (:meth:`register_view` / :meth:`unregister_view`) build and
publish a new snapshot under the manager's writer lock and purge the
cache's previous generation; in-flight readers keep using whatever
snapshot they already picked up, so matches are never torn.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass

from ..catalog.catalog import Catalog
from ..cdc.pipeline import CdcPipeline
from ..core.options import DEFAULT_OPTIONS, MatchOptions
from ..core.parallel import fork_available
from ..errors import DeadlineExceeded, ReproError
from ..obs.slo import SloObjectives, SloTracker
from ..obs.telemetry import (
    TelemetryHub,
    TraceContext,
    render_prometheus,
    trace_context,
)
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
from .snapshot import CatalogSnapshot, SnapshotManager

# The serving stages, in pipeline order: stage ``s`` is the hub sketch
# ``{s}_seconds``, reported as ``stats()["latency"][s]``.
_STAGE_ORDER = (
    "parse",
    "fingerprint",
    "match",
    "plan",
    "hit",
    "miss",
    "total",
)


@dataclass(frozen=True)
class ServedResult:
    """The outcome of one :meth:`ViewServer.serve` or
    :meth:`ViewServer.rewrite` call.

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
        cache_size: int = 1024,
        cache_enabled: bool = True,
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
        from its predecessor's, so a registration costs its delta.

        ``slo`` attaches latency/error objectives: every served request
        burns the error budget when it errors, times out, is rejected,
        or exceeds the target p99, and multi-window burn rates surface
        in :meth:`stats` and :meth:`prometheus_metrics`.
        """
        self.catalog = catalog
        # One hub per server and its only metrics registry: the serving
        # counters and stage sketches, every epoch's matcher, the worker
        # pool's responses and an attached CDC applier all record into
        # it, so the whole pipeline reads out of one place.
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
        self._memo_limit = max(4 * cache_size, 256)
        # SQL text -> fingerprint, filled only by requests that probe the
        # cache (unbounded, cache on), in-process and on the pool's parent
        # fast path alike. It holds no bound statement: a request the
        # cache cannot answer binds its text again.
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

    def serve(
        self,
        sql: str,
        *,
        max_staleness: float | None = None,
        deadline: float | None = None,
    ) -> ServedResult:
        """Serve one query in this process, on the caller's thread.

        When the sampler elects this request, a :class:`RewriteTracer` is
        scoped to it (contextvar, so concurrent callers never share one)
        and the finished trace lands in the :meth:`traces` ring.

        ``max_staleness`` bounds how stale (seconds of maintenance lag) a
        view may be and still rewrite this query; see :meth:`rewrite`.
        ``deadline`` (seconds from now) bounds the optimization itself --
        an overrun mid-search returns ``timed_out`` instead of running to
        completion. Raises :class:`RuntimeError` once the server is
        closed.
        """
        if self._closed:
            raise RuntimeError("server is closed")
        deadline_at = (
            time.monotonic() + deadline if deadline is not None else None
        )
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
        self.telemetry.increment("traces_sampled")
        self._observe(result)
        return result

    def _observe(self, result: ServedResult) -> None:
        """Feed one served outcome to the SLO tracker and the recorder.

        Called once per request at the serving boundary, including a
        request the pool shed, which burns error budget without ever
        reaching the optimizer.
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
        deadline: float | None = None,
    ) -> ServedResult:
        """Serve one query through the worker pool when one is started
        (:meth:`start_pool`), else in-process exactly as :meth:`serve`.

        Through the pool, ``deadline`` (seconds from now) bounds the
        request's whole budget, queue wait included, and a full queue
        sheds it as ``rejected``. A pool generation follows a publish
        asynchronously, so a request sent right after
        :meth:`register_view` returns may still be answered by the
        previous epoch's workers; :meth:`serve` never lags.

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
        pool = self._serving_pool
        if pool is not None:
            return pool.rewrite(
                sql, max_staleness=max_staleness, deadline=deadline
            )
        return self.serve(sql, max_staleness=max_staleness, deadline=deadline)

    def _serve(
        self,
        sql: str,
        max_staleness: float | None = None,
        deadline_at: float | None = None,
    ) -> ServedResult:
        started = time.perf_counter()
        self.telemetry.increment("requests")
        # Bounded-staleness requests skip the cache both ways: an entry
        # cached here would leak a lag-dependent plan to unbounded
        # callers, and a cached unbounded plan may read views this bound
        # excludes.
        cacheable = max_staleness is None and self.cache is not None
        try:
            statement, fingerprint = self._bind(sql, remember=cacheable)
        except (ReproError, ValueError) as exc:
            return self._failed(sql, exc, started)
        snapshot = self.snapshots.current  # the one lock-free snapshot read
        staleness = None
        if max_staleness is not None:
            self.telemetry.increment("bounded_requests")
            staleness = snapshot.staleness_bound(max_staleness)
        elif self.cache is not None:
            tracer = current_tracer()
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
                self.telemetry.increment("cache_hits")
                self.telemetry.record("hit_seconds", latency)
                self.telemetry.record("total_seconds", latency)
                return ServedResult(
                    sql=sql,
                    fingerprint=fingerprint,
                    epoch=snapshot.epoch,
                    cache_hit=True,
                    result=cached,
                    latency_seconds=latency,
                )
            self.telemetry.increment("cache_misses")
        if statement is None:  # the memo answered; this request binds again
            try:
                statement = self._parse(sql)
            except (ReproError, ValueError) as exc:
                return self._failed(sql, exc, started)
        try:
            result = self._optimize(
                snapshot,
                statement,
                staleness=staleness,
                deadline_at=deadline_at,
            )
        except DeadlineExceeded:
            return self._overran(sql, started)
        if cacheable:
            result = self._cache_put(fingerprint, snapshot.epoch, result)
        latency = time.perf_counter() - started
        self.telemetry.record("miss_seconds", latency)
        self.telemetry.record("total_seconds", latency)
        if result.uses_view:
            self.telemetry.increment("rewrites")
        return ServedResult(
            sql=sql,
            fingerprint=fingerprint,
            epoch=snapshot.epoch,
            cache_hit=False,
            result=result,
            latency_seconds=latency,
            max_staleness=max_staleness,
        )

    def _failed(self, sql: str, exc: Exception, started: float) -> ServedResult:
        """A request whose SQL did not parse, bind or validate."""
        self.telemetry.increment("errors")
        latency = time.perf_counter() - started
        self.telemetry.record("total_seconds", latency)
        return ServedResult(sql=sql, error=str(exc), latency_seconds=latency)

    def _overran(self, sql: str, started: float) -> ServedResult:
        """A request whose optimization overran its deadline mid-search."""
        self.telemetry.increment("timeouts")
        latency = time.perf_counter() - started
        self.telemetry.record("total_seconds", latency)
        return ServedResult(
            sql=sql, timed_out=True, latency_seconds=latency
        )

    def _cache_put(
        self, fingerprint: str, epoch: int, result: OptimizationResult
    ) -> OptimizationResult:
        """Cache ``result`` as a compact frame and return the cached object.

        The entry holds the plan's pickle, not its node graph, as a
        pool-fed entry does; the first read of ``plan`` decodes it.
        """
        result = OptimizationResult.from_frame(result.to_frame())
        self.cache.put(fingerprint, epoch, result)
        return result

    def _bind(
        self, sql: str, remember: bool
    ) -> tuple[SelectStatement | None, str]:
        """``(statement, fingerprint)`` for ``sql``.

        The statement is ``None`` when the memo knew the text's
        fingerprint: a caller that needs the statement after all (a
        cache miss, a bounded request) binds again with :meth:`_parse`.
        A text bound here enters the memo only when ``remember``: the
        request probes the cache, the one step a memo answer saves a
        parse for.
        """
        tracer = current_tracer()
        fingerprint = self._statement_memo.get(sql)
        if fingerprint is not None:
            if tracer.active:
                tracer.record_span("parse", 0.0, memoized=True)
            return None, fingerprint
        statement = self._parse(sql)
        fingerprint_started = time.perf_counter()
        fingerprint = statement_fingerprint(statement)
        fingerprint_seconds = time.perf_counter() - fingerprint_started
        self.telemetry.record("fingerprint_seconds", fingerprint_seconds)
        if tracer.active:
            tracer.record_span("fingerprint", fingerprint_seconds)
        if remember:
            self._statement_memo.put(sql, fingerprint)
        return statement, fingerprint

    def _parse(self, sql: str) -> SelectStatement:
        """Parse and bind ``sql``: the statement lives for this request."""
        parse_started = time.perf_counter()
        statement = self.catalog.bind_sql(sql)
        parse_seconds = time.perf_counter() - parse_started
        self.telemetry.record("parse_seconds", parse_seconds)
        tracer = current_tracer()
        if tracer.active:
            tracer.record_span("parse", parse_seconds, memoized=False)
        return statement

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
        self.telemetry.record("match_seconds", result.matching_seconds)
        self.telemetry.record(
            "plan_seconds",
            max(result.optimize_seconds - result.matching_seconds, 0.0),
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
        return result

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
        self.telemetry.increment("epoch_bumps")
        if self.cache is not None:
            self.cache.purge_stale(snapshot.epoch)

    def _on_view_change(self, views: tuple[str, ...]) -> None:
        if self.cache is None:
            return
        evicted = self.cache.invalidate_views(views)
        if evicted:
            self.telemetry.increment("staleness_evictions", evicted)

    def attach_cdc(self, pipeline: CdcPipeline) -> None:
        """Wire a :class:`repro.cdc.CdcPipeline` into serving.

        Three effects: snapshots carry the pipeline's freshness tracker
        (enabling ``max_staleness`` on :meth:`serve` and
        :meth:`rewrite`), applier merges evict exactly the cached
        rewrites that read the views whose contents just moved (the
        per-entry invalidation channel; epoch bumps handle registration
        changes), and :meth:`stats` (so :meth:`prometheus_metrics`)
        reports per-view lag and applier throughput.
        """
        self._cdc = pipeline
        pipeline.add_listener(self._on_view_change)
        self.snapshots.attach_freshness(pipeline.freshness)
        # Point the applier's telemetry at this server's hub so CDC
        # scan/merge sketches and spans land next to the serving ones
        # (and under the same trace id when a traced request drives the
        # applier).
        pipeline.applier.telemetry = self.telemetry

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
    ):
        """Attach a persistent forked worker pool and route
        :meth:`rewrite` to it (:meth:`serve` stays in-process).

        Workers are forked holding the current epoch snapshot (shared
        copy-on-write) and respawned on epoch change or death; see
        :class:`repro.service.pool.ServingPool`. Returns the pool.
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
        """A structured snapshot of every serving metric: the one read
        behind :meth:`prometheus_metrics` and ``repro-top``.

        Keys: ``epoch``, ``views`` (registered count), ``cache`` (counter
        dict, or ``None`` with caching disabled), ``counters`` (every hub
        counter, by name), ``latency`` (per-stage sketch summaries in
        seconds, pipeline order), ``memos``, ``rejects`` (the served
        epoch's matcher reject tallies by reason) and ``telemetry`` (the
        hub snapshot both counters and latencies are read from, in one
        locked read); ``slo``, ``pool`` and ``cdc`` when attached.
        """
        snapshot = self.snapshots.current
        telemetry = self.telemetry.snapshot()
        sketches = telemetry["sketches"]
        rejects = snapshot.matcher.statistics.rejects_by_reason
        stats = {
            "epoch": snapshot.epoch,
            "views": snapshot.view_count,
            "cache": (
                self.cache.statistics.snapshot()
                if self.cache is not None
                else None
            ),
            "counters": dict(sorted(telemetry["counters"].items())),
            "latency": {
                stage: sketches[f"{stage}_seconds"]
                for stage in _STAGE_ORDER
                if f"{stage}_seconds" in sketches
            },
            "memos": {"statement": self._statement_memo.stats()},
            "rejects": dict(sorted(rejects.items())),
            "telemetry": telemetry,
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
        """Prometheus text exposition of :meth:`stats` (see
        :func:`repro.obs.telemetry.render_prometheus`), for a
        ``/metrics`` scrape endpoint or a one-shot dump."""
        return render_prometheus(self.stats(), prefix)

    def close(self) -> None:
        """Stop accepting work, shut the worker pool down and let go of
        the served catalog.

        Afterwards the server holds an empty epoch, an empty cache and an
        empty statement memo, and no listener refers back to it: every
        registered view is freed by reference counting, without waiting
        for (or, frozen at publish, being lost to) the cyclic collector.
        """
        self._closed = True
        self.stop_pool(drain=True)
        self.snapshots.close()
        if self.cache is not None:
            self.cache.clear()
        self._statement_memo.clear()

    def __enter__(self) -> "ViewServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


__all__ = ["ServedResult", "ViewServer"]
