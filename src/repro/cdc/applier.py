"""The deferred applier: drains the change log into stored views.

Correctness problem being solved: a view delta for log record *L* must
join the changed table's delta rows against the *other* base tables as
they stood at *L* -- but by the time the applier runs, the live base
tables are already at the log head (writers mutate them synchronously
and only defer view maintenance). Computing deltas against head state
would double- or under-count joins.

The applier therefore keeps a **shadow database**: private copies of
every base table any registered view reads, advanced strictly in LSN
order. Application is two-phase:

* :meth:`ChangeApplier.scan` reads the next batch of log records, and
  for each record computes every affected view's delta against the
  shadow (the overlay evaluation of :mod:`repro.cdc.delta`), queues the
  deltas per view, then advances the shadow by that record. After a scan
  the shadow is exactly the base state as of the scan watermark.
* :meth:`ChangeApplier.merge` folds queued deltas into the stored view
  relations in the live database -- count/sum merge, empty-group
  deletion, SPJ append/remove -- advancing each view's freshness
  watermark as its queue drains. Merging is per view and batchable, so
  different views may lag by different amounts: that is what the
  freshness tracker measures and bounded-staleness serving exploits.

Registration is the subtle point: a new view materializes from the
*shadow* after scanning to the log head, so its initial contents and
its watermark agree by construction.
"""

from __future__ import annotations

import logging
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable

from ..catalog.catalog import Catalog
from ..engine.database import Database
from ..engine.executor import execute
from ..obs.telemetry import (
    TelemetryHub,
    current_trace_context,
    telemetry_hub,
)
from ..sql.statements import SelectStatement
from .delta import (
    MaintainedView,
    analyze_view,
    apply_view_delta,
    compute_view_delta,
)
from .freshness import FreshnessTracker
from .log import ChangeLog

logger = logging.getLogger(__name__)


@dataclass
class ApplierStats:
    """Cumulative applier counters, for throughput metrics.

    ``delta_evaluations`` counts view-delta computations (one per log
    record per affected view); ``join_index_builds`` counts the join
    indexes built over the shadow tables. Builds that keep pace with
    evaluations mean indexes are rebuilt every record (deletes
    invalidate them); few builds and a low ``rows_per_second`` mean the
    views themselves are slow. ``views_materialized`` and
    ``materialize_seconds`` count the registrations and the time spent
    executing and storing their views, the price a view set pays before
    any delta arrives.
    """

    records_scanned: int = 0
    base_rows_scanned: int = 0
    delta_batches_merged: int = 0
    delta_rows_merged: int = 0
    delta_evaluations: int = 0
    join_index_builds: int = 0
    scan_seconds: float = 0.0
    merge_seconds: float = 0.0
    views_materialized: int = 0
    materialize_seconds: float = 0.0

    @property
    def apply_seconds(self) -> float:
        """Total time spent scanning and merging."""
        return self.scan_seconds + self.merge_seconds

    @property
    def rows_per_second(self) -> float:
        """Base rows absorbed per second of applier work (0 when idle)."""
        if self.apply_seconds <= 0:
            return 0.0
        return self.base_rows_scanned / self.apply_seconds

    def snapshot(self) -> dict:
        """Counters and derived rates as a plain dict."""
        return {
            "records_scanned": self.records_scanned,
            "base_rows_scanned": self.base_rows_scanned,
            "delta_batches_merged": self.delta_batches_merged,
            "delta_rows_merged": self.delta_rows_merged,
            "delta_evaluations": self.delta_evaluations,
            "join_index_builds": self.join_index_builds,
            "scan_seconds": self.scan_seconds,
            "merge_seconds": self.merge_seconds,
            "rows_per_second": self.rows_per_second,
            "views_materialized": self.views_materialized,
            "materialize_seconds": self.materialize_seconds,
        }


@dataclass(frozen=True)
class _PendingDelta:
    """One view delta awaiting merge, tagged with its source LSN."""

    lsn: int
    sign: int
    rows: list


class ChangeApplier:
    """Applies logged base-table changes to registered views in batches."""

    def __init__(
        self,
        catalog: Catalog,
        database: Database,
        log: ChangeLog,
        freshness: FreshnessTracker | None = None,
        batch_size: int = 256,
        lock: threading.RLock | None = None,
        clock: Callable[[], float] = time.perf_counter,
        telemetry: TelemetryHub | None = None,
    ):
        """``database`` is the live database: stored view relations live
        there (and are patched in place by :meth:`merge`); base tables
        are only *read* from it, once per view registration, to seed the
        shadow. ``lock`` lets a pipeline share one lock between writers
        and the applier.

        ``telemetry`` is the hub apply-latency sketches and spans land
        in; ``None`` uses the process-global hub, and an attached
        :class:`~repro.service.server.ViewServer` rebinds it to its own
        so CDC telemetry reads out next to the serving telemetry.
        """
        if batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        self.catalog = catalog
        self.database = database
        self.log = log
        self.freshness = freshness if freshness is not None else FreshnessTracker(log)
        self.batch_size = batch_size
        self.stats = ApplierStats()
        self.telemetry = telemetry
        self._clock = clock
        self._lock = lock if lock is not None else threading.RLock()
        self._views: dict[str, MaintainedView] = {}
        self._views_by_table: dict[str, list[MaintainedView]] = {}
        self._pending: dict[str, deque[_PendingDelta]] = {}
        self._shadow = Database()
        self._scanned_lsn = log.head_lsn
        self._listeners: list[Callable[[tuple[str, ...]], None]] = []

    # -- introspection -------------------------------------------------------

    @property
    def scanned_lsn(self) -> int:
        """The LSN through which the shadow has been advanced."""
        return self._scanned_lsn

    @property
    def shadow_database(self) -> Database:
        """The applier's private base-table state at ``scanned_lsn``.

        Read-only by contract: mutating it desynchronizes deferred
        maintenance from the log.
        """
        return self._shadow

    def views(self) -> tuple[MaintainedView, ...]:
        """All views under deferred maintenance."""
        with self._lock:
            return tuple(self._views.values())

    def pending_deltas(self, view: str) -> int:
        """How many unmerged delta batches the view has queued."""
        with self._lock:
            queue = self._pending.get(view)
            return len(queue) if queue else 0

    # -- telemetry -----------------------------------------------------------

    def _hub(self) -> TelemetryHub:
        return self.telemetry if self.telemetry is not None else telemetry_hub()

    def _record_phase(self, phase: str, elapsed: float, **attributes) -> None:
        """One applier phase (scan/merge) into sketch + counter + span.

        The span carries the current request's trace id when the applier
        runs inside a traced serving path (a bounded-staleness request
        driving a refresh), so CDC work stitches under the same trace as
        the request.
        """
        hub = self._hub()
        hub.record(f"cdc_{phase}_seconds", elapsed)
        hub.increment(f"cdc_{phase}s")
        context = current_trace_context()
        hub.record_span(
            f"cdc.{phase}",
            elapsed,
            trace_id=context.trace_id if context is not None else None,
            **attributes,
        )

    # -- change notifications ------------------------------------------------

    def add_listener(self, listener: Callable[[tuple[str, ...]], None]) -> None:
        """Subscribe to ``cdc-apply`` notifications.

        After every merge that changed stored views, each listener is
        called with the tuple of their names; the serving layer uses it
        to evict cached rewrites whose view contents just moved. A
        raising listener is logged and skipped, so it neither undoes the
        merge nor starves later listeners.
        """
        self._listeners.append(listener)

    def _notify(self, views: Iterable[str]) -> None:
        names = tuple(views)
        if not names or not self._listeners:
            return
        for listener in list(self._listeners):
            try:
                listener(names)
            except Exception:
                logger.exception(
                    "cdc-apply listener %r failed; continuing", listener
                )

    # -- registration --------------------------------------------------------

    def register(self, name: str, statement: SelectStatement) -> MaintainedView:
        """Start deferred maintenance of ``statement`` as view ``name``.

        Scans the log to head first, seeds the shadow with any base
        tables the view reads that are not yet shadowed (safe exactly
        because live == shadow == head at that moment), materializes the
        view from the shadow into the live database, and sets its
        watermark to the head LSN. Raises :class:`MatchError` for
        unmaintainable views and :class:`ValueError` for duplicates.
        """
        with self._lock:
            if name in self._views:
                raise ValueError(f"view {name} already registered")
            view = analyze_view(self.catalog, name, statement)
            self.scan(limit=None)
            for table in view.tables:
                if not self._shadow.has(table):
                    live = self.database.relation(table)
                    self._shadow.store(
                        table, live.columns, list(live.rows)
                    )
            columns = tuple(item.name for item in statement.select_items)
            started = self._clock()
            result = execute(statement, self._shadow)
            self._count_index_builds()
            self.database.store(name, columns, result.rows)  # type: ignore[arg-type]
            self.stats.views_materialized += 1
            self.stats.materialize_seconds += self._clock() - started
            self._views[name] = view
            for table in view.tables:
                self._views_by_table.setdefault(table, []).append(view)
            self._pending[name] = deque()
            self.freshness.track(name, self._scanned_lsn)
            return view

    def unregister(self, name: str) -> None:
        """Stop maintaining a view and drop its stored relation."""
        with self._lock:
            view = self._views.pop(name)
            for table in view.tables:
                self._views_by_table[table].remove(view)
            del self._pending[name]
            self.freshness.forget(name)
            if self.database.has(name):
                self.database.drop(name)

    # -- two-phase application ----------------------------------------------

    def scan(self, limit: int | None = None) -> int:
        """Advance the shadow by up to ``limit`` log records; returns count.

        For each record, affected views' deltas are computed against the
        shadow (pre-record state for inserts, post-removal state for
        deletes, as :func:`~repro.cdc.delta.compute_view_delta` requires)
        and queued; then the shadow absorbs the record. Watermarks of
        views with empty queues advance to the new scan watermark.
        """
        with self._lock:
            started = self._clock()
            records = self.log.records_after(self._scanned_lsn, limit)
            for record in records:
                rows = [tuple(row) for row in record.rows]
                affected = self._views_by_table.get(record.table, ())
                if record.kind == "insert":
                    for view in affected:
                        self._queue_delta(
                            view, record.table, record.lsn, +1, rows
                        )
                    self._shadow_insert(record.table, rows)
                else:
                    self._shadow_delete(record.table, rows)
                    for view in affected:
                        self._queue_delta(
                            view, record.table, record.lsn, -1, rows
                        )
                self._scanned_lsn = record.lsn
                self.stats.records_scanned += 1
                self.stats.base_rows_scanned += len(rows)
            if records:
                for name in self._views:
                    self._refresh_watermark(name)
                self._count_index_builds()
            elapsed = self._clock() - started
            self.stats.scan_seconds += elapsed
            self._record_phase("scan", elapsed, records=len(records))
            return len(records)

    def merge(
        self, view: str | None = None, max_deltas: int | None = None
    ) -> int:
        """Fold queued deltas into stored views; returns batches merged.

        ``view`` limits merging to one view; ``max_deltas`` caps how many
        queued delta batches are folded per view (partial merges are what
        produce per-view lag). Watermarks advance as queues drain.
        """
        with self._lock:
            started = self._clock()
            names = [view] if view is not None else list(self._views)
            merged_total = 0
            touched: list[str] = []
            for name in names:
                queue = self._pending[name]
                maintained = self._views[name]
                budget = max_deltas
                merged_here = 0
                while queue and (budget is None or budget > 0):
                    delta = queue.popleft()
                    apply_view_delta(
                        maintained, delta.rows, delta.sign, self.database
                    )
                    self.stats.delta_batches_merged += 1
                    self.stats.delta_rows_merged += len(delta.rows)
                    merged_here += 1
                    if budget is not None:
                        budget -= 1
                if merged_here:
                    merged_total += merged_here
                    touched.append(name)
                self._refresh_watermark(name)
            elapsed = self._clock() - started
            self.stats.merge_seconds += elapsed
            self._record_phase("merge", elapsed, batches=merged_total)
            hub = self._hub()
            for name in names:
                freshness = self.freshness.freshness(name)
                if freshness is not None:
                    hub.record(
                        f"cdc_view_lag_seconds.{name}", freshness.lag_seconds
                    )
        self._notify(touched)
        return merged_total

    def apply(self, max_records: int | None = None) -> int:
        """One scan-then-merge step; returns log records scanned.

        ``max_records`` defaults to the configured batch size.
        """
        scanned = self.scan(
            self.batch_size if max_records is None else max_records
        )
        self.merge()
        return scanned

    def drain(self) -> int:
        """Apply batches until the log is fully absorbed; returns records."""
        total = 0
        while True:
            scanned = self.apply()
            total += scanned
            with self._lock:
                idle = scanned == 0 and not any(self._pending.values())
            if idle:
                return total

    # -- internals -----------------------------------------------------------

    def _queue_delta(
        self,
        view: MaintainedView,
        table: str,
        lsn: int,
        sign: int,
        rows: list[tuple[object, ...]],
    ) -> None:
        delta = compute_view_delta(view, table, rows, self._shadow)
        self.stats.delta_evaluations += 1
        if delta:
            self._pending[view.name].append(_PendingDelta(lsn, sign, delta))

    def _shadow_insert(
        self, table: str, rows: list[tuple[object, ...]]
    ) -> None:
        if not self._shadow.has(table):
            return  # no registered view reads this table (yet)
        self._shadow.relation(table).extend(rows)

    def _shadow_delete(
        self, table: str, rows: list[tuple[object, ...]]
    ) -> None:
        if not self._shadow.has(table):
            return
        self._shadow.relation(table).remove(rows)

    def _count_index_builds(self) -> None:
        # Shadow relations are never replaced, so their counters add up
        # to every join index built on behalf of this applier.
        self.stats.join_index_builds = sum(
            self._shadow.relation(table).hash_index_builds
            for table in self._shadow.names()
        )

    def _refresh_watermark(self, name: str) -> None:
        queue = self._pending[name]
        applied = queue[0].lsn - 1 if queue else self._scanned_lsn
        self.freshness.track(name, applied)


__all__ = ["ApplierStats", "ChangeApplier"]
