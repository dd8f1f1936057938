"""The CDC pipeline: transactional-outbox writers over the change log.

One object wires the whole subsystem together: writers mutate the live
base tables and append to the :class:`~repro.cdc.log.ChangeLog` in a
single critical section (the in-process equivalent of the
transactional-outbox pattern -- the table change and its log record
commit or fail together), while the :class:`~repro.cdc.applier.ChangeApplier`
drains the log into stored views on whatever cadence the caller picks.
Reads of base tables are always fresh; reads of stored views lag by
however far the applier is behind, which the bundled
:class:`~repro.cdc.freshness.FreshnessTracker` quantifies.

The pipeline's lock is shared with the applier, so a writer never
interleaves with a half-finished scan and the applier never observes a
table mutation without its log record.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from typing import Callable, Iterable, Sequence

from ..catalog.catalog import Catalog
from ..engine.database import Database
from ..errors import ExecutionError
from ..sql.statements import SelectStatement
from .applier import ApplierStats, ChangeApplier
from .delta import MaintainedView
from .freshness import FreshnessTracker, StalenessBound, ViewFreshness
from .log import ChangeLog, ChangeRecord


class CdcPipeline:
    """Change log + applier + freshness tracker over one live database."""

    def __init__(
        self,
        catalog: Catalog,
        database: Database,
        batch_size: int = 256,
        journal_path: str | None = None,
        clock: Callable[[], float] = time.time,
        telemetry=None,
    ):
        self.catalog = catalog
        self.database = database
        self._lock = threading.RLock()
        self.log = ChangeLog(journal_path=journal_path, clock=clock)
        self.freshness = FreshnessTracker(self.log, clock=clock)
        self.applier = ChangeApplier(
            catalog,
            database,
            self.log,
            freshness=self.freshness,
            batch_size=batch_size,
            lock=self._lock,
            telemetry=telemetry,
        )

    # -- writer side (the outbox) --------------------------------------------

    def insert(
        self, table: str, rows: Iterable[Sequence[object]]
    ) -> ChangeRecord | None:
        """Insert rows into the live table and log the change atomically.

        Returns the appended :class:`ChangeRecord`, or ``None`` for an
        empty batch. Stored views are *not* updated here -- that is the
        applier's job.
        """
        rows = [tuple(row) for row in rows]
        if not rows:
            return None
        with self._lock:
            self.database.relation(table).extend(rows)
            return self.log.append("insert", table, rows)

    def delete(
        self, table: str, rows: Iterable[Sequence[object]]
    ) -> ChangeRecord | None:
        """Delete specific rows from the live table and log the change.

        Bag semantics: each given row removes one occurrence. The whole
        batch is validated before anything is removed, so a missing row
        raises :class:`ExecutionError` without mutating the table or the
        log -- the outbox invariant (table change and log record are one
        transaction) survives the error path.
        """
        rows = [tuple(row) for row in rows]
        if not rows:
            return None
        with self._lock:
            relation = self.database.relation(table)
            available = Counter(relation.rows)
            needed = Counter(rows)
            for row, count in needed.items():
                if available[row] < count:
                    raise ExecutionError(
                        f"cannot delete from {table}: row {row} not present"
                        f" (or fewer than {count} occurrences)"
                    )
            relation.remove(rows)
            return self.log.append("delete", table, rows)

    def delete_where(self, table: str, predicate) -> int:
        """Delete every row satisfying a row-tuple predicate; returns count.

        The predicate is resolved to concrete victim rows at write time,
        inside the critical section, so the log records the actual rows
        removed -- replaying the log never re-evaluates the predicate
        against a different state.
        """
        with self._lock:
            relation = self.database.relation(table)
            victims = [row for row in relation.rows if predicate(row)]
            self.delete(table, victims)
            return len(victims)

    # -- view management ------------------------------------------------------

    def register_view(
        self, name: str, statement: SelectStatement
    ) -> MaintainedView:
        """Register a view for deferred maintenance (see the applier)."""
        return self.applier.register(name, statement)

    def unregister_view(self, name: str) -> None:
        """Drop a view from deferred maintenance."""
        self.applier.unregister(name)

    # -- applier passthroughs -------------------------------------------------

    def scan(self, limit: int | None = None) -> int:
        """Advance the applier's shadow by up to ``limit`` records."""
        return self.applier.scan(limit)

    def merge(
        self, view: str | None = None, max_deltas: int | None = None
    ) -> int:
        """Fold queued deltas into stored views."""
        return self.applier.merge(view, max_deltas)

    def apply(self, max_records: int | None = None) -> int:
        """One scan-then-merge batch."""
        return self.applier.apply(max_records)

    def drain(self) -> int:
        """Absorb the whole log; afterwards every view is fresh."""
        return self.applier.drain()

    def add_listener(self, listener: Callable[[tuple[str, ...]], None]) -> None:
        """Call ``listener`` with the merged view names after each merge."""
        self.applier.add_listener(listener)

    # -- freshness reads ------------------------------------------------------

    @property
    def head_lsn(self) -> int:
        """The change log's head LSN."""
        return self.log.head_lsn

    @property
    def stats(self) -> ApplierStats:
        """The applier's cumulative counters."""
        return self.applier.stats

    def view_freshness(self, name: str) -> ViewFreshness | None:
        """Freshness of one view (``None`` when not registered)."""
        return self.freshness.freshness(name)

    def staleness_bound(self, max_seconds: float) -> StalenessBound:
        """Freeze a staleness policy for one request."""
        return self.freshness.bound(max_seconds)


__all__ = ["CdcPipeline"]
