"""Epoch-versioned catalog snapshots: lock-free reads, serialized writes.

The matcher's registry (:class:`~repro.core.filtertree.FilterTree`) is a
mutable index; mutating it while reader threads search it would tear
matches. The serving layer therefore never mutates a published tree.
Instead, every view registration or drop derives a **new** filter tree /
matcher / optimizer triple -- a copy-on-write clone of the previous
epoch's tree with only the registration delta applied, so an epoch costs
the change, not the catalog -- and publishes it atomically as a
:class:`CatalogSnapshot` with the next epoch number.

Readers obtain the current snapshot with a single attribute read -- no
lock, no reference counting -- and keep matching against that immutable
snapshot for the whole request even if a writer publishes ten epochs
meanwhile. Writers serialize on one lock; epochs increase monotonically,
which is what lets the rewrite cache discard every pre-bump entry with an
integer comparison.
"""

from __future__ import annotations

import gc
import threading
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from ..catalog.catalog import Catalog
from ..collector import collector_paused
from ..core.describe import describe, validate_view_description
from ..core.filtertree import FilterTree, RegisteredView
from ..core.interning import KeyInterner
from ..core.matcher import ViewMatcher
from ..core.options import DEFAULT_OPTIONS, MatchOptions
from ..optimizer.cost import DEFAULT_COST_MODEL, CostModel
from ..optimizer.optimizer import Optimizer, OptimizerConfig
from ..sql.statements import SelectStatement
from ..stats.estimator import CardinalityEstimator
from ..stats.statistics import DatabaseStats


@dataclass(frozen=True)
class CatalogSnapshot:
    """One immutable epoch of the served view catalog.

    Everything a reader needs for a whole request: the matcher (and its
    filter tree) over exactly the views registered as of ``epoch``, and an
    optimizer bound to that matcher. Snapshots are never mutated after
    publication; concurrent readers share them freely.
    """

    epoch: int
    matcher: ViewMatcher
    optimizer: Optimizer
    view_names: frozenset[str]
    # Freshness state for bounded-staleness serving: a
    # :class:`repro.cdc.FreshnessTracker` (or None when no CDC pipeline is
    # attached). The tracker itself is shared across epochs -- freshness
    # is a property of view *contents*, which move independently of the
    # registration epoch; the snapshot carries it so a request resolves
    # its staleness policy against the same catalog it matches with.
    freshness: object | None = None

    @property
    def view_count(self) -> int:
        """Number of views registered in this epoch."""
        return len(self.view_names)

    def staleness_bound(self, max_seconds: float):
        """Freeze a staleness policy for one request, or ``None``.

        Returns ``None`` when no freshness tracker is attached -- every
        view is then implicitly fresh, because view maintenance is
        synchronous without a CDC pipeline.
        """
        if self.freshness is None:
            return None
        return self.freshness.bound(max_seconds)


class SnapshotManager:
    """Builds, publishes, and hands out :class:`CatalogSnapshot` epochs.

    Mutations (``register_view`` / ``unregister_view``) run under a writer
    lock: they copy the prebuilt view registry, clone the published
    filter tree copy-on-write, apply the delta to the clone, and publish
    the new snapshot with a single attribute assignment. ``current`` is
    that attribute read -- the reader hot path takes no lock and can
    never observe a half-built tree.
    """

    def __init__(
        self,
        catalog: Catalog,
        stats: DatabaseStats,
        options: MatchOptions = DEFAULT_OPTIONS,
        optimizer_config: OptimizerConfig | None = None,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        index_registry=None,
        use_filter_tree: bool = True,
        telemetry=None,
    ):
        """Every epoch holds one :class:`FilterTree`, derived from its
        predecessor's by :meth:`FilterTree.clone_cow` plus the
        registration delta; ``use_filter_tree=False`` keeps the tree as
        the registry but matches every view (the paper's NoFilter
        configuration).
        """
        self.catalog = catalog
        self.stats = stats
        self.options = options
        self.optimizer_config = optimizer_config or OptimizerConfig()
        self.cost_model = cost_model
        self.index_registry = index_registry
        self.use_filter_tree = use_filter_tree
        # The telemetry hub every epoch's matcher records into (the
        # owning ViewServer injects its own); None = process-global.
        self.telemetry = telemetry
        self._write_lock = threading.Lock()
        # One interner for the manager's whole lifetime: every epoch's
        # filter tree shares it, so key-atom bit assignments (and the
        # bound-probe encodings readers cache) stay valid across rebuilds.
        # It only ever grows when a registration compiles its packed row,
        # before the writer lock is taken; ``_intern_lock`` serializes
        # those writes.
        self._interner = KeyInterner()
        self._intern_lock = threading.Lock()
        self._estimator = CardinalityEstimator(stats)
        # Insertion order is registration order (a re-registered name
        # moves to the end), the order candidate lists are returned in.
        self._views: dict[str, RegisteredView] = {}
        self._listeners: list[Callable[[CatalogSnapshot], None]] = []
        self._freshness: object | None = None
        self._snapshot = self._build(0, self._new_tree(), self._views)

    # -- reader side ---------------------------------------------------------

    @property
    def current(self) -> CatalogSnapshot:
        """The latest published snapshot (lock-free: one attribute read)."""
        return self._snapshot

    @property
    def epoch(self) -> int:
        """The current epoch number."""
        return self._snapshot.epoch

    # -- writer side ---------------------------------------------------------

    def register_view(
        self, name: str, definition: str | SelectStatement
    ) -> CatalogSnapshot:
        """Describe, validate, and publish a view; returns the new snapshot.

        ``definition`` is SQL text or a bound statement. The expensive
        work (bind + describe + hub + view record + extent estimate)
        happens before the writer lock is taken; only the registry copy,
        tree clone, and publish are serialized. Raises
        :class:`~repro.errors.MatchError` for view definitions outside the
        indexable class and :class:`ValueError` for duplicate names.
        """
        view = self._prepare(name, definition, {})
        with self._write_lock:
            if name in self._views:
                raise ValueError(f"view {name} already registered")
            views = dict(self._views)
            views[name] = view
            return self._publish(views, changed=(name,))

    @collector_paused()
    def register_views(
        self, definitions: Iterable[tuple[str, str | SelectStatement]]
    ) -> CatalogSnapshot:
        """Register a batch of views with one snapshot publication.

        Every definition (SQL text or a bound statement) is described,
        validated and compiled before the writer lock is taken, one at a
        time -- each description is let go once its view is compiled, so
        a batch never holds them all -- and the whole batch lands in a
        single epoch: bulk-loading ``n`` views costs one epoch instead of
        ``n``. The batch is atomic:
        any invalid definition or duplicate name (within the batch or
        against the registry) raises before anything is published. The
        cyclic collector is paused for the duration
        (:func:`collector_paused`).
        """
        prepared: list[tuple[str, RegisteredView]] = []
        seen: set[str] = set()
        batch: dict = {}
        for name, definition in definitions:
            if name in seen:
                raise ValueError(f"view {name} duplicated in batch")
            seen.add(name)
            prepared.append((name, self._prepare(name, definition, batch)))
        del batch  # the views hold what they share; the table goes before publishing
        with self._write_lock:
            if not prepared:
                return self._snapshot
            for name, _ in prepared:
                if name in self._views:
                    raise ValueError(f"view {name} already registered")
            views = dict(self._views)
            views.update(prepared)
            return self._publish(
                views, changed=[name for name, _ in prepared]
            )

    def unregister_view(self, name: str) -> CatalogSnapshot:
        """Drop a view and publish the successor snapshot.

        Raises :class:`KeyError` when the view is not registered.
        """
        with self._write_lock:
            if name not in self._views:
                raise KeyError(f"view {name} not registered")
            views = dict(self._views)
            del views[name]
            return self._publish(views, changed=(name,))

    def attach_freshness(self, tracker) -> CatalogSnapshot:
        """Attach a freshness tracker and republish the current epoch.

        ``tracker`` is a :class:`repro.cdc.FreshnessTracker`; every
        snapshot from here on carries it, enabling ``max_staleness``
        serving. Publishing a fresh epoch (with an unchanged registry)
        keeps the usual invalidation path honest: caches keyed by epoch
        discard entries produced without freshness awareness.
        """
        with self._write_lock:
            self._freshness = tracker
            return self._publish(dict(self._views), changed=())

    def add_listener(
        self, listener: Callable[[CatalogSnapshot], None]
    ) -> None:
        """Subscribe to snapshot publications.

        Listeners run synchronously under the writer lock, immediately
        after the new snapshot becomes visible to readers -- so by the time
        a listener (e.g. the rewrite cache's epoch purge) fires, no reader
        can still pick up the previous epoch.
        """
        self._listeners.append(listener)

    def close(self) -> None:
        """Let go of the served catalog and of every listener.

        The registry and the published epoch are replaced by empty ones,
        and the listeners -- bound methods of the owning server and its
        pool, the one reference cycle through this manager -- are
        dropped, so every registered view is freed by reference counting
        as soon as the last reader drops its snapshot. That matters
        because :meth:`_publish` froze those objects: the cyclic
        collector will never look at them again.
        """
        with self._write_lock:
            self._listeners.clear()
            self._views = {}
            self._snapshot = self._build(
                self._snapshot.epoch, self._new_tree(), self._views
            )

    # -- internals -----------------------------------------------------------

    def _prepare(
        self, name: str, definition: str | SelectStatement, batch: dict
    ) -> RegisteredView:
        """The expensive per-view work, run before the writer lock is
        taken: describe the view, compile its hub, record and packed row,
        and fill in its extent estimate (so pool workers forked from this
        process inherit it). Only the text stays: SQL text as given, a
        statement rendered once (:meth:`RegisteredView.definition`). The
        description goes when this returns. ``batch`` is the registration
        batch's dedupe table: the views of one batch share their equal
        record parts (:meth:`RegisteredView.of`), and the table goes with
        the batch.
        """
        if isinstance(definition, str):
            sql = definition
            statement = self.catalog.bind_sql(definition)
        else:
            sql = RegisteredView.definition(definition)
            statement = definition
        description = describe(statement, self.catalog, name=name)
        validate_view_description(description)
        with self._intern_lock:
            view = RegisteredView.of(description, self._interner, sql, batch)
        view.record.estimated_rows(self._estimator)
        return view

    def _publish(
        self, views: dict[str, RegisteredView], changed: Iterable[str]
    ) -> CatalogSnapshot:
        """Publish the epoch over ``views``. Caller holds the writer lock.

        The published tree is cloned copy-on-write and ``changed`` -- the
        names registered or dropped since, in registration order --
        applied to the clone: the packed row images stay shared with the
        previous epoch until a delta touches them, and the published
        tree is never mutated. Epochs only ever increase.
        """
        tree = self._snapshot.matcher.filter_tree.clone_cow()
        for name in changed:
            if tree.view(name) is not None:
                tree.unregister(name)
            if name in views:
                tree.register_prebuilt(views[name])
        snapshot = self._build(self._snapshot.epoch + 1, tree, views)
        self._views = views
        self._snapshot = snapshot  # the atomic publication point
        # Everything alive now -- above all the registered catalog -- moves
        # to the collector's permanent generation: no later collection, in
        # this process or in a pool worker forked from it, walks it again
        # (a walk writes every object's GC header, un-sharing the worker's
        # pages). Frozen objects are still freed by reference counting;
        # a frozen reference *cycle* is not, which is why registration
        # creates none and close() drops the listeners. Done before the
        # listeners run, because the pool's schedules a fork.
        gc.freeze()
        for listener in list(self._listeners):
            listener(snapshot)
        return snapshot

    def _new_tree(self) -> FilterTree:
        return FilterTree(interner=self._interner)

    def _build(
        self, epoch: int, tree: FilterTree, views: dict[str, RegisteredView]
    ) -> CatalogSnapshot:
        """The snapshot of ``epoch``: matcher and optimizer over ``tree``,
        which holds exactly ``views``."""
        matcher = ViewMatcher.with_filter_tree(
            self.catalog, tree, options=self.options, telemetry=self.telemetry
        )
        matcher.use_filter_tree = self.use_filter_tree
        optimizer = Optimizer(
            self.catalog,
            self.stats,
            matcher=matcher,
            config=self.optimizer_config,
            cost_model=self.cost_model,
            index_registry=self.index_registry,
        )
        return CatalogSnapshot(
            epoch=epoch,
            matcher=matcher,
            optimizer=optimizer,
            view_names=frozenset(views),
            freshness=self._freshness,
        )

    def __iter__(self) -> Iterator[str]:
        return iter(self._snapshot.view_names)

    def __len__(self) -> int:
        return len(self._snapshot.view_names)


__all__ = ["CatalogSnapshot", "SnapshotManager"]
