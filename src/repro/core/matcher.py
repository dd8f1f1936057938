"""The view-matching service: registration, filtering, matching, statistics.

:class:`ViewMatcher` is the component a transformation-based optimizer calls
from its view-matching rule. It keeps an in-memory description of every
materialized view, indexes the descriptions in a filter tree, and -- per
invocation -- narrows to candidates, runs the full matching tests, and
returns substitute expressions.

The matcher counts what Section 5 of the paper reports: invocations,
candidate-set sizes, how many candidates survive full matching, and
substitutes produced.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..errors import MatchError
from ..obs.telemetry import (
    TelemetryHub,
    WorkerTelemetry,
    current_trace_context,
    telemetry_hub,
)
from ..obs.trace import current_tracer
from ..sql.statements import SelectStatement
from .analyze import QueryAnalysis
from .describe import (
    SpjgDescription,
    describe,
    describe_block,
    validate_view_description,
)
from .filtertree import FilterTree, RegisteredView
from .interning import KeyInterner
from .matching import (
    STAGE_SKIPPED,
    MatchResult,
    RejectReason,
    decide,
    match_view,
)
from .options import DEFAULT_OPTIONS, MatchOptions
from .parallel import fork_available, forked_map
from .sharding import ShardedFilterTree

if TYPE_CHECKING:
    from ..catalog.catalog import Catalog


@dataclass
class MatcherStatistics:
    """Counters accumulated across view-matching invocations."""

    invocations: int = 0
    views_considered: int = 0     # candidates handed to full matching
    views_registered_total: int = 0  # sum over invocations of registry size
    matches: int = 0              # candidates that produced a substitute
    substitutes: int = 0          # total substitutes returned
    rejects_by_reason: dict[str, int] = field(default_factory=dict)
    # Candidates never verified at all because the optimizer's cost bound
    # proved no cheaper plan was reachable.
    candidates_skipped: int = 0

    def record_rejection(self, reason: RejectReason) -> None:
        key = reason.name
        self.rejects_by_reason[key] = self.rejects_by_reason.get(key, 0) + 1

    @property
    def candidate_fraction(self) -> float:
        """Average fraction of registered views that survived filtering."""
        if self.views_registered_total == 0:
            return 0.0
        return self.views_considered / self.views_registered_total

    @property
    def candidate_success_rate(self) -> float:
        """Fraction of candidates that passed full matching."""
        if self.views_considered == 0:
            return 0.0
        return self.matches / self.views_considered

    @property
    def substitutes_per_invocation(self) -> float:
        if self.invocations == 0:
            return 0.0
        return self.substitutes / self.invocations

    def reset(self) -> None:
        self.invocations = 0
        self.views_considered = 0
        self.views_registered_total = 0
        self.matches = 0
        self.substitutes = 0
        self.rejects_by_reason.clear()
        self.candidates_skipped = 0

    def merge(self, other: "MatcherStatistics") -> None:
        """Fold another counter set into this one.

        The parallel batch path accumulates statistics in forked workers
        and merges each worker's counters back into the parent matcher,
        so funnels stay identical to a sequential run of the same batch.
        """
        self.invocations += other.invocations
        self.views_considered += other.views_considered
        self.views_registered_total += other.views_registered_total
        self.matches += other.matches
        self.substitutes += other.substitutes
        for reason, count in other.rejects_by_reason.items():
            self.rejects_by_reason[reason] = (
                self.rejects_by_reason.get(reason, 0) + count
            )
        self.candidates_skipped += other.candidates_skipped

    def report(self) -> str:
        """A human-readable summary (candidate funnel + rejection reasons)."""
        lines = [
            f"invocations:            {self.invocations}",
            f"candidates checked:     {self.views_considered} "
            f"({self.candidate_fraction:.3%} of registered views)",
            f"matches / substitutes:  {self.matches} / {self.substitutes} "
            f"({self.candidate_success_rate:.0%} of candidates)",
            f"substitutes/invocation: {self.substitutes_per_invocation:.2f}",
        ]
        if self.candidates_skipped:
            lines.append(
                f"cost-bound skipped:     {self.candidates_skipped}"
            )
        if self.rejects_by_reason:
            lines.append("rejections by reason:")
            total_rejects = sum(self.rejects_by_reason.values())
            for reason, count in sorted(
                self.rejects_by_reason.items(), key=lambda kv: -kv[1]
            ):
                lines.append(
                    f"  {reason.lower():20s} {count:6d} ({count / total_rejects:.0%})"
                )
        return "\n".join(lines)


class ViewMatcher:
    """Registry plus matching engine over one catalog."""

    def __init__(
        self,
        catalog: "Catalog",
        options: MatchOptions = DEFAULT_OPTIONS,
        use_filter_tree: bool = True,
        interner: KeyInterner | None = None,
        use_interning: bool = True,
        shard_count: int = 1,
        telemetry: TelemetryHub | None = None,
    ):
        """``interner`` shares key-atom bit assignments with other trees
        (the serving layer reuses one across epoch rebuilds).
        ``use_interning=False`` disables the bitset keys -- the "before"
        configuration the hot-path benchmark compares against; production
        callers leave it on. ``shard_count > 1``
        partitions the registry across that many per-shard filter trees
        (:class:`~repro.core.sharding.ShardedFilterTree`), the layout the
        parallel matching fan-out requires; candidate sets and ordering
        are unchanged. ``telemetry`` injects the sink for the always-on
        cross-process pipeline (invocation sketches, worker snapshots);
        ``None`` falls back to the process-global hub.
        """
        self.catalog = catalog
        self.options = options
        self.use_filter_tree = use_filter_tree
        self.shard_count = shard_count
        self.telemetry = telemetry
        if shard_count > 1:
            self.filter_tree: FilterTree | ShardedFilterTree = ShardedFilterTree(
                options,
                shard_count=shard_count,
                interner=interner,
                use_interning=use_interning,
            )
            self.filter_tree.telemetry = telemetry
        else:
            self.filter_tree = FilterTree(
                options, interner=interner, use_interning=use_interning
            )
        self.statistics = MatcherStatistics()

    @property
    def interner(self) -> KeyInterner | None:
        """The filter tree's key interner (None in reference mode)."""
        return self.filter_tree.interner

    @classmethod
    def with_filter_tree(
        cls,
        catalog: "Catalog",
        filter_tree: FilterTree,
        options: MatchOptions = DEFAULT_OPTIONS,
        telemetry: TelemetryHub | None = None,
    ) -> "ViewMatcher":
        """Build a matcher around an existing filter tree.

        The serving layer derives each epoch's tree from the previous
        epoch's (:meth:`FilterTree.clone_cow` plus the registration
        delta) and hands it in here; no view is re-indexed.
        """
        matcher = cls.__new__(cls)
        matcher.catalog = catalog
        matcher.options = options
        matcher.use_filter_tree = True
        matcher.shard_count = 1
        matcher.filter_tree = filter_tree
        matcher.statistics = MatcherStatistics()
        matcher.telemetry = telemetry
        return matcher

    # -- registration -------------------------------------------------------

    def register_view(self, name: str, statement: SelectStatement) -> RegisteredView:
        """Register a bound SPJG view definition under ``name``.

        Raises :class:`MatchError` when the definition is outside the
        indexable-view class of Section 2.
        """
        description = describe(
            statement, self.catalog, name=name, options=self.options
        )
        validate_view_description(description)
        return self.filter_tree.register(description)

    def register_from_catalog(self) -> int:
        """Register every view currently defined in the catalog."""
        count = 0
        for view in self.catalog.views():
            if self.filter_tree.view(view.name) is None:
                self.register_view(view.name, view.query)
                count += 1
        return count

    def unregister_view(self, name: str) -> None:
        """Remove a view from the registry and the filter tree."""
        self.filter_tree.unregister(name)

    @property
    def view_count(self) -> int:
        return len(self.filter_tree)

    def registered_views(self) -> tuple[RegisteredView, ...]:
        """All currently registered views."""
        return self.filter_tree.views()

    # -- matching -------------------------------------------------------------

    def _hub(self) -> TelemetryHub:
        """The telemetry sink: the injected hub or the process global."""
        return self.telemetry if self.telemetry is not None else telemetry_hub()

    def describe_query(
        self,
        statement: SelectStatement | QueryAnalysis,
        block: int | None = None,
        select_items=None,
        group_by=(),
    ) -> SpjgDescription:
        """Build a query description under this matcher's options.

        The optimizer analyses a request's statement once (a
        :class:`~repro.core.analyze.QueryAnalysis` built with these
        options) and passes that instead of a statement: the result then
        describes ``block`` of it -- the remaining arguments are those of
        :func:`~repro.core.describe.describe_block` -- derived from the
        analysis rather than from a fresh pass over the block's AST. A
        statement is analysed here and described whole, so every query
        description carries its analysis.
        """
        if not isinstance(statement, QueryAnalysis):
            statement = QueryAnalysis(statement, self.catalog, self.options)
        return describe_block(statement, block, select_items, group_by)

    def candidates(self, query: SpjgDescription) -> list[RegisteredView]:
        """The candidate set for one query expression.

        With the filter tree disabled this is every registered view -- the
        configuration of the paper's "No Filter" experiment lines.
        """
        if self.use_filter_tree:
            return self.filter_tree.candidates(query)
        return list(self.filter_tree.views())

    def match(
        self,
        query: SpjgDescription | SelectStatement,
        workers: int | None = None,
        staleness=None,
        cost_policy=None,
    ) -> list[MatchResult]:
        """One view-matching invocation: all match results over candidates.

        Returns the full :class:`MatchResult` list (successes and
        rejections) for diagnosability; use :meth:`substitutes` when only
        the rewrites are wanted. Each candidate is *decided* from its
        registration record; a successful result builds its substitute
        when it is first read. ``workers > 1`` fans candidate filtering
        and full matching out across forked workers, one shard group each
        -- requires a sharded tree and ``fork``; results, ordering, and
        statistics are identical to a sequential run.

        ``staleness`` is an optional policy callable (typically a
        :class:`repro.cdc.StalenessBound`): called with a candidate view's
        name, it returns ``None`` when the view is usable or a detail
        string when the view's maintenance lag exceeds the request's
        bound. Excluded candidates are recorded with the ``STALE`` reject
        reason -- they still count as considered, so the funnel shows
        staleness attrition next to the structural reject reasons.

        ``cost_policy`` enables cost-bounded best-first verification (the
        optimizer's path): candidates are verified cheapest-first by the
        policy's per-view cost lower bound, every successful match is
        reported through ``policy.observe(result)`` (true when it lowered
        the upper bound), and a candidate whose lower bound proves it
        cannot become the chosen plan is returned unverified with
        ``stage="skipped"`` (substitute and reject reason both ``None``)
        -- never staleness-checked or walked. "Cannot become
        the chosen plan" is ``lower_bound > bound``, or ``==`` when the
        bound's holder precedes the candidate in the optimizer's
        alternative list (``min`` keeps the earliest of equal costs): the
        caller's seed alternative precedes every substitute, a verified
        match precedes the candidates registered after it. The result
        list keeps candidate order regardless.
        """
        if isinstance(query, SelectStatement):
            query = self.describe_query(query)
        if (
            workers is not None
            and workers > 1
            and cost_policy is None
            and isinstance(self.filter_tree, ShardedFilterTree)
            and fork_available()
        ):
            return self._match_parallel(query, workers, staleness)
        started = time.perf_counter()
        options = self.options
        stats = self.statistics
        stats.invocations += 1
        stats.views_registered_total += self.view_count
        candidates = self.candidates(query)
        order = range(len(candidates))
        bounds = None
        if cost_policy is not None and candidates:
            bounds = [
                cost_policy.lower_bound(candidate.description)
                for candidate in candidates
            ]
            order = sorted(order, key=lambda p: (bounds[p], p))
        results: list[MatchResult | None] = [None] * len(candidates)
        matched = 0
        holder = -1  # position of the match holding the bound; -1 = seed
        for position in order:
            candidate = candidates[position]
            if bounds is not None:
                limit = cost_policy.bound()
                if bounds[position] > limit or (
                    bounds[position] == limit and holder < position
                ):
                    stats.candidates_skipped += 1
                    results[position] = MatchResult(
                        view=candidate.description, stage=STAGE_SKIPPED
                    )
                    continue
            stats.views_considered += 1
            stale_detail = (
                staleness(candidate.description.name)
                if staleness is not None
                else None
            )
            if stale_detail is not None:
                result = MatchResult(
                    view=candidate.description,
                    reject_reason=RejectReason.STALE,
                    reject_detail=stale_detail,
                )
            elif candidate.record.options is options:
                result = decide(query, candidate.record, options)
            else:
                result = match_view(
                    query, candidate.description, options, candidate.record
                )
            if result.matched:
                matched += 1
                stats.matches += 1
                stats.substitutes += 1
                if cost_policy is not None and cost_policy.observe(result):
                    holder = position
            elif result.reject_reason is not None:
                stats.record_rejection(result.reject_reason)
            results[position] = result
        self._record_invocation(
            time.perf_counter() - started, len(candidates), matched
        )
        tracer = current_tracer()
        if tracer.active:
            tracer.on_match_invocation(self.view_count, candidates, results)
        return results

    def _record_invocation(
        self, elapsed: float, candidates: int, matched: int
    ) -> None:
        """Always-on telemetry for one invocation: one sketch sample and
        three counter adds -- cheap enough to leave on (the bench's
        telemetry-overhead gate holds it there)."""
        hub = self._hub()
        hub.record("match_invocation_seconds", elapsed)
        hub.increment("match_invocations")
        if candidates:
            hub.increment("match_candidates", candidates)
        if matched:
            hub.increment("match_matches", matched)

    def _match_parallel(
        self, query: SpjgDescription, workers: int, staleness=None
    ) -> list[MatchResult]:
        """Fan one invocation's filtering and matching across forked workers.

        Each worker filters its assigned shards and runs ``match_view`` on
        the survivors; the parent merges by global registration sequence,
        so the result list is ordered exactly like the sequential path's
        and the statistics funnel is computed from the merged results.
        The staleness policy is applied in the parent after the merge --
        a stale candidate's result is replaced with a ``STALE`` rejection
        before statistics are computed, so the funnel matches the
        sequential path exactly.

        Each worker also returns a serialized
        :class:`~repro.obs.telemetry.TelemetrySnapshot` -- its counters,
        per-candidate latency sketch, and a ``match.worker`` span tagged
        with the active :class:`TraceContext`'s trace id -- which the
        parent merges into its hub and, when a tracer is sampling this
        request, stitches into the parent trace.  Before this, forked
        matching recorded nothing: the child's in-memory metrics died
        with the child.
        """
        started = time.perf_counter()
        tree = self.filter_tree
        assert isinstance(tree, ShardedFilterTree)
        worker_count = max(1, min(workers, tree.shard_count))
        groups = [
            tuple(range(start, tree.shard_count, worker_count))
            for start in range(worker_count)
        ]
        options = self.options
        # Captured by value into the closure: the context crosses the
        # fork inside the child's copy-on-write image.
        context = current_trace_context()
        trace_id = context.trace_id if context is not None else None

        def match_group(
            shard_indices: tuple[int, ...],
        ) -> tuple[list[tuple[int, RegisteredView, MatchResult]], dict]:
            worker = WorkerTelemetry()
            sketch = worker.sketch("match_worker_view_seconds")
            worker_started = time.perf_counter()
            pairs = tree.shard_candidates(query, shard_indices)
            entries = []
            matched = 0
            for sequence, candidate in pairs:
                candidate_started = time.perf_counter()
                result = match_view(
                    query, candidate.description, options, candidate.record
                )
                # Built here: the result crosses back to the parent by
                # pickle, which should carry the substitute, not the
                # query description and view record it is built from.
                result.substitute
                sketch.record(time.perf_counter() - candidate_started)
                if result.matched:
                    matched += 1
                entries.append((sequence, candidate, result))
            elapsed = time.perf_counter() - worker_started
            worker.counter("match_worker_candidates", len(entries))
            if matched:
                worker.counter("match_worker_matches", matched)
            worker.record_span(
                "match.worker",
                elapsed,
                trace_id=trace_id,
                shards=list(shard_indices),
                candidates=len(entries),
                matched=matched,
            )
            return entries, worker.snapshot().to_dict()

        hub = self._hub()
        tracer = current_tracer()
        merged: list[tuple[int, RegisteredView, MatchResult]] = []
        for group, snapshot_dict in forked_map(
            match_group, groups, worker_count
        ):
            merged.extend(group)
            hub.merge_snapshot_dict(snapshot_dict)
            if tracer.active:
                for span in snapshot_dict.get("spans", ()):
                    attributes = dict(span.get("attributes", {}))
                    if span.get("trace_id") is not None:
                        attributes["trace_id"] = span["trace_id"]
                    tracer.record_span(
                        span["name"], span.get("duration", 0.0), **attributes
                    )
        merged.sort(key=lambda entry: entry[0])
        if staleness is not None:
            merged = [
                (
                    sequence,
                    candidate,
                    MatchResult(
                        view=candidate.description,
                        reject_reason=RejectReason.STALE,
                        reject_detail=stale_detail,
                    )
                    if (
                        stale_detail := staleness(candidate.description.name)
                    )
                    is not None
                    else result,
                )
                for sequence, candidate, result in merged
            ]
        stats = self.statistics
        stats.invocations += 1
        stats.views_registered_total += self.view_count
        candidates = [candidate for _, candidate, _ in merged]
        results: list[MatchResult] = []
        matched = 0
        for _, _, result in merged:
            stats.views_considered += 1
            if result.matched:
                matched += 1
                stats.matches += 1
                stats.substitutes += 1
            elif result.reject_reason is not None:
                stats.record_rejection(result.reject_reason)
            results.append(result)
        self._record_invocation(
            time.perf_counter() - started, len(candidates), matched
        )
        if tracer.active:
            tracer.on_match_invocation(self.view_count, candidates, results)
        return results

    def match_many(
        self,
        queries,
        workers: int | None = None,
        staleness=None,
    ) -> list[list[MatchResult]]:
        """Match a batch of queries, one full result list per query.

        With ``workers > 1`` (and ``fork`` available) the batch is split
        across forked workers, each running the ordinary sequential match
        for its queries against the copy-on-write shared registry; worker
        statistics merge back into this matcher so the funnel equals a
        sequential run of the same batch. Tracer events raised inside
        workers stay in the worker process.
        """
        described = [
            self.describe_query(query)
            if isinstance(query, SelectStatement)
            else query
            for query in queries
        ]
        if not described:
            return []
        worker_count = workers or 1
        if worker_count <= 1 or not fork_available():
            return [
                self.match(query, staleness=staleness) for query in described
            ]

        def match_one(
            query: SpjgDescription,
        ) -> tuple[list[MatchResult], MatcherStatistics, dict]:
            # Child-local statistics and telemetry: start fresh so the
            # parent can merge exactly this query's contribution.
            self.statistics = MatcherStatistics()
            self.telemetry = TelemetryHub()
            results = self.match(query, staleness=staleness)
            return (
                results,
                self.statistics,
                self.telemetry.export_snapshot().to_dict(),
            )

        outcomes = forked_map(
            match_one, described, min(worker_count, len(described))
        )
        hub = self._hub()
        combined: list[list[MatchResult]] = []
        for results, stats, snapshot_dict in outcomes:
            self.statistics.merge(stats)
            hub.merge_snapshot_dict(snapshot_dict)
            combined.append(results)
        return combined

    def substitutes(
        self, query: SpjgDescription | SelectStatement, staleness=None
    ) -> list[MatchResult]:
        """Successful matches only, each carrying its substitute statement."""
        return [
            result
            for result in self.match(query, staleness=staleness)
            if result.matched
        ]

    def match_sql(self, sql: str) -> list[MatchResult]:
        """Convenience: parse, bind, and match a SELECT statement."""
        return self.substitutes(self.catalog.bind_sql(sql))

    def union_substitutes(self, query: SpjgDescription | SelectStatement):
        """Union substitutes (Section 7) over the registered views.

        Runs the restricted multi-view search of
        :func:`repro.core.unions.find_union_substitutes` on the filter
        tree's candidate set. Union substitutes do not participate in the
        single-view statistics counters.
        """
        from .unions import find_union_substitutes

        if isinstance(query, SelectStatement):
            query = self.describe_query(query)
        candidates = [view.description for view in self.candidates(query)]
        return find_union_substitutes(query, candidates, self.options)


def matcher_for_catalog(
    catalog: "Catalog",
    options: MatchOptions = DEFAULT_OPTIONS,
    use_filter_tree: bool = True,
) -> ViewMatcher:
    """Build a matcher and register every view already in the catalog."""
    matcher = ViewMatcher(catalog, options=options, use_filter_tree=use_filter_tree)
    matcher.register_from_catalog()
    return matcher


__all__ = [
    "MatchError",
    "MatcherStatistics",
    "MatchResult",
    "RejectReason",
    "ViewMatcher",
    "matcher_for_catalog",
]
