"""The view-matching service: registration, filtering, matching, statistics.

:class:`ViewMatcher` is the component a transformation-based optimizer calls
from its view-matching rule. It describes every materialized view once, at
registration, keeps what the tests read of it (a view record) and the
filter tree's keys, and -- per invocation -- narrows to candidates, runs
the full matching tests, and returns substitute expressions.

The matcher counts what Section 5 of the paper reports: invocations,
candidate-set sizes, how many candidates survive full matching, and
substitutes produced.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..errors import MatchError
from ..obs.telemetry import TelemetryHub, telemetry_hub
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
)
from .options import DEFAULT_OPTIONS, MatchOptions

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


class ViewMatcher:
    """Registry plus matching engine over one catalog."""

    def __init__(
        self,
        catalog: "Catalog",
        options: MatchOptions = DEFAULT_OPTIONS,
        use_filter_tree: bool = True,
        interner: KeyInterner | None = None,
        telemetry: TelemetryHub | None = None,
    ):
        """``interner`` shares key-atom bit assignments with other trees
        (the serving layer reuses one across epoch rebuilds).
        ``telemetry`` injects the sink for the always-on invocation
        telemetry (sketches and counters); ``None`` falls back to the
        process-global hub.
        """
        self.catalog = catalog
        self.options = options
        self.use_filter_tree = use_filter_tree
        self.telemetry = telemetry
        self.filter_tree = FilterTree(interner=interner)
        self.statistics = MatcherStatistics()

    @property
    def interner(self) -> KeyInterner:
        """The filter tree's key interner."""
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
        description = describe(statement, self.catalog, name=name)
        validate_view_description(description)
        return self.filter_tree.register(description)

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
        staleness=None,
        cost_policy=None,
    ) -> list[MatchResult]:
        """One view-matching invocation: all match results over candidates.

        Returns the full :class:`MatchResult` list (successes and
        rejections) for diagnosability; use :meth:`substitutes` when only
        the rewrites are wanted. Each candidate is *decided* from its
        registration record; a successful result builds its substitute
        when it is first read.

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
                cost_policy.lower_bound(candidate.record)
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
                        view=candidate.record, stage=STAGE_SKIPPED
                    )
                    continue
            stats.views_considered += 1
            record = candidate.record
            stale_detail = (
                staleness(record.name) if staleness is not None else None
            )
            if stale_detail is not None:
                result = MatchResult(
                    view=record,
                    reject_reason=RejectReason.STALE,
                    reject_detail=stale_detail,
                )
            else:
                result = decide(query, record, options)
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


__all__ = [
    "MatchError",
    "MatcherStatistics",
    "MatchResult",
    "RejectReason",
    "ViewMatcher",
]
