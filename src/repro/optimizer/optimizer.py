"""A small transformation-based optimizer with integrated view matching.

This plays the role of SQL Server's Cascades optimizer in the paper's
architecture: it enumerates join orders bottom-up over table subsets,
invokes the **view-matching rule** on every SPJG subexpression it
encounters (each connected subset's SPJ block, the full SPJG expression,
and every pre-aggregated block), lets all substitutes participate in
cost-based pruning alongside base-table plans, and returns the cheapest
executable plan.

The pre-aggregation alternative reproduces the paper's Example 4: for an
aggregation query, the optimizer also considers grouping a connected
sub-join early (on its join-out columns plus local grouping columns) and
joining the remaining tables afterwards -- which is exactly the shape that
lets an aggregation view match an inner block.

Instrumentation: per-optimization counters and timers for the Section 5
experiments (invocations of the rule, substitutes produced, time inside
the rule vs. total optimization time).
"""

from __future__ import annotations

import pickle
import time
from dataclasses import dataclass, fields
from itertools import combinations

from ..catalog.catalog import Catalog
from ..core.analyze import QueryAnalysis, bit_indices, bit_masks
from ..core.describe import SpjgDescription, describe_block
from ..core.matcher import ViewMatcher
from ..core.matching import STAGE_SKIPPED, ViewRecord
from ..core.options import DEFAULT_OPTIONS
from ..errors import DeadlineExceeded
from ..obs.trace import PlanAlternative, current_tracer
from ..sql.expressions import (
    BinaryOp,
    ColumnRef,
    Expression,
    FuncCall,
)
from ..sql.statements import SelectItem, SelectStatement
from ..stats.estimator import CardinalityEstimator
from ..stats.statistics import DatabaseStats
from .cost import DEFAULT_COST_MODEL, CostModel
from .plans import BlockNode, DirectNode, FinishNode, HashJoinNode, PlanNode

_PREAGG_RELATION = "#preagg"
#: Relative slack on a pre-aggregation budget: the budget is the best cost
#: minus terms the real plan adds in a different order, and only an inner
#: block that loses by more than float rounding may be skipped.
_BUDGET_SLACK = 1e-9


@dataclass
class OptimizerConfig:
    """Optimization switches mirroring the paper's experiment axes."""

    produce_substitutes: bool = True   # "Alt" vs "No Alt" in Figure 2
    enable_preaggregation: bool = True
    max_tables: int = 10
    #: Verify every invocation's candidates cheapest-first under a cost
    #: upper bound seeded from the alternatives already in hand (paper
    #: §2.4 spirit): a candidate whose cost lower bound cannot beat the
    #: bound is skipped unverified, and a pre-aggregation alternative
    #: whose budget no view read fits is dropped before its invocation.
    #: Never changes the chosen plan (cost or views, ties included).
    cost_bounded_matching: bool = True


_UNDECODED = object()


class _PlanField:
    """The ``plan`` field of :class:`OptimizationResult`, decoded on demand.

    A result fresh from :meth:`Optimizer.optimize` holds its plan. A
    result rebuilt from a frame (:meth:`OptimizationResult.from_frame`)
    -- every rewrite-cache entry, whether a pool worker or the serving
    process optimized it -- holds the plan's pickle instead and decodes
    it on the first read of ``plan``; the bytes are then dropped and
    every later read returns the decoded object. Two threads reading a fresh frame at once may both decode,
    but ``dict.setdefault`` (atomic under the GIL) keeps the first
    decoded plan, so both return that same object.
    """

    def __get__(self, result, owner=None):
        if result is None:
            raise AttributeError("plan")  # a required field: no default
        state = result.__dict__
        plan = state.get("_plan", _UNDECODED)
        if plan is not _UNDECODED:
            return plan
        encoded = state.get("_plan_bytes")
        if encoded is None:  # a concurrent reader decoded it meanwhile
            return state["_plan"]
        plan = state.setdefault("_plan", pickle.loads(encoded))
        state.pop("_plan_bytes", None)
        return plan

    def __set__(self, result, plan) -> None:
        result.__dict__["_plan"] = plan


@dataclass(frozen=True)
class OptimizationResult:
    """The chosen plan plus the instrumentation Section 5 reports.

    Frozen so results are safely cacheable and shareable across threads:
    the rewrite-serving layer (``repro.service``) stores them, as
    frames, in a fingerprint-keyed cache and hands one instance to many
    concurrent readers. ``view_names`` doubles as the cache-invalidation key -- an
    entry is evicted when any view it reads changes or is dropped.

    :meth:`to_frame` / :meth:`from_frame` carry a result across a
    process boundary as plain scalars plus the plan's pickle, which the
    receiving side decodes only when ``plan`` is read (see
    :class:`_PlanField`).
    """

    plan: PlanNode = _PlanField()
    cost: float
    uses_view: bool
    view_names: tuple[str, ...]
    invocations: int
    substitutes_produced: int
    candidates_considered: int
    optimize_seconds: float
    matching_seconds: float
    #: Per-search reject funnel: ``(RejectReason.name, count)`` pairs,
    #: sorted by reason name, summed over every view-matching
    #: invocation of this optimization. Carried on the frozen result so
    #: the workload recorder can journal the funnel even for requests
    #: answered from the rewrite cache.
    reject_tallies: tuple[tuple[str, int], ...] = ()
    #: Always 0: every candidate goes through the one verification path.
    #: ``benchmarks/e2e/runner.py`` still reads it; it stays until that
    #: harness is next revised.
    preverified_rejects: int = 0
    #: Candidates the cost bound skipped without verifying at all.
    candidates_skipped: int = 0
    #: Pre-aggregation alternatives dropped before their view-matching
    #: invocation because no inner plan could bring them under the best
    #: plan already in hand.
    preaggregations_dropped: int = 0

    def to_frame(self) -> tuple:
        """``(scalars, plan pickle)``: every field but ``plan``, in
        declaration order, then the plan pickled to bytes."""
        state = self.__dict__
        return (
            tuple([state[name] for name in _SCALAR_FIELDS]),
            pickle.dumps(self.plan, protocol=pickle.HIGHEST_PROTOCOL),
        )

    @classmethod
    def from_frame(cls, frame: tuple) -> "OptimizationResult":
        """The result :meth:`to_frame` encoded; its plan is decoded on
        the first read of ``plan``."""
        scalars, encoded = frame
        result = cls(None, *scalars)
        state = result.__dict__
        state["_plan_bytes"] = encoded
        del state["_plan"]
        return result


_SCALAR_FIELDS = tuple(field.name for field in fields(OptimizationResult))[1:]


class Optimizer:
    """Cost-based optimizer over one catalog/statistics pair."""

    def __init__(
        self,
        catalog: Catalog,
        stats: DatabaseStats,
        matcher: ViewMatcher | None = None,
        config: OptimizerConfig | None = None,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        index_registry=None,
    ):
        self.catalog = catalog
        self.stats = stats
        self.matcher = matcher
        self.config = config or OptimizerConfig()
        self.cost_model = cost_model
        self.estimator = CardinalityEstimator(stats)
        # Any object with ``on_relation(name) -> [index with .columns]``;
        # typically a Database's ``indexes`` registry. Indexes on
        # materialized views make substitutes cheaper, reproducing the
        # paper's "secondary indexes ... are automatically considered".
        self.index_registry = index_registry

    def indexed_leading_columns(self, relation_name: str) -> frozenset[str]:
        """Leading columns of the declared indexes on a relation."""
        if self.index_registry is None:
            return frozenset()
        return frozenset(
            index.columns[0]
            for index in self.index_registry.on_relation(relation_name)
        )

    # -- public API -----------------------------------------------------------

    def optimize(
        self,
        statement: SelectStatement,
        staleness=None,
        deadline: float | None = None,
    ) -> OptimizationResult:
        """Optimize a bound SPJG statement, returning the cheapest plan.

        ``staleness`` is forwarded to every view-matching invocation (see
        :meth:`repro.core.ViewMatcher.match`): candidates outside the
        bound are rejected as ``STALE`` and never enter plan search.
        ``deadline`` is an absolute ``time.monotonic()`` timestamp; the
        search checks it between subsets and before each view-matching
        invocation and raises :class:`~repro.errors.DeadlineExceeded`
        when overrun, bounding how long one request can hold a worker.
        """
        started = time.perf_counter()
        search = _Search(
            self, statement, staleness=staleness, deadline=deadline
        )
        plan = search.run()
        _build_substitutes(plan)
        elapsed = time.perf_counter() - started
        return OptimizationResult(
            plan=plan,
            cost=plan.cost,
            uses_view=plan.uses_view(),
            view_names=plan.view_names(),
            invocations=search.invocations,
            substitutes_produced=search.substitutes_produced,
            candidates_considered=search.candidates_considered,
            optimize_seconds=elapsed,
            matching_seconds=search.matching_seconds,
            reject_tallies=tuple(sorted(search.reject_tallies.items())),
            candidates_skipped=search.candidates_skipped,
            preaggregations_dropped=search.preaggregations_dropped,
        )

    def view_estimated_rows(self, view: ViewRecord) -> float:
        """The cardinality estimate of a registered view's extent.

        Priced from the inputs its record compiled at registration and
        memoized on the record for these statistics: the estimate
        outlives this optimizer (the serving layer builds one per epoch
        over the same statistics and records, and fills it before
        publishing), and a name re-registered with a new definition gets
        a new record.
        """
        return view.estimated_rows(self.estimator)


class _Search:
    """One optimization run: DP over table subsets plus top alternatives."""

    def __init__(
        self,
        optimizer: Optimizer,
        statement: SelectStatement,
        staleness=None,
        deadline: float | None = None,
    ):
        self.optimizer = optimizer
        self.statement = statement
        self.staleness = staleness
        self.deadline = deadline
        self.catalog = optimizer.catalog
        self.cost_model = optimizer.cost_model
        self.estimator = optimizer.estimator
        self.tables = tuple(statement.table_names())
        if len(self.tables) > optimizer.config.max_tables:
            raise ValueError(
                f"{len(self.tables)} tables exceeds configured maximum"
            )
        # The one analysis of this request: every block the search
        # describes and matches is derived from it.
        matcher = optimizer.matcher
        self.analysis = QueryAnalysis(
            statement,
            self.catalog,
            matcher.options if matcher is not None else DEFAULT_OPTIONS,
        )
        #: The block of every table (table ``i`` of the analysis is bit ``i``).
        self.all_tables = (1 << len(self.analysis.table_names)) - 1
        self.invocations = 0
        self.substitutes_produced = 0
        self.candidates_considered = 0
        self.matching_seconds = 0.0
        self.reject_tallies: dict[str, int] = {}
        self.candidates_skipped = 0
        self.preaggregations_dropped = 0
        config = optimizer.config
        self.cost_bounded = (
            config.cost_bounded_matching
            and config.produce_substitutes
            and optimizer.matcher is not None
        )
        # Keyed by block mask. Pre-aggregation iterates ``best`` in
        # insertion order, and plan cost ties depend on that order.
        self.best: dict[int, PlanNode] = {}
        self._blocks: dict[int, SpjgDescription] = {}
        self._block_cardinality: dict[int, float] = {}
        # ``(mask, conjunct, pair)`` of every conjunct that names a table,
        # where ``pair`` is ``(table bit, key, table bit, key)`` of a
        # column equality's two sides (``None`` for any other conjunct).
        self._joining: list = []
        analysis = self.analysis
        for mask, conjunct, equality in zip(
            analysis.conjunct_masks,
            analysis.conjuncts,
            analysis.conjunct_equalities,
        ):
            if not mask:
                continue
            pair = None
            if equality is not None and not mask & ~self.all_tables:
                a, b = equality
                pair = (analysis.mask_of((a[0],)), a, analysis.mask_of((b[0],)), b)
            self._joining.append((mask, conjunct, pair))

    # -- descriptions ----------------------------------------------------------

    def _describe(self, *block) -> SpjgDescription:
        """Describe the query -- or, given the arguments of
        :func:`~repro.core.describe.describe_block`, one block of it --
        under the matcher's options."""
        matcher = self.optimizer.matcher
        if matcher is not None:
            return matcher.describe_query(self.analysis, *block)
        return describe_block(self.analysis, *block)

    def _block(self, subset: int) -> SpjgDescription:
        """The SPJ block of ``subset`` (its ``statement`` outputs the
        columns the rest of the query needs), described once per search:
        the estimator and the view-matching rule share it."""
        cached = self._blocks.get(subset)
        if cached is None:
            cached = self._blocks[subset] = self._describe(subset)
        return cached

    # -- view-matching rule ------------------------------------------------------

    def _check_deadline(self) -> None:
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise DeadlineExceeded(
                "optimization overran its deadline mid-search"
            )

    def _cost_policy(
        self, block: SpjgDescription, output_rows: float, bound: float
    ) -> "_CostBoundPolicy | None":
        """The verification bound for matching ``block``, seeded with ``bound``.

        ``bound`` must be the cost of an alternative that precedes the
        invocation's substitutes in the plan list they compete in, so
        that it wins a cost tie against any of them.
        """
        if not self.cost_bounded:
            return None
        return _CostBoundPolicy(self, output_rows, bound, block.is_aggregate)

    def _invoke_view_matching(
        self, block: SpjgDescription, cost_policy=None
    ) -> list:
        """The view-matching rule: returns successful match results."""
        matcher = self.optimizer.matcher
        if matcher is None:
            return []
        # Matching dominates search time at large catalogs, so the
        # per-invocation check here is what actually bounds a request
        # that started just under its deadline.
        self._check_deadline()
        started = time.perf_counter()
        try:
            results = matcher.match(
                block, staleness=self.staleness, cost_policy=cost_policy
            )
        finally:
            self.matching_seconds += time.perf_counter() - started
        self.invocations += 1
        self.candidates_considered += sum(1 for _ in results)
        tallies = self.reject_tallies
        for result in results:
            if result.reject_reason is not None:
                name = result.reject_reason.name
                tallies[name] = tallies.get(name, 0) + 1
            elif result.stage == STAGE_SKIPPED:
                self.candidates_skipped += 1
        matches = [r for r in results if r.matched]
        self.substitutes_produced += len(matches)
        if not self.optimizer.config.produce_substitutes:
            return []
        return matches

    # -- subset machinery -----------------------------------------------------------

    def _join_edges(self) -> set[int]:
        """The join graph's edges: the two-table mask of every column
        equality between two tables."""
        return {
            mask
            for mask, _, pair in self._joining
            if pair is not None and mask & (mask - 1)
        }

    def _neighbours(self) -> list[int]:
        """Per table, the mask of the tables it joins."""
        neighbours = [0] * len(self.analysis.table_names)
        for edge in self._join_edges():
            low = edge & -edge
            high = edge ^ low
            neighbours[low.bit_length() - 1] |= high
            neighbours[high.bit_length() - 1] |= low
        return neighbours

    def _connected_subsets(self) -> list[int]:
        """All connected subsets of the join graph, smallest first (ties
        in table-name order)."""
        neighbours = self._neighbours()
        found = {1 << index for index in range(len(neighbours))}
        frontier = list(found)
        while frontier:
            grown = []
            for subset in frontier:
                reach = 0
                for index in bit_indices(subset):
                    reach |= neighbours[index]
                for bit in bit_masks(reach & ~subset):
                    candidate = subset | bit
                    if candidate not in found:
                        found.add(candidate)
                        grown.append(candidate)
            frontier = grown
        return sorted(
            found, key=lambda subset: (subset.bit_count(), bit_indices(subset))
        )

    def _block_rows(self, subset: int) -> float:
        cached = self._block_cardinality.get(subset)
        if cached is None:
            cached = self.estimator.spj_cardinality(self._block(subset))
            self._block_cardinality[subset] = cached
        return cached

    # -- DP over subsets -----------------------------------------------------------

    def run(self) -> PlanNode:
        # Leaf plans and view matching per connected subset (except the full
        # set, which is matched as the actual query expression below).
        for subset in self._connected_subsets():
            self._check_deadline()
            candidates = self._subset_candidates(subset)
            self.best[subset] = min(candidates, key=lambda plan: plan.cost)

        if self.all_tables not in self.best:
            self._cover_disconnected()
        return self._top_plan(self.best[self.all_tables])

    def _subset_candidates(self, subset: int) -> list[PlanNode]:
        description = self._block(subset)
        est_rows = self._block_rows(subset)
        candidates: list[PlanNode] = []
        if not subset & (subset - 1):
            table = self.analysis.table_names[subset.bit_length() - 1]
            scan_rows = self.stats_rows(table)
            if self._has_usable_index(table, self.analysis.local_ranges(subset)):
                cost = self.cost_model.index_seek(est_rows)
            else:
                cost = self.cost_model.block(
                    scan_rows, filtered=self.analysis.has_local(subset)
                )
            candidates.append(
                BlockNode(
                    statement=description.statement,
                    output_keys=self._output_keys(subset),
                    est_rows=est_rows,
                    cost=cost,
                )
            )
        else:
            for left_set, right_set in self._splits(subset):
                left = self.best[left_set]
                right = self.best[right_set]
                candidates.append(
                    self._join_plan(left, right, left_set, right_set, subset, est_rows)
                )
        # The view-matching rule fires on every SPJ block except the full
        # query, which is matched with its real output list in _top_plan.
        if subset != self.all_tables or self.statement.is_aggregate:
            cost_policy = self._cost_policy(
                description, est_rows, min(plan.cost for plan in candidates)
            )
            for match in self._invoke_view_matching(description, cost_policy):
                candidates.append(
                    self._substitute_block(
                        match, self._output_keys(subset), est_rows
                    )
                )
        return candidates

    def _output_keys(self, subset: int) -> tuple:
        """The keys a plan of block ``subset`` publishes: its needed
        columns, the select list of its statement."""
        return tuple(ref.key for ref in self.analysis.needed_columns(subset))

    def stats_rows(self, table: str) -> float:
        return float(self.optimizer.stats.row_count(table))

    def _splits(self, subset: int):
        """Every ``(left, right)`` split of ``subset`` into two planned
        blocks, the lowest table always on the left."""
        members = bit_masks(subset)
        for size in range(1, len(members)):
            for combo in combinations(members[1:], size):
                right_set = sum(combo)
                left_set = subset ^ right_set
                if left_set in self.best and right_set in self.best:
                    yield left_set, right_set

    def _join_plan(
        self,
        left: PlanNode,
        right: PlanNode,
        left_set: int,
        right_set: int,
        subset: int,
        est_rows: float,
    ) -> HashJoinNode:
        join_pairs: list[tuple[tuple[str, str], tuple[str, str]]] = []
        residual: list[Expression] = []
        for mask, conjunct, pair in self._joining:
            if mask & ~subset:
                continue
            if not mask & ~left_set or not mask & ~right_set:
                continue  # already applied inside a child block
            if pair is not None:
                bit_a, a, bit_b, b = pair
                if bit_a & left_set and bit_b & right_set:
                    join_pairs.append((a, b))
                    continue
                if bit_b & left_set and bit_a & right_set:
                    join_pairs.append((b, a))
                    continue
            residual.append(conjunct)
        if join_pairs:
            join_cost = self.cost_model.hash_join(
                left.est_rows, right.est_rows, est_rows
            )
        else:
            join_cost = self.cost_model.cross_join(left.est_rows, right.est_rows)
        return HashJoinNode(
            left=left,
            right=right,
            join_pairs=tuple(join_pairs),
            residual=tuple(residual),
            est_rows=est_rows,
            cost=left.cost + right.cost + join_cost,
        )

    def _has_usable_index(self, relation_name: str, ranges) -> bool:
        """An index seek applies when a range conjunct (``ranges``: its
        ``RangePredicate``) hits a leading column."""
        leading = self.optimizer.indexed_leading_columns(relation_name)
        if not leading:
            return False
        return any(predicate.column[1] in leading for predicate in ranges)

    def _substitute_cost(self, match, output_rows: float) -> float:
        """Cost of evaluating a match's substitute -- view scan, backjoins,
        regroup -- priced from its decision, without building it."""
        view_rows = self.optimizer.view_estimated_rows(match.view)
        leading = self.optimizer.indexed_leading_columns(match.view.name)
        if leading and any(column in leading for column in match.range_columns()):
            cost = self.cost_model.index_seek(min(view_rows, output_rows))
        else:
            cost = self.cost_model.block(view_rows, filtered=match.filtered)
        # Backjoined base tables (Section 7 extension) add a join each.
        for table in match.backjoined_tables:
            cost += self.cost_model.hash_join(
                view_rows, self.stats_rows(table), view_rows
            )
        if match.grouped:
            cost += self.cost_model.group(view_rows, output_rows)
        return cost

    def _substitute_block(
        self, match, output_keys: tuple, est_rows: float
    ) -> BlockNode:
        cost = self._substitute_cost(match, est_rows)
        return BlockNode(
            statement=None,
            output_keys=output_keys,
            view_name=match.view.name,
            est_rows=est_rows,
            cost=cost,
            match=match,
        )

    def _cover_disconnected(self) -> None:
        """Cross-join the connected components when the graph is split."""
        components = self._component_set()
        ordered = [subset for subset in self.best if subset in components]
        ordered.sort(key=bit_indices)
        current_set = ordered[0]
        current = self.best[current_set]
        for component in ordered[1:]:
            joined_set = current_set | component
            est = self._block_rows(joined_set)
            current = self._join_plan(
                current, self.best[component], current_set, component, joined_set, est
            )
            current_set = joined_set
            self.best[current_set] = current

    def _component_set(self) -> set[int]:
        """The connected components of the join graph, as block masks."""
        neighbours = self._neighbours()
        remaining = self.all_tables
        components: set[int] = set()
        while remaining:
            component = frontier = remaining & -remaining
            while frontier:
                reach = 0
                for index in bit_indices(frontier):
                    reach |= neighbours[index]
                frontier = reach & ~component
                component |= frontier
            components.add(component)
            remaining &= ~component
        return components

    # -- top-level alternatives --------------------------------------------------------

    def _top_plan(self, spj_plan: PlanNode) -> PlanNode:
        statement = self.statement
        spj_rows = self._block_rows(self.all_tables)
        query_description = self._describe()
        output_rows = self.estimator.output_cardinality(query_description)

        candidates: list[PlanNode] = []
        finish_cost = spj_plan.cost
        if statement.is_aggregate:
            finish_cost += self.cost_model.group(spj_rows, output_rows)
        else:
            finish_cost += self.cost_model.filter(spj_rows)
        candidates.append(
            FinishNode(
                child=spj_plan,
                select_items=statement.select_items,
                group_by=statement.group_by,
                aggregate=statement.is_aggregate,
                distinct=statement.distinct,
                est_rows=output_rows,
                cost=finish_cost,
            )
        )

        # The view-matching rule on the query expression itself. The
        # finish plan built above is a real alternative, so its cost is a
        # valid initial upper bound for cost-bounded verification.
        cost_policy = self._cost_policy(
            query_description, output_rows, finish_cost
        )
        for match in self._invoke_view_matching(query_description, cost_policy):
            cost = self._substitute_cost(match, output_rows)
            candidates.append(
                DirectNode(
                    statement=None,
                    view_name=match.view.name,
                    est_rows=output_rows,
                    cost=cost,
                    match=match,
                )
            )

        if statement.is_aggregate and self.optimizer.config.enable_preaggregation:
            candidates.extend(
                self._preaggregation_plans(
                    output_rows, min(plan.cost for plan in candidates)
                )
            )
        best = min(candidates, key=lambda plan: plan.cost)
        tracer = current_tracer()
        if tracer.active:
            tracer.on_plan_choice(
                [
                    PlanAlternative(
                        kind=(
                            "base"
                            if index == 0
                            else "view"
                            if isinstance(plan, DirectNode)
                            else "preaggregation"
                        ),
                        cost=plan.cost,
                        views=plan.view_names(),
                        chosen=plan is best,
                    )
                    for index, plan in enumerate(candidates)
                ]
            )
        return best

    # -- pre-aggregation (Example 4) -------------------------------------------------

    def _preaggregation_plans(
        self, output_rows: float, best_cost: float
    ) -> list[PlanNode]:
        """Every pre-aggregation alternative worth building.

        ``best_cost`` is the cheapest top-level plan so far; it is
        threaded through the loop so each alternative competes against
        everything that precedes it in the plan list.
        """
        plans: list[PlanNode] = []
        all_tables = self.all_tables
        aggregates = _distinct_aggregate_calls(self.statement)
        if not aggregates:
            return plans
        rollup = _rollup(self.statement, aggregates)
        if rollup is None:
            return plans
        aggregate_only = _aggregate_only_columns(self.statement, aggregates)
        # The tables the aggregate arguments read: all of them must lie in
        # the pre-aggregated side.
        mask_of = self.analysis.mask_of
        argument_tables = 0
        for call in aggregates:
            if not call.star:
                argument_tables |= mask_of(
                    ref.table for ref in call.args[0].column_refs()
                )
        for subset in list(self.best):
            if subset == all_tables or not subset:
                continue
            rest = all_tables ^ subset
            if rest not in self.best or argument_tables & ~subset:
                continue
            plan = self._preaggregation_plan(
                subset, rest, rollup, aggregate_only, output_rows, best_cost
            )
            if plan is not None:
                plans.append(plan)
                best_cost = min(best_cost, plan.cost)
        return plans

    def _preaggregation_plan(
        self,
        subset: int,
        rest: int,
        rollup: tuple,
        aggregate_only: set[tuple[str, str]],
        output_rows: float,
        best_cost: float,
    ) -> PlanNode | None:
        aggregate_items, aggregate_keys, rewritten_items = rollup
        # Inner grouping keys: subset columns the outside still needs
        # (join columns, predicate columns, grouping/output columns).
        keys = tuple(
            ref
            for ref in self.analysis.needed_columns(subset)
            if ref.key not in aggregate_only
        )
        output_keys = tuple(ref.key for ref in keys) + aggregate_keys
        inner_spj_rows = self._block_rows(subset)
        inner_groups = self.estimator.group_rows(inner_spj_rows, keys)
        # Direct computation of the inner block from base tables.
        direct_cost = self.best[subset].cost + self.cost_model.group(
            inner_spj_rows, inner_groups
        )
        rest_plan = self.best[rest]
        all_tables = self.all_tables
        join_rows = min(
            inner_groups * max(rest_plan.est_rows, 1.0),
            self._block_rows(all_tables),
        )
        final_group = self.cost_model.group(join_rows, output_rows)

        def join_with(inner: PlanNode) -> HashJoinNode:
            return self._join_plan(
                inner, rest_plan, subset, rest, all_tables, join_rows
            )

        # Every inner candidate yields inner_groups rows, so the rest
        # plan, the join and the final grouping cost the same whichever
        # wins: price them by joining a free inner block. What is left of
        # the best plan so far is all an inner block may cost; the slack
        # absorbs the rounding of summing the same terms in another order.
        fixed = join_with(PlanNode(est_rows=inner_groups)).cost + final_group
        budget = best_cost - fixed + _BUDGET_SLACK * best_cost
        if self.cost_bounded and budget <= min(
            direct_cost, self.cost_model.block(0.0, filtered=False)
        ):
            # Neither the direct block nor any view read fits the budget.
            self.preaggregations_dropped += 1
            return None
        inner = self._describe(
            subset, tuple(SelectItem(ref) for ref in keys) + aggregate_items, keys
        )
        inner_candidates: list[PlanNode] = [
            BlockNode(
                statement=inner.statement,
                output_keys=output_keys,
                est_rows=inner_groups,
                cost=direct_cost,
            )
        ]
        cost_policy = self._cost_policy(
            inner, inner_groups, min(direct_cost, budget)
        )
        for match in self._invoke_view_matching(inner, cost_policy):
            inner_candidates.append(
                BlockNode(
                    statement=None,
                    output_keys=output_keys,
                    view_name=match.view.name,
                    est_rows=inner_groups,
                    cost=self._substitute_cost(match, inner_groups),
                    match=match,
                )
            )
        join = join_with(min(inner_candidates, key=lambda plan: plan.cost))
        return FinishNode(
            child=join,
            select_items=rewritten_items,
            group_by=self.statement.group_by,
            aggregate=True,
            distinct=self.statement.distinct,
            est_rows=output_rows,
            cost=join.cost + final_group,
        )


class _CostBoundPolicy:
    """Best-first verification oracle for one view-matching invocation.

    The matcher sorts candidates by :meth:`lower_bound`, reports each
    successful match through :meth:`observe`, and skips every candidate
    :meth:`bound` proves cannot beat the best plan in hand.
    The lower bound is sound against :meth:`_Search._substitute_cost`:
    every substitute reads the view's extent at least once -- an
    unfiltered scan, or, only when the view has an index at all, the
    cheaper of that and a seek capped at the output cardinality -- an
    aggregate block over an SPJ view always regroups the view's rows,
    and backjoins and residual filters only add cost.
    """

    __slots__ = ("_search", "_output_rows", "_bound", "_regroup")

    def __init__(
        self,
        search: "_Search",
        output_rows: float,
        initial_bound: float,
        regroup: bool,
    ) -> None:
        self._search = search
        self._output_rows = output_rows
        self._bound = initial_bound
        self._regroup = regroup

    def bound(self) -> float:
        return self._bound

    def lower_bound(self, view: ViewRecord) -> float:
        optimizer = self._search.optimizer
        model = self._search.cost_model
        view_rows = optimizer.view_estimated_rows(view)
        cost = model.block(view_rows, filtered=False)
        if optimizer.indexed_leading_columns(view.name):
            cost = min(
                cost, model.index_seek(min(view_rows, self._output_rows))
            )
        if self._regroup and not view.aggregate:
            cost += model.group(view_rows, self._output_rows)
        return cost

    def observe(self, result) -> bool:
        """Fold a verified match in; true when it lowered the bound."""
        cost = self._search._substitute_cost(result, self._output_rows)
        if cost < self._bound:
            self._bound = cost
            return True
        return False


def _build_substitutes(plan: PlanNode) -> None:
    """Build the substitute of every view read the chosen plan makes.

    Only these are ever built. Each node then holds its statement and
    lets go of its match -- and with it of the request's descriptions and
    the views' records: the pool pickles the result, the rewrite cache
    keeps it.
    """
    for node in plan.walk():
        match = getattr(node, "match", None)
        if match is not None:
            node.statement = match.substitute
            node.match = None


def _rollup(
    statement: SelectStatement, aggregates: list[FuncCall]
) -> tuple | None:
    """How the query's aggregates regroup over a pre-aggregated block.

    ``(inner items, their output keys, rewritten select items)``: the
    inner block outputs ``sum(x)`` per summed or averaged argument and
    ``count_big(*)``, and the query's select list sums those up again.
    ``None`` when a ``count(E)`` over rows cannot be rolled up through a
    group/join/group pipeline, which disables the alternative.
    """
    items: list[SelectItem] = []
    output_keys: list[tuple[str, str]] = []
    aggregate_map: dict[FuncCall, Expression] = {}
    count_ref = ColumnRef(_PREAGG_RELATION, "cnt")
    for i, call in enumerate(aggregates):
        if call.star:
            aggregate_map[call] = FuncCall("sum", (count_ref,))
            continue
        if call.name in ("count", "count_big"):
            return None
        virtual = ColumnRef(_PREAGG_RELATION, f"agg{i}")
        items.append(SelectItem(FuncCall("sum", call.args), alias=f"agg{i}"))
        output_keys.append(virtual.key)
        if call.name == "sum":
            aggregate_map[call] = FuncCall("sum", (virtual,))
        else:  # avg
            aggregate_map[call] = BinaryOp(
                "/",
                FuncCall("sum", (virtual,)),
                FuncCall("sum", (count_ref,)),
            )
    items.append(SelectItem(FuncCall("count_big", star=True), alias="cnt"))
    output_keys.append(count_ref.key)
    rewritten = tuple(
        SelectItem(
            _rewrite_aggregates(item.expression, aggregate_map),
            alias=item.alias,
        )
        for item in statement.select_items
    )
    return tuple(items), tuple(output_keys), rewritten


def _rewrite_aggregates(
    expression: Expression, aggregate_map: dict[FuncCall, Expression]
) -> Expression:
    """Replace aggregate calls in an output expression per the rollup map."""
    if isinstance(expression, FuncCall) and expression.is_aggregate():
        return aggregate_map[expression]
    if not expression.contains_aggregate():
        return expression
    return expression.with_children(
        [_rewrite_aggregates(child, aggregate_map) for child in expression.children()]
    )


def _distinct_aggregate_calls(statement: SelectStatement) -> list[FuncCall]:
    calls: list[FuncCall] = []
    for item in statement.select_items:
        for node in item.expression.walk():
            if isinstance(node, FuncCall) and node.is_aggregate() and node not in calls:
                calls.append(node)
    return calls


def _aggregate_only_columns(
    statement: SelectStatement, aggregates: list[FuncCall]
) -> set[tuple[str, str]]:
    """Columns that appear solely inside aggregate arguments."""
    inside = {
        inner.key
        for call in aggregates
        if not call.star
        for inner in call.args[0].column_refs()
    }
    outside: set[tuple[str, str]] = set()

    # An explicit stack, not a nested function calling itself: that is a
    # reference cycle only the collector frees.
    pending = [item.expression for item in statement.select_items]
    pending.extend(statement.group_by)
    if statement.where is not None:
        pending.append(statement.where)
    while pending:
        expression = pending.pop()
        if isinstance(expression, FuncCall) and expression.is_aggregate():
            continue
        if isinstance(expression, ColumnRef):
            outside.add(expression.key)
        else:
            pending.extend(expression.children())
    return inside - outside


__all__ = [
    "OptimizationResult",
    "Optimizer",
    "OptimizerConfig",
]
