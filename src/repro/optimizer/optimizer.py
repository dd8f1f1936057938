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

import time
from dataclasses import dataclass, replace
from itertools import combinations

from ..catalog.catalog import Catalog
from ..core.analyze import QueryAnalysis
from ..core.describe import SpjgDescription, describe_block
from ..core.matcher import ViewMatcher
from ..core.matching import STAGE_SKIPPED
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


@dataclass(frozen=True)
class OptimizationResult:
    """The chosen plan plus the instrumentation Section 5 reports.

    Frozen so results are safely cacheable and shareable across threads:
    the rewrite-serving layer (``repro.service``) stores them in a
    fingerprint-keyed cache and hands one instance to many concurrent
    readers. ``view_names`` doubles as the cache-invalidation key -- an
    entry is evicted when any view it reads changes or is dropped.
    """

    plan: PlanNode
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
    #: ``benchmarks/e2e/runner.py`` and the workload journal still read
    #: it; it stays until that harness is next revised.
    preverified_rejects: int = 0
    #: Candidates the cost bound skipped without verifying at all.
    candidates_skipped: int = 0
    #: Pre-aggregation alternatives dropped before their view-matching
    #: invocation because no inner plan could bring them under the best
    #: plan already in hand.
    preaggregations_dropped: int = 0


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

    def explain(self, statement: SelectStatement) -> str:
        """Optimize and render the chosen plan plus instrumentation.

        A convenience for interactive use: the plan tree with per-node
        row/cost estimates, which views it reads, and the view-matching
        counters for this optimization.
        """
        from .plans import describe_plan

        result = self.optimize(statement)
        lines = [describe_plan(result.plan)]
        lines.append(
            f"cost={result.cost:.0f} "
            f"views={list(result.view_names) or 'none'} "
            f"rule-invocations={result.invocations} "
            f"substitutes={result.substitutes_produced}"
        )
        return "\n".join(lines)

    def view_estimated_rows(self, view: SpjgDescription) -> float:
        """Cached cardinality estimate for a registered view's extent.

        Memoized on the statistics, keyed by the description object: the
        estimate outlives this optimizer (the serving layer builds one
        per epoch over the same statistics and descriptions), and a name
        re-registered with a new definition never inherits the old one's.
        """
        cache = self.stats.view_rows
        cached = cache.get(view)
        if cached is None:
            cached = cache[view] = self.estimator.output_cardinality(view)
        return cached


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
        self.conjuncts = self.analysis.conjuncts
        self.conjunct_tables = self.analysis.conjunct_tables
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
        self.best: dict[frozenset[str], PlanNode] = {}
        self._blocks: dict[frozenset[str], SpjgDescription] = {}
        self._block_cardinality: dict[frozenset[str], float] = {}

    # -- descriptions ----------------------------------------------------------

    def _describe(self, *block) -> SpjgDescription:
        """Describe the query -- or, given the arguments of
        :func:`~repro.core.describe.describe_block`, one block of it --
        under the matcher's options."""
        matcher = self.optimizer.matcher
        if matcher is not None:
            return matcher.describe_query(self.analysis, *block)
        return describe_block(self.analysis, *block)

    def _block(self, subset: frozenset[str]) -> SpjgDescription:
        """The SPJ block of ``subset`` (its ``statement`` outputs the
        columns the rest of the query needs), described once per search:
        the estimator and the view-matching rule share it."""
        cached = self._blocks.get(subset)
        if cached is None:
            cached = self._describe(self.analysis.mask_of(subset))
            self._blocks[subset] = cached
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

    def _join_edges(self) -> set[frozenset[str]]:
        edges: set[frozenset[str]] = set()
        for conjunct, tables in zip(self.conjuncts, self.conjunct_tables):
            if (
                isinstance(conjunct, BinaryOp)
                and conjunct.op == "="
                and isinstance(conjunct.left, ColumnRef)
                and isinstance(conjunct.right, ColumnRef)
                and len(tables) == 2
            ):
                edges.add(tables)
        return edges

    def _connected_subsets(self) -> list[frozenset[str]]:
        """All connected subsets of the join graph, smallest first."""
        edges = self._join_edges()
        found: set[frozenset[str]] = {frozenset({t}) for t in self.tables}
        frontier = list(found)
        while frontier:
            grown: list[frozenset[str]] = []
            for subset in frontier:
                for table in self.tables:
                    if table in subset:
                        continue
                    if any(frozenset({table, member}) in edges for member in subset):
                        candidate = subset | {table}
                        if candidate not in found:
                            found.add(candidate)
                            grown.append(candidate)
            frontier = grown
        return sorted(found, key=lambda s: (len(s), sorted(s)))

    def _block_rows(self, subset: frozenset[str]) -> float:
        cached = self._block_cardinality.get(subset)
        if cached is None:
            cached = self.estimator.spj_cardinality(self._block(subset))
            self._block_cardinality[subset] = cached
        return cached

    # -- DP over subsets -----------------------------------------------------------

    def run(self) -> PlanNode:
        connected = self._connected_subsets()
        connected_set = set(connected)
        all_tables = frozenset(self.tables)

        # Leaf plans and view matching per connected subset (except the full
        # set, which is matched as the actual query expression below).
        for subset in connected:
            self._check_deadline()
            candidates = self._subset_candidates(subset, connected_set)
            self.best[subset] = min(candidates, key=lambda plan: plan.cost)

        if all_tables not in self.best:
            self._cover_disconnected(all_tables)
        return self._top_plan(self.best[all_tables])

    def _subset_candidates(
        self, subset: frozenset[str], connected: set[frozenset[str]]
    ) -> list[PlanNode]:
        description = self._block(subset)
        block = description.statement
        est_rows = self._block_rows(subset)
        candidates: list[PlanNode] = []
        if len(subset) == 1:
            (table,) = subset
            scan_rows = self.stats_rows(table)
            if self._has_usable_index(table, block):
                cost = self.cost_model.index_seek(est_rows)
            else:
                cost = self.cost_model.block(
                    scan_rows, filtered=block.where is not None
                )
            candidates.append(
                BlockNode(
                    statement=block,
                    output_keys=tuple(ref.key for ref in block.output_expressions()),  # type: ignore[arg-type]
                    est_rows=est_rows,
                    cost=cost,
                )
            )
        else:
            for left_set, right_set in self._splits(subset, connected):
                left = self.best[left_set]
                right = self.best[right_set]
                candidates.append(
                    self._join_plan(left, right, left_set, right_set, subset, est_rows)
                )
        # The view-matching rule fires on every SPJ block except the full
        # query, which is matched with its real output list in _top_plan.
        if subset != frozenset(self.tables) or self.statement.is_aggregate:
            cost_policy = self._cost_policy(
                description, est_rows, min(plan.cost for plan in candidates)
            )
            for match in self._invoke_view_matching(description, cost_policy):
                candidates.append(
                    self._substitute_block(match, block, est_rows)
                )
        return candidates

    def stats_rows(self, table: str) -> float:
        return float(self.optimizer.stats.row_count(table))

    def _splits(
        self, subset: frozenset[str], connected: set[frozenset[str]]
    ):
        members = sorted(subset)
        anchor = members[0]
        for size in range(1, len(members)):
            for combo in combinations(members[1:], size):
                right_set = frozenset(combo)
                left_set = subset - right_set
                assert anchor in left_set
                if left_set in self.best and right_set in self.best:
                    yield left_set, right_set

    def _join_plan(
        self,
        left: PlanNode,
        right: PlanNode,
        left_set: frozenset[str],
        right_set: frozenset[str],
        subset: frozenset[str],
        est_rows: float,
    ) -> HashJoinNode:
        join_pairs: list[tuple[tuple[str, str], tuple[str, str]]] = []
        residual: list[Expression] = []
        for conjunct, tables in zip(self.conjuncts, self.conjunct_tables):
            if not tables or not tables <= subset:
                continue
            if tables <= left_set or tables <= right_set:
                continue  # already applied inside a child block
            pair = _equijoin_pair(conjunct, left_set, right_set)
            if pair is not None:
                join_pairs.append(pair)
            else:
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

    def _has_usable_index(
        self, relation_name: str, statement: SelectStatement
    ) -> bool:
        """An index seek applies when a sargable conjunct hits a leading column."""
        leading = self.optimizer.indexed_leading_columns(relation_name)
        if not leading:
            return False
        from ..core.ranges import as_range_predicate
        from ..core.normalize import conjuncts_of

        for conjunct in conjuncts_of(statement.where):
            recognised = as_range_predicate(conjunct)
            if recognised is not None and recognised.column[1] in leading:
                return True
        return False

    def _substitute_cost(self, match, output_rows: float) -> float:
        """Cost of evaluating a substitute: view scan, backjoins, regroup."""
        view_rows = self.optimizer.view_estimated_rows(match.view)
        view_name = match.view.name
        if view_name is not None and self._has_usable_index(
            view_name, match.substitute
        ):
            cost = self.cost_model.index_seek(min(view_rows, output_rows))
        else:
            cost = self.cost_model.block(
                view_rows, filtered=match.substitute.where is not None
            )
        # Backjoined base tables (Section 7 extension) add a join each.
        for ref in match.substitute.from_tables[1:]:
            cost += self.cost_model.hash_join(
                view_rows, self.stats_rows(ref.name), view_rows
            )
        if match.substitute.is_aggregate:
            cost += self.cost_model.group(view_rows, output_rows)
        return cost

    def _substitute_block(
        self, match, block: SelectStatement, est_rows: float
    ) -> BlockNode:
        cost = self._substitute_cost(match, est_rows)
        return BlockNode(
            statement=match.substitute,
            output_keys=tuple(
                ref.key for ref in block.output_expressions()  # type: ignore[union-attr]
            ),
            view_name=match.view.name,
            est_rows=est_rows,
            cost=cost,
        )

    def _cover_disconnected(self, all_tables: frozenset[str]) -> None:
        """Cross-join the connected components when the graph is split."""
        components = [s for s in self.best if s in self._component_set()]
        components.sort(key=lambda s: sorted(s))
        current_set = components[0]
        current = self.best[current_set]
        for component in components[1:]:
            joined_set = current_set | component
            est = self._block_rows(joined_set)
            current = self._join_plan(
                current, self.best[component], current_set, component, joined_set, est
            )
            current_set = joined_set
            self.best[current_set] = current

    def _component_set(self) -> set[frozenset[str]]:
        edges = self._join_edges()
        remaining = set(self.tables)
        components: set[frozenset[str]] = set()
        while remaining:
            start = sorted(remaining)[0]
            component = {start}
            frontier = [start]
            while frontier:
                node = frontier.pop()
                for other in list(remaining):
                    if other not in component and frozenset({node, other}) in edges:
                        component.add(other)
                        frontier.append(other)
            components.add(frozenset(component))
            remaining -= component
        return components

    # -- top-level alternatives --------------------------------------------------------

    def _top_plan(self, spj_plan: PlanNode) -> PlanNode:
        statement = self.statement
        all_tables = frozenset(self.tables)
        spj_rows = self._block_rows(all_tables)
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
                    statement=match.substitute,
                    view_name=match.view.name,
                    est_rows=output_rows,
                    cost=cost,
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
        all_tables = frozenset(self.tables)
        aggregates = _distinct_aggregate_calls(self.statement)
        if not aggregates:
            return plans
        aggregate_only = _aggregate_only_columns(self.statement, aggregates)
        for subset in list(self.best):
            if subset == all_tables or len(subset) < 1:
                continue
            rest = all_tables - subset
            if rest not in self.best:
                continue
            plan = self._preaggregation_plan(
                subset, rest, aggregates, aggregate_only, output_rows, best_cost
            )
            if plan is not None:
                plans.append(plan)
                best_cost = min(best_cost, plan.cost)
        return plans

    def _preaggregation_plan(
        self,
        subset: frozenset[str],
        rest: frozenset[str],
        aggregates: list[FuncCall],
        aggregate_only: set[tuple[str, str]],
        output_rows: float,
        best_cost: float,
    ) -> PlanNode | None:
        # Every aggregate argument must live inside the pre-aggregated side,
        # and count(E) over rows (non-star) cannot be rolled up through a
        # group/join/group pipeline, so it disables the alternative.
        for call in aggregates:
            if call.star:
                continue
            if call.name in ("count", "count_big"):
                return None
            if any(ref.table not in subset for ref in call.args[0].column_refs()):
                return None
        # Inner grouping keys: subset columns the outside still needs
        # (join columns, predicate columns, grouping/output columns).
        block = self.analysis.mask_of(subset)
        keys = [
            ref
            for ref in self.analysis.needed_columns(block)
            if ref.key not in aggregate_only
        ]
        inner_items = [SelectItem(ref, alias=None) for ref in keys]
        output_keys: list[tuple[str, str]] = [ref.key for ref in keys]
        aggregate_map: dict[FuncCall, Expression] = {}
        needs_count = False
        for i, call in enumerate(aggregates):
            if call.star or call.name in ("count", "count_big"):
                needs_count = True
                continue
            if call.name == "avg":
                needs_count = True
            virtual = ColumnRef(_PREAGG_RELATION, f"agg{i}")
            inner_items.append(
                SelectItem(FuncCall("sum", call.args), alias=f"agg{i}")
            )
            output_keys.append(virtual.key)
            if call.name == "sum":
                aggregate_map[call] = FuncCall("sum", (virtual,))
            else:  # avg
                count_ref = ColumnRef(_PREAGG_RELATION, "cnt")
                aggregate_map[call] = BinaryOp(
                    "/",
                    FuncCall("sum", (virtual,)),
                    FuncCall("sum", (count_ref,)),
                )
        count_ref = ColumnRef(_PREAGG_RELATION, "cnt")
        inner_items.append(SelectItem(FuncCall("count_big", star=True), alias="cnt"))
        output_keys.append(count_ref.key)
        if needs_count:
            for call in aggregates:
                if call.star or call.name in ("count", "count_big"):
                    aggregate_map.setdefault(call, FuncCall("sum", (count_ref,)))

        inner_spj_rows = self._block_rows(subset)
        inner = self._describe(block, tuple(inner_items), tuple(keys))
        inner_statement = inner.statement
        inner_groups = self.estimator.group_count(inner)
        # Direct computation of the inner block from base tables.
        direct = BlockNode(
            statement=inner_statement,
            output_keys=tuple(output_keys),
            est_rows=inner_groups,
            cost=self.best[subset].cost
            + self.cost_model.group(inner_spj_rows, inner_groups),
        )
        rest_plan = self.best[rest]
        all_tables = frozenset(self.tables)
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
        fixed = join_with(replace(direct, cost=0.0)).cost + final_group
        budget = best_cost - fixed + _BUDGET_SLACK * best_cost
        if self.cost_bounded and budget <= min(
            direct.cost, self.cost_model.block(0.0, filtered=False)
        ):
            # Neither the direct block nor any view read fits the budget.
            self.preaggregations_dropped += 1
            return None
        inner_candidates: list[PlanNode] = [direct]
        cost_policy = self._cost_policy(
            inner, inner_groups, min(direct.cost, budget)
        )
        for match in self._invoke_view_matching(inner, cost_policy):
            inner_candidates.append(
                BlockNode(
                    statement=match.substitute,
                    output_keys=tuple(output_keys),
                    view_name=match.view.name,
                    est_rows=inner_groups,
                    cost=self._substitute_cost(match, inner_groups),
                )
            )
        join = join_with(min(inner_candidates, key=lambda plan: plan.cost))
        rewritten_items = tuple(
            SelectItem(
                _rewrite_aggregates(item.expression, aggregate_map),
                alias=item.alias,
            )
            for item in self.statement.select_items
        )
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

    def lower_bound(self, view: SpjgDescription) -> float:
        optimizer = self._search.optimizer
        model = self._search.cost_model
        view_rows = optimizer.view_estimated_rows(view)
        cost = model.block(view_rows, filtered=False)
        if optimizer.indexed_leading_columns(view.name):
            cost = min(
                cost, model.index_seek(min(view_rows, self._output_rows))
            )
        if self._regroup and not view.is_aggregate:
            cost += model.group(view_rows, self._output_rows)
        return cost

    def observe(self, result) -> bool:
        """Fold a verified match in; true when it lowered the bound."""
        cost = self._search._substitute_cost(result, self._output_rows)
        if cost < self._bound:
            self._bound = cost
            return True
        return False


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


def _equijoin_pair(
    conjunct: Expression,
    left_set: frozenset[str],
    right_set: frozenset[str],
) -> tuple[tuple[str, str], tuple[str, str]] | None:
    if (
        isinstance(conjunct, BinaryOp)
        and conjunct.op == "="
        and isinstance(conjunct.left, ColumnRef)
        and isinstance(conjunct.right, ColumnRef)
    ):
        left, right = conjunct.left, conjunct.right
        if left.table in left_set and right.table in right_set:
            return left.key, right.key
        if right.table in left_set and left.table in right_set:
            return right.key, left.key
    return None


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
