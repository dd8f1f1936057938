"""The view-matching algorithm (Section 3 of the paper).

Given the descriptions of a query SPJG expression and a candidate
materialized view, decide whether the query can be computed from the view
alone and, if so, construct the substitute expression over the view:

1. table-set containment, with extra view tables eliminated through
   cardinality-preserving foreign-key joins (Section 3.2),
2. the equijoin subsumption test over column equivalence classes,
3. the range subsumption test over per-class intervals,
4. the residual subsumption test via shallow expression matching,
5. mapping of compensating predicates and output expressions to view
   output columns,
6. aggregation handling: group-by subset check, compensating group-by,
   count(*) -> SUM(count_big), AVG -> SUM/COUNT_BIG (Section 3.3).

Every rejection carries a :class:`RejectReason` so tests and the
experiment harness can report where candidates die.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from enum import Enum, auto

from ..sql.expressions import (
    BinaryOp,
    ColumnRef,
    Expression,
    FuncCall,
    IsNull,
    Literal,
    conjunction,
)
from ..sql.statements import SelectItem, SelectStatement, TableRef
from .analyze import column_domain
from .describe import SpjgDescription
from .equivalence import ColumnKey, EquivalenceClasses
from .fkgraph import FkEdge, build_fk_join_graph, eliminate_tables
from .intervalsets import IntervalSet, OrRangePredicate, UNBOUNDED_SET, as_or_range
from .normalize import classify_predicate
from .options import DEFAULT_OPTIONS, MatchOptions
from .ranges import (
    RangePredicate,
    UNBOUNDED,
    compensating_range_conjuncts,
    derive_ranges,
)
from .residual import ShallowForm


class RejectReason(Enum):
    """Where in the pipeline a candidate view was rejected."""

    VIEW_KIND = auto()            # aggregation view for a non-aggregation query
    TABLES = auto()               # view lacks some query table
    EXTRA_TABLES = auto()         # extra tables not cardinality-preserving
    NULLABLE_FK = auto()          # nullable FK join without null rejection
    EQUIJOIN = auto()             # equijoin subsumption failed
    RANGE = auto()                # range subsumption failed
    RESIDUAL = auto()             # residual subsumption failed
    PREDICATE_MAPPING = auto()    # compensating predicate not computable
    OUTPUT_MAPPING = auto()       # output expression not computable
    GROUPING = auto()             # query group-by not a subset of the view's
    AGGREGATE = auto()            # aggregate not derivable from view outputs
    STALE = auto()                # view's applied LSN outside the staleness bound


#: Pipeline stage that produced a :class:`MatchResult`. ``verify`` is the
#: per-candidate walk below; ``skipped`` marks candidates the matcher never
#: verified because the optimizer's cost bound proved no cheaper plan was
#: reachable (neither matched nor rejected).
STAGE_VERIFY = "verify"
STAGE_SKIPPED = "skipped"


@dataclass
class MatchResult:
    """Outcome of matching one query expression against one view."""

    view: SpjgDescription
    substitute: SelectStatement | None = None
    reject_reason: RejectReason | None = None
    reject_detail: str = ""
    compensating_equalities: int = 0
    compensating_ranges: int = 0
    compensating_residuals: int = 0
    regrouped: bool = False
    eliminated_tables: tuple[str, ...] = ()
    backjoined_tables: tuple[str, ...] = ()
    #: Which stage produced this result (bookkeeping, not an outcome).
    stage: str = field(default=STAGE_VERIFY, compare=False, repr=False)

    @property
    def matched(self) -> bool:
        return self.substitute is not None

    def compensation_steps(self) -> list[str]:
        """Human-readable summary of what the substitute had to compensate.

        One line per compensation kind actually applied (extra-table FK
        elimination, backjoins, equality/range/residual predicates,
        group-by rollup); the rewrite-path tracer records these for the
        winning view of each match invocation.
        """
        steps: list[str] = []
        if self.eliminated_tables:
            steps.append(
                "extra-table FK elimination: "
                + ", ".join(self.eliminated_tables)
            )
        if self.backjoined_tables:
            steps.append(
                "backjoined base tables: " + ", ".join(self.backjoined_tables)
            )
        if self.compensating_equalities:
            steps.append(
                f"{self.compensating_equalities} compensating column "
                "equalities"
            )
        if self.compensating_ranges:
            steps.append(
                f"{self.compensating_ranges} compensating range predicates"
            )
        if self.compensating_residuals:
            steps.append(
                f"{self.compensating_residuals} compensating residual "
                "predicates"
            )
        if self.regrouped:
            steps.append("group-by rollup (compensating aggregation)")
        if not steps and self.matched:
            steps.append("exact match, no compensation")
        return steps


class _Reject(Exception):
    """Internal control flow: abandon the match with a reason."""

    def __init__(self, reason: RejectReason, detail: str = ""):
        super().__init__(detail)
        self.reason = reason
        self.detail = detail


@dataclass(slots=True)
class _ViewOutputs:
    """Lookup structures over a view's output list.

    ``slots=True``: one instance lives on every registered view for the
    process lifetime, so per-instance ``__dict__`` overhead is resident
    catalog memory. ``copy.copy`` (see ``fresh_outputs``) works with
    slots classes, which is all a match with backjoins needs.
    """

    view_name: str
    simple: dict[ColumnKey, str]
    expressions: list[tuple[ShallowForm, str]] = field(default_factory=list)
    aggregates: list[tuple[ShallowForm, str]] = field(default_factory=list)
    count_big_column: str | None = None
    backjoins: "_BackjoinState | None" = None

    @classmethod
    def of(cls, view: SpjgDescription) -> "_ViewOutputs":
        assert view.name is not None
        outputs = cls(view_name=view.name, simple=view.simple_output_map)
        for info in view.expression_outputs:
            assert info.name is not None
            expr = info.expression
            if isinstance(expr, FuncCall) and expr.is_aggregate():
                if expr.name == "count_big" and expr.star:
                    outputs.count_big_column = info.name
                else:
                    outputs.aggregates.append((info.form, info.name))
            else:
                outputs.expressions.append((info.form, info.name))
        return outputs

    def direct_column_for(
        self, key: ColumnKey, eqclasses: EquivalenceClasses
    ) -> ColumnRef | None:
        """Reroute ``key`` to an exposed output column (no backjoins)."""
        if key in self.simple:
            return ColumnRef(self.view_name, self.simple[key])
        if key not in eqclasses:
            return None
        for member in sorted(eqclasses.class_of(key)):
            if member in self.simple:
                return ColumnRef(self.view_name, self.simple[member])
        return None

    def column_for(
        self, key: ColumnKey, eqclasses: EquivalenceClasses
    ) -> ColumnRef | None:
        """Reroute ``key`` to an output column, backjoining as a last resort."""
        direct = self.direct_column_for(key, eqclasses)
        if direct is not None:
            return direct
        if self.backjoins is not None:
            return self.backjoins.resolve(key)
        return None

    def expression_output_for(
        self, form: ShallowForm, eqclasses: EquivalenceClasses
    ) -> ColumnRef | None:
        """A view output column computing exactly this expression."""
        for candidate, name in self.expressions:
            if candidate.matches(form, eqclasses):
                return ColumnRef(self.view_name, name)
        return None

    def sum_output_for(
        self, argument: Expression, eqclasses: EquivalenceClasses
    ) -> ColumnRef | None:
        """The view's SUM output over an equivalent argument expression."""
        wanted = ShallowForm.of(FuncCall("sum", (argument,)))
        for candidate, name in self.aggregates:
            if candidate.matches(wanted, eqclasses):
                return ColumnRef(self.view_name, name)
        return None


class _BackjoinState:
    """Pending base-table backjoins for one match (Section 7 extension).

    A missing column of table T becomes available by joining the view back
    to T on a unique key of T whose columns the view exposes: every view
    row stems from exactly one T row, and the (non-null) unique key
    recovers it, so the join is cardinality preserving. Only meaningful for
    non-aggregation views, where view rows are base-row images.
    """

    def __init__(self, view: SpjgDescription, augmented: EquivalenceClasses):
        self.view = view
        self.augmented = augmented
        self.outputs: _ViewOutputs | None = None
        self.joined: dict[str, tuple[Expression, ...]] = {}

    def resolve(self, key: ColumnKey) -> ColumnRef | None:
        table_name, column = key
        if table_name not in self.view.tables:
            return None
        if table_name in self.joined:
            return ColumnRef(table_name, column)
        assert self.outputs is not None
        table = self.view.catalog.table(table_name)
        for unique_key in table.all_unique_keys():
            if any(table.is_nullable(kc) for kc in unique_key):
                continue  # a NULL key value would break the equijoin
            mapped: list[tuple[ColumnRef, str]] = []
            for key_column in unique_key:
                reference = self.outputs.direct_column_for(
                    (table_name, key_column), self.augmented
                )
                if reference is None:
                    break
                mapped.append((reference, key_column))
            else:
                self.joined[table_name] = tuple(
                    BinaryOp("=", reference, ColumnRef(table_name, key_column))
                    for reference, key_column in mapped
                )
                return ColumnRef(table_name, column)
        return None

    def tables(self) -> tuple[str, ...]:
        return tuple(sorted(self.joined))

    def join_predicates(self) -> tuple[Expression, ...]:
        return tuple(
            predicate
            for table in sorted(self.joined)
            for predicate in self.joined[table]
        )


# Registration-time context tuples repeat heavily across views (check
# constraints and fk edges derive from the catalog tables a view reads,
# and thousands of generated views share the same few table sets), so
# identical tuples are interned to one object. Keys are the tuples
# themselves; the memo stays schema-bounded. Unhashable payloads simply
# skip interning.
_TUPLE_MEMO: dict = {}


def _intern_tuple(value: tuple) -> tuple:
    try:
        return _TUPLE_MEMO.setdefault(value, value)
    except TypeError:
        return value


@dataclass(frozen=True, slots=True)
class ViewMatchContext:
    """Frozen per-view matching state, built once at registration time.

    ``match_view`` used to re-derive all of this on every invocation:
    the output lookup structures, the view-side interval sets, the
    classified check-constraint predicates of every view table, and the
    foreign-key join graph for extra-table elimination. None of it
    depends on the query, so the filter tree builds one context per view
    at registration (:meth:`~repro.core.filtertree.FilterTree.register`)
    and the serving layer's epoch rebuilds carry it along inside
    :class:`~repro.core.filtertree.RegisteredView`. Per invocation only
    the query-side derivation and the subsumption tests remain.
    """

    view: SpjgDescription
    options: MatchOptions
    outputs: _ViewOutputs  # backjoins always None; copied to attach them
    range_items: tuple[tuple[ColumnKey, IntervalSet], ...]
    check_ranges: tuple[RangePredicate, ...]
    check_or_ranges: tuple[OrRangePredicate, ...]
    check_residuals: tuple[ShallowForm, ...]
    fk_edges: tuple[FkEdge, ...]

    @classmethod
    def of(
        cls, view: SpjgDescription, options: MatchOptions = DEFAULT_OPTIONS
    ) -> "ViewMatchContext":
        if view.name is None:
            raise ValueError("view description must carry a view name")
        check_ranges, check_or_ranges, check_residuals = (
            _check_constraint_predicates(view, options)
        )
        return cls(
            view=view,
            options=options,
            outputs=_ViewOutputs.of(view),
            range_items=_range_items(
                view.classified.range_predicates, view.or_ranges
            ),
            check_ranges=_intern_tuple(check_ranges),
            check_or_ranges=_intern_tuple(check_or_ranges),
            check_residuals=_intern_tuple(check_residuals),
            fk_edges=_intern_tuple(
                tuple(
                    build_fk_join_graph(
                        view.tables, view.eqclasses, view.catalog, options
                    )
                )
            ),
        )

    def fresh_outputs(self) -> _ViewOutputs:
        """A per-invocation copy safe to attach backjoin state to."""
        return copy.copy(self.outputs)


def match_view(
    query: SpjgDescription,
    view: SpjgDescription,
    options: MatchOptions = DEFAULT_OPTIONS,
    context: ViewMatchContext | None = None,
) -> MatchResult:
    """Match one query expression against one materialized view.

    ``context`` is the view's precomputed :class:`ViewMatchContext`; when
    absent (or built under different options) an equivalent one is derived
    on the fly, so direct callers need not manage contexts.
    """
    result = MatchResult(view=view)
    if (
        context is None
        or context.view is not view
        or context.options != options
    ):
        context = ViewMatchContext.of(view, options)
    try:
        _match(query, view, options, context, result)
    except _Reject as reject:
        result.substitute = None
        result.reject_reason = reject.reason
        result.reject_detail = reject.detail
    return result


def _match(
    query: SpjgDescription,
    view: SpjgDescription,
    options: MatchOptions,
    context: ViewMatchContext,
    result: MatchResult,
) -> None:
    if view.name is None:
        raise ValueError("view description must carry a view name")
    if view.is_aggregate and not query.is_aggregate:
        raise _Reject(RejectReason.VIEW_KIND, "aggregation view, SPJ query")
    if view.statement.distinct:
        raise _Reject(RejectReason.VIEW_KIND, "DISTINCT view is not indexable")

    # ---- Step 1: tables, extra-table elimination, augmented classes --------
    if not view.tables >= query.tables:
        missing = query.tables - view.tables
        raise _Reject(RejectReason.TABLES, f"view lacks {sorted(missing)}")
    extras = view.tables - query.tables
    # The query's classes are only extended when the view has extra
    # tables; the no-extras common case reuses them directly (``find``
    # path compression is the only mutation below, and it is idempotent).
    augmented = query.eqclasses
    if extras:
        used_edges = _eliminate_extras(query, view, extras, context.fk_edges)
        result.eliminated_tables = tuple(sorted(extras))
        # The view's column domain holds the query's columns and every
        # column of the extra tables.
        augmented = augmented.over(column_domain(view.catalog, view.tables))
        for edge in used_edges:
            for child_key, parent_key in edge.column_pairs:
                augmented.add_equality(child_key, parent_key)

    # ---- Step 2: equijoin subsumption ---------------------------------------
    if not view.eqclasses.refines(augmented):
        raise _Reject(
            RejectReason.EQUIJOIN, "view equates columns the query does not"
        )
    equality_partitions = _equality_partitions(view, augmented)

    # ---- Step 3: range subsumption -------------------------------------------
    check_ranges = context.check_ranges
    check_or_ranges = context.check_or_ranges
    check_residuals = context.check_residuals
    view_sets = _interval_sets_from_items(context.range_items, augmented)
    query_ranges = _QueryRanges.of(query)
    if check_ranges or check_or_ranges:
        query_test_sets = _interval_sets(
            tuple(query.classified.range_predicates) + check_ranges,
            tuple(query.or_ranges) + check_or_ranges,
            augmented,
        )
    elif extras:
        query_test_sets = _interval_sets_from_items(
            query_ranges.items, augmented
        )
    else:
        # No per-view antecedent strengthening and no class augmentation:
        # the query-side sets are view-independent.
        query_test_sets = query_ranges.sets
    for representative, view_set in view_sets.items():
        query_set = query_test_sets.get(representative, UNBOUNDED_SET)
        if not view_set.contains(query_set):
            raise _Reject(
                RejectReason.RANGE,
                f"view range {view_set} does not contain query range "
                f"{query_set}",
            )
    range_compensations, or_range_compensations = _range_compensations(
        query, view, augmented, context.range_items, query_ranges
    )

    # ---- Step 4: residual subsumption ----------------------------------------
    residual_compensations = _residual_subsumption(
        query, view, augmented, check_residuals
    )

    # ---- Step 5: build and map compensating predicates ------------------------
    # The shared outputs are only ever read; a backjoin state needs a copy.
    outputs = context.outputs
    if options.allow_backjoins and not view.is_aggregate:
        outputs = context.fresh_outputs()
        backjoins = _BackjoinState(view, augmented)
        backjoins.outputs = outputs
        outputs.backjoins = backjoins
    compensations: list[Expression] = []
    for partition in equality_partitions:
        compensations.extend(_map_equality_partition(partition, outputs, view))
        result.compensating_equalities += len(partition) - 1
    for representative, op, value in range_compensations:
        reference = outputs.column_for(representative, augmented)
        if reference is None:
            raise _Reject(
                RejectReason.PREDICATE_MAPPING,
                f"no output column for range compensation on {representative}",
            )
        compensations.append(BinaryOp(op, reference, Literal(value)))
        result.compensating_ranges += 1
    for expression in or_range_compensations:
        mapped = _map_expression(expression, augmented, outputs, options)
        if mapped is None:
            raise _Reject(
                RejectReason.PREDICATE_MAPPING,
                "disjunctive range compensation not computable from view",
            )
        compensations.append(mapped)
        result.compensating_ranges += 1
    for form in residual_compensations:
        mapped = _map_expression(form.expression, augmented, outputs, options)
        if mapped is None:
            raise _Reject(
                RejectReason.PREDICATE_MAPPING,
                f"residual compensation {form.template} not computable from view",
            )
        compensations.append(mapped)
        result.compensating_residuals += 1

    # ---- Step 6: outputs and aggregation --------------------------------------
    if not query.is_aggregate:
        select_items = _map_spj_outputs(query, augmented, outputs, options)
        group_by: tuple[Expression, ...] = ()
    elif not view.is_aggregate:
        select_items, group_by = _map_aggregation_over_spj_view(
            query, augmented, outputs, options
        )
    else:
        select_items, group_by, regrouped = _map_aggregation_over_agg_view(
            query, view, augmented, outputs, options
        )
        result.regrouped = regrouped

    from_tables = [TableRef(name=outputs.view_name)]
    if outputs.backjoins is not None and outputs.backjoins.joined:
        result.backjoined_tables = outputs.backjoins.tables()
        from_tables.extend(TableRef(name=t) for t in result.backjoined_tables)
        compensations.extend(outputs.backjoins.join_predicates())
    result.substitute = SelectStatement(
        select_items=tuple(select_items),
        from_tables=tuple(from_tables),
        where=conjunction(compensations),
        group_by=tuple(group_by),
        distinct=query.statement.distinct,
    )


# ---------------------------------------------------------------------------
# Step helpers
# ---------------------------------------------------------------------------


def _eliminate_extras(
    query: SpjgDescription,
    view: SpjgDescription,
    extras: frozenset[str],
    edges: tuple[FkEdge, ...],
) -> tuple[FkEdge, ...]:
    elimination = eliminate_tables(view.tables, list(edges), removable=extras)
    if not elimination.eliminated_all(extras):
        leftover = extras & elimination.remaining
        raise _Reject(
            RejectReason.EXTRA_TABLES,
            f"cannot eliminate {sorted(leftover)} via cardinality-preserving joins",
        )
    for edge in elimination.used_edges:
        if edge.nullable:
            _verify_null_rejection(query, edge)
    return elimination.used_edges


def _verify_null_rejection(query: SpjgDescription, edge: FkEdge) -> None:
    """The Section 3.2 extension: a nullable FK column is acceptable when the
    query discards NULLs in it anyway (a range or IS NOT NULL predicate)."""
    table = query.catalog.table(edge.source)
    for child_key, _parent_key in edge.column_pairs:
        if not table.is_nullable(child_key[1]):
            continue
        if child_key not in query.eqclasses:
            raise _Reject(
                RejectReason.NULLABLE_FK,
                f"nullable FK column {child_key} not referenced by the query",
            )
        representative = query.eqclasses.find(child_key)
        if representative in query.ranges:
            continue  # any range predicate rejects NULLs
        if _has_null_rejecting_residual(query, child_key):
            continue
        raise _Reject(
            RejectReason.NULLABLE_FK,
            f"no null-rejecting query predicate on {child_key}",
        )


def _has_null_rejecting_residual(query: SpjgDescription, key: ColumnKey) -> bool:
    for form in query.residual_forms:
        expr = form.expression
        if isinstance(expr, IsNull) and expr.negated:
            operand = expr.operand
            if isinstance(operand, ColumnRef) and query.eqclasses.same_class(
                operand.key, key
            ):
                return True
        if isinstance(expr, BinaryOp) and expr.is_comparison():
            for ref in expr.column_refs():
                if query.eqclasses.same_class(ref.key, key):
                    return True
    return False


def _equality_partitions(
    view: SpjgDescription, augmented: EquivalenceClasses
) -> list[list[frozenset[ColumnKey]]]:
    """Group view equivalence classes by the query class they map into.

    Each returned partition lists the view classes falling into one query
    class; partitions of size >= 2 need len-1 compensating column-equality
    predicates to merge them (Section 3.1.2, equijoin subsumption). Only a
    query class of two or more columns can hold two view classes, so the
    walk covers the query's merged classes, not every view class. The
    augmented classes range over the view's column domain (the query's
    own when the table sets are equal), and ``merged_classes`` lists
    classes by their first column in it: the order a walk over every
    view class would meet the partitions in.
    """
    view_classes = view.eqclasses
    partitions: list[list[frozenset[ColumnKey]]] = []
    for query_class in dict.fromkeys(augmented.merged_classes().values()):
        view_roots = dict.fromkeys(map(view_classes.find, query_class))
        if len(view_roots) > 1:
            partitions.append(
                sorted(map(view_classes.class_of, view_roots), key=sorted)
            )
    return partitions


def _map_equality_partition(
    partition: list[frozenset[ColumnKey]],
    outputs: _ViewOutputs,
    view: SpjgDescription,
) -> list[Expression]:
    """Build the compensating equality chain for one query class.

    The paper's rule: these references may be rerouted within their *view*
    equivalence class only -- which is exactly "pick any member of the view
    class that is exposed as an output column".
    """
    references: list[ColumnRef] = []
    for view_class in partition:
        exposed = next(
            (
                ColumnRef(outputs.view_name, outputs.simple[member])
                for member in sorted(view_class)
                if member in outputs.simple
            ),
            None,
        )
        if exposed is None and outputs.backjoins is not None:
            for member in sorted(view_class):
                exposed = outputs.backjoins.resolve(member)
                if exposed is not None:
                    break
        if exposed is None:
            raise _Reject(
                RejectReason.PREDICATE_MAPPING,
                f"no output column in view class {sorted(view_class)} for "
                "compensating equality",
            )
        references.append(exposed)
    return [
        BinaryOp("=", references[i], references[i + 1])
        for i in range(len(references) - 1)
    ]


def _range_items(
    range_predicates: tuple[RangePredicate, ...],
    or_ranges: tuple[OrRangePredicate, ...],
) -> tuple[tuple[ColumnKey, IntervalSet], ...]:
    """Each range-bearing conjunct as a ``(column, interval set)`` pair.

    The equivalence-class grouping depends on the (query-augmented)
    classes of one match, but the per-conjunct interval sets do not --
    precomputing them at registration leaves only the group-and-intersect
    step per invocation.
    """
    items = [
        (predicate.column, IntervalSet.of([predicate.interval()]))
        for predicate in range_predicates
    ]
    items.extend(
        (or_range.column, or_range.interval_set) for or_range in or_ranges
    )
    return tuple(items)


def _interval_sets_from_items(
    items: tuple[tuple[ColumnKey, IntervalSet], ...],
    eqclasses: EquivalenceClasses,
) -> dict[ColumnKey, IntervalSet]:
    """Group per-conjunct interval sets by class and intersect."""
    sets: dict[ColumnKey, IntervalSet] = {}
    for column, interval_set in items:
        representative = eqclasses.find(column)
        current = sets.get(representative, UNBOUNDED_SET)
        sets[representative] = current.intersect(interval_set)
    return sets


def _interval_sets(
    range_predicates: tuple[RangePredicate, ...],
    or_ranges: tuple[OrRangePredicate, ...],
    eqclasses: EquivalenceClasses,
) -> dict[ColumnKey, IntervalSet]:
    """Per-class interval sets: plain bounds intersected with disjunctions."""
    return _interval_sets_from_items(
        _range_items(range_predicates, or_ranges), eqclasses
    )


class _QueryRanges:
    """A query's own range derivations, computed once per description.

    Every candidate of an invocation reads them: the per-conjunct interval
    sets, their per-class intersections and the per-class plain intervals
    under the query's classes. The class-dependent two are only valid
    while no extra-table augmentation applies.
    """

    __slots__ = ("items", "sets", "plain")

    def __init__(self, query: SpjgDescription) -> None:
        predicates = query.classified.range_predicates
        self.items = _range_items(predicates, query.or_ranges)
        self.sets = _interval_sets_from_items(self.items, query.eqclasses)
        self.plain = derive_ranges(predicates, query.eqclasses)

    @staticmethod
    def of(query: SpjgDescription) -> "_QueryRanges":
        ranges = query._query_ranges
        if ranges is None:
            ranges = query._query_ranges = _QueryRanges(query)
        return ranges


def _range_compensations(
    query: SpjgDescription,
    view: SpjgDescription,
    augmented: EquivalenceClasses,
    view_range_items: tuple[tuple[ColumnKey, IntervalSet], ...],
    query_ranges: _QueryRanges,
) -> tuple[list[tuple[ColumnKey, str, object]], list["Expression"]]:
    """Compensating range predicates, assuming containment already holds.

    Classes where neither side has a disjunctive range use the paper's
    bound-difference rule. Classes involving disjunctions are compensated
    by re-applying *all* of the query's range conjuncts on that class --
    sound (it reduces the view to exactly the query's range constraints)
    and simple, at the cost of occasionally re-checking a bound the view
    already enforces.
    """
    unaugmented = augmented is query.eqclasses
    if unaugmented:
        query_plain = query_ranges.plain
    else:
        query_plain = derive_ranges(
            query.classified.range_predicates, augmented
        )
    view_plain = derive_ranges(view.classified.range_predicates, augmented)
    or_representatives: set[ColumnKey] = {
        augmented.find(orr.column) for orr in query.or_ranges
    } | {
        augmented.find(orr.column)
        for orr in view.or_ranges
        if orr.column in augmented
    }
    plain_compensations: list[tuple[ColumnKey, str, object]] = []
    for representative, query_interval in query_plain.items():
        if representative in or_representatives:
            continue
        view_interval = view_plain.get(representative, UNBOUNDED)
        for op, value in compensating_range_conjuncts(view_interval, query_interval):
            plain_compensations.append((representative, op, value))
    or_compensations: list[Expression] = []
    if or_representatives:
        query_sets = (
            query_ranges.sets
            if unaugmented
            else _interval_sets_from_items(query_ranges.items, augmented)
        )
        view_sets = _interval_sets_from_items(view_range_items, augmented)
        for representative in sorted(or_representatives):
            query_set = query_sets.get(representative)
            if query_set is None:
                continue  # only the view is constrained; nothing to narrow
            if view_sets.get(representative) == query_set:
                continue
            for predicate in query.classified.range_predicates:
                if augmented.find(predicate.column) == representative:
                    or_compensations.append(
                        BinaryOp(
                            predicate.op,
                            ColumnRef(*predicate.column),
                            Literal(predicate.value),
                        )
                    )
            for or_range in query.or_ranges:
                if augmented.find(or_range.column) == representative:
                    or_compensations.append(or_range.expression)
    return plain_compensations, or_compensations


def _check_constraint_predicates(
    view: SpjgDescription, options: MatchOptions
) -> tuple[
    tuple[RangePredicate, ...],
    tuple[OrRangePredicate, ...],
    tuple[ShallowForm, ...],
]:
    """Check constraints of all view tables, classified for the antecedent.

    Check constraints hold on every row of a table, so they can be added to
    the query's where-clause without changing its result -- strengthening
    the antecedent of the implication tests (Section 3.1.2).
    """
    if not options.use_check_constraints:
        return (), (), ()
    ranges: list[RangePredicate] = []
    or_ranges: list[OrRangePredicate] = []
    residuals: list[ShallowForm] = []
    for table in sorted(view.tables):
        for check in view.catalog.table(table).check_constraints:
            classified = classify_predicate(check.predicate)
            ranges.extend(classified.range_predicates)
            for conjunct in classified.residuals:
                recognised = (
                    as_or_range(conjunct) if options.support_or_ranges else None
                )
                if recognised is not None:
                    or_ranges.append(recognised)
                else:
                    residuals.append(ShallowForm.of(conjunct))
            # Column equalities inside check constraints are ignored: they
            # are vanishingly rare and would complicate class augmentation.
    return tuple(ranges), tuple(or_ranges), tuple(residuals)


def _residual_subsumption(
    query: SpjgDescription,
    view: SpjgDescription,
    augmented: EquivalenceClasses,
    check_residuals: tuple[ShallowForm, ...],
) -> tuple[ShallowForm, ...]:
    """Residual test; returns the query residuals needing compensation.

    Check-constraint residuals participate as antecedent conjuncts (a view
    residual may match one) but never need compensation themselves.
    """
    antecedent = tuple(query.residual_forms) + check_residuals
    matched_real: set[int] = set()
    for view_form in view.residual_forms:
        found = False
        for i, query_form in enumerate(antecedent):
            if view_form.matches(query_form, augmented):
                found = True
                if i < len(query.residual_forms):
                    matched_real.add(i)
        if not found:
            raise _Reject(
                RejectReason.RESIDUAL,
                f"view residual {view_form.template} not implied by the query",
            )
    return tuple(
        form
        for i, form in enumerate(query.residual_forms)
        if i not in matched_real
    )


# ---------------------------------------------------------------------------
# Expression mapping (Sections 3.1.3 / 3.1.4)
# ---------------------------------------------------------------------------


def _map_expression(
    expression: Expression,
    eqclasses: EquivalenceClasses,
    outputs: _ViewOutputs,
    options: MatchOptions,
    allow_top_match: bool = True,
) -> Expression | None:
    """Rewrite an expression over base tables into one over view outputs.

    Constants pass through; a column reference reroutes within its
    equivalence class to an exposed output column; a whole expression that
    matches a view output expression becomes a reference to that column
    (always tried for output expressions, and for arbitrary subexpressions
    only under the ``map_complex_expressions`` extension). Returns None
    when the expression cannot be computed from the view's output.
    """
    if isinstance(expression, Literal):
        return expression
    if isinstance(expression, ColumnRef):
        return outputs.column_for(expression.key, eqclasses)
    if allow_top_match or options.map_complex_expressions:
        matched = outputs.expression_output_for(ShallowForm.of(expression), eqclasses)
        if matched is not None:
            return matched
    children = expression.children()
    mapped_children: list[Expression] = []
    for child in children:
        mapped = _map_expression(
            child,
            eqclasses,
            outputs,
            options,
            allow_top_match=options.map_complex_expressions,
        )
        if mapped is None:
            return None
        mapped_children.append(mapped)
    return expression.with_children(mapped_children)


def _map_spj_outputs(
    query: SpjgDescription,
    eqclasses: EquivalenceClasses,
    outputs: _ViewOutputs,
    options: MatchOptions,
) -> list[SelectItem]:
    items: list[SelectItem] = []
    for info in query.outputs:
        mapped = _map_expression(info.expression, eqclasses, outputs, options)
        if mapped is None:
            raise _Reject(
                RejectReason.OUTPUT_MAPPING,
                f"output {info.form.template} not computable from view",
            )
        items.append(SelectItem(mapped, alias=info.item.alias))
    return items


def _map_aggregation_over_spj_view(
    query: SpjgDescription,
    eqclasses: EquivalenceClasses,
    outputs: _ViewOutputs,
    options: MatchOptions,
) -> tuple[list[SelectItem], tuple[Expression, ...]]:
    """An aggregation query over an SPJ view: re-aggregate the view's rows.

    The view's rows are (after compensation) exactly the query's SPJ rows
    with the right duplication factor, so every aggregate is recomputed
    with its argument rerouted to view outputs.
    """
    group_by: list[Expression] = []
    for expr in query.statement.group_by:
        mapped = _map_expression(expr, eqclasses, outputs, options)
        if mapped is None:
            raise _Reject(
                RejectReason.OUTPUT_MAPPING,
                f"grouping expression {expr} not computable from view",
            )
        group_by.append(mapped)
    items: list[SelectItem] = []
    for info in query.outputs:
        mapped = _map_aggregate_aware(
            info.expression, eqclasses, outputs, options, _recompute_aggregate
        )
        if mapped is None:
            raise _Reject(
                RejectReason.OUTPUT_MAPPING,
                f"output {info.form.template} not computable from view",
            )
        items.append(SelectItem(mapped, alias=info.item.alias))
    return items, tuple(group_by)


def _recompute_aggregate(
    call: FuncCall,
    eqclasses: EquivalenceClasses,
    outputs: _ViewOutputs,
    options: MatchOptions,
) -> Expression | None:
    if call.star:
        return call
    mapped = _map_expression(call.args[0], eqclasses, outputs, options)
    if mapped is None:
        return None
    return FuncCall(call.name, (mapped,))


def _map_aggregation_over_agg_view(
    query: SpjgDescription,
    view: SpjgDescription,
    eqclasses: EquivalenceClasses,
    outputs: _ViewOutputs,
    options: MatchOptions,
) -> tuple[list[SelectItem], tuple[Expression, ...], bool]:
    """An aggregation query over an aggregation view (Section 3.3).

    The query's grouping list must be a subset of the view's (each query
    grouping expression matches a view grouping expression under the query
    equivalence classes). A strict subset needs a compensating group-by;
    aggregates roll up: count(*) becomes SUM(count_big), SUM(E) becomes
    SUM of the view's SUM column.
    """
    matched_view_groups: set[int] = set()
    for query_form in query.group_forms:
        found = False
        for i, view_form in enumerate(view.group_forms):
            if view_form.matches(query_form, eqclasses):
                matched_view_groups.add(i)
                found = True
        if not found:
            raise _Reject(
                RejectReason.GROUPING,
                f"query grouping expression {query_form.template} not in view "
                "grouping list",
            )
    regroup = len(matched_view_groups) < len(view.group_forms)

    group_by: list[Expression] = []
    if regroup:
        for expr in query.statement.group_by:
            mapped = _map_expression(expr, eqclasses, outputs, options)
            if mapped is None:
                raise _Reject(
                    RejectReason.OUTPUT_MAPPING,
                    f"grouping expression {expr} not computable from view",
                )
            group_by.append(mapped)

    # A regrouped *global* aggregation (empty query group-by) must produce
    # its one output row even when compensation removes every view row;
    # SUM over that empty input is NULL, so the rolled-up count needs a
    # COALESCE back to 0 (plain SQL: COUNT over empty input is 0).
    guard_empty = regroup and not query.statement.group_by

    def rollup(
        call: FuncCall,
        eqc: EquivalenceClasses,
        out: _ViewOutputs,
        opts: MatchOptions,
    ) -> Expression | None:
        return _rollup_aggregate(call, eqc, out, regroup, guard_empty)

    items: list[SelectItem] = []
    for info in query.outputs:
        mapped = _map_aggregate_aware(
            info.expression, eqclasses, outputs, options, rollup
        )
        if mapped is None:
            raise _Reject(
                RejectReason.AGGREGATE,
                f"output {info.form.template} not derivable from view aggregates",
            )
        items.append(SelectItem(mapped, alias=info.item.alias))
    return items, tuple(group_by), regroup


def _rollup_aggregate(
    call: FuncCall,
    eqclasses: EquivalenceClasses,
    outputs: _ViewOutputs,
    regroup: bool,
    guard_empty: bool = False,
) -> Expression | None:
    """Derive one query aggregate from an aggregation view's outputs.

    ``guard_empty`` marks a regrouped global aggregation, where the
    compensated view rows may be empty: the rolled-up row count then
    becomes ``coalesce(sum(cnt), 0)`` so the substitute reports 0 rows
    (not NULL) exactly as ``count(*)`` over an empty input does, while
    SUM correctly stays NULL.
    """
    if call.name in ("count", "count_big") and call.star:
        if outputs.count_big_column is None:
            return None
        counter = ColumnRef(outputs.view_name, outputs.count_big_column)
        if not regroup:
            return counter
        summed: Expression = FuncCall("sum", (counter,))
        if guard_empty:
            summed = FuncCall("coalesce", (summed, Literal(0)))
        return summed
    if call.name == "sum":
        reference = outputs.sum_output_for(call.args[0], eqclasses)
        if reference is None:
            return None
        return FuncCall("sum", (reference,)) if regroup else reference
    if call.name == "avg":
        total = _rollup_aggregate(
            FuncCall("sum", call.args), eqclasses, outputs, regroup
        )
        counter = _rollup_aggregate(
            FuncCall("count_big", star=True), eqclasses, outputs, regroup, guard_empty
        )
        if total is None or counter is None:
            return None
        return BinaryOp("/", total, counter)
    # count(E) over an aggregation view cannot be derived: the view lost the
    # per-row NULL information.
    return None


def _map_aggregate_aware(
    expression: Expression,
    eqclasses: EquivalenceClasses,
    outputs: _ViewOutputs,
    options: MatchOptions,
    aggregate_handler,
) -> Expression | None:
    """Map an output expression, dispatching aggregate calls to a handler."""
    if isinstance(expression, FuncCall) and expression.is_aggregate():
        return aggregate_handler(expression, eqclasses, outputs, options)
    if not expression.contains_aggregate():
        return _map_expression(expression, eqclasses, outputs, options)
    mapped_children: list[Expression] = []
    for child in expression.children():
        mapped = _map_aggregate_aware(
            child, eqclasses, outputs, options, aggregate_handler
        )
        if mapped is None:
            return None
        mapped_children.append(mapped)
    return expression.with_children(mapped_children)


def template_cache_info() -> dict:
    """Counters of the compensation-template cache, which no longer exists.

    Always zero. ``benchmarks/e2e/runner.py`` imports it and reports a
    replay ratio from it; it stays until that harness is next revised.
    """
    return {"hits": 0, "stores": 0, "entries": 0}
