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
from itertools import count

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
#: full per-candidate walk below; ``preverify`` marks rejects issued by the
#: vectorized candidate screen (:mod:`repro.core.preverify`) before any
#: ``match_view`` call; ``skipped`` marks candidates the matcher never
#: verified because the optimizer's cost bound proved no cheaper plan was
#: reachable (neither matched nor rejected).
STAGE_VERIFY = "verify"
STAGE_PREVERIFY = "preverify"
STAGE_SKIPPED = "skipped"

#: The exact detail string of an equijoin-subsumption reject. The packed
#: pre-verifier re-issues equijoin rejects without running ``_match``, and
#: the no-false-rejects contract includes the detail text.
EQUIJOIN_REJECT_DETAIL = "view equates columns the query does not"


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
    #: Which stage produced this result (``compare=False``: the enabled and
    #: disabled pre-verifier paths must yield *equal* result sets even when
    #: a reject short-circuited at a different stage).
    stage: str = field(default=STAGE_VERIFY, compare=False, repr=False)
    #: Internal: ``(equality prefix, residual/backjoin suffix,
    #: class-augmentation data or None)`` -- the compensation conjuncts
    #: split around the range slice plus the extra-table class
    #: augmentation, captured by ``_match`` so a successful result can
    #: seed the compensation-template cache without re-deriving anything.
    template_parts: tuple | None = field(
        default=None, compare=False, repr=False
    )
    #: Internal: ``(phase, augmentation)`` progress marker maintained by
    #: ``_match`` so a reject can be classified (constant-independent or
    #: not, relative to the range tests) for the compensation-template
    #: cache. Phases: 0 = steps 1-2, 1 = range containment, 2 = residual
    #: test / equality mapping, 3 = range-compensation mapping, 4 = later.
    match_progress: tuple = field(default=(0, None), compare=False, repr=False)

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
    slots classes, which is all the per-match path needs.
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


# Every context gets a process-unique serial: the compensation-template
# cache keys on it, so unregistering and re-registering a view (which
# builds a fresh context) can never resurrect templates derived from the
# old registration, while epoch swaps that carry contexts forward keep
# their cache entries warm.
_context_serials = count()


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
    outputs: _ViewOutputs  # backjoins is always None here; copied per match
    range_items: tuple[tuple[ColumnKey, IntervalSet], ...]
    check_ranges: tuple[RangePredicate, ...]
    check_or_ranges: tuple[OrRangePredicate, ...]
    check_residuals: tuple[ShallowForm, ...]
    fk_edges: tuple[FkEdge, ...]
    serial: int = field(
        default_factory=lambda: next(_context_serials), compare=False
    )

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
    use_templates: bool = True,
) -> MatchResult:
    """Match one query expression against one materialized view.

    ``context`` is the view's precomputed :class:`ViewMatchContext`; when
    absent (or built under different options) an equivalent one is derived
    on the fly, so direct callers need not manage contexts.

    ``use_templates`` enables the compensation-template cache: repeat
    query shapes (same fingerprint, different range constants) against the
    same registration-time context replay the stored compensation skeleton
    and re-derive only the range subsumption test and range constants.
    Only authoritative contexts participate -- a context rebuilt on the
    fly would mint a fresh cache key per call.
    """
    result = MatchResult(view=view)
    authoritative = (
        context is not None
        and context.view is view
        and context.options == options
    )
    if not authoritative:
        context = ViewMatchContext.of(view, options)
    full_match_ran = False
    try:
        if use_templates and authoritative:
            if _try_template(query, view, options, context, result):
                return result
        full_match_ran = True
        _match(query, view, options, context, result)
        if use_templates and authoritative:
            _store_template(query, view, options, context, result)
    except _Reject as reject:
        result.substitute = None
        result.reject_reason = reject.reason
        result.reject_detail = reject.detail
        # Rejects raised by the full match (not by a template replay,
        # whose outcomes are already cached) seed reject templates.
        if full_match_ran and use_templates and authoritative:
            _store_reject_template(query, view, options, context, result)
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
    # The query's classes are only mutated when extra view tables extend
    # them; the no-extras common case reuses them directly (``find`` path
    # compression is the only mutation below, and it is idempotent).
    augmented = query.eqclasses.copy() if extras else query.eqclasses
    augmentation: tuple | None = None
    if extras:
        used_edges = _eliminate_extras(query, view, extras, context.fk_edges)
        result.eliminated_tables = tuple(sorted(extras))
        added_columns: list[ColumnKey] = []
        for table in sorted(extras):
            for column in view.catalog.table(table).column_names:
                added_columns.append((table, column))
                augmented.add_column((table, column))
        added_equalities: list[tuple[ColumnKey, ColumnKey]] = []
        for edge in used_edges:
            for child_key, parent_key in edge.column_pairs:
                added_equalities.append((child_key, parent_key))
                augmented.add_equality(child_key, parent_key)
        augmentation = (tuple(added_columns), tuple(added_equalities))

    # ---- Step 2: equijoin subsumption ---------------------------------------
    if not view.eqclasses.refines(augmented):
        raise _Reject(RejectReason.EQUIJOIN, EQUIJOIN_REJECT_DETAIL)
    equality_partitions = _equality_partitions(view, augmented)

    # ---- Step 3: range subsumption -------------------------------------------
    result.match_progress = (1, augmentation)
    check_ranges = context.check_ranges
    check_or_ranges = context.check_or_ranges
    check_residuals = context.check_residuals
    view_sets = _interval_sets_from_items(context.range_items, augmented)
    if extras or check_ranges or check_or_ranges:
        query_test_sets = _interval_sets(
            tuple(query.classified.range_predicates) + check_ranges,
            tuple(query.or_ranges) + check_or_ranges,
            augmented,
        )
    else:
        # No per-view antecedent strengthening and no class augmentation:
        # the query-side sets are view-independent and memoized per query.
        query_test_sets = _query_range_sets(query)
    for representative, view_set in view_sets.items():
        query_set = query_test_sets.get(representative, UNBOUNDED_SET)
        if not view_set.contains(query_set):
            raise _Reject(
                RejectReason.RANGE,
                f"view range {view_set} does not contain query range "
                f"{query_set}",
            )
    result.match_progress = (2, augmentation)
    range_compensations, or_range_compensations = _range_compensations(
        query, view, augmented, context.range_items
    )

    # ---- Step 4: residual subsumption ----------------------------------------
    residual_compensations = _residual_subsumption(
        query, view, augmented, check_residuals
    )

    # ---- Step 5: build and map compensating predicates ------------------------
    outputs = context.fresh_outputs()
    if options.allow_backjoins and not view.is_aggregate:
        backjoins = _BackjoinState(view, augmented)
        backjoins.outputs = outputs
        outputs.backjoins = backjoins
    compensations: list[Expression] = []
    for partition in equality_partitions:
        compensations.extend(_map_equality_partition(partition, outputs, view))
        result.compensating_equalities += len(partition) - 1
    result.match_progress = (3, augmentation)
    for representative, op, value in range_compensations:
        reference = outputs.column_for(representative, augmented)
        if reference is None:
            raise _Reject(
                RejectReason.PREDICATE_MAPPING,
                f"no output column for range compensation on {representative}",
            )
        compensations.append(BinaryOp(op, reference, Literal(value)))
        result.compensating_ranges += 1
    result.match_progress = (4, augmentation)
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
    # Split the conjunct list around the range slice so a template replay
    # can splice rebuilt range constants between the (shape-stable)
    # equality prefix and residual/backjoin suffix.
    equalities = result.compensating_equalities
    ranges = result.compensating_ranges
    result.template_parts = (
        tuple(compensations[:equalities]),
        tuple(compensations[equalities + ranges:]),
        augmentation,
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
    predicates to merge them (Section 3.1.2, equijoin subsumption).
    """
    by_query_root: dict[ColumnKey, dict[ColumnKey, frozenset[ColumnKey]]] = {}
    for view_class in view.eqclasses.classes():
        member = next(iter(view_class))
        if member not in augmented:
            continue
        query_root = augmented.find(member)
        view_root = view.eqclasses.find(member)
        by_query_root.setdefault(query_root, {})[view_root] = view_class
    return [
        sorted(partitions.values(), key=lambda cls: sorted(cls))
        for partitions in by_query_root.values()
        if len(partitions) > 1
    ]


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


def _query_plain_ranges(query: SpjgDescription) -> dict[ColumnKey, "Interval"]:
    """The query's own per-class plain range intervals, memoized.

    Same amortization as :func:`_query_range_sets`: valid whenever no
    extra-table augmentation applies, so the derivation runs once per
    query instead of once per template replay.
    """
    ranges = query._query_plain_ranges
    if ranges is None:
        ranges = query._query_plain_ranges = derive_ranges(
            query.classified.range_predicates, query.eqclasses
        )
    return ranges


def _query_range_sets(query: SpjgDescription) -> dict[ColumnKey, IntervalSet]:
    """The query's own per-class interval sets, memoized on the description.

    Valid whenever no extra-table augmentation and no per-view check
    constraints apply -- which is every candidate of the common equal-table
    case, so the derivation runs once per query instead of once per
    candidate. The pre-verifier builds its query signature from the same
    memo, keeping screen and full match literally in agreement.
    """
    sets = query._query_range_sets
    if sets is None:
        sets = query._query_range_sets = _interval_sets(
            tuple(query.classified.range_predicates),
            tuple(query.or_ranges),
            query.eqclasses,
        )
    return sets


def range_reject_detail(
    query: SpjgDescription, context: ViewMatchContext
) -> str | None:
    """The exact RANGE reject detail ``_match`` would raise, or None.

    Re-runs the real containment loop (same interval sets, same iteration
    order, same f-string) so a pre-verifier RANGE verdict carries the
    identical detail; ``None`` means the real test would not reject --
    callers must then fall through to the full match.
    """
    try:
        view_sets = _interval_sets_from_items(
            context.range_items, query.eqclasses
        )
        if context.check_ranges or context.check_or_ranges:
            query_test_sets = _interval_sets(
                tuple(query.classified.range_predicates) + context.check_ranges,
                tuple(query.or_ranges) + context.check_or_ranges,
                query.eqclasses,
            )
        else:
            query_test_sets = _query_range_sets(query)
    except KeyError:
        return None  # view column unknown to the query's classes
    for representative, view_set in view_sets.items():
        query_set = query_test_sets.get(representative, UNBOUNDED_SET)
        if not view_set.contains(query_set):
            return (
                f"view range {view_set} does not contain query range "
                f"{query_set}"
            )
    return None


def _range_compensations(
    query: SpjgDescription,
    view: SpjgDescription,
    augmented: EquivalenceClasses,
    view_range_items: tuple[tuple[ColumnKey, IntervalSet], ...],
) -> tuple[list[tuple[ColumnKey, str, object]], list["Expression"]]:
    """Compensating range predicates, assuming containment already holds.

    Classes where neither side has a disjunctive range use the paper's
    bound-difference rule. Classes involving disjunctions are compensated
    by re-applying *all* of the query's range conjuncts on that class --
    sound (it reduces the view to exactly the query's range constraints)
    and simple, at the cost of occasionally re-checking a bound the view
    already enforces.
    """
    query_plain = derive_ranges(query.classified.range_predicates, augmented)
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
        query_sets = _interval_sets(
            query.classified.range_predicates, query.or_ranges, augmented
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


# ---------------------------------------------------------------------------
# Compensation-template cache
# ---------------------------------------------------------------------------
#
# Successful matches of the same *query shape* against the same registered
# view differ only in range constants: every other step (equijoin
# partitions, residual matching, output/grouping mapping, backjoins) is a
# pure function of the shape fingerprint below plus the registration-time
# context. A template stores the finished substitute skeleton with the
# range conjuncts cut out; a hit re-runs only the range subsumption test
# and rebuilds the range constants.


#: Template kinds, by how far the stored outcome is constant-independent.
#: Every ``_match`` step except range containment (step 3) and
#: range-compensation mapping (step 5's range slice) depends only on the
#: query's shape fingerprint, so a reject raised *outside* those two
#: points replays verbatim once the constant-dependent checks up to its
#: raise point have re-run. Rejects raised *at* those points are stored
#: as "unknown" templates that replay the verified constant-independent
#: prefix and fall back to the full match if the constant-dependent check
#: now passes.
_TPL_SUCCESS = 0          # full match succeeded; replay builds the substitute
_TPL_REJECT_PRE = 1       # rejected in steps 1-2; replay raises immediately
_TPL_RANGE_UNKNOWN = 2    # rejected at containment; steps 1-2 verified
_TPL_REJECT_MID = 3       # rejected between containment and range mapping
_TPL_MAP_UNKNOWN = 4      # rejected at range mapping; prefix verified
_TPL_REJECT_POST = 5      # rejected after range mapping


@dataclass(frozen=True, slots=True)
class _CompensationTemplate:
    kind: int
    #: Extra-table elimination outcome and the ``(columns, equalities)``
    #: class-augmentation lists (or None) that rebuild step 1's augmented
    #: classes without re-running the FK graph search. The elimination
    #: search and its null-rejection check read only fingerprint-stable
    #: query facts (table set, class membership, range-column presence,
    #: residual shapes), so the outcome replays verbatim.
    eliminated: tuple[str, ...]
    augmentation: tuple | None
    #: Raise-time compensation counters (fingerprint-stable; the range
    #: count is recomputed at replay because it depends on constants).
    equalities: int
    residuals: int
    #: Stored reject for the _TPL_REJECT_* kinds.
    reject_reason: RejectReason | None = None
    reject_detail: str = ""
    #: Range-class representative -> resolved view output reference, or
    #: None when no output column exists (a compensation need then raises
    #: the same PREDICATE_MAPPING reject the full match would). Used by
    #: every kind that replays past range mapping.
    range_refs: dict | None = None
    #: View-side range structures precomputed at store time for the
    #: unaugmented case: the per-class containment sets (as items) and
    #: the per-class plain intervals the bound-difference rule reads.
    #: Both are keyed by store-time class representatives; equal
    #: fingerprints share the class *partition* (it is part of the
    #: fingerprint), and replays guard each stored representative with
    #: ``find(rep) == rep`` -- any canonical-representative drift bails
    #: to the full match instead of trusting a stale key.
    view_sets: tuple = ()
    view_plain: dict | None = None
    #: Success-only substitute skeleton.
    select_items: tuple = ()
    from_tables: tuple = ()
    group_by: tuple = ()
    distinct: bool = False
    prefix: tuple = ()       # compensating equalities
    suffix: tuple = ()       # residual compensations + backjoin predicates
    regrouped: bool = False
    backjoined: tuple[str, ...] = ()


#: ``(context serial, query fingerprint) -> _CompensationTemplate``.
#: Insertion-ordered; eviction drops the oldest entry. A plain dict keeps
#: lookups race-tolerant under the serving layer's reader threads (at
#: worst a concurrent eviction makes a ``get`` miss).
_TEMPLATE_CACHE: dict = {}
_TEMPLATE_CACHE_LIMIT = 4096
_template_hits = 0
_template_stores = 0


def template_cache_info() -> dict:
    """Hit/store counters and current size (benchmark reporting)."""
    return {
        "hits": _template_hits,
        "stores": _template_stores,
        "entries": len(_TEMPLATE_CACHE),
    }


def clear_template_cache() -> None:
    """Drop all templates and reset counters (tests and benchmarks)."""
    global _template_hits, _template_stores
    _TEMPLATE_CACHE.clear()
    _template_hits = 0
    _template_stores = 0


def _template_fingerprint(query: SpjgDescription):
    """The query's shape fingerprint: everything but range constants.

    Two queries with equal fingerprints agree on tables (hence on the
    seeded column universe), equivalence classes, residual and output
    expressions, grouping, DISTINCT, and the (column, op) skeleton of
    their range predicates -- every ``match_view`` step except the range
    subsumption test and range-constant compensations is then identical.
    Queries with disjunctive ranges are not fingerprinted (None).
    """
    if query.or_ranges:
        return None
    fingerprint = query._template_fp
    if fingerprint is None:
        fingerprint = query._template_fp = (
            query.tables,
            query.is_aggregate,
            query.statement.distinct,
            tuple(
                sorted(
                    tuple(sorted(cls))
                    for cls in query.eqclasses.nontrivial_classes()
                )
            ),
            tuple(
                sorted(
                    (predicate.column, predicate.op)
                    for predicate in query.classified.range_predicates
                )
            ),
            tuple(repr(form.expression) for form in query.residual_forms),
            tuple(
                (info.item.alias, repr(info.expression))
                for info in query.outputs
            ),
            tuple(repr(expr) for expr in query.statement.group_by),
        )
    return fingerprint


def _store_template(
    query: SpjgDescription,
    view: SpjgDescription,
    options: MatchOptions,
    context: ViewMatchContext,
    result: MatchResult,
) -> None:
    """Cache a successful match's compensation skeleton, when safe.

    Not stored: views with disjunctive ranges (compensated by re-applying
    query conjuncts wholesale) and any range class whose compensation
    would have to resolve through a backjoin (resolution could alter the
    join skeleton between store and hit time). Extra-table eliminations
    *are* stored: the elimination search and its null-rejection check
    read only fingerprint-stable facts, so the template carries the
    outcome and the class augmentation needed to replay it.
    """
    global _template_stores
    if result.substitute is None or result.template_parts is None:
        return
    if view.or_ranges:
        return
    fingerprint = _template_fingerprint(query)
    if fingerprint is None:
        return
    prefix, suffix, augmentation = result.template_parts
    range_refs = _derive_range_refs(query, view, options, context, augmentation)
    if range_refs is None:
        return
    view_sets, view_plain = _stored_view_ranges(
        query, view, context, augmentation, need_plain=True
    )
    substitute = result.substitute
    _cache_put(
        (context.serial, fingerprint),
        _CompensationTemplate(
            kind=_TPL_SUCCESS,
            eliminated=result.eliminated_tables,
            augmentation=augmentation,
            equalities=result.compensating_equalities,
            residuals=result.compensating_residuals,
            range_refs=range_refs,
            view_sets=view_sets,
            view_plain=view_plain,
            select_items=substitute.select_items,
            from_tables=substitute.from_tables,
            group_by=substitute.group_by,
            distinct=substitute.distinct,
            prefix=prefix,
            suffix=suffix,
            regrouped=result.regrouped,
            backjoined=result.backjoined_tables,
        ),
    )
    _template_stores += 1


def _stored_view_ranges(
    query: SpjgDescription,
    view: SpjgDescription,
    context: ViewMatchContext,
    augmentation: tuple | None,
    need_plain: bool,
) -> tuple[tuple, dict | None]:
    """The view-side range structures a template can replay verbatim.

    Only the unaugmented case is precomputed: with extra-table
    elimination the grouping classes are query-augmented, so replays
    rebuild them (the rare path). The returned structures are functions
    of the view's registration-time range conjuncts and the query's
    class partition -- both fingerprint-stable -- keyed by store-time
    representatives, which replays re-validate with ``find``.
    """
    if augmentation is not None:
        return (), None
    eqclasses = query.eqclasses
    view_sets = tuple(
        _interval_sets_from_items(context.range_items, eqclasses).items()
    )
    view_plain = (
        derive_ranges(view.classified.range_predicates, eqclasses)
        if need_plain
        else None
    )
    return view_sets, view_plain


def _derive_range_refs(
    query: SpjgDescription,
    view: SpjgDescription,
    options: MatchOptions,
    context: ViewMatchContext,
    augmentation: tuple | None,
) -> dict | None:
    """Range-class representative -> view output reference (or None).

    ``None`` overall means "do not template": some class has no direct
    output column while backjoins are enabled, so resolution at replay
    time could alter the join skeleton.
    """
    if augmentation is None:
        eqclasses = query.eqclasses
    else:
        eqclasses = _augment_classes(query.eqclasses, *augmentation)
    range_refs: dict = {}
    for representative in derive_ranges(
        query.classified.range_predicates, eqclasses
    ):
        direct = context.outputs.direct_column_for(representative, eqclasses)
        if direct is None:
            if options.allow_backjoins and not view.is_aggregate:
                return None
            range_refs[representative] = None
        else:
            range_refs[representative] = direct
    return range_refs


#: Reject phase (``MatchResult.match_progress``) -> stored template kind.
_REJECT_KINDS = {
    0: _TPL_REJECT_PRE,
    1: _TPL_RANGE_UNKNOWN,
    2: _TPL_REJECT_MID,
    3: _TPL_MAP_UNKNOWN,
    4: _TPL_REJECT_POST,
}


def _store_reject_template(
    query: SpjgDescription,
    view: SpjgDescription,
    options: MatchOptions,
    context: ViewMatchContext,
    result: MatchResult,
) -> None:
    """Cache a full-match reject's replayable outcome, when safe.

    The raise phase recorded by ``_match`` decides the kind: rejects in
    the constant-independent steps replay directly (after re-running any
    constant-dependent checks that precede them), while rejects *at* the
    range containment test or the range-compensation mapping -- whose
    outcome depends on the query's range constants -- are stored as
    "unknown" templates that only fast-path the verified prefix.
    """
    global _template_stores
    if view.or_ranges:
        return
    fingerprint = _template_fingerprint(query)
    if fingerprint is None:
        return
    phase, augmentation = result.match_progress
    kind = _REJECT_KINDS[phase]
    range_refs: dict | None = None
    needs_plain = kind in (_TPL_MAP_UNKNOWN, _TPL_REJECT_POST)
    if needs_plain:
        range_refs = _derive_range_refs(
            query, view, options, context, augmentation
        )
        if range_refs is None:
            return
    if kind == _TPL_REJECT_PRE:
        view_sets, view_plain = (), None
    else:
        view_sets, view_plain = _stored_view_ranges(
            query, view, context, augmentation, need_plain=needs_plain
        )
    _cache_put(
        (context.serial, fingerprint),
        _CompensationTemplate(
            kind=kind,
            eliminated=result.eliminated_tables,
            augmentation=augmentation,
            equalities=result.compensating_equalities,
            residuals=result.compensating_residuals,
            reject_reason=result.reject_reason,
            reject_detail=result.reject_detail,
            range_refs=range_refs,
            view_sets=view_sets,
            view_plain=view_plain,
        ),
    )
    _template_stores += 1


def _cache_put(key: tuple, template: _CompensationTemplate) -> None:
    cache = _TEMPLATE_CACHE
    if key not in cache and len(cache) >= _TEMPLATE_CACHE_LIMIT:
        try:
            del cache[next(iter(cache))]
        except (StopIteration, KeyError, RuntimeError):
            pass
    cache[key] = template


def _augment_classes(
    eqclasses: EquivalenceClasses,
    columns: tuple,
    equalities: tuple,
) -> EquivalenceClasses:
    """The extra-table class augmentation ``_match`` performs in step 1,
    replayed from a template's stored column/equality lists (same
    insertion order, so the merged classes are identical)."""
    augmented = eqclasses.copy()
    for key in columns:
        augmented.add_column(key)
    for child_key, parent_key in equalities:
        augmented.add_equality(child_key, parent_key)
    return augmented


def _try_template(
    query: SpjgDescription,
    view: SpjgDescription,
    options: MatchOptions,
    context: ViewMatchContext,
    result: MatchResult,
) -> bool:
    """Replay a cached template; True when ``result`` was filled in.

    The fingerprint guarantees every step except range containment and
    range-compensation mapping is byte-identical to the stored walk, so
    only those re-run: the real containment loop (raising the identical
    RANGE reject on failure) and the range-constant compensations
    (raising the identical PREDICATE_MAPPING reject when a class has no
    output column). The constant-independent outcome beyond them --
    success or a stored reject -- then replays verbatim.
    Eliminated-extra-table templates rebuild the augmented classes from
    the stored column/equality lists instead of re-running the FK graph
    search -- the elimination outcome itself is fingerprint-stable. A
    ``False`` return falls through to the full match; a stored reject is
    raised as ``_Reject`` exactly like the full match would.
    """
    global _template_hits
    fingerprint = _template_fingerprint(query)
    if fingerprint is None:
        return False
    template = _TEMPLATE_CACHE.get((context.serial, fingerprint))
    if template is None:
        return False
    kind = template.kind
    # Mirror the raise-time state of the full match: step 1 records the
    # eliminated extras before any later reject, and the raise-time
    # compensation counters are fingerprint-stable.
    result.eliminated_tables = template.eliminated
    if kind == _TPL_REJECT_PRE:
        result.compensating_equalities = template.equalities
        result.compensating_residuals = template.residuals
        _template_hits += 1
        raise _Reject(template.reject_reason, template.reject_detail)
    if template.augmentation is not None:
        augmented = _augment_classes(query.eqclasses, *template.augmentation)
        view_set_items = _interval_sets_from_items(
            context.range_items, augmented
        ).items()
    else:
        augmented = query.eqclasses
        # Replay the view-side sets stored at derivation time: the class
        # partition is part of the fingerprint, so the stored grouping is
        # this query's grouping unless the canonical representative of a
        # class drifted -- checked per key, bailing to the full match.
        for representative, _ in template.view_sets:
            if augmented.find(representative) != representative:
                result.eliminated_tables = ()
                return False
        view_set_items = template.view_sets
    if (
        template.augmentation is not None
        or context.check_ranges
        or context.check_or_ranges
    ):
        query_test_sets = _interval_sets(
            tuple(query.classified.range_predicates) + context.check_ranges,
            tuple(query.or_ranges) + context.check_or_ranges,
            augmented,
        )
    else:
        query_test_sets = _query_range_sets(query)
    for representative, view_set in view_set_items:
        query_set = query_test_sets.get(representative, UNBOUNDED_SET)
        if not view_set.contains(query_set):
            _template_hits += 1
            raise _Reject(
                RejectReason.RANGE,
                f"view range {view_set} does not contain query range "
                f"{query_set}",
            )
    if kind == _TPL_REJECT_MID:
        result.compensating_equalities = template.equalities
        result.compensating_residuals = template.residuals
        _template_hits += 1
        raise _Reject(template.reject_reason, template.reject_detail)
    if kind == _TPL_RANGE_UNKNOWN:
        # The stored walk never got past containment; this query's
        # constants do. Hand off to the full match, which will upgrade
        # the cache entry with whatever it finds.
        result.eliminated_tables = ()
        return False
    if template.view_plain is not None:
        # Fast bound-difference pass: the view-side intervals replay from
        # the store (guarded above), and the query side is memoized on
        # the description -- only the (op, constant) pairs are fresh.
        view_plain = template.view_plain
        plain = [
            (representative, op, value)
            for representative, query_interval in _query_plain_ranges(
                query
            ).items()
            for op, value in compensating_range_conjuncts(
                view_plain.get(representative, UNBOUNDED), query_interval
            )
        ]
    else:
        plain, or_compensations = _range_compensations(
            query, view, augmented, context.range_items
        )
        if or_compensations:
            result.eliminated_tables = ()
            return False  # cannot arise (no disjunctions on either side)
    compensations: list[Expression] = []
    range_refs = template.range_refs
    for representative, op, value in plain:
        if representative not in range_refs:
            result.eliminated_tables = ()
            return False
        reference = range_refs[representative]
        if reference is None:
            result.compensating_equalities = template.equalities
            result.compensating_ranges = len(compensations)
            _template_hits += 1
            raise _Reject(
                RejectReason.PREDICATE_MAPPING,
                f"no output column for range compensation on {representative}",
            )
        compensations.append(BinaryOp(op, reference, Literal(value)))
    if kind == _TPL_REJECT_POST:
        result.compensating_equalities = template.equalities
        result.compensating_ranges = len(compensations)
        result.compensating_residuals = template.residuals
        _template_hits += 1
        raise _Reject(template.reject_reason, template.reject_detail)
    if kind == _TPL_MAP_UNKNOWN:
        # The stored walk rejected at range mapping; this query's
        # compensation needs all mapped. Fall through to the full match.
        result.eliminated_tables = ()
        result.compensating_equalities = 0
        result.compensating_ranges = 0
        return False
    result.substitute = SelectStatement(
        select_items=template.select_items,
        from_tables=template.from_tables,
        where=conjunction(
            list(template.prefix) + compensations + list(template.suffix)
        ),
        group_by=template.group_by,
        distinct=template.distinct,
    )
    result.compensating_equalities = template.equalities
    result.compensating_ranges = len(compensations)
    result.compensating_residuals = template.residuals
    result.regrouped = template.regrouped
    result.backjoined_tables = template.backjoined
    _template_hits += 1
    return True


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
