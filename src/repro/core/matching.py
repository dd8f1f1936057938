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

Matching is split in two. The **decision** (:func:`decide`) runs the six
tests for every candidate. It reads the view only through its
:class:`ViewRecord`, compiled once at registration into int tuples and
bitmasks over the view's column-domain positions, and the query through
one :class:`_QuerySide` per query description; it builds no expression,
select item or statement. The **build** runs on the first read of
:attr:`MatchResult.substitute` and constructs the substitute expression:
the optimizer prices a match from its decision and reads the substitute
only of the matches its chosen plan uses.

Every rejection carries a :class:`RejectReason` so tests and the
experiment harness can report where candidates die.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, auto

from ..sql.expressions import (
    ARITHMETIC_OPERATORS,
    RANGE_OPERATORS,
    BinaryOp,
    ColumnRef,
    Expression,
    FuncCall,
    IsNull,
    Literal,
    UnaryMinus,
    conjunction,
    conjuncts_of,
)
from ..sql.statements import SelectItem, SelectStatement, TableRef
from .analyze import column_domain
from .describe import SpjgDescription
from .equivalence import ColumnDomain, ColumnKey, EquivalenceClasses
from .fkgraph import FkEdge, build_fk_join_graph, eliminate_tables
from .intervalsets import UNBOUNDED_SET, IntervalSet, OrRangePredicate, as_or_range
from .normalize import classify_predicate
from .options import DEFAULT_OPTIONS, MatchOptions
from .ranges import (
    UNBOUNDED,
    Interval,
    RangePredicate,
    as_range_predicate,
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
#: per-candidate decision below; ``skipped`` marks candidates the matcher
#: never verified because the optimizer's cost bound proved no cheaper plan
#: was reachable (neither matched nor rejected).
STAGE_VERIFY = "verify"
STAGE_SKIPPED = "skipped"


class MatchResult:
    """Outcome of matching one query expression against one view.

    The decision fills in everything but the substitute: whether the view
    matched, the reject reason, the compensation counts, the eliminated
    and back-joined tables, and what the optimizer prices a substitute by
    (``filtered``: it has a WHERE clause; ``grouped``: it groups or
    aggregates; :meth:`range_columns`). ``reject_detail`` is formatted and
    ``substitute`` built on first read, once; building drops the result's
    reference to the query. ``view`` is the view's :class:`ViewRecord`
    (callers read its ``name``).
    """

    # Class-level defaults: a result stores only what differs from them.
    reject_reason: RejectReason | None = None
    compensating_equalities = 0
    compensating_ranges = 0
    compensating_residuals = 0
    regrouped = False
    eliminated_tables: tuple[str, ...] = ()
    backjoined_tables: tuple[str, ...] = ()
    filtered = False
    grouped = False
    #: Which stage produced this result (bookkeeping, not an outcome).
    stage = STAGE_VERIFY
    # A detail string, or the ``(template, arguments)`` it formats from.
    _detail = ""
    _substitute: SelectStatement | None = None
    # An accepted decision's build inputs, until the build runs.
    _pending: "_Pending | None" = None

    def __init__(
        self,
        view: "ViewRecord",
        substitute: SelectStatement | None = None,
        reject_reason: RejectReason | None = None,
        reject_detail: str = "",
        stage: str = STAGE_VERIFY,
    ) -> None:
        self.view = view
        if substitute is not None:
            self._substitute = substitute
            self.filtered = substitute.where is not None
            self.grouped = substitute.is_aggregate
        if reject_reason is not None:
            self.reject_reason = reject_reason
            self._detail = reject_detail
        if stage != STAGE_VERIFY:
            self.stage = stage

    def _reject(
        self, reason: RejectReason, template: str, *arguments
    ) -> "MatchResult":
        self.reject_reason = reason
        self._detail = (template, arguments) if arguments else template
        return self

    @property
    def matched(self) -> bool:
        return self._substitute is not None or self._pending is not None

    @property
    def reject_detail(self) -> str:
        detail = self._detail
        if type(detail) is not str:
            template, arguments = detail
            detail = self._detail = template.format(*arguments)
        return detail

    @property
    def substitute(self) -> SelectStatement | None:
        """The substitute statement over the view, built on first read."""
        pending = self._pending
        if pending is not None:
            self._substitute = _build(pending)
            self._pending = None
        return self._substitute

    def range_columns(self) -> tuple[str, ...]:
        """The column of every range conjunct of the substitute's WHERE
        clause (``col op constant``): an index led by one of them turns
        the view scan into a seek."""
        pending = self._pending
        if pending is not None:
            return pending.range_columns()
        substitute = self._substitute
        if substitute is None:
            return ()
        return tuple(
            predicate.column[1]
            for predicate in map(as_range_predicate, conjuncts_of(substitute.where))
            if predicate is not None
        )

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

    def __repr__(self) -> str:
        outcome = (
            "matched"
            if self.matched
            else self.reject_reason.name
            if self.reject_reason is not None
            else self.stage
        )
        return f"<MatchResult {self.view.name} {outcome}>"


# Record fields repeat heavily across views (check constraints and fk
# edges derive from the catalog tables a view reads, class layouts and
# output masks from its joins and select list, and thousands of generated
# views share the same few of each), so identical values are interned to
# one object. Keys are the values themselves; the memo stays
# schema-bounded. Unhashable payloads simply skip interning.
_MEMO: dict = {}


def _intern(value):
    try:
        return _MEMO.setdefault(value, value)
    except TypeError:
        return value


# ---------------------------------------------------------------------------
# The view record
# ---------------------------------------------------------------------------


class ViewRecord:
    """What the Section 3 tests read of one view, compiled at registration.

    The paper keeps "in memory a description of every materialized view
    [containing] all information needed to apply the tests" (Section 4);
    this is that information in the form the tests consume. A column is
    its position in the view's column domain (the catalog's one domain of
    its table set, shared by every view and query over it) and a column
    set a bitmask over positions:

    * ``classes`` -- ``(root, mask)`` of each non-trivial equivalence class;
    * ``ranges`` -- ``(root, plain interval, interval set)`` per
      range-constrained class, every conjunct on the class intersected
      already, in the order of each class's first conjunct: the
      intersection of its plain conjuncts (``None``: it has none) and,
      only when a disjunctive range constrains it too, its interval set
      (else ``None``: the plain interval says it all);
      ``or_positions`` the columns of its disjunctive ranges;
    * ``residuals``, ``groups`` -- the shallow forms of its residual
      conjuncts and grouping expressions (the description's own);
    * ``expressions``, ``aggregates`` -- the output items computing an
      expression and a SUM; ``count_big`` the ``count_big(*)`` column;
      ``exposed`` the mask of the columns the view outputs as they are;
    * ``check_plain``, ``check_or``, ``check_residuals`` -- the check
      constraints of its tables, for the implication antecedent
      (``use_check_constraints``); ``fk_edges`` the cardinality-preserving
      joins extra-table elimination may use.

    The build and pricing read the rest, so a registered view needs no
    description once its record exists:

    * ``names`` -- the output name of each exposed column, in position
      order (the first output of a column names it);
    * ``conjuncts`` -- ``(position, op, constant)`` of each plain range
      conjunct and ``or_ranges`` ``(position, interval set)`` of each
      disjunctive one, in conjunct order (for a query class holding two
      constrained view classes, and for the substitute's compensations);
    * ``joins``, ``residual_conjuncts``, ``group_keys`` -- what the extent
      estimate multiplies besides the tables and the plain class
      intervals: the equalities that merged two classes, the residual
      conjuncts, and the columns of each grouping expression (``None``
      for an SPJ view); ``estimate`` memoizes ``(statistics, rows)``.

    ``name`` and ``catalog`` are the view's; results carry the record as
    their ``view``.
    """

    __slots__ = (
        "name",
        "catalog",
        "options",
        "tables",
        "domain",
        "aggregate",
        "distinct",
        "classes",
        "ranges",
        "conjuncts",
        "or_ranges",
        "residuals",
        "groups",
        "expressions",
        "aggregates",
        "count_big",
        "exposed",
        "check_plain",
        "check_or",
        "check_residuals",
        "fk_edges",
        "names",
        "joins",
        "residual_conjuncts",
        "group_keys",
        "estimate",
    )

    @classmethod
    def of(
        cls, view: SpjgDescription, options: MatchOptions = DEFAULT_OPTIONS
    ) -> "ViewRecord":
        if view.name is None:
            raise ValueError("view description must carry a view name")
        record = cls.__new__(cls)
        record.name = view.name
        record.catalog = view.catalog
        record.options = options
        record.tables = view.tables
        domain = record.domain = column_domain(view.catalog, view.tables)
        position = domain.position
        record.aggregate = view.is_aggregate
        record.distinct = view.statement.distinct

        eqclasses = view.eqclasses
        find = eqclasses.find
        classes: dict[int, int] = {}
        for column in eqclasses.merged_classes():
            root = position[find(column)]
            classes[root] = classes.get(root, 0) | 1 << position[column]
        record.classes = _intern(tuple(classes.items()))

        ranges: dict[int, list] = {}
        for key, interval in view.ranges.items():
            ranges[position[key]] = [interval, None]
        for or_range in view.or_ranges:
            root = position[find(or_range.column)]
            entry = ranges.get(root)
            if entry is None:
                entry = ranges[root] = [None, None]
            if entry[1] is None:
                entry[1] = _interval_set(entry[0])
            entry[1] = entry[1].intersect(or_range.interval_set)
        record.ranges = tuple(
            (root, plain, interval_set)
            for root, (plain, interval_set) in ranges.items()
        )
        record.conjuncts = tuple(
            [
                (position[predicate.column], predicate.op, predicate.value)
                for predicate in view.classified.range_predicates
            ]
        )
        record.or_ranges = tuple(
            [
                (position[or_range.column], or_range.interval_set)
                for or_range in view.or_ranges
            ]
        )
        record.residuals = view.residual_forms
        record.groups = view.group_forms

        expressions = []
        aggregates = []
        count_big = None
        for info in view.expression_outputs:
            expression = info.expression
            if isinstance(expression, FuncCall) and expression.is_aggregate():
                if expression.name == "count_big" and expression.star:
                    count_big = info.name
                else:
                    aggregates.append((info.form, info.name))
            else:
                expressions.append((info.form, info.name))
        record.expressions = tuple(expressions)
        record.aggregates = tuple(aggregates)
        record.count_big = count_big
        named = sorted(
            [(position[key], name) for key, name in view.simple_output_map.items()]
        )
        exposed = 0
        for column, _ in named:
            exposed |= 1 << column
        record.exposed = _intern(exposed)
        record.names = tuple([name for _, name in named])

        check_ranges, check_or_ranges, check_residuals = (
            _check_constraint_predicates(view, options)
        )
        record.check_plain = _intern(
            tuple(
                (position[predicate.column], IntervalSet.of([predicate.interval()]))
                for predicate in check_ranges
            )
        )
        record.check_or = _intern(
            tuple(
                (position[or_range.column], or_range.interval_set)
                for or_range in check_or_ranges
            )
        )
        record.check_residuals = _intern(check_residuals)
        record.fk_edges = _intern(
            tuple(
                build_fk_join_graph(
                    view.tables, view.eqclasses, view.catalog, options
                )
            )
        )
        record.joins = tuple(view.merging_equalities)
        record.residual_conjuncts = view.classified.residuals
        record.group_keys = (
            tuple(
                [
                    (expression.key,)
                    if type(expression) is ColumnRef
                    else tuple([ref.key for ref in expression.column_refs()])
                    for expression in view.statement.group_by
                ]
            )
            if view.is_aggregate
            else None
        )
        record.estimate = None
        return record

    def output_name(self, column: int) -> str | None:
        """The output name of domain position ``column`` (``None``: the
        view does not expose it)."""
        bit = 1 << column
        exposed = self.exposed
        if not exposed & bit:
            return None
        return self.names[(exposed & (bit - 1)).bit_count()]

    def estimated_rows(self, estimator) -> float:
        """The view's extent estimate under ``estimator``'s statistics
        (a :class:`~repro.stats.estimator.CardinalityEstimator`),
        memoized for the last statistics object asked about."""
        estimate = self.estimate
        stats = estimator.stats
        if estimate is None or estimate[0] is not stats:
            estimate = self.estimate = (stats, estimator.extent_rows(self))
        return estimate[1]

    def plain_intervals(self) -> list[tuple[ColumnKey, Interval]]:
        """``(column, interval)`` of each plain range conjunct."""
        columns = self.domain.columns
        found = []
        for column, op, value in self.conjuncts:
            key = columns[column]
            found.append((key, RangePredicate(key, op, value).interval()))
        return found

    def range_items(self) -> list[tuple[ColumnKey, IntervalSet]]:
        """Each range-bearing conjunct as a ``(column, interval set)``
        pair: the plain ones, then the disjunctions."""
        columns = self.domain.columns
        items = [
            (key, IntervalSet.of([interval]))
            for key, interval in self.plain_intervals()
        ]
        items.extend((columns[column], found) for column, found in self.or_ranges)
        return items


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


# ---------------------------------------------------------------------------
# The query side
# ---------------------------------------------------------------------------


class _QuerySide:
    """The query's half of the tests, over one column domain.

    Derived once per query description (:func:`_side_of`) -- and once per
    extra-table augmentation of its classes -- instead of once per
    candidate. ``root`` maps every domain position to its class root and
    ``masks`` every non-trivial class's root to its member mask; ``plain``
    holds each class's intersected plain range conjuncts, ``disjunctive``
    the interval set of each class a disjunctive range constrains too
    (``or_roots``: those classes). The residual index, shallow forms and
    the output list are derived on first use. An augmented side records
    the tables its augmentation eliminated; the query's own side memoises
    its augmentations.

    A side holds no reference to its description, which holds the side.
    """

    __slots__ = (
        "eqclasses",
        "catalog",
        "domain",
        "position",
        "columns",
        "root",
        "masks",
        "keyed_items",
        "plain",
        "disjunctive",
        "or_roots",
        "residual_forms",
        "_residuals",
        "eliminated",
        "augmentations",
        "_forms",
        "_sums",
        "_outputs",
        "_range_expressions",
    )

    def __init__(
        self,
        query: SpjgDescription,
        eqclasses: EquivalenceClasses,
        domain: ColumnDomain,
        eliminated: tuple[str, ...] = (),
        base: "_QuerySide | None" = None,
    ) -> None:
        self.eqclasses = eqclasses
        self.catalog = query.catalog
        self.domain = domain
        position = self.position = domain.position
        self.columns = domain.columns
        root = self.root = list(range(len(domain.columns)))
        masks: dict[int, int] = {}
        for column, representative in eqclasses.merged_roots().items():
            member = position[column]
            representative = root[member] = position[representative]
            masks[representative] = masks.get(representative, 0) | 1 << member
        self.masks = masks
        # The range conjuncts as ``(column key, interval)`` pairs, then
        # the disjunctions as ``(column key, interval set)`` pairs; sides
        # over other domains reuse them.
        if base is None:
            keyed = (
                [
                    (predicate.column, predicate.interval())
                    for predicate in query.classified.range_predicates
                ],
                [
                    (or_range.column, or_range.interval_set)
                    for or_range in query.or_ranges
                ],
            )
        else:
            keyed = base.keyed_items
        self.keyed_items = keyed
        plain: dict = {}
        for key, interval in keyed[0]:
            representative = root[position[key]]
            current = plain.get(representative)
            plain[representative] = (
                interval if current is None else current.intersect(interval)
            )
        disjunctive: dict = {}
        for key, interval_set in keyed[1]:
            representative = root[position[key]]
            current = disjunctive.get(representative)
            if current is None:
                current = _interval_set(plain.get(representative))
            disjunctive[representative] = current.intersect(interval_set)
        self.plain = plain
        self.disjunctive = disjunctive
        self.or_roots = frozenset(disjunctive)
        self.residual_forms = query.residual_forms
        self._residuals = None
        self.eliminated = eliminated
        self.augmentations: dict = {}
        self._forms: dict = {}
        self._sums: dict = {}
        self._outputs = None
        self._range_expressions = None

    def residuals(self) -> dict[str, list]:
        """``{template: [(index, ref roots)]}`` of the residual conjuncts."""
        residuals = self._residuals
        if residuals is None:
            residuals = self._residuals = {}
            for index, form in enumerate(self.residual_forms):
                residuals.setdefault(form.template, []).append(
                    (index, self.roots(form.refs))
                )
        return residuals

    def roots(self, refs) -> tuple[int, ...]:
        """The class roots of a shallow form's column references."""
        root = self.root
        position = self.position
        return tuple([root[position[ref.key]] for ref in refs])

    def mask(self, column: int) -> int:
        """The member mask of ``column``'s class."""
        return self.masks.get(self.root[column], 1 << column)

    def form(self, expression: Expression) -> tuple:
        """``(template, ref roots, expression)`` of a query expression."""
        found = self._forms.get(id(expression))
        if found is None:
            shallow = ShallowForm.shared(expression, self.catalog)
            # The expression rides along: it keeps its id from being reused.
            found = self._forms[id(expression)] = (
                shallow.template,
                self.roots(shallow.refs),
                expression,
            )
        return found

    def sum_form(self, argument: Expression) -> tuple:
        """``(template, ref roots)`` of ``sum(argument)``."""
        found = self._sums.get(id(argument))
        if found is None:
            template, roots, _ = self.form(argument)
            found = self._sums[id(argument)] = (f"sum({template})", roots)
        return found

    def outputs(self, query: SpjgDescription) -> tuple:
        """``(output expressions, column masks)``: the masks, when every
        output is a column, are ``(class mask, output index)`` of each
        distinct class in output order (``None`` otherwise)."""
        found = self._outputs
        if found is None:
            expressions = query.output_expressions()
            columns = None
            if all(type(expression) is ColumnRef for expression in expressions):
                columns = []
                seen = set()
                position = self.position
                for index, expression in enumerate(expressions):
                    mask = self.mask(position[expression.key])
                    if mask not in seen:
                        seen.add(mask)
                        columns.append((mask, index))
            found = self._outputs = (expressions, columns)
        return found

    def or_compensations(
        self, query: SpjgDescription, or_roots, view_ranges: dict
    ) -> list[Expression]:
        """The query's range conjuncts to re-apply on every class a
        disjunctive range constrains, unless view and query agree on it.

        Classes go in the order of their representatives' keys; per class,
        the plain conjuncts (``col op constant``, built once per side) come
        before the disjunctions.
        """
        found = self._range_expressions
        if found is None:
            position = self.position
            root = self.root
            found = self._range_expressions = (
                [
                    (
                        root[position[predicate.column]],
                        BinaryOp(
                            predicate.op,
                            ColumnRef(*predicate.column),
                            Literal(predicate.value),
                        ),
                    )
                    for predicate in query.classified.range_predicates
                ],
                [
                    (root[position[or_range.column]], or_range.expression)
                    for or_range in query.or_ranges
                ],
            )
        plain, disjunctive = found
        expressions: list[Expression] = []
        for representative in sorted(or_roots, key=self.columns.__getitem__):
            query_set = self.interval_set(representative)
            if query_set is None:
                continue  # only the view is constrained; nothing to narrow
            view = view_ranges.get(representative)
            if view is not None and _view_set(view) == query_set:
                continue
            expressions.extend(e for r, e in plain if r == representative)
            expressions.extend(e for r, e in disjunctive if r == representative)
        return expressions

    def interval_set(self, representative: int) -> IntervalSet | None:
        """The interval set of a class (``None``: no range constrains it)."""
        found = self.disjunctive.get(representative)
        if found is None and representative in self.plain:
            found = _interval_set(self.plain[representative])
        return found

    def antecedent_sets(self, record: ViewRecord) -> dict:
        """Per-class interval sets of the query's ranges strengthened by
        the view tables' check constraints."""
        position = self.position
        plain, disjunctive = self.keyed_items
        return _group_sets(
            [(position[key], _interval_set(interval)) for key, interval in plain]
            + list(record.check_plain)
            + [(position[key], interval_set) for key, interval_set in disjunctive]
            + list(record.check_or),
            self.root,
        )


def _interval_set(interval) -> IntervalSet:
    """The interval set of one interval (``None``: unbounded)."""
    return UNBOUNDED_SET if interval is None else IntervalSet.of([interval])


def _view_set(view_range: tuple) -> IntervalSet:
    """The interval set of a ``(plain interval, interval set)`` view range."""
    plain, interval_set = view_range
    return _interval_set(plain) if interval_set is None else interval_set


def _group_sets(items, root: list[int]) -> dict:
    """Intersect ``(position, interval set)`` items per class root."""
    sets: dict = {}
    for column, interval_set in items:
        representative = root[column]
        sets[representative] = sets.get(representative, UNBOUNDED_SET).intersect(
            interval_set
        )
    return sets


def _side_of(query: SpjgDescription) -> _QuerySide:
    """The query's own side, derived on its description's first match."""
    side = query._side
    if side is None:
        eqclasses = query.eqclasses
        side = query._side = _QuerySide(query, eqclasses, eqclasses.domain)
    return side


def _augment(
    query: SpjgDescription,
    side: _QuerySide,
    record: ViewRecord,
    extras: frozenset[str],
) -> "_QuerySide | tuple":
    """The query's side over the view's domain, its classes extended by the
    joins that eliminate ``extras`` (``side``: the query's own, whose
    range items it reuses); or the ``(reason, template, arguments)`` of
    the rejection when they cannot be eliminated."""
    used_edges: tuple[FkEdge, ...] = ()
    eliminated: tuple[str, ...] = ()
    if extras:
        elimination = eliminate_tables(
            record.tables, list(record.fk_edges), removable=extras
        )
        if not elimination.eliminated_all(extras):
            return (
                RejectReason.EXTRA_TABLES,
                "cannot eliminate {} via cardinality-preserving joins",
                (sorted(extras & elimination.remaining),),
            )
        used_edges = elimination.used_edges
        for edge in used_edges:
            if edge.nullable:
                rejection = _null_rejection(query, edge)
                if rejection is not None:
                    return rejection
        eliminated = tuple(sorted(extras))
    # The view's column domain holds the query's columns and every column
    # of the extra tables.
    augmented = query.eqclasses.over(record.domain)
    for edge in used_edges:
        for child_key, parent_key in edge.column_pairs:
            augmented.add_equality(child_key, parent_key)
    return _QuerySide(query, augmented, record.domain, eliminated, side)


def _null_rejection(query: SpjgDescription, edge: FkEdge) -> tuple | None:
    """The Section 3.2 extension: a nullable FK column is acceptable when the
    query discards NULLs in it anyway (a range or IS NOT NULL predicate).
    ``None``, or the rejection."""
    table = query.catalog.table(edge.source)
    for child_key, _parent_key in edge.column_pairs:
        if not table.is_nullable(child_key[1]):
            continue
        if child_key not in query.eqclasses:
            return (
                RejectReason.NULLABLE_FK,
                "nullable FK column {} not referenced by the query",
                (child_key,),
            )
        representative = query.eqclasses.find(child_key)
        if representative in query.ranges:
            continue  # any range predicate rejects NULLs
        if _has_null_rejecting_residual(query, child_key):
            continue
        return (
            RejectReason.NULLABLE_FK,
            "no null-rejecting query predicate on {}",
            (child_key,),
        )
    return None


def _has_null_rejecting_residual(query: SpjgDescription, key: ColumnKey) -> bool:
    """Whether a residual conjunct is false or unknown whenever ``key`` is
    NULL: ``IS NOT NULL`` on its class, or a comparison with a column of
    its class as an operand, directly or through arithmetic. A function
    (``coalesce(col, 0) = 0``) or ``IS NULL`` on the way may turn NULL
    into a value and does not count."""
    eqclasses = query.eqclasses
    for form in query.residual_forms:
        expr = form.expression
        if isinstance(expr, IsNull) and expr.negated:
            operand = expr.operand
            if isinstance(operand, ColumnRef) and eqclasses.same_class(
                operand.key, key
            ):
                return True
        if isinstance(expr, BinaryOp) and expr.is_comparison():
            for operand in (expr.left, expr.right):
                if _reaches_column(operand, key, eqclasses):
                    return True
    return False


def _reaches_column(
    expression: Expression, key: ColumnKey, eqclasses: EquivalenceClasses
) -> bool:
    """Whether ``expression`` is a column of ``key``'s class, directly or
    through arithmetic only: NULL in it makes the expression NULL."""
    if isinstance(expression, ColumnRef):
        return eqclasses.same_class(expression.key, key)
    if isinstance(expression, BinaryOp) and expression.op in ARITHMETIC_OPERATORS:
        return _reaches_column(
            expression.left, key, eqclasses
        ) or _reaches_column(expression.right, key, eqclasses)
    if isinstance(expression, UnaryMinus):
        return _reaches_column(expression.operand, key, eqclasses)
    return False


# ---------------------------------------------------------------------------
# The decision
# ---------------------------------------------------------------------------


def match_view(
    query: SpjgDescription,
    view: SpjgDescription,
    options: MatchOptions = DEFAULT_OPTIONS,
    record: ViewRecord | None = None,
) -> MatchResult:
    """Match one query expression against one materialized view.

    ``record`` is the view's :class:`ViewRecord`, compiled at
    registration (the caller vouches that it is ``view``'s); when absent,
    or compiled under other options, one is compiled here, so direct
    callers need not manage records.
    """
    if record is None or (
        record.options is not options and record.options != options
    ):
        record = ViewRecord.of(view, options)
    return decide(query, record, options)


def decide(
    query: SpjgDescription,
    record: ViewRecord,
    options: MatchOptions = DEFAULT_OPTIONS,
) -> MatchResult:
    """Run the Section 3 tests of one candidate, building nothing.

    The tests run in the paper's order and reject with the reasons and
    details the build-as-you-go walk gave (``tests/core`` keeps that walk
    as the oracle). An accepted result carries its compensation counts,
    eliminated and back-joined tables and pricing inputs; its substitute
    is built on first read.
    """
    result = MatchResult(record)
    if record.aggregate and not query.is_aggregate:
        return result._reject(RejectReason.VIEW_KIND, "aggregation view, SPJ query")
    if record.distinct:
        return result._reject(
            RejectReason.VIEW_KIND, "DISTINCT view is not indexable"
        )

    # ---- Step 1: tables, extra-table elimination, augmented classes --------
    tables = query.tables
    view_tables = record.tables
    if not view_tables >= tables:
        return result._reject(
            RejectReason.TABLES, "view lacks {}", sorted(tables - view_tables)
        )
    side = _side_of(query)
    if len(view_tables) != len(tables) or side.domain is not record.domain:
        extras = view_tables - tables
        key = (id(record.fk_edges), extras, id(record.domain))
        augmented = side.augmentations.get(key)
        if augmented is None:
            augmented = side.augmentations[key] = _augment(
                query, side, record, extras
            )
        if type(augmented) is tuple:
            reason, template, arguments = augmented
            return result._reject(reason, template, *arguments)
        side = augmented
        result.eliminated_tables = side.eliminated

    # ---- Step 2: equijoin subsumption ---------------------------------------
    # Every view class must lie inside one query class; a query class
    # holding two or more view classes needs compensating equalities.
    root = side.root
    masks = side.masks
    classes = record.classes
    for view_root, view_mask in classes:
        if view_mask & ~masks.get(root[view_root], 0):
            return result._reject(
                RejectReason.EQUIJOIN, "view equates columns the query does not"
            )
    partitions = []
    for query_mask in masks.values():
        count = 0
        covered = 0
        for _, view_mask in classes:
            if view_mask & query_mask:
                count += 1
                covered |= view_mask
        if count + (query_mask & ~covered).bit_count() > 1:
            partitions.append(query_mask)
    if len(partitions) > 1:  # in the order of each class's first column
        partitions.sort(key=lambda mask: mask & -mask)

    # ---- Step 3: range subsumption -------------------------------------------
    # The view's ranges are intersected per view class already; two view
    # classes in one query class regroup its conjuncts in their order.
    # A class no disjunction constrains compares plain intervals.
    view_ranges: dict = {}
    for view_root, view_plain, view_set in record.ranges:
        representative = root[view_root]
        if representative in view_ranges:
            view_ranges = _regrouped_view_ranges(record, side)
            break
        view_ranges[representative] = (view_plain, view_set)
    check_sets = (
        side.antecedent_sets(record)
        if record.check_plain or record.check_or
        else None
    )
    for representative, (view_plain, view_set) in view_ranges.items():
        if (
            check_sets is None
            and view_set is None
            and representative not in side.disjunctive
        ):
            query_interval = side.plain.get(representative, UNBOUNDED)
            if view_plain.contains(query_interval):
                continue
            view_set = _interval_set(view_plain)
            query_set = _interval_set(query_interval)
        else:
            if view_set is None:
                view_set = _interval_set(view_plain)
            if check_sets is None:
                query_set = side.interval_set(representative) or UNBOUNDED_SET
            else:
                query_set = check_sets.get(representative, UNBOUNDED_SET)
            if view_set.contains(query_set):
                continue
        return result._reject(
            RejectReason.RANGE,
            "view range {} does not contain query range {}",
            view_set,
            query_set,
        )
    or_roots = side.or_roots
    if record.or_ranges:
        or_roots = or_roots | {root[column] for column, _ in record.or_ranges}
    ranged: list[int] = []  # the class of each compensating range conjunct
    for representative, query_interval in side.plain.items():
        if representative in or_roots:
            continue
        view = view_ranges.get(representative)
        view_interval = UNBOUNDED if view is None or view[0] is None else view[0]
        count = len(compensating_range_conjuncts(view_interval, query_interval))
        if count:
            ranged.extend([representative] * count)
    or_compensations = (
        side.or_compensations(query, or_roots, view_ranges) if or_roots else ()
    )

    # ---- Step 4: residual subsumption ----------------------------------------
    matched: set[int] = set()
    if record.residuals:
        query_residuals = side.residuals()
    for view_form in record.residuals:
        template = view_form.template
        roots = side.roots(view_form.refs)
        found = False
        for index, query_roots in query_residuals.get(template, ()):
            if query_roots == roots:
                found = True
                matched.add(index)
        if not found:
            # Check-constraint conjuncts join the antecedent; they never
            # need compensation.
            for check_form in record.check_residuals:
                if check_form.template == template and roots == side.roots(
                    check_form.refs
                ):
                    found = True
                    break
        if not found:
            return result._reject(
                RejectReason.RESIDUAL,
                "view residual {} not implied by the query",
                template,
            )
    forms = side.residual_forms
    compensated = [index for index in range(len(forms)) if index not in matched]

    # ---- Step 5: compensating predicates map to view outputs -----------------
    mapper = _Mapper(side, record, options)
    joined = mapper.joined
    exposed = record.exposed
    columns = side.columns
    for query_mask in partitions:
        view_classes = _view_classes(query_mask, classes)
        if not all(mask & exposed for mask in view_classes):
            ordered = sorted(
                (_class_keys(mask, columns), mask) for mask in view_classes
            )
            for keys, mask in ordered:
                if mask & exposed:
                    continue
                if joined is not None and any(map(mapper.join, keys)):
                    continue
                return result._reject(
                    RejectReason.PREDICATE_MAPPING,
                    "no output column in view class {} for compensating equality",
                    keys,
                )
        result.compensating_equalities += len(view_classes) - 1
    for representative in ranged:
        if not exposed & side.mask(representative) and (
            joined is None or not mapper.join(columns[representative])
        ):
            return result._reject(
                RejectReason.PREDICATE_MAPPING,
                "no output column for range compensation on {}",
                columns[representative],
            )
        result.compensating_ranges += 1
    for expression in or_compensations:
        if not mapper.mappable(expression):
            return result._reject(
                RejectReason.PREDICATE_MAPPING,
                "disjunctive range compensation not computable from view",
            )
        result.compensating_ranges += 1
    for index in compensated:
        form = forms[index]
        if not mapper.mappable(form.expression):
            return result._reject(
                RejectReason.PREDICATE_MAPPING,
                "residual compensation {} not computable from view",
                form.template,
            )
        result.compensating_residuals += 1

    # ---- Step 6: outputs and aggregation --------------------------------------
    regroup = False
    if not query.is_aggregate:
        expressions, output_columns = side.outputs(query)
        if output_columns is not None and joined is None:
            for mask, index in output_columns:
                if not mask & exposed:
                    return result._reject(
                        RejectReason.OUTPUT_MAPPING,
                        "output {} not computable from view",
                        side.form(expressions[index])[0],
                    )
        else:
            for expression in expressions:
                if not mapper.mappable(expression):
                    return result._reject(
                        RejectReason.OUTPUT_MAPPING,
                        "output {} not computable from view",
                        side.form(expression)[0],
                    )
    elif not record.aggregate:
        # Re-aggregate the SPJ view's rows.
        for expression in query.group_by_expressions():
            if not mapper.mappable(expression):
                return result._reject(
                    RejectReason.OUTPUT_MAPPING,
                    "grouping expression {} not computable from view",
                    expression,
                )
        for expression in side.outputs(query)[0]:
            if not mapper.aggregate_mappable(expression, rollup=False):
                return result._reject(
                    RejectReason.OUTPUT_MAPPING,
                    "output {} not computable from view",
                    side.form(expression)[0],
                )
    else:
        # Section 3.3: the query's grouping list within the view's, and a
        # compensating group-by when it is a strict subset.
        group_by = query.group_by_expressions()
        groups = record.groups
        matched_groups: set[int] = set()
        for expression in group_by:
            template, roots, _ = side.form(expression)
            found = False
            for index, view_form in enumerate(groups):
                if view_form.template == template and side.roots(
                    view_form.refs
                ) == roots:
                    matched_groups.add(index)
                    found = True
            if not found:
                return result._reject(
                    RejectReason.GROUPING,
                    "query grouping expression {} not in view grouping list",
                    template,
                )
        regroup = len(matched_groups) < len(groups)
        if regroup:
            for expression in group_by:
                if not mapper.mappable(expression):
                    return result._reject(
                        RejectReason.OUTPUT_MAPPING,
                        "grouping expression {} not computable from view",
                        expression,
                    )
        for expression in side.outputs(query)[0]:
            if not mapper.aggregate_mappable(expression, rollup=True):
                return result._reject(
                    RejectReason.AGGREGATE,
                    "output {} not derivable from view aggregates",
                    side.form(expression)[0],
                )
        result.regrouped = regroup

    if joined:
        result.backjoined_tables = tuple(sorted(joined))
    result.filtered = bool(
        partitions or ranged or or_compensations or compensated or joined
    )
    result.grouped = query.is_aggregate and (not record.aggregate or regroup)
    result._pending = _Pending(
        query, record, options, side, ranged, or_compensations, compensated
    )
    return result


def _regrouped_view_ranges(record: ViewRecord, side: _QuerySide) -> dict:
    """``{query class root: (plain interval or None, interval set)}``
    from the view's range conjuncts, intersected per query class in
    conjunct order -- for a query class holding two constrained view
    classes. The record's positions are the side's: both range over
    the view's column domain."""
    root = side.root
    position = side.position
    items = record.range_items()
    sets = _group_sets(
        [(position[column], interval_set) for column, interval_set in items],
        root,
    )
    plain: dict = {}
    for column, interval in record.plain_intervals():
        representative = root[position[column]]
        plain[representative] = plain.get(representative, UNBOUNDED).intersect(
            interval
        )
    return {
        representative: (plain.get(representative), interval_set)
        for representative, interval_set in sets.items()
    }


def _view_classes(query_mask: int, classes: tuple) -> list[int]:
    """The member masks of the view classes inside one query class: its
    non-trivial ones, then one bit per column in no view class."""
    found = [view_mask for _, view_mask in classes if view_mask & query_mask]
    covered = 0
    for view_mask in found:
        covered |= view_mask
    rest = query_mask & ~covered
    while rest:
        low = rest & -rest
        found.append(low)
        rest ^= low
    return found


def _class_keys(mask: int, columns: list[ColumnKey]) -> list[ColumnKey]:
    """The sorted column keys of a class mask."""
    keys = []
    while mask:
        low = mask & -mask
        keys.append(columns[low.bit_length() - 1])
        mask ^= low
    keys.sort()
    return keys


def _find(outputs: tuple, template: str, roots: tuple, side: _QuerySide):
    """The name of the first view output ``(shallow form, name)`` whose
    form has template ``template`` and its columns, pairwise, in the
    classes ``roots``."""
    for form, name in outputs:
        if form.template == template and side.roots(form.refs) == roots:
            return name
    return None


class _Mapper:
    """Whether query expressions map onto one view's outputs: the build's
    :func:`_map_expression` and aggregate mappers as tests, in the same
    order and with the same back-joins, building nothing.

    A column maps when its class holds an exposed view column or, with
    back-joins on, its table joins back to the view (``joined`` collects
    those tables; ``None``: back-joins off); an expression when it is a
    view output expression (at the top, or anywhere under
    ``map_complex_expressions``) or all its parts map.
    """

    __slots__ = ("side", "record", "complex", "joined")

    def __init__(
        self, side: _QuerySide, record: ViewRecord, options: MatchOptions
    ) -> None:
        self.side = side
        self.record = record
        self.complex = options.map_complex_expressions
        self.joined: set[str] | None = (
            set() if options.allow_backjoins and not record.aggregate else None
        )

    def column(self, key: ColumnKey) -> bool:
        side = self.side
        if self.record.exposed & side.mask(side.position[key]):
            return True
        return self.joined is not None and self.join(key)

    def join(self, key: ColumnKey) -> bool:
        """Whether ``key``'s table joins back to the view: on a unique key
        of non-nullable columns the view exposes (see
        :class:`_BackjoinState`)."""
        table_name = key[0]
        record = self.record
        if table_name not in record.tables:
            return False
        joined = self.joined
        if table_name in joined:
            return True
        table = record.catalog.table(table_name)
        side = self.side
        position = side.position
        exposed = record.exposed
        for unique_key in table.all_unique_keys():
            if any(table.is_nullable(column) for column in unique_key):
                continue  # a NULL key value would break the equijoin
            if all(
                exposed & side.mask(position[(table_name, column)])
                for column in unique_key
            ):
                joined.add(table_name)
                return True
        return False

    def mappable(self, expression: Expression, top: bool = True) -> bool:
        if isinstance(expression, Literal):
            return True
        if isinstance(expression, ColumnRef):
            return self.column(expression.key)
        complex_ = self.complex
        if (top or complex_) and self.output(expression) is not None:
            return True
        for child in expression.children():
            if not self.mappable(child, complex_):
                return False
        return True

    def output(self, expression: Expression) -> str | None:
        """The view output column computing exactly ``expression``."""
        entries = self.record.expressions
        if not entries:
            return None
        template, roots, _ = self.side.form(expression)
        return _find(entries, template, roots, self.side)

    def aggregate_mappable(self, expression: Expression, rollup: bool) -> bool:
        """An output expression: aggregates recomputed over an SPJ view's
        rows, or rolled up from an aggregation view's (``rollup``)."""
        if isinstance(expression, FuncCall) and expression.is_aggregate():
            if rollup:
                return self._rollup(expression)
            return expression.star or self.mappable(expression.args[0])
        if not expression.contains_aggregate():
            return self.mappable(expression)
        for child in expression.children():
            if not self.aggregate_mappable(child, rollup):
                return False
        return True

    def _rollup(self, call: FuncCall) -> bool:
        counted = self.record.count_big is not None
        if call.name in ("count", "count_big") and call.star:
            return counted
        if call.name == "sum":
            return self._sum(call.args[0])
        if call.name == "avg":
            return self._sum(call.args[0]) and counted
        # count(E) over an aggregation view cannot be derived: the view lost
        # the per-row NULL information.
        return False

    def _sum(self, argument: Expression) -> bool:
        entries = self.record.aggregates
        if not entries:
            return False
        template, roots = self.side.sum_form(argument)
        return _find(entries, template, roots, self.side) is not None

    # -- the pricing inputs of an accepted match ---------------------------

    def column_name(self, key: ColumnKey) -> str:
        """The column a mapped reference to ``key`` names: the first
        exposed member of its class, or (back-joined) its own."""
        output_name = self.record.output_name
        position = self.side.position
        name = output_name(position[key])
        if name is not None:
            return name
        for member in sorted(self.side.eqclasses.class_of(key)):
            name = output_name(position[member])
            if name is not None:
                return name
        return key[1]

    def range_column(self, expression: Expression) -> str | None:
        """The column of ``expression``'s image when that image is a range
        conjunct (``col op constant``), else ``None``."""
        if (
            not isinstance(expression, BinaryOp)
            or expression.op not in RANGE_OPERATORS
            or self.output(expression) is not None
        ):
            return None
        left, right = expression.left, expression.right
        if isinstance(right, Literal) and right.value is not None:
            return self._mapped_column(left)
        if isinstance(left, Literal) and left.value is not None:
            return self._mapped_column(right)
        return None

    def _mapped_column(self, expression: Expression) -> str | None:
        if isinstance(expression, ColumnRef):
            return self.column_name(expression.key)
        if isinstance(expression, Literal) or not self.complex:
            return None
        return self.output(expression)


class _Pending:
    """What an accepted decision leaves for the build and for pricing."""

    __slots__ = (
        "query",
        "record",
        "options",
        "side",
        "ranged",
        "or_compensations",
        "compensated",
    )

    def __init__(
        self, query, record, options, side, ranged, or_compensations, compensated
    ) -> None:
        self.query = query
        self.record = record
        self.options = options
        self.side = side
        self.ranged = ranged
        self.or_compensations = or_compensations
        self.compensated = compensated

    def range_columns(self) -> tuple[str, ...]:
        mapper = _Mapper(self.side, self.record, self.options)
        columns = self.side.columns
        names = [mapper.column_name(columns[root]) for root in self.ranged]
        forms = self.side.residual_forms
        for expression in [
            *self.or_compensations,
            *(forms[index].expression for index in self.compensated),
        ]:
            name = mapper.range_column(expression)
            if name is not None:
                names.append(name)
        return tuple(names)


# ---------------------------------------------------------------------------
# The build
# ---------------------------------------------------------------------------


def _build(pending: _Pending) -> SelectStatement:
    """The substitute of an accepted decision: compensating predicates and
    outputs mapped onto the view's output columns."""
    query = pending.query
    options = pending.options
    record = pending.record
    augmented = pending.side.eqclasses
    outputs = _ViewOutputs.of(record)
    if options.allow_backjoins and not record.aggregate:
        backjoins = _BackjoinState(record, augmented)
        backjoins.outputs = outputs
        outputs.backjoins = backjoins
    compensations: list[Expression] = []
    for partition in _equality_partitions(record, augmented):
        compensations.extend(_map_equality_partition(partition, outputs))
    range_compensations, or_range_compensations = _range_compensations(
        query, record, augmented
    )
    for representative, op, value in range_compensations:
        reference = _mapped(outputs.column_for(representative, augmented))
        compensations.append(BinaryOp(op, reference, Literal(value)))
    for expression in or_range_compensations:
        compensations.append(
            _mapped(_map_expression(expression, augmented, outputs, options))
        )
    forms = pending.side.residual_forms
    for index in pending.compensated:
        compensations.append(
            _mapped(
                _map_expression(forms[index].expression, augmented, outputs, options)
            )
        )

    if not query.is_aggregate:
        select_items = _map_spj_outputs(query, augmented, outputs, options)
        group_by: tuple[Expression, ...] = ()
    elif not record.aggregate:
        select_items, group_by = _map_aggregation_over_spj_view(
            query, augmented, outputs, options
        )
    else:
        select_items, group_by = _map_aggregation_over_agg_view(
            query, record, augmented, outputs, options
        )

    from_tables = [TableRef(name=outputs.view_name)]
    backjoins = outputs.backjoins
    if backjoins is not None:
        outputs.backjoins = None  # the two referred to each other
        if backjoins.joined:
            from_tables.extend(TableRef(name=t) for t in backjoins.tables())
            compensations.extend(backjoins.join_predicates())
    return SelectStatement(
        select_items=tuple(select_items),
        from_tables=tuple(from_tables),
        where=conjunction(compensations),
        group_by=tuple(group_by),
        distinct=query.statement.distinct,
    )


def _mapped(expression: Expression | None) -> Expression:
    """A mapping the decision proved possible."""
    if expression is None:
        raise AssertionError("the decision accepted an unmappable expression")
    return expression


@dataclass(slots=True)
class _ViewOutputs:
    """Lookup structures over a view's output list, for one build."""

    view_name: str
    record: ViewRecord
    expressions: tuple[tuple[ShallowForm, str], ...] = ()
    aggregates: tuple[tuple[ShallowForm, str], ...] = ()
    count_big_column: str | None = None
    backjoins: "_BackjoinState | None" = None

    @classmethod
    def of(cls, record: ViewRecord) -> "_ViewOutputs":
        return cls(
            view_name=record.name,
            record=record,
            expressions=record.expressions,
            aggregates=record.aggregates,
            count_big_column=record.count_big,
        )

    def simple(self, key: ColumnKey) -> str | None:
        """The output name exposing column ``key`` (``None``: none does)."""
        record = self.record
        column = record.domain.position.get(key)
        return None if column is None else record.output_name(column)

    def direct_column_for(
        self, key: ColumnKey, eqclasses: EquivalenceClasses
    ) -> ColumnRef | None:
        """Reroute ``key`` to an exposed output column (no backjoins)."""
        name = self.simple(key)
        if name is not None:
            return ColumnRef(self.view_name, name)
        if key not in eqclasses:
            return None
        for member in sorted(eqclasses.class_of(key)):
            name = self.simple(member)
            if name is not None:
                return ColumnRef(self.view_name, name)
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
    """Pending base-table backjoins for one build (Section 7 extension).

    A missing column of table T becomes available by joining the view back
    to T on a unique key of T whose columns the view exposes: every view
    row stems from exactly one T row, and the (non-null) unique key
    recovers it, so the join is cardinality preserving. Only meaningful for
    non-aggregation views, where view rows are base-row images.
    """

    def __init__(self, record: ViewRecord, augmented: EquivalenceClasses):
        self.record = record
        self.augmented = augmented
        self.outputs: _ViewOutputs | None = None
        self.joined: dict[str, tuple[Expression, ...]] = {}

    def resolve(self, key: ColumnKey) -> ColumnRef | None:
        table_name, column = key
        if table_name not in self.record.tables:
            return None
        if table_name in self.joined:
            return ColumnRef(table_name, column)
        assert self.outputs is not None
        table = self.record.catalog.table(table_name)
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


def _equality_partitions(
    record: ViewRecord, augmented: EquivalenceClasses
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
    view class would meet the partitions in. A view class is a member
    mask of the record's (``classes``), or one column.
    """
    position = record.domain.position
    columns = record.domain.columns
    class_of: dict[int, int] = {}
    for _, mask in record.classes:
        rest = mask
        while rest:
            low = rest & -rest
            class_of[low.bit_length() - 1] = mask
            rest ^= low
    partitions: list[list[frozenset[ColumnKey]]] = []
    for query_class in dict.fromkeys(augmented.merged_classes().values()):
        view_masks = dict.fromkeys(
            class_of.get(column, 1 << column)
            for column in map(position.__getitem__, query_class)
        )
        if len(view_masks) > 1:
            partitions.append(
                sorted(
                    (frozenset(_class_keys(mask, columns)) for mask in view_masks),
                    key=sorted,
                )
            )
    return partitions


def _map_equality_partition(
    partition: list[frozenset[ColumnKey]],
    outputs: _ViewOutputs,
) -> list[Expression]:
    """Build the compensating equality chain for one query class.

    The paper's rule: these references may be rerouted within their *view*
    equivalence class only -- which is exactly "pick any member of the view
    class that is exposed as an output column".
    """
    references: list[Expression] = []
    for view_class in partition:
        exposed = next(
            (
                ColumnRef(outputs.view_name, name)
                for name in map(outputs.simple, sorted(view_class))
                if name is not None
            ),
            None,
        )
        if exposed is None and outputs.backjoins is not None:
            for member in sorted(view_class):
                exposed = outputs.backjoins.resolve(member)
                if exposed is not None:
                    break
        references.append(_mapped(exposed))
    return [
        BinaryOp("=", references[i], references[i + 1])
        for i in range(len(references) - 1)
    ]


def _range_items(
    range_predicates: tuple[RangePredicate, ...],
    or_ranges: tuple[OrRangePredicate, ...],
) -> list[tuple[ColumnKey, IntervalSet]]:
    """Each range-bearing conjunct as a ``(column, interval set)`` pair."""
    items = [
        (predicate.column, IntervalSet.of([predicate.interval()]))
        for predicate in range_predicates
    ]
    items.extend(
        (or_range.column, or_range.interval_set) for or_range in or_ranges
    )
    return items


def _interval_sets(
    items: list[tuple[ColumnKey, IntervalSet]], eqclasses: EquivalenceClasses
) -> dict[ColumnKey, IntervalSet]:
    """Per-class interval sets: plain bounds intersected with disjunctions."""
    sets: dict[ColumnKey, IntervalSet] = {}
    for column, interval_set in items:
        representative = eqclasses.find(column)
        current = sets.get(representative, UNBOUNDED_SET)
        sets[representative] = current.intersect(interval_set)
    return sets


def _range_compensations(
    query: SpjgDescription,
    record: ViewRecord,
    augmented: EquivalenceClasses,
) -> tuple[list[tuple[ColumnKey, str, object]], list[Expression]]:
    """Compensating range predicates, assuming containment already holds.

    Classes where neither side has a disjunctive range use the paper's
    bound-difference rule. Classes involving disjunctions are compensated
    by re-applying *all* of the query's range conjuncts on that class --
    sound (it reduces the view to exactly the query's range constraints)
    and simple, at the cost of occasionally re-checking a bound the view
    already enforces.
    """
    query_plain = derive_ranges(query.classified.range_predicates, augmented)
    view_plain: dict[ColumnKey, object] = {}
    for column, interval in record.plain_intervals():
        representative = augmented.find(column)
        view_plain[representative] = view_plain.get(
            representative, UNBOUNDED
        ).intersect(interval)
    columns = record.domain.columns
    or_representatives: set[ColumnKey] = {
        augmented.find(orr.column) for orr in query.or_ranges
    } | {
        augmented.find(columns[column])
        for column, _ in record.or_ranges
        if columns[column] in augmented
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
            _range_items(query.classified.range_predicates, query.or_ranges),
            augmented,
        )
        view_sets = _interval_sets(record.range_items(), augmented)
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
    return [
        SelectItem(
            _mapped(_map_expression(info.expression, eqclasses, outputs, options)),
            alias=info.item.alias,
        )
        for info in query.outputs
    ]


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
    group_by = tuple(
        _mapped(_map_expression(expr, eqclasses, outputs, options))
        for expr in query.statement.group_by
    )
    items = [
        SelectItem(
            _mapped(
                _map_aggregate_aware(
                    info.expression, eqclasses, outputs, options, _recompute_aggregate
                )
            ),
            alias=info.item.alias,
        )
        for info in query.outputs
    ]
    return items, group_by


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
    record: ViewRecord,
    eqclasses: EquivalenceClasses,
    outputs: _ViewOutputs,
    options: MatchOptions,
) -> tuple[list[SelectItem], tuple[Expression, ...]]:
    """An aggregation query over an aggregation view (Section 3.3).

    The query's grouping list is a subset of the view's (each query
    grouping expression matches a view grouping expression under the query
    equivalence classes). A strict subset needs a compensating group-by;
    aggregates roll up: count(*) becomes SUM(count_big), SUM(E) becomes
    SUM of the view's SUM column.
    """
    matched_view_groups: set[int] = set()
    for query_form in query.group_forms:
        for i, view_form in enumerate(record.groups):
            if view_form.matches(query_form, eqclasses):
                matched_view_groups.add(i)
    regroup = len(matched_view_groups) < len(record.groups)

    group_by: tuple[Expression, ...] = ()
    if regroup:
        group_by = tuple(
            _mapped(_map_expression(expr, eqclasses, outputs, options))
            for expr in query.statement.group_by
        )

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

    items = [
        SelectItem(
            _mapped(
                _map_aggregate_aware(
                    info.expression, eqclasses, outputs, options, rollup
                )
            ),
            alias=info.item.alias,
        )
        for info in query.outputs
    ]
    return items, group_by


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
