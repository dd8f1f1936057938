"""SPJG descriptions: the precomputed normal form of queries and views.

The paper keeps "in memory a description of every materialized view
[containing] all information needed to apply the tests" (Section 4). This
module builds that description for views at registration time and for query
expressions at match time: the PE/PR/PU predicate classification, column
equivalence classes, per-class range intervals, residual-predicate shallow
forms, output/grouping metadata, and the derived key sets the filter tree
indexes on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..errors import MatchError, UnsupportedSqlError
from ..sql.expressions import (
    ColumnRef,
    Expression,
    FuncCall,
    Literal,
)
from ..sql.statements import SelectItem, SelectStatement
from .analyze import QueryAnalysis, analyze_statement
from .equivalence import ColumnKey
from .intervalsets import OrRangePredicate
from .normalize import ClassifiedPredicate
from .options import DEFAULT_OPTIONS, MatchOptions
from .ranges import Interval
from .residual import ShallowForm

if TYPE_CHECKING:
    from ..catalog.catalog import Catalog


@dataclass(frozen=True)
class OutputInfo:
    """One select-list item with its precomputed matching metadata."""

    item: SelectItem
    position: int
    form: ShallowForm

    @property
    def expression(self) -> Expression:
        return self.item.expression

    @property
    def name(self) -> str | None:
        return self.item.name

    @property
    def is_simple_column(self) -> bool:
        return isinstance(self.item.expression, ColumnRef)

    @property
    def is_constant(self) -> bool:
        return isinstance(self.item.expression, Literal)

    @property
    def contains_aggregate(self) -> bool:
        return self.item.expression.contains_aggregate()


def normalized_aggregate_template(
    call: FuncCall, form: ShallowForm | None = None
) -> tuple[str, ...]:
    """Canonical template strings an aggregate call requires of a view.

    COUNT and COUNT_BIG are interchangeable for matching, so both normalize
    to ``count_big``; AVG expands to the SUM and COUNT_BIG it is computed
    from. The returned tuple lists every view output template the call needs.
    ``form`` passes a precomputed shallow form of the argument so callers
    that already derived it avoid a second derivation.
    """
    if call.star:
        return ("count_big(*)",)
    argument_template = (form or ShallowForm.of(call.args[0])).template
    if call.name == "sum":
        return (f"sum({argument_template})",)
    if call.name in ("count", "count_big"):
        return (f"count_big({argument_template})",)
    if call.name == "avg":
        return (f"sum({argument_template})", "count_big(*)")
    raise MatchError(f"unsupported aggregate {call.name}")


class _lazy:
    """``functools.cached_property`` without its lock.

    Before Python 3.12 ``cached_property`` serializes first accesses
    through one lock per *property*, shared by every instance: a pool
    worker forked while another thread computes the property of any
    description inherits that lock held and blocks forever on its own
    first access. Descriptions are immutable and these computations
    idempotent, so racing readers need no lock.
    """

    def __init__(self, compute) -> None:
        self.compute = compute
        self.__doc__ = compute.__doc__

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.compute(instance)
        return value


class SpjgDescription:
    """Precomputed matching metadata for one SPJG statement.

    The same class describes queries and views; ``name`` is the view name
    for registered views and ``None`` for query expressions. All predicate
    metadata describes the *SPJ part* (the WHERE clause); grouping and
    output metadata describe the full statement.
    """

    def __init__(
        self,
        statement: SelectStatement,
        catalog: "Catalog",
        name: str | None = None,
        options: MatchOptions = DEFAULT_OPTIONS,
        analysis: QueryAnalysis | None = None,
        block: int | None = None,
    ) -> None:
        """Describe ``statement``, from scratch or from its request's analysis.

        With ``analysis`` (see :func:`describe_block`), ``statement`` is
        the analysed statement itself (``block`` ``None``) or the
        statement of ``block``: the predicate metadata is then the
        analysis restricted to the block and shallow forms come from the
        analysis's per-request memo, instead of one fused sweep over the
        CNF conjuncts (see :mod:`repro.core.analyze`) and a fresh form
        per output. Output metadata is derived on first use: a block the
        filter tree finds no candidate for never needs it.
        """
        self.statement = statement
        self.catalog = catalog
        self.name = name
        self.options = options
        self.tables: frozenset[str] = frozenset(statement.table_names())
        if not self.tables:
            raise UnsupportedSqlError("statement references no tables")
        if analysis is None:
            predicates = analyze_statement(
                statement, self.tables, catalog, options
            )
        else:
            predicates = analysis.restrict(block)
        self._analysis = analysis
        self.classified: ClassifiedPredicate = predicates.classified
        self.eqclasses = predicates.eqclasses
        self.ranges: dict[ColumnKey, Interval] = predicates.ranges
        self.or_ranges: tuple[OrRangePredicate, ...] = predicates.or_ranges
        self.residual_forms: tuple[ShallowForm, ...] = predicates.residual_forms
        self.is_aggregate = statement.is_aggregate
        # Memoized derived key sets. Descriptions are immutable after
        # construction and these back every probe compilation and filter
        # tree registration touching this description; writes are
        # idempotent, so concurrent readers race benignly.
        self._extended_output_columns: frozenset[ColumnKey] | None = None
        self._extended_grouping_columns: frozenset[ColumnKey] | None = None
        self._range_constrained_classes: tuple[frozenset[ColumnKey], ...] | None = None
        self._extended_range_constrained: frozenset[ColumnKey] | None = None
        self._reduced_range_constrained: frozenset[ColumnKey] | None = None
        self._output_templates: frozenset[str] | None = None
        self._residual_templates: frozenset[str] | None = None
        self._aggregate_templates: frozenset[str] | None = None

    # -- output metadata -------------------------------------------------------

    def shallow_form(self, expression: Expression) -> ShallowForm:
        """The shallow form of one of the statement's expressions (from
        the request analysis's memo when the description has one)."""
        if self._analysis is not None:
            return self._analysis.form(expression)
        return ShallowForm.shared(expression, self.catalog)

    @_lazy
    def outputs(self) -> tuple[OutputInfo, ...]:
        """Every select-list item with its matching metadata."""
        return tuple(
            OutputInfo(
                item=item, position=i, form=self.shallow_form(item.expression)
            )
            for i, item in enumerate(self.statement.select_items)
        )

    @_lazy
    def group_forms(self) -> tuple[ShallowForm, ...]:
        """Shallow forms of the grouping expressions, in order."""
        return tuple(
            self.shallow_form(expr) for expr in self.statement.group_by
        )

    @_lazy
    def simple_output_map(self) -> dict[ColumnKey, str]:
        """Output name per directly-exposed column (first exposure wins).

        Cached: descriptions are immutable after construction and this
        map backs every output-mapping step of the matcher.
        """
        mapping: dict[ColumnKey, str] = {}
        for info in self.outputs:
            expr = info.expression
            if isinstance(expr, ColumnRef) and info.name is not None:
                mapping.setdefault(expr.key, info.name)
        return mapping

    @_lazy
    def expression_outputs(self) -> tuple[OutputInfo, ...]:
        """Non-simple, non-constant output items (expressions, aggregates)."""
        return tuple(
            info
            for info in self.outputs
            if not info.is_simple_column and not info.is_constant
        )

    def extended_output_columns(self) -> frozenset[ColumnKey]:
        """The paper's extended output list (Section 4.2.3).

        Every column equivalent (under *this* statement's classes) to a
        directly-exposed output column. Memoized (one ``class_map`` lookup
        per output column instead of a per-call class rescan).
        """
        cached = self._extended_output_columns
        if cached is None:
            class_map = self.eqclasses.class_map()
            members: set[ColumnKey] = set()
            for key in self.simple_output_map:
                members.update(class_map[key])
            cached = self._extended_output_columns = frozenset(members)
        return cached

    def output_templates(self) -> frozenset[str]:
        """Templates of non-simple outputs, with aggregates normalized."""
        cached = self._output_templates
        if cached is None:
            templates: set[str] = set()
            for info in self.expression_outputs:
                expr = info.expression
                if isinstance(expr, FuncCall) and expr.is_aggregate():
                    templates.update(normalized_aggregate_template(expr))
                else:
                    templates.add(info.form.template)
            cached = self._output_templates = frozenset(templates)
        return cached

    def residual_templates(self) -> frozenset[str]:
        cached = self._residual_templates
        if cached is None:
            cached = self._residual_templates = frozenset(
                form.template for form in self.residual_forms
            )
        return cached

    def aggregate_templates(self) -> frozenset[str]:
        """Normalized templates of every aggregate call in the output list.

        The query-side counterpart of :meth:`output_templates`: the
        aggregation subtree's output-expression level probes with these.
        """
        cached = self._aggregate_templates
        if cached is None:
            templates: set[str] = set()
            for call in self.statement.aggregate_outputs():
                templates.update(normalized_aggregate_template(call))
            cached = self._aggregate_templates = frozenset(templates)
        return cached

    # -- grouping metadata -------------------------------------------------------

    @property
    def simple_grouping_columns(self) -> frozenset[ColumnKey]:
        return frozenset(
            expr.key
            for expr in self.statement.group_by
            if isinstance(expr, ColumnRef)
        )

    def extended_grouping_columns(self) -> frozenset[ColumnKey]:
        """Extended grouping list (Section 4.2.4), mirroring output columns."""
        cached = self._extended_grouping_columns
        if cached is None:
            class_map = self.eqclasses.class_map()
            members: set[ColumnKey] = set()
            for key in self.simple_grouping_columns:
                members.update(class_map[key])
            cached = self._extended_grouping_columns = frozenset(members)
        return cached

    def grouping_templates(self) -> frozenset[str]:
        """Templates of non-simple grouping expressions."""
        return frozenset(
            form.template
            for form, expr in zip(self.group_forms, self.statement.group_by)
            if not isinstance(expr, ColumnRef)
        )

    # -- range metadata -------------------------------------------------------

    def _constrained_representatives(self) -> set[ColumnKey]:
        representatives = set(self.ranges)
        for or_range in self.or_ranges:
            representatives.add(self.eqclasses.find(or_range.column))
        return representatives

    def range_constrained_classes(self) -> tuple[frozenset[ColumnKey], ...]:
        """The equivalence classes that carry at least one range bound.

        Disjunctive ranges (the OR extension) count as range constraints
        too: their presence in a view demands a corresponding constraint in
        the query just like a plain bound does.
        """
        cached = self._range_constrained_classes
        if cached is None:
            class_map = self.eqclasses.class_map()
            cached = self._range_constrained_classes = tuple(
                class_map[rep]
                for rep in sorted(self._constrained_representatives())
            )
        return cached

    def extended_range_constrained_columns(self) -> frozenset[ColumnKey]:
        """All columns equivalent to some range-constrained column."""
        cached = self._extended_range_constrained
        if cached is None:
            members: set[ColumnKey] = set()
            for cls in self.range_constrained_classes():
                members.update(cls)
            cached = self._extended_range_constrained = frozenset(members)
        return cached

    def reduced_range_constrained_columns(self) -> frozenset[ColumnKey]:
        """Range-constrained columns in *trivial* classes (Section 4.2.5)."""
        cached = self._reduced_range_constrained
        if cached is None:
            class_map = self.eqclasses.class_map()
            cached = self._reduced_range_constrained = frozenset(
                rep
                for rep in self._constrained_representatives()
                if len(class_map[rep]) == 1
            )
        return cached

    # -- misc -------------------------------------------------------------------

    def columns_with_predicates(self) -> frozenset[ColumnKey]:
        """Columns referenced by any range or residual predicate.

        Used by the hub refinement of Section 4.2.2: a table stays in the
        hub when one of these columns belongs to a trivial class.
        """
        columns: set[ColumnKey] = {rp.column for rp in self.classified.range_predicates}
        for or_range in self.or_ranges:
            columns.add(or_range.column)
        for form in self.residual_forms:
            for ref in form.refs:
                columns.add(ref.key)
        return frozenset(columns)

    def __repr__(self) -> str:
        kind = "view" if self.name else "query"
        return f"<SpjgDescription {kind} {self.name or ''} tables={sorted(self.tables)}>"


def describe(
    statement: SelectStatement,
    catalog: "Catalog",
    name: str | None = None,
    options: MatchOptions = DEFAULT_OPTIONS,
) -> SpjgDescription:
    """Build the description of a bound SPJG statement."""
    return SpjgDescription(statement, catalog, name=name, options=options)


def describe_block(
    analysis: QueryAnalysis,
    block: int | None = None,
    select_items: tuple[SelectItem, ...] | None = None,
    group_by: tuple[Expression, ...] = (),
) -> SpjgDescription:
    """Describe one block of an analysed query without re-analysing it.

    ``block`` is a table bitmask of the analysis (``None``: the analysed
    statement itself). The block's statement -- its tables in name order
    under its local conjuncts, selecting ``select_items`` (default: the
    columns the rest of the query needs from it) grouped by ``group_by``
    -- is built here and is the result's ``statement``; the description
    equals ``describe`` of that statement under the analysis's options.
    """
    if block is None:
        statement = analysis.statement
    else:
        statement = analysis.block_statement(block, select_items, group_by)
    return SpjgDescription(
        statement,
        analysis.catalog,
        options=analysis.options,
        analysis=analysis,
        block=block,
    )


def validate_view_description(description: SpjgDescription) -> None:
    """Enforce the indexable-view rules of Section 2.

    * every output expression must carry a name,
    * no DISTINCT,
    * an aggregation view must output every grouping expression and a
      ``count_big(*)`` column, and its only aggregates are SUM and
      COUNT_BIG over non-nullable-safe expressions.
    """
    statement = description.statement
    if statement.distinct:
        raise MatchError("indexable views cannot use DISTINCT")
    for info in description.outputs:
        if info.name is None:
            raise MatchError(
                f"view output #{info.position + 1} needs a name (use AS)"
            )
    if not description.is_aggregate:
        for info in description.outputs:
            if info.contains_aggregate:
                raise MatchError("aggregate output in a non-grouping view")
        return
    # Aggregation view checks.
    grouping_expressions = set(statement.group_by)
    has_count_big = False
    for info in description.outputs:
        expr = info.expression
        if isinstance(expr, FuncCall) and expr.is_aggregate():
            if expr.name == "count_big" and expr.star:
                has_count_big = True
                continue
            if expr.name == "sum":
                continue
            raise MatchError(
                f"aggregation views allow only SUM and COUNT_BIG(*), got {expr.name}"
            )
        # Non-aggregate outputs must be grouping expressions.
        if expr not in grouping_expressions:
            raise MatchError(
                f"view output {expr} is neither an aggregate nor a grouping expression"
            )
    if not has_count_big:
        raise MatchError("aggregation views must output count_big(*)")
    # Every grouping expression must be an output (it forms the unique key).
    output_exprs = {info.expression for info in description.outputs}
    for expr in statement.group_by:
        if expr not in output_exprs:
            raise MatchError(f"grouping expression {expr} missing from output list")
