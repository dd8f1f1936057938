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
from .analyze import (
    QueryAnalysis,
    analyze_statement,
    intern_tables,
    normalized_aggregate_template,
)
from .equivalence import ColumnKey
from .intervalsets import OrRangePredicate
from .normalize import ClassifiedPredicate
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


# Predicate metadata, all derived together (:meth:`QueryAnalysis.restrict`).
_PREDICATE_SLOTS = frozenset(
    (
        "classified",
        "eqclasses",
        "ranges",
        "or_ranges",
        "residual_forms",
        "merging_equalities",
    )
)


class SpjgDescription:
    """Precomputed matching metadata for one SPJG statement.

    The same class describes queries and views; ``name`` is the view name
    for registered views and ``None`` for query expressions. All predicate
    metadata describes the *SPJ part* (the WHERE clause); grouping and
    output metadata describe the full statement.

    Output metadata is derived on first read (:meth:`__getattr__`):

    * ``outputs`` -- every select-list item with its matching metadata;
    * ``group_forms`` -- shallow forms of the grouping expressions, in order;
    * ``simple_output_map`` -- output name per directly-exposed column
      (first exposure wins);
    * ``expression_outputs`` -- non-simple, non-constant output items
      (expressions, aggregates).

    A description of one block of a request (:func:`describe_block`)
    derives ``statement`` and its predicate metadata on first read too:
    its tables, probe keys and cardinality terms come from the request's
    analysis, and only a block that becomes a plan node or has a
    candidate verified needs the rest.
    """

    # Many descriptions live at once (one per block of a request, one per
    # view while it registers): slots, not an instance dict. ``_side`` is
    # the matcher's query-side memo (``None`` until first computed).
    __slots__ = (
        "statement",
        "catalog",
        "name",
        "tables",
        "_analysis",
        "_block",
        "classified",
        "eqclasses",
        "ranges",
        "or_ranges",
        "residual_forms",
        "merging_equalities",
        "is_aggregate",
        "outputs",
        "group_forms",
        "simple_output_map",
        "expression_outputs",
        "_side",
    )

    def __init__(
        self,
        statement: SelectStatement,
        catalog: "Catalog",
        name: str | None = None,
    ) -> None:
        """Describe ``statement`` from scratch: one fused sweep over its
        CNF conjuncts (see :mod:`repro.core.analyze`)."""
        self.statement = statement
        self.catalog = catalog
        self.name = name
        tables = frozenset(statement.table_names())
        if not tables:
            raise UnsupportedSqlError("statement references no tables")
        self.tables: frozenset[str] = intern_tables(catalog, tables)
        self._analysis = None
        self._block = None
        self._set_predicates(
            analyze_statement(statement, self.tables, catalog)
        )
        self.is_aggregate = statement.is_aggregate
        self._side = None

    @classmethod
    def of_block(
        cls,
        analysis: QueryAnalysis,
        block: int | None = None,
        select_items: tuple[SelectItem, ...] | None = None,
        group_by: tuple[Expression, ...] = (),
    ) -> "SpjgDescription":
        """Describe one block of an analysed query (see :func:`describe_block`)."""
        description = cls.__new__(cls)
        description.catalog = analysis.catalog
        description.name = None
        description._analysis = analysis
        description._side = None
        if block is None:
            statement = description.statement = analysis.statement
            tables = frozenset(statement.table_names())
            if not tables:
                raise UnsupportedSqlError("statement references no tables")
            description.tables = intern_tables(analysis.catalog, tables)
            description._block = None
            description.is_aggregate = statement.is_aggregate
            description._set_predicates(
                analysis.restrict(None, description.tables)
            )
            analysis.block_keys(None)
            return description
        # The statement and the predicates are derived on first read: a
        # block the filter tree finds no candidate for is costed and
        # probed from its block keys alone.
        analysis.block_keys(block)
        description.tables = analysis.block_tables(block)
        description._block = (block, select_items, group_by)
        description.is_aggregate = select_items is not None and (
            bool(group_by)
            or any(item.expression.contains_aggregate() for item in select_items)
        )
        return description

    def _set_predicates(self, predicates) -> None:
        self.classified: ClassifiedPredicate = predicates.classified
        self.eqclasses = predicates.eqclasses
        self.ranges: dict[ColumnKey, Interval] = predicates.ranges
        self.or_ranges: tuple[OrRangePredicate, ...] = predicates.or_ranges
        self.residual_forms: tuple[ShallowForm, ...] = predicates.residual_forms
        self.merging_equalities = predicates.merging_equalities

    # -- output metadata -------------------------------------------------------

    def __getattr__(self, name: str):
        """Derive an output-metadata slot on its first read.

        Only an unset slot (or an unknown name) reaches here; afterwards
        the slot answers at plain attribute speed. Slot ``x`` is derived by
        ``_derive_x``. No lock (``functools.cached_property`` before Python
        3.12 shares one per property across instances, and a pool worker
        forked while another thread held it blocked forever): descriptions
        are immutable and the derivations idempotent, so racing readers
        agree.
        """
        if name in _PREDICATE_SLOTS and self._block is not None:
            self._set_predicates(
                self._analysis.restrict(self._block[0], self.tables)
            )
            return getattr(self, name)
        derive = getattr(SpjgDescription, f"_derive_{name}", None)
        if derive is None:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            )
        value = derive(self)
        setattr(self, name, value)
        return value

    @property
    def analysis(self) -> QueryAnalysis | None:
        """The request analysis this description was derived from, if any."""
        return self._analysis

    @property
    def block(self) -> tuple | None:
        """``(mask, select_items, group_by)`` of a block derived from its
        request's analysis (``select_items`` ``None``: the columns the
        rest of the query needs); ``None`` for the analysed statement
        itself and for a description made from scratch."""
        return self._block

    def _derive_statement(self) -> SelectStatement:
        return self._analysis.block_statement(*self._block)

    def output_expressions(self) -> tuple[Expression, ...]:
        """The select-list expressions, in order; a block of a request
        answers without building its statement."""
        block = self._block
        if block is None:
            return self.statement.output_expressions()
        mask, select_items, _ = block
        if select_items is None:
            return tuple(self._analysis.needed_columns(mask))
        return tuple(item.expression for item in select_items)

    def group_by_expressions(self) -> tuple[Expression, ...]:
        """The grouping expressions, in order (see :meth:`output_expressions`)."""
        block = self._block
        return self.statement.group_by if block is None else block[2]

    def cardinality_terms(self) -> tuple:
        """``(merging equalities, ranges, residual conjuncts)``: what the
        cardinality estimator multiplies, in its order. A block of a
        request answers from its request's block keys, without deriving
        its predicates."""
        block = self._block
        if block is not None:
            keys = self._analysis.block_keys(block[0])
            return keys.merging_equalities, keys.ranges, keys.residuals
        return self.merging_equalities, self.ranges, self.classified.residuals

    def shallow_form(self, expression: Expression) -> ShallowForm:
        """The shallow form of one of the statement's expressions (from
        the request analysis's memo when the description has one)."""
        if self._analysis is not None:
            return self._analysis.form(expression)
        return ShallowForm.shared(expression, self.catalog)

    def _derive_outputs(self) -> tuple[OutputInfo, ...]:
        return tuple(
            OutputInfo(
                item=item, position=i, form=self.shallow_form(item.expression)
            )
            for i, item in enumerate(self.statement.select_items)
        )

    def _derive_group_forms(self) -> tuple[ShallowForm, ...]:
        return tuple(
            self.shallow_form(expr) for expr in self.statement.group_by
        )

    def _derive_simple_output_map(self) -> dict[ColumnKey, str]:
        mapping: dict[ColumnKey, str] = {}
        for info in self.outputs:
            expr = info.expression
            if isinstance(expr, ColumnRef) and info.name is not None:
                mapping.setdefault(expr.key, info.name)
        return mapping

    def _derive_expression_outputs(self) -> tuple[OutputInfo, ...]:
        return tuple(
            info
            for info in self.outputs
            if not info.is_simple_column and not info.is_constant
        )

    # The key sets below are computed per call, not kept: a view's are read
    # once, when the filter tree registers it, and a query's once per probe.

    def extended_output_columns(self) -> frozenset[ColumnKey]:
        """The paper's extended output list (Section 4.2.3).

        Every column equivalent (under *this* statement's classes) to a
        directly-exposed output column.
        """
        class_of = self.eqclasses.class_of
        members: set[ColumnKey] = set()
        for key in self.simple_output_map:
            members.update(class_of(key))
        return frozenset(members)

    def output_templates(self) -> frozenset[str]:
        """Templates of non-simple outputs, with aggregates normalized."""
        templates: set[str] = set()
        for info in self.expression_outputs:
            expr = info.expression
            if isinstance(expr, FuncCall) and expr.is_aggregate():
                templates.update(normalized_aggregate_template(expr))
            else:
                templates.add(info.form.template)
        return frozenset(templates)

    def residual_templates(self) -> frozenset[str]:
        return frozenset(form.template for form in self.residual_forms)

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
        class_of = self.eqclasses.class_of
        members: set[ColumnKey] = set()
        for key in self.simple_grouping_columns:
            members.update(class_of(key))
        return frozenset(members)

    def grouping_templates(self) -> frozenset[str]:
        """Templates of non-simple grouping expressions."""
        return frozenset(
            form.template
            for form, expr in zip(self.group_forms, self.statement.group_by)
            if not isinstance(expr, ColumnRef)
        )

    # -- range metadata -------------------------------------------------------

    def range_constrained_classes(self) -> tuple[frozenset[ColumnKey], ...]:
        """The equivalence classes that carry at least one range bound.

        Disjunctive ranges (OR / IN) count as range constraints too:
        their presence in a view demands a corresponding constraint in
        the query just like a plain bound does.
        """
        representatives = set(self.ranges)
        for or_range in self.or_ranges:
            representatives.add(self.eqclasses.find(or_range.column))
        class_of = self.eqclasses.class_of
        return tuple(class_of(rep) for rep in sorted(representatives))

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
) -> SpjgDescription:
    """Build the description of a bound SPJG statement."""
    return SpjgDescription(statement, catalog, name=name)


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
    -- is built on the result's first read of ``statement``; the
    description equals ``describe`` of that statement.
    """
    return SpjgDescription.of_block(analysis, block, select_items, group_by)


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
