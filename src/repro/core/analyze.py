"""Predicate analysis: one sweep per statement, one analysis per request.

Describing a statement classifies every CNF conjunct of its WHERE clause
(PE column equality / PR range / PU residual), merges equivalence classes,
intersects per-class range intervals, recognises OR-range residuals and
computes residual shallow forms. :func:`analyze_statement` does all of it
in **one sweep over the conjuncts**; views are described that way at
registration.

A query is different: the optimizer fires the view-matching rule on every
connected sub-block of the statement, and every sub-block's predicate is a
*restriction* of the statement's -- the conjuncts whose tables all lie in
the block. :class:`QueryAnalysis` therefore classifies the statement's
conjuncts once per request and derives each block from table bitmasks:
:meth:`QueryAnalysis.needed_columns` / :meth:`block_statement` replace the
per-block AST walks, and :meth:`restrict` replays only the block's local
conjuncts through the same assembly step ``analyze_statement`` uses, so a
derived block presents exactly what describing its statement from scratch
would (same tuples, same order -- the cardinality estimator multiplies
floats in that order).

Equivalence classes start over a per-``(catalog, tables)`` column domain
that is built once and shared, instead of registering every column of
every referenced table on each description.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from ..errors import MatchError
from ..sql.expressions import ColumnRef, Expression, conjunction
from ..sql.statements import SelectItem, SelectStatement, TableRef
from .equivalence import ColumnDomain, ColumnKey, EquivalenceClasses
from .intervalsets import OrRangePredicate, as_or_range
from .normalize import (
    ClassifiedPredicate,
    _canonicalize_residual,
    as_column_equality,
    to_cnf,
)
from .options import DEFAULT_OPTIONS, MatchOptions
from .ranges import as_range_predicate, derive_ranges
from .residual import ShallowForm

if TYPE_CHECKING:
    from ..catalog.catalog import Catalog

__all__ = [
    "PredicateAnalysis",
    "QueryAnalysis",
    "analyze_statement",
    "column_domain",
    "intern_tables",
]

# Conjunct kinds, as classified by :func:`_classify`.
_EQUALITY, _RANGE, _RESIDUAL = range(3)


class PredicateAnalysis:
    """Everything one sweep over the CNF conjuncts derives."""

    __slots__ = ("classified", "eqclasses", "ranges", "or_ranges", "residual_forms")

    def __init__(self, classified, eqclasses, ranges, or_ranges, residual_forms):
        self.classified: ClassifiedPredicate = classified
        self.eqclasses: EquivalenceClasses = eqclasses
        self.ranges = ranges
        self.or_ranges: tuple[OrRangePredicate, ...] = or_ranges
        self.residual_forms: tuple[ShallowForm, ...] = residual_forms


def column_domain(catalog: "Catalog", tables: frozenset[str]) -> ColumnDomain:
    """The catalog's one column domain of the table set ``tables``.

    Every column of every table in the set, tables in name order, so the
    domain does not depend on which statement asked for the set first.
    Built once per distinct table set and shared by every description over
    it.
    """
    domains = getattr(catalog, "_column_domains", None)
    if domains is None:
        domains = catalog._column_domains = {}
    domain = domains.get(tables)
    if domain is None:
        domain = domains.setdefault(
            tables,
            ColumnDomain(
                (table, column)
                for table in sorted(tables)
                for column in catalog.table(table).column_names
            ),
        )
    return domain


def intern_tables(catalog: "Catalog", tables: frozenset[str]) -> frozenset[str]:
    """The catalog's shared frozenset equal to ``tables`` *and iterating in
    the same order*.

    Registered views keep their table set and hub, and a schema has few
    distinct ones. Equality alone is not enough to share them: a set's
    iteration order depends on how it was built, and the estimator
    multiplies per-table row counts in that order.
    """
    interned = getattr(catalog, "_table_sets", None)
    if interned is None:
        interned = catalog._table_sets = {}
    return interned.setdefault(tuple(tables), tables)


def _seed_classes(
    catalog: "Catalog", tables: frozenset[str]
) -> EquivalenceClasses:
    """Fresh equivalence classes with every referenced column registered:
    trivial classes over the table set's shared domain."""
    return EquivalenceClasses(domain=column_domain(catalog, tables))


def _classify(conjunct: Expression, support_or_ranges: bool) -> tuple:
    """One conjunct's ``(kind, payload)``, with everything derived from it.

    The payload is the column-key pair of an equality, the
    :class:`RangePredicate` of a range, and for a residual the triple
    ``(canonical residual, OR-range or None, shallow form or None)`` --
    exactly one of the last two is set.
    """
    equality = as_column_equality(conjunct)
    if equality is not None:
        return _EQUALITY, equality
    range_predicate = as_range_predicate(conjunct)
    if range_predicate is not None:
        return _RANGE, range_predicate
    residual = _canonicalize_residual(conjunct)
    recognised = as_or_range(residual) if support_or_ranges else None
    form = ShallowForm.of(residual) if recognised is None else None
    return _RESIDUAL, (residual, recognised, form)


def _assemble(
    classified_conjuncts: Iterable[tuple], eqclasses: EquivalenceClasses
) -> PredicateAnalysis:
    """Fold classified conjuncts, in order, into a :class:`PredicateAnalysis`.

    Equality conjuncts merge ``eqclasses`` immediately; range intervals
    are intersected per class once every merge is known.
    """
    equalities = []
    range_predicates = []
    residuals = []          # all canonicalized PU conjuncts (classification)
    or_ranges = []
    residual_forms = []
    for kind, payload in classified_conjuncts:
        if kind == _EQUALITY:
            a, b = payload
            if a not in eqclasses or b not in eqclasses:
                raise MatchError(f"equality on unbound column: {a} = {b}")
            eqclasses.add_equality(a, b)
            equalities.append(payload)
        elif kind == _RANGE:
            range_predicates.append(payload)
        else:
            residual, recognised, form = payload
            residuals.append(residual)
            if recognised is None:
                residual_forms.append(form)
            elif not recognised.interval_set.is_unbounded:
                or_ranges.append(recognised)
            # else: a tautology, dropped from both derived lists
    classified = ClassifiedPredicate(
        equalities=tuple(equalities),
        range_predicates=tuple(range_predicates),
        residuals=tuple(residuals),
    )
    return PredicateAnalysis(
        classified=classified,
        eqclasses=eqclasses,
        ranges=derive_ranges(classified.range_predicates, eqclasses),
        or_ranges=tuple(or_ranges),
        residual_forms=tuple(residual_forms),
    )


def _bit_indices(mask: int) -> list[int]:
    """Positions of the set bits of ``mask``, ascending."""
    indices = []
    while mask:
        low = mask & -mask
        indices.append(low.bit_length() - 1)
        mask ^= low
    return indices


def analyze_statement(
    statement: SelectStatement,
    tables: frozenset[str],
    catalog: "Catalog",
    options: MatchOptions,
) -> PredicateAnalysis:
    """Analyze a statement's WHERE clause in a single conjunct sweep."""
    support_or_ranges = options.support_or_ranges
    return _assemble(
        (
            _classify(conjunct, support_or_ranges)
            for conjunct in to_cnf(statement.where)
        ),
        _seed_classes(catalog, tables),
    )


class QueryAnalysis:
    """The request-scoped analysis of one bound SPJG query statement.

    Tables are numbered in name order and a *block* is a bitmask over
    them; columns the statement references are numbered in key order, so
    enumerating a column mask from its lowest bit yields the sorted
    needed-column list of the block statement directly.
    """

    __slots__ = (
        "statement",
        "catalog",
        "options",
        "tables",
        "conjuncts",
        "conjunct_tables",
        "_table_names",
        "_table_bits",
        "_table_refs",
        "_conjunct_masks",
        "_classified",
        "_columns",
        "_output_columns",
        "_conjunct_columns",
        "_table_columns",
        "_forms",
        "probe_masks",
    )

    def __init__(
        self,
        statement: SelectStatement,
        catalog: "Catalog",
        options: MatchOptions = DEFAULT_OPTIONS,
    ) -> None:
        self.statement = statement
        self.catalog = catalog
        self.options = options
        self.tables: tuple[str, ...] = statement.table_names()
        names = sorted(self.tables)
        self._table_names = names
        table_bits = self._table_bits = {
            name: 1 << index for index, name in enumerate(names)
        }
        self._table_refs = [TableRef(name) for name in names]
        outside = 1 << len(names)  # a table no block contains
        self.conjuncts: tuple[Expression, ...] = to_cnf(statement.where)
        support_or_ranges = options.support_or_ranges
        self._classified = [
            _classify(conjunct, support_or_ranges)
            for conjunct in self.conjuncts
        ]

        # Column numbering needs every referenced key first: collect the
        # references per site, then assign bits in key order.
        columns: dict[ColumnKey, ColumnRef] = {}

        def note(refs: Iterable[ColumnRef]) -> list[ColumnKey]:
            keys = []
            for ref in refs:
                if ref.table in table_bits:
                    columns.setdefault(ref.key, ref)
                    keys.append(ref.key)
            return keys

        output_keys: list[ColumnKey] = []
        for expression in statement.output_expressions() + statement.group_by:
            output_keys += note(expression.column_refs())
        self.conjunct_tables: list[frozenset[str]] = []
        self._conjunct_masks: list[int] = []
        conjunct_keys = []
        for conjunct in self.conjuncts:
            refs = conjunct.column_refs()
            tables = frozenset(ref.table for ref in refs if ref.table)
            self.conjunct_tables.append(tables)
            mask = 0
            for table in tables:
                mask |= table_bits.get(table, outside)
            self._conjunct_masks.append(mask)
            conjunct_keys.append(note(refs))
        ordered = sorted(columns)
        self._columns = [columns[key] for key in ordered]
        column_bits = {key: 1 << index for index, key in enumerate(ordered)}

        def columns_of(keys: list[ColumnKey]) -> int:
            mask = 0
            for key in keys:
                mask |= column_bits[key]
            return mask

        self._output_columns = columns_of(output_keys)
        self._conjunct_columns = [columns_of(keys) for keys in conjunct_keys]
        self._table_columns = [
            columns_of([key for key in ordered if key[0] == name])
            for name in names
        ]
        self._forms: dict[Expression, ShallowForm] = {}
        # ``(interner, {column class: mask})``: the filter tree's probe
        # compiler keeps its per-request class masks here.
        self.probe_masks = None

    # -- blocks ---------------------------------------------------------------

    def mask_of(self, tables: Iterable[str]) -> int:
        """The block bitmask of a set of this statement's table names."""
        bits = self._table_bits
        mask = 0
        for table in tables:
            mask |= bits[table]
        return mask

    def _local(self, block: int) -> list[int]:
        """Indices of the conjuncts whose tables all lie in ``block``."""
        return [
            index
            for index, mask in enumerate(self._conjunct_masks)
            if mask and not (mask & ~block)
        ]

    def _needed(self, block: int) -> int:
        """Column mask of what the rest of the query requires of ``block``:
        the columns the output list or grouping reference, plus those of
        every conjunct that reaches outside the block."""
        needed = self._output_columns
        for mask, columns in zip(self._conjunct_masks, self._conjunct_columns):
            if mask & ~block:
                needed |= columns
        own = 0
        for index in _bit_indices(block):
            own |= self._table_columns[index]
        return needed & own

    def _filler_column(self, block: int) -> ColumnRef:
        """A block nothing refers to still needs one column to be a valid
        statement (pure cardinality contribution): the first column of
        its first table."""
        table = self._table_names[(block & -block).bit_length() - 1]
        return ColumnRef(table, self.catalog.table(table).column_names[0])

    def needed_columns(self, block: int) -> list[ColumnRef]:
        """Columns of ``block`` the rest of the query requires, in key order."""
        needed = self._needed(block)
        if not needed:
            return [self._filler_column(block)]
        columns = self._columns
        return [columns[index] for index in _bit_indices(needed)]

    def block_statement(
        self,
        block: int,
        select_items: tuple[SelectItem, ...] | None = None,
        group_by: tuple[Expression, ...] = (),
    ) -> SelectStatement:
        """The statement of ``block``: its tables in name order under its
        local conjuncts, selecting ``select_items`` (default: the needed
        columns) grouped by ``group_by``."""
        if select_items is None:
            select_items = tuple(
                SelectItem(ref) for ref in self.needed_columns(block)
            )
        conjuncts = self.conjuncts
        table_refs = self._table_refs
        return SelectStatement(
            select_items=select_items,
            from_tables=tuple(
                table_refs[index] for index in _bit_indices(block)
            ),
            where=conjunction(
                [conjuncts[index] for index in self._local(block)]
            ),
            group_by=group_by,
        )

    def restrict(self, block: int | None = None) -> PredicateAnalysis:
        """The predicate analysis of ``block`` (``None``: the whole
        statement, constant conjuncts included), equal to analyzing its
        statement from scratch."""
        classified = self._classified
        if block is None:
            tables = frozenset(self.tables)
            local = classified
        else:
            names = self._table_names
            tables = frozenset(names[index] for index in _bit_indices(block))
            local = [classified[index] for index in self._local(block)]
        return _assemble(local, _seed_classes(self.catalog, tables))

    def form(self, expression: Expression) -> ShallowForm:
        """``ShallowForm.of(expression)``, computed once per request."""
        form = self._forms.get(expression)
        if form is None:
            form = self._forms[expression] = ShallowForm.shared(
                expression, self.catalog
            )
        return form
