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
per-block AST walks, :meth:`restrict` replays only the block's local
conjuncts through the same assembly step ``analyze_statement`` uses, so a
derived block presents exactly what describing its statement from scratch
would (same tuples, same order -- the cardinality estimator multiplies
floats in that order), and :meth:`block_keys` / :meth:`requirements` give
the filter-tree probe its keys over the analysis's column numbering.

Equivalence classes start over a per-``(catalog, tables)`` column domain
that is built once and shared, instead of registering every column of
every referenced table on each description.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from ..errors import MatchError
from ..sql.expressions import (
    ColumnRef,
    Expression,
    FuncCall,
    Literal,
    conjunction,
)
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
from .ranges import as_range_predicate
from .residual import ShallowForm

if TYPE_CHECKING:
    from ..catalog.catalog import Catalog

__all__ = [
    "BlockKeys",
    "PredicateAnalysis",
    "QueryAnalysis",
    "analyze_statement",
    "bit_indices",
    "bit_masks",
    "column_domain",
    "intern_tables",
    "normalized_aggregate_template",
]

# Conjunct kinds, as classified by :func:`_classify`; an OR-range is a
# residual the probe treats as a range.
_EQUALITY, _RANGE, _RESIDUAL, _OR_RANGE = range(4)


class PredicateAnalysis:
    """Everything one sweep over the CNF conjuncts derives.

    ``merging_equalities`` are the equalities that merged two classes, in
    conjunct order: a redundant equality (its columns already equal)
    merges nothing, and the cardinality estimator charges a join
    selectivity only for a merge. It is ``classified.equalities`` itself
    when every equality merged.
    """

    __slots__ = (
        "classified",
        "eqclasses",
        "ranges",
        "or_ranges",
        "residual_forms",
        "merging_equalities",
    )

    def __init__(
        self,
        classified,
        eqclasses,
        ranges,
        or_ranges,
        residual_forms,
        merging_equalities,
    ):
        self.classified: ClassifiedPredicate = classified
        self.eqclasses: EquivalenceClasses = eqclasses
        self.ranges = ranges
        self.or_ranges: tuple[OrRangePredicate, ...] = or_ranges
        self.residual_forms: tuple[ShallowForm, ...] = residual_forms
        self.merging_equalities = merging_equalities


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


def _classify(conjunct: Expression) -> tuple:
    """One conjunct's ``(kind, payload)``, with everything derived from it.

    The payload is the column-key pair of an equality, the
    ``(RangePredicate, Interval)`` pair of a range, and for a residual the
    triple ``(canonical residual, OR-range or None, shallow form or
    None)`` -- exactly one of the last two is set.
    """
    equality = as_column_equality(conjunct)
    if equality is not None:
        return _EQUALITY, equality
    range_predicate = as_range_predicate(conjunct)
    if range_predicate is not None:
        return _RANGE, (range_predicate, range_predicate.interval())
    residual = _canonicalize_residual(conjunct)
    recognised = as_or_range(residual)
    form = ShallowForm.of(residual) if recognised is None else None
    return _RESIDUAL, (residual, recognised, form)


def _assemble(
    classified_conjuncts: Iterable[tuple], eqclasses: EquivalenceClasses
) -> PredicateAnalysis:
    """Fold classified conjuncts, in order, into a :class:`PredicateAnalysis`.

    Equality conjuncts merge ``eqclasses`` immediately; range intervals
    are intersected per class once every merge is known (the first range
    of a class is its interval as is -- intersecting it with the
    unbounded interval would only copy it).
    """
    equalities = []
    merging = []
    range_items = []
    residuals = []          # all canonicalized PU conjuncts (classification)
    or_ranges = []
    residual_forms = []
    for kind, payload in classified_conjuncts:
        if kind == _EQUALITY:
            a, b = payload
            if a not in eqclasses or b not in eqclasses:
                raise MatchError(f"equality on unbound column: {a} = {b}")
            if eqclasses.add_equality(a, b):
                merging.append(payload)
            equalities.append(payload)
        elif kind == _RANGE:
            range_items.append(payload)
        else:
            residual, recognised, form = payload
            residuals.append(residual)
            if recognised is None:
                residual_forms.append(form)
            elif not recognised.interval_set.is_unbounded:
                or_ranges.append(recognised)
            # else: a tautology, dropped from both derived lists
    ranges = {}
    find = eqclasses.find
    for predicate, interval in range_items:
        representative = find(predicate.column)
        current = ranges.get(representative)
        ranges[representative] = (
            interval if current is None else current.intersect(interval)
        )
    equalities = tuple(equalities)
    return PredicateAnalysis(
        classified=ClassifiedPredicate(
            equalities=equalities,
            range_predicates=tuple(predicate for predicate, _ in range_items),
            residuals=tuple(residuals),
        ),
        eqclasses=eqclasses,
        ranges=ranges,
        or_ranges=tuple(or_ranges),
        residual_forms=tuple(residual_forms),
        merging_equalities=(
            equalities if len(merging) == len(equalities) else tuple(merging)
        ),
    )


def bit_indices(mask: int) -> list[int]:
    """Positions of the set bits of ``mask``, ascending."""
    indices = []
    while mask:
        low = mask & -mask
        indices.append(low.bit_length() - 1)
        mask ^= low
    return indices


def bit_masks(mask: int) -> list[int]:
    """The set bits of ``mask`` as single-bit masks, ascending."""
    bits = []
    while mask:
        low = mask & -mask
        bits.append(low)
        mask ^= low
    return bits


def _backjoin_keys(table) -> list:
    """The unique keys a back-join may join a view to ``table`` on: the
    ones with no nullable column."""
    return [
        unique_key
        for unique_key in table.all_unique_keys()
        if not any(table.is_nullable(column) for column in unique_key)
    ]


def analyze_statement(
    statement: SelectStatement,
    tables: frozenset[str],
    catalog: "Catalog",
) -> PredicateAnalysis:
    """Analyze a statement's WHERE clause in a single conjunct sweep."""
    return _assemble(
        (_classify(conjunct) for conjunct in to_cnf(statement.where)),
        _seed_classes(catalog, tables),
    )


class BlockKeys:
    """One block's keys over its analysis's column numbering
    (:meth:`QueryAnalysis.block_keys`).

    For the filter-tree probe: ``components`` maps each column bit a
    local equality merged to the mask of its equivalence class (any other
    column is a class of its own); ``constrained_columns`` are the keys
    of every column in the class of a locally range-constrained column
    (plain ranges and bounded OR-ranges); ``residual_templates`` are the
    local residual templates. For the cardinality estimator, equal to the block's
    description: ``merging_equalities``, ``ranges`` (class representative
    -> interval, in range-predicate order) and ``residuals`` (the
    canonical residual conjuncts, in order).
    """

    __slots__ = (
        "components",
        "constrained_columns",
        "residual_templates",
        "merging_equalities",
        "ranges",
        "residuals",
    )

    def __init__(
        self, components, constrained, templates, merging, ranges, residuals
    ):
        self.components: dict[int, int] = components
        self.constrained_columns: tuple[ColumnKey, ...] = constrained
        self.residual_templates: tuple[str, ...] = templates
        self.merging_equalities: list[tuple[ColumnKey, ColumnKey]] = merging
        self.ranges: dict = ranges
        self.residuals: list[Expression] = residuals


class QueryAnalysis:
    """The request-scoped analysis of one bound SPJG query statement.

    Tables are numbered in name order and a *block* is a bitmask over
    them (``table_names[i]`` is bit ``i``); columns are numbered in key
    order (``columns[i]`` is bit ``i``), so enumerating a column mask from
    its lowest bit yields the sorted needed-column list of the block
    statement directly. The numbering covers every column the statement
    references, the first column of each table (what a block nothing
    refers to selects) and, with back-joins on, the columns of each
    table's back-join keys: every column a block's probe can name.
    """

    __slots__ = (
        "statement",
        "catalog",
        "options",
        "tables",
        "table_names",
        "conjuncts",
        "conjunct_masks",
        "conjunct_equalities",
        "columns",
        "column_keys",
        "_table_bits",
        "_table_refs",
        "_classified",
        "_conjunct_keys",
        "_column_bits",
        "_output_columns",
        "_conjunct_columns",
        "_table_columns",
        "_backjoin_columns",
        "_blocks",
        "_keys",
        "_forms",
        "probe_keys",
        "estimates",
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
        names = self.table_names = sorted(self.tables)
        table_bits = self._table_bits = {
            name: 1 << index for index, name in enumerate(names)
        }
        self._table_refs = [TableRef(name) for name in names]
        outside = 1 << len(names)  # a table no block contains
        self.conjuncts: tuple[Expression, ...] = to_cnf(statement.where)
        self._classified = [_classify(conjunct) for conjunct in self.conjuncts]
        #: Per conjunct, the ``(key, key)`` of a column equality, else None.
        self.conjunct_equalities: list[tuple[ColumnKey, ColumnKey] | None] = [
            payload if kind == _EQUALITY else None
            for kind, payload in self._classified
        ]

        # Column numbering needs every key first: collect the references
        # per site, then assign bits in key order.
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
        #: Per conjunct, the mask of its tables (0: it names none).
        self.conjunct_masks: list[int] = []
        conjunct_refs = []
        for conjunct in self.conjuncts:
            refs = conjunct.column_refs()
            mask = 0
            for ref in refs:
                if ref.table:
                    mask |= table_bits.get(ref.table, outside)
            self.conjunct_masks.append(mask)
            conjunct_refs.append(note(refs))
        backjoin_keys = {}
        for name in names:
            table = catalog.table(name)
            first = table.columns[0].name
            columns.setdefault((name, first), ColumnRef(name, first))
            if options.allow_backjoins:
                keys = backjoin_keys[name] = [
                    (name, column)
                    for unique_key in _backjoin_keys(table)
                    for column in unique_key
                ]
                for key in keys:
                    columns.setdefault(key, ColumnRef(*key))
        ordered = sorted(columns)
        self.columns: list[ColumnRef] = [columns[key] for key in ordered]
        self.column_keys: list[ColumnKey] = ordered
        column_bits = self._column_bits = {
            key: 1 << index for index, key in enumerate(ordered)
        }

        def columns_of(keys: Iterable[ColumnKey]) -> int:
            mask = 0
            for key in keys:
                mask |= column_bits[key]
            return mask

        self._output_columns = columns_of(output_keys)
        self._conjunct_columns = [columns_of(keys) for keys in conjunct_refs]
        table_columns = self._table_columns = [0] * len(names)
        for key, bit in column_bits.items():
            table_columns[table_bits[key[0]].bit_length() - 1] |= bit
        # Per column: the back-join key columns of its table (None: off).
        self._backjoin_columns = (
            {
                column_bits[key]: columns_of(backjoin_keys[key[0]])
                for key in ordered
            }
            if options.allow_backjoins
            else None
        )
        # Per conjunct, what it adds to a block's keys: ``(kind, key,
        # term)``. ``key`` is the probe's: the column bits of an equality,
        # the column bit of a range (``_RANGE``) or a bounded OR-range
        # (``_OR_RANGE``), a residual's template, ``None`` for an OR-range
        # tautology (kind ``None``). ``term`` is the estimator's: the
        # equality's key pair, the range's interval, else the canonical
        # residual.
        conjunct_keys = self._conjunct_keys = []
        for kind, payload in self._classified:
            if kind == _EQUALITY:
                a, b = payload
                key = (column_bits.get(a, 0), column_bits.get(b, 0))
                entry = kind, key, payload
            elif kind == _RANGE:
                predicate, interval = payload
                entry = kind, column_bits.get(predicate.column, 0), interval
            else:
                residual, recognised, form = payload
                if recognised is None:
                    entry = _RESIDUAL, form.template, residual
                elif recognised.interval_set.is_unbounded:
                    entry = None, None, residual
                else:
                    bit = column_bits.get(recognised.column, 0)
                    entry = _OR_RANGE, bit, residual
            conjunct_keys.append(entry)
        self._blocks: dict[int, tuple[list[int], int]] = {}
        self._keys: dict[int | None, BlockKeys] = {}
        self._forms: dict[Expression, ShallowForm] = {}
        # Per-request memos of the filter tree's probe compiler and the
        # cardinality estimator, each tagged with what it was built for.
        self.probe_keys = None
        self.estimates = None

    # -- blocks ---------------------------------------------------------------

    def mask_of(self, tables: Iterable[str]) -> int:
        """The block bitmask of a set of this statement's table names."""
        bits = self._table_bits
        mask = 0
        for table in tables:
            mask |= bits[table]
        return mask

    def block_tables(self, block: int) -> frozenset[str]:
        """The table set of ``block``, built in name order: the iteration
        order of describing the block statement, which the estimator
        multiplies row counts in."""
        names = self.table_names
        return frozenset([names[index] for index in bit_indices(block)])

    def _block(self, block: int) -> tuple[list[int], int]:
        """``(local conjuncts, needed columns)`` of ``block``, derived once
        per request (a block is described, probed and costed, and its
        statement built, from these).

        A conjunct is local when its tables all lie in the block. The
        needed columns are what the rest of the query requires of the
        block: the columns the output list or grouping reference, plus
        those of every conjunct that reaches outside the block. A block
        nothing refers to still needs one column to be a valid statement
        (pure cardinality contribution): the first column of its first
        table.
        """
        found = self._blocks.get(block)
        if found is None:
            local = []
            needed = self._output_columns
            for index, mask in enumerate(self.conjunct_masks):
                if mask & ~block:
                    needed |= self._conjunct_columns[index]
                elif mask:
                    local.append(index)
            own = 0
            for index in bit_indices(block):
                own |= self._table_columns[index]
            needed &= own
            if not needed:
                table = self.table_names[(block & -block).bit_length() - 1]
                needed = self._column_bits[
                    (table, self.catalog.table(table).columns[0].name)
                ]
            found = self._blocks[block] = (local, needed)
        return found

    def has_local(self, block: int) -> bool:
        """Whether any conjunct is local to ``block`` (its statement
        filters)."""
        return bool(self._block(block)[0])

    def local_ranges(self, block: int) -> list:
        """The ``RangePredicate`` of each range conjunct local to ``block``."""
        classified = self._classified
        return [
            classified[index][1][0]
            for index in self._block(block)[0]
            if classified[index][0] == _RANGE
        ]

    def needed_mask(self, block: int) -> int:
        """Column mask of the columns of ``block`` the rest of the query
        requires (see :meth:`_block`)."""
        return self._block(block)[1]

    def needed_columns(self, block: int) -> list[ColumnRef]:
        """Columns of ``block`` the rest of the query requires, in key order."""
        columns = self.columns
        return [columns[index] for index in bit_indices(self.needed_mask(block))]

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
                table_refs[index] for index in bit_indices(block)
            ),
            where=conjunction(
                [conjuncts[index] for index in self._block(block)[0]]
            ),
            group_by=group_by,
        )

    def restrict(
        self, block: int | None = None, tables: frozenset[str] | None = None
    ) -> PredicateAnalysis:
        """The predicate analysis of ``block`` (``None``: the whole
        statement, constant conjuncts included), equal to analyzing its
        statement from scratch. ``tables`` passes the block's table set
        when the caller already has it."""
        classified = self._classified
        if block is None:
            local = classified
            if tables is None:
                tables = frozenset(self.tables)
        else:
            local = [classified[index] for index in self._block(block)[0]]
            if tables is None:
                tables = self.block_tables(block)
        return _assemble(local, _seed_classes(self.catalog, tables))

    # -- probe keys -------------------------------------------------------------

    def block_keys(self, block: int | None) -> "BlockKeys":
        """What the filter-tree probe and the cardinality estimator need
        of ``block`` (``None``: the whole statement), from one pass over
        its local conjuncts on this analysis's column numbering; derived
        once per request.

        Equalities are replayed through a union-find on column bits that
        makes exactly the merges, and picks exactly the roots, that
        :class:`~repro.core.equivalence.EquivalenceClasses` does on the
        same conjuncts: the merging equalities and the per-root range
        intervals equal those :meth:`restrict` derives, without building
        the block's equivalence classes.
        """
        found = self._keys.get(block)
        if found is not None:
            return found
        keys = self._conjunct_keys
        # Merged columns only; a root maps to itself. Union by rank keeps
        # the chains to a root a step or two long.
        parent: dict[int, int] = {}
        rank: dict[int, int] = {}
        classes: dict[int, int] = {}  # root -> class mask
        merging = []
        range_items = []
        residuals = []
        ranged = 0
        templates = []
        for index in (
            range(len(keys)) if block is None else self._block(block)[0]
        ):
            kind, key, term = keys[index]
            if kind == _EQUALITY:
                root_a, root_b = key
                while root_a in parent and parent[root_a] != root_a:
                    root_a = parent[root_a]
                while root_b in parent and parent[root_b] != root_b:
                    root_b = parent[root_b]
                if root_a != root_b:
                    rank_a, rank_b = rank.get(root_a, 0), rank.get(root_b, 0)
                    if rank_a < rank_b:
                        root_a, root_b = root_b, root_a
                    parent[root_a] = root_a
                    parent[root_b] = root_a
                    rank.pop(root_b, None)
                    if rank_a == rank_b:
                        rank[root_a] = rank_a + 1
                    classes[root_a] = classes.get(root_a, root_a) | classes.pop(
                        root_b, root_b
                    )
                    merging.append(term)
            elif kind == _RANGE:
                ranged |= key
                range_items.append((key, term))
            elif kind == _OR_RANGE:
                ranged |= key
                residuals.append(term)
            else:
                if kind == _RESIDUAL:
                    templates.append(key)
                residuals.append(term)
        components: dict[int, int] = {}
        for cls in classes.values():
            for bit in bit_masks(cls):
                components[bit] = cls
        constrained = 0
        for bit in bit_masks(ranged):
            constrained |= components.get(bit, bit)
        column_keys = self.column_keys
        constrained_columns = tuple(
            [column_keys[index] for index in bit_indices(constrained)]
        )
        ranges = {}
        for root, interval in range_items:
            while root in parent and parent[root] != root:
                root = parent[root]
            representative = column_keys[root.bit_length() - 1]
            current = ranges.get(representative)
            ranges[representative] = (
                interval if current is None else current.intersect(interval)
            )
        found = self._keys[block] = BlockKeys(
            components,
            constrained_columns,
            tuple(templates),
            merging,
            ranges,
            residuals,
        )
        return found

    def backjoin_columns(self, column: int) -> int:
        """The back-join key columns of ``column``'s table (0 with
        back-joins off): exposing any of them lets a view supply the
        column through a back-join."""
        widening = self._backjoin_columns
        return 0 if widening is None else widening[column]

    def column_bit(self, key: ColumnKey) -> int:
        """The bit of a numbered column."""
        return self._column_bits[key]

    def requirements(
        self, expressions: Iterable[Expression]
    ) -> tuple[list[tuple[tuple[str, ...], tuple[int, ...]]], frozenset[str]]:
        """What the output items ``expressions`` require of a view.

        Returns the ``(templates, column bits)`` pair of every item, in
        item order (a column listed once, where it first occurs: a repeat
        requires nothing new), and the normalized templates of every aggregate call
        met (what an aggregation view must output). An item is available
        when the view exposes one of the templates, or a column of every
        listed column's class. A column needs its class; an aggregate
        (but ``count(*)``, which needs nothing) its normalized templates,
        its argument's template or its argument's columns; an expression
        around aggregates what its parts need; any other non-constant
        expression its template or its columns.
        """
        column_bits = self._column_bits
        found: list[tuple[tuple[str, ...], tuple[int, ...]]] = []
        aggregates: set[str] = set()
        columns = 0  # listed column items: a repeat adds nothing
        # Depth-first over an explicit stack (a nested function calling
        # itself would be a reference cycle through its closure cell).
        pending = list(expressions)
        pending.reverse()
        while pending:
            expression = pending.pop()
            if isinstance(expression, ColumnRef):
                bit = column_bits[expression.key]
                if not bit & columns:
                    columns |= bit
                    found.append(((), (bit,)))
            elif isinstance(expression, FuncCall) and expression.is_aggregate():
                if expression.star:
                    aggregates.add("count_big(*)")
                    continue
                argument = expression.args[0]
                form = self.form(argument)
                normalized = normalized_aggregate_template(expression, form)
                aggregates.update(normalized)
                found.append(
                    (
                        (*normalized, form.template),
                        tuple(
                            column_bits[ref.key]
                            for ref in argument.column_refs()
                        ),
                    )
                )
            elif expression.contains_aggregate():
                pending.extend(reversed(expression.children()))
            elif not isinstance(expression, Literal):
                found.append(
                    (
                        (self.form(expression).template,),
                        tuple(
                            column_bits[ref.key]
                            for ref in expression.column_refs()
                        ),
                    )
                )
        return found, frozenset(aggregates)

    def form(self, expression: Expression) -> ShallowForm:
        """``ShallowForm.of(expression)``, computed once per request."""
        form = self._forms.get(expression)
        if form is None:
            form = self._forms[expression] = ShallowForm.shared(
                expression, self.catalog
            )
        return form
