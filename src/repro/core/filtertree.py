"""The filter tree (Section 4 of the paper), as one packed sweep.

The paper's filter tree partitions the registered views level by level,
one condition per level, with a lattice index per node. The conditions
"are independent and can be composed in any order", and each is a pure
filter, so the partition search equals the flat conjunction of the
levels: :class:`FilterTree` evaluates it as one columnar sweep per
subtree (:class:`_PackedSubtree`) over the views' packed rows. The
level-by-level lattice walk is kept in the test suite as the sweep's
oracle.

The tree is split at the top into an SPJ subtree and an aggregation-view
subtree (the paper's "two additional levels for aggregation views"); an
SPJ query searches only the SPJ subtree, an aggregation query searches
both.

Level order (paper Section 4.3): hubs, source tables, output expressions,
output columns, residual predicates, range constraints, then -- aggregation
subtree only -- grouping expressions and grouping columns.

One deliberate deviation, recorded in DESIGN.md: the output-column and
grouping-column levels use heterogeneous keys containing both the extended
column lists *and* the expression templates of the view, so that an output
computable either from exposed source columns or from a matching
pre-computed expression column is never filtered out. The paper's plain
textual output-expression condition is conservative on exactly this point
("we ignore the possibility of computing an expression from scratch");
keeping the level complete lets the test suite assert that the filter tree
never prunes a view the matcher would accept.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, Iterable

from ..obs.trace import current_tracer
from ..sql.expressions import ColumnRef, Literal
from .analyze import QueryAnalysis, bit_indices, bit_masks
from ..sql.printer import statement_to_sql
from ..sql.statements import SelectStatement
from .describe import SpjgDescription, describe
from .equivalence import ColumnKey
from .fkgraph import hub_over
from .interning import KeyInterner, PackedBitsetTable
from .intervalsets import as_or_range
from .matching import ViewRecord, _dedupe
from .normalize import classify_predicate
from .parts import shared_parts
from .residual import ShallowForm

if TYPE_CHECKING:
    from ..catalog.catalog import Catalog

#: A key: a frozenset of tagged atoms (tables, columns, templates).
Key = frozenset

# The text of a numeric literal the tokenizer reads back as that number.
_PLAIN_NUMBER = re.compile(r"[0-9]+(?:\.[0-9]+)?")

# Key-element tags: keys are frozensets mixing tables, columns and templates.
_TABLE = "t"
_COLUMN = "c"
_TEMPLATE = "x"


def _tables_key(tables: Iterable[str]) -> Key:
    return frozenset((_TABLE, t) for t in tables)


def _columns_key(columns: Iterable[ColumnKey]) -> Key:
    return frozenset((_COLUMN, *c) for c in columns)


def _templates_key(templates: Iterable[str]) -> Key:
    return frozenset((_TEMPLATE, t) for t in templates)


class RegisteredView:
    """What a registered view keeps: it is its record.

    ``record`` is what the matcher's decision, the optimizer's pricing
    and the winners' substitute builds read of the view
    (:class:`~repro.core.matching.ViewRecord`, which also holds its
    extent estimate); ``hub`` is its Section 4.2.2 hub, ``row`` the keys
    of its packed filter-tree row (:func:`packed_row`), and ``sql`` the
    text it was registered from (:meth:`definition`). All are compiled
    once at registration and ride along through snapshot rebuilds. No
    description, parsed statement or output list is kept:
    :attr:`description` re-derives one from ``sql`` on every read, for
    the few readers off the request path.
    """

    __slots__ = ("hub", "record", "row", "sql")

    def __init__(
        self,
        hub: frozenset[str],
        record: ViewRecord,
        row: tuple,
        sql: str | SelectStatement,
    ) -> None:
        self.hub = hub
        self.record = record
        self.row = row
        self.sql = sql

    @classmethod
    def of(
        cls,
        description: SpjgDescription,
        interner: KeyInterner,
        sql: str | None = None,
        batch: dict | None = None,
    ) -> "RegisteredView":
        """Compile a described view: hub, record, the packed row under
        ``interner`` and, unless given, its text. Views compiled with one
        ``batch`` dict share the equal parts of their records and rows
        (:meth:`ViewRecord.of`)."""
        if description.name is None:
            raise ValueError("only named views can be registered")
        record = ViewRecord.of(description, batch)
        return cls(
            hub_over(description, list(record.fk_edges)),
            record,
            packed_row(description, interner, batch),
            cls.definition(description.statement) if sql is None else sql,
        )

    @staticmethod
    def definition(statement: SelectStatement) -> str | SelectStatement:
        """What a view registered as a bound statement keeps to re-derive
        it from: its text (``statement_to_sql``), which binds back to an
        equal statement -- unless a numeric literal renders as something
        else than one number token (a negative one reads back as a unary
        minus, which is not a range bound), when it keeps the statement.
        """
        for expression in statement.expressions():
            for node in expression.walk():
                if (
                    type(node) is Literal
                    and type(node.value) in (int, float)
                    and _PLAIN_NUMBER.fullmatch(str(node.value)) is None
                ):
                    return statement
        return statement_to_sql(statement)

    @property
    def name(self) -> str:
        return self.record.name

    @property
    def description(self) -> SpjgDescription:
        """The view's description, re-derived from its text (uncached)."""
        record = self.record
        catalog = record.catalog
        sql = self.sql
        return describe(
            catalog.bind_sql(sql) if type(sql) is str else sql,
            catalog,
            name=record.name,
        )

    def __repr__(self) -> str:
        return f"<RegisteredView {self.name}>"


def packed_row(
    description: SpjgDescription, interner: KeyInterner, batch: dict | None = None
) -> tuple:
    """The keys of a view's packed filter-tree row.

    ``(residual templates, range-constrained classes, output templates,
    grouping templates, output-column key mask, grouping-column key mask,
    interner)``: plain values for the levels a subtree fuses over its own
    atoms (the two template sets ``None`` for an SPJ view) and masks
    under ``interner`` for the two per-item requirement levels. Their
    keys are heterogeneous (see the module docstring): the view's
    extended output (grouping) columns and its output (grouping)
    templates. Interning writes: callers serialize it. Rows compiled with
    one ``batch`` share their equal values.
    """
    if batch is None:
        batch = {}
    aggregate = description.is_aggregate
    output_templates = description.output_templates()
    output_key = _columns_key(description.extended_output_columns()) | (
        _templates_key(output_templates)
    )
    if aggregate:
        grouping_templates = description.grouping_templates()
        grouping_key = _columns_key(description.extended_grouping_columns()) | (
            _templates_key(grouping_templates)
        )
    return (
        _dedupe(batch, description.residual_templates()),
        _dedupe(batch, description.range_constrained_classes()),
        _dedupe(batch, output_templates) if aggregate else None,
        _dedupe(batch, grouping_templates) if aggregate else None,
        _dedupe(batch, interner.mask(output_key)),
        _dedupe(batch, interner.mask(grouping_key)) if aggregate else 0,
        interner,
    )


def _requirements_satisfied_bits(
    pairs: tuple[tuple[int, tuple[int, ...]], ...], key_bits: int
) -> bool:
    """True when every bound requirement holds against ``key_bits``."""
    for templates_mask, group_masks in pairs:
        if templates_mask & key_bits:
            continue
        if not group_masks:
            return False
        for mask in group_masks:
            if not (mask & key_bits):
                return False
    return True


def _split_requirements(requirements: tuple) -> tuple[tuple[int, ...], tuple]:
    """``(column_masks, rest)``: requirements as the survivor loop tests them.

    A requirement with no template bits and one column group -- every
    plain column output -- holds iff the view key intersects that group,
    so those collapse to the distinct group masks, tested inline; the
    rest keep the :func:`_requirements_satisfied_bits` form. Together
    they hold exactly when every requirement does.
    """
    column_masks: dict[int, None] = {}
    rest = []
    for templates_mask, group_masks in requirements:
        if not templates_mask and len(group_masks) == 1:
            column_masks[group_masks[0]] = None
        else:
            rest.append((templates_mask, group_masks))
    return tuple(column_masks), tuple(rest)


# ---------------------------------------------------------------------------
# Check-constraint probe keys
# ---------------------------------------------------------------------------


def _catalog_check_keys(
    catalog: "Catalog",
) -> tuple[tuple[ColumnKey, ...], tuple[str, ...]]:
    """Probe keys derived from the catalog's check constraints:
    ``(range-constrained columns, residual templates)``.

    Check constraints strengthen the antecedent, so a view predicate may be
    implied by a check constraint alone; the probe must then include the
    check-derived keys or the filter would prune views the matcher accepts.
    Constraints of *every* catalog table are included because a view's extra
    tables need not appear in the query. Derived once per catalog table set
    (:meth:`SharedParts.checks`), so a table added later is seen by the
    next request; both are empty when no table declares a check.
    """

    def build() -> tuple[tuple[ColumnKey, ...], tuple[str, ...]]:
        constrained: set[ColumnKey] = set()
        templates: set[str] = set()
        for table in catalog.tables():
            for check in table.check_constraints:
                classified = classify_predicate(check.predicate)
                for rp in classified.range_predicates:
                    constrained.add(rp.column)
                for conjunct in classified.residuals:
                    recognised = as_or_range(conjunct)
                    if recognised is not None:
                        constrained.add(recognised.column)
                    else:
                        templates.add(ShallowForm.of(conjunct).template)
        return tuple(constrained), tuple(templates)

    return shared_parts(catalog).checks(tuple(catalog._tables), build)


# ---------------------------------------------------------------------------
# Levels
# ---------------------------------------------------------------------------

# The paper's level conditions by name, in Section 4.3 order. The packed
# subtrees fuse them into one sweep; :meth:`_PackedSubtree.level_survivors`
# evaluates them one by one, in this order, for attribution.
SPJ_LEVELS: tuple[str, ...] = (
    "hub",
    "source-tables",
    "output-columns",
    "residual",
    "range-constraints",
)

AGGREGATE_LEVELS: tuple[str, ...] = (
    "hub",
    "source-tables",
    "output-expressions",
    "output-columns",
    "residual",
    "range-constraints",
    "grouping-expressions",
    "grouping-columns",
)


# ---------------------------------------------------------------------------
# The packed flat layout
# ---------------------------------------------------------------------------

class _RequestKeys:
    """One request's query-side atoms, bound to one interner.

    Built on the request's first probe and kept on its analysis
    (``QueryAnalysis.probe_keys``): the interned bit of every numbered
    column, and per-request memos of the interned mask of a column set
    (an equivalence class, widened by back-join keys when those are on)
    and of a template tuple -- the blocks of one request repeat the same
    classes. ``size`` is the interner's size at build time: an atom
    interned since (a registration) makes the keys stale and they are
    rebuilt, so a description probed before a registration stays exact
    after it. A concurrent registration only adds atoms no view of the
    request's snapshot carries, so keys built either side of it agree
    on that snapshot. ``checks`` are the catalog's check-constraint keys
    (:func:`_catalog_check_keys`), read once per request.
    """

    __slots__ = (
        "interner",
        "size",
        "column_bits",
        "groups",
        "templates",
        "checks",
    )

    def __init__(self, analysis: QueryAnalysis, interner: KeyInterner) -> None:
        known_bit = interner.known_bit
        self.interner = interner
        self.size = len(interner)
        self.checks = _catalog_check_keys(analysis.catalog)
        self.column_bits = [
            known_bit((_COLUMN, *ref.key)) for ref in analysis.columns
        ]
        self.groups: dict[int, int] = {}
        self.templates: dict[tuple[str, ...], int] = {}

    @classmethod
    def of(cls, analysis: QueryAnalysis, interner: KeyInterner) -> "_RequestKeys":
        keys = analysis.probe_keys
        if (
            keys is None
            or keys.interner is not interner
            or keys.size != len(interner)
        ):
            keys = analysis.probe_keys = cls(analysis, interner)
        return keys

    def group(self, columns: int) -> int:
        """The interned mask of a set of the analysis's columns."""
        mask = self.groups.get(columns)
        if mask is None:
            mask = 0
            column_bits = self.column_bits
            for index in bit_indices(columns):
                mask |= column_bits[index]
            self.groups[columns] = mask
        return mask

    def template_mask(self, templates: tuple[str, ...]) -> int:
        """The interned mask of ``templates`` (unknown ones dropped)."""
        mask = self.templates.get(templates)
        if mask is None:
            known_bit = self.interner.known_bit
            mask = 0
            for template in templates:
                mask |= known_bit((_TEMPLATE, template))
            self.templates[templates] = mask
        return mask


class _PackedProbe:
    """A query's search keys as the packed subtrees consume them.

    Derived from the request's :class:`QueryAnalysis` and the block's
    table mask, with no walk over the block's expressions: plain key
    values (table names, templates, column keys) for the fused mask
    levels, which each subtree looks up in its own atom dictionaries, and
    interned ``(templates_mask, group_masks)`` pairs for the two per-item
    requirement levels (``output_check`` holds the output pairs split for
    the survivor loop, :func:`_split_requirements`). A group mask is the
    interned column class of the block-local equality components
    (:meth:`QueryAnalysis.block_keys`); an SPJ block's outputs are its
    needed columns, so its requirements are one group per needed column.
    Atoms the interner has never seen are dropped from the masks, which
    is exact: every atom of a registered key is interned, so an unknown
    one never witnesses an intersection. Check-constraint keys
    (:func:`_catalog_check_keys`) widen the residual and range levels.
    Back-join keys widen the output requirements when the request's
    analysis was made with ``allow_backjoins``. A description made from
    scratch is probed through an analysis of its statement under the
    default options, so every probe takes this one path.
    """

    __slots__ = (
        "tables",
        "residual_templates",
        "constrained_columns",
        "aggregate_templates",
        "grouping_templates",
        "output_check",
        "grouping_requirements",
        "_outputs",
    )

    def __init__(self, query: SpjgDescription, interner: KeyInterner) -> None:
        analysis = query.analysis
        if analysis is None:
            analysis = QueryAnalysis(query.statement, query.catalog)
        block = query.block
        if block is None:
            mask = None
            items = analysis.statement.select_items
            group_by = analysis.statement.group_by
        else:
            mask, items, group_by = block
        block_keys = analysis.block_keys(mask)
        components = block_keys.components
        residual_templates = block_keys.residual_templates
        constrained_columns = block_keys.constrained_columns
        keys = _RequestKeys.of(analysis, interner)
        check_columns, check_templates = keys.checks
        if check_templates:
            residual_templates += check_templates
        if check_columns:
            constrained_columns += check_columns
        self.tables = query.tables
        self.residual_templates = residual_templates
        self.constrained_columns = constrained_columns

        widening = (
            analysis.backjoin_columns if analysis.options.allow_backjoins else None
        )
        if items is None:  # an SPJ block selects the columns others need
            self._outputs = (
                analysis.needed_mask(mask), components, keys, widening
            )
            self.aggregate_templates = self.grouping_templates = frozenset()
            self.grouping_requirements = ()
            return
        self._outputs = None
        template_mask = keys.template_mask
        available = _availability(components, keys, widening)
        requirements, aggregate_templates = analysis.requirements(
            [item.expression for item in items] + list(group_by)
        )
        self.output_check = _split_requirements(
            [
                (
                    template_mask(item_templates) if item_templates else 0,
                    tuple(map(available, item_columns)),
                )
                for item_templates, item_columns in requirements
            ]
        )
        if query.is_aggregate:
            self.aggregate_templates = aggregate_templates
            classes = _availability(components, keys, None)
            grouping_templates = set()
            grouping = []
            for expression in group_by:
                if isinstance(expression, ColumnRef):
                    column = analysis.column_bit(expression.key)
                    grouping.append((0, (classes(column),)))
                else:
                    template = analysis.form(expression).template
                    grouping_templates.add(template)
                    grouping.append((template_mask((template,)), ()))
            self.grouping_templates = frozenset(grouping_templates)
            self.grouping_requirements = tuple(grouping)
        else:  # the aggregate subtree is not searched
            self.aggregate_templates = self.grouping_templates = frozenset()
            self.grouping_requirements = ()

    def __getattr__(self, name: str):
        """Group an SPJ block's needed columns on the first read of
        ``output_check``: about half the blocks of a request sweep no
        survivor, and never need them."""
        if name != "output_check" or self._outputs is None:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            )
        needed, components, keys, widening = self._outputs
        available = _availability(components, keys, widening)
        check = self.output_check = (
            tuple(dict.fromkeys(map(available, bit_masks(needed)))),
            (),
        )
        return check


def _availability(
    components: dict[int, int],
    keys: _RequestKeys,
    widening,
):
    """``available(bit)``: the interned group of view columns that make
    column ``bit`` available -- its class under ``components``, widened
    by the classes of its table's back-join key columns when
    ``widening`` (``QueryAnalysis.backjoin_columns``) is given."""
    column_bits = keys.column_bits
    memo = keys.groups
    group = keys.group
    if widening is None:

        def available(bit: int) -> int:
            classes = components.get(bit)
            if classes is None:
                return column_bits[bit.bit_length() - 1]
            found = memo.get(classes)
            return group(classes) if found is None else found

    else:

        def available(bit: int) -> int:
            classes = components.get(bit, bit)
            for key_bit in bit_masks(widening(bit)):
                classes |= components.get(key_bit, key_bit)
            found = memo.get(classes)
            return group(classes) if found is None else found

    return available


class _PackedSubtree:
    """One subtree's level conditions, fused into a single columnar sweep.

    The decomposition: a view survives the tree search iff it satisfies
    every level's condition (each level is a pure filter, so the paper's
    recursive partition search equals the flat conjunction). The mask-only levels --
    hub (subset), source tables (superset), residual templates (subset),
    range-constraint classes, and on the aggregate subtree output and
    grouping expressions (superset) -- compile into one
    :class:`PackedBitsetTable` row per view over *locally* allocated atom
    bits, so one ``(row ^ flip) & query == 0`` sweep answers all of them
    for the whole catalog at once. Atoms are schema-bounded (tables,
    templates, distinct constraint classes), so rows stay one or two
    words wide however many views are registered.

    Sense encoding: subset-level atoms contribute ``universe & ~probe``
    to the query (a row fails if it carries an atom the probe lacks);
    superset-level atoms are allocated flip=True and contribute the
    probe's atoms (a row fails if it lacks one). A superset-level probe
    atom absent from the local dictionary means no view here carries it,
    so the subtree returns empty. The range level reduces to subset form
    per query: each distinct constraint class is one atom, a class passes
    iff it holds a range-constrained query column (a column -> class-bits
    index, filled at ``add``, turns the probe's columns into the passing
    atoms), and a view passes iff its class atoms avoid every failing
    class.

    Atoms are keyed by plain values per level (table names, templates,
    classes of column keys): the dictionaries are per level, so no tags
    are needed here.

    The two per-item requirement levels (output columns, grouping
    columns) do not fuse into fixed-width masks; they are evaluated only
    on sweep survivors (plain column outputs inline, the rest via
    :func:`_requirements_satisfied_bits`) against per-view interned key
    masks kept in parallel arrays -- survivors are
    a tiny fraction of the catalog, so this stage stays off the
    per-view-python-loop hot path.
    """

    __slots__ = (
        "interner",
        "aggregate",
        "table",
        "_views",
        "_row_of",
        "_output_bits",
        "_grouping_bits",
        "_hub_atoms",
        "_hub_universe",
        "_tables_atoms",
        "_residual_atoms",
        "_residual_universe",
        "_range_atoms",
        "_range_universe",
        "_range_columns",
        "_outexpr_atoms",
        "_groupexpr_atoms",
    )

    def __init__(self, interner: KeyInterner, aggregate: bool) -> None:
        self.interner = interner
        self.aggregate = aggregate
        self.table = PackedBitsetTable()
        self._views: list[RegisteredView] = []
        self._row_of: dict[str, int] = {}
        # Interned (global) masks of the requirement-level keys, parallel
        # to the table's rows; consumed per-survivor only.
        self._output_bits: list[int] = []
        self._grouping_bits: list[int] = []
        # Per-level local atom dictionaries: element -> single-bit mask in
        # the fused table. Universes (OR of every allocated bit of a
        # subset-sense level) drive the "no atom outside the probe" query
        # construction; stale bits left by removals are harmless (no
        # remaining row carries them).
        self._hub_atoms: dict = {}
        self._hub_universe = 0
        self._tables_atoms: dict = {}
        self._residual_atoms: dict = {}
        self._residual_universe = 0
        self._range_atoms: dict = {}
        self._range_universe = 0
        # column key -> bits of the constraint classes containing it
        self._range_columns: dict[ColumnKey, int] = {}
        self._outexpr_atoms: dict = {}
        self._groupexpr_atoms: dict = {}

    def __len__(self) -> int:
        return len(self._views)

    # -- maintenance (registration side) --------------------------------------

    def _union(self, atoms: dict, elements: Iterable, flip: bool) -> int:
        mask = 0
        table = self.table
        for element in elements:
            bit = atoms.get(element)
            if bit is None:
                bit = table.alloc_bit(flip)
                atoms[element] = bit
            mask |= bit
        return mask

    def add(self, view: RegisteredView, row: tuple) -> None:
        """Append ``view`` under its :func:`packed_row` keys ``row``
        (interned under this subtree's interner)."""
        (
            residual_templates,
            range_classes,
            output_templates,
            grouping_templates,
            output_bits,
            grouping_bits,
            _,
        ) = row
        mask = self._union(self._hub_atoms, view.hub, False)
        self._hub_universe |= mask
        row_mask = mask
        row_mask |= self._union(self._tables_atoms, view.record.tables, True)
        mask = self._union(self._residual_atoms, residual_templates, False)
        self._residual_universe |= mask
        row_mask |= mask
        range_atoms = self._range_atoms
        range_columns = self._range_columns
        for cls in range_classes:
            bit = range_atoms.get(cls)
            if bit is None:
                bit = range_atoms[cls] = self.table.alloc_bit(False)
                self._range_universe |= bit
                for column in cls:
                    range_columns[column] = range_columns.get(column, 0) | bit
            row_mask |= bit
        if self.aggregate:
            row_mask |= self._union(self._outexpr_atoms, output_templates, True)
            row_mask |= self._union(
                self._groupexpr_atoms, grouping_templates, True
            )
            self._grouping_bits.append(grouping_bits)
        self._output_bits.append(output_bits)
        self._views.append(view)
        self._row_of[view.name] = self.table.append(row_mask)

    def remove(self, view: RegisteredView) -> None:
        row = self._row_of.pop(view.name)
        self.table.pop(row)
        views = self._views
        last = len(views) - 1
        if row != last:
            moved = views[last]
            views[row] = moved
            self._output_bits[row] = self._output_bits[last]
            if self.aggregate:
                self._grouping_bits[row] = self._grouping_bits[last]
            self._row_of[moved.name] = row
        views.pop()
        self._output_bits.pop()
        if self.aggregate:
            self._grouping_bits.pop()

    # -- searching (query side, read-only) -------------------------------------

    def collect(
        self, probe: _PackedProbe, out: "list[RegisteredView]"
    ) -> None:
        """Append every view passing all of this subtree's levels.

        Builds the fused query vector from the probe's keys -- superset
        levels contribute the probe's atoms (one unknown here proves the
        result empty), subset levels the allocated atoms the probe lacks
        (an atom unknown here appears in no stored row, so it cannot
        forbid) -- sweeps once, and tests the per-item requirement levels
        on the survivors.
        """
        views = self._views
        if not views:
            return
        tables_atoms = self._tables_atoms
        hub_atoms = self._hub_atoms
        query = allowed = 0
        for table in probe.tables:
            bit = tables_atoms.get(table)
            if bit is None:
                return
            query |= bit
            allowed |= hub_atoms.get(table, 0)
        if self.aggregate:
            for atoms, templates in (
                (self._outexpr_atoms, probe.aggregate_templates),
                (self._groupexpr_atoms, probe.grouping_templates),
            ):
                for template in templates:
                    bit = atoms.get(template)
                    if bit is None:
                        return
                    query |= bit
        query |= self._hub_universe & ~allowed
        residual_atoms = self._residual_atoms
        allowed = 0
        for template in probe.residual_templates:
            allowed |= residual_atoms.get(template, 0)
        query |= self._residual_universe & ~allowed
        range_columns = self._range_columns
        allowed = 0
        for column in probe.constrained_columns:
            allowed |= range_columns.get(column, 0)
        query |= self._range_universe & ~allowed
        table = self.table
        rows = table.sweep(table.prepare(query))
        if not rows:
            return
        column_masks, other_requirements = probe.output_check
        grouping_requirements = (
            probe.grouping_requirements if self.aggregate else ()
        )
        output_bits = self._output_bits
        grouping_bits = self._grouping_bits
        for row in rows:
            bits = output_bits[row]
            for mask in column_masks:
                if not mask & bits:
                    break
            else:
                if other_requirements and not _requirements_satisfied_bits(
                    other_requirements, bits
                ):
                    continue
                if grouping_requirements and not _requirements_satisfied_bits(
                    grouping_requirements, grouping_bits[row]
                ):
                    continue
                out.append(views[row])

    def level_survivors(
        self, probe: _PackedProbe
    ) -> list[tuple[str, list[RegisteredView]]]:
        """The views left after each level, in this subtree's level order.

        The levels own disjoint atom bits of the fused row, so one level
        alone is a sweep with the query vector restricted to its atoms
        (:meth:`collect` builds the same atoms into one vector); the two
        requirement levels run the survivor checks. The last entry is
        what :meth:`collect` returns, in row order.
        """
        table = self.table
        rows = list(range(len(self._views)))
        found: list[tuple[str, list[RegisteredView]]] = []
        for level in AGGREGATE_LEVELS if self.aggregate else SPJ_LEVELS:
            rows = self._level_rows(level, probe, rows, table)
            found.append((level, [self._views[row] for row in rows]))
        return found

    def _level_rows(
        self, level: str, probe, rows: list[int], table
    ) -> list[int]:
        """The ``rows`` passing the level named ``level`` alone."""
        if not rows:
            return rows
        if level in ("output-columns", "grouping-columns"):
            if level == "output-columns":
                column_masks, requirements = probe.output_check
                bits = self._output_bits
            else:
                column_masks, requirements = (), probe.grouping_requirements
                bits = self._grouping_bits
            return [
                row
                for row in rows
                if all(mask & bits[row] for mask in column_masks)
                and (
                    not requirements
                    or _requirements_satisfied_bits(requirements, bits[row])
                )
            ]
        if level == "hub":
            allowed = 0
            for table_name in probe.tables:
                allowed |= self._hub_atoms.get(table_name, 0)
            query = self._hub_universe & ~allowed
        elif level == "residual":
            allowed = 0
            for template in probe.residual_templates:
                allowed |= self._residual_atoms.get(template, 0)
            query = self._residual_universe & ~allowed
        elif level == "range-constraints":
            allowed = 0
            for column in probe.constrained_columns:
                allowed |= self._range_columns.get(column, 0)
            query = self._range_universe & ~allowed
        else:  # a superset level: an atom unknown here passes no view
            atoms, elements = {
                "source-tables": (self._tables_atoms, probe.tables),
                "output-expressions": (
                    self._outexpr_atoms,
                    probe.aggregate_templates,
                ),
                "grouping-expressions": (
                    self._groupexpr_atoms,
                    probe.grouping_templates,
                ),
            }[level]
            query = 0
            for element in elements:
                bit = atoms.get(element)
                if bit is None:
                    return []
                query |= bit
        passing = set(table.sweep_mask(query))
        return [row for row in rows if row in passing]

    # -- copy-on-write snapshots -----------------------------------------------

    def snapshot(self) -> "_PackedSubtree":
        """A subtree sharing this one's packed rows copy-on-write.

        The table snapshot shares the backing byte image; the parallel
        arrays and atom dictionaries are flat pointer copies (O(views)),
        far below the cost of re-keying and re-interning every view.
        """
        clone = _PackedSubtree.__new__(_PackedSubtree)
        clone.interner = self.interner
        clone.aggregate = self.aggregate
        clone.table = self.table.snapshot()
        clone._views = list(self._views)
        clone._row_of = dict(self._row_of)
        clone._output_bits = list(self._output_bits)
        clone._grouping_bits = list(self._grouping_bits)
        clone._hub_atoms = dict(self._hub_atoms)
        clone._hub_universe = self._hub_universe
        clone._tables_atoms = dict(self._tables_atoms)
        clone._residual_atoms = dict(self._residual_atoms)
        clone._residual_universe = self._residual_universe
        clone._range_atoms = dict(self._range_atoms)
        clone._range_universe = self._range_universe
        clone._range_columns = dict(self._range_columns)
        clone._outexpr_atoms = dict(self._outexpr_atoms)
        clone._groupexpr_atoms = dict(self._groupexpr_atoms)
        return clone


# ---------------------------------------------------------------------------
# The tree
# ---------------------------------------------------------------------------


class FilterTree:
    """The complete index over registered views: two packed subtrees.

    ``candidates`` returns a superset of the views the matching algorithm
    would accept for the query (never a false negative; see the module
    docstring for the one documented refinement).
    """

    def __init__(self, interner: KeyInterner | None = None):
        """Build an empty tree.

        ``interner`` shares an existing :class:`KeyInterner` (the serving
        layer passes one across epoch rebuilds so bit assignments are
        stable); by default each tree creates its own.
        """
        if interner is None:
            interner = KeyInterner()
        self.interner = interner
        self._spj_packed = _PackedSubtree(interner, aggregate=False)
        self._aggregate_packed = _PackedSubtree(interner, aggregate=True)
        self._registered: dict[str, RegisteredView] = {}
        # Registration sequence numbers: candidate lists are returned in
        # registration order (a deterministic contract the copy-on-write
        # epoch clones preserve, so cost ties in the optimizer break
        # identically whichever epoch answers).
        self._order: dict[str, int] = {}
        self._next_order = 0

    def __len__(self) -> int:
        return len(self._registered)

    def register(self, description: SpjgDescription) -> RegisteredView:
        """Index a view description into the tree.

        Computes the hub, compiles the view's :class:`ViewRecord` and
        packed row and renders its text here, once
        (:meth:`RegisteredView.of`) -- re-registering a name after
        :meth:`unregister` therefore always yields a fresh record for the
        new description. The tree keeps no reference to ``description``.
        """
        view = RegisteredView.of(description, self.interner)
        self.register_prebuilt(view)
        return view

    def register_prebuilt(self, view: RegisteredView) -> RegisteredView:
        """Index an already-compiled view, reusing its record and hub.

        Describing a view and compiling its hub and record is the
        expensive part of registration; the serving layer does it outside
        its writer lock, keeps the :class:`RegisteredView`, and indexes it
        into the next epoch's tree through this entry point. A view whose
        packed row was interned under another interner has it recompiled
        from a re-derived description.
        """
        name = view.name
        if name in self._registered:
            raise ValueError(f"view {name} already registered")
        row = view.row
        if row[-1] is not self.interner:
            row = packed_row(view.description, self.interner)
        self._subtree(view).add(view, row)
        self._registered[name] = view
        self._order[name] = self._next_order
        self._next_order += 1
        return view

    def unregister(self, name: str) -> None:
        """Remove a view and its keys from every level."""
        view = self._registered.pop(name, None)
        if view is None:
            raise KeyError(f"view {name} not registered")
        del self._order[name]
        self._subtree(view).remove(view)

    def _subtree(self, view: RegisteredView) -> _PackedSubtree:
        return (
            self._aggregate_packed if view.record.aggregate else self._spj_packed
        )

    def views(self) -> tuple[RegisteredView, ...]:
        """All registered views, in registration order."""
        return tuple(self._registered.values())

    def view(self, name: str) -> RegisteredView | None:
        """The registered view under ``name`` (None when absent)."""
        return self._registered.get(name)

    def compile_probe(self, query: SpjgDescription) -> _PackedProbe:
        """The query's search keys in the form the packed subtrees sweep,
        derived from the query's analysis and block mask. Trees sharing
        an interner can share one compiled probe."""
        return _PackedProbe(query, self.interner)

    def collect_candidates(
        self,
        compiled: _PackedProbe,
        out: list[RegisteredView],
        include_aggregate: bool,
    ) -> None:
        """Append this tree's candidates (unsorted) for a compiled probe:
        the sweep behind :meth:`candidates`."""
        self._spj_packed.collect(compiled, out)
        if include_aggregate:
            self._aggregate_packed.collect(compiled, out)

    def candidates(self, query: SpjgDescription) -> list[RegisteredView]:
        """Views passing all filter conditions, in registration order."""
        found: list[RegisteredView] = []
        self.collect_candidates(
            self.compile_probe(query), found, query.is_aggregate
        )
        order = self._order
        found.sort(key=lambda view: order[view.name])
        tracer = current_tracer()
        if tracer.active:
            tracer.on_filter_tree(self, query, found)
        return found

    def clone_cow(self) -> "FilterTree":
        """An epoch clone sharing the packed arrays copy-on-write.

        The serving layer derives every epoch's tree from the previous
        epoch's this way: the clone shares the packed byte images (copied
        only if a side mutates rows) and copies the registry dictionaries
        flat, then the caller applies the registration delta.
        """
        clone = FilterTree.__new__(FilterTree)
        clone.interner = self.interner
        clone._spj_packed = self._spj_packed.snapshot()
        clone._aggregate_packed = self._aggregate_packed.snapshot()
        clone._registered = dict(self._registered)
        clone._order = dict(self._order)
        clone._next_order = self._next_order
        return clone

    def packed_tables(self) -> tuple:
        """The packed row tables backing this tree (diagnostics: byte
        images, copy-on-write sharing between epochs)."""
        return (self._spj_packed.table, self._aggregate_packed.table)

    def level_attribution(
        self, query: SpjgDescription
    ) -> list[tuple[str, int, int, tuple[str, ...]]]:
        """Per-level narrowing attribution for one query (diagnostics).

        Applies each level's condition, in tree order, and reports for
        every level the ``(name, entering, survivors, pruned_view_names)``
        tuple -- which views each level eliminated, not just how many
        survived. This is the data behind :meth:`filter_statistics`, the
        rewrite-path tracer's filter funnel, and the experiment harness's
        per-level narrowing report. The final survivor count equals
        ``len(candidates(query))``.

        Answered from the packed rows, one sweep per level
        (:meth:`_PackedSubtree.level_survivors`): the same bits that
        choose the candidates. A depth's name joins the two subtrees'
        level names there.
        """
        probe = self.compile_probe(query)
        subtrees = [self._spj_packed.level_survivors(probe)]
        current = [list(self._spj_packed._views)]
        if query.is_aggregate:
            subtrees.append(self._aggregate_packed.level_survivors(probe))
            current.append(list(self._aggregate_packed._views))
        attribution: list[tuple[str, int, int, tuple[str, ...]]] = []
        for depth in range(max(len(SPJ_LEVELS), len(AGGREGATE_LEVELS))):
            before = sum(map(len, current))
            pruned: list[str] = []
            for index, survivors in enumerate(subtrees):
                if depth >= len(survivors):
                    continue
                kept = survivors[depth][1]
                names_kept = {view.name for view in kept}
                pruned.extend(
                    view.name
                    for view in current[index]
                    if view.name not in names_kept
                )
                current[index] = kept
            names = {
                levels[depth]
                for levels in (SPJ_LEVELS, AGGREGATE_LEVELS)
                if depth < len(levels)
            }
            attribution.append(
                (
                    "+".join(sorted(names)),
                    before,
                    sum(map(len, current)),
                    tuple(sorted(pruned)),
                )
            )
        return attribution

    def filter_statistics(self, query: SpjgDescription) -> list[tuple[str, int]]:
        """Per-level survivor counts for one query (diagnostics).

        The counts-only view of :meth:`level_attribution` -- the
        attribution behind Section 5's "the filter tree consistently
        reduced the candidate set to less than 0.4%". The final count
        equals ``len(candidates(query))``.
        """
        attribution = self.level_attribution(query)
        registered = attribution[0][1] if attribution else len(self._registered)
        statistics: list[tuple[str, int]] = [("registered", registered)]
        statistics.extend(
            (name, survivors) for name, _, survivors, _ in attribution
        )
        return statistics
