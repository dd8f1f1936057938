"""The filter tree (Section 4 of the paper).

A filter tree recursively subdivides the registered views into smaller
partitions: each level partitions by one condition, and the keys of a node
are organised in a lattice index so a search can skip non-qualifying
partitions wholesale.

Levels follow the paper's Section 4.2 conditions. The tree is split at the
top into an SPJ subtree and an aggregation-view subtree (the paper's "two
additional levels for aggregation views"); an SPJ query searches only the
SPJ subtree, an aggregation query searches both.

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

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

from ..obs.trace import current_tracer
from ..sql.expressions import ColumnRef, Expression, FuncCall, Literal
from .analyze import (
    QueryAnalysis,
    bit_indices,
    bit_masks,
    normalized_aggregate_template,
)
from .describe import SpjgDescription
from .equivalence import ColumnKey
from .fkgraph import compute_hub
from .interning import KeyInterner, PackedBitsetTable
from .lattice import Key, LatticeIndex
from .matching import ViewRecord
from .normalize import classify_predicate
from .options import DEFAULT_OPTIONS, MatchOptions
from .residual import ShallowForm

if TYPE_CHECKING:
    from ..catalog.catalog import Catalog

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


@dataclass(frozen=True)
class RegisteredView:
    """A view plus the registration-time metadata the filter tree keys on.

    ``record`` is what the matcher's decision reads of the view
    (:class:`~repro.core.matching.ViewRecord`), compiled once at
    registration; it rides along through snapshot rebuilds so epoch
    replays never recompile it.
    """

    description: SpjgDescription
    hub: frozenset[str]
    record: ViewRecord

    @property
    def name(self) -> str:
        assert self.description.name is not None
        return self.description.name


@dataclass(frozen=True)
class OutputRequirement:
    """One query output (or grouping) item's availability requirement.

    Satisfied when any of the ``templates`` is present in the view key, or
    when every ``column_group`` intersects the view key. Both disjuncts are
    monotone in the key, as the lattice descent requires.
    """

    templates: Key
    column_groups: tuple[Key, ...]

    def satisfied(self, key: Key) -> bool:
        if self.templates & key:
            return True
        if not self.column_groups:
            return False
        return all(group & key for group in self.column_groups)


def _bind_requirement(
    requirement: OutputRequirement, interner: KeyInterner
) -> tuple[int, tuple[int, ...]]:
    """Compile one :class:`OutputRequirement` to ``(templates_mask, group_masks)``.

    Probe atoms the interner has never seen are dropped from the masks:
    every registered key atom *is* interned, so an unknown probe atom can
    never witness an intersection with a view key, and dropping it is
    exact. The pair is consumed by :func:`_requirements_satisfied_bits`,
    which replicates :meth:`OutputRequirement.satisfied` on bitmasks.
    """
    templates_mask, _ = interner.known_mask(requirement.templates)
    group_masks = tuple(
        interner.known_mask(group)[0] for group in requirement.column_groups
    )
    return templates_mask, group_masks


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


def _classes_hit_bits(
    key: Key,
    probe: "QueryProbe",
    bound: "_BoundProbe",
    interner: KeyInterner,
) -> bool:
    """Range-constraint full condition on interned class-member masks.

    Every equivalence class in ``key`` must intersect the query's
    range-constrained columns. A class whose members are all interned is
    tested exactly by the mask (an un-interned probe column can never
    equal an interned member); classes with un-interned members fall back
    to the frozenset intersection. Per-class masks are memoized on the
    bound probe.
    """
    range_mask = bound.range_mask
    class_masks = bound.class_masks
    constrained = None
    for cls in key:
        entry = class_masks.get(cls)
        if entry is None:
            entry = interner.known_mask(cls)
            class_masks[cls] = entry
        mask, complete = entry
        if mask & range_mask:
            continue
        if complete:
            return False
        if constrained is None:
            constrained = probe.range_constrained_columns
        if not (cls & constrained):
            return False
    return True


class _BoundProbe:
    """A :class:`QueryProbe` encoded as bitmasks against one interner.

    Built once per search of a recursive (non-packed) interned tree --
    both subtrees share the tree's interner -- and reused by every
    lattice index the search touches. ``class_masks`` memoizes the
    per-equivalence-class masks the range-constraint level's full
    condition needs.
    """

    __slots__ = (
        "tables_mask",
        "tables_complete",
        "residual_mask",
        "range_mask",
        "aggregate_mask",
        "aggregate_complete",
        "grouping_mask",
        "grouping_complete",
        "output_requirements",
        "grouping_requirements",
        "class_masks",
    )

    def __init__(self, probe: "QueryProbe", interner: KeyInterner):
        self.tables_mask, self.tables_complete = interner.known_mask(
            probe.tables
        )
        self.residual_mask, _ = interner.known_mask(probe.residual_templates)
        self.range_mask, _ = interner.known_mask(
            probe.range_constrained_columns
        )
        self.aggregate_mask, self.aggregate_complete = interner.known_mask(
            probe.aggregate_templates
        )
        self.grouping_mask, self.grouping_complete = interner.known_mask(
            probe.grouping_templates
        )
        self.output_requirements = tuple(
            _bind_requirement(req, interner)
            for req in probe.output_requirements
        )
        self.grouping_requirements = tuple(
            _bind_requirement(req, interner)
            for req in probe.grouping_requirements
        )
        self.class_masks: dict[Key, tuple[int, bool]] = {}


@dataclass
class QueryProbe:
    """The query-side search keys as frozenset lattice keys.

    What the recursive tree's lattice searches and the per-level
    diagnostics consume; the packed layout derives its own
    :class:`_PackedProbe` from the request's analysis instead.
    """

    tables: Key
    output_requirements: tuple[OutputRequirement, ...]
    residual_templates: Key
    range_constrained_columns: Key
    aggregate_templates: Key
    grouping_templates: Key
    grouping_requirements: tuple[OutputRequirement, ...]
    is_aggregate: bool

    @classmethod
    def of(
        cls,
        query: SpjgDescription,
        options: MatchOptions = DEFAULT_OPTIONS,
    ) -> "QueryProbe":
        """Compile the query-side search keys (fast single-pass pipeline).

        Reuses the shallow forms and merged classes the description
        already carries, derives every per-column group through one
        ``class_of`` lookup, and pulls check-constraint keys from a
        per-catalog cache. ``options.use_fast_probe=False`` dispatches to
        :meth:`of_reference`, the pre-fusion pipeline kept as the hot-path
        benchmark's baseline; both build identical probes.
        """
        if not options.use_fast_probe:
            return cls.of_reference(query, options)
        residual_templates = query.residual_templates()
        constrained = query.extended_range_constrained_columns()
        if options.use_check_constraints:
            check_columns, check_templates = _catalog_check_keys(
                query.catalog, query.options.support_or_ranges
            )
            residual_templates = residual_templates | check_templates
            constrained = constrained | check_columns
        return cls(
            tables=_tables_key(query.tables),
            output_requirements=_output_requirements(query),
            residual_templates=_templates_key(residual_templates),
            range_constrained_columns=_columns_key(constrained),
            aggregate_templates=_templates_key(query.aggregate_templates()),
            grouping_templates=_templates_key(query.grouping_templates()),
            grouping_requirements=_grouping_requirements(query),
            is_aggregate=query.is_aggregate,
        )

    @classmethod
    def of_reference(
        cls,
        query: SpjgDescription,
        options: MatchOptions = DEFAULT_OPTIONS,
    ) -> "QueryProbe":
        """The pre-fusion probe pipeline, preserved verbatim.

        Recomputes every derived set from first principles -- per-call
        ``class_of`` scans, shallow-form rederivation, a fresh catalog
        check-constraint walk -- exactly as probe compilation worked before
        the single-pass analyzer. The hot-path benchmark times this against
        :meth:`of` on identical descriptions so the reported speedup is
        measured in-run rather than against a stale baseline, and the
        equivalence property test asserts both pipelines agree.
        """
        residual_templates = set(
            form.template for form in query.residual_forms
        )
        constrained = set(_extended_range_constrained_reference(query))
        if options.use_check_constraints:
            _add_check_constraint_keys_reference(
                query, residual_templates, constrained
            )
        return cls(
            tables=_tables_key(query.tables),
            output_requirements=_output_requirements_reference(query),
            residual_templates=_templates_key(residual_templates),
            range_constrained_columns=_columns_key(constrained),
            aggregate_templates=_templates_key(
                _query_aggregate_templates_reference(query)
            ),
            grouping_templates=_templates_key(query.grouping_templates()),
            grouping_requirements=_grouping_requirements_reference(query),
            is_aggregate=query.is_aggregate,
        )


# ---------------------------------------------------------------------------
# Fast probe compilation
# ---------------------------------------------------------------------------


def _catalog_check_keys(
    catalog: "Catalog", support_or_ranges: bool
) -> tuple[frozenset[ColumnKey], frozenset[str]]:
    """Probe keys derived from the catalog's check constraints (cached).

    Check constraints strengthen the antecedent, so a view predicate may be
    implied by a check constraint alone; the probe must then include the
    check-derived keys or the filter would prune views the matcher accepts.
    Constraints of *every* catalog table are included because a view's extra
    tables need not appear in the query. The derivation depends only on the
    catalog and the OR-range flag, so it is computed once per catalog
    instead of once per probe.
    """
    from .intervalsets import as_or_range

    cache = getattr(catalog, "_check_key_cache", None)
    if cache is None:
        cache = {}
        catalog._check_key_cache = cache
    entry = cache.get(support_or_ranges)
    if entry is None:
        constrained: set[ColumnKey] = set()
        templates: set[str] = set()
        for table in catalog.tables():
            for check in table.check_constraints:
                classified = classify_predicate(check.predicate)
                for rp in classified.range_predicates:
                    constrained.add(rp.column)
                for conjunct in classified.residuals:
                    recognised = (
                        as_or_range(conjunct) if support_or_ranges else None
                    )
                    if recognised is not None:
                        constrained.add(recognised.column)
                    else:
                        templates.add(ShallowForm.of(conjunct).template)
        entry = (frozenset(constrained), frozenset(templates))
        cache[support_or_ranges] = entry
    return entry


def _output_requirements(
    query: SpjgDescription,
) -> tuple[OutputRequirement, ...]:
    """Availability requirements for every output and grouping item.

    One pass over the select list and grouping; shallow forms come from
    the description, column groups from ``class_of`` lookups with a
    per-probe group cache (outputs and groupings overwhelmingly repeat
    the same columns).
    """
    class_of = query.eqclasses.class_of
    backjoins = query.options.allow_backjoins
    catalog = query.catalog
    group_cache: dict = {}

    def column_group(key: ColumnKey) -> Key:
        group = group_cache.get(key)
        if group is None:
            group = _columns_key(class_of(key))
            if backjoins:
                table = catalog.table(key[0])
                for unique_key in table.all_unique_keys():
                    if any(table.is_nullable(column) for column in unique_key):
                        continue
                    for column in unique_key:
                        group |= _columns_key(class_of((key[0], column)))
            group_cache[key] = group
        return group

    requirements: list[OutputRequirement] = []
    no_templates = _templates_key(())

    # Depth-first over an explicit stack: a nested function that calls
    # itself is a reference cycle through its own closure cell, which
    # would leave ``query`` -- the whole description -- to the collector.
    pending = [item.expression for item in query.statement.select_items]
    pending.extend(query.statement.group_by)
    pending.reverse()
    while pending:
        expression = pending.pop()
        if isinstance(expression, ColumnRef):
            requirements.append(
                OutputRequirement(no_templates, (column_group(expression.key),))
            )
        elif isinstance(expression, FuncCall) and expression.is_aggregate():
            if expression.star:
                continue  # count(*) needs no columns from any view kind
            argument = expression.args[0]
            argument_form = query.shallow_form(argument)
            templates = set(
                normalized_aggregate_template(expression, argument_form)
            )
            templates.add(argument_form.template)
            requirements.append(
                OutputRequirement(
                    _templates_key(templates),
                    tuple(
                        column_group(ref.key)
                        for ref in argument.column_refs()
                    ),
                )
            )
        elif expression.contains_aggregate():
            pending.extend(reversed(expression.children()))
        elif not isinstance(expression, Literal):
            requirements.append(
                OutputRequirement(
                    _templates_key((query.shallow_form(expression).template,)),
                    tuple(
                        column_group(ref.key) for ref in expression.column_refs()
                    ),
                )
            )
    return tuple(requirements)


def _grouping_requirements(
    query: SpjgDescription,
) -> tuple[OutputRequirement, ...]:
    """Per-item grouping conditions for the grouping-column level."""
    class_of = query.eqclasses.class_of
    requirements: list[OutputRequirement] = []
    for form, expr in zip(query.group_forms, query.statement.group_by):
        if isinstance(expr, ColumnRef):
            requirements.append(
                OutputRequirement(
                    _templates_key(()), (_columns_key(class_of(expr.key)),)
                )
            )
        else:
            requirements.append(
                OutputRequirement(_templates_key((form.template,)), ())
            )
    return tuple(requirements)


# ---------------------------------------------------------------------------
# Reference probe compilation (the pre-fusion pipeline, kept verbatim so the
# hot-path benchmark measures the fast path's speedup from identical inputs;
# see QueryProbe.of_reference)
# ---------------------------------------------------------------------------


def _class_of_reference(
    query: SpjgDescription, key: ColumnKey
) -> frozenset[ColumnKey]:
    """``key``'s class by a scan of every registered column.

    How ``class_of`` answered before the equivalence classes kept a class
    map: the per-call rescan this pipeline is the baseline for.
    """
    eqclasses = query.eqclasses
    root = eqclasses.find(key)
    return frozenset(
        column for column in eqclasses.columns() if eqclasses.find(column) == root
    )


def _extended_range_constrained_reference(
    query: SpjgDescription,
) -> set[ColumnKey]:
    """Pre-fusion extended range-constrained columns (per-call class scans)."""
    representatives = set(query.ranges)
    for or_range in query.or_ranges:
        representatives.add(query.eqclasses.find(or_range.column))
    members: set[ColumnKey] = set()
    for rep in representatives:
        members.update(_class_of_reference(query, rep))
    return members


def _add_check_constraint_keys_reference(
    query: SpjgDescription,
    residual_templates: set[str],
    constrained: set[ColumnKey],
) -> None:
    """Pre-fusion check-constraint widening (full catalog walk per probe)."""
    from .intervalsets import as_or_range

    for table in query.catalog.tables():
        for check in table.check_constraints:
            classified = classify_predicate(check.predicate)
            for rp in classified.range_predicates:
                constrained.add(rp.column)
            for conjunct in classified.residuals:
                recognised = (
                    as_or_range(conjunct)
                    if query.options.support_or_ranges
                    else None
                )
                if recognised is not None:
                    constrained.add(recognised.column)
                else:
                    residual_templates.add(ShallowForm.of(conjunct).template)


def _query_aggregate_templates_reference(query: SpjgDescription) -> set[str]:
    templates: set[str] = set()
    for call in query.statement.aggregate_outputs():
        templates.update(normalized_aggregate_template(call))
    return templates


def _column_group_reference(query: SpjgDescription, key: ColumnKey) -> Key:
    """Key elements that can make one required column available.

    The column's own query equivalence class always qualifies. With the
    backjoin extension enabled, exposing any column of a non-nullable
    unique key of the owning table also suffices (the matcher can join the
    view back to the base table), so those classes widen the group.
    """
    group = set(_class_of_reference(query, key))
    if query.options.allow_backjoins:
        table = query.catalog.table(key[0])
        for unique_key in table.all_unique_keys():
            if any(table.is_nullable(column) for column in unique_key):
                continue
            for column in unique_key:
                group |= _class_of_reference(query, (key[0], column))
    return _columns_key(group)


def _expression_requirement_reference(
    query: SpjgDescription, expression: Expression
) -> OutputRequirement | None:
    """Availability requirement for one non-aggregate scalar expression."""
    if isinstance(expression, Literal):
        return None
    if isinstance(expression, ColumnRef):
        return OutputRequirement(
            templates=frozenset(),
            column_groups=(_column_group_reference(query, expression.key),),
        )
    templates = {ShallowForm.of(expression).template}
    groups = tuple(
        _column_group_reference(query, ref.key)
        for ref in expression.column_refs()
    )
    return OutputRequirement(templates=_templates_key(templates), column_groups=groups)


def _aggregate_requirement_reference(
    query: SpjgDescription, call: FuncCall
) -> OutputRequirement | None:
    """Availability requirement for one aggregate call.

    Weakest across view kinds: an aggregation view satisfies it through the
    normalized aggregate template, an SPJ view through the argument's
    template or source columns.
    """
    if call.star:
        return None  # count(*) needs no columns from any view kind
    argument = call.args[0]
    argument_form = ShallowForm.of(argument)
    templates = set(normalized_aggregate_template(call))
    templates.add(argument_form.template)
    groups = tuple(
        _column_group_reference(query, ref.key)
        for ref in argument.column_refs()
    )
    return OutputRequirement(templates=_templates_key(templates), column_groups=groups)


def _output_requirements_reference(
    query: SpjgDescription,
) -> tuple[OutputRequirement, ...]:
    requirements: list[OutputRequirement] = []

    def add_expression(expression: Expression) -> None:
        if isinstance(expression, FuncCall) and expression.is_aggregate():
            requirement = _aggregate_requirement_reference(query, expression)
            if requirement is not None:
                requirements.append(requirement)
            return
        if expression.contains_aggregate():
            for child in expression.children():
                add_expression(child)
            return
        requirement = _expression_requirement_reference(query, expression)
        if requirement is not None:
            requirements.append(requirement)

    for info in query.outputs:
        add_expression(info.expression)
    for expr in query.statement.group_by:
        add_expression(expr)
    return tuple(requirements)


def _grouping_requirements_reference(
    query: SpjgDescription,
) -> tuple[OutputRequirement, ...]:
    """Per-item grouping conditions for the grouping-column level."""
    requirements: list[OutputRequirement] = []
    for expr in query.statement.group_by:
        if isinstance(expr, ColumnRef):
            requirements.append(
                OutputRequirement(
                    templates=frozenset(),
                    column_groups=(
                        _columns_key(_class_of_reference(query, expr.key)),
                    ),
                )
            )
        else:
            requirements.append(
                OutputRequirement(
                    templates=_templates_key({ShallowForm.of(expr).template}),
                    column_groups=(),
                )
            )
    return tuple(requirements)


# ---------------------------------------------------------------------------
# Levels
# ---------------------------------------------------------------------------


class _Level:
    """One partitioning condition: a view key and a lattice search."""

    name = "level"

    def view_key(self, view: RegisteredView) -> Key:
        raise NotImplementedError

    def projection(self, key: Key) -> Key:
        return key

    def search(
        self,
        index: LatticeIndex,
        probe: QueryProbe,
        bound: _BoundProbe | None = None,
    ) -> list:
        """Lattice search for the level's condition.

        ``bound`` is the probe's bitmask encoding under the index's
        interner, bound once per tree search; ``None`` selects the plain
        frozenset search path.
        """
        raise NotImplementedError

    def qualifies(self, key: Key, probe: QueryProbe) -> bool:
        """Direct evaluation of the level's condition on one key.

        Used by :meth:`FilterTree.filter_statistics` to attribute pruning
        to levels; the lattice searches above are the fast path and must
        return exactly the keys this predicate accepts.
        """
        raise NotImplementedError

    def match_bits(
        self,
        node,
        probe: QueryProbe,
        bound: "_BoundProbe",
        interner: KeyInterner,
    ) -> bool:
        """The level's condition on one lattice node's bitmask encoding.

        Must agree with :meth:`qualifies` on every stored key. The tree
        search uses it to test singleton indexes directly -- most internal
        lattice indexes hold exactly one node, where even the flat-scan
        lattice search costs more than a single bit test. The default
        falls back to the exact key predicate so custom levels stay
        correct without a bits implementation.
        """
        return self.qualifies(node.key, probe)


class HubLevel(_Level):
    """Section 4.2.2: the view's hub must be a subset of the query tables."""

    name = "hub"

    def view_key(self, view: RegisteredView) -> Key:
        return _tables_key(view.hub)

    def search(
        self,
        index: LatticeIndex,
        probe: QueryProbe,
        bound: _BoundProbe | None = None,
    ) -> list:
        if bound is not None:
            return index.subsets_of(probe.tables, probe_bits=bound.tables_mask)
        return index.subsets_of(probe.tables)

    def qualifies(self, key: Key, probe: QueryProbe) -> bool:
        return key <= probe.tables

    def match_bits(self, node, probe, bound, interner) -> bool:
        return node.order_bits & bound.tables_mask == node.order_bits


class SourceTableLevel(_Level):
    """Section 4.2.1: the view's tables must be a superset of the query's."""

    name = "source-tables"

    def view_key(self, view: RegisteredView) -> Key:
        return _tables_key(view.description.tables)

    def search(
        self,
        index: LatticeIndex,
        probe: QueryProbe,
        bound: _BoundProbe | None = None,
    ) -> list:
        if bound is not None:
            return index.supersets_of(
                probe.tables,
                probe_bits=bound.tables_mask,
                probe_complete=bound.tables_complete,
            )
        return index.supersets_of(probe.tables)

    def qualifies(self, key: Key, probe: QueryProbe) -> bool:
        return key >= probe.tables

    def match_bits(self, node, probe, bound, interner) -> bool:
        mask = bound.tables_mask
        return bound.tables_complete and node.order_bits & mask == mask


class OutputExpressionLevel(_Level):
    """Section 4.2.7, aggregation subtree: textual aggregate containment."""

    name = "output-expressions"

    def view_key(self, view: RegisteredView) -> Key:
        return _templates_key(view.description.output_templates())

    def search(
        self,
        index: LatticeIndex,
        probe: QueryProbe,
        bound: _BoundProbe | None = None,
    ) -> list:
        if bound is not None:
            return index.supersets_of(
                probe.aggregate_templates,
                probe_bits=bound.aggregate_mask,
                probe_complete=bound.aggregate_complete,
            )
        return index.supersets_of(probe.aggregate_templates)

    def qualifies(self, key: Key, probe: QueryProbe) -> bool:
        return key >= probe.aggregate_templates

    def match_bits(self, node, probe, bound, interner) -> bool:
        mask = bound.aggregate_mask
        return bound.aggregate_complete and node.order_bits & mask == mask


class OutputColumnLevel(_Level):
    """Sections 4.2.3/4.2.7 merged: per-item output availability."""

    name = "output-columns"

    def view_key(self, view: RegisteredView) -> Key:
        description = view.description
        return _columns_key(description.extended_output_columns()) | _templates_key(
            description.output_templates()
        )

    def search(
        self,
        index: LatticeIndex,
        probe: QueryProbe,
        bound: _BoundProbe | None = None,
    ) -> list:
        if bound is not None:
            pairs = bound.output_requirements
            return index.descend_monotone(
                self._qualify(probe),
                qualify_bits=lambda key_bits: _requirements_satisfied_bits(
                    pairs, key_bits
                ),
            )
        return index.descend_monotone(self._qualify(probe))

    @staticmethod
    def _qualify(probe: QueryProbe):
        requirements = probe.output_requirements
        return lambda key: all(req.satisfied(key) for req in requirements)

    def qualifies(self, key: Key, probe: QueryProbe) -> bool:
        return all(req.satisfied(key) for req in probe.output_requirements)

    def match_bits(self, node, probe, bound, interner) -> bool:
        return _requirements_satisfied_bits(bound.output_requirements, node.bits)


class ResidualLevel(_Level):
    """Section 4.2.6: view residual templates within the query's."""

    name = "residual"

    def view_key(self, view: RegisteredView) -> Key:
        return _templates_key(view.description.residual_templates())

    def search(
        self,
        index: LatticeIndex,
        probe: QueryProbe,
        bound: _BoundProbe | None = None,
    ) -> list:
        if bound is not None:
            return index.subsets_of(
                probe.residual_templates, probe_bits=bound.residual_mask
            )
        return index.subsets_of(probe.residual_templates)

    def qualifies(self, key: Key, probe: QueryProbe) -> bool:
        return key <= probe.residual_templates

    def match_bits(self, node, probe, bound, interner) -> bool:
        return node.order_bits & bound.residual_mask == node.order_bits


class RangeConstraintLevel(_Level):
    """Section 4.2.5: view-constrained classes hit query-constrained columns.

    The identity key is the full constraint-class list; the lattice order
    uses the reduced list (trivial-class columns only), exactly the paper's
    weak-condition construction.
    """

    name = "range-constraints"

    def view_key(self, view: RegisteredView) -> Key:
        description = view.description
        classes = description.range_constrained_classes()
        return frozenset(_columns_key(cls) for cls in classes)

    def projection(self, key: Key) -> Key:
        reduced: set = set()
        for cls in key:
            if len(cls) == 1:
                reduced.update(cls)
        return frozenset(reduced)

    def search(
        self,
        index: LatticeIndex,
        probe: QueryProbe,
        bound: _BoundProbe | None = None,
    ) -> list:
        constrained = probe.range_constrained_columns

        def weak_qualify(order_key: Key) -> bool:
            return order_key <= constrained

        def qualify(key: Key) -> bool:
            return all(cls & constrained for cls in key)

        interner = index.interner
        if bound is not None and interner is not None:
            range_mask = bound.range_mask

            def weak_qualify_bits(order_bits: int) -> bool:
                return order_bits & range_mask == order_bits

            def qualify_interned(key: Key) -> bool:
                return _classes_hit_bits(key, probe, bound, interner)

            return index.ascend_weak(
                weak_qualify,
                qualify_interned,
                weak_qualify_bits=weak_qualify_bits,
            )
        return index.ascend_weak(weak_qualify, qualify)

    def qualifies(self, key: Key, probe: QueryProbe) -> bool:
        return all(cls & probe.range_constrained_columns for cls in key)

    def match_bits(self, node, probe, bound, interner) -> bool:
        # The order key is the union of the trivial classes' columns, so
        # the weak order-key test is implied by the full condition and
        # testing the full condition alone is exact.
        return _classes_hit_bits(node.key, probe, bound, interner)


class GroupingExpressionLevel(_Level):
    """Section 4.2.8, aggregation subtree only."""

    name = "grouping-expressions"

    def view_key(self, view: RegisteredView) -> Key:
        return _templates_key(view.description.grouping_templates())

    def search(
        self,
        index: LatticeIndex,
        probe: QueryProbe,
        bound: _BoundProbe | None = None,
    ) -> list:
        if bound is not None:
            return index.supersets_of(
                probe.grouping_templates,
                probe_bits=bound.grouping_mask,
                probe_complete=bound.grouping_complete,
            )
        return index.supersets_of(probe.grouping_templates)

    def qualifies(self, key: Key, probe: QueryProbe) -> bool:
        return key >= probe.grouping_templates

    def match_bits(self, node, probe, bound, interner) -> bool:
        mask = bound.grouping_mask
        return bound.grouping_complete and node.order_bits & mask == mask


class GroupingColumnLevel(_Level):
    """Section 4.2.4, aggregation subtree only."""

    name = "grouping-columns"

    def view_key(self, view: RegisteredView) -> Key:
        description = view.description
        return _columns_key(
            description.extended_grouping_columns()
        ) | _templates_key(description.grouping_templates())

    def search(
        self,
        index: LatticeIndex,
        probe: QueryProbe,
        bound: _BoundProbe | None = None,
    ) -> list:
        requirements = probe.grouping_requirements

        def qualify(key: Key) -> bool:
            return all(req.satisfied(key) for req in requirements)

        if bound is not None:
            pairs = bound.grouping_requirements
            return index.descend_monotone(
                qualify,
                qualify_bits=lambda key_bits: _requirements_satisfied_bits(
                    pairs, key_bits
                ),
            )
        return index.descend_monotone(qualify)

    def qualifies(self, key: Key, probe: QueryProbe) -> bool:
        return all(req.satisfied(key) for req in probe.grouping_requirements)

    def match_bits(self, node, probe, bound, interner) -> bool:
        return _requirements_satisfied_bits(
            bound.grouping_requirements, node.bits
        )


# Levels are stateless; the default compositions and the packed flat
# layout below share these singletons so every path keys views identically.
_HUB_LEVEL = HubLevel()
_SOURCE_TABLE_LEVEL = SourceTableLevel()
_OUTPUT_EXPRESSION_LEVEL = OutputExpressionLevel()
_OUTPUT_COLUMN_LEVEL = OutputColumnLevel()
_RESIDUAL_LEVEL = ResidualLevel()
_RANGE_LEVEL = RangeConstraintLevel()
_GROUPING_EXPRESSION_LEVEL = GroupingExpressionLevel()
_GROUPING_COLUMN_LEVEL = GroupingColumnLevel()

SPJ_LEVELS: tuple[_Level, ...] = (
    _HUB_LEVEL,
    _SOURCE_TABLE_LEVEL,
    _OUTPUT_COLUMN_LEVEL,
    _RESIDUAL_LEVEL,
    _RANGE_LEVEL,
)

AGGREGATE_LEVELS: tuple[_Level, ...] = (
    _HUB_LEVEL,
    _SOURCE_TABLE_LEVEL,
    _OUTPUT_EXPRESSION_LEVEL,
    _OUTPUT_COLUMN_LEVEL,
    _RESIDUAL_LEVEL,
    _RANGE_LEVEL,
    _GROUPING_EXPRESSION_LEVEL,
    _GROUPING_COLUMN_LEVEL,
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
    on that snapshot.
    """

    __slots__ = ("interner", "size", "column_bits", "groups", "templates")

    def __init__(self, analysis: QueryAnalysis, interner: KeyInterner) -> None:
        known_bit = interner.known_bit
        self.interner = interner
        self.size = len(interner)
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
    is exact (see :func:`_bind_requirement`). Check-constraint keys widen
    the residual and range levels exactly as in :meth:`QueryProbe.of`.
    A description made from scratch is probed through an analysis of its
    statement, so every probe takes this one path.
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

    def __init__(
        self,
        query: SpjgDescription,
        options: MatchOptions,
        interner: KeyInterner,
    ) -> None:
        analysis = query.analysis
        if analysis is None:
            analysis = QueryAnalysis(query.statement, query.catalog, query.options)
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
        if options.use_check_constraints:
            check_columns, check_templates = _catalog_check_keys(
                query.catalog, query.options.support_or_ranges
            )
            residual_templates += tuple(check_templates)
            constrained_columns += tuple(check_columns)
        self.tables = query.tables
        self.residual_templates = residual_templates
        self.constrained_columns = constrained_columns

        keys = _RequestKeys.of(analysis, interner)
        widening = (
            analysis.backjoin_columns if query.options.allow_backjoins else None
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
    every level's condition (each level is a pure filter, so the recursive
    partition search equals the flat conjunction). The mask-only levels --
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
    so the subtree returns empty -- exactly the lattice's completeness
    short-circuit. The range level reduces to subset form per query: each
    distinct constraint class is one atom, a class passes iff it holds a
    range-constrained query column (a column -> class-bits index, filled
    at ``add``, turns the probe's columns into the passing atoms), and a
    view passes iff its class atoms avoid every failing class.

    Atoms are keyed by plain values per level (table names, templates,
    classes of column keys): the dictionaries are per level, so the
    tagged lattice keys of the recursive tree are not needed here.

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

    def add(self, view: RegisteredView) -> None:
        interner = self.interner
        description = view.description
        mask = self._union(self._hub_atoms, view.hub, False)
        self._hub_universe |= mask
        row_mask = mask
        row_mask |= self._union(self._tables_atoms, description.tables, True)
        mask = self._union(
            self._residual_atoms, description.residual_templates(), False
        )
        self._residual_universe |= mask
        row_mask |= mask
        range_atoms = self._range_atoms
        range_columns = self._range_columns
        for cls in description.range_constrained_classes():
            bit = range_atoms.get(cls)
            if bit is None:
                bit = range_atoms[cls] = self.table.alloc_bit(False)
                self._range_universe |= bit
                for column in cls:
                    range_columns[column] = range_columns.get(column, 0) | bit
            row_mask |= bit
        if self.aggregate:
            row_mask |= self._union(
                self._outexpr_atoms, description.output_templates(), True
            )
            row_mask |= self._union(
                self._groupexpr_atoms, description.grouping_templates(), True
            )
            self._grouping_bits.append(
                interner.mask(_GROUPING_COLUMN_LEVEL.view_key(view))
            )
        self._output_bits.append(
            interner.mask(_OUTPUT_COLUMN_LEVEL.view_key(view))
        )
        row = self.table.append(row_mask)
        self._views.append(view)
        self._row_of[view.name] = row

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


@dataclass
class _TreeNode:
    """An internal node: one lattice index whose payloads are child nodes."""

    levels: tuple[_Level, ...]
    depth: int
    interner: KeyInterner | None = None
    index: LatticeIndex = field(init=False)
    views: list[RegisteredView] = field(default_factory=list)  # leaves only

    def __post_init__(self) -> None:
        # Plain attribute, not a property: the recursive search tests it
        # once per visited node and the tree shape never changes.
        self.is_leaf = self.depth >= len(self.levels)
        if not self.is_leaf:
            level = self.levels[self.depth]
            self.index = LatticeIndex(
                projection=level.projection, interner=self.interner
            )

    def add(self, view: RegisteredView) -> None:
        if self.is_leaf:
            self.views.append(view)
            return
        level = self.levels[self.depth]
        key = level.view_key(view)
        node = self.index.node(key)
        if node is None or not node.payloads:
            child = _TreeNode(self.levels, self.depth + 1, self.interner)
            self.index.insert(key, child)
        else:
            child = node.payloads[0]
        child.add(view)

    def remove(self, view: RegisteredView) -> None:
        if self.is_leaf:
            self.views.remove(view)
            return
        level = self.levels[self.depth]
        key = level.view_key(view)
        node = self.index.node(key)
        if node is None or not node.payloads:
            raise KeyError(f"view {view.name} not present at level {level.name}")
        child: _TreeNode = node.payloads[0]
        child.remove(view)
        if child.is_empty():
            self.index.remove_payload(key, child)

    def is_empty(self) -> bool:
        if self.is_leaf:
            return not self.views
        return len(self.index) == 0

    def search(
        self,
        probe: QueryProbe,
        bound: "_BoundProbe | None",
        out: list[RegisteredView],
    ) -> None:
        """Collect every registered view under this node that passes all
        remaining levels.

        Iterative depth-first walk: Python call frames per visited tree
        node are a measurable share of filter cost. Interned singleton
        indexes -- the overwhelming majority once the tree fans out -- are
        tested with one direct ``match_bits`` call instead of a full
        lattice search.
        """
        interner = self.interner
        stack = [self]
        while stack:
            tree_node = stack.pop()
            if tree_node.is_leaf:
                out.extend(tree_node.views)
                continue
            level = tree_node.levels[tree_node.depth]
            index = tree_node.index
            if bound is not None:
                node = index.sole
                if node is not None:
                    if level.match_bits(node, probe, bound, interner):
                        stack.extend(node.payloads)
                    continue
            # Reversed push keeps the depth-first visit order of the
            # recursive formulation (first search result explored first).
            for node in reversed(level.search(index, probe, bound)):
                stack.extend(node.payloads)


class FilterTree:
    """The complete index over registered view descriptions.

    ``candidates`` returns a superset of the views the matching algorithm
    would accept for the query (never a false negative under the default
    options; see the module docstring for the one documented refinement).
    """

    def __init__(
        self,
        options: MatchOptions = DEFAULT_OPTIONS,
        spj_levels: tuple[_Level, ...] | None = None,
        aggregate_levels: tuple[_Level, ...] | None = None,
        interner: KeyInterner | None = None,
        use_interning: bool = True,
        use_packed: bool = True,
    ):
        """Build an empty tree.

        ``spj_levels`` / ``aggregate_levels`` override the default level
        composition -- the paper notes the conditions "are independent and
        can be composed in any order", and the level-ordering ablation
        benchmark exercises exactly this hook. Every ordering yields the
        same candidate sets; only search cost differs.

        ``interner`` shares an existing :class:`KeyInterner` (the serving
        layer passes one across epoch rebuilds so bit assignments are
        stable); by default each tree creates its own. ``use_interning=
        False`` drops to plain frozenset keys everywhere -- the reference
        configuration of the hot-path benchmark and property tests.

        ``use_packed`` selects the columnar flat layout: with the default
        level composition and an interner, candidate searches sweep two
        :class:`_PackedSubtree` tables instead of walking the recursive
        tree, and the Hasse-diagram tree is only materialized on demand
        (diagnostics, custom traversals). ``use_packed=False`` keeps the
        recursive tree as the primary index -- the property tests pin the
        two paths to identical candidate lists.
        """
        self.options = options
        if interner is None and use_interning:
            interner = KeyInterner()
        self.interner = interner
        self._spj_levels = spj_levels or SPJ_LEVELS
        self._aggregate_levels = aggregate_levels or AGGREGATE_LEVELS
        # The packed layout fuses exactly the default level conditions;
        # custom compositions (the ordering-ablation hook) fall back to
        # the recursive tree, as does the non-interned reference mode.
        self._use_packed = (
            use_packed
            and interner is not None
            and spj_levels is None
            and aggregate_levels is None
        )
        if self._use_packed:
            self._spj_packed = _PackedSubtree(interner, aggregate=False)
            self._aggregate_packed = _PackedSubtree(interner, aggregate=True)
            self._spj_root_node: _TreeNode | None = None
            self._aggregate_root_node: _TreeNode | None = None
        else:
            self._spj_packed = None
            self._aggregate_packed = None
            self._spj_root_node = _TreeNode(self._spj_levels, 0, interner)
            self._aggregate_root_node = _TreeNode(
                self._aggregate_levels, 0, interner
            )
        self._registered: dict[str, RegisteredView] = {}
        # Registration sequence numbers: candidate lists are returned in
        # registration order (a deterministic, index-layout-independent
        # contract -- sharded trees and worker fan-outs preserve it, so
        # cost ties in the optimizer break identically however the
        # registry is partitioned).
        self._order: dict[str, int] = {}
        self._next_order = 0

    def __len__(self) -> int:
        return len(self._registered)

    # -- the recursive tree (materialized on demand in packed mode) -----------

    @property
    def _spj_root(self) -> _TreeNode:
        if self._spj_root_node is None:
            self._materialize_trees()
        return self._spj_root_node

    @property
    def _aggregate_root(self) -> _TreeNode:
        if self._aggregate_root_node is None:
            self._materialize_trees()
        return self._aggregate_root_node

    def _materialize_trees(self) -> None:
        """Build the recursive Hasse-diagram trees from the registry.

        In packed mode the flat sweep serves every search, so the trees
        exist only for diagnostics and explicit traversals; they are
        replayed here on first access (registration order, for
        deterministic lattice links) and kept in sync by the mutators
        afterwards. Copy-on-write clones reset them to lazy again.
        """
        spj = _TreeNode(self._spj_levels, 0, self.interner)
        aggregate = _TreeNode(self._aggregate_levels, 0, self.interner)
        order = self._order
        for name in sorted(self._registered, key=order.__getitem__):
            view = self._registered[name]
            if view.description.is_aggregate:
                aggregate.add(view)
            else:
                spj.add(view)
        self._spj_root_node = spj
        self._aggregate_root_node = aggregate

    def register(self, description: SpjgDescription) -> RegisteredView:
        """Index a view description into the tree.

        Computes the hub and compiles the view's :class:`ViewRecord` here,
        once -- re-registering a name after :meth:`unregister` therefore
        always yields a fresh record for the new description.
        """
        if description.name is None:
            raise ValueError("only named views can be registered")
        view = RegisteredView(
            description=description,
            hub=compute_hub(description, self.options),
            record=ViewRecord.of(description, self.options),
        )
        self.register_prebuilt(view)
        return view

    def register_prebuilt(self, view: RegisteredView) -> RegisteredView:
        """Index an already-described view, reusing its description and hub.

        Describing a view and compiling its hub and record is the
        expensive part of registration; the serving layer does it outside
        its writer lock, keeps the :class:`RegisteredView`, and indexes it
        into the next epoch's tree through this entry point.
        """
        name = view.description.name
        if name is None:
            raise ValueError("only named views can be registered")
        if name in self._registered:
            raise ValueError(f"view {name} already registered")
        aggregate = view.description.is_aggregate
        if self._use_packed:
            (self._aggregate_packed if aggregate else self._spj_packed).add(
                view
            )
            root = (
                self._aggregate_root_node if aggregate else self._spj_root_node
            )
            if root is not None:  # keep a materialized tree in sync
                root.add(view)
        else:
            (self._aggregate_root_node if aggregate else self._spj_root_node).add(
                view
            )
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
        aggregate = view.description.is_aggregate
        if self._use_packed:
            (self._aggregate_packed if aggregate else self._spj_packed).remove(
                view
            )
            root = (
                self._aggregate_root_node if aggregate else self._spj_root_node
            )
            if root is not None:
                root.remove(view)
        else:
            (
                self._aggregate_root_node if aggregate else self._spj_root_node
            ).remove(view)

    def views(self) -> tuple[RegisteredView, ...]:
        """All registered views, in registration order."""
        return tuple(self._registered.values())

    def view(self, name: str) -> RegisteredView | None:
        """The registered view under ``name`` (None when absent)."""
        return self._registered.get(name)

    def compile_probe(self, query: SpjgDescription):
        """The query's search keys in the form this tree's layout sweeps.

        Packed mode derives a :class:`_PackedProbe` from the query's
        analysis and block mask; every other configuration gets the frozenset
        :class:`QueryProbe` plus its bitmask binding (``None`` without
        interning). Trees sharing options, interner and layout -- the
        shards of a sharded tree -- can share one compiled probe.
        """
        if self._use_packed:
            return _PackedProbe(query, self.options, self.interner)
        probe = QueryProbe.of(query, self.options)
        bound = (
            _BoundProbe(probe, self.interner)
            if self.interner is not None
            else None
        )
        return probe, bound

    def collect_candidates(
        self,
        compiled,
        out: list[RegisteredView],
        include_aggregate: bool,
    ) -> None:
        """Append this tree's candidates (unsorted) for a compiled probe.

        The single entry point behind :meth:`candidates` and the sharded
        tree's per-shard fan-out: packed mode sweeps the flat subtree
        tables, every other configuration walks the recursive tree.
        """
        if self._use_packed:
            self._spj_packed.collect(compiled, out)
            if include_aggregate:
                self._aggregate_packed.collect(compiled, out)
            return
        probe, bound = compiled
        self._spj_root.search(probe, bound, out)
        if include_aggregate:
            self._aggregate_root.search(probe, bound, out)

    def candidates(self, query: SpjgDescription) -> list[RegisteredView]:
        """Views passing all filter conditions, in registration order."""
        found: list[RegisteredView] = []
        self.collect_candidates(
            self.compile_probe(query), found, query.is_aggregate
        )
        order = self._order
        found.sort(key=lambda view: order[view.description.name])
        tracer = current_tracer()
        if tracer.active:
            tracer.on_filter_tree(self, query, found)
        return found

    def clone_cow(self) -> "FilterTree":
        """An epoch clone sharing the packed arrays copy-on-write.

        The serving layer derives every epoch's tree from the previous
        epoch's this way: the clone shares the packed byte images (copied
        only if a side mutates rows) and copies the registry dictionaries
        flat, then the caller applies the registration delta. The
        recursive trees are reset to lazy -- an unregister on the clone
        must not splice nodes out of lattice structures the published
        previous epoch still serves.
        """
        if not self._use_packed:
            raise ValueError("clone_cow requires the packed layout")
        clone = FilterTree.__new__(FilterTree)
        clone.options = self.options
        clone.interner = self.interner
        clone._spj_levels = self._spj_levels
        clone._aggregate_levels = self._aggregate_levels
        clone._use_packed = True
        clone._spj_packed = self._spj_packed.snapshot()
        clone._aggregate_packed = self._aggregate_packed.snapshot()
        clone._spj_root_node = None
        clone._aggregate_root_node = None
        clone._registered = dict(self._registered)
        clone._order = dict(self._order)
        clone._next_order = self._next_order
        return clone

    def packed_tables(self) -> tuple:
        """The packed row tables backing this tree (empty unless packed).

        The serving pool exports each table's byte image into shared
        memory before forking workers; see
        :func:`repro.service.shm.export_snapshot`.
        """
        if not self._use_packed:
            return ()
        return (self._spj_packed.table, self._aggregate_packed.table)

    def lattice_node_count(self) -> int:
        """Total lattice nodes across every index of both subtrees.

        A diagnostic for register/unregister churn tests: dropping views
        must splice their nodes out of every level, so the count returns
        to its prior value after a register/unregister round trip.
        """

        def count(tree_node: _TreeNode) -> int:
            if tree_node.is_leaf:
                return 0
            total = len(tree_node.index)
            for lattice_node in tree_node.index.nodes():
                for child in lattice_node.payloads:
                    total += count(child)
            return total

        return count(self._spj_root) + count(self._aggregate_root)

    def level_attribution(
        self, query: SpjgDescription
    ) -> list[tuple[str, int, int, tuple[str, ...]]]:
        """Per-level narrowing attribution for one query (diagnostics).

        Evaluates each level's condition directly on every registered
        view's key, in tree order, and reports for every level the
        ``(name, entering, survivors, pruned_view_names)`` tuple -- which
        views each level eliminated, not just how many survived. This is
        the data behind :meth:`filter_statistics`, the rewrite-path
        tracer's filter funnel, and the experiment harness's per-level
        narrowing report. The final survivor count equals
        ``len(candidates(query))``.
        """
        probe = QueryProbe.of(query, self.options)
        spj_views = [
            v for v in self._registered.values() if not v.description.is_aggregate
        ]
        aggregate_views = (
            [v for v in self._registered.values() if v.description.is_aggregate]
            if query.is_aggregate
            else []
        )
        attribution: list[tuple[str, int, int, tuple[str, ...]]] = []
        max_depth = max(
            len(self._spj_levels), len(self._aggregate_levels)
        )
        for depth in range(max_depth):
            entering = len(spj_views) + len(aggregate_views)
            pruned: list[str] = []
            for views, levels in (
                (spj_views, self._spj_levels),
                (aggregate_views, self._aggregate_levels),
            ):
                if depth >= len(levels):
                    continue
                level = levels[depth]
                kept = []
                for view in views:
                    if level.qualifies(level.view_key(view), probe):
                        kept.append(view)
                    else:
                        pruned.append(view.name)
                views[:] = kept
            names = set()
            for levels in (self._spj_levels, self._aggregate_levels):
                if depth < len(levels):
                    names.add(levels[depth].name)
            attribution.append(
                (
                    "+".join(sorted(names)),
                    entering,
                    len(spj_views) + len(aggregate_views),
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
