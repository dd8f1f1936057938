"""The recursive lattice filter tree, kept as the packed sweep's oracle.

The paper's filter tree (Section 4) partitions the views level by level,
one condition per level, and organises the keys of each node in a lattice
index (Section 4.1) so a search skips non-qualifying partitions
wholesale. The shipped index evaluates every level as one fused
conjunction over packed rows (``repro.core.filtertree``); this module is
the level-by-level walk it replaced, in plain frozenset form: keys are
frozensets of tagged atoms, probes are :class:`QueryProbe` s compiled by
:meth:`QueryProbe.of_reference` (the probe pipeline from before any
fusion, kept here as the packed probe's second oracle), and every search
walks the Hasse diagram.

:class:`ReferenceFilterTree` has enough of ``FilterTree``'s surface
(``register``, ``register_prebuilt``, ``unregister``, ``views``,
``view``, ``candidates``, ``level_attribution``) for
``ViewMatcher.with_filter_tree`` and the optimizer to run on it, and
takes custom level orders (Section 4.3: the conditions "are independent
and can be composed in any order").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.core.analyze import normalized_aggregate_template
from repro.core.describe import SpjgDescription
from repro.core.equivalence import ColumnKey
from repro.core.filtertree import (
    RegisteredView,
    _columns_key,
    _tables_key,
    _templates_key,
)
from repro.core.interning import KeyInterner
from repro.core.intervalsets import as_or_range
from repro.core.normalize import classify_predicate
from repro.core.options import DEFAULT_OPTIONS, MatchOptions
from repro.core.residual import ShallowForm
from repro.sql.expressions import ColumnRef, Expression, FuncCall, Literal

Key = frozenset


# ---------------------------------------------------------------------------
# The reference probe
# ---------------------------------------------------------------------------


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


@dataclass
class QueryProbe:
    """The query-side search keys as frozenset keys: what the lattice
    walk's levels consume."""

    tables: Key
    output_requirements: tuple[OutputRequirement, ...]
    residual_templates: Key
    range_constrained_columns: Key
    aggregate_templates: Key
    grouping_templates: Key
    grouping_requirements: tuple[OutputRequirement, ...]
    is_aggregate: bool

    @classmethod
    def of_reference(
        cls,
        query: SpjgDescription,
        options: MatchOptions = DEFAULT_OPTIONS,
    ) -> "QueryProbe":
        """The probe pipeline from before any fusion.

        Recomputes every derived set from first principles -- per-call
        ``class_of`` scans, shallow-form rederivation, a fresh catalog
        check-constraint walk -- with none of the shipped probe's shared
        analysis, so the parity tests compare two independent
        derivations.
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




def _class_of_reference(
    query: SpjgDescription, key: ColumnKey
) -> frozenset[ColumnKey]:
    """``key``'s class by a scan of every registered column.

    How ``class_of`` answered before the equivalence classes kept a class
    map: a per-call rescan, independent of the map the shipped probe
    reads.
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
# The lattice index (Section 4.1)
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class LatticeNode:
    """One stored key set with its payloads and Hasse-diagram neighbours.

    Nodes compare and hash by identity: the searches keep visited sets of
    nodes, and structural equality over the cyclic neighbour lists would
    be meaningless anyway.
    """

    key: Key
    order_key: Key
    payloads: list = field(default_factory=list)
    supersets: list["LatticeNode"] = field(default_factory=list)
    subsets: list["LatticeNode"] = field(default_factory=list)

    def __repr__(self) -> str:
        return f"<LatticeNode {sorted(map(str, self.key))}>"


class LatticeIndex:
    """A lattice-ordered index from key sets to payload lists.

    Every node points to its minimal proper supersets and maximal proper
    subsets; ``tops`` have no supersets and ``roots`` no subsets. Two
    generalisations over the paper, both needed by the levels: each node
    carries a payload list, and the partial order may be computed on a
    ``projection`` of the key (the range-constraint level orders by the
    reduced constraint list, Section 4.2.5).
    """

    def __init__(self, projection: Callable[[Key], Key] | None = None):
        self._projection = projection or (lambda key: key)
        self._nodes: dict[Key, LatticeNode] = {}
        self.tops: list[LatticeNode] = []
        self.roots: list[LatticeNode] = []

    def __len__(self) -> int:
        return len(self._nodes)

    def node(self, key: Key) -> LatticeNode | None:
        """The node stored under exactly ``key``, if any."""
        return self._nodes.get(key)

    # -- maintenance ---------------------------------------------------------

    def insert(self, key: Key, payload) -> LatticeNode:
        """Add a payload under ``key``, creating and linking a node if new."""
        existing = self._nodes.get(key)
        if existing is not None:
            existing.payloads.append(payload)
            return existing
        node = LatticeNode(key=key, order_key=self._projection(key))
        node.payloads.append(payload)
        order_key = node.order_key
        others = self._nodes.values()
        parents = _minimal([o for o in others if order_key < o.order_key])
        children = _maximal([o for o in others if o.order_key < order_key])
        # A direct parent-child edge the new node now sits between is
        # replaced by the two edges through the new node.
        for parent in parents:
            for child in children:
                if child in parent.subsets:
                    parent.subsets.remove(child)
                    child.supersets.remove(parent)
        for parent in parents:
            parent.subsets.append(node)
            node.supersets.append(parent)
        for child in children:
            child.supersets.append(node)
            node.subsets.append(child)
        if not parents:
            self.tops.append(node)
        if not children:
            self.roots.append(node)
        self.tops = [t for t in self.tops if not t.supersets]
        self.roots = [r for r in self.roots if not r.subsets]
        self._nodes[key] = node
        return node

    def remove_payload(self, key: Key, payload) -> None:
        """Remove one payload; the node is unlinked when its list empties."""
        node = self._nodes.get(key)
        if node is None:
            raise KeyError(f"no node for key {sorted(map(str, key))}")
        node.payloads.remove(payload)
        if node.payloads:
            return
        del self._nodes[key]
        # Splice the node out: its parents adopt its children when no other
        # path exists between them.
        for parent in node.supersets:
            parent.subsets.remove(node)
        for child in node.subsets:
            child.supersets.remove(node)
        for parent in node.supersets:
            for child in node.subsets:
                if not _reachable_downward(parent, child):
                    parent.subsets.append(child)
                    child.supersets.append(parent)
        if node in self.tops:
            self.tops.remove(node)
            self.tops.extend(c for c in node.subsets if not c.supersets)
        if node in self.roots:
            self.roots.remove(node)
            self.roots.extend(p for p in node.supersets if not p.subsets)

    # -- searches ------------------------------------------------------------

    def subsets_of(self, search_key: Key) -> list[LatticeNode]:
        """Nodes whose order key is a subset of (or equal to) ``search_key``:
        up from the roots, pruning a node's supersets once it fails."""
        return _walk(
            [r for r in self.roots if r.order_key <= search_key],
            lambda node: node.supersets,
            lambda node: node.order_key <= search_key,
        )

    def supersets_of(self, search_key: Key) -> list[LatticeNode]:
        """Nodes whose order key is a superset of (or equal to)
        ``search_key``: down from the tops, pruning a failing node's
        subsets."""
        return _walk(
            [t for t in self.tops if t.order_key >= search_key],
            lambda node: node.subsets,
            lambda node: node.order_key >= search_key,
        )

    def descend_monotone(
        self, qualify: Callable[[Key], bool]
    ) -> list[LatticeNode]:
        """Nodes satisfying an upward-closed condition on the key: down from
        the tops, pruning a failing node's whole down-set (Sections 4.2.3 /
        4.2.4)."""
        found = []
        seen = set(self.tops)
        stack = [top for top in self.tops if qualify(top.key)]
        while stack:
            node = stack.pop()
            found.append(node)
            for child in node.subsets:
                if child not in seen:
                    seen.add(child)
                    if qualify(child.key):
                        stack.append(child)
        return found

    def ascend_weak(
        self,
        weak_qualify: Callable[[Key], bool],
        qualify: Callable[[Key], bool],
    ) -> list[LatticeNode]:
        """The range-constraint search (Section 4.2.5).

        ``weak_qualify``, on the order key and downward-closed, prunes the
        ascent from the roots; ``qualify``, the full condition on the
        identity key, selects what is returned without pruning.
        """
        found = []
        seen = set(self.roots)
        stack = [root for root in self.roots if weak_qualify(root.order_key)]
        while stack:
            node = stack.pop()
            if qualify(node.key):
                found.append(node)
            for parent in node.supersets:
                if parent not in seen:
                    seen.add(parent)
                    if weak_qualify(parent.order_key):
                        stack.append(parent)
        return found


def _walk(start, neighbours, keep) -> list[LatticeNode]:
    found = []
    seen = set()
    stack = list(start)
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        found.append(node)
        for other in neighbours(node):
            if other not in seen and keep(other):
                stack.append(other)
    return found


def _minimal(nodes: list[LatticeNode]) -> list[LatticeNode]:
    """Nodes with no other node's order key strictly below theirs."""
    return [
        a
        for a in nodes
        if not any(b.order_key < a.order_key for b in nodes if b is not a)
    ]


def _maximal(nodes: list[LatticeNode]) -> list[LatticeNode]:
    return [
        a
        for a in nodes
        if not any(b.order_key > a.order_key for b in nodes if b is not a)
    ]


def _reachable_downward(start: LatticeNode, target: LatticeNode) -> bool:
    """True when ``target`` is reachable from ``start`` via subset pointers."""
    stack = list(start.subsets)
    seen: set[LatticeNode] = set()
    while stack:
        node = stack.pop()
        if node is target:
            return True
        if node in seen:
            continue
        seen.add(node)
        if target.order_key < node.order_key:
            stack.extend(node.subsets)
    return False


# ---------------------------------------------------------------------------
# Levels (Section 4.2)
# ---------------------------------------------------------------------------


class _Level:
    """One partitioning condition: a view key and a lattice search."""

    name = "level"

    def view_key(self, description: SpjgDescription, hub: frozenset) -> Key:
        raise NotImplementedError

    def projection(self, key: Key) -> Key:
        return key

    def search(self, index: LatticeIndex, probe: QueryProbe) -> list:
        raise NotImplementedError

    def qualifies(self, key: Key, probe: QueryProbe) -> bool:
        """The level's condition on one key: exactly the keys
        :meth:`search` returns."""
        raise NotImplementedError


class HubLevel(_Level):
    """Section 4.2.2: the view's hub must be a subset of the query tables."""

    name = "hub"

    def view_key(self, description, hub) -> Key:
        return _tables_key(hub)

    def search(self, index, probe) -> list:
        return index.subsets_of(probe.tables)

    def qualifies(self, key, probe) -> bool:
        return key <= probe.tables


class SourceTableLevel(_Level):
    """Section 4.2.1: the view's tables must be a superset of the query's."""

    name = "source-tables"

    def view_key(self, description, hub) -> Key:
        return _tables_key(description.tables)

    def search(self, index, probe) -> list:
        return index.supersets_of(probe.tables)

    def qualifies(self, key, probe) -> bool:
        return key >= probe.tables


class OutputExpressionLevel(_Level):
    """Section 4.2.7, aggregation subtree: textual aggregate containment."""

    name = "output-expressions"

    def view_key(self, description, hub) -> Key:
        return _templates_key(description.output_templates())

    def search(self, index, probe) -> list:
        return index.supersets_of(probe.aggregate_templates)

    def qualifies(self, key, probe) -> bool:
        return key >= probe.aggregate_templates


class OutputColumnLevel(_Level):
    """Sections 4.2.3/4.2.7 merged: per-item output availability."""

    name = "output-columns"

    def view_key(self, description, hub) -> Key:
        return _columns_key(description.extended_output_columns()) | (
            _templates_key(description.output_templates())
        )

    def search(self, index, probe) -> list:
        return index.descend_monotone(lambda key: self.qualifies(key, probe))

    def qualifies(self, key, probe) -> bool:
        return all(req.satisfied(key) for req in probe.output_requirements)


class ResidualLevel(_Level):
    """Section 4.2.6: view residual templates within the query's."""

    name = "residual"

    def view_key(self, description, hub) -> Key:
        return _templates_key(description.residual_templates())

    def search(self, index, probe) -> list:
        return index.subsets_of(probe.residual_templates)

    def qualifies(self, key, probe) -> bool:
        return key <= probe.residual_templates


class RangeConstraintLevel(_Level):
    """Section 4.2.5: view-constrained classes hit query-constrained columns.

    The identity key is the full constraint-class list; the lattice order
    uses the reduced list (trivial-class columns only), exactly the
    paper's weak-condition construction.
    """

    name = "range-constraints"

    def view_key(self, description, hub) -> Key:
        return frozenset(
            _columns_key(cls) for cls in description.range_constrained_classes()
        )

    def projection(self, key: Key) -> Key:
        reduced: set = set()
        for cls in key:
            if len(cls) == 1:
                reduced.update(cls)
        return frozenset(reduced)

    def search(self, index, probe) -> list:
        constrained = probe.range_constrained_columns
        return index.ascend_weak(
            lambda order_key: order_key <= constrained,
            lambda key: self.qualifies(key, probe),
        )

    def qualifies(self, key, probe) -> bool:
        return all(cls & probe.range_constrained_columns for cls in key)


class GroupingExpressionLevel(_Level):
    """Section 4.2.8, aggregation subtree only."""

    name = "grouping-expressions"

    def view_key(self, description, hub) -> Key:
        return _templates_key(description.grouping_templates())

    def search(self, index, probe) -> list:
        return index.supersets_of(probe.grouping_templates)

    def qualifies(self, key, probe) -> bool:
        return key >= probe.grouping_templates


class GroupingColumnLevel(_Level):
    """Section 4.2.4, aggregation subtree only."""

    name = "grouping-columns"

    def view_key(self, description, hub) -> Key:
        return _columns_key(description.extended_grouping_columns()) | (
            _templates_key(description.grouping_templates())
        )

    def search(self, index, probe) -> list:
        return index.descend_monotone(lambda key: self.qualifies(key, probe))

    def qualifies(self, key, probe) -> bool:
        return all(req.satisfied(key) for req in probe.grouping_requirements)


SPJ_LEVELS: tuple[_Level, ...] = (
    HubLevel(),
    SourceTableLevel(),
    OutputColumnLevel(),
    ResidualLevel(),
    RangeConstraintLevel(),
)

AGGREGATE_LEVELS: tuple[_Level, ...] = (
    SPJ_LEVELS[0],
    SPJ_LEVELS[1],
    OutputExpressionLevel(),
    SPJ_LEVELS[2],
    SPJ_LEVELS[3],
    SPJ_LEVELS[4],
    GroupingExpressionLevel(),
    GroupingColumnLevel(),
)


# ---------------------------------------------------------------------------
# The tree
# ---------------------------------------------------------------------------


@dataclass
class _TreeNode:
    """An internal node: one lattice index whose payloads are child nodes;
    a leaf holds views."""

    levels: tuple[_Level, ...]
    depth: int
    index: LatticeIndex = field(init=False)
    views: list[RegisteredView] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.is_leaf = self.depth >= len(self.levels)
        if not self.is_leaf:
            self.index = LatticeIndex(self.levels[self.depth].projection)

    def add(self, view: RegisteredView, keys: dict) -> None:
        """Insert ``view`` under its per-level ``keys``."""
        if self.is_leaf:
            self.views.append(view)
            return
        key = keys[self.levels[self.depth].name]
        node = self.index.node(key)
        if node is None:
            child = _TreeNode(self.levels, self.depth + 1)
            self.index.insert(key, child)
        else:
            child = node.payloads[0]
        child.add(view, keys)

    def remove(self, view: RegisteredView, keys: dict) -> None:
        if self.is_leaf:
            self.views.remove(view)
            return
        key = keys[self.levels[self.depth].name]
        child: _TreeNode = self.index.node(key).payloads[0]
        child.remove(view, keys)
        if child.is_empty():
            self.index.remove_payload(key, child)

    def is_empty(self) -> bool:
        return not self.views if self.is_leaf else len(self.index) == 0

    def search(self, probe: QueryProbe, out: list[RegisteredView]) -> None:
        """Collect every view under this node passing all remaining levels."""
        stack = [self]
        while stack:
            tree_node = stack.pop()
            if tree_node.is_leaf:
                out.extend(tree_node.views)
                continue
            level = tree_node.levels[tree_node.depth]
            for node in level.search(tree_node.index, probe):
                stack.extend(node.payloads)


class ReferenceFilterTree:
    """The level-by-level lattice walk over registered views.

    Keeps, per view, the key of every level (computed once from its
    description) and answers :meth:`candidates` by walking the SPJ
    subtree and, for an aggregation query, the aggregation subtree.
    """

    def __init__(
        self,
        options: MatchOptions = DEFAULT_OPTIONS,
        spj_levels: tuple[_Level, ...] | None = None,
        aggregate_levels: tuple[_Level, ...] | None = None,
    ):
        self.options = options
        # Only for :meth:`RegisteredView.of`: the walk never reads a row.
        self.interner = KeyInterner()
        self._spj_levels = spj_levels or SPJ_LEVELS
        self._aggregate_levels = aggregate_levels or AGGREGATE_LEVELS
        self._spj_root = _TreeNode(self._spj_levels, 0)
        self._aggregate_root = _TreeNode(self._aggregate_levels, 0)
        self._registered: dict[str, tuple[RegisteredView, dict]] = {}
        self._order: dict[str, int] = {}
        self._next_order = 0

    def __len__(self) -> int:
        return len(self._registered)

    def register(self, description: SpjgDescription) -> RegisteredView:
        view = RegisteredView.of(description, self.options, self.interner)
        return self.register_prebuilt(view, description)

    def register_prebuilt(
        self,
        view: RegisteredView,
        description: SpjgDescription | None = None,
    ) -> RegisteredView:
        """Index ``view`` by the keys of ``description`` (by default its
        re-derived one)."""
        if view.name in self._registered:
            raise ValueError(f"view {view.name} already registered")
        if description is None:
            description = view.description
        keys = {
            level.name: level.view_key(description, view.hub)
            for level in {*self._spj_levels, *self._aggregate_levels}
        }
        self._root(view).add(view, keys)
        self._registered[view.name] = (view, keys)
        self._order[view.name] = self._next_order
        self._next_order += 1
        return view

    def unregister(self, name: str) -> None:
        view, keys = self._registered.pop(name)
        del self._order[name]
        self._root(view).remove(view, keys)

    def _root(self, view: RegisteredView) -> _TreeNode:
        return self._aggregate_root if view.record.aggregate else self._spj_root

    def views(self) -> tuple[RegisteredView, ...]:
        return tuple(view for view, _ in self._registered.values())

    def view(self, name: str) -> RegisteredView | None:
        entry = self._registered.get(name)
        return None if entry is None else entry[0]

    def candidates(self, query: SpjgDescription) -> list[RegisteredView]:
        """Views passing every level, in registration order."""
        probe = QueryProbe.of_reference(query, self.options)
        found: list[RegisteredView] = []
        self._spj_root.search(probe, found)
        if query.is_aggregate:
            self._aggregate_root.search(probe, found)
        order = self._order
        found.sort(key=lambda view: order[view.name])
        return found

    def level_attribution(
        self, query: SpjgDescription
    ) -> list[tuple[str, int, int, tuple[str, ...]]]:
        """``(name, entering, survivors, pruned names)`` per level depth,
        each level's :meth:`_Level.qualifies` applied to every view's key
        in level order; a depth's name joins the two subtrees' level
        names there."""
        probe = QueryProbe.of_reference(query, self.options)
        subtrees = [(False, self._spj_levels)]
        if query.is_aggregate:
            subtrees.append((True, self._aggregate_levels))
        current = [
            [
                (view, keys)
                for view, keys in self._registered.values()
                if view.record.aggregate == aggregate
            ]
            for aggregate, _ in subtrees
        ]
        attribution = []
        for depth in range(
            max(len(self._spj_levels), len(self._aggregate_levels))
        ):
            before = sum(map(len, current))
            pruned: list[str] = []
            for index, (_, levels) in enumerate(subtrees):
                if depth >= len(levels):
                    continue
                level = levels[depth]
                kept = []
                for view, keys in current[index]:
                    if level.qualifies(keys[level.name], probe):
                        kept.append((view, keys))
                    else:
                        pruned.append(view.name)
                current[index] = kept
            names = {
                levels[depth].name
                for levels in (self._spj_levels, self._aggregate_levels)
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
