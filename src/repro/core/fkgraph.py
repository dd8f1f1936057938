"""The foreign-key join graph: cardinality-preserving join elimination.

Section 3.2 of the paper: a view may reference tables the query does not,
provided the extra tables are joined in through *cardinality-preserving*
joins -- equijoins between all columns of a non-null foreign key and a
unique key of the referenced table. The graph has an edge ``Ti -> Tj`` for
every such join implied (directly or transitively, via equivalence classes)
by the view's predicate, and elimination repeatedly deletes nodes with no
outgoing edges and exactly one incoming edge.

The same machinery, run to a fixpoint over *all* tables, yields the view's
**hub** (Section 4.2.2), the smallest table set the view can be reduced to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .analyze import intern_tables
from .equivalence import ColumnKey, EquivalenceClasses
from .options import DEFAULT_OPTIONS, MatchOptions

if TYPE_CHECKING:
    from ..catalog.catalog import Catalog
    from .describe import SpjgDescription


@dataclass(frozen=True)
class FkEdge:
    """A cardinality-preserving join: ``source`` extends itself with ``target``.

    ``column_pairs`` lists the (source column, target column) equijoins that
    realise the foreign key.
    """

    source: str
    target: str
    column_pairs: tuple[tuple[ColumnKey, ColumnKey], ...]
    nullable: bool = False  # True when allowed only via null-rejection


def build_fk_join_graph(
    tables: frozenset[str],
    eqclasses: EquivalenceClasses,
    catalog: "Catalog",
    options: MatchOptions = DEFAULT_OPTIONS,
) -> list[FkEdge]:
    """All cardinality-preserving edges among ``tables`` under ``eqclasses``.

    An edge ``child -> parent`` exists when the child table declares a
    foreign key to the parent, the parent columns form a unique key (the
    catalog guarantees this), every FK column is non-nullable (unless the
    null-rejection extension is enabled, in which case the edge is emitted
    flagged ``nullable`` for the matcher to re-verify against the query),
    and each FK column is in the same equivalence class as its parent
    column -- i.e. the view really performs the join, possibly transitively.
    """
    edges: list[FkEdge] = []
    for child in sorted(tables):
        child_table = catalog.table(child)
        for fk in child_table.foreign_keys:
            if fk.parent_table not in tables or fk.parent_table == child:
                continue
            has_nullable = any(
                child_table.is_nullable(column) for column in fk.columns
            )
            if has_nullable and not options.allow_null_rejecting_fk:
                continue
            pairs: list[tuple[ColumnKey, ColumnKey]] = []
            joined = True
            for fk_column, parent_column in zip(fk.columns, fk.parent_columns):
                child_key: ColumnKey = (child, fk_column)
                parent_key: ColumnKey = (fk.parent_table, parent_column)
                if child_key not in eqclasses or parent_key not in eqclasses:
                    joined = False
                    break
                if not eqclasses.same_class(child_key, parent_key):
                    joined = False
                    break
                pairs.append((child_key, parent_key))
            if joined:
                edges.append(
                    FkEdge(
                        source=child,
                        target=fk.parent_table,
                        column_pairs=tuple(pairs),
                        nullable=has_nullable,
                    )
                )
    return edges


@dataclass
class EliminationResult:
    """Outcome of the node-deletion loop."""

    remaining: frozenset[str]
    deleted: tuple[str, ...]
    used_edges: tuple[FkEdge, ...]

    def eliminated_all(self, targets: frozenset[str]) -> bool:
        return not (targets & self.remaining)


def eliminate_tables(
    tables: frozenset[str],
    edges: list[FkEdge],
    removable: frozenset[str],
) -> EliminationResult:
    """Run the deletion loop of Section 3.2.

    Repeatedly delete any node in ``removable`` that has no outgoing edges
    and exactly one incoming edge (logically performing that join); record
    the edge used. Stops when no node qualifies.
    """
    outgoing: dict[str, set[int]] = {t: set() for t in tables}
    incoming: dict[str, set[int]] = {t: set() for t in tables}
    for i, edge in enumerate(edges):
        outgoing[edge.source].add(i)
        incoming[edge.target].add(i)

    alive = set(tables)
    deleted: list[str] = []
    used: list[FkEdge] = []
    changed = True
    while changed:
        changed = False
        # Deterministic order keeps results reproducible across runs.
        for node in sorted(alive):
            if node not in removable:
                continue
            if outgoing[node]:
                continue
            if len(incoming[node]) != 1:
                continue
            (edge_index,) = incoming[node]
            edge = edges[edge_index]
            used.append(edge)
            deleted.append(node)
            alive.remove(node)
            outgoing[edge.source].discard(edge_index)
            # Remove every edge incident to the deleted node.
            for i, other in enumerate(edges):
                if other.target == node:
                    outgoing[other.source].discard(i)
                if other.source == node:
                    incoming[other.target].discard(i)
            incoming[node].clear()
            changed = True
            break
    return EliminationResult(
        remaining=frozenset(alive), deleted=tuple(deleted), used_edges=tuple(used)
    )


def compute_hub(
    description: "SpjgDescription",
    options: MatchOptions = DEFAULT_OPTIONS,
) -> frozenset[str]:
    """The view's hub: what remains after eliminating everything possible.

    With the Section 4.2.2 refinement enabled, a table whose trivial-class
    column carries a range or residual predicate is pinned in the hub: such
    a predicate can only be subsumed when the query itself references the
    table (see the paper's argument), so keeping the table prunes more views
    without losing completeness.
    """
    edges = build_fk_join_graph(
        description.tables, description.eqclasses, description.catalog, options
    )
    return hub_over(description, edges, options)


def hub_over(
    description: "SpjgDescription",
    edges: list[FkEdge],
    options: MatchOptions = DEFAULT_OPTIONS,
) -> frozenset[str]:
    """:func:`compute_hub` over the view's join graph ``edges`` (what
    :func:`build_fk_join_graph` returns for it), when the caller has it."""
    removable = set(description.tables)
    if options.effective_hub_refinement:
        eqclasses = description.eqclasses
        for column in description.columns_with_predicates():
            if column in eqclasses and eqclasses.is_trivial(column):
                removable.discard(column[0])
    result = eliminate_tables(description.tables, edges, frozenset(removable))
    return intern_tables(description.catalog, result.remaining)
