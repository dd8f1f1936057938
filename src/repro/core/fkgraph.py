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
from .parts import shared_parts

if TYPE_CHECKING:
    from ..catalog.catalog import Catalog
    from .describe import SpjgDescription


@dataclass(frozen=True, slots=True)
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
) -> list[FkEdge]:
    """All cardinality-preserving edges among ``tables`` under ``eqclasses``.

    An edge ``child -> parent`` exists when the child table declares a
    foreign key to the parent, the parent columns form a unique key (the
    catalog guarantees this), and each FK column is in the same equivalence
    class as its parent column -- i.e. the view really performs the join,
    possibly transitively.
    An edge over a nullable FK column is flagged ``nullable``: it preserves
    cardinality only for the rows a null-rejecting query predicate keeps
    (end of Section 3.2), which the matcher verifies per query. Edges and
    their column pairs are the catalog's shared ones
    (:class:`~repro.core.parts.SharedParts`).
    """
    parts = shared_parts(catalog)
    edges: list[FkEdge] = []
    for child in sorted(tables):
        child_table = catalog.table(child)
        for fk in child_table.foreign_keys:
            if fk.parent_table not in tables or fk.parent_table == child:
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
                pairs.append(parts.pair(child_key, parent_key))
            if joined:
                edges.append(
                    parts.edge(
                        FkEdge(
                            source=child,
                            target=fk.parent_table,
                            column_pairs=tuple(pairs),
                            nullable=any(
                                child_table.is_nullable(column)
                                for column in fk.columns
                            ),
                        )
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


def compute_hub(description: "SpjgDescription") -> frozenset[str]:
    """The view's hub: what remains after eliminating everything possible.

    The Section 4.2.2 refinement pins a table in the hub when a
    trivial-class column of it carries a range or residual predicate: such
    a predicate can only be subsumed when the query itself references the
    table (see the paper's argument), so keeping the table prunes more views
    without losing completeness. A table that declares a check constraint
    is never pinned: its check joins the implication antecedent and can
    imply the predicate without the query referencing the table.
    """
    edges = build_fk_join_graph(
        description.tables, description.eqclasses, description.catalog
    )
    return hub_over(description, edges)


def hub_over(description: "SpjgDescription", edges: list[FkEdge]) -> frozenset[str]:
    """:func:`compute_hub` over the view's join graph ``edges`` (what
    :func:`build_fk_join_graph` returns for it), when the caller has it."""
    removable = set(description.tables)
    eqclasses = description.eqclasses
    table = description.catalog.table
    for column in description.columns_with_predicates():
        if (
            column in eqclasses
            and eqclasses.is_trivial(column)
            and not table(column[0]).check_constraints
        ):
            removable.discard(column[0])
    result = eliminate_tables(description.tables, edges, frozenset(removable))
    return intern_tables(description.catalog, result.remaining)
