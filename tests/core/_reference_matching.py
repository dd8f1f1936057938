"""The view-class walk ``repro.core.matching._equality_partitions`` replaced,
kept as its oracle.

This version visits every class of the view -- about fifty singletons per
view over the TPC-H schema, one ``find`` each -- although only the view
classes that one query class merges can form a partition.
``test_equality_partitions`` requires the query-class walk to return the
same lists, in the same order. The code below is unchanged except for
this docstring and the imports.
"""

from __future__ import annotations

from repro.core.describe import SpjgDescription
from repro.core.equivalence import ColumnKey, EquivalenceClasses


def _equality_partitions(
    view: SpjgDescription, augmented: EquivalenceClasses
) -> list[list[frozenset[ColumnKey]]]:
    """Group view equivalence classes by the query class they map into.

    Each returned partition lists the view classes falling into one query
    class; partitions of size >= 2 need len-1 compensating column-equality
    predicates to merge them (Section 3.1.2, equijoin subsumption).
    """
    by_query_root: dict[ColumnKey, dict[ColumnKey, frozenset[ColumnKey]]] = {}
    for view_class in view.eqclasses.classes():
        member = next(iter(view_class))
        if member not in augmented:
            continue
        query_root = augmented.find(member)
        view_root = view.eqclasses.find(member)
        by_query_root.setdefault(query_root, {})[view_root] = view_class
    return [
        sorted(partitions.values(), key=lambda cls: sorted(cls))
        for partitions in by_query_root.values()
        if len(partitions) > 1
    ]
