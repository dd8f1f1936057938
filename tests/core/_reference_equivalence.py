"""The dense union-find ``repro.core.equivalence`` replaced, kept as its oracle.

This is the implementation every description carried before the sparse
classes: ``_parent`` and ``_rank`` hold an entry for every registered
column, so each copy duplicates two dicts the size of the column domain.
``test_equivalence_parity`` requires the sparse classes to agree with it
on every observable -- representatives, class enumeration order, class
maps, refinement, copies and error messages. The code below is unchanged
except for this docstring.
"""

from __future__ import annotations

from typing import Iterable, Iterator

ColumnKey = tuple[str, str]


class EquivalenceClasses:
    """A union-find over column keys with class enumeration helpers.

    Columns must be registered (``add_column``) before equalities are
    applied; every registered column starts in its own trivial class.
    """

    def __init__(self, columns: Iterable[ColumnKey] = ()) -> None:
        self._parent: dict[ColumnKey, ColumnKey] = {}
        self._rank: dict[ColumnKey, int] = {}
        self._class_map: dict[ColumnKey, frozenset[ColumnKey]] | None = None
        # ``{column: frozenset((column,))}`` over exactly ``_parent``'s
        # columns, shared read-only between an instance and its copies.
        self._singletons: dict[ColumnKey, frozenset[ColumnKey]] | None = None
        for column in columns:
            self.add_column(column)

    def add_column(self, column: ColumnKey) -> None:
        """Register a column in its own class (no-op if already present)."""
        if column not in self._parent:
            self._parent[column] = column
            self._rank[column] = 0
            self._class_map = None
            self._singletons = None

    def __contains__(self, column: ColumnKey) -> bool:
        return column in self._parent

    def __len__(self) -> int:
        return len(self._parent)

    def columns(self) -> Iterator[ColumnKey]:
        yield from self._parent

    def find(self, column: ColumnKey) -> ColumnKey:
        """Canonical representative of the column's class."""
        parent = self._parent
        root = column
        try:
            while parent[root] != root:
                root = parent[root]
        except KeyError:
            raise KeyError(f"unregistered column {column}") from None
        # Path compression.
        while parent[column] != root:
            parent[column], column = root, parent[column]
        return root

    def add_equality(self, a: ColumnKey, b: ColumnKey) -> bool:
        """Merge the classes of ``a`` and ``b``; True if a merge happened."""
        self.add_column(a)
        self.add_column(b)
        root_a, root_b = self.find(a), self.find(b)
        if root_a == root_b:
            return False
        if self._rank[root_a] < self._rank[root_b]:
            root_a, root_b = root_b, root_a
        self._parent[root_b] = root_a
        if self._rank[root_a] == self._rank[root_b]:
            self._rank[root_a] += 1
        self._class_map = None
        return True

    def same_class(self, a: ColumnKey, b: ColumnKey) -> bool:
        return self.find(a) == self.find(b)

    def class_of(self, column: ColumnKey) -> frozenset[ColumnKey]:
        root = self.find(column)
        return frozenset(c for c in self._parent if self.find(c) == root)

    def class_map(self) -> dict[ColumnKey, frozenset[ColumnKey]]:
        """Every column's full class, as one memoized dict.

        ``class_of`` rescans all registered columns per call, which makes
        the per-output/per-grouping lookups of probe compilation
        quadratic. This builds the column-to-class mapping once (one
        linear grouping pass) and caches it until the next mutation;
        callers must not mutate the returned dict.
        """
        mapping = self._class_map
        if mapping is None:
            rank = self._rank
            singletons = self._singletons
            mapping = {} if singletons is None else dict(singletons)
            by_root: dict[ColumnKey, list[ColumnKey]] = {}
            for column, up in self._parent.items():
                if up == column and not rank[column]:
                    # A rank-0 root never had a tree attached (a merge
                    # leaves its surviving root at rank >= 1): the
                    # column is alone, no ``find`` needed.
                    if singletons is None:
                        mapping[column] = frozenset((column,))
                else:
                    by_root.setdefault(self.find(column), []).append(column)
            for members in by_root.values():
                cls = frozenset(members)
                for column in members:
                    mapping[column] = cls
            self._class_map = mapping
        return mapping

    def classes(self) -> list[frozenset[ColumnKey]]:
        """All classes, including trivial single-column ones."""
        by_root: dict[ColumnKey, set[ColumnKey]] = {}
        for column in self._parent:
            by_root.setdefault(self.find(column), set()).add(column)
        return [frozenset(members) for members in by_root.values()]

    def nontrivial_classes(self) -> list[frozenset[ColumnKey]]:
        return [cls for cls in self.classes() if len(cls) > 1]

    def is_trivial(self, column: ColumnKey) -> bool:
        """True when the column's class contains only itself."""
        root = self.find(column)
        return all(
            self.find(other) != root for other in self._parent if other != column
        )

    def copy(self) -> "EquivalenceClasses":
        """An independent copy; the singleton classes both sides' class
        maps start from are built once here and shared."""
        if self._singletons is None:
            self._singletons = {
                column: frozenset((column,)) for column in self._parent
            }
        clone = EquivalenceClasses()
        clone._parent = dict(self._parent)
        clone._rank = dict(self._rank)
        clone._singletons = self._singletons
        return clone

    def refines(self, coarser: "EquivalenceClasses") -> bool:
        """True when every class of *self* is a subset of a class of ``coarser``.

        This is exactly the equijoin subsumption test with ``self`` as the
        view classes and ``coarser`` as the query classes, restricted to the
        columns present in both.
        """
        for cls in self.nontrivial_classes():
            members = iter(cls)
            first = next(members)
            if first not in coarser:
                return False
            for other in members:
                if other not in coarser or not coarser.same_class(first, other):
                    return False
        return True
