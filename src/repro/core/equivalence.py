"""Column equivalence classes (Section 3.1.1 of the paper).

Built with a union-find over ``(table, column)`` keys from the column
equality predicates PE of an SPJ expression. Knowledge about column
equivalences lets later tests reroute a column reference to any column in
the same class, which is the backbone of all three subsumption tests and of
output-column mapping.

The union-find is *sparse*: it stores only the columns that took part in
an equality -- a view equates about three of the fifty columns its tables
declare. Which columns exist at all is a :class:`ColumnDomain`, built once
per referenced table set and shared by every description over that set
(:func:`repro.core.analyze.column_domain`); every other column is its own
root with rank 0, exactly as in a union-find that registered it.
"""

from __future__ import annotations

from typing import Iterable, Iterator

ColumnKey = tuple[str, str]


class ColumnDomain:
    """The columns an :class:`EquivalenceClasses` accepts, in registration order.

    ``position`` numbers the columns in the order they were registered,
    which is the order classes are enumerated in. Shared domains are never
    mutated: an ``EquivalenceClasses`` that registers a column outside its
    domain copies the domain first.
    """

    __slots__ = ("position", "_singletons")

    def __init__(self, columns: Iterable[ColumnKey] = ()) -> None:
        self.position: dict[ColumnKey, int] = {}
        # ``{column: frozenset((column,))}``, filled on first request.
        self._singletons: dict[ColumnKey, frozenset[ColumnKey]] = {}
        for column in columns:
            self.add(column)

    def add(self, column: ColumnKey) -> None:
        self.position.setdefault(column, len(self.position))

    def copy(self) -> "ColumnDomain":
        clone = ColumnDomain()
        clone.position = dict(self.position)
        return clone

    def singleton(self, column: ColumnKey) -> frozenset[ColumnKey]:
        """The one-column class of ``column`` (``KeyError`` if unknown)."""
        cls = self._singletons.get(column)
        if cls is None:
            if column not in self.position:
                raise KeyError(f"unregistered column {column}")
            cls = self._singletons.setdefault(column, frozenset((column,)))
        return cls


class EquivalenceClasses:
    """A union-find over column keys with class enumeration helpers.

    Columns must be registered (``add_column``) before equalities are
    applied; every registered column starts in its own trivial class.
    ``domain`` starts the classes over a shared :class:`ColumnDomain`
    instead of registering ``columns``.
    """

    __slots__ = ("_domain", "_shared", "_parent", "_rank", "_merged")

    def __init__(
        self,
        columns: Iterable[ColumnKey] = (),
        domain: ColumnDomain | None = None,
    ) -> None:
        self._shared = domain is not None
        self._domain = domain if domain is not None else ColumnDomain(columns)
        # Only merged columns have a parent entry (a root maps to itself)
        # and only roots of rank >= 1 a rank entry.
        self._parent: dict[ColumnKey, ColumnKey] = {}
        self._rank: dict[ColumnKey, int] = {}
        # ``{column: class}`` over the merged columns; rebuilt after a merge.
        self._merged: dict[ColumnKey, frozenset[ColumnKey]] | None = None

    def add_column(self, column: ColumnKey) -> None:
        """Register a column in its own class (no-op if already present)."""
        if column not in self._domain.position:
            if self._shared:  # copy on write
                self._domain = self._domain.copy()
                self._shared = False
            self._domain.add(column)

    def __contains__(self, column: ColumnKey) -> bool:
        return column in self._domain.position

    def __len__(self) -> int:
        return len(self._domain.position)

    def columns(self) -> Iterator[ColumnKey]:
        yield from self._domain.position

    def find(self, column: ColumnKey) -> ColumnKey:
        """Canonical representative of the column's class."""
        parent = self._parent
        root = parent.get(column)
        if root is None:
            if column in self._domain.position:
                return column
            raise KeyError(f"unregistered column {column}")
        while parent[root] != root:
            root = parent[root]
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
        rank = self._rank
        rank_a, rank_b = rank.get(root_a, 0), rank.get(root_b, 0)
        if rank_a < rank_b:
            root_a, root_b = root_b, root_a
        parent = self._parent
        parent[root_a] = root_a
        parent[root_b] = root_a
        rank.pop(root_b, None)  # never a root again
        if rank_a == rank_b:
            rank[root_a] = rank_a + 1
        self._merged = None
        return True

    def same_class(self, a: ColumnKey, b: ColumnKey) -> bool:
        return self.find(a) == self.find(b)

    def merged_classes(self) -> dict[ColumnKey, frozenset[ColumnKey]]:
        """``{column: class}`` over the columns of the non-trivial classes,
        in registration order. Memoised until the next merge: read-only."""
        merged = self._merged
        if merged is None:
            position = self._domain.position
            by_root: dict[ColumnKey, list[ColumnKey]] = {}
            for column in sorted(self._parent, key=position.__getitem__):
                by_root.setdefault(self.find(column), []).append(column)
            merged = {}
            for members in by_root.values():
                cls = frozenset(members)
                for column in members:
                    merged[column] = cls
            self._merged = merged
        return merged

    def class_of(self, column: ColumnKey) -> frozenset[ColumnKey]:
        """The column's full class: its merged class (built once per merge
        state) or the domain's shared singleton, so nothing is copied."""
        return self.merged_classes().get(column) or self._domain.singleton(
            column
        )

    def class_map(self) -> dict[ColumnKey, frozenset[ColumnKey]]:
        """Every column's full class, in registration order.

        A new domain-sized dict per call, for callers that want every
        class at once; per-column lookups use :meth:`class_of`.
        """
        class_of = self.class_of
        return {column: class_of(column) for column in self._domain.position}

    def classes(self) -> list[frozenset[ColumnKey]]:
        """All classes, including trivial single-column ones, ordered by
        each class's first registered column."""
        parent = self._parent
        by_root: dict[ColumnKey, set[ColumnKey]] = {}
        for column in self._domain.position:
            root = self.find(column) if column in parent else column
            by_root.setdefault(root, set()).add(column)
        return [frozenset(members) for members in by_root.values()]

    def nontrivial_classes(self) -> list[frozenset[ColumnKey]]:
        """The classes of two or more columns, in :meth:`classes` order."""
        position = self._domain.position
        by_root: dict[ColumnKey, set[ColumnKey]] = {}
        for column in sorted(self._parent, key=position.__getitem__):
            by_root.setdefault(self.find(column), set()).add(column)
        return [frozenset(members) for members in by_root.values()]

    def is_trivial(self, column: ColumnKey) -> bool:
        """True when the column's class contains only itself."""
        if column in self._parent:
            return False
        if column not in self._domain.position:
            raise KeyError(f"unregistered column {column}")
        return True

    def copy(self) -> "EquivalenceClasses":
        """An independent copy; both sides share the domain until either
        registers a column outside it."""
        clone = EquivalenceClasses.__new__(EquivalenceClasses)
        clone._domain = self._domain
        clone._shared = self._shared = True
        clone._parent = dict(self._parent)
        clone._rank = dict(self._rank)
        clone._merged = self._merged  # replaced, never mutated, on a merge
        return clone

    def over(self, domain: ColumnDomain) -> "EquivalenceClasses":
        """A copy of these classes over a shared ``domain`` that holds all
        of this one's columns and more: every ``find`` agrees, and the
        columns new to ``domain`` start in trivial classes."""
        clone = self.copy()
        clone._domain = domain
        return clone

    def refines(self, coarser: "EquivalenceClasses") -> bool:
        """True when every class of *self* is a subset of a class of ``coarser``.

        This is exactly the equijoin subsumption test with ``self`` as the
        view classes and ``coarser`` as the query classes, restricted to the
        columns present in both: every merged column must share its
        representative's class in ``coarser``.
        """
        for column in self._parent:
            root = self.find(column)
            if column == root:
                continue
            if column not in coarser or root not in coarser:
                return False
            if not coarser.same_class(column, root):
                return False
        return True
