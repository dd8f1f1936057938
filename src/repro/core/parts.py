"""The parts of view records that the schema bounds: one table per catalog.

A registered view keeps its :class:`~repro.core.matching.ViewRecord` for
as long as it is registered (the paper's in-memory view descriptions,
Section 4), and much of a record is made of the schema alone: the
``(column,)`` key of a grouping column, the column pair of a join, the
foreign-key edges the view joins through and the check constraints of
its tables. Thousands of views over one schema spell the same few of
each, so :class:`SharedParts` builds every such value once per catalog
and hands the one object to every record. Its tables hold nothing but
schema values -- no literal, no view or output name -- so they stop
growing once the schema's joins and columns have all been seen, however
many views come and go. (The schema-bounded shallow forms live beside
them, in ``catalog.shallow_forms``: :meth:`ShallowForm.shared
<repro.core.residual.ShallowForm.shared>`.)

What repeats across views but is not bounded by the schema -- output
names, grouping lists, column-class layouts -- is deduplicated only
within one registration batch (the ``batch`` dict ``register_views``
passes down), so no table outlives the batch that filled it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from .equivalence import ColumnKey

if TYPE_CHECKING:
    from ..catalog.catalog import Catalog
    from .fkgraph import FkEdge


class SharedParts:
    """One catalog's schema-bounded record parts, each built once.

    * :meth:`group_key` -- the ``(column,)`` key tuple of a grouping column;
    * :meth:`pair` -- a ``(column, column)`` join pair;
    * :meth:`edge`, :meth:`edges` -- a foreign-key edge, and the tuple of
      edges a view's joins realise;
    * :meth:`checks` -- the compiled check constraints of a view's table
      set, and the filter-tree probe keys of every catalog table's.
    """

    __slots__ = ("_group_keys", "_pairs", "_edges", "_edge_lists", "_checks")

    def __init__(self) -> None:
        self._group_keys: dict[ColumnKey, tuple[ColumnKey]] = {}
        self._pairs: dict[tuple[ColumnKey, ColumnKey], tuple] = {}
        self._edges: dict["FkEdge", "FkEdge"] = {}
        self._edge_lists: dict[tuple, tuple] = {}
        self._checks: dict[tuple, tuple] = {}

    def group_key(self, key: ColumnKey) -> tuple[ColumnKey]:
        found = self._group_keys.get(key)
        if found is None:
            found = self._group_keys.setdefault(key, (key,))
        return found

    def pair(self, left: ColumnKey, right: ColumnKey) -> tuple[ColumnKey, ColumnKey]:
        pair = (left, right)
        return self._pairs.setdefault(pair, pair)

    def edge(self, edge: "FkEdge") -> "FkEdge":
        return self._edges.setdefault(edge, edge)

    def edges(self, edges: tuple["FkEdge", ...]) -> tuple["FkEdge", ...]:
        return self._edge_lists.setdefault(edges, edges)

    def checks(self, key, build: Callable[[], tuple]) -> tuple:
        """The check-constraint parts under ``key``, built by ``build``
        on first ask: a view's table set (a frozenset), or for the probe
        keys the catalog's table names in order (a tuple; a table added
        later makes a new key)."""
        found = self._checks.get(key)
        if found is None:
            found = self._checks.setdefault(key, build())
        return found


def shared_parts(catalog: "Catalog") -> SharedParts:
    """The catalog's :class:`SharedParts`, made on first ask."""
    parts = getattr(catalog, "_shared_parts", None)
    if parts is None:
        parts = catalog._shared_parts = SharedParts()
    return parts
