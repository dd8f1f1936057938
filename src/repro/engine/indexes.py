"""Stored indexes over relations: point and range lookups.

Materialized views in the paper's setting are *indexed views* -- a unique
clustered index materializes the view, and secondary indexes can be added
(Example 1). This module supplies the executable counterpart: an ordered
index over one or more columns of a stored relation, supporting equality
probes on a key prefix and range scans on the leading column.

Indexes track the owning relation's version and rebuild lazily when the
relation changed, so maintenance-driven updates never serve stale results.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

from ..errors import ExecutionError
from .database import Database, Relation


@dataclass
class StoredIndex:
    """A sorted multi-column index over one relation."""

    name: str
    relation_name: str
    columns: tuple[str, ...]
    unique: bool = False
    _keys: list[tuple] = field(default_factory=list, repr=False)
    _rows: list[tuple] = field(default_factory=list, repr=False)
    # The leading column of every key, for range bisection.
    _leading: list = field(default_factory=list, repr=False)
    _built_version: int = -1

    def _ensure_fresh(self, relation: Relation) -> None:
        if self._built_version == relation.version:
            return
        positions = [relation.column_position(c) for c in self.columns]
        # NULL keys are excluded: neither equality nor range probes can
        # match them (SQL comparison semantics).
        entries = []
        for row in relation.rows:
            key = tuple(row[p] for p in positions)
            if any(v is None for v in key):
                continue
            entries.append((key, row))
        entries.sort(key=lambda e: e[0])
        if self.unique:
            for previous, current in zip(entries, entries[1:]):
                if previous[0] == current[0]:
                    raise ExecutionError(
                        f"unique index {self.name} violated by key {current[0]}"
                    )
        self._keys = [key for key, _ in entries]
        self._rows = [row for _, row in entries]
        self._leading = [key[0] for key in self._keys]
        self._built_version = relation.version

    def lookup_equal(
        self, relation: Relation, prefix: tuple
    ) -> list[tuple]:
        """Rows whose leading index columns equal ``prefix``."""
        self._ensure_fresh(relation)
        low = bisect.bisect_left(self._keys, prefix)
        high = bisect.bisect_right(self._keys, prefix + (_TOP,))
        return [
            self._rows[i]
            for i in range(low, min(high, len(self._keys)))
            if self._keys[i][: len(prefix)] == prefix
        ]

    def lookup_range(
        self,
        relation: Relation,
        lower: tuple[object, bool] | None,
        upper: tuple[object, bool] | None,
    ) -> list[tuple]:
        """Rows whose leading column lies in the given (value, inclusive) range."""
        self._ensure_fresh(relation)
        first_column = self._leading
        if lower is None:
            low = 0
        else:
            value, inclusive = lower
            low = (
                bisect.bisect_left(first_column, value)
                if inclusive
                else bisect.bisect_right(first_column, value)
            )
        if upper is None:
            high = len(first_column)
        else:
            value, inclusive = upper
            high = (
                bisect.bisect_right(first_column, value)
                if inclusive
                else bisect.bisect_left(first_column, value)
            )
        return self._rows[low:high]


class _Top:
    """Sorts after every value (sentinel for prefix upper bounds)."""

    def __lt__(self, other) -> bool:  # pragma: no cover - ordering glue
        return False

    def __gt__(self, other) -> bool:
        return True


_TOP = _Top()


class IndexRegistry:
    """All stored indexes of one database."""

    def __init__(self, database: Database):
        self.database = database
        self._by_relation: dict[str, list[StoredIndex]] = {}
        self._by_name: dict[str, StoredIndex] = {}

    def create(
        self,
        name: str,
        relation_name: str,
        columns: tuple[str, ...] | list[str],
        unique: bool = False,
    ) -> StoredIndex:
        if name in self._by_name:
            raise ExecutionError(f"index {name} already exists")
        relation = self.database.relation(relation_name)  # validates existence
        for column in columns:
            relation.column_position(column)  # validates columns
        index = StoredIndex(
            name=name,
            relation_name=relation_name,
            columns=tuple(columns),
            unique=unique,
        )
        index._ensure_fresh(relation)  # validate uniqueness eagerly
        self._by_relation.setdefault(relation_name, []).append(index)
        self._by_name[name] = index
        return index

    def drop(self, name: str) -> None:
        index = self._by_name.pop(name, None)
        if index is None:
            raise ExecutionError(f"no index named {name}")
        self._by_relation[index.relation_name].remove(index)

    def on_relation(self, relation_name: str) -> tuple[StoredIndex, ...]:
        return tuple(self._by_relation.get(relation_name, ()))

    def get(self, name: str) -> StoredIndex:
        try:
            return self._by_name[name]
        except KeyError:
            raise ExecutionError(f"no index named {name}") from None
