"""In-memory database: base-table and materialized-view storage.

Relations are stored as lists of tuples with a per-relation column order;
the executor joins by concatenating those tuples and reads columns by
position. Both base tables and materialized views live here, so a
substitute expression that scans a view executes through exactly the same
path as a query over base tables.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from ..errors import ExecutionError


_version_counter = 0


def _next_version() -> int:
    """Globally unique, monotonically increasing relation versions.

    Versions are unique across relation *instances* too, so replacing a
    relation under the same name can never alias a stale index build.
    """
    global _version_counter
    _version_counter += 1
    return _version_counter


@dataclass
class Relation:
    """Stored rows plus the column order they are stored in.

    ``version`` changes on every tracked mutation; stored indexes and the
    join indexes of :meth:`hash_index` use it to detect staleness. Mutate
    through :meth:`extend` / :meth:`remove`; code that changes ``rows``
    directly must call :meth:`bump_version` afterwards.
    """

    name: str
    columns: tuple[str, ...]
    rows: list[tuple[object, ...]]
    version: int = 0

    def __post_init__(self) -> None:
        self._index = {column: i for i, column in enumerate(self.columns)}
        self.version = _next_version()
        # column positions -> (version the buckets describe, buckets)
        self._hash_indexes: dict[tuple[int, ...], tuple[int, dict]] = {}
        self.hash_index_builds = 0

    def bump_version(self) -> None:
        self.version = _next_version()

    @property
    def row_count(self) -> int:
        return len(self.rows)

    def column_position(self, column: str) -> int:
        try:
            return self._index[column]
        except KeyError:
            raise ExecutionError(f"{self.name} has no column {column}") from None

    def column_values(self, column: str) -> list[object]:
        position = self.column_position(column)
        return [row[position] for row in self.rows]

    def extend(self, rows: Iterable[tuple[object, ...]]) -> None:
        """Append rows; join indexes that are current stay current."""
        rows = list(rows)
        before = self.version
        self.rows.extend(rows)
        self.bump_version()
        carried = {}
        for positions, (built, buckets) in self._hash_indexes.items():
            if built == before:
                _fill_buckets(buckets, positions, rows)
                carried[positions] = (self.version, buckets)
        self._hash_indexes = carried

    def remove(self, rows: Iterable[tuple[object, ...]]) -> None:
        """Remove one occurrence per given row (bag semantics).

        Each value given ``k`` times drops its earliest ``k`` stored
        occurrences. A row that is not stored raises
        :class:`ExecutionError`; rows before it stay removed, and the
        version moves either way. A batch of fewer than
        :data:`_ONE_PASS_FROM` rows is removed a row at a time, each a
        C-level scan; a larger one in one pass over the stored rows.
        """
        rows = list(rows)
        try:
            if len(rows) < _ONE_PASS_FROM:
                for row in rows:
                    try:
                        self.rows.remove(row)
                    except ValueError:
                        raise ExecutionError(
                            f"{self.name} out of sync: row {row} not present"
                        ) from None
                return
            wanted = Counter(rows)
            kept, missing = _drop_earliest(self.rows, wanted)
            if missing:
                # Only the rows before the first one that is not stored go,
                # as removing the rows one at a time would have left it.
                stored = wanted - missing
                seen: Counter = Counter()
                for first, row in enumerate(rows):
                    seen[row] += 1
                    if seen[row] > stored[row]:
                        break
                kept, _ = _drop_earliest(self.rows, Counter(rows[:first]))
                self.rows[:] = kept
                raise ExecutionError(
                    f"{self.name} out of sync: row {row} not present"
                )
            self.rows[:] = kept
        finally:
            self.bump_version()
            self._hash_indexes = {}

    def hash_index(
        self, positions: tuple[int, ...]
    ) -> dict[tuple[object, ...], list[tuple[object, ...]]]:
        """Join index: values at ``positions`` -> the stored rows holding them.

        Rows with a NULL in any key column are absent (NULL never joins).
        Built on first use and valid for exactly one ``version``; every
        execution against this relation shares it. The finished index is
        published by one assignment, so concurrent builders at worst both
        build it. Callers must not modify the returned buckets.
        """
        version = self.version
        entry = self._hash_indexes.get(positions)
        if entry is not None and entry[0] == version:
            return entry[1]
        buckets: dict[tuple[object, ...], list[tuple[object, ...]]] = {}
        _fill_buckets(buckets, positions, self.rows)
        self.hash_index_builds += 1
        self._hash_indexes[positions] = (version, buckets)
        return buckets


# Below this many rows, :meth:`Relation.remove` takes them out one at a
# time: a C-level scan per row beats a pass in Python over every stored
# row until about a dozen rows (measured at 6,000 stored rows).
_ONE_PASS_FROM = 12


def _fill_buckets(
    buckets: dict, positions: tuple[int, ...], rows: list[tuple[object, ...]]
) -> None:
    for row in rows:
        key = tuple([row[p] for p in positions])
        if None in key:
            continue
        bucket = buckets.get(key)
        if bucket is None:
            buckets[key] = [row]
        else:
            bucket.append(row)


def _drop_earliest(
    rows: list[tuple[object, ...]], wanted: Counter
) -> tuple[list[tuple[object, ...]], Counter]:
    """``rows`` without the earliest ``wanted[row]`` occurrences of each
    row, and what of ``wanted`` was not found."""
    pending = wanted.copy()
    kept = []
    for row in rows:
        left = pending.get(row)
        if left:
            pending[row] = left - 1
        else:
            kept.append(row)
    return kept, +pending


class Database:
    """A named collection of relations (base tables and materialized views)."""

    def __init__(self) -> None:
        self._relations: dict[str, Relation] = {}
        self._indexes = None

    @property
    def indexes(self):
        """The database's index registry (created on first use)."""
        if self._indexes is None:
            from .indexes import IndexRegistry

            self._indexes = IndexRegistry(self)
        return self._indexes

    def create(self, name: str, columns: Sequence[str]) -> Relation:
        if name in self._relations:
            raise ExecutionError(f"relation {name} already exists")
        relation = Relation(name=name, columns=tuple(columns), rows=[])
        self._relations[name] = relation
        return relation

    def store(
        self, name: str, columns: Sequence[str], rows: Iterable[Sequence[object]]
    ) -> Relation:
        """Create (or replace) a relation with the given contents."""
        relation = Relation(
            name=name, columns=tuple(columns), rows=[tuple(row) for row in rows]
        )
        self._relations[name] = relation
        return relation

    def drop(self, name: str) -> None:
        if name not in self._relations:
            raise ExecutionError(f"no relation named {name}")
        del self._relations[name]

    def has(self, name: str) -> bool:
        return name in self._relations

    def relation(self, name: str) -> Relation:
        try:
            return self._relations[name]
        except KeyError:
            raise ExecutionError(f"no relation named {name}") from None

    def names(self) -> tuple[str, ...]:
        return tuple(self._relations)

    def row_count(self, name: str) -> int:
        return self.relation(name).row_count
