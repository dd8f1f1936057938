"""Column- and table-level statistics.

Statistics can be *collected* by scanning a generated database or built
*synthetically* from the TPC-H schema at an arbitrary scale factor. The
synthetic path matters for reproducing Section 5: the paper ran at scale
factor 0.5 and explicitly notes the scale factor does not affect
optimization time -- the workload generator and the cost model only consume
estimates, so they can run at paper scale without materializing 3 GB of
rows.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..catalog.schema import ColumnType
from ..engine.database import Database

if True:  # keep import ordering flat for the catalog type hint
    from ..catalog.catalog import Catalog


@dataclass(frozen=True)
class ColumnStats:
    """Summary of one column: bounds, distinct count, null fraction."""

    minimum: object
    maximum: object
    distinct: int
    null_fraction: float = 0.0

    @property
    def width(self) -> float | None:
        """Numeric domain width, None for non-numeric columns."""
        if isinstance(self.minimum, (int, float)) and isinstance(
            self.maximum, (int, float)
        ):
            return float(self.maximum) - float(self.minimum)
        return None


@dataclass
class TableStats:
    """Row count plus per-column stats for one table."""

    row_count: int
    columns: dict[str, ColumnStats]

    def column(self, name: str) -> ColumnStats:
        return self.columns[name]


class DatabaseStats:
    """Statistics for every table a catalog knows about."""

    def __init__(self, tables: dict[str, TableStats]):
        self._tables = tables

    def table(self, name: str) -> TableStats:
        return self._tables[name]

    def has_table(self, name: str) -> bool:
        return name in self._tables

    def row_count(self, name: str) -> int:
        return self._tables[name].row_count

    def column(self, table: str, column: str) -> ColumnStats:
        return self._tables[table].columns[column]

    def largest_table_rows(self, tables) -> int:
        """Cardinality of the largest table among ``tables``."""
        return max(self._tables[t].row_count for t in tables)

    @classmethod
    def collect(cls, database: Database, catalog: "Catalog") -> "DatabaseStats":
        """Scan a generated database and compute exact statistics."""
        tables: dict[str, TableStats] = {}
        for table in catalog.tables():
            if not database.has(table.name):
                continue
            relation = database.relation(table.name)
            columns: dict[str, ColumnStats] = {}
            for column in table.columns:
                values = relation.column_values(column.name)
                non_null = [v for v in values if v is not None]
                nulls = len(values) - len(non_null)
                if non_null:
                    stats = ColumnStats(
                        minimum=min(non_null),
                        maximum=max(non_null),
                        distinct=len(set(non_null)),
                        null_fraction=nulls / len(values) if values else 0.0,
                    )
                else:
                    stats = ColumnStats(minimum=None, maximum=None, distinct=0,
                                        null_fraction=1.0 if values else 0.0)
                columns[column.name] = stats
            tables[table.name] = TableStats(
                row_count=relation.row_count, columns=columns
            )
        return cls(tables)


def default_distinct(column_type: ColumnType, row_count: int) -> int:
    """A crude distinct-count default for synthetic statistics."""
    if column_type is ColumnType.STRING:
        return max(1, min(row_count, 1000))
    return max(1, row_count)
