"""The delta algebra of incremental view maintenance.

Section 2 of the paper explains *why* indexed views carry a
``count_big(*)`` column: "so deletions can be handled incrementally (when
the count becomes zero, the group is empty and the row must be deleted)".
This module implements that machinery, so the repository's materialized
views behave like SQL Server's: base-table inserts and deletes propagate
into every registered view without recomputation.

Algorithm (standard delta propagation, one base-table change at a time):

* **SPJ views** -- the view delta is the view query evaluated with the
  changed table replaced by just the delta rows (joins see the full other
  tables). Inserts append the delta; deletes remove one occurrence per
  delta row (bag semantics).
* **Aggregation views** -- the SPJ delta is aggregated with the view's
  grouping; each delta group is merged into the stored view: counts add or
  subtract, SUMs add or subtract, and a group whose ``count_big`` reaches
  zero is removed. Following SQL Server's indexable-view rules, SUM
  arguments must be non-nullable so subtraction is exact; registration
  rejects views violating this.

The one caller is :class:`~repro.cdc.applier.ChangeApplier`, which
evaluates deltas against its shadow tables in log order; tests check
every stored view against recomputing its query from scratch.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from operator import itemgetter

from ..catalog.catalog import Catalog
from ..engine.database import Database, Relation
from ..engine.executor import execute
from ..errors import ExecutionError, MatchError
from ..sql.expressions import Expression, FuncCall
from ..sql.statements import SelectStatement


@dataclass(frozen=True)
class _AggregateColumn:
    """One maintainable output column of an aggregation view."""

    position: int
    kind: str  # "group", "sum" or "count"


@dataclass
class MaintainedView:
    """A registered view plus its precomputed maintenance layout."""

    name: str
    statement: SelectStatement
    tables: frozenset[str]
    is_aggregate: bool
    columns: tuple[_AggregateColumn, ...] = ()
    group_positions: tuple[int, ...] = ()


def analyze_view(
    catalog: Catalog, name: str, statement: SelectStatement
) -> MaintainedView:
    """Validate that ``statement`` is incrementally maintainable.

    Returns the precomputed :class:`MaintainedView` layout. Raises
    :class:`MatchError` for DISTINCT views, unnamed outputs, unsupported
    aggregates, nullable SUM arguments, or aggregation views without a
    ``count_big(*)`` column.
    """
    tables = frozenset(statement.table_names())
    if statement.distinct:
        # DISTINCT deltas are not additive: an inserted row may already
        # be represented, a deleted row may still be backed by others.
        raise MatchError(
            f"view {name}: DISTINCT views cannot be maintained incrementally"
        )
    if not statement.is_aggregate:
        for item in statement.select_items:
            if item.name is None:
                raise MatchError(f"view {name}: every output needs a name")
        return MaintainedView(
            name=name, statement=statement, tables=tables, is_aggregate=False
        )
    columns: list[_AggregateColumn] = []
    group_positions: list[int] = []
    has_count = False
    for position, item in enumerate(statement.select_items):
        expr = item.expression
        if item.name is None:
            raise MatchError(f"view {name}: every output needs a name")
        if isinstance(expr, FuncCall) and expr.is_aggregate():
            if expr.name == "count_big" and expr.star:
                columns.append(_AggregateColumn(position, "count"))
                has_count = True
            elif expr.name == "sum":
                _require_non_nullable(catalog, name, expr.args[0])
                columns.append(_AggregateColumn(position, "sum"))
            else:
                raise MatchError(
                    f"view {name}: aggregate {expr.name} is not maintainable"
                )
        else:
            columns.append(_AggregateColumn(position, "group"))
            group_positions.append(position)
    if not has_count:
        raise MatchError(
            f"view {name}: aggregation views need count_big(*) for "
            "incremental deletes"
        )
    return MaintainedView(
        name=name,
        statement=statement,
        tables=tables,
        is_aggregate=True,
        columns=tuple(columns),
        group_positions=tuple(group_positions),
    )


def _require_non_nullable(
    catalog: Catalog, name: str, argument: Expression
) -> None:
    for ref in argument.column_refs():
        table = catalog.table(ref.table)  # type: ignore[arg-type]
        if table.is_nullable(ref.column):
            raise MatchError(
                f"view {name}: SUM over nullable column "
                f"{ref.table}.{ref.column} cannot be maintained exactly"
            )


def compute_view_delta(
    view: MaintainedView,
    table: str,
    delta_rows: list[tuple[object, ...]],
    database: Database,
) -> list[tuple[object, ...]]:
    """Evaluate the view's query with ``table`` replaced by the delta rows.

    Joins see the other tables at their current state in ``database``, so
    the caller is responsible for sequencing: for inserts, evaluate
    *before* the delta lands in the base table; for deletes, *after* the
    victims are removed.
    """
    overlay = _OverlayDatabase(database, table, delta_rows)
    return execute(view.statement, overlay, delta_table=table).rows  # type: ignore[arg-type]


def merge_aggregate_delta(
    view: MaintainedView,
    delta: list[tuple[object, ...]],
    sign: int,
    database: Database,
) -> None:
    """Fold an aggregated delta into the stored view with the given sign.

    Counts and SUMs add (``sign=+1``) or subtract (``sign=-1``) per
    group; a new group appends; a group whose ``count_big`` reaches zero
    is removed -- the paper's Section 2 deletion rule.
    """
    relation = database.relation(view.name)
    group_positions = view.group_positions
    index = _positions_by_group(relation.rows, group_positions)
    removed: list[int] = []
    for delta_row in delta:
        key = tuple(delta_row[p] for p in group_positions)
        existing_position = index.get(key)
        if existing_position is None:
            if sign < 0:
                raise ExecutionError(
                    f"view {view.name} out of sync: deleted group {key} missing"
                )
            relation.rows.append(delta_row)
            index[key] = len(relation.rows) - 1
            continue
        merged = _merge_row(
            view, relation.rows[existing_position], delta_row, sign
        )
        if merged is None:
            removed.append(existing_position)
            del index[key]
        else:
            relation.rows[existing_position] = merged
    for position in sorted(removed, reverse=True):
        del relation.rows[position]
    # Only now: an index built at the new version must not see a group
    # that is about to be deleted.
    relation.bump_version()


def _positions_by_group(
    rows: list[tuple[object, ...]], group_positions: tuple[int, ...]
) -> dict[tuple[object, ...], int]:
    """Group key -> position of the stored row holding it, in C-level
    passes over the stored rows' grouping columns."""
    if not group_positions:
        keys = repeat(())
    else:
        keys = zip(*[map(itemgetter(p), rows) for p in group_positions])
    return dict(zip(keys, range(len(rows))))


def apply_view_delta(
    view: MaintainedView,
    delta: list[tuple[object, ...]],
    sign: int,
    database: Database,
) -> None:
    """Apply one signed delta to the stored view, aggregate or SPJ."""
    if view.is_aggregate:
        merge_aggregate_delta(view, delta, sign, database)
    elif sign > 0:
        database.relation(view.name).extend(delta)
    else:
        database.relation(view.name).remove(delta)


def _merge_row(
    view: MaintainedView,
    current: tuple[object, ...],
    delta_row: tuple[object, ...],
    sign: int,
) -> tuple[object, ...] | None:
    values = list(current)
    for column in view.columns:
        if column.kind == "group":
            continue
        delta_value = delta_row[column.position]
        if column.kind == "count":
            new_count = values[column.position] + sign * delta_value  # type: ignore[operator]
            if new_count == 0:
                return None
            values[column.position] = new_count
        else:  # sum: arguments are non-nullable, so deltas are non-null
            current_value = values[column.position]
            if delta_value is None:
                continue  # empty delta group contributes nothing
            if current_value is None:
                values[column.position] = sign * delta_value  # type: ignore[operator]
            else:
                values[column.position] = (
                    current_value + sign * delta_value  # type: ignore[operator]
                )
    return tuple(values)


class _OverlayDatabase:
    """A read view of a database with one table replaced by delta rows."""

    def __init__(
        self,
        base: Database,
        table: str,
        delta_rows: list[tuple[object, ...]],
    ):
        self._base = base
        self._table = table
        base_relation = base.relation(table)
        self._delta = Relation(
            name=table, columns=base_relation.columns, rows=delta_rows
        )

    def relation(self, name: str) -> Relation:
        if name == self._table:
            return self._delta
        return self._base.relation(name)

    def has(self, name: str) -> bool:
        return self._base.has(name)
