"""Bag-semantics executor for bound SPJG statements.

The executor implements exactly the relational behaviour the paper's
correctness argument depends on:

* inner joins over the FROM tables with WHERE conjuncts applied as early as
  their referenced tables are available (equijoins become hash joins),
* bag semantics throughout -- duplicate rows are preserved with their
  multiplicity (requirement 4 of Section 3.1),
* SQL aggregation semantics: NULLs ignored by SUM/COUNT(expr), grouping
  treats NULL as an ordinary key, an aggregate query without GROUP BY over
  an empty input yields one row.

It is the oracle the differential tests compare rewrites against *and*
what every materialization and view delta waits for, so there is one row
format and one evaluator: a row is a plain tuple -- the stored tuples of
the joined tables concatenated in join order -- and each conjunct, key
and output expression is compiled into a closure over that tuple
(:mod:`repro.engine.evaluator`) once per execution, when the first row
is about to reach it. Joins are left-deep: the smallest input (for view
maintenance, the delta rows) drives, every other table is probed through
a hash index its relation keeps and shares between executions, and an
empty intermediate result ends the join (DESIGN section 14, "delta-first
evaluation").

The common grouping of key-grouped views, one in which no two rows share
a group, runs as C-level passes over whole columns. The data picks the
pass; every other grouping takes the row-at-a-time code, which is also
what the pass falls back to whenever it cannot vouch for a result.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import repeat
from operator import add, is_not, itemgetter
from typing import Callable, Sequence

from ..collector import collector_paused
from ..errors import ExecutionError
from ..sql.expressions import (
    BinaryOp,
    ColumnRef,
    Expression,
    FuncCall,
    conjuncts_of,
)
from ..sql.statements import SelectItem, SelectStatement
from .database import Database
from .evaluator import (
    ColumnKey,
    Row,
    Slots,
    compile_expression,
    compile_predicate,
    compile_tuple,
    layout,
    slot_of,
)


@dataclass
class QueryResult:
    """Executor output: ordered column names and a bag (list) of row tuples."""

    columns: tuple[str, ...]
    rows: list[tuple[object, ...]]

    @property
    def row_count(self) -> int:
        return len(self.rows)

    def as_multiset(
        self, float_digits: int | None = None
    ) -> dict[tuple[object, ...], int]:
        """Rows with multiplicities, for bag-equality comparison.

        ``float_digits`` rounds float values to that many significant
        digits first, so results whose floating-point sums were accumulated
        in different orders (e.g. a rollup over a pre-aggregate vs. a
        direct sum) still compare equal.
        """
        counts: dict[tuple[object, ...], int] = {}
        for row in self.rows:
            if float_digits is not None:
                row = tuple(
                    float(f"{value:.{float_digits}g}")
                    if isinstance(value, float)
                    else value
                    for value in row
                )
            counts[row] = counts.get(row, 0) + 1
        return counts

    def bag_equals(
        self, other: "QueryResult", float_digits: int | None = None
    ) -> bool:
        """Bag equality of the row contents (column *names* may differ)."""
        if len(self.columns) != len(other.columns):
            return False
        return self.as_multiset(float_digits) == other.as_multiset(float_digits)


def _referenced_tables(expression: Expression) -> frozenset[str]:
    return frozenset(ref.table for ref in expression.column_refs() if ref.table)


def _split_equijoin(conjunct: Expression) -> tuple[ColumnRef, ColumnRef] | None:
    """Return the two sides when the conjunct is ``col = col`` across tables."""
    if (
        isinstance(conjunct, BinaryOp)
        and conjunct.op == "="
        and isinstance(conjunct.left, ColumnRef)
        and isinstance(conjunct.right, ColumnRef)
    ):
        return conjunct.left, conjunct.right
    return None


class _JoinPipeline:
    """Left-deep join: one driving input, every other table probed through
    its shared :meth:`Relation.hash_index`.

    The driving table is the named delta table, else the input that is
    smallest after its own local conjuncts. Each next table is the
    equijoin-connected one with the smallest estimated fan-out; an empty
    intermediate ends the join without touching the remaining tables.

    ``rows`` hold the stored tuples of the tables in ``order``,
    concatenated; ``slots`` maps each of their columns to its position.
    """

    def __init__(
        self,
        database: Database,
        tables: tuple[str, ...],
        conjuncts: list[Expression],
    ):
        self.database = database
        self.tables = tables
        self.local: dict[str, list[Expression]] = {t: [] for t in tables}
        # Cross-table conjuncts not applied yet, with their table sets and,
        # for ``col = col``, the two sides.
        self.pending: list[
            tuple[Expression, frozenset[str], tuple[ColumnRef, ColumnRef] | None]
        ] = []
        self.constant: list[Expression] = []
        for conjunct in conjuncts:
            referenced = _referenced_tables(conjunct)
            if not referenced:
                self.constant.append(conjunct)
            elif len(referenced) == 1 and referenced <= self.local.keys():
                (table,) = referenced
                self.local[table].append(conjunct)
            else:
                self.pending.append(
                    (conjunct, referenced, _split_equijoin(conjunct))
                )
        self._scans: dict[str, list[Row]] = {}
        self.order: list[str] = []
        self.slots: dict[ColumnKey, int] = {}
        self.rows: list[Row] = []

    def run(self, delta_table: str | None = None) -> list[Row]:
        """Join all tables (or stop at an empty intermediate); the rows."""
        start = delta_table
        if start is None:
            start = min(self.tables, key=lambda t: len(self._scan(t)))
        self.rows = self._scan(start)
        self._place(start)
        remaining = [t for t in self.tables if t != start]
        while remaining and self.rows:
            table, pairs = self._next_table(remaining)
            remaining.remove(table)
            if pairs:
                self._index_join(table, pairs)
            else:
                scanned = self._scan(table)
                self.rows = [row + stored for row in self.rows for stored in scanned]
            self._place(table)
            self._apply_covered()
        return self.rows

    def _place(self, table: str) -> None:
        """Record that ``table``'s stored tuple now ends every row."""
        self.order.append(table)
        offset = len(self.slots)
        for position, column in enumerate(self.database.relation(table).columns):
            self.slots[(table, column)] = offset + position

    def _accepts(self, table: str) -> Callable[[Row], bool]:
        """Stored row of ``table`` -> whether it passes the local conjuncts."""
        columns = self.database.relation(table).columns
        return compile_predicate(
            self.local[table], layout((table, column) for column in columns)
        )

    def _scan(self, table: str) -> list[Row]:
        """Stored rows of ``table`` passing its local conjuncts (kept)."""
        rows = self._scans.get(table)
        if rows is None:
            relation = self.database.relation(table)
            local = self.local[table]
            rows = relation.rows
            if local:
                indexed = self._index_scan(relation, local)
                rows = list(
                    filter(
                        self._accepts(table), rows if indexed is None else indexed
                    )
                )
            self._scans[table] = rows
        return rows

    def _index_scan(self, relation, local: list[Expression]):
        """Try to narrow the scan through a stored index.

        Uses the first index whose leading column carries an equality or
        range conjunct; the remaining local predicates are re-applied by
        the caller, so this is purely an access-path optimization.
        """
        registry = getattr(self.database, "_indexes", None)
        if registry is None:
            return None
        from ..core.ranges import as_range_predicate

        bounds: dict[str, list] = {}
        for conjunct in local:
            recognised = as_range_predicate(conjunct)
            if recognised is not None:
                bounds.setdefault(recognised.column[1], []).append(recognised)
        if not bounds:
            return None
        for index in registry.on_relation(relation.name):
            leading = index.columns[0]
            predicates = bounds.get(leading)
            if not predicates:
                continue
            equality = next((p for p in predicates if p.op == "="), None)
            if equality is not None:
                return index.lookup_equal(relation, (equality.value,))
            lower = upper = None
            for predicate in predicates:
                if predicate.op in (">", ">="):
                    candidate = (predicate.value, predicate.op == ">=")
                    if lower is None or candidate[0] > lower[0]:
                        lower = candidate
                elif predicate.op in ("<", "<="):
                    candidate = (predicate.value, predicate.op == "<=")
                    if upper is None or candidate[0] < upper[0]:
                        upper = candidate
            return index.lookup_range(relation, lower, upper)
        return None

    def _join_pairs(
        self, table: str
    ) -> dict[int, tuple[ColumnRef, Expression]]:
        """Equijoins linking ``table`` to the joined rows.

        Keyed by the column position on ``table``, in position order
        (so equal joins share one index), each with the joined side's
        column; the first conjunct per position probes, a second one stays
        pending and filters as a residual right after the join.
        """
        joined = self.order
        relation = self.database.relation(table)
        pairs: dict[int, tuple[ColumnRef, Expression]] = {}
        for conjunct, _, sides in self.pending:
            if sides is None:
                continue
            left, right = sides
            if right.table == table and left.table in joined:
                probe, build = left, right
            elif left.table == table and right.table in joined:
                probe, build = right, left
            else:
                continue
            pairs.setdefault(
                relation.column_position(build.column), (probe, conjunct)
            )
        return dict(sorted(pairs.items()))

    def _next_table(
        self, remaining: list[str]
    ) -> tuple[str, dict[int, tuple[ColumnRef, Expression]]]:
        """The connected table with the smallest estimated fan-out.

        Fan-out is ``row_count / distinct join keys`` of the index the
        join would probe. Ties prefer a table that still has a local
        conjunct, then the smaller relation, then statement order. With
        no connected table left, the smallest input cross-joins.
        """
        best = None
        for table in remaining:
            pairs = self._join_pairs(table)
            if not pairs:
                continue
            relation = self.database.relation(table)
            index = relation.hash_index(tuple(pairs))
            fan_out = relation.row_count / len(index) if index else 0.0
            rank = (fan_out, not self.local[table], relation.row_count)
            if best is None or rank < best[0]:
                best = (rank, table, pairs)
        if best is None:
            return min(remaining, key=lambda t: len(self._scan(t))), {}
        return best[1], best[2]

    def _index_join(
        self, table: str, pairs: dict[int, tuple[ColumnRef, Expression]]
    ) -> None:
        used = {id(conjunct) for _, conjunct in pairs.values()}
        self.pending = [p for p in self.pending if id(p[0]) not in used]
        # A NULL probe value finds nothing: NULL keys are not indexed.
        bucket = self.database.relation(table).hash_index(tuple(pairs)).get
        probe = compile_tuple([column for column, _ in pairs.values()], self.slots)
        if not self.local[table]:
            self.rows = [
                row + stored
                for row in self.rows
                for stored in bucket(probe(row), ())
            ]
            return
        scanned = self._scans.get(table)
        if scanned is None:
            accepts = self._accepts(table)
        else:
            # A full evaluation already filtered the table to size it: a
            # stored row passes when that scan kept it.
            kept = set(map(id, scanned))
            accepts = lambda stored: id(stored) in kept  # noqa: E731
        # Each bucket is filtered once, however many rows probe it.
        matched: dict[Row, list[Row]] = {}
        joined: list[Row] = []
        for row in self.rows:
            key = probe(row)
            matches = matched.get(key)
            if matches is None:
                matches = matched[key] = list(filter(accepts, bucket(key, ())))
            for stored in matches:
                joined.append(row + stored)
        self.rows = joined

    def _apply_covered(self) -> None:
        """Filter by the pending conjuncts whose tables are all joined."""
        joined = set(self.order)
        remaining = []
        for entry in self.pending:
            conjunct, referenced, _ = entry
            if not referenced <= joined:
                remaining.append(entry)
            elif self.rows:
                self.rows = _filter_rows(self.rows, conjunct, self.slots)
        self.pending = remaining


def _filter_rows(rows: list[Row], conjunct: Expression, slots: Slots) -> list[Row]:
    """The rows on which ``conjunct`` is SQL TRUE."""
    return list(filter(compile_predicate([conjunct], slots), rows))


@collector_paused()
def execute(
    statement: SelectStatement,
    database: Database,
    delta_table: str | None = None,
) -> QueryResult:
    """Execute a bound SPJG statement against ``database``.

    ``delta_table`` names the table whose rows drive the join -- view
    maintenance passes the changed table, whose few delta rows every
    output row contains. It affects row order only, never the bag.
    Rows are plain tuples and no reference cycle is made, so the cyclic
    collector is paused for the duration (:func:`collector_paused`).
    """
    pipeline = _JoinPipeline(
        database, statement.table_names(), list(conjuncts_of(statement.where))
    )
    rows = pipeline.run(delta_table)
    if rows:
        # An empty join discards what was not applied; otherwise only
        # constant predicates can be left.
        if pipeline.pending:
            raise ExecutionError(f"unapplied predicate {pipeline.pending[0][0]}")
        for conjunct in pipeline.constant:
            rows = _filter_rows(rows, conjunct, pipeline.slots)
    return finish_rows(
        rows,
        pipeline.slots,
        statement.select_items,
        statement.group_by,
        aggregate=statement.is_aggregate,
        distinct=statement.distinct,
    )


def finish_rows(
    rows: list[Row],
    slots: Slots,
    select_items: Sequence[SelectItem],
    group_by: Sequence[Expression] = (),
    aggregate: bool = False,
    distinct: bool = False,
) -> QueryResult:
    """Project or group joined rows (laid out by ``slots``) to the output."""
    if aggregate:
        output = aggregate_rows(rows, slots, select_items, group_by)
    else:
        read = compile_tuple([item.expression for item in select_items], slots)
        output = list(map(read, rows))
    if distinct:
        output = list(dict.fromkeys(output))
    columns = tuple(
        item.name if item.name is not None else f"col{i + 1}"
        for i, item in enumerate(select_items)
    )
    return QueryResult(columns=columns, rows=output)


def aggregate_rows(
    rows: list[Row],
    slots: Slots,
    select_items: Sequence[SelectItem],
    group_by: Sequence[Expression],
) -> list[Row]:
    """SQL grouping and aggregation over rows laid out by ``slots``.

    NULL is an ordinary grouping key; a global aggregation (empty
    ``group_by``) over an empty input yields one row.
    """
    calls = _distinct_aggregates(select_items)
    width = len(calls)
    # A group's state: per call the count of rows (``*``) or of non-NULL
    # values, then per call the total, NULL until a value arrives.
    blank = [0] * width + [None] * width
    # Per call: where it counts, its argument (None for ``*``), where it totals.
    updates = [
        (
            position,
            None if call.star else compile_expression(call.args[0], slots),
            width + position if call.name in ("sum", "avg") else None,
        )
        for position, call in enumerate(calls)
    ]
    states = None
    if group_by and rows:
        # A column of the rows, read once and only if a pass needs it.
        column_at = cache(lambda position: list(map(itemgetter(position), rows)))
        states = _one_row_states(rows, column_at, slots, group_by, calls, updates)
    if states is None:
        # Each group's first row with its state appended.
        grouped = _grouped(rows, slots, group_by, updates, blank)
        if not group_by and not grouped:
            # Global aggregation over an empty input: one row of "empty"
            # values, and no column to read.
            grouped = [tuple(blank)]
            slots = {}
        if not grouped:
            return []
        offset = len(grouped[0]) - len(blank)
    else:
        offset = len(rows[0])
    # An output reads the group's row with its state appended, so any
    # expression over grouping columns and aggregates compiles like any
    # other.
    result_slots: dict[object, int] = dict(slots)
    for position, call in enumerate(calls):
        count_at, total_at = offset + position, offset + width + position
        if call.name == "avg":
            result_slots[FuncCall("sum", call.args)] = total_at
            result_slots[FuncCall("count", call.args)] = count_at
        else:
            result_slots[call] = total_at if call.name == "sum" else count_at
    outputs = [item.expression.transform(_average_as_quotient) for item in select_items]
    if states is not None:
        positions = [slot_of(output, result_slots) for output in outputs]
        if None not in positions:
            # Every output is a column or an aggregate: zip their columns.
            return list(
                zip(
                    *[
                        column_at(p) if p < offset else states[p - offset]
                        for p in positions
                    ]
                )
            )
        grouped = list(map(add, rows, zip(*states))) if states else rows
    return list(map(compile_tuple(outputs, result_slots), grouped))


def _grouped(
    rows: list[Row],
    slots: Slots,
    group_by: Sequence[Expression],
    updates: list[tuple[int, Callable | None, int | None]],
    blank: list,
) -> list[Row]:
    """Row at a time: per group, its first row with its state appended."""
    group_key = compile_tuple(group_by, slots)
    # group key -> (first row of the group, state)
    groups: dict[Row, tuple[Row, list]] = {}
    for row in rows:
        key = group_key(row)
        entry = groups.get(key)
        if entry is None:
            entry = groups[key] = (row, blank.copy())
        state = entry[1]
        for count_at, argument, total_at in updates:
            if argument is not None:
                value = argument(row)
                if value is None:
                    continue
                if total_at is not None:
                    if not isinstance(value, (int, float)):
                        raise ExecutionError(
                            f"SUM/AVG over non-numeric value {value!r}"
                        )
                    total = state[total_at]
                    state[total_at] = value if total is None else total + value
            state[count_at] += 1
    return [first + tuple(state) for first, state in groups.values()]


# Summand types the one-row pass totals as they are; any other goes
# through the row-at-a-time pass, which decides whether it is numeric.
_PLAIN_SUMMANDS = frozenset({int, float, bool, type(None)})


def _one_row_states(
    rows: list[Row],
    column_at: Callable[[int], Sequence],
    slots: Slots,
    group_by: Sequence[Expression],
    calls: list[FuncCall],
    updates: list[tuple[int, Callable | None, int | None]],
) -> list[Sequence] | None:
    """The columns of the rows' group states, when no two rows share a
    group; ``None`` otherwise.

    ``column_at`` reads a column of the rows by position. A group of one
    row counts 1 (0 for a NULL argument) and totals its own value, so
    each state column is read off its argument's column in a C-level
    pass. Whatever this pass cannot vouch for -- a repeated key, a
    summand of another type, an expression that raises -- returns
    ``None``, and the row-at-a-time pass then decides, raising what it
    raises in its own row order.
    """

    def column(expression: Expression, compiled: Callable) -> Sequence:
        position = slot_of(expression, slots)
        if position is None:
            return list(map(compiled, rows))
        return column_at(position)

    count = len(rows)
    ones, nulls = [1] * count, [None] * count
    counts: list[Sequence] = []
    totals: list[Sequence] = []
    try:
        keys = [column(key, compile_expression(key, slots)) for key in group_by]
        # Distinct hashes prove distinct keys; a shared hash falls back.
        if len(set(keys[0] if len(keys) == 1 else map(hash, zip(*keys)))) < count:
            return None
        for call, (_, argument, total_at) in zip(calls, updates):
            if argument is None:
                counts.append(ones)
                totals.append(nulls)
                continue
            values = column(call.args[0], argument)
            types = set(map(type, values))
            if type(None) in types:
                counts.append(list(map(int, map(is_not, values, repeat(None)))))
            else:
                counts.append(ones)
            if total_at is None:
                totals.append(nulls)
            elif types <= _PLAIN_SUMMANDS:
                totals.append(values)
            else:
                return None
    except (ExecutionError, ValueError, TypeError, ArithmeticError):
        return None  # the row-at-a-time pass raises it, in its order
    return counts + totals


def _average_as_quotient(node: Expression) -> Expression:
    """``avg(x)`` as ``sum(x) / count(x)``: NULL when nothing was summed."""
    if isinstance(node, FuncCall) and node.name == "avg":
        return BinaryOp("/", FuncCall("sum", node.args), FuncCall("count", node.args))
    return node


def _distinct_aggregates(select_items: Sequence[SelectItem]) -> list[FuncCall]:
    calls: list[FuncCall] = []
    for item in select_items:
        for node in item.expression.walk():
            if isinstance(node, FuncCall) and node.is_aggregate() and node not in calls:
                calls.append(node)
    return calls


def materialize_view(
    name: str, query: SelectStatement, database: Database
) -> None:
    """Execute a view's query and store the result as relation ``name``.

    Output column names follow SQL Server's rule: every output expression of
    an indexed view must have a name (alias or plain column).
    """
    for i, item in enumerate(query.select_items):
        if item.name is None:
            raise ExecutionError(
                f"view {name} output #{i + 1} has no name; use AS"
            )
    columns = tuple(item.name for item in query.select_items)  # type: ignore[misc]
    database.store(name, columns, execute(query, database).rows)
