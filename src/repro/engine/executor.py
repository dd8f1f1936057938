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

It is deliberately simple -- correctness oracle first, performance second.
Joins are left-deep: the smallest input (for view maintenance, the delta
rows) drives, every other table is probed through a hash index its
relation keeps and shares between executions, and an empty intermediate
result ends the join (DESIGN section 14, "delta-first evaluation").
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ExecutionError
from ..sql.expressions import (
    BinaryOp,
    ColumnRef,
    Expression,
    FuncCall,
)
from ..sql.statements import SelectItem, SelectStatement
from .database import Database
from .evaluator import evaluate, predicate_holds

ColumnKey = tuple[str, str]
RowDict = dict[ColumnKey, object]


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
        self._scans: dict[str, list[tuple[object, ...]]] = {}
        self.order: list[str] = []
        self.rows: list[RowDict] = []

    def run(self, delta_table: str | None = None) -> list[RowDict]:
        """Join all tables (or stop at an empty intermediate); the rows."""
        start = delta_table
        if start is None:
            start = min(self.tables, key=lambda t: len(self._scan(t)))
        self.order.append(start)
        to_row = self._row_maker(start)
        self.rows = [to_row(stored) for stored in self._scan(start)]
        remaining = [t for t in self.tables if t != start]
        while remaining and self.rows:
            table, pairs = self._next_table(remaining)
            remaining.remove(table)
            self.order.append(table)
            if pairs:
                self._index_join(table, pairs)
            else:
                self._cross_join(table)
            self._apply_covered()
        return self.rows

    def _scan(self, table: str) -> list[tuple[object, ...]]:
        """Stored rows of ``table`` passing its local conjuncts (kept)."""
        rows = self._scans.get(table)
        if rows is None:
            relation = self.database.relation(table)
            local = self.local[table]
            rows = relation.rows
            if local:
                indexed = self._index_scan(relation, local)
                accepts = self._row_filter(table)
                rows = [
                    row
                    for row in (rows if indexed is None else indexed)
                    if accepts(row)
                ]
            self._scans[table] = rows
        return rows

    def _row_maker(self, table: str):
        """Stored row of ``table`` -> ``(table, column)``-keyed mapping."""
        keys = [(table, c) for c in self.database.relation(table).columns]
        return lambda stored: dict(zip(keys, stored))

    def _row_filter(self, table: str):
        """Stored row -> whether it passes the table's local conjuncts.

        Only the columns the conjuncts read are laid out for the
        evaluator, so rejecting a row never builds its full mapping.
        """
        local = self.local[table]
        relation = self.database.relation(table)
        keys = sorted({ref.key for c in local for ref in c.column_refs()})
        slots = [(key, relation.column_position(key[1])) for key in keys]

        def accepts(stored: tuple[object, ...]) -> bool:
            row = {key: stored[position] for key, position in slots}
            return all(predicate_holds(conjunct, row) for conjunct in local)

        return accepts

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
    ) -> dict[int, tuple[ColumnKey, Expression]]:
        """Equijoins linking ``table`` to the joined rows.

        Keyed by the column position on ``table``, in position order
        (so equal joins share one index); the first conjunct per position
        probes, a second one stays pending and filters as a residual
        right after the join.
        """
        joined = self.order
        relation = self.database.relation(table)
        pairs: dict[int, tuple[ColumnKey, Expression]] = {}
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
                relation.column_position(build.column), (probe.key, conjunct)
            )
        return dict(sorted(pairs.items()))

    def _next_table(
        self, remaining: list[str]
    ) -> tuple[str, dict[int, tuple[ColumnKey, Expression]]]:
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
        self, table: str, pairs: dict[int, tuple[ColumnKey, Expression]]
    ) -> None:
        probe_keys = [key for key, _ in pairs.values()]
        used = {id(conjunct) for _, conjunct in pairs.values()}
        self.pending = [p for p in self.pending if id(p[0]) not in used]
        buckets = self.database.relation(table).hash_index(tuple(pairs))
        to_row = self._row_maker(table)
        accepts = self._row_filter(table) if self.local[table] else None
        # Each bucket is filtered and laid out once, however many
        # intermediate rows probe it.
        matched: dict[tuple[object, ...], list[RowDict]] = {}
        joined: list[RowDict] = []
        for row in self.rows:
            key = tuple([row[k] for k in probe_keys])
            matches = matched.get(key)
            if matches is None:
                # A NULL probe value finds nothing: NULL keys are not indexed.
                matches = matched[key] = [
                    to_row(stored)
                    for stored in buckets.get(key, ())
                    if accepts is None or accepts(stored)
                ]
            for match in matches:
                joined.append({**row, **match})
        self.rows = joined

    def _cross_join(self, table: str) -> None:
        to_row = self._row_maker(table)
        scanned = [to_row(stored) for stored in self._scan(table)]
        self.rows = [{**row, **other} for row in self.rows for other in scanned]

    def _apply_covered(self) -> None:
        """Filter by the pending conjuncts whose tables are all joined."""
        joined = set(self.order)
        remaining = []
        for entry in self.pending:
            conjunct, referenced, _ = entry
            if referenced <= joined:
                self.rows = [
                    row for row in self.rows if predicate_holds(conjunct, row)
                ]
            else:
                remaining.append(entry)
        self.pending = remaining


class _AggregateAccumulator:
    """Running state for one aggregate call within one group."""

    def __init__(self, call: FuncCall):
        self.call = call
        self.count = 0
        self.total: float | int | None = None

    def update(self, row: RowDict) -> None:
        if self.call.star:
            self.count += 1
            return
        value = evaluate(self.call.args[0], row)
        if value is None:
            return
        self.count += 1
        if self.call.name in ("sum", "avg"):
            if not isinstance(value, (int, float)):
                raise ExecutionError(f"SUM/AVG over non-numeric value {value!r}")
            self.total = value if self.total is None else self.total + value

    def result(self) -> object:
        name = self.call.name
        if name in ("count", "count_big"):
            return self.count
        if name == "sum":
            return self.total
        if name == "avg":
            if self.count == 0 or self.total is None:
                return None
            return self.total / self.count
        raise ExecutionError(f"unsupported aggregate {name}")


def _evaluate_output(
    expression: Expression,
    aggregate_values: dict[FuncCall, object],
    representative: RowDict,
) -> object:
    """Evaluate an output expression of an aggregate query.

    Aggregate sub-calls are replaced by their computed per-group values;
    everything else (grouping expressions, constants, arithmetic over them)
    evaluates on a representative row of the group.
    """
    if isinstance(expression, FuncCall) and expression.is_aggregate():
        return aggregate_values[expression]
    if not expression.contains_aggregate():
        return evaluate(expression, representative)
    if isinstance(expression, BinaryOp):
        left = _evaluate_output(expression.left, aggregate_values, representative)
        right = _evaluate_output(expression.right, aggregate_values, representative)
        synthetic = BinaryOp(
            expression.op,
            _as_literal(left),
            _as_literal(right),
        )
        return evaluate(synthetic, {})
    if isinstance(expression, FuncCall):
        # A scalar function (e.g. coalesce) over aggregate sub-expressions:
        # evaluate each argument in this grouping context first.
        arguments = tuple(
            _as_literal(
                _evaluate_output(argument, aggregate_values, representative)
            )
            for argument in expression.args
        )
        return evaluate(FuncCall(expression.name, arguments), {})
    raise ExecutionError(
        f"cannot evaluate aggregate output expression {expression}"
    )


def _as_literal(value: object):
    from ..sql.expressions import Literal

    return Literal(value)


def execute(
    statement: SelectStatement,
    database: Database,
    delta_table: str | None = None,
) -> QueryResult:
    """Execute a bound SPJG statement against ``database``.

    ``delta_table`` names the table whose rows drive the join -- view
    maintenance passes the changed table, whose few delta rows every
    output row contains. It affects row order only, never the bag.
    """
    from ..sql.expressions import conjuncts_of

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
            rows = [row for row in rows if predicate_holds(conjunct, row)]

    column_names = tuple(
        item.name if item.name is not None else f"col{i + 1}"
        for i, item in enumerate(statement.select_items)
    )

    if statement.is_aggregate:
        output_rows = aggregate_rows(rows, statement.select_items, statement.group_by)
    else:
        output_rows = project_rows(rows, statement.select_items)
    if statement.distinct:
        seen: set[tuple[object, ...]] = set()
        deduped: list[tuple[object, ...]] = []
        for row in output_rows:
            if row not in seen:
                seen.add(row)
                deduped.append(row)
        output_rows = deduped
    return QueryResult(columns=column_names, rows=output_rows)


def _tuple_reader(expressions):
    """``row -> tuple`` of the expressions' values; plain columns are read
    straight from the row mapping."""
    if expressions and all(isinstance(e, ColumnRef) for e in expressions):
        keys = [e.key for e in expressions]

        def read_columns(row: RowDict) -> tuple[object, ...]:
            try:
                return tuple([row[key] for key in keys])
            except KeyError as missing:
                raise ExecutionError(
                    f"row has no column {'.'.join(missing.args[0])}"
                ) from None

        return read_columns
    return lambda row: tuple([evaluate(e, row) for e in expressions])


def project_rows(
    rows: list[RowDict], select_items: tuple[SelectItem, ...] | list[SelectItem]
) -> list[tuple[object, ...]]:
    """Plain (non-grouping) projection of row mappings to output tuples."""
    read = _tuple_reader([item.expression for item in select_items])
    return [read(row) for row in rows]


def aggregate_rows(
    rows: list[RowDict],
    select_items: tuple[SelectItem, ...] | list[SelectItem],
    group_by: tuple[Expression, ...] | list[Expression],
) -> list[tuple[object, ...]]:
    """SQL grouping and aggregation over row mappings.

    NULL is an ordinary grouping key; a global aggregation (empty
    ``group_by``) over an empty input yields one row.
    """
    aggregate_calls = _distinct_aggregates(select_items)
    group_key = _tuple_reader(list(group_by))
    # group key -> (first row of the group, one accumulator per call)
    groups: dict[tuple[object, ...], tuple[RowDict, list[_AggregateAccumulator]]] = {}
    for row in rows:
        key = group_key(row)
        entry = groups.get(key)
        if entry is None:
            entry = groups[key] = (
                row,
                [_AggregateAccumulator(call) for call in aggregate_calls],
            )
        for accumulator in entry[1]:
            accumulator.update(row)
    if not group_by and not groups:
        # Global aggregation over an empty input: one row of "empty" values.
        groups[()] = ({}, [_AggregateAccumulator(call) for call in aggregate_calls])
    # Where each output comes from is decided once per statement: an
    # accumulator, a slot of the group key, or an expression over both.
    readers = [
        _output_reader(item.expression, list(group_by), aggregate_calls)
        for item in select_items
    ]
    return [
        tuple([read(key, first, accumulators) for read in readers])
        for key, (first, accumulators) in groups.items()
    ]


def _output_reader(
    expression: Expression,
    group_by: list[Expression],
    aggregate_calls: list[FuncCall],
):
    """``(group key, first row, accumulators) -> value`` of one output."""
    if expression in aggregate_calls:
        slot = aggregate_calls.index(expression)
        return lambda key, first, accumulators: accumulators[slot].result()
    if expression in group_by:
        slot = group_by.index(expression)
        return lambda key, first, accumulators: key[slot]
    if not expression.contains_aggregate():
        return lambda key, first, accumulators: evaluate(expression, first)
    return lambda key, first, accumulators: _evaluate_output(
        expression,
        {
            call: accumulator.result()
            for call, accumulator in zip(aggregate_calls, accumulators)
        },
        first,
    )


def _distinct_aggregates(
    select_items: tuple[SelectItem, ...] | list[SelectItem],
) -> list[FuncCall]:
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
