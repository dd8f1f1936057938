"""Physical plan nodes: executable, costed operator trees.

Every leaf is a :class:`BlockNode` -- a single-level SPJG statement executed
through the engine (either a block over base tables or a substitute over a
materialized view). Internal nodes join blocks; a :class:`FinishNode` on
top projects or aggregates to the query's output.

Rows flow between operators as plain tuples, the engine's row format:
a node's ``output_keys`` name the ``(relation, column)`` key of each
position, so a block's result tuples pass through untouched, a join
concatenates its inputs' tuples, and a substitute transparently stands in
for the block it replaces by publishing the same keys.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from ..engine.database import Database
from ..engine.evaluator import Row, compile_predicate, compile_tuple, layout
from ..engine.executor import QueryResult, execute, finish_rows
from ..sql.expressions import ColumnRef, Expression
from ..sql.statements import SelectItem, SelectStatement
from ..core.equivalence import ColumnKey


@dataclass
class PlanNode:
    """Base: estimated output rows and total (cumulative) cost."""

    est_rows: float = field(default=0.0, kw_only=True)
    cost: float = field(default=0.0, kw_only=True)

    def rows(self, database: Database) -> list[Row]:
        raise NotImplementedError

    def children(self) -> tuple["PlanNode", ...]:
        return ()

    def walk(self):
        yield self
        for child in self.children():
            yield from child.walk()

    def uses_view(self) -> bool:
        """True when any block in the plan scans a materialized view."""
        return any(
            isinstance(node, BlockNode) and node.view_name is not None
            for node in self.walk()
        )

    def view_names(self) -> tuple[str, ...]:
        return tuple(
            node.view_name
            for node in self.walk()
            if isinstance(node, BlockNode) and node.view_name is not None
        )


@dataclass
class BlockNode(PlanNode):
    """A single-level statement executed by the engine, keyed for parents.

    ``output_keys`` gives the (relation, column) key each result column is
    published under; for base-table blocks these are the original column
    keys, for pre-aggregation blocks the aggregate columns get virtual keys.
    ``view_name`` is set when the statement scans a materialized view (i.e.
    it is a substitute produced by view matching). While the optimizer
    searches, such a node holds the accepted ``match`` instead of a
    statement; it builds the statements of the plan it returns.
    """

    statement: SelectStatement | None
    output_keys: tuple[ColumnKey, ...]
    view_name: str | None = None
    match: object = field(default=None, repr=False, compare=False)

    def rows(self, database: Database) -> list[Row]:
        result = execute(self.statement, database)
        if len(self.output_keys) != len(result.columns):
            raise ValueError(
                f"block publishes {len(self.output_keys)} keys but produced "
                f"{len(result.columns)} columns"
            )
        return result.rows


@dataclass
class HashJoinNode(PlanNode):
    """Equijoin of two inputs on key pairs, plus optional residual conjuncts.

    With no ``join_pairs`` the node degrades to a (costed-accordingly)
    cross join.
    """

    left: PlanNode
    right: PlanNode
    join_pairs: tuple[tuple[ColumnKey, ColumnKey], ...]
    residual: tuple[Expression, ...] = ()

    def children(self) -> tuple[PlanNode, ...]:
        return (self.left, self.right)

    @property
    def output_keys(self) -> tuple[ColumnKey, ...]:
        return self.left.output_keys + self.right.output_keys

    def rows(self, database: Database) -> list[Row]:
        left_rows = self.left.rows(database)
        right_rows = self.right.rows(database)
        if self.join_pairs:
            joined = self._hash_join(left_rows, right_rows)
        else:
            joined = [
                left_row + right_row
                for left_row in left_rows
                for right_row in right_rows
            ]
        if self.residual:
            holds = compile_predicate(self.residual, layout(self.output_keys))
            joined = list(filter(holds, joined))
        return joined

    def _hash_join(self, left_rows: list[Row], right_rows: list[Row]) -> list[Row]:
        left_key = compile_tuple(
            [ColumnRef(*left) for left, _ in self.join_pairs],
            layout(self.left.output_keys),
        )
        right_key = compile_tuple(
            [ColumnRef(*right) for _, right in self.join_pairs],
            layout(self.right.output_keys),
        )
        buckets: dict[Row, list[Row]] = {}
        for row in right_rows:
            key = right_key(row)
            if None not in key:
                buckets.setdefault(key, []).append(row)
        # A NULL probe value finds nothing: NULL keys are not in the buckets.
        return [
            row + match
            for row in left_rows
            for match in buckets.get(left_key(row), ())
        ]


@dataclass
class FinishNode(PlanNode):
    """Top operator: project or group the child rows to the final output."""

    child: PlanNode
    select_items: tuple[SelectItem, ...]
    group_by: tuple[Expression, ...] = ()
    aggregate: bool = False
    distinct: bool = False

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def rows(self, database: Database) -> list[Row]:
        raise NotImplementedError("FinishNode produces a QueryResult, not rows")

    def result(self, database: Database) -> QueryResult:
        return finish_rows(
            self.child.rows(database),
            layout(self.child.output_keys),
            self.select_items,
            self.group_by,
            aggregate=self.aggregate,
            distinct=self.distinct,
        )


@dataclass
class DirectNode(PlanNode):
    """A whole-query substitute: one statement computes the final result
    (during search, the ``match`` it is built from; see :class:`BlockNode`)."""

    statement: SelectStatement | None
    view_name: str | None = None
    match: object = field(default=None, repr=False, compare=False)

    def rows(self, database: Database) -> list[Row]:
        raise NotImplementedError("DirectNode produces a QueryResult, not rows")

    def result(self, database: Database) -> QueryResult:
        return execute(self.statement, database)

    def uses_view(self) -> bool:
        return self.view_name is not None

    def view_names(self) -> tuple[str, ...]:
        return (self.view_name,) if self.view_name else ()


def plan_result(plan: PlanNode, database: Database) -> QueryResult:
    """Execute a completed plan (FinishNode or DirectNode)."""
    if isinstance(plan, (FinishNode, DirectNode)):
        return plan.result(database)
    raise TypeError(f"not an executable top plan: {type(plan).__name__}")


def describe_plan(plan: PlanNode, indent: int = 0) -> str:
    """A readable indented rendering of a plan tree (for examples/tests)."""
    pad = "  " * indent
    if isinstance(plan, BlockNode):
        source = f"view {plan.view_name}" if plan.view_name else "base tables"
        tables = ", ".join(ref.name for ref in plan.statement.from_tables)
        header = (
            f"{pad}Block[{source}] scan({tables}) "
            f"rows~{plan.est_rows:.0f} cost~{plan.cost:.0f}"
        )
        return header
    if isinstance(plan, HashJoinNode):
        kind = "HashJoin" if plan.join_pairs else "CrossJoin"
        lines = [f"{pad}{kind} rows~{plan.est_rows:.0f} cost~{plan.cost:.0f}"]
        lines.append(describe_plan(plan.left, indent + 1))
        lines.append(describe_plan(plan.right, indent + 1))
        return "\n".join(lines)
    if isinstance(plan, FinishNode):
        op = "GroupBy" if plan.aggregate else "Project"
        lines = [f"{pad}{op} rows~{plan.est_rows:.0f} cost~{plan.cost:.0f}"]
        lines.append(describe_plan(plan.child, indent + 1))
        return "\n".join(lines)
    if isinstance(plan, DirectNode):
        source = f"view {plan.view_name}" if plan.view_name else "base tables"
        return (
            f"{pad}Direct[{source}] rows~{plan.est_rows:.0f} cost~{plan.cost:.0f}"
        )
    return f"{pad}{type(plan).__name__}"

