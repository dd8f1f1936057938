"""Render expression and statement ASTs back to SQL text.

Also provides :func:`shallow_template`, the representation Section 3.1.2 of
the paper prescribes for residual-predicate and output-expression matching:
the SQL text of an expression with every column reference replaced by a
placeholder, plus the ordered list of the omitted references.
"""

from __future__ import annotations

from .expressions import (
    And,
    BinaryOp,
    ColumnRef,
    Expression,
    FuncCall,
    InList,
    IsNull,
    LikePredicate,
    Literal,
    Not,
    Or,
    UnaryMinus,
)
from .statements import CreateViewStatement, SelectStatement

_COLUMN_PLACEHOLDER = "?"


def _render(node: Expression, refs: list[ColumnRef] | None) -> str:
    """Shared renderer for :func:`to_sql` and :func:`shallow_template`.

    With ``refs`` a list, column references render as the placeholder and
    are appended to it in source order. A plain module-level recursion: a
    nested function calling itself would sit in a reference cycle with
    its own closure cell, cyclic garbage on every call.
    """
    if isinstance(node, ColumnRef):
        if refs is not None:
            refs.append(node)
            return _COLUMN_PLACEHOLDER
        return f"{node.table}.{node.column}" if node.table else node.column
    if isinstance(node, Literal):
        return str(node)
    if isinstance(node, BinaryOp):
        return f"({_render(node.left, refs)} {node.op} {_render(node.right, refs)})"
    if isinstance(node, UnaryMinus):
        return f"(- {_render(node.operand, refs)})"
    if isinstance(node, And):
        return "(" + " AND ".join([_render(part, refs) for part in node.conjuncts]) + ")"
    if isinstance(node, Or):
        return "(" + " OR ".join([_render(part, refs) for part in node.disjuncts]) + ")"
    if isinstance(node, Not):
        return f"(NOT {_render(node.operand, refs)})"
    if isinstance(node, FuncCall):
        inner = "*" if node.star else ", ".join([_render(arg, refs) for arg in node.args])
        return f"{node.name}({inner})"
    if isinstance(node, LikePredicate):
        middle = "NOT LIKE" if node.negated else "LIKE"
        escaped = node.pattern.replace("'", "''")
        return f"({_render(node.operand, refs)} {middle} '{escaped}')"
    if isinstance(node, IsNull):
        middle = "IS NOT NULL" if node.negated else "IS NULL"
        return f"({_render(node.operand, refs)} {middle})"
    if isinstance(node, InList):
        middle = "NOT IN" if node.negated else "IN"
        inner = ", ".join([_render(item, refs) for item in node.items])
        return f"({_render(node.operand, refs)} {middle} ({inner}))"
    raise TypeError(f"cannot render {type(node).__name__}")


def to_sql(expression: Expression) -> str:
    """SQL text of an expression (fully parenthesised, deterministic)."""
    return _render(expression, None)


def shallow_template(expression: Expression) -> tuple[str, tuple[ColumnRef, ...]]:
    """The paper's shallow-match form: (text with refs omitted, ref list).

    Two expressions match under the paper's residual test when their
    templates are string-equal and corresponding column references fall in
    the same query equivalence class.
    """
    refs: list[ColumnRef] = []
    text = _render(expression, refs)
    return text, tuple(refs)


def statement_to_sql(statement: SelectStatement | CreateViewStatement) -> str:
    """SQL text of a SELECT or CREATE VIEW statement."""
    if isinstance(statement, CreateViewStatement):
        binding = " WITH SCHEMABINDING" if statement.schemabinding else ""
        return (
            f"CREATE VIEW {statement.name}{binding} AS "
            + statement_to_sql(statement.query)
        )
    parts = ["SELECT"]
    if statement.distinct:
        parts.append("DISTINCT")
    items = []
    for item in statement.select_items:
        rendered = to_sql(item.expression)
        if item.alias:
            rendered += f" AS {item.alias}"
        items.append(rendered)
    parts.append(", ".join(items))
    parts.append("FROM")
    tables = []
    for ref in statement.from_tables:
        rendered = f"{ref.schema}.{ref.name}" if ref.schema else ref.name
        if ref.alias:
            rendered += f" AS {ref.alias}"
        tables.append(rendered)
    parts.append(", ".join(tables))
    if statement.where is not None:
        parts.append("WHERE")
        parts.append(to_sql(statement.where))
    if statement.group_by:
        parts.append("GROUP BY")
        parts.append(", ".join(to_sql(expr) for expr in statement.group_by))
    return " ".join(parts)
