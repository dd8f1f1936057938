"""The recursive interpreter the engine ran before it compiled expressions.

Kept here, for tests only, as the oracle ``repro.engine.evaluator``'s
closures are compared against (``test_compiled_parity.py``) and as the
scalar evaluator of the nested-loop executor in ``test_join_pipeline.py``.
It shares nothing with the compiler but the expression node classes and
``ExecutionError``.

Rows are mappings from ``(table, column)`` pairs to Python values; ``None``
represents SQL NULL. Predicate evaluation returns ``True``, ``False`` or
``None`` (unknown) following Kleene logic; a row is kept only when the
WHERE predicate evaluates to ``True``.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Mapping

from repro.errors import ExecutionError
from repro.sql.expressions import (
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

Row = Mapping[tuple[str, str], object]


@lru_cache(maxsize=4096)
def _like_regex(pattern: str) -> re.Pattern[str]:
    """Compile a SQL LIKE pattern (% and _) into an anchored regex."""
    parts: list[str] = []
    for ch in pattern:
        if ch == "%":
            parts.append(".*")
        elif ch == "_":
            parts.append(".")
        else:
            parts.append(re.escape(ch))
    return re.compile("".join(parts), re.DOTALL)


def _compare(op: str, left: object, right: object) -> bool | None:
    if left is None or right is None:
        return None
    try:
        if op == "=":
            return left == right
        if op == "<>":
            return left != right
        if op == "<":
            return left < right  # type: ignore[operator]
        if op == "<=":
            return left <= right  # type: ignore[operator]
        if op == ">":
            return left > right  # type: ignore[operator]
        if op == ">=":
            return left >= right  # type: ignore[operator]
    except TypeError as exc:
        raise ExecutionError(f"cannot compare {left!r} {op} {right!r}") from exc
    raise ExecutionError(f"unknown comparison operator {op!r}")


def _arithmetic(op: str, left: object, right: object) -> object:
    if left is None or right is None:
        return None
    if not isinstance(left, (int, float)) or not isinstance(right, (int, float)):
        raise ExecutionError(f"arithmetic on non-numeric values: {left!r} {op} {right!r}")
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        if right == 0:
            return None  # SQL Server would error; NULL keeps generated data safe
        return left / right
    if op == "%":
        if right == 0:
            return None
        return left % right
    raise ExecutionError(f"unknown arithmetic operator {op!r}")


def evaluate(expression: Expression, row: Row) -> object:
    """Evaluate a scalar expression over ``row``; NULL maps to ``None``.

    Aggregate function calls cannot be evaluated here and raise.
    """
    if isinstance(expression, Literal):
        return expression.value
    if isinstance(expression, ColumnRef):
        try:
            return row[expression.key]
        except KeyError:
            raise ExecutionError(f"row has no column {expression}") from None
    if isinstance(expression, BinaryOp):
        left = evaluate(expression.left, row)
        right = evaluate(expression.right, row)
        if expression.is_comparison():
            return _compare(expression.op, left, right)
        return _arithmetic(expression.op, left, right)
    if isinstance(expression, UnaryMinus):
        value = evaluate(expression.operand, row)
        if value is None:
            return None
        if not isinstance(value, (int, float)):
            raise ExecutionError(f"cannot negate {value!r}")
        return -value
    if isinstance(expression, And):
        saw_unknown = False
        for part in expression.conjuncts:
            value = evaluate(part, row)
            if value is False:
                return False
            if value is None:
                saw_unknown = True
        return None if saw_unknown else True
    if isinstance(expression, Or):
        saw_unknown = False
        for part in expression.disjuncts:
            value = evaluate(part, row)
            if value is True:
                return True
            if value is None:
                saw_unknown = True
        return None if saw_unknown else False
    if isinstance(expression, Not):
        value = evaluate(expression.operand, row)
        if value is None:
            return None
        return not value
    if isinstance(expression, IsNull):
        value = evaluate(expression.operand, row)
        result = value is None
        return not result if expression.negated else result
    if isinstance(expression, LikePredicate):
        value = evaluate(expression.operand, row)
        if value is None:
            return None
        if not isinstance(value, str):
            raise ExecutionError(f"LIKE applied to non-string {value!r}")
        matched = _like_regex(expression.pattern).fullmatch(value) is not None
        return not matched if expression.negated else matched
    if isinstance(expression, InList):
        value = evaluate(expression.operand, row)
        if value is None:
            return None
        saw_unknown = False
        for item in expression.items:
            candidate = evaluate(item, row)
            if candidate is None:
                saw_unknown = True
            elif candidate == value:
                return False if expression.negated else True
        if saw_unknown:
            return None
        return True if expression.negated else False
    if isinstance(expression, FuncCall):
        if expression.is_aggregate():
            raise ExecutionError(
                f"aggregate {expression.name} outside grouping context"
            )
        if expression.name == "coalesce":
            if not expression.args:
                raise ExecutionError("coalesce requires at least one argument")
            for argument in expression.args:
                value = evaluate(argument, row)
                if value is not None:
                    return value
            return None
        raise ExecutionError(f"unknown function {expression.name}")
    raise ExecutionError(f"cannot evaluate {type(expression).__name__}")


def predicate_holds(predicate: Expression | None, row: Row) -> bool:
    """True when the predicate evaluates to SQL TRUE (not FALSE or UNKNOWN)."""
    if predicate is None:
        return True
    return evaluate(predicate, row) is True
