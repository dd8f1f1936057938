"""Scalar expressions compiled to closures over positional rows.

A row is a plain tuple; ``slots`` says where each ``(table, column)`` key
-- and, in a grouping context, each aggregate call -- sits in it.
:func:`compile_expression` resolves those positions once and returns a
closure ``row -> value``; ``None`` represents SQL NULL and predicates
return ``True``, ``False`` or ``None`` (unknown) following Kleene logic.
The executor keeps a row only when its predicate evaluates to ``True``.

Compiling never raises: whatever cannot be evaluated (a column the row
does not carry, an aggregate outside a grouping context, an unknown
function) becomes a closure that raises :class:`ExecutionError` when a
row reaches it, so a statement over an empty input fails exactly when
interpreting it row by row would have.
"""

from __future__ import annotations

import operator
import re
from functools import lru_cache
from operator import itemgetter
from typing import Callable, Iterable, Mapping

from ..errors import ExecutionError
from ..sql.expressions import (
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

ColumnKey = tuple[str, str]
Row = tuple[object, ...]
# Column key (or aggregate call, when grouping) -> position in the row.
Slots = Mapping[object, int]
Compiled = Callable[[Row], object]

_COMPARE = {
    "=": operator.eq,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}
_ARITHMETIC = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "%": operator.mod,
}


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


def layout(keys: Iterable[ColumnKey]) -> dict[ColumnKey, int]:
    """Slots of a row that holds the values of ``keys`` in that order."""
    return {key: position for position, key in enumerate(keys)}


def _raises(message: str) -> Compiled:
    def fail(row: Row) -> object:
        raise ExecutionError(message)

    return fail


def slot_of(expression: Expression, slots: Slots) -> int | None:
    """Position of a plain slot read, ``None`` for anything computed.

    A bound column the row carries, or -- in a grouping context, which
    publishes each aggregate's result in a slot -- an aggregate call.
    """
    if isinstance(expression, ColumnRef):
        return slots.get(expression.key) if expression.table is not None else None
    if isinstance(expression, FuncCall) and expression.is_aggregate():
        return slots.get(expression)
    return None


def compile_expression(expression: Expression, slots: Slots) -> Compiled:
    """``row -> value`` of ``expression`` over rows laid out by ``slots``."""
    slot = slot_of(expression, slots)
    if slot is not None:
        return itemgetter(slot)
    if isinstance(expression, Literal):
        value = expression.value
        return lambda row: value
    if isinstance(expression, ColumnRef):
        if expression.table is None:
            return lambda row: expression.key  # raises: the reference is unbound
        return _raises(f"row has no column {expression}")
    if isinstance(expression, BinaryOp):
        if expression.is_comparison():
            return _compile_comparison(expression, slots)
        return _compile_arithmetic(expression, slots)
    if isinstance(expression, UnaryMinus):
        return _compile_negation(compile_expression(expression.operand, slots))
    if isinstance(expression, And):
        return _compile_and(
            [compile_expression(part, slots) for part in expression.conjuncts]
        )
    if isinstance(expression, Or):
        return _compile_or(
            [compile_expression(part, slots) for part in expression.disjuncts]
        )
    if isinstance(expression, Not):
        return _compile_not(compile_expression(expression.operand, slots))
    if isinstance(expression, IsNull):
        return _compile_is_null(
            compile_expression(expression.operand, slots), expression.negated
        )
    if isinstance(expression, LikePredicate):
        return _compile_like(expression, slots)
    if isinstance(expression, InList):
        return _compile_in_list(expression, slots)
    if isinstance(expression, FuncCall):
        return _compile_call(expression, slots)
    return _raises(f"cannot evaluate {type(expression).__name__}")


def _compile_comparison(expression: BinaryOp, slots: Slots) -> Compiled:
    op = expression.op
    compare = _COMPARE[op]
    left = compile_expression(expression.left, slots)
    right_node = expression.right
    if isinstance(right_node, Literal) and right_node.value is not None:
        # ``col op literal``, the shape of every range conjunct.
        constant = right_node.value

        def compare_constant(row: Row) -> bool | None:
            value = left(row)
            if value is None:
                return None
            try:
                return compare(value, constant)
            except TypeError as exc:
                raise ExecutionError(
                    f"cannot compare {value!r} {op} {constant!r}"
                ) from exc

        return compare_constant

    right = compile_expression(right_node, slots)

    def comparison(row: Row) -> bool | None:
        a = left(row)
        b = right(row)
        if a is None or b is None:
            return None
        try:
            return compare(a, b)
        except TypeError as exc:
            raise ExecutionError(f"cannot compare {a!r} {op} {b!r}") from exc

    return comparison


def _unknown_arithmetic(op: str) -> Callable[[object, object], object]:
    def fail(a: object, b: object) -> object:
        raise ExecutionError(f"unknown arithmetic operator {op!r}")

    return fail


def _compile_arithmetic(expression: BinaryOp, slots: Slots) -> Compiled:
    op = expression.op
    apply = _ARITHMETIC.get(op) or _unknown_arithmetic(op)
    # SQL Server would error on a zero divisor; NULL keeps generated data safe.
    guards_zero = op in ("/", "%")
    left = compile_expression(expression.left, slots)
    right = compile_expression(expression.right, slots)

    def arithmetic(row: Row) -> object:
        a = left(row)
        b = right(row)
        if a is None or b is None:
            return None
        if not isinstance(a, (int, float)) or not isinstance(b, (int, float)):
            raise ExecutionError(
                f"arithmetic on non-numeric values: {a!r} {op} {b!r}"
            )
        if guards_zero and b == 0:
            return None
        return apply(a, b)

    return arithmetic


def _compile_negation(operand: Compiled) -> Compiled:
    def negation(row: Row) -> object:
        value = operand(row)
        if value is None:
            return None
        if not isinstance(value, (int, float)):
            raise ExecutionError(f"cannot negate {value!r}")
        return -value

    return negation


def _compile_and(parts: list[Compiled]) -> Compiled:
    def conjunction(row: Row) -> bool | None:
        saw_unknown = False
        for part in parts:
            value = part(row)
            if value is False:
                return False
            if value is None:
                saw_unknown = True
        return None if saw_unknown else True

    return conjunction


def _compile_or(parts: list[Compiled]) -> Compiled:
    def disjunction(row: Row) -> bool | None:
        saw_unknown = False
        for part in parts:
            value = part(row)
            if value is True:
                return True
            if value is None:
                saw_unknown = True
        return None if saw_unknown else False

    return disjunction


def _compile_not(operand: Compiled) -> Compiled:
    def inversion(row: Row) -> bool | None:
        value = operand(row)
        if value is None:
            return None
        return not value

    return inversion


def _compile_is_null(operand: Compiled, negated: bool) -> Compiled:
    if negated:
        return lambda row: operand(row) is not None
    return lambda row: operand(row) is None


def _compile_like(expression: LikePredicate, slots: Slots) -> Compiled:
    operand = compile_expression(expression.operand, slots)
    fullmatch = _like_regex(expression.pattern).fullmatch
    negated = expression.negated

    def like(row: Row) -> bool | None:
        value = operand(row)
        if value is None:
            return None
        if not isinstance(value, str):
            raise ExecutionError(f"LIKE applied to non-string {value!r}")
        matched = fullmatch(value) is not None
        return matched is not negated

    return like


def _compile_in_list(expression: InList, slots: Slots) -> Compiled:
    operand = compile_expression(expression.operand, slots)
    items = [compile_expression(item, slots) for item in expression.items]
    negated = expression.negated

    def in_list(row: Row) -> bool | None:
        value = operand(row)
        if value is None:
            return None
        saw_unknown = False
        for item in items:
            candidate = item(row)
            if candidate is None:
                saw_unknown = True
            elif candidate == value:
                return not negated
        if saw_unknown:
            return None
        return negated

    return in_list


def _compile_call(call: FuncCall, slots: Slots) -> Compiled:
    if call.is_aggregate():
        return _raises(f"aggregate {call.name} outside grouping context")
    if call.name != "coalesce":
        return _raises(f"unknown function {call.name}")
    if not call.args:
        return _raises("coalesce requires at least one argument")
    arguments = [compile_expression(argument, slots) for argument in call.args]

    def coalesce(row: Row) -> object:
        for argument in arguments:
            value = argument(row)
            if value is not None:
                return value
        return None

    return coalesce


def compile_predicate(
    conjuncts: Iterable[Expression], slots: Slots
) -> Callable[[Row], bool]:
    """``row -> whether every conjunct is SQL TRUE`` (not FALSE, not UNKNOWN).

    Conjuncts are tested in order and a row stops at its first failure.
    """
    tests = [compile_expression(conjunct, slots) for conjunct in conjuncts]
    if len(tests) == 1:
        (test,) = tests
        return lambda row: test(row) is True

    def holds(row: Row) -> bool:
        for test in tests:
            if test(row) is not True:
                return False
        return True

    return holds


def compile_tuple(
    expressions: Iterable[Expression], slots: Slots
) -> Callable[[Row], Row]:
    """``row -> tuple`` of the expressions' values (a key or an output row).

    Several plain slot reads become one ``itemgetter``.
    """
    expressions = list(expressions)
    positions = [slot_of(expression, slots) for expression in expressions]
    if len(positions) > 1 and None not in positions:
        return itemgetter(*positions)
    readers = [compile_expression(e, slots) for e in expressions]
    if len(readers) == 1:
        (reader,) = readers
        return lambda row: (reader(row),)
    return lambda row: tuple([reader(row) for reader in readers])


def evaluate(expression: Expression, row: Mapping[ColumnKey, object]) -> object:
    """Evaluate a scalar expression over one ``(table, column) -> value`` row.

    Aggregate function calls cannot be evaluated here; the executor gives
    them slots during grouping and this function raises if one slips
    through.
    """
    return compile_expression(expression, layout(row))(tuple(row.values()))


def predicate_holds(
    predicate: Expression | None, row: Mapping[ColumnKey, object]
) -> bool:
    """True when the predicate evaluates to SQL TRUE (not FALSE or UNKNOWN)."""
    if predicate is None:
        return True
    return evaluate(predicate, row) is True
