"""The compiled evaluator against the interpreter it replaced.

``repro.engine.evaluator`` compiles an expression to a closure over a
positional row; ``_reference_evaluator`` is the recursive interpreter over
``(table, column) -> value`` mappings the engine used to run. Over random
trees of every node type -- NULLs, mixed types, zero divisors, columns
the row does not carry, unbound references, unknown operators and
functions -- both must give the same value of the same type, or raise
the same exception with the same message. Every node type over every
pair of a fixed set of leaves is enumerated as well, so each operator and
each error message is met on every run, not only when hypothesis draws it.
"""

from __future__ import annotations

from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.evaluator import (
    compile_expression,
    compile_predicate,
    compile_tuple,
    evaluate,
)
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

from . import _reference_evaluator as reference

texts = st.sampled_from(["", "a", "ab", "a.c", "x%"])
numbers = st.one_of(
    st.integers(min_value=-3, max_value=3), st.sampled_from([0.0, -0.5, 1.5, 2.0])
)
scalars = st.one_of(st.none(), st.booleans(), numbers, texts)
# What each column of ``t`` holds, so that typed operators mostly meet
# operands of their type: ``n`` and ``m`` numbers, ``s`` text, ``x`` anything.
COLUMN_VALUES = {
    "n": st.one_of(st.none(), numbers),
    "m": numbers,
    "s": st.one_of(st.none(), texts),
    "x": scalars,
}
columns = st.one_of(
    st.builds(ColumnRef, st.just("t"), st.sampled_from(list(COLUMN_VALUES))),
    st.sampled_from(
        [ColumnRef("t", "missing"), ColumnRef("u", "n"), ColumnRef(None, "n")]
    ),
)
leaves = st.one_of(st.builds(Literal, scalars), columns)
numeric_leaves = st.one_of(
    st.builds(Literal, numbers),
    st.sampled_from([ColumnRef("t", "n"), ColumnRef("t", "m")]),
)
text_leaves = st.one_of(st.builds(Literal, texts), st.just(ColumnRef("t", "s")))
comparisons = st.sampled_from(["=", "<>", "<", "<=", ">", ">="])
arithmetic = st.sampled_from(["+", "-", "*", "/", "%", "||"])
patterns = st.sampled_from(["%", "a%", "_b", "a.c", "x\\%", ""])


def _nodes(children):
    several = st.lists(children, min_size=0, max_size=3).map(tuple)
    numeric = st.one_of(numeric_leaves, children)
    comparable = st.one_of(numeric_leaves, text_leaves, children)
    return st.one_of(
        st.builds(BinaryOp, comparisons, comparable, comparable),
        st.builds(BinaryOp, arithmetic, numeric, numeric),
        st.builds(UnaryMinus, numeric),
        st.builds(And, several),
        st.builds(Or, several),
        st.builds(Not, children),
        st.builds(IsNull, children, st.booleans()),
        st.builds(
            LikePredicate, st.one_of(text_leaves, children), patterns, st.booleans()
        ),
        st.builds(InList, numeric, several, st.booleans()),
        st.builds(FuncCall, st.just("coalesce"), several),
        st.builds(FuncCall, st.sampled_from(["sum", "count_big", "nvl"]), several),
    )


expressions = st.recursive(leaves, _nodes, max_leaves=12)


@st.composite
def rows_with_layouts(draw):
    """A mapping row, and the same values as a tuple in some other order
    with unrelated slots in between."""
    values = {
        ("t", column): draw(strategy) for column, strategy in COLUMN_VALUES.items()
    }
    order = draw(st.permutations(list(values)))
    padding = draw(st.integers(min_value=0, max_value=2))
    row: list[object] = ["pad"] * padding
    slots = {}
    for key in order:
        slots[key] = len(row)
        row += [values[key], "pad"]
    return values, slots, tuple(row)


def outcome(compute):
    """``("value", type, value)`` or ``("raised", type, message)``."""
    try:
        value = compute()
    except (ExecutionError, ValueError) as error:
        return ("raised", type(error), str(error))
    return ("value", type(value), value)


def assert_same_outcome(expression, mapping, slots, row):
    compiled = compile_expression(expression, slots)  # never raises
    expected = outcome(lambda: reference.evaluate(expression, mapping))
    assert outcome(lambda: compiled(row)) == expected, str(expression)
    # ... and so does the public wrapper, which lays the mapping out itself.
    assert outcome(lambda: evaluate(expression, mapping)) == expected, str(expression)


def assert_same_predicate_and_tuple(parts, mapping, slots, row):
    holds = compile_predicate(parts, slots)
    assert outcome(lambda: holds(row)) == outcome(
        lambda: all(reference.predicate_holds(part, mapping) for part in parts)
    )
    read = compile_tuple(parts, slots)
    assert outcome(lambda: read(row)) == outcome(
        lambda: tuple(reference.evaluate(part, mapping) for part in parts)
    )


LEAVES = [
    Literal(None),
    Literal(True),
    Literal(0),
    Literal(2),
    Literal(2.0),
    Literal(-1.5),
    Literal("a"),
    Literal("ab"),
    ColumnRef("t", "n"),
    ColumnRef("t", "s"),
    ColumnRef("t", "missing"),
    ColumnRef(None, "n"),
]


def shallow_trees():
    """Every node type over every leaf, or ordered pair of leaves."""
    yield from (And(()), Or(()), FuncCall("coalesce", ()))
    for x in LEAVES:
        yield from (UnaryMinus(x), Not(x), IsNull(x), IsNull(x, negated=True))
        yield from (LikePredicate(x, "a%"), LikePredicate(x, "_", negated=True))
        yield from (FuncCall(name, (x,)) for name in ("coalesce", "sum", "nvl"))
        for y in LEAVES:
            for op in ("=", "<>", "<", "<=", ">", ">=", "+", "-", "*", "/", "%", "||"):
                yield BinaryOp(op, x, y)
            yield from (And((x, y)), Or((x, y)), FuncCall("coalesce", (x, y)))
            yield from (InList(x, (y,)), InList(x, (Literal(None), y), negated=True))


@pytest.mark.parametrize(
    "mapping",
    [
        {("t", "n"): 2, ("t", "s"): "a"},
        {("t", "n"): 0, ("t", "s"): None},
        {("t", "n"): None, ("t", "s"): "abc"},
    ],
    ids=["values", "zero", "nulls"],
)
def test_every_node_type_over_every_pair_of_leaves(mapping):
    slots = {("t", "s"): 0, ("t", "n"): 2}
    row = (mapping["t", "s"], "pad", mapping["t", "n"])
    for expression in shallow_trees():
        assert_same_outcome(expression, mapping, slots, row)
    for parts in [[x] for x in LEAVES] + [[x, y] for x in LEAVES for y in LEAVES]:
        assert_same_predicate_and_tuple(parts, mapping, slots, row)


@settings(max_examples=300, deadline=None)
@given(expressions, rows_with_layouts())
def test_compiled_closure_equals_the_interpreter(expression, laid_out):
    mapping, slots, row = laid_out
    assert_same_outcome(expression, mapping, slots, row)


@settings(max_examples=100, deadline=None)
@given(st.lists(expressions, min_size=1, max_size=3), rows_with_layouts())
def test_compiled_predicate_and_tuple_equal_the_interpreter(parts, laid_out):
    assert_same_predicate_and_tuple(parts, *laid_out)


def test_plain_column_tuples_keep_their_arity():
    slots = {("t", "a"): 2, ("t", "b"): 0}
    a, b = ColumnRef("t", "a"), ColumnRef("t", "b")
    assert compile_tuple([], slots)(("x", "y", "z")) == ()
    assert compile_tuple([a], slots)(("x", "y", "z")) == ("z",)
    assert compile_tuple([a, b], slots)(("x", "y", "z")) == ("z", "x")


def test_an_aggregate_call_reads_its_slot_in_a_grouping_context():
    total = FuncCall("sum", (ColumnRef("t", "a"),))
    negated = UnaryMinus(total)
    assert compile_expression(negated, {total: 1})((None, 7)) == -7
    with pytest.raises(ExecutionError, match="aggregate sum outside grouping"):
        compile_expression(negated, {})((None, 7))


def test_an_unknown_node_type_fails_when_a_row_reaches_it():
    @dataclass(frozen=True)
    class Mystery(Expression):
        pass

    compiled = compile_expression(Mystery(), {})
    with pytest.raises(ExecutionError, match="cannot evaluate Mystery"):
        compiled(())
    with pytest.raises(ExecutionError, match="cannot evaluate Mystery"):
        reference.evaluate(Mystery(), {})
