"""The executor's one-row grouping pass against its row-at-a-time code.

:mod:`repro.engine.executor` groups in C-level passes over whole columns
when no two rows share a group (``_one_row_states``). No switch selects
the pass, so patching that detector off leaves the row-at-a-time code,
which is the oracle here: over the benchmark's 130 views, the difftest
corpus, random statements and hand-picked edge cases, ``execute`` must
return the same row list -- values, types and order -- or raise the
same exception with the same message.
"""

from __future__ import annotations

import contextlib
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchmarks.e2e import workloads
from repro import generate_tpch, synthetic_tpch_stats, tpch_catalog
from repro.catalog import Catalog, Column, ColumnType, Table
from repro.difftest.corpus import load_corpus
from repro.engine import Database, execute, executor
from repro.errors import ExecutionError
from repro.sql.expressions import And, BinaryOp, ColumnRef, FuncCall
from repro.sql.statements import SelectItem, SelectStatement, TableRef

from .test_compiled_parity import COLUMN_VALUES, expressions

CORPUS_DIR = Path(__file__).parent.parent / "difftest" / "corpus"


@contextlib.contextmanager
def kernels_off():
    """The one-row detector reports that its shape is absent."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(executor, "_one_row_states", lambda *args: None)
        yield


@contextlib.contextmanager
def kernel_uses():
    """How often the one-row pass was taken inside the block."""
    used = {"one_row_groups": 0}
    one_row_states = executor._one_row_states

    def counted_one_row_states(*args):
        states = one_row_states(*args)
        used["one_row_groups"] += states is not None
        return states

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(executor, "_one_row_states", counted_one_row_states)
        yield used


def outcome(statement, database, delta_table=None):
    """Columns and rows with each value's type, or the exception raised."""
    try:
        result = execute(statement, database, delta_table)
    except Exception as error:  # the exception is the outcome
        return ("raised", type(error), str(error))
    return (
        "rows",
        result.columns,
        [(tuple(map(type, row)), _exact(row)) for row in result.rows],
    )


def _exact(row):
    """``row`` with each float's sign kept, so ``-0.0`` differs from ``0.0``."""
    return tuple(
        (value, math.copysign(1.0, value)) if isinstance(value, float) else value
        for value in row
    )


def assert_parity(statement, database, delta_table=None):
    fast = outcome(statement, database, delta_table)
    with kernels_off():
        assert outcome(statement, database, delta_table) == fast, str(statement)
    return fast


# -- the benchmark's views and the difftest corpus --------------------------------

# cdc_fresh_100 registers 100 views and publishes three batches of ten.
MV_VIEWS = 100
CV_VIEWS = 30


def test_every_benchmark_view_matches_the_row_at_a_time_result():
    catalog = tpch_catalog()
    stats = synthetic_tpch_stats(scale=workloads.STATS_SCALE)
    views = workloads.generate_views(
        catalog, stats, workloads.CATALOG_SEED, MV_VIEWS, "mv"
    ) + workloads.generate_views(
        catalog, stats, workloads.CATALOG_SEED + 1, CV_VIEWS, "cv"
    )
    database = generate_tpch(
        scale=workloads.CDC_DATA_SCALE, seed=workloads.CDC_DATA_SEED
    )
    with kernel_uses() as used:
        for _, sql in views:
            assert assert_parity(catalog.bind_sql(sql), database)[0] == "rows"
    # The shape the pass is for is the common one.
    assert used["one_row_groups"] >= 40, used


def test_every_corpus_case_matches_the_row_at_a_time_result():
    catalog = tpch_catalog()
    cases = load_corpus(CORPUS_DIR)
    assert cases
    for case in cases:
        database = Database()
        for name, spec in case.tables.items():
            database.store(
                name, tuple(spec["columns"]), [tuple(row) for row in spec["rows"]]
            )
        statements = [catalog.bind_sql(sql) for sql in case.views.values()]
        statements.append(catalog.bind_sql(case.query))
        for statement in statements:
            assert_parity(statement, database)


# -- random statements --------------------------------------------------------------

T_COLUMNS = ("id", "k", *COLUMN_VALUES)
keys = st.one_of(st.none(), st.integers(min_value=0, max_value=4))


@st.composite
def t_rows(draw):
    """Rows of ``t``: a unique id, a join key, then the columns the
    expressions read."""
    count = draw(st.integers(min_value=0, max_value=6))
    return [
        (i, draw(keys), *(draw(strategy) for strategy in COLUMN_VALUES.values()))
        for i in range(count)
    ]


aggregate_calls = st.one_of(
    st.builds(
        FuncCall, st.sampled_from(["sum", "count", "avg"]), st.tuples(expressions)
    ),
    st.just(FuncCall("count_big", (), star=True)),
)
group_keys = st.one_of(
    st.sampled_from([ColumnRef("t", "id"), ColumnRef("t", "k")]), expressions
)
# Half the groupings lead with the unique ``t.id``: one-row groups.
groupings = st.one_of(
    st.lists(group_keys, max_size=2),
    st.lists(group_keys, max_size=1).map(lambda rest: [ColumnRef("t", "id"), *rest]),
)


@settings(max_examples=300, deadline=None)
@given(
    t_rows(),
    st.lists(st.tuples(keys, COLUMN_VALUES["n"]), max_size=5),
    st.booleans(),
    groupings,
    st.lists(aggregate_calls, max_size=3),
    st.lists(expressions, max_size=2),
    st.sampled_from([None, "t", "u"]),
)
def test_random_statements_match_the_row_at_a_time_result(
    t, u, join, group_by, calls, conjuncts, delta_table
):
    database = Database()
    database.store("t", T_COLUMNS, t)
    database.store("u", ("k", "n"), u)
    tables = (TableRef("t"), TableRef("u")) if join else (TableRef("t"),)
    if join:
        join_key = BinaryOp("=", ColumnRef("t", "k"), ColumnRef("u", "k"))
        conjuncts = [join_key, *conjuncts]
    outputs = [*group_by, *calls] or [ColumnRef("t", "k")]
    statement = SelectStatement(
        select_items=tuple(
            SelectItem(expression, f"c{i}") for i, expression in enumerate(outputs)
        ),
        from_tables=tables,
        where=_and(conjuncts),
        group_by=tuple(group_by),
    )
    if delta_table == "u" and not join:
        delta_table = None
    assert_parity(statement, database, delta_table)


def _and(conjuncts):
    if len(conjuncts) > 1:
        return And(tuple(conjuncts))
    return conjuncts[0] if conjuncts else None


# -- edge cases ---------------------------------------------------------------------


@pytest.fixture()
def catalog():
    catalog = Catalog()
    catalog.add_table(
        Table(
            name="c",
            columns=(Column("ck"), Column("name", ColumnType.STRING)),
            primary_key=("ck",),
        )
    )
    catalog.add_table(
        Table(
            name="o",
            columns=(
                Column("ok"),
                Column("ck", nullable=True),
                Column("x", nullable=True),
                Column("y", nullable=True),
            ),
            primary_key=("ok",),
        )
    )
    return catalog


def run(catalog, database, sql):
    """The result (or exception) with the fast paths, checked against
    the row-at-a-time code."""
    return assert_parity(catalog.bind_sql(sql), database)


def rows_of(result):
    assert result[0] == "rows", result
    return [row for _, row in result[2]]


def store(database, o_rows, c_rows=((1, "a"), (2, "b"), (3, "c"))):
    database.store("c", ("ck", "name"), list(c_rows))
    database.store("o", ("ok", "ck", "x", "y"), list(o_rows))
    return database


def test_null_foreign_keys_find_no_row(catalog):
    database = store(
        Database(), [(10, 1, 1, 1), (11, None, 2, 2), (12, 3, 3, 3), (13, 7, 4, 4)]
    )
    sql = (
        "select o.ok, c.name, count_big(*) as n from o, c "
        "where o.ck = c.ck group by o.ok, c.name"
    )
    with kernel_uses() as used:
        assert rows_of(run(catalog, database, sql)) == [(10, "a", 1), (12, "c", 1)]
    assert used["one_row_groups"] == 1


def test_duplicate_group_keys_take_the_row_at_a_time_pass(catalog):
    database = store(Database(), [(10, 1, 1, 1), (11, 1, 2, 2), (12, 2, 3, 3)])
    sql = "select o.ck, sum(o.x) as s, count_big(*) as n from o group by o.ck"
    with kernel_uses() as used:
        assert rows_of(run(catalog, database, sql)) == [(1, 3, 2), (2, 3, 1)]
    assert used["one_row_groups"] == 0


def test_count_of_nulls_and_avg_in_one_row_groups(catalog):
    database = store(Database(), [(10, 1, None, 1), (11, 2, 4, None), (12, 3, 3, 2)])
    sql = (
        "select o.ok, count(o.x) as cx, count(o.y) as cy, avg(o.x) as ax, "
        "sum(o.y) as sy, count_big(*) as n from o group by o.ok"
    )
    with kernel_uses() as used:
        assert rows_of(run(catalog, database, sql)) == [
            (10, 0, 1, None, 1, 1),
            (11, 1, 0, (4.0, 1.0), None, 1),
            (12, 1, 1, (3.0, 1.0), 2, 1),
        ]
    assert used["one_row_groups"] == 1


def test_bool_and_negative_zero_summands_are_their_own_totals(catalog):
    database = store(Database(), [(10, 1, True, -0.0), (11, 2, False, 0.0)])
    sql = "select o.ok, sum(o.x) as sx, sum(o.y) as sy from o group by o.ok"
    result = run(catalog, database, sql)
    assert result[2] == [
        ((int, bool, float), (10, True, (-0.0, -1.0))),
        ((int, bool, float), (11, False, (0.0, 1.0))),
    ]


def test_non_numeric_sum_raises_for_the_first_value_in_row_order(catalog):
    # Row 11 holds the first non-numeric value in row order, though the
    # first call's (``x``) comes later, in row 12.
    database = store(
        Database(), [(10, 1, 1, 1), (11, 2, 2, "late"), (12, 3, "early", 3)]
    )
    sql = "select o.ok, sum(o.x) as sx, sum(o.y) as sy from o group by o.ok"
    result = run(catalog, database, sql)
    message = "SUM/AVG over non-numeric value 'late'"
    assert result == ("raised", ExecutionError, message)


def test_an_empty_intermediate_yields_no_group(catalog):
    database = store(Database(), [(10, 1, 1, 1)])
    sql = (
        "select c.name, sum(o.x) as s, count_big(*) as n from o, c "
        "where o.ck = c.ck and o.x > 5 group by c.name"
    )
    assert rows_of(run(catalog, database, sql)) == []


def test_a_global_aggregate_over_nothing_is_one_row(catalog):
    database = store(Database(), [])
    sql = (
        "select sum(o.x) as s, count(o.x) as c, count_big(*) as n "
        "from o, c where o.ck = c.ck"
    )
    assert rows_of(run(catalog, database, sql)) == [(None, 0, 0)]

