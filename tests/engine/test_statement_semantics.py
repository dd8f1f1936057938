"""SQL semantics at the statement level, through both executors.

One table of statements over a three-table database with NULLs, duplicate
rows and mixed types. Each runs through ``execute`` (every table in turn
as ``delta_table`` too: the bag must not move) and, planned by the
optimizer without views, through ``plan_result`` -- block, hash-join and
finish nodes over the same positional rows.
"""

from __future__ import annotations

import pytest

from repro.catalog import Catalog, Column, ColumnType, Table
from repro.engine import Database, execute
from repro.engine.executor import _JoinPipeline
from repro.errors import ExecutionError
from repro.optimizer import Optimizer, plan_result
from repro.optimizer.plans import HashJoinNode
from repro.sql.expressions import (
    ColumnRef,
    FuncCall,
    InList,
    IsNull,
    LikePredicate,
    Literal,
    Not,
    conjuncts_of,
)
from repro.sql.statements import SelectItem, SelectStatement, TableRef
from repro.stats import DatabaseStats

CATALOG = Catalog()
CATALOG.add_table(
    Table(
        name="t",
        columns=(
            Column("a", nullable=True),
            Column("b", nullable=True),
            Column("s", ColumnType.STRING, nullable=True),
        ),
    )
)
CATALOG.add_table(Table(name="u", columns=(Column("a", nullable=True), Column("c"))))
CATALOG.add_table(Table(name="w", columns=(Column("a"), Column("d"))))
CATALOG.add_table(Table(name="e", columns=(Column("a"), Column("s", ColumnType.STRING))))


def database() -> Database:
    contents = {
        "t": (
            ("a", "b", "s"),
            [(1, 10, "xa"), (1, 10, "xa"), (2, 20, "yb"), (3, None, None), (None, 5, "xc")],
        ),
        "u": (("a", "c"), [(1, 100), (2, 200), (2, 201), (None, 300), (9, 900)]),
        "w": (("a", "d"), [(1, 7), (2, 8)]),
        "e": (("a", "s"), []),
    }
    db = Database()
    for name, (columns, rows) in contents.items():
        db.store(name, columns, rows)
    return db


# (id, sql, expected rows as a bag | expected error message)
CASES = [
    (
        "null join key never matches",
        "select t.a, u.c from t, u where t.a = u.a",
        [(1, 100), (1, 100), (2, 200), (2, 201)],
    ),
    (
        "null is an ordinary grouping key",
        "select b, count_big(*) as n, sum(a) as total from t group by b",
        [(10, 2, 2), (20, 1, 2), (None, 1, 3), (5, 1, None)],
    ),
    ("in with a null member: true", "select b from t where a in (1, null)", [(10,), (10,)]),
    ("not in with a null member: never true", "select b from t where a not in (1, null)", []),
    ("not over unknown stays unknown", "select a from t where not b = 10", [(2,), (None,)]),
    ("like drops null", "select a from t where s like 'x%'", [(1,), (1,), (None,)]),
    ("not like drops null", "select a from t where s not like 'x%'", [(2,)]),
    (
        "str against int raises at row time",
        "select a from t where s > 5",
        "cannot compare 'xa' > 5",
    ),
    ("no row, no error", "select a from e where s > 5", []),
    (
        "a row stopped by an earlier conjunct never reaches the bad one",
        "select a from t where a > 100 and s > 5 and a like 'x%'",
        [],
    ),
    (
        "like on a non-string raises at row time",
        "select a from t where b like '1%'",
        "LIKE applied to non-string 10",
    ),
    (
        "a bad residual behind an empty join is never evaluated",
        "select t.a from t, u where t.a = u.a and u.c > 1000 and t.s < u.c",
        [],
    ),
    (
        "a bad residual a row reaches raises",
        "select t.a from t, u where t.a = u.a and t.s < u.c",
        "cannot compare 'xa' < 100",
    ),
    (
        "division by zero yields null",
        "select a, b / (a - a) as q, b % (a - a) as r from t where a = 2",
        [(2, None, None)],
    ),
    ("distinct", "select distinct a, b from t where a = 1", [(1, 10)]),
    ("duplicates keep their multiplicity", "select a, b from t where a = 1", [(1, 10), (1, 10)]),
    (
        "duplicates multiply through a join",
        "select t.b, w.d from t, w where t.a = w.a",
        [(10, 7), (10, 7), (20, 8)],
    ),
    (
        "global aggregate over an empty input yields its one row",
        "select count_big(*) as n, sum(b) as total from t where a > 100",
        [(0, None)],
    ),
    (
        "global aggregate over a join that ended early yields its one row",
        "select count_big(*) as n, sum(u.c) as total from t, u, w "
        "where t.a = u.a and u.a = w.a and t.a > 100 and t.s < w.d",
        [(0, None)],
    ),
    (
        "grouped aggregate over an empty input yields no row",
        "select b, count_big(*) as n from t where a > 100 group by b",
        [],
    ),
    (
        "an aggregate under a unary minus",
        "select s, -sum(b) as n from t group by s",
        [("xa", -20), ("yb", -20), (None, None), ("xc", -5)],
    ),
    (
        "aggregates under coalesce, minus and division",
        "select coalesce(-sum(b), 0) as n, sum(b) / count_big(*) as q, avg(b) as m "
        "from t where a = 1",
        [(-20, 10.0, 10.0)],
    ),
    (
        "the same over nothing",
        "select coalesce(-sum(b), 0) as n, sum(b) / count_big(*) as q, avg(b) as m "
        "from t where a > 100",
        [(0, None, None)],
    ),
    (
        "cross join",
        "select w.d, u.c from w, u where u.c >= 300",
        [(7, 300), (7, 900), (8, 300), (8, 900)],
    ),
]


def _bag(rows):
    return sorted(rows, key=repr)


@pytest.mark.parametrize(
    "sql, expected", [pytest.param(sql, expected, id=name) for name, sql, expected in CASES]
)
def test_statement_semantics(sql, expected):
    db = database()
    statement = CATALOG.bind_sql(sql)
    plan = Optimizer(CATALOG, DatabaseStats.collect(db, CATALOG)).optimize(statement).plan
    if len(statement.from_tables) > 1:
        assert any(isinstance(node, HashJoinNode) for node in plan.walk())
    if isinstance(expected, str):
        for run in (
            lambda: execute(statement, db),
            lambda: plan_result(plan, db),
        ):
            with pytest.raises(ExecutionError) as raised:
                run()
            assert str(raised.value) == expected
        return
    assert _bag(execute(statement, db).rows) == _bag(expected)
    for table in statement.table_names():
        driven = execute(statement, db, delta_table=table)
        assert _bag(driven.rows) == _bag(expected), f"driven by {table}"
    assert _bag(plan_result(plan, db).rows) == _bag(expected)


def test_delta_table_changes_the_order_only():
    db = Database()
    db.store("t", ("a", "b", "s"), [(1, 10, "x"), (1, 11, "x"), (2, 20, "y")])
    db.store("u", ("a", "c"), [(2, 200), (1, 100), (2, 201)])
    statement = CATALOG.bind_sql("select t.b, u.c from t, u where t.a = u.a")
    by_t = execute(statement, db, delta_table="t").rows
    by_u = execute(statement, db, delta_table="u").rows
    assert by_t == [(10, 100), (11, 100), (20, 200), (20, 201)]
    assert by_u == [(20, 200), (10, 100), (11, 100), (20, 201)]
    assert execute(statement, db).rows in (by_t, by_u)


TOTAL = FuncCall("sum", (ColumnRef("t", "b"),))


@pytest.mark.parametrize(
    "above, expected",
    [
        pytest.param(
            IsNull(TOTAL), {"xa": False, "yb": False, None: True, "xc": False}, id="is null"
        ),
        pytest.param(
            Not(IsNull(TOTAL)), {"xa": True, "yb": True, None: False, "xc": True}, id="not"
        ),
        pytest.param(
            InList(TOTAL, (Literal(20), Literal(None))),
            {"xa": True, "yb": True, None: None, "xc": None},
            id="in",
        ),
        pytest.param(
            LikePredicate(FuncCall("coalesce", (Literal("x"), TOTAL)), "y%"),
            {"xa": False, "yb": False, None: False, "xc": False},
            id="like",
        ),
    ],
)
def test_any_node_type_evaluates_above_an_aggregate(above, expected):
    """Select lists the parser cannot write, built directly."""
    statement = SelectStatement(
        select_items=(
            SelectItem(ColumnRef("t", "s")),
            SelectItem(above, alias="flag"),
        ),
        from_tables=(TableRef("t"),),
        group_by=(ColumnRef("t", "s"),),
    )
    assert dict(execute(statement, database()).rows) == expected


def test_join_order_of_the_early_ending_join():
    db = database()
    statement = CATALOG.bind_sql(
        "select count_big(*) as n from t, u, w "
        "where t.a = u.a and u.a = w.a and t.a > 100"
    )
    pipeline = _JoinPipeline(
        db, statement.table_names(), list(conjuncts_of(statement.where))
    )
    assert pipeline.run() == []
    assert pipeline.order == ["t"]
    assert set(pipeline.slots) == {("t", "a"), ("t", "b"), ("t", "s")}
