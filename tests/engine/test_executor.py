"""Executor tests: joins, bag semantics, grouping, NULL handling."""

import pytest

from repro.catalog import Catalog, Column, ColumnType, Table
from repro.engine import Database, execute, materialize_view
from repro.errors import ExecutionError


@pytest.fixture()
def db():
    database = Database()
    database.store(
        "t",
        ("a", "b", "s"),
        [
            (1, 10, "x"),
            (1, 10, "x"),   # duplicate row: bag semantics
            (2, 20, "y"),
            (3, None, "z"),
        ],
    )
    database.store(
        "u",
        ("a", "c"),
        [(1, 100), (2, 200), (2, 201), (9, 900)],
    )
    return database


@pytest.fixture()
def cat():
    catalog = Catalog()
    catalog.add_table(
        Table(
            name="t",
            columns=(
                Column("a"),
                Column("b", nullable=True),
                Column("s", ColumnType.STRING),
            ),
        )
    )
    catalog.add_table(
        Table(name="u", columns=(Column("a"), Column("c")))
    )
    return catalog


def run(cat, db, sql):
    return execute(cat.bind_sql(sql), db)


class TestSelection:
    def test_full_scan(self, cat, db):
        result = run(cat, db, "select t.a from t")
        assert result.rows == [(1,), (1,), (2,), (3,)]

    def test_filter(self, cat, db):
        result = run(cat, db, "select t.a from t where b >= 20")
        assert result.rows == [(2,)]

    def test_unknown_filtered_out(self, cat, db):
        # b is NULL for a=3: comparison is unknown, row dropped.
        result = run(cat, db, "select t.a from t where b <> 10")
        assert result.rows == [(2,)]

    def test_duplicates_preserved(self, cat, db):
        result = run(cat, db, "select t.a, b from t where t.a = 1")
        assert result.rows == [(1, 10), (1, 10)]

    def test_projection_expression(self, cat, db):
        result = run(cat, db, "select t.a * 2 + 1 from t where t.a = 2")
        assert result.rows == [(5,)]

    def test_distinct(self, cat, db):
        result = run(cat, db, "select distinct t.a from t where t.a = 1")
        assert result.rows == [(1,)]

    def test_column_names(self, cat, db):
        result = run(cat, db, "select t.a as first, b from t where 1 = 2")
        assert result.columns == ("first", "b")
        assert result.rows == []


class TestJoins:
    def test_equijoin(self, cat, db):
        result = run(
            cat, db, "select t.a, c from t, u where t.a = u.a and t.a = 2"
        )
        assert sorted(result.rows) == [(2, 200), (2, 201)]

    def test_join_multiplicity(self, cat, db):
        # t has two (1,10) rows; u has one a=1 row -> two output rows.
        result = run(cat, db, "select t.a, c from t, u where t.a = u.a and t.a = 1")
        assert result.rows == [(1, 100), (1, 100)]

    def test_cross_join(self, cat, db):
        result = run(cat, db, "select t.a, u.a from t, u where t.a = 3")
        assert len(result.rows) == 4  # 1 t-row x 4 u-rows

    def test_join_with_residual_predicate(self, cat, db):
        result = run(
            cat, db, "select t.a, c from t, u where t.a = u.a and c > 150"
        )
        assert sorted(result.rows) == [(2, 200), (2, 201)]

    def test_no_matching_rows(self, cat, db):
        result = run(cat, db, "select t.a from t, u where t.a = u.a and t.a = 3")
        assert result.rows == []


class TestAggregation:
    def test_group_by_with_sum_and_count(self, cat, db):
        result = run(
            cat, db, "select t.a, sum(b) as s, count_big(*) as n from t group by t.a"
        )
        assert sorted(result.rows) == [(1, 20, 2), (2, 20, 1), (3, None, 1)]

    def test_sum_ignores_nulls_count_star_does_not(self, cat, db):
        result = run(cat, db, "select sum(b), count(*), count(b) from t")
        assert result.rows == [(40, 4, 3)]

    def test_avg(self, cat, db):
        result = run(cat, db, "select avg(b) from t where t.a = 1")
        assert result.rows == [(10.0,)]

    def test_avg_of_empty_group_is_null(self, cat, db):
        result = run(cat, db, "select avg(b) from t where t.a = 99")
        assert result.rows == [(None,)]

    def test_global_aggregate_on_empty_input_yields_one_row(self, cat, db):
        result = run(cat, db, "select count(*), sum(b) from t where t.a = 99")
        assert result.rows == [(0, None)]

    def test_group_by_on_empty_input_yields_no_rows(self, cat, db):
        result = run(cat, db, "select t.a, count(*) from t where t.a = 99 group by t.a")
        assert result.rows == []

    def test_group_by_expression(self, cat, db):
        result = run(cat, db, "select t.a % 2, count(*) from t group by t.a % 2")
        assert sorted(result.rows) == [(0, 1), (1, 3)]

    def test_arithmetic_over_aggregates(self, cat, db):
        result = run(cat, db, "select sum(b) / count_big(*) from t where b is not null")
        assert result.rows == [(40 / 3,)]

    def test_group_key_includes_null(self, cat, db):
        result = run(cat, db, "select b, count(*) from t group by b")
        assert sorted(result.rows, key=lambda r: (r[0] is None, r)) == [
            (10, 2),
            (20, 1),
            (None, 1),
        ]


class TestMaterializeView:
    def test_materializes_and_scans(self, cat, db):
        statement = cat.bind_sql(
            "select t.a as a, sum(b) as sb, count_big(*) as cnt from t group by t.a"
        )
        materialize_view("mv", statement, db)
        relation = db.relation("mv")
        assert relation.columns == ("a", "sb", "cnt")
        assert sorted(relation.rows) == [(1, 20, 2), (2, 20, 1), (3, None, 1)]

    def test_unnamed_output_rejected(self, cat, db):
        statement = cat.bind_sql("select t.a + 1 from t")
        with pytest.raises(ExecutionError, match="no name"):
            materialize_view("mv", statement, db)

    def test_unnamed_output_rejected_before_the_view_is_executed(self, cat):
        # No table t to read: executing first would fail on that instead.
        statement = cat.bind_sql("select t.a + 1 from t")
        with pytest.raises(ExecutionError, match="no name"):
            materialize_view("mv", statement, Database())


class TestBagEquality:
    def test_bag_equals_detects_multiplicity(self, cat, db):
        once = run(cat, db, "select t.a from t where t.a = 2")
        twice = run(cat, db, "select t.a from t where t.a = 1")
        assert not once.bag_equals(twice)

    def test_bag_equals_ignores_column_names(self, cat, db):
        left = run(cat, db, "select t.a as x from t")
        right = run(cat, db, "select t.a as y from t")
        assert left.bag_equals(right)

    def test_bag_equals_ignores_order(self, cat, db):
        left = run(cat, db, "select t.a, b from t where b is not null")
        right_result = run(cat, db, "select t.a, b from t where b is not null")
        right_result.rows.reverse()
        assert left.bag_equals(right_result)
