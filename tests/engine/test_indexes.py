"""Stored-index tests: lookups, freshness, executor integration."""

import pytest

from repro.catalog import Catalog, Column, ColumnType, Table
from repro.engine import Database, execute
from repro.errors import ExecutionError


@pytest.fixture()
def db():
    database = Database()
    database.store(
        "t",
        ("a", "b", "s"),
        [(i, i % 5, f"row{i}") for i in range(100)] + [(None, 0, "nullkey")],
    )
    return database


@pytest.fixture()
def cat():
    catalog = Catalog()
    catalog.add_table(
        Table(
            name="t",
            columns=(
                Column("a", nullable=True),
                Column("b"),
                Column("s", ColumnType.STRING),
            ),
        )
    )
    return catalog


class TestStoredIndex:
    def test_equality_lookup(self, db):
        index = db.indexes.create("idx_a", "t", ["a"])
        rows = index.lookup_equal(db.relation("t"), (42,))
        assert rows == [(42, 2, "row42")]

    def test_equality_lookup_missing_value(self, db):
        index = db.indexes.create("idx_a", "t", ["a"])
        assert index.lookup_equal(db.relation("t"), (-1,)) == []

    def test_multi_column_prefix_lookup(self, db):
        index = db.indexes.create("idx_ba", "t", ["b", "a"])
        rows = index.lookup_equal(db.relation("t"), (3,))
        assert len(rows) == 20
        assert all(row[1] == 3 for row in rows)
        exact = index.lookup_equal(db.relation("t"), (3, 13))
        assert exact == [(13, 3, "row13")]

    def test_range_lookup(self, db):
        index = db.indexes.create("idx_a", "t", ["a"])
        rows = index.lookup_range(db.relation("t"), (95, True), None)
        assert sorted(row[0] for row in rows) == [95, 96, 97, 98, 99]
        rows = index.lookup_range(db.relation("t"), (95, False), (98, False))
        assert sorted(row[0] for row in rows) == [96, 97]

    def test_null_keys_excluded(self, db):
        index = db.indexes.create("idx_a", "t", ["a"])
        all_rows = index.lookup_range(db.relation("t"), None, None)
        assert len(all_rows) == 100  # the NULL-key row is not indexed

    def test_staleness_rebuild_after_bump(self, db):
        index = db.indexes.create("idx_a", "t", ["a"])
        relation = db.relation("t")
        index.lookup_equal(relation, (1,))
        relation.rows.append((500, 0, "late"))
        relation.bump_version()
        assert index.lookup_equal(relation, (500,)) == [(500, 0, "late")]

    def test_range_probe_after_extend_sees_the_new_rows(self, db):
        index = db.indexes.create("idx_a", "t", ["a"])
        relation = db.relation("t")
        assert index.lookup_range(relation, (99, True), None) == [(99, 4, "row99")]
        relation.extend([(150, 0, "late"), (-5, 0, "early")])
        rows = index.lookup_range(relation, (99, True), None)
        assert rows == [(99, 4, "row99"), (150, 0, "late")]
        assert index.lookup_range(relation, None, (0, False)) == [(-5, 0, "early")]

    def test_unique_violation_detected(self, db):
        relation = db.relation("t")
        relation.rows.append((42, 9, "dup"))
        relation.bump_version()
        with pytest.raises(ExecutionError, match="unique"):
            db.indexes.create("uq_a", "t", ["a"], unique=True)

    def test_unique_index_on_unique_data(self, db):
        index = db.indexes.create("uq_a", "t", ["a"], unique=True)
        assert index.unique


class TestIndexRegistry:
    def test_create_validates_relation_and_columns(self, db):
        with pytest.raises(ExecutionError):
            db.indexes.create("x", "missing", ["a"])
        with pytest.raises(ExecutionError):
            db.indexes.create("x", "t", ["nope"])

    def test_duplicate_name_rejected(self, db):
        db.indexes.create("idx", "t", ["a"])
        with pytest.raises(ExecutionError, match="already exists"):
            db.indexes.create("idx", "t", ["b"])

    def test_drop(self, db):
        db.indexes.create("idx", "t", ["a"])
        db.indexes.drop("idx")
        assert db.indexes.on_relation("t") == ()
        with pytest.raises(ExecutionError):
            db.indexes.drop("idx")

    def test_on_relation(self, db):
        db.indexes.create("i1", "t", ["a"])
        db.indexes.create("i2", "t", ["b"])
        assert {i.name for i in db.indexes.on_relation("t")} == {"i1", "i2"}


class TestExecutorIntegration:
    """Queries return identical results with and without indexes."""

    QUERIES = [
        "select t.a, b from t where t.a = 42",
        "select t.a, b from t where t.a >= 90 and t.a < 95",
        "select t.a from t where t.a > 50 and b = 3",
        "select b, count(*) from t where t.a <= 10 group by b",
        "select t.a from t where s like 'row9%'",  # not sargable: full scan
    ]

    @pytest.mark.parametrize("sql", QUERIES)
    def test_index_preserves_results(self, db, cat, sql):
        statement = cat.bind_sql(sql)
        without_index = execute(statement, db)
        db.indexes.create("idx_a", "t", ["a"])
        with_index = execute(statement, db)
        assert without_index.bag_equals(with_index)
        db.indexes.drop("idx_a")

    def test_index_used_for_join_side_scan(self, db, cat):
        cat.add_table(Table(name="u", columns=(Column("a"), Column("c"))))
        db.store("u", ("a", "c"), [(42, 1), (43, 2)])
        db.indexes.create("idx_a", "t", ["a"])
        statement = cat.bind_sql(
            "select t.a, c from t, u where t.a = u.a and t.a >= 40 and t.a <= 50"
        )
        result = execute(statement, db)
        assert sorted(result.rows) == [(42, 1), (43, 2)]

    def test_results_fresh_after_maintenance_updates(self, db, cat):
        from repro.cdc import CdcPipeline

        db.indexes.create("idx_a", "t", ["a"])
        pipeline = CdcPipeline(cat, db)
        statement = cat.bind_sql("select t.a, b from t where t.a >= 200")
        assert execute(statement, db).rows == []
        pipeline.insert("t", [(200, 1, "fresh")])
        pipeline.drain()
        assert execute(statement, db).rows == [(200, 1)]
