"""Plan-node execution tests."""

import pytest

from repro.catalog import Catalog, Column, Table
from repro.engine import Database
from repro.optimizer.plans import (
    BlockNode,
    DirectNode,
    FinishNode,
    HashJoinNode,
    describe_plan,
    plan_result,
)
from repro.sql import ColumnRef, FuncCall, parse_predicate
from repro.sql.statements import SelectItem, SelectStatement, TableRef


@pytest.fixture()
def setup():
    cat = Catalog()
    cat.add_table(Table(name="t", columns=(Column("a"), Column("b"))))
    cat.add_table(Table(name="u", columns=(Column("a"), Column("c"))))
    db = Database()
    db.store("t", ("a", "b"), [(1, 10), (2, 20), (2, 21)])
    db.store("u", ("a", "c"), [(1, 100), (2, 200)])
    return cat, db


def block_over(cat, table, columns):
    statement = SelectStatement(
        select_items=tuple(SelectItem(ColumnRef(table, c)) for c in columns),
        from_tables=(TableRef(table),),
    )
    return BlockNode(
        statement=statement,
        output_keys=tuple((table, c) for c in columns),
    )


class TestBlockNode:
    def test_rows_rekeyed(self, setup):
        cat, db = setup
        node = block_over(cat, "t", ["a", "b"])
        node.output_keys = (("v", "x"), ("v", "y"))
        assert node.rows(db)[0] == (1, 10)
        finish = FinishNode(
            child=node, select_items=(SelectItem(ColumnRef("v", "y")),)
        )
        assert finish.result(db).rows == [(10,), (20,), (21,)]

    def test_key_count_mismatch_raises(self, setup):
        cat, db = setup
        node = block_over(cat, "t", ["a", "b"])
        node.output_keys = (("t", "a"),)
        with pytest.raises(ValueError, match="keys"):
            node.rows(db)

    def test_view_detection(self, setup):
        cat, db = setup
        node = block_over(cat, "t", ["a"])
        assert not node.uses_view()
        node.view_name = "v"
        assert node.uses_view()
        assert node.view_names() == ("v",)


class TestHashJoinNode:
    def test_equijoin(self, setup):
        cat, db = setup
        join = HashJoinNode(
            left=block_over(cat, "t", ["a", "b"]),
            right=block_over(cat, "u", ["a", "c"]),
            join_pairs=((("t", "a"), ("u", "a")),),
        )
        rows = join.rows(db)
        assert len(rows) == 3  # (1), (2), (2)
        assert join.output_keys == (("t", "a"), ("t", "b"), ("u", "a"), ("u", "c"))
        assert all(row[0] == row[2] for row in rows)

    def test_cross_join(self, setup):
        cat, db = setup
        join = HashJoinNode(
            left=block_over(cat, "t", ["a"]),
            right=block_over(cat, "u", ["a"]),
            join_pairs=(),
        )
        assert len(join.rows(db)) == 6

    def test_residual_applied_after_join(self, setup):
        cat, db = setup
        join = HashJoinNode(
            left=block_over(cat, "t", ["a", "b"]),
            right=block_over(cat, "u", ["a", "c"]),
            join_pairs=((("t", "a"), ("u", "a")),),
            residual=(parse_predicate("t.b + u.c > 200"),),
        )
        rows = join.rows(db)
        assert len(rows) == 2


class TestFinishNode:
    def test_projection(self, setup):
        cat, db = setup
        finish = FinishNode(
            child=block_over(cat, "t", ["a", "b"]),
            select_items=(SelectItem(ColumnRef("t", "b"), alias="bee"),),
        )
        result = finish.result(db)
        assert result.columns == ("bee",)
        assert result.rows == [(10,), (20,), (21,)]

    def test_grouping(self, setup):
        cat, db = setup
        finish = FinishNode(
            child=block_over(cat, "t", ["a", "b"]),
            select_items=(
                SelectItem(ColumnRef("t", "a")),
                SelectItem(FuncCall("sum", (ColumnRef("t", "b"),))),
            ),
            group_by=(ColumnRef("t", "a"),),
            aggregate=True,
        )
        result = finish.result(db)
        assert sorted(result.rows) == [(1, 10), (2, 41)]

    def test_distinct(self, setup):
        cat, db = setup
        finish = FinishNode(
            child=block_over(cat, "t", ["a"]),
            select_items=(SelectItem(ColumnRef("t", "a")),),
            distinct=True,
        )
        assert finish.result(db).rows == [(1,), (2,)]


class TestDirectNode:
    def test_direct_execution(self, setup):
        cat, db = setup
        node = DirectNode(
            statement=cat.bind_sql("select t.a, b from t where t.a = 2"),
            view_name=None,
        )
        result = node.result(db)
        assert result.rows == [(2, 20), (2, 21)]
        assert not node.uses_view()

    def test_plan_result_dispatch(self, setup):
        cat, db = setup
        node = DirectNode(statement=cat.bind_sql("select t.a from t"))
        assert plan_result(node, db).row_count == 3

    def test_plan_result_rejects_partial_plans(self, setup):
        cat, db = setup
        with pytest.raises(TypeError):
            plan_result(block_over(cat, "t", ["a"]), db)


class TestDescribePlan:
    def test_renders_tree(self, setup):
        cat, db = setup
        join = HashJoinNode(
            left=block_over(cat, "t", ["a"]),
            right=block_over(cat, "u", ["a"]),
            join_pairs=((("t", "a"), ("u", "a")),),
        )
        finish = FinishNode(
            child=join, select_items=(SelectItem(ColumnRef("t", "a")),)
        )
        text = describe_plan(finish)
        assert "Project" in text
        assert "HashJoin" in text
        assert text.count("Block") == 2
