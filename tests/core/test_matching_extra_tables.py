"""View-matching with extra tables (Section 3.2)."""

import pytest

from repro.catalog import Catalog, Column, ColumnType, ForeignKey, Table
from repro.core import RejectReason, describe, match_view
from repro.engine import Database, execute, materialize_view
from repro.sql import statement_to_sql


def match(catalog, view_sql, query_sql, name="v"):
    view = describe(catalog.bind_sql(view_sql), catalog, name=name)
    query = describe(catalog.bind_sql(query_sql), catalog)
    return match_view(query, view)


@pytest.fixture()
def extension_catalog() -> Catalog:
    """``child -> parent -> grand`` where ``parent`` is a one-to-one
    extension of ``grand``: its primary key is also its foreign key."""
    catalog = Catalog()
    catalog.add_table(
        Table(
            name="grand",
            columns=(
                Column("gk", ColumnType.INTEGER),
                Column("gdata", ColumnType.INTEGER),
            ),
            primary_key=("gk",),
        )
    )
    catalog.add_table(
        Table(
            name="parent",
            columns=(
                Column("pk", ColumnType.INTEGER),
                Column("pdata", ColumnType.INTEGER),
            ),
            primary_key=("pk",),
            foreign_keys=(ForeignKey(("pk",), "grand", ("gk",)),),
        )
    )
    catalog.add_table(
        Table(
            name="child",
            columns=(
                Column("ck", ColumnType.INTEGER),
                Column("pid", ColumnType.INTEGER),
                Column("cdata", ColumnType.INTEGER),
            ),
            primary_key=("ck",),
            foreign_keys=(ForeignKey(("pid",), "parent", ("pk",)),),
        )
    )
    return catalog


class TestCardinalityPreservingJoins:
    def test_one_extra_parent_table(self, catalog):
        result = match(
            catalog,
            "select l_orderkey as k, l_quantity as q from lineitem, orders "
            "where l_orderkey = o_orderkey",
            "select l_orderkey, l_quantity from lineitem",
        )
        assert result.matched
        assert result.eliminated_tables == ("orders",)

    def test_chain_of_extra_tables(self, catalog):
        result = match(
            catalog,
            "select l_orderkey as k from lineitem, orders, customer "
            "where l_orderkey = o_orderkey and o_custkey = c_custkey",
            "select l_orderkey from lineitem",
        )
        assert result.matched
        assert result.eliminated_tables == ("customer", "orders")

    def test_extra_child_table_cannot_be_eliminated(self, catalog):
        # lineitem is on the FK side; joining it multiplies orders rows.
        result = match(
            catalog,
            "select o_orderkey as k from lineitem, orders "
            "where l_orderkey = o_orderkey",
            "select o_orderkey from orders",
        )
        assert result.reject_reason is RejectReason.EXTRA_TABLES

    def test_non_fk_join_cannot_be_eliminated(self, catalog):
        result = match(
            catalog,
            "select l_orderkey as k from lineitem, orders "
            "where l_suppkey = o_orderkey",
            "select l_orderkey from lineitem",
        )
        assert result.reject_reason is RejectReason.EXTRA_TABLES

    def test_missing_join_predicate_rejected(self, catalog):
        result = match(
            catalog,
            "select l_orderkey as k from lineitem, orders",
            "select l_orderkey from lineitem",
        )
        assert result.reject_reason is RejectReason.EXTRA_TABLES

    def test_composite_fk_elimination(self, catalog):
        result = match(
            catalog,
            "select l_orderkey as k from lineitem, partsupp "
            "where l_partkey = ps_partkey and l_suppkey = ps_suppkey",
            "select l_orderkey from lineitem",
        )
        assert result.matched
        assert result.eliminated_tables == ("partsupp",)


class TestAugmentedEquivalence:
    def test_view_range_on_extra_table_column(self, catalog):
        # Paper Example 3 shape: the view's range on o_orderkey maps onto
        # the query's range on l_orderkey through the FK join classes.
        result = match(
            catalog,
            "select c_custkey as ck, c_name as cn, l_orderkey as k, "
            "l_partkey as p, l_quantity as q "
            "from lineitem, orders, customer "
            "where l_orderkey = o_orderkey and o_custkey = c_custkey "
            "and o_orderkey >= 500",
            "select l_orderkey, l_partkey, l_quantity from lineitem "
            "where l_orderkey >= 1000 and l_orderkey <= 1500",
        )
        assert result.matched
        text = statement_to_sql(result.substitute)
        assert "(v.k >= 1000)" in text
        assert "(v.k <= 1500)" in text

    def test_view_filtering_predicate_on_extra_table_rejected(self, catalog):
        # c_acctbal is not equivalent to any query column; the view's
        # predicate on it filters rows the query may need.
        result = match(
            catalog,
            "select l_orderkey as k from lineitem, orders, customer "
            "where l_orderkey = o_orderkey and o_custkey = c_custkey "
            "and c_acctbal > 0",
            "select l_orderkey from lineitem",
        )
        assert result.reject_reason is RejectReason.RANGE

    def test_view_residual_on_extra_table_rejected(self, catalog):
        result = match(
            catalog,
            "select l_orderkey as k from lineitem, orders, customer "
            "where l_orderkey = o_orderkey and o_custkey = c_custkey "
            "and c_name like '%x%'",
            "select l_orderkey from lineitem",
        )
        assert result.reject_reason is RejectReason.RESIDUAL

    def test_output_mapped_through_extra_table_class(self, catalog):
        # The view outputs o_orderkey only; the query wants l_orderkey.
        result = match(
            catalog,
            "select o_orderkey as ok, l_quantity as q from lineitem, orders "
            "where l_orderkey = o_orderkey",
            "select l_orderkey, l_quantity from lineitem",
        )
        assert result.matched
        assert statement_to_sql(result.substitute) == "SELECT v.ok, v.q FROM v"

    def test_aggregation_view_with_extra_tables(self, catalog):
        result = match(
            catalog,
            "select l_partkey, sum(l_quantity) as q, count_big(*) as cnt "
            "from lineitem, orders where l_orderkey = o_orderkey "
            "group by l_partkey",
            "select l_partkey, sum(l_quantity) from lineitem group by l_partkey",
        )
        assert result.matched

    @pytest.mark.parametrize(
        "view_range, query_range, substitute",
        [
            ("gk >= 10", "pid >= 10", "SELECT v.d FROM v"),
            ("pk >= 10", "pid >= 10", "SELECT v.d FROM v"),
            ("gk >= 10", "pid >= 20", "SELECT v.d FROM v WHERE (v.p >= 20)"),
        ],
        ids=["grand-key-equal", "parent-key-equal", "grand-key-narrower"],
    )
    def test_query_range_keyed_by_the_augmented_representative(
        self, extension_catalog, view_range, query_range, substitute
    ):
        # ``parent`` extends ``grand`` (its key is its FK), so eliminating
        # ``grand`` first merges the parent key's class, which then
        # outranks the child's: under the augmented classes the query's
        # range on ``child.pid`` belongs to the representative
        # ``parent.pk``, not to ``child.pid`` as under the query's own
        # classes. A range compensated against the query's own
        # representatives would re-apply a bound the view already holds.
        result = match(
            extension_catalog,
            "select cdata as d, pid as p from child, parent, grand "
            f"where pid = pk and pk = gk and {view_range}",
            f"select cdata from child where {query_range}",
        )
        assert result.eliminated_tables == ("grand", "parent")
        assert statement_to_sql(result.substitute) == substitute


class TestNullableForeignKeys:
    VIEW = (
        "select ck as c, cdata as d from child, optional_parent "
        "where opt_id = opk"
    )

    def test_null_rejecting_range_predicate_enables_match(self, two_table_catalog):
        result = match(
            two_table_catalog,
            "select ck as c, cdata as d, opt_id as o from child, optional_parent "
            "where opt_id = opk",
            "select ck, cdata from child where opt_id > 5",
        )
        assert result.matched

    def test_no_null_rejecting_predicate_still_rejected(self, two_table_catalog):
        result = match(
            two_table_catalog,
            self.VIEW,
            "select ck, cdata from child",
        )
        assert result.reject_reason is RejectReason.NULLABLE_FK

    def test_is_not_null_predicate_enables_match(self, two_table_catalog):
        result = match(
            two_table_catalog,
            "select ck as c, cdata as d, opt_id as o from child, optional_parent "
            "where opt_id = opk",
            "select ck, cdata from child where opt_id is not null",
        )
        assert result.matched

    def test_non_nullable_fk_needs_no_predicate(self, two_table_catalog):
        result = match(
            two_table_catalog,
            "select ck as c, cdata as d from child, parent "
            "where parent_id = pk",
            "select ck, cdata from child",
        )
        assert result.matched

    WITH_FK = (
        "select ck as c, cdata as d, opt_id as o from child, optional_parent "
        "where opt_id = opk"
    )

    @pytest.mark.parametrize(
        "predicate", ["coalesce(opt_id, 0) = 0", "coalesce(opt_id, 0) >= 0"]
    )
    def test_a_function_of_the_fk_column_does_not_reject_nulls(
        self, two_table_catalog, predicate
    ):
        """``coalesce`` turns the NULL into a value: the query keeps the
        rows the view's join dropped."""
        result = match(
            two_table_catalog,
            self.WITH_FK,
            f"select ck, cdata from child where {predicate}",
        )
        assert result.reject_reason is RejectReason.NULLABLE_FK

    def test_arithmetic_on_the_fk_column_rejects_nulls(self, two_table_catalog):
        result = match(
            two_table_catalog,
            self.WITH_FK,
            "select ck, cdata from child where opt_id + 1 > 5",
        )
        assert result.matched

    def test_substitutes_agree_with_the_query_over_null_fk_rows(
        self, two_table_catalog
    ):
        """Executed over a ``child`` row whose ``opt_id`` is NULL, an
        accepted substitute returns what the query does, and the rejected
        query returns exactly the row the view cannot supply."""
        catalog = two_table_catalog
        database = Database()
        database.store("parent", ("pk", "pdata", "pname"), [(1, 1, "p")])
        database.store("optional_parent", ("opk", "odata"), [(0, 5), (7, 9)])
        database.store(
            "child",
            ("ck", "parent_id", "opt_id", "cdata", "cname"),
            [(1, 1, None, 10, "a"), (2, 1, 7, 20, "b"), (3, 1, 0, 30, "c")],
        )
        materialize_view("v", catalog.bind_sql(self.WITH_FK), database)
        accepted = "select ck, cdata from child where opt_id + 1 > 5"
        result = match(catalog, self.WITH_FK, accepted)
        expected = execute(catalog.bind_sql(accepted), database)
        assert execute(result.substitute, database).bag_equals(expected)
        assert expected.rows == [(2, 20)]
        rejected = "select ck, cdata from child where coalesce(opt_id, 0) = 0"
        rows = execute(catalog.bind_sql(rejected), database).rows
        assert sorted(rows) == [(1, 10), (3, 30)]
        assert (1,) not in {row[:1] for row in database.relation("v").rows}
