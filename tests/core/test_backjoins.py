"""Tests for the base-table backjoin extension (MatchOptions.allow_backjoins)."""

import pytest

from repro.core import MatchOptions, RejectReason, ViewMatcher, describe, match_view
from repro.core.analyze import QueryAnalysis
from repro.core.describe import describe_block
from repro.engine import Database, execute, materialize_view
from repro.sql import statement_to_sql

BACKJOIN = MatchOptions(allow_backjoins=True)


def match(catalog, view_sql, query_sql, options=BACKJOIN, name="v"):
    view = describe(catalog.bind_sql(view_sql), catalog, name=name)
    query = describe(catalog.bind_sql(query_sql), catalog)
    return match_view(query, view, options)


class TestBasicBackjoin:
    VIEW = (
        "select o_orderkey as ok, o_custkey as ck from orders "
        "where o_custkey >= 10"
    )
    QUERY = (
        "select o_orderkey, o_totalprice from orders "
        "where o_custkey >= 10"
    )

    def test_rejected_without_option(self, catalog):
        result = match(catalog, self.VIEW, self.QUERY, options=MatchOptions())
        assert result.reject_reason is RejectReason.OUTPUT_MAPPING

    def test_missing_output_column_backjoined(self, catalog):
        result = match(catalog, self.VIEW, self.QUERY)
        assert result.matched
        assert result.backjoined_tables == ("orders",)
        text = statement_to_sql(result.substitute)
        assert "FROM v, orders" in text
        assert "(v.ok = orders.o_orderkey)" in text
        assert "orders.o_totalprice" in text

    def test_no_backjoin_when_outputs_suffice(self, catalog):
        result = match(
            catalog,
            self.VIEW,
            "select o_orderkey, o_custkey from orders where o_custkey >= 10",
        )
        assert result.matched
        assert result.backjoined_tables == ()

    def test_backjoin_requires_exposed_unique_key(self, catalog):
        # The view exposes only o_custkey (not a key of orders), so the
        # missing column cannot be recovered.
        result = match(
            catalog,
            "select o_custkey as ck from orders where o_custkey >= 10",
            self.QUERY,
        )
        assert result.reject_reason is RejectReason.OUTPUT_MAPPING

    def test_composite_key_backjoin(self, catalog):
        # lineitem's primary key is (l_orderkey, l_linenumber); both are
        # exposed, so any lineitem column can be pulled back in.
        result = match(
            catalog,
            "select l_orderkey as ok, l_linenumber as ln from lineitem "
            "where l_quantity >= 10",
            "select l_orderkey, l_comment from lineitem where l_quantity >= 10",
        )
        assert result.matched
        assert result.backjoined_tables == ("lineitem",)
        text = statement_to_sql(result.substitute)
        assert "(v.ok = lineitem.l_orderkey)" in text
        assert "(v.ln = lineitem.l_linenumber)" in text

    def test_partial_composite_key_insufficient(self, catalog):
        result = match(
            catalog,
            "select l_orderkey as ok from lineitem where l_quantity >= 10",
            "select l_orderkey, l_comment from lineitem where l_quantity >= 10",
        )
        assert result.reject_reason is RejectReason.OUTPUT_MAPPING


class TestBackjoinScenarios:
    def test_compensating_predicate_via_backjoin(self, catalog):
        # The compensation needs o_totalprice, which the view lacks.
        result = match(
            catalog,
            "select o_orderkey as ok from orders",
            "select o_orderkey from orders where o_totalprice > 1000",
        )
        assert result.matched
        assert result.backjoined_tables == ("orders",)
        assert "(orders.o_totalprice > 1000)" in statement_to_sql(result.substitute)

    def test_key_exposed_through_equivalence(self, catalog):
        # The view outputs l_orderkey, which is equivalent to o_orderkey
        # through the join -- enough to backjoin orders.
        result = match(
            catalog,
            "select l_orderkey as lk, l_linenumber as ln "
            "from lineitem, orders where l_orderkey = o_orderkey",
            "select l_orderkey, o_totalprice from lineitem, orders "
            "where l_orderkey = o_orderkey",
        )
        assert result.matched
        assert "orders" in result.backjoined_tables

    def test_multiple_backjoins(self, catalog):
        result = match(
            catalog,
            "select l_orderkey as lk, l_linenumber as ln, l_partkey as pk "
            "from lineitem, part where l_partkey = p_partkey",
            "select l_comment, p_name from lineitem, part "
            "where l_partkey = p_partkey",
        )
        assert result.matched
        assert result.backjoined_tables == ("lineitem", "part")

    def test_aggregation_view_never_backjoins(self, catalog):
        result = match(
            catalog,
            "select o_custkey, count_big(*) as cnt from orders group by o_custkey",
            "select o_custkey, o_clerk, count(*) from orders "
            "group by o_custkey, o_clerk",
        )
        assert not result.matched

    def test_aggregate_query_over_spj_view_with_backjoin(self, catalog):
        result = match(
            catalog,
            "select o_orderkey as ok from orders where o_custkey <= 50",
            "select o_clerk, sum(o_totalprice) from orders "
            "where o_custkey <= 50 group by o_clerk",
        )
        assert result.matched
        assert result.backjoined_tables == ("orders",)


class TestBackjoinSoundness:
    def run_case(self, catalog, tiny_db, view_sql, query_sql):
        database = Database()
        for name in tiny_db.names():
            relation = tiny_db.relation(name)
            database.store(name, relation.columns, relation.rows)
        matcher = ViewMatcher(catalog, options=BACKJOIN)
        view_statement = catalog.bind_sql(view_sql)
        matcher.register_view("v", view_statement)
        materialize_view("v", view_statement, database)
        query = catalog.bind_sql(query_sql)
        matches = matcher.substitutes(query)
        assert matches, "expected a backjoin match"
        expected = execute(query, database)
        for result in matches:
            assert expected.bag_equals(
                execute(result.substitute, database), float_digits=9
            ), statement_to_sql(result.substitute)
        return matches

    def test_simple_backjoin_execution(self, catalog, tiny_db):
        (result,) = self.run_case(
            catalog,
            tiny_db,
            "select o_orderkey as ok, o_custkey as ck from orders "
            "where o_custkey >= 10",
            "select o_orderkey, o_totalprice from orders where o_custkey >= 20",
        )
        assert result.backjoined_tables == ("orders",)

    def test_duplicate_view_rows_preserved(self, catalog, tiny_db):
        # The view joins lineitem (many rows per order); backjoining orders
        # must keep each lineitem-derived row exactly once.
        self.run_case(
            catalog,
            tiny_db,
            "select l_orderkey as lk, l_linenumber as ln "
            "from lineitem, orders where l_orderkey = o_orderkey",
            "select l_orderkey, o_totalprice from lineitem, orders "
            "where l_orderkey = o_orderkey",
        )

    def test_aggregation_over_backjoined_rows(self, catalog, tiny_db):
        self.run_case(
            catalog,
            tiny_db,
            "select o_orderkey as ok from orders where o_custkey <= 80",
            "select o_clerk, sum(o_totalprice) from orders "
            "where o_custkey <= 80 group by o_clerk",
        )


class TestFilterTreeWithBackjoins:
    def test_filter_does_not_prune_backjoinable_view(self, catalog):
        from repro.core import FilterTree

        tree = FilterTree()
        view = describe(
            catalog.bind_sql(
                "select o_orderkey as ok, o_custkey as ck from orders "
                "where o_custkey >= 10"
            ),
            catalog,
            name="v",
        )
        tree.register(view)
        # A request reads back-joins from its analysis.
        query = describe_block(
            QueryAnalysis(
                catalog.bind_sql(
                    "select o_orderkey, o_totalprice from orders "
                    "where o_custkey >= 10"
                ),
                catalog,
                BACKJOIN,
            )
        )
        assert match_view(query, view, BACKJOIN).matched
        assert [v.name for v in tree.candidates(query)] == ["v"]

    def test_filter_still_prunes_without_option(self, catalog):
        from repro.core import FilterTree

        tree = FilterTree()
        view = describe(
            catalog.bind_sql(
                "select o_orderkey as ok, o_custkey as ck from orders "
                "where o_custkey >= 10"
            ),
            catalog,
            name="v",
        )
        tree.register(view)
        query = describe(
            catalog.bind_sql(
                "select o_orderkey, o_totalprice from orders where o_custkey >= 10"
            ),
            catalog,
        )
        assert tree.candidates(query) == []
