"""Optimizer tests: plan choice, correctness, instrumentation, configs."""

import pytest

from repro.core import ViewMatcher
from repro.engine import execute, materialize_view
from repro.optimizer import Optimizer, OptimizerConfig, plan_result


@pytest.fixture()
def optimizer(catalog, tiny_stats):
    return Optimizer(catalog, tiny_stats)


def optimize_and_execute(catalog, stats, db, sql, matcher=None, config=None):
    """Optimize, execute the plan, and compare against direct execution."""
    statement = catalog.bind_sql(sql)
    optimizer = Optimizer(catalog, stats, matcher=matcher, config=config)
    result = optimizer.optimize(statement)
    expected = execute(statement, db)
    actual = plan_result(result.plan, db)
    # Float sums may be accumulated in different orders by different plans.
    assert expected.bag_equals(actual, float_digits=9), sql
    return result


QUERIES = [
    "select l_orderkey, l_quantity from lineitem where l_quantity > 25",
    "select l_orderkey, o_custkey from lineitem, orders "
    "where l_orderkey = o_orderkey and o_custkey <= 40",
    "select l_orderkey from lineitem, orders, customer "
    "where l_orderkey = o_orderkey and o_custkey = c_custkey "
    "and c_custkey <= 30",
    "select o_custkey, sum(o_totalprice), count(*) from orders "
    "group by o_custkey",
    "select c_nationkey, sum(l_quantity) from lineitem, orders, customer "
    "where l_orderkey = o_orderkey and o_custkey = c_custkey "
    "group by c_nationkey",
    "select n_name, count(*) from nation, region "
    "where n_regionkey = r_regionkey and r_name = 'ASIA' group by n_name",
    "select avg(l_quantity) from lineitem where l_partkey <= 50",
]


class TestPlanCorrectness:
    @pytest.mark.parametrize("sql", QUERIES)
    def test_plan_matches_direct_execution(self, catalog, tiny_stats, tiny_db, sql):
        optimize_and_execute(catalog, tiny_stats, tiny_db, sql)

    @pytest.mark.parametrize("sql", QUERIES)
    def test_plan_with_preaggregation_disabled(
        self, catalog, tiny_stats, tiny_db, sql
    ):
        optimize_and_execute(
            catalog,
            tiny_stats,
            tiny_db,
            sql,
            config=OptimizerConfig(enable_preaggregation=False),
        )


class TestViewSelection:
    def make_matcher(self, catalog, db, views):
        matcher = ViewMatcher(catalog)
        for name, sql in views.items():
            statement = catalog.bind_sql(sql)
            matcher.register_view(name, statement)
            materialize_view(name, statement, db)
        return matcher

    def test_cheap_view_wins(self, catalog, tiny_stats, tiny_db):
        matcher = self.make_matcher(
            catalog,
            tiny_db,
            {
                "vq": "select l_orderkey as k, l_quantity as q from lineitem "
                "where l_quantity > 20"
            },
        )
        result = optimize_and_execute(
            catalog,
            tiny_stats,
            tiny_db,
            "select l_orderkey, l_quantity from lineitem where l_quantity > 25",
            matcher=matcher,
        )
        assert result.uses_view
        assert result.view_names == ("vq",)

    def test_view_usable_on_subexpression(self, catalog, tiny_stats, tiny_db):
        matcher = self.make_matcher(
            catalog,
            tiny_db,
            {
                "vjoin": "select l_orderkey as k, o_custkey as c "
                "from lineitem, orders where l_orderkey = o_orderkey"
            },
        )
        result = optimize_and_execute(
            catalog,
            tiny_stats,
            tiny_db,
            "select l_orderkey, o_custkey, c_name from lineitem, orders, customer "
            "where l_orderkey = o_orderkey and o_custkey = c_custkey "
            "and c_custkey <= 20",
            matcher=matcher,
        )
        assert result.uses_view

    def test_aggregate_view_answers_aggregate_query(
        self, catalog, tiny_stats, tiny_db
    ):
        matcher = self.make_matcher(
            catalog,
            tiny_db,
            {
                "vagg": "select o_custkey, sum(o_totalprice) as total, "
                "count_big(*) as cnt from orders group by o_custkey"
            },
        )
        result = optimize_and_execute(
            catalog,
            tiny_stats,
            tiny_db,
            "select o_custkey, sum(o_totalprice) from orders group by o_custkey",
            matcher=matcher,
        )
        assert result.uses_view

    def test_paper_example4_preaggregation(self, catalog, tiny_stats, tiny_db):
        matcher = self.make_matcher(
            catalog,
            tiny_db,
            {
                "v4": "select o_custkey, count_big(*) as cnt, "
                "sum(l_quantity*l_extendedprice) as revenue "
                "from lineitem, orders where l_orderkey = o_orderkey "
                "group by o_custkey"
            },
        )
        result = optimize_and_execute(
            catalog,
            tiny_stats,
            tiny_db,
            "select c_nationkey, sum(l_quantity*l_extendedprice) "
            "from lineitem, orders, customer "
            "where l_orderkey = o_orderkey and o_custkey = c_custkey "
            "group by c_nationkey",
            matcher=matcher,
        )
        assert result.uses_view
        assert "v4" in result.view_names

    def test_no_substitutes_config(self, catalog, tiny_stats, tiny_db):
        matcher = self.make_matcher(
            catalog,
            tiny_db,
            {
                "vq": "select l_orderkey as k, l_quantity as q from lineitem "
                "where l_quantity > 20"
            },
        )
        result = optimize_and_execute(
            catalog,
            tiny_stats,
            tiny_db,
            "select l_orderkey, l_quantity from lineitem where l_quantity > 25",
            matcher=matcher,
            config=OptimizerConfig(produce_substitutes=False),
        )
        assert not result.uses_view
        assert result.invocations > 0  # the rule still ran (NoAlt mode)


class TestInstrumentation:
    def test_invocation_counts_grow_with_tables(self, catalog, tiny_stats):
        optimizer = Optimizer(catalog, tiny_stats, matcher=ViewMatcher(catalog))
        small = optimizer.optimize(
            catalog.bind_sql(
                "select l_orderkey from lineitem, orders "
                "where l_orderkey = o_orderkey"
            )
        )
        large = optimizer.optimize(
            catalog.bind_sql(
                "select l_orderkey from lineitem, orders, customer, nation "
                "where l_orderkey = o_orderkey and o_custkey = c_custkey "
                "and c_nationkey = n_nationkey"
            )
        )
        assert large.invocations > small.invocations

    def test_no_matcher_means_no_invocations(self, catalog, tiny_stats):
        optimizer = Optimizer(catalog, tiny_stats, matcher=None)
        result = optimizer.optimize(
            catalog.bind_sql("select l_orderkey from lineitem")
        )
        assert result.invocations == 0
        assert result.matching_seconds == 0.0

    def test_timings_populated(self, catalog, tiny_stats):
        optimizer = Optimizer(catalog, tiny_stats, matcher=ViewMatcher(catalog))
        result = optimizer.optimize(
            catalog.bind_sql("select l_orderkey from lineitem")
        )
        assert result.optimize_seconds > 0
        assert result.matching_seconds >= 0
        assert result.optimize_seconds >= result.matching_seconds

    def test_cost_is_positive_and_reported(self, catalog, tiny_stats):
        optimizer = Optimizer(catalog, tiny_stats)
        result = optimizer.optimize(
            catalog.bind_sql("select l_orderkey from lineitem")
        )
        assert result.cost > 0
        assert result.cost == result.plan.cost


class TestEdgeCases:
    def test_cartesian_query_still_plans(self, catalog, tiny_stats, tiny_db):
        optimize_and_execute(
            catalog,
            tiny_stats,
            tiny_db,
            "select r_name, n_name from region, nation "
            "where r_regionkey >= 3 and n_nationkey <= 2",
        )

    def test_too_many_tables_rejected(self, catalog, tiny_stats):
        optimizer = Optimizer(
            catalog, tiny_stats, config=OptimizerConfig(max_tables=2)
        )
        with pytest.raises(ValueError, match="exceeds"):
            optimizer.optimize(
                catalog.bind_sql(
                    "select l_orderkey from lineitem, orders, customer "
                    "where l_orderkey = o_orderkey and o_custkey = c_custkey"
                )
            )

    def test_view_cost_cache(self, catalog, tiny_stats):
        matcher = ViewMatcher(catalog)
        matcher.register_view(
            "v1", catalog.bind_sql("select l_orderkey as k from lineitem")
        )
        optimizer = Optimizer(catalog, tiny_stats, matcher=matcher)
        view = matcher.registered_views()[0].record
        first = optimizer.view_estimated_rows(view)
        second = optimizer.view_estimated_rows(view)
        assert first == second
