"""End-to-end soundness: every substitute is bag-equivalent to its query.

This is the correctness property the paper's formal argument establishes
and its implementation relies on. We check it empirically: generate a
random Section 5 workload over a real (small) TPC-H database, materialize
every view, and for every substitute the matcher produces, execute both
the original query expression and the substitute and compare them as bags.
"""

import pytest

from repro.core import ViewMatcher, describe, match_view
from repro.engine import Database, execute, materialize_view
from repro.sql import statement_to_sql
from repro.stats import DatabaseStats
from repro.workload import WorkloadGenerator

VIEW_COUNT = 220
QUERY_COUNT = 50


@pytest.fixture(scope="module")
def workload(catalog, tiny_db, tiny_stats):
    """Views registered and materialized plus a batch of queries."""
    generator = WorkloadGenerator(catalog, tiny_stats, seed=2024)
    matcher = ViewMatcher(catalog, use_filter_tree=False)
    database = Database()
    for name in tiny_db.names():
        relation = tiny_db.relation(name)
        database.store(name, relation.columns, relation.rows)
    for name, view in generator.generate_views(VIEW_COUNT):
        matcher.register_view(name, view.statement)
        materialize_view(name, view.statement, database)
    queries = [q.statement for q in generator.generate_queries(QUERY_COUNT)]
    return matcher, database, queries


class TestSubstituteSoundness:
    def test_every_substitute_is_bag_equivalent(self, catalog, workload):
        matcher, database, queries = workload
        checked = 0
        for statement in queries:
            expected = None
            for result in matcher.match(describe(statement, catalog)):
                if not result.matched:
                    continue
                if expected is None:
                    expected = execute(statement, database)
                actual = execute(result.substitute, database)
                assert expected.bag_equals(actual, float_digits=9), (
                    f"substitute over {result.view.name} diverges\n"
                    f"query: {statement_to_sql(statement)}\n"
                    f"sub:   {statement_to_sql(result.substitute)}"
                )
                checked += 1
        # The workload calibration guarantees a healthy number of matches;
        # a silent zero here would make the test vacuous.
        assert checked >= 5, f"only {checked} substitutes exercised"

    def test_subexpression_substitutes_sound(self, catalog, workload, tiny_stats):
        """Blocks the optimizer would form are also answered correctly."""
        matcher, database, queries = workload
        from repro.optimizer import Optimizer, plan_result

        optimizer = Optimizer(catalog, tiny_stats, matcher=matcher)
        used_views = 0
        for statement in queries[:25]:
            result = optimizer.optimize(statement)
            expected = execute(statement, database)
            actual = plan_result(result.plan, database)
            assert expected.bag_equals(actual, float_digits=9), statement_to_sql(
                statement
            )
            used_views += result.uses_view
        assert used_views >= 3, "optimizer never chose a view-based plan"


class TestFilterTreeCompletenessAtScale:
    def test_filter_never_prunes_matching_views(self, catalog, workload):
        matcher, _database, queries = workload
        filtered = ViewMatcher(catalog, use_filter_tree=True)
        # A registered view keeps no description: re-derive each once.
        described = [view.description for view in matcher.registered_views()]
        for description in described:
            filtered.filter_tree.register(description)
        for statement in queries:
            query = describe(statement, catalog)
            candidates = {v.name for v in filtered.filter_tree.candidates(query)}
            for description in described:
                result = match_view(query, description)
                if result.matched:
                    assert description.name in candidates, (
                        f"filter tree pruned matching view {description.name} for\n"
                        f"{statement_to_sql(statement)}"
                    )

    def test_filter_reduces_candidate_sets(self, catalog, workload):
        matcher, _database, queries = workload
        filtered = ViewMatcher(catalog, use_filter_tree=True)
        for view in matcher.registered_views():
            filtered.filter_tree.register(view.description)
        total = 0
        candidates = 0
        for statement in queries:
            query = describe(statement, catalog)
            candidates += len(filtered.filter_tree.candidates(query))
            total += len(matcher.registered_views())
        # Section 5 reports candidate sets below 0.4% of the views; our
        # filter is at least as selective, but allow headroom to 5%.
        assert candidates / total < 0.05


class TestRegroupingSoundness:
    """Directed cases where the substitute pipeline re-aggregates."""

    def test_regrouped_aggregate_view(self, catalog, tiny_db):
        database = Database()
        for name in tiny_db.names():
            relation = tiny_db.relation(name)
            database.store(name, relation.columns, relation.rows)
        view_sql = (
            "select o_custkey, o_orderstatus, sum(o_totalprice) as total, "
            "count_big(*) as cnt from orders group by o_custkey, o_orderstatus"
        )
        matcher = ViewMatcher(catalog)
        view_statement = catalog.bind_sql(view_sql)
        matcher.register_view("v", view_statement)
        materialize_view("v", view_statement, database)
        query = catalog.bind_sql(
            "select o_custkey, sum(o_totalprice), count(*) from orders "
            "group by o_custkey"
        )
        (result,) = matcher.substitutes(query)
        assert result.regrouped
        assert execute(query, database).bag_equals(
            execute(result.substitute, database), float_digits=9
        )

    def test_extra_table_aggregate_view(self, catalog, tiny_db):
        database = Database()
        for name in tiny_db.names():
            relation = tiny_db.relation(name)
            database.store(name, relation.columns, relation.rows)
        view_sql = (
            "select l_partkey, sum(l_quantity) as q, count_big(*) as cnt "
            "from lineitem, orders where l_orderkey = o_orderkey "
            "group by l_partkey"
        )
        matcher = ViewMatcher(catalog)
        view_statement = catalog.bind_sql(view_sql)
        matcher.register_view("v", view_statement)
        materialize_view("v", view_statement, database)
        query = catalog.bind_sql(
            "select l_partkey, sum(l_quantity) from lineitem group by l_partkey"
        )
        (result,) = matcher.substitutes(query)
        assert execute(query, database).bag_equals(
            execute(result.substitute, database), float_digits=9
        )
