"""ViewMatcher facade tests: registration, matching, statistics."""

import pytest

from repro.core import ViewMatcher
from repro.errors import MatchError


class TestRegistration:
    def test_register_and_count(self, catalog):
        matcher = ViewMatcher(catalog)
        matcher.register_view(
            "v1", catalog.bind_sql("select l_orderkey as k from lineitem")
        )
        assert matcher.view_count == 1
        assert {v.name for v in matcher.registered_views()} == {"v1"}

    def test_invalid_view_rejected(self, catalog):
        matcher = ViewMatcher(catalog)
        with pytest.raises(MatchError):
            matcher.register_view(
                "bad",
                catalog.bind_sql(
                    "select o_custkey, sum(o_totalprice) as s from orders "
                    "group by o_custkey"
                ),
            )

    def test_unregister(self, catalog):
        matcher = ViewMatcher(catalog)
        matcher.register_view(
            "v1", catalog.bind_sql("select l_orderkey as k from lineitem")
        )
        matcher.unregister_view("v1")
        assert matcher.view_count == 0


class TestMatching:
    def test_match_sql_end_to_end(self, catalog):
        matcher = ViewMatcher(catalog)
        matcher.register_view(
            "v1",
            catalog.bind_sql(
                "select l_orderkey as k, l_partkey as p from lineitem "
                "where l_partkey >= 100"
            ),
        )
        results = matcher.match_sql(
            "select l_orderkey from lineitem "
            "where l_partkey >= 150 and l_partkey <= 300"
        )
        assert len(results) == 1
        assert results[0].view.name == "v1"

    def test_match_returns_rejections_too(self, catalog):
        matcher = ViewMatcher(catalog, use_filter_tree=False)
        matcher.register_view(
            "v1", catalog.bind_sql("select o_orderkey as k from orders")
        )
        results = matcher.match(catalog.bind_sql("select l_orderkey from lineitem"))
        assert len(results) == 1
        assert not results[0].matched

    def test_filter_tree_disabled_checks_all_views(self, catalog):
        filtered = ViewMatcher(catalog, use_filter_tree=True)
        unfiltered = ViewMatcher(catalog, use_filter_tree=False)
        for matcher in (filtered, unfiltered):
            matcher.register_view(
                "unrelated", catalog.bind_sql("select r_regionkey as k from region")
            )
        query = catalog.bind_sql("select l_orderkey from lineitem")
        assert filtered.candidates(filtered.describe_query(query)) == []
        assert len(unfiltered.candidates(unfiltered.describe_query(query))) == 1


class TestStatistics:
    def test_counters_accumulate(self, catalog):
        matcher = ViewMatcher(catalog, use_filter_tree=False)
        matcher.register_view(
            "v1", catalog.bind_sql("select l_orderkey as k from lineitem")
        )
        matcher.register_view(
            "v2", catalog.bind_sql("select o_orderkey as k from orders")
        )
        matcher.match_sql("select l_orderkey from lineitem")
        stats = matcher.statistics
        assert stats.invocations == 1
        assert stats.views_considered == 2
        assert stats.matches == 1
        assert stats.substitutes == 1
        assert stats.views_registered_total == 2
        assert stats.candidate_fraction == 1.0
        assert stats.candidate_success_rate == 0.5
        assert stats.substitutes_per_invocation == 1.0
        assert stats.rejects_by_reason.get("TABLES") == 1

    def test_reset(self, catalog):
        matcher = ViewMatcher(catalog)
        matcher.register_view(
            "v1", catalog.bind_sql("select l_orderkey as k from lineitem")
        )
        matcher.match_sql("select l_orderkey from lineitem")
        matcher.statistics.reset()
        assert matcher.statistics.invocations == 0
        assert matcher.statistics.rejects_by_reason == {}

    def test_zero_division_guards(self, catalog):
        matcher = ViewMatcher(catalog)
        stats = matcher.statistics
        assert stats.candidate_fraction == 0.0
        assert stats.candidate_success_rate == 0.0
        assert stats.substitutes_per_invocation == 0.0
