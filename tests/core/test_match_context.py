"""View-record lifecycle: compiled at registration, never stale.

A view's :class:`ViewRecord` -- everything the matcher's decision reads
of it -- is compiled once when the view is registered. These tests pin
the invalidation contract: re-registering a name after unregister
compiles a record for the *new* definition, snapshot rebuilds reuse
surviving records by identity but never resurrect dropped ones, matching
with registration records agrees exactly with records compiled per call,
and register/unregister churn -- in a matcher or across serving epochs
-- leaves every answer alone.
"""

import pytest

from repro.core import ViewMatcher, describe, match_view
from repro.core.filtertree import FilterTree
from repro.core.matching import ViewRecord
from repro.service import SnapshotManager, ViewServer
from repro.sql import statement_to_sql
from repro.workload import WorkloadGenerator


def described(catalog, sql, name=None):
    return describe(catalog.bind_sql(sql), catalog, name=name)


class TestRegistrationBuildsContext:
    def test_register_attaches_context_for_the_description(self, catalog):
        tree = FilterTree()
        description = described(catalog, "select l_orderkey as k from lineitem", "v")
        view = tree.register(description)
        assert isinstance(view.record, ViewRecord)
        assert view.record.name == "v"
        assert view.record.tables is description.tables
        assert view.sql == "SELECT lineitem.l_orderkey AS k FROM lineitem"

    def test_reregistering_same_name_builds_fresh_context(self, catalog):
        tree = FilterTree()
        first = tree.register(
            described(
                catalog,
                "select l_orderkey as k from lineitem where l_quantity >= 10",
                "v",
            )
        )
        tree.unregister("v")
        second = tree.register(
            described(
                catalog,
                "select l_partkey as k from lineitem where l_quantity >= 99",
                "v",
            )
        )
        # Same name, new definition: the record must reflect the new
        # statement, not the stale one.
        assert second.record is not first.record
        assert second.record.conjuncts != first.record.conjuncts
        assert second.sql != first.sql
        (registered,) = tree.views()
        assert registered.record is second.record

    def test_query_with_stale_context_would_mismatch(self, catalog):
        """The record carries real per-view state, so reuse must be exact.

        Matching a query against view B while passing view A's record
        must not silently succeed -- this is what makes the rebuild-on-
        re-register contract load-bearing rather than cosmetic.
        """
        narrow = described(
            catalog,
            "select l_orderkey as k, l_quantity as q from lineitem "
            "where l_quantity >= 99",
            "v",
        )
        wide = described(
            catalog,
            "select l_orderkey as k, l_quantity as q from lineitem "
            "where l_quantity >= 10",
            "v",
        )
        query = described(
            catalog, "select l_orderkey from lineitem where l_quantity >= 50"
        )
        assert not match_view(query, narrow).matched
        assert match_view(query, wide).matched
        fresh = match_view(query, wide, record=ViewRecord.of(wide))
        assert fresh.matched
        assert fresh.substitute is not None  # and builds a real substitute
        # A record is what the decision reads: another view's decides as
        # that view (the caller vouches for the pairing).
        assert not match_view(query, wide, record=ViewRecord.of(narrow)).matched


class TestMatcherModesAgree:
    VIEWS = {
        "v_range": (
            "select l_orderkey, l_quantity from lineitem "
            "where l_quantity >= 10 and l_quantity <= 90"
        ),
        "v_agg": (
            "select l_partkey, sum(l_quantity) as total, count_big(*) as cnt "
            "from lineitem group by l_partkey"
        ),
        "v_join": (
            "select l_orderkey, o_orderdate from lineitem, orders "
            "where l_orderkey = o_orderkey"
        ),
    }
    QUERIES = (
        "select l_orderkey from lineitem where l_quantity >= 20 and l_quantity <= 80",
        "select l_partkey, sum(l_quantity) from lineitem group by l_partkey",
        "select o_orderdate from lineitem, orders where l_orderkey = o_orderkey",
    )

    def test_contexts_on_and_off_return_identical_results(self, catalog):
        """Registration records against records compiled per call."""
        matcher = ViewMatcher(catalog)
        for name, sql in self.VIEWS.items():
            matcher.register_view(name, catalog.bind_sql(sql))
        for sql in self.QUERIES:
            query = matcher.describe_query(catalog.bind_sql(sql))
            fast = sorted(_result_key(r) for r in matcher.match(query))
            slow = sorted(
                _result_key(match_view(query, view.description))
                for view in matcher.candidates(query)
            )
            assert fast == slow


class TestSnapshotRebuilds:
    VIEW_SQL = {
        "v_cheap": "select l_partkey, l_quantity from lineitem where l_quantity >= 10",
        "v_parts": "select p_partkey, p_retailprice from part "
        "where p_retailprice >= 100",
    }

    @pytest.fixture()
    def manager(self, catalog, paper_stats):
        return SnapshotManager(catalog, paper_stats)

    def record_of(self, snapshot, name):
        (view,) = [
            v
            for v in snapshot.matcher.registered_views()
            if v.name == name
        ]
        return view.record

    def test_epoch_rebuilds_reuse_context_by_identity(self, manager, catalog):
        first = manager.register_view(
            "v_cheap", catalog.bind_sql(self.VIEW_SQL["v_cheap"])
        )
        kept = self.record_of(first, "v_cheap")
        second = manager.register_view(
            "v_parts", catalog.bind_sql(self.VIEW_SQL["v_parts"])
        )
        # The rebuild replays prebuilt RegisteredView objects: the
        # surviving view's record is the same object, not a recompilation.
        assert self.record_of(second, "v_cheap") is kept

    def test_dropped_context_is_not_resurrected(self, manager, catalog):
        manager.register_view(
            "v_cheap", catalog.bind_sql(self.VIEW_SQL["v_cheap"])
        )
        dropped = self.record_of(manager.current, "v_cheap")
        manager.unregister_view("v_cheap")
        assert "v_cheap" not in manager.current.view_names
        # Re-register the name with a different definition: the new
        # epoch must carry a record for the new statement only.
        revived = manager.register_view(
            "v_cheap", catalog.bind_sql(self.VIEW_SQL["v_parts"])
        )
        reborn = self.record_of(revived, "v_cheap")
        assert reborn is not dropped
        assert reborn.tables != dropped.tables

    def test_interner_persists_across_epochs(self, manager, catalog):
        before = manager.current.matcher.interner
        assert before is manager._interner
        manager.register_view(
            "v_cheap", catalog.bind_sql(self.VIEW_SQL["v_cheap"])
        )
        manager.unregister_view("v_cheap")
        # Every epoch's tree shares the manager-lifetime interner, so bit
        # assignments stay stable across rebuilds.
        assert manager.current.matcher.interner is before


def _result_key(result):
    return (
        result.view.name,
        result.substitute,
        result.reject_reason,
        result.reject_detail,
        result.compensating_equalities,
        result.compensating_ranges,
        result.compensating_residuals,
        result.regrouped,
        result.eliminated_tables,
        result.backjoined_tables,
    )


class TestRegistrationChurn:
    """Dropping and re-registering views never changes an answer."""

    @pytest.fixture(scope="class")
    def workload(self, catalog, paper_stats):
        generator = WorkloadGenerator(catalog, paper_stats, seed=29)
        views = generator.generate_views(80)
        queries = [q.statement for q in generator.generate_queries(45)]
        return views, queries

    def test_unregister_churn_keeps_results_identical(self, workload, catalog):
        views, queries = workload
        matcher = ViewMatcher(catalog)
        for name, generated in views:
            matcher.register_view(name, generated.statement)
        baseline = {
            statement: sorted(
                _result_key(r)
                for r in matcher.match(matcher.describe_query(statement))
            )
            for statement in queries
        }
        # Every view gets a fresh description and record.
        for name, generated in views:
            matcher.unregister_view(name)
            matcher.register_view(name, generated.statement)
        for statement in queries:
            got = sorted(
                _result_key(r)
                for r in matcher.match(matcher.describe_query(statement))
            )
            assert got == baseline[statement]

    def test_epoch_swaps_keep_serving_answers_stable(
        self, catalog, paper_stats
    ):
        generator = WorkloadGenerator(catalog, paper_stats, seed=3)
        views = generator.generate_views(30)
        queries = [
            statement_to_sql(q.statement)
            for q in generator.generate_queries(8)
        ]
        sql = {}
        with ViewServer(catalog, paper_stats) as server:
            for name, generated in views:
                sql[name] = statement_to_sql(generated.statement)
                server.register_view(name, sql[name])
            baseline = [server.rewrite(q) for q in queries]
            # Epoch churn: drop half the views and restore them; every
            # swap publishes a new snapshot with new records.
            for name, _ in views[::2]:
                server.unregister_view(name)
            for name, _ in views[::2]:
                server.register_view(name, sql[name])
            after = [server.rewrite(q) for q in queries]
        for before_result, after_result in zip(baseline, after):
            assert before_result.ok == after_result.ok
            assert before_result.uses_view == after_result.uses_view
            assert before_result.sql == after_result.sql
