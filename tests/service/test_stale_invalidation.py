"""Stale-rewrite invalidation across the two channels at once.

The cache has two staleness channels: epoch bumps (view registration
changes, wholesale) and CDC merge events (base-table data changes,
per-entry). Each is unit-tested on its own; these tests pin the
interactions -- a merge event must keep working after an epoch swap,
and an event naming a dropped view must not resurrect or crash anything
-- so a cached plan can never outlive either kind of change.
"""

import pytest

from repro.catalog import Catalog, Column, ColumnType, Table
from repro.cdc import CdcPipeline
from repro.engine import Database
from repro.service import RewriteCache, ViewServer
from repro.stats import DatabaseStats

from .test_cache import result

VIEW_SQL = "select k as k, v as v from t where g = 0"
QUERY = "select k from t where g = 0"


@pytest.fixture()
def stack():
    catalog = Catalog()
    catalog.add_table(
        Table(
            name="t",
            columns=(
                Column("k"),
                Column("g"),
                Column("v", ColumnType.FLOAT),
            ),
            primary_key=("k",),
        )
    )
    database = Database()
    database.store(
        "t", ("k", "g", "v"), [(1, 0, 10.0), (2, 0, 20.0), (3, 1, 30.0)]
    )
    pipeline = CdcPipeline(catalog, database)
    stats = DatabaseStats.collect(database, catalog)
    server = ViewServer(catalog, stats)
    server.attach_cdc(pipeline)  # publishes epoch 1
    yield catalog, pipeline, server
    server.close()


class TestAcrossEpochSwap:
    def test_change_event_still_evicts_after_epoch_bump(self, stack):
        catalog, pipeline, server = stack
        pipeline.register_view("mv", catalog.bind_sql(VIEW_SQL))
        server.register_view("mv", VIEW_SQL)
        # A second registration bumps the epoch again; the rewrite below
        # is cached under the *new* generation.
        server.register_view("mv_other", "select k as k from t where g = 1")
        assert server.epoch == 3
        assert server.serve(QUERY).uses_view
        assert server.serve(QUERY).cache_hit
        pipeline.insert("t", [(4, 0, 40.0)])
        pipeline.drain()
        refreshed = server.serve(QUERY)
        assert not refreshed.cache_hit
        assert server.stats()["counters"]["staleness_evictions"] >= 1

    def test_epoch_swap_retires_plan_survived_by_events(self, stack):
        catalog, pipeline, server = stack
        pipeline.register_view("mv", catalog.bind_sql(VIEW_SQL))
        server.register_view("mv", VIEW_SQL)
        warm = server.serve(QUERY)
        assert warm.uses_view and warm.epoch == 2
        # Unregister: the epoch swap alone must stop the cached plan,
        # no merge event fires for a server-side drop.
        assert server.unregister_view("mv") == 3
        served = server.serve(QUERY)
        assert not served.cache_hit
        assert "mv" not in served.view_names
        assert not served.uses_view

    def test_event_for_dropped_view_is_harmless(self, stack):
        catalog, pipeline, server = stack
        pipeline.register_view("mv", catalog.bind_sql(VIEW_SQL))
        server.register_view("mv", VIEW_SQL)
        assert server.serve(QUERY).uses_view
        server.unregister_view("mv")
        before = server.serve(QUERY)
        assert not before.uses_view
        # The pipeline still maintains mv and fires an event naming it;
        # nothing cached reads it any more.
        pipeline.insert("t", [(5, 0, 50.0)])
        pipeline.drain()
        after = server.serve(QUERY)
        assert after.cache_hit
        assert not after.uses_view

    def test_event_before_any_submit_is_harmless(self, stack):
        catalog, pipeline, server = stack
        pipeline.register_view("mv", catalog.bind_sql(VIEW_SQL))
        pipeline.insert("t", [(6, 0, 60.0)])
        pipeline.drain()
        server.register_view("mv", VIEW_SQL)
        assert server.serve(QUERY).uses_view


class TestCacheChannelInterplay:
    def test_view_eviction_then_epoch_purge_counts_separately(self):
        cache = RewriteCache(capacity=8)
        cache.put("q1", epoch=1, result=result("v1"))
        cache.put("q2", epoch=1, result=result("v2"))
        assert cache.invalidate_views(["v1"]) == 1
        assert cache.purge_stale(epoch=2) == 1
        assert len(cache) == 0
        assert cache.statistics.view_invalidations == 1
        assert cache.statistics.epoch_invalidations == 1

    def test_stale_entry_unservable_even_when_events_missed(self):
        # The belt-and-braces property: even if no event and no purge
        # ever ran, a lookup under the new epoch cannot serve the old
        # plan.
        cache = RewriteCache(capacity=8)
        cache.put("q1", epoch=1, result=result("v1"))
        assert cache.get("q1", epoch=2) is None
        assert cache.get("q1", epoch=1) is None  # dropped, not hidden

    def test_reinsert_under_new_epoch_serves_again(self):
        cache = RewriteCache(capacity=8)
        cache.put("q1", epoch=1, result=result("v1"))
        cache.get("q1", epoch=2)
        fresh = result("v1")
        cache.put("q1", epoch=2, result=fresh)
        assert cache.get("q1", epoch=2) is fresh
