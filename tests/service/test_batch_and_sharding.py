"""Incremental epoch snapshots, bulk registration, and batched rewriting.

Every epoch serves from one copy-on-write filter tree, and a batch runs
its distinct misses in-process.
"""

import pytest

from repro.service import ViewServer

VIEWS = {
    f"v_q{threshold}": (
        "select l_partkey, l_quantity from lineitem "
        f"where l_quantity >= {threshold}"
    )
    for threshold in range(1, 9)
}
QUERIES = [
    "select l_partkey from lineitem where l_quantity >= 20",
    "select o_orderkey from orders where o_orderkey >= 1",
    "select l_partkey, l_quantity from lineitem where l_quantity >= 8",
]

@pytest.fixture()
def server(catalog, paper_stats):
    with ViewServer(catalog, paper_stats, workers=1) as server:
        yield server


def _packed_tables(server):
    """The current epoch's packed row tables, images built."""
    tables = server.snapshots.current.matcher.filter_tree.packed_tables()
    for table in tables:
        table.packed_bytes()
    return tables


class TestShardedSnapshots:
    """Epochs hold one incrementally-built tree."""

    def test_incremental_publish_reuses_unchanged_images(self, server):
        server.register_views(VIEWS)
        before = _packed_tables(server)
        server.register_view(
            "v_extra",
            "select o_orderkey, o_custkey from orders where o_orderkey >= 5",
        )
        after = _packed_tables(server)
        # An SPJ view touched the SPJ subtree; the aggregate subtree's
        # image is the previous epoch's, by identity.
        assert not after[0].shares_buffer_with(before[0])
        assert after[1].shares_buffer_with(before[1])
        assert len(after[0]) == len(before[0]) + 1

    def test_unregister_rebuilds_only_the_affected_subtree(self, server):
        server.register_views(VIEWS)
        name = next(iter(VIEWS))
        old_tree = server.snapshots.current.matcher.filter_tree
        before = _packed_tables(server)
        server.unregister_view(name)
        new_tree = server.snapshots.current.matcher.filter_tree
        after = _packed_tables(server)
        assert new_tree is not old_tree
        assert [view.name for view in new_tree.views()] == [
            view.name for view in old_tree.views() if view.name != name
        ]
        assert len(after[0]) == len(before[0]) - 1
        assert after[1].shares_buffer_with(before[1])
        result = server.submit(QUERIES[2])
        assert name not in result.view_names

    def test_old_snapshot_unchanged_by_later_publish(self, server):
        server.register_views(VIEWS)
        old = server.snapshots.current
        server.register_view(
            "v_later", "select o_orderkey from orders where o_orderkey >= 9"
        )
        assert "v_later" not in old.view_names
        assert old.matcher.view_count == len(VIEWS)


class TestBulkRegistration:
    def test_batch_publishes_one_epoch(self, server):
        epoch = server.register_views(VIEWS)
        assert epoch == 1
        assert server.snapshots.current.view_count == len(VIEWS)
        assert server.stats()["counters"]["epoch_bumps"] == 1

    def test_batch_is_atomic_on_duplicate_names(self, server):
        pairs = list(VIEWS.items()) + [next(iter(VIEWS.items()))]
        with pytest.raises(ValueError, match="duplicated in batch"):
            server.register_views(pairs)
        assert server.snapshots.current.view_count == 0

    def test_batch_rejects_already_registered_names(self, server):
        name, sql = next(iter(VIEWS.items()))
        server.register_view(name, sql)
        with pytest.raises(ValueError, match="already registered"):
            server.register_views(VIEWS)
        assert server.snapshots.current.view_count == 1

    def test_bulk_matches_one_by_one_serving(self, catalog, paper_stats):
        with ViewServer(catalog, paper_stats, workers=1) as one_by_one:
            for name, sql in VIEWS.items():
                one_by_one.register_view(name, sql)
            with ViewServer(catalog, paper_stats, workers=1) as bulk:
                bulk.register_views(VIEWS)
                for sql in QUERIES:
                    assert (
                        bulk.submit(sql).view_names
                        == one_by_one.submit(sql).view_names
                    )


class TestRewriteMany:
    def test_matches_individual_submits(self, catalog, paper_stats, server):
        server.register_views(VIEWS)
        with ViewServer(catalog, paper_stats, workers=1) as reference:
            reference.register_views(VIEWS)
            singles = [reference.submit(sql) for sql in QUERIES]
        batch = server.rewrite_many(QUERIES)
        assert len(batch) == len(QUERIES)
        for single, batched in zip(singles, batch):
            assert batched.ok == single.ok
            assert batched.view_names == single.view_names
            assert batched.fingerprint == single.fingerprint
            assert batched.epoch == server.epoch

    def test_duplicates_are_optimized_once(self, server):
        server.register_views(VIEWS)
        results = server.rewrite_many([QUERIES[0], QUERIES[0], QUERIES[0]])
        assert [r.ok for r in results] == [True] * 3
        assert len({id(r.result) for r in results}) == 1
        assert server.stats()["counters"]["cache_misses"] == 1

    def test_second_batch_hits_cache(self, server):
        server.register_views(VIEWS)
        first = server.rewrite_many(QUERIES)
        second = server.rewrite_many(QUERIES)
        assert all(not r.cache_hit for r in first)
        assert all(r.cache_hit for r in second)
        assert [r.result for r in second] == [r.result for r in first]

    def test_errors_reported_in_place(self, server):
        results = server.rewrite_many(
            [QUERIES[0], "select from broken", QUERIES[1]]
        )
        assert results[0].ok and results[2].ok
        assert not results[1].ok
        assert results[1].error

    def test_empty_batch(self, server):
        assert server.rewrite_many([]) == []
