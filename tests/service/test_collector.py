"""What the serving layer does with the interpreter's cyclic collector.

A bulk load pauses it, every publish freezes the heap, and so nothing
the server keeps may rely on it: binding and registering views must
leave no reference cycle behind, and ``close()`` must free the served
catalog by reference counting alone.
"""

import gc

import pytest

from repro import ViewServer, tpch_catalog
from repro.collector import collector_paused
from repro.errors import MatchError
from repro.service.snapshot import SnapshotManager
from repro.sql import statement_to_sql
from repro.workload import WorkloadGenerator


def generated_views(catalog, stats, count, seed=42, prefix="mv"):
    generator = WorkloadGenerator(catalog, stats, seed=seed)
    return [
        (f"{prefix}{index:05d}", statement_to_sql(view.statement))
        for index, (_, view) in enumerate(generator.generate_views(count))
    ]


def live_objects() -> int:
    """Container objects alive, the frozen ones included."""
    return len(gc.get_objects()) + gc.get_freeze_count()


@pytest.fixture()
def collector_off():
    """Run with the collector disabled and nothing pending, so whatever
    is freed during the test was freed by reference counting."""
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.unfreeze()  # the servers under test froze the test process
        if was_enabled:
            gc.enable()


class TestNoCyclicGarbage:
    def test_bind_and_register(self, catalog, paper_stats, collector_off):
        views = generated_views(catalog, paper_stats, 100)
        server = ViewServer(catalog, paper_stats, cache_enabled=False)
        try:
            gc.collect()
            bound = [(name, catalog.bind_sql(sql)) for name, sql in views[:50]]
            server.register_views(bound)
            server.register_views(views[50:])  # as text: binds inside
            assert gc.collect() == 0
        finally:
            server.close()

    def test_serve_and_unregister(self, catalog, paper_stats, collector_off):
        views = generated_views(catalog, paper_stats, 60)
        server = ViewServer(catalog, paper_stats, cache_enabled=False)
        try:
            server.register_views(views)
            gc.collect()
            for _, sql in views[:20]:
                assert server.serve(sql).ok
            for name, _ in views[:20]:
                server.unregister_view(name)
            assert gc.collect() == 0
        finally:
            server.close()


class TestCloseReclaims:
    def test_closed_servers_are_freed_by_reference_counting(
        self, paper_stats, collector_off
    ):
        catalog = tpch_catalog()
        views = generated_views(catalog, paper_stats, 1000)
        kept = []  # like a harness that keeps its closed programs around
        loaded = []

        def one_round() -> int:
            server = ViewServer(catalog, paper_stats, workers=1)
            server.register_views(views)
            assert server.serve(views[0][1]).ok
            loaded.append(live_objects())
            server.close()
            kept.append(server)
            return live_objects()

        # The first load also builds the schema-bounded state every later
        # one shares (catalog caches, interned record values), which no
        # close frees: measure from after it, whatever ran before.
        one_round()
        baseline = live_objects()
        first = one_round()
        one_round()
        third = one_round()
        catalog_objects = loaded[1] - baseline
        # A registered view is its record: about 30 container objects.
        assert catalog_objects > 20 * len(views)
        # A closed server keeps its counters and histograms, not its
        # catalog: two more of them cost under 2 % of one loaded catalog.
        assert third - first <= 0.02 * catalog_objects
        assert first - baseline <= 0.05 * catalog_objects
        kept.clear()
        assert gc.collect() == 0

    def test_register_unregister_churn_does_not_grow(
        self, paper_stats, collector_off
    ):
        catalog = tpch_catalog()
        views = generated_views(catalog, paper_stats, 120)
        churn = generated_views(catalog, paper_stats, 20, seed=43, prefix="cv")
        server = ViewServer(catalog, paper_stats, workers=1)
        try:
            server.register_views(views)

            def publish_twenty_times():
                for _ in range(10):
                    server.register_views(churn)
                    for name, _ in churn:
                        server.unregister_view(name)
                return live_objects()

            settled = publish_twenty_times()  # memos and interners warm
            for _ in range(9):
                after = publish_twenty_times()
            assert after <= settled * 1.005
            assert gc.collect() == 0
        finally:
            server.close()


class TestCollectorDiscipline:
    def test_pause_restores_what_it_found(self):
        assert gc.isenabled()
        with collector_paused():
            assert not gc.isenabled()
            with collector_paused():  # nests
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_pause_never_enables_a_collector_the_host_disabled(self):
        gc.disable()
        try:
            with collector_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_pause_is_released_when_the_load_fails(self):
        with pytest.raises(RuntimeError):
            with collector_paused():
                raise RuntimeError("load failed")
        assert gc.isenabled()

    @pytest.mark.parametrize("host_enabled", [True, False])
    def test_failing_batch_publishes_nothing(
        self, catalog, paper_stats, host_enabled
    ):
        good = "select l_orderkey as k from lineitem where l_quantity > 5"
        invalid = "select distinct l_orderkey as k from lineitem"
        server = ViewServer(catalog, paper_stats, workers=1)
        if not host_enabled:
            gc.disable()
        try:
            with pytest.raises(MatchError):
                server.register_views(
                    [("v1", good), ("v2", invalid), ("v3", good)]
                )
            assert gc.isenabled() is host_enabled
            assert server.epoch == 0
            assert len(server.snapshots) == 0
            assert server.register_views([("v1", good)]) == 1
            assert gc.isenabled() is host_enabled
        finally:
            gc.enable()
            server.close()

    def test_publish_freezes_the_registered_catalog(self, catalog, paper_stats):
        manager = SnapshotManager(catalog, paper_stats)
        gc.unfreeze()
        assert gc.get_freeze_count() == 0
        try:
            manager.register_view(
                "v1", catalog.bind_sql("select l_orderkey as k from lineitem")
            )
            assert gc.get_freeze_count() > 0
            registered = manager.current.matcher.filter_tree.view("v1")
            assert registered is not None
            assert all(registered is not obj for obj in gc.get_objects())
        finally:
            manager.close()
            gc.unfreeze()

    def test_pool_workers_are_forked_from_a_frozen_heap(
        self, catalog, paper_stats
    ):
        views = generated_views(catalog, paper_stats, 30)
        with ViewServer(catalog, paper_stats, workers=1) as server:
            gc.unfreeze()
            server.register_views(views)
            frozen_at_publish = gc.get_freeze_count()
            assert frozen_at_publish > 0
            try:
                pool = server.start_pool(workers=1)
            except RuntimeError:
                pytest.skip("no os.fork on this platform")
            # Nothing between the publish and the fork thawed the heap.
            assert gc.get_freeze_count() >= frozen_at_publish
            assert pool.rewrite(views[0][1]).ok
        gc.unfreeze()
