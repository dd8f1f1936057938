"""Epoch publishes as copy-on-write deltas over the one packed tree.

Every epoch's filter tree is a copy-on-write clone of its predecessor's
with only the registration delta applied: the clone shares the packed
row images until a delta touches them, indexes (and drops) exactly the
views that changed, and never mutates the tree a published epoch still
serves from. These tests pin the structural sharing, the delta cost, and
that delta-built epochs answer identically to a from-scratch build.
"""

from __future__ import annotations

import pytest

from repro.core.filtertree import _PackedSubtree
from repro.service import ViewServer
from repro.service.snapshot import SnapshotManager
from repro.workload import WorkloadGenerator


@pytest.fixture(scope="module")
def workload(catalog, paper_stats):
    generator = WorkloadGenerator(catalog, paper_stats, seed=23)
    views = list(generator.generate_views(84))
    queries = [q.statement for q in generator.generate_queries(12)]
    return views, queries


def _manager(catalog, paper_stats, views):
    manager = SnapshotManager(catalog, paper_stats)
    manager.register_views(
        [(name, generated.statement) for name, generated in views]
    )
    return manager


def _candidate_names(snapshot, statements):
    matcher = snapshot.matcher
    return [
        [v.name for v in matcher.filter_tree.candidates(matcher.describe_query(s))]
        for s in statements
    ]


def _pack(snapshot) -> None:
    """Build every packed row image of the epoch's tree (lazy until the
    first sweep or export)."""
    for table in snapshot.matcher.filter_tree.packed_tables():
        table.packed_bytes()


def _count_calls(monkeypatch, method: str) -> list:
    """Record every ``_PackedSubtree.<method>`` call (the per-view index
    work of a publish) by view name."""
    calls: list[str] = []
    original = getattr(_PackedSubtree, method)

    def counted(self, view, *rest):
        calls.append(view.name)
        return original(self, view, *rest)

    monkeypatch.setattr(_PackedSubtree, method, counted)
    return calls


class TestEpochCowDelta:
    def test_unchanged_registry_shares_packed_images(
        self, catalog, paper_stats, workload
    ):
        views, queries = workload
        manager = _manager(catalog, paper_stats, views[:60])
        before = manager.current
        _pack(before)
        manager.attach_freshness(object())  # republish, same registry
        after = manager.current
        assert after.epoch == before.epoch + 1
        old_tree = before.matcher.filter_tree
        new_tree = after.matcher.filter_tree
        assert new_tree is not old_tree
        for old, new in zip(old_tree.packed_tables(), new_tree.packed_tables()):
            assert new is not old
            assert new.shares_buffer_with(old)  # the same bytes object
        assert _candidate_names(after, queries) == _candidate_names(
            before, queries
        )

    def test_one_view_publish_leaves_the_other_subtree_shared(
        self, catalog, paper_stats, workload
    ):
        views, queries = workload
        manager = _manager(catalog, paper_stats, views[:60])
        before = manager.current
        _pack(before)
        name, extra = next(
            (name, view) for name, view in views[60:] if not view.is_aggregate
        )
        manager.register_view(name, extra.statement)
        after = manager.current
        _pack(after)
        old_spj, old_aggregate = before.matcher.filter_tree.packed_tables()[:2]
        new_spj, new_aggregate = after.matcher.filter_tree.packed_tables()[:2]
        assert new_aggregate.shares_buffer_with(old_aggregate)
        assert not new_spj.shares_buffer_with(old_spj)
        assert len(new_spj) == len(old_spj) + 1

    def test_churn_indexes_only_the_delta(
        self, catalog, paper_stats, workload, monkeypatch
    ):
        views, queries = workload
        manager = _manager(catalog, paper_stats, views[:60])
        added = _count_calls(monkeypatch, "add")
        removed = _count_calls(monkeypatch, "remove")
        # A 20-view churn over several epochs: ten dropped one by one,
        # ten registered one by one, ten more in a single batch.
        dropped = [name for name, _ in views[:10]]
        for name in dropped:
            manager.unregister_view(name)
        for name, generated in views[60:70]:
            manager.register_view(name, generated.statement)
        manager.register_views(
            [(name, generated.statement) for name, generated in views[70:80]]
        )
        assert removed == dropped
        assert added == [name for name, _ in views[60:80]]

    def test_delta_epoch_equals_fresh_build(
        self, catalog, paper_stats, workload
    ):
        views, queries = workload
        manager = _manager(catalog, paper_stats, views[:56])
        # Churn across several epochs: add, drop, add again.
        for name, generated in views[56:60]:
            manager.register_view(name, generated.statement)
        manager.unregister_view(views[3][0])
        manager.register_view(views[60][0], views[60][1].statement)
        final_names = {v for v in manager.current.view_names}

        fresh_pool = [
            (name, generated)
            for name, generated in views
            if name in final_names
        ]
        fresh = _manager(catalog, paper_stats, fresh_pool)
        assert fresh.current.view_names == manager.current.view_names
        assert _candidate_names(manager.current, queries) == _candidate_names(
            fresh.current, queries
        )

    def test_redescribed_view_takes_effect_through_delta(
        self, catalog, paper_stats, workload
    ):
        views, queries = workload
        manager = _manager(catalog, paper_stats, views[:60])
        # Replace an existing name with a different definition (drop +
        # re-add): the delta path must index the new definition, not
        # keep serving the old rows.
        victim, replacement = views[5][0], views[61][1]
        manager.unregister_view(victim)
        manager.register_view(victim, replacement.statement)
        fresh_pool = [
            (name, generated)
            for name, generated in views[:60]
            if name != victim
        ] + [(victim, replacement)]
        fresh = _manager(catalog, paper_stats, fresh_pool)
        assert _candidate_names(manager.current, queries) == _candidate_names(
            fresh.current, queries
        )

    def test_published_tree_is_never_mutated(
        self, catalog, paper_stats, workload
    ):
        """Serve from epoch n while n+1, n+2, ... are built from it."""
        views, queries = workload
        manager = _manager(catalog, paper_stats, views[:60])
        pinned = manager.current
        tree = pinned.matcher.filter_tree
        answers = _candidate_names(pinned, queries)
        served = {name for names in answers for name in names}
        assert served  # the churn below drops views this epoch returns
        registered = tree.views()
        images = [table.packed_bytes() for table in tree.packed_tables()]
        for name in sorted(served):
            manager.unregister_view(name)
            assert _candidate_names(pinned, queries) == answers
        for name, generated in views[60:70]:
            manager.register_view(name, generated.statement)
        assert _candidate_names(pinned, queries) == answers
        assert tree.views() == registered
        assert [
            table.packed_bytes() for table in tree.packed_tables()
        ] == images
        assert not served & set(manager.current.view_names)

    def test_candidate_order_is_registration_order(
        self, catalog, paper_stats
    ):
        """...across unregister -> re-register of one name, which moves
        it to the end exactly as in a tree built in that order."""
        definitions = [
            (
                f"v_q{threshold}",
                catalog.bind_sql(
                    "select l_partkey, l_quantity from lineitem "
                    f"where l_quantity >= {threshold}"
                ),
            )
            for threshold in range(1, 9)
        ]
        query = catalog.bind_sql(
            "select l_partkey from lineitem where l_quantity >= 20"
        )
        manager = SnapshotManager(catalog, paper_stats)
        manager.register_views(definitions)
        names = [name for name, _ in definitions]
        assert _candidate_names(manager.current, [query]) == [names]
        manager.unregister_view("v_q3")
        manager.register_view("v_q3", definitions[2][1])
        moved = [name for name in names if name != "v_q3"] + ["v_q3"]
        assert _candidate_names(manager.current, [query]) == [moved]
        tree = manager.current.matcher.filter_tree
        assert [view.name for view in tree.views()] == moved


class TestPublishCost:
    def test_one_view_publish_indexes_one_view(
        self, catalog, paper_stats, monkeypatch
    ):
        """Regression: the unsharded server re-indexed the whole catalog
        on every publish (1,001 inserts for this one)."""
        generator = WorkloadGenerator(catalog, paper_stats, seed=29)
        views = [
            (name, generated.statement)
            for name, generated in generator.generate_views(1001)
        ]
        with ViewServer(catalog, paper_stats) as server:
            server.register_views(views[:1000])
            added = _count_calls(monkeypatch, "add")
            removed = _count_calls(monkeypatch, "remove")
            name, statement = views[1000]
            server.register_view(name, statement)
            assert added == [name]
            server.unregister_view(name)
            assert removed == [name]
            assert added == [name]
            assert server.snapshots.current.view_count == 1000
