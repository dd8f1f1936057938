"""Snapshot-manager tests: epoch monotonicity, immutability, listeners."""

import pytest

from repro.service import SnapshotManager

VIEW_SQL = {
    "v_cheap": "select l_partkey, l_quantity from lineitem where l_quantity >= 10",
    "v_parts": "select p_partkey, p_retailprice from part where p_retailprice >= 100",
    "v_join": (
        "select l_orderkey, o_orderdate from lineitem, orders "
        "where l_orderkey = o_orderkey"
    ),
}


@pytest.fixture()
def manager(catalog, paper_stats):
    return SnapshotManager(catalog, paper_stats)


def register(manager, catalog, name):
    return manager.register_view(name, catalog.bind_sql(VIEW_SQL[name]))


class TestEpochs:
    def test_initial_snapshot_is_epoch_zero_and_empty(self, manager):
        snapshot = manager.current
        assert snapshot.epoch == 0
        assert snapshot.view_names == frozenset()
        assert snapshot.view_count == 0
        assert len(manager) == 0

    def test_register_bumps_epoch(self, manager, catalog):
        first = register(manager, catalog, "v_cheap")
        assert first.epoch == 1
        assert first.view_names == {"v_cheap"}
        second = register(manager, catalog, "v_parts")
        assert second.epoch == 2
        assert second.view_names == {"v_cheap", "v_parts"}
        assert manager.epoch == 2

    def test_unregister_bumps_epoch(self, manager, catalog):
        register(manager, catalog, "v_cheap")
        register(manager, catalog, "v_parts")
        third = manager.unregister_view("v_cheap")
        assert third.epoch == 3
        assert third.view_names == {"v_parts"}

    def test_epochs_strictly_increase_across_mixed_mutations(
        self, manager, catalog
    ):
        seen = [manager.epoch]
        for name in ("v_cheap", "v_parts", "v_join"):
            seen.append(register(manager, catalog, name).epoch)
        for name in ("v_parts", "v_cheap"):
            seen.append(manager.unregister_view(name).epoch)
        assert seen == sorted(set(seen))


class TestImmutability:
    def test_published_snapshot_unchanged_by_later_mutations(
        self, manager, catalog
    ):
        old = register(manager, catalog, "v_cheap")
        register(manager, catalog, "v_parts")
        manager.unregister_view("v_cheap")
        # The reader's snapshot still matches against exactly its epoch's
        # view set, regardless of what writers did since.
        def tree_names(snapshot):
            return {
                view.name
                for view in snapshot.matcher.filter_tree.views()
            }

        assert old.view_names == {"v_cheap"}
        assert tree_names(old) == {"v_cheap"}
        assert tree_names(manager.current) == {"v_parts"}

    def test_current_is_plain_attribute_read(self, manager):
        # The hot path contract: `current` resolves to a property returning
        # the published snapshot object itself, not a copy or a guard.
        assert manager.current is manager.current


class TestValidation:
    def test_duplicate_name_rejected(self, manager, catalog):
        register(manager, catalog, "v_cheap")
        with pytest.raises(ValueError, match="already registered"):
            register(manager, catalog, "v_cheap")
        assert manager.epoch == 1  # failed mutation publishes nothing

    def test_unknown_name_rejected(self, manager):
        with pytest.raises(KeyError):
            manager.unregister_view("nope")
        assert manager.epoch == 0


class TestListeners:
    def test_listener_sees_every_publication_in_order(self, manager, catalog):
        epochs = []
        manager.add_listener(lambda snapshot: epochs.append(snapshot.epoch))
        register(manager, catalog, "v_cheap")
        register(manager, catalog, "v_parts")
        manager.unregister_view("v_cheap")
        assert epochs == [1, 2, 3]

    def test_listener_observes_published_state(self, manager, catalog):
        observed = []
        manager.add_listener(
            lambda snapshot: observed.append(
                (snapshot.epoch, manager.current.epoch)
            )
        )
        register(manager, catalog, "v_cheap")
        # By the time the listener runs, the snapshot is already visible.
        assert observed == [(1, 1)]
