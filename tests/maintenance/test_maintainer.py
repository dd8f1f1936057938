"""Incremental view maintenance tests.

The central invariant: after any sequence of inserts and deletes, a
maintained view's contents equal recomputing its query from scratch.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog import Catalog, Column, ColumnType, Table
from repro.engine import Database, execute
from repro.errors import ExecutionError, MatchError
from repro.maintenance import ViewChangeEvent, ViewMaintainer


@pytest.fixture()
def setup():
    catalog = Catalog()
    catalog.add_table(
        Table(
            name="t",
            columns=(
                Column("k"),
                Column("g"),
                Column("v", ColumnType.FLOAT),
                Column("s", ColumnType.STRING),
            ),
            primary_key=("k",),
        )
    )
    catalog.add_table(
        Table(name="d", columns=(Column("dk"), Column("dname", ColumnType.STRING)),
              primary_key=("dk",))
    )
    database = Database()
    database.store(
        "t",
        ("k", "g", "v", "s"),
        [
            (1, 0, 10.0, "a"),
            (2, 0, 20.0, "b"),
            (3, 1, 30.0, "a"),
            (4, 1, 40.0, "b"),
        ],
    )
    database.store("d", ("dk", "dname"), [(0, "zero"), (1, "one")])
    return catalog, database, ViewMaintainer(catalog, database)


def recompute(catalog, database, statement):
    return execute(statement, database)


def view_matches_recompute(database, maintainer, name):
    view = next(v for v in maintainer.views() if v.name == name)
    fresh = execute(view.statement, database)
    stored = database.relation(name)
    from repro.engine import QueryResult

    current = QueryResult(columns=stored.columns, rows=list(stored.rows))
    return fresh.bag_equals(current, float_digits=9)


class TestSpjMaintenance:
    def test_insert_propagates(self, setup):
        catalog, database, maintainer = setup
        maintainer.register(
            "mv", catalog.bind_sql("select k as k, v as v from t where g = 0")
        )
        maintainer.insert("t", [(5, 0, 50.0, "c"), (6, 1, 60.0, "d")])
        assert view_matches_recompute(database, maintainer, "mv")
        assert database.row_count("mv") == 3  # rows 1, 2 and 5

    def test_delete_propagates(self, setup):
        catalog, database, maintainer = setup
        maintainer.register(
            "mv", catalog.bind_sql("select k as k, v as v from t where g = 0")
        )
        maintainer.delete("t", [(2, 0, 20.0, "b")])
        assert view_matches_recompute(database, maintainer, "mv")
        assert database.row_count("mv") == 1

    def test_delete_of_unmatched_row_leaves_view_alone(self, setup):
        catalog, database, maintainer = setup
        maintainer.register(
            "mv", catalog.bind_sql("select k as k from t where g = 0")
        )
        maintainer.delete("t", [(3, 1, 30.0, "a")])
        assert database.row_count("mv") == 2

    def test_join_view_insert_on_fact_side(self, setup):
        catalog, database, maintainer = setup
        maintainer.register(
            "mv",
            catalog.bind_sql(
                "select k as k, dname as dn from t, d where g = dk"
            ),
        )
        maintainer.insert("t", [(7, 1, 70.0, "x")])
        assert view_matches_recompute(database, maintainer, "mv")

    def test_join_view_insert_on_dimension_side(self, setup):
        catalog, database, maintainer = setup
        maintainer.register(
            "mv",
            catalog.bind_sql(
                "select k as k, dname as dn from t, d where g = dk"
            ),
        )
        # New dimension row matches nothing yet; then a fact arrives.
        maintainer.insert("d", [(2, "two")])
        maintainer.insert("t", [(8, 2, 80.0, "y")])
        assert view_matches_recompute(database, maintainer, "mv")

    def test_delete_missing_base_row_raises(self, setup):
        catalog, database, maintainer = setup
        with pytest.raises(ExecutionError, match="not present"):
            maintainer.delete("t", [(99, 0, 1.0, "zz")])

    def test_delete_where(self, setup):
        catalog, database, maintainer = setup
        maintainer.register(
            "mv", catalog.bind_sql("select k as k from t where g = 1")
        )
        count = maintainer.delete_where("t", lambda row: row[1] == 1)
        assert count == 2
        assert database.row_count("mv") == 0

    def test_duplicate_rows_removed_one_at_a_time(self, setup):
        catalog, database, maintainer = setup
        maintainer.register("mv", catalog.bind_sql("select g as g from t"))
        maintainer.insert("t", [(5, 0, 10.0, "a")])
        maintainer.delete("t", [(1, 0, 10.0, "a")])
        assert view_matches_recompute(database, maintainer, "mv")


class TestAggregateMaintenance:
    AGG = (
        "select g as g, sum(v) as sv, count_big(*) as cnt from t group by g"
    )

    def test_insert_updates_existing_group(self, setup):
        catalog, database, maintainer = setup
        maintainer.register("mv", catalog.bind_sql(self.AGG))
        maintainer.insert("t", [(5, 0, 5.0, "z")])
        assert view_matches_recompute(database, maintainer, "mv")
        rows = {row[0]: row for row in database.relation("mv").rows}
        assert rows[0] == (0, 35.0, 3)

    def test_insert_creates_new_group(self, setup):
        catalog, database, maintainer = setup
        maintainer.register("mv", catalog.bind_sql(self.AGG))
        maintainer.insert("t", [(5, 7, 5.0, "z")])
        rows = {row[0]: row for row in database.relation("mv").rows}
        assert rows[7] == (7, 5.0, 1)

    def test_delete_decrements_group(self, setup):
        catalog, database, maintainer = setup
        maintainer.register("mv", catalog.bind_sql(self.AGG))
        maintainer.delete("t", [(1, 0, 10.0, "a")])
        rows = {row[0]: row for row in database.relation("mv").rows}
        assert rows[0] == (0, 20.0, 1)

    def test_group_removed_when_count_reaches_zero(self, setup):
        catalog, database, maintainer = setup
        maintainer.register("mv", catalog.bind_sql(self.AGG))
        maintainer.delete("t", [(1, 0, 10.0, "a"), (2, 0, 20.0, "b")])
        groups = {row[0] for row in database.relation("mv").rows}
        assert groups == {1}
        assert view_matches_recompute(database, maintainer, "mv")

    def test_emptied_group_is_gone_before_the_version_moves(self, setup):
        # Anything keyed on the version may be built the moment it moves
        # (another thread's join, a stored index). Build the join index
        # on the grouping column right then: it must not hold the group
        # the merge is emptying.
        catalog, database, maintainer = setup
        maintainer.register("mv", catalog.bind_sql(self.AGG))
        relation = database.relation("mv")
        bump = relation.bump_version

        def bump_then_build():
            bump()
            relation.hash_index((0,))

        relation.bump_version = bump_then_build
        maintainer.delete("t", [(1, 0, 10.0, "a"), (2, 0, 20.0, "b")])
        assert (0,) not in relation.hash_index((0,))
        assert relation.hash_index((0,)) == {(1,): [(1, 70.0, 2)]}

    def test_join_aggregate_view(self, setup):
        catalog, database, maintainer = setup
        maintainer.register(
            "mv",
            catalog.bind_sql(
                "select dname as dn, sum(v) as sv, count_big(*) as cnt "
                "from t, d where g = dk group by dname"
            ),
        )
        maintainer.insert("t", [(5, 1, 5.0, "q")])
        maintainer.delete("t", [(3, 1, 30.0, "a")])
        assert view_matches_recompute(database, maintainer, "mv")

    def test_global_aggregate_view(self, setup):
        catalog, database, maintainer = setup
        maintainer.register(
            "mv",
            catalog.bind_sql(
                "select sum(v) as sv, count_big(*) as cnt from t"
            ),
        )
        maintainer.insert("t", [(5, 0, 5.0, "z")])
        maintainer.delete("t", [(1, 0, 10.0, "a")])
        (row,) = database.relation("mv").rows
        assert row == (95.0, 4)


class TestRegistrationRules:
    def test_missing_count_big_rejected(self, setup):
        catalog, _database, maintainer = setup
        with pytest.raises(MatchError, match="count_big"):
            maintainer.register(
                "mv",
                catalog.bind_sql("select g as g, sum(v) as sv from t group by g"),
            )

    def test_nullable_sum_argument_rejected(self, setup):
        catalog, database, maintainer = setup
        catalog.add_table(
            Table(name="n", columns=(Column("a"), Column("b", nullable=True)))
        )
        database.store("n", ("a", "b"), [(1, None)])
        with pytest.raises(MatchError, match="nullable"):
            maintainer.register(
                "mv",
                catalog.bind_sql(
                    "select a as a, sum(b) as sb, count_big(*) as cnt "
                    "from n group by a"
                ),
            )

    def test_avg_rejected(self, setup):
        catalog, _database, maintainer = setup
        with pytest.raises(MatchError, match="not maintainable"):
            maintainer.register(
                "mv",
                catalog.bind_sql(
                    "select g as g, avg(v) as av, count_big(*) as cnt "
                    "from t group by g"
                ),
            )

    def test_distinct_view_rejected(self, setup):
        catalog, _database, maintainer = setup
        with pytest.raises(MatchError, match="DISTINCT"):
            maintainer.register(
                "mv", catalog.bind_sql("select distinct g as g from t")
            )

    def test_unnamed_output_rejected(self, setup):
        catalog, _database, maintainer = setup
        with pytest.raises(MatchError, match="name"):
            maintainer.register("mv", catalog.bind_sql("select k + 1 from t"))

    def test_unregister_drops_relation(self, setup):
        catalog, database, maintainer = setup
        maintainer.register("mv", catalog.bind_sql("select k as k from t"))
        maintainer.unregister("mv")
        assert not database.has("mv")
        assert maintainer.views() == ()


class TestChangeEvents:
    """Listener notifications: the staleness channel the serving layer uses."""

    def test_register_and_unregister_events(self, setup):
        catalog, _database, maintainer = setup
        events: list[ViewChangeEvent] = []
        maintainer.add_listener(events.append)
        maintainer.register("mv", catalog.bind_sql("select k as k from t"))
        maintainer.unregister("mv")
        assert [(e.kind, e.views) for e in events] == [
            ("register", ("mv",)),
            ("unregister", ("mv",)),
        ]

    def test_insert_event_names_affected_views_and_table(self, setup):
        catalog, _database, maintainer = setup
        maintainer.register(
            "mv_t", catalog.bind_sql("select k as k from t where g = 0")
        )
        maintainer.register(
            "mv_d", catalog.bind_sql("select dk as dk from d")
        )
        events: list[ViewChangeEvent] = []
        maintainer.add_listener(events.append)
        maintainer.insert("t", [(5, 0, 50.0, "c")])
        (event,) = events
        assert event.kind == "insert"
        assert event.table == "t"
        assert "mv_t" in event.views
        assert "mv_d" not in event.views

    def test_delete_event_fires_after_propagation(self, setup):
        catalog, database, maintainer = setup
        maintainer.register(
            "mv", catalog.bind_sql("select k as k from t where g = 0")
        )
        counts: list[int] = []
        maintainer.add_listener(
            lambda event: counts.append(database.row_count("mv"))
        )
        maintainer.delete("t", [(2, 0, 20.0, "b")])
        # The view already reflects the delete when the listener runs.
        assert counts == [1]

    def test_removed_listener_stops_firing(self, setup):
        catalog, _database, maintainer = setup
        events: list[ViewChangeEvent] = []
        maintainer.add_listener(events.append)
        maintainer.remove_listener(events.append)
        maintainer.register("mv", catalog.bind_sql("select k as k from t"))
        assert events == []

    def test_failing_listener_is_isolated(self, setup):
        """A listener that raises must not break maintenance or starve
        the listeners registered after it (regression: a raising
        listener used to propagate out of ``insert``/``delete``,
        leaving views updated but downstream caches never notified)."""
        catalog, database, maintainer = setup
        maintainer.register("mv", catalog.bind_sql("select k as k from t"))
        events: list[ViewChangeEvent] = []

        def failing(event):
            raise RuntimeError("listener bug")

        maintainer.add_listener(failing)
        maintainer.add_listener(events.append)
        maintainer.insert("t", [(5, 0, 50.0, "c")])
        maintainer.delete("t", [(5, 0, 50.0, "c")])
        # Maintenance completed and the healthy listener saw both events.
        assert [e.kind for e in events] == ["insert", "delete"]
        assert database.row_count("mv") == 4

    def test_events_carry_the_changed_rows(self, setup):
        catalog, _database, maintainer = setup
        maintainer.register("mv", catalog.bind_sql("select k as k from t"))
        events: list[ViewChangeEvent] = []
        maintainer.add_listener(events.append)
        maintainer.insert("t", [(5, 0, 50.0, "c")])
        maintainer.delete("t", [(5, 0, 50.0, "c")])
        assert [(e.kind, e.rows) for e in events] == [
            ("insert", ((5, 0, 50.0, "c"),)),
            ("delete", ((5, 0, 50.0, "c"),)),
        ]

    def test_delete_where_emits_the_same_events_as_delete(self, setup):
        """``delete_where`` must route through ``delete`` so the change
        stream (and hence a CDC log fed by it) records the concrete
        victim rows -- a predicate delete that skipped the event channel
        would silently desynchronize any downstream change consumer."""
        catalog, _database, maintainer = setup
        maintainer.register("mv", catalog.bind_sql("select k as k from t"))
        predicate_events: list[ViewChangeEvent] = []
        maintainer.add_listener(predicate_events.append)
        removed = maintainer.delete_where("t", lambda row: row[1] == 0)
        assert removed == 2
        (event,) = predicate_events
        assert event.kind == "delete"
        assert event.table == "t"
        assert "mv" in event.views
        assert sorted(event.rows) == [
            (1, 0, 10.0, "a"),
            (2, 0, 20.0, "b"),
        ]

    def test_delete_where_with_no_victims_emits_nothing(self, setup):
        catalog, _database, maintainer = setup
        maintainer.register("mv", catalog.bind_sql("select k as k from t"))
        events: list[ViewChangeEvent] = []
        maintainer.add_listener(events.append)
        assert maintainer.delete_where("t", lambda row: row[0] > 99) == 0
        assert events == []


class TestMaintenanceMatchesRecomputation:
    """Randomized sequence of inserts/deletes vs. recompute-from-scratch."""

    VIEWS = [
        "select k as k, g as g, v as v from t where v >= 15",
        "select g as g, sum(v) as sv, count_big(*) as cnt from t group by g",
        "select s as s, g as g, sum(k) as sk, count_big(*) as cnt "
        "from t group by s, g",
        "select dname as dn, sum(v) as sv, count_big(*) as cnt "
        "from t, d where g = dk group by dname",
    ]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_change_sequences(self, setup, seed):
        catalog, database, maintainer = setup
        for i, sql in enumerate(self.VIEWS):
            maintainer.register(f"mv{i}", catalog.bind_sql(sql))
        rng = random.Random(seed)
        next_key = 100
        for _ in range(60):
            if rng.random() < 0.6 or database.row_count("t") == 0:
                rows = [
                    (
                        next_key + j,
                        rng.randint(0, 1),
                        float(rng.randint(1, 50)),
                        rng.choice("ab"),
                    )
                    for j in range(rng.randint(1, 3))
                ]
                next_key += len(rows)
                maintainer.insert("t", rows)
            else:
                stored = database.relation("t").rows
                victims = rng.sample(stored, min(len(stored), rng.randint(1, 2)))
                maintainer.delete("t", victims)
            for i in range(len(self.VIEWS)):
                assert view_matches_recompute(database, maintainer, f"mv{i}"), (
                    f"view mv{i} diverged at seed {seed}"
                )
