"""Incremental view maintenance through the CDC pipeline.

The central invariant: after any sequence of inserts and deletes and a
``drain()``, a maintained view's contents equal recomputing its query
from scratch -- recomputation is the oracle.
"""

import random

import pytest

from repro.catalog import Catalog, Column, ColumnType, Table
from repro.cdc import CdcPipeline
from repro.engine import Database, QueryResult, execute
from repro.errors import ExecutionError, MatchError


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
    return catalog, database, CdcPipeline(catalog, database)


def view_matches_recompute(database, pipeline, name):
    view = next(v for v in pipeline.applier.views() if v.name == name)
    fresh = execute(view.statement, database)
    stored = database.relation(name)
    current = QueryResult(columns=stored.columns, rows=list(stored.rows))
    return fresh.bag_equals(current, float_digits=9)


class TestSpjMaintenance:
    def test_insert_propagates(self, setup):
        catalog, database, pipeline = setup
        pipeline.register_view(
            "mv", catalog.bind_sql("select k as k, v as v from t where g = 0")
        )
        pipeline.insert("t", [(5, 0, 50.0, "c"), (6, 1, 60.0, "d")])
        pipeline.drain()
        assert view_matches_recompute(database, pipeline, "mv")
        assert database.row_count("mv") == 3  # rows 1, 2 and 5

    def test_delete_propagates(self, setup):
        catalog, database, pipeline = setup
        pipeline.register_view(
            "mv", catalog.bind_sql("select k as k, v as v from t where g = 0")
        )
        pipeline.delete("t", [(2, 0, 20.0, "b")])
        pipeline.drain()
        assert view_matches_recompute(database, pipeline, "mv")
        assert database.row_count("mv") == 1

    def test_delete_of_unmatched_row_leaves_view_alone(self, setup):
        catalog, database, pipeline = setup
        pipeline.register_view(
            "mv", catalog.bind_sql("select k as k from t where g = 0")
        )
        pipeline.delete("t", [(3, 1, 30.0, "a")])
        pipeline.drain()
        assert database.row_count("mv") == 2

    def test_join_view_insert_on_fact_side(self, setup):
        catalog, database, pipeline = setup
        pipeline.register_view(
            "mv",
            catalog.bind_sql(
                "select k as k, dname as dn from t, d where g = dk"
            ),
        )
        pipeline.insert("t", [(7, 1, 70.0, "x")])
        pipeline.drain()
        assert view_matches_recompute(database, pipeline, "mv")

    def test_join_view_insert_on_dimension_side(self, setup):
        catalog, database, pipeline = setup
        pipeline.register_view(
            "mv",
            catalog.bind_sql(
                "select k as k, dname as dn from t, d where g = dk"
            ),
        )
        # New dimension row matches nothing yet; then a fact arrives.
        pipeline.insert("d", [(2, "two")])
        pipeline.drain()
        pipeline.insert("t", [(8, 2, 80.0, "y")])
        pipeline.drain()
        assert view_matches_recompute(database, pipeline, "mv")

    def test_delete_missing_base_row_raises(self, setup):
        catalog, database, pipeline = setup
        pipeline.register_view(
            "mv", catalog.bind_sql("select k as k from t where g = 0")
        )
        base_before = list(database.relation("t").rows)
        view_before = list(database.relation("mv").rows)
        head_before = pipeline.head_lsn
        with pytest.raises(ExecutionError, match="not present"):
            pipeline.delete("t", [(1, 0, 10.0, "a"), (99, 0, 1.0, "zz")])
        pipeline.drain()
        # Nothing moved: not the base table, not the log, not the view.
        assert database.relation("t").rows == base_before
        assert pipeline.head_lsn == head_before
        assert database.relation("mv").rows == view_before

    def test_delete_where(self, setup):
        catalog, database, pipeline = setup
        pipeline.register_view(
            "mv", catalog.bind_sql("select k as k from t where g = 1")
        )
        count = pipeline.delete_where("t", lambda row: row[1] == 1)
        assert count == 2
        pipeline.drain()
        assert database.row_count("mv") == 0

    def test_duplicate_rows_removed_one_at_a_time(self, setup):
        catalog, database, pipeline = setup
        pipeline.register_view("mv", catalog.bind_sql("select g as g from t"))
        pipeline.insert("t", [(5, 0, 10.0, "a")])
        pipeline.drain()
        pipeline.delete("t", [(1, 0, 10.0, "a")])
        pipeline.drain()
        assert view_matches_recompute(database, pipeline, "mv")


class TestAggregateMaintenance:
    AGG = (
        "select g as g, sum(v) as sv, count_big(*) as cnt from t group by g"
    )

    def test_insert_updates_existing_group(self, setup):
        catalog, database, pipeline = setup
        pipeline.register_view("mv", catalog.bind_sql(self.AGG))
        pipeline.insert("t", [(5, 0, 5.0, "z")])
        pipeline.drain()
        assert view_matches_recompute(database, pipeline, "mv")
        rows = {row[0]: row for row in database.relation("mv").rows}
        assert rows[0] == (0, 35.0, 3)

    def test_insert_creates_new_group(self, setup):
        catalog, database, pipeline = setup
        pipeline.register_view("mv", catalog.bind_sql(self.AGG))
        pipeline.insert("t", [(5, 7, 5.0, "z")])
        pipeline.drain()
        rows = {row[0]: row for row in database.relation("mv").rows}
        assert rows[7] == (7, 5.0, 1)

    def test_delete_decrements_group(self, setup):
        catalog, database, pipeline = setup
        pipeline.register_view("mv", catalog.bind_sql(self.AGG))
        pipeline.delete("t", [(1, 0, 10.0, "a")])
        pipeline.drain()
        rows = {row[0]: row for row in database.relation("mv").rows}
        assert rows[0] == (0, 20.0, 1)

    def test_group_removed_when_count_reaches_zero(self, setup):
        catalog, database, pipeline = setup
        pipeline.register_view("mv", catalog.bind_sql(self.AGG))
        pipeline.delete("t", [(1, 0, 10.0, "a"), (2, 0, 20.0, "b")])
        pipeline.drain()
        groups = {row[0] for row in database.relation("mv").rows}
        assert groups == {1}
        assert view_matches_recompute(database, pipeline, "mv")

    def test_emptied_group_is_gone_before_the_version_moves(self, setup):
        # Anything keyed on the version may be built the moment it moves
        # (another thread's join, a stored index). Build the join index
        # on the grouping column right then: it must not hold the group
        # the merge is emptying.
        catalog, database, pipeline = setup
        pipeline.register_view("mv", catalog.bind_sql(self.AGG))
        relation = database.relation("mv")
        bump = relation.bump_version

        def bump_then_build():
            bump()
            relation.hash_index((0,))

        relation.bump_version = bump_then_build
        pipeline.delete("t", [(1, 0, 10.0, "a"), (2, 0, 20.0, "b")])
        pipeline.drain()
        assert (0,) not in relation.hash_index((0,))
        assert relation.hash_index((0,)) == {(1,): [(1, 70.0, 2)]}

    def test_join_aggregate_view(self, setup):
        catalog, database, pipeline = setup
        pipeline.register_view(
            "mv",
            catalog.bind_sql(
                "select dname as dn, sum(v) as sv, count_big(*) as cnt "
                "from t, d where g = dk group by dname"
            ),
        )
        pipeline.insert("t", [(5, 1, 5.0, "q")])
        pipeline.drain()
        pipeline.delete("t", [(3, 1, 30.0, "a")])
        pipeline.drain()
        assert view_matches_recompute(database, pipeline, "mv")

    def test_global_aggregate_view(self, setup):
        catalog, database, pipeline = setup
        pipeline.register_view(
            "mv",
            catalog.bind_sql(
                "select sum(v) as sv, count_big(*) as cnt from t"
            ),
        )
        pipeline.insert("t", [(5, 0, 5.0, "z")])
        pipeline.drain()
        pipeline.delete("t", [(1, 0, 10.0, "a")])
        pipeline.drain()
        (row,) = database.relation("mv").rows
        assert row == (95.0, 4)


class TestRegistrationRules:
    def test_missing_count_big_rejected(self, setup):
        catalog, _database, pipeline = setup
        with pytest.raises(MatchError, match="count_big"):
            pipeline.register_view(
                "mv",
                catalog.bind_sql("select g as g, sum(v) as sv from t group by g"),
            )

    def test_nullable_sum_argument_rejected(self, setup):
        catalog, database, pipeline = setup
        catalog.add_table(
            Table(name="n", columns=(Column("a"), Column("b", nullable=True)))
        )
        database.store("n", ("a", "b"), [(1, None)])
        with pytest.raises(MatchError, match="nullable"):
            pipeline.register_view(
                "mv",
                catalog.bind_sql(
                    "select a as a, sum(b) as sb, count_big(*) as cnt "
                    "from n group by a"
                ),
            )

    def test_avg_rejected(self, setup):
        catalog, _database, pipeline = setup
        with pytest.raises(MatchError, match="not maintainable"):
            pipeline.register_view(
                "mv",
                catalog.bind_sql(
                    "select g as g, avg(v) as av, count_big(*) as cnt "
                    "from t group by g"
                ),
            )

    def test_distinct_view_rejected(self, setup):
        catalog, _database, pipeline = setup
        with pytest.raises(MatchError, match="DISTINCT"):
            pipeline.register_view(
                "mv", catalog.bind_sql("select distinct g as g from t")
            )

    def test_unnamed_output_rejected(self, setup):
        catalog, _database, pipeline = setup
        with pytest.raises(MatchError, match="name"):
            pipeline.register_view("mv", catalog.bind_sql("select k + 1 from t"))

    def test_unregister_drops_relation(self, setup):
        catalog, database, pipeline = setup
        pipeline.register_view("mv", catalog.bind_sql("select k as k from t"))
        pipeline.unregister_view("mv")
        assert not database.has("mv")
        assert pipeline.applier.views() == ()


class TestChangeEvents:
    """Merge notifications: the staleness channel the serving layer uses."""

    def test_delete_event_fires_after_propagation(self, setup):
        catalog, database, pipeline = setup
        pipeline.register_view(
            "mv", catalog.bind_sql("select k as k from t where g = 0")
        )
        counts: list[int] = []
        pipeline.add_listener(
            lambda views: counts.append(database.row_count("mv"))
        )
        pipeline.delete("t", [(2, 0, 20.0, "b")])
        pipeline.drain()
        # The view already reflects the delete when the listener runs.
        assert counts == [1]

    def test_failing_listener_is_isolated(self, setup):
        """A listener that raises must not break maintenance or starve
        the listeners registered after it, else views would move while
        downstream caches were never told."""
        catalog, database, pipeline = setup
        pipeline.register_view("mv", catalog.bind_sql("select k as k from t"))
        events: list[tuple[str, ...]] = []

        def failing(views):
            raise RuntimeError("listener bug")

        pipeline.add_listener(failing)
        pipeline.add_listener(events.append)
        pipeline.insert("t", [(5, 0, 50.0, "c")])
        pipeline.drain()
        pipeline.delete("t", [(5, 0, 50.0, "c")])
        pipeline.drain()
        # Maintenance completed and the healthy listener saw both merges.
        assert events == [("mv",), ("mv",)]
        assert database.row_count("mv") == 4

    def test_delete_where_with_no_victims_emits_nothing(self, setup):
        catalog, _database, pipeline = setup
        pipeline.register_view("mv", catalog.bind_sql("select k as k from t"))
        events: list[tuple[str, ...]] = []
        pipeline.add_listener(events.append)
        head = pipeline.head_lsn
        assert pipeline.delete_where("t", lambda row: row[0] > 99) == 0
        pipeline.drain()
        assert pipeline.head_lsn == head
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
        catalog, database, pipeline = setup
        for i, sql in enumerate(self.VIEWS):
            pipeline.register_view(f"mv{i}", catalog.bind_sql(sql))
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
                pipeline.insert("t", rows)
            else:
                stored = database.relation("t").rows
                victims = rng.sample(stored, min(len(stored), rng.randint(1, 2)))
                pipeline.delete("t", victims)
            pipeline.drain()
            for i in range(len(self.VIEWS)):
                assert view_matches_recompute(database, pipeline, f"mv{i}"), (
                    f"view mv{i} diverged at seed {seed}"
                )
