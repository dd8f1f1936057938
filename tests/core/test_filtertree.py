"""Filter tree tests: per-level behaviour and the completeness property."""

import pytest

from repro.core import FilterTree, describe, match_view
from repro.stats import synthetic_tpch_stats
from repro.workload import WorkloadGenerator

from ._reference_filtertree import (
    AGGREGATE_LEVELS,
    SPJ_LEVELS,
    ReferenceFilterTree,
    SourceTableLevel,
)


def register(tree, catalog, name, sql):
    tree.register(describe(catalog.bind_sql(sql), catalog, name=name))


def candidate_names(tree, catalog, sql):
    query = describe(catalog.bind_sql(sql), catalog)
    return {view.name for view in tree.candidates(query)}


class TestRegistration:
    def test_register_and_unregister(self, catalog):
        tree = FilterTree()
        register(tree, catalog, "v1", "select l_orderkey as k from lineitem")
        assert len(tree) == 1
        tree.unregister("v1")
        assert len(tree) == 0

    def test_duplicate_name_rejected(self, catalog):
        tree = FilterTree()
        register(tree, catalog, "v1", "select l_orderkey as k from lineitem")
        with pytest.raises(ValueError, match="already registered"):
            register(tree, catalog, "v1", "select l_orderkey as k from lineitem")

    def test_unregister_unknown_raises(self, catalog):
        with pytest.raises(KeyError):
            FilterTree().unregister("zz")

    def test_query_description_cannot_be_registered(self, catalog):
        tree = FilterTree()
        with pytest.raises(ValueError, match="named"):
            tree.register(
                describe(catalog.bind_sql("select l_orderkey from lineitem"), catalog)
            )

    def test_hub_computed_at_registration(self, catalog):
        tree = FilterTree()
        view = describe(
            catalog.bind_sql(
                "select l_orderkey as k from lineitem, orders "
                "where l_orderkey = o_orderkey"
            ),
            catalog,
            name="v1",
        )
        registered = tree.register(view)
        assert registered.hub == {"lineitem"}


class TestLevelFiltering:
    def test_source_table_condition(self, catalog):
        tree = FilterTree()
        register(tree, catalog, "li", "select l_orderkey as k from lineitem")
        register(tree, catalog, "ord", "select o_orderkey as k from orders")
        names = candidate_names(tree, catalog, "select l_orderkey from lineitem")
        assert "ord" not in names
        assert "li" in names

    def test_hub_condition_prunes_pinned_views(self, catalog):
        tree = FilterTree()
        # The range on o_totalprice (trivial class) pins orders in the hub,
        # so a lineitem-only query cannot use this view.
        register(
            tree,
            catalog,
            "pinned",
            "select l_orderkey as k from lineitem, orders "
            "where l_orderkey = o_orderkey and o_totalprice > 100",
        )
        register(
            tree,
            catalog,
            "free",
            "select l_orderkey as k from lineitem, orders "
            "where l_orderkey = o_orderkey",
        )
        names = candidate_names(tree, catalog, "select l_orderkey from lineitem")
        assert names == {"free"}

    def test_output_column_condition(self, catalog):
        tree = FilterTree()
        register(tree, catalog, "narrow", "select l_orderkey as k from lineitem")
        register(
            tree,
            catalog,
            "wide",
            "select l_orderkey as k, l_quantity as q from lineitem",
        )
        names = candidate_names(tree, catalog, "select l_quantity from lineitem")
        assert names == {"wide"}

    def test_residual_condition(self, catalog):
        tree = FilterTree()
        register(
            tree,
            catalog,
            "filtered",
            "select p_partkey as k from part where p_name like '%x%'",
        )
        register(tree, catalog, "plain", "select p_partkey as k from part")
        names = candidate_names(tree, catalog, "select p_partkey from part")
        assert names == {"plain"}
        names = candidate_names(
            tree, catalog, "select p_partkey from part where p_name like '%x%'"
        )
        assert names == {"plain", "filtered"}

    def test_range_constraint_condition(self, catalog):
        tree = FilterTree()
        register(
            tree,
            catalog,
            "ranged",
            "select p_partkey as k from part where p_size > 10",
        )
        names = candidate_names(tree, catalog, "select p_partkey from part")
        assert names == set()
        names = candidate_names(
            tree, catalog, "select p_partkey from part where p_size > 20"
        )
        assert names == {"ranged"}

    def test_spj_query_never_sees_aggregate_views(self, catalog):
        tree = FilterTree()
        register(
            tree,
            catalog,
            "agg",
            "select o_custkey, count_big(*) as cnt from orders group by o_custkey",
        )
        names = candidate_names(tree, catalog, "select o_custkey from orders")
        assert names == set()

    def test_aggregate_query_sees_both_kinds(self, catalog):
        tree = FilterTree()
        register(
            tree,
            catalog,
            "agg",
            "select o_custkey, count_big(*) as cnt from orders group by o_custkey",
        )
        register(tree, catalog, "spj", "select o_custkey as c from orders")
        names = candidate_names(
            tree, catalog, "select o_custkey, count(*) from orders group by o_custkey"
        )
        assert names == {"agg", "spj"}

    def test_grouping_condition(self, catalog):
        tree = FilterTree()
        register(
            tree,
            catalog,
            "by_cust",
            "select o_custkey, count_big(*) as cnt from orders group by o_custkey",
        )
        names = candidate_names(
            tree,
            catalog,
            "select o_clerk, count(*) from orders group by o_clerk",
        )
        assert names == set()

    def test_aggregate_template_condition(self, catalog):
        tree = FilterTree()
        register(
            tree,
            catalog,
            "sum_price",
            "select o_custkey, sum(o_totalprice) as s, count_big(*) as cnt "
            "from orders group by o_custkey",
        )
        # Templates omit column references, so a SUM over a *different
        # single column* shares the key "sum(?)": the filter passes the
        # view (conservative) and the matcher rejects it via the reference
        # check -- the paper's split of work between filter and tests.
        names = candidate_names(
            tree,
            catalog,
            "select o_custkey, sum(o_shippriority) from orders group by o_custkey",
        )
        assert names == {"sum_price"}
        # A structurally different argument changes the template and is
        # pruned by the filter itself.
        names = candidate_names(
            tree,
            catalog,
            "select o_custkey, sum(o_totalprice * 2) from orders "
            "group by o_custkey",
        )
        assert names == set()


class TestProbe:
    """The shipped probe, :meth:`FilterTree.compile_probe`: plain key
    values the packed subtrees look up in their atom dictionaries."""

    def test_probe_of_simple_query(self, catalog):
        probe = FilterTree().compile_probe(
            describe(
                catalog.bind_sql(
                    "select l_orderkey from lineitem where l_partkey > 5"
                ),
                catalog,
            )
        )
        assert set(probe.tables) == {"lineitem"}
        assert ("lineitem", "l_partkey") in probe.constrained_columns
        # An SPJ query searches only the SPJ subtree.
        assert probe.aggregate_templates == frozenset()
        assert probe.grouping_requirements == ()

    def test_probe_of_aggregate_query(self, catalog):
        probe = FilterTree().compile_probe(
            describe(
                catalog.bind_sql(
                    "select o_custkey, sum(o_totalprice) from orders "
                    "group by o_custkey"
                ),
                catalog,
            )
        )
        assert set(probe.tables) == {"orders"}
        assert probe.aggregate_templates == {"sum(?)"}
        assert len(probe.grouping_requirements) == 1


class TestFilterStatistics:
    def test_statistics_end_with_candidate_count(self, catalog):
        from repro.stats import synthetic_tpch_stats
        from repro.workload import WorkloadGenerator

        stats = synthetic_tpch_stats(0.5)
        generator = WorkloadGenerator(catalog, stats, seed=55)
        tree = FilterTree()
        for name, view in generator.generate_views(60):
            tree.register(describe(view.statement, catalog, name=name))
        for generated in generator.generate_queries(15):
            query = describe(generated.statement, catalog)
            statistics = tree.filter_statistics(query)
            assert statistics[0][0] == "registered"
            survivors = [count for _, count in statistics]
            assert survivors == sorted(survivors, reverse=True)  # monotone
            assert survivors[-1] == len(tree.candidates(query))

    def test_level_names_reported(self, catalog):
        tree = FilterTree()
        register(tree, catalog, "v", "select l_orderkey as k from lineitem")
        query = describe(catalog.bind_sql("select l_orderkey from lineitem"), catalog)
        names = [name for name, _ in tree.filter_statistics(query)]
        assert names[0] == "registered"
        assert "hub" in names[1]


class TestLevelOrderings:
    """Any level composition yields identical candidate sets (Section 4.3).

    The shipped tree fuses every level into one sweep, so level order has
    no meaning there; the reference lattice walk takes the order and
    must agree with the packed tree whatever it is.
    """

    def test_orderings_agree_on_candidates(self, catalog):
        packed = FilterTree()
        default_tree = ReferenceFilterTree()
        reversed_tree = ReferenceFilterTree(
            spj_levels=tuple(reversed(SPJ_LEVELS)),
            aggregate_levels=tuple(reversed(AGGREGATE_LEVELS)),
        )
        stats = synthetic_tpch_stats(0.5)
        generator = WorkloadGenerator(catalog, stats, seed=404)
        for name, view in generator.generate_views(80):
            description = describe(view.statement, catalog, name=name)
            registered = packed.register(description)
            default_tree.register_prebuilt(registered, description)
            reversed_tree.register_prebuilt(registered, description)
        found = 0
        for generated in generator.generate_queries(25):
            query = describe(generated.statement, catalog)
            expected = [v.name for v in packed.candidates(query)]
            assert [v.name for v in default_tree.candidates(query)] == expected
            assert [v.name for v in reversed_tree.candidates(query)] == expected
            found += len(expected)
        assert found > 0

    def test_single_level_tree_over_approximates(self, catalog):
        full = FilterTree()
        coarse = ReferenceFilterTree(
            spj_levels=(SourceTableLevel(),),
            aggregate_levels=(SourceTableLevel(),),
        )
        for name, sql in {
            "v1": "select l_orderkey as k from lineitem",
            "v2": "select l_orderkey as k from lineitem where l_partkey > 5",
        }.items():
            description = describe(catalog.bind_sql(sql), catalog, name=name)
            full.register(description)
            coarse.register(description)
        query = describe(catalog.bind_sql("select l_orderkey from lineitem"), catalog)
        # Fewer levels filter less: the coarse tree passes a superset.
        full_names = {v.name for v in full.candidates(query)}
        coarse_names = {v.name for v in coarse.candidates(query)}
        assert full_names <= coarse_names
        assert coarse_names == {"v1", "v2"}
        assert full_names == {"v1"}


class TestCompleteness:
    """The filter tree must never prune a view the matcher accepts."""

    def test_workload_completeness(self, catalog):
        stats = synthetic_tpch_stats(0.5)
        generator = WorkloadGenerator(catalog, stats, seed=123)
        tree = FilterTree()
        views = []
        for name, generated in generator.generate_views(150):
            description = describe(generated.statement, catalog, name=name)
            tree.register(description)
            views.append(description)
        for generated in generator.generate_queries(40):
            query = describe(generated.statement, catalog)
            candidates = {v.name for v in tree.candidates(query)}
            for view in views:
                if match_view(query, view).matched:
                    assert view.name in candidates, (
                        f"filter tree pruned matching view {view.name}"
                    )


def _packed_state(tree):
    """Row count and row-of-name map of both packed subtrees."""
    return [
        (len(subtree.table), dict(subtree._row_of))
        for subtree in (tree._spj_packed, tree._aggregate_packed)
    ]


def _fresh(tree):
    fresh = FilterTree(interner=tree.interner)
    for view in tree.views():
        fresh.register_prebuilt(view)
    return fresh


def _same_candidates(tree, other, catalog, queries):
    for generated in queries:
        query = describe(generated.statement, catalog)
        assert [v.name for v in tree.candidates(query)] == [
            v.name for v in other.candidates(query)
        ]


class TestChurnNodeCounts:
    """Unregister must take every row back out of the packed subtrees.

    A register/unregister round trip leaves the row counts and the
    row-of-name maps as they were, and the candidates equal those of a
    fresh build over the views left.
    """

    @pytest.mark.parametrize("cloned", [False, True])
    def test_bulk_round_trip_returns_to_empty(self, catalog, cloned):
        stats = synthetic_tpch_stats(0.5)
        generator = WorkloadGenerator(catalog, stats, seed=77)
        tree = FilterTree()
        empty = _packed_state(tree)
        views = list(generator.generate_views(40))
        for name, view in views:
            tree.register(describe(view.statement, catalog, name=name))
        full = _packed_state(tree)
        assert sum(rows for rows, _ in full) == 40
        # On an epoch clone the published source must keep every row.
        churned = tree.clone_cow() if cloned else tree
        for name, _ in views:
            churned.unregister(name)
        assert len(churned) == 0
        assert _packed_state(churned) == empty
        if cloned:
            assert _packed_state(tree) == full

    def test_interleaved_churn_holds_count_at_baseline(self, catalog):
        stats = synthetic_tpch_stats(0.5)
        generator = WorkloadGenerator(catalog, stats, seed=78)
        views = list(generator.generate_views(30))
        tree = FilterTree()
        for name, view in views[:20]:
            tree.register(describe(view.statement, catalog, name=name))
        resident = _packed_state(tree)
        # Churning transient views through a populated tree must never
        # move a row: each one comes back out of its tail slot.
        for name, view in views[20:]:
            tree.register(describe(view.statement, catalog, name=name))
            tree.unregister(name)
            assert _packed_state(tree) == resident
        assert len(tree) == 20
        _same_candidates(
            tree, _fresh(tree), catalog, generator.generate_queries(15)
        )

    def test_shared_path_nodes_survive_partial_unregister(self, catalog):
        tree = FilterTree()
        sql = "select l_orderkey as k from lineitem where l_quantity >= 10"
        register(tree, catalog, "twin_a", sql)
        register(tree, catalog, "twin_b", sql)
        tree.unregister("twin_a")
        # Dropping one twin moves the survivor into the freed row and
        # must not disturb what it answers.
        assert _packed_state(tree) == [(1, {"twin_b": 0}), (0, {})]
        assert candidate_names(tree, catalog, sql) == {"twin_b"}
        assert candidate_names(_fresh(tree), catalog, sql) == {"twin_b"}
        tree.unregister("twin_b")
        assert _packed_state(tree) == [(0, {}), (0, {})]


class TestCheckConstraintKeys:
    """Check constraints widen the probe from the live catalog."""

    def test_table_added_after_a_probe_is_seen(self, two_table_catalog):
        from repro.catalog import CheckConstraint, Column, ColumnType, Table
        from repro.core import ViewMatcher
        from repro.sql import parse_predicate

        catalog = two_table_catalog
        filtered = ViewMatcher(catalog)
        # A probe before the table exists must not fix the check keys.
        filtered.match(catalog.bind_sql("select pk from parent"))
        catalog.add_table(
            Table(
                name="t",
                columns=(
                    Column("a", ColumnType.INTEGER),
                    Column("b", ColumnType.INTEGER),
                ),
                check_constraints=(
                    CheckConstraint("a_floor", parse_predicate("t.a >= 10")),
                ),
            )
        )
        filtered.register_view(
            "v", catalog.bind_sql("select a, b from t where a >= 5")
        )
        unfiltered = ViewMatcher.with_filter_tree(catalog, filtered.filter_tree)
        unfiltered.use_filter_tree = False
        query = catalog.bind_sql("select a, b from t")
        accepted = [r.view.name for r in filtered.match(query) if r.matched]
        expected = [r.view.name for r in unfiltered.match(query) if r.matched]
        assert expected == ["v"]
        assert accepted == expected
