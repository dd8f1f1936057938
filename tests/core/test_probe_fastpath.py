"""Probe compilation fast path: fused-vs-reference equivalence and the
probe staleness regression across interner growth."""

import pytest

from repro.core import FilterTree, describe
from repro.core.filtertree import QueryProbe
from repro.core.options import MatchOptions
from repro.stats import synthetic_tpch_stats
from repro.workload.covering import CoveringCaseGenerator

OPTION_VARIANTS = [
    MatchOptions(),
    MatchOptions(support_or_ranges=True),
    MatchOptions(allow_backjoins=True),
    MatchOptions(use_check_constraints=True),
    MatchOptions(
        support_or_ranges=True,
        allow_backjoins=True,
        use_check_constraints=True,
        map_complex_expressions=True,
        allow_null_rejecting_fk=True,
    ),
]


class TestFastReferenceEquivalence:
    """``QueryProbe.of`` and ``of_reference`` must build identical probes."""

    @pytest.mark.parametrize("options_index", range(len(OPTION_VARIANTS)))
    def test_generated_cases_agree(self, catalog, options_index):
        options = OPTION_VARIANTS[options_index]
        generator = CoveringCaseGenerator(catalog, synthetic_tpch_stats())
        for seed in range(25):
            case = generator.case(seed, views=2)
            statements = [case.query, *case.views.values()]
            for statement in statements:
                description = describe(statement, catalog, options=options)
                fast = QueryProbe.of(description, options)
                reference = QueryProbe.of_reference(description, options)
                assert fast == reference

    def test_use_fast_probe_off_dispatches_to_reference(self, catalog):
        options = MatchOptions(use_fast_probe=False)
        description = describe(
            catalog.bind_sql(
                "select l_orderkey as k, sum(l_quantity) as q from lineitem "
                "where l_quantity >= 10 group by l_orderkey"
            ),
            catalog,
            options=options,
        )
        legacy = QueryProbe.of(description, options)
        reference = QueryProbe.of_reference(description, options)
        assert legacy == reference


class TestBoundProbeStaleness:
    """Regression: a description probed before a registration must see
    atoms the registration interned (probes are compiled per search, so
    nothing bound earlier can go stale)."""

    QUERY = (
        "select l_orderkey, o_orderdate from lineitem, orders "
        "where l_orderkey = o_orderkey"
    )
    VIEW = (
        "select l_orderkey as k, o_orderdate as d from lineitem, orders "
        "where l_orderkey = o_orderkey"
    )

    def test_candidates_after_later_registration(self, catalog):
        tree = FilterTree()
        query = describe(catalog.bind_sql(self.QUERY), catalog)
        # First probe compiles against an interner that has never seen
        # the query's atoms (the tree is empty).
        assert tree.candidates(query) == []
        tree.register(describe(catalog.bind_sql(self.VIEW), catalog, name="v1"))
        # The same description must now find the view.
        assert [view.name for view in tree.candidates(query)] == ["v1"]
