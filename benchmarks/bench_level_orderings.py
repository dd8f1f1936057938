"""Ablation: filter-tree level orderings.

Section 4.3: "The conditions are independent and can be composed in any
order to create a filter tree." Every ordering returns identical candidate
sets (asserted in the tests); this benchmark measures how much the
*search cost* of the level-by-level lattice walk depends on the
composition -- putting the most selective conditions (hubs, source
tables) near the root prunes earlier. It times the test suite's reference
walk: serving evaluates all levels as one packed sweep, where the order
has no cost to measure.
"""

from __future__ import annotations

import pytest

from repro.core import describe
from tests.core._reference_filtertree import (
    GroupingColumnLevel,
    GroupingExpressionLevel,
    HubLevel,
    OutputColumnLevel,
    OutputExpressionLevel,
    RangeConstraintLevel,
    ResidualLevel,
    ReferenceFilterTree,
    SourceTableLevel,
)

ORDERINGS = {
    "paper (hub first)": (
        (HubLevel(), SourceTableLevel(), OutputColumnLevel(), ResidualLevel(),
         RangeConstraintLevel()),
        (HubLevel(), SourceTableLevel(), OutputExpressionLevel(),
         OutputColumnLevel(), ResidualLevel(), RangeConstraintLevel(),
         GroupingExpressionLevel(), GroupingColumnLevel()),
    ),
    "reversed (range first)": (
        (RangeConstraintLevel(), ResidualLevel(), OutputColumnLevel(),
         SourceTableLevel(), HubLevel()),
        (GroupingColumnLevel(), GroupingExpressionLevel(),
         RangeConstraintLevel(), ResidualLevel(), OutputColumnLevel(),
         OutputExpressionLevel(), SourceTableLevel(), HubLevel()),
    ),
    "tables only": (
        (SourceTableLevel(),),
        (SourceTableLevel(),),
    ),
}


@pytest.mark.parametrize("ordering", sorted(ORDERINGS))
def test_level_ordering_search_cost(benchmark, bench_workload, ordering):
    spj_levels, aggregate_levels = ORDERINGS[ordering]
    tree = ReferenceFilterTree(
        spj_levels=spj_levels, aggregate_levels=aggregate_levels
    )
    catalog = bench_workload.catalog
    for name, view in bench_workload.views[:500]:
        tree.register(describe(view.statement, catalog, name=name))
    probes = [describe(q, catalog) for q in bench_workload.queries]

    def search_all():
        return sum(len(tree.candidates(probe)) for probe in probes)

    candidates = benchmark(search_all)
    benchmark.extra_info["ordering"] = ordering
    benchmark.extra_info["candidates"] = candidates
