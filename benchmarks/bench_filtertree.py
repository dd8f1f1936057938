"""Ablation: per-invocation cost of candidate selection, filter vs. scan.

Separates the two components the paper's Figure 2 conflates: the filter
tree's search time per view-matching invocation, against checking every
registered view with the full matching tests. Also measures registration
(index maintenance) cost, which the paper does not report.
"""

from __future__ import annotations

import pytest

from repro.core import ViewMatcher, describe, match_view
from repro.core.filtertree import FilterTree


@pytest.mark.parametrize("views", [100, 500, 1000])
def test_candidate_selection_with_filter_tree(benchmark, bench_workload, views):
    matcher = bench_workload.matcher(views, use_filter_tree=True)
    catalog = bench_workload.catalog
    descriptions = [
        describe(query, catalog) for query in bench_workload.queries
    ]

    def run():
        return sum(
            len(matcher.filter_tree.candidates(query)) for query in descriptions
        )

    candidates = benchmark(run)
    benchmark.extra_info["views"] = views
    benchmark.extra_info["candidates"] = candidates


@pytest.mark.parametrize("views", [100, 500, 1000])
def test_candidate_selection_by_full_scan(benchmark, bench_workload, views):
    matcher = bench_workload.matcher(views, use_filter_tree=False)
    catalog = bench_workload.catalog
    registered = matcher.registered_views()
    descriptions = [
        describe(query, catalog) for query in bench_workload.queries
    ]

    # A registered view keeps no description: re-derive each once.
    view_descriptions = [view.description for view in registered]

    def run():
        matches = 0
        for query in descriptions:
            for view in view_descriptions:
                if match_view(query, view).matched:
                    matches += 1
        return matches

    matches = benchmark(run)
    benchmark.extra_info["views"] = views
    benchmark.extra_info["matches"] = matches


@pytest.mark.parametrize("views", [100, 500, 1000])
def test_view_registration(benchmark, bench_workload, views):
    catalog = bench_workload.catalog
    pool = bench_workload.views[:views]

    def register_all():
        tree = FilterTree()
        matcher = ViewMatcher(catalog)
        matcher.filter_tree = tree
        for name, view in pool:
            matcher.register_view(name, view.statement)
        return matcher.view_count

    count = benchmark.pedantic(register_all, rounds=1, iterations=1, warmup_rounds=0)
    assert count == views
    benchmark.extra_info["views"] = views
