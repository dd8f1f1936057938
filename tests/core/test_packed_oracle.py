"""The packed filter tree against the reference lattice walk, at scale.

``FilterTree`` fuses the paper's level conditions into one packed sweep;
``_reference_filtertree.py`` keeps the level-by-level lattice walk over
frozenset keys. Their candidate lists must be identical, in registration
order:

* at 1k generated views, with back-joins off and on, for every
  block the optimizer probes while planning -- connected subsets,
  pre-aggregation inner blocks and whole statements -- each block probed
  by the sweep from its derived description and by the walk from a
  description made from scratch;
* at 10k generated views with back-joins off, for whole queries.
"""

from __future__ import annotations

import pytest

from repro.core import FilterTree, ViewMatcher, describe
from repro.core.options import MatchOptions
from repro.workload import WorkloadGenerator

from ._reference_filtertree import ReferenceFilterTree
from .test_query_analysis import (
    _described_blocks,
    checked_tpch_catalog,
    enriched_queries,
)

OPTION_SETS = {
    "default": MatchOptions(),
    "allow_backjoins": MatchOptions(allow_backjoins=True),
}


@pytest.fixture(scope="module")
def checked_catalog():
    return checked_tpch_catalog()


@pytest.fixture(scope="module")
def workload(checked_catalog, paper_stats):
    """10k generated views (seed 42) and the 60 queries drawn after them."""
    generator = WorkloadGenerator(checked_catalog, paper_stats, seed=42)
    views = [
        (name, generated.statement)
        for name, generated in generator.generate_views(10_000)
    ]
    queries = [q.statement for q in generator.generate_queries(60)]
    return views, queries


def _build(catalog, views, options):
    """The packed tree and the oracle over ``views``, each view described
    once for both."""
    packed = FilterTree()
    oracle = ReferenceFilterTree(options)
    for name, statement in views:
        description = describe(statement, catalog, name=name)
        oracle.register_prebuilt(packed.register(description), description)
    return packed, oracle


def _names(views) -> list[str]:
    return [view.name for view in views]


@pytest.mark.parametrize("option_set", list(OPTION_SETS))
def test_every_probed_block_at_1k_views(
    checked_catalog, paper_stats, workload, option_set
):
    options = OPTION_SETS[option_set]
    views, _ = workload
    packed, oracle = _build(checked_catalog, views[:1000], options)
    matcher = ViewMatcher.with_filter_tree(
        checked_catalog, packed, options=options
    )
    blocks = _described_blocks(
        checked_catalog,
        paper_stats,
        matcher,
        enriched_queries(checked_catalog, paper_stats),
    )
    found = 0
    for derived in blocks:
        scratch = describe(derived.statement, checked_catalog)
        expected = _names(oracle.candidates(scratch))
        assert _names(packed.candidates(derived)) == expected
        found += bool(expected)
    assert len(blocks) > 200
    assert found > 20  # the comparison was not vacuous


def test_whole_queries_at_10k_views(checked_catalog, workload):
    views, queries = workload
    options = MatchOptions()
    packed, oracle = _build(checked_catalog, views, options)
    order = {view.name: n for n, view in enumerate(packed.views())}
    found = 0
    for statement in queries:
        query = describe(statement, checked_catalog)
        got = _names(packed.candidates(query))
        assert got == _names(oracle.candidates(query))
        assert got == sorted(got, key=order.__getitem__)
        found += len(got)
    assert found > 60
