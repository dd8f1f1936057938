"""Shared benchmark fixtures: one workload, reused across all benchmarks.

The benchmarks regenerate the paper's Section 5 measurements. Building the
view pool and query batch is expensive, so it is done once per session; the
sweep sizes are chosen so the whole benchmark suite completes in a few
minutes while still spanning 0..1000 views like the paper.
"""

from __future__ import annotations

from repro.catalog import tpch_catalog
from repro.core import ViewMatcher
from repro.optimizer import Optimizer, OptimizerConfig
from repro.stats import synthetic_tpch_stats
from repro.workload import WorkloadGenerator

VIEW_COUNTS = (0, 100, 250, 500, 750, 1000)
QUERY_BATCH = 25
MAX_VIEWS = max(VIEW_COUNTS)
SEED = 42


class BenchWorkload:
    """The shared pool of generated views and queries."""

    def __init__(self) -> None:
        self.catalog = tpch_catalog()
        self.stats = synthetic_tpch_stats(scale=0.5)
        generator = WorkloadGenerator(self.catalog, self.stats, seed=SEED)
        self.views = list(generator.generate_views(MAX_VIEWS))
        self.queries = [
            q.statement for q in generator.generate_queries(QUERY_BATCH)
        ]
        self._matcher_cache: dict[tuple[int, bool], ViewMatcher] = {}

    def matcher(self, view_count: int, use_filter_tree: bool) -> ViewMatcher | None:
        if view_count == 0:
            return None
        key = (view_count, use_filter_tree)
        cached = self._matcher_cache.get(key)
        if cached is None:
            cached = ViewMatcher(self.catalog, use_filter_tree=use_filter_tree)
            for name, view in self.views[:view_count]:
                cached.register_view(name, view.statement)
            self._matcher_cache[key] = cached
        return cached

    def optimizer(
        self,
        view_count: int,
        use_filter_tree: bool = True,
        produce_substitutes: bool = True,
    ) -> Optimizer:
        return Optimizer(
            self.catalog,
            self.stats,
            matcher=self.matcher(view_count, use_filter_tree),
            # The paper's rule verifies every candidate; its Section 5
            # substitute counts are for the unbounded rule.
            config=OptimizerConfig(
                produce_substitutes=produce_substitutes,
                cost_bounded_matching=False,
            ),
        )

    def optimize_batch(self, optimizer: Optimizer) -> list:
        return [optimizer.optimize(query) for query in self.queries]


