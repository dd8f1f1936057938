"""The Section 5 experiment harness.

Reruns the paper's measurement protocol: generate a pool of random views
and a batch of random queries over TPC-H, then, for increasing numbers of
registered views and for each optimizer configuration (substitutes on/off x
filter tree on/off), optimize every query and record:

* total / average optimization time (Figure 2),
* time spent inside the view-matching rule (Figure 3),
* number of final plans using materialized views (Figure 4),
* filtering statistics: candidate fraction, post-filter success rate,
  substitutes per invocation and per query (Section 5 text).

The paper's rule verifies every candidate the filter tree returns, and
its substitutes-per-invocation figures count all of them. The optimizer's
cost-bounded verification (which skips candidates that cannot win) is
therefore switched off here (``cost_bounded_matching=False``); it never
changes a chosen plan, only how many substitutes get built on the way.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..catalog.catalog import Catalog
from ..catalog.tpch import tpch_catalog
from ..core.matcher import ViewMatcher
from ..core.options import DEFAULT_OPTIONS, MatchOptions
from ..optimizer.optimizer import Optimizer, OptimizerConfig
from ..stats.statistics import DatabaseStats
from ..stats.tpch_synthetic import synthetic_tpch_stats
from ..workload.generator import (
    GeneratedStatement,
    WorkloadGenerator,
    WorkloadParameters,
)


@dataclass(frozen=True)
class Configuration:
    """One line of Figure 2."""

    produce_substitutes: bool
    use_filter_tree: bool

    @property
    def label(self) -> str:
        alt = "Alt" if self.produce_substitutes else "No Alt"
        flt = "Filter" if self.use_filter_tree else "No Filter"
        return f"{alt} & {flt}"


ALL_CONFIGURATIONS: tuple[Configuration, ...] = (
    Configuration(produce_substitutes=True, use_filter_tree=True),
    Configuration(produce_substitutes=False, use_filter_tree=True),
    Configuration(produce_substitutes=True, use_filter_tree=False),
    Configuration(produce_substitutes=False, use_filter_tree=False),
)


@dataclass
class MeasurementPoint:
    """Measurements for one (view count, configuration) cell."""

    view_count: int
    configuration: Configuration
    query_count: int
    total_seconds: float
    matching_seconds: float
    plans_using_views: int
    invocations: int
    substitutes: int
    candidate_fraction: float
    candidate_success_rate: float
    # Aggregated match funnel for the cell: how often full matching
    # rejected a candidate for each RejectReason, and the per-level
    # filter-tree narrowing (total survivors entering each level, summed
    # over the query batch; first entry is the registered count).
    rejects_by_reason: dict[str, int] = field(default_factory=dict)
    level_survivors: tuple[tuple[str, int], ...] = ()

    @property
    def seconds_per_query(self) -> float:
        return self.total_seconds / max(self.query_count, 1)

    @property
    def invocations_per_query(self) -> float:
        return self.invocations / max(self.query_count, 1)

    @property
    def substitutes_per_query(self) -> float:
        return self.substitutes / max(self.query_count, 1)

    @property
    def substitutes_per_invocation(self) -> float:
        return self.substitutes / max(self.invocations, 1)

    @property
    def view_usage_fraction(self) -> float:
        return self.plans_using_views / max(self.query_count, 1)


@dataclass
class ExperimentConfig:
    """Knobs of one harness run; defaults give a fast-but-faithful sweep."""

    view_counts: tuple[int, ...] = (0, 100, 200, 400, 600, 800, 1000)
    query_count: int = 200
    seed: int = 42
    scale_factor: float = 0.5
    configurations: tuple[Configuration, ...] = ALL_CONFIGURATIONS
    workload: WorkloadParameters = field(default_factory=WorkloadParameters)
    match_options: MatchOptions = DEFAULT_OPTIONS


@dataclass
class ExperimentResult:
    """All measurement points of one sweep, plus the shared workload info."""

    config: ExperimentConfig
    points: list[MeasurementPoint]

    def series(self, configuration: Configuration) -> list[MeasurementPoint]:
        return sorted(
            (p for p in self.points if p.configuration == configuration),
            key=lambda p: p.view_count,
        )

    def point(
        self, view_count: int, configuration: Configuration
    ) -> MeasurementPoint:
        for p in self.points:
            if p.view_count == view_count and p.configuration == configuration:
                return p
        raise KeyError((view_count, configuration))

    def baseline_seconds(self, configuration: Configuration) -> float:
        """Optimization time with zero views for the given configuration."""
        return self.point(0, configuration).total_seconds


class ExperimentHarness:
    """Generates one workload and measures it under every configuration."""

    def __init__(self, config: ExperimentConfig | None = None):
        self.config = config or ExperimentConfig()
        self.catalog: Catalog = tpch_catalog()
        self.stats: DatabaseStats = synthetic_tpch_stats(self.config.scale_factor)
        generator = WorkloadGenerator(
            self.catalog,
            self.stats,
            seed=self.config.seed,
            parameters=self.config.workload,
        )
        max_views = max(self.config.view_counts)
        # Figure points re-register prefixes of one view list.
        self.views = list(generator.generate_views(max_views))
        self.queries: list[GeneratedStatement] = list(
            generator.generate_queries(self.config.query_count)
        )

    def build_matcher(self, view_count: int, use_filter_tree: bool) -> ViewMatcher:
        matcher = ViewMatcher(
            self.catalog,
            options=self.config.match_options,
            use_filter_tree=use_filter_tree,
        )
        for name, view in self.views[:view_count]:
            matcher.register_view(name, view.statement)
        return matcher

    def measure_cell(
        self, view_count: int, configuration: Configuration
    ) -> MeasurementPoint:
        matcher = (
            self.build_matcher(view_count, configuration.use_filter_tree)
            if view_count > 0
            else None
        )
        optimizer = Optimizer(
            self.catalog,
            self.stats,
            matcher=matcher,
            config=OptimizerConfig(
                produce_substitutes=configuration.produce_substitutes,
                cost_bounded_matching=False,
            ),
        )
        total = 0.0
        matching = 0.0
        plans_using_views = 0
        invocations = 0
        substitutes = 0
        for query in self.queries:
            result = optimizer.optimize(query.statement)
            total += result.optimize_seconds
            matching += result.matching_seconds
            plans_using_views += result.uses_view
            invocations += result.invocations
            substitutes += result.substitutes_produced
        stats = matcher.statistics if matcher is not None else None
        return MeasurementPoint(
            view_count=view_count,
            configuration=configuration,
            query_count=len(self.queries),
            total_seconds=total,
            matching_seconds=matching,
            plans_using_views=plans_using_views,
            invocations=invocations,
            substitutes=substitutes,
            candidate_fraction=stats.candidate_fraction if stats else 0.0,
            candidate_success_rate=stats.candidate_success_rate if stats else 0.0,
            rejects_by_reason=dict(stats.rejects_by_reason) if stats else {},
            level_survivors=self._level_survivors(matcher, configuration),
        )

    def _level_survivors(
        self, matcher: ViewMatcher | None, configuration: Configuration
    ) -> tuple[tuple[str, int], ...]:
        """Per-level narrowing totals over the query batch (one cell).

        Runs *after* the timed loop so the attribution pass (which
        re-evaluates every level per query) never pollutes the Figure 2/3
        timings. Only meaningful with the filter tree on.
        """
        if matcher is None or not configuration.use_filter_tree:
            return ()
        totals: dict[str, int] = {}
        order: list[str] = []
        for query in self.queries:
            description = matcher.describe_query(query.statement)
            for name, survivors in matcher.filter_tree.filter_statistics(
                description
            ):
                if name not in totals:
                    totals[name] = 0
                    order.append(name)
                totals[name] += survivors
        return tuple((name, totals[name]) for name in order)

    def run(self) -> ExperimentResult:
        points = [
            self.measure_cell(view_count, configuration)
            for configuration in self.config.configurations
            for view_count in self.config.view_counts
        ]
        return ExperimentResult(config=self.config, points=points)
