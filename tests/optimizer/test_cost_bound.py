"""Cost-bounded view matching never changes the chosen plan.

Every view-matching invocation -- sub-block, top-level, pre-aggregation
-- verifies its candidates under a cost bound. The bound may only remove
work: ``Optimizer(cost_bounded_matching=True)`` and ``=False`` must agree
on ``(cost, view_names)`` for every query, cost ties included.
"""

from types import SimpleNamespace

import pytest

from repro.core import ViewMatcher
from repro.core.matching import STAGE_SKIPPED
from repro.obs import RewriteTracer, tracing
from repro.optimizer import Optimizer, OptimizerConfig
from repro.optimizer import optimizer as optimizer_module
from repro.workload.generator import WorkloadGenerator

VIEW_COUNT = 400
QUERY_COUNT = 80


class _LeadingOutputIndexes:
    """Index registry stub: an index on every output column of some views.

    Duck-typed like ``Database.indexes`` (``on_relation(name)`` returning
    objects with ``.columns``); every third view is indexed, so one
    invocation ranks seekable and scan-only candidates together.
    """

    def __init__(self, views):
        self._by_relation = {
            name: tuple(
                SimpleNamespace(columns=(item.alias,))
                for item in generated.statement.select_items
            )
            for position, (name, generated) in enumerate(views)
            if position % 3 == 0
        }

    def on_relation(self, relation_name):
        return self._by_relation.get(relation_name, ())


def _stale_every_fourth(view_name):
    """Staleness policy rejecting a quarter of the generated views."""
    if int(view_name[2:7]) % 4 == 0:
        return "lagging"
    return None


@pytest.fixture(scope="module", params=[3, 19])
def workload(request, catalog, paper_stats):
    """Generated views (each also registered under a second name) + queries."""
    seed = request.param
    views = WorkloadGenerator(catalog, paper_stats, seed=seed).generate_views(
        VIEW_COUNT
    )
    matcher = ViewMatcher(catalog)
    for name, generated in views:
        matcher.register_view(name, generated.statement)
    # Identically-defined twins, registered in reverse so a twin's
    # position relative to other views differs from its original's.
    for name, generated in reversed(views):
        matcher.register_view(f"{name}_twin", generated.statement)
    queries = WorkloadGenerator(
        catalog, paper_stats, seed=seed + 100
    ).generate_queries(QUERY_COUNT)
    return SimpleNamespace(views=views, matcher=matcher, queries=queries)


def _optimizers(catalog, stats, workload, index_registry=None):
    return [
        Optimizer(
            catalog,
            stats,
            matcher=workload.matcher,
            config=OptimizerConfig(cost_bounded_matching=bounded),
            index_registry=index_registry,
        )
        for bounded in (True, False)
    ]


@pytest.mark.parametrize("indexed", [False, True], ids=["scan", "indexed"])
@pytest.mark.parametrize(
    "staleness", [None, _stale_every_fourth], ids=["fresh", "stale"]
)
def test_bound_on_and_off_choose_the_same_plan(
    catalog, paper_stats, workload, indexed, staleness
):
    registry = _LeadingOutputIndexes(workload.views) if indexed else None
    bounded, unbounded = _optimizers(catalog, paper_stats, workload, registry)
    shapes = set()
    skipped = dropped = 0
    for query in workload.queries:
        on = bounded.optimize(query.statement, staleness=staleness)
        off = unbounded.optimize(query.statement, staleness=staleness)
        assert (on.cost, on.view_names) == (off.cost, off.view_names)
        assert off.candidates_skipped == off.preaggregations_dropped == 0
        skipped += on.candidates_skipped
        dropped += on.preaggregations_dropped
        shapes.add((query.is_aggregate, len(query.tables)))
        if on.uses_view and type(on.plan).__name__ == "FinishNode":
            shapes.add("preaggregation")
    # The population covers what the claim is about, and the bound did
    # engage -- parity over a bound that never skips proves nothing.
    assert "preaggregation" in shapes
    assert {tables for _, tables in shapes - {"preaggregation"}} >= {2, 3, 4, 5}
    assert {aggregate for aggregate, _ in shapes - {"preaggregation"}} == {
        True,
        False,
    }
    assert skipped > 0 and dropped > 0


@pytest.mark.parametrize("indexed", [False, True], ids=["scan", "indexed"])
def test_lower_bound_never_exceeds_substitute_cost(
    catalog, paper_stats, workload, indexed, monkeypatch
):
    """Soundness: ``lower_bound(view) <= _substitute_cost(match, rows)``
    for every match any call site produces."""
    audited = []

    class _Audit(optimizer_module._CostBoundPolicy):
        def bound(self):
            return float("inf")  # skip nothing: every match is produced

        def observe(self, result):
            cost = self._search._substitute_cost(result, self._output_rows)
            audited.append(result.view.name)
            assert self.lower_bound(result.view) <= cost
            return False

    monkeypatch.setattr(optimizer_module, "_CostBoundPolicy", _Audit)
    registry = _LeadingOutputIndexes(workload.views) if indexed else None
    bounded, _ = _optimizers(catalog, paper_stats, workload, registry)
    for query in workload.queries:
        bounded.optimize(query.statement)
    assert len(audited) > QUERY_COUNT


class TestTieBreak:
    """``min`` keeps the earliest of equal costs; the bound must too."""

    VIEW = "select o_orderkey as k, o_totalprice as p from orders"
    QUERY = "select o_orderkey, o_totalprice from orders"

    @pytest.mark.parametrize("names", [("va", "vb"), ("vb", "va")])
    def test_identical_views_resolve_to_the_first_registered(
        self, catalog, paper_stats, names
    ):
        matcher = ViewMatcher(catalog)
        for name in names:
            matcher.register_view(name, catalog.bind_sql(self.VIEW))
        statement = catalog.bind_sql(self.QUERY)
        chosen = [
            Optimizer(
                catalog,
                paper_stats,
                matcher=matcher,
                config=OptimizerConfig(cost_bounded_matching=bounded),
            ).optimize(statement)
            for bounded in (True, False)
        ]
        assert chosen[0].view_names == chosen[1].view_names == (names[0],)
        assert chosen[0].cost == chosen[1].cost
        # The twin's lower bound equals the holder's cost: skipped unverified.
        assert chosen[0].candidates_skipped == 1


class _StubPolicy:
    """A cost policy with scripted lower bounds and substitute costs."""

    def __init__(self, seed, lower_bounds, costs):
        self._bound = seed
        self._lower_bounds = lower_bounds
        self._costs = costs

    def bound(self):
        return self._bound

    def lower_bound(self, view):
        return self._lower_bounds[view.name]

    def observe(self, result):
        cost = self._costs[result.view.name]
        if cost < self._bound:
            self._bound = cost
            return True
        return False


class TestMatcherSkipRule:
    VIEW = TestTieBreak.VIEW
    QUERY = TestTieBreak.QUERY

    @pytest.fixture()
    def matcher(self, catalog):
        matcher = ViewMatcher(catalog)
        for name in ("first", "second"):
            matcher.register_view(name, catalog.bind_sql(self.VIEW))
        return matcher

    def _stages(self, catalog, matcher, policy):
        results = matcher.match(
            catalog.bind_sql(self.QUERY), cost_policy=policy
        )
        return {result.view.name: result.stage for result in results}

    def test_tie_with_a_later_holder_is_still_verified(self, catalog, matcher):
        # "second" is verified first (lower bound 50) and sets the bound
        # to 100; "first" could tie at 100 and precedes it, so min() would
        # pick "first" -- it must be verified, not skipped.
        policy = _StubPolicy(
            seed=1000.0,
            lower_bounds={"first": 100.0, "second": 50.0},
            costs={"first": 100.0, "second": 100.0},
        )
        stages = self._stages(catalog, matcher, policy)
        assert STAGE_SKIPPED not in stages.values()

    def test_tie_with_an_earlier_holder_is_skipped(self, catalog, matcher):
        policy = _StubPolicy(
            seed=1000.0,
            lower_bounds={"first": 50.0, "second": 100.0},
            costs={"first": 100.0, "second": 100.0},
        )
        stages = self._stages(catalog, matcher, policy)
        assert stages["second"] == STAGE_SKIPPED
        assert stages["first"] != STAGE_SKIPPED

    def test_tie_with_the_seed_is_skipped(self, catalog, matcher):
        policy = _StubPolicy(
            seed=100.0,
            lower_bounds={"first": 100.0, "second": 100.0},
            costs={},
        )
        stages = self._stages(catalog, matcher, policy)
        assert set(stages.values()) == {STAGE_SKIPPED}
        assert matcher.statistics.candidates_skipped == 2
        assert matcher.statistics.views_considered == 0

    def test_lone_hopeless_candidate_is_skipped(self, catalog):
        matcher = ViewMatcher(catalog)
        matcher.register_view("only", catalog.bind_sql(self.VIEW))
        policy = _StubPolicy(seed=10.0, lower_bounds={"only": 11.0}, costs={})
        stages = self._stages(catalog, matcher, policy)
        assert stages == {"only": STAGE_SKIPPED}
        assert matcher.statistics.candidates_skipped == 1


class TestFunnel:
    """Sub-block and pre-aggregation skips are counted like top-level ones."""

    def test_skips_and_drops_reach_result_statistics_and_trace(
        self, catalog, paper_stats, workload
    ):
        matcher = workload.matcher
        optimizer = Optimizer(catalog, paper_stats, matcher=matcher)
        for query in workload.queries:
            matcher.statistics.reset()
            tracer = RewriteTracer(sql="")
            with tracing(tracer):
                result = optimizer.optimize(query.statement)
            trace = tracer.finish()
            assert result.candidates_skipped == (
                matcher.statistics.candidates_skipped
            )
            assert result.candidates_skipped == sum(
                invocation.skipped for invocation in trace.invocations
            )
            assert result.invocations == len(trace.invocations)
            assert result.candidates_considered == (
                matcher.statistics.views_considered
                + matcher.statistics.candidates_skipped
            )


class TestViewRowsMemo:
    def test_reregistered_name_is_priced_from_its_new_definition(
        self, catalog, paper_stats
    ):
        matcher = ViewMatcher(catalog)
        optimizer = Optimizer(catalog, paper_stats, matcher=matcher)
        matcher.register_view(
            "v", catalog.bind_sql("select o_orderkey as k from orders")
        )
        wide = optimizer.view_estimated_rows(matcher.registered_views()[0].record)
        matcher.unregister_view("v")
        matcher.register_view(
            "v",
            catalog.bind_sql(
                "select o_orderkey as k from orders where o_orderkey <= 10"
            ),
        )
        narrow = optimizer.view_estimated_rows(
            matcher.registered_views()[0].record
        )
        assert narrow < wide

    def test_estimate_survives_a_new_optimizer_over_the_same_statistics(
        self, catalog, paper_stats, monkeypatch
    ):
        matcher = ViewMatcher(catalog)
        matcher.register_view(
            "v", catalog.bind_sql("select o_orderkey as k from orders")
        )
        view = matcher.registered_views()[0].record
        first = Optimizer(catalog, paper_stats, matcher=matcher)
        rows = first.view_estimated_rows(view)
        second = Optimizer(catalog, paper_stats, matcher=matcher)
        monkeypatch.setattr(
            second.estimator,
            "extent_rows",
            lambda record: pytest.fail("re-estimated a known view"),
        )
        assert second.view_estimated_rows(view) == rows
