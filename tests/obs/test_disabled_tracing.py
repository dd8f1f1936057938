"""With trace sampling off, the rewrite path builds no trace object.

The tracer contract (``repro.obs.trace``): every instrumented site reads
the contextvar and tests ``tracer.active`` before doing any trace-only
work, so with the null tracer installed nothing else happens. This
pins that promise exactly instead of timing it: a generated workload is
served through ``ViewServer.serve``, ``rewrite_many`` and
``Optimizer.optimize`` with every trace class's constructor and every
null-tracer hook counted, and each count must be zero. A dropped guard
either builds a trace object (its arguments) or calls a null hook.
"""

import pytest

from repro.catalog import tpch_catalog
from repro.core import ViewMatcher
from repro.obs import trace
from repro.optimizer import Optimizer
from repro.service import ViewServer
from repro.sql.printer import statement_to_sql
from repro.stats import synthetic_tpch_stats
from repro.workload import WorkloadGenerator

TRACE_CLASSES = (
    trace.RewriteTracer,
    trace.Span,
    trace.FilterLevelTrace,
    trace.CandidateTrace,
    trace.MatchInvocationTrace,
    trace.PlanAlternative,
    trace.RewriteTrace,
)
NULL_HOOKS = (
    "span",
    "record_span",
    "on_filter_tree",
    "on_match_invocation",
    "on_plan_choice",
)


@pytest.fixture
def trace_work(monkeypatch):
    """Counts, by name, of trace constructions and null-tracer hook calls."""
    counts: dict[str, int] = {}

    def counting(name, original):
        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return original(*args, **kwargs)

        return wrapper

    for cls in TRACE_CLASSES:
        monkeypatch.setattr(
            cls, "__init__", counting(cls.__name__, cls.__init__)
        )
    for hook in NULL_HOOKS:
        monkeypatch.setattr(
            trace.NullTracer,
            hook,
            counting(f"NullTracer.{hook}", getattr(trace.NullTracer, hook)),
        )
    return counts


@pytest.fixture(scope="module")
def workload():
    catalog = tpch_catalog()
    stats = synthetic_tpch_stats(scale=0.5)
    generator = WorkloadGenerator(catalog, stats, seed=42)
    views = [
        (name, generated.statement)
        for name, generated in generator.generate_views(200)
    ]
    queries = [
        generated.statement for generated in generator.generate_queries(25)
    ]
    return catalog, stats, views, queries


def test_the_counters_see_an_active_tracer(trace_work, workload):
    """The instrumentation is live: a traced request trips every counter
    the disabled path must leave at zero (NullTracer hooks aside)."""
    catalog, stats, views, queries = workload
    with ViewServer(
        catalog, stats, workers=1, cache_enabled=False, trace_sample_rate=1.0
    ) as server:
        server.register_views(views)
        for query in queries:
            server.serve(statement_to_sql(query))
    assert {cls.__name__ for cls in TRACE_CLASSES} <= set(trace_work)


@pytest.mark.parametrize("cache_enabled", [False, True])
def test_serving_with_sampling_off_builds_no_trace(
    trace_work, workload, cache_enabled
):
    """Misses optimize in-process; with the cache on, the second pass and
    the batch also take the cache-probe path."""
    catalog, stats, views, queries = workload
    sqls = [statement_to_sql(query) for query in queries]
    with ViewServer(
        catalog, stats, workers=1, cache_enabled=cache_enabled
    ) as server:
        server.register_views(views)
        served = [server.serve(sql) for sql in sqls + sqls]
        batched = server.rewrite_many(sqls)
        counters = server.stats()["counters"]
    assert all(result.ok for result in served)
    assert all(result.ok for result in batched)
    assert any(result.uses_view for result in served)
    assert counters["match_invocations"] > 0
    assert counters["match_candidates"] > 0
    assert trace_work == {}


def test_optimizing_with_no_tracer_builds_no_trace(trace_work, workload):
    catalog, stats, views, queries = workload
    matcher = ViewMatcher(catalog)
    for name, statement in views:
        matcher.register_view(name, statement)
    optimizer = Optimizer(catalog, stats, matcher)
    results = [optimizer.optimize(query) for query in queries]
    assert any(result.uses_view for result in results)
    assert sum(result.candidates_considered for result in results) > 0
    assert trace_work == {}
