"""Bounded-staleness serving: ``rewrite(sql, max_staleness=...)``.

The acceptance contract for CDC-aware serving: ``max_staleness=0`` never
uses a view whose applied LSN trails the change-log head, a bounded
request demonstrably serves from the lagging view, and the funnel /
metrics surfaces record the ``STALE`` rejections.
"""

import re

import pytest

from repro.cdc import CdcPipeline
from repro.core.parallel import fork_available
from repro.datagen import generate_tpch
from repro.service import ViewServer

VIEW = (
    "select o_custkey as c, sum(o_totalprice) as total, "
    "count_big(*) as cnt from orders group by o_custkey"
)
QUERY = (
    "select o_custkey, sum(o_totalprice) from orders group by o_custkey"
)


class FakeClock:
    def __init__(self, now=1000.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@pytest.fixture()
def clock():
    return FakeClock()


@pytest.fixture()
def pipeline(catalog, clock):
    pipeline = CdcPipeline(
        catalog, generate_tpch(scale=0.0005, seed=3), clock=clock
    )
    pipeline.register_view("mv_rev", catalog.bind_sql(VIEW))
    return pipeline


@pytest.fixture()
def server(catalog, paper_stats, pipeline):
    with ViewServer(catalog, paper_stats) as srv:
        srv.register_view("mv_rev", VIEW)
        srv.attach_cdc(pipeline)
        yield srv


def fresh_order_row(pipeline):
    orders = pipeline.database.relation("orders")
    position = orders.column_position("o_orderkey")
    template = list(orders.rows[0])
    template[position] = max(r[position] for r in orders.rows) + 1
    return tuple(template)


def test_fresh_view_serves_under_zero_staleness(server):
    result = server.rewrite(QUERY, max_staleness=0)
    assert result.ok
    assert result.uses_view
    assert "mv_rev" in result.view_names
    assert result.max_staleness == 0


def test_zero_staleness_never_uses_a_lagging_view(server, pipeline):
    pipeline.insert("orders", [fresh_order_row(pipeline)])
    assert pipeline.view_freshness("mv_rev").lag_records == 1

    strict = server.rewrite(QUERY, max_staleness=0)
    assert strict.ok and not strict.uses_view

    # The same request without a bound is staleness-unaware and still
    # rewrites; a generous bound serves from the lagging view.
    unaware = server.rewrite(QUERY)
    bounded = server.rewrite(QUERY, max_staleness=60.0)
    assert unaware.uses_view
    assert bounded.uses_view and "mv_rev" in bounded.view_names

    # Catching up restores strict serving.
    pipeline.drain()
    assert server.rewrite(QUERY, max_staleness=0).uses_view


def test_positive_bound_tracks_wall_clock_lag(server, pipeline, clock):
    pipeline.insert("orders", [fresh_order_row(pipeline)])
    clock.advance(3.0)
    assert server.rewrite(QUERY, max_staleness=10.0).uses_view
    clock.advance(30.0)
    assert not server.rewrite(QUERY, max_staleness=10.0).uses_view


@pytest.mark.skipif(not fork_available(), reason="os.fork unavailable")
def test_pooled_bound_judges_freshness_at_request_time(server, pipeline, clock):
    """A pool worker holds its fork-time copy of the freshness tracker, so
    a pooled bounded request must be judged by the parent's, as of the
    request -- exactly as the in-process path judges it."""
    server.start_pool(workers=1)
    pipeline.insert("orders", [fresh_order_row(pipeline)])  # no drain
    assert not server.serve(QUERY, max_staleness=0).uses_view
    strict = server.rewrite(QUERY, max_staleness=0)
    assert strict.ok and not strict.uses_view
    assert strict.max_staleness == 0
    clock.advance(3.0)
    assert server.rewrite(QUERY, max_staleness=10.0).uses_view
    clock.advance(30.0)
    assert not server.rewrite(QUERY, max_staleness=10.0).uses_view
    pipeline.drain()
    assert server.rewrite(QUERY, max_staleness=0).uses_view


@pytest.mark.skipif(not fork_available(), reason="os.fork unavailable")
def test_a_log_truncated_past_a_view_judges_it_stale(server, pipeline):
    """A bounded read cannot measure the lag of a view whose first
    unapplied record the log no longer holds: the view is stale, and the
    request is served from the base tables, in-process and pooled."""
    pipeline.insert("orders", [fresh_order_row(pipeline)])
    pipeline.insert("orders", [fresh_order_row(pipeline)])
    pipeline.log.truncate_through(pipeline.log.head_lsn)
    matcher = server.snapshots.current.matcher
    before = matcher.statistics.rejects_by_reason.get("STALE", 0)
    served = server.serve(QUERY, max_staleness=5.0)
    assert served.ok and not served.uses_view
    assert served.max_staleness == 5.0
    assert matcher.statistics.rejects_by_reason.get("STALE", 0) == before + 1
    bound = server.snapshots.current.staleness_bound(5.0)
    assert "already truncated" in bound("mv_rev")
    # An unbounded request still reads the view.
    assert server.serve(QUERY).uses_view
    server.start_pool(workers=1)
    pooled = server.rewrite(QUERY, max_staleness=5.0)
    assert pooled.ok and not pooled.uses_view


def test_stale_rejections_reach_funnel_and_prometheus(server, pipeline):
    pipeline.insert("orders", [fresh_order_row(pipeline)])
    server.rewrite(QUERY, max_staleness=0)
    rejects = (
        server.snapshots.current.matcher.statistics.rejects_by_reason
    )
    assert rejects.get("STALE", 0) >= 1
    exposition = server.prometheus_metrics()
    assert 'repro_match_rejects_total{reason="stale"}' in exposition
    assert "repro_cdc_head_lsn" in exposition
    assert 'repro_cdc_view_lag_records{view="mv_rev"} 1' in exposition
    assert "repro_cdc_delta_evaluations_total 0" in exposition
    assert "repro_cdc_join_index_builds_total" in exposition


def test_bounded_requests_bypass_the_cache(server):
    first = server.rewrite(QUERY, max_staleness=0)
    second = server.rewrite(QUERY, max_staleness=0)
    assert not first.cache_hit and not second.cache_hit
    cache = server.stats()["cache"]
    assert cache["hits"] == 0
    # An unbounded pair still caches, proving the bypass is specific to
    # bounded requests rather than caching being off.
    server.rewrite(QUERY)
    assert server.rewrite(QUERY).cache_hit


def test_rewrite_many_threads_the_bound(server, pipeline):
    pipeline.insert("orders", [fresh_order_row(pipeline)])
    strict = [server.rewrite(QUERY, max_staleness=0) for _ in range(2)]
    relaxed = [server.rewrite(QUERY, max_staleness=60.0) for _ in range(2)]
    assert all(r.ok and not r.uses_view for r in strict)
    assert all(r.uses_view for r in relaxed)
    assert all(r.max_staleness == 0 for r in strict)


def test_stats_expose_cdc_freshness(server, pipeline):
    pipeline.insert("orders", [fresh_order_row(pipeline)])
    stats = server.stats()["cdc"]
    assert stats["head_lsn"] == pipeline.head_lsn
    assert stats["views"]["mv_rev"]["lag_records"] == 1
    pipeline.drain()
    assert server.stats()["cdc"]["views"]["mv_rev"]["lag_records"] == 0


_SAMPLE_LINE = re.compile(
    r"[a-zA-Z_:][a-zA-Z0-9_:]*"
    r'(\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\[\\"n])*"'
    r'(,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\[\\"n])*")*\})?'
    r" [-+]?(\d+(\.\d*)?|\.\d+)([eE][-+]?\d+)?"
)


def test_label_values_are_escaped(catalog, paper_stats, clock):
    """A view name holding a backslash, a double quote and a newline
    still yields valid text exposition: every sample line parses."""
    name = 'mv"rev\\x\nz'
    pipeline = CdcPipeline(
        catalog, generate_tpch(scale=0.0005, seed=3), clock=clock
    )
    pipeline.register_view(name, catalog.bind_sql(VIEW))
    with ViewServer(catalog, paper_stats) as server:
        server.register_view("mv_rev", VIEW)
        server.attach_cdc(pipeline)
        pipeline.insert("orders", [fresh_order_row(pipeline)])
        server.rewrite(QUERY, max_staleness=0)
        exposition = server.prometheus_metrics()
    assert (
        'repro_cdc_view_lag_records{view="mv\\"rev\\\\x\\nz"} 1'
        in exposition
    )
    for line in exposition.splitlines():
        if not line.startswith("#"):
            assert _SAMPLE_LINE.fullmatch(line), line
