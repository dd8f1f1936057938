"""ViewServer behaviour: serving paths, load shedding, invalidation."""

import pytest

from repro.catalog import Catalog, Column, ColumnType, Table
from repro.cdc import CdcPipeline
from repro.core.parallel import fork_available
from repro.engine import Database
from repro.service import ViewServer
from repro.stats import DatabaseStats

VIEW = "select l_partkey, l_quantity from lineitem where l_quantity >= 10"
QUERY = "select l_partkey from lineitem where l_quantity >= 20"
BASE_ONLY = "select o_orderkey from orders where o_orderkey >= 1"


@pytest.fixture()
def server(catalog, paper_stats):
    with ViewServer(catalog, paper_stats) as srv:
        yield srv


class TestServingPaths:
    def test_successful_submit(self, server):
        result = server.serve(BASE_ONLY)
        assert result.ok
        assert result.error is None
        assert result.epoch == 0
        assert not result.cache_hit
        assert not result.uses_view
        assert result.view_names == ()
        assert result.latency_seconds > 0

    def test_second_submit_hits_cache(self, server):
        first = server.serve(BASE_ONLY)
        second = server.serve(BASE_ONLY)
        assert not first.cache_hit
        assert second.cache_hit
        assert second.result is first.result  # the same frozen plan object
        assert server.stats()["cache"]["hits"] == 1

    def test_semantically_equal_sql_shares_cache_entry(self, server):
        first = server.serve(
            "select l_partkey from lineitem, part "
            "where l_partkey = p_partkey and p_retailprice >= 100"
        )
        second = server.serve(
            "select l_partkey from part, lineitem "
            "where p_retailprice >= 100 and p_partkey = l_partkey"
        )
        assert first.fingerprint == second.fingerprint
        assert second.cache_hit

    def test_view_rewrite_served(self, server):
        server.register_view("v_cheap", VIEW)
        result = server.serve(QUERY)
        assert result.ok
        assert result.uses_view
        assert "v_cheap" in result.view_names
        assert server.stats()["counters"]["rewrites"] >= 1

    def test_parse_error_is_reported_not_raised(self, server):
        result = server.serve("select from nothing at all")
        assert not result.ok
        assert result.error
        assert server.stats()["counters"]["errors"] == 1

    def test_unknown_table_is_reported_not_raised(self, server):
        result = server.serve("select x from no_such_table")
        assert not result.ok
        assert result.error

    def test_cache_disabled_never_hits(self, catalog, paper_stats):
        with ViewServer(catalog, paper_stats, cache_enabled=False) as server:
            assert not server.serve(BASE_ONLY).cache_hit
            assert not server.serve(BASE_ONLY).cache_hit
            assert server.stats()["cache"] is None


class TestLoadShedding:
    @pytest.mark.skipif(not fork_available(), reason="needs os.fork")
    def test_rejected_when_queue_full(self, server):
        # A pool with no queue room sheds every request it is handed.
        server.start_pool(workers=1, max_queue=0)
        result = server.rewrite(BASE_ONLY)
        assert result.rejected
        assert not result.ok
        assert server.stats()["counters"]["rejected"] == 1
        assert server.stats()["pool"]["saturated"] == 1
        # Without the pool the next request is served normally.
        server.stop_pool()
        assert server.rewrite(BASE_ONLY).ok

    def test_expired_deadline_times_out(self, server):
        result = server.serve(BASE_ONLY, deadline=0.0)
        assert result.timed_out
        assert not result.ok
        assert server.stats()["counters"]["timeouts"] == 1

    def test_closed_server_rejects_submissions(self, catalog, paper_stats):
        server = ViewServer(catalog, paper_stats)
        server.close()
        with pytest.raises(RuntimeError, match="closed"):
            server.serve(BASE_ONLY)

    def test_closed_server_answers_nothing(self, catalog, paper_stats):
        """A closed server has emptied its epoch: an answer from it would
        be a plan over no views labelled with the old epoch."""
        server = ViewServer(catalog, paper_stats)
        server.register_view("v1", VIEW)
        served = server.serve(QUERY)
        assert served.view_names == ("v1",) and served.epoch == 1
        server.close()
        with pytest.raises(RuntimeError, match="server is closed"):
            server.serve(QUERY)
        with pytest.raises(RuntimeError, match="server is closed"):
            server.rewrite(QUERY, max_staleness=60.0)


class TestEpochInvalidation:
    def test_register_bumps_epoch_and_retires_cache(self, server):
        warm = server.serve(QUERY)
        assert server.serve(QUERY).cache_hit
        assert server.register_view("v_cheap", VIEW) == 1
        after = server.serve(QUERY)
        assert not after.cache_hit  # previous generation retired
        assert after.epoch == 1
        assert after.uses_view  # re-optimized against the new view
        assert not warm.uses_view

    def test_unregister_bumps_epoch_and_stops_serving_view(self, server):
        server.register_view("v_cheap", VIEW)
        assert server.serve(QUERY).uses_view
        assert server.unregister_view("v_cheap") == 2
        result = server.serve(QUERY)
        assert not result.cache_hit
        assert not result.uses_view
        assert result.epoch == 2

    def test_duplicate_registration_rejected(self, server):
        server.register_view("v_cheap", VIEW)
        with pytest.raises(ValueError, match="already registered"):
            server.register_view("v_cheap", VIEW)
        assert server.epoch == 1


class TestMaintainerIntegration:
    @pytest.fixture()
    def stack(self):
        catalog = Catalog()
        catalog.add_table(
            Table(
                name="t",
                columns=(
                    Column("k"),
                    Column("g"),
                    Column("v", ColumnType.FLOAT),
                ),
                primary_key=("k",),
            )
        )
        database = Database()
        database.store(
            "t", ("k", "g", "v"), [(1, 0, 10.0), (2, 0, 20.0), (3, 1, 30.0)]
        )
        pipeline = CdcPipeline(catalog, database)
        stats = DatabaseStats.collect(database, catalog)
        server = ViewServer(catalog, stats)
        server.attach_cdc(pipeline)
        yield catalog, pipeline, server
        server.close()

    def test_base_table_change_evicts_affected_entries(self, stack):
        catalog, pipeline, server = stack
        sql = "select k as k, v as v from t where g = 0"
        pipeline.register_view("mv", catalog.bind_sql(sql))
        server.register_view("mv", sql)
        query = "select k from t where g = 0"
        assert server.serve(query).uses_view
        assert server.serve(query).cache_hit
        pipeline.insert("t", [(4, 0, 40.0)])
        pipeline.drain()
        # The merge event evicted the cached rewrite.
        refreshed = server.serve(query)
        assert not refreshed.cache_hit
        assert server.stats()["counters"]["staleness_evictions"] >= 1
        assert server.stats()["cache"]["view_invalidations"] >= 1

    def test_untouched_views_stay_cached(self, stack):
        catalog, pipeline, server = stack
        pipeline.register_view(
            "mv", catalog.bind_sql("select k as k from t where g = 1")
        )
        unrelated = "select k from t where g = 0"
        server.serve(unrelated)
        pipeline.insert("t", [(5, 1, 50.0)])  # touches mv only
        pipeline.drain()
        assert server.serve(unrelated).cache_hit


class TestIntrospection:
    def test_stats_shape(self, server):
        server.serve(BASE_ONLY)
        stats = server.stats()
        assert stats["epoch"] == 0
        assert stats["views"] == 0
        assert stats["counters"]["requests"] == 1
        assert "total" in stats["latency"]
        assert stats["latency"]["total"]["count"] == 1
        assert stats["latency"]["total"]["p50"] > 0


class TestTracing:
    @pytest.fixture()
    def traced_server(self, catalog, paper_stats):
        with ViewServer(
            catalog,
            paper_stats,
            trace_sample_rate=1.0,
            trace_capacity=4,
        ) as srv:
            srv.register_view("v", VIEW)
            yield srv

    def test_disabled_by_default_records_nothing(self, server):
        server.serve(BASE_ONLY)
        assert server.traces() == ()
        assert server.stats()["counters"].get("traces_sampled", 0) == 0

    def test_sampled_request_produces_full_trace(self, traced_server):
        result = traced_server.serve(QUERY)
        assert result.uses_view
        (trace,) = [t for t in traced_server.traces() if t.sql == QUERY]
        span_names = [span.name for span in trace.spans]
        assert "parse" in span_names
        assert "fingerprint" in span_names
        assert "cache probe" in span_names
        assert "optimize" in span_names
        assert trace.cache_hit is False
        assert trace.epoch == 1
        assert trace.total_seconds > 0
        assert any(c.matched for inv in trace.invocations for c in inv.funnel)
        assert trace.chosen_alternative() is not None

    def test_cache_hit_trace_skips_optimize(self, traced_server):
        traced_server.serve(QUERY)
        traced_server.serve(QUERY)
        hit_trace = traced_server.traces()[-1]
        assert hit_trace.cache_hit is True
        assert "optimize" not in [s.name for s in hit_trace.spans]
        assert hit_trace.invocations == []

    def test_capacity_bounds_the_ring(self, traced_server):
        for i in range(8):
            traced_server.serve(f"select o_orderkey from orders where o_orderkey >= {i}")
        assert len(traced_server.traces()) == 4  # trace_capacity

    def test_sampling_period_skips_requests(self, catalog, paper_stats):
        with ViewServer(
            catalog, paper_stats, trace_sample_rate=0.5
        ) as srv:
            for _ in range(6):
                srv.serve(BASE_ONLY)
            assert len(srv.traces()) == 3
            assert srv.stats()["counters"]["traces_sampled"] == 3

    def test_error_request_still_traced(self, traced_server):
        result = traced_server.serve("select nope from nowhere")
        assert not result.ok
        trace = traced_server.traces()[-1]
        assert trace.error is not None


class TestPrometheusExposition:
    def test_counters_histograms_and_gauges(self, server):
        server.register_view("v", VIEW)
        server.serve(QUERY)
        server.serve(QUERY)
        text = server.prometheus_metrics()
        lines = text.splitlines()
        assert "repro_requests_total 2" in lines
        assert "repro_epoch 1" in lines
        assert "repro_views_registered 1" in lines
        assert "repro_rewrite_cache_hits_total 1" in lines
        assert "# TYPE repro_total_seconds summary" in lines
        assert 'repro_total_seconds{quantile="0.99"}' in text
        assert "repro_total_seconds_count 2" in lines

    def test_reject_reasons_exported_with_labels(self, server):
        server.register_view("v", VIEW)
        # A query over the viewed table whose range the view cannot cover:
        # full matching runs and rejects, populating the funnel counters.
        server.serve("select l_partkey from lineitem where l_quantity >= 5")
        text = server.prometheus_metrics()
        assert 'repro_match_rejects_total{reason="range"}' in text

    def test_custom_prefix(self, server):
        server.serve(BASE_ONLY)
        text = server.prometheus_metrics(prefix="mv")
        assert "mv_requests_total 1" in text
        assert "repro_" not in text

    def test_help_and_type_headers(self, server):
        server.register_view("v", VIEW)
        for sql in (QUERY, QUERY, BASE_ONLY):
            server.serve(sql)
        text = server.prometheus_metrics()
        assert "# TYPE repro_requests_total counter" in text
        assert "# TYPE repro_total_seconds summary" in text
        assert "# TYPE repro_epoch gauge" in text
        # Serving counters, stage sketches and the hub's own series come
        # from one registry: every family is declared exactly once.
        families = [
            line.split()[2]
            for line in text.splitlines()
            if line.startswith("# TYPE ")
        ]
        assert len(families) == len(set(families))
        assert "repro_match_invocations_total" in families
