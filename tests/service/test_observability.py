"""Server-side observability wiring: hub, SLO tracker, recorder.

Covers the glue the telemetry pipeline added to ``ViewServer``: every
served/shed/expired request is observed exactly once, the hub and SLO
tracker surface through ``stats()`` and ``prometheus_metrics()``, and
an attached recorder journals what the server serves.
"""

import pytest

from repro.core.parallel import fork_available
from repro.obs.recorder import WorkloadRecorder, load_journal
from repro.obs.slo import SloObjectives
from repro.service import ViewServer

VIEW = "select l_partkey, l_quantity from lineitem where l_quantity >= 10"
QUERY = "select l_partkey from lineitem where l_quantity >= 20"
BASE_ONLY = "select o_orderkey from orders where o_orderkey >= 1"


@pytest.fixture()
def slo_server(catalog, paper_stats):
    with ViewServer(
        catalog, paper_stats, slo=SloObjectives()
    ) as srv:
        srv.register_view("v", VIEW)
        yield srv


class TestTelemetryHubWiring:
    def test_stats_surface_the_hub(self, slo_server):
        slo_server.serve(QUERY)
        telemetry = slo_server.stats()["telemetry"]
        assert telemetry["counters"]["match_invocations"] >= 1
        assert telemetry["sketches"]["match_invocation_seconds"]["count"] >= 1

    def test_per_server_hub_is_isolated(self, catalog, paper_stats):
        with ViewServer(catalog, paper_stats) as first:
            with ViewServer(catalog, paper_stats) as second:
                first.serve(BASE_ONLY)
                counters = second.telemetry.snapshot()["counters"]
                assert counters.get("match_invocations", 0) == 0

    def test_prometheus_includes_hub_metrics(self, slo_server):
        slo_server.serve(QUERY)
        text = slo_server.prometheus_metrics()
        assert "repro_match_invocations_total" in text
        assert 'repro_match_invocation_seconds{quantile="0.99"}' in text


class TestSloWiring:
    def test_every_outcome_burns_or_credits_the_budget(self, slo_server):
        slo_server.serve(QUERY)
        slo_server.serve("select nonsense from nowhere")
        snap = slo_server.stats()["slo"]
        assert snap["requests"] == 2
        assert snap["errors"] == 1

    @pytest.mark.skipif(not fork_available(), reason="needs os.fork")
    def test_pool_requests_are_observed(self, slo_server):
        """Worker answers, parent cache hits and errors that went through
        the pool each reach the tracker once."""
        slo_server.start_pool(workers=1)
        slo_server.rewrite(QUERY)
        slo_server.rewrite(QUERY)  # the parent's cache fast path
        slo_server.rewrite("select nonsense from nowhere")
        snap = slo_server.stats()["slo"]
        assert snap["requests"] == 3
        assert snap["errors"] == 1

    def test_prometheus_includes_burn_rates(self, slo_server):
        slo_server.serve(QUERY)
        text = slo_server.prometheus_metrics()
        assert "repro_slo_requests_total 1" in text
        assert 'repro_slo_burn_rate{window_seconds="60"}' in text

    def test_no_slo_configured_means_no_slo_stats(self, catalog, paper_stats):
        with ViewServer(catalog, paper_stats) as srv:
            srv.serve(BASE_ONLY)
            assert "slo" not in srv.stats()
            assert "slo_requests_total" not in srv.prometheus_metrics()


class TestRecorderWiring:
    def test_attached_recorder_journals_serves(self, slo_server, tmp_path):
        journal = str(tmp_path / "journal.jsonl")
        with WorkloadRecorder(journal) as recorder:
            slo_server.attach_recorder(recorder)
            slo_server.serve(QUERY)
            slo_server.serve(QUERY)  # cache hit
            slo_server.serve("select broken from nowhere")
        aggregate = load_journal(journal)
        assert aggregate.events == 3
        assert aggregate.errors == 1
        assert aggregate.cache_hits == 1

    def test_detached_recorder_by_default(self, slo_server, tmp_path):
        # No recorder attached: serving works and journals nothing.
        slo_server.serve(QUERY)
        assert slo_server._recorder is None


class TestTraceSampledServes:
    def test_sampled_requests_still_observe_slo(self, catalog, paper_stats):
        with ViewServer(
            catalog,
            paper_stats,
            trace_sample_rate=1.0,
            slo=SloObjectives(),
        ) as srv:
            srv.register_view("v", VIEW)
            result = srv.serve(QUERY)
            assert result.ok
            assert srv.stats()["slo"]["requests"] == 1
