"""The server's metrics registry is its ``TelemetryHub``.

Counters are ``hub.increment(name)``; a serving stage's latency is the
hub sketch ``{stage}_seconds``, summarised in ``stats()["latency"]``
with the eight keys ``count / sum / mean / min / max / p50 / p90 / p99``.
"""

import pytest

from repro.obs.telemetry import TelemetryHub, render_prometheus
from repro.service import ViewServer

BASE_ONLY = "select o_orderkey, o_totalprice from orders where o_totalprice > 100"

STAGE_KEYS = {"count", "sum", "mean", "min", "max", "p50", "p90", "p99"}


class TestCounter:
    def test_increments(self):
        hub = TelemetryHub()
        hub.increment("requests")
        hub.increment("requests", 4)
        assert hub.snapshot()["counters"] == {"requests": 5}


class TestLatencyHistogram:
    """A stage latency is a sketch named ``{stage}_seconds``."""

    def test_empty_snapshot(self, catalog, paper_stats):
        with ViewServer(catalog, paper_stats) as server:
            assert server.stats()["latency"] == {}
            server.serve(BASE_ONLY)
            latency = server.stats()["latency"]
        assert set(latency["total"]) == STAGE_KEYS
        # A stage nothing recorded stays out of the summary.
        assert "hit" not in latency

    def test_exact_aggregates(self):
        hub = TelemetryHub()
        for value in (0.001, 0.002, 0.003):
            hub.record("total_seconds", value)
        snapshot = hub.snapshot()["sketches"]["total_seconds"]
        assert snapshot["count"] == 3
        assert snapshot["mean"] == pytest.approx(0.002)
        assert snapshot["min"] == pytest.approx(0.001)
        assert snapshot["max"] == pytest.approx(0.003)

    def test_single_observation_percentiles_are_exact(self):
        # Estimates clamp to the observed min/max, so a sketch with one
        # sample reports that sample at every percentile.
        hub = TelemetryHub()
        hub.record("total_seconds", 0.0042)
        snapshot = hub.snapshot()["sketches"]["total_seconds"]
        assert snapshot["p50"] == snapshot["p99"] == 0.0042


class TestMetricsRegistry:
    """``ViewServer.telemetry`` is the one registry behind ``stats()``."""

    def test_counter_and_histogram_identity(self):
        # A name is one series: repeated writes land on one counter and
        # one sketch.
        hub = TelemetryHub()
        hub.increment("x")
        hub.increment("x")
        hub.record("y_seconds", 0.01)
        hub.record("y_seconds", 0.02)
        snapshot = hub.snapshot()
        assert snapshot["counters"] == {"x": 2}
        assert list(snapshot["sketches"]) == ["y_seconds"]
        assert snapshot["sketches"]["y_seconds"]["count"] == 2

    def test_snapshot_shape(self, catalog, paper_stats):
        with ViewServer(catalog, paper_stats) as server:
            server.serve(BASE_ONLY)
            server.serve(BASE_ONLY)
            stats = server.stats()
        hub = stats["telemetry"]
        assert stats["counters"] == hub["counters"]
        assert stats["counters"]["requests"] == 2
        for stage, summary in stats["latency"].items():
            assert summary == hub["sketches"][f"{stage}_seconds"]
        assert stats["latency"]["total"]["count"] == 2

    def test_report_orders_stages_then_alphabetical(
        self, catalog, paper_stats
    ):
        # Stages come in pipeline order; counters alphabetically.
        with ViewServer(catalog, paper_stats) as server:
            server.serve(BASE_ONLY)
            server.serve(BASE_ONLY)
            stats = server.stats()
        assert list(stats["latency"]) == [
            "parse", "fingerprint", "match", "plan", "hit", "miss", "total",
        ]
        counters = list(stats["counters"])
        assert counters == sorted(counters)


class TestPrometheusRoundTrip:
    @staticmethod
    def quantile_labels(text, metric):
        return [
            line.split('quantile="', 1)[1].split('"', 1)[0]
            for line in text.splitlines()
            if line.startswith(f"{metric}{{quantile=")
        ]

    def test_counter_and_summary_lines(self):
        hub = TelemetryHub()
        hub.increment("requests", 7)
        hub.record("total_seconds", 0.002)
        first = render_prometheus({"telemetry": hub.snapshot()}, "repro")
        hub.record("total_seconds", 1.5)
        second = render_prometheus({"telemetry": hub.snapshot()}, "repro")
        assert "# TYPE repro_requests_total counter" in first
        assert "repro_requests_total 7" in first.splitlines()
        assert "# TYPE repro_total_seconds summary" in first
        assert "repro_total_seconds_count 2" in second.splitlines()
        # A summary's series set is the same on every scrape.
        labels = self.quantile_labels(first, "repro_total_seconds")
        assert labels == ["0.5", "0.9", "0.99"]
        assert self.quantile_labels(second, "repro_total_seconds") == labels
