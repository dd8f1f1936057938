"""Telemetry-overhead gate and affinity-aware CPU counting."""

import os

import pytest

from repro.core.parallel import effective_cpu_count, fork_available
from repro.service.loadgen import (
    TELEMETRY_OVERHEAD_TOLERANCE,
    check_telemetry_overhead,
    measure_telemetry_overhead,
)


def section(overhead, views=200):
    off = 20.0
    return {
        "views": views,
        "queries": 32,
        "runs": 3,
        "telemetry_off_ms": off,
        "telemetry_on_ms": off * (1.0 + overhead),
        "overhead_fraction": overhead,
    }


class TestTelemetryOverheadGate:
    def test_within_budget_passes(self):
        assert check_telemetry_overhead(section(0.10), echo=None) == []

    def test_over_budget_fails_with_context(self):
        failures = check_telemetry_overhead(section(0.40), echo=None)
        assert len(failures) == 1
        assert "40.0%" in failures[0]
        assert "recorder + SLO" in failures[0]

    def test_exactly_at_budget_passes(self):
        at_budget = section(TELEMETRY_OVERHEAD_TOLERANCE)
        assert check_telemetry_overhead(at_budget, echo=None) == []

    def test_custom_tolerance(self):
        assert check_telemetry_overhead(
            section(0.10), tolerance=0.05, echo=None
        )

    def test_reports_without_the_section_pass(self):
        assert check_telemetry_overhead(None, echo=None) == []
        assert check_telemetry_overhead({}, echo=None) == []

    def test_negative_overhead_passes(self):
        # Noise can make the instrumented run come out faster.
        assert check_telemetry_overhead(section(-0.03), echo=None) == []

    def test_measures_both_sides_of_the_ratio(self):
        measured = measure_telemetry_overhead(echo=None)
        assert (measured["views"], measured["queries"]) == (200, 25)
        assert measured["telemetry_off_ms"] > 0
        assert measured["telemetry_on_ms"] > 0

    def test_fails_serve_bench_like_the_hit_rate_bar(
        self, monkeypatch, capsys
    ):
        from repro import cli
        from repro.service import loadgen

        monkeypatch.setattr(
            loadgen,
            "measure_telemetry_overhead",
            lambda: section(0.40),
        )
        assert cli.run_serve_bench(smoke=True) == 1
        assert "FAIL: telemetry pipeline overhead 40.0%" in (
            capsys.readouterr().out
        )


class TestEffectiveCpuCount:
    def test_matches_scheduler_affinity(self):
        if hasattr(os, "sched_getaffinity"):
            assert effective_cpu_count() == len(os.sched_getaffinity(0))
        else:  # pragma: no cover - platform fallback
            assert effective_cpu_count() == (os.cpu_count() or 1)

    def test_at_least_one(self):
        assert effective_cpu_count() >= 1

    @pytest.mark.skipif(not fork_available(), reason="needs os.fork")
    def test_default_workers_never_exceed_affinity(self):
        from repro.service.pool import WorkerPool

        pool = WorkerPool(lambda payload: payload)
        try:
            assert 1 <= pool.stats()["target"] <= effective_cpu_count()
        finally:
            pool.close()
