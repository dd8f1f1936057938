"""Telemetry-overhead gate and affinity-aware CPU counting."""

import os

import pytest

from repro.core.parallel import effective_cpu_count, fork_available
from repro.experiments.hotpath import (
    TELEMETRY_OVERHEAD_TOLERANCE,
    _check_telemetry_overhead,
    check_tracing_overhead,
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
        report = {"telemetry_overhead": section(0.10)}
        assert _check_telemetry_overhead(report, echo=None) == []

    def test_over_budget_fails_with_context(self):
        report = {"telemetry_overhead": section(0.40)}
        failures = _check_telemetry_overhead(report, echo=None)
        assert len(failures) == 1
        assert "40.0%" in failures[0]
        assert "recorder + SLO" in failures[0]

    def test_exactly_at_budget_passes(self):
        report = {
            "telemetry_overhead": section(TELEMETRY_OVERHEAD_TOLERANCE)
        }
        assert _check_telemetry_overhead(report, echo=None) == []

    def test_custom_tolerance(self):
        report = {"telemetry_overhead": section(0.10)}
        assert _check_telemetry_overhead(report, tolerance=0.05, echo=None)

    def test_reports_without_the_section_pass(self):
        assert _check_telemetry_overhead({}, echo=None) == []
        assert (
            _check_telemetry_overhead({"telemetry_overhead": None}, echo=None)
            == []
        )

    def test_negative_overhead_passes(self):
        # Noise can make the instrumented run come out faster.
        report = {"telemetry_overhead": section(-0.03)}
        assert _check_telemetry_overhead(report, echo=None) == []

    def test_rides_the_tracing_overhead_gate(self):
        # check_tracing_overhead folds the telemetry gate in, so the
        # existing CI step covers both without a new flag.
        size = {
            "views": 100,
            "candidate_filter_us": {"interned": 10.0},
            "full_match_us": {"with_contexts": 20.0},
        }
        baseline = {"calibration_us": 100.0, "sizes": [size]}
        report = {
            "calibration_us": 100.0,
            "sizes": [dict(size)],
            "telemetry_overhead": section(0.40),
        }
        failures = check_tracing_overhead(report, baseline, echo=None)
        assert failures == [
            "telemetry pipeline overhead 40.0% exceeds the 5% budget "
            "(recorder + SLO attached vs plain serving at 200 views)"
        ]


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
