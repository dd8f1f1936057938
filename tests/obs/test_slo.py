"""SLO tracker: classification, multi-window burn rates, export."""

import pytest

from repro.obs.slo import SloObjectives, SloTracker
from repro.obs.telemetry import render_prometheus


class FakeClock:
    def __init__(self, now: float = 1000.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def make_tracker(**overrides):
    clock = FakeClock()
    defaults = dict(
        target_p99_seconds=0.005,
        target_error_budget=0.01,
        windows_seconds=(60.0, 300.0),
    )
    defaults.update(overrides)
    return SloTracker(SloObjectives(**defaults), clock=clock), clock


class TestObjectives:
    def test_validation(self):
        with pytest.raises(ValueError):
            SloObjectives(target_p99_seconds=0.0)
        with pytest.raises(ValueError):
            SloObjectives(target_error_budget=1.5)
        with pytest.raises(ValueError):
            SloObjectives(windows_seconds=())


class TestClassification:
    def test_fast_success_is_good(self):
        tracker, _ = make_tracker()
        tracker.record(0.001)
        snap = tracker.snapshot()
        assert (snap["good"], snap["errors"], snap["slow"]) == (1, 0, 0)

    def test_slow_success_burns_budget(self):
        tracker, _ = make_tracker()
        tracker.record(0.010)
        snap = tracker.snapshot()
        assert snap["slow"] == 1
        assert snap["bad_fraction"] == 1.0

    def test_error_counts_once_even_when_slow(self):
        tracker, _ = make_tracker()
        tracker.record(0.010, error=True)
        snap = tracker.snapshot()
        assert (snap["errors"], snap["slow"]) == (1, 0)


class TestBurnRates:
    def test_burning_exactly_at_budget_is_one(self):
        tracker, _ = make_tracker(target_error_budget=0.01)
        for _ in range(99):
            tracker.record(0.001)
        tracker.record(0.001, error=True)
        for rate in tracker.burn_rates().values():
            assert rate == pytest.approx(1.0)

    def test_all_bad_burns_at_inverse_budget(self):
        tracker, _ = make_tracker(target_error_budget=0.01)
        tracker.record(0.1)
        assert tracker.burn_rates()[60.0] == pytest.approx(100.0)

    def test_no_traffic_reports_zero(self):
        tracker, _ = make_tracker()
        assert tracker.burn_rates() == {60.0: 0.0, 300.0: 0.0}

    def test_short_window_recovers_before_long_window(self):
        tracker, clock = make_tracker(target_error_budget=0.01)
        tracker.record(0.001, error=True)
        clock.advance(70.0)
        tracker.record(0.001)
        rates = tracker.burn_rates()
        # The error aged out of the 60 s window but not the 300 s one.
        assert rates[60.0] == 0.0
        assert rates[300.0] == pytest.approx(50.0)

    def test_ring_drops_buckets_past_the_longest_window(self):
        tracker, clock = make_tracker()
        for _ in range(400):
            tracker.record(0.001)
            clock.advance(5.0)
        assert len(tracker._buckets) <= tracker._max_buckets
        # Lifetime totals survive bucket eviction.
        assert tracker.snapshot()["requests"] == 400


class TestExport:
    def test_snapshot_shape(self):
        tracker, _ = make_tracker()
        tracker.record(0.001)
        tracker.record(0.02)
        snap = tracker.snapshot()
        assert snap["requests"] == 2
        assert snap["bad_fraction"] == pytest.approx(0.5)
        assert snap["objectives"]["target_p99_seconds"] == 0.005
        assert set(snap["burn_rates"]) == {"60", "300"}

    def test_snapshot_renders_prometheus_lines(self):
        tracker, _ = make_tracker()
        tracker.record(0.001)
        tracker.record(0.001, error=True)
        text = render_prometheus({"slo": tracker.snapshot()}, prefix="repro")
        assert "repro_slo_requests_total 2" in text
        assert "repro_slo_bad_total 1" in text
        assert 'repro_slo_burn_rate{window_seconds="60"}' in text
        assert 'repro_slo_burn_rate{window_seconds="300"}' in text
        assert text.endswith("\n")
