"""DDSketch: relative-error guarantee, lossless merge, bounded memory."""

import json
import math
import random

import pytest

from repro.obs.sketch import DDSketch


def true_percentile(samples, q):
    ordered = sorted(samples)
    rank = max(0, math.ceil(q * len(ordered)) - 1)
    return ordered[rank]


class TestAccuracy:
    def test_percentiles_within_relative_error(self):
        rng = random.Random(11)
        samples = [rng.lognormvariate(-7.0, 1.5) for _ in range(5000)]
        sketch = DDSketch(relative_accuracy=0.01)
        for value in samples:
            sketch.record(value)
        for q in (0.5, 0.75, 0.9, 0.99, 0.999):
            truth = true_percentile(samples, q)
            estimate = sketch.percentile(q)
            assert abs(estimate - truth) / truth <= 0.011

    def test_quantile_outside_unit_interval_is_rejected(self):
        sketch = DDSketch()
        for value in range(1, 101):
            sketch.record(value / 1000.0)
        assert sketch.percentile(0.0) == 0.001
        assert sketch.percentile(1.0) == pytest.approx(0.1, rel=0.011)
        for q in (-0.01, 1.01, 2, 90):
            with pytest.raises(ValueError):
                sketch.percentile(q)
        with pytest.raises(ValueError):
            DDSketch().percentile(50)

    def test_min_max_mean_exact(self):
        sketch = DDSketch()
        for value in (0.004, 0.001, 0.009):
            sketch.record(value)
        assert sketch.minimum == 0.001
        assert sketch.maximum == 0.009
        assert sketch.mean == pytest.approx(0.014 / 3)

    def test_single_value_percentiles_clamp_exact(self):
        sketch = DDSketch()
        sketch.record(0.0042)
        for q in (0.01, 0.5, 0.99):
            assert sketch.percentile(q) == 0.0042

    def test_negative_values_clamp_to_zero(self):
        sketch = DDSketch()
        sketch.record(-5.0)
        assert sketch.count == 1
        assert sketch.percentile(0.5) == 0.0

    def test_zero_values_land_in_zero_bucket(self):
        sketch = DDSketch()
        for _ in range(9):
            sketch.record(0.0)
        sketch.record(1.0)
        assert sketch.percentile(0.5) == 0.0
        assert sketch.percentile(0.99) == pytest.approx(1.0, rel=0.011)

    def test_empty_sketch(self):
        sketch = DDSketch()
        assert sketch.count == 0
        assert sketch.percentile(0.99) == 0.0
        assert sketch.snapshot()["count"] == 0

    def test_weighted_record(self):
        sketch = DDSketch()
        sketch.record(0.001, weight=99)
        sketch.record(1.0, weight=1)
        assert sketch.count == 100
        assert sketch.percentile(0.5) < 0.01
        assert sketch.percentile(1.0) == pytest.approx(1.0, rel=0.011)
        sketch.record(5.0, weight=0)  # non-positive weight: no-op
        assert sketch.count == 100


class TestMerge:
    def test_merge_is_lossless(self):
        # The pipeline's core property: merging per-worker sketches
        # yields the same buckets as one sketch over all the samples.
        rng = random.Random(3)
        samples = [rng.lognormvariate(-6.0, 1.0) for _ in range(2000)]
        whole = DDSketch()
        parts = [DDSketch() for _ in range(4)]
        for index, value in enumerate(samples):
            whole.record(value)
            parts[index % 4].record(value)
        merged = DDSketch()
        merged.merged(parts)
        assert merged.count == whole.count
        assert merged._buckets == whole._buckets
        assert merged.minimum == whole.minimum
        assert merged.maximum == whole.maximum
        for q in (0.5, 0.9, 0.99):
            assert merged.percentile(q) == whole.percentile(q)

    def test_merge_empty_is_noop(self):
        sketch = DDSketch()
        sketch.record(1.0)
        before = sketch.to_dict()
        sketch.merge(DDSketch())
        assert sketch.to_dict() == before

    def test_merge_rejects_mismatched_accuracy(self):
        with pytest.raises(ValueError):
            DDSketch(0.01).merge(DDSketch(0.02))


class TestBoundedMemory:
    def test_bucket_count_stays_bounded(self):
        sketch = DDSketch(max_buckets=32)
        rng = random.Random(5)
        for _ in range(5000):
            sketch.record(rng.uniform(1e-6, 100.0))
        assert len(sketch._buckets) <= 32

    def test_collapse_preserves_high_quantiles(self):
        samples = [10.0 ** (i / 100.0) for i in range(-400, 401)]
        tight = DDSketch(max_buckets=64)
        for value in samples:
            tight.record(value)
        truth = true_percentile(samples, 0.99)
        assert abs(tight.percentile(0.99) - truth) / truth <= 0.011

    def test_merge_respects_bucket_bound(self):
        target = DDSketch(max_buckets=16)
        wide = DDSketch(max_buckets=2048)
        for i in range(-50, 51):
            wide.record(10.0**i if i else 1.0)
        target.merge(wide)
        assert len(target._buckets) <= 16


class TestSerialization:
    def test_round_trips_through_json(self):
        sketch = DDSketch()
        rng = random.Random(9)
        for _ in range(500):
            sketch.record(rng.expovariate(1000.0))
        wire = json.loads(json.dumps(sketch.to_dict()))
        rebuilt = DDSketch.from_dict(wire)
        assert rebuilt.count == sketch.count
        assert rebuilt._buckets == sketch._buckets
        for q in (0.5, 0.9, 0.99):
            assert rebuilt.percentile(q) == sketch.percentile(q)

    def test_empty_round_trip(self):
        rebuilt = DDSketch.from_dict(DDSketch().to_dict())
        assert rebuilt.count == 0
        assert rebuilt.percentile(0.99) == 0.0

    def test_snapshot_shape_matches_histogram(self):
        sketch = DDSketch()
        sketch.record(0.002)
        snap = sketch.snapshot()
        assert set(snap) == {
            "count", "sum", "mean", "min", "max", "p50", "p90", "p99",
        }
        assert snap["sum"] == pytest.approx(0.002)
