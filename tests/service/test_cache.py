"""Rewrite-cache unit tests: LRU bounds, epoch and view invalidation."""

import itertools
import random

import pytest

from repro.optimizer.optimizer import OptimizationResult
from repro.service import RewriteCache


def result(*views: str) -> OptimizationResult:
    return OptimizationResult(
        plan=None,
        cost=1.0,
        uses_view=bool(views),
        view_names=tuple(views),
        invocations=0,
        substitutes_produced=0,
        candidates_considered=0,
        optimize_seconds=0.0,
        matching_seconds=0.0,
    )


class TestBasics:
    def test_miss_then_hit(self):
        cache = RewriteCache(capacity=4)
        assert cache.get("q1", epoch=1) is None
        r = result("v1")
        cache.put("q1", epoch=1, result=r)
        assert cache.get("q1", epoch=1) is r
        stats = cache.statistics
        assert stats.hits == 1
        assert stats.misses == 1
        assert stats.hit_rate == pytest.approx(0.5)

    def test_put_overwrites(self):
        cache = RewriteCache(capacity=4)
        cache.put("q1", epoch=1, result=result("v1"))
        replacement = result("v2")
        cache.put("q1", epoch=1, result=replacement)
        assert cache.get("q1", epoch=1) is replacement
        assert len(cache) == 1

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            RewriteCache(capacity=0)

    def test_clear_preserves_counters(self):
        cache = RewriteCache(capacity=4)
        cache.put("q1", epoch=1, result=result())
        cache.get("q1", epoch=1)
        cache.clear()
        assert len(cache) == 0
        assert cache.statistics.hits == 1
        assert cache.statistics.insertions == 1


class TestLru:
    def test_overflow_evicts_least_recently_used(self):
        cache = RewriteCache(capacity=3)
        for key in ("q1", "q2", "q3"):
            cache.put(key, epoch=1, result=result())
        cache.get("q1", epoch=1)  # refresh q1: q2 is now oldest
        cache.put("q4", epoch=1, result=result())
        assert cache.get("q2", epoch=1) is None
        assert cache.get("q1", epoch=1) is not None
        assert cache.get("q3", epoch=1) is not None
        assert cache.get("q4", epoch=1) is not None
        assert cache.statistics.evictions == 1
        assert len(cache) == 3

    def test_size_never_exceeds_capacity(self):
        cache = RewriteCache(capacity=5)
        for i in range(50):
            cache.put(f"q{i}", epoch=1, result=result())
            assert len(cache) <= 5

    def test_evicts_like_the_stamp_sorting_policy(self):
        """A hot-shaped trace (Zipf draws over 4x the capacity, a put on
        every miss) evicts the same keys in the same order as the policy
        it replaced: stamp every access, sort by stamp on overflow."""
        rng = random.Random(11)
        capacity, population = 64, 256
        weights = [1.0 / rank**1.1 for rank in range(1, population + 1)]
        draws = rng.choices(range(population), weights=weights, k=5000)
        cache = RewriteCache(capacity=capacity)
        stamps: dict[str, int] = {}
        clock = itertools.count()
        evicted, expected = [], []
        for draw in draws:
            key = f"q{draw}"
            if key in stamps:
                stamps[key] = next(clock)
            if cache.get(key, epoch=1) is not None:
                continue
            before = set(cache._entries)
            cache.put(key, epoch=1, result=result())
            evicted += sorted(before - set(cache._entries))
            stamps[key] = next(clock)
            if len(stamps) > capacity:
                oldest = min(stamps, key=stamps.__getitem__)
                del stamps[oldest]
                expected.append(oldest)
        assert len(expected) > 1000
        assert evicted == expected
        assert cache.statistics.evictions == len(expected)


class TestEpochInvalidation:
    def test_stale_epoch_is_miss_and_dropped(self):
        cache = RewriteCache(capacity=4)
        cache.put("q1", epoch=1, result=result("v1"))
        assert cache.get("q1", epoch=2) is None
        assert cache.statistics.epoch_invalidations == 1
        assert len(cache) == 0
        # And a subsequent lookup at the old epoch cannot resurrect it.
        assert cache.get("q1", epoch=1) is None

    def test_purge_stale_sweeps_old_generation(self):
        cache = RewriteCache(capacity=8)
        cache.put("q1", epoch=1, result=result())
        cache.put("q2", epoch=1, result=result())
        cache.put("q3", epoch=2, result=result())
        assert cache.purge_stale(epoch=2) == 2
        assert len(cache) == 1
        assert cache.get("q3", epoch=2) is not None
        assert cache.statistics.epoch_invalidations == 2


class TestViewInvalidation:
    def test_only_entries_reading_named_views_evicted(self):
        cache = RewriteCache(capacity=8)
        cache.put("q1", epoch=1, result=result("v1"))
        cache.put("q2", epoch=1, result=result("v2"))
        cache.put("q3", epoch=1, result=result("v1", "v2"))
        cache.put("q4", epoch=1, result=result())  # no views: never evicted
        assert cache.invalidate_views(["v1"]) == 2
        assert cache.get("q1", epoch=1) is None
        assert cache.get("q3", epoch=1) is None
        assert cache.get("q2", epoch=1) is not None
        assert cache.get("q4", epoch=1) is not None
        assert cache.statistics.view_invalidations == 2

    def test_empty_name_set_is_noop(self):
        cache = RewriteCache(capacity=4)
        cache.put("q1", epoch=1, result=result("v1"))
        assert cache.invalidate_views([]) == 0
        assert len(cache) == 1
