"""Freshness watermarks and the bounded-staleness policy."""

import random
import sys

from repro.cdc import ChangeLog, FreshnessTracker


class FakeClock:
    def __init__(self, now=100.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def make_tracker():
    clock = FakeClock()
    log = ChangeLog(clock=clock)
    tracker = FreshnessTracker(log, clock=clock)
    return clock, log, tracker


def test_fresh_view_has_zero_lag():
    clock, log, tracker = make_tracker()
    log.append("insert", "orders", [(1,)])
    tracker.track("v", log.head_lsn)
    freshness = tracker.freshness("v")
    assert freshness.is_fresh
    assert freshness.lag_records == 0
    assert freshness.lag_seconds == 0.0
    assert tracker.freshness("unknown") is None


def test_lag_counts_records_and_ages_with_the_clock():
    clock, log, tracker = make_tracker()
    tracker.track("v", 0)
    log.append("insert", "orders", [(1,)])
    clock.advance(5.0)
    log.append("insert", "orders", [(2,)])
    freshness = tracker.freshness("v")
    assert freshness.lag_records == 2
    # Lag is measured from the *first* unabsorbed record: the view is as
    # stale as its oldest missing change, not its newest.
    assert freshness.lag_seconds == 5.0
    clock.advance(2.5)
    assert tracker.freshness("v").lag_seconds == 7.5


def test_zero_bound_excludes_any_lag():
    clock, log, tracker = make_tracker()
    tracker.track("lagging", 0)
    tracker.track("fresh", 0)
    log.append("insert", "orders", [(1,)])
    tracker.track("fresh", log.head_lsn)
    bound = tracker.bound(0)
    assert bound("fresh") is None
    detail = bound("lagging")
    assert detail is not None and "max_staleness=0" in detail
    assert bound.stale_views == frozenset({"lagging"})
    # Views the tracker never heard of are implicitly fresh.
    assert bound("unmanaged") is None


def test_positive_bound_tolerates_recent_lag():
    clock, log, tracker = make_tracker()
    tracker.track("v", 0)
    log.append("insert", "orders", [(1,)])
    clock.advance(3.0)
    assert tracker.bound(10.0)("v") is None
    clock.advance(8.0)
    detail = tracker.bound(10.0)("v")
    assert detail is not None and "exceeds max_staleness" in detail


def test_forget_drops_the_watermark():
    clock, log, tracker = make_tracker()
    tracker.track("v", 0)
    assert tracker.tracked_views() == ("v",)
    tracker.forget("v")
    assert tracker.tracked_views() == ()
    assert tracker.applied_lsn("v") is None
    tracker.forget("v")  # idempotent


def _eager_verdicts(tracker, log, max_seconds, now):
    """The verdict of every tracked view, computed the way a bound did
    before it judged lazily: one freshness record per view, formatted up
    front. The oracle for the lazy bound."""
    head = log.head_lsn
    stale = {}
    for view in tracker.tracked_views():
        applied = tracker.applied_lsn(view)
        lag = max(head - applied, 0)
        if lag == 0:
            continue
        lag_seconds = 0.0
        first = log.first_after(applied)
        if first is not None:
            lag_seconds = max(now - first.timestamp, 0.0)
        if max_seconds <= 0:
            stale[view] = (
                f"applied lsn {applied} trails head {head} by {lag} "
                "record(s); max_staleness=0 requires a fully applied view"
            )
        elif lag_seconds > max_seconds:
            stale[view] = (
                f"lag {lag_seconds:.3f}s exceeds max_staleness "
                f"{max_seconds:g}s (applied lsn {applied}, head {head})"
            )
    return stale


def test_lazy_verdicts_equal_the_eager_ones():
    rng = random.Random(7)
    for _ in range(40):
        clock, log, tracker = make_tracker()
        names = [f"v{index}" for index in range(rng.randint(1, 30))]
        for _ in range(rng.randint(0, 25)):
            clock.advance(rng.choice((0.0, 0.25, 1.0, 3.5)))
            log.append("insert", "orders", [(1,)])
        for name in names:
            if rng.random() < 0.9:
                tracker.track(name, rng.randint(0, log.head_lsn))
        if log.head_lsn and rng.random() < 0.3:
            floor = min(
                (tracker.applied_lsn(n) for n in tracker.tracked_views()),
                default=0,
            )
            log.truncate_through(floor)
        clock.advance(rng.choice((0.0, 2.0, 9.0)))
        max_seconds = rng.choice((0, 0.5, 2.0, 5.0, 30.0))
        expected = _eager_verdicts(tracker, log, max_seconds, clock.now)
        bound = tracker.bound(max_seconds)
        # Later writes and appends do not reach a bound already made.
        for name in names[: len(names) // 2]:
            tracker.track(name, log.head_lsn)
        log.append("insert", "orders", [(2,)])
        clock.advance(100.0)
        for name in rng.sample(names, len(names)) + ["unmanaged"]:
            assert bound(name) == expected.get(name)
        assert bound.stale_views == frozenset(expected)


def _python_calls(action) -> int:
    """How many Python-level function calls ``action`` makes."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(profile)
    try:
        action()
    finally:
        sys.setprofile(None)
    return calls


def test_a_bound_judges_only_the_views_asked_about():
    """Creating a bound and asking about three views costs the same
    whether ten or ten thousand views are tracked."""

    def calls_with(count: int) -> int:
        clock, log, tracker = make_tracker()
        for index in range(count):
            tracker.track(f"v{index}", 0)
        log.append("insert", "orders", [(1,)])
        clock.advance(5.0)

        def request():
            for max_seconds in (0, 1.0):
                bound = tracker.bound(max_seconds)
                for name in ("v1", "v2", "v3"):
                    assert bound(name) is not None

        return _python_calls(request)

    small = calls_with(10)
    assert calls_with(10_000) == small
    assert small < 100
