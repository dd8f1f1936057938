"""Per-view freshness: applied-LSN watermarks and wall-clock lag.

Every maintained view has a watermark -- the last LSN whose effects are
folded into its stored rows. Freshness is the distance between that
watermark and the log head, reported two ways: ``lag_records`` (how many
log records the view has not absorbed) and ``lag_seconds`` (how long ago
the first unabsorbed record was written -- the standard "replication
lag" estimate, which is what callers bound with ``max_staleness``).

:meth:`FreshnessTracker.bound` freezes the inputs of the verdicts for
one request into a :class:`StalenessBound`, a callable the core matcher
invokes per candidate. Freezing at creation keeps the serving hot path
lock-free and makes the policy safe to hand to any thread; each verdict
is computed on the first call that names its view.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Sequence

from .log import ChangeLog, ChangeRecord


@dataclass(frozen=True)
class ViewFreshness:
    """One view's freshness relative to the change-log head."""

    view: str
    applied_lsn: int
    head_lsn: int
    lag_seconds: float

    @property
    def lag_records(self) -> int:
        """How many log records the view has not yet absorbed."""
        return max(self.head_lsn - self.applied_lsn, 0)

    @property
    def is_fresh(self) -> bool:
        """True when the view has absorbed every logged change."""
        return self.lag_records == 0


class StalenessBound:
    """Frozen staleness verdicts for one request.

    Calling the bound with a view name returns ``None`` when the view is
    usable under the request's ``max_staleness``, or a human-readable
    detail string when it must be skipped (recorded as the ``STALE``
    reject reason in the match funnel). Views the tracker has never heard
    of -- unmanaged views -- are treated as fresh.

    Creation is O(1): the bound keeps the watermark map, the log head and
    window, and the clock instant as they were, and judges a view on the
    first call that names it (the matcher asks about a few candidates
    per request, not about every tracked view).
    """

    __slots__ = (
        "max_seconds",
        "head_lsn",
        "_applied",
        "_now",
        "_base_lsn",
        "_records",
        "_verdicts",
    )

    def __init__(
        self,
        max_seconds: float,
        head_lsn: int,
        applied: dict[str, int],
        now: float,
        base_lsn: int = 0,
        records: Sequence[ChangeRecord] = (),
    ):
        self.max_seconds = max_seconds
        self.head_lsn = head_lsn
        self._applied = applied
        self._now = now
        self._base_lsn = base_lsn
        self._records = records
        self._verdicts: dict[str, str | None] = {}

    def __call__(self, view_name: str) -> str | None:
        verdicts = self._verdicts
        if view_name in verdicts:
            return verdicts[view_name]
        verdict = verdicts[view_name] = self._verdict(view_name)
        return verdict

    def _verdict(self, view_name: str) -> str | None:
        applied = self._applied.get(view_name)
        if applied is None:
            return None
        head = self.head_lsn
        lag = max(head - applied, 0)
        if lag == 0:
            return None
        max_seconds = self.max_seconds
        if max_seconds <= 0:
            return (
                f"applied lsn {applied} trails head {head} by {lag} "
                "record(s); max_staleness=0 requires a fully applied view"
            )
        lag_seconds = 0.0
        index = applied - self._base_lsn
        if index < 0:
            # Its first unapplied record is gone, and with it the lag.
            return (
                f"records after applied lsn {applied} already truncated "
                f"(retained window starts after {self._base_lsn}); "
                "lag unknown"
            )
        if index < len(self._records):
            first = self._records[index]
            lag_seconds = max(self._now - first.timestamp, 0.0)
        if lag_seconds > max_seconds:
            return (
                f"lag {lag_seconds:.3f}s exceeds max_staleness "
                f"{max_seconds:g}s (applied lsn {applied}, head {head})"
            )
        return None

    @property
    def stale_views(self) -> frozenset[str]:
        """Names of every view this bound excludes (judges them all)."""
        return frozenset(name for name in self._applied if self(name) is not None)

    def __repr__(self) -> str:
        return (
            f"StalenessBound(max_seconds={self.max_seconds!r}, "
            f"head_lsn={self.head_lsn}, stale={sorted(self.stale_views)})"
        )


class FreshnessTracker:
    """Maps each maintained view to its applied-LSN watermark.

    Watermarks advance under the applier's control; reads take the
    tracker's lock briefly and copy, so freshness snapshots never observe
    a torn update. The tracker is deliberately ignorant of *how* views
    are maintained -- it only records watermarks against the log head.
    """

    def __init__(
        self, log: ChangeLog, clock: Callable[[], float] = time.time
    ):
        self._log = log
        self._clock = clock
        self._lock = threading.Lock()
        self._applied: dict[str, int] = {}
        # True once a bound holds ``_applied``: the next write copies it
        # first, so a bound never sees a later watermark.
        self._shared = False

    # -- watermark maintenance ----------------------------------------------

    def track(self, view: str, applied_lsn: int) -> None:
        """Record that ``view`` has absorbed every record up to the LSN."""
        with self._lock:
            self._writable()[view] = applied_lsn

    def forget(self, view: str) -> None:
        """Drop a view's watermark (no-op when untracked)."""
        with self._lock:
            self._writable().pop(view, None)

    def _writable(self) -> dict[str, int]:
        """The watermark map, copied first if a bound holds it. Caller
        holds the lock."""
        if self._shared:
            self._applied = dict(self._applied)
            self._shared = False
        return self._applied

    def applied_lsn(self, view: str) -> int | None:
        """The view's watermark, or ``None`` when untracked."""
        with self._lock:
            return self._applied.get(view)

    def tracked_views(self) -> tuple[str, ...]:
        """Names of every tracked view, sorted."""
        with self._lock:
            return tuple(sorted(self._applied))

    # -- freshness reads -----------------------------------------------------

    def freshness(self, view: str) -> ViewFreshness | None:
        """The view's current freshness, or ``None`` when untracked."""
        with self._lock:
            applied = self._applied.get(view)
        if applied is None:
            return None
        return self._freshness_of(view, applied, self._log.head_lsn)

    def all_freshness(self) -> tuple[ViewFreshness, ...]:
        """Freshness of every tracked view, sorted by name."""
        with self._lock:
            applied = dict(self._applied)
        head = self._log.head_lsn
        return tuple(
            self._freshness_of(view, lsn, head)
            for view, lsn in sorted(applied.items())
        )

    def _freshness_of(
        self, view: str, applied: int, head: int
    ) -> ViewFreshness:
        lag_seconds = 0.0
        if applied < head:
            first = self._log.first_after(applied)
            if first is not None:
                lag_seconds = max(self._clock() - first.timestamp, 0.0)
        return ViewFreshness(
            view=view,
            applied_lsn=applied,
            head_lsn=head,
            lag_seconds=lag_seconds,
        )

    # -- staleness policy ----------------------------------------------------

    def bound(self, max_seconds: float) -> StalenessBound:
        """Freeze the staleness verdicts for one ``max_staleness`` request.

        ``max_seconds=0`` demands perfect freshness: any view whose
        watermark trails the log head is excluded. A positive bound
        excludes a view only when its first unabsorbed record is older
        than the bound -- stale-but-recent views stay eligible, which is
        the whole point of bounded-staleness serving.

        O(1) in the number of tracked views: the bound shares the
        watermark map (copied by the next :meth:`track`, not here) and
        judges each view when first asked.
        """
        with self._lock:
            applied = self._applied
            self._shared = True
        base, head, records = self._log.window()
        return StalenessBound(
            max_seconds, head, applied, self._clock(), base, records
        )


__all__ = ["FreshnessTracker", "StalenessBound", "ViewFreshness"]
