"""The rewrite cache: fingerprint-keyed, epoch-validated, LRU-bounded.

Entries map a canonical query fingerprint to the
:class:`~repro.optimizer.optimizer.OptimizationResult` produced for it,
stamped with the epoch it was computed under. The serving layer inserts
results rebuilt from compact frames (scalars plus the plan's pickle,
:meth:`~repro.optimizer.optimizer.OptimizationResult.from_frame`), so an
entry holds no plan node until something reads its ``plan``.
Invalidation is two-tier:

* **wholesale on epoch bump** -- a lookup passes the reader's current
  epoch; an entry computed under any other epoch is treated as a miss and
  dropped, so a stale rewrite (one that uses a dropped view, or misses a
  newly profitable one) is never served. ``purge_stale`` sweeps eagerly.
* **per-entry on view staleness** -- ``invalidate_views`` evicts every
  entry whose result reads one of the named views; the serving layer
  wires it to the CDC applier's merges
  (:meth:`~repro.service.server.ViewServer.attach_cdc`).

The hit path is deliberately lock-free: an ``OrderedDict`` probe, an
epoch comparison, and a C-level ``move_to_end`` recency stamp -- each a
single operation the GIL keeps coherent. Only mutation (insert,
eviction, invalidation) takes the writer lock, and an insert past
capacity evicts the front of the order in O(1). Recency is *approximate*
LRU: a hit racing an insert may land its stamp a hair out of order -- a
deliberate trade for a zero-lock read side.

:class:`LruMemo` is the same policy without epochs, for the serving
layer's text-keyed memos (the server's text -> fingerprint memo, a pool
worker's statement memo).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable

from ..optimizer.optimizer import OptimizationResult


@dataclass(slots=True)
class _Entry:
    # ``slots=True``: the cache holds up to ``capacity`` of these for the
    # process lifetime, so the per-entry ``__dict__`` would be pure
    # resident overhead on two fixed fields.
    result: OptimizationResult
    epoch: int


@dataclass
class CacheStatistics:
    """Counters describing cache effectiveness; read via ``snapshot()``."""

    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0
    epoch_invalidations: int = 0
    view_invalidations: int = 0

    @property
    def hit_rate(self) -> float:
        """Hits over lookups; 0.0 before any lookup."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def snapshot(self) -> dict:
        """A plain-dict copy of the counters plus the derived hit rate."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "insertions": self.insertions,
            "evictions": self.evictions,
            "epoch_invalidations": self.epoch_invalidations,
            "view_invalidations": self.view_invalidations,
        }


class RewriteCache:
    """Bounded cache of optimization results keyed by query fingerprint."""

    def __init__(self, capacity: int = 1024):
        if capacity < 1:
            raise ValueError("cache capacity must be positive")
        self.capacity = capacity
        self.statistics = CacheStatistics()
        # Least recently used first: a hit moves its key to the end.
        self._entries: OrderedDict[str, _Entry] = OrderedDict()
        self._write_lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    # -- reader hot path (no locks) -----------------------------------------

    def get(self, fingerprint: str, epoch: int) -> OptimizationResult | None:
        """Look up a cached result valid for ``epoch``, or ``None``.

        An entry stamped with a different epoch is dropped and reported as
        a miss: after a view registration or drop the whole prior
        generation of rewrites is unservable.
        """
        entry = self._entries.get(fingerprint)
        if entry is None:
            self.statistics.misses += 1
            return None
        if entry.epoch != epoch:
            self._entries.pop(fingerprint, None)
            self.statistics.epoch_invalidations += 1
            self.statistics.misses += 1
            return None
        try:
            self._entries.move_to_end(fingerprint)
        except KeyError:
            # A concurrent eviction raced the recency stamp; the entry
            # we already read is still valid for this epoch.
            pass
        self.statistics.hits += 1
        return entry.result

    # -- writer side ---------------------------------------------------------

    def put(
        self, fingerprint: str, epoch: int, result: OptimizationResult
    ) -> None:
        """Insert a result computed under ``epoch``, evicting LRU overflow."""
        with self._write_lock:
            entries = self._entries
            entries[fingerprint] = _Entry(result=result, epoch=epoch)
            entries.move_to_end(fingerprint)
            self.statistics.insertions += 1
            while len(entries) > self.capacity:
                entries.popitem(last=False)
                self.statistics.evictions += 1

    def invalidate_views(self, view_names: Iterable[str]) -> int:
        """Evict every entry whose plan reads one of the named views.

        Returns the number of entries evicted. This is the per-entry
        staleness channel: when the CDC applier changes a view's contents,
        rewrites that read it must be recomputed (or at least re-costed),
        while entries over unaffected views stay hot.
        """
        names = frozenset(view_names)
        if not names:
            return 0
        with self._write_lock:
            # ``list()`` snapshots the order in one C call: a lock-free
            # hit may move a key while the scan runs.
            victims = [
                key
                for key, entry in list(self._entries.items())
                if names.intersection(entry.result.view_names)
            ]
            for key in victims:
                self._entries.pop(key, None)
            self.statistics.view_invalidations += len(victims)
        return len(victims)

    def purge_stale(self, epoch: int) -> int:
        """Eagerly drop every entry not stamped with ``epoch``.

        The lazy epoch check in :meth:`get` already guarantees stale
        entries are never *served*; this sweep reclaims their memory as
        soon as a new epoch is published. Returns the eviction count.
        """
        with self._write_lock:
            victims = [
                key
                for key, entry in list(self._entries.items())
                if entry.epoch != epoch
            ]
            for key in victims:
                self._entries.pop(key, None)
            self.statistics.epoch_invalidations += len(victims)
        return len(victims)

    def clear(self) -> None:
        """Drop every entry (counters are preserved)."""
        with self._write_lock:
            self._entries.clear()


class LruMemo:
    """A bounded memo with approximate LRU eviction and an eviction count.

    Replaces insert-until-full memos, whose population froze at the cap:
    a workload whose hot query shapes rotate would keep paying full
    parse/describe cost for every shape that arrived after the memo
    filled. Reads stay lock-free (an ``OrderedDict`` probe plus a C-level
    ``move_to_end`` recency stamp, coherent under the GIL the same way
    the rewrite cache's read side is); concurrent writers may transiently
    overshoot the capacity by a few entries, which the next insert's
    eviction loop reclaims.
    """

    __slots__ = ("capacity", "evictions", "_entries")

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("memo capacity must be positive")
        self.capacity = capacity
        self.evictions = 0
        self._entries: OrderedDict = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key) -> bool:
        return key in self._entries

    def __getitem__(self, key):
        # Plain read for tests/diagnostics; no recency stamp.
        return self._entries[key]

    def keys(self):
        return self._entries.keys()

    def get(self, key):
        entry = self._entries.get(key)
        if entry is not None:
            try:
                self._entries.move_to_end(key)
            except KeyError:
                # A concurrent eviction raced the recency stamp; the
                # value we already read is still valid.
                pass
        return entry

    def put(self, key, value) -> None:
        entries = self._entries
        entries[key] = value
        entries.move_to_end(key)
        while len(entries) > self.capacity:
            entries.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        """Drop every entry (the eviction count is preserved)."""
        self._entries.clear()

    def stats(self) -> dict:
        return {
            "size": len(self._entries),
            "capacity": self.capacity,
            "evictions": self.evictions,
        }


__all__ = ["CacheStatistics", "LruMemo", "RewriteCache"]
