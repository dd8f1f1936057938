"""Sharded filter trees: partitioning the view catalog for parallel matching.

A :class:`ShardedFilterTree` splits the registered views across several
independent :class:`~repro.core.filtertree.FilterTree` instances that share
one :class:`~repro.core.interning.KeyInterner` (one compiled probe serves
every shard). Shard assignment hashes the view *name* (CRC-32, stable
across processes and runs). Sharding is a :class:`ViewMatcher`-level
fan-out only (``ViewMatcher(shard_count=)`` / ``match(workers=)``); the
serving layer's epochs hold one copy-on-write tree.

Candidate semantics are identical to a single tree: the per-shard
candidate lists are merged in global registration order, so matching
visits views in the same order regardless of shard count or worker count
-- the property the parallel-equivalence tests pin down. A search records
one tracing span per non-empty shard (``filter.shard``), which is how the
per-shard work distribution becomes observable.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Iterable
from zlib import crc32

from ..obs.telemetry import telemetry_hub
from ..obs.trace import current_tracer
from .filtertree import FilterTree, RegisteredView
from .interning import KeyInterner
from .options import DEFAULT_OPTIONS, MatchOptions

if TYPE_CHECKING:
    from .describe import SpjgDescription

__all__ = ["DEFAULT_SHARD_COUNT", "ShardedFilterTree", "shard_index"]

DEFAULT_SHARD_COUNT = 4


def shard_index(name: str, shard_count: int) -> int:
    """Stable shard assignment by view name (CRC-32, process-independent)."""
    return crc32(name.encode("utf-8")) % shard_count


class ShardedFilterTree:
    """Several filter trees behind the single-tree interface.

    Duck-type compatible with :class:`FilterTree` for every operation the
    matcher and the serving layer use (register / unregister / candidates /
    views / attribution); ``shard_candidates`` additionally exposes the
    per-shard slices the parallel matcher fans out over.
    """

    def __init__(
        self,
        options: MatchOptions = DEFAULT_OPTIONS,
        shard_count: int = DEFAULT_SHARD_COUNT,
        interner: KeyInterner | None = None,
        use_interning: bool = True,
    ):
        if shard_count < 1:
            raise ValueError("shard_count must be at least 1")
        if interner is None and use_interning:
            interner = KeyInterner()
        self.options = options
        self.interner = interner
        # Sink for per-shard filter timings on traced searches; the
        # owning matcher points it at its hub, ``None`` = process global.
        self.telemetry = None
        self.shards: tuple[FilterTree, ...] = tuple(
            FilterTree(options, interner=interner, use_interning=use_interning)
            for _ in range(shard_count)
        )
        # Global registration order: candidate merging and ``views()`` use
        # it so shard layout never changes observable ordering.
        self._seq: dict[str, int] = {}
        self._next_seq = 0

    # -- registration ---------------------------------------------------------

    @property
    def shard_count(self) -> int:
        return len(self.shards)

    def shard_for(self, name: str) -> int:
        """Stable shard assignment by view name (CRC-32)."""
        return shard_index(name, len(self.shards))

    def __len__(self) -> int:
        return len(self._seq)

    def register(self, description: "SpjgDescription") -> RegisteredView:
        if description.name is None:
            raise ValueError("only named views can be registered")
        view = self.shards[self.shard_for(description.name)].register(description)
        self._seq[view.name] = self._next_seq
        self._next_seq += 1
        return view

    def register_prebuilt(self, view: RegisteredView) -> RegisteredView:
        name = view.description.name
        if name is None:
            raise ValueError("only named views can be registered")
        self.shards[self.shard_for(name)].register_prebuilt(view)
        self._seq[name] = self._next_seq
        self._next_seq += 1
        return view

    def unregister(self, name: str) -> None:
        if name not in self._seq:
            raise KeyError(f"view {name} not registered")
        self.shards[self.shard_for(name)].unregister(name)
        del self._seq[name]

    def views(self) -> tuple[RegisteredView, ...]:
        """All registered views, in global registration order."""
        ordered = sorted(self._seq.items(), key=lambda item: item[1])
        return tuple(
            self.shards[self.shard_for(name)].view(name) for name, _ in ordered
        )

    def view(self, name: str) -> RegisteredView | None:
        """The registered view under ``name`` (None when absent)."""
        return self.shards[self.shard_for(name)].view(name)

    # -- searching ------------------------------------------------------------

    def shard_candidates(
        self, query: "SpjgDescription", shard_indices: Iterable[int]
    ) -> list[tuple[int, RegisteredView]]:
        """``(registration_seq, view)`` candidates of the given shards.

        The building block of both the merged sequential search and the
        parallel fan-out (each worker passes its assigned shard indices).
        Pairs are unsorted; callers order by sequence number.
        """
        compiled = self.shards[0].compile_probe(query)
        tracer = current_tracer()
        seq = self._seq
        pairs: list[tuple[int, RegisteredView]] = []
        for index in shard_indices:
            shard = self.shards[index]
            if not len(shard):
                continue
            started = time.perf_counter() if tracer.active else 0.0
            found: list[RegisteredView] = []
            shard.collect_candidates(compiled, found, query.is_aggregate)
            if tracer.active:
                elapsed = time.perf_counter() - started
                tracer.record_span(
                    "filter.shard",
                    elapsed,
                    shard=index,
                    views=len(shard),
                    candidates=len(found),
                )
                # Reuse the traced timing for the shard-skew sketch:
                # untraced searches pay nothing extra here.
                hub = (
                    self.telemetry
                    if self.telemetry is not None
                    else telemetry_hub()
                )
                hub.record("filter_shard_seconds", elapsed)
                hub.increment("filter_shard_probes")
            pairs.extend((seq[view.name], view) for view in found)
        return pairs

    def candidates(self, query: "SpjgDescription") -> list[RegisteredView]:
        """Views passing all filter conditions, in registration order."""
        pairs = self.shard_candidates(query, range(len(self.shards)))
        pairs.sort(key=lambda pair: pair[0])
        found = [view for _, view in pairs]
        tracer = current_tracer()
        if tracer.active:
            tracer.on_filter_tree(self, query, found)
        return found

    def packed_tables(self):
        """Every shard's packed row tables, in shard order (may be empty)."""
        return tuple(
            table
            for shard in self.shards
            for table in shard.packed_tables()
        )

    # -- diagnostics ----------------------------------------------------------

    def lattice_node_count(self) -> int:
        return sum(shard.lattice_node_count() for shard in self.shards)

    def level_attribution(
        self, query: "SpjgDescription"
    ) -> list[tuple[str, int, int, tuple[str, ...]]]:
        """Merged per-level narrowing attribution across all shards."""
        per_shard = [
            shard.level_attribution(query)
            for shard in self.shards
            if len(shard)
        ]
        if not per_shard:
            return []
        merged: list[tuple[str, int, int, tuple[str, ...]]] = []
        for rows in zip(*per_shard):
            name = rows[0][0]
            entering = sum(row[1] for row in rows)
            survivors = sum(row[2] for row in rows)
            pruned = tuple(
                sorted(name for row in rows for name in row[3])
            )
            merged.append((name, entering, survivors, pruned))
        return merged

    def filter_statistics(self, query: "SpjgDescription") -> list[tuple[str, int]]:
        attribution = self.level_attribution(query)
        registered = attribution[0][1] if attribution else len(self)
        statistics: list[tuple[str, int]] = [("registered", registered)]
        statistics.extend(
            (name, survivors) for name, _, survivors, _ in attribution
        )
        return statistics
