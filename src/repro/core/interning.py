"""Key-atom interning and the packed row tables the filter tree sweeps.

A :class:`KeyInterner` assigns each distinct key atom -- a tagged column
key or expression template -- one bit position, so a set of atoms is a
single (arbitrary-precision) integer and an intersection test is one
``a & b``. The packed filter tree keeps each view's output-column and
grouping-column keys as interned masks and tests the query's per-item
requirements against them.

Two access modes matter for the concurrent serving layer:

* **Interning** (``mask``) assigns fresh bits to unseen atoms. It runs on
  the registration path only, which the serving layer serializes under its
  writer lock.
* **Lookup** (``known_bit``) never mutates: query-side probes are encoded
  against the bits already assigned. A probe atom the interner has never
  seen occurs in no registered key, so dropping it is exact. Keeping the
  read path mutation-free means unbounded query diversity cannot grow the
  interner, and lock-free readers race only against GIL-atomic dict reads.

The serving layer's :class:`~repro.service.snapshot.SnapshotManager`
shares a single interner across all epoch rebuilds, so bit assignments
(and the masks kept in registered views' packed rows) survive snapshot
churn.

:class:`PackedBitsetTable` stores fixed-width rows contiguously and
sweeps them in bulk (see its docstring).
"""

from __future__ import annotations

import os
from typing import Hashable, Iterable

try:  # pragma: no cover - exercised via both CI matrix legs
    import numpy as _numpy
except ImportError:  # pragma: no cover
    _numpy = None

# ``REPRO_PACKED_BACKEND=pure`` forces the pure-python sweep kernels even
# when numpy is importable -- the cross-backend equivalence tests and the
# no-numpy CI leg rely on it. Any other value keeps the automatic choice.
if os.environ.get("REPRO_PACKED_BACKEND", "").strip().lower() == "pure":
    _ACTIVE_NUMPY = None
else:
    _ACTIVE_NUMPY = _numpy

#: Name of the sweep backend compiled into new :class:`PackedBitsetTable`
#: instances -- recorded in benchmark reports so numbers are comparable.
PACKED_BACKEND = "packed-numpy" if _ACTIVE_NUMPY is not None else "packed-pure"

__all__ = ["KeyInterner", "PackedBitsetTable", "PACKED_BACKEND", "packed_backend_name"]


def packed_backend_name() -> str:
    """The active sweep backend (``packed-numpy`` or ``packed-pure``)."""
    return PACKED_BACKEND


class KeyInterner:
    """Assigns each distinct hashable atom a single-bit integer mask."""

    __slots__ = ("_bits",)

    def __init__(self) -> None:
        self._bits: dict[Hashable, int] = {}

    def __len__(self) -> int:
        """Number of distinct atoms interned so far."""
        return len(self._bits)

    def __contains__(self, atom: Hashable) -> bool:
        return atom in self._bits

    def mask(self, atoms: Iterable[Hashable]) -> int:
        """The bitmask of ``atoms``, interning any not yet seen.

        Registration-side only: callers must serialize interning writes
        (the filter tree mutators and the serving layer's intern lock do).
        """
        bits = self._bits
        encoded = 0
        for atom in atoms:
            bit = bits.get(atom)
            if bit is None:
                bit = 1 << len(bits)
                bits[atom] = bit
            encoded |= bit
        return encoded

    def known_bit(self, atom: Hashable) -> int:
        """The atom's bit, or 0 when it was never interned (read-only)."""
        return self._bits.get(atom, 0)


class PackedBitsetTable:
    """Fixed-width bitmask rows stored contiguously, swept in bulk.

    One table holds the per-view masks of one filter-tree level (or the
    fused masks of several mask-only levels): row ``i`` is an integer whose
    bits are locally-allocated atom positions (:meth:`alloc_bit`). The
    query side asks one question -- *which rows satisfy*
    ``(row ^ flip) & query == 0`` -- which expresses subset tests
    (``query`` = complement of the probe over the level's allocated bits)
    and superset tests (``flip`` over the level's bits turns "probe atom
    missing from row" into a hit) in the same kernel, so one sweep answers
    an entire level for every registered view.

    Two backends produce **identical results from identical bytes**: the
    canonical packed representation is a little-endian byte string of
    ``words`` 64-bit words per row (the top bit of the last word is a
    guard, always zero in stored rows).

    * ``packed-numpy``: the bytes are wrapped zero-copy in a read-only
      ``(rows, words)`` uint64 matrix; one vectorized compare per sweep.
    * ``packed-pure``: the bytes become one arbitrary-precision integer
      (``int.from_bytes``); a sweep is five full-width integer operations
      -- XOR flip, AND probe, a guard-carry add that sets each row's guard
      bit iff the row failed, and the guard extraction -- all C loops
      inside CPython, so the python-level work is O(survivors), not
      O(rows).

    Mutations (``append`` / ``pop`` / ``alloc_bit``) only touch the
    canonical per-row mask list and mark the packed form dirty; it is
    rebuilt lazily before the next sweep. :meth:`snapshot` shares both the
    mask list and the packed buffers copy-on-write, which is what lets an
    epoch rebuild start from the previous snapshot's table without
    copying a byte.
    """

    __slots__ = (
        "_use_numpy",
        "_rows",
        "_bit_count",
        "_words",
        "_flip_mask",
        "_shared_rows",
        "_dirty",
        "_data",
        "_matrix",
        "_blob",
        "_flip_rep",
        "_ones_rep",
        "_guard_rep",
        "_total_mask",
        "generation",
        "__weakref__",
    )

    def __init__(self, backend: str | None = None) -> None:
        """``backend`` forces ``"numpy"`` or ``"pure"`` (tests); ``None``
        selects the module default (:data:`PACKED_BACKEND`)."""
        if backend is None:
            self._use_numpy = _ACTIVE_NUMPY is not None
        elif backend == "numpy":
            if _numpy is None:
                raise RuntimeError("numpy backend requested but numpy is absent")
            self._use_numpy = True
        elif backend == "pure":
            self._use_numpy = False
        else:
            raise ValueError(f"unknown packed backend {backend!r}")
        self._rows: list[int] = []
        self._bit_count = 0
        self._words = 1
        self._flip_mask = 0
        self._shared_rows = False
        self._dirty = True
        self._data = b""
        self._matrix = None
        self._blob = 0
        self._flip_rep = 0
        self._ones_rep = 0
        self._guard_rep = 0
        self._total_mask = 0
        #: Monotone mutation counter: a prepared query records it and
        #: :meth:`sweep` refuses one prepared before a mutation.
        self.generation = 0

    # -- shape ----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._rows)

    @property
    def backend(self) -> str:
        return "packed-numpy" if self._use_numpy else "packed-pure"

    @property
    def words(self) -> int:
        """64-bit words per row in the packed representation."""
        return self._words

    @property
    def width_bits(self) -> int:
        """Distinct bit positions allocated so far."""
        return self._bit_count

    @property
    def nbytes(self) -> int:
        """Bytes of the packed representation (current row count x width)."""
        return len(self._rows) * self._words * 8

    def row_masks(self) -> list[int]:
        """The canonical per-row masks (shared list -- do not mutate)."""
        return self._rows

    def packed_bytes(self) -> bytes:
        """The packed little-endian byte image (identical across backends)."""
        self._ensure_packed()
        data = self._data
        return data if isinstance(data, bytes) else bytes(data)

    # -- mutation (registration side; callers serialize) ----------------------

    def _own_rows(self) -> None:
        if self._shared_rows:
            self._rows = list(self._rows)
            self._shared_rows = False

    def alloc_bit(self, flip: bool = False) -> int:
        """Allocate the next bit position; returns its single-bit mask.

        ``flip=True`` marks the bit as superset-sense: stored rows keep the
        positive atom, the sweep kernel complements it. Widening past the
        current word count (one bit per word is reserved as the pure
        backend's guard) forces a repack on the next sweep.
        """
        usable = self._words * 64 - 1
        if self._bit_count >= usable:
            self._words += 1
        bit = 1 << self._bit_count
        self._bit_count += 1
        if flip:
            self._flip_mask |= bit
        self._dirty = True
        self.generation += 1
        return bit

    def append(self, mask: int) -> int:
        """Add one row; returns its row index."""
        self._own_rows()
        self._rows.append(mask)
        self._dirty = True
        self.generation += 1
        return len(self._rows) - 1

    def pop(self, row: int) -> int | None:
        """Swap-remove ``row``; returns the old index of the row moved into
        its place (``None`` when the last row was removed).

        Swap-remove is safe for the filter tree because candidate lists are
        sorted by registration order after collection -- internal row order
        carries no contract.
        """
        self._own_rows()
        rows = self._rows
        last = rows.pop()
        self._dirty = True
        self.generation += 1
        if row == len(rows):
            return None
        rows[row] = last
        return len(rows)

    # -- packing --------------------------------------------------------------

    def _ensure_packed(self) -> None:
        if not self._dirty:
            return
        words = self._words
        row_bytes = words * 8
        data = b"".join(
            mask.to_bytes(row_bytes, "little") for mask in self._rows
        )
        self._data = data
        count = len(self._rows)
        if self._use_numpy:
            self._matrix = _numpy.frombuffer(data, dtype="<u8").reshape(
                count, words
            )
        else:
            stride = row_bytes * 8
            self._blob = int.from_bytes(data, "little")
            self._total_mask = (1 << (stride * count)) - 1 if count else 0
            self._flip_rep = self._replicate(self._flip_mask, count)
            self._ones_rep = self._replicate((1 << (stride - 1)) - 1, count)
            self._guard_rep = self._replicate(1 << (stride - 1), count)
        self._dirty = False

    def _replicate(self, lane: int, count: int) -> int:
        """``lane`` copied into every row slot (log-doubling shifts)."""
        if count == 0 or lane == 0:
            return 0
        stride = self._words * 64
        value = lane
        filled = 1
        while filled < count:
            value |= value << (stride * filled)
            filled *= 2
        return value & self._total_mask

    # -- sweeping (query side, read-only) -------------------------------------

    def prepare(self, query_mask: int, flip_mask: int | None = None) -> tuple:
        """Compile ``query_mask`` for repeated sweeps against this table.

        ``flip_mask`` overrides the table's per-bit flip sense for this
        query (``None`` keeps the allocation-time default); only its
        intersection with ``query_mask`` matters to the kernel. The pure
        backend replicates the probe into every row lane (a handful of
        large shifts); callers cache the result keyed on
        :attr:`generation` so steady-state sweeps skip it.
        """
        self._ensure_packed()
        flip = (self._flip_mask if flip_mask is None else flip_mask) & query_mask
        if self._use_numpy:
            words = self._words
            if words == 1:
                return (
                    self.generation,
                    _numpy.uint64(query_mask),
                    _numpy.uint64(flip),
                )
            qvec = _numpy.empty(words, dtype=_numpy.uint64)
            fvec = _numpy.empty(words, dtype=_numpy.uint64)
            for word in range(words):
                qvec[word] = (query_mask >> (word * 64)) & 0xFFFFFFFFFFFFFFFF
                fvec[word] = (flip >> (word * 64)) & 0xFFFFFFFFFFFFFFFF
            return (self.generation, qvec, fvec)
        return (
            self.generation,
            self._replicate(query_mask, len(self._rows)),
            self._replicate(flip, len(self._rows)),
        )

    def sweep(self, prepared: tuple) -> list[int]:
        """Row indices where ``(row ^ flip) & query == 0``, ascending."""
        if not self._rows:
            return []
        self._ensure_packed()
        generation, query, flip = prepared
        if generation != self.generation:
            raise ValueError("stale prepared query (table mutated)")
        if self._use_numpy:
            matrix = self._matrix
            if self._words == 1:
                # ``prepare`` keeps ``flip`` inside ``query``, so a row
                # passes iff its bits under ``query`` equal ``flip``: two
                # array passes instead of three.
                return ((matrix.reshape(-1) & query) == flip).nonzero()[0].tolist()
            # Word by word into one row vector: a 2-D ``any(axis=1)``
            # reduction over uint64 costs ten times as much.
            misses = (matrix[:, 0] ^ flip[0]) & query[0]
            for word in range(1, self._words):
                misses |= (matrix[:, word] ^ flip[word]) & query[word]
            return (misses == 0).nonzero()[0].tolist()
        # Pure backend: one failed row sets its guard bit via the lane-local
        # carry of ``miss + (2**(stride-1) - 1)``; surviving rows are the
        # guard bytes left at zero. All full-width operations below run in
        # C; the python loop is over survivors only.
        misses = (self._blob ^ flip) & query
        guards = (misses + self._ones_rep) & self._guard_rep
        passed = guards ^ self._guard_rep
        if not passed:
            return []
        step = self._words * 8
        image = passed.to_bytes(step * len(self._rows), "little")
        find = image.find
        out: list[int] = []
        position = find(0x80)
        while position != -1:
            out.append(position // step)
            position = find(0x80, position + 1)
        return out

    def sweep_mask(self, query_mask: int, flip_mask: int | None = None) -> list[int]:
        """One-shot :meth:`prepare` + :meth:`sweep`."""
        return self.sweep(self.prepare(query_mask, flip_mask))

    # -- copy-on-write snapshots ----------------------------------------------

    def snapshot(self) -> "PackedBitsetTable":
        """A table sharing this one's rows and packed buffers.

        Both tables mark the row list shared; whichever mutates first
        copies it (O(rows) pointer copy). The packed byte image is
        immutable and simply carried over, so an epoch rebuild that leaves
        a table untouched reuses the previous epoch's backing array as-is.
        """
        clone = PackedBitsetTable.__new__(PackedBitsetTable)
        clone._use_numpy = self._use_numpy
        self._shared_rows = True
        clone._rows = self._rows
        clone._shared_rows = True
        clone._bit_count = self._bit_count
        clone._words = self._words
        clone._flip_mask = self._flip_mask
        clone._dirty = self._dirty
        clone._data = self._data
        clone._matrix = self._matrix
        clone._blob = self._blob
        clone._flip_rep = self._flip_rep
        clone._ones_rep = self._ones_rep
        clone._guard_rep = self._guard_rep
        clone._total_mask = self._total_mask
        clone.generation = self.generation
        return clone

    def shares_buffer_with(self, other: "PackedBitsetTable") -> bool:
        """Whether both tables currently serve from the same packed bytes
        (diagnostic for the copy-on-write tests)."""
        return (
            not self._dirty
            and not other._dirty
            and self._data is other._data
        )

    def adopt_buffer(self, buffer) -> None:
        """Re-point the packed image at an externally owned buffer.

        ``buffer`` (a writable or read-only buffer, normally a
        ``multiprocessing.shared_memory`` view) must already hold exactly
        this table's packed bytes; the serving tier copies
        :meth:`packed_bytes` into a shared segment, adopts it here, and
        forks -- workers then sweep the one physical copy instead of each
        holding a COW duplicate of the row image. The buffer is only read,
        never written. Any later mutation marks the table dirty and the
        next :meth:`_ensure_packed` rebuilds a private byte image,
        automatically un-sharing this table from the segment.
        """
        self._ensure_packed()
        view = memoryview(buffer).cast("B")
        if len(view) != len(self._data):
            raise ValueError(
                f"buffer holds {len(view)} bytes, table packs "
                f"{len(self._data)}"
            )
        if view != self._data:
            raise ValueError("buffer content differs from the packed image")
        self._data = view
        if self._use_numpy and self._rows:
            self._matrix = _numpy.frombuffer(view, dtype="<u8").reshape(
                len(self._rows), self._words
            )
