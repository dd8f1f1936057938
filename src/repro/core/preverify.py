"""Vectorized candidate pre-verification (columnar near-miss rejection).

The filter tree makes *irrelevant* views cheap to discard, but every
surviving candidate still pays a full per-candidate ``match_view`` walk --
and the funnel shows most of those walks end in RANGE or EQUIJOIN
rejection. This module extends the packed-lattice idea one level deeper:
at registration time each view's per-conjunct range intervals and
equijoin-class pair signature are compiled into columnar tables alongside
the lattice's :class:`~repro.core.interning.PackedBitsetTable`, and at
query time one vectorized sweep screens *all* surviving candidates at
once, rejecting provably-hopeless ones with the same
:class:`~repro.core.matching.RejectReason` (and identical detail string)
that ``match_view`` would produce.

Soundness contract -- **no false rejects**:

* The equijoin screen is *exact* for screened rows. With equal table sets
  the analyzer seeds every column of every referenced table, so
  ``view.eqclasses.refines(query.eqclasses)`` fails iff some same-class
  view column pair spans two query classes -- i.e. iff the view's pair
  bitmask intersects the complement of the query's pair bitmask.
* The range screen is *conservative* (per-conjunct). Each single-interval
  view range conjunct ``I`` is stored as one 5-lane slot
  ``(column id, lo, lo_rank, hi, hi_rank)``; the query side is the hull of
  its per-class interval set. ``I`` is convex, and the real per-class view
  set is the intersection of its conjuncts (a subset of ``I``), so
  ``hull(Q) not within I`` implies the real containment test fails too.
  Anything the slot encoding cannot express (multi-interval disjunctions,
  non-numeric bounds, check-constraint antecedents) degrades to
  "always passes" on the affected side, never to a reject.

Bound encoding matches ``ranges._lower_covers`` / ``_upper_covers``
exactly: a lower bound is ``(value, 0 if inclusive else 1)`` with
``(-inf, 0)`` for unbounded, and the view covers the query at the lower
end iff ``vlo < qlo or (vlo == qlo and vlo_rank <= qlo_rank)``; an upper
bound is ``(value, 1 if inclusive else 0)`` with ``(+inf, 1)`` for
unbounded and the mirrored comparison. Query-side bounds that cannot be
encoded poison their side to always-pass.

Both tables follow the ``PackedBitsetTable`` discipline: numpy and
pure-python backends produce identical results from an identical
little-endian byte image, snapshots share buffers copy-on-write, and
``packed_bytes``/``adopt_buffer`` make them shared-memory friendly so the
serving pool's forked workers sweep one physical copy.
"""

from __future__ import annotations

import struct
from typing import Iterable, Sequence

from .equivalence import ColumnKey
# Deliberately reuse the interning module's backend selection so the
# pre-verifier always sweeps on the same kernel as the packed lattice
# (REPRO_PACKED_BACKEND=pure forces both to the pure path together).
from .interning import _ACTIVE_NUMPY, PackedBitsetTable
from .matching import (
    EQUIJOIN_REJECT_DETAIL,
    MatchResult,
    RejectReason,
    STAGE_PREVERIFY,
    _query_range_sets,
    range_reject_detail,
)

__all__ = [
    "CandidatePreVerifier",
    "PackedRangeTable",
    "PreVerifierSchema",
    "QuerySignature",
]

_NEG_INF = float("-inf")
_POS_INF = float("inf")

#: Lanes per range slot: (column id, lo, lo_rank, hi, hi_rank).
SLOT_LANES = 5

#: Rows are padded to the table's slot width with a slot that covers any
#: query bounds (unbounded on both sides); the column id is immaterial
#: because the comparison passes regardless of the gathered values.
_PAD_SLOT = (0.0, _NEG_INF, 0.0, _POS_INF, 1.0)

#: Slot for an empty view-side interval set: it fails containment against
#: every encodable (non-poisoned) query side -- exactly what an empty
#: per-class view set does against a non-empty query set -- and passes
#: only against poisoned sides, where the screen falls back to the full
#: match anyway.
_EMPTY_SLOT = (0.0, _POS_INF, 0.0, _NEG_INF, 1.0)

# Exact integers beyond 2**53 do not round-trip through float64; treat
# them (and NaNs, and anything non-numeric) as unencodable.
_FLOAT_EXACT = 2 ** 53

#: Below this many screened rows the numpy sweep's fixed overhead
#: (index-array construction, gather, reduction) exceeds a direct tuple
#: walk, so :meth:`PackedRangeTable.covers` answers tiny batches on the
#: pure path even under the numpy backend. Both paths read the same
#: canonical rows, so the verdicts are identical by construction.
_SMALL_BATCH = 24


def _encode_value(value: object) -> float | None:
    """``value`` as an exactly-comparable float64, or None if impossible."""
    if isinstance(value, bool):
        return float(value)
    if isinstance(value, int):
        if -_FLOAT_EXACT <= value <= _FLOAT_EXACT:
            return float(value)
        return None
    if isinstance(value, float):
        return value if value == value else None
    return None


class PackedRangeTable:
    """Fixed-width float64 slot rows storing view range conjuncts.

    Row ``i`` holds the encodable range conjuncts of one registered view,
    ``SLOT_LANES`` float64 lanes per conjunct, padded to the table-wide
    maximum slot count with always-covering pad slots. The canonical
    packed form is the little-endian float64 byte image of the padded
    rows, identical across backends; the numpy backend wraps it zero-copy
    in a ``(rows, width * SLOT_LANES)`` matrix and answers
    :meth:`covers` for a batch of rows with one vectorized comparison,
    while the pure backend walks the (unpadded) canonical tuples.
    """

    __slots__ = (
        "_use_numpy",
        "_rows",
        "_slot_width",
        "_shared_rows",
        "_dirty",
        "_data",
        "_matrix",
        "generation",
        "__weakref__",
    )

    def __init__(self, backend: str | None = None) -> None:
        if backend is None:
            self._use_numpy = _ACTIVE_NUMPY is not None
        elif backend == "numpy":
            if _ACTIVE_NUMPY is None:
                raise RuntimeError("numpy backend requested but numpy is absent")
            self._use_numpy = True
        elif backend == "pure":
            self._use_numpy = False
        else:
            raise ValueError(f"unknown packed backend {backend!r}")
        #: Canonical per-row flat value tuples (unpadded, len % SLOT_LANES == 0).
        self._rows: list[tuple[float, ...]] = []
        self._slot_width = 0
        self._shared_rows = False
        self._dirty = True
        self._data: bytes | memoryview = b""
        self._matrix = None
        self.generation = 0

    # -- shape ----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._rows)

    @property
    def backend(self) -> str:
        return "packed-numpy" if self._use_numpy else "packed-pure"

    @property
    def slot_width(self) -> int:
        """Slots per packed row (the widest row registered so far)."""
        return self._slot_width

    @property
    def nbytes(self) -> int:
        return len(self._rows) * self._slot_width * SLOT_LANES * 8

    def packed_bytes(self) -> bytes:
        """The packed little-endian float64 image (backend-independent)."""
        self._ensure_packed()
        data = self._data
        return data if isinstance(data, bytes) else bytes(data)

    # -- mutation (registration side; callers serialize) ----------------------

    def _own_rows(self) -> None:
        if self._shared_rows:
            self._rows = list(self._rows)
            self._shared_rows = False

    def append(self, slots: Sequence[tuple[float, float, float, float, float]]) -> int:
        """Add one row of range slots; returns its row index."""
        self._own_rows()
        flat: list[float] = []
        for slot in slots:
            flat.extend(slot)
        self._rows.append(tuple(flat))
        if len(slots) > self._slot_width:
            self._slot_width = len(slots)
        self._dirty = True
        self.generation += 1
        return len(self._rows) - 1

    def pop(self, row: int) -> int | None:
        """Swap-remove ``row``; returns the old index of the moved row."""
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
        width = self._slot_width
        lanes = width * SLOT_LANES
        packer = struct.Struct(f"<{lanes}d") if lanes else None
        pieces: list[bytes] = []
        for values in self._rows:
            pad = width - len(values) // SLOT_LANES
            if pad:
                values = values + _PAD_SLOT * pad
            if packer is not None:
                pieces.append(packer.pack(*values))
        data = b"".join(pieces)
        self._data = data
        if self._use_numpy and self._rows:
            self._matrix = _ACTIVE_NUMPY.frombuffer(data, dtype="<f8").reshape(
                len(self._rows), lanes
            )
        else:
            self._matrix = None
        self._dirty = False

    # -- sweeping (query side, read-only) -------------------------------------

    def covers(self, rows: Sequence[int], signature: "QuerySignature") -> list[bool]:
        """Per-row truth of "every slot's interval covers the query hull".

        ``rows`` index this table; the signature supplies the per-column
        query hull bounds. A row with no slots trivially covers.
        """
        if not rows:
            return []
        if self._use_numpy and len(rows) >= _SMALL_BATCH:
            self._ensure_packed()
            if self._slot_width == 0:
                return [True] * len(rows)
            np = _ACTIVE_NUMPY
            sub = self._matrix[np.asarray(rows, dtype=np.intp)]
            cols = sub[:, 0::SLOT_LANES].astype(np.intp)
            vlo = sub[:, 1::SLOT_LANES]
            vlork = sub[:, 2::SLOT_LANES]
            vhi = sub[:, 3::SLOT_LANES]
            vhirk = sub[:, 4::SLOT_LANES]
            qlo, qlork, qhi, qhirk = signature.arrays(np)
            glo = qlo[cols]
            ghi = qhi[cols]
            lower_ok = (vlo < glo) | ((vlo == glo) & (vlork <= qlork[cols]))
            upper_ok = (vhi > ghi) | ((vhi == ghi) & (vhirk >= qhirk[cols]))
            return (lower_ok & upper_ok).all(axis=1).tolist()
        table = self._rows
        qlo = signature.qlo
        qlork = signature.qlork
        qhi = signature.qhi
        qhirk = signature.qhirk
        out: list[bool] = []
        for row in rows:
            values = table[row]
            ok = True
            for i in range(0, len(values), SLOT_LANES):
                column = int(values[i])
                lo = values[i + 1]
                hi = values[i + 3]
                glo = qlo[column]
                ghi = qhi[column]
                if not (
                    (lo < glo or (lo == glo and values[i + 2] <= qlork[column]))
                    and (hi > ghi or (hi == ghi and values[i + 4] >= qhirk[column]))
                ):
                    ok = False
                    break
            out.append(ok)
        return out

    # -- copy-on-write snapshots ----------------------------------------------

    def snapshot(self) -> "PackedRangeTable":
        """A table sharing this one's rows and packed buffers (COW)."""
        clone = PackedRangeTable.__new__(PackedRangeTable)
        clone._use_numpy = self._use_numpy
        self._shared_rows = True
        clone._rows = self._rows
        clone._shared_rows = True
        clone._slot_width = self._slot_width
        clone._dirty = self._dirty
        clone._data = self._data
        clone._matrix = self._matrix
        clone.generation = self.generation
        return clone

    def shares_buffer_with(self, other: "PackedRangeTable") -> bool:
        return (
            not self._dirty
            and not other._dirty
            and self._data is other._data
        )

    def adopt_buffer(self, buffer) -> None:
        """Re-point the packed image at an externally owned buffer.

        Same contract as :meth:`PackedBitsetTable.adopt_buffer`: the
        buffer must hold exactly this table's packed bytes; later
        mutations rebuild a private image, un-sharing automatically.
        """
        self._ensure_packed()
        view = memoryview(buffer).cast("B")
        data = self._data
        if len(view) != len(data):
            raise ValueError(
                f"buffer holds {len(view)} bytes, table packs {len(data)}"
            )
        if view != data:
            raise ValueError("buffer content differs from the packed image")
        self._data = view
        if self._use_numpy and self._rows:
            self._matrix = _ACTIVE_NUMPY.frombuffer(view, dtype="<f8").reshape(
                len(self._rows), self._slot_width * SLOT_LANES
            )


class QuerySignature:
    """One query's pre-verifier encoding against a schema version.

    Holds the query's equijoin pair bitmask and per-column-id hull bounds;
    numpy array forms are built lazily and cached (the same signature is
    reused across every shard of a sharded tree and across candidates).
    """

    __slots__ = (
        "pair_version",
        "column_version",
        "pair_mask",
        "qlo",
        "qlork",
        "qhi",
        "qhirk",
        "_arrays",
    )

    def __init__(
        self,
        pair_version: int,
        column_version: int,
        pair_mask: int,
        qlo: list[float],
        qlork: list[float],
        qhi: list[float],
        qhirk: list[float],
    ) -> None:
        self.pair_version = pair_version
        self.column_version = column_version
        self.pair_mask = pair_mask
        self.qlo = qlo
        self.qlork = qlork
        self.qhi = qhi
        self.qhirk = qhirk
        self._arrays = None

    def arrays(self, np) -> tuple:
        arrays = self._arrays
        if arrays is None:
            arrays = tuple(
                np.asarray(values, dtype=np.float64)
                for values in (self.qlo, self.qlork, self.qhi, self.qhirk)
            )
            self._arrays = arrays
        return arrays


class PreVerifierSchema:
    """Shared atom registry for pre-verifier encodings.

    Like the lattice :class:`~repro.core.interning.KeyInterner`, one
    schema is shared by every shard of a filter tree and survives the
    serving layer's epoch rebuilds, so bit/column-id assignments (and the
    packed rows encoded against them) stay valid across snapshot churn.
    Interning writes run on the registration path only (serialized by the
    callers' writer lock); the query side reads known assignments without
    mutating.
    """

    __slots__ = ("_pair_bits", "_column_ids")

    def __init__(self) -> None:
        # Equijoin pairs: sorted (a, b) column-key pairs of nontrivial
        # equivalence classes, each assigned one bit position.
        self._pair_bits: dict[tuple[ColumnKey, ColumnKey], int] = {}
        # Range columns: each column key carrying a range conjunct in some
        # registered view, assigned a dense id (the gather index of the
        # query-side bound arrays).
        self._column_ids: dict[ColumnKey, int] = {}

    @property
    def pair_count(self) -> int:
        return len(self._pair_bits)

    @property
    def column_count(self) -> int:
        return len(self._column_ids)

    # -- interning (registration side) ----------------------------------------

    def pair_mask(self, pairs: Iterable[tuple[ColumnKey, ColumnKey]]) -> int:
        bits = self._pair_bits
        encoded = 0
        for pair in pairs:
            bit = bits.get(pair)
            if bit is None:
                bit = 1 << len(bits)
                bits[pair] = bit
            encoded |= bit
        return encoded

    def column_id(self, key: ColumnKey) -> int:
        ids = self._column_ids
        ident = ids.get(key)
        if ident is None:
            ident = len(ids)
            ids[key] = ident
        return ident

    # -- query-side signature (read-only) -------------------------------------

    def signature_for(self, query) -> QuerySignature:
        """The query's signature, cached on the description until the
        schema grows (new pairs/columns interned by later registrations)."""
        cached = query._preverify_sig
        if (
            cached is not None
            and cached[0] is self
            and cached[1].pair_version == len(self._pair_bits)
            and cached[1].column_version == len(self._column_ids)
        ):
            return cached[1]
        signature = self._build_signature(query)
        query._preverify_sig = (self, signature)
        return signature

    def _build_signature(self, query) -> QuerySignature:
        eqclasses = query.eqclasses
        bits = self._pair_bits
        pair_mask = 0
        for cls in eqclasses.nontrivial_classes():
            members = sorted(cls)
            for i in range(len(members)):
                for j in range(i + 1, len(members)):
                    bit = bits.get((members[i], members[j]))
                    if bit is not None:
                        pair_mask |= bit
        sets = _query_range_sets(query)
        count = max(1, len(self._column_ids))
        # Default is the per-side poison (always passes the covers test):
        # columns outside the query's tables are never gathered by a
        # screened row, empty query sets make the real test trivially
        # true, and unencodable bounds must not cause rejects.
        qlo = [_POS_INF] * count
        qlork = [1.0] * count
        qhi = [_NEG_INF] * count
        qhirk = [0.0] * count
        for key, ident in self._column_ids.items():
            if key not in eqclasses:
                continue
            interval_set = sets.get(eqclasses.find(key))
            if interval_set is None:
                # Unconstrained query class: the view must cover the
                # unbounded set, encoded as unbounded hull bounds.
                qlo[ident] = _NEG_INF
                qlork[ident] = 0.0
                qhi[ident] = _POS_INF
                qhirk[ident] = 1.0
                continue
            intervals = interval_set.intervals
            if not intervals:
                continue  # empty query set: containment is trivially true
            lower = intervals[0].lower
            upper = intervals[-1].upper
            if lower is None:
                qlo[ident] = _NEG_INF
                qlork[ident] = 0.0
            else:
                value = _encode_value(lower.value)
                if value is not None:
                    qlo[ident] = value
                    qlork[ident] = 0.0 if lower.inclusive else 1.0
            if upper is None:
                qhi[ident] = _POS_INF
                qhirk[ident] = 1.0
            else:
                value = _encode_value(upper.value)
                if value is not None:
                    qhi[ident] = value
                    qhirk[ident] = 1.0 if upper.inclusive else 0.0
        return QuerySignature(
            len(self._pair_bits),
            len(self._column_ids),
            pair_mask,
            qlo,
            qlork,
            qhi,
            qhirk,
        )


class CandidatePreVerifier:
    """Per-tree columnar screen over registered views.

    Owns one :class:`PackedBitsetTable` of equijoin pair masks and one
    :class:`PackedRangeTable` of range slots, row-aligned with each other
    and indexed by view name. ``screen`` maps surviving filter-tree
    candidates onto rows and answers, per candidate, either ``None``
    (proceed to ``match_view``) or a fully-formed rejecting
    :class:`MatchResult` whose reason and detail are exactly what
    ``match_view`` would have produced.
    """

    __slots__ = (
        "schema",
        "eq_table",
        "range_table",
        "_row_of",
        "_names",
        "_eligible",
        "_range_ok",
    )

    def __init__(self, schema: PreVerifierSchema | None = None) -> None:
        self.schema = schema if schema is not None else PreVerifierSchema()
        self.eq_table = PackedBitsetTable()
        self.range_table = PackedRangeTable()
        self._row_of: dict[str, int] = {}
        self._names: list[str] = []
        #: Row may be screened at all (has a registration-time context and
        #: is not DISTINCT, so the real pipeline's pre-equijoin guards are
        #: decided by per-query facts the screen checks itself).
        self._eligible: list[bool] = []
        #: Row may be range-screened: check-constraint antecedents would
        #: weaken/strengthen the query side per view, which the shared
        #: query signature cannot express.
        self._range_ok: list[bool] = []

    # -- registration side -----------------------------------------------------

    def add(self, name: str, description, context) -> None:
        pairs: list[tuple[ColumnKey, ColumnKey]] = []
        for cls in description.eqclasses.nontrivial_classes():
            members = sorted(cls)
            for i in range(len(members)):
                for j in range(i + 1, len(members)):
                    pairs.append((members[i], members[j]))
        mask = self.schema.pair_mask(pairs)
        eq_table = self.eq_table
        # Align this table's width with the shared schema so packed rows
        # can hold every assigned bit (positions are global).
        while eq_table.width_bits < self.schema.pair_count:
            eq_table.alloc_bit()
        row = eq_table.append(mask)
        eligible = context is not None and not description.statement.distinct
        range_ok = eligible and not (
            context.check_ranges or context.check_or_ranges
        )
        slots: list[tuple[float, float, float, float, float]] = []
        if range_ok:
            for column, interval_set in context.range_items:
                intervals = interval_set.intervals
                if len(intervals) == 1:
                    slots.append(self._encode_slot(column, intervals[0]))
                elif not intervals:
                    slots.append(_EMPTY_SLOT)
                # Multi-interval conjuncts (OR-ranges) are not convex;
                # skipping the slot keeps the per-conjunct screen sound.
        range_row = self.range_table.append(slots)
        assert range_row == row
        self._row_of[name] = row
        self._names.append(name)
        self._eligible.append(eligible)
        self._range_ok.append(range_ok)

    def _encode_slot(
        self, column: ColumnKey, interval
    ) -> tuple[float, float, float, float, float]:
        # Unencodable view bounds degrade to unbounded (pass-biased).
        lo, lork = _NEG_INF, 0.0
        if interval.lower is not None:
            value = _encode_value(interval.lower.value)
            if value is not None:
                lo = value
                lork = 0.0 if interval.lower.inclusive else 1.0
        hi, hirk = _POS_INF, 1.0
        if interval.upper is not None:
            value = _encode_value(interval.upper.value)
            if value is not None:
                hi = value
                hirk = 1.0 if interval.upper.inclusive else 0.0
        return (float(self.schema.column_id(column)), lo, lork, hi, hirk)

    def remove(self, name: str) -> None:
        row = self._row_of.pop(name, None)
        if row is None:
            return
        self.eq_table.pop(row)
        self.range_table.pop(row)
        last_name = self._names.pop()
        last_eligible = self._eligible.pop()
        last_range_ok = self._range_ok.pop()
        if row != len(self._names):
            self._names[row] = last_name
            self._eligible[row] = last_eligible
            self._range_ok[row] = last_range_ok
            self._row_of[last_name] = row

    def snapshot(self) -> "CandidatePreVerifier":
        """A clone sharing the schema and the packed buffers (COW)."""
        clone = CandidatePreVerifier.__new__(CandidatePreVerifier)
        clone.schema = self.schema
        clone.eq_table = self.eq_table.snapshot()
        clone.range_table = self.range_table.snapshot()
        clone._row_of = dict(self._row_of)
        clone._names = list(self._names)
        clone._eligible = list(self._eligible)
        clone._range_ok = list(self._range_ok)
        return clone

    def packed_tables(self) -> tuple:
        return (self.eq_table, self.range_table)

    # -- query side (read-only) ------------------------------------------------

    def screen(self, query, candidates: Sequence) -> list:
        """Per-candidate verdicts: ``None`` or a rejecting ``MatchResult``.

        ``candidates`` are the filter tree's surviving
        :class:`~repro.core.filtertree.RegisteredView` objects. Only
        candidates whose table set equals the query's (no extra-table
        elimination) and whose kind passes the pre-equijoin guards are
        screened; everything else proceeds to the full match untouched.
        """
        verdicts: list = [None] * len(candidates)
        if not candidates:
            return verdicts
        signature = self.schema.signature_for(query)
        row_of = self._row_of
        eligible = self._eligible
        query_tables = query.tables
        query_aggregate = query.is_aggregate
        rows: list[int] = []
        positions: list[int] = []
        for position, candidate in enumerate(candidates):
            description = candidate.description
            row = row_of.get(description.name)
            if row is None or not eligible[row]:
                continue
            if description.tables != query_tables:
                continue
            if description.is_aggregate and not query_aggregate:
                continue
            rows.append(row)
            positions.append(position)
        if not rows:
            return verdicts
        width = self.eq_table.width_bits
        foreign = ~signature.pair_mask & ((1 << width) - 1)
        if foreign:
            equijoin_hits = self.eq_table.rows_intersecting(rows, foreign)
        else:
            equijoin_hits = [False] * len(rows)
        range_ok = self._range_ok
        range_rows: list[int] = []
        range_positions: list[int] = []
        for i, position in enumerate(positions):
            if equijoin_hits[i]:
                verdicts[position] = MatchResult(
                    view=candidates[position].description,
                    reject_reason=RejectReason.EQUIJOIN,
                    reject_detail=EQUIJOIN_REJECT_DETAIL,
                    stage=STAGE_PREVERIFY,
                )
            elif range_ok[rows[i]]:
                range_rows.append(rows[i])
                range_positions.append(position)
        if range_rows:
            covered = self.range_table.covers(range_rows, signature)
            for position, passed in zip(range_positions, covered):
                if passed:
                    continue
                context = candidates[position].match_context
                if context is None:
                    continue
                detail = range_reject_detail(query, context)
                if detail is None:
                    continue  # inconsistent screen: defer to the full match
                verdicts[position] = MatchResult(
                    view=candidates[position].description,
                    reject_reason=RejectReason.RANGE,
                    reject_detail=detail,
                    stage=STAGE_PREVERIFY,
                )
        return verdicts
