"""The columnar packed sweep against the reference lattice walk.

Three layers of pinning:

* kernel: ``PackedBitsetTable.sweep`` against a brute-force evaluation of
  ``(row ^ flip) & query == 0`` on randomized tables, on both backends,
  through append/pop churn and copy-on-write snapshots; the survivor
  loop's split of the output requirements against the unsplit test;
* tree: packed ``FilterTree`` candidates must be *identical* (same
  views, same registration order) to the frozenset lattice walk of
  ``_reference_filtertree.py``, through registration churn;
* epoch: ``clone_cow`` shares the packed buffers with the source and a
  delta-mutated clone equals a freshly built tree, while the source keeps
  answering exactly as before.

The pure-python backend is exercised in-process by clearing the module's
active-numpy handle, which is what ``REPRO_PACKED_BACKEND=pure`` does at
import time.
"""

from __future__ import annotations

import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.interning as interning
from repro.core import ViewMatcher
from repro.core.filtertree import (
    FilterTree,
    _requirements_satisfied_bits,
    _split_requirements,
)
from repro.core.interning import KeyInterner, PackedBitsetTable
from repro.stats import synthetic_tpch_stats
from repro.workload import WorkloadGenerator

from ._reference_filtertree import ReferenceFilterTree

KERNEL_BACKENDS = (
    ("numpy", "pure") if interning._numpy is not None else ("pure",)
)


def _brute_force(rows, query, flip):
    return [i for i, row in enumerate(rows) if (row ^ flip) & query == 0]


@st.composite
def _table_case(draw):
    width = draw(st.integers(min_value=1, max_value=140))
    flips = draw(
        st.lists(st.booleans(), min_size=width, max_size=width)
    )
    top = (1 << width) - 1
    rows = draw(
        st.lists(st.integers(min_value=0, max_value=top), max_size=32)
    )
    queries = draw(
        st.lists(
            st.integers(min_value=0, max_value=top), min_size=1, max_size=6
        )
    )
    pops = draw(st.lists(st.integers(min_value=0, max_value=10**6), max_size=8))
    return width, flips, rows, queries, pops


class TestPackedKernel:
    @pytest.mark.parametrize("backend", KERNEL_BACKENDS)
    @settings(deadline=None, max_examples=60)
    @given(case=_table_case())
    def test_sweep_matches_brute_force(self, backend, case):
        width, flips, drawn_rows, queries, pops = case
        table = PackedBitsetTable(backend=backend)
        bits = [table.alloc_bit(flip=flip) for flip in flips]
        flip_total = 0
        for bit, flip in zip(bits, flips):
            if flip:
                flip_total |= bit

        def local(value: int) -> int:
            mask = 0
            for position in range(width):
                if value & (1 << position):
                    mask |= bits[position]
            return mask

        mirror: list[int] = []
        for value in drawn_rows:
            mask = local(value)
            table.append(mask)
            mirror.append(mask)
        for raw in pops:
            if not mirror:
                break
            victim = raw % len(mirror)
            table.pop(victim)
            mirror[victim] = mirror[-1]
            mirror.pop()
        for value in queries:
            query = local(value)
            flip = flip_total & query
            expected = _brute_force(mirror, query, flip)
            got = list(table.sweep_mask(query, flip))
            assert got == expected
            # The default flip (prepare with flip_mask=None) is exactly
            # the flip-allocated bits restricted to the query.
            assert list(table.sweep(table.prepare(query))) == expected

    @pytest.mark.parametrize("backend", KERNEL_BACKENDS)
    def test_snapshot_is_copy_on_write(self, backend):
        rng = random.Random(7)
        table = PackedBitsetTable(backend=backend)
        bits = [table.alloc_bit(flip=(i % 3 == 0)) for i in range(70)]
        rows = []
        for _ in range(25):
            mask = 0
            for bit in bits:
                if rng.random() < 0.3:
                    mask |= bit
            table.append(mask)
            rows.append(mask)
        query = bits[0] | bits[64] | bits[9]
        before = list(table.sweep_mask(query, 0))
        snap = table.snapshot()
        assert snap.shares_buffer_with(table)
        # Mutating the source must not disturb the snapshot's answers
        # (and forces the source onto private storage).
        table.append(query)
        table.pop(0)
        assert list(snap.sweep_mask(query, 0)) == before
        assert list(snap.row_masks()) == rows

    @pytest.mark.parametrize("backend", KERNEL_BACKENDS)
    def test_rows_that_differ_only_past_the_first_word(self, backend):
        # Random wide rows nearly always fail in their first word; these
        # agree there, so only the later words decide.
        table = PackedBitsetTable(backend=backend)
        bits = [table.alloc_bit(flip=bit % 2 == 1) for bit in range(140)]
        rows = [
            0,
            bits[70],
            bits[71],
            bits[130],
            bits[3] | bits[130],
            bits[71] | bits[131],
        ]
        for row in rows:
            table.append(row)
        for query in (bits[70], bits[71] | bits[130], bits[130] | bits[131]):
            flip = query & sum(bits[1::2])
            assert list(table.sweep(table.prepare(query))) == _brute_force(
                rows, query, flip
            )

    @pytest.mark.parametrize("backend", KERNEL_BACKENDS)
    def test_stale_prepared_query_raises(self, backend):
        table = PackedBitsetTable(backend=backend)
        bit = table.alloc_bit()
        table.append(0)  # no queried bit -> passes (row ^ flip) & query == 0
        prepared = table.prepare(bit)
        assert list(table.sweep(prepared)) == [0]
        table.append(bit)
        with pytest.raises(ValueError):
            table.sweep(prepared)


_masks = st.integers(min_value=0, max_value=15)


@settings(max_examples=300)
@given(
    requirements=st.lists(
        st.tuples(_masks, st.lists(_masks, max_size=3).map(tuple)),
        max_size=6,
    ),
    key_bits=_masks,
)
def test_split_requirements_hold_exactly_when_the_pairs_do(
    requirements, key_bits
):
    column_masks, rest = _split_requirements(tuple(requirements))
    split = all(mask & key_bits for mask in column_masks) and (
        _requirements_satisfied_bits(rest, key_bits)
    )
    assert split == _requirements_satisfied_bits(tuple(requirements), key_bits)


TREE_BACKENDS = (
    ("packed-numpy", "packed-pure")
    if interning._numpy is not None
    else ("packed-pure",)
)


@pytest.fixture(params=TREE_BACKENDS)
def backend(request, monkeypatch):
    if request.param == "packed-pure":
        monkeypatch.setattr(interning, "_ACTIVE_NUMPY", None)
    return request.param


@pytest.fixture(scope="module")
def workload(catalog, paper_stats):
    generator = WorkloadGenerator(catalog, paper_stats, seed=13)
    views = list(generator.generate_views(250))
    queries = [q.statement for q in generator.generate_queries(40)]
    matcher = ViewMatcher(catalog)
    for name, generated in views:
        matcher.register_view(name, generated.statement)
    descriptions = [matcher.describe_query(q) for q in queries]
    # Re-registering the same views into fresh trees isolates the tree
    # under test. The oracle keys each view by its re-derived
    # description once, at registration.
    registered = matcher.filter_tree.views()
    reference = ReferenceFilterTree(matcher.options)
    for view in registered:
        reference.register_prebuilt(view)
    return matcher.options, registered, descriptions, reference


def _names(tree, description):
    return [view.name for view in tree.candidates(description)]


class TestPackedTreeEquivalence:
    def test_candidates_identical_and_in_registration_order(
        self, workload, backend
    ):
        options, registered, descriptions, reference = workload
        packed = FilterTree(interner=KeyInterner())
        for view in registered:
            packed.register_prebuilt(view)
        order = {view.name: i for i, view in enumerate(registered)}
        hits = 0
        for description in descriptions:
            got = _names(packed, description)
            assert got == _names(reference, description)
            assert got == sorted(got, key=order.__getitem__)
            hits += len(got)
        assert hits > 0  # the workload must actually exercise the sweep

    def test_equivalence_survives_registration_churn(self, workload, backend):
        options, registered, descriptions, _ = workload
        packed = FilterTree(interner=KeyInterner())
        reference = ReferenceFilterTree(options)
        for view in registered:
            packed.register_prebuilt(view)
            reference.register_prebuilt(view)
        # Drop every third view, then re-register half of the dropped
        # ones: survivors keep their original relative order, returners
        # append at the tail -- on both trees.
        dropped = [view for i, view in enumerate(registered) if i % 3 == 0]
        for view in dropped:
            packed.unregister(view.name)
            reference.unregister(view.name)
        for view in dropped[::2]:
            packed.register_prebuilt(view)
            reference.register_prebuilt(view)
        for description in descriptions:
            assert _names(packed, description) == _names(
                reference, description
            )

    def test_clone_cow_shares_buffers_and_isolates_mutation(
        self, workload, backend
    ):
        options, registered, descriptions, _ = workload
        base_pool, spare = registered[:200], registered[200:]
        tree = FilterTree(interner=KeyInterner())
        for view in base_pool:
            tree.register_prebuilt(view)
        before = [_names(tree, d) for d in descriptions]
        clone = tree.clone_cow()
        assert clone._spj_packed.table.shares_buffer_with(
            tree._spj_packed.table
        )
        clone.unregister(base_pool[0].name)
        clone.unregister(base_pool[7].name)
        for view in spare[:5]:
            clone.register_prebuilt(view)
        # The published source keeps answering exactly as before...
        assert [_names(tree, d) for d in descriptions] == before
        # ...and the delta-mutated clone equals a fresh build over the
        # clone's view set, including registration order.
        fresh = FilterTree(interner=KeyInterner())
        survivors = [
            view
            for view in base_pool
            if view.name not in (base_pool[0].name, base_pool[7].name)
        ]
        for view in survivors + list(spare[:5]):
            fresh.register_prebuilt(view)
        for description in descriptions:
            assert _names(clone, description) == _names(fresh, description)


@pytest.mark.slow
@pytest.mark.skipif(
    not os.environ.get("REPRO_BIG_CATALOG"),
    reason="set REPRO_BIG_CATALOG=1 to run the 100k-view catalog smoke",
)
def test_100k_view_catalog_smoke(catalog):
    """Registration and packed filtering stay sane at 100k views."""
    stats = synthetic_tpch_stats(scale=0.5)
    generator = WorkloadGenerator(catalog, stats, seed=42)
    matcher = ViewMatcher(catalog)
    for name, generated in generator.generate_views(100_000):
        matcher.register_view(name, generated.statement)
    queries = [q.statement for q in generator.generate_queries(10)]
    tree = matcher.filter_tree
    assert len(tree.views()) == 100_000
    descriptions = [matcher.describe_query(q) for q in queries]
    first = [_names(tree, d) for d in descriptions]
    assert any(first)  # some query must find candidates at this density
    # Deterministic across repeated sweeps (prepared-query cache warm).
    assert [_names(tree, d) for d in descriptions] == first
