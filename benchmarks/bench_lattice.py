"""Ablation: lattice-index search vs. a linear scan over node keys.

Section 4.1 motivates the lattice index with "we can always do a linear
scan and check every key but this may be slow if the node contains many
keys". This benchmark quantifies that claim on key populations shaped like
the filter tree's (small sets over a moderate element universe), plus the
cost of building the index. It times the lattice index of the test
suite's reference filter tree: serving evaluates the levels as one packed
sweep and walks no lattice.
"""

from __future__ import annotations

import random

import pytest

from tests.core._reference_filtertree import LatticeIndex

UNIVERSE = [f"e{i}" for i in range(40)]


def make_keys(count: int, seed: int = 7) -> list[frozenset]:
    rng = random.Random(seed)
    keys = []
    for _ in range(count):
        size = rng.randint(1, 6)
        keys.append(frozenset(rng.sample(UNIVERSE, size)))
    return keys


def make_probes(count: int, seed: int = 11) -> list[frozenset]:
    rng = random.Random(seed)
    probes = []
    for _ in range(count):
        size = rng.randint(2, 10)
        probes.append(frozenset(rng.sample(UNIVERSE, size)))
    return probes


@pytest.mark.parametrize("key_count", [100, 500, 2000])
def test_lattice_subset_search(benchmark, key_count):
    keys = make_keys(key_count)
    probes = make_probes(200)
    index = LatticeIndex()
    for i, key in enumerate(keys):
        index.insert(key, i)

    def search_all():
        return sum(len(index.subsets_of(probe)) for probe in probes)

    total = benchmark(search_all)
    benchmark.extra_info["keys"] = key_count
    benchmark.extra_info["hits"] = total


@pytest.mark.parametrize("key_count", [100, 500, 2000])
def test_linear_scan_subset_search(benchmark, key_count):
    keys = make_keys(key_count)
    probes = make_probes(200)
    distinct = list(set(keys))

    def search_all():
        return sum(
            sum(1 for key in distinct if key <= probe) for probe in probes
        )

    total = benchmark(search_all)
    benchmark.extra_info["keys"] = key_count
    benchmark.extra_info["hits"] = total


@pytest.mark.parametrize("key_count", [100, 500, 2000])
def test_lattice_superset_search(benchmark, key_count):
    keys = make_keys(key_count)
    probes = [frozenset(list(probe)[:2]) for probe in make_probes(200)]
    index = LatticeIndex()
    for i, key in enumerate(keys):
        index.insert(key, i)

    def search_all():
        return sum(len(index.supersets_of(probe)) for probe in probes)

    benchmark(search_all)
    benchmark.extra_info["keys"] = key_count


@pytest.mark.parametrize("key_count", [100, 500, 2000])
def test_lattice_build(benchmark, key_count):
    keys = make_keys(key_count)

    def build():
        index = LatticeIndex()
        for i, key in enumerate(keys):
            index.insert(key, i)
        return index

    index = benchmark(build)
    benchmark.extra_info["keys"] = key_count
    benchmark.extra_info["nodes"] = len(index)
