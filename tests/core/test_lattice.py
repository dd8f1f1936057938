"""The reference filter tree's lattice index against brute force."""

from hypothesis import given, settings
from hypothesis import strategies as st

from ._reference_filtertree import LatticeIndex


def build(keys, projection=None):
    index = LatticeIndex(projection=projection)
    for i, key in enumerate(keys):
        index.insert(frozenset(key), f"p{i}")
    return index


def keys_of(nodes):
    return {node.key for node in nodes}


class TestStructure:
    def test_paper_figure_1(self):
        # The eight key sets of the paper's Figure 1.
        keys = ["A", "B", "D", "AB", "BE", "ABC", "ABF", "BCDE"]
        index = build(keys)
        assert keys_of(index.tops) == {
            frozenset("ABC"),
            frozenset("ABF"),
            frozenset("BCDE"),
        }
        assert keys_of(index.roots) == {
            frozenset("A"),
            frozenset("B"),
            frozenset("D"),
        }

    def test_paper_superset_search(self):
        index = build(["A", "B", "D", "AB", "BE", "ABC", "ABF", "BCDE"])
        found = keys_of(index.supersets_of(frozenset("AB")))
        assert found == {frozenset("AB"), frozenset("ABC"), frozenset("ABF")}

    def test_subset_search(self):
        index = build(["A", "B", "D", "AB", "BE", "ABC", "ABF", "BCDE"])
        found = keys_of(index.subsets_of(frozenset("ABE")))
        assert found == {
            frozenset("A"),
            frozenset("B"),
            frozenset("AB"),
            frozenset("BE"),
        }

    def test_duplicate_key_shares_node(self):
        index = LatticeIndex()
        index.insert(frozenset("AB"), "x")
        index.insert(frozenset("AB"), "y")
        assert len(index) == 1
        assert index.node(frozenset("AB")).payloads == ["x", "y"]

    def test_empty_key(self):
        index = build(["", "A"])
        assert keys_of(index.subsets_of(frozenset("Z"))) == {frozenset()}

    def test_linking_splices_between_existing_nodes(self):
        index = build(["A", "ABC"])
        index.insert(frozenset("AB"), "mid")
        node = index.node(frozenset("AB"))
        assert keys_of(node.supersets) == {frozenset("ABC")}
        assert keys_of(node.subsets) == {frozenset("A")}
        top = index.node(frozenset("ABC"))
        assert keys_of(top.subsets) == {frozenset("AB")}


class TestRemoval:
    def test_remove_payload_keeps_shared_node(self):
        index = LatticeIndex()
        index.insert(frozenset("AB"), "x")
        index.insert(frozenset("AB"), "y")
        index.remove_payload(frozenset("AB"), "x")
        assert len(index) == 1

    def test_remove_last_payload_unlinks_node(self):
        index = build(["A", "AB", "ABC"])
        index.remove_payload(frozenset("AB"), "p1")
        assert len(index) == 2
        # A and ABC are reconnected directly.
        assert keys_of(index.node(frozenset("ABC")).subsets) == {frozenset("A")}
        assert keys_of(index.node(frozenset("A")).supersets) == {frozenset("ABC")}

    def test_remove_top_promotes_children(self):
        index = build(["A", "AB"])
        index.remove_payload(frozenset("AB"), "p1")
        assert keys_of(index.tops) == {frozenset("A")}

    def test_remove_root_promotes_parents(self):
        index = build(["A", "AB"])
        index.remove_payload(frozenset("A"), "p0")
        assert keys_of(index.roots) == {frozenset("AB")}

    def test_searches_work_after_removal(self):
        keys = ["A", "B", "AB", "ABC", "BD"]
        index = build(keys)
        index.remove_payload(frozenset("AB"), "p2")
        assert keys_of(index.subsets_of(frozenset("ABC"))) == {
            frozenset("A"),
            frozenset("B"),
            frozenset("ABC"),
        }


class TestConditionSearches:
    def test_descend_monotone(self):
        index = build(["A", "AB", "ABC", "BC", "C"])
        # Qualify: key intersects {B}; monotone upward.
        found = keys_of(index.descend_monotone(lambda key: bool(key & {"B"})))
        assert found == {frozenset("AB"), frozenset("ABC"), frozenset("BC")}

    def test_ascend_weak_with_projection(self):
        # Order by the projection onto lower-case elements only.
        def projection(key):
            return frozenset(e for e in key if e.islower())

        index = LatticeIndex(projection=projection)
        index.insert(frozenset({"a", "X"}), "one")
        index.insert(frozenset({"a", "b", "Y"}), "two")
        index.insert(frozenset({"c", "Z"}), "three")
        found = index.ascend_weak(
            weak_qualify=lambda order: order <= {"a", "b"},
            qualify=lambda key: "Y" in key or "X" in key,
        )
        assert {tuple(sorted(node.key)) for node in found} == {
            ("X", "a"),
            ("Y", "a", "b"),
        }

    def test_ascend_weak_prunes_at_failing_root(self):
        index = build(["A", "AB"])
        found = index.ascend_weak(
            weak_qualify=lambda order: order <= frozenset("Z"),
            qualify=lambda key: True,
        )
        assert found == []


# --------------------------------------------------------------------------
# Properties: searches agree with brute force under random key sets,
# including interleaved removals.
# --------------------------------------------------------------------------

elements = st.sampled_from("ABCDEF")
key_sets = st.frozensets(elements, max_size=5)


@settings(max_examples=200)
@given(st.lists(key_sets, max_size=15), key_sets)
def test_subset_search_matches_brute_force(keys, probe):
    index = build(keys)
    expected = {frozenset(k) for k in keys if frozenset(k) <= probe}
    assert keys_of(index.subsets_of(probe)) == expected


@settings(max_examples=200)
@given(st.lists(key_sets, max_size=15), key_sets)
def test_superset_search_matches_brute_force(keys, probe):
    index = build(keys)
    expected = {frozenset(k) for k in keys if frozenset(k) >= probe}
    assert keys_of(index.supersets_of(probe)) == expected


@settings(max_examples=200)
@given(st.lists(key_sets, max_size=15), key_sets)
def test_descend_monotone_matches_brute_force(keys, required):
    index = build(keys)
    # A monotone condition: key must contain all required elements.
    expected = {frozenset(k) for k in keys if frozenset(k) >= required}
    found = keys_of(index.descend_monotone(lambda key: key >= required))
    assert found == expected


@settings(max_examples=150)
@given(
    st.lists(key_sets, min_size=1, max_size=12),
    st.data(),
)
def test_searches_survive_removals(keys, data):
    index = LatticeIndex()
    for i, key in enumerate(keys):
        index.insert(frozenset(key), i)
    survivors = dict(enumerate(keys))
    removal_count = data.draw(st.integers(0, len(keys)))
    for _ in range(removal_count):
        victim = data.draw(st.sampled_from(sorted(survivors)))
        index.remove_payload(frozenset(survivors.pop(victim)), victim)
    probe = data.draw(key_sets)
    expected = {frozenset(k) for k in survivors.values() if frozenset(k) <= probe}
    assert keys_of(index.subsets_of(probe)) == expected
    expected_sup = {
        frozenset(k) for k in survivors.values() if frozenset(k) >= probe
    }
    assert keys_of(index.supersets_of(probe)) == expected_sup
