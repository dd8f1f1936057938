"""The sparse equivalence classes against the dense union-find they replaced.

``_reference_equivalence`` is the dense implementation, unchanged. Random
sequences of ``add_column`` / ``add_equality`` / ``copy`` run on both --
over a shared column domain, as descriptions use them, and over a private
one -- and after every step each live pair must agree on everything a
caller can observe: representatives, class enumeration order, class maps,
triviality, refinement against every other live instance, and the text of
every ``KeyError``. Copies are mutated on either side afterwards, so a
copy that shares state it should not shows up as a divergence.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog import tpch_catalog
from repro.core.analyze import column_domain
from repro.core.describe import describe
from repro.core.equivalence import ColumnDomain, EquivalenceClasses
from repro.sql import statement_to_sql
from repro.workload import WorkloadGenerator

from ._reference_equivalence import EquivalenceClasses as DenseClasses

# Six columns start in the domain; two more only ever arrive through
# ``add_column`` / ``add_equality``, and one is never registered at all.
DOMAIN = [(table, f"c{i}") for table in ("s", "t") for i in range(3)]
LATE = [("u", "x"), ("u", "y")]
NEVER = ("v", "z")
UNIVERSE = DOMAIN + LATE + [NEVER]

column = st.sampled_from(DOMAIN + LATE)
operation = st.one_of(
    st.tuples(st.just("add_column"), st.integers(0, 7), column),
    st.tuples(st.just("add_equality"), st.integers(0, 7), column, column),
    st.tuples(st.just("copy"), st.integers(0, 7)),
    st.tuples(st.just("sibling"), st.integers(0, 7)),
)


def outcome(call, *args):
    """``call(*args)``'s value, or the type and text of what it raised."""
    try:
        return "ok", call(*args)
    except KeyError as error:
        return "KeyError", str(error)


def observe(classes, universe=UNIVERSE) -> dict:
    """Everything about ``classes`` a caller can see, as plain values
    (frozensets as lists: their iteration order is observable too)."""
    class_map = classes.class_map()
    return {
        "len": len(classes),
        "columns": list(classes.columns()),
        "contains": [c in classes for c in universe],
        "find": [outcome(classes.find, c) for c in universe],
        "class_of": [outcome(classes.class_of, c) for c in universe],
        "class_of_order": [
            list(classes.class_of(c)) for c in universe if c in classes
        ],
        "is_trivial": [outcome(classes.is_trivial, c) for c in universe],
        "same_class": [
            outcome(classes.same_class, a, b) for a in universe for b in universe
        ],
        "classes": [list(cls) for cls in classes.classes()],
        "nontrivial": [list(cls) for cls in classes.nontrivial_classes()],
        # Compared as a dict: the dense map's key order depended on
        # whether the instance had ever been copied.
        "class_map": {c: list(cls) for c, cls in class_map.items()},
        "class_map_missing": outcome(class_map.__getitem__, NEVER),
    }


def run(operations, shared: bool) -> None:
    domain = ColumnDomain(DOMAIN)

    def fresh():
        """A new pair, as describing another statement over the tables."""
        if shared:
            return DenseClasses(DOMAIN), EquivalenceClasses(domain=domain)
        return DenseClasses(DOMAIN), EquivalenceClasses(DOMAIN)

    pairs = [fresh(), fresh()]
    for op in operations:
        kind, index = op[0], op[1] % len(pairs)
        dense, sparse = pairs[index]
        if kind == "add_column":
            dense.add_column(op[2])
            sparse.add_column(op[2])
        elif kind == "add_equality":
            assert dense.add_equality(op[2], op[3]) == sparse.add_equality(
                op[2], op[3]
            )
        elif kind == "copy":
            pairs.append((dense.copy(), sparse.copy()))
        else:
            pairs.append(fresh())
        for dense, sparse in pairs:
            assert observe(sparse) == observe(dense)
        for dense_a, sparse_a in pairs:
            for dense_b, sparse_b in pairs:
                assert sparse_a.refines(sparse_b) == dense_a.refines(dense_b)
    assert list(domain.position) == DOMAIN  # a shared domain is never mutated


@settings(max_examples=300, deadline=None)
@given(st.lists(operation, max_size=25))
def test_random_operations_agree_over_a_shared_domain(operations):
    run(operations, shared=True)


@settings(max_examples=150, deadline=None)
@given(st.lists(operation, max_size=25))
def test_random_operations_agree_over_a_private_domain(operations):
    run(operations, shared=False)


def test_descriptions_agree_with_a_dense_replay(paper_stats):
    """Generator views and queries: the description's classes equal the
    dense union-find seeded with the same domain and fed the same
    equalities in the same order -- the exact roots included."""
    catalog = tpch_catalog()
    generator = WorkloadGenerator(catalog, paper_stats, seed=7)
    statements = [view.statement for _, view in generator.generate_views(150)]
    statements += [generator.generate_query().statement for _ in range(150)]
    for statement in statements:
        description = describe(
            catalog.bind_sql(statement_to_sql(statement)), catalog
        )
        domain = column_domain(catalog, description.tables)
        dense = DenseClasses(domain.position)
        for a, b in description.classified.equalities:
            dense.add_equality(a, b)
        # Merged columns, then a few trivial ones, then an unknown one.
        universe = [c for cls in dense.nontrivial_classes() for c in cls]
        universe += list(domain.position)[:4] + [NEVER]
        sparse = description.eqclasses
        assert observe(sparse, universe) == observe(dense, universe)
        assert [sparse.find(c) for c in domain.position] == [
            dense.find(c) for c in domain.position
        ]
        # Descriptions over one table set share one domain.
        again = describe(description.statement, catalog).eqclasses
        assert again._domain is sparse._domain
