"""Demonstrate the paper's extensions to view matching.

Run with:  python examples/extensions_demo.py

Four refinements the paper calls straightforward are always on: OR / IN
ranges and check constraints (Section 3.1.2), predicates mapped onto a
precomputed expression column (Section 3.1.3) and nullable foreign keys
under a null-rejecting query predicate (Section 3.2). Each scenario
matches under the default options and executes the substitute to
confirm soundness. Base-table backjoins (Section 7) change plans, so
they stay behind ``MatchOptions(allow_backjoins=True)``: that scenario
shows the view rejected without the option and matched with it.
"""

from repro import (
    Catalog,
    CheckConstraint,
    Column,
    ColumnType,
    Database,
    ForeignKey,
    MatchOptions,
    Table,
    ViewMatcher,
    execute,
    generate_tpch,
    materialize_view,
    statement_to_sql,
    tpch_catalog,
)
from repro.sql import parse_predicate


def banner(title: str) -> None:
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)


def show(matcher, catalog, query_sql: str) -> list:
    query = catalog.bind_sql(query_sql)
    matches = matcher.substitutes(query)
    if matches:
        for match in matches:
            print("  MATCH:", statement_to_sql(match.substitute))
    else:
        print("  no match")
    return matches


def scenario(catalog, database, name, view_sql, query_sql, note=None) -> None:
    """Match ``query_sql`` against the view under the default options and
    execute the substitute against ``database``."""
    print("view:  ", " ".join(view_sql.split()))
    print("query: ", " ".join(query_sql.split()))
    if note:
        print(f"({note})")
    matcher = ViewMatcher(catalog)
    matcher.register_view(name, catalog.bind_sql(view_sql))
    matches = show(matcher, catalog, query_sql)
    verify(catalog, database, name, view_sql, query_sql, matches)


def verify(catalog, database, name, view_sql, query_sql, matches) -> None:
    materialize_view(name, catalog.bind_sql(view_sql), database)
    expected = execute(catalog.bind_sql(query_sql), database)
    actual = execute(matches[0].substitute, database)
    print(f"  verified: {expected.bag_equals(actual, float_digits=9)} "
          f"({expected.row_count} rows)")
    database.drop(name)


def or_ranges(catalog, database) -> None:
    banner("Disjunctive (OR / IN) range predicates")
    scenario(
        catalog,
        database,
        "v_or",
        "select l_orderkey as k, l_partkey as p, l_quantity as q "
        "from lineitem where l_partkey < 80 or l_partkey > 120",
        "select l_orderkey, l_quantity from lineitem "
        "where l_partkey < 40 or l_partkey > 160",
        "each disjunction is an interval set; the view's contains the query's",
    )


def expression_columns(catalog, database) -> None:
    banner("Compensating predicates over precomputed expression columns")
    scenario(
        catalog,
        database,
        "v_rev",
        "select l_orderkey as k, l_quantity * l_extendedprice as rev "
        "from lineitem",
        "select l_orderkey from lineitem "
        "where l_quantity * l_extendedprice > 20000",
        "the view exposes the product, not its source columns",
    )


def check_constraints() -> None:
    banner("Check constraints strengthen the antecedent")
    catalog = Catalog()
    catalog.add_table(
        Table(
            name="sales",
            columns=(
                Column("id"),
                Column("amount", ColumnType.FLOAT),
            ),
            primary_key=("id",),
            check_constraints=(
                CheckConstraint(
                    "amount_positive", parse_predicate("sales.amount >= 0")
                ),
            ),
        )
    )
    database = Database()  # rows that satisfy the CHECK, as stored rows must
    database.store("sales", ("id", "amount"), [(i, i * 2.5) for i in range(50)])
    scenario(
        catalog,
        database,
        "v_ck",
        "select id as i, amount as a from sales where amount >= 0",
        "select id from sales",
        "the view's predicate is implied by the CHECK (amount >= 0)",
    )


def nullable_foreign_keys() -> None:
    banner("Nullable foreign keys under a null-rejecting predicate")
    catalog = Catalog()
    catalog.add_table(
        Table(name="dept", columns=(Column("dk"), Column("dname")), primary_key=("dk",))
    )
    catalog.add_table(
        Table(
            name="emp",
            columns=(
                Column("ek"),
                Column("dept_id", nullable=True),
                Column("salary"),
            ),
            primary_key=("ek",),
            foreign_keys=(ForeignKey(("dept_id",), "dept", ("dk",)),),
        )
    )
    database = Database()
    database.store("dept", ("dk", "dname"), [(1, 10), (2, 20)])
    database.store(
        "emp",
        ("ek", "dept_id", "salary"),
        [(1, 1, 100), (2, None, 200), (3, 2, 300), (4, None, 400)],
    )
    scenario(
        catalog,
        database,
        "v_fk",
        "select ek as e, salary as s, dept_id as d from emp, dept "
        "where dept_id = dk",
        "select ek, salary from emp where dept_id >= 1",
        "the join to dept drops the NULL dept_id rows; so does the query",
    )


def backjoins(catalog, database) -> None:
    banner("Base-table backjoins for missing columns (the one option)")
    view_sql = (
        "select o_orderkey as ok, o_custkey as ck from orders "
        "where o_custkey <= 100"
    )
    query_sql = (
        "select o_orderkey, o_totalprice from orders where o_custkey <= 50"
    )
    print("view:  ", " ".join(view_sql.split()))
    print("query: ", " ".join(query_sql.split()))
    print("(the view lacks o_totalprice but exposes orders' primary key)")

    print("\ndefault options:")
    baseline = ViewMatcher(catalog)
    baseline.register_view("v_bj", catalog.bind_sql(view_sql))
    show(baseline, catalog, query_sql)

    print("\nwith allow_backjoins=True:")
    extended = ViewMatcher(catalog, options=MatchOptions(allow_backjoins=True))
    extended.register_view("v_bj", catalog.bind_sql(view_sql))
    matches = show(extended, catalog, query_sql)
    verify(catalog, database, "v_bj", view_sql, query_sql, matches)


def main() -> None:
    catalog = tpch_catalog()
    database = generate_tpch(scale=0.001, seed=3)
    or_ranges(catalog, database)
    expression_columns(catalog, database)
    check_constraints()
    nullable_foreign_keys()
    backjoins(catalog, database)


if __name__ == "__main__":
    main()
