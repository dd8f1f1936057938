"""Demonstrate the Section 7 extensions: OR-ranges, backjoins, check constraints.

Run with:  python examples/extensions_demo.py

Each scenario first shows the paper-prototype behaviour (the view is
rejected) and then the behaviour with the corresponding ``MatchOptions``
extension enabled, executing the substitute to confirm soundness.
"""

from repro import (
    Catalog,
    CheckConstraint,
    Column,
    ColumnType,
    Database,
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


def or_ranges(catalog, database) -> None:
    banner("Extension 1: disjunctive (OR / IN) range predicates")
    view_sql = (
        "select l_orderkey as k, l_partkey as p, l_quantity as q "
        "from lineitem where l_partkey < 80 or l_partkey > 120"
    )
    query_sql = (
        "select l_orderkey, l_quantity from lineitem "
        "where l_partkey < 40 or l_partkey > 160"
    )
    print("view:  ", " ".join(view_sql.split()))
    print("query: ", " ".join(query_sql.split()))

    print("\npaper prototype (disjunctions are opaque residuals):")
    baseline = ViewMatcher(catalog)
    baseline.register_view("v_or", catalog.bind_sql(view_sql))
    show(baseline, catalog, query_sql)

    print("\nwith support_or_ranges=True (interval sets):")
    extended = ViewMatcher(catalog, options=MatchOptions(support_or_ranges=True))
    extended.register_view("v_or", catalog.bind_sql(view_sql))
    matches = show(extended, catalog, query_sql)

    materialize_view("v_or", catalog.bind_sql(view_sql), database)
    expected = execute(catalog.bind_sql(query_sql), database)
    actual = execute(matches[0].substitute, database)
    print(f"  verified: {expected.bag_equals(actual, float_digits=9)} "
          f"({expected.row_count} rows)")
    database.drop("v_or")


def backjoins(catalog, database) -> None:
    banner("Extension 2: base-table backjoins for missing columns")
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

    print("\npaper prototype:")
    baseline = ViewMatcher(catalog)
    baseline.register_view("v_bj", catalog.bind_sql(view_sql))
    show(baseline, catalog, query_sql)

    print("\nwith allow_backjoins=True:")
    extended = ViewMatcher(catalog, options=MatchOptions(allow_backjoins=True))
    extended.register_view("v_bj", catalog.bind_sql(view_sql))
    matches = show(extended, catalog, query_sql)

    materialize_view("v_bj", catalog.bind_sql(view_sql), database)
    expected = execute(catalog.bind_sql(query_sql), database)
    actual = execute(matches[0].substitute, database)
    print(f"  verified: {expected.bag_equals(actual, float_digits=9)} "
          f"({expected.row_count} rows)")
    database.drop("v_bj")


def check_constraints() -> None:
    banner("Extension 3: check constraints strengthen the antecedent")
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
    view_sql = "select id as i, amount as a from sales where amount >= 0"
    query_sql = "select id from sales"
    print("view:  ", view_sql)
    print("query: ", query_sql)
    print("(the view's predicate is implied by the CHECK (amount >= 0))")

    print("\npaper prototype:")
    baseline = ViewMatcher(catalog)
    baseline.register_view("v_ck", catalog.bind_sql(view_sql))
    show(baseline, catalog, query_sql)

    print("\nwith use_check_constraints=True:")
    extended = ViewMatcher(
        catalog, options=MatchOptions(use_check_constraints=True)
    )
    extended.register_view("v_ck", catalog.bind_sql(view_sql))
    matches = show(extended, catalog, query_sql)

    database = Database()  # rows that satisfy the CHECK, as stored rows must
    database.store("sales", ("id", "amount"), [(i, i * 2.5) for i in range(50)])
    materialize_view("v_ck", catalog.bind_sql(view_sql), database)
    expected = execute(catalog.bind_sql(query_sql), database)
    actual = execute(matches[0].substitute, database)
    print(f"  verified: {expected.bag_equals(actual, float_digits=9)} "
          f"({expected.row_count} rows)")


def main() -> None:
    catalog = tpch_catalog()
    database = generate_tpch(scale=0.001, seed=3)
    or_ranges(catalog, database)
    backjoins(catalog, database)
    check_constraints()


if __name__ == "__main__":
    main()
