"""Incremental view maintenance under a live update stream.

Run with:  python examples/incremental_maintenance.py

Demonstrates why indexed views carry ``count_big(*)`` (paper, Section 2):
a revenue-per-customer view is maintained through order inserts and
deletes -- groups update in place and disappear exactly when their count
reaches zero -- while the view matcher keeps answering queries from the
view. Writes go through the CDC pipeline; draining it after each write
keeps the view as fresh as the base table.
"""

from repro import (
    CdcPipeline,
    ViewMatcher,
    execute,
    generate_tpch,
    statement_to_sql,
    tpch_catalog,
)


def main() -> None:
    catalog = tpch_catalog()
    database = generate_tpch(scale=0.0005, seed=9)
    pipeline = CdcPipeline(catalog, database)
    matcher = ViewMatcher(catalog)

    view_sql = """
        select o_custkey, sum(o_totalprice) as revenue, count_big(*) as cnt
        from orders group by o_custkey
    """
    statement = catalog.bind_sql(view_sql)
    pipeline.register_view("cust_revenue", statement)
    matcher.register_view("cust_revenue", statement)
    print(f"materialized cust_revenue: {database.row_count('cust_revenue')} groups "
          f"over {database.row_count('orders')} orders")

    query = catalog.bind_sql(
        "select o_custkey, sum(o_totalprice), count(*) from orders "
        "group by o_custkey"
    )
    (match,) = matcher.substitutes(query)
    print("query answered from the view:", statement_to_sql(match.substitute))

    def verify(label: str) -> None:
        expected = execute(query, database)
        actual = execute(match.substitute, database)
        ok = expected.bag_equals(actual, float_digits=9)
        print(f"  {label}: view answer still exact: {ok} "
              f"({database.row_count('cust_revenue')} groups)")
        assert ok

    # A burst of new orders for two customers, one of them brand new.
    next_key = max(
        row[0] for row in database.relation("orders").rows
    ) + 1
    new_orders = [
        (next_key, 1, "O", 1234.5, 9000, "1-URGENT", "Clerk#1", 0, "new"),
        (next_key + 1, 1, "O", 777.0, 9001, "2-HIGH", "Clerk#2", 0, "new"),
        (next_key + 2, 10_001, "O", 42.0, 9002, "5-LOW", "Clerk#3", 0, "new"),
    ]
    pipeline.insert("orders", new_orders)
    pipeline.drain()
    print(f"\ninserted {len(new_orders)} orders (customer 10001 is new)")
    verify("after inserts")

    # Delete every order of customer 1: its group must vanish.
    removed = pipeline.delete_where("orders", lambda row: row[1] == 1)
    pipeline.drain()
    print(f"\ndeleted all {removed} orders of customer 1")
    groups = {row[0] for row in database.relation("cust_revenue").rows}
    print(f"  group for customer 1 present: {1 in groups}")
    verify("after deletes")


if __name__ == "__main__":
    main()
