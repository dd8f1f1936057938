"""Scenario: serving concurrent query rewrites behind an epoch-snapshot cache.

Run with:  python examples/serving_demo.py

The paper's premise is that view matching is cheap enough to run on every
query a production optimizer sees. This example puts that premise under
service conditions: a :class:`repro.ViewServer` fronts the optimizer with
immutable epoch-versioned catalog snapshots (client threads calling
``serve`` never lock), and a rewrite cache keyed by canonical query
fingerprints -- so a repeated dashboard workload is answered from the
cache, while registering or dropping a view bumps the epoch and retires
every cached rewrite from the previous generation.

The demo registers a handful of TPC-H views, replays a mixed workload
from several threads, then drops a view mid-flight and shows the epoch
bump and cache invalidation in the serving statistics.
"""

import threading

from repro import ViewServer, synthetic_tpch_stats, tpch_catalog
from repro.workload import WorkloadGenerator
from repro.sql import statement_to_sql


def main() -> None:
    catalog = tpch_catalog()
    stats = synthetic_tpch_stats(scale=0.1)

    # A small view pool and query batch from the Section 5 generator
    # (seed chosen so part of the batch is answerable from the pool).
    generator = WorkloadGenerator(catalog, stats, seed=1)
    views = list(generator.generate_views(12))
    queries = [
        statement_to_sql(q.statement) for q in generator.generate_queries(10)
    ]

    with ViewServer(catalog, stats) as server:
        for name, view in views:
            epoch = server.register_view(name, view.statement)
        print(f"registered {len(views)} views; serving epoch {epoch}")

        # Mixed workload: 4 threads, 5 passes over the batch -- the first
        # pass misses, later passes hit the fingerprinted plan cache.
        def client() -> None:
            for _ in range(5):
                for sql in queries:
                    result = server.serve(sql)
                    assert result.error is None, result.error

        threads = [threading.Thread(target=client) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        served = server.stats()
        cache = served["cache"]
        print(
            f"served {served['counters']['requests']} requests, "
            f"hit rate {cache['hit_rate']:.1%}, "
            f"{served['counters'].get('rewrites', 0)} answered from views"
        )

        # Drop one view: the epoch bumps and the previous generation of
        # cached rewrites is wholesale-invalidated.
        victim = views[0][0]
        new_epoch = server.unregister_view(victim)
        print(f"dropped {victim}: epoch {epoch} -> {new_epoch}")
        result = server.serve(queries[0])
        print(
            f"first query after drop: cache_hit={result.cache_hit} "
            f"(epoch {result.epoch})"
        )


if __name__ == "__main__":
    main()
