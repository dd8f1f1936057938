"""Workload builder: seed -> views, query pool, request schedule, digest.

Every workload is the paper's Section 5 generator
(:class:`repro.workload.WorkloadGenerator` over ``tpch_catalog()`` +
``synthetic_tpch_stats(scale=0.5)``) turned into SQL text; the program
under test only ever receives that text.

Two seeds with different jobs:

* the **installation** comes from ``CATALOG_SEED``, a constant of the
  workload definition: the registered views, the churn that replaces
  some of them, and the *population* of queries the clients draw from.
  Measured on this tree, redrawing a 1k-view catalog moves
  ``latency_p50_ms`` by 11 % and ``rewrite_share`` by 23 % (quartile
  distance over eight catalogs), and freshly generated queries per seed
  move ``throughput_qps`` by 10-18 % in a 10 s run -- wider than any
  regression bound the host's own noise leaves room for;
* the **traffic** comes from the ``--seed`` argument: which 80 % of the
  query population is sent and in what order (a sample without
  replacement, so two seeds share ~80 % of their queries and the
  sampling spread shrinks by sqrt(1 - 0.8)), the Zipf draws, the
  inserted rows.

The query population is stratified by table count, and so is every
sample of it: the paper's distribution (40 % two tables ... 2 % seven)
is applied as exact quotas instead of per-query coin flips, because
request cost grows ~7x from two to seven tables and an unstratified
300-query sample carries 6 +- 2.4 seven-table queries.

A schedule is a flat list of ops executed in order by closed-loop
clients::

    ("request", sql)
    ("publish", [(name, sql), ...], [name, ...])   # register / unregister
    ("insert", table, [row, ...])                  # CDC writer
    ("drain",)                                     # CDC applier

``digest`` is the sha256 of the canonical JSON of everything above, so
two runs can prove they measured identical inputs.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import math
import random
import time
from dataclasses import dataclass, field

from repro import ViewServer, WorkloadGenerator, generate_tpch
from repro.service import statement_fingerprint
from repro.sql import statement_to_sql
from repro.workload.generator import QUERY_TABLE_COUNT_DISTRIBUTION

CATALOG_SEED = 42
QUERY_SEED = CATALOG_SEED + 2
POPULATION_FACTOR = 1.25  # query population size / queries one run sends
COST_SAMPLE = 300  # distinct queries ``plan_cost_ratio`` is computed over
STATS_SCALE = 0.5
CDC_DATA_SCALE = 0.001
CDC_DATA_SEED = 11
ZIPF_S = 1.1


@dataclass(frozen=True)
class WorkloadSpec:
    """One named workload; sizes are per second of ``--seconds`` budget.

    Request counts are derived from the time budget by a fixed rate
    (calibrated on the 2-core reference host so the timed phase lasts
    about ``--seconds``) rather than by a stop-watch: the schedule is
    then identical on both sides of a comparison and every count metric
    repeats exactly.
    """

    name: str
    why: str
    views: int
    cache_enabled: bool
    entry: str  # "serve" | "rewrite"
    requests_per_second: float
    warmup: int
    pool: bool = False  # forked worker pool, one client thread per worker
    max_staleness: float | None = None
    zipf_pool_factor: int = 0  # 0 = every text sent once
    churn_every: int = 0  # publish after this many requests (0 = never)
    churn_views: int = 0
    cdc_rows_per_cycle: int = 0  # > 0 makes the schedule cycle-shaped
    setup_repeats: int = 1
    oracle_sample: int = 10  # 0 = catalog too large for the brute force


SPECS: dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            name="serve_cold_10k",
            why="10k views, cache off, 300 distinct queries each sent once: "
            "every request misses every memo, so filter tree, pre-verify, "
            "matching and optimizer do ~95% of the work",
            views=10_000,
            cache_enabled=False,
            entry="serve",
            requests_per_second=30,
            warmup=30,
            oracle_sample=0,
        ),
        WorkloadSpec(
            name="serve_hot_1k",
            why="1k views, cache on, 6000 Zipf(1.1) draws from 4096 queries "
            "(4x the cache): the median request is a memo + cache hit that "
            "bypasses core.*, evictions happen, misses set the tail",
            views=1_000,
            cache_enabled=True,
            entry="serve",
            requests_per_second=600,
            warmup=1000,
            zipf_pool_factor=4,
            setup_repeats=3,
        ),
        WorkloadSpec(
            name="pool_churn_1k",
            why="1k views, cache off, 2 forked workers + 2 client threads, "
            "1600 requests, 20 views registered + 20 dropped every 500: "
            "admission, queue, result frames and epoch swaps",
            views=1_000,
            cache_enabled=False,
            entry="rewrite",
            requests_per_second=160,
            warmup=100,
            pool=True,
            churn_every=500,
            churn_views=20,
            setup_repeats=3,
        ),
        WorkloadSpec(
            name="cdc_fresh_100",
            why="100 multi-join views kept by CDC; 3 cycles of insert 20 "
            "orders rows, drain, publish 10/10, 100 max_staleness=0 "
            "rewrites: the write path beside bounded-staleness reads",
            views=100,
            cache_enabled=True,
            entry="rewrite",
            requests_per_second=30,  # 0.3 cycles of 100 requests
            warmup=20,
            max_staleness=0.0,
            churn_every=100,
            churn_views=10,
            cdc_rows_per_cycle=20,
        ),
    )
}

# Every constructor argument the harness passes, in one place. Each row is
# filtered against the callee's signature at start-up, so a later change
# that deletes a knob (or ``core.sharding``) needs no edit here; the
# surviving arguments are echoed into the result's ``config`` block. None
# of the mode-ladder flags ROADMAP item 2 removes are ever passed.
SERVER_ARGS = {"shard_count": 4}  # + cache_enabled per workload
POOL_ARGS = {"workers": 2}  # capped at the usable core count


def accepted_arguments(callee, arguments: dict) -> dict:
    """``arguments`` restricted to the parameters ``callee`` still has."""
    parameters = inspect.signature(callee).parameters
    return {k: v for k, v in arguments.items() if k in parameters}


@dataclass
class Workload:
    """The generated inputs of one run."""

    spec: WorkloadSpec
    seed: int
    views: list  # [(name, sql)] registered in set-up
    warmup: list  # [sql] served before the timed phase
    ops: list  # the timed schedule
    sizes: dict = field(default_factory=dict)
    digest: str = ""
    generate_seconds: float = 0.0  # generating ``views``: part of set-up
    cost_sample: list = field(default_factory=list)  # for plan_cost_ratio

    def requests(self) -> list:
        return [op[1] for op in self.ops if op[0] == "request"]


def _quotas(total: int) -> dict[int, int]:
    """Exact per-table-count quotas (largest remainder) for ``total``."""
    shares = [(k, p * total) for k, p in QUERY_TABLE_COUNT_DISTRIBUTION]
    quotas = {k: int(share) for k, share in shares}
    leftovers = sorted(shares, key=lambda item: item[1] - int(item[1]))
    while sum(quotas.values()) < total:
        quotas[leftovers.pop()[0]] += 1
    return quotas


def query_population(catalog, stats, count: int, floor: dict) -> list:
    """``count`` fingerprint-distinct ``(tables, sql)`` pairs from QUERY_SEED.

    Stratified by table count (at least ``floor[k]`` queries of ``k``
    tables); the generator's output order is kept, a full stratum just
    skips the draw.
    """
    generator = WorkloadGenerator(catalog, stats, seed=QUERY_SEED)
    quotas = {k: max(q, floor.get(k, 0)) for k, q in _quotas(count).items()}
    seen: set[str] = set()
    population: list = []
    while any(quotas.values()):
        generated = generator.generate_query()
        tables = len(generated.tables)
        if quotas.get(tables, 0) <= 0:
            continue
        fingerprint = statement_fingerprint(generated.statement)
        if fingerprint in seen:
            continue
        seen.add(fingerprint)
        quotas[tables] -= 1
        population.append((tables, statement_to_sql(generated.statement)))
    return population


def sample_queries(rng: random.Random, population: list, quotas: dict) -> list:
    """A shuffled sample holding exactly ``quotas[k]`` queries of ``k`` tables."""
    chosen: list[str] = []
    for tables, quota in sorted(quotas.items()):
        stratum = [sql for k, sql in population if k == tables]
        chosen += rng.sample(stratum, quota)
    rng.shuffle(chosen)
    return chosen


def generate_views(catalog, stats, seed: int, count: int, prefix: str) -> list:
    """``count`` generator views as ``(name, sql)`` pairs."""
    generator = WorkloadGenerator(catalog, stats, seed=seed)
    return [
        (f"{prefix}{index:05d}", statement_to_sql(generated.statement))
        for index, (_, generated) in enumerate(
            generator.generate_views(count), start=1
        )
    ]


def _zipf_draws(rng: random.Random, pool_size: int, count: int) -> list[int]:
    weights = [1.0 / rank**ZIPF_S for rank in range(1, pool_size + 1)]
    return rng.choices(range(pool_size), weights=weights, k=count)


def _orders_rows(rng: random.Random, count: int, first_key: int) -> list:
    """Fresh ``orders`` rows cloned from the generated table's own rows."""
    existing = generate_tpch(
        scale=CDC_DATA_SCALE, seed=CDC_DATA_SEED
    ).relation("orders").rows
    rows = []
    for offset in range(count):
        row = list(existing[rng.randrange(len(existing))])
        row[0] = first_key + offset
        rows.append(row)
    return rows


def build(
    spec: WorkloadSpec,
    seed: int,
    seconds: float,
    catalog,
    stats,
    view_scale: float = 1.0,
    request_scale: float = 1.0,
) -> Workload:
    """Generate one workload's inputs from ``seed``.

    ``view_scale`` / ``request_scale`` shrink the catalog and the
    schedule for ``--smoke``; measured runs leave both at 1.
    """
    rng = random.Random(seed)
    view_count = max(int(spec.views * view_scale), 2 * spec.churn_views, 10)
    started = time.perf_counter()
    views = generate_views(catalog, stats, CATALOG_SEED, view_count, "mv")
    generate_seconds = time.perf_counter() - started
    # Never so few that a scaled-down run skips its first publish.
    requests = max(
        int(spec.requests_per_second * seconds * request_scale),
        spec.churn_every + 20,
    )
    warmup_count = max(int(spec.warmup * request_scale), 5)

    if spec.zipf_pool_factor:
        capacity = inspect.signature(ViewServer).parameters["cache_size"].default
        pool_size = spec.zipf_pool_factor * capacity
        pool_size = max(int(pool_size * request_scale), 40)
        population = query_population(catalog, stats, pool_size, {})
        pool = [sql for _, sql in population]
        draws = _zipf_draws(rng, pool_size, warmup_count + requests)
        texts = [pool[index] for index in draws]
    else:
        quotas = _quotas(warmup_count + requests)
        pool_size = math.ceil((warmup_count + requests) * POPULATION_FACTOR)
        population = query_population(catalog, stats, pool_size, quotas)
        texts = sample_queries(rng, population, quotas)
    warmup, timed = texts[:warmup_count], texts[warmup_count:]

    publishes = (requests - 1) // spec.churn_every if spec.churn_every else 0
    if spec.cdc_rows_per_cycle:
        publishes = max(requests // spec.churn_every, 1)
        timed = timed[: publishes * spec.churn_every]
    # Churn is catalog history (DDL), so it follows the catalog seed: a
    # seed-drawn batch of ten views costs 0.7-2.5 s to materialize
    # depending on which seven-table joins it happens to contain.
    added = generate_views(
        catalog, stats, CATALOG_SEED + 1, publishes * spec.churn_views, "cv"
    )
    dropped = random.Random(CATALOG_SEED).sample(
        [name for name, _ in views], publishes * spec.churn_views
    )
    rows = (
        _orders_rows(rng, publishes * spec.cdc_rows_per_cycle, 10_000_000)
        if spec.cdc_rows_per_cycle
        else []
    )

    def batch(items: list, size: int, number: int) -> list:
        return items[number * size : (number + 1) * size]

    ops: list = []
    for index, sql in enumerate(timed):
        if spec.churn_every and index % spec.churn_every == 0:
            cycle = index // spec.churn_every
            if spec.cdc_rows_per_cycle:
                inserted = batch(rows, spec.cdc_rows_per_cycle, cycle)
                ops += [("insert", "orders", inserted), ("drain",)]
                cycle += 1  # a CDC cycle publishes before its first request
            if cycle:
                ops.append(
                    (
                        "publish",
                        batch(added, spec.churn_views, cycle - 1),
                        batch(dropped, spec.churn_views, cycle - 1),
                    )
                )
        ops.append(("request", sql))

    # The sent queries that come first in the population: two seeds share
    # most of them, so plan_cost_ratio compares like with like.
    sent = set(timed)
    cost_sample = [sql for _, sql in population if sql in sent][:COST_SAMPLE]

    workload = Workload(
        spec=spec,
        seed=seed,
        views=views,
        warmup=warmup,
        ops=ops,
        generate_seconds=generate_seconds,
        cost_sample=cost_sample,
        sizes={
            "views": view_count,
            "requests": len(timed),
            "warmup": len(warmup),
            "distinct_queries": len(set(timed)),
            "query_pool": pool_size,
            "publishes": publishes,
            "churn_views": spec.churn_views,
            "rows_inserted": len(rows),
        },
    )
    canonical = json.dumps(
        [views, warmup, ops], separators=(",", ":"), sort_keys=True
    )
    workload.digest = hashlib.sha256(canonical.encode()).hexdigest()
    return workload
