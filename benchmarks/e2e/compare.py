"""``compare A.json B.json``: one row per (workload, end-to-end metric).

``A`` is the base (the parent commit, or the first run set), ``B`` the
candidate. Each row shows both medians with their quartiles, the ratio
B/A, the bound, and a verdict:

* ``same``       -- B's median is within the bound of A's;
* ``better`` / ``worse`` -- B's median differs by more than the bound;
* ``unresolved`` -- either side's quartile distance is wider than the
  bound, so the run sets cannot tell;
* ``info``       -- the metric has no bound on this benchmark (demoted).

Metrics marked exact (``rewrite_share``, ``plan_cost_ratio``,
``failed_share``) must be equal when both sides measured the same
schedule digest. Exits 1 on any ``worse`` row or a higher
``failed_share``.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path


def _spread(row: dict) -> float:
    return (row["q3"] - row["q1"]) / row["median"] if row["median"] else 0.0


def verdict(base: dict, new: dict, same_inputs: bool) -> str:
    sign = 1.0 if base["better"] == "lower" else -1.0
    if base["exact"] and same_inputs:
        if new["median"] == base["median"]:
            return "same"
        return "worse" if sign * (new["median"] - base["median"]) > 0 else "better"
    bound = base["bound"]
    if bound is None:
        return "info"
    if max(_spread(base), _spread(new)) > bound:
        return "unresolved"
    worse_by = sign * (new["median"] - base["median"]) / base["median"]
    if worse_by > bound:
        return "worse"
    return "better" if worse_by < -bound else "same"


def rows(base: dict, new: dict) -> list[dict]:
    table = []
    for name, left in base["workloads"].items():
        right = new["workloads"].get(name)
        if right is None or "ok" not in (left["status"], right["status"]):
            continue
        if left["status"] != right["status"]:
            table.append({"workload": name, "metric": "-", "verdict": "skipped"})
            continue
        same_inputs = left["digest"] == right["digest"]
        for metric, a in left["end_to_end"].items():
            b = right["end_to_end"].get(metric)
            if b is None:
                continue
            table.append(
                {
                    "workload": name,
                    "metric": metric,
                    "unit": a["unit"],
                    "base": a,
                    "new": b,
                    "ratio": b["median"] / a["median"] if a["median"] else None,
                    "bound": a["bound"],
                    "verdict": verdict(a, b, same_inputs),
                }
            )
    return table


def render(table: list[dict]) -> str:
    lines = [
        f"{'workload':15s} {'metric':22s} {'A median [q1..q3]':>34s} "
        f"{'B median [q1..q3]':>34s} {'B/A':>7s} {'bound':>6s} verdict"
    ]
    for row in table:
        if "base" not in row:
            lines.append(f"{row['workload']:15s} {row['verdict']}")
            continue

        def side(r: dict) -> str:
            return f"{r['median']:.4g} [{r['q1']:.4g}..{r['q3']:.4g}]"

        ratio = f"{row['ratio']:.3f}" if row["ratio"] is not None else "-"
        bound = (
            "exact" if row["base"]["exact"]
            else "-" if row["bound"] is None
            else f"{row['bound']:.2f}"
        )
        lines.append(
            f"{row['workload']:15s} {row['metric']:22s} "
            f"{side(row['base']):>34s} {side(row['new']):>34s} "
            f"{ratio:>7s} {bound:>6s} {row['verdict']}"
        )
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e compare",
        description=__doc__.splitlines()[0],
    )
    parser.add_argument("base", help="result JSON of the base (A)")
    parser.add_argument("new", help="result JSON of the candidate (B)")
    arguments = parser.parse_args(argv)
    base = json.loads(Path(arguments.base).read_text())
    new = json.loads(Path(arguments.new).read_text())
    table = rows(base, new)
    print(render(table))
    failed_more = any(
        row.get("metric") == "failed_share"
        and row["new"]["median"] > row["base"]["median"]
        for row in table
    )
    worse = [row for row in table if row["verdict"] == "worse"]
    unresolved = [row for row in table if row["verdict"] == "unresolved"]
    print(
        f"{len(table)} rows: {len(worse)} worse, {len(unresolved)} unresolved"
    )
    return 1 if worse or failed_more else 0
