"""The serve-path benchmark.

    python -m benchmarks.e2e [--seed 42] [--runs 5] [--out result.json]
    python -m benchmarks.e2e --smoke
    python -m benchmarks.e2e compare A.json B.json
    python -m benchmarks.e2e manifest > BENCHMARK.json

The default command runs every workload ``--runs`` times untraced (the
end-to-end metrics: median and quartiles over the run set) and once
traced (the per-layer metrics), each run in its own process, checks the
outputs, and prints every metric by name with its unit.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from . import compare, metrics, workloads
from .metrics import quartiles

RUN = Path(__file__).resolve().parent / "run.py"
RUN_SECONDS = 10


def manifest() -> dict:
    """``BENCHMARK.json``, generated from the metric and workload tables."""

    def entry(metric, bounded: bool) -> dict:
        row = {"name": metric.name, "unit": metric.unit, "better": metric.better}
        if bounded:
            row["bound"] = metric.bound
        return row

    contract = [m for m in metrics.END_TO_END if m.gated]
    demoted = [m for m in metrics.END_TO_END if not m.gated]
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": spec.name, "why": spec.why}
            for spec in workloads.SPECS.values()
        ],
        "end_to_end": [entry(m, True) for m in contract],
        "per_layer": [
            entry(m, False) for m in demoted + list(metrics.PER_LAYER)
        ],
    }


def _single_run(name: str, arguments, trace: int) -> dict | None:
    """One ``run.py`` process; ``None`` when the host must skip it."""
    command = [
        sys.executable, str(RUN), "--detail",
        "--workload", name,
        "--seed", str(arguments.seed),
        "--seconds", str(arguments.seconds),
        "--trace", str(trace),
    ]
    if arguments.smoke:
        command.append("--smoke")
    if arguments.no_check:
        command.append("--no-check")
    done = subprocess.run(command, capture_output=True, text=True)
    if done.returncode == 3:
        return None
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{name}: run failed with exit code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_workload(name: str, arguments) -> dict:
    untraced = []
    for _ in range(arguments.runs):
        result = _single_run(name, arguments, trace=0)
        if result is None:
            return {"status": "skipped", "why": "fewer than 2 usable cores"}
        untraced.append(result)
    traced = _single_run(name, arguments, trace=1)
    first = untraced[0]
    if any(r["digest"] != first["digest"] for r in untraced + [traced]):
        raise SystemExit(f"{name}: runs of one seed disagree on the schedule")

    end_to_end = {}
    for metric in metrics.END_TO_END:
        values = [
            r["metrics"][metric.name]
            for r in untraced
            if metric.name in r["metrics"]
        ]
        if not values:
            continue
        q1, median, q3 = quartiles(values)
        end_to_end[metric.name] = {
            "unit": metric.unit,
            "better": metric.better,
            "bound": metric.bound,
            "exact": metric.exact,
            "note": metric.note,
            "median": median,
            "q1": q1,
            "q3": q3,
            "n": len(values),
            "values": values,
        }
    per_layer = {
        metric.name: {
            "unit": metric.unit,
            "better": metric.better,
            "value": traced["metrics"][metric.name],
        }
        for metric in metrics.PER_LAYER
    }
    # Same schedule both times, so the throughput ratio is the wall ratio.
    per_layer["trace.overhead_ratio"] = {
        "unit": "ratio",
        "better": "lower",
        "value": end_to_end["throughput_qps"]["median"]
        / traced["metrics"]["throughput_qps"]
        - 1.0,
    }
    return {
        "status": "ok",
        "why": workloads.SPECS[name].why,
        "digest": first["digest"],
        "sizes": first["sizes"],
        "config": first["config"],
        "environment": first["environment"],
        "attempted": first["attempted"],
        "check": first.get("check"),
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "trace": traced["trace"],
    }


def render(document: dict) -> str:
    lines = []
    for name, result in document["workloads"].items():
        if result["status"] != "ok":
            lines.append(f"{name}: {result['status']} ({result['why']})")
            continue
        lines.append(
            f"{name}: {result['sizes']['views']} views, "
            f"{result['sizes']['requests']} requests, "
            f"digest {result['digest'][:12]}, check {result['check']}"
        )
        for metric, row in result["end_to_end"].items():
            lines.append(
                f"  {metric:44s} {row['median']:14.4f} {row['unit']:6s}"
                f" [{row['q1']:.4f} .. {row['q3']:.4f}] n={row['n']}"
                + ("" if row["bound"] is not None or row["exact"] else "  demoted")
            )
        for metric, row in result["per_layer"].items():
            lines.append(
                f"  {metric:44s} {row['value']:14.4f} {row['unit']}"
            )
    return "\n".join(lines)


def run_all(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e", description=__doc__.splitlines()[0]
    )
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=float(RUN_SECONDS))
    parser.add_argument(
        "--runs", type=int, default=1,
        help="untraced runs per workload (the run set)",
    )
    parser.add_argument(
        "--workloads", default=",".join(workloads.SPECS),
        help="comma-separated subset",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="1/20 of the requests over 1/10 of the views, check on",
    )
    parser.add_argument("--no-check", action="store_true")
    parser.add_argument("--out", default=None, help="write the result JSON")
    arguments = parser.parse_args(argv)

    document = {
        "schema": 1,
        "seed": arguments.seed,
        "seconds": arguments.seconds,
        "runs": arguments.runs,
        "smoke": arguments.smoke,
        "workloads": {},
    }
    for name in arguments.workloads.split(","):
        if name not in workloads.SPECS:
            parser.error(f"unknown workload {name!r}")
        document["workloads"][name] = run_workload(name, arguments)
    print(render(document))
    if arguments.out:
        Path(arguments.out).write_text(json.dumps(document, indent=1) + "\n")
    return 0


def main(argv: list[str]) -> int:
    if argv and argv[0] == "compare":
        return compare.main(argv[1:])
    if argv and argv[0] == "manifest":
        print(json.dumps(manifest(), indent=2))
        return 0
    return run_all(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
