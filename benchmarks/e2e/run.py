"""Single-run entry point (the command named in ``BENCHMARK.json``).

    python3 benchmarks/e2e/run.py --workload serve_cold_10k --seed 42 \
        --seconds 10 --trace 0

Runs one workload once and prints, as the last line of standard output,
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics`` -- the ``end_to_end`` metrics of ``BENCHMARK.json`` with
``--trace 0``, its ``per_layer`` metrics with ``--trace 1``. ``--detail``
prints the full result document instead (what ``python -m benchmarks.e2e``
collects). Exits non-zero, printing no result, when the program cannot
be imported, an output is wrong, or the host cannot run the workload.
"""

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def main(argv=None) -> int:
    # Run as a script, sys.path[0] is this directory; the package needs
    # the repository root instead.
    here = str(Path(__file__).resolve().parent)
    sys.path[:] = [p for p in sys.path if p != here]
    sys.path.insert(0, str(ROOT))
    try:
        from benchmarks.e2e import metrics, oracle, runner, workloads
    except ImportError as exc:
        print(f"cannot import the program under test: {exc}", file=sys.stderr)
        return 2

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=sorted(workloads.SPECS)
    )
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--no-check", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--detail", action="store_true")
    arguments = parser.parse_args(argv)

    try:
        result = runner.run(
            arguments.workload,
            arguments.seed,
            arguments.seconds,
            trace=bool(arguments.trace),
            check=not arguments.no_check,
            smoke=arguments.smoke,
        )
    except runner.Skipped as exc:
        print(f"skipped: {exc}", file=sys.stderr)
        return 3
    except oracle.CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    finally:
        # On every path out: no process this run started outlives it.
        runner.reap_children()
    if arguments.detail:
        print(json.dumps(result))
        return 0

    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = manifest["per_layer" if arguments.trace else "end_to_end"]
    measured = result["metrics"]
    line = {
        "correct": True,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            entry["name"]: {
                # A layer this workload never reaches did no work: 0.
                "value": measured.get(entry["name"], 0.0),
                "unit": metrics.BY_NAME[entry["name"]].unit,
            }
            for entry in listed
        },
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Plan tie-breaks and float summation order in the optimizer follow
        # set iteration order, i.e. the string hash seed: two processes
        # served 16 of 360 requests with differing (cost, view) pairs until
        # it was pinned. Same seed, same plans, only with a fixed hash seed.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.exit(main())
