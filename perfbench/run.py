"""Run the dsasim benchmark.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1] [--memory 0|1]

Run from the root of a checkout; dsasim is imported from its ``src/``.
Prints one line per metric (workload, name, value, unit), then a JSON line
with the machine and code block and the per-operation details, and last
the result line ``{"correct", "attempted", "failed", "metrics"}``.  Exits
1 when any output check failed and 2 when the checkout has no dsasim.

``--write-reference`` runs every pool seed of the chosen workloads at full
size and rewrites their entries in ``reference.json``; use it only when a
change is meant to alter simulated results, and say so in the change.
"""
from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BASELINE = HERE / "baseline"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", help="a workload name, or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--memory", type=int, choices=(0, 1), default=1)
    # internal: a set-up probe, the baseline's operation server, and whether
    # the process imports the frozen baseline dsasim instead of src/
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--serve", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--baseline", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--scale", type=float, default=1.0, help=argparse.SUPPRESS)
    parser.add_argument("--write-reference", action="store_true")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "dsasim" / "__init__.py").is_file():
        print(f"no dsasim package under {SRC}; run from a dsasim checkout", file=sys.stderr)
        return 2
    baseline = args.baseline or args.serve
    sys.path.insert(0, str(BASELINE if baseline else SRC))
    import harness

    if args.workload != "all" and args.workload not in harness.workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.probe_setup:
        harness.probe_setup(args.workload)
        return 0
    if args.serve:
        harness.serve_baseline(args.workload, args.scale)
        return 0
    names = harness.workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    if args.write_reference:
        harness.write_reference(names)
        return 0

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = benchmark["run_seconds"] if args.seconds is None else args.seconds
    declared = benchmark["per_layer" if args.trace else "end_to_end"]

    try:
        runs = [
            harness.run_workload(name, args.seed, seconds, bool(args.trace), bool(args.memory))
            for name in names
        ]
    finally:
        shutil.rmtree(harness.workloads.WORK_DIR, ignore_errors=True)
    metrics = {}
    for run in runs:
        for spec in declared:
            if spec["name"] not in run["metrics"]:
                continue
            key = spec["name"] if len(runs) == 1 else f"{run['workload']}.{spec['name']}"
            value = run["metrics"][spec["name"]]
            metrics[key] = {"value": value, "unit": spec["unit"]}
            print(f"{run['workload']:<13} {spec['name']:<30} {value:>16.6g} {spec['unit']}")
        for problem in run["problems"]:
            print(f"{run['workload']:<13} CHECK FAILED {problem}")
    print(json.dumps({**harness.machine_block(), "runs": runs}))
    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
