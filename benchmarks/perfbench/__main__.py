"""``python -m benchmarks.perfbench run|compare`` (see README.md)."""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time

from benchmarks.perfbench import compare as cmp
from benchmarks.perfbench import harness
from benchmarks.perfbench.metrics import END_TO_END, FAIL_RATIO

WORKLOAD_NAMES = (
    "ior_scale", "tile256_payload", "stack_features", "chaos_repair", "read_back",
    "campaign_sweep",
)
DEFAULT_SEED = 2020
#: ``run_seconds`` of BENCHMARK.json: how long the timed passes of one run last.
RUN_SECONDS = 8


def cmd_run(args: argparse.Namespace) -> int:
    size = "smoke" if args.smoke else "full"
    seconds = 0 if args.smoke else args.seconds
    doc = {
        "schema": 1,
        "seed": args.seed,
        "size": size,
        "seconds": seconds,
        "host": {"nproc": os.cpu_count(), "python": platform.python_version(),
                 "date": time.strftime("%Y-%m-%d")},
        "worker_env": harness.WORKER_ENV,
        "workloads": {},
    }
    failed = False
    for name in args.workload or WORKLOAD_NAMES:
        try:
            # A traced or smoke run spends its time on the extra worker
            # instead of on repeated set-ups.
            result = harness.measure(
                name, args.seed, size, seconds,
                setups=1 if args.smoke or args.trace else harness.SETUPS)
            if args.trace:
                harness.trace(result)
        except harness.WorkerFailed as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 2
        doc["workloads"][name] = result
        failed = failed or result["failed"] > 0
        print(harness.render(result))
        print(harness.contract_line(result, traced=bool(args.trace)), flush=True)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1)
    if failed:
        print("perfbench: correctness checks failed (see FAILED lines above)", file=sys.stderr)
        return 1
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    with open(args.a) as fa, open(args.b) as fb:
        rows = cmp.compare(json.load(fa), json.load(fb))
    print(cmp.render(rows))
    return 1 if any(r["verdict"] == "worse" for r in rows) else 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m benchmarks.perfbench",
        description="End-to-end metrics: "
        + ", ".join(f"{m.name} [{m.unit}]" for m in (*END_TO_END, FAIL_RATIO)))
    sub = ap.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="measure workloads and print every metric by name")
    run.add_argument("--workload", action="append", choices=WORKLOAD_NAMES,
                     help="repeatable; default: all six")
    run.add_argument("--seed", type=int, default=DEFAULT_SEED)
    run.add_argument("--seconds", type=float, default=RUN_SECONDS,
                     help="how long the timed passes of one workload last")
    run.add_argument("--trace", nargs="?", type=int, choices=(0, 1), const=1, default=0,
                     help="add the per-layer traced run; the result line then carries "
                          "the per-layer metrics")
    run.add_argument("--smoke", action="store_true",
                     help="tiny sizes, one timed pass, one set-up (the test sizing)")
    run.add_argument("--out", metavar="FILE", help="write the full result document")
    run.set_defaults(fn=cmd_run)
    comp = sub.add_parser("compare", help="judge B against A by the benchmark's bounds")
    comp.add_argument("a")
    comp.add_argument("b")
    comp.set_defaults(fn=cmd_compare)
    args = ap.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
