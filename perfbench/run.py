#!/usr/bin/env python3
"""The PROP benchmark: one workload, measured from outside the program.

    python3 perfbench/run.py --workload flat2way --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Builds prop_cli, prop_serve and the
benchmark's prop_trace from the checkout's sources (into $CARGO_TARGET_DIR,
default .bench_build), generates the workload's inputs from --seed, measures
for --seconds, rescores every output, and prints as its last stdout line
one JSON object: {"correct", "attempted", "failed", "metrics"}.  --trace 0
reports the end-to-end metrics of BENCHMARK.json, --trace 1 its per-layer
metrics from a traced replay.  Exits nonzero when any output fails its
check.  See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from harness import batch, report, serve, tools  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(batch.WORKLOADS) + ["serve"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args()


def print_values(catalogue, values):
    for m in catalogue:
        print(f"  {m['name']:32s} {values[m['name']]:14.6g} {m['unit']}")


def main():
    args = parse_args()
    spec = report.load_catalogue(os.path.join(ROOT, "BENCHMARK.json"))
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    try:
        built = tools.build(ROOT, build_dir)
    except tools.BuildError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    work = os.path.join(build_dir, "work", f"{args.workload}-{args.seed}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    print(json.dumps({"host": tools.host_fingerprint(ROOT, built)}))

    if args.workload == "serve":
        run = serve.Run(built, work, args.seed)
    else:
        run = batch.Run(args.workload, built, work, args.seed)

    if args.trace:
        catalogue = spec["per_layer"]
        values, attempted, errors, notes = run.traced(args.seconds,
                                                      catalogue, work)
        failed, notes = len(errors), notes + errors[:20]
        if values is None:
            values = {m["name"]: 0.0 for m in catalogue}
        print(f"perfbench {args.workload} seed {args.seed}, traced; spans "
              f"and documents in {work}")
    else:
        catalogue = spec["end_to_end"]
        values, attempted, failed, notes = run.end_to_end(args.seconds)
        print(f"perfbench {args.workload} seed {args.seed}, untraced")
    for note in notes:
        print(f"  {note}")
    print_values(catalogue, values)
    print(report.result_line(catalogue, values, failed == 0, attempted,
                             failed))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
