#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py --workload kway --seeds 1-10 --seconds 20

Runs perfbench/run.py once per seed (one at a time, untraced) and prints,
for every end-to-end metric, the median of its values and their spread:
the distance between the first and third quartile as a share of the
median.  A benchmark is steady when every spread but set-up's is well
inside the metric's bound in BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from harness import report, stats  # noqa: E402


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    p.add_argument("--seconds", type=int, default=20)
    args = p.parse_args()
    root = os.path.dirname(HERE)
    spec = report.load_catalogue(os.path.join(root, "BENCHMARK.json"))
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in args.seeds:
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, cwd=root)
        try:
            result = json.loads(out.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            print(f"seed {seed}: no result (exit {out.returncode}): "
                  f"{out.stderr.strip()[-300:]}")
            continue
        if out.returncode != 0 or not result["correct"]:
            print(f"seed {seed}: failed ({result['failed']} of "
                  f"{result['attempted']})")
        for name, m in result["metrics"].items():
            values[name].append(m["value"])
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
            flush=True)
    print(f"{'metric':20s} {'median':>12s} {'spread':>8s} {'bound':>6s}")
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        s = stats.spread(v) if len(v) >= 2 else float("nan")
        flag = "" if s <= m["bound"] / 3 else "  > bound/3"
        print(f"{m['name']:20s} {stats.median(v):12.6g} {s:8.4f} "
              f"{m['bound']:6.2f}{flag}")


if __name__ == "__main__":
    main()
