"""The batch workloads: prop_cli on a seeded .hgr, bytes in to bytes out.

One operation runs every cell of a workload once, each cell being one
prop_cli process that reads the .hgr and writes a partition file.  An
operation's wall time is what a user waits for.  Every output is rescored
by the checker after the measuring time ends.
"""

import json
import os
import re
import time
from dataclasses import dataclass

from . import checker, layers, procs, stats
from .stats import TAIL_PERCENTILE

SETUP_PROBES = 20  # extra set-up samples: start, wait for ready, kill
MIN_OPS = 4        # operations every run makes; the costs average these

SUMMARY = re.compile(r"best cut = (\S+)\s+mean = (\S+)")


@dataclass
class Cell:
    label: str
    k: int
    cli: list     # prop_cli flags besides --hgr, --seed and --out
    trace: list   # prop_trace mode and flags besides the same three


@dataclass
class Batch:
    nodes: int
    cells: list
    derive: object   # layers.<workload>: trace documents -> metrics


def _flat2way():
    runs = "24"
    return Batch(10_000, [Cell("k2", 2, [
        "--algo", "prop", "--runs", runs, "--threads", "2",
        "--balance", "45-55", "--gain-engine", "cached", "--pass-threads", "0",
    ], ["flat2way", "--runs", runs, "--threads", "2"])], layers.flat2way)


def _multilevel():
    return Batch(50_000, [Cell("ml", 2, [
        "--multilevel", "--runs", "1", "--threads", "1", "--balance", "45-55",
    ], ["multilevel"])], layers.multilevel)


def _kway():
    runs = "4"
    return Batch(10_000, [Cell(f"k{k}", k, [
        "--algo", "prop", "--k", str(k), "--runs", runs, "--threads", "2",
        "--kway-refiner", "prop", "--kway-objective", "connectivity",
    ], ["kway", "--k", str(k), "--runs", runs, "--threads", "2"])
        for k in (4, 8)], layers.kway)


WORKLOADS = {"flat2way": _flat2way, "multilevel": _multilevel,
             "kway": _kway}


def _read_bytes(path):
    if path is None:
        return None
    try:
        with open(path, "rb") as f:
            return f.read()
    except OSError:
        return None


class Run:
    """Every operation is a fresh draw: operation i partitions its own
    seeded synthetic with its own prop_cli seed, both derived from the
    workload seed.  A run then averages over inputs and random starts
    instead of repeating one draw (wall_s is the mean over operations for
    that reason), and the cost metrics come from the first MIN_OPS
    operations only, so for a given seed they do not depend on how many
    operations fit in the measuring time."""

    def __init__(self, name, tools, work, seed):
        self.batch = WORKLOADS[name]()
        self.tools, self.work, self.seed = tools, work, seed
        self.failures = []    # one reason per failed operation
        self.ready = []       # set-up samples, s
        self.op_walls = []    # one per completed operation, s
        self.rss = []
        self.outputs = []     # per operation: (hgr, {label: (path, best, mean)})
        self.invocations = 0

    def draw(self, op):
        """The input and prop_cli seed of operation `op`, generated before
        it is timed."""
        seed = self.seed * 10_000 + op
        hgr = os.path.join(self.work, f"input{op}.hgr")
        if not os.path.exists(hgr):
            self.tools.gen(self.batch.nodes, seed, hgr)
        return hgr, seed

    def _argv(self, cell, op, out):
        hgr, seed = self.draw(op)
        return [self.tools.prop_cli, "--hgr", hgr, "--seed", str(seed),
                "--out", out] + cell.cli

    def probe_setup(self):
        cell = self.batch.cells[0]
        for _ in range(SETUP_PROBES):
            r = procs.run(self._argv(cell, 0, os.path.join(self.work,
                                                           "probe.part")),
                          os.path.join(self.work, "probe.err"),
                          stop_when_ready=True)
            if r.ready_s is not None:
                self.ready.append(r.ready_s)

    def operate(self, op):
        """Runs every cell once on operation `op`'s draw; returns the
        partition files it wrote, by cell label."""
        hgr, _ = self.draw(op)
        wall, written = 0.0, {}
        for cell in self.batch.cells:
            out = os.path.join(self.work, f"{cell.label}-{op}.part")
            r = procs.run(self._argv(cell, op, out),
                          os.path.join(self.work, f"{cell.label}.err"))
            self.invocations += 1
            wall += r.wall_s
            self.rss.append(r.peak_rss_mb)
            if r.ready_s is not None:
                self.ready.append(r.ready_s)
            summary = SUMMARY.search(r.stdout)
            if r.returncode != 0 or summary is None or not os.path.exists(out):
                self.failures.append(f"{cell.label}: exit {r.returncode}: "
                                     f"{r.stderr.strip()[-200:]}")
            elif "runs failed" in r.stderr:
                self.failures.append(f"{cell.label}: "
                                     f"{r.stderr.strip()[-200:]}")
            else:
                written[cell.label] = (out, float(summary.group(1)),
                                       float(summary.group(2)))
        self.op_walls.append(wall)
        self.outputs.append((hgr, written))
        return written

    def measure(self, seconds):
        start = time.perf_counter()
        while True:
            self.operate(len(self.op_walls))
            elapsed = time.perf_counter() - start
            typical = stats.median(self.op_walls)
            if len(self.op_walls) >= MIN_OPS and elapsed + typical > seconds:
                return

    def check(self):
        """Rescores every partition written; returns per operation the
        summed (rescored best, reported mean) cost over its cells."""
        costs = []
        for hgr, written in self.outputs:
            g = checker.read_hgr(hgr)
            best = mean = 0.0
            for cell in self.batch.cells:
                if cell.label not in written:
                    continue
                path, claimed_best, claimed_mean = written[cell.label]
                cost, errors = checker.check(g, checker.read_partition(path),
                                             cell.k, claimed_best)
                self.failures += [f"{cell.label}: checker: {e}"
                                  for e in errors]
                best += cost or 0.0
                mean += claimed_mean
            costs.append((best, mean))
        return costs

    def end_to_end(self, seconds):
        self.probe_setup()
        self.measure(seconds)
        costs = self.check()[:MIN_OPS]
        attempted = self.invocations
        failed = len(self.failures)
        tail_p, tail = stats.tail(self.op_walls, TAIL_PERCENTILE)
        values = {
            "setup_s": stats.median(self.ready),
            "wall_s": stats.mean(self.op_walls),
            "best_cost": sum(b for b, _ in costs) / len(costs),
            "mean_cost": sum(m for _, m in costs) / len(costs),
            "peak_rss_mb": max(self.rss),
            "jobs_per_s": 1.0 / stats.mean(self.op_walls),
            "latency_ms_p50": 1e3 * stats.median(self.op_walls),
            "latency_ms_p95": 1e3 * tail,
            "success_ratio": (attempted - min(failed, attempted)) / attempted,
        }
        notes = [f"operations: {len(self.op_walls)}; latency tail is "
                 f"p{tail_p} of {len(self.op_walls)} samples",
                 "operation walls (s): " +
                 " ".join(f"{w:.3f}" for w in self.op_walls),
                 f"set-up samples: {len(self.ready)}"] + self.failures[:20]
        return values, attempted, failed, notes

    def traced(self, seconds, catalogue, trace_dir):
        """Alternates an untraced operation with a traced replay of the same
        draw until `seconds` pass.  Each replay must write the untraced
        run's partition byte for byte."""
        start = time.perf_counter()
        per_op, traced_walls = [], []
        while not per_op or time.perf_counter() - start < seconds:
            op = len(per_op)
            written = self.operate(op)
            hgr, seed = self.draw(op)
            docs, wall = [], 0.0
            for cell in self.batch.cells:
                part = os.path.join(trace_dir, f"{cell.label}-{op}.traced")
                doc_path = os.path.join(trace_dir, f"{cell.label}-{op}.json")
                r = procs.run(
                    [self.tools.prop_trace] + cell.trace +
                    ["--hgr", hgr, "--seed", str(seed),
                     "--part-out", part, "--trace-out", doc_path],
                    os.path.join(trace_dir, f"{cell.label}.err"))
                doc = _load_json(doc_path)
                if r.returncode != 0 or doc is None:
                    self.failures.append(f"{cell.label}: traced replay exit "
                                         f"{r.returncode}: {r.stderr.strip()}")
                    continue
                untraced = written.get(cell.label, (None,))[0]
                if _read_bytes(part) != _read_bytes(untraced):
                    self.failures.append(f"{cell.label}: traced replay wrote "
                                         "a different partition")
                docs.append(doc)
                # The untraced reference call is not part of the replay.
                wall += r.wall_s - doc["reference_s"]
            per_op.append(docs)
            traced_walls.append(wall)
        self.check()
        attempted = self.invocations + len(per_op) * len(self.batch.cells)
        if self.failures:
            return None, attempted, self.failures, []
        samples = [self.batch.derive(catalogue, docs) for docs in per_op]
        values = {name: stats.median([s[name] for s in samples])
                  for name in samples[0]}
        values["trace.overhead_s"] = (stats.median(traced_walls) -
                                      stats.median(self.op_walls))
        return values, attempted, [], level_table(per_op[0])


def level_table(docs):
    """The first traced V-cycle's rows: levels 1 (finest contraction) to
    the coarsest, then the flat refinement as level 0.  Empty for the
    workloads without a V-cycle."""
    rows = [r for d in docs for r in d["levels"]]
    if not rows:
        return []
    lines = ["level    nodes     pins  coarsen_s contract_s  refine_s "
             "project_s   cut"]
    for r in rows:
        lines.append(f"{r['level']:5d} {r['coarse_nodes']:8d} "
                     f"{r['coarse_pins']:8d} {r.get('coarsen_s', 0):10.4f} "
                     f"{r.get('contract_s', 0):10.4f} {r['refine_s']:9.4f} "
                     f"{r.get('project_s', 0):9.4f} {r['cut']:5.0f}")
    return lines


def _load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError):
        return None
