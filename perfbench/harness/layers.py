"""Per-layer metrics derived from traced runs.

A traced batch run yields one prop_trace document per cell (see
trace/prop_trace.cpp): spans named "<layer>.<function>" with counters,
per-run records and, for the V-cycle, one row per level.  Layers are the
src/ module names.  Every per-layer metric is emitted on every workload;
a layer that a workload does not reach reads 0 there.
"""

from . import stats

SELF_TIME_LAYERS = ("hypergraph", "partition", "core", "fm", "multilevel",
                    "kway")


def duration(span):
    return span["end_s"] - span["start_s"]


def named(doc, name):
    return [s for s in doc["spans"] if s["name"] == name]


def total_s(doc, name):
    return sum(duration(s) for s in named(doc, name))


def counter(doc, name, key):
    return sum(s["counters"].get(key, 0.0) for s in named(doc, name))


def covered(intervals):
    """Length of the union of (start, end) intervals."""
    length, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            length += end - start
            reach = end
        elif end > reach:
            length += end - reach
            reach = end
    return length


def self_times(spans):
    """Per layer: each span's duration minus the part of its interval that
    its child spans cover, summed over the layer's spans."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(
            (s["start_s"], s["end_s"]))
    out = {}
    for i, s in enumerate(spans):
        layer = s["name"].split(".", 1)[0]
        own = duration(s) - covered(children.get(i, []))
        out[layer] = out.get(layer, 0.0) + own
    return out


def ratio(num, den):
    return num / den if den else 0.0


def empty(catalogue):
    return {m["name"]: 0.0 for m in catalogue}


def _hypergraph(m, docs):
    read = sum(total_s(d, "hypergraph.read_hgr") for d in docs)
    mb = sum(counter(d, "hypergraph.read_hgr", "bytes") for d in docs) / 1e6
    m["hypergraph.read_hgr_s"] = read
    m["hypergraph.read_hgr_mb_per_s"] = ratio(mb, read)
    m["hypergraph.pins"] = sum(counter(d, "hypergraph.read_hgr", "pins")
                               for d in docs)
    m["hypergraph.contract_s"] = sum(total_s(d, "hypergraph.contract")
                                     for d in docs)
    m["hypergraph.contract_pins"] = sum(
        counter(d, "hypergraph.contract", "pins") for d in docs)


def _runs(m, docs, capacity_s):
    """Partition layer: the slowest run sets the wall of a multi-start.
    `capacity_s` is the multi-start's wall time times its threads."""
    runs = [r for d in docs for r in d["runs"]]
    walls = [r["wall_s"] for r in runs]
    cpu = sum(r["cpu_s"] for r in runs)
    m["partition.run_s_p50"] = stats.median(walls)
    m["partition.run_s_max"] = max(walls) if walls else 0.0
    m["partition.cpu_s"] = cpu
    m["partition.pool_busy_ratio"] = ratio(cpu, capacity_s)
    m["partition.runs_failed"] = sum(1 for r in runs if not r["ok"])


def _refine(m, layer, docs, span, refine_s):
    """core / fm pass counters from the RefineTelemetry on `span`."""
    attempted = sum(counter(d, span, "moves_attempted") for d in docs)
    m[f"{layer}.refine_s"] = refine_s
    m[f"{layer}.passes"] = sum(counter(d, span, "passes") for d in docs)
    m[f"{layer}.moves_attempted"] = attempted
    if layer == "core":
        accepted = sum(counter(d, span, "moves_accepted") for d in docs)
        m["core.moves_accepted"] = accepted
        m["core.accept_ratio"] = ratio(accepted, attempted)
        m["core.refresh_skips"] = sum(counter(d, span, "refresh_skips")
                                      for d in docs)
        m["core.moves_per_s"] = ratio(attempted, refine_s)


def _datastruct(m, docs):
    """Gain-container operations of every pass engine the run reached."""
    spans = [s for d in docs for s in d["spans"] if "ops" in s["counters"]]
    ops = sum(s["counters"]["ops"] for s in spans)
    moves = sum(s["counters"]["moves_attempted"] for s in spans)
    m["datastruct.ops"] = ops
    m["datastruct.ops_per_move"] = ratio(ops, moves)


def _run_many_capacity(docs):
    return sum(duration(s) * s["counters"]["threads"]
               for d in docs for s in named(d, "partition.run_many"))


def _self(m, docs):
    own = {}
    for d in docs:
        for layer, secs in self_times(d["spans"]).items():
            own[layer] = own.get(layer, 0.0) + secs
    for layer in SELF_TIME_LAYERS:
        m[f"{layer}.self_s"] = own.get(layer, 0.0)


def flat2way(catalogue, docs):
    m = empty(catalogue)
    _hypergraph(m, docs)
    _runs(m, docs, _run_many_capacity(docs))
    refine_s = sum(counter(d, "partition.run_many", "refine_s") for d in docs)
    _refine(m, "core", docs, "partition.run_many", refine_s)
    _datastruct(m, docs)
    _self(m, docs)
    return m


def multilevel(catalogue, docs):
    m = empty(catalogue)
    _hypergraph(m, docs)
    _runs(m, docs, sum(total_s(d, "partition.run") for d in docs))
    _refine(m, "core", docs, "core.prop_refine",
            sum(total_s(d, "core.prop_refine") for d in docs))
    _refine(m, "fm", docs, "fm.fm_refine",
            sum(total_s(d, "fm.fm_refine") for d in docs))
    _datastruct(m, docs)
    rows = [r for d in docs for r in d["levels"] if r["level"] > 0]
    m["multilevel.levels"] = sum(d["result"]["levels"] for d in docs)
    m["multilevel.coarsest_nodes"] = sum(d["result"]["coarsest_nodes"]
                                         for d in docs)
    m["multilevel.coarsen_s"] = sum(total_s(d, "multilevel.coarsen")
                                    for d in docs)
    m["multilevel.node_reduction"] = ratio(
        sum(r["coarse_nodes"] / r["fine_nodes"] for r in rows), len(rows))
    m["multilevel.initial_s"] = sum(total_s(d, "multilevel.initial")
                                    for d in docs)
    m["multilevel.refine_s"] = sum(total_s(d, "multilevel.uncoarsen")
                                   for d in docs)
    m["multilevel.project_s"] = sum(
        total_s(d, "multilevel.project_partition") for d in docs)
    _self(m, docs)
    return m


def kway(catalogue, docs):
    m = empty(catalogue)
    _hypergraph(m, docs)
    _runs(m, docs, _run_many_capacity(docs))
    _datastruct(m, docs)
    m["kway.rb_s"] = sum(total_s(d, "kway.recursive_bisection") for d in docs)
    m["kway.greedy_s"] = sum(total_s(d, "kway.kway_refine") for d in docs)
    m["kway.prop_s"] = sum(total_s(d, "kway.kway_prop_refine") for d in docs)
    best = [d["runs"][d["result"]["best_run"]] for d in docs]
    m["kway.rb_cost"] = sum(r["rb_cost"] for r in best)
    m["kway.greedy_cost"] = sum(r["greedy_cost"] for r in best)
    m["kway.prop_cost"] = sum(r["cost"] for r in best)
    m["kway.prop_passes"] = sum(counter(d, "kway.kway_prop_refine", "passes")
                                for d in docs)
    m["kway.prop_moves"] = sum(
        counter(d, "kway.kway_prop_refine", "moves_attempted") for d in docs)
    _self(m, docs)
    return m


def serve(catalogue, docs):
    """The layers seen from outside the server: ingest of the inline
    payloads.  The service metrics come from the responses."""
    m = empty(catalogue)
    _hypergraph(m, docs)
    _self(m, docs)
    return m
