"""Independent rescoring of partitions.

Re-reads the .hgr input and the partition the program wrote, then
recomputes the cost and the balance window from the definitions alone.
Nothing here calls the code that produced the partition, so a bug in the
program's own cost bookkeeping shows up as a mismatch.
"""

import math
from dataclasses import dataclass


@dataclass
class Hgr:
    num_nodes: int
    nets: list          # one tuple of 0-based pins per net
    net_costs: list
    node_sizes: list


def parse_hgr(text):
    """Parses hMETIS .hgr text: header "E N [fmt]", E net lines (weight
    first when fmt has the 1-bit), then N node weights when fmt has the
    10-bit.  Lines starting with '%' and blank lines are skipped."""
    lines = (ln.split() for ln in text.splitlines())
    lines = [ln for ln in lines if ln and not ln[0].startswith("%")]
    if not lines:
        raise ValueError("hgr: empty input")
    header = lines[0]
    num_nets, num_nodes = int(header[0]), int(header[1])
    fmt = int(header[2]) if len(header) > 2 else 0
    if fmt not in (0, 1, 10, 11):
        raise ValueError(f"hgr: unknown fmt {fmt}")
    weighted_nets = fmt in (1, 11)
    weighted_nodes = fmt in (10, 11)
    if len(lines) < 1 + num_nets + (num_nodes if weighted_nodes else 0):
        raise ValueError("hgr: truncated")
    nets, costs = [], []
    for ln in lines[1:1 + num_nets]:
        values = [int(v) for v in ln]
        if weighted_nets:
            costs.append(values[0])
            values = values[1:]
        else:
            costs.append(1)
        pins = tuple(sorted({v - 1 for v in values}))
        if not pins or pins[0] < 0 or pins[-1] >= num_nodes:
            raise ValueError("hgr: pin out of range")
        nets.append(pins)
    sizes = [1] * num_nodes
    if weighted_nodes:
        rows = lines[1 + num_nets:1 + num_nets + num_nodes]
        sizes = [int(ln[0]) for ln in rows]
    return Hgr(num_nodes, nets, costs, sizes)


def read_hgr(path):
    with open(path) as f:
        return parse_hgr(f.read())


def read_partition(path):
    """prop_cli --out format: one part id per line, in node order."""
    with open(path) as f:
        return [int(ln) for ln in f.read().split()]


def decode_side(encoded):
    """The service's base-36 side string: one character per node."""
    return [int(c, 36) for c in encoded]


def cut_cost(g, part):
    """Sum of c(n) over nets that span at least two parts."""
    total = 0
    for pins, cost in zip(g.nets, g.net_costs):
        first = part[pins[0]]
        if any(part[v] != first for v in pins):
            total += cost
    return total


def connectivity_cost(g, part):
    """Sum of c(n) * (lambda(n) - 1), lambda = parts the net touches."""
    total = 0
    for pins, cost in zip(g.nets, g.net_costs):
        total += cost * (len({part[v] for v in pins}) - 1)
    return total


def two_way_window(g, r1, r2):
    """Allowed total size of side 0 for an (r1, r2) balance: ceil(r1 * W)
    to floor(r2 * W), widened by the largest node on both ends when
    narrower than two of it, clamped to [0, W]."""
    total = sum(g.node_sizes)
    lo = math.ceil(r1 * total - 1e-9)
    hi = math.floor(r2 * total + 1e-9)
    biggest = max([1] + g.node_sizes)
    if hi - lo < 2 * biggest:
        lo, hi = lo - biggest, hi + biggest
    return max(lo, 0), min(hi, total)


def kway_window(g, k, tolerance=0.1):
    """Allowed total size of every part: W/k * (1 -+ tolerance), the upper
    bound rounded up, widened by the largest node when narrower than two
    of it."""
    total = sum(g.node_sizes)
    share = total / k
    lo = int(share * (1.0 - tolerance))
    hi = int(share * (1.0 + tolerance) + 0.999)
    biggest = max([1] + g.node_sizes)
    if hi - lo < 2 * biggest:
        lo, hi = max(0, lo - biggest), hi + biggest
    return lo, hi


def check(g, part, k, claimed_cost, balance=(0.45, 0.55)):
    """Rescores one partition.  2-way: cut cost and the side-0 window of
    `balance`; k > 2: connectivity cost and the per-part window.  Returns
    (cost, errors); errors is empty when the partition is valid and the
    claimed cost matches the recomputed one."""
    errors = []
    if len(part) != g.num_nodes:
        return None, [f"partition has {len(part)} entries, "
                      f"graph has {g.num_nodes} nodes"]
    if any(p < 0 or p >= k for p in part):
        return None, [f"part id outside [0, {k})"]
    sizes = [0] * k
    for node, p in enumerate(part):
        sizes[p] += g.node_sizes[node]
    if k == 2:
        cost = cut_cost(g, part)
        lo, hi = two_way_window(g, *balance)
        if not lo <= sizes[0] <= hi:
            errors.append(f"side 0 size {sizes[0]} outside [{lo}, {hi}]")
    else:
        cost = connectivity_cost(g, part)
        lo, hi = kway_window(g, k)
        for p, size in enumerate(sizes):
            if not lo <= size <= hi:
                errors.append(f"part {p} size {size} outside [{lo}, {hi}]")
    if abs(cost - claimed_cost) > 1e-6 * max(1.0, abs(cost)):
        errors.append(f"claimed cost {claimed_cost} != recomputed {cost}")
    return cost, errors
