"""The benchmark's metric catalogue and its result line.

BENCHMARK.json at the checkout root is the single list of metric names and
units: a workload must produce exactly its end-to-end metrics untraced and
exactly its per-layer metrics traced.
"""

import json
import re

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def valid_name(name):
    return bool(NAME.match(name))


def valid_unit(unit):
    return bool(UNIT.match(unit))


def load_catalogue(path):
    """Reads BENCHMARK.json and checks every name and unit in it."""
    with open(path) as f:
        return check_catalogue(json.load(f))


def check_catalogue(spec):
    seen = set()
    for group in ("workloads", "end_to_end", "per_layer"):
        for entry in spec[group]:
            name = entry["name"]
            if not valid_name(name) or name in seen:
                raise ValueError(f"BENCHMARK.json: bad or repeated name {name!r}")
            seen.add(name)
            if "unit" in entry and not valid_unit(entry["unit"]):
                raise ValueError(f"BENCHMARK.json: bad unit for {name!r}")
    return spec


def result_line(catalogue, values, correct, attempted, failed):
    """The final stdout line.  `catalogue` is the BENCHMARK.json group the
    run reports; `values` must hold a number for each of its metrics and
    nothing else."""
    expected = {m["name"] for m in catalogue}
    if set(values) != expected:
        missing = sorted(expected - set(values))
        extra = sorted(set(values) - expected)
        raise ValueError(f"metrics mismatch: missing {missing}, extra {extra}")
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
               for m in catalogue}
    return json.dumps({"correct": bool(correct), "attempted": int(attempted),
                       "failed": int(failed), "metrics": metrics})
