"""Order statistics used by every metric."""

import math
import statistics

# A tail percentile is reported only when at least this many samples lie
# beyond it; with fewer, its value would be set by one or two samples.
MIN_BEYOND = 10
# The end-to-end tail latency is this percentile, or the highest below it
# that the sample count supports.  A 20 s serve run collects 400-700
# latencies: p99 would need 1000, and p97-p98 would be set by the few
# heaviest jobs of the mix.
TAIL_PERCENTILE = 95


def median(values):
    return statistics.median(values) if values else 0.0


def mean(values):
    return statistics.fmean(values) if values else 0.0


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least p% of the
    samples at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(n, p):
    """Samples strictly above the nearest-rank p-th percentile of n."""
    return n - max(1, math.ceil(p / 100.0 * n))


def tail(values, wanted):
    """The highest whole percentile up to `wanted` that has at least
    MIN_BEYOND samples beyond it, as (percentile, value).  With too few
    samples for any percentile above the median, the median is returned
    as percentile 50; the caller states the sample count."""
    n = len(values)
    for p in range(wanted, 50, -1):
        if beyond(n, p) >= MIN_BEYOND:
            return p, percentile(values, p)
    return 50, median(values)


def spread(values):
    """Distance between the first and third quartile as a share of the
    median, as statistics.quantiles(values, n=4) gives the quartiles."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else math.inf
