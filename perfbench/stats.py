"""Order statistics and span arithmetic used by the benchmark."""

from __future__ import annotations

from collections import defaultdict
from statistics import quantiles

TAIL_SAMPLES_BEYOND = 10


def tail(samples, beyond=TAIL_SAMPLES_BEYOND):
    """The highest percentile with at least `beyond` samples above it.

    Returns (value, percentile, sample_count): the value has exactly
    `beyond` samples ranked above it, which makes it the
    100 * (n - beyond) / n percentile of the n samples.
    """
    n = len(samples)
    if n <= beyond:
        raise ValueError(f"need more than {beyond} samples for a tail, got {n}")
    ordered = sorted(samples)
    return ordered[n - beyond - 1], 100.0 * (n - beyond) / n, n


def covered_length(intervals, start, end):
    """Length of [start, end] covered by the union of the given intervals."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted((max(s, start), min(e, end)) for s, e in intervals):
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans):
    """Per-name self time: each span's duration minus what its children cover.

    spans is a list of (name, parent_index_or_None, start, end).
    """
    children = defaultdict(list)
    for _, parent, start, end in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = defaultdict(float)
    for i, (name, _, start, end) in enumerate(spans):
        out[name] += (end - start) - covered_length(children.get(i, ()), start, end)
    return dict(out)


def spread(values):
    """Distance between the first and third quartile, as a share of the median."""
    q1, med, q3 = quantiles(values, n=4)
    return (q3 - q1) / med
