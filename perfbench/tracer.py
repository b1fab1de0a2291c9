"""Per-layer tracing from outside the program.

In a traced run the benchmark rebinds public names where their callers
look them up (module attributes), so every call into a layer records a
span: name, parent span, start and end.  Nothing under src/ is edited and
an untraced run installs nothing.  Spans and a few cheap per-call records
are kept in memory for one operation at a time; after the operation the
worker calls flush(), which turns them into self times (span minus the
part its child spans cover) and work counters.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from functools import lru_cache
from math import gcd
from time import perf_counter

from stats import self_times
from workloads import decimal_digits, normalized_quotients

# (module, attribute, layer name).  A layer imported into several modules
# is rebound in each module that calls it.
TRACED = (
    ("toruscert._speedups", "min_displacement_scan", "speedups.min_displacement_scan"),
    ("toruscert._speedups", "farey_distance", "speedups.farey_distance"),
    ("toruscert.certify", "map_distance", "certify.map_distance"),
    ("toruscert.certify", "c_distance", "certify.c_distance"),
    ("toruscert.certify", "verify_report", "certify.verify_report"),
    ("toruscert.certify", "compose", "matrices.compose"),
    ("toruscert.certify", "denominator", "matrices.denominator"),
    ("toruscert.certify", "rational_eigenslopes", "matrices.rational_eigenslopes"),
    ("toruscert.certify", "classmap_from_json", "classmaps.classmap_from_json"),
    ("toruscert.anosov", "compose", "matrices.compose"),
    ("toruscert.anosov", "denominator", "matrices.denominator"),
    ("toruscert.anosov", "rational_eigenslopes", "matrices.rational_eigenslopes"),
    ("toruscert.anosov", "power_bound", "anosov.power_bound"),
    ("toruscert.anosov", "trace_sequence", "anosov.trace_sequence"),
    ("toruscert.matrices", "compose", "matrices.compose"),
    ("toruscert.matrices", "denominator", "matrices.denominator"),
    ("toruscert.classmaps", "compose", "matrices.compose"),
    ("toruscert.classmaps", "classmap_from_json", "classmaps.classmap_from_json"),
    ("toruscert.farey", "geodesic", "farey.geodesic"),
    ("toruscert.normal", "normal_sign_intersections", "normal.normal_sign_intersections"),
    ("workloads", "encode", "serialize.json_dump"),
)

# Layers whose per-call arguments and results feed a work counter.
RECORDED = {
    "speedups.min_displacement_scan",
    "certify.map_distance",
    "farey.geodesic",
    "normal.normal_sign_intersections",
    "anosov.power_bound",
    "anosov.trace_sequence",
    "serialize.json_dump",
}

CALLS_AND_SELF = (
    "speedups.min_displacement_scan",
    "speedups.farey_distance",
    "certify.map_distance",
    "certify.c_distance",
    "certify.verify_report",
    "matrices.compose",
    "matrices.denominator",
    "matrices.rational_eigenslopes",
    "anosov.power_bound",
    "anosov.trace_sequence",
    "farey.geodesic",
    "normal.normal_sign_intersections",
)


class Tracer:
    def __init__(self):
        self.active = False
        self.spans = []
        self.stack = []
        self.records = defaultdict(list)
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.max_trace_digits = 0
        self.normal_seen = set()

    def install(self):
        """Rebind every traced name that exists in the imported program."""
        for module_name, attr, layer in TRACED:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is not None:
                setattr(module, attr, self._wrap(fn, layer))

    def _wrap(self, fn, layer):
        record = layer in RECORDED

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(self.spans)
            parent = self.stack[-1] if self.stack else None
            self.spans.append(None)
            self.stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self.stack.pop()
                self.spans[index] = (layer, parent, start, end)
            if record:
                self.records[layer].append((args, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def flush(self):
        """Fold the spans and records of the last operation into the totals."""
        for name, secs in self_times(self.spans).items():
            self.self_s[name] += secs
        for name, _, _, _ in self.spans:
            self.calls[name] += 1
        for layer, recs in self.records.items():
            for args, result in recs:
                self._count(layer, args, result)
        self.spans.clear()
        self.stack.clear()
        self.records.clear()

    def _count(self, layer, args, result):
        c = self.counts
        if layer == "speedups.min_displacement_scan":
            bound, stop_at = args[4], args[5]
            best, wp, wq = result
            size = box_size(bound)
            c["box_slopes"] += size
            if best <= stop_at:
                c["early_stops"] += 1
                c["slopes_visited"] += scan_index(wp, wq, bound) + 1
            else:
                c["slopes_visited"] += size
        elif layer == "certify.map_distance":
            c["maps"] += 1
            c["integral_maps"] += all(x.denominator == 1 for x in args[0].entries())
        elif layer == "farey.geodesic":
            c["cf_sum"] += cf_sum_between(args[0], args[1])
        elif layer == "normal.normal_sign_intersections":
            x, y = args[0].triple(), args[1].triple()
            if (x, y) in self.normal_seen:
                c["normal_repeats"] += 1
            else:
                self.normal_seen.add((x, y))
                c["crossings"] += primitive_crossings(args[0], args[1])
        elif layer == "anosov.power_bound":
            for cls in result.per_class:
                c["tail_index_sum"] += cls.tail_index
                c["prefix_len_sum"] += len(cls.prefix)
                for t in cls.tail_traces:
                    self._digits(t)
        elif layer == "anosov.trace_sequence":
            self._digits(max(result, key=abs))
        elif layer == "serialize.json_dump":
            c["json_bytes"] += len(result)

    def _digits(self, value):
        self.max_trace_digits = max(self.max_trace_digits, decimal_digits(value))

    def metrics(self):
        """Per-layer metrics, every name present whether or not the layer ran."""
        c = self.counts
        out = {}
        for layer in CALLS_AND_SELF:
            out[f"{layer}.calls"] = (self.calls[layer], "count")
            out[f"{layer}.self_s"] = (self.self_s[layer], "s")
        scan = "speedups.min_displacement_scan"
        visited = c["slopes_visited"]
        out[f"{scan}.slopes_visited"] = (visited, "count")
        out[f"{scan}.visit_ratio"] = (_ratio(visited, c["box_slopes"]), "ratio")
        out[f"{scan}.ns_per_slope"] = (_ratio(self.self_s[scan] * 1e9, visited), "ns")
        out["certify.early_stop_share"] = (_ratio(c["early_stops"], self.calls[scan]), "ratio")
        out["certify.integral_share"] = (_ratio(c["integral_maps"], c["maps"]), "ratio")
        out["anosov.tail_index_sum"] = (c["tail_index_sum"], "count")
        out["anosov.prefix_len_sum"] = (c["prefix_len_sum"], "count")
        out["anosov.max_trace_digits"] = (self.max_trace_digits, "digits")
        out["farey.geodesic.cf_sum"] = (c["cf_sum"], "count")
        normal = "normal.normal_sign_intersections"
        out[f"{normal}.crossings"] = (c["crossings"], "count")
        out[f"{normal}.us_per_crossing"] = (_ratio(self.self_s[normal] * 1e6, c["crossings"]), "us")
        out["normal.repeat_share"] = (_ratio(c["normal_repeats"], self.calls[normal]), "ratio")
        out["serialize.json_dump.self_s"] = (self.self_s["serialize.json_dump"], "s")
        out["serialize.json_dump.bytes"] = (c["json_bytes"], "bytes")
        out["classmaps.classmap_from_json.self_s"] = (self.self_s["classmaps.classmap_from_json"], "s")
        return out


def _ratio(num, den):
    return num / den if den else 0.0


def primitive_crossings(x, y):
    """Crossings of one curve of each essential slope: the work of one call
    that is not served from a cache."""
    from toruscert.normal import decompose

    sx, sy = decompose(x).essential_slope, decompose(y).essential_slope
    if sx is None or sy is None:
        return 0
    return abs(sx.p * sy.q - sx.q * sy.p)


@lru_cache(maxsize=None)
def _row_counts(bound):
    return tuple(
        sum(1 for p in range(-bound, bound + 1) if gcd(abs(p), q) == 1)
        for q in range(1, bound + 1)
    )


def box_size(bound):
    """Slopes in the displacement scan box: 1/0 plus coprime (p, q), 1 <= q."""
    return 1 + sum(_row_counts(bound))


def scan_index(p, q, bound):
    """0-based position of p/q in the scan order fixed by the conventions:
    1/0 first, then q = 1..bound, p = -bound..bound."""
    if q == 0:
        return 0
    rows = _row_counts(bound)
    return 1 + sum(rows[: q - 1]) + sum(1 for r in range(-bound, p) if gcd(abs(r), q) == 1)


def cf_sum_between(s, t):
    """Sum of partial quotients a1 + ... + ak of the normalized target."""
    return sum(normalized_quotients(s, t)[1:])
