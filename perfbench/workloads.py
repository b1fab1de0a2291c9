"""Operations of each workload and the independent checks on their outputs.

Each workload turns the generator's JSON records into library objects
through the library's parsers (prepare), runs one operation and encodes
its result in the CLI's canonical JSON form (execute, the timed part),
and checks the result without trusting the code path that produced it
(check, untimed).  A check failure or an exception counts the operation
as failed; nothing is dropped or retried.

Operations call the library through module attributes
(``certify.c_distance``) so that a traced run sees them; the tracer is
switched off while checks run.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction
from math import gcd, log10

from gen import bezout
from toruscert import anosov, certify, classmaps, farey, normal, serialize
from toruscert.anosov import trace_sequence
from toruscert.farey import distance
from toruscert.matrices import compose
from toruscert.slopes import Slope

SMALL_BOX = 12  # brute-force fixed-slope box for the certify check
BFS_BOX = 24  # heights up to which Farey distances are checked by BFS
CLI_TIMEOUT_S = 60  # a CLI process still running then is killed and its op fails


class CheckFailed(Exception):
    pass


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


def encode(to_json, value):
    """Canonical bytes: the CLI's compact key-sorted JSON of to_json(value)."""
    return json.dumps(to_json(value), sort_keys=True, separators=(",", ":")).encode()


def dump(payload):
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


# ---------------------------------------------------------------------------
# Independent exact helpers for the checks.
# ---------------------------------------------------------------------------

def mat(m):
    return tuple(Fraction(x) for x in m.entries())


def mul(m, n):
    a, b, c, d = m
    e, f, g, h = n
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def power(m, n):
    result = (Fraction(1), Fraction(0), Fraction(0), Fraction(1))
    while n:
        if n & 1:
            result = mul(result, m)
        m = mul(m, m)
        n >>= 1
    return result


def lcm_denominator(m):
    out = 1
    for x in m:
        out = out * x.denominator // gcd(out, x.denominator)
    return out


def scaled(m):
    d = lcm_denominator(m)
    return tuple(int(x * d) for x in m)


def image(m, p, q):
    a, b, c, d = scaled(m)
    x, y = a * p + b * q, c * p + d * q
    g = gcd(abs(x), abs(y))
    x, y = x // g, y // g
    if y < 0 or (y == 0 and x < 0):
        x, y = -x, -y
    return x, y


def brute_fixed_slopes(m, bound):
    a, b, c, d = scaled(m)
    hits = [(1, 0)] if c == 0 else []
    for q in range(1, bound + 1):
        for p in range(-bound, bound + 1):
            if gcd(abs(p), q) == 1 and (a * p + b * q) * q == (c * p + d * q) * p:
                hits.append((p, q))
    return hits


def box_neighbors(p, q, bound):
    """Farey neighbours of p/q with |p'|, q' <= bound (canonical pairs).

    They are the slopes (r0 + k p) / (s0 + k q) for p s0 - q r0 = 1.
    """
    x, y = bezout(p, q)
    r0, s0 = -y, x
    out = set()
    for k in range(-2 * bound - 2, 2 * bound + 3):
        r, s = r0 + k * p, s0 + k * q
        if s < 0 or (s == 0 and r < 0):
            r, s = -r, -s
        if abs(r) <= bound and s <= bound:
            out.add((r, s))
    return out


def bfs_distance(s, t, bound):
    """Breadth-first Farey distance inside the box |p|, q <= bound."""
    start, goal = (s.p, s.q), (t.p, t.q)
    seen, frontier, dist = {start}, [start], 0
    while frontier:
        if goal in frontier:
            return dist
        nxt = []
        for v in frontier:
            for w in box_neighbors(v[0], v[1], bound):
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier, dist = nxt, dist + 1
    return None


def oriented_class(type_index, s):
    """Type-convention orientation of a slope (see the library conventions)."""
    return (-1, 0) if type_index == 3 and s.q == 0 else (s.p, s.q)


def shared_types(x, y):
    tx = {i + 1 for i, v in enumerate(x) if v == min(x)}
    ty = {i + 1 for i, v in enumerate(y) if v == min(y)}
    return tx & ty


def decimal_digits(value):
    """Decimal digits of the numerator of an int or Fraction, without str(),
    which refuses integers past 4300 digits."""
    n = abs(getattr(value, "numerator", value))
    if n == 0:
        return 1
    d = int(n.bit_length() * log10(2))
    while 10**d <= n:
        d += 1
    while d > 1 and 10 ** (d - 1) > n:
        d -= 1
    return d


def normalized_quotients(s, t):
    """Continued-fraction quotients of t after the isometry taking s to 1/0."""
    x, y = bezout(s.p, s.q)
    num = x * t.p + y * t.q
    den = s.p * t.q - s.q * t.p
    if den < 0:
        num, den = -num, -den
    out = []
    while den:
        a = num // den
        out.append(a)
        num, den = den, num - a * den
    return out


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

def _parse_classes(records):
    return [classmaps.classmap_from_json(r) for r in records]


def _parse_orderings(spec):
    orderings = []
    for entry in spec["orderings"]:
        gluings = [
            (serialize.matrix_from_json(g["phi"], integral=True), _parse_classes(g["classes"]))
            for g in entry["gluings"]
        ]
        orderings.append((entry["label"], gluings))
    return orderings


def check_certificate(cert, bound, props):
    """Independent checks on one distance certificate."""
    phi = mat(cert.gluing)
    lowers = []
    for cm, result in cert.per_class:
        m = mul(phi, mat(cm.phi))
        lowers.append(result.lower_bound)
        props["maps"] += 1
        props["integral_maps"] += lcm_denominator(m) == 1
        props["lower_bound_0"] += result.lower_bound == 0
        props["early_stops"] += result.empirical_min_displacement <= result.lower_bound
        require(result.search_bound == bound, "search bound differs from the request")
        if result.lower_bound == 0:
            w = result.fixed_slope_witness
            require(image(m, w.p, w.q) == (w.p, w.q), f"witness {w} is not fixed")
        else:
            require(result.lower_bound == 1, "lower bound is neither 0 nor 1")
            hits = brute_fixed_slopes(m, SMALL_BOX)
            require(not hits, f"lower bound 1 but {hits} are fixed")
        w = result.empirical_witness
        require(max(abs(w.p), w.q) <= bound, "empirical witness outside the box")
        mw = Slope(*image(m, w.p, w.q))
        require(
            distance(w, mw) == result.empirical_min_displacement,
            "empirical displacement does not match its witness",
        )
        require(
            result.empirical_min_displacement >= result.lower_bound,
            "empirical displacement below the exact bound",
        )
    require(cert.c_distance_lower_bound == min(lowers), "c-distance is not the minimum")


class Certify:
    name = "certify"

    def prepare(self, raw):
        op = dict(raw)
        if raw["kind"] == "c_distance":
            op["gluing"] = serialize.matrix_from_json(raw["gluing"], integral=True)
            op["classes"] = _parse_classes(raw["classes"])
        elif raw["kind"] == "collection":
            op["orderings"] = _parse_orderings(raw["spec"])
        return op

    def execute(self, op, results):
        kind = op["kind"]
        if kind == "c_distance":
            cert = certify.c_distance(op["gluing"], op["classes"], op["bound"])
            return encode(certify.certificate_to_json, cert), cert
        if kind == "collection":
            report = certify.collection_distance(op["orderings"], op["bound"])
            return encode(certify.collection_report_to_json, report), report
        ok = certify.verify_report(json.loads(results[op["of"]]))
        return dump(ok), ok

    def check(self, op, value, props):
        kind = op["kind"]
        if kind == "c_distance":
            check_certificate(value, op["bound"], props)
        elif kind == "collection":
            for ordering in value.orderings:
                for cert in ordering.certificates:
                    check_certificate(cert, op["bound"], props)
                require(
                    ordering.min_lower_bound
                    == min(c.c_distance_lower_bound for c in ordering.certificates),
                    "ordering minimum is wrong",
                )
            require(
                value.best == max(o.min_lower_bound for o in value.orderings),
                "collection best is not the maximum over orderings",
            )
        else:
            require(value is True, "verify_report rejected an emitted report")


# ---------------------------------------------------------------------------
# curves
# ---------------------------------------------------------------------------

def check_geodesic(path, s, t):
    verts = path.vertices
    require(verts[0] == s and verts[-1] == t, "geodesic has the wrong endpoints")
    require(path.is_valid(), "geodesic is not a simple Farey path")
    require(path.length == distance(s, t), "geodesic length differs from the distance")
    if max(abs(s.p), s.q, abs(t.p), t.q) <= BFS_BOX:
        require(bfs_distance(s, t, BFS_BOX) == path.length, "BFS oracle disagrees")


def check_distance(d, s, t):
    require(d == distance(t, s), "distance is not symmetric")
    require((d == 0) == (s == t), "distance zero iff equal slopes")
    require((d == 1) == (abs(s.p * t.q - s.q * t.p) == 1), "distance one iff Farey edge")
    if max(abs(s.p), s.q, abs(t.p), t.q) <= BFS_BOX:
        require(bfs_distance(s, t, BFS_BOX) == d, "BFS oracle disagrees")


def check_normal(si, x, y):
    dx, dy = normal.decompose(x), normal.decompose(y)
    sx, sy = dx.essential_slope, dy.essential_slope
    copies = dx.essential_multiplicity * dy.essential_multiplicity
    crossings = abs(sx.p * sy.q - sx.q * sy.p)
    require(si.geometric == crossings * copies, "geometric count is not the intersection number")
    for t in shared_types(x.triple(), y.triple()):
        u, v = oriented_class(t, sx), oriented_class(t, sy)
        require(
            si.algebraic == (v[0] * u[1] - v[1] * u[0]) * copies,
            f"algebraic count breaks the type-{t} determinant formula",
        )


class Curves:
    name = "curves"

    def prepare(self, raw):
        op = dict(raw)
        if raw["kind"] == "normal":
            op["args"] = tuple(normal.NormalCoordinates(*c) for c in raw["pair"])
        else:
            op["args"] = tuple(Slope.parse(v) for v in raw["pair"])
        return op

    def execute(self, op, results):
        kind = op["kind"]
        if kind == "geodesic":
            path = farey.geodesic(*op["args"])
            return encode(lambda p: [str(v) for v in p.vertices], path), path
        if kind == "distance":
            d = farey.distance(*op["args"])
            return dump(d), d
        si = normal.normal_sign_intersections(*op["args"])
        return encode(lambda r: [r.positives, r.negatives], si), si

    def check(self, op, value, props):
        kind = op["kind"]
        if kind == "geodesic":
            check_geodesic(value, *op["args"])
        else:
            props["pairs"] += 1
            props["repeated_pairs"] += bool(op.get("repeat"))
        if kind == "distance":
            check_distance(value, *op["args"])
        elif kind == "normal":
            props["normal_ops"] += 1
            props["normal_repeats"] += bool(op.get("repeat"))
            check_normal(value, *op["args"])
        if kind != "normal":
            quotients = normalized_quotients(*op["args"])[1:]
            props["max_partial_quotient"] = max(props["max_partial_quotient"], *quotients, 0)


# ---------------------------------------------------------------------------
# anosov
# ---------------------------------------------------------------------------

def check_power_report(report, props):
    sigma = mat(report.sigma)
    psi = mat(report.psi)
    overall = 0
    for cls in report.per_class:
        k = mul(psi, mat(cls.class_map.phi))
        d_k = lcm_denominator(k)
        require(cls.d_k == d_k, "d(K) is wrong")
        i = cls.tail_index
        traces = trace_sequence(report.sigma, compose(report.psi, cls.class_map.phi), i + 1)
        t0, t1 = traces[i], traces[i + 1]
        require((t0, t1) == tuple(cls.tail_traces), "tail traces differ from trace_sequence")
        if cls.tail_kind == "zero":
            require(t0 == 0 and t1 == 0, "zero tail without two zero traces")
        else:
            require(cls.tail_kind == "growth", "unknown tail kind")
            require(abs(t1) >= abs(t0) and abs(t1) > 2 * d_k, "tail inequality fails")
        for n in (0, i, i + 1):
            spot = power(sigma, n)
            require(traces[n] == _trace(mul(spot, k)), f"trace {n} differs from sigma^n K")
        n = cls.n_class
        if n > 0:
            m = mul(power(sigma, n - 1), k)
            t, d = abs(_trace(m)), lcm_denominator(m)
            require(not (t * d < 2 or t > 2 * d), "power N-1 passes the trace test")
        overall = max(overall, n)
        props["max_trace_digits"] = max(props["max_trace_digits"], decimal_digits(t1))
    require(report.overall_n == overall, "overall N is not the maximum")


def _trace(m):
    return m[0] + m[3]


class Anosov:
    name = "anosov"

    def prepare(self, raw):
        op = dict(raw)
        if raw["kind"] == "power_bound":
            op["sigma"] = serialize.matrix_from_json(raw["sigma"], integral=True)
            op["psi"] = serialize.matrix_from_json(raw["psi"], integral=True)
            op["classes"] = _parse_classes(raw["classes"])
        elif raw["kind"] == "trace_sequence":
            op["sigma"] = serialize.matrix_from_json(raw["sigma"], integral=True)
            op["k"] = serialize.matrix_from_json(raw["k"])
        return op

    def execute(self, op, results):
        kind = op["kind"]
        if kind == "power_bound":
            report = anosov.power_bound(op["sigma"], op["psi"], op["classes"])
            return encode(anosov.power_report_to_json, report), report
        if kind == "trace_sequence":
            traces = anosov.trace_sequence(op["sigma"], op["k"], op["n"])
            return encode(lambda ts: [serialize.format_fraction(t) for t in ts], traces), traces
        ok = certify.verify_report(json.loads(results[op["of"]]))
        return dump(ok), ok

    def check(self, op, value, props):
        kind = op["kind"]
        if kind == "power_bound":
            check_power_report(value, props)
        elif kind == "trace_sequence":
            n = op["n"]
            require(len(value) == n + 1, "wrong number of traces")
            sigma, k = mat(op["sigma"]), mat(op["k"])
            for i in (0, 1, n // 2, n):
                require(value[i] == _trace(mul(power(sigma, i), k)), f"trace {i} is wrong")
            props["max_trace_digits"] = max(props["max_trace_digits"], decimal_digits(max(value, key=abs)))
        else:
            require(value is True, "verify_report rejected an emitted report")


# ---------------------------------------------------------------------------
# cli_cold
# ---------------------------------------------------------------------------

class CliCold:
    """One `python -m toruscert.cli` process per operation; stdout is compared
    byte for byte with the library's in-process result.  certify verify
    reads the certificate file the preceding certify gluing wrote."""

    name = "cli_cold"

    def __init__(self, workdir, env):
        self.workdir = workdir
        self.env = env
        self.count = 0
        self.certificate = None

    def _file(self, stem, payload=None):
        self.count += 1
        path = os.path.join(self.workdir, f"{stem}-{self.count}.json")
        if payload is not None:
            with open(path, "wb") as handle:
                handle.write(dump(payload))
        return path

    def prepare(self, raw):
        op = dict(raw)
        kind = raw["kind"]
        if kind in ("farey_dist", "farey_path"):
            op["argv"] = ["farey", kind.split("_")[1], "--", *raw["pair"]]
        elif kind == "certify_gluing":
            op["out"] = self.certificate = self._file("certificate")
            op["argv"] = [
                "certify", "gluing", "--phi=" + json.dumps(raw["gluing"]),
                "--classes", self._file("classes", raw["classes"]), "--bound", str(raw["bound"]),
            ]
        elif kind == "certify_verify":
            op["argv"] = ["certify", "verify", self.certificate]
        elif kind == "anosov_power":
            op["argv"] = [
                "anosov", "power", "--sigma=" + json.dumps(raw["sigma"]),
                "--psi=" + json.dumps(raw["psi"]), "--classes", self._file("classes", raw["classes"]),
            ]
        return op

    def execute(self, op, results):
        cmd = [sys.executable, "-m", "toruscert.cli", *op["argv"]]
        if op["kind"] == "certify_gluing":
            with open(op["out"], "wb") as handle:
                proc = subprocess.run(
                    cmd, stdout=handle, stderr=subprocess.PIPE, env=self.env, timeout=CLI_TIMEOUT_S, check=False
                )
            with open(op["out"], "rb") as handle:
                stdout = handle.read()
            return stdout, (stdout, proc.returncode)
        proc = subprocess.run(cmd, capture_output=True, env=self.env, timeout=CLI_TIMEOUT_S, check=False)
        return proc.stdout, (proc.stdout, proc.returncode)

    def check(self, op, value, props):
        stdout, code = value
        kind = op["kind"]
        expected_code = 0
        if kind in ("farey_dist", "farey_path"):
            s, t = (Slope.parse(v) for v in op["pair"])
            if kind == "farey_dist":
                payload = {"distance": distance(s, t)}
            else:
                path = farey.geodesic(s, t)
                payload = {"distance": path.length, "path": [str(v) for v in path.vertices]}
                check_geodesic(path, s, t)
        elif kind == "certify_gluing":
            phi = serialize.matrix_from_json(op["gluing"], integral=True)
            cert = certify.c_distance(phi, _parse_classes(op["classes"]), op["bound"])
            check_certificate(cert, op["bound"], props)
            payload = certify.certificate_to_json(cert)
            expected_code = 0 if cert.c_distance_lower_bound >= 1 else 2
        elif kind == "certify_verify":
            payload = {"verified": True}
        else:
            sigma = serialize.matrix_from_json(op["sigma"], integral=True)
            psi = serialize.matrix_from_json(op["psi"], integral=True)
            report = anosov.power_bound(sigma, psi, _parse_classes(op["classes"]))
            check_power_report(report, props)
            payload = anosov.power_report_to_json(report)
        require(code == expected_code, f"exit code {code}, expected {expected_code}")
        require(stdout == dump(payload) + b"\n", "stdout differs from the library result")


def input_properties(props):
    """Shares of the executed inputs with the properties later claims cite."""
    out = {}
    if props["maps"]:
        out["integral_share"] = props["integral_maps"] / props["maps"]
        out["early_stop_share"] = props["early_stops"] / props["maps"]
        out["lower_bound_0_share"] = props["lower_bound_0"] / props["maps"]
    if props["pairs"]:
        out["repeat_share"] = props["repeated_pairs"] / props["pairs"]
    if props["normal_ops"]:
        out["normal_repeat_share"] = props["normal_repeats"] / props["normal_ops"]
    for key in ("max_partial_quotient", "max_trace_digits"):
        if key in props:
            out[key] = props[key]
    return out
