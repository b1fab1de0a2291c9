"""Seeded input generator for the benchmark workloads.

Standard library only: the program under test never sees the seed, only
the JSON-shaped records produced here, which the workload process turns
into library objects through the library's own parsers.

A workload's input stream is a sequence of rounds.  Round ``r`` depends
only on (workload, seed, r), so a run can stop after any whole round and
two runs with the same seed execute the same operations in the same order.
Every round has the same fixed mix of operation kinds and cost strata
(continued-fraction sums, crossing counts, trace values, ...); the seed
picks the concrete slopes and matrices inside each stratum.  That keeps
the cost of a round nearly seed-independent, which is what lets runs with
different seeds be compared at all.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

WORKLOADS = ("certify", "curves", "anosov", "cli_cold")

CERTIFY_BOUND = 100
CLI_CERTIFY_BOUND = 60
CLI_LIGHT_GROUPS = 10

# curves strata: partial-quotient sums for geodesic targets, crossing
# counts for normal pairs, and slope heights (as powers of two) for
# distance pairs.  Heights straddle 2**30, the int64 guard of the
# compiled distance kernel.
GEODESIC_CF_SUMS = (10, 30, 100, 300, 1000, 2000)
NORMAL_CROSSINGS = (10, 32, 100, 316, 1000, 3162, 10000)
DISTANCE_HEIGHT_BITS = (8, 16, 24, 29, 31, 40, 64, 100)
DISTANCE_PER_HEIGHT = 4
# Repeats of earlier pairs: one distance pair per height, and the normal
# pairs of the three largest crossing counts, whose cache entries are the
# biggest; 11 of the 50 distance and normal ops.  Repeating by stratum
# keeps a round's cost mix the same for every seed.  With the 40 distance
# ops the cheapest of the 56 in a round, five per height, the median
# latency falls in the middle of the 40-bit stratum, not on the edge
# between two differently priced ones.
DISTANCE_REPEATS = len(DISTANCE_HEIGHT_BITS)
NORMAL_REPEAT_CROSSINGS = NORMAL_CROSSINGS[-3:]
NORMAL_REPEATS = len(NORMAL_REPEAT_CROSSINGS)

# anosov strata: one sigma per |trace| in 3..10, and trace-sequence lengths,
# in ANOSOV_GROUPS groups per round, then one long power bound at |trace| 3
# and its verify.  Those two are a run's slowest operations by a factor of
# about four and twenty to thirty of its samples, so the tail latency (ten
# samples beyond it) falls in the middle of their group rather than on
# whichever operation a garbage-collector pause or a slowed host hit.
ANOSOV_TRACES = tuple(range(3, 11))
ANOSOV_CLASSES = 24
ANOSOV_GROUPS = 6
ANOSOV_LONG_CLASSES = 120
TRACE_SEQUENCE_LENGTHS = (250, 500, 1000)


def _rng(workload, seed, index):
    return random.Random(f"perfbench/{workload}/{seed}/{index}")


# ---------------------------------------------------------------------------
# Exact helpers (independent of the library).
# ---------------------------------------------------------------------------

def _mul(m, n):
    (a, b), (c, d) = m
    (e, f), (g, h) = n
    return ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))


def _inv(m):
    (a, b), (c, d) = m
    return ((d, -b), (-c, a))


def _fmt(x):
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def matrix_json(m):
    return [[_fmt(m[0][0]), _fmt(m[0][1])], [_fmt(m[1][0]), _fmt(m[1][1])]]


def canonical(p, q):
    g = gcd(abs(p), abs(q))
    p, q = p // g, q // g
    if q < 0 or (q == 0 and p < 0):
        p, q = -p, -q
    return p, q


def slope_text(p, q):
    p, q = canonical(p, q)
    return f"{p}/{q}"


def bezout(p, q):
    """(x, y) with x p + y q = 1 for coprime p, q."""
    old_r, r, old_x, x, old_y, y = p, q, 1, 0, 0, 1
    while r:
        k = old_r // r
        old_r, r = r, old_r - k * r
        old_x, x = x, old_x - k * x
        old_y, y = y, old_y - k * y
    if old_r < 0:
        old_x, old_y = -old_x, -old_y
    return old_x, old_y


def basis_from(p, q):
    """Integral determinant-one matrix whose first column is (p, q)."""
    x, y = bezout(p, q)
    return ((p, -y), (q, x))


def curve_types(p, q):
    """Normal-curve types of the slope p/q (minimal coordinates)."""
    p, q = canonical(p, q)
    if p >= q:
        coords = (p - q, 0, q)
    elif p >= 0:
        coords = (0, q - p, p)
    else:
        coords = (-p, q, 0)
    low = min(coords)
    return {i + 1 for i in range(3) if coords[i] == low}


def random_sl2z(rng, length, shear=3):
    m = ((1, 0), (0, 1))
    for _ in range(length):
        k = rng.choice([i for i in range(-shear, shear + 1) if i])
        e = ((1, k), (0, 1)) if rng.random() < 0.5 else ((1, 0), (k, 1))
        m = _mul(m, e)
    return m


def random_slope(rng, bound):
    while True:
        p, q = rng.randint(-bound, bound), rng.randint(0, bound)
        if (p, q) != (0, 0) and gcd(abs(p), q) == 1 and (q or p == 1):
            return p, q


def random_primitive(rng, bound):
    while True:
        x, y = rng.randint(-bound, bound), rng.randint(-bound, bound)
        if (x, y) != (0, 0) and gcd(abs(x), abs(y)) == 1:
            return x, y


def _apply(m, p, q):
    (a, b), (c, d) = m
    return canonical(a * p + b * q, c * p + d * q)


# ---------------------------------------------------------------------------
# Class map records in the library's JSON form.
# ---------------------------------------------------------------------------

def single_slope_record(rng, phi):
    """Integral class map record carrying a random slope tau2 to phi(tau2)."""
    tau2 = random_slope(rng, 6)
    tau1 = _apply(phi, *tau2)
    return {
        "phi": matrix_json(phi),
        "type_pair": [min(curve_types(*tau1)), min(curve_types(*tau2))],
        "complexity_bound": rng.randint(0, 3),
        "provenance": "single-slope",
    }


def two_surface_record(rng, det_range=(2, 6), entry_bound=6):
    """Rational class map Psi1 Psi2^-1 from two surfaces' boundary classes."""
    while True:
        r2 = (rng.randint(-entry_bound, entry_bound), rng.randint(-entry_bound, entry_bound))
        s2 = (rng.randint(-entry_bound, entry_bound), rng.randint(-entry_bound, entry_bound))
        det = r2[0] * s2[1] - r2[1] * s2[0]
        if det_range[0] <= abs(det) <= det_range[1] and r2 != (0, 0) and s2 != (0, 0):
            break
    r1 = random_primitive(rng, 5)
    u, v = bezout(r1[0], r1[1])
    k = rng.randint(-2, 2)
    # det(r1, s1) = det for s1 = det (-v, u) + k r1, since r1.x u + r1.y v = 1.
    s1 = (det * -v + k * r1[0], det * u + k * r1[1])
    return surfaces_record(rng, r1, s1, r2, s2)


def surfaces_record(rng, r1, s1, r2, s2):
    """Class map record of two surfaces with boundary classes r, s on T1, T2."""
    d = Fraction(r2[0] * s2[1] - r2[1] * s2[0])
    phi = (
        ((r1[0] * s2[1] - s1[0] * r2[1]) / d, (-r1[0] * s2[0] + s1[0] * r2[0]) / d),
        ((r1[1] * s2[1] - s1[1] * r2[1]) / d, (-r1[1] * s2[0] + s1[1] * r2[0]) / d),
    )
    t1 = curve_types(*r1) & curve_types(*s1)
    t2 = curve_types(*r2) & curve_types(*s2)
    return {
        "phi": matrix_json(phi),
        "type_pair": [min(t1), min(t2)] if t1 and t2 else None,
        "complexity_bound": rng.randint(0, 3),
        "provenance": "two-surface",
        "basis": {"r1": list(r1), "s1": list(s1), "r2": list(r2), "s2": list(s2)},
    }


def fixing_record(rng, gluing, slope_bound):
    """Integral class map whose composition with the gluing fixes a small slope.

    The composed map is a parabolic fixing exactly one slope s0 with
    |p|, q <= slope_bound, so the certificate is distance zero and the
    displacement scan stops at s0.
    """
    s0 = random_slope(rng, slope_bound)
    g = basis_from(*s0)
    k = rng.choice((-3, -2, -1, 1, 2, 3))
    parabolic = _mul(_mul(g, ((1, k), (0, 1))), _inv(g))
    return single_slope_record(rng, _mul(_inv(gluing), parabolic))


def gamma2_hyperbolic(rng):
    """Hyperbolic word of length three in [[1, 2], [0, 1]] and [[1, 0], [2, 1]]:
    congruent to the identity mod 2."""
    while True:
        u = ((1, 0), (0, 1))
        for _ in range(3):
            k = rng.choice((-2, 2))
            u = _mul(u, ((1, k), (0, 1)) if rng.random() < 0.5 else ((1, 0), (k, 1)))
        if abs(u[0][0] + u[1][1]) > 2:
            return u


def full_scan_record(rng, gluing, integral):
    """Class map whose composition with the gluing displaces every slope by two
    or more, so the displacement scan covers the whole box.

    The composed map is m = P U P^-1 with U hyperbolic and congruent to the
    identity mod 2, and P integral of odd determinant D (D = 1 for an
    integral class).  Then D m is congruent to the identity mod 2, so
    det(s, D m s) is even for every slope s while the gcd of D m s divides
    D^2, which is odd: no slope moves by one, and a hyperbolic map fixes
    none.  The class map is gluing^-1 m, as a single-slope record when
    integral and as the two-surface record with Psi2 = P,
    Psi1 = gluing^-1 P U otherwise.
    """
    u = gamma2_hyperbolic(rng)
    if integral:
        p = random_sl2z(rng, 3, shear=2)
        return single_slope_record(rng, _mul(_inv(gluing), _mul(_mul(p, u), _inv(p))))
    while True:
        p = ((rng.randint(-4, 4), rng.randint(-4, 4)), (rng.randint(-4, 4), rng.randint(-4, 4)))
        det = p[0][0] * p[1][1] - p[0][1] * p[1][0]
        if det % 2 and abs(det) >= 3:
            break
    psi1 = _mul(_mul(_inv(gluing), p), u)
    cols = lambda m: ((m[0][0], m[1][0]), (m[0][1], m[1][1]))  # noqa: E731
    return surfaces_record(rng, *cols(psi1), *cols(p))


def edge_record(rng, gluing):
    """Integral class map whose composed map [[a, ad - 1], [1, d]] is hyperbolic
    and moves 1/0, the first slope scanned, by one: the exact bound is 1
    and the scan stops at once."""
    while True:
        a, d = rng.randint(-4, 4), rng.randint(-4, 4)
        if abs(a + d) > 2:
            return single_slope_record(rng, _mul(_inv(gluing), ((a, a * d - 1), (1, d))))


def class_list(rng, gluing, fixing):
    """Six classes, three integral (single-slope) and three rational
    (two-surface).  Five are scanned in full; the sixth stops the scan early,
    at a small fixed slope when `fixing` (a distance-zero certificate) and
    at 1/0 otherwise, so every certificate costs about five full scans."""
    early = fixing_record(rng, gluing, 4) if fixing else edge_record(rng, gluing)
    classes = [early] + [
        full_scan_record(rng, gluing, integral) for integral in (True, True, False, False, False)
    ]
    rng.shuffle(classes)
    return classes


# ---------------------------------------------------------------------------
# Workload rounds.
# ---------------------------------------------------------------------------

def certify_round(seed, index):
    """Four 6-class certificates (two of them distance zero), one collection
    spec, and a verify_report on each of the five emitted reports."""
    rng = _rng("certify", seed, index)
    ops = []
    for fixing in rng.sample([True, True, False, False], 4):
        gluing = random_sl2z(rng, rng.randint(4, 6))
        ops.append({
            "kind": "c_distance",
            "gluing": matrix_json(gluing),
            "classes": class_list(rng, gluing, fixing),
            "bound": CERTIFY_BOUND,
        })
        ops.append({"kind": "verify", "of": len(ops) - 1})
    orderings = []
    for label in ("ordering-a", "ordering-b"):
        gluing = random_sl2z(rng, rng.randint(4, 6))
        classes = [full_scan_record(rng, gluing, True), full_scan_record(rng, gluing, False)]
        orderings.append({
            "label": label,
            "gluings": [{"phi": matrix_json(gluing), "classes": classes}],
        })
    ops.append({"kind": "collection", "spec": {"orderings": orderings}, "bound": CERTIFY_BOUND})
    ops.append({"kind": "verify", "of": len(ops) - 1})
    return ops


def cf_value(quotients):
    """p/q of the continued fraction [a0; a1, ..., ak]."""
    p, q = quotients[-1], 1
    for a in reversed(quotients[:-1]):
        p, q = a * p + q, p
    return p, q


def composition(rng, total, parts):
    """Random composition of total into the given number of positive parts."""
    cuts = sorted(rng.sample(range(1, total), parts - 1)) if parts > 1 else []
    edges = [0] + cuts + [total]
    return [b - a for a, b in zip(edges, edges[1:])]


def geodesic_pair(rng, cf_sum):
    """Slopes s, t whose normalized target has partial quotients summing to cf_sum.

    Built as 1/0 and [a0; a1, ..., ak] with a1 + ... + ak = cf_sum, then
    moved by a random small isometry, which preserves every distance.
    """
    parts = composition(rng, cf_sum, rng.randint(1, min(5, cf_sum)))
    p, q = cf_value([rng.randint(-3, 3)] + parts)
    g = random_sl2z(rng, rng.randint(2, 4), shear=2)
    return slope_text(*_apply(g, 1, 0)), slope_text(*_apply(g, p, q))


def distance_pair(rng, bits):
    def one():
        while True:
            q = rng.randint(1 << (bits - 1), 1 << bits)
            p = rng.randint(-(1 << bits), 1 << bits)
            if gcd(abs(p), q) == 1:
                return slope_text(p, q)

    return one(), one()


def normal_pair(rng, crossings):
    """Normal coordinates of two multicurves sharing a curve type whose
    primitive slopes meet in exactly `crossings` points."""
    while True:
        u = random_slope(rng, 9)
        if u[1] == 0:
            continue
        x, y = bezout(u[0], u[1])  # slope (-y, x) has det(u, .) = 1
        t = rng.randint(crossings, 3 * crossings)
        v = (crossings * -y + t * u[0], crossings * x + t * u[1])
        if gcd(abs(v[0]), abs(v[1])) != 1:
            continue
        v = canonical(*v)
        if curve_types(*u) & curve_types(*v):
            break
    mx, my = rng.randint(1, 3), rng.randint(1, 3)
    return _coords(u, mx, rng.randint(0, 2)), _coords(v, my, rng.randint(0, 2))


def _coords(s, mult, trivial):
    p, q = s
    if p >= q:
        e = (mult * (p - q), 0, mult * q)
    elif p >= 0:
        e = (0, mult * (q - p), mult * p)
    else:
        e = (mult * -p, mult * q, 0)
    return [v + trivial for v in e]


def _curves_fresh(seed, index):
    rng = _rng("curves", seed, index)
    geo = [{"kind": "geodesic", "pair": geodesic_pair(rng, n), "cf_sum": n} for n in GEODESIC_CF_SUMS]
    dist = [
        {"kind": "distance", "pair": distance_pair(rng, b)}
        for b in DISTANCE_HEIGHT_BITS
        for _ in range(DISTANCE_PER_HEIGHT)
    ]
    normal = [{"kind": "normal", "pair": normal_pair(rng, n), "crossings": n} for n in NORMAL_CROSSINGS]
    return rng, geo, dist, normal


def curves_round(seed, index):
    """Geodesics over six continued-fraction sums, distance pairs at eight
    heights and normal pairs at seven crossing counts, then repeats of
    pairs from this or an earlier round (see DISTANCE_REPEATS)."""
    rng, geo, dist, normal = _curves_fresh(seed, index)
    fresh = geo + dist + normal
    rng.shuffle(fresh)

    def earlier_round():
        earlier = rng.randint(0, index)
        return (dist, normal) if earlier == index else _curves_fresh(seed, earlier)[2:]

    repeats = []
    for h in range(len(DISTANCE_HEIGHT_BITS)):
        stratum = earlier_round()[0][h * DISTANCE_PER_HEIGHT:(h + 1) * DISTANCE_PER_HEIGHT]
        repeats.append(dict(rng.choice(stratum), repeat=True))
    for n in NORMAL_REPEAT_CROSSINGS:
        repeats.append(dict(earlier_round()[1][NORMAL_CROSSINGS.index(n)], repeat=True))
    return fresh + repeats


def hyperbolic(rng, trace):
    sigma = ((trace - 1, 1), (trace - 2, 1))
    g = random_sl2z(rng, 2, shear=2)
    sigma = _mul(_mul(g, sigma), _inv(g))
    if rng.random() < 0.5:
        sigma = ((-sigma[0][0], -sigma[0][1]), (-sigma[1][0], -sigma[1][1]))
    return sigma


def power_bound_op(rng, trace, count):
    """power_bound of a sigma with the given |trace| over `count` classes,
    half of them with d(K) near 10**30."""
    classes = [
        two_surface_record(rng, det_range=(10**30, 10**31), entry_bound=10**16)
        for _ in range(count // 2)
    ] + [single_slope_record(rng, random_sl2z(rng, 4)) for _ in range(count // 2)]
    return {
        "kind": "power_bound",
        "sigma": matrix_json(hyperbolic(rng, trace)),
        "psi": matrix_json(random_sl2z(rng, 3)),
        "classes": classes,
    }


def anosov_round(seed, index):
    """ANOSOV_GROUPS groups of power bounds for one sigma per |trace| in 3..10
    over 24 classes and three trace sequences, then one power bound over
    ANOSOV_LONG_CLASSES classes; a verify_report on each power-bound report."""
    rng = _rng("anosov", seed, index)
    ops = []

    def power(trace, count):
        ops.append(power_bound_op(rng, trace, count))
        ops.append({"kind": "verify", "of": len(ops) - 1})

    for _ in range(ANOSOV_GROUPS):
        for trace in rng.sample(ANOSOV_TRACES, len(ANOSOV_TRACES)):
            power(trace, ANOSOV_CLASSES)
        for n in TRACE_SEQUENCE_LENGTHS:
            k = two_surface_record(rng, det_range=(2, 60), entry_bound=10)["phi"]
            ops.append({
                "kind": "trace_sequence",
                "sigma": matrix_json(hyperbolic(rng, rng.choice(ANOSOV_TRACES))),
                "k": k,
                "n": n,
            })
    power(ANOSOV_TRACES[0], ANOSOV_LONG_CLASSES)
    return ops


def cli_round(seed, index):
    """One cold CLI process per command: CLI_LIGHT_GROUPS times farey dist,
    farey path and anosov power, then certify gluing of a 6-class
    certificate at bound CLI_CERTIFY_BOUND and certify verify of its output.

    Start-up dominates the light commands, so the median latency is theirs.
    The two certify commands compute for about one start-up more, which
    puts them above a light command that ran on a slowed host, and they
    are twenty to thirty of a run's samples: the tail latency (ten samples
    beyond it) falls in the middle of that group instead of on whichever
    commands a host slowdown happened to hit.
    """
    rng = _rng("cli_cold", seed, index)
    gluing = random_sl2z(rng, rng.randint(4, 6))
    ops = []
    for _ in range(CLI_LIGHT_GROUPS):
        ops.append({"kind": "farey_dist", "pair": distance_pair(rng, 20)})
        ops.append({"kind": "farey_path", "pair": geodesic_pair(rng, 40)})
        ops.append({
            "kind": "anosov_power",
            "sigma": matrix_json(hyperbolic(rng, rng.randint(3, 6))),
            "psi": matrix_json(random_sl2z(rng, 3)),
            "classes": [two_surface_record(rng, det_range=(2, 60), entry_bound=10)],
        })
    ops.append({
        "kind": "certify_gluing",
        "gluing": matrix_json(gluing),
        "classes": class_list(rng, gluing, rng.random() < 0.5),
        "bound": CLI_CERTIFY_BOUND,
    })
    ops.append({"kind": "certify_verify"})  # of the certificate just written
    return ops


ROUNDS = {
    "certify": certify_round,
    "curves": curves_round,
    "anosov": anosov_round,
    "cli_cold": cli_round,
}


def make_round(workload, seed, index):
    return ROUNDS[workload](seed, index)
