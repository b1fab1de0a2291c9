"""Acceptance suite: one test per criterion, one printed line per criterion.

Everything is exact arithmetic; the only tolerances are the wall-clock
budgets on the two exhaustive sweeps.  Run `pytest -s tests/test_acceptance.py`
to see the PASS lines stream.
"""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction
from itertools import product
from math import gcd

from tests.conftest import (
    bfs_distance_map,
    crossing_signs,
    fixed_slope_scan,
    random_hyperbolic_z,
    random_primitive_vector,
    random_slope,
    random_unimodular_q,
    random_unimodular_z,
)
from toruscert.anosov import power_bound, trace_sequence
from toruscert.certify import c_distance, trace_criterion, verify_report
from toruscert.classmaps import (
    ClassMap,
    build_from_two_surfaces,
    verify_third_surface,
)
from toruscert.errors import BoundaryCountError
from toruscert.farey import distance
from toruscert.matrices import (
    UnimodularQ,
    UnimodularZ,
    compose,
    denominator,
    lft_apply,
    rational_eigenslopes,
)
from toruscert.normal import (
    NormalCoordinates,
    curve_types,
    decompose,
    from_slope,
    normal_sign_intersections,
)
from toruscert.slopes import Slope, intersection_number

CLI = [sys.executable, "-m", "toruscert.cli"]


def report(number, name, ok):
    print(f"\nACCEPTANCE {number:02d} {'PASS' if ok else 'FAIL'}: {name}", flush=True)
    assert ok, f"criterion {number} failed: {name}"


def slope_box(bound):
    out = [Slope(1, 0)]
    for q in range(1, bound + 1):
        for p in range(-bound, bound + 1):
            if gcd(abs(p), q) == 1:
                out.append(Slope(p, q))
    return out


def test_01_farey_oracle_equivalence():
    start = time.monotonic()
    box = slope_box(25)
    ok = True
    for i, s in enumerate(box):
        oracle = bfs_distance_map(s, 25)
        for t in box[i + 1 :]:
            if distance(s, t) != oracle[(t.p, t.q)]:
                ok = False
                break
        if not ok:
            break
    elapsed = time.monotonic() - start
    report(1, f"distance == BFS oracle on all |p|,|q| <= 25 pairs ({elapsed:.0f}s)",
           ok and elapsed < 300)


def test_02_farey_isometry_invariance():
    rng = random.Random(2)
    ok = all(
        distance(s, t) == distance(lft_apply(a, s), lft_apply(a, t))
        for a, s, t in (
            (random_unimodular_z(rng), random_slope(rng), random_slope(rng))
            for _ in range(1000)
        )
    )
    report(2, "1000 random SL2(Z) isometries preserve distance", ok)


def test_03_eigenslope_exactness():
    rng = random.Random(3)
    ok = True
    for _ in range(1000):
        m = random_unimodular_q(rng)
        eig = rational_eigenslopes(m)
        d = denominator(m)
        scaled = tuple(int(x * d) for x in m.entries())
        brute = {Slope(p, q) for p, q in fixed_slope_scan(*scaled, 200)}
        if eig.fixes_all:
            box_size = len(slope_box(200))
            if len(brute) != box_size:
                ok = False
                break
            continue
        exact_in_range = {s for s in eig.slopes if abs(s.p) <= 200 and s.q <= 200}
        if brute != exact_in_range:
            ok = False
            break
    report(3, "exact eigenslopes == brute-force fixed slopes, |p|,|q| <= 200", ok)


def test_04_trace_lemma():
    rng = random.Random(4)
    ok = True
    found = 0
    while found < 1000:
        m = random_unimodular_q(rng, num_bound=9, den_bound=12)
        if not trace_criterion(m):
            continue
        found += 1
        if not rational_eigenslopes(m).is_empty():
            ok = False
            break
    report(4, "trace criterion implies empty eigenslope set (1000 cases)", ok)


def test_05_denominator_lemma():
    rng = random.Random(5)
    ok = True
    for _ in range(1000):
        m = random_unimodular_q(rng)
        u = random_primitive_vector(rng)
        w = (m.a * u[0] + m.b * u[1], m.c * u[0] + m.d * u[1])
        lcm = (
            w[0].denominator * w[1].denominator
            // gcd(w[0].denominator, w[1].denominator)
        )
        r = lcm * rng.randint(1, 6) * rng.choice((1, -1))
        image = (int(w[0] * r), int(w[1] * r))
        s = gcd(abs(image[0]), abs(image[1]))
        d = denominator(m)
        ratio = abs(Fraction(s, r))
        if not (Fraction(1, d) <= ratio <= d):
            ok = False
            break
    report(5, "d(L) >= |s/r| >= 1/d(L) on 1000 integral-image instances", ok)


def test_06_trace_recurrence():
    rng = random.Random(6)
    ok = True
    for _ in range(200):
        sigma = random_hyperbolic_z(rng)
        k = random_unimodular_q(rng)
        traces = trace_sequence(sigma, k, 30)
        dk = denominator(k)
        m = k
        for n in range(31):
            if traces[n] != m.trace() or denominator(m) != dk:
                ok = False
                break
            m = compose(sigma, m)
        if not ok:
            break
    report(6, "trace recurrence == matrix powers (n <= 30, 200 cases), d = d(K)", ok)


def _tail_criterion_holds(sigma, k, start, count, eigen_samples):
    rng = random.Random(7)
    sample_at = set(rng.sample(range(start, start + count), eigen_samples))
    m = k
    for _ in range(start):
        m = compose(sigma, m)
    for n in range(start, start + count):
        t, d = abs(m.trace()), denominator(m)
        if not (t * d < 2 or t > 2 * d):
            return False
        if n in sample_at and not rational_eigenslopes(m).is_empty():
            return False
        m = compose(sigma, m)
    return True


def test_07_theorem3_certificates():
    sigma = UnimodularZ(2, 1, 1, 1)
    ident = UnimodularZ(1, 0, 0, 1)
    ok = True

    rep = power_bound(sigma, ident, [ClassMap.identity()])
    ok &= rep.overall_n == 1
    ok &= _tail_criterion_holds(sigma, UnimodularQ(1, 0, 0, 1), 1, 501, 50)
    # minimality: n = 0 fails (trace 2 passes neither strict inequality)
    ok &= not (2 * 1 < 2 or 2 > 2 * 1)

    k2 = UnimodularQ(Fraction(1, 2), 0, 0, 2)
    rep2 = power_bound(sigma, ident, [ClassMap.external(k2)])
    ok &= rep2.overall_n == 2
    ok &= _tail_criterion_holds(sigma, k2, 2, 501, 50)
    # minimality: n = 1 (trace 3, denominator 2) fails
    m1 = compose(sigma, k2)
    t, d = abs(m1.trace()), denominator(m1)
    ok &= not (t * d < 2 or t > 2 * d)

    report(7, "Theorem-3 powers: N = 1 and N = 2 examples, 501-power tails, minimality", ok)


def test_08_normal_roundtrip():
    ok = True
    for q in range(0, 21):
        for p in range(-20, 21):
            if (p, q) == (0, 0) or gcd(abs(p), q) != 1:
                continue
            s = Slope(p, q)
            for m in (1, 2, 3):
                for t in (0, 1, 2):
                    dec = decompose(from_slope(s, m, t))
                    if (
                        dec.essential_slope != s
                        or dec.essential_multiplicity != m
                        or dec.trivial_count != t
                    ):
                        ok = False
    report(8, "slope/coordinates roundtrip, |p|,|q| <= 20, m <= 3, t <= 2", ok)


def test_09_same_sign_lemma():
    start = time.monotonic()
    data = []
    for t in product(range(9), repeat=3):
        x = NormalCoordinates(*t)
        data.append((x, decompose(x), curve_types(x)))
    ok = True
    for x, dx, tx in data:
        for y, dy, ty in data:
            if not (tx & ty):
                continue
            si = normal_sign_intersections(x, y)
            if si.positives and si.negatives:
                ok = False
                break
            recs = crossing_signs(x, y)
            if recs and len({r.sign for r in recs}) != 1:
                ok = False
                break
            if dx.essential_slope is None or dy.essential_slope is None:
                expected = 0
            else:
                expected = (
                    intersection_number(dx.essential_slope, dy.essential_slope)
                    * dx.essential_multiplicity
                    * dy.essential_multiplicity
                )
            if abs(si.algebraic) != expected or si.geometric != expected:
                ok = False
                break
        if not ok:
            break
    elapsed = time.monotonic() - start
    report(9, f"same-type normal signs constant, counts exact, coords <= 8 ({elapsed:.0f}s)",
           ok and elapsed < 600)


def test_10_class_map_construction():
    rng = random.Random(10)
    ok = True
    for _ in range(1000):
        d = rng.choice((1, -1, 2, -2, 3, 5, 7))
        u = random_unimodular_z(rng)
        r2 = (int(u.a), int(u.c))
        s2 = (int(u.b) * d, int(u.d) * d)
        v = random_unimodular_z(rng)
        r1 = (int(v.a * r2[0] + v.b * r2[1]), int(v.c * r2[0] + v.d * r2[1]))
        s1 = (int(v.a * s2[0] + v.b * s2[1]), int(v.c * s2[0] + v.d * s2[1]))
        cm = build_from_two_surfaces(r1, s1, r2, s2)
        phi = cm.phi
        if phi.a * phi.d - phi.b * phi.c != 1:
            ok = False
            break
        if (phi.a * r2[0] + phi.b * r2[1], phi.c * r2[0] + phi.d * r2[1]) != r1:
            ok = False
            break
        if (phi.a * s2[0] + phi.b * s2[1], phi.c * s2[0] + phi.d * s2[1]) != s1:
            ok = False
            break
        # violating the determinant constraint must be rejected
        try:
            build_from_two_surfaces(r1, s1, r2, (2 * s2[0], 2 * s2[1]))
            ok = False
            break
        except BoundaryCountError:
            pass
        # third-surface determinant identities on a random member class
        a, b = rng.randint(-5, 5), rng.randint(-5, 5)
        if (a, b) == (0, 0):
            a = 1
        q2 = (a * r2[0] + b * s2[0], a * r2[1] + b * s2[1])
        q1 = (
            int(phi.a * q2[0] + phi.b * q2[1]),
            int(phi.c * q2[0] + phi.d * q2[1]),
        )
        check = verify_third_surface(cm, q1, q2)
        if not (check and check.det_identity_r and check.det_identity_s):
            ok = False
            break
    report(10, "1000 two-surface maps: det 1, columns mapped, mismatches rejected", ok)


def test_11_monotonicity():
    rng = random.Random(11)
    ok = True
    for _ in range(100):
        phi = random_unimodular_z(rng)
        classes = [
            ClassMap.external(random_unimodular_q(rng))
            for _ in range(rng.randint(2, 5))
        ]
        k = rng.randint(1, len(classes) - 1)
        small = classes[:k]
        lb_small = c_distance(phi, small, 12).c_distance_lower_bound
        lb_large = c_distance(phi, classes, 12).c_distance_lower_bound
        if lb_small < lb_large:
            ok = False
            break
    report(11, "smaller class lists never certify less (100 nestings)", ok)


def test_12_cli_end_to_end(tmp_path):
    ok = True

    r1 = subprocess.run(CLI + ["farey", "dist", "0/1", "1/0"],
                        capture_output=True, text=True)
    ok &= r1.returncode == 0 and r1.stdout == '{"distance":1}\n'

    r2 = subprocess.run(CLI + ["matrix", "eigenslopes", "[[2,1],[1,1]]"],
                        capture_output=True, text=True)
    ok &= r2.returncode == 0 and r2.stdout == '{"eigenslopes":[]}\n'

    classes = tmp_path / "id.json"
    classes.write_text(json.dumps([{
        "phi": [["1", "0"], ["0", "1"]],
        "type_pair": None,
        "complexity_bound": 0,
        "provenance": "external",
    }]))
    args = CLI + ["certify", "gluing", "--phi", "[[0,1],[-1,0]]",
                  "--classes", str(classes)]
    r3 = subprocess.run(args, capture_output=True, text=True)
    r3_again = subprocess.run(args, capture_output=True, text=True)
    ok &= r3.returncode == 0
    ok &= r3.stdout == r3_again.stdout  # byte-identical reruns
    cert = json.loads(r3.stdout)
    ok &= cert["c_distance_lower_bound"] == 1

    # --verify path: every emitted certificate revalidates
    cert_file = tmp_path / "cert.json"
    cert_file.write_text(r3.stdout)
    v = subprocess.run(CLI + ["certify", "verify", str(cert_file)],
                       capture_output=True, text=True)
    ok &= v.returncode == 0 and json.loads(v.stdout) == {"verified": True}
    ok &= verify_report(cert)

    power = subprocess.run(
        CLI + ["anosov", "power", "--sigma", "[[2,1],[1,1]]",
               "--psi", "[[1,0],[0,1]]", "--classes", str(classes)],
        capture_output=True, text=True)
    power_file = tmp_path / "power.json"
    power_file.write_text(power.stdout)
    v2 = subprocess.run(CLI + ["certify", "verify", str(power_file)],
                        capture_output=True, text=True)
    ok &= v2.returncode == 0 and json.loads(v2.stdout) == {"verified": True}

    report(12, "CLI golden outputs byte-identical; emitted reports verify", ok)
