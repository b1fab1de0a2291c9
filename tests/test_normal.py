from itertools import product
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tests.conftest import assert_frozen_value, crossing_signs, trace_components
from toruscert.errors import InvalidInputError, NoEssentialComponentError
from toruscert.normal import (
    CurveDecomposition,
    NormalCoordinates,
    SignedIntersections,
    curve_types,
    decompose,
    from_slope,
    normal_sign_intersections,
    oriented_class,
    slope_of,
)
from toruscert.slopes import Slope, bezout, intersection_number


def test_coordinates_validation():
    with pytest.raises(InvalidInputError):
        NormalCoordinates(-1, 0, 0)
    with pytest.raises(InvalidInputError):
        NormalCoordinates(1, 2, True)


def test_curve_types_examples():
    assert curve_types(NormalCoordinates(1, 2, 3)) == {1}
    assert curve_types(NormalCoordinates(2, 2, 2)) == {1, 2, 3}
    assert curve_types(NormalCoordinates(0, 0, 5)) == {1, 2}


def test_decompose_examples():
    empty = decompose(NormalCoordinates(0, 0, 0))
    assert empty.essential_slope is None and empty.trivial_count == 0
    link = decompose(NormalCoordinates(1, 1, 1))
    assert link.essential_slope is None and link.trivial_count == 1
    three = decompose(NormalCoordinates(0, 0, 3))
    assert three.essential_slope == Slope(1, 1)
    assert three.essential_multiplicity == 3 and three.trivial_count == 0


def test_slope_of_examples():
    with pytest.raises(NoEssentialComponentError):
        slope_of(NormalCoordinates(1, 1, 1))
    # frozen from the tracing oracle: the type-3 curve is parallel to the
    # diagonal, whose class is (1, 1) in the fixed basis
    assert slope_of(NormalCoordinates(0, 0, 1)) == Slope(1, 1)
    assert slope_of(from_slope(Slope(2, 3))) == Slope(2, 3)


def test_from_slope_examples():
    base = from_slope(slope_of(NormalCoordinates(0, 0, 1)), 1, 0)
    assert base.triple() == (0, 0, 1)
    s = Slope(-3, 5)
    doubled = from_slope(s, 2, 0)
    single = from_slope(s, 1, 0)
    assert doubled.triple() == tuple(2 * v for v in single.triple())
    with_link = from_slope(s, 1, 1)
    assert with_link.triple() == tuple(v + 1 for v in single.triple())
    for mult, trivial in ((0, 0), (True, 0), (1, False)):
        with pytest.raises(InvalidInputError):
            from_slope(s, mult, trivial)


def test_decompose_matches_tracing_oracle_exhaustively():
    for t in product(range(7), repeat=3):
        x = NormalCoordinates(*t)
        dec = decompose(x)
        comps = trace_components(x)
        trivial = sum(1 for c in comps if c == (0, 0))
        essential = [c for c in comps if c != (0, 0)]
        assert trivial == dec.trivial_count, x
        if dec.essential_slope is None:
            assert not essential, x
        else:
            assert len(essential) == dec.essential_multiplicity, x
            for p, q in essential:
                assert gcd(abs(p), abs(q)) == 1, x
                assert Slope(p, q) == dec.essential_slope, x


def test_roundtrip_small():
    for p in range(-12, 13):
        for q in range(0, 13):
            if (p, q) == (0, 0) or gcd(abs(p), q) != 1:
                continue
            s = Slope(p, q)
            for mult in (1, 2, 3):
                for trivial in (0, 1, 2):
                    x = from_slope(s, mult, trivial)
                    dec = decompose(x)
                    assert dec.essential_slope == s
                    assert dec.essential_multiplicity == mult
                    assert dec.trivial_count == trivial


def test_decompose_additive_over_haken_sums(rng):
    # disjoint curves: same slope, or extra vertex links
    for _ in range(100):
        p, q = rng.randint(-8, 8), rng.randint(0, 8)
        if (p, q) == (0, 0):
            continue
        s = Slope(p, q)
        m1, m2 = rng.randint(1, 3), rng.randint(1, 3)
        t1, t2 = rng.randint(0, 2), rng.randint(0, 2)
        total = from_slope(s, m1, t1) + from_slope(s, m2, t2)
        dec = decompose(total)
        assert dec.essential_slope == s
        assert dec.essential_multiplicity == m1 + m2
        assert dec.trivial_count == t1 + t2


def test_signs_zero_for_equal_or_trivial():
    x = NormalCoordinates(1, 1, 1)
    y = NormalCoordinates(0, 0, 1)
    assert normal_sign_intersections(x, x).geometric == 0
    assert normal_sign_intersections(x, y).geometric == 0
    z = from_slope(Slope(2, 3), 2, 1)
    w = from_slope(Slope(2, 3), 1, 2)
    assert normal_sign_intersections(z, w).geometric == 0


def test_signs_same_type_constant_and_counted():
    # distinct slopes, both of type 3 (negative slopes)
    x = from_slope(Slope(-1, 2), 2)
    y = from_slope(Slope(-3, 1), 1)
    si = normal_sign_intersections(x, y)
    assert si.geometric == intersection_number(Slope(-1, 2), Slope(-3, 1)) * 2
    assert si.positives == 0 or si.negatives == 0
    recs = crossing_signs(x, y)
    assert len({r.sign for r in recs}) == 1


def test_signs_antisymmetric(rng):
    for _ in range(50):
        p1, q1 = rng.randint(-6, 6), rng.randint(0, 6)
        p2, q2 = rng.randint(-6, 6), rng.randint(0, 6)
        if (p1, q1) == (0, 0) or (p2, q2) == (0, 0):
            continue
        x = from_slope(Slope(p1, q1), rng.randint(1, 2))
        y = from_slope(Slope(p2, q2), rng.randint(1, 2))
        a = normal_sign_intersections(x, y)
        b = normal_sign_intersections(y, x)
        assert (a.positives, a.negatives) == (b.negatives, b.positives)


def test_same_sign_lemma_and_determinant_convention():
    # all same-type pairs with coordinates <= 5: signs constant, and the
    # algebraic count matches the oriented-class determinant
    coords = [NormalCoordinates(*t) for t in product(range(6), repeat=3)]
    data = [(x, decompose(x), curve_types(x)) for x in coords]
    for x, dx, tx in data:
        if dx.essential_slope is None:
            continue
        for y, dy, ty in data:
            if dy.essential_slope is None:
                continue
            shared = tx & ty
            if not shared or dx.essential_slope == dy.essential_slope:
                continue
            recs = crossing_signs(x, y)
            assert len({r.sign for r in recs}) == 1, (x, y)
            si = normal_sign_intersections(x, y)
            t = min(shared)
            wu = oriented_class(t, dx.essential_slope)
            wv = oriented_class(t, dy.essential_slope)
            det = wv[0] * wu[1] - wv[1] * wu[0]
            mults = dx.essential_multiplicity * dy.essential_multiplicity
            assert si.algebraic == det * mults, (x, y)


def test_oriented_class_validation():
    with pytest.raises(InvalidInputError):
        oriented_class(4, Slope(0, 1))
    with pytest.raises(InvalidInputError):
        oriented_class(3, Slope(1, 2))  # slope 1/2 is type 1, not 3
    assert oriented_class(3, Slope(1, 0)) == (-1, 0)
    assert oriented_class(2, Slope(1, 0)) == (1, 0)


def oracle_counts(x, y):
    """(positives, negatives) from the per-crossing oracle, times the copies."""
    signs = [r.sign for r in crossing_signs(x, y)]
    if not signs:
        return (0, 0)
    copies = (
        decompose(x).essential_multiplicity * decompose(y).essential_multiplicity
    )
    return (signs.count(1) * copies, signs.count(-1) * copies)


def test_closed_form_matches_crossing_oracle_up_to_6():
    # every ordered pair of coordinates in 0..6, so every multiplicity,
    # vertex-link count and pair of sign regions; the oracle places the
    # crossings of each primitive slope pair once
    coords = [NormalCoordinates(*t) for t in product(range(7), repeat=3)]
    expected = {}
    for x in coords:
        for y in coords:
            si = normal_sign_intersections(x, y)
            key = (decompose(x), decompose(y))
            if key not in expected:
                expected[key] = oracle_counts(x, y)
            assert (si.positives, si.negatives) == expected[key], (x, y)


@settings(max_examples=8, deadline=None, derandomize=True)
@given(
    u=st.sampled_from([Slope(p, q) for p in range(-9, 10) for q in range(10)
                       if gcd(abs(p), q) == 1]),
    crossings=st.integers(1, 10**4),
    shift=st.integers(-3 * 10**4, 3 * 10**4),
    mults=st.tuples(st.integers(1, 3), st.integers(1, 3)),
    links=st.tuples(st.integers(0, 2), st.integers(0, 2)),
)
@example(u=Slope(2, 3), crossings=10**4, shift=12345, mults=(1, 1), links=(0, 0))
@example(u=Slope(-4, 7), crossings=10**4, shift=-20000, mults=(3, 2), links=(1, 2))
def test_closed_form_matches_crossing_oracle_up_to_10_4_crossings(
    u, crossings, shift, mults, links
):
    # v = (-b, a) * crossings + shift * u has det(u, v) = crossings; the
    # shift moves on to the next v that is primitive
    a, b = bezout(u.p, u.q)
    while gcd(crossings * a + shift * u.q, crossings * b - shift * u.p) != 1:
        shift += 1
    v = Slope(-crossings * b + shift * u.p, crossings * a + shift * u.q)
    x = from_slope(u, mults[0], links[0])
    y = from_slope(v, mults[1], links[1])
    si = normal_sign_intersections(x, y)
    assert si.geometric == crossings * mults[0] * mults[1]
    assert (si.positives, si.negatives) == oracle_counts(x, y)


def test_normal_values_are_frozen_values():
    x = NormalCoordinates(2, 1, 4)
    assert_frozen_value(
        x, from_slope(Slope(4, 3), 1, 1), "NormalCoordinates(x1=2, x2=1, x3=4)",
        ("x1", "x2", "x3"),
    )
    assert_frozen_value(
        decompose(x),
        CurveDecomposition(Slope(4, 3), 1, 1),
        "CurveDecomposition(essential_slope=Slope(4, 3), essential_multiplicity=1, "
        "trivial_count=1)",
        ("essential_slope", "essential_multiplicity", "trivial_count"),
    )
    assert_frozen_value(
        normal_sign_intersections(from_slope(Slope(1, 0)), from_slope(Slope(0, 1))),
        SignedIntersections(positives=1, negatives=0),
        "SignedIntersections(positives=1, negatives=0)",
        ("positives", "negatives"),
    )
