from fractions import Fraction
from math import gcd, isqrt

import pytest

from tests.conftest import (
    assert_frozen_value,
    fixed_slope_scan,
    fraction_denominator,
    fraction_eigenslopes,
    fraction_mul,
    random_primitive_vector,
    random_slope,
    random_unimodular_q,
    random_unimodular_z,
)
from toruscert.errors import InvalidInputError
from toruscert.matrices import (
    Eigenslopes,
    PrimitiveClass,
    UnimodularQ,
    UnimodularZ,
    compose,
    denominator,
    is_square,
    lft_apply,
    rational_eigenslopes,
)
from toruscert.slopes import Slope, intersection_number


def test_determinant_enforced():
    with pytest.raises(InvalidInputError):
        UnimodularQ(1, 0, 0, 2)
    with pytest.raises(InvalidInputError):
        UnimodularZ(2, 0, 0, 1)
    UnimodularQ(Fraction(1, 2), 0, 0, 2)  # det 1, fine


def test_unimodular_z_rejects_fractions():
    with pytest.raises(InvalidInputError):
        UnimodularZ(Fraction(1, 2), 0, 0, 2)


def test_compose_identity_law():
    m = UnimodularQ(2, 1, 1, 1)
    i = UnimodularQ(1, 0, 0, 1)
    assert compose(i, m) == m
    assert compose(m, i) == m


def test_trace_and_invert():
    m = UnimodularQ(2, 1, 1, 1)
    assert m.trace() == 3
    inv = UnimodularQ(0, -1, 1, 1).invert()
    assert inv == UnimodularQ(1, 1, -1, 0)
    assert compose(UnimodularQ(0, -1, 1, 1), inv).is_identity()


def test_invert_roundtrip_random(rng):
    for _ in range(100):
        m = random_unimodular_q(rng)
        assert compose(m, m.invert()).is_identity()


def test_compose_type_preservation(rng):
    z = random_unimodular_z(rng)
    q = random_unimodular_q(rng)
    assert isinstance(compose(z, z), UnimodularZ)
    assert not isinstance(compose(z, q), UnimodularZ)
    assert isinstance(compose(z, q), UnimodularQ)


def test_lft_examples():
    i = UnimodularQ(1, 0, 0, 1)
    for s in (Slope(3, 7), Slope(1, 0), Slope(0, 1)):
        assert lft_apply(i, s) == s
    assert lft_apply(UnimodularQ(1, 1, 0, 1), Slope(0, 1)) == Slope(1, 1)
    assert lft_apply(UnimodularQ(2, 1, 1, 1), Slope(1, 0)) == Slope(2, 1)


def test_lft_matches_fraction_formula(rng):
    # (a q + b)/(c q + d) on finite slopes where both sides are defined
    for _ in range(100):
        m = random_unimodular_q(rng)
        s = random_slope(rng, 20)
        if s.is_infinity:
            continue
        q = s.as_fraction()
        den = m.c * q + m.d
        if den == 0:
            assert lft_apply(m, s).is_infinity
            continue
        assert lft_apply(m, s).as_fraction() == (m.a * q + m.b) / den


def test_action_law(rng):
    # lft(compose(A, B), s) = lft(A, lft(B, s))
    for _ in range(300):
        a = random_unimodular_q(rng)
        b = random_unimodular_q(rng)
        s = random_slope(rng, 30)
        assert lft_apply(compose(a, b), s) == lft_apply(a, lft_apply(b, s))


def test_denominator_examples():
    assert denominator(UnimodularQ(1, 0, 0, 1)) == 1
    assert denominator(UnimodularQ(Fraction(1, 2), 0, 0, 2)) == 2
    assert denominator(UnimodularQ(Fraction(1, 3), 0, Fraction(1, 2), 3)) == 6


def test_denominator_of_inverse(rng):
    for _ in range(200):
        m = random_unimodular_q(rng)
        assert denominator(m.invert()) == denominator(m)


def test_denominator_definition(rng):
    # d(m) is the least positive integer clearing all entries
    for _ in range(100):
        m = random_unimodular_q(rng)
        d = denominator(m)
        assert all((x * d).denominator == 1 for x in m.entries())
        for smaller in range(1, d):
            assert any((x * smaller).denominator != 1 for x in m.entries())


def test_eigenslopes_identity_all():
    assert rational_eigenslopes(UnimodularQ(1, 0, 0, 1)).fixes_all
    assert rational_eigenslopes(UnimodularQ(-1, 0, 0, -1)).fixes_all


def test_eigenslopes_parabolic():
    eig = rational_eigenslopes(UnimodularQ(1, 1, 0, 1))
    assert not eig.fixes_all
    assert eig.slopes == (Slope(1, 0),)


def test_eigenslopes_irrational_discriminant():
    # discriminant 5 is not a rational square
    eig = rational_eigenslopes(UnimodularQ(2, 1, 1, 1))
    assert eig.is_empty()


def test_is_square_matches_isqrt(rng):
    for n in range(1 << 16):
        assert is_square(n) == (isqrt(n) ** 2 == n), n
    for n in (-1, -4, -(10**40)):
        assert not is_square(n)
    for _ in range(300):
        digits = rng.randint(30, 300)
        k = rng.randrange(10 ** (digits - 1), 10**digits)
        assert is_square(k * k)
        for n in (k * k - 1, k * k + 1, k * k + 2 * k):
            assert not is_square(n), n


def test_eigenslopes_vs_brute_force(rng):
    # s is an eigenslope iff the action fixes s, over |p|, |q| <= 100
    for _ in range(60):
        m = random_unimodular_q(rng)
        eig = rational_eigenslopes(m)
        d = denominator(m)
        scaled = tuple(int(x * d) for x in m.entries())
        brute = {Slope(p, q) for p, q in fixed_slope_scan(*scaled, 100)}
        if eig.fixes_all:
            continue
        exact = {s for s in eig.slopes if abs(s.p) <= 100 and s.q <= 100}
        assert brute == exact
        for s in eig.slopes:
            assert lft_apply(m, s) == s


def test_intersection_preserved_by_integral_action(rng):
    for _ in range(200):
        a = random_unimodular_z(rng)
        s, t = random_slope(rng), random_slope(rng)
        assert intersection_number(
            lft_apply(a, s), lft_apply(a, t)
        ) == intersection_number(s, t)


def test_denominator_lemma(rng):
    # L (r u) = s v integral, u and v primitive: d(L) >= |s/r| >= 1/d(L)
    from math import gcd, isqrt

    for _ in range(300):
        m = random_unimodular_q(rng)
        u = random_primitive_vector(rng)
        w = (m.a * u[0] + m.b * u[1], m.c * u[0] + m.d * u[1])
        lcm = (
            w[0].denominator
            * w[1].denominator
            // gcd(w[0].denominator, w[1].denominator)
        )
        r = lcm * rng.randint(1, 5) * rng.choice((1, -1))
        image = (int(w[0] * r), int(w[1] * r))
        s = gcd(abs(image[0]), abs(image[1]))
        assert s != 0
        d = denominator(m)
        ratio = abs(Fraction(s, r))
        assert Fraction(1, d) <= ratio <= d


def _with_eigenslopes(rng):
    """A random matrix conjugate to a diagonal or parabolic one, so that its
    discriminant is a square."""
    g = random_unimodular_q(rng)
    r = Fraction(rng.randint(1, 9), rng.randint(1, 9)) * rng.choice((1, -1))
    core = UnimodularQ(r, 0, 0, 1 / r) if rng.random() < 0.5 else UnimodularQ(1, r, 0, 1)
    return compose(compose(g, core), g.invert())


def test_stored_form_is_reduced_and_matches_fraction_arithmetic(rng):
    for i in range(400):
        m = random_unimodular_q(rng) if i % 2 else _with_eigenslopes(rng)
        n = random_unimodular_q(rng)
        fm, fn = m.entries(), n.entries()
        for x in (m, n, compose(m, n), m.invert()):
            d = denominator(x)
            assert d == fraction_denominator(x.entries())
            assert gcd(*x.scaled, d) == 1
            assert x.scaled == tuple(int(e * d) for e in x.entries())
        a, b, c, d = fm
        assert compose(m, n).entries() == fraction_mul(fm, fn)
        assert m.invert().entries() == (d, -b, -c, a)
        assert m.trace() == a + d
        s = random_slope(rng, 30)
        x, y = a * s.p + b * s.q, c * s.p + d * s.q
        k = fraction_denominator((x, y))
        assert lft_apply(m, s) == Slope(int(x * k), int(y * k))
        assert rational_eigenslopes(m) == fraction_eigenslopes(fm)


def test_primitive_class():
    pc = PrimitiveClass.from_vector(6, -4)
    assert (pc.p, pc.q, pc.multiplicity) == (3, -2, 2)
    assert pc.vector() == (6, -4)
    assert pc.slope() == Slope(-3, 2)
    with pytest.raises(InvalidInputError):
        PrimitiveClass(2, 4)
    with pytest.raises(InvalidInputError):
        PrimitiveClass.from_vector(0, 0)


def test_primitive_class_rejects_a_bool_multiplicity():
    with pytest.raises(InvalidInputError):
        PrimitiveClass(1, 0, True)


def test_matrices_classes_and_eigenslopes_are_frozen_values():
    assert_frozen_value(
        UnimodularQ(2, 0, 0, Fraction(1, 2)),
        UnimodularQ(Fraction(4, 2), 0, Fraction(0, 5), Fraction(2, 4)),
        "UnimodularQ(Fraction(2, 1), Fraction(0, 1), Fraction(0, 1), Fraction(1, 2))",
        ("scaled", "_den"),
    )
    assert_frozen_value(
        UnimodularZ(1, 1, 0, 1),
        UnimodularZ(1, 1, 0, 1),
        "UnimodularZ(Fraction(1, 1), Fraction(1, 1), Fraction(0, 1), Fraction(1, 1))",
        ("scaled", "_den"),
    )
    assert_frozen_value(
        PrimitiveClass(3, -2, 2),
        PrimitiveClass.from_vector(6, -4),
        "PrimitiveClass(3, -2, multiplicity=2)",
        ("p", "q", "multiplicity"),
    )
    assert_frozen_value(
        rational_eigenslopes(UnimodularZ(1, 1, 0, 1)),
        Eigenslopes(False, (Slope(1, 0),)),
        "Eigenslopes(fixes_all=False, slopes=(Slope(1, 0),))",
        ("fixes_all", "slopes"),
    )


def test_rational_and_integer_matrices_with_equal_entries_are_equal():
    q, z = UnimodularQ(1, 0, 0, 1), UnimodularZ(1, 0, 0, 1)
    assert q == z and z == q and hash(q) == hash(z)
    assert len({q, z}) == 1


def test_eigenslopes_keyword_construction():
    eig = Eigenslopes(fixes_all=True, slopes=())
    assert eig == rational_eigenslopes(UnimodularZ(-1, 0, 0, -1))
    with pytest.raises(TypeError):
        Eigenslopes(fixes_all=True)
