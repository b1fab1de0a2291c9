import json
from fractions import Fraction

import pytest

from tests.conftest import (
    fraction_denominator,
    fraction_eigenslopes,
    fraction_mul,
    fraction_power_report_json,
    random_hyperbolic_z,
    random_unimodular_q,
    random_unimodular_z,
)
from toruscert import anosov
from toruscert.anosov import (
    MAX_TRACE_INDEX,
    is_hyperbolic,
    power_bound,
    power_report_to_json,
    trace_sequence,
)
from toruscert.certify import verify_report
from toruscert.classmaps import ClassMap
from toruscert.errors import InvalidInputError
from toruscert.matrices import (
    UnimodularQ,
    UnimodularZ,
    compose,
    denominator,
    rational_eigenslopes,
)

SIGMA = UnimodularZ(2, 1, 1, 1)
IDENT = UnimodularZ(1, 0, 0, 1)


def test_is_hyperbolic_examples():
    assert is_hyperbolic(SIGMA)
    assert not is_hyperbolic(IDENT)
    assert not is_hyperbolic(UnimodularZ(0, 1, -1, 0))
    assert is_hyperbolic(UnimodularZ(-2, -1, -1, -1))  # trace -3


def test_trace_sequence_examples():
    assert trace_sequence(SIGMA, UnimodularQ(1, 0, 0, 1), 3) == [2, 3, 7, 18]
    k = UnimodularQ(Fraction(1, 2), 0, 0, 2)
    assert trace_sequence(SIGMA, k, 2) == [Fraction(5, 2), 3, Fraction(13, 2)]
    # K = sigma^(-1): t_1 = trace(identity) = 2
    assert trace_sequence(SIGMA, SIGMA.invert(), 1)[1] == 2
    assert len(trace_sequence(SIGMA, IDENT, MAX_TRACE_INDEX)) == MAX_TRACE_INDEX + 1


@pytest.mark.parametrize(
    "sigma, n_max",
    [
        (SIGMA, MAX_TRACE_INDEX + 1),
        (SIGMA, -1),
        (SIGMA, True),
        (UnimodularQ(Fraction(1, 2), 0, 0, 2), 3),
        # |trace| 10^10 + 2: t_500 has about 5,000 digits, past the
        # 4,300-digit limit for printing an integer
        (UnimodularZ(10**10 + 1, 10**10, 1, 1), 500),
    ],
    ids=["n-past-the-limit", "negative-n", "bool-n", "rational-sigma", "too-many-digits"],
)
def test_trace_sequence_rejects(sigma, n_max):
    with pytest.raises(InvalidInputError):
        trace_sequence(sigma, IDENT, n_max)


def test_trace_sequence_matches_matrix_powers(rng):
    for _ in range(40):
        sigma = random_hyperbolic_z(rng)
        k = random_unimodular_q(rng)
        traces = trace_sequence(sigma, k, 15)
        m = k
        for n in range(16):
            assert traces[n] == m.trace(), (sigma, k, n)
            m = compose(sigma, m)


def test_denominator_divides_under_powers(rng):
    for _ in range(40):
        sigma = random_hyperbolic_z(rng)
        k = random_unimodular_q(rng)
        dk = denominator(k)
        m = k
        for _ in range(15):
            assert dk % denominator(m) == 0
            m = compose(sigma, m)


def test_power_bound_worked_example_identity():
    report = power_bound(SIGMA, IDENT, [ClassMap.identity()])
    assert report.overall_n == 1
    pc = report.per_class[0]
    assert pc.n_class == 1
    assert pc.tail_kind == "growth"
    assert pc.tail_traces == (2, 3)
    assert pc.d_k == 1
    # n = 0 fails both strict inequalities: |2| is neither < 2 nor > 2
    assert len(pc.prefix) == 1
    assert not pc.prefix[0].criterion_passed
    assert pc.prefix[0].eigenslopes.fixes_all


def test_power_bound_worked_example_denominator_two():
    k_map = ClassMap.external(UnimodularQ(Fraction(1, 2), 0, 0, 2))
    report = power_bound(SIGMA, IDENT, [k_map])
    pc = report.per_class[0]
    assert report.overall_n == 2
    assert pc.d_k == 2
    # prefix: t_0 = 5/2 and t_1 = 3 both fail against d = 2
    assert [p.criterion_passed for p in pc.prefix] == [False, False]


def test_power_bound_inverse_shift():
    report = power_bound(SIGMA, SIGMA.invert(), [ClassMap.identity()])
    assert report.overall_n == 2


def test_power_bound_zero_tail():
    # K exchanges the eigendirections of sigma: K sigma K^-1 = sigma^-1,
    # so every trace vanishes and the small branch holds for all n
    k = UnimodularQ(0, 1, -1, 0)
    assert compose(compose(k, SIGMA), k.invert()) == SIGMA.invert()
    report = power_bound(SIGMA, IDENT, [ClassMap.external(k)])
    pc = report.per_class[0]
    assert pc.tail_kind == "zero"
    assert pc.tail_traces == (0, 0)
    assert report.overall_n == 0
    # the trace criterion holds at every power
    m = k
    for _ in range(20):
        assert m.trace() == 0
        assert abs(m.trace()) * denominator(m) < 2
        m = compose(SIGMA, m)


def test_power_bound_certifies_tail(rng):
    for _ in range(15):
        sigma = random_hyperbolic_z(rng)
        psi = IDENT
        cm = ClassMap.external(random_unimodular_q(rng))
        report = power_bound(sigma, psi, [cm])
        pc = report.per_class[0]
        # recorded tail pair satisfies the growth rule (or is the zero tail)
        t0, t1 = pc.tail_traces
        if pc.tail_kind == "growth":
            assert abs(t1) >= abs(t0) and abs(t1) > 2 * pc.d_k
        else:
            assert t0 == 0 and t1 == 0
        # every power in [N, N + 60] passes the exact per-power test, and
        # the composition has no rational eigenslopes there
        k = compose(psi, cm.phi)
        m = k
        for _ in range(pc.n_class):
            m = compose(sigma, m)
        for n in range(pc.n_class, pc.n_class + 61):
            t = abs(m.trace())
            d = denominator(m)
            assert t * d < 2 or t > 2 * d, (sigma, cm.phi, n)
            assert rational_eigenslopes(m).is_empty()
            m = compose(sigma, m)


def test_power_bound_minimality(rng):
    for _ in range(15):
        sigma = random_hyperbolic_z(rng)
        cm = ClassMap.external(random_unimodular_q(rng))
        report = power_bound(sigma, IDENT, [cm])
        pc = report.per_class[0]
        if pc.n_class == 0:
            continue
        m = cm.phi
        for _ in range(pc.n_class - 1):
            m = compose(sigma, m)
        t, d = abs(m.trace()), denominator(m)
        assert not (t * d < 2 or t > 2 * d)


def test_power_bound_matches_fraction_powers(rng):
    # Prefix and tail against sigma^n K recomputed as Fraction matrices.
    for _ in range(30):
        sigma = random_hyperbolic_z(rng)
        psi = random_unimodular_z(rng, length=3)
        cm = ClassMap.external(random_unimodular_q(rng, num_bound=40, den_bound=60))
        pc = power_bound(sigma, psi, [cm]).per_class[0]
        powers = [fraction_mul(psi.entries(), cm.phi.entries())]
        for _ in range(pc.tail_index + 1):
            powers.append(fraction_mul(sigma.entries(), powers[-1]))
        traces = [m[0] + m[3] for m in powers]
        dens = [fraction_denominator(m) for m in powers]
        passed = [abs(t) * d < 2 or abs(t) > 2 * d for t, d in zip(traces, dens)]
        assert pc.d_k == dens[0]
        i = pc.tail_index
        assert pc.tail_traces == (traces[i], traces[i + 1])
        tail_start = i + 1 if pc.tail_kind == "growth" else i
        assert pc.n_class == max(
            (n + 1 for n in range(tail_start) if not passed[n]), default=0
        )
        assert [p.n for p in pc.prefix] == list(range(pc.n_class))
        for p in pc.prefix:
            assert (p.trace, p.denominator) == (traces[p.n], dens[p.n])
            assert p.criterion_passed == passed[p.n]
            assert p.eigenslopes == fraction_eigenslopes(powers[p.n])


_P = UnimodularQ(Fraction(1, 2), Fraction(1, 3), Fraction(3, 2), 3)
PREFIX_POWERS = {
    # name: (X, the eigenslopes of X); K = sigma^-j X puts X at prefix entry j
    "identity": (IDENT, "all"),
    "minus-identity": (UnimodularZ(-1, 0, 0, -1), "all"),
    "parabolic": (UnimodularZ(1, 1, 0, 1), ["1/0"]),
    "diagonal-d2": (UnimodularQ(2, 0, 0, Fraction(1, 2)), ["0/1", "1/0"]),
    # P diag(3, 1/3) P^-1 fixes the slopes of P's columns, 1/3 and 1/9; d = 9
    "rational-conjugate": (
        _P * UnimodularQ(3, 0, 0, Fraction(1, 3)) * _P.invert(), ["1/9", "1/3"]
    ),
    # a conjugate of an order-4 elliptic: trace 0, d = 18
    "order-4-elliptic": (_P * UnimodularZ(1, -2, 1, -1) * _P.invert(), []),
}


@pytest.mark.parametrize("x, expected", PREFIX_POWERS.values(), ids=PREFIX_POWERS)
def test_prefix_eigenslopes_from_the_trace(x, expected):
    # Every prefix entry against sigma^n K built by repeated compose, and
    # entry j, the power sigma^j K = X, against the slopes X fixes.
    for j in (3, 5):
        k = compose(SIGMA**-j, x)
        report = power_bound(SIGMA, IDENT, [ClassMap.external(k)])
        pc = report.per_class[0]
        assert pc.n_class > j and pc.d_k == denominator(x)
        m = k
        for p in pc.prefix:
            assert p.eigenslopes == rational_eigenslopes(m)
            m = compose(SIGMA, m)
        entry = power_report_to_json(report)["per_class"][0]["prefix"][j]
        assert entry["eigenslopes"] == expected


def _compact(data):
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def test_power_report_bytes_match_the_fraction_oracle(rng):
    # Reports from integer traces against reports rebuilt one power at a
    # time, byte for byte, with the prefix views against the oracle's.
    special = [ClassMap.identity(), ClassMap.external(UnimodularQ(0, 1, -1, 0))]
    special += [
        ClassMap.external(compose(SIGMA**-j, x))
        for x, _ in PREFIX_POWERS.values()
        for j in (3, 5)
    ]
    cases = [(SIGMA, IDENT, special)]
    for _ in range(20):
        classes = [
            ClassMap.external(random_unimodular_q(rng, num_bound=40, den_bound=60))
            for _ in range(3)
        ]
        cases.append((random_hyperbolic_z(rng), random_unimodular_z(rng, length=3), classes))
    seen = set()
    for sigma, psi, classes in cases:
        report = power_bound(sigma, psi, classes)
        expected, diagnostics = fraction_power_report_json(report)
        assert _compact(power_report_to_json(report)) == _compact(expected)
        assert [c.prefix for c in report.per_class] == diagnostics
        for c in report.per_class:
            seen.add("d(K) = 1" if c.d_k == 1 else "d(K) > 1")
            seen.add(f"{c.tail_kind} tail")
            for p in c.prefix:
                if p.trace.denominator < p.denominator:
                    seen.add("gcd(T, d) > 1")
                if p.eigenslopes.fixes_all:
                    seen.add("all")
    assert seen == {
        "d(K) = 1", "d(K) > 1", "growth tail", "zero tail", "gcd(T, d) > 1", "all"
    }


def test_power_bound_preconditions():
    with pytest.raises(InvalidInputError):
        power_bound(IDENT, IDENT, [ClassMap.identity()])
    with pytest.raises(InvalidInputError):
        power_bound(SIGMA, IDENT, [])


def test_power_report_verifies():
    report = power_bound(SIGMA, IDENT, [ClassMap.identity()])
    data = power_report_to_json(report)
    assert verify_report(data)
    data["overall_N"] += 1
    assert not verify_report(data)


def test_negative_trace_handled():
    sigma = UnimodularZ(-2, -1, -1, -1)  # trace -3
    report = power_bound(sigma, IDENT, [ClassMap.identity()])
    pc = report.per_class[0]
    assert pc.tail_kind == "growth"
    m = UnimodularQ(1, 0, 0, 1)
    for _ in range(pc.n_class):
        m = compose(sigma, m)
    for n in range(pc.n_class, pc.n_class + 40):
        t, d = abs(m.trace()), denominator(m)
        assert t * d < 2 or t > 2 * d
        m = compose(sigma, m)


def test_tail_search_cap_is_an_input_error(monkeypatch):
    k_map = ClassMap.external(SIGMA**-15)  # traces fall until n = 15
    tail = power_bound(SIGMA, IDENT, [k_map]).per_class[0].tail_index
    assert tail == 15
    # The search tries indices 0 .. cap - 1, so a cap of tail misses it.
    monkeypatch.setattr(anosov, "_TAIL_SEARCH_CAP", tail)
    with pytest.raises(InvalidInputError):
        power_bound(SIGMA, IDENT, [k_map])
