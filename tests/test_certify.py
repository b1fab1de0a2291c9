import pytest

from tests.conftest import fixed_slope_scan, random_unimodular_q, random_unimodular_z
from toruscert.certify import (
    c_distance,
    certificate_to_json,
    collection_distance,
    collection_report_to_json,
    map_distance,
    trace_criterion,
    verify_report,
)
from toruscert.classmaps import ClassMap, build_from_single_slope
from toruscert.errors import InvalidInputError
from toruscert.matrices import (
    UnimodularQ,
    UnimodularZ,
    compose,
    rational_eigenslopes,
)
from toruscert.slopes import Slope


def test_trace_criterion_examples():
    assert trace_criterion(UnimodularQ(0, 1, -1, 0))
    assert not trace_criterion(UnimodularQ(1, 0, 0, 1))
    assert trace_criterion(UnimodularQ(3, 1, 2, 1))


def test_trace_criterion_implies_no_eigenslopes(rng):
    found = 0
    while found < 300:
        m = random_unimodular_q(rng)
        if not trace_criterion(m):
            continue
        found += 1
        assert rational_eigenslopes(m).is_empty()


def test_map_distance_identity():
    r = map_distance(UnimodularQ(1, 0, 0, 1), 20)
    assert r.lower_bound == 0
    assert r.fixed_slope_witness == Slope(0, 1)
    assert r.criterion == "rational-eigenslope-found"
    assert r.empirical_min_displacement == 0


def test_map_distance_parabolic():
    r = map_distance(UnimodularQ(1, 1, 0, 1), 20)
    assert r.lower_bound == 0
    assert r.fixed_slope_witness == Slope(1, 0)
    assert r.empirical_min_displacement == 0


def test_map_distance_rotation():
    r = map_distance(UnimodularQ(0, 1, -1, 0), 50)
    assert r.lower_bound == 1
    assert r.criterion == "trace-bound"
    assert r.empirical_min_displacement == 1
    assert r.fixed_slope_witness is None


def test_map_distance_dichotomy_vs_brute_force(rng):
    from toruscert.matrices import denominator

    for _ in range(100):
        m = random_unimodular_q(rng)
        r = map_distance(m, 10)
        d = denominator(m)
        scaled = tuple(int(x * d) for x in m.entries())
        brute = fixed_slope_scan(*scaled, 200)
        if r.lower_bound == 0:
            from toruscert.matrices import lft_apply

            w = r.fixed_slope_witness
            assert lft_apply(m, w) == w
        else:
            assert not brute


def test_c_distance_examples():
    ident = ClassMap.identity()
    cert = c_distance(UnimodularZ(1, 0, 0, 1), [ident], 20)
    assert cert.c_distance_lower_bound == 0
    assert cert.distance_zero_witness() is not None
    cert = c_distance(UnimodularZ(0, 1, -1, 0), [ident], 20)
    assert cert.c_distance_lower_bound == 1
    classes = [ident, ClassMap.external(UnimodularQ(1, 1, 0, 1))]
    cert = c_distance(UnimodularZ(2, 1, 1, 1), classes, 20)
    assert cert.c_distance_lower_bound == 1


def test_c_distance_empty_classes_rejected():
    with pytest.raises(InvalidInputError):
        c_distance(UnimodularZ(1, 0, 0, 1), [], 20)


def test_c_distance_monotone_under_class_nesting(rng):
    for _ in range(30):
        phi = random_unimodular_z(rng)
        classes = [ClassMap.external(random_unimodular_q(rng)) for _ in range(4)]
        small = classes[: rng.randint(1, 3)]
        lb_small = c_distance(phi, small, 15).c_distance_lower_bound
        lb_large = c_distance(phi, classes, 15).c_distance_lower_bound
        assert lb_small >= lb_large


def test_certificate_invariant(rng):
    for _ in range(20):
        phi = random_unimodular_z(rng)
        classes = [ClassMap.external(random_unimodular_q(rng)) for _ in range(3)]
        cert = c_distance(phi, classes, 15)
        assert cert.c_distance_lower_bound == min(
            r.lower_bound for _, r in cert.per_class
        )
        for _, r in cert.per_class:
            assert r.empirical_min_displacement >= r.lower_bound
            assert (r.lower_bound == 0) == (r.fixed_slope_witness is not None)


def test_certificates_self_validate(rng):
    for _ in range(10):
        phi = random_unimodular_z(rng)
        classes = [
            ClassMap.identity(),
            ClassMap.external(random_unimodular_q(rng)),
            build_from_single_slope(Slope(2, 3), Slope(1, 1)),
        ]
        cert = c_distance(phi, classes, 15)
        data = certificate_to_json(cert)
        assert verify_report(data)
        # tampering is detected
        data["c_distance_lower_bound"] = 1 - data["c_distance_lower_bound"]
        assert not verify_report(data)


def test_certificate_with_mixed_search_bounds_is_rejected():
    classes = [ClassMap.identity(), build_from_single_slope(Slope(2, 3), Slope(1, 1))]
    data = certificate_to_json(c_distance(UnimodularZ(0, 1, -1, 0), classes, 5))
    data["per_class"][1]["result"]["search_bound"] = 6
    with pytest.raises(InvalidInputError, match="mixes search bounds"):
        verify_report(data)


def test_collection_distance():
    ident = ClassMap.identity()
    rot = UnimodularZ(0, 1, -1, 0)
    eye = UnimodularZ(1, 0, 0, 1)
    report = collection_distance(
        [
            ("good", [(rot, [ident])]),
            ("bad", [(eye, [ident]), (rot, [ident])]),
        ],
        15,
    )
    assert report.best == 1
    by_label = {o.label: o for o in report.orderings}
    assert by_label["good"].min_lower_bound == 1
    assert by_label["bad"].min_lower_bound == 0
    data = collection_report_to_json(report)
    assert verify_report(data)


def test_collection_rejects_empty():
    with pytest.raises(InvalidInputError):
        collection_distance([], 10)
    with pytest.raises(InvalidInputError):
        collection_distance([("x", [])], 10)


def test_composition_with_gluing(rng):
    # certificate must be about phi * Phi_C, not Phi_C alone
    phi = UnimodularZ(0, 1, -1, 0)
    inverse_map = ClassMap.external(UnimodularQ(0, -1, 1, 0))  # phi^-1
    cert = c_distance(phi, [inverse_map], 15)
    # composition is the identity: certainly distance zero
    assert cert.c_distance_lower_bound == 0
    composed = compose(phi, inverse_map.phi)
    assert composed.is_identity()
