import pytest

from tests.conftest import random_unimodular_z
from toruscert.classmaps import (
    ClassMap,
    build_from_single_slope,
    build_from_two_surfaces,
    class_count_bound,
    classmap_from_json,
    classmap_to_json,
    verify_third_surface,
)
from toruscert.errors import (
    BoundaryCountError,
    DegenerateClassError,
    InvalidInputError,
)
from toruscert.matrices import UnimodularQ, lft_apply
from toruscert.slopes import Slope


def apply_vec(m, v):
    return (m.a * v[0] + m.b * v[1], m.c * v[0] + m.d * v[1])


def random_det_d_matrix(rng, d):
    u = random_unimodular_z(rng)
    # columns of u * diag(1, d) have determinant d
    return ((int(u.a), int(u.c)), (int(u.b) * d, int(u.d) * d))


def test_identity_when_psi_equal():
    cm = build_from_two_surfaces((1, 0), (0, 1), (1, 0), (0, 1))
    assert cm.phi.is_identity()
    assert cm.provenance == "two-surface"


def test_two_surface_worked_example():
    cm = build_from_two_surfaces((1, 0), (1, 1), (0, 1), (-1, 1))
    assert cm.phi == UnimodularQ(0, 1, -1, 0)
    assert apply_vec(cm.phi, (0, 1)) == (1, 0)
    assert apply_vec(cm.phi, (-1, 1)) == (1, 1)


def test_det_mismatch_rejected():
    with pytest.raises(BoundaryCountError):
        build_from_two_surfaces((1, 0), (0, 1), (1, 0), (0, 2))


def test_dependent_columns_rejected():
    with pytest.raises(DegenerateClassError):
        build_from_two_surfaces((1, 0), (0, 1), (1, 1), (2, 2))


def test_random_constructions(rng):
    for _ in range(300):
        d = rng.choice((1, -1, 2, -2, 3, 5))
        r2, s2 = random_det_d_matrix(rng, d)
        u = random_unimodular_z(rng)
        r1 = apply_vec(u, r2)
        s1 = apply_vec(u, s2)
        cm = build_from_two_surfaces(r1, s1, r2, s2)
        assert apply_vec(cm.phi, r2) == r1
        assert apply_vec(cm.phi, s2) == s1
        # slope-level consequence
        assert lft_apply(cm.phi, Slope(*r2)) == Slope(*r1)
        # swapping the (r, s) pairs consistently gives the same map
        swapped = build_from_two_surfaces(s1, r1, s2, r2)
        assert swapped.phi == cm.phi
        # scaling r1 and r2 by a common multiplicity gives the same map
        m = rng.randint(2, 4)
        scaled = build_from_two_surfaces(
            (m * r1[0], m * r1[1]), s1, (m * r2[0], m * r2[1]), s2
        )
        assert scaled.phi == cm.phi


def test_single_slope_examples():
    assert build_from_single_slope(Slope(1, 2), Slope(1, 2)).phi.is_identity()
    cm = build_from_single_slope(Slope(1, 0), Slope(0, 1))
    assert cm.phi == UnimodularQ(0, 1, -1, 0)
    assert lft_apply(cm.phi, Slope(0, 1)) == Slope(1, 0)
    cm = build_from_single_slope(Slope(2, 3), Slope(1, 1))
    assert lft_apply(cm.phi, Slope(1, 1)) == Slope(2, 3)


def test_single_slope_postcondition_random(rng):
    from tests.conftest import random_slope

    for _ in range(300):
        t1, t2 = random_slope(rng, 30), random_slope(rng, 30)
        cm = build_from_single_slope(t1, t2)
        assert lft_apply(cm.phi, t2) == t1
        assert cm.provenance == "single-slope"


def test_third_surface_checks(rng):
    for _ in range(100):
        d = rng.choice((1, 2, 3))
        r2, s2 = random_det_d_matrix(rng, d)
        u = random_unimodular_z(rng)
        r1, s1 = apply_vec(u, r2), apply_vec(u, s2)
        cm = build_from_two_surfaces(r1, s1, r2, s2)
        # defining surfaces pass
        assert verify_third_surface(cm, r1, r2)
        # any integral combination passes
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        if (a, b) != (0, 0):
            q2 = (a * r2[0] + b * s2[0], a * r2[1] + b * s2[1])
            q1 = apply_vec(cm.phi, q2)
            q1 = (int(q1[0]), int(q1[1]))
            check = verify_third_surface(cm, q1, q2)
            assert check and check.det_identity_r and check.det_identity_s
            # perturbing the class by r1 breaks the mapping
            perturbed = (q1[0] + r1[0], q1[1] + r1[1])
            assert not verify_third_surface(cm, perturbed, q2)


def test_third_surface_requires_basis():
    cm = build_from_single_slope(Slope(1, 2), Slope(3, 4))
    with pytest.raises(InvalidInputError):
        verify_third_surface(cm, (1, 0), (0, 1))


def test_class_count_bound():
    assert class_count_bound(1) == 27
    assert class_count_bound(2) == 81
    assert class_count_bound(0) == 9  # degenerate formula value
    with pytest.raises(InvalidInputError):
        class_count_bound(-1)


def test_classmap_json_roundtrip(rng):
    maps = [
        ClassMap.identity(),
        build_from_single_slope(Slope(2, 3), Slope(1, 1)),
        build_from_two_surfaces((1, 0), (1, 1), (0, 1), (-1, 1)),
    ]
    for cm in maps:
        again = classmap_from_json(classmap_to_json(cm))
        assert again == cm


def test_classmap_validation():
    with pytest.raises(InvalidInputError):
        ClassMap(UnimodularQ(1, 0, 0, 1), None, 0, "made-up")
    with pytest.raises(InvalidInputError):
        ClassMap(UnimodularQ(1, 0, 0, 1), (0, 1), 0, "external")


def _two_surface_record(basis, phi=(("1", "0"), ("0", "1")), provenance="two-surface"):
    return {
        "phi": [list(row) for row in phi],
        "provenance": provenance,
        "basis": basis,
    }


@pytest.mark.parametrize(
    "record",
    [
        # det(r1, s1) = 5 but det(r2, s2) = 7.
        _two_surface_record({"r1": [5, 0], "s1": [0, 1], "r2": [1, 0], "s2": [0, 7]}),
        # Equal determinants, but Psi1 Psi2^-1 is a rotation, not phi.
        _two_surface_record({"r1": [1, 0], "s1": [0, 1], "r2": [0, 1], "s2": [-1, 0]}),
        _two_surface_record({"r1": [1, 0], "s1": [0, 1], "r2": [0, 1], "s2": [0, 1]}),
        _two_surface_record({"r1": [True, 0], "s1": [0, 1], "r2": [1, 0], "s2": [0, 1]}),
        _two_surface_record({"r1": ["1", 0], "s1": [0, 1], "r2": [1, 0], "s2": [0, 1]}),
        _two_surface_record({"r1": [1, 0, 0], "s1": [0, 1], "r2": [1, 0], "s2": [0, 1]}),
        _two_surface_record({"r1": [1, 0], "s1": [0, 1], "r2": [1, 0]}),
        _two_surface_record([[1, 0], [0, 1], [1, 0], [0, 1]]),
        _two_surface_record(
            {"r1": [1, 0], "s1": [0, 1], "r2": [1, 0], "s2": [0, 1]},
            provenance="external",
        ),
    ],
    ids=[
        "det-mismatch", "not-phi", "singular", "bool-entry", "string-entry",
        "long-vector", "missing-vector", "not-an-object", "external",
    ],
)
def test_classmap_from_json_rejects_bad_basis(record):
    with pytest.raises(InvalidInputError):
        classmap_from_json(record)


def test_classmap_from_json_accepts_matching_basis():
    cm = build_from_two_surfaces((2, 1), (1, 3), (1, 0), (0, 5))
    record = classmap_to_json(cm)
    assert classmap_from_json(record).basis == ((2, 1), (1, 3), (1, 0), (0, 5))


@pytest.mark.parametrize(
    "provenance, basis",
    [
        ("external", ((5, 0), (0, 1), (1, 0), (0, 7))),
        ("external", ((1, 0), (0, 1), (1, 0), (0, 1))),
        ("two-surface", ((5, 0), (0, 1), (1, 0), (0, 7))),
        ("two-surface", ((1, 0), (0, 1), (0, 1), (-1, 0))),
        ("two-surface", ((1, 0), (0, 1), (1, 0))),
        ("two-surface", ([1, 0], [0, 1], [1, 0], [0, 1])),
    ],
    ids=["external", "external-matching", "det-mismatch", "not-phi", "three-vectors",
         "lists"],
)
def test_classmap_rejects_basis_not_defining_phi(provenance, basis):
    with pytest.raises(InvalidInputError):
        ClassMap(UnimodularQ(1, 0, 0, 1), None, 0, provenance, basis=basis)


def test_classmap_accepts_basis_defining_phi():
    built = build_from_two_surfaces((2, 1), (1, 3), (1, 0), (0, 5))
    again = ClassMap(built.phi, None, 0, "two-surface", basis=built.basis)
    assert verify_third_surface(again, (3, 4), (1, 5))
