"""Every public value, and every report holding real slopes and matrices,
survives copy, deepcopy and pickle as an equal value of the same type."""

import copy
import pickle
from fractions import Fraction

import pytest

from toruscert.anosov import power_bound
from toruscert.certify import c_distance, collection_distance
from toruscert.classmaps import (
    ClassMap,
    build_from_single_slope,
    build_from_two_surfaces,
    verify_third_surface,
)
from toruscert.farey import geodesic
from toruscert.matrices import (
    PrimitiveClass,
    UnimodularQ,
    UnimodularZ,
    compose,
    rational_eigenslopes,
)
from toruscert.normal import decompose, from_slope, normal_sign_intersections
from toruscert.slopes import Slope


def _values():
    sigma, psi = UnimodularZ(2, 1, 1, 1), UnimodularZ(1, 0, 0, 1)
    phi = UnimodularZ(0, 1, -1, 0)
    diagonal = UnimodularQ(2, 0, 0, Fraction(1, 2))
    two_surface = build_from_two_surfaces((2, 1), (1, 1), (1, 0), (0, 1))
    classes = [
        two_surface,
        build_from_single_slope(Slope(2, 3), Slope(-1, 4)),
        # sigma^-3 diagonal puts a power with two eigenslopes in the prefix
        ClassMap.external(compose(sigma**-3, diagonal)),
    ]
    report = power_bound(sigma, psi, classes)
    cert = c_distance(phi, classes, 5)
    x, y = from_slope(Slope(2, 3), 2, 1), from_slope(Slope(-1, 4))
    return [
        Slope(-5, 7),
        Slope(1, 0),
        geodesic(Slope(5, 7), Slope(-13, 4)),
        diagonal,
        phi,
        PrimitiveClass.from_vector(6, -4),
        rational_eigenslopes(diagonal),
        x,
        decompose(x),
        normal_sign_intersections(x, y),
        two_surface,
        verify_third_surface(two_surface, (3, 2), (1, 1)),
        report.per_class[2].prefix[3],
        report.per_class[2],
        report,
        cert.per_class[0][1],
        cert,
        collection_distance([("both", [(phi, classes), (sigma, classes)])], 5),
    ]


VALUES = _values()


@pytest.mark.parametrize("value", VALUES, ids=[type(v).__name__ for v in VALUES])
def test_values_copy_deepcopy_and_pickle(value):
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value)
        assert twin == value and hash(twin) == hash(value)
