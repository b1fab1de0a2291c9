"""Slope maps of typed compatibility classes.

A compatibility class of surfaces meeting both boundary tori determines a
determinant-one rational matrix carrying each member's slope on the second
torus to its slope on the first.  Two constructions are provided: from the
boundary classes of two surfaces with distinct slopes (the matrix is forced),
and from a single slope pair (a canonical choice among the many possible
maps).  Classes enumerated by external normal-surface software can be loaded
as raw matrices with provenance "external".
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    BoundaryCountError,
    DegenerateClassError,
    InvalidInputError,
    excerpt,
    integer,
)
from .matrices import PrimitiveClass, UnimodularQ, compose, from_scaled
from .normal import curve_types, from_slope
from .serialize import matrix_from_json, matrix_to_json
from .slopes import Slope, _as_int, bezout

__all__ = [
    "ClassMap",
    "ThirdSurfaceCheck",
    "build_from_two_surfaces",
    "build_from_single_slope",
    "verify_third_surface",
    "class_count_bound",
    "classmap_to_json",
    "classmap_from_json",
]

PROVENANCES = ("single-slope", "two-surface", "external")


@dataclass(frozen=True)
class ClassMap:
    """A slope map with provenance metadata.

    type_pair records the shared boundary-curve type on each torus when it
    is determined by the construction data (None when unknown, e.g. for
    some external matrices).  basis retains the defining boundary vectors
    of a two-surface construction so third surfaces can be checked later.
    """

    phi: UnimodularQ
    type_pair: tuple | None
    complexity_bound: int
    provenance: str
    basis: tuple | None = None  # (r1, s1, r2, s2) integer vectors

    def __post_init__(self):
        if self.provenance not in PROVENANCES:
            raise InvalidInputError(f"unknown provenance {excerpt(self.provenance)}")
        integer(self.complexity_bound, "complexity bound", least=0)
        if self.type_pair is not None:
            if len(self.type_pair) != 2:
                raise InvalidInputError(f"bad type pair {excerpt(self.type_pair)}")
            for t in self.type_pair:
                integer(t, "a curve type", 1, 3)
        if self.basis is not None:
            self._check_basis()

    def _check_basis(self):
        """The basis must define phi, as build_from_two_surfaces does."""
        if self.provenance != "two-surface":
            raise InvalidInputError(
                "only two-surface class maps carry a basis, "
                f"not {excerpt(self.provenance)} ones"
            )
        if (
            not isinstance(self.basis, tuple)
            or len(self.basis) != 4
            or not all(isinstance(v, tuple) and len(v) == 2 for v in self.basis)
        ):
            raise InvalidInputError(
                f"basis must be four pairs of integers, got {excerpt(self.basis)}"
            )
        for v in self.basis:
            for x in v:
                integer(x, "a basis entry")
        if from_scaled(*_basis_map(*self.basis)) != self.phi:
            raise InvalidInputError("basis does not reproduce phi")

    @classmethod
    def external(cls, phi, type_pair=None, complexity_bound=0):
        return cls(phi, type_pair, complexity_bound, "external")

    @classmethod
    def identity(cls):
        return cls.external(UnimodularQ(1, 0, 0, 1))


def _as_vector(v):
    if isinstance(v, PrimitiveClass):
        return v.vector()
    x, y = v
    return tuple(_as_int(entry, "a boundary vector entry") for entry in (x, y))


def _det(u, v):
    return u[0] * v[1] - u[1] * v[0]


def _shared_type(s, t):
    """Least common curve type of two slopes on one torus, None if disjoint."""
    common = curve_types(from_slope(s)) & curve_types(from_slope(t))
    return min(common) if common else None


def _basis_map(r1, s1, r2, s2):
    """The entries of Psi_1 adj(Psi_2), row by row, then det(Psi_2).

    Psi_1 = (r1 s1) and Psi_2 = (r2 s2) are column matrices; the class map
    they define is Psi_1 adj(Psi_2) / det(Psi_2).
    """
    det2 = _det(r2, s2)
    if det2 == 0:
        raise DegenerateClassError(
            "r2 and s2 are dependent; use build_from_single_slope"
        )
    det1 = _det(r1, s1)
    if det1 != det2:
        raise BoundaryCountError(
            f"det(r1 s1) = {excerpt(det1)} differs from "
            f"det(r2 s2) = {excerpt(det2)}; "
            "boundary data violates the intersection-count constraint"
        )
    return (
        r1[0] * s2[1] - s1[0] * r2[1],
        -r1[0] * s2[0] + s1[0] * r2[0],
        r1[1] * s2[1] - s1[1] * r2[1],
        -r1[1] * s2[0] + s1[1] * r2[0],
        det2,
    )


def build_from_two_surfaces(r1, s1, r2, s2, complexity_bound=0):
    """Class map forced by two member surfaces with distinct slopes.

    The inputs are the integer boundary classes (possibly non-primitive:
    several parallel components) of surfaces R and S on the tori, columns
    of the matrices Psi_1 = (r1 s1) and Psi_2 = (r2 s2).  The counting
    lemma for compatible surfaces forces det(Psi_1) = det(Psi_2); the map
    is then Psi_1 Psi_2^(-1), which has determinant one and carries r2 to
    r1 and s2 to s1.
    """
    r1, s1, r2, s2 = (_as_vector(v) for v in (r1, s1, r2, s2))
    phi = from_scaled(*_basis_map(r1, s1, r2, s2))
    type1 = _shared_type(Slope(*r1), Slope(*s1))
    type2 = _shared_type(Slope(*r2), Slope(*s2))
    type_pair = (type1, type2) if type1 is not None and type2 is not None else None
    return ClassMap(
        phi,
        type_pair,
        complexity_bound,
        "two-surface",
        basis=(r1, s1, r2, s2),
    )


def _complete_to_basis(s):
    """Canonical integer matrix with first column the primitive vector of s.

    Solves p v - q u = 1 with 0 <= u < |p| when p != 0; for the slope 0/1
    the analogous normalization 0 <= v < q gives u = -1, v = 0.
    """
    p, q = s.p, s.q
    x, y = bezout(p, q)
    # p*x + q*y = 1, so (u, v) = (-y, x) solves p v - q u = 1.
    u0, v0 = -y, x
    if p != 0:
        u = u0 % abs(p)
        t = (u - u0) // p
        v = v0 + t * q
    else:
        u, v = -1, 0
    return ((p, u), (q, v))


def build_from_single_slope(tau1, tau2, complexity_bound=0):
    """Canonical determinant-one map sending the slope tau2 to tau1.

    Completes each slope's primitive vector to a unimodular basis by
    extended Euclid with the minimal complement, and composes.  Any other
    valid choice differs by a parabolic fixing tau1; this one is fixed so
    certificates are reproducible.
    """
    b1 = _complete_to_basis(tau1)
    b2 = _complete_to_basis(tau2)
    m1 = UnimodularQ(b1[0][0], b1[0][1], b1[1][0], b1[1][1])
    m2 = UnimodularQ(b2[0][0], b2[0][1], b2[1][0], b2[1][1])
    phi = compose(m1, m2.invert())
    type1 = min(curve_types(from_slope(tau1)))
    type2 = min(curve_types(from_slope(tau2)))
    return ClassMap(phi, (type1, type2), complexity_bound, "single-slope")


@dataclass(frozen=True)
class ThirdSurfaceCheck:
    """Outcome of checking a third surface's boundary data against a map.

    Truthy exactly when the map carries q2 to q1.  The two determinant
    identities det(phi q2, r1) = det(q1, r1) and det(phi q2, s1) =
    det(q1, s1) are reported individually; together they are equivalent to
    the mapping statement because r1, s1 are independent.
    """

    mapped: bool
    det_identity_r: bool
    det_identity_s: bool

    def __bool__(self):
        return self.mapped


def verify_third_surface(cm, q1, q2):
    """Check that cm maps the boundary class q2 to q1.

    Requires a ClassMap built from two surfaces (its defining vectors are
    retained for the determinant identities).
    """
    if cm.basis is None:
        raise InvalidInputError(
            "third-surface checks need a two-surface class map with retained basis"
        )
    q1 = _as_vector(q1)
    q2 = _as_vector(q2)
    r1, s1 = cm.basis[0], cm.basis[1]
    image = (
        cm.phi.a * q2[0] + cm.phi.b * q2[1],
        cm.phi.c * q2[0] + cm.phi.d * q2[1],
    )
    return ThirdSurfaceCheck(
        mapped=(image[0] == q1[0] and image[1] == q1[1]),
        det_identity_r=(_det(image, r1) == _det(q1, r1)),
        det_identity_s=(_det(image, s1) == _det(q1, s1)),
    )


def class_count_bound(t):
    """Upper bound 9 * 3^t on typed compatibility classes of complexity zero.

    t is the number of tetrahedra; t = 0 is accepted as a degenerate
    formula value even though a triangulation has at least one.
    """
    t = integer(t, "tetrahedron count", least=0)
    return 9 * 3**t


def classmap_to_json(cm):
    record = {
        "phi": matrix_to_json(cm.phi),
        "type_pair": list(cm.type_pair) if cm.type_pair is not None else None,
        "complexity_bound": cm.complexity_bound,
        "provenance": cm.provenance,
    }
    if cm.basis is not None:
        record["basis"] = {
            "r1": list(cm.basis[0]),
            "s1": list(cm.basis[1]),
            "r2": list(cm.basis[2]),
            "s2": list(cm.basis[3]),
        }
    return record


def classmap_from_json(record):
    if not isinstance(record, dict) or "phi" not in record:
        raise InvalidInputError(
            f"class map record must have a 'phi' key: {excerpt(record)}"
        )
    phi = matrix_from_json(record["phi"])
    type_pair = record.get("type_pair")
    if type_pair is not None:
        if not isinstance(type_pair, list) or len(type_pair) != 2:
            raise InvalidInputError(f"bad type_pair {excerpt(type_pair)}")
        type_pair = (type_pair[0], type_pair[1])
    basis = None
    if "basis" in record:
        raw = record["basis"]
        keys = ("r1", "s1", "r2", "s2")
        if not isinstance(raw, dict) or not all(
            isinstance(raw.get(k), list) for k in keys
        ):
            raise InvalidInputError(f"bad basis block {excerpt(raw)}")
        basis = tuple(tuple(raw[k]) for k in keys)
    return ClassMap(
        phi,
        type_pair,
        record.get("complexity_bound", 0),
        record.get("provenance", "external"),
        basis=basis,
    )
