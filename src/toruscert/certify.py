"""c-distance certificates for torus gluing maps.

A gluing map composed with each class map either fixes a slope (then its
distance is zero, witnessed by a rational eigenslope) or fixes none (then
its c-distance is at least one, which is exact: the fixed slopes of a
determinant-one rational matrix acting on slopes are precisely its
rational eigenslopes).  The zero/at-least-one dichotomy is decided
exactly; no known finite procedure certifies distance two or more, so
beyond the exact bound each certificate records the empirical minimum Farey
displacement over a bounded slope search, an upper bound for the true
minimum displacement, clearly labeled with the bound used.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import _speedups
from .anosov import power_bound, power_report_to_json, scaled_trace_criterion
from .classmaps import classmap_from_json, classmap_to_json
from .errors import InvalidInputError, excerpt, integer
from .matrices import UnimodularZ, compose, denominator, rational_eigenslopes
from .serialize import matrix_from_json, matrix_to_json, slope_to_json
from .slopes import Slope

__all__ = [
    "DEFAULT_SEARCH_BOUND",
    "MAX_SEARCH_BOUND",
    "MapDistanceResult",
    "DistanceCertificate",
    "OrderingReport",
    "CollectionReport",
    "trace_criterion",
    "scaled_trace_criterion",
    "map_distance",
    "c_distance",
    "collection_distance",
    "certificate_to_json",
    "collection_report_to_json",
    "verify_report",
]

DEFAULT_SEARCH_BOUND = 100
# A map that displaces every slope by four or more gets a Farey distance
# computed for each of the box's ~1.2 bound^2 slopes; at bound 1000 that
# is about 20 s per composed map on a 2-core host (Python 3.11).
MAX_SEARCH_BOUND = 1000

CRITERION_EIGENSLOPE_FOUND = "rational-eigenslope-found"
CRITERION_EIGENSLOPE_EMPTY = "eigenslope-set-empty"
CRITERION_TRACE_BOUND = "trace-bound"


def trace_criterion(m):
    """The denominator-trace test: |trace| < 2/d(m) or |trace| > 2 d(m).

    Sufficient (not necessary) for the eigenslope set to be empty; strict
    on both sides, so plus or minus the identity and all other boundary
    cases are inconclusive.
    """
    a, _, _, d = m.scaled
    return scaled_trace_criterion(a + d, denominator(m))


@dataclass(frozen=True)
class MapDistanceResult:
    """Exact 0-or-1 lower bound plus bounded empirical displacement data."""

    lower_bound: int
    fixed_slope_witness: Slope | None
    criterion: str
    empirical_min_displacement: int
    empirical_witness: Slope
    search_bound: int

    def __post_init__(self):
        if (self.lower_bound == 0) != (self.fixed_slope_witness is not None):
            raise InvalidInputError("witness present iff the lower bound is zero")
        if self.empirical_min_displacement < self.lower_bound:
            raise InvalidInputError(
                "empirical displacement cannot undercut the exact bound"
            )


def map_distance(m, search_bound=DEFAULT_SEARCH_BOUND):
    """Distance data for one composed map.

    The lower bound is 0 exactly when the map has a rational eigenslope
    (equivalently, fixes a slope); otherwise it is 1.  The empirical
    minimum displacement scans all slopes with |p|, |q| <= search_bound
    and may stop early once the exact bound is attained.  The search bound
    is an int from 1 to MAX_SEARCH_BOUND.
    """
    integer(search_bound, "search bound", 1, MAX_SEARCH_BOUND)
    eig = rational_eigenslopes(m)
    if eig.fixes_all or eig.slopes:
        lower = 0
        witness = eig.witness()
        criterion = CRITERION_EIGENSLOPE_FOUND
    else:
        lower = 1
        witness = None
        criterion = (
            CRITERION_TRACE_BOUND if trace_criterion(m) else CRITERION_EIGENSLOPE_EMPTY
        )
    emp, wp, wq = _speedups.min_displacement_scan(*m.scaled, search_bound, lower)
    return MapDistanceResult(
        lower_bound=lower,
        fixed_slope_witness=witness,
        criterion=criterion,
        empirical_min_displacement=emp,
        empirical_witness=Slope(wp, wq),
        search_bound=search_bound,
    )


@dataclass(frozen=True)
class DistanceCertificate:
    """Per-class distance results for one gluing map, with the minimum."""

    gluing: UnimodularZ
    per_class: tuple  # of (ClassMap, MapDistanceResult)
    c_distance_lower_bound: int

    def distance_zero_witness(self):
        """A (class map, fixed slope) pair proving distance zero, if any."""
        for cm, result in self.per_class:
            if result.lower_bound == 0:
                return cm, result.fixed_slope_witness
        return None


def c_distance(phi, classes, search_bound=DEFAULT_SEARCH_BOUND):
    """Certificate for the c-distance of a gluing map over the given classes.

    The class list stands in for all typed compatibility classes of the
    chosen complexity (enumerating them from a triangulation is outside
    this tool); the certified bound is the minimum over the list, so the
    caller must supply every class required for their c.
    """
    if not isinstance(phi, UnimodularZ):
        raise InvalidInputError("gluing maps must be integral with determinant 1")
    classes = list(classes)
    if not classes:
        raise InvalidInputError(
            "empty class list: the c-distance minimum would be vacuous"
        )
    per_class = []
    for cm in classes:
        composed = compose(phi, cm.phi)
        per_class.append((cm, map_distance(composed, search_bound)))
    lower = min(result.lower_bound for _, result in per_class)
    return DistanceCertificate(
        gluing=phi,
        per_class=tuple(per_class),
        c_distance_lower_bound=lower,
    )


@dataclass(frozen=True)
class OrderingReport:
    label: str
    certificates: tuple
    min_lower_bound: int
    min_empirical_displacement: int


@dataclass(frozen=True)
class CollectionReport:
    """Generalized c-distance data for a collection of gluings.

    Each ordering contributes the minimum over its gluings; the best value
    is the maximum over orderings.  The tool certifies the 0-versus-1
    dichotomy exactly; judging a bound of two or more needs the empirical
    displacement data, which is only an upper bound on true displacements.
    """

    orderings: tuple
    best: int

    def best_empirical(self):
        return max(o.min_empirical_displacement for o in self.orderings)


def collection_distance(orderings, search_bound=DEFAULT_SEARCH_BOUND):
    """Evaluate every ordering of a collection of gluings.

    orderings: sequence of (label, sequence of (gluing, class list)).
    """
    orderings = list(orderings)
    if not orderings:
        raise InvalidInputError("collection must contain at least one ordering")
    reports = []
    for label, gluings in orderings:
        gluings = list(gluings)
        if not gluings:
            raise InvalidInputError(f"ordering {excerpt(label)} has no gluings")
        certs = tuple(
            c_distance(phi, classes, search_bound) for phi, classes in gluings
        )
        reports.append(
            OrderingReport(
                label=str(label),
                certificates=certs,
                min_lower_bound=min(c.c_distance_lower_bound for c in certs),
                min_empirical_displacement=min(
                    result.empirical_min_displacement
                    for c in certs
                    for _, result in c.per_class
                ),
            )
        )
    best = max(r.min_lower_bound for r in reports)
    return CollectionReport(orderings=tuple(reports), best=best)


# ---------------------------------------------------------------------------
# JSON forms and verification by recomputation.
# ---------------------------------------------------------------------------

def _result_to_json(result):
    return {
        "lower_bound": result.lower_bound,
        "fixed_slope_witness": (
            slope_to_json(result.fixed_slope_witness)
            if result.fixed_slope_witness is not None
            else None
        ),
        "criterion": result.criterion,
        "empirical_min_displacement": result.empirical_min_displacement,
        "empirical_witness": slope_to_json(result.empirical_witness),
        "search_bound": result.search_bound,
    }


def certificate_to_json(cert):
    return {
        "kind": "distance-certificate",
        "gluing": matrix_to_json(cert.gluing),
        "c_distance_lower_bound": cert.c_distance_lower_bound,
        "per_class": [
            {"class_map": classmap_to_json(cm), "result": _result_to_json(result)}
            for cm, result in cert.per_class
        ],
    }


def collection_report_to_json(report):
    return {
        "kind": "collection-report",
        "best": report.best,
        "best_empirical": report.best_empirical(),
        "note": (
            "best is exact for the 0-versus-1 dichotomy; a bound of two or "
            "more is not certified and must be judged from the empirical "
            "displacement data, which only bounds the true minimum from above"
        ),
        "orderings": [
            {
                "label": o.label,
                "min_lower_bound": o.min_lower_bound,
                "min_empirical_displacement": o.min_empirical_displacement,
                "certificates": [certificate_to_json(c) for c in o.certificates],
            }
            for o in report.orderings
        ],
    }


def _field(record, key, what):
    """record[key], or InvalidInputError naming the report part that lacks it."""
    if not isinstance(record, dict):
        raise InvalidInputError(f"{what} must be a JSON object")
    if key not in record:
        raise InvalidInputError(f"{what} has no {key!r} field")
    return record[key]


def _list_field(record, key, what):
    value = _field(record, key, what)
    if not isinstance(value, list):
        raise InvalidInputError(f"{what} field {key!r} must be a list")
    return value


def _parse_certificate_json(data):
    """The gluing, the class maps and the one search bound of a certificate."""
    phi = matrix_from_json(_field(data, "gluing", "certificate"), integral=True)
    classes = []
    bounds = set()
    for e in _list_field(data, "per_class", "certificate"):
        classes.append(classmap_from_json(_field(e, "class_map", "per-class entry")))
        result = _field(e, "result", "per-class entry")
        bound = _field(result, "search_bound", "per-class result")
        bounds.add(integer(bound, "search bound"))
    if not classes:
        raise InvalidInputError("certificate has no per-class entries")
    if len(bounds) != 1:
        raise InvalidInputError("certificate mixes search bounds; cannot recompute")
    return phi, classes, bounds.pop()


def _recompute_certificate_json(data):
    return certificate_to_json(c_distance(*_parse_certificate_json(data)))


def _recompute_collection_json(data):
    orderings = _list_field(data, "orderings", "collection report")
    if not orderings:
        raise InvalidInputError("collection report has no orderings")
    parsed = []
    bounds = set()
    for o in orderings:
        label = _field(o, "label", "ordering")
        certificates = _list_field(o, "certificates", "ordering")
        if not certificates:
            raise InvalidInputError(f"ordering {excerpt(label)} has no certificates")
        gluings = []
        for cert in certificates:
            phi, classes, bound = _parse_certificate_json(cert)
            bounds.add(bound)
            gluings.append((phi, classes))
        parsed.append((label, gluings))
    if len(bounds) != 1:
        raise InvalidInputError("collection mixes search bounds; cannot recompute")
    return collection_report_to_json(collection_distance(parsed, bounds.pop()))


def _recompute_power_report_json(data):
    what = "power-bound report"
    sigma = matrix_from_json(_field(data, "sigma", what), integral=True)
    psi = matrix_from_json(_field(data, "psi", what), integral=True)
    classes = [
        classmap_from_json(_field(e, "class_map", "per-class entry"))
        for e in _list_field(data, "per_class", what)
    ]
    return power_report_to_json(power_bound(sigma, psi, classes))


def verify_report(data):
    """Recompute a previously emitted report and compare exactly.

    Supports distance certificates, collection reports, and power-bound
    reports (dispatched on their "kind" field).  Computation here is
    deterministic, so verification is exact equality of the recomputed
    JSON form with the input.
    """
    if not isinstance(data, dict):
        raise InvalidInputError("report must be a JSON object")
    kind = data.get("kind")
    if kind == "distance-certificate":
        return _recompute_certificate_json(data) == data
    if kind == "collection-report":
        return _recompute_collection_json(data) == data
    if kind == "power-bound-report":
        return _recompute_power_report_json(data) == data
    raise InvalidInputError(f"unknown report kind {excerpt(kind)}")
