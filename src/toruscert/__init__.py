"""toruscert: exact slope arithmetic and complexity certificates for torus gluings.

Computes Farey-graph distances and geodesics, normal-curve data on the
one-vertex triangulation of the torus, slope maps of compatibility
classes, c-distance certificates for gluing maps, and minimal Anosov
powers, all in exact rational arithmetic.

Every result is stated relative to the fixed conventions below (the
underlying theory leaves them to a choice of bases and labels); their
hash is embedded in --version output so certificates from different builds
are comparable.
"""

import hashlib

from .classmaps import (
    ClassMap,
    build_from_single_slope,
    build_from_two_surfaces,
    class_count_bound,
    verify_third_surface,
)
from .certify import (
    CollectionReport,
    DistanceCertificate,
    MapDistanceResult,
    c_distance,
    collection_distance,
    map_distance,
    trace_criterion,
)
from .anosov import PowerBoundReport, is_hyperbolic, power_bound, trace_sequence
from .errors import (
    BoundaryCountError,
    DegenerateClassError,
    InvalidInputError,
    NoEssentialComponentError,
    NoPathWithinBoundError,
)
from .farey import FareyPath, distance, geodesic, is_edge
from .matrices import (
    Eigenslopes,
    PrimitiveClass,
    UnimodularQ,
    UnimodularZ,
    compose,
    denominator,
    lft_apply,
    rational_eigenslopes,
)
from .normal import (
    CurveDecomposition,
    NormalCoordinates,
    SignedIntersections,
    curve_types,
    decompose,
    from_slope,
    normal_sign_intersections,
    slope_of,
)
from .slopes import INFINITY, Slope, intersection_number, slope_normalize

__version__ = "0.1.0"

# Conventions every exported number depends on.  Changing any line changes
# the hash and marks certificates as incomparable across builds.
CONVENTIONS = """\
torus model: unit square, sides identified, vertex at the corner
edges: 1 = horizontal loop, 2 = vertical loop, 3 = diagonal (0,0)-(1,1)
triangles: lower-right and upper-left halves, both oriented counterclockwise
arc type i cuts off the corner opposite edge i in each triangle
homology basis: horizontal loop = (1,0), vertical loop = (0,1)
slope of primitive class (p,q) is p/q; canonical form q > 0, infinity = 1/0
slope order: by rational value, infinity greatest
geodesic tie-break: lexicographically least vertex sequence in slope order
displacement scan order: 1/0 first, then q = 1..bound, p = -bound..bound
type orientation: canonical (p,q), except type-3 infinity oriented (-1,0)
algebraic normal count of (x,y) equals det(class(y), class(x)) * multiplicities
single-slope class maps: extended-Euclid basis completion, 0 <= u < |p|
"""

CONVENTIONS_HASH = hashlib.sha256(CONVENTIONS.encode()).hexdigest()[:12]

__all__ = [
    "__version__",
    "CONVENTIONS",
    "CONVENTIONS_HASH",
    "Slope",
    "INFINITY",
    "slope_normalize",
    "intersection_number",
    "UnimodularQ",
    "UnimodularZ",
    "PrimitiveClass",
    "Eigenslopes",
    "compose",
    "denominator",
    "lft_apply",
    "rational_eigenslopes",
    "FareyPath",
    "is_edge",
    "distance",
    "geodesic",
    "NormalCoordinates",
    "CurveDecomposition",
    "SignedIntersections",
    "curve_types",
    "decompose",
    "slope_of",
    "from_slope",
    "normal_sign_intersections",
    "ClassMap",
    "build_from_two_surfaces",
    "build_from_single_slope",
    "verify_third_surface",
    "class_count_bound",
    "MapDistanceResult",
    "DistanceCertificate",
    "CollectionReport",
    "trace_criterion",
    "map_distance",
    "c_distance",
    "collection_distance",
    "PowerBoundReport",
    "is_hyperbolic",
    "trace_sequence",
    "power_bound",
    "InvalidInputError",
    "NoEssentialComponentError",
    "BoundaryCountError",
    "DegenerateClassError",
    "NoPathWithinBoundError",
]
