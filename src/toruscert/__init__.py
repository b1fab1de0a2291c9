"""toruscert: exact slope arithmetic and complexity certificates for torus gluings.

Computes Farey-graph distances and geodesics, normal-curve data on the
one-vertex triangulation of the torus, slope maps of compatibility
classes, c-distance certificates for gluing maps, and minimal Anosov
powers, all in exact rational arithmetic.

Every result is stated relative to the fixed conventions below (the
underlying theory leaves them to a choice of bases and labels); their
hash is embedded in --version output so certificates from different builds
are comparable.

The public names below are imported from their modules on first access
(PEP 562), so a command loads only the modules it uses, and the
conventions hash is computed only when it is read.
"""

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

# Where each public name is defined.
_EXPORTS = {
    name: module
    for module, names in {
        "slopes": ("Slope", "INFINITY", "slope_normalize", "intersection_number"),
        "matrices": (
            "UnimodularQ",
            "UnimodularZ",
            "PrimitiveClass",
            "Eigenslopes",
            "compose",
            "denominator",
            "lft_apply",
            "rational_eigenslopes",
        ),
        "farey": ("FareyPath", "is_edge", "distance", "geodesic"),
        "normal": (
            "NormalCoordinates",
            "CurveDecomposition",
            "SignedIntersections",
            "curve_types",
            "decompose",
            "slope_of",
            "from_slope",
            "normal_sign_intersections",
        ),
        "classmaps": (
            "ClassMap",
            "build_from_two_surfaces",
            "build_from_single_slope",
            "verify_third_surface",
            "class_count_bound",
        ),
        "certify": (
            "MapDistanceResult",
            "DistanceCertificate",
            "CollectionReport",
            "trace_criterion",
            "map_distance",
            "c_distance",
            "collection_distance",
        ),
        "anosov": (
            "PowerBoundReport",
            "is_hyperbolic",
            "trace_sequence",
            "power_bound",
        ),
        "errors": (
            "InvalidInputError",
            "NoEssentialComponentError",
            "BoundaryCountError",
            "DegenerateClassError",
            "NoPathWithinBoundError",
        ),
    }.items()
    for name in names
}

__all__ = ["__version__", "CONVENTIONS", "CONVENTIONS_HASH", *_EXPORTS]


def __getattr__(name):
    """Import the module defining a public name, or hash CONVENTIONS, on first use."""
    if name == "CONVENTIONS_HASH":
        import hashlib

        value = hashlib.sha256(CONVENTIONS.encode()).hexdigest()[:12]
    elif name in _EXPORTS:
        from importlib import import_module

        value = getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
