"""Command-line interface.

One entry point, JSON in and out, exact rationals as "p/q" strings, and
stable exit codes: 0 for success (including certified bounds), 2 when a
distance-zero witness was found, 1 for invalid input of any kind.  Output
is compact, key-sorted JSON by default so identical inputs produce
byte-identical bytes; --pretty switches to an indented form.

Each handler imports the modules it uses, so a cold process loads only
what its command runs: the farey commands never load the certificate,
class-map or matrix modules, and only --version computes the conventions
hash.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .errors import (
    InvalidInputError,
    ascii_integer,
    digit_limit_error,
    excerpt,
    shorten,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_DISTANCE_ZERO = 2


def _reject_float(text):
    raise InvalidInputError(
        f"floating-point value {excerpt(float(text))} rejected: inputs must be exact"
    )


def _decode(source, path=None):
    """The JSON value of a matrix argument, or of the text file open at path.

    Floats, NaN and infinities are refused while the text is parsed.
    """
    try:
        text = source if path is None else source.read()
        return json.loads(text, parse_float=_reject_float, parse_constant=_reject_float)
    except InvalidInputError:  # a float, which is a ValueError too
        raise
    # Not UTF-8 or not JSON, an int past the digit limit, or nested too deeply.
    except (ValueError, RecursionError) as exc:
        if path is None:
            raise InvalidInputError(f"malformed matrix JSON {excerpt(source)}") from exc
        raise InvalidInputError(f"malformed JSON in {excerpt(path)}: {exc}") from exc


def _parse_matrix(text, integral=False):
    from .serialize import matrix_from_json

    return matrix_from_json(_decode(text), integral=integral)


def _parse_ints(text, form):
    """The integers of a comma list shaped like form, such as "p,q"."""
    parts = text.split(",")
    if len(parts) != form.count(",") + 1:
        raise InvalidInputError(f"expected {form}, got {excerpt(text)}")
    try:
        return tuple(ascii_integer(p) for p in parts)
    except ValueError as exc:
        raise InvalidInputError(f"malformed {form} list {excerpt(text)}") from exc


def _load_json_file(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return _decode(handle, path)
    except OSError as exc:
        raise InvalidInputError(f"cannot read {excerpt(path)}: {exc.strerror}") from exc


def _load_classes(path):
    from .classmaps import classmap_from_json

    data = _load_json_file(path)
    if isinstance(data, dict):
        data = [data]
    if not isinstance(data, list):
        raise InvalidInputError(
            f"{excerpt(path)}: class file must be a record or a list"
        )
    return [classmap_from_json(record) for record in data]


def _default_bound():
    from .certify import DEFAULT_SEARCH_BOUND

    raw = os.environ.get("TORUSCERT_SEARCH_BOUND")
    if raw is None:
        return DEFAULT_SEARCH_BOUND
    try:
        return ascii_integer(raw)
    except ValueError as exc:
        raise InvalidInputError(
            f"TORUSCERT_SEARCH_BOUND must be an integer, got {excerpt(raw)}"
        ) from exc


# --- handlers: each returns (payload, exit code) ---------------------------

def _cmd_farey_dist(args):
    from .farey import distance
    from .slopes import Slope

    s = Slope.parse(args.s)
    t = Slope.parse(args.t)
    return {"distance": distance(s, t)}, EXIT_OK


def _cmd_farey_path(args):
    from .farey import geodesic
    from .slopes import Slope

    s = Slope.parse(args.s)
    t = Slope.parse(args.t)
    path = geodesic(s, t)
    return {"distance": path.length, "path": [str(v) for v in path.vertices]}, EXIT_OK


def _cmd_slope_map(args):
    from .matrices import lft_apply
    from .serialize import slope_to_json
    from .slopes import Slope

    m = _parse_matrix(args.matrix)
    s = Slope.parse(args.slope)
    return {"image": slope_to_json(lft_apply(m, s))}, EXIT_OK


def _cmd_matrix_eigenslopes(args):
    from .matrices import rational_eigenslopes
    from .serialize import eigenslopes_to_json

    m = _parse_matrix(args.matrix)
    return {"eigenslopes": eigenslopes_to_json(rational_eigenslopes(m))}, EXIT_OK


def _cmd_normal_slope(args):
    from .normal import NormalCoordinates, decompose, slope_of

    x = NormalCoordinates(*_parse_ints(args.coords, "x1,x2,x3"))
    dec = decompose(x)
    s = slope_of(x)
    return {
        "slope": str(s),
        "multiplicity": dec.essential_multiplicity,
        "trivial": dec.trivial_count,
    }, EXIT_OK


def _cmd_normal_coords(args):
    from .normal import from_slope
    from .slopes import Slope

    s = Slope.parse(args.slope)
    x = from_slope(s, args.mult, args.trivial)
    return {"coordinates": list(x.triple())}, EXIT_OK


def _cmd_normal_intersect(args):
    from .normal import NormalCoordinates, normal_sign_intersections

    x = NormalCoordinates(*_parse_ints(args.x, "x1,x2,x3"))
    y = NormalCoordinates(*_parse_ints(args.y, "x1,x2,x3"))
    si = normal_sign_intersections(x, y)
    return {
        "positives": si.positives,
        "negatives": si.negatives,
        "algebraic": si.algebraic,
        "geometric": si.geometric,
    }, EXIT_OK


def _cmd_classmap_from_surfaces(args):
    from .classmaps import build_from_two_surfaces, classmap_to_json

    cm = build_from_two_surfaces(
        *(_parse_ints(v, "p,q") for v in (args.r1, args.s1, args.r2, args.s2)),
        complexity_bound=args.complexity,
    )
    return classmap_to_json(cm), EXIT_OK


def _cmd_classmap_from_slopes(args):
    from .classmaps import build_from_single_slope, classmap_to_json
    from .slopes import Slope

    cm = build_from_single_slope(
        Slope.parse(args.tau1),
        Slope.parse(args.tau2),
        complexity_bound=args.complexity,
    )
    return classmap_to_json(cm), EXIT_OK


def _cmd_certify_gluing(args):
    from .certify import c_distance, certificate_to_json

    phi = _parse_matrix(args.phi, integral=True)
    classes = _load_classes(args.classes)
    bound = args.bound if args.bound is not None else _default_bound()
    cert = c_distance(phi, classes, bound)
    code = EXIT_OK if cert.c_distance_lower_bound >= 1 else EXIT_DISTANCE_ZERO
    return certificate_to_json(cert), code


def _cmd_certify_collection(args):
    from .certify import collection_distance, collection_report_to_json
    from .classmaps import classmap_from_json
    from .serialize import field, list_field, matrix_from_json

    spec = _load_json_file(args.spec)
    entries = list_field(spec, "orderings", "collection spec")
    bound = args.bound if args.bound is not None else spec.get("search_bound")
    if bound is None:
        bound = _default_bound()
    orderings = []
    for entry in entries:
        label = field(entry, "label", "ordering", f"ordering-{len(orderings)}")
        quoted = excerpt(label)
        what = f"a gluing of {quoted}"
        gluings = []
        for g in list_field(entry, "gluings", f"ordering {quoted}", []):
            phi = matrix_from_json(field(g, "phi", what), integral=True)
            classes = [classmap_from_json(r) for r in list_field(g, "classes", what, [])]
            gluings.append((phi, classes))
        orderings.append((label, gluings))
    report = collection_distance(orderings, bound)
    return collection_report_to_json(report), EXIT_OK


def _cmd_certify_verify(args):
    from .certify import verify_report

    if not verify_report(_load_json_file(args.report)):
        raise InvalidInputError("report does not match its recomputation")
    return {"verified": True}, EXIT_OK


def _cmd_anosov_power(args):
    from .anosov import power_bound, power_report_to_json

    sigma = _parse_matrix(args.sigma, integral=True)
    psi = _parse_matrix(args.psi, integral=True)
    classes = _load_classes(args.classes)
    report = power_bound(sigma, psi, classes)
    return power_report_to_json(report), EXIT_OK


def _cmd_anosov_trace(args):
    from .anosov import trace_sequence
    from .serialize import format_fraction

    sigma = _parse_matrix(args.sigma, integral=True)
    k = _parse_matrix(args.k)
    traces = trace_sequence(sigma, k, args.n)
    return {"traces": [format_fraction(t) for t in traces]}, EXIT_OK


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors follow the exit-code contract."""

    def error(self, message):
        # argparse quotes bad arguments whole, and JSON may spend two bytes on
        # each character kept: 100 characters keep the line under 300 bytes.
        raise InvalidInputError(f"{self.prog}: {shorten(message, 100)}")


class _Version(argparse.Action):
    """--version: the version line, with the conventions hash computed only here."""

    def __call__(self, parser, namespace, values, option_string=None):
        from . import CONVENTIONS_HASH

        print(f"toruscert {__version__} (conventions {CONVENTIONS_HASH})")
        parser.exit()


def build_parser():
    parser = _Parser(
        prog="toruscert",
        description="Exact Farey distances, normal curves, and gluing certificates",
        epilog="Values beginning with '-' need the --option=value form.",
    )
    parser.add_argument(
        "--version",
        action=_Version,
        nargs=0,
        default=argparse.SUPPRESS,
        help="show program's version number and exit",
    )
    parser.add_argument(
        "--pretty", action="store_true", help="indented JSON output"
    )
    sub = parser.add_subparsers(dest="group", required=True)

    farey = sub.add_parser("farey", help="Farey graph metric").add_subparsers(
        dest="command", required=True
    )
    p = farey.add_parser("dist", help="distance between two slopes")
    p.add_argument("s")
    p.add_argument("t")
    p.set_defaults(handler=_cmd_farey_dist)
    p = farey.add_parser("path", help="a geodesic between two slopes")
    p.add_argument("s")
    p.add_argument("t")
    p.set_defaults(handler=_cmd_farey_path)

    slope = sub.add_parser("slope", help="slope operations").add_subparsers(
        dest="command", required=True
    )
    p = slope.add_parser("map", help="image of a slope under a matrix")
    p.add_argument("matrix")
    p.add_argument("slope")
    p.set_defaults(handler=_cmd_slope_map)

    matrix = sub.add_parser("matrix", help="matrix operations").add_subparsers(
        dest="command", required=True
    )
    p = matrix.add_parser("eigenslopes", help="exact rational eigenslopes")
    p.add_argument("matrix")
    p.set_defaults(handler=_cmd_matrix_eigenslopes)

    normal = sub.add_parser("normal", help="normal curves on the torus").add_subparsers(
        dest="command", required=True
    )
    p = normal.add_parser("slope", help="slope of normal coordinates")
    p.add_argument("coords", metavar="x1,x2,x3")
    p.set_defaults(handler=_cmd_normal_slope)
    p = normal.add_parser("coords", help="normal coordinates of a slope")
    p.add_argument("slope")
    p.add_argument("--mult", type=ascii_integer, default=1)
    p.add_argument("--trivial", type=ascii_integer, default=0)
    p.set_defaults(handler=_cmd_normal_coords)
    p = normal.add_parser("intersect", help="signed intersections of two curves")
    p.add_argument("x", metavar="x1,x2,x3")
    p.add_argument("y", metavar="y1,y2,y3")
    p.set_defaults(handler=_cmd_normal_intersect)

    classmap = sub.add_parser("classmap", help="compatibility class maps").add_subparsers(
        dest="command", required=True
    )
    p = classmap.add_parser("from-surfaces", help="class map from two surfaces")
    p.add_argument("--r1", required=True, metavar="p,q")
    p.add_argument("--s1", required=True, metavar="p,q")
    p.add_argument("--r2", required=True, metavar="p,q")
    p.add_argument("--s2", required=True, metavar="p,q")
    p.add_argument("--complexity", type=ascii_integer, default=0)
    p.set_defaults(handler=_cmd_classmap_from_surfaces)
    p = classmap.add_parser("from-slopes", help="canonical class map from slopes")
    p.add_argument("tau1")
    p.add_argument("tau2")
    p.add_argument("--complexity", type=ascii_integer, default=0)
    p.set_defaults(handler=_cmd_classmap_from_slopes)

    certify = sub.add_parser("certify", help="c-distance certificates").add_subparsers(
        dest="command", required=True
    )
    p = certify.add_parser("gluing", help="certificate for one gluing map")
    p.add_argument("--phi", required=True)
    p.add_argument("--classes", required=True, metavar="FILE")
    p.add_argument("--bound", type=ascii_integer, default=None)
    p.set_defaults(handler=_cmd_certify_gluing)
    p = certify.add_parser("collection", help="generalized distance over orderings")
    p.add_argument("--spec", required=True, metavar="FILE")
    p.add_argument("--bound", type=ascii_integer, default=None)
    p.set_defaults(handler=_cmd_certify_collection)
    p = certify.add_parser("verify", help="recompute and confirm an emitted report")
    p.add_argument("report", metavar="FILE")
    p.set_defaults(handler=_cmd_certify_verify)

    anosov = sub.add_parser("anosov", help="hyperbolic power bounds").add_subparsers(
        dest="command", required=True
    )
    p = anosov.add_parser("power", help="minimal power with certified tail")
    p.add_argument("--sigma", required=True)
    p.add_argument("--psi", required=True)
    p.add_argument("--classes", required=True, metavar="FILE")
    p.set_defaults(handler=_cmd_anosov_power)
    p = anosov.add_parser("trace", help="trace sequence of sigma^n k")
    p.add_argument("--sigma", required=True)
    p.add_argument("--k", required=True)
    p.add_argument("--n", type=ascii_integer, required=True)
    p.set_defaults(handler=_cmd_anosov_trace)

    return parser


def _dump(payload, pretty):
    try:
        if pretty:
            return json.dumps(payload, sort_keys=True, indent=2)
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))
    except ValueError as exc:  # an int past sys.get_int_max_str_digits()
        raise digit_limit_error() from exc


def main(argv=None):
    parser = build_parser()
    args = None
    try:
        args = parser.parse_args(argv)
        payload, code = args.handler(args)
        text = _dump(payload, args.pretty)
    except InvalidInputError as exc:
        pretty = args is not None and args.pretty
        print(
            _dump({"status": "invalid-input", "error": str(exc)}, pretty),
            file=sys.stderr,
        )
        return EXIT_INVALID
    print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
