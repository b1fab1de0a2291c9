"""Minimal powers after which a hyperbolic twist certifies distance one.

For a hyperbolic (Anosov) matrix sigma and any gluing psi, every class map
composition sigma^n K, K = psi Phi, eventually satisfies the
denominator-trace test, hence has no rational eigenslopes and cannot fix a
slope.  Every power has d(sigma^n K) = d(K) = d: sigma and its inverse are
integral, so d sigma^n K = sigma^n (d K) is integral, and
d(sigma^n K) K = sigma^(-n) (d(sigma^n K) sigma^n K) is integral, so each
denominator divides the other.  The integer traces T_n = d trace(sigma^n K)
therefore obey the Cayley-Hamilton recurrence

    T_(n+1) = trace(sigma) T_n - T_(n-1),

and the per-power test |t_n| < 2/d or |t_n| > 2 d reads |T_n| < 2 or
|T_n| > 2 d^2.  Since |trace(sigma)| >= 3, once consecutive traces satisfy
|T_(n0+1)| >= |T_n0| and |T_(n0+1)| > 2 d^2, every later trace grows by a
factor of at least two; that pair of inequalities is a finite certificate
covering the whole tail.  The only other possibility over the rationals is
T_n identically zero from some point on (K exchanges the two
eigendirections, forcing two consecutive zero traces), where the
small-trace branch of the test holds forever.

Powers below the certified index report their eigenslopes.  (A, B, C, D)
= d sigma^n K has trace T_n and determinant d^2, so the discriminant that
rational_eigenslopes tests, (D - A)^2 + 4 B C, is T_n^2 - 4 d^2.  If that
is negative or not a square, C != 0 (C = 0 leaves the square (D - A)^2)
and sigma^n K is not +-I (where it is 0), so no slope is fixed; only the
powers with a square discriminant are built as matrices.  matrices.is_square
decides each one: residues mod 64, 63, 65 and 11 reject all but about 1% of
non-squares, and isqrt settles the rest exactly.

The prefix stays on integers: ClassPowerBound keeps T_n and the eigenslopes
of each power, and builds PrefixDiagnostic values, with trace T_n / d as a
Fraction, only when its prefix is read.  The report prints each trace from
T_n and d with one gcd and tests |T_n| against 2 d^2 computed once per
class, so its bytes are those of the Fraction form.
"""

from __future__ import annotations

import sys
from fractions import Fraction

from ._value import Value, set_field
from .classmaps import classmap_to_json
from .errors import InvalidInputError, integer
from .matrices import (
    Eigenslopes,
    UnimodularZ,
    compose,
    denominator,
    is_square,
    rational_eigenslopes,
)
from .serialize import eigenslopes_to_json, format_fraction, format_ratio, matrix_to_json

__all__ = [
    "MAX_TRACE_INDEX",
    "is_hyperbolic",
    "trace_sequence",
    "power_bound",
    "PrefixDiagnostic",
    "ClassPowerBound",
    "PowerBoundReport",
    "power_report_to_json",
]

_TAIL_SEARCH_CAP = 100_000
# The largest n_max of trace_sequence.  At |trace(sigma)| = 3, the least
# hyperbolic one, t_10000 of sigma^n alone has about 4,200 digits.
MAX_TRACE_INDEX = 10_000
_NONE_FIXED = Eigenslopes(fixes_all=False, slopes=())  # one shared empty set


def is_hyperbolic(sigma):
    """True iff |trace| > 2 (the map is Anosov)."""
    return abs(sigma.trace()) > 2


def scaled_trace_criterion(scaled_trace, d):
    """trace_criterion from T = d(m) trace(m) and d = d(m): |T| < 2 or |T| > 2 d^2."""
    t = abs(scaled_trace)
    return t < 2 or t > 2 * d * d


def _scaled_traces(sigma, k):
    """T_n = d(K) trace(sigma^n K) for n = 0, 1, 2, ...; sigma integral."""
    a, b, c, d = sigma.scaled
    ka, kb, kc, kd = k.scaled
    tau = a + d
    t0, t1 = ka + kd, a * ka + b * kc + c * kb + d * kd
    while True:
        yield t0
        t0, t1 = t1, tau * t1 - t0


def trace_sequence(sigma, k, n_max):
    """Exact traces t_0 ... t_n_max of sigma^n * k, by the trace recurrence.

    sigma must be integral and n_max an int from 0 to MAX_TRACE_INDEX.  The
    first trace of 10^sys.get_int_max_str_digits() or more, which could not
    be printed, raises InvalidInputError, which also bounds the memory.
    """
    integer(n_max, "n_max", 0, MAX_TRACE_INDEX)
    if denominator(sigma) != 1:
        raise InvalidInputError("sigma must be integral")
    d_k = denominator(k)
    digits = sys.get_int_max_str_digits()  # 0 means no limit
    cap = d_k * 10**digits if digits else None
    out = []
    for n, t in zip(range(n_max + 1), _scaled_traces(sigma, k)):
        if cap is not None and abs(t) >= cap:
            raise InvalidInputError(
                f"trace {n} has more than {digits} digits, the limit for printing"
            )
        out.append(Fraction(t, d_k))
    return out


class PrefixDiagnostic(Value):
    """One power below the certified index: what held and what did not.

    eigenslopes are those of sigma^n * K.
    """

    __slots__ = ("n", "trace", "denominator", "criterion_passed", "eigenslopes")

    def __init__(self, n, trace, denominator, criterion_passed, eigenslopes):
        set_field(self, "n", n)
        set_field(self, "trace", trace)
        set_field(self, "denominator", denominator)
        set_field(self, "criterion_passed", criterion_passed)
        set_field(self, "eigenslopes", eigenslopes)


class ClassPowerBound(Value):
    """The certified index of one class and the powers below it.

    tail_kind is "growth" or "zero".  prefix_traces holds
    T_n = d_k trace(sigma^n K) and prefix_eigenslopes the eigenslopes of
    sigma^n K for n = 0 ... n_class - 1.
    """

    __slots__ = (
        "class_map", "n_class", "tail_index", "tail_kind", "tail_traces", "d_k",
        "prefix_traces", "prefix_eigenslopes",
    )

    def __init__(
        self, class_map, n_class, tail_index, tail_kind, tail_traces, d_k,
        prefix_traces, prefix_eigenslopes,
    ):
        set_field(self, "class_map", class_map)
        set_field(self, "n_class", n_class)
        set_field(self, "tail_index", tail_index)
        set_field(self, "tail_kind", tail_kind)
        set_field(self, "tail_traces", tail_traces)
        set_field(self, "d_k", d_k)
        set_field(self, "prefix_traces", prefix_traces)
        set_field(self, "prefix_eigenslopes", prefix_eigenslopes)

    @property
    def prefix(self):
        """One PrefixDiagnostic per power below n_class, built on each call."""
        d = self.d_k
        return tuple(
            PrefixDiagnostic(n, Fraction(t, d), d, scaled_trace_criterion(t, d), eig)
            for n, (t, eig) in enumerate(zip(self.prefix_traces, self.prefix_eigenslopes))
        )


class PowerBoundReport(Value):
    """The power bound of each class (per_class) and their maximum, overall_n."""

    __slots__ = ("sigma", "psi", "per_class", "overall_n")

    def __init__(self, sigma, psi, per_class, overall_n):
        set_field(self, "sigma", sigma)
        set_field(self, "psi", psi)
        set_field(self, "per_class", per_class)
        set_field(self, "overall_n", overall_n)


def _class_power_bound(sigma, psi, cm):
    k = compose(psi, cm.phi)
    d_k = denominator(k)
    bound = 2 * d_k * d_k
    scaled = _scaled_traces(sigma, k)
    traces = [next(scaled), next(scaled)]
    for n in range(_TAIL_SEARCH_CAP):
        t0, t1 = traces[n], traces[n + 1]
        if t0 == 0 and t1 == 0:
            # The recurrence forces every later trace to zero, and zero
            # always passes the small branch of the test.
            tail_index, tail_kind, tail_start = n, "zero", n
            break
        if abs(t1) >= abs(t0) and abs(t1) > bound:
            tail_index, tail_kind, tail_start = n, "growth", n + 1
            break
        traces.append(next(scaled))
    else:
        raise InvalidInputError(
            f"no certified trace tail within {_TAIL_SEARCH_CAP} powers"
        )
    # N is one past the last power below the tail that fails the test;
    # every power has denominator d_k, so failing is 2 <= |T| <= 2 d^2.
    n_class = next(
        (i + 1 for i in range(tail_start - 1, -1, -1) if 2 <= abs(traces[i]) <= bound),
        0,
    )
    prefix_traces = tuple(traces[:n_class])
    four_dd = 2 * bound
    eigenslopes = tuple(
        # T_i^2 - 4 d^2 is the discriminant of sigma^i K, see the docstring
        rational_eigenslopes(sigma**i * k) if is_square(t * t - four_dd) else _NONE_FIXED
        for i, t in enumerate(prefix_traces)
    )
    return ClassPowerBound(
        class_map=cm,
        n_class=n_class,
        tail_index=tail_index,
        tail_kind=tail_kind,
        tail_traces=tuple(Fraction(t, d_k) for t in traces[tail_index:tail_index + 2]),
        d_k=d_k,
        prefix_traces=prefix_traces,
        prefix_eigenslopes=eigenslopes,
    )


def power_bound(sigma, psi, classes):
    """Least N with the trace test certified for all powers n >= N, per class.

    N is defined against the denominator-trace test, whose tail rule gives
    a finite certificate for every larger power; smaller powers where the
    eigenslope set happens to be empty anyway are reported in the prefix
    diagnostics but do not lower N.
    """
    if not isinstance(sigma, UnimodularZ) or not isinstance(psi, UnimodularZ):
        raise InvalidInputError("sigma and psi must be integral with determinant 1")
    if not is_hyperbolic(sigma):
        raise InvalidInputError(
            f"sigma must be hyperbolic: |trace| = {abs(sigma.trace())} is not > 2"
        )
    classes = list(classes)
    if not classes:
        raise InvalidInputError("power bounds need at least one class map")
    per_class = tuple(_class_power_bound(sigma, psi, cm) for cm in classes)
    return PowerBoundReport(
        sigma=sigma,
        psi=psi,
        per_class=per_class,
        overall_n=max(c.n_class for c in per_class),
    )


def _prefix_json(c):
    """The prefix entries of one class: each trace T/d takes one gcd."""
    d, bound = c.d_k, 2 * c.d_k * c.d_k
    return [
        {
            "n": n,
            "trace": format_ratio(t, d),
            "denominator": d,
            "criterion_passed": not 2 <= abs(t) <= bound,
            "eigenslopes": eigenslopes_to_json(eig),
        }
        for n, (t, eig) in enumerate(zip(c.prefix_traces, c.prefix_eigenslopes))
    ]


def power_report_to_json(report):
    return {
        "kind": "power-bound-report",
        "sigma": matrix_to_json(report.sigma),
        "psi": matrix_to_json(report.psi),
        "overall_N": report.overall_n,
        "per_class": [
            {
                "class_map": classmap_to_json(c.class_map),
                "N": c.n_class,
                "tail_index": c.tail_index,
                "tail_kind": c.tail_kind,
                "tail_traces": [
                    format_fraction(c.tail_traces[0]),
                    format_fraction(c.tail_traces[1]),
                ],
                "d_K": c.d_k,
                "prefix": _prefix_json(c),
            }
            for c in report.per_class
        ],
    }
