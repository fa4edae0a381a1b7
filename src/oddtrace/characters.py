"""Character assembly and identity verification.

Two independent routes to the same odd-trace character are compared here:

* the free-fermion graded trace against the eta expansion;
* the c = -21/4 alternating sum of Verma leading traces (one term per module
  in the resolution of the irreducible weight -3/32 module) against
  eta(tau)^3 / 4.

Each module's exponent and magnitude come from its (2, 8) Ramond Kac label
through the weights in `superalgebras`.  Its sign is its character sign
(-1)^delta, with delta = ceil(d/2) the homological degree of the d-th module
in exponent order (signs + - - + + - -), times the G_0 orientation sign(n).
`resolve_signs` is a diagnostic that instead reads each sign off the eta^3/4
coefficient at its exponent (the exponents are distinct); it must agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor, isqrt
from typing import Dict, List, Mapping, Optional, Tuple

from . import pbw
from .errors import ConstraintError
from .qseries import FracPowerSeries, eta, jacobi_rhs
from .superalgebras import central_charge, conformal_weight, g0_square_value

__all__ = [
    "VerificationReport",
    "SignResolutionError",
    "compare_series",
    "bgg_odd_trace",
    "resolution_signs",
    "resolve_signs",
    "verify_jacobi",
]

F = Fraction


class SignResolutionError(ValueError):
    """No +-1 assignment reproduces the target coefficients."""


# (p, p', r, s): the c = -21/4 model and the Kac labels of its h = -3/32 module.
_KAC_LABELS = (2, 8, 1, 2)


def _exact_sqrt(x: Fraction) -> Fraction:
    """The rational square root of x >= 0; ArithmeticError if there is none."""
    a, b = isqrt(x.numerator), isqrt(x.denominator)
    if a * a != x.numerator or b * b != x.denominator:  # x is in lowest terms
        raise ArithmeticError(f"{x} is not the square of a rational")
    return Fraction(a, b)


def _resolution_terms(max_exponent: Fraction) -> List[tuple]:
    """(k, exponent, magnitude, character sign, sign) of each resolution
    module with exponent <= max_exponent, in exponent order.

    Labels n = 2pp'j + rp' -+ sp (j in Z) carry character sign eps = +-1 and
    key k = 2j or -2j-1.  The exponent is G_0^2 = h - c/24 = n^2/(8pp') on
    the top space; the magnitude sqrt(exponent/2) is the trace of G_0 Theta
    there (the eigenvalue sqrt(exponent/8), twice); the sign is eps times the
    G_0 orientation sign(n).
    """
    p, pp, r, s = _KAC_LABELS
    c = central_charge(p, pp)
    # |n| <= sqrt(8pp' max_exponent) and |rp' -+ sp| < 2pp' bound |j|
    reach = isqrt(max(0, floor(8 * p * pp * Fraction(max_exponent)))) // (2 * p * pp) + 1
    terms = []
    for j in range(-reach, reach + 1):
        for eps, label, k in ((1, s, 2 * j), (-1, -s, -2 * j - 1)):
            exponent = g0_square_value(c, conformal_weight(p, pp, r + 2 * p * j, label))
            if exponent <= max_exponent:
                n = 2 * p * pp * j + r * pp - label * p
                terms.append((k, exponent, _exact_sqrt(exponent / 2), eps,
                              eps if n > 0 else -eps))
    return sorted(terms, key=lambda term: term[1])


def resolution_signs(max_exponent: Fraction) -> Dict[int, int]:
    """The sign of each resolution module with exponent <= max_exponent, by k."""
    return {k: sign for k, _, _, _, sign in _resolution_terms(max_exponent)}


def bgg_odd_trace(max_exponent: Fraction, signs: Mapping[int, int]) -> FracPowerSeries:
    """Alternating sum of Verma leading traces, truncated below max_exponent:
    module k contributes signs[k] times its magnitude at its own exponent."""
    return _sum_terms(_resolution_terms(max_exponent), max_exponent, signs)


def _sum_terms(terms: List[tuple], max_exponent: Fraction,
               signs: Mapping[int, int]) -> FracPowerSeries:
    """The terms below max_exponent, term k signed by signs[k]."""
    max_exponent = Fraction(max_exponent)
    series: Dict[Fraction, Fraction] = {}
    for k, exponent, magnitude, _, _ in terms:
        if exponent >= max_exponent:
            continue
        if k not in signs:
            raise ValueError(f"sign assignment does not cover k={k} "
                             f"(exponent {exponent} below {max_exponent})")
        if signs[k] not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        series[exponent] = signs[k] * magnitude
    return FracPowerSeries.from_terms(series, max_exponent, denominator=8)


def _eta_cubed_quarter(order: Fraction) -> FracPowerSeries:
    """eta^3 / 4 exact strictly below `order` (and at `order` itself)."""
    n = max(1, ceil(Fraction(order) - F(1, 8)) + 1)
    return (eta(n) ** 3) * F(1, 4)


def resolve_signs(max_exponent: Fraction) -> Dict[int, int]:
    """The unique sign per module (exponent window inclusive) matching eta^3/4.

    Each module owns one exponent, so dividing the target coefficient by the
    module's magnitude must give exactly +-1; anything else falsifies the
    leading-trace computation and raises SignResolutionError.
    """
    target = _eta_cubed_quarter(max_exponent)
    signs: Dict[int, int] = {}
    for k, exponent, magnitude, _, _ in _resolution_terms(max_exponent):
        ratio = target.coeff(exponent) / magnitude
        if ratio not in (1, -1):
            raise SignResolutionError(
                f"no sign matches at k={k}: target/magnitude = {ratio}")
        signs[k] = int(ratio)
    return signs


# ---------------------------------------------------------------------------
# verification reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VerificationReport:
    name: str
    order: Fraction
    passed: bool
    first_discrepancy: Optional[Tuple[Fraction, Fraction, Fraction]]


def compare_series(name: str, lhs: FracPowerSeries, rhs: FracPowerSeries,
                   order: Fraction) -> VerificationReport:
    order = Fraction(order)
    mismatch = lhs.first_mismatch(rhs, order)
    return VerificationReport(name, order, mismatch is None, mismatch)


def verify_jacobi(order: Fraction) -> VerificationReport:
    """Coefficientwise check of eta^3 = q^(1/8) sum (4n+1) q^(n(2n+1)) below order."""
    order = Fraction(order)
    if order < F(1, 8):
        raise ConstraintError("order must be at least 1/8")
    n = max(1, ceil(order - F(1, 8)))
    return compare_series("jacobi-eta-cubed", eta(n) ** 3, jacobi_rhs(n), order)


def _fermion_route(max_level: int) -> Tuple[pbw.GradedTraceReport, VerificationReport]:
    """The brute-force trace and its check against eta, each computed once."""
    if max_level < 1:
        raise ValueError("max_level must be at least 1")
    trace = pbw.fermion_odd_trace(max_level)
    order = F(1, 24) + max_level + 1
    return trace, compare_series("fermion-odd-trace-eta", trace.series,
                                 eta(max_level + 1), order)


def _bgg_route(order: Fraction
               ) -> Tuple[Dict[int, int], FracPowerSeries, VerificationReport]:
    """Derived signs, the resolution-route series and its check against
    eta^3/4, which is built only for the comparison."""
    order = Fraction(order)
    if order < F(1, 8):
        raise ConstraintError("order must be at least 1/8")
    terms = _resolution_terms(order)
    signs = {k: sign for k, _, _, _, sign in terms}
    lhs = _sum_terms(terms, order, signs)
    return signs, lhs, compare_series("bgg-eta-cubed-quarter", lhs,
                                      _eta_cubed_quarter(order), order)
