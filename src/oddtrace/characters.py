"""Character assembly and identity verification.

Two independent routes to the same odd-trace character are compared here:

* the free-fermion graded trace against the eta expansion;
* the c = -21/4 alternating sum of Verma leading traces (one term per module
  in the resolution of the irreducible weight -3/32 module) against
  eta(tau)^3 / 4.

Each module's exponent and term come from its (2, 8) Ramond Kac label: the
exponent through the weights in `superalgebras`, the term as one rational.
The sign of the term is its character sign (-1)^delta, with delta = ceil(d/2)
the homological degree of the d-th module in exponent order (signs
+ - - + + - -), times the G_0 orientation sign(n).
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
    "resolve_signs",
    "verify_jacobi",
]

F = Fraction


class SignResolutionError(ValueError):
    """No +-1 assignment reproduces the target coefficients."""


# (p, p', r, s): the c = -21/4 model and the Kac labels of its h = -3/32 module.
_KAC_LABELS = (2, 8, 1, 2)


def _check_order(order: Fraction) -> Fraction:
    """The order as a Fraction; ConstraintError below 1/8, the lowest
    exponent of eta^3 and of the resolution."""
    order = Fraction(order)
    if order < F(1, 8):
        raise ConstraintError("order must be at least 1/8")
    return order


def _resolution_terms(max_exponent: Fraction) -> List[Tuple[int, Fraction, Fraction]]:
    """(k, exponent, term) of each resolution module with exponent <=
    max_exponent, in exponent order.

    Labels n = 2pp'j + rp' -+ sp (j in Z) carry character sign eps = +-1 and
    key k = 2j or -2j-1.  The exponent is G_0^2 = h - c/24 = n^2/(8pp') on
    the top space.  The term is eps n n0/(4pp'), with n0 = rp' - sp: its
    sign is eps times the G_0 orientation sign(n), and its magnitude
    |n n0|/(4pp') is, for (2, 8), sqrt(exponent/2), the trace of G_0 Theta
    on the top space (the eigenvalue sqrt(exponent/8), twice).
    """
    p, pp, r, s = _KAC_LABELS
    c = central_charge(p, pp)
    n0 = r * pp - s * p
    # |n| <= sqrt(8pp' max_exponent) and |rp' -+ sp| < 2pp' bound |j|
    reach = isqrt(max(0, floor(8 * p * pp * Fraction(max_exponent)))) // (2 * p * pp) + 1
    terms = []
    for j in range(-reach, reach + 1):
        for eps, label, k in ((1, s, 2 * j), (-1, -s, -2 * j - 1)):
            exponent = g0_square_value(c, conformal_weight(p, pp, r + 2 * p * j, label))
            if exponent <= max_exponent:
                n = 2 * p * pp * j + r * pp - label * p
                terms.append((k, exponent, Fraction(eps * n * n0, 4 * p * pp)))
    return sorted(terms, key=lambda term: term[1])


def bgg_odd_trace(max_exponent: Fraction, signs: Mapping[int, int]) -> FracPowerSeries:
    """Alternating sum of Verma leading traces, truncated below max_exponent:
    module k contributes signs[k] times its magnitude at its own exponent."""
    return _sum_terms(_resolution_terms(max_exponent), max_exponent, signs)


def _sum_terms(terms: List[Tuple[int, Fraction, Fraction]], max_exponent: Fraction,
               signs: Mapping[int, int]) -> FracPowerSeries:
    """The magnitudes |term| below max_exponent, term k signed by signs[k],
    on the 1/8 grid of the (2, 8) exponents; ValueError for an exponent off
    that grid."""
    max_exponent = Fraction(max_exponent)
    series: Dict[int, Fraction] = {}
    for k, exponent, term in terms:
        if exponent >= max_exponent:
            continue
        if k not in signs:
            raise ValueError(f"sign assignment does not cover k={k} "
                             f"(exponent {exponent} below {max_exponent})")
        if signs[k] not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        series[8 * exponent] = signs[k] * abs(term)
    return FracPowerSeries(8, max_exponent, series)


def _eta_cubed_quarter(order: Fraction) -> FracPowerSeries:
    """eta^3 / 4 exact at and below `order` >= 1/8: eta(n) ** 3 is exact
    below n + 1/8, so n = ceil(order) covers every exponent up to `order`."""
    return (eta(ceil(order)) ** 3) * F(1, 4)


def resolve_signs(max_exponent: Fraction) -> Dict[int, int]:
    """The unique sign per module (exponent window inclusive) matching eta^3/4.

    Each module owns one exponent, so dividing the target coefficient by the
    module's magnitude |term| must give exactly +-1; anything else falsifies
    the leading-trace computation and raises SignResolutionError.
    """
    max_exponent = _check_order(max_exponent)
    target = _eta_cubed_quarter(max_exponent)
    signs: Dict[int, int] = {}
    for k, exponent, term in _resolution_terms(max_exponent):
        ratio = target.coeff(exponent) / abs(term)
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
    order = _check_order(order)
    n = ceil(order)  # both sides are exact below n + 1/8
    return compare_series("jacobi-eta-cubed", eta(n) ** 3, jacobi_rhs(n), order)


def _fermion_route(max_level: int) -> Tuple[pbw.GradedTraceReport, VerificationReport]:
    """The brute-force trace and its check against eta, each computed once."""
    if max_level < 1:
        raise ConstraintError("level must be at least 1")
    trace = pbw.fermion_odd_trace(max_level)
    return trace, compare_series("fermion-odd-trace-eta", trace.series,
                                 eta(max_level + 1), trace.series.truncation)


def _bgg_route(order: Fraction
               ) -> Tuple[Dict[int, int], FracPowerSeries, VerificationReport]:
    """Derived signs, the resolution-route series and its check against
    eta^3/4, which is built only for the comparison."""
    order = _check_order(order)
    terms = _resolution_terms(order)
    signs = {k: 1 if term > 0 else -1 for k, _, term in terms}
    lhs = _sum_terms(terms, order, signs)
    return signs, lhs, compare_series("bgg-eta-cubed-quarter", lhs,
                                      _eta_cubed_quarter(order), order)
