"""Character assembly and identity verification.

Two independent routes to the same odd-trace character are compared here:

* the free-fermion graded trace against the eta expansion;
* the c = -21/4 alternating sum of Verma leading traces (one term per module
  in the resolution of the irreducible weight -3/32 module) against
  eta(tau)^3 / 4.

The sign of each module in the alternating sum is the Euler-characteristic
sign (-1)^d of its homological degree d in the BGG-type resolution.  The
degree is the position of the index k in exponent order 1/8 + k(2k+1):
k = 0, -1, 1, -2, 2, ... has d = 0, 1, 2, 3, 4, ...  `resolve_signs` is a
diagnostic that instead reads each sign off the eta^3/4 coefficient at its
exponent (the term exponents are pairwise distinct); it must agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor
from typing import Dict, List, Mapping, Optional, Tuple

from . import pbw
from .qseries import FracPowerSeries, eta, jacobi_indices, jacobi_rhs

__all__ = [
    "VerificationReport",
    "SignResolutionError",
    "compare_series",
    "bgg_odd_trace",
    "resolution_signs",
    "resolve_signs",
    "verify_jacobi",
    "verify_fermion_eta",
    "verify_bgg_equals_eta_cubed",
]

F = Fraction


class SignResolutionError(ValueError):
    """No +-1 assignment reproduces the target coefficients."""


def _resolution_indices(max_exponent: Fraction) -> List[int]:
    """Resolution indices k with exponent 1/8 + k(2k+1) <= max_exponent,
    in exponent order (position = homological degree)."""
    return jacobi_indices(floor(Fraction(max_exponent) - F(1, 8)) + 1)


def resolution_signs(max_exponent: Fraction) -> Dict[int, int]:
    """The sign (-1)^d of each resolution module of degree d whose exponent
    is at most max_exponent, keyed by its index k."""
    return {k: (-1) ** d for d, k in enumerate(_resolution_indices(max_exponent))}


def bgg_odd_trace(max_exponent: Fraction, signs: Mapping[int, int]) -> FracPowerSeries:
    """Alternating sum of Verma leading traces, truncated below max_exponent.

    Term k contributes signs[k] * |4k+1|/4 at exponent 1/8 + k(2k+1); the
    exponents are pairwise distinct so the series support is exactly the
    index set of the resolution.
    """
    max_exponent = Fraction(max_exponent)
    terms: Dict[Fraction, Fraction] = {}
    for k in jacobi_indices(max_exponent - F(1, 8)):
        if k not in signs:
            raise ValueError(f"sign assignment does not cover k={k} "
                             f"(exponent {F(1, 8) + k * (2 * k + 1)} below {max_exponent})")
        exponent, value = pbw.verma_leading_trace(k, signs[k])
        terms[exponent] = value
    return FracPowerSeries.from_terms(terms, max_exponent, denominator=8)


def _eta_cubed_quarter(order: Fraction) -> FracPowerSeries:
    """eta^3 / 4 exact strictly below `order` (and at `order` itself)."""
    n = max(1, ceil(Fraction(order) - F(1, 8)) + 1)
    return (eta(n) ** 3) * F(1, 4)


def resolve_signs(max_exponent: Fraction) -> Dict[int, int]:
    """The unique sign per index k (exponent window inclusive) matching eta^3/4.

    Each k owns one exponent, so dividing the target coefficient by the term
    magnitude |4k+1|/4 must give exactly +-1; anything else falsifies the
    leading-trace computation and raises SignResolutionError.
    """
    target = _eta_cubed_quarter(max_exponent)
    signs: Dict[int, int] = {}
    for k in _resolution_indices(max_exponent):
        exponent, magnitude = pbw.verma_leading_trace(k, +1)
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

    def to_json_dict(self) -> dict:
        if self.first_discrepancy is None:
            disc = None
        else:
            e, lhs, rhs = self.first_discrepancy
            disc = {
                "exp": [e.numerator, e.denominator],
                "lhs": [lhs.numerator, lhs.denominator],
                "rhs": [rhs.numerator, rhs.denominator],
            }
        return {
            "name": self.name,
            "order": [self.order.numerator, self.order.denominator],
            "pass": self.passed,
            "first_discrepancy": disc,
        }


def compare_series(name: str, lhs: FracPowerSeries, rhs: FracPowerSeries,
                   order: Fraction) -> VerificationReport:
    order = Fraction(order)
    mismatch = lhs.first_mismatch(rhs, order)
    return VerificationReport(name, order, mismatch is None, mismatch)


def verify_jacobi(order: Fraction) -> VerificationReport:
    """Coefficientwise check of eta^3 = q^(1/8) sum (4n+1) q^(n(2n+1)) below order."""
    order = Fraction(order)
    if order < F(1, 8):
        raise ValueError("order must be at least 1/8")
    n = max(1, ceil(order - F(1, 8)))
    return compare_series("jacobi-eta-cubed", eta(n) ** 3, jacobi_rhs(n), order)


def verify_fermion_eta(max_level: int) -> VerificationReport:
    """Brute-force Fock-module trace against eta, levels 0..max_level."""
    return _fermion_route(max_level)[1]


def _fermion_route(max_level: int) -> Tuple[pbw.GradedTraceReport, VerificationReport]:
    """The brute-force trace and its check against eta, each computed once."""
    if max_level < 1:
        raise ValueError("max_level must be at least 1")
    trace = pbw.fermion_odd_trace(max_level)
    order = F(1, 24) + max_level + 1
    return trace, compare_series("fermion-odd-trace-eta", trace.series,
                                 eta(max_level + 1), order)


def verify_bgg_equals_eta_cubed(order: Fraction) -> VerificationReport:
    """Resolution route vs closed form: the two computations of the c = -21/4
    odd trace must agree below `order`."""
    return _bgg_route(order)[2]


def _bgg_route(order: Fraction
               ) -> Tuple[Dict[int, int], FracPowerSeries, VerificationReport]:
    """Derived signs, the resolution-route series and its check against
    eta^3/4, which is built only for the comparison."""
    order = Fraction(order)
    if order < F(1, 8):
        raise ValueError("order must be at least 1/8")
    signs = resolution_signs(order)
    lhs = bgg_odd_trace(order, signs)
    return signs, lhs, compare_series("bgg-eta-cubed-quarter", lhs,
                                      _eta_cubed_quarter(order), order)
