"""Character assembly and identity verification.

Two independent routes to the same odd-trace character are compared here:

* the free-fermion graded trace against the eta expansion;
* the c = -21/4 alternating sum of Verma leading traces (one term per module
  in the resolution of the irreducible weight -3/32 module) against
  eta(tau)^3 / 4.

The per-module signs of the alternating sum are not derived structurally;
`resolve_signs` pins each one empirically against the eta^3 coefficient at
its exponent, which is legitimate because the term exponents 1/8 + k(2k+1)
are pairwise distinct.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

from . import pbw
from .qseries import FracPowerSeries, eta, jacobi_rhs

__all__ = [
    "SignAssignment",
    "VerificationReport",
    "SignResolutionError",
    "compare_series",
    "bgg_odd_trace",
    "resolve_signs",
    "verify_jacobi",
    "verify_fermion_eta",
    "verify_bgg_equals_eta_cubed",
]

F = Fraction


class SignResolutionError(ValueError):
    """No +-1 assignment reproduces the target coefficients."""


class SignAssignment:
    """Map from the resolution index k to +-1 over a contiguous k-range."""

    def __init__(self, signs: Mapping[int, int]):
        signs = {int(k): int(s) for k, s in signs.items()}
        if any(s not in (1, -1) for s in signs.values()):
            raise ValueError("signs must be +1 or -1")
        if signs:
            lo, hi = min(signs), max(signs)
            if set(signs) != set(range(lo, hi + 1)):
                raise ValueError("sign domain must be a contiguous range of k")
        self._signs: Dict[int, int] = dict(sorted(signs.items()))

    def __getitem__(self, k: int) -> int:
        return self._signs[k]

    def __contains__(self, k: int) -> bool:
        return k in self._signs

    def __len__(self) -> int:
        return len(self._signs)

    def __eq__(self, other) -> bool:
        if isinstance(other, SignAssignment):
            return self._signs == other._signs
        if isinstance(other, dict):
            return self._signs == other
        return NotImplemented

    def items(self) -> Iterator[Tuple[int, int]]:
        return iter(self._signs.items())

    def to_json_dict(self) -> dict:
        out: dict = {"signs": [[k, s] for k, s in self._signs.items()]}
        if self._signs:
            out["kmin"] = min(self._signs)
            out["kmax"] = max(self._signs)
        return out

    def __repr__(self):
        return f"SignAssignment({self._signs})"


def _bgg_indices(max_exponent: Fraction, inclusive: bool) -> List[int]:
    """Resolution indices k ordered by exponent 1/8 + k(2k+1)."""
    bound = Fraction(max_exponent) - F(1, 8)
    ks = []
    a = 0
    while True:
        hit = False
        for k in ((a, -a) if a else (0,)):
            off = k * (2 * k + 1)
            if off < bound or (inclusive and off == bound):
                ks.append(k)
                hit = True
        if not hit and a > 0:
            break
        a += 1
    return sorted(ks, key=lambda k: k * (2 * k + 1))


def bgg_odd_trace(max_exponent: Fraction, signs: SignAssignment) -> FracPowerSeries:
    """Alternating sum of Verma leading traces, truncated below max_exponent.

    Term k contributes signs[k] * |4k+1|/4 at exponent 1/8 + k(2k+1); the
    exponents are pairwise distinct so the series support is exactly the
    index set of the resolution.
    """
    max_exponent = Fraction(max_exponent)
    terms: Dict[Fraction, Fraction] = {}
    for k in _bgg_indices(max_exponent, inclusive=False):
        if k not in signs:
            raise ValueError(f"sign assignment does not cover k={k} "
                             f"(exponent {F(1, 8) + k * (2 * k + 1)} below {max_exponent})")
        exponent, value = pbw.verma_leading_trace(k, pbw.BGG_CENTRAL_CHARGE, signs[k])
        terms[exponent] = value
    return FracPowerSeries.from_terms(terms, max_exponent, denominator=8)


def _eta_cubed_quarter(order: Fraction) -> FracPowerSeries:
    """eta^3 / 4 exact strictly below `order` (and at `order` itself)."""
    n = max(1, ceil(Fraction(order) - F(1, 8)) + 1)
    return (eta(n) ** 3) * F(1, 4)


def resolve_signs(max_exponent: Fraction) -> SignAssignment:
    """The unique sign per index k (exponent window inclusive) matching eta^3/4.

    Each k owns one exponent, so dividing the target coefficient by the term
    magnitude |4k+1|/4 must give exactly +-1; anything else falsifies the
    leading-trace computation and raises SignResolutionError.
    """
    max_exponent = Fraction(max_exponent)
    ks = _bgg_indices(max_exponent, inclusive=True)
    if not ks:
        return SignAssignment({})
    return _match_signs(ks, _eta_cubed_quarter(max_exponent))


def _match_signs(ks: List[int], target: FracPowerSeries) -> SignAssignment:
    """The sign of each index k in `ks` read off the target eta^3/4."""
    signs: Dict[int, int] = {}
    for k in ks:
        exponent, magnitude = pbw.verma_leading_trace(k, pbw.BGG_CENTRAL_CHARGE, +1)
        ratio = target.coeff(exponent) / magnitude
        if ratio == 1:
            signs[k] = 1
        elif ratio == -1:
            signs[k] = -1
        else:
            raise SignResolutionError(
                f"no sign matches at k={k}: target/magnitude = {ratio}")
    return SignAssignment(signs)


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
               ) -> Tuple[SignAssignment, FracPowerSeries, VerificationReport]:
    """Resolved signs, the resolution-route series and its check against
    eta^3/4, with the target built once for both the signs and the check."""
    order = Fraction(order)
    if order < F(1, 8):
        raise ValueError("order must be at least 1/8")
    target = _eta_cubed_quarter(order)
    signs = _match_signs(_bgg_indices(order, inclusive=True), target)
    lhs = bgg_odd_trace(order, signs)
    return signs, lhs, compare_series("bgg-eta-cubed-quarter", lhs, target, order)
