"""Floating-point evaluation of truncated series on the upper half-plane and
residual checks of the T and S transformation laws.

These are numerical witnesses, not proofs: a truncated expansion is summed at
q = exp(2*pi*i*tau) and compared against its transform, with a heuristic tail
estimate G*|q|^T/(1-|q|) (G the largest stored |coefficient|).  The estimate
is meant for the lacunary, slowly-growing series checked here.  On the S
region Im tau >= 0.8, |q| <= exp(-1.6 pi) < 0.0066 at tau, but not at
-1/tau: Im(-1/tau) = Im tau / |tau|^2, so |q| there is 0.0101 at
tau = 0.45 + 1.2i, 0.28 at tau = 0.1 + 5i, and tends to 1 as Im tau grows.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

from .errors import ConstraintError
from .qseries import FracPowerSeries

__all__ = ["TauPoint", "ModularResidual", "eval_series", "check_T", "check_S"]

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class TauPoint:
    """A point of the upper half-plane."""

    re: float
    im: float

    def __post_init__(self):
        if not (math.isfinite(self.re) and math.isfinite(self.im)):
            raise ConstraintError(f"tau must be finite (got re = {self.re}, im = {self.im})")
        if not self.im > 0:
            raise ConstraintError(f"tau must lie in the upper half-plane (im = {self.im})")

    @property
    def z(self) -> complex:
        return complex(self.re, self.im)


@dataclass(frozen=True)
class ModularResidual:
    """One transformation residual.  `tail_bound` is the heuristic estimate
    of `eval_series` for the truncation tails, not a rigorous bound."""

    transformation: str  # "S" or "T"
    weight: Fraction
    residual: float
    tail_bound: float


def eval_series(s: FracPowerSeries, tau: TauPoint) -> Tuple[complex, float]:
    """Sum of the stored terms at q = exp(2*pi*i*tau), with a heuristic
    estimate of the tail.

    Each interchange row [k, num, den] of `to_json_dict` is one float term
    (num / den) exp(2*pi*i*tau*k/D), the principal q^(k/D).  The estimate
    covers exponents at and beyond the truncation, assuming coefficients stay
    within the largest magnitude seen so far.  That can fail, so it is not a
    bound: for eta^3 at order 3 and tau = 0.1+0.8i it reads 4.55e-7, below the
    true tail of 7.54e-7.  A point where |q| rounds to 1 leaves the estimate's
    1/(1 - |q|) undefined and raises ConstraintError.
    """
    qabs = math.exp(-TWO_PI * tau.im)
    if qabs == 1.0:
        raise ConstraintError(
            f"|q| rounds to 1 at tau = {tau.re} + {tau.im}i, where no truncated "
            "series can be evaluated")
    z = tau.z
    data = s.to_json_dict()
    d = data["denominator"]
    value = 0j
    gmax = 0.0
    for k, num, den in data["terms"]:
        c = num / den
        value += c * cmath.exp(TWO_PI * 1j * z * (k / d))
        gmax = max(gmax, abs(c))
    tail = max(1.0, gmax) * qabs ** float(s.truncation) / (1.0 - qabs)
    return value, tail


def check_T(s: FracPowerSeries, weight: Fraction, tau: TauPoint) -> ModularResidual:
    """Residual of f(tau + 1) = mu * f(tau).

    The multiplier mu = exp(2*pi*i*e0) is forced by the lowest exponent e0:
    an expansion supported on e0 + Z picks up exactly that phase under
    tau -> tau + 1.  The weight factor is trivial here (c=0, d=1).
    """
    low = s.lowest()
    mu = cmath.exp(TWO_PI * 1j * float(low)) if low is not None else 1.0
    v0, t0 = eval_series(s, tau)
    v1, t1 = eval_series(s, TauPoint(tau.re + 1.0, tau.im))
    return ModularResidual("T", Fraction(weight), abs(v1 - mu * v0), t1 + t0)


def check_S(s: FracPowerSeries, weight: Fraction, tau: TauPoint,
            multiplier: complex) -> ModularResidual:
    """Residual of f(-1/tau) = multiplier * (-i*tau)^weight * f(tau).

    (-i*tau)^weight uses the principal branch.  tau is restricted to the
    standard position Re in (-1/2, 1/2], Im >= 0.8.  That keeps
    |q| < 0.0066 at tau, but bounds nothing at -1/tau: Im(-1/tau) =
    Im tau / |tau|^2, which is 0.20 at tau = 0.1 + 5i (|q| about 0.28) and
    tends to 0 as Im tau grows, so the tail estimate there can be large.
    Where |q| rounds to 1 at -1/tau, the refusal names -1/tau and tau.
    """
    if not (-0.5 < tau.re <= 0.5 and tau.im >= 0.8):
        raise ConstraintError(
            "S-check requires tau in the standard-position region "
            f"Re in (-1/2, 1/2], Im >= 0.8 (got {tau.re} + {tau.im}i)")
    z = tau.z
    w = -1.0 / z
    factor = complex(multiplier) * cmath.exp(float(weight) * cmath.log(-1j * z))
    image = TauPoint(w.real, w.imag)
    try:
        v1, t1 = eval_series(s, image)
    except ConstraintError:
        raise ConstraintError(
            f"|q| rounds to 1 at -1/tau = {image.re} + {image.im}i, for tau = {tau.re} + "
            f"{tau.im}i, where no truncated series can be evaluated") from None
    v0, t0 = eval_series(s, tau)
    residual = abs(v1 - factor * v0)
    return ModularResidual("S", Fraction(weight), residual, t1 + abs(factor) * t0)
