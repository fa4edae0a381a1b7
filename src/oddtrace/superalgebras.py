"""Structure constants of the neutral free fermion and Ramond superalgebras.

Two Lie superalgebras on integer mode grids:

* the free fermion span of psi_n (odd) and a unit 1 (even) with
  [psi_m, psi_n] = delta_{m,-n} 1;
* the Ramond superalgebra span of L_n (even), G_m (odd) and a central C with
      [L_m, L_n] = (m - n) L_{m+n} + (m^3 - m)/12 delta_{m,-n} C,
      [G_m, L_n] = (m - n/2) G_{m+n},
      [G_m, G_n] = 2 L_{m+n} + (1/3)(m^2 - 1/4) delta_{m,-n} C.

The bracket is the super-bracket (anticommutator on odd pairs).  Also here:
the N=1 minimal-model central charges c_{p,p'} and Ramond-sector conformal
weights h_{r,s}.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Dict, List, Optional, Tuple

from .errors import ConstraintError, _named_number

__all__ = [
    "Kind",
    "BasisElement",
    "SpectrumEntry",
    "L",
    "G",
    "psi",
    "C",
    "UNIT",
    "bracket",
    "minimal_model_spectrum",
    "g0_square_value",
]


class Kind(enum.Enum):
    L = "L"
    G = "G"
    PSI = "psi"
    CENTRAL = "C"
    UNIT = "1"


_RAMOND = {Kind.L, Kind.G, Kind.CENTRAL}
_ODD = {Kind.G, Kind.PSI}
_UNINDEXED = {Kind.CENTRAL, Kind.UNIT}


@dataclass(frozen=True)
class BasisElement:
    kind: Kind
    index: int = 0

    def __post_init__(self):
        if self.kind in _UNINDEXED and self.index != 0:
            raise ValueError(f"{self.kind.value} carries no mode index")

    @property
    def parity(self) -> int:
        """0 for even, 1 for odd."""
        return 1 if self.kind in _ODD else 0

    @property
    def algebra(self) -> str:
        return "ramond" if self.kind in _RAMOND else "fermion"

    def __repr__(self):
        if self.kind in _UNINDEXED:
            return self.kind.value
        return f"{self.kind.value}_{self.index}"


def L(n: int) -> BasisElement:
    return BasisElement(Kind.L, n)


def G(n: int) -> BasisElement:
    return BasisElement(Kind.G, n)


def psi(n: int) -> BasisElement:
    return BasisElement(Kind.PSI, n)


C = BasisElement(Kind.CENTRAL)
UNIT = BasisElement(Kind.UNIT)


def bracket(a: BasisElement, b: BasisElement,
            c_value: Optional[Fraction] = None) -> Dict[BasisElement, Fraction]:
    """Super-bracket [a, b], exact, as {basis element: coefficient} with the
    zero coefficients dropped.

    With `c_value` given, the central term is specialized: its coefficient is
    multiplied by c_value and reported on the UNIT element (the identity
    operator); withheld, the formal C element appears instead.
    """
    if a.algebra != b.algebra:
        raise ValueError(f"cannot bracket {a} with {b}: different algebras")
    ka, kb = a.kind, b.kind
    if ka in _UNINDEXED or kb in _UNINDEXED:
        return {}
    m, n = a.index, b.index
    delta = Fraction(1 if m == -n else 0)

    def central(coef: Fraction) -> Tuple[BasisElement, Fraction]:
        if c_value is None:
            return C, coef * delta
        return UNIT, coef * delta * Fraction(c_value)

    if ka == Kind.PSI:
        terms = [(UNIT, delta)]
    elif ka == Kind.L and kb == Kind.L:
        terms = [(L(m + n), Fraction(m - n)), central(Fraction(m ** 3 - m, 12))]
    elif ka == Kind.G and kb == Kind.L:
        terms = [(G(m + n), m - Fraction(n, 2))]
    elif ka == Kind.L and kb == Kind.G:
        # antisupersymmetry with the even L: [L_m, G_n] = -[G_n, L_m]
        terms = [(G(m + n), Fraction(m, 2) - n)]
    else:  # G, G
        terms = [(L(m + n), Fraction(2)), central(Fraction(m * m, 3) - Fraction(1, 12))]
    return {e: x for e, x in terms if x}


# ---------------------------------------------------------------------------
# N=1 minimal-model spectrum (Ramond sector)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpectrumEntry:
    p: int
    pp: int
    r: int
    s: int
    c: Fraction
    h: Fraction


def central_charge(p: int, pp: int) -> Fraction:
    """c = (3/2)(1 - 2(p'-p)^2/(pp')), as one Fraction of integers."""
    return Fraction(3 * (p * pp - 2 * (pp - p) ** 2), 2 * p * pp)


def conformal_weight(p: int, pp: int, r: int, s: int) -> Fraction:
    """h = ((rp' - sp)^2 - (p'-p)^2)/(8pp') + 1/16, as one Fraction of
    integers."""
    return Fraction(2 * ((r * pp - s * p) ** 2 - (pp - p) ** 2) + p * pp, 16 * p * pp)


def minimal_model_spectrum(p: int, pp: int) -> List[SpectrumEntry]:
    """All distinct (c, h_{r,s}) for the admissible pair (p, p').

    Entries with equal (c, h) (the (r, s) <-> (p-r, p'-s) reflection) are
    deduplicated; the first (r, s) in lexicographic order is kept and entries
    come back sorted by h descending.  c is fixed by the pair and h rises
    with the integer (rp' - sp)^2, so both the deduplication and the order
    are taken on that integer, and an entry is built only for each kept
    (r, s).
    """
    if p < 1 or pp < 1:
        raise ConstraintError("p and p' must be positive")
    if not p < pp:
        raise ConstraintError(f"admissibility requires p < p' "
                              f"(got p={_named_number(p)}, p'={_named_number(pp)})")
    if (pp - p) % 2 != 0:
        raise ConstraintError(f"admissibility requires p' - p even "
                              f"(got p' - p = {_named_number(pp - p)})")
    common = gcd((pp - p) // 2, p)
    if common != 1:
        raise ConstraintError(f"admissibility requires gcd((p'-p)/2, p) = 1 "
                              f"(got {_named_number(common)})")
    kept: Dict[int, Tuple[int, int]] = {}
    for r in range(1, p):
        for s in range(1 + r % 2, pp, 2):  # r - s odd
            kept.setdefault((r * pp - s * p) ** 2, (r, s))
    c = central_charge(p, pp)
    return [SpectrumEntry(p, pp, r, s, c, conformal_weight(p, pp, r, s))
            for _, (r, s) in sorted(kept.items(), reverse=True)]


def g0_square_value(c: Fraction, h: Fraction) -> Fraction:
    """Scalar value of G_0^2 on the top space of the weight-h module.

    G_0^2 = (1/2)[G_0, G_0] = L_0 - C/24, so the value is h - c/24; it
    vanishes exactly when h = c/24 (the 1-dimensional top space case).
    """
    return h - Fraction(c, 24)
