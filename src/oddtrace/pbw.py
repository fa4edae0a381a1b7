"""PBW monomial bases of Fock/Verma modules and their graded traces.

A level-N basis vector is L_{-m_1}...L_{-m_s} G_{-n_1}...G_{-n_t} w (Ramond
Verma modules, m_1 <= ... <= m_s, n_1 < ... < n_t, all >= 1) or
psi_{-n_1}...psi_{-n_t} w (fermion Fock module), applied to a top-space
vector w.  Traces of the twisted operators are computed level by level from
the explicit action on monomials, summed on integer exponents and shifted
by the q^{h - c/24} prefactor, as `qseries` builds `eta` and `jacobi_rhs`.

The sign (-1)^t of a monomial depends on its fermionic part alone.  So the
signed counts and the fermion trace build no monomials: one depth-first
walk over the sets of distinct parts up to the top level tallies each
distinct partition once, into the signed sum of its level (a set that
cannot be extended is tallied in place, never pushed), and the Verma
counts convolve those sums with the partition counts of the bosonic parts,
which the part-by-part recurrence counts in integers without listing them.
So no command lists a partition: the monomial listings (`enumerate_*`, over
one depth-first partition generator) exist only as reference enumerations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Iterator, List, Tuple

from .qseries import FracPowerSeries
from .superalgebras import UNIT, bracket, psi

__all__ = [
    "PBWMonomial",
    "GradedTraceReport",
    "enumerate_fermion_monomials",
    "enumerate_ns_monomials",
    "signed_monomial_count",
    "signed_monomial_counts",
    "fermion_odd_trace",
    "FERMION_PREFACTOR_EXPONENT",
]

F = Fraction

# Fermion Fock module constants: c = 1/2 and L_0 = 1/16 on the top space,
# so the character prefactor is q^{1/16 - 1/48} = q^{1/24}.
FERMION_CENTRAL_CHARGE = F(1, 2)
FERMION_TOP_WEIGHT = F(1, 16)
FERMION_PREFACTOR_EXPONENT = FERMION_TOP_WEIGHT - FERMION_CENTRAL_CHARGE / 24


@dataclass(frozen=True)
class PBWMonomial:
    """bosonic: weakly increasing L-mode magnitudes; fermionic: strictly
    increasing odd-mode magnitudes; top: index into the top-space basis."""

    bosonic: Tuple[int, ...]
    fermionic: Tuple[int, ...]
    top: int

    def __post_init__(self):
        if any(m < 1 for m in self.bosonic) or list(self.bosonic) != sorted(self.bosonic):
            raise ValueError("bosonic part must be a weakly increasing tuple of positive integers")
        if any(n < 1 for n in self.fermionic) or \
                any(a >= b for a, b in zip(self.fermionic, self.fermionic[1:])):
            raise ValueError("fermionic part must be strictly increasing positive integers")
        if self.top < 0:
            raise ValueError("top index must be nonnegative")

    @property
    def level(self) -> int:
        return sum(self.bosonic) + sum(self.fermionic)

    @property
    def fermionic_length(self) -> int:
        return len(self.fermionic)


def _partitions(n: int, distinct: bool = False) -> Iterator[Tuple[int, ...]]:
    """Partitions of n, into distinct parts if `distinct`, as weakly
    increasing tuples, largest part first in reverse-lexicographic order.

    Depth-first over a stack of (parts, rest, top): the parts chosen so
    far, the weight still to place and the bound on the next part, pushed
    smallest first.  A next part equal to rest is yielded in place, never
    pushed; a distinct next part `largest` can be completed only if
    1 + ... + largest >= rest, so smaller ones are never pushed.
    """
    if n == 0:
        yield ()
        return
    stack = [((), n, n)]
    while stack:
        parts, rest, top = stack.pop()
        if rest <= top:
            yield (rest,) + parts
            top = rest - 1
        low = 1
        if distinct:
            low = (isqrt(8 * rest + 1) - 1) // 2
            if low * (low + 1) < 2 * rest:
                low += 1
        for largest in range(low, top + 1):
            stack.append(((largest,) + parts, rest - largest, largest - distinct))


def enumerate_fermion_monomials(level: int) -> List[PBWMonomial]:
    """All Fock-module monomials of the given level (2 top vectors v, vbar)."""
    if level < 0:
        raise ValueError("level must be nonnegative")
    return [PBWMonomial((), ferm, top)
            for ferm in _partitions(level, distinct=True)
            for top in (0, 1)]


def _partition_pairs(level: int) -> Iterator[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
    """(bosonic, fermionic) parts of the Verma-module monomials of a level,
    by bosonic weight j; the distinct partitions of level - j are listed
    once per j."""
    for j in range(level + 1):
        fermionic = list(_partitions(level - j, distinct=True))
        for bos in _partitions(j):
            for ferm in fermionic:
                yield bos, ferm


def enumerate_ns_monomials(level: int, top_dim: int) -> List[PBWMonomial]:
    """All Verma-module monomials of the given level over a top space of
    dimension 1 (w = v) or 2 (w in {v, G_0 v})."""
    if level < 0:
        raise ValueError("level must be nonnegative")
    if top_dim not in (1, 2):
        raise ValueError("top_dim must be 1 or 2")
    return [PBWMonomial(bos, ferm, top)
            for bos, ferm in _partition_pairs(level)
            for top in range(top_dim)]


def _signed_distinct_counts(max_level: int) -> List[int]:
    """Sum of (-1)^t over the distinct partitions of m, t the number of
    parts, for m = 0..max_level.

    One depth-first walk over every set of distinct parts of weight at most
    max_level, on a stack of (weight, sign, least next part): each node is
    one partition, tallied once into the count of its weight, and its
    children add one part larger than all of its own.  With room =
    max_level - weight, a child of part p has children of its own only when
    2p + 1 <= room; only those are pushed, and every other child is a leaf,
    tallied in place."""
    counts = [0] * (max_level + 1)
    stack = [(0, 1, 1)]
    while stack:
        weight, sign, low = stack.pop()
        counts[weight] += sign
        room = max_level - weight
        inner = max(low, (room + 1) // 2)  # the least part of a leaf child
        for part in range(low, inner):
            stack.append((weight + part, -sign, part + 1))
        for part in range(inner, room + 1):
            counts[weight + part] -= sign
    return counts


def _partition_counts(max_level: int) -> List[int]:
    """P(j), the number of partitions of j, for j = 0..max_level.

    The standard recurrence (Andrews, The Theory of Partitions, ch. 1):
    admitting parts of size m one size at a time, P[j] += P[j - m] counts
    the partitions of j whose parts are at most m, in about max_level^2/2
    integer additions."""
    counts = [1] + [0] * max_level
    for m in range(1, max_level + 1):
        for j in range(m, max_level + 1):
            counts[j] += counts[j - m]
    return counts


def signed_monomial_counts(max_level: int) -> List[int]:
    """Sum of (-1)^t over the monomials of each level 0..max_level (single
    top vector), t the number of odd generators.  Equals 1 at level 0 and
    vanishes at every positive level: odd and even fermionic lengths pair
    off exactly.

    The sign depends on the fermionic part alone, so level n counts
    sum_j P(j) S(n - j), with P(j) the number of partitions of j (the
    bosonic parts) and S the signed distinct-part sums.  P is counted by
    the recurrence of `_partition_counts`, no partition listed; S comes from
    one walk that visits each distinct partition once for all levels.  No
    monomial or pair is built."""
    if max_level < 0:
        raise ValueError("max_level must be nonnegative")
    bosonic = _partition_counts(max_level)
    signed = _signed_distinct_counts(max_level)
    return [sum(bosonic[j] * signed[n - j] for j in range(n + 1))
            for n in range(max_level + 1)]


def signed_monomial_count(level: int) -> int:
    """The signed count of one level: the last entry of
    signed_monomial_counts(level)."""
    return signed_monomial_counts(level)[-1]


# ---------------------------------------------------------------------------
# fermion odd trace
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GradedTraceReport:
    """Per-level traces and their assembly sum_N trace(N) q^(prefactor + N)."""

    prefactor_exponent: Fraction
    levels: Tuple[Tuple[int, Fraction], ...]
    series: FracPowerSeries


def fermion_odd_trace(max_level: int) -> GradedTraceReport:
    """Graded trace of psi_0 Theta q^{L_0 - c/24} over the Fock module.

    Theta sends m w to m (psi_0 w); the outer psi_0 then anticommutes past
    the t odd generators of m (all brackets [psi_0, psi_{-n}] vanish for
    n >= 1), picking up (-1)^t, and acts on the top space again.  So psi_0
    Theta acts on m w as (-1)^t m psi_0^2 w, and each level-N trace is the
    signed distinct-part partition count, tallied in integers, times the
    trace of psi_0^2 on the top space: psi_0^2 = [psi_0, psi_0]/2, read off
    the bracket, is a scalar on each of v and vbar.  The levels on grid 1,
    shifted by q^{1/24}, match the eta expansion q^{1/24} prod (1 - q^n).
    """
    if max_level < 0:
        raise ValueError("max_level must be nonnegative")
    psi0_square = bracket(psi(0), psi(0))[UNIT] / 2
    top_trace = 2 * psi0_square  # v and vbar
    levels = [(n, top_trace * count)
              for n, count in enumerate(_signed_distinct_counts(max_level))]
    series = FracPowerSeries(1, max_level + 1, dict(levels)).shift(FERMION_PREFACTOR_EXPONENT)
    return GradedTraceReport(FERMION_PREFACTOR_EXPONENT, tuple(levels), series)
