"""The queer superalgebra Q_n and the endomorphism superalgebras End(d0|d1),
with their supersymmetric functionals, over exact rationals.

Every element is a (d0|d1) supermatrix, kept as the dict of its nonzero
entries {(i, j): value}, with int or Fraction values.  There is one parity
rule: an entry is odd when exactly one of i, j is >= d0, and an element is
homogeneous when its entries share one parity.  There is one product, the
sparse matrix product queer_mul.

Q_n is the subalgebra of End(n|n) of the matrices (X Y; Y X).  Its odd trace
tr Y, the trace of the top-right block, is supersymmetric,
phi(ab) = (-1)^{p(a)p(b)} phi(ba) on homogeneous elements; so is the
supertrace tr A - tr D of (A B; C D) in End(d0|d1).  Equivalently phi
vanishes on every supercommutator [a, b] = ab - (-1)^{p(a)p(b)} ba.

That condition is bilinear, so checking it on every ordered pair of a
homogeneous basis proves it for all elements: `supersymmetry_check` does so
on the basis of matrix units, and returns the dimension of the functionals
that vanish on all those supercommutators, from one integer elimination
with the content divided out.  Dimension 1 means phi is the only
supersymmetric functional, up to a scalar.  It indexes each basis element
by its rows once, forms ab and ba once for each unordered pair, builds both
[a, b] and [b, a] from them, and tallies the brackets by their entries: phi
runs, and a row is eliminated, once per distinct bracket, and a violation
counts once per ordered pair.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Sequence, Tuple, Union

__all__ = [
    "Supermatrix",
    "queer_mul",
    "supercommutator",
    "odd_trace",
    "even_trace",
    "supertrace",
    "queer_basis",
    "end_basis",
    "supersymmetry_check",
    "q1_functional_solution_space",
    "random_homogeneous_queer",
]

F = Fraction
Entries = Dict[Tuple[int, int], Union[int, Fraction]]


@dataclass(frozen=True)
class Supermatrix:
    """A square matrix over the superspace of dimension d0|d1: indices below
    d0 are even, the d1 others odd.  `entries` holds the nonzero entries."""

    d0: int
    d1: int
    entries: Entries

    @staticmethod
    def from_blocks(d0: int, d1: int, a, b, c, d) -> "Supermatrix":
        """(A B; C D), with A of size d0 x d0 and D of size d1 x d1."""
        entries = {}
        for name, m, top, left, rows, cols in (
                ("a", a, 0, 0, d0, d0), ("b", b, 0, d0, d0, d1),
                ("c", c, d0, 0, d1, d0), ("d", d, d0, d0, d1, d1)):
            if list(map(len, m)) != [cols] * rows:
                raise ValueError(f"block {name} must be {rows}x{cols}")
            for i, row in enumerate(m):
                for j, x in enumerate(row):
                    if x:
                        entries[top + i, left + j] = F(x)
        return Supermatrix(d0, d1, entries)

    @staticmethod
    def queer(x, y) -> "Supermatrix":
        """(X Y; Y X) in Q_n, with X and Y of size n x n."""
        return Supermatrix.from_blocks(len(x), len(x), x, y, y, x)

    @staticmethod
    def identity(d0: int, d1: int) -> "Supermatrix":
        return Supermatrix(d0, d1, {(i, i): F(1) for i in range(d0 + d1)})

    @staticmethod
    def theta(n: int) -> "Supermatrix":
        """(0 I; I 0) in Q_n: odd, with theta^2 = 1."""
        return Supermatrix.queer([[0] * n for _ in range(n)],
                                 [[int(i == j) for j in range(n)] for i in range(n)])

    @property
    def parity(self) -> int:
        """0 or 1 when every entry has that parity (the zero element is even);
        ValueError otherwise."""
        d0 = self.d0
        parities = {(i >= d0) != (j >= d0) for i, j in self.entries}
        if len(parities) > 1:
            raise ValueError("element is not homogeneous")
        return int(True in parities)


def _same_size(a: Supermatrix, b: Supermatrix) -> None:
    if (a.d0, a.d1) != (b.d0, b.d1):
        raise ValueError(f"size mismatch: ({a.d0}|{a.d1}) vs ({b.d0}|{b.d1})")


def _rows(b: Supermatrix) -> Dict[int, list]:
    """The nonzero entries of b by row, {i: [(j, value)]}."""
    rows: Dict[int, list] = {}
    for (k, j), v in b.entries.items():
        rows.setdefault(k, []).append((j, v))
    return rows


def _product(a: Supermatrix, b_rows: Dict[int, list]) -> Entries:
    """The entries of ab, with b given by its rows `_rows(b)`, summed over
    the nonzero entries of a and b; some may be zero."""
    out: Entries = {}
    for (i, k), u in a.entries.items():
        for j, v in b_rows.get(k, ()):
            out[i, j] = out.get((i, j), 0) + u * v
    return out


def _nonzero(entries: Entries) -> Entries:
    return {key: x for key, x in entries.items() if x}


def queer_mul(a: Supermatrix, b: Supermatrix) -> Supermatrix:
    """The matrix product ab, in Q_n or in any End(d0|d1)."""
    _same_size(a, b)
    return Supermatrix(a.d0, a.d1, _nonzero(_product(a, _rows(b))))


def _bracket(ab: Entries, ba: Entries, sign: int) -> Entries:
    """The nonzero entries of ab - sign ba."""
    out = dict(ab)
    for key, v in ba.items():
        out[key] = out.get(key, 0) - sign * v
    return _nonzero(out)


def supercommutator(a: Supermatrix, b: Supermatrix) -> Supermatrix:
    """[a, b] = ab - (-1)^{p(a)p(b)} ba, for homogeneous a and b."""
    sign = -1 if a.parity & b.parity else 1
    _same_size(a, b)
    return Supermatrix(a.d0, a.d1, _bracket(_product(a, _rows(b)), _product(b, _rows(a)), sign))


def odd_trace(a: Supermatrix) -> Fraction:
    """tr Y, the trace of the top-right block: on Q_n the supersymmetric
    functional, unique up to a scalar."""
    return sum((v for (i, j), v in a.entries.items() if i < a.d0 and j == i + a.d0), F(0))


def even_trace(a: Supermatrix) -> Fraction:
    """tr X, the trace of the top-left block."""
    return sum((v for (i, j), v in a.entries.items() if i == j < a.d0), F(0))


def supertrace(a: Supermatrix) -> Fraction:
    """tr A - tr D; zero on odd elements."""
    return sum((v if i < a.d0 else -v for (i, j), v in a.entries.items() if i == j), F(0))


def queer_basis(n: int) -> List[Supermatrix]:
    """The homogeneous basis of Q_n: (e 0; 0 e), even, and (0 e; e 0), odd,
    for each n x n matrix unit e."""
    units = [(i, j) for i in range(n) for j in range(n)]
    return ([Supermatrix(n, n, {(i, j): 1, (n + i, n + j): 1}) for i, j in units]
            + [Supermatrix(n, n, {(i, n + j): 1, (n + i, j): 1}) for i, j in units])


def end_basis(d0: int, d1: int) -> List[Supermatrix]:
    """The matrix units of End(d0|d1), each homogeneous."""
    d = d0 + d1
    return [Supermatrix(d0, d1, {(i, j): 1}) for i in range(d) for j in range(d)]


def supersymmetry_check(basis: Sequence[Supermatrix],
                        phi: Callable[[Supermatrix], Fraction]) -> Tuple[int, int, int]:
    """(pairs, violations, dimension) on the algebra with this homogeneous
    basis: the number of ordered basis pairs, the number of them with
    phi([a, b]) != 0, and the dimension of the linear functionals that
    vanish on every [a, b].

    Each element is indexed by its rows once.  For each unordered pair the
    products ab and ba are formed once and give both [a, b] and [b, a].
    The brackets are tallied by their entries, so phi is evaluated and a row
    eliminated once per distinct bracket; equal rows cannot change the
    rank."""
    parities = [a.parity for a in basis]
    for b in basis:
        _same_size(basis[0], b)
    rows = [_rows(a) for a in basis]
    tally: Dict[frozenset, int] = {}
    for i, a in enumerate(basis):
        for j in range(i, len(basis)):
            sign = -1 if parities[i] & parities[j] else 1
            ab, ba = _product(a, rows[j]), _product(basis[j], rows[i])
            for x, y in [(ab, ba)] if i == j else [(ab, ba), (ba, ab)]:
                key = frozenset(_bracket(x, y, sign).items())
                tally[key] = tally.get(key, 0) + 1
    violations = sum(count for key, count in tally.items()
                     if phi(Supermatrix(basis[0].d0, basis[0].d1, dict(key))))
    rank = len(_echelon(dict(key) for key in tally))
    return sum(tally.values()), violations, len(basis) - rank


def _echelon(rows) -> dict:
    """A row echelon form of the sparse rows {key: value}, int or Fraction, as
    {leading key: row} with int entries of gcd 1; its size is the rank.  The
    elimination runs on integers and divides out each row's content."""
    pivots: dict = {}
    for row in rows:
        if type(sum(row.values())) is not int:  # some value is a Fraction
            scale = math.lcm(*(x.denominator for x in row.values()))
            row = {k: x.numerator * (scale // x.denominator) for k, x in row.items()}
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                g = math.gcd(*row.values())
                pivots[lead] = {k: x // g for k, x in row.items()}
                break
            g = math.gcd(pivot[lead], row[lead])
            a, b = pivot[lead] // g, row[lead] // g
            row = {k: x for k in row.keys() | pivot.keys()
                   if (x := a * row.get(k, 0) - b * pivot.get(k, 0))}
    return pivots


def q1_functional_solution_space(
        pairs: Sequence[Tuple[Supermatrix, Supermatrix]],
) -> List[Tuple[Fraction, Fraction]]:
    """A basis of the (alpha, beta) for which alpha tr X + beta tr Y vanishes
    on the supercommutator of each homogeneous pair, all in one Q_n; each
    basis vector is divided by its first nonzero entry.

    On enough generic pairs in Q_1 the space is the line of the odd trace
    (0, 1): the uniqueness of the supersymmetric functional.
    """
    # Row i: functional i's values on the brackets, keyed (0, j), and 1 at the
    # tracking key (1, -i), which sorts after them and before earlier rows' keys.
    # A row that loses every value is a pivot led by (1, -i): a relation.
    rows = [{(1, -i): 1} for i in range(2)]
    for j, (a, b) in enumerate(pairs):
        c = supercommutator(a, b)
        for row, value in zip(rows, (even_trace(c), odd_trace(c))):
            if value:
                row[0, j] = value
    relations = [[row.get((1, -i), 0) for i in range(2)]
                 for lead, row in _echelon(rows).items() if lead[0] == 1]
    return [tuple(F(x, next(filter(None, r))) for x in r) for r in relations]


def _random_block(rows: int, cols: int, rng: random.Random) -> List[List[Fraction]]:
    return [[F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(cols)]
            for _ in range(rows)]


def random_homogeneous_queer(n: int, rng: random.Random) -> Supermatrix:
    """Even (X, 0) or odd (0, Y) in Q_n with probability 1/2 each, on one
    rng.random() draw; the nonzero block's entries are
    randint(-9, 9)/randint(1, 9), row by row."""
    zero = [[0] * n for _ in range(n)]
    if rng.random() < 0.5:
        return Supermatrix.queer(_random_block(n, n, rng), zero)
    return Supermatrix.queer(zero, _random_block(n, n, rng))
