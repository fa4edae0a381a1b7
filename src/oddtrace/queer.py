"""The queer superalgebra Q_n and the endomorphism superalgebras End(d0|d1),
with their supersymmetric functionals, over exact rationals.

Every element is a (d0|d1) supermatrix, kept as the dict of its nonzero
entries {(i, j): value}, with int or Fraction values.  There is one parity
rule: an entry is odd when exactly one of i, j is >= d0, and an element is
homogeneous when its entries share one parity.  `queer_mul`,
`supercommutator` and `supersymmetry_check` share one product kernel,
`_products`, over the row index `_index` of the right factors; it keys
entry (i, j) as i * d + j, and `_matrix` turns the keys back into (i, j).

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
supersymmetric functional, up to a scalar.  It indexes the entries of the
whole basis once and forms ab only for the pairs with a nonzero product.
A pair with ab = ba = 0 counts into the zero bracket unformed; every other
unordered pair forms [a, b] once, and [b, a] is [a, b] when both are odd
and -[a, b] otherwise.  The brackets are tallied by their entries: phi
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


def _index(matrices: Sequence[Supermatrix]) -> Dict[int, list]:
    """The entries of the matrices by row, {k: [(index in matrices, j, value)]}."""
    by_row: Dict[int, list] = {}
    for index, b in enumerate(matrices):
        for (k, j), v in b.entries.items():
            by_row.setdefault(k, []).append((index, j, v))
    return by_row


def _products(a: Supermatrix, by_row: Dict[int, list], d: int) -> Dict[int, dict]:
    """{index: ab} for the b of the index `_index` with a row that meets an
    entry of a; entry (i, j) of ab is keyed i * d + j, which sorts as
    (i, j), and some may be zero."""
    by_b: Dict[int, dict] = {}
    for (i, k), u in a.entries.items():
        row = i * d
        for index, j, v in by_row.get(k, ()):
            out = by_b.setdefault(index, {})
            out[row + j] = out.get(row + j, 0) + u * v
    return by_b


def _matrix(d0: int, d1: int, entries) -> Supermatrix:
    """The supermatrix with the nonzero of these (i * d + j, value) entries."""
    d = d0 + d1
    return Supermatrix(d0, d1, {divmod(k, d): v for k, v in entries if v})


def queer_mul(a: Supermatrix, b: Supermatrix) -> Supermatrix:
    """The matrix product ab, in Q_n or in any End(d0|d1)."""
    _same_size(a, b)
    ab = _products(a, _index([b]), a.d0 + a.d1).get(0, {})
    return _matrix(a.d0, a.d1, ab.items())


def _bracket(ab: dict, ba: dict, sign: int) -> dict:
    """The nonzero entries of ab - sign ba."""
    out = dict(ab)
    for key, v in ba.items():
        out[key] = out.get(key, 0) - sign * v
    return {key: x for key, x in out.items() if x}


def supercommutator(a: Supermatrix, b: Supermatrix) -> Supermatrix:
    """[a, b] = ab - (-1)^{p(a)p(b)} ba, for homogeneous a and b."""
    sign = -1 if a.parity & b.parity else 1
    _same_size(a, b)
    d = a.d0 + a.d1
    ab = _products(a, _index([b]), d).get(0, {})
    ba = _products(b, _index([a]), d).get(0, {})
    return _matrix(a.d0, a.d1, _bracket(ab, ba, sign).items())


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

    The basis entries are indexed by their rows once, and each a is walked
    against that index, so ab is formed for exactly the b with a nonzero
    product.  A pair with ab = ba = 0 counts into the zero bracket with no
    bracket formed.  Every other unordered pair forms [a, b] once, and
    [b, a] = -(-1)^{p(a)p(b)} [a, b] is tallied from it.  The brackets are
    tallied by their entries, so phi is evaluated and a row eliminated once
    per distinct bracket; equal rows cannot change the rank."""
    if not basis:
        return 0, 0, 0
    parities = [a.parity for a in basis]
    d0, d1 = basis[0].d0, basis[0].d1
    for b in basis:
        _same_size(basis[0], b)
    d = d0 + d1
    by_row = _index(basis)
    products = [_products(a, by_row, d) for a in basis]  # products[a][b] = ab
    # A pair is met from each side with a nonzero product and bracketed at
    # the first; a pair never met brackets to zero.
    tally: Dict[frozenset, int] = {}
    zero_pairs = len(basis) ** 2
    for i, by_b in enumerate(products):
        for j, ab in by_b.items():
            if j < i and i in products[j]:
                continue
            sign = -1 if parities[i] & parities[j] else 1
            c = _bracket(ab, products[j].get(i, {}), sign)
            key = frozenset(c.items())
            tally[key] = tally.get(key, 0) + 1
            zero_pairs -= 1
            if i != j:  # [b, a] = -(-1)^{p(a)p(b)} [a, b]
                key = frozenset((k, -sign * v) for k, v in c.items())
                tally[key] = tally.get(key, 0) + 1
                zero_pairs -= 1
    if zero_pairs:
        tally[frozenset()] = tally.get(frozenset(), 0) + zero_pairs
    brackets = {key: _matrix(d0, d1, key) for key in tally}
    violations = sum(count for key, count in tally.items() if phi(brackets[key]))
    rank = len(_echelon(c.entries for c in brackets.values()))
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
