"""The queer superalgebra Q_n, endomorphism superalgebras, and their
trace functionals, all over exact rationals.

Q_n is realized as block matrices (X Y; Y X); its distinguished functional
is the odd trace (X, Y) -> tr Y, which is supersymmetric:
phi(ab) = (-1)^{p(a)p(b)} phi(ba) on homogeneous elements.  End(N) for a
superspace N of dimension d0|d1 carries the supertrace tr A - tr D, which
vanishes on every odd element.  Rational scalars suffice: the identities
are algebraic over any field of characteristic zero.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul
from typing import List, Sequence, Tuple

from .qseries import _clear_denominators

__all__ = [
    "QueerElement",
    "EndElement",
    "queer_mul",
    "odd_trace",
    "even_trace",
    "supertrace",
    "end_mul",
    "random_homogeneous_queer",
    "random_homogeneous_end",
    "q1_functional_solution_space",
]

F = Fraction
Matrix = Tuple[Tuple[Fraction, ...], ...]


def _mat(rows: Sequence[Sequence]) -> Matrix:
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def _zeros(n: int, m: int) -> Matrix:
    return tuple((F(0),) * m for _ in range(n))


def _eye(n: int) -> Matrix:
    return tuple(tuple(F(1) if i == j else F(0) for j in range(n)) for i in range(n))


IntMatrix = Tuple[int, Tuple[Tuple[int, ...], ...]]


def _numerators(m: Matrix) -> IntMatrix:
    """(L, L * m) with L the lcm of the entry denominators."""
    scale, nums = _clear_denominators([x for row in m for x in row])
    w = len(m[0]) if m else 0
    return scale, tuple(tuple(nums[i * w:(i + 1) * w]) for i in range(len(m)))


def _sum_of_products(rows: int, cols: int, *pairs: Tuple[Matrix, Matrix]) -> Matrix:
    """Sum of the rows x cols matrix products a b over the (a, b) pairs,
    such as Xa Xb + Ya Yb.

    Pairs with a zero factor are skipped before any scaling.  The others
    are scaled by `_numerators`, their integer products are accumulated
    over one common denominator, and each entry becomes a single Fraction
    at the end.
    """
    terms = []
    for a, b in pairs:
        if _is_zero(a) or _is_zero(b):
            continue
        (la, anums), (lb, bnums) = _numerators(a), _numerators(b)
        terms.append((la * lb, anums, tuple(zip(*bnums))))
    if not terms:
        return _zeros(rows, cols)
    den = lcm(*(s for s, _, _ in terms))
    acc = [[0] * cols for _ in range(rows)]
    for s, a, bcols in terms:
        f = den // s
        for row, out in zip(a, acc):
            for j, col in enumerate(bcols):
                out[j] += f * sum(map(mul, row, col))
    return tuple(tuple(Fraction(v, den) for v in row) for row in acc)


def _mat_trace(a: Matrix) -> Fraction:
    return sum((a[i][i] for i in range(len(a))), F(0))


def _is_zero(a: Matrix) -> bool:
    return not any(map(any, a))


@dataclass(frozen=True)
class QueerElement:
    """Element (X Y; Y X) of Q_n; X is the even block, Y the odd one."""

    n: int
    x: Matrix
    y: Matrix

    def __post_init__(self):
        for name, m in (("x", self.x), ("y", self.y)):
            if len(m) != self.n or any(len(row) != self.n for row in m):
                raise ValueError(f"{name} must be {self.n}x{self.n}")

    @staticmethod
    def from_lists(x, y) -> "QueerElement":
        x, y = _mat(x), _mat(y)
        return QueerElement(len(x), x, y)

    @staticmethod
    def identity(n: int) -> "QueerElement":
        return QueerElement(n, _eye(n), _zeros(n, n))

    @staticmethod
    def theta(n: int) -> "QueerElement":
        """The odd involution-like generator (X=0, Y=I); theta^2 = 1."""
        return QueerElement(n, _zeros(n, n), _eye(n))

    @property
    def is_even(self) -> bool:
        return _is_zero(self.y)

    @property
    def is_odd(self) -> bool:
        return _is_zero(self.x)

    @property
    def parity(self) -> int:
        if self.is_even:
            return 0
        if self.is_odd:
            return 1
        raise ValueError("element is not homogeneous")


def queer_mul(a: QueerElement, b: QueerElement) -> QueerElement:
    """Block product: (Xa Xb + Ya Yb, Xa Yb + Ya Xb)."""
    if a.n != b.n:
        raise ValueError(f"size mismatch: {a.n} vs {b.n}")
    n = a.n
    x = _sum_of_products(n, n, (a.x, b.x), (a.y, b.y))
    y = _sum_of_products(n, n, (a.x, b.y), (a.y, b.x))
    return QueerElement(n, x, y)


def odd_trace(a: QueerElement) -> Fraction:
    """tr Y, the unique-up-to-scalar supersymmetric functional on Q_n."""
    return _mat_trace(a.y)


def even_trace(a: QueerElement) -> Fraction:
    return _mat_trace(a.x)


@dataclass(frozen=True)
class EndElement:
    """Element of End(N), N of dimension d0|d1, as blocks (A B; C D)."""

    d0: int
    d1: int
    a: Matrix
    b: Matrix
    c: Matrix
    d: Matrix

    def __post_init__(self):
        shapes = {"a": (self.d0, self.d0), "b": (self.d0, self.d1),
                  "c": (self.d1, self.d0), "d": (self.d1, self.d1)}
        for name, (r, cdim) in shapes.items():
            m = getattr(self, name)
            if len(m) != r or any(len(row) != cdim for row in m):
                raise ValueError(f"block {name} must be {r}x{cdim}")

    @staticmethod
    def from_lists(d0, d1, a, b, c, d) -> "EndElement":
        return EndElement(d0, d1, _mat(a), _mat(b), _mat(c), _mat(d))

    @staticmethod
    def identity(d0: int, d1: int) -> "EndElement":
        return EndElement(d0, d1, _eye(d0), _zeros(d0, d1), _zeros(d1, d0), _eye(d1))

    @property
    def is_even(self) -> bool:
        return _is_zero(self.b) and _is_zero(self.c)

    @property
    def is_odd(self) -> bool:
        return _is_zero(self.a) and _is_zero(self.d)

    @property
    def parity(self) -> int:
        if self.is_even:
            return 0
        if self.is_odd:
            return 1
        raise ValueError("element is not homogeneous")


def end_mul(x: EndElement, y: EndElement) -> EndElement:
    if (x.d0, x.d1) != (y.d0, y.d1):
        raise ValueError("size mismatch")
    d0, d1 = x.d0, x.d1
    return EndElement(
        d0, d1,
        _sum_of_products(d0, d0, (x.a, y.a), (x.b, y.c)),
        _sum_of_products(d0, d1, (x.a, y.b), (x.b, y.d)),
        _sum_of_products(d1, d0, (x.c, y.a), (x.d, y.c)),
        _sum_of_products(d1, d1, (x.c, y.b), (x.d, y.d)),
    )


def supertrace(x: EndElement) -> Fraction:
    """tr A - tr D; identically zero on odd elements."""
    return _mat_trace(x.a) - _mat_trace(x.d)


# ---------------------------------------------------------------------------
# randomized sampling and the Q_1 uniqueness probe
# ---------------------------------------------------------------------------


def _random_matrix(n: int, m: int, rng: random.Random) -> Matrix:
    return tuple(tuple(F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(m))
                 for _ in range(n))


def random_homogeneous_queer(n: int, rng: random.Random) -> QueerElement:
    if rng.random() < 0.5:
        return QueerElement(n, _random_matrix(n, n, rng), _zeros(n, n))
    return QueerElement(n, _zeros(n, n), _random_matrix(n, n, rng))


def random_homogeneous_end(d0: int, d1: int, rng: random.Random) -> EndElement:
    if rng.random() < 0.5:
        return EndElement(d0, d1, _random_matrix(d0, d0, rng), _zeros(d0, d1),
                          _zeros(d1, d0), _random_matrix(d1, d1, rng))
    return EndElement(d0, d1, _zeros(d0, d0), _random_matrix(d0, d1, rng),
                      _random_matrix(d1, d0, rng), _zeros(d1, d1))


def q1_functional_solution_space(
        pairs: Sequence[Tuple[QueerElement, QueerElement]],
) -> List[Tuple[Fraction, Fraction]]:
    """Basis of the (alpha, beta) with alpha*tr X + beta*tr Y supersymmetric
    on all sampled homogeneous pairs.

    With enough generic samples the space is 1-dimensional, spanned by the
    odd trace (0, 1): that is the uniqueness statement for the supersymmetric
    functional on Q_1, probed as exact linear algebra over the rationals.
    """
    rows = []
    for a, b in pairs:
        sgn = (-1) ** (a.parity * b.parity)
        ab, ba = queer_mul(a, b), queer_mul(b, a)
        rows.append((even_trace(ab) - sgn * even_trace(ba),
                     odd_trace(ab) - sgn * odd_trace(ba)))
    # nullspace of an m x 2 system, exact
    pivot = next((r for r in rows if r != (0, 0)), None)
    if pivot is None:
        return [(F(1), F(0)), (F(0), F(1))]
    p, q = pivot
    for r in rows:
        if r[0] * q != r[1] * p:  # independent second constraint
            return []
    v = (-q, p)
    scale = next(x for x in v if x != 0)
    return [(v[0] / scale, v[1] / scale)]
