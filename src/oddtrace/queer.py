"""The queer superalgebra Q_n, endomorphism superalgebras, and their
trace functionals, all over exact rationals.

Q_n is realized as block matrices (X Y; Y X); its distinguished functional
is the odd trace (X, Y) -> tr Y, which is supersymmetric:
phi(ab) = (-1)^{p(a)p(b)} phi(ba) on homogeneous elements.  End(N) for a
superspace N of dimension d0|d1 carries the supertrace tr A - tr D, which
vanishes on every odd element.  Rational scalars suffice: the identities
are algebraic over any field of characteristic zero.

Each element builds the integer form of its blocks (the lcm L of the entry
denominators, and the rows and columns of L times the block) once, on its
first product or product trace, and keeps it for later ones.  One kernel
multiplies those forms for both Q_n and End(N) and builds one Fraction per
entry.  A trace of a product needs only its diagonal, so a second kernel
takes tr(a b) = sum_i row_i(a) . column_i(b) from the same forms: O(n^2)
integer work and one Fraction, where the product costs n^3 and 2n^2
Fractions.  product_traces and product_supertrace are built on it, and the
supersymmetry checks of queer-check use them.  Random samples follow the
rng.randint(-9, 9), rng.randint(1, 9) stream: each entry draws the pair
with rng.getrandbits as CPython's randrange does, and looks it up in a
fixed table of the 171 values it names.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import lcm
from operator import mul
from typing import List, Optional, Sequence, Tuple

from .qseries import _clear_denominators

__all__ = [
    "QueerElement",
    "EndElement",
    "queer_mul",
    "odd_trace",
    "even_trace",
    "product_traces",
    "supertrace",
    "end_mul",
    "product_supertrace",
    "random_homogeneous_queer",
    "random_homogeneous_end",
    "q1_functional_solution_space",
]

F = Fraction
Matrix = Tuple[Tuple[Fraction, ...], ...]


def _mat(rows: Sequence[Sequence]) -> Matrix:
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


_ZERO = F(0)


def _zeros(n: int, m: int) -> Matrix:
    return ((_ZERO,) * m,) * n


def _eye(n: int) -> Matrix:
    return tuple(tuple(F(1) if i == j else _ZERO for j in range(n)) for i in range(n))


IntRows = Tuple[Tuple[int, ...], ...]
IntForm = Optional[Tuple[int, IntRows, IntRows]]


def _int_form(m: Matrix) -> IntForm:
    """None for a zero block, else (L, rows of L * m, columns of L * m) with
    L the lcm of the entry denominators."""
    if _is_zero(m):
        return None
    scale, nums = _clear_denominators([x for row in m for x in row])
    w = len(m[0])
    rows = tuple(tuple(nums[i:i + w]) for i in range(0, len(nums), w))
    return scale, rows, tuple(zip(*rows))


def _sum_of_products(rows: int, cols: int, *pairs: Tuple[IntForm, IntForm]) -> Matrix:
    """Sum of the rows x cols matrix products a b over the (a, b) pairs of
    integer forms, such as Xa Xb + Ya Yb.

    Pairs with a zero factor are skipped.  A single remaining pair gives
    each entry as Fraction(row . column, La Lb); several are accumulated
    over the lcm of their scales.  Either way each entry becomes a single
    Fraction.
    """
    terms = [(a[0] * b[0], a[1], b[2]) for a, b in pairs
             if a is not None and b is not None]
    if not terms:
        return _zeros(rows, cols)
    if len(terms) == 1:
        den, arows, bcols = terms[0]
        return tuple([tuple([Fraction(sum(map(mul, row, col)), den) for col in bcols])
                      for row in arows])
    den = lcm(*(s for s, _, _ in terms))
    acc = [[0] * cols for _ in range(rows)]
    for s, arows, bcols in terms:
        f = den // s
        for row, out in zip(arows, acc):
            for j, col in enumerate(bcols):
                out[j] += f * sum(map(mul, row, col))
    return tuple(tuple(Fraction(v, den) for v in row) for row in acc)


def _trace_of_products(*pairs: Tuple[IntForm, IntForm]) -> Fraction:
    """tr of the sum of the products a b over the (a, b) pairs of integer
    forms, without forming the products.

    tr(a b) = sum_i row_i(a) . column_i(b): the rows of a and the columns of
    b, flattened in order, give one dot product over La Lb.  Pairs with a
    zero factor are skipped; the rest are accumulated over the lcm of their
    scales into a single Fraction.
    """
    terms = [(a[0] * b[0], sum(map(mul, chain.from_iterable(a[1]), chain.from_iterable(b[2]))))
             for a, b in pairs if a is not None and b is not None]
    if not terms:
        return _ZERO
    den = lcm(*(s for s, _ in terms))
    return Fraction(sum(den // s * t for s, t in terms), den)


def _mat_trace(a: Matrix) -> Fraction:
    return sum((a[i][i] for i in range(len(a))), _ZERO)


def _is_zero(a: Matrix) -> bool:
    # Entries of the shared zero compare by identity, with no Fraction call.
    return not a or a == _zeros(len(a), len(a[0]))


@dataclass(frozen=True)
class QueerElement:
    """Element (X Y; Y X) of Q_n; X is the even block, Y the odd one."""

    n: int
    x: Matrix
    y: Matrix

    def __post_init__(self):
        for name, m in (("x", self.x), ("y", self.y)):
            if list(map(len, m)) != [self.n] * self.n:
                raise ValueError(f"{name} must be {self.n}x{self.n}")

    @cached_property
    def _forms(self) -> Tuple[IntForm, IntForm]:
        return _int_form(self.x), _int_form(self.y)

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
    (ax, ay), (bx, by) = a._forms, b._forms
    x = _sum_of_products(n, n, (ax, bx), (ay, by))
    y = _sum_of_products(n, n, (ax, by), (ay, bx))
    return QueerElement(n, x, y)


def odd_trace(a: QueerElement) -> Fraction:
    """tr Y, the unique-up-to-scalar supersymmetric functional on Q_n."""
    return _mat_trace(a.y)


def even_trace(a: QueerElement) -> Fraction:
    return _mat_trace(a.x)


def product_traces(a: QueerElement, b: QueerElement) -> Tuple[Fraction, Fraction]:
    """(even_trace(ab), odd_trace(ab)) without forming ab:
    (tr(Xa Xb + Ya Yb), tr(Xa Yb + Ya Xb))."""
    if a.n != b.n:
        raise ValueError(f"size mismatch: {a.n} vs {b.n}")
    (ax, ay), (bx, by) = a._forms, b._forms
    return _trace_of_products((ax, bx), (ay, by)), _trace_of_products((ax, by), (ay, bx))


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
            if list(map(len, m)) != [cdim] * r:
                raise ValueError(f"block {name} must be {r}x{cdim}")

    @cached_property
    def _forms(self) -> Tuple[IntForm, IntForm, IntForm, IntForm]:
        return _int_form(self.a), _int_form(self.b), _int_form(self.c), _int_form(self.d)

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
    (xa, xb, xc, xd), (ya, yb, yc, yd) = x._forms, y._forms
    return EndElement(
        d0, d1,
        _sum_of_products(d0, d0, (xa, ya), (xb, yc)),
        _sum_of_products(d0, d1, (xa, yb), (xb, yd)),
        _sum_of_products(d1, d0, (xc, ya), (xd, yc)),
        _sum_of_products(d1, d1, (xc, yb), (xd, yd)),
    )


def supertrace(x: EndElement) -> Fraction:
    """tr A - tr D; identically zero on odd elements."""
    return _mat_trace(x.a) - _mat_trace(x.d)


def product_supertrace(x: EndElement, y: EndElement) -> Fraction:
    """supertrace(end_mul(x, y)) without forming the product:
    tr(Ax Ay + Bx Cy) - tr(Cx By + Dx Dy)."""
    if (x.d0, x.d1) != (y.d0, y.d1):
        raise ValueError("size mismatch")
    (xa, xb, xc, xd), (ya, yb, yc, yd) = x._forms, y._forms
    return _trace_of_products((xa, ya), (xb, yc)) - _trace_of_products((xc, yb), (xd, yd))


# ---------------------------------------------------------------------------
# randomized sampling and the Q_1 uniqueness probe
# ---------------------------------------------------------------------------


# Every value F(p, q) a sample can take, keyed by its draw (p, q).
_SAMPLES = {(p, q): F(p, q) for p in range(-9, 10) for q in range(1, 10)}


def _random_matrix(n: int, m: int, rng: random.Random) -> Matrix:
    """Entries _SAMPLES[randint(-9, 9), randint(1, 9)], row by row.

    Each randint draws as CPython's randrange does (3.10 to 3.13): a draw
    of as many bits as the width has, 5 for the 19 numerators and 4 for
    the 9 denominators, repeated while it is out of range."""
    bits = rng.getrandbits
    rows = []
    for _ in range(n):
        row = []
        for _ in range(m):
            p = bits(5)
            while p >= 19:
                p = bits(5)
            q = bits(4)
            while q >= 9:
                q = bits(4)
            row.append(_SAMPLES[p - 9, q + 1])
        rows.append(tuple(row))
    return tuple(rows)


def random_homogeneous_queer(n: int, rng: random.Random) -> QueerElement:
    """Even or odd with probability 1/2 each (one rng.random() draw), its
    nonzero block with entries p/q from randint(-9, 9), randint(1, 9).

    The draws reproduce the randint stream of a random.Random, or of a
    subclass that keeps its getrandbits; a subclass that overrides only
    random() draws its randints from random() instead, and gets a
    different stream here."""
    if rng.random() < 0.5:
        return QueerElement(n, _random_matrix(n, n, rng), _zeros(n, n))
    return QueerElement(n, _zeros(n, n), _random_matrix(n, n, rng))


def random_homogeneous_end(d0: int, d1: int, rng: random.Random) -> EndElement:
    """Even (A, D) or odd (B, C) with probability 1/2 each, with the
    entries of random_homogeneous_queer, drawn block by block.

    The draws reproduce the randint stream of a random.Random, or of a
    subclass that keeps its getrandbits; a subclass that overrides only
    random() gets a different stream, as for random_homogeneous_queer."""
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
