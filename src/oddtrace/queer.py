"""The queer superalgebra Q_n, endomorphism superalgebras, and their
trace functionals, all over exact rationals.

Q_n is realized as block matrices (X Y; Y X); its distinguished functional
is the odd trace (X, Y) -> tr Y, which is supersymmetric:
phi(ab) = (-1)^{p(a)p(b)} phi(ba) on homogeneous elements.  End(N) for a
superspace N of dimension d0|d1 carries the supertrace tr A - tr D, which
vanishes on every odd element.  Rational scalars suffice: the identities
are algebraic over any field of characteristic zero.

Each element keeps the integer form of its blocks (the lcm L of the entry
denominators, and the rows and columns of L times the block; None for a
zero block).  A random sample gets its forms with its draws and is built
without re-checking its shapes; any other element builds them once, on
its first product, product trace or parity test.  Parity reads the forms:
a block is zero when its form is None.  One kernel multiplies those forms
for both Q_n and End(N) and builds one Fraction per entry.  A trace of a
product needs only its diagonal, so a second kernel takes
tr(a b) = sum_i row_i(a) . column_i(b) from the same forms, as an
unreduced integer ratio: O(n^2) integer work, where the product costs n^3
and 2n^2 Fractions.  product_odd_trace, product_traces and
product_supertrace turn that ratio into one Fraction; supersymmetric
compares the two sides of phi(ab) = (-1)^{p(a)p(b)} phi(ba) by
cross-multiplying the ratios, and builds no Fraction.

queer-check runs supersymmetric on both loops.  On Q_n, when a and b have
the same parity, each term of tr(Xa Yb + Ya Xb) has a zero factor and
both sides are 0: of the 1000 pairs at its seed 94099 only the 486
mixed-parity ones carry content, and there the sign is +1.  The sign
(-1)^{p(a)p(b)} is exercised only by the 62 odd.odd pairs of its 250
End(2|2) pairs.  The Q_1 probe takes each constraint as two unreduced
ratios from the same kernel, tests independence by cross-multiplying and
builds Fractions only for the basis it returns.

Random samples follow the rng.randint(-9, 9), rng.randint(1, 9) stream:
each entry draws the pair with rng.getrandbits as CPython's randrange
does, and looks up the value it names in a fixed table of 171 entries,
and its numerator at the block's scale in a table keyed by the scale,
whose rows are built on first use.
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
    "product_odd_trace",
    "product_traces",
    "supertrace",
    "end_mul",
    "product_supertrace",
    "supersymmetric",
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


def _form(scale: int, nums: Sequence[int], width: int) -> IntForm:
    """The integer form of a block from its scale L and nums, the entries of
    L times the block row by row, width to a row: None for a zero or empty
    block, else (L, rows, columns)."""
    if not any(nums):
        return None
    nums = tuple(nums)
    return (scale, tuple([nums[i:i + width] for i in range(0, len(nums), width)]),
            tuple([nums[j::width] for j in range(width)]))


def _int_form(m: Matrix) -> IntForm:
    """The integer form of the block m, with L the lcm of the entry
    denominators."""
    scale, nums = _clear_denominators([x for row in m for x in row])
    return _form(scale, nums, len(m[0]) if m else 0)


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


def _trace_ratio(*terms: Tuple[int, IntForm, IntForm]) -> Tuple[int, int]:
    """The sum of sign * tr(a b) over the (sign, a, b) terms of integer
    forms, as an unreduced (numerator, denominator) with a positive
    denominator, without forming the products.

    tr(a b) = sum_i row_i(a) . column_i(b): the rows of a and the columns of
    b, flattened in order, give one dot product over La Lb.  Terms with a
    zero factor are skipped; the rest are added over the product of their
    scales, so no gcd or lcm is taken.
    """
    num, den = 0, 1
    for sign, a, b in terms:
        if a is None or b is None:
            continue
        scale = a[0] * b[0]
        dot = sum(map(mul, chain.from_iterable(a[1]), chain.from_iterable(b[2])))
        num, den = num * scale + sign * dot * den, den * scale
    return num, den


def _fraction(num: int, den: int) -> Fraction:
    """num/den, reduced; 0 without building a Fraction."""
    return Fraction(num, den) if num else _ZERO


def _mat_trace(a: Matrix) -> Fraction:
    return sum((a[i][i] for i in range(len(a))), _ZERO)


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
        return self._forms[1] is None

    @property
    def is_odd(self) -> bool:
        return self._forms[0] is None

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


def _odd_trace_ratio(a: QueerElement, b: QueerElement) -> Tuple[int, int]:
    """odd_trace(ab) as an unreduced ratio: tr(Xa Yb + Ya Xb)."""
    if a.n != b.n:
        raise ValueError(f"size mismatch: {a.n} vs {b.n}")
    (ax, ay), (bx, by) = a._forms, b._forms
    return _trace_ratio((1, ax, by), (1, ay, bx))


def product_odd_trace(a: QueerElement, b: QueerElement) -> Fraction:
    """odd_trace(ab) without forming ab: tr(Xa Yb + Ya Xb)."""
    return _fraction(*_odd_trace_ratio(a, b))


def product_traces(a: QueerElement, b: QueerElement) -> Tuple[Fraction, Fraction]:
    """(even_trace(ab), odd_trace(ab)) without forming ab:
    (tr(Xa Xb + Ya Yb), product_odd_trace(a, b))."""
    odd = product_odd_trace(a, b)
    (ax, ay), (bx, by) = a._forms, b._forms
    return _fraction(*_trace_ratio((1, ax, bx), (1, ay, by))), odd


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
        _, b, c, _ = self._forms
        return b is None and c is None

    @property
    def is_odd(self) -> bool:
        a, _, _, d = self._forms
        return a is None and d is None

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


def _supertrace_ratio(x: EndElement, y: EndElement) -> Tuple[int, int]:
    """supertrace(end_mul(x, y)) as an unreduced ratio:
    tr(Ax Ay + Bx Cy) - tr(Cx By + Dx Dy)."""
    if (x.d0, x.d1) != (y.d0, y.d1):
        raise ValueError("size mismatch")
    (xa, xb, xc, xd), (ya, yb, yc, yd) = x._forms, y._forms
    return _trace_ratio((1, xa, ya), (1, xb, yc), (-1, xc, yb), (-1, xd, yd))


def product_supertrace(x: EndElement, y: EndElement) -> Fraction:
    """supertrace(end_mul(x, y)) without forming the product:
    tr(Ax Ay + Bx Cy) - tr(Cx By + Dx Dy)."""
    return _fraction(*_supertrace_ratio(x, y))


def supersymmetric(a, b) -> bool:
    """Whether phi(ab) = (-1)^{p(a)p(b)} phi(ba) for the homogeneous a and b,
    both in Q_n or both in End(N), where phi is the odd trace on Q_n and
    the supertrace on End(N).

    Each side is an unreduced integer ratio from the cached forms, and the
    two are compared by cross-multiplication, with the sign taken from the
    parities; no Fraction is built.  A non-homogeneous element raises
    ValueError, as its parity does.
    """
    if type(a) is not type(b):
        raise TypeError("both elements must be in Q_n or both in End(N)")
    ratio = _odd_trace_ratio if isinstance(a, QueerElement) else _supertrace_ratio
    return _ratios_equal(ratio(a, b), ratio(b, a), -1 if a.parity & b.parity else 1)


def _ratios_equal(r: Tuple[int, int], s: Tuple[int, int], sign: int) -> bool:
    """Whether r = sign * s, for unreduced ratios (num, den) with positive
    denominators, by cross-multiplication."""
    return r[0] * s[1] == sign * s[0] * r[1]


# ---------------------------------------------------------------------------
# randomized sampling and the Q_1 uniqueness probe
# ---------------------------------------------------------------------------


# Every value F(p - 9, q + 1) a sample can take, at the index 9 p + q of
# its draws p = randint(-9, 9) + 9 and q = randint(1, 9) - 1, and beside it
# the value's reduced numerator and denominator.
_SAMPLES = [F(p - 9, q + 1) for p in range(19) for q in range(9)]
_REDUCED = [(v.numerator, v.denominator) for v in _SAMPLES]
_DENOMINATORS = [q for _, q in _REDUCED]


class _NumeratorRows(dict):
    """The numerators of the values at each scale a block can have, the lcm
    of some of the denominators 1..9: one of the 48 divisors of 2520.  At a
    scale s the entry of a value is s times it, read only when its
    denominator divides s.  Each scale's row is built on its first use."""

    def __missing__(self, s: int) -> List[int]:
        row = self[s] = [p * (s // q) for p, q in _REDUCED]
        return row


_NUMERATORS_AT = _NumeratorRows()


def _random_matrix(n: int, m: int, rng: random.Random) -> Tuple[Matrix, IntForm]:
    """The n x m block with entries F(randint(-9, 9), randint(1, 9)), row
    by row, looked up in _SAMPLES, and its integer form.

    Each randint draws as CPython's randrange does (3.10 to 3.13): a draw
    of as many bits as the width has, 5 for the 19 numerators and 4 for
    the 9 denominators, repeated while it is out of range.  The form is the
    one _int_form gives: its scale is the lcm of the reduced denominators,
    and its entries are read from _NUMERATORS_AT at that scale."""
    bits = rng.getrandbits
    size = n * m
    draws = []
    for _ in range(size):
        p = bits(5)
        while p >= 19:
            p = bits(5)
        q = bits(4)
        while q >= 9:
            q = bits(4)
        draws.append(9 * p + q)
    if not size:
        return _zeros(n, m), None
    values = [_SAMPLES[d] for d in draws]
    block = tuple([tuple(values[i:i + m]) for i in range(0, size, m)])
    scale = lcm(*map(_DENOMINATORS.__getitem__, draws))
    return block, _form(scale, list(map(_NUMERATORS_AT[scale].__getitem__, draws)), m)


def _sampled(cls, **fields):
    """An element of cls whose fields and _forms cache are set together,
    without __init__ and its shape checks: the samplers build every block
    at its shape.  _forms is no dataclass field, so == and hash are those of
    the element the public constructor builds from the same fields."""
    e = object.__new__(cls)
    e.__dict__.update(fields)
    return e


def random_homogeneous_queer(n: int, rng: random.Random) -> QueerElement:
    """Even or odd with probability 1/2 each (one rng.random() draw), its
    nonzero block with entries p/q from randint(-9, 9), randint(1, 9).
    The integer forms come with the draws.

    The draws reproduce the randint stream of a random.Random, or of a
    subclass that keeps its getrandbits; a subclass that overrides only
    random() draws its randints from random() instead, and gets a
    different stream here."""
    zero = _zeros(n, n)
    if rng.random() < 0.5:
        x, fx = _random_matrix(n, n, rng)
        return _sampled(QueerElement, n=n, x=x, y=zero, _forms=(fx, None))
    y, fy = _random_matrix(n, n, rng)
    return _sampled(QueerElement, n=n, x=zero, y=y, _forms=(None, fy))


def random_homogeneous_end(d0: int, d1: int, rng: random.Random) -> EndElement:
    """Even (A, D) or odd (B, C) with probability 1/2 each, with the
    entries of random_homogeneous_queer, drawn block by block.  The integer
    forms come with the draws.

    The draws reproduce the randint stream of a random.Random, or of a
    subclass that keeps its getrandbits; a subclass that overrides only
    random() gets a different stream, as for random_homogeneous_queer."""
    if rng.random() < 0.5:
        (a, fa), (d, fd) = _random_matrix(d0, d0, rng), _random_matrix(d1, d1, rng)
        return _sampled(EndElement, d0=d0, d1=d1, a=a, b=_zeros(d0, d1), c=_zeros(d1, d0),
                        d=d, _forms=(fa, None, None, fd))
    (b, fb), (c, fc) = _random_matrix(d0, d1, rng), _random_matrix(d1, d0, rng)
    return _sampled(EndElement, d0=d0, d1=d1, a=_zeros(d0, d0), b=b, c=c,
                    d=_zeros(d1, d1), _forms=(None, fb, fc, None))


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
        if a.n != b.n:
            raise ValueError(f"size mismatch: {a.n} vs {b.n}")
        # The constraint tr(ab) - (-1)^{p(a)p(b)} tr(ba) = 0 on each block,
        # as unreduced ratios; the row is both times their denominators.
        s = 1 if a.parity & b.parity else -1
        (ax, ay), (bx, by) = a._forms, b._forms
        even, even_den = _trace_ratio((1, ax, bx), (1, ay, by), (s, bx, ax), (s, by, ay))
        odd, odd_den = _trace_ratio((1, ax, by), (1, ay, bx), (s, bx, ay), (s, by, ax))
        rows.append((even * odd_den, odd * even_den))
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
    return [(F(v[0], scale), F(v[1], scale))]
