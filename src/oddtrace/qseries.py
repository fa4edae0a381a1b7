"""Exact truncated formal series in q**(1/D) over the rationals.

A :class:`FracPowerSeries` stores finitely many nonzero coefficients on the
exponent grid (1/D)Z together with a truncation bound T: the series is exact
for every exponent strictly below T and says nothing about exponents >= T.
Binary operations merge grids to the lcm and propagate the tightest sound
truncation.  A series stores its coefficients as integer numerators over
one positive integer scale, in lowest terms, and every operation computes
on those integers; nothing in this module touches floating point.
`Fraction`s appear only at the public boundary: the constructor normalizes
an int or `Fraction` mapping once, and `terms`, `coeff`, `first_mismatch`
and `to_json_dict` build reduced fractions when asked.

Products and powers share one kernel, `_packed_power(a, k, b) = a**k * b`,
by Kronecker substitution: b becomes one big int of L bits, one slot of w
bits per step of its exponent lattice, which the kernel multiplies by a k
times mod 2^L.  The width comes from the rigorous bound
|coeff| <= n_a^k max|a|^k max|b| plus a sign bit, so every slot holds its
balanced digit exactly.  A lacunary a, with n_a^2 < L / 8, is applied as
shifted adds: one shifted copy of the packed int per term, k n_a adds of
L-bit ints.  Otherwise a is packed too and CPython's int product does the
convolution: k products of L-bit ints.  Packing and unpacking cost O(L),
whatever the number of terms.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from itertools import accumulate, islice
from math import gcd, isqrt, lcm
from struct import calcsize
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple, Union

__all__ = [
    "FracPowerSeries",
    "euler_product",
    "eta",
    "jacobi_rhs",
]

Rational = Union[int, Fraction]


class FracPowerSeries:
    """Truncated series sum_e c_e q^e with c_e rational, e on the 1/D grid.

    The coefficient at exponent k/D is `_nums[k] / _scale`: one positive
    integer scale and a dict of integer numerators.  Invariants: no stored
    numerator is zero, every stored exponent is strictly below the
    truncation, and gcd(_scale, *_nums.values()) == 1, so each series has
    one stored form on a given grid.  Negative exponents are allowed
    (inverses of monomials are Laurent-like).
    """

    __slots__ = ("denominator", "truncation", "_scale", "_nums")

    def __init__(self, denominator: int, truncation: Rational,
                 coeffs: Mapping[int, Rational]):
        rows = []
        for k, c in coeffs.items():
            c = Fraction(c)
            rows.append((k, c.numerator, c.denominator))
        (self.denominator, self.truncation,
         self._scale, self._nums) = _normal_form(denominator, truncation, rows)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_terms(terms: Mapping[Rational, Rational],
                   truncation: Rational) -> "FracPowerSeries":
        """Build a series from an exponent -> coefficient mapping, on the grid
        of the lcm of the exponent denominators (zero coefficients count)."""
        exps = {Fraction(e): Fraction(c) for e, c in terms.items()}
        d = lcm(1, *(e.denominator for e in exps))
        coeffs = {int(e * d): c for e, c in exps.items()}
        return FracPowerSeries(d, truncation, coeffs)

    @staticmethod
    def zero(truncation: Rational) -> "FracPowerSeries":
        return FracPowerSeries(1, truncation, {})

    @staticmethod
    def one(truncation: Rational) -> "FracPowerSeries":
        return FracPowerSeries(1, truncation, {0: 1})

    @staticmethod
    def monomial(exponent: Rational, coefficient: Rational,
                 truncation: Rational) -> "FracPowerSeries":
        return FracPowerSeries.from_terms({Fraction(exponent): coefficient}, truncation)

    # -- inspection --------------------------------------------------------

    def terms(self) -> Iterator[Tuple[Fraction, Fraction]]:
        """Stored (exponent, coefficient) terms sorted by exponent."""
        for k in sorted(self._nums):
            yield Fraction(k, self.denominator), Fraction(self._nums[k], self._scale)

    def support(self) -> List[Fraction]:
        return [Fraction(k, self.denominator) for k in sorted(self._nums)]

    def lowest(self) -> Optional[Fraction]:
        """Lowest stored exponent, or None for the zero series."""
        if not self._nums:
            return None
        return Fraction(min(self._nums), self.denominator)

    def _low_bound(self) -> Fraction:
        # Smallest exponent at which the series can be nonzero: either the
        # lowest stored term or, failing that, the truncation itself.
        low = self.lowest()
        return self.truncation if low is None else low

    def coeff(self, e: Rational) -> Fraction:
        """Coefficient at exponent e; raises if e is not below the truncation."""
        e = Fraction(e)
        if e >= self.truncation:
            raise ValueError(f"exponent {e} is not below the truncation {self.truncation}")
        k = e * self.denominator
        if k.denominator != 1:
            return Fraction(0)  # off-grid exponents carry no term
        return Fraction(self._nums.get(int(k), 0), self._scale)

    def is_zero(self) -> bool:
        return not self._nums

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "FracPowerSeries") -> "FracPowerSeries":
        if not isinstance(other, FracPowerSeries):
            return NotImplemented
        d, a, b = _aligned(self, other)
        t = min(self.truncation, other.truncation)
        scale = lcm(self._scale, other._scale)
        ma, mb = scale // self._scale, scale // other._scale
        out = {k: n * ma for k, n in a.items()}
        for k, n in b.items():
            out[k] = out.get(k, 0) + n * mb
        bound = (t * d).__ceil__()  # key/d < t  <=>  key < bound
        out = {k: n for k, n in out.items() if n and k < bound}
        return _series(d, t, *_lowest_terms(scale, out))

    def __neg__(self) -> "FracPowerSeries":
        return _series(self.denominator, self.truncation, self._scale,
                       {k: -n for k, n in self._nums.items()})

    def __sub__(self, other: "FracPowerSeries") -> "FracPowerSeries":
        if not isinstance(other, FracPowerSeries):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "FracPowerSeries":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, FracPowerSeries):
            return NotImplemented
        return _packed_power(self, 1, other)

    __rmul__ = __mul__

    def scale(self, r: Rational) -> "FracPowerSeries":
        r = Fraction(r)
        nums = {k: n * r.numerator for k, n in self._nums.items()} if r else {}
        return _series(self.denominator, self.truncation,
                       *_lowest_terms(self._scale * r.denominator, nums))

    def shift(self, e: Rational) -> "FracPowerSeries":
        """Multiply by the exact monomial q^e (truncation shifts with it)."""
        e = Fraction(e)
        d = lcm(self.denominator, e.denominator)
        s = d // self.denominator
        off = int(e * d)
        return _series(d, self.truncation + e, self._scale,
                       {k * s + off: n for k, n in self._nums.items()})

    def __pow__(self, k: int) -> "FracPowerSeries":
        if not isinstance(k, int) or k < 0:
            raise ValueError("power expects a nonnegative integer exponent")
        if k == 0:
            return FracPowerSeries.one(self.truncation)
        if k == 1:
            return self
        return _packed_power(self, k - 1, self)

    def invert(self) -> "FracPowerSeries":
        """Multiplicative inverse q^{-e} * u^{-1} for self = q^e * u, u(0) != 0.

        Standard unit recurrence on the 1/D grid, run on integers.  The
        stored numerators are U = L*u with L the scale, so u^{-1} = L/U.
        With N the last step below the truncation, 1/U has coefficients
        C_n / U_0^(N+1) for the integers
            C_0 = U_0^N,   C_n = -(sum_{k=1..n} U_k C_{n-k}) / U_0,
        each division exact, and the result is L C_n / U_0^(N+1), reduced
        by one gcd.  Keys are counted in steps of the gcd of u's keys, which
        keeps N and the powers of U_0 small.  Step n sums over its sparser
        side: the nonzero U_k with k <= n, or the nonzero C_j found so far,
        whichever are fewer; the inverse of the dense partition series is
        the lacunary pentagonal series.  The result is exact below T - 2e.
        """
        if not self._nums:
            raise ValueError("the zero series has no inverse")
        d = self.denominator
        e_key = min(self._nums)
        step = gcd(*(k - e_key for k in self._nums)) or 1
        n_max = ((self.truncation * d).__ceil__() - 1 - e_key) // step  # last step below T
        u = [0] * (n_max + 1)  # U, one slot a step
        for k, n in self._nums.items():
            u[(k - e_key) // step] = n
        u0 = u[0]
        u_terms = [(k, x) for k, x in enumerate(u) if x and k]
        c = [u0 ** n_max]
        c_terms = [(0, c[0])]
        live = 0  # the U_k with 0 < k <= n are u_terms[:live]
        for n in range(1, n_max + 1):
            if live < len(u_terms) and u_terms[live][0] == n:
                live += 1
            if live <= len(c_terms):
                s = sum(x * c[n - k] for k, x in u_terms[:live])
            else:
                s = sum(x * u[n - j] for j, x in c_terms)
            c.append(-s // u0)
            if s:
                c_terms.append((n, c[n]))
        den = u0 ** (n_max + 1)
        lead = self._scale if den > 0 else -self._scale
        out = {n * step - e_key: lead * x for n, x in c_terms}
        t_out = self.truncation - 2 * Fraction(e_key, d)
        return _series(d, t_out, *_lowest_terms(abs(den), out))

    # -- comparison --------------------------------------------------------

    def first_mismatch(self, other: "FracPowerSeries", order: Rational
                       ) -> Optional[Tuple[Fraction, Fraction, Fraction]]:
        """First (exponent, self coeff, other coeff) disagreement below `order`.

        Returns None when the two series agree exactly on every exponent
        strictly below `order`; raises if `order` exceeds either truncation.
        """
        order = Fraction(order)
        if order > self.truncation or order > other.truncation:
            raise ValueError(
                f"order {order} exceeds a truncation ({self.truncation}, {other.truncation})")
        # Walk the keys on the lcm grid, comparing numerators at the two
        # scales by cross-multiplication.
        d, a, b = _aligned(self, other)
        la, lb = self._scale, other._scale
        bound = (order * d).__ceil__()  # key/d < order  <=>  key < bound
        for key in sorted(a.keys() | b.keys()):
            if key >= bound:
                break
            x, y = a.get(key, 0), b.get(key, 0)
            if x * lb != y * la:
                return Fraction(key, d), Fraction(x, la), Fraction(y, lb)
        return None

    def eq_to_order(self, other: "FracPowerSeries", order: Rational) -> bool:
        """True iff all coefficients strictly below `order` agree exactly."""
        return self.first_mismatch(other, order) is None

    def __eq__(self, other) -> bool:
        if not isinstance(other, FracPowerSeries):
            return NotImplemented
        return self.truncation == other.truncation and self.eq_to_order(other, self.truncation)

    __hash__ = None

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        """Interchange form: terms [exp_num, coeff_num, coeff_den] on grid D,
        each coefficient in lowest terms."""
        nums, scale = self._nums, self._scale
        terms = []
        for k in sorted(nums):
            g = gcd(nums[k], scale)
            terms.append([k, nums[k] // g, scale // g])
        return {
            "denominator": self.denominator,
            "truncation": [self.truncation.numerator, self.truncation.denominator],
            "terms": terms,
        }

    @staticmethod
    def from_json_dict(data: dict) -> "FracPowerSeries":
        """Read the interchange form; a coefficient need not be in lowest
        terms, may have a negative denominator and may be zero."""
        t = Fraction(data["truncation"][0], data["truncation"][1])
        return _series(*_normal_form(int(data["denominator"]), t, data["terms"]))

    def __repr__(self):
        body = " + ".join(f"({c})q^({e})" for e, c in islice(self.terms(), 6))
        if len(self._nums) > 6:
            body += " + ..."
        return f"FracPowerSeries({body or '0'}; T={self.truncation}, D={self.denominator})"


def _series(denominator: int, truncation: Fraction, scale: int,
            nums: Dict[int, int]) -> FracPowerSeries:
    """The series with this stored form, taken as it stands: the caller
    keeps the invariants of FracPowerSeries."""
    s = object.__new__(FracPowerSeries)
    s.denominator, s.truncation, s._scale, s._nums = denominator, truncation, scale, nums
    return s


def _aligned(a: FracPowerSeries, b: FracPowerSeries
             ) -> Tuple[int, Dict[int, int], Dict[int, int]]:
    """(d, a_nums, b_nums): the lcm grid d of a and b and the numerators of
    each keyed on it.  A stored dict already on grid d is returned as it
    stands, not copied, so callers only read what this returns."""
    d = lcm(a.denominator, b.denominator)
    return (d, *(s._nums if s.denominator == d else
                 {k * (d // s.denominator): n for k, n in s._nums.items()} for s in (a, b)))


def _lowest_terms(scale: int, nums: Dict[int, int]) -> Tuple[int, Dict[int, int]]:
    """(scale, nums) divided by gcd(scale, *nums.values())."""
    g = gcd(scale, *nums.values())
    if g == 1:
        return scale, nums
    return scale // g, {k: n // g for k, n in nums.items()}


def _normal_form(denominator: int, truncation: Rational,
                 rows: Iterable[Tuple[int, int, int]]
                 ) -> Tuple[int, Fraction, int, Dict[int, int]]:
    """The stored form (D, T, scale, nums) of the terms (key, num, den),
    each num/den q^(key/D); zero terms and keys at or beyond T are dropped,
    and a key that is not an integer raises ValueError."""
    if denominator <= 0:
        raise ValueError("grid denominator must be positive")
    truncation = Fraction(truncation)
    bound = (truncation * denominator).__ceil__()  # k/D < T  <=>  k < bound
    kept = []
    for k, num, den in rows:
        key = int(k)
        if key != k:
            raise ValueError(f"key {k} is not an integer")
        if not den:
            raise ZeroDivisionError(f"coefficient {num}/{den}")
        if num and key < bound:
            kept.append((key, num, den))
    scale = lcm(1, *(den for _, _, den in kept))
    nums = {key: num * (scale // den) for key, num, den in kept}
    return (denominator, truncation, *_lowest_terms(scale, nums))


# -- the product kernel ------------------------------------------------------

# memoryview.cast codes of unsigned 1-, 2-, 4- and 8-byte slots, chosen by the
# platform's item sizes ('L' is 8 bytes on some platforms and 4 on others)
_UNSIGNED = {calcsize(code): code for code in "BHILQ"}


def _packed_power(a: FracPowerSeries, k: int, b: FracPowerSeries) -> FracPowerSeries:
    """a**k * b for k >= 1, truncated as k products by `*` truncate it.

    Kronecker substitution.  On the lcm grid d, an operand's key is its base
    (lowest key) plus a multiple of the step, the gcd of every key's distance
    from its operand's base; a result key is k base_a + base_b plus such a
    multiple.  Slot i holds the coefficient at that base plus i steps, for
    the slots below the truncation.  b becomes one signed int of L = w slots
    bits, sum n_i 2^(w i) over its integer numerators; multiplying it by the
    series a and reducing mod 2^L packs the truncated product, so the kernel
    does this k times and unpacks the slots once.

    A result slot sums at most n_a^k products of k numerators of a and one of
    b, where n_a counts the terms of a that reach a result slot, so |coeff| <=
    n_a^k max|a|^k max|b| =: B; every partial product a^j b obeys the same
    bound.  With w >= bit_length(B) + 1 (a sign bit), each slot holds its
    coefficient as a balanced digit in [-2^(w-1), 2^(w-1)), and adding 2^(w-1)
    to every slot mod 2^L turns the digits into unsigned ones.  The width is
    rounded up to 1, 2, 4 or 8 bytes, which are written and read as native
    items, or to whole bytes above that.

    Two paths multiply by a, chosen by `_lacunary` from the sizes: a is
    lacunary when n_a^2 < w slots / 8, the width in bytes times the slots.
    A lacunary a is applied as shifted adds, the sum over its terms
    n q^(base_a + i step) of n (value << w i): k n_a shifted adds of an L-bit
    int, the copies for one n summed before one multiplication by n.
    Otherwise a is packed too, and each step is one product of L-bit ints,
    which CPython's Karatsuba does in time about L^1.58; when b is a, the
    base is packed once and the first product is a square.  A product
    (k = 1) takes its operand with fewer terms as a.  Packing and unpacking
    cost O(L).
    """
    if k == 1 and len(b._nums) < len(a._nums):
        a, b = b, a  # a * b = b * a, with the sparser operand as the factor
    d, anums, bnums = _aligned(a, b)
    low_a = a._low_bound()
    # An unknown contribution to x * y needs a factor at or beyond its
    # truncation, so the product is exact below T_x + low_y and T_y + low_x.
    # Hence a**j is exact below T_a + (j - 1) low_a, with lowest term j low_a.
    t = min(a.truncation + (k - 1) * low_a + b._low_bound(), b.truncation + k * low_a)
    if not anums or not bnums:
        return _series(d, t, 1, {})
    base_a, base_b = min(anums), min(bnums)
    step = gcd(*(key - base_a for key in anums), *(key - base_b for key in bnums)) or 1
    base = k * base_a + base_b
    slots = ((t * d).__ceil__() - 1 - base) // step + 1  # base < t * d
    reach = slots * step  # an operand's slot i reaches only result slots >= i
    anums, bnums = _reaching(anums, base_a + reach), _reaching(bnums, base_b + reach)
    bound = (len(anums) * max(map(abs, anums.values()))) ** k * max(map(abs, bnums.values()))
    width = (bound.bit_length() + 8) // 8  # bytes, with the sign bit
    if width <= 8:
        width = 1 << (width - 1).bit_length()
    bits = 8 * width * slots
    mask = (1 << bits) - 1
    value = _pack(bnums, base_b, step, width, slots)
    if _lacunary(len(anums), width, slots):
        shifts = {}  # n -> the bit shifts of the terms of a with numerator n
        for key, n in anums.items():
            shifts.setdefault(n, []).append((key - base_a) // step * 8 * width)
        for _ in range(k):
            value = sum(n * sum(map(value.__lshift__, s)) for n, s in shifts.items()) & mask
    else:
        factor = value if b is a else _pack(anums, base_a, step, width, slots)
        for _ in range(k):
            value = value * factor & mask
    half = 1 << (8 * width - 1)
    size = width * slots
    value = (value + int.from_bytes(half.to_bytes(width, "little") * slots, "little")) & mask
    if width in _UNSIGNED:
        view = memoryview(value.to_bytes(size, sys.byteorder)).cast(_UNSIGNED[width])
        digits = view if sys.byteorder == "little" else view[::-1]
    else:
        raw = value.to_bytes(size, "little")
        digits = [int.from_bytes(raw[o:o + width], "little") for o in range(0, size, width)]
    out = {base + step * i: x - half for i, x in enumerate(digits) if x != half}
    return _series(d, t, *_lowest_terms(a._scale ** k * b._scale, out))


def _lacunary(terms: int, width: int, slots: int) -> bool:
    """Whether a factor of `terms` terms multiplies a packed int of `slots`
    slots of `width` bytes as shifted adds rather than as a product.  On
    CPython 3.11 the two break even at terms^2 = width * slots up to about
    1 kB; above that shifted adds win up to 4-8 times that terms^2 at 16-64
    kB.  So the rule gives up some speed at large sizes; where it picks
    shifted adds, they measured no slower than the product."""
    return terms * terms < width * slots


def _reaching(nums: Dict[int, int], top: int) -> Dict[int, int]:
    """nums less its keys at or beyond top, as it stands if it has none."""
    return nums if max(nums) < top else {key: n for key, n in nums.items() if key < top}


def _pack(nums: Dict[int, int], base: int, step: int, width: int, slots: int) -> int:
    """sum n 2^(8 width i) over the terms n at keys base + i step, i < slots,
    each |n| < 2^(8 width)."""
    pos, neg = bytearray(width * slots), bytearray(width * slots)
    if width in _UNSIGNED:  # one native item a slot, reversed if big-endian
        order = 1 if sys.byteorder == "little" else -1
        pv, nv = (memoryview(x).cast(_UNSIGNED[width])[::order] for x in (pos, neg))
        for key, n in nums.items():
            (pv if n > 0 else nv)[(key - base) // step] = abs(n)
        return int.from_bytes(pos, sys.byteorder) - int.from_bytes(neg, sys.byteorder)
    for key, n in nums.items():
        o = (key - base) // step * width
        (pos if n > 0 else neg)[o:o + width] = abs(n).to_bytes(width, "little")
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


# -- named series -----------------------------------------------------------


def euler_product(order: int) -> FracPowerSeries:
    """prod_{n=1}^{order} (1 - q^n), exact below `order`.

    Factors with n >= order cannot touch exponents below `order`, so this
    equals the infinite product to the declared truncation.

    It is summed by Euler's identity for distinct parts (Andrews, The Theory
    of Partitions, Cor. 2.2: sum_k t^k q^(k(k-1)/2) / (q;q)_k equals
    prod_{n>=0} (1 + t q^n), here at t = -q):

        prod_{n>=1} (1 - q^n) = sum_{k>=0} (-1)^k q^(T_k) / ((1-q)...(1-q^k)),

    with T_k = k(k+1)/2.  Expanding the product gives (-1)^k q^|p| for each
    partition p into k distinct parts.  Taking the staircase k, k-1, ..., 1
    off the parts of p is a bijection onto the partitions into at most k
    parts, of weight |p| - T_k, whose generating function is
    1 / ((1-q)...(1-q^k)).

    In Horner form the sum is C_0, where C_k = (-1)^k + q^(k+1) C_(k+1) /
    (1 - q^(k+1)).  Only the k with T_k < order contribute, and C_k is needed
    only below order - T_k, so the levels run from the innermost such k
    outward, in one dense integer list a of length `order` with C_k in
    a[T_k:].  Dividing by (1 - q^k) is a running sum over each residue class
    mod k, in place; C_(k-1) is then the constant (-1)^(k-1) at T_(k-1),
    the k - 1 zeros after it and that quotient.  The sign sits in the
    constants, so no level negates the list.  The cost is about order^1.5
    additions in C loops, against order^2/4 for one update of the list per
    factor.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    top = (isqrt(8 * order - 3) - 1) // 2  # the largest k with T_k < order
    a = [0] * order
    base = top * (top + 1) // 2
    a[base] = (-1) ** top
    for k in range(top, 0, -1):
        # a[base:] holds C_k, base = T_k; a class of one entry is left as it is
        for r in range(base, min(base + k, order - k)):
            a[r::k] = accumulate(a[r::k])
        base -= k
        a[base] = (-1) ** (k - 1)
    return _series(1, Fraction(order), 1, {j: x for j, x in enumerate(a) if x})


def eta(order: int) -> FracPowerSeries:
    """Dedekind eta q-expansion q^(1/24) prod (1 - q^n), on the D=24 grid."""
    return euler_product(order).shift(Fraction(1, 24))


def jacobi_rhs(order: int) -> FracPowerSeries:
    """q^(1/8) sum over integers n of (4n+1) q^(n(2n+1)), on the D=8 grid.

    Includes every n with n(2n+1) < order, hence exact below 1/8 + order.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    # n(2n+1) >= n^2, so every such n has n^2 <= floor(order)
    reach = isqrt(int(order))
    terms = {Fraction(1, 8) + n * (2 * n + 1): 4 * n + 1
             for n in range(-reach, reach + 1) if n * (2 * n + 1) < order}
    return FracPowerSeries.from_terms(terms, Fraction(1, 8) + order)
