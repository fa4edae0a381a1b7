"""Exact truncated formal series in q**(1/D) over the rationals.

A :class:`FracPowerSeries` stores finitely many nonzero coefficients on the
exponent grid (1/D)Z together with a truncation bound T: the series is exact
for every exponent strictly below T and says nothing about exponents >= T.
Binary operations merge grids to the lcm and propagate the tightest sound
truncation.  All coefficients are `fractions.Fraction`; nothing in this
module touches floating point.  Products, inverses, comparisons and
`euler_product` compute on integer numerators (each operand scaled by the
lcm of its coefficient denominators) and build one exact `Fraction` series,
or the one mismatching triple, at the end.

Products and powers share one kernel, `_packed_power(a, k, b) = a**k * b`,
by Kronecker substitution: each operand becomes one big int with one slot of
w bits per step of its exponent lattice, so that CPython's int product does
the convolution.  The width comes from the rigorous bound
|coeff| <= n_a^k max|a|^k max|b| plus a sign bit, so every slot holds its
balanced digit exactly.  The cost is O(slots * w) to pack and unpack plus k
int products of slots * w bits, whatever the number of terms.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import sub
from struct import calcsize
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple, Union

__all__ = [
    "FracPowerSeries",
    "euler_product",
    "eta",
    "jacobi_rhs",
]

Rational = Union[int, Fraction]


def _clear_denominators(values: Iterable[Fraction]) -> Tuple[int, List[int]]:
    """(L, [L * v for v in values]) as ints, with L the lcm of the denominators."""
    values = list(values)
    scale = lcm(1, *(v.denominator for v in values))
    return scale, [v.numerator * (scale // v.denominator) for v in values]


class FracPowerSeries:
    """Truncated series sum_e c_e q^e with c_e rational, e on the 1/D grid.

    Invariants: no stored coefficient is zero, and every stored exponent is
    strictly below the truncation.  Negative exponents are allowed (inverses
    of monomials are Laurent-like).
    """

    __slots__ = ("denominator", "truncation", "_coeffs")

    def __init__(self, denominator: int, truncation: Rational,
                 coeffs: Mapping[int, Fraction]):
        if denominator <= 0:
            raise ValueError("grid denominator must be positive")
        truncation = Fraction(truncation)
        limit = truncation.numerator * denominator  # k/D >= T  <=>  k * T.den >= limit
        clean: Dict[int, Fraction] = {}
        for k, c in coeffs.items():
            c = Fraction(c)
            if c == 0:
                continue
            if k * truncation.denominator >= limit:
                continue
            clean[int(k)] = c
        self.denominator = denominator
        self.truncation = truncation
        self._coeffs = clean

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
        return FracPowerSeries(1, truncation, {0: Fraction(1)})

    @staticmethod
    def monomial(exponent: Rational, coefficient: Rational,
                 truncation: Rational) -> "FracPowerSeries":
        return FracPowerSeries.from_terms({Fraction(exponent): coefficient}, truncation)

    # -- inspection --------------------------------------------------------

    def terms(self) -> Iterator[Tuple[Fraction, Fraction]]:
        """Stored (exponent, coefficient) terms sorted by exponent."""
        for k in sorted(self._coeffs):
            yield Fraction(k, self.denominator), self._coeffs[k]

    def support(self) -> List[Fraction]:
        return [Fraction(k, self.denominator) for k in sorted(self._coeffs)]

    def lowest(self) -> Optional[Fraction]:
        """Lowest stored exponent, or None for the zero series."""
        if not self._coeffs:
            return None
        return Fraction(min(self._coeffs), self.denominator)

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
        return self._coeffs.get(int(k), Fraction(0))

    def is_zero(self) -> bool:
        return not self._coeffs

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "FracPowerSeries") -> "FracPowerSeries":
        if not isinstance(other, FracPowerSeries):
            return NotImplemented
        d = lcm(self.denominator, other.denominator)
        t = min(self.truncation, other.truncation)
        sa, sb = d // self.denominator, d // other.denominator
        out: Dict[int, Fraction] = {k * sa: c for k, c in self._coeffs.items()}
        for k, c in other._coeffs.items():
            key = k * sb
            out[key] = out.get(key, Fraction(0)) + c
        return FracPowerSeries(d, t, out)

    def __neg__(self) -> "FracPowerSeries":
        return FracPowerSeries(self.denominator, self.truncation,
                               {k: -c for k, c in self._coeffs.items()})

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

    def _numerators(self) -> Tuple[int, Dict[int, int]]:
        """(L, {key: L * coeff}) with L the lcm of the coefficient denominators."""
        scale, nums = _clear_denominators(self._coeffs.values())
        return scale, dict(zip(self._coeffs, nums))

    __rmul__ = __mul__

    def scale(self, r: Rational) -> "FracPowerSeries":
        r = Fraction(r)
        return FracPowerSeries(self.denominator, self.truncation,
                               {k: c * r for k, c in self._coeffs.items()})

    def shift(self, e: Rational) -> "FracPowerSeries":
        """Multiply by the exact monomial q^e (truncation shifts with it)."""
        e = Fraction(e)
        d = lcm(self.denominator, e.denominator)
        s = d // self.denominator
        off = int(e * d)
        return FracPowerSeries(d, self.truncation + e,
                               {k * s + off: c for k, c in self._coeffs.items()})

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

        Standard unit recurrence on the 1/D grid, run on integers: with L the
        lcm of the coefficient denominators, U = L*u has integer
        coefficients U_k, and u^{-1} has coefficients L * B_n / U_0^(n+1) for
            B_0 = 1,   B_n = -sum_{k=1..n} U_k U_0^(k-1) B_{n-k}.
        Keys are counted in steps of the gcd of u's keys, which keeps the
        powers of U_0 small.  The result is exact below T - 2e.
        """
        if not self._coeffs:
            raise ValueError("the zero series has no inverse")
        d = self.denominator
        e_key = min(self._coeffs)
        scale, nums = self._numerators()
        u = {k - e_key: n for k, n in nums.items()}  # unit part, times L
        step = gcd(*u) or 1
        u0 = u[0]
        t_unit = self.truncation - Fraction(e_key, d)  # exactness of u and of u^{-1}
        n_max = ((t_unit * d).__ceil__() - 1) // step  # largest step below t_unit
        weights = [(k // step, u[k] * u0 ** (k // step - 1)) for k in sorted(u) if k > 0]
        b = [1]
        for n in range(1, n_max + 1):
            s = 0
            for k, w in weights:
                if k > n:
                    break
                s += w * b[n - k]
            b.append(-s)
        out: Dict[int, Fraction] = {}
        power = u0
        for n, bn in enumerate(b):
            if bn:
                out[n * step - e_key] = Fraction(scale * bn, power)
            power *= u0
        t_out = t_unit - Fraction(e_key, d)
        return FracPowerSeries(d, t_out, out)

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
        d = lcm(self.denominator, other.denominator)
        la, anums = self._numerators()
        lb, bnums = other._numerators()
        sa, sb = d // self.denominator, d // other.denominator
        a = {key * sa: n for key, n in anums.items()}
        b = {key * sb: n for key, n in bnums.items()}
        limit = order.numerator * d  # key/d >= order  <=>  key * order.den >= limit
        for key in sorted(a.keys() | b.keys()):
            if key * order.denominator >= limit:
                break
            x, y = a.get(key, 0), b.get(key, 0)
            if x * lb != y * la:
                return Fraction(key, d), Fraction(x, la), Fraction(y, lb)
        return None

    def eq_to_order(self, other: "FracPowerSeries", order: Rational) -> bool:
        """True iff all coefficients strictly below `order` agree exactly."""
        return self.first_mismatch(other, order) is None

    def __eq__(self, other) -> bool:
        # Structural equality: same truncation and identical coefficients.
        if not isinstance(other, FracPowerSeries):
            return NotImplemented
        if self.truncation != other.truncation:
            return False
        return {Fraction(k, self.denominator): c for k, c in self._coeffs.items()} == \
               {Fraction(k, other.denominator): c for k, c in other._coeffs.items()}

    __hash__ = None

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        """Interchange form: terms [exp_num, coeff_num, coeff_den] on grid D."""
        return {
            "denominator": self.denominator,
            "truncation": [self.truncation.numerator, self.truncation.denominator],
            "terms": [[k, self._coeffs[k].numerator, self._coeffs[k].denominator]
                      for k in sorted(self._coeffs)],
        }

    @staticmethod
    def from_json_dict(data: dict) -> "FracPowerSeries":
        t = Fraction(data["truncation"][0], data["truncation"][1])
        coeffs = {int(k): Fraction(cn, cd) for k, cn, cd in data["terms"]}
        return FracPowerSeries(int(data["denominator"]), t, coeffs)

    def __repr__(self):
        body = " + ".join(f"({c})q^({Fraction(k, self.denominator)})"
                          for k, c in sorted(self._coeffs.items())[:6])
        if len(self._coeffs) > 6:
            body += " + ..."
        return f"FracPowerSeries({body or '0'}; T={self.truncation}, D={self.denominator})"


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
    the slots below the truncation, and an operand becomes the one signed int
    sum n_i 2^(w i) of its integer numerators, w bits a slot.  The integer
    product of two such ints packs the product of the series, so the kernel
    multiplies the packed b by the packed a k times, reducing each product
    mod 2^(w slots) into the balanced range, and unpacks the slots once.

    A result slot sums at most n_a^k products of k numerators of a and one of
    b, where n_a counts a's slots, so |coeff| <= n_a^k max|a|^k max|b| =: B;
    every partial product a^j b obeys the same bound.  With w >= bit_length(B)
    + 1 (a sign bit), each slot holds its coefficient as a balanced digit in
    [-2^(w-1), 2^(w-1)), the packed int lies within 2^(w slots - 1) of 0, and
    adding 2^(w-1) to every slot turns the digits into unsigned ones.  The
    width is rounded up to 1, 2, 4 or 8 bytes, which are read in one cast, or
    to whole bytes above that.  Cost: O(slots * w) to pack and to unpack, and
    k products of ints of slots * w bits.
    """
    d = lcm(a.denominator, b.denominator)
    low_a = a._low_bound()
    # An unknown contribution to x * y needs a factor at or beyond its
    # truncation, so the product is exact below T_x + low_y and T_y + low_x.
    # Hence a**j is exact below T_a + (j - 1) low_a, with lowest term j low_a.
    t = min(a.truncation + (k - 1) * low_a + b._low_bound(), b.truncation + k * low_a)
    if not a._coeffs or not b._coeffs:
        return FracPowerSeries(d, t, {})
    la, anums = a._numerators()
    lb, bnums = b._numerators()
    sa, sb = d // a.denominator, d // b.denominator
    base_a, base_b = min(anums) * sa, min(bnums) * sb
    step = gcd(*(key * sa - base_a for key in anums),
               *(key * sb - base_b for key in bnums)) or 1
    base = k * base_a + base_b
    slots = ((t * d).__ceil__() - 1 - base) // step + 1  # base < t * d
    reach = slots * step  # an operand's slot i reaches only result slots >= i
    slotted_a = [((key * sa - base_a) // step, n) for key, n in anums.items()
                 if key * sa - base_a < reach]
    slotted_b = [((key * sb - base_b) // step, n) for key, n in bnums.items()
                 if key * sb - base_b < reach]
    bound = (len(slotted_a) * max(abs(n) for _, n in slotted_a)) ** k \
        * max(abs(n) for _, n in slotted_b)
    width = (bound.bit_length() + 8) // 8  # bytes, with the sign bit
    if width <= 8:
        width = 1 << (width - 1).bit_length()
    bits = 8 * width * slots
    factor, value = _pack(slotted_a, width, slots), _pack(slotted_b, width, slots)
    for _ in range(k):
        value = (value * factor) & ((1 << bits) - 1)
        if value >> (bits - 1):
            value -= 1 << bits
    half = 1 << (8 * width - 1)
    size = width * slots
    value += int.from_bytes(half.to_bytes(width, "little") * slots, "little")
    if width in _UNSIGNED:
        view = memoryview(value.to_bytes(size, sys.byteorder)).cast(_UNSIGNED[width])
        digits = view if sys.byteorder == "little" else view[::-1]
    else:
        raw = value.to_bytes(size, "little")
        digits = [int.from_bytes(raw[o:o + width], "little") for o in range(0, size, width)]
    out = {base + step * i: x - half for i, x in enumerate(digits) if x != half}
    scale = la ** k * lb
    if scale != 1:
        out = {key: Fraction(n, scale) for key, n in out.items()}
    return FracPowerSeries(d, t, out)


def _pack(slotted: List[Tuple[int, int]], width: int, slots: int) -> int:
    """sum n 2^(8 width i) over the (slot i, n) pairs, |n| < 2^(8 width)."""
    pos, neg = bytearray(width * slots), bytearray(width * slots)
    for i, n in slotted:
        (pos if n > 0 else neg)[i * width:(i + 1) * width] = abs(n).to_bytes(width, "little")
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


# -- named series -----------------------------------------------------------


def euler_product(order: int) -> FracPowerSeries:
    """prod_{n=1}^{order} (1 - q^n), exact below `order`.

    Factors with n >= order cannot touch exponents below `order`, so this
    equals the infinite product to the declared truncation.

    The dense integer list a is multiplied by each (1 - q^n) in place,
    a[k] -= a[k - n] for n <= k < order, with a[k - n] read before this
    factor updates it.  Coefficients below n are settled: no later factor
    reaches them.  Every k >= 2n reads a[k - n] at or above n, so one slice
    step updates them all.  Each n <= k < 2n reads a settled a[k - n], so
    only the settled nonzero indices j < n, kept in ascending order, update
    a[j + n]; this step writes a[n:2n], which the slice step reads, so it
    runs second.  Then a[n] is settled and joins the indices when nonzero,
    and the series is built from them alone.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    a = [0] * order
    a[0] = 1
    nonzero = [0]
    for n in range(1, order):
        a[2 * n:] = map(sub, a[2 * n:], a[n:order - n])
        for j in nonzero:
            if j + n >= order:
                break
            a[j + n] -= a[j]
        if a[n]:
            nonzero.append(n)
    return FracPowerSeries(1, order, {j: a[j] for j in nonzero})


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
