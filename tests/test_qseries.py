import json
import time
from fractions import Fraction
from math import isqrt, lcm
from unittest import mock

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from oddtrace import qseries
from oddtrace.cli import CAPS
from oddtrace.qseries import FracPowerSeries, eta, euler_product, jacobi_rhs

F = Fraction


# ---------------------------------------------------------------------------
# Oracles: plain-dict arithmetic, independent of FracPowerSeries internals.
# ---------------------------------------------------------------------------

def oracle_euler_coeffs(order):
    """Coefficients of prod_{n>=1} (1 - q^n) below `order`, by direct product."""
    coeffs = {0: 1}
    for n in range(1, order):
        out = dict(coeffs)
        for k, c in coeffs.items():
            if k + n < order:
                out[k + n] = out.get(k + n, 0) - c
        coeffs = out
    return coeffs


def oracle_pentagonal_coeffs(order):
    """Euler's pentagonal number theorem: prod (1 - q^n) = sum_k (-1)^k q^(k(3k-1)/2)."""
    coeffs = {}
    k = 0
    while k * (3 * k - 1) // 2 < order:
        for m in ((k, -k) if k else (0,)):
            e = m * (3 * m - 1) // 2
            if e < order:
                coeffs[e] = (-1) ** k
        k += 1
    return coeffs


def oracle_product(a, b):
    """Naive double loop over Fraction exponents and coefficients."""
    def low(s):
        return s.truncation if s.lowest() is None else s.lowest()
    t = min(a.truncation + low(b), b.truncation + low(a))
    out = {}
    for ea, ca in a.terms():
        for eb, cb in b.terms():
            e = ea + eb
            if e < t:
                out[e] = out.get(e, 0) + ca * cb
    return t, {e: c for e, c in out.items() if c}


def oracle_partition_count(n):
    """p(n) by bounded-part recursion."""
    def count(n, largest):
        if n == 0:
            return 1
        return sum(count(n - k, k) for k in range(1, min(n, largest) + 1))
    return count(n, n)


# ---------------------------------------------------------------------------
# add
# ---------------------------------------------------------------------------

def test_add_cancellation():
    one_minus_q = FracPowerSeries.from_terms({0: 1, 1: -1}, 10)
    q = FracPowerSeries.monomial(1, 1, 10)
    s = one_minus_q + q
    assert s.support() == [F(0)]
    assert s.coeff(0) == 1
    assert s.truncation == 10


def test_add_identity():
    e = eta(20)
    z = FracPowerSeries.zero(e.truncation)
    assert (e + z) == e
    assert repr(z) == "FracPowerSeries(0; T=481/24, D=1)"
    # a plain number is not a series: + and - refuse it, and == is False
    for op in (lambda: e + 1, lambda: e - 1):
        with pytest.raises(TypeError):
            op()
    assert e != 0


def test_add_merges_grids_to_lcm():
    a = FracPowerSeries.monomial(F(1, 24), 1, 5)
    b = FracPowerSeries.monomial(F(1, 8), 1, 5)
    s = a + b
    assert s.denominator == 24
    assert s.coeff(F(1, 24)) == 1 and s.coeff(F(1, 8)) == 1


# ---------------------------------------------------------------------------
# mul
# ---------------------------------------------------------------------------

def test_mul_telescopes_geometric():
    T = 12
    a = FracPowerSeries.from_terms({0: 1, 1: -1}, T)
    geo = FracPowerSeries.from_terms({n: 1 for n in range(T)}, T)
    prod = a * geo
    assert prod.eq_to_order(FracPowerSeries.one(T), T)


def test_mul_adds_fractional_exponents():
    m = FracPowerSeries.monomial(F(1, 24), 1, 10)
    p = m * m
    assert p.support() == [F(1, 12)]
    assert p.coeff(F(1, 12)) == 1


def test_mul_scalar():
    e = eta(10)
    half = e * F(1, 2)
    assert half.coeff(F(1, 24)) == F(1, 2)
    assert half.truncation == e.truncation
    with pytest.raises(TypeError):
        e * 0.5  # an exact series takes no float scalar


def test_eta_cubed_matches_jacobi_rhs_to_50():
    lhs = eta(50) ** 3
    rhs = jacobi_rhs(50)
    assert lhs.eq_to_order(rhs, 50)


# ---------------------------------------------------------------------------
# invert
# ---------------------------------------------------------------------------

def test_invert_geometric():
    inv = FracPowerSeries.from_terms({0: 1, 1: -1}, 15).invert()
    assert all(inv.coeff(n) == 1 for n in range(15))


def test_invert_fractional_monomial():
    inv = FracPowerSeries.monomial(F(1, 24), 1, 10).invert()
    assert inv.support() == [F(-1, 24)]
    assert inv.coeff(F(-1, 24)) == 1


def test_invert_euler_product_gives_partition_numbers():
    gf = euler_product(12).invert()
    for n in range(10):
        assert gf.coeff(n) == oracle_partition_count(n)
    assert gf.coeff(5) == 7


def test_invert_zero_series_rejected():
    with pytest.raises(ValueError):
        FracPowerSeries.zero(10).invert()


# ---------------------------------------------------------------------------
# euler_product / eta / jacobi_rhs against the dict oracle
# ---------------------------------------------------------------------------

def test_euler_product_expansion_start():
    ep = euler_product(20)
    assert ep.coeff(0) == 1
    expected = {0: 1, 1: -1, 2: -1, 5: 1, 7: 1, 12: -1, 15: -1}
    for n in range(20):
        assert ep.coeff(n) == expected.get(n, 0)
    assert ep.coeff(4) == 0
    assert repr(ep) == ("FracPowerSeries((1)q^(0) + (-1)q^(1) + (-1)q^(2) + (1)q^(5)"
                        " + (1)q^(7) + (-1)q^(12) + ...; T=20, D=1)")
    with pytest.raises(ValueError):
        euler_product(0)


def test_euler_product_matches_oracle_to_200():
    ep = euler_product(200)
    oracle = oracle_euler_coeffs(200)
    for n in range(200):
        assert ep.coeff(n) == oracle.get(n, 0)
        assert ep.coeff(n) in (-1, 0, 1)


def test_euler_product_matches_pentagonal_theorem_to_1000():
    ep = euler_product(1000)
    assert ep.truncation == 1000
    assert {int(e): c for e, c in ep.terms()} == oracle_pentagonal_coeffs(1000)


def factor_by_factor_euler_coeffs(order):
    """The product as written, one factor at a time: every (1 - q^n) updates
    every k >= n, with a descending index.  It shares no step with the
    distinct-parts identity that euler_product sums."""
    a = [0] * order
    a[0] = 1
    for n in range(1, order):
        for k in range(order - 1, n - 1, -1):
            a[k] -= a[k - n]
    return {k: c for k, c in enumerate(a) if c}


LEVEL_EDGES = {k * (k + 1) // 2 + d for k in range(1, 41) for d in (-1, 0, 1)} - {0}


@pytest.mark.parametrize("order", sorted({*range(1, 81), *LEVEL_EDGES, 342, 359, 1000}))
def test_euler_product_matches_factor_by_factor_loop(order):
    # Level k of the identity counts once T_k = k(k+1)/2 < order: the orders
    # T_k - 1, T_k and T_k + 1 for k = 1..40 cross each level's edge, 1..80
    # every short list, and the closed-form orders and 1000 the list at length.
    ep = euler_product(order)
    assert ep.truncation == order
    terms = {int(e): c for e, c in ep.terms()}
    assert all(c != 0 for c in terms.values())
    assert terms == factor_by_factor_euler_coeffs(order)


def test_euler_product_below_n_does_not_depend_on_the_order():
    # The levels that count and the length of each bracket grow with the
    # order; the coefficients below a smaller order must not move.
    series = {m: list(euler_product(m).terms()) for m in [*range(1, 61), 342, 359, 1000, 8000]}
    for m, terms in series.items():
        for n, prefix in series.items():
            if n < m:
                assert [(e, c) for e, c in terms if e < n] == prefix, (n, m)


def test_euler_product_at_the_order_cap_matches_pentagonal_theorem():
    cap = max(cap for flag, cap in CAPS.values() if flag == "order")
    ep = euler_product(cap)
    assert ep.truncation == cap
    assert {int(e): c for e, c in ep.terms()} == oracle_pentagonal_coeffs(cap)


def test_eta_prefactor_and_grid():
    e = eta(10)
    assert e.denominator == 24
    assert e.lowest() == F(1, 24)
    assert e.coeff(F(1, 24)) == 1
    assert e.coeff(F(1, 24) + 1) == -1
    assert e.coeff(F(1, 24) + 3) == 0
    assert e.coeff(F(1, 48)) == 0  # off the 1/24 grid


def test_jacobi_rhs_terms():
    rhs = jacobi_rhs(20)
    assert rhs.denominator == 8
    eighth = F(1, 8)
    for off, c in [(0, 1), (1, -3), (3, 5), (6, -7), (10, 9)]:
        assert rhs.coeff(eighth + off) == c
    assert rhs.coeff(eighth + 2) == 0


def _jacobi_rhs_from_terms(order):
    """jacobi_rhs built from Fraction exponents 1/8 + n(2n+1), before it
    was built on integer keys and shifted by its prefactor q^(1/8)."""
    reach = isqrt(int(order))
    terms = {F(1, 8) + n * (2 * n + 1): 4 * n + 1
             for n in range(-reach, reach + 1) if n * (2 * n + 1) < order}
    return FracPowerSeries.from_terms(terms, F(1, 8) + order)


def test_jacobi_rhs_has_the_stored_form_of_from_terms():
    for order in [*range(1, 401), 2000, 50000]:
        series, built = jacobi_rhs(order), _jacobi_rhs_from_terms(order)
        assert (series.denominator, series.truncation, series._scale, series._nums) == \
            (built.denominator, built.truncation, built._scale, built._nums)


def test_jacobi_rhs_window_one():
    rhs = jacobi_rhs(1)
    assert rhs.support() == [F(1, 8)]
    assert rhs.coeff(F(1, 8)) == 1
    with pytest.raises(ValueError):
        jacobi_rhs(0)


# ---------------------------------------------------------------------------
# power / coeff / eq_to_order
# ---------------------------------------------------------------------------

def test_power_zero_is_unit():
    e = eta(10)
    p = e ** 0
    assert p.eq_to_order(FracPowerSeries.one(p.truncation), p.truncation)
    assert e ** 1 is e
    for k in (-1, F(1, 2)):
        with pytest.raises(ValueError):
            e ** k


def test_power_eta_cubed_lowest_term():
    cube = eta(10) ** 3
    assert cube.lowest() == F(1, 8)
    assert cube.coeff(F(1, 8)) == 1


def test_power_square_binomial():
    sq = FracPowerSeries.from_terms({0: 1, 1: -1}, 10) ** 2
    assert [sq.coeff(n) for n in range(3)] == [1, -2, 1]


def test_coeff_eta_values():
    assert eta(5).coeff(F(1, 24)) == 1
    assert (eta(10) ** 3).coeff(F(1, 8) + 6) == -7


def test_coeff_beyond_truncation_errors():
    e = eta(1)
    with pytest.raises(ValueError):
        e.coeff(2)


def test_eq_to_order():
    assert (eta(51) ** 3).eq_to_order(jacobi_rhs(51), 50)
    with pytest.raises(ValueError):
        eta(5).eq_to_order(eta(5), 100)
    assert not eta(3).eq_to_order(eta(3) ** 3, 1)
    a = eta(7)
    assert a.eq_to_order(a, a.truncation)


def test_first_mismatch_reports_lowest_disagreement():
    lhs = eta(10)
    rhs = eta(10) + FracPowerSeries.monomial(F(1, 24) + 2, 5, eta(10).truncation)
    mm = lhs.first_mismatch(rhs, 5)
    assert mm is not None
    e, lc, rc = mm
    assert e == F(1, 24) + 2 and rc - lc == 5


# ---------------------------------------------------------------------------
# property suite: ring axioms, normalization, grid closure
# ---------------------------------------------------------------------------

@st.composite
def series(draw, unit=False):
    d = draw(st.sampled_from([1, 2, 3, 4, 6, 8, 12, 24]))
    t = F(draw(st.integers(5, 20)))
    n_terms = draw(st.integers(1 if unit else 0, 6))
    coeffs = {}
    for _ in range(n_terms):
        k = draw(st.integers(0, int(t) * d - 1))
        c = F(draw(st.integers(-9, 9)), draw(st.integers(1, 9)))
        if c:
            coeffs[k] = c
    if unit:
        coeffs[0] = F(draw(st.integers(1, 9)))
    return FracPowerSeries(d, t, coeffs)


# The product-kernel property tests report the first failing example as
# drawn: shrinking its big-integer operands took 74-120 s when the kernel
# was broken, against seconds to find the failure.  The explain phase needs
# a shrunk example, so it goes too.
NO_SHRINK = [p for p in Phase if p not in (Phase.shrink, Phase.explain)]


def _agree(a, b):
    order = min(a.truncation, b.truncation)
    return a.eq_to_order(b, order)


def _regridded(s, d):
    """s rebuilt from its JSON form with every key on the finer grid d."""
    data = s.to_json_dict()
    step = d // data["denominator"]
    return FracPowerSeries.from_json_dict({
        "denominator": d, "truncation": data["truncation"],
        "terms": [[k * step, n, m] for k, n, m in data["terms"]]})


@settings(max_examples=150, deadline=None)
@given(series(), series())
def test_eq_is_same_truncation_and_agreement_below_it(a, b):
    for x, y in ((a, b), (a, _regridded(a, 24)), (_regridded(b, 24), b)):
        assert (x == y) == (x.truncation == y.truncation
                            and x.eq_to_order(y, x.truncation))
    assert a == _regridded(a, 24) and _regridded(b, 24) == b


def test_eq_needs_the_same_truncation():
    terms = {0: 1, 3: F(-2, 3)}
    assert FracPowerSeries(1, 5, terms) != FracPowerSeries(1, 6, terms)


@settings(max_examples=150, deadline=None, phases=NO_SHRINK)
@given(series(), series())
def test_add_mul_commute(a, b):
    assert (a + b) == (b + a)
    assert _agree(a * b, b * a)


@settings(max_examples=150, deadline=None)
@given(series(), series())
def test_mul_matches_naive_fraction_product(a, b):
    t, expected = oracle_product(a, b)
    prod = a * b
    assert prod.truncation == t
    assert dict(prod.terms()) == expected


@settings(max_examples=100, deadline=None, phases=NO_SHRINK)
@given(series(), series(), series())
def test_associativity_and_distributivity(a, b, c):
    assert _agree((a + b) + c, a + (b + c))
    assert _agree((a * b) * c, a * (b * c))
    assert _agree(a * (b + c), a * b + a * c)


@settings(max_examples=100, deadline=None)
@given(series(unit=True))
def test_unit_times_inverse(a):
    inv = a.invert()
    prod = a * inv
    assert prod.eq_to_order(FracPowerSeries.one(prod.truncation), prod.truncation)


def fraction_inverse(s):
    """The unit recurrence b_n = -(1/c_0) sum_k u_k b_{n-k} on Fractions."""
    d = s.denominator
    (e, c0), *_ = s.terms()
    u = {int((x - e) * d): c for x, c in s.terms()}
    t_unit = s.truncation - e
    b = {0: 1 / c0}
    for n in range(1, (t_unit * d).__ceil__()):
        b[n] = -sum((u[k] * b[n - k] for k in u if 0 < k <= n and b[n - k]), F(0)) / c0
    return FracPowerSeries(d, t_unit - e, {n - int(e * d): c for n, c in b.items()})


@st.composite
def invertible(draw):
    """A series q^e * u on the grids 1, 8 or 24, with a rational u(0) != 0."""
    d = draw(st.sampled_from([1, 8, 24]))
    t = F(draw(st.integers(2, 6)))
    low = draw(st.integers(-2 * d, d - 1))
    coeff = st.builds(F, st.integers(-9, 9), st.integers(1, 9))
    keys = st.integers(low + 1, int(t) * d - 1)
    coeffs = draw(st.dictionaries(keys, coeff, max_size=6))
    coeffs[low] = draw(coeff.filter(bool))
    return FracPowerSeries(d, t, coeffs)


@settings(max_examples=150, deadline=None)
@given(invertible())
def test_invert_matches_fraction_recurrence(a):
    inv = a.invert()
    assert inv == fraction_inverse(a)
    assert inv.denominator == a.denominator


def partition_numbers(order):
    """p(0..order-1), counting the parts 1, 2, ... one at a time."""
    p = [1] + [0] * (order - 1)
    for part in range(1, order):
        for n in range(part, order):
            p[n] += p[n - part]
    return p


# The deterministic cases below reach both sides of invert's sum: the
# partition series is a dense unit with a lacunary (pentagonal) inverse, and
# eta a lacunary unit with a dense inverse; a dense rational unit with
# u0 = 3/4 has dense sides and a scale that grows with every step.

@pytest.mark.parametrize("d, e", [(1, F(0)), (24, F(-1, 24))])
def test_invert_partition_series_to_order_400(d, e):
    p = partition_numbers(400)
    s = FracPowerSeries(d, 400 + e, {int((n + e) * d): c for n, c in enumerate(p)})
    inv = s.invert()
    assert inv == fraction_inverse(s)
    assert inv.truncation == 400 - e
    assert {x + e: c for x, c in inv.terms()} == oracle_pentagonal_coeffs(400)


def test_invert_eta_400():
    s = eta(400)
    inv = s.invert()
    assert inv == fraction_inverse(s)
    assert {x + F(1, 24): c for x, c in inv.terms()} == dict(enumerate(partition_numbers(400)))


@pytest.mark.parametrize("d, e", [(1, F(0)), (8, F(3, 8))])
def test_invert_dense_rational_unit(d, e):
    coeffs = {F(k): F((-1) ** k * (k % 7 + 1), k % 5 + 1) for k in range(1, 40)}
    coeffs[F(0)] = F(3, 4)
    s = FracPowerSeries(d, 40 + e, {int((k + e) * d): c for k, c in coeffs.items()})
    inv = s.invert()
    assert inv == fraction_inverse(s)
    assert len(inv.support()) == 40


@settings(max_examples=100, deadline=None)
@given(series(), series())
def test_no_stored_zeros_and_grid_closure(a, b):
    for s in (a + b, a * b, a - b):
        assert all(c != 0 for _, c in s.terms())
        assert all(type(e) is Fraction for e, _ in s.terms())
        assert all((e * s.denominator).denominator == 1 for e, _ in s.terms())
        assert all(e < s.truncation for e, _ in s.terms())


# ---------------------------------------------------------------------------
# the packed product kernel
# ---------------------------------------------------------------------------

@st.composite
def packed_operand(draw):
    """A series with 0 to 40 terms from a negative lowest key up, and integer
    or rational coefficients up to about 2^80 whose denominators can have a
    large lcm, so that every slot width of the kernel occurs."""
    d = draw(st.sampled_from([1, 2, 3, 8, 24]))
    low = draw(st.integers(-3 * d, d))
    t = F(draw(st.integers(low // d + 1, low // d + 8)))
    big = 2 ** draw(st.sampled_from([2, 7, 15, 31, 63, 80]))
    coeff = st.one_of(st.integers(-big, big),
                      st.builds(F, st.integers(-big, big), st.integers(1, 10 ** 6)))
    keys = st.integers(low, int(t) * d - 1)
    return FracPowerSeries(d, t, draw(st.dictionaries(keys, coeff, max_size=40)))


@settings(max_examples=200, deadline=None, phases=NO_SHRINK)
@given(packed_operand(), packed_operand())
def test_packed_product_matches_naive_fraction_product(a, b):
    t, expected = oracle_product(a, b)
    prod = a * b
    assert prod.truncation == t
    assert prod.denominator == lcm(a.denominator, b.denominator)
    assert dict(prod.terms()) == expected


@settings(max_examples=100, deadline=None)
@given(packed_operand(), st.integers(2, 5))
def test_power_equals_repeated_product(a, k):
    repeated = a
    for _ in range(k - 1):
        repeated = repeated * a
    power = a ** k
    assert power.truncation == repeated.truncation
    assert power.denominator == repeated.denominator
    assert power == repeated


@pytest.mark.parametrize("shifted", [True, False])
@settings(max_examples=60, deadline=None, phases=NO_SHRINK)
@given(a=packed_operand(), b=packed_operand(), k=st.integers(2, 5))
def test_each_kernel_path_matches_the_oracle(shifted, a, b, k):
    # The path is forced, so that every operand shape goes through shifted
    # adds and through the packed product alike.
    with mock.patch.object(qseries, "_lacunary", lambda terms, width, slots: shifted):
        t, expected = oracle_product(a, b)
        prod = a * b
        assert prod.truncation == t
        assert prod.denominator == lcm(a.denominator, b.denominator)
        assert dict(prod.terms()) == expected
        repeated = a
        for _ in range(k - 1):
            repeated = repeated * a
        power = a ** k
    assert power.truncation == repeated.truncation
    assert power.denominator == repeated.denominator
    assert power == repeated


def _recording_paths(monkeypatch):
    """Patch the kernel's path choice to log (terms, width, shifted) per
    choice, unchanged; return the log."""
    log = []
    lacunary = qseries._lacunary

    def recording(terms, width, slots):
        log.append((terms, width, lacunary(terms, width, slots)))
        return log[-1][2]

    monkeypatch.setattr(qseries, "_lacunary", recording)
    return log


def test_products_at_the_width_bound(monkeypatch):
    # Each coefficient below equals the kernel's bound n_a^k max|a|^k max|b|,
    # so a slot narrower than its bit length plus a sign bit misreads it; the
    # lengths 1..140 reach slots of 1, 2, 4 and 8 bytes and wider ones on each
    # path.  Series of one or two terms take shifted adds.  The 40 equal
    # terms of `flat` take the packed product, and the top coefficient of
    # their square is the bound, 40 c^2.
    log = _recording_paths(monkeypatch)
    for bits in range(1, 141):
        for c in (2 ** bits - 1, -(2 ** bits - 1), -(2 ** bits)):
            mono = FracPowerSeries(1, 10, {1: c})
            pair = FracPowerSeries(2, 5, {-1: c, 1: c})
            for a, b in ((mono, FracPowerSeries.monomial(2, 1, 10)), (pair, pair)):
                t, expected = oracle_product(a, b)
                assert dict((a * b).terms()) == expected
            assert dict((mono ** 3).terms()) == {F(3): F(c) ** 3}
            assert dict((pair ** 2).terms()) == {F(-1): F(c) ** 2, F(0): 2 * F(c) ** 2,
                                                F(1): F(c) ** 2}
            flat, twin = (FracPowerSeries(1, 40, dict.fromkeys(range(40), c)) for _ in "ab")
            square = {F(i): (i + 1) * F(c) ** 2 for i in range(40)}
            assert dict((flat * twin).terms()) == square
            assert dict((flat ** 2).terms()) == square
    for shifted in (True, False):
        widths = {width for _, width, s in log if s == shifted}
        assert {1, 2, 4, 8} <= widths and max(widths) > 8


def test_wide_sparse_pair(monkeypatch):
    # Two 2-term series whose keys have gcd 1 span 3 * 10^5 slots of one
    # byte: the kernel applies the factor as two shifted adds.
    log = _recording_paths(monkeypatch)
    a = FracPowerSeries(1, 300000, {0: 1, 100000: 1})
    b = FracPowerSeries(1, 300000, {0: 1, 100001: -1})
    start = time.perf_counter()
    prod = a * b
    elapsed = time.perf_counter() - start
    assert dict(prod.terms()) == {F(0): 1, F(100000): 1, F(100001): -1, F(200001): -1}
    assert prod.truncation == 300000
    assert log == [(2, 1, True)]
    assert elapsed < 2.0


def test_power_packs_its_base_once(monkeypatch):
    # eta(60) ** 3 takes the packed product: its 13 terms against 60 slots
    # of 2 bytes.  The base is packed once and is both operands of a square.
    e = eta(60)
    expected = e * e * e
    log = _recording_paths(monkeypatch)
    packed = []
    pack = qseries._pack

    def counting(nums, base, step, width, slots):
        packed.append(len(nums))
        return pack(nums, base, step, width, slots)

    monkeypatch.setattr(qseries, "_pack", counting)
    assert e ** 3 == expected
    assert log == [(13, 2, False)]
    assert packed == [13]


def test_lacunary_factor_on_the_right_is_shifted(monkeypatch):
    # dense * eta: the product takes eta, the operand with fewer terms, as
    # the factor of shifted adds, on whichever side it stands.
    e = eta(300)
    dense = e.invert()
    log = _recording_paths(monkeypatch)
    prod = dense * e
    assert [(terms, s) for terms, _, s in log] == [(len(e.support()), True)]
    assert len(dense.support()) == 300
    assert prod == FracPowerSeries.one(300)


def test_power_does_not_multiply_factor_by_factor(monkeypatch):
    def refuse(self, other):
        raise AssertionError("__pow__ went through __mul__")

    e = eta(60)
    expected = dict((e * e * e).terms())
    monkeypatch.setattr(FracPowerSeries, "__mul__", refuse)
    assert dict((e ** 3).terms()) == expected


def test_first_mismatch_returns_fractions_at_each_scale():
    a = FracPowerSeries(8, 3, {1: F(1, 6), 9: F(5, 4)})
    b = FracPowerSeries(24, 3, {3: F(1, 6), 27: F(7, 4), 30: F(1, 9)})
    assert a.first_mismatch(b, 3) == (F(9, 8), F(5, 4), F(7, 4))
    assert a.first_mismatch(b, F(9, 8)) is None
    assert b.first_mismatch(a, 2) == (F(9, 8), F(7, 4), F(5, 4))
    assert a.first_mismatch(a - a + a, 3) is None
    zero = FracPowerSeries.zero(3)
    assert zero.first_mismatch(b, 3) == (F(1, 8), F(0), F(1, 6))
    assert all(type(x) is Fraction for x in zero.first_mismatch(b, 3))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_json_round_trip():
    e = eta(30) ** 3
    data = e.to_json_dict()
    assert data["denominator"] == 24
    assert data["terms"] == sorted(data["terms"])
    back = FracPowerSeries.from_json_dict(json.loads(json.dumps(data)))
    assert back == e


def test_json_terms_sorted_by_exponent():
    data = jacobi_rhs(30).to_json_dict()
    exps = [row[0] for row in data["terms"]]
    assert exps == sorted(exps)


def test_json_reads_unreduced_negative_and_zero_coefficients():
    rows = [[-3, 2, 4], [1, 1, -2], [2, 0, 5], [9, -6, -4], [16, 7, 1], [20, 10, 5]]
    s = FracPowerSeries.from_json_dict({"denominator": 8, "truncation": [5, 2], "terms": rows})
    expected = {k: F(cn, cd) for k, cn, cd in rows if cn and k < 20}  # 20/8 is the truncation
    assert dict(s.terms()) == {F(k, 8): c for k, c in expected.items()}
    assert s.to_json_dict() == {
        "denominator": 8, "truncation": [5, 2],
        "terms": [[k, c.numerator, c.denominator] for k, c in sorted(expected.items())]}
    assert s == FracPowerSeries(8, F(5, 2), expected)


def test_json_rejects_zero_denominators_and_non_integers():
    with pytest.raises(ValueError):
        FracPowerSeries.from_json_dict({"denominator": 0, "truncation": [5, 1], "terms": []})
    for row in ([1, 3, 0], [1, 0, 0]):
        with pytest.raises(ZeroDivisionError):
            FracPowerSeries.from_json_dict({"denominator": 1, "truncation": [5, 1],
                                            "terms": [[0, 1, 1], row]})
    for row in ([1, 1.5, 1], [1, 1, 2.0]):
        with pytest.raises(TypeError):
            FracPowerSeries.from_json_dict({"denominator": 1, "truncation": [5, 1],
                                            "terms": [[0, 1, 1], row]})


def test_equal_series_from_different_routes():
    a = FracPowerSeries(8, 6, {1: F(3, 4), 9: F(-5, 6), 17: 2})
    prod = a * a.invert()
    assert prod.denominator == 8
    assert prod == FracPowerSeries.one(prod.truncation)
    half = FracPowerSeries.monomial(1, F(1, 2), 3)
    assert half + half == FracPowerSeries.monomial(1, 1, 3)
    assert (half + half).to_json_dict()["terms"] == [[1, 1, 1]]
    assert FracPowerSeries.from_json_dict(
        {"denominator": 4, "truncation": [3, 1], "terms": [[4, -3, -6]]}) == half
    assert half.scale(6) - FracPowerSeries.monomial(1, 3, 3) == FracPowerSeries.zero(3)


def test_constructor_rejects_keys_off_the_grid():
    with pytest.raises(ValueError):
        FracPowerSeries(8, 10, {F(1, 3): 1, F(17, 2): 5})
    with pytest.raises(ValueError):
        FracPowerSeries.from_json_dict({"denominator": 8, "truncation": [10, 1],
                                        "terms": [[0.5, 1, 1]]})
    assert FracPowerSeries(8, 10, {F(16, 2): 5}).support() == [F(1)]
