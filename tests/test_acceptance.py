"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import contextlib
import functools
import io
import random
import time
from fractions import Fraction

from oddtrace import queer
from oddtrace.characters import bgg_odd_trace, compare_series, resolve_signs
from oddtrace.cli import main as cli_main
from oddtrace.modcheck import TauPoint, check_S, check_T
from oddtrace.pbw import (
    enumerate_fermion_monomials,
    enumerate_ns_monomials,
    fermion_odd_trace,
    signed_monomial_count,
)
from oddtrace.qseries import FracPowerSeries, eta, euler_product, jacobi_rhs
from oddtrace.superalgebras import g0_square_value, minimal_model_spectrum

F = Fraction
EIGHTH = F(1, 8)


def criterion(number, description):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number} ({description}): FAIL")
                raise
            print(f"criterion {number} ({description}): PASS")
        return wrapper
    return deco


@criterion(1, "eta^3 equals the Jacobi sum to exponent 1/8 + 100")
def test_criterion_1_jacobi_identity():
    t0 = time.monotonic()
    lhs = eta(100) ** 3
    rhs = jacobi_rhs(100)
    assert lhs.eq_to_order(rhs, EIGHTH + 100)
    assert time.monotonic() - t0 < 5.0


@criterion(2, "brute-force fermion odd trace to level 30 equals eta")
def test_criterion_2_fermion_trace():
    t0 = time.monotonic()
    report = fermion_odd_trace(30)
    target = eta(31)
    assert report.series.eq_to_order(target, F(1, 24) + 31)
    for n, tr in report.levels:  # coefficient by coefficient, per level
        assert tr == target.coeff(F(1, 24) + n)
    assert time.monotonic() - t0 < 10.0


@criterion(3, "signed monomial counts vanish for 1 <= N <= 20")
def test_criterion_3_cancellation():
    assert signed_monomial_count(0) == 1
    for n in range(1, 21):
        assert signed_monomial_count(n) == 0
    # independent q-series route: prod(1-q^n) * prod(1-q^n)^{-1} = 1
    ep = euler_product(21)
    product = ep * ep.invert()
    one = FracPowerSeries.one(product.truncation)
    assert product.eq_to_order(one, product.truncation)
    for n in range(21):
        assert product.coeff(n) == signed_monomial_count(n)


@criterion(4, "resolved-sign resolution route equals eta^3/4 to exponent 1/8 + 100")
def test_criterion_4_bgg_route():
    order = EIGHTH + 100
    signs = resolve_signs(order)
    ks = sorted(k for k, _ in signs.items())
    assert ks == list(range(-7, 7))  # every k with k(2k+1) <= 100
    for k, s in signs.items():
        assert s * abs(4 * k + 1) == 4 * k + 1
        assert abs(4 * k + 1) != 0  # each exponent carries one nonzero term,
        # so the matching assignment is unique
    series = bgg_odd_trace(order, signs)
    target = (eta(100) ** 3) * F(1, 4)
    assert series.eq_to_order(target, order)
    # flipping any sign breaks the match at that k's exponent
    flipped = dict(signs.items())
    flipped[0] = -1
    bad = bgg_odd_trace(order, flipped)
    assert bad.first_mismatch(target, order)[0] == EIGHTH


@criterion(5, "spectrum (2,8) gives c = -21/4, h in {-3/32, -7/32}, G_0^2 = 1/8")
def test_criterion_5_spectrum():
    entries = minimal_model_spectrum(2, 8)
    assert len(entries) == 2
    assert all(e.c == F(-21, 4) for e in entries)
    assert {e.h for e in entries} == {F(-3, 32), F(-7, 32)}
    assert g0_square_value(F(-21, 4), F(-3, 32)) == F(1, 8)


@criterion(6, "odd trace supersymmetric on 1000 random pairs; Q_1 probe 1-dimensional")
def test_criterion_6_queer_functional():
    rng = random.Random(61803)
    for _ in range(1000):
        n = rng.randint(1, 4)
        a = queer.random_homogeneous_queer(n, rng)
        b = queer.random_homogeneous_queer(n, rng)
        sgn = (-1) ** (a.parity * b.parity)
        assert queer.odd_trace(queer.queer_mul(a, b)) == \
            sgn * queer.odd_trace(queer.queer_mul(b, a))
    pairs = [(queer.random_homogeneous_queer(1, rng),
              queer.random_homogeneous_queer(1, rng)) for _ in range(50)]
    basis = queer.q1_functional_solution_space(pairs)
    assert len(basis) == 1
    assert basis[0] == (F(0), F(1))


@criterion(7, "S/T residuals at order 200, tau = 0.1 + 0.9i")
def test_criterion_7_modular_residuals():
    t0 = time.monotonic()
    tau = TauPoint(0.1, 0.9)
    e = eta(200)
    cube = eta(200) ** 3
    assert check_S(e, F(1, 2), tau, 1).residual < 1e-8
    assert check_S(cube, F(3, 2), tau, 1).residual < 1e-8
    assert check_S(cube, F(3, 2), tau, -1).residual > 1e-2
    assert check_T(e, F(1, 2), tau).residual < 1e-10
    assert check_T(cube, F(3, 2), tau).residual < 1e-10
    assert time.monotonic() - t0 < 1.0


@criterion(8, "ring axioms, enumeration generating functions, CLI determinism")
def test_criterion_8_property_suites():
    # qseries ring axioms on seeded random series to order 20
    rng = random.Random(271828)

    def random_series():
        d = rng.choice([1, 2, 4, 8, 24])
        coeffs = {rng.randint(0, 20 * d - 1): F(rng.randint(-9, 9), rng.randint(1, 9))
                  for _ in range(rng.randint(0, 6))}
        return FracPowerSeries(d, F(20), coeffs)

    for _ in range(40):
        a, b, c = random_series(), random_series(), random_series()
        assert (a + b) == (b + a)
        order = min((a * b).truncation, (b * a).truncation)
        assert (a * b).eq_to_order(b * a, order)
        lhs, rhs = (a * b) * c, a * (b * c)
        assert lhs.eq_to_order(rhs, min(lhs.truncation, rhs.truncation))
        lhs, rhs = a * (b + c), a * b + a * c
        assert lhs.eq_to_order(rhs, min(lhs.truncation, rhs.truncation))

    # enumeration counts against generating-function products
    signed = euler_product(16)  # prod(1-q^n)
    unsigned = _distinct_gf(16)  # prod(1+q^n)
    gf_pairs = signed.invert() * unsigned
    for n in range(16):
        assert len(enumerate_fermion_monomials(n)) == 2 * unsigned.coeff(n)
        assert len(enumerate_ns_monomials(n, 1)) == gf_pairs.coeff(n)
        assert sum((-1) ** m.fermionic_length for m in enumerate_fermion_monomials(n)) \
            == 2 * signed.coeff(n)

    # CLI byte-determinism
    for argv in (["jacobi-verify", "--order", "40"], ["spectrum", "--p", "2", "--pp", "8"]):
        outputs = []
        for _ in range(2):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli_main(argv)
            assert code == 0
            outputs.append(buf.getvalue())
        assert outputs[0].encode() == outputs[1].encode()


def _distinct_gf(order):
    """prod (1 + q^n) truncated below `order`."""
    out = FracPowerSeries.one(order)
    for n in range(1, order):
        out = out * FracPowerSeries.from_terms({0: 1, n: 1}, order)
    return out
