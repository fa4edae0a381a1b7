import cmath
import math
from fractions import Fraction

import pytest

from oddtrace.cli import main
from oddtrace.modcheck import (TWO_PI, ModularResidual, TauPoint, check_S, check_T,
                               eval_series)
from oddtrace.qseries import FracPowerSeries, eta, euler_product

F = Fraction

TAU = TauPoint(0.1, 0.9)


def test_tau_point_requires_upper_half_plane():
    with pytest.raises(ValueError):
        TauPoint(0.3, -1.0)
    with pytest.raises(ValueError):
        TauPoint(0.3, 0.0)


def test_tau_point_requires_finite_parts_and_names_them():
    with pytest.raises(ValueError, match="nan"):
        TauPoint(float("nan"), 0.9)
    with pytest.raises(ValueError, match="inf"):
        TauPoint(0.1, float("inf"))
    with pytest.raises(ValueError, match="inf"):
        TauPoint(float("-inf"), 0.9)
    # A NaN or -inf imaginary part is not finite before it is not positive.
    for im in (float("nan"), float("-inf")):
        with pytest.raises(ValueError, match="finite"):
            TauPoint(0.1, im)


def test_eval_constant_series():
    # The tail cannot be literally zero: exactness beyond the truncation is
    # not representable, so the bound is |q|^T -- negligible, not absent.
    one = FracPowerSeries.one(50)
    v, tail = eval_series(one, TauPoint(0.37, 1.4))
    assert v == 1.0 + 0j
    assert tail < 1e-100


def test_eval_single_fractional_term_at_i():
    s = FracPowerSeries.monomial(F(1, 8), 1, 10)
    v, _ = eval_series(s, TauPoint(0.0, 1.0))
    assert abs(v - math.exp(-math.pi / 4)) < 1e-15


def test_eval_eta_at_i_matches_classical_value():
    # Classical special value: eta(i) = Gamma(1/4) / (2 * pi^(3/4)).
    oracle = math.gamma(0.25) / (2.0 * math.pi ** 0.75)
    v, tail = eval_series(eta(200), TauPoint(0.0, 1.0))
    assert abs(abs(v) - oracle) < max(tail, 1e-12)
    assert abs(v.imag) < 1e-12  # the expansion is real on the imaginary axis


def test_eval_tail_bound_sound_on_grid():
    # Doubling the truncation order may move the value by at most the bound.
    for im in (0.8, 1.0, 1.4, 2.0):
        for re in (-0.4, 0.0, 0.3):
            tau = TauPoint(re, im)
            for s_small, s_big in [(eta(30), eta(60)),
                                   (eta(30) ** 3, eta(60) ** 3)]:
                v1, tail1 = eval_series(s_small, tau)
                v2, _ = eval_series(s_big, tau)
                assert abs(v1 - v2) <= tail1


@pytest.mark.parametrize("re, im", [(0.1, 0.9), (0.0, 1.0), (-0.3, 0.9), (0.45, 1.2),
                                     (0.3, 1.1), (0.3, 0.8), (-0.4, 2.0)])
def test_eval_eta_matches_mpmath_q_pochhammer(re, im):
    # Independent oracle: eta = q^(1/24) (q; q)_inf with mpmath's q-Pochhammer.
    mpmath = pytest.importorskip("mpmath")
    tau = TauPoint(re, im)
    with mpmath.workdps(30):
        q = mpmath.exp(2j * mpmath.pi * tau.z)
        oracle = complex(mpmath.exp(2j * mpmath.pi * tau.z / 24) * mpmath.qp(q))
    e = eta(60)
    for series, expected in [(e, oracle), (e ** 3, oracle ** 3)]:
        v, tail = eval_series(series, tau)
        assert abs(v - expected) <= tail + 1e-12


def fraction_sum(s, tau):
    """Reference: the sum over `terms()`, one reduced Fraction exponent and
    coefficient per term, each turned into a float."""
    qabs = math.exp(-TWO_PI * tau.im)
    value = 0j
    gmax = 0.0
    for e, c in s.terms():
        value += float(c) * cmath.exp(TWO_PI * 1j * tau.z * float(e))
        gmax = max(gmax, abs(float(c)))
    return value, max(1.0, gmax) * qabs ** float(s.truncation) / (1.0 - qabs)


def _signed_rational_series():
    # negative rational coefficients, unreduced in the input, on grid 24
    return FracPowerSeries(24, F(40), {k: F((-1) ** k * (k + 3), 6 + k % 9)
                                       for k in range(1, 960, 11)})


@pytest.mark.parametrize("series", [
    lambda: eta(350),
    lambda: eta(350) ** 3,
    lambda: euler_product(60).invert().scale(F(2, 3)).shift(F(1, 8)),
    _signed_rational_series,
], ids=["eta", "eta^3", "rational", "signed"])
@pytest.mark.parametrize("re, im", [(0.1, 0.9), (-0.45, 0.8), (0.45, 1.2), (0.1, 5.0),
                                     (0.3, 0.8)])
def test_eval_equals_the_fraction_sum_exactly(series, re, im):
    # int / int true division is correctly rounded, as float(Fraction) is,
    # and the terms are summed in the same order, so the floats are equal.
    s = series()
    tau = TauPoint(re, im)
    assert eval_series(s, tau) == fraction_sum(s, tau)


def test_modcheck_needs_no_fraction_terms(monkeypatch, capsys):
    def refuse(self):
        raise AssertionError("terms() called")

    monkeypatch.setattr(FracPowerSeries, "terms", refuse)
    s = eta(80) ** 3
    eval_series(s, TAU)
    assert check_T(s, F(3, 2), TAU).residual < 1e-10
    assert check_S(s, F(3, 2), TAU, 1).residual < 1e-8
    assert main(["modcheck"]) == 0
    capsys.readouterr()


# ---------------------------------------------------------------------------
# T transformation
# ---------------------------------------------------------------------------

def test_check_T_eta():
    res = check_T(eta(200), F(1, 2), TauPoint(0.3, 1.1))
    assert res.transformation == "T"
    assert res.residual < 1e-10


def test_check_T_eta_cubed():
    res = check_T(eta(200) ** 3, F(3, 2), TauPoint(0.3, 1.1))
    assert res.residual < 1e-10


def test_check_T_multiplier_is_forced_by_lowest_exponent():
    # A pure q^(1/8) term transforms exactly by e^(i pi/4).
    s = FracPowerSeries.monomial(F(1, 8), 1, 10)
    tau = TauPoint(0.2, 1.0)
    v0, _ = eval_series(s, tau)
    v1, _ = eval_series(s, TauPoint(1.2, 1.0))
    assert abs(v1 - cmath.exp(1j * math.pi / 4) * v0) < 1e-15
    assert check_T(s, F(1, 2), tau).residual < 1e-15


def test_check_T_constant_series_exact_zero():
    res = check_T(FracPowerSeries.one(20), F(0), TAU)
    assert res.residual == 0.0


# ---------------------------------------------------------------------------
# S transformation
# ---------------------------------------------------------------------------

def test_check_S_eta_weight_half():
    res = check_S(eta(200), F(1, 2), TAU, 1)
    assert res.residual < 1e-8


def test_check_S_eta_cubed_weight_three_halves():
    res = check_S(eta(200) ** 3, F(3, 2), TAU, 1)
    assert res.residual < 1e-8


def test_check_S_fixed_point_i():
    res = check_S(eta(200), F(1, 2), TauPoint(0.0, 1.0), 1)
    assert res.residual < 1e-10


def test_check_S_wrong_multiplier_fails():
    res = check_S(eta(200) ** 3, F(3, 2), TAU, -1)
    assert res.residual > 1e-2


def test_check_S_region_restriction():
    with pytest.raises(ValueError, match="standard-position"):
        check_S(eta(50), F(1, 2), TauPoint(0.9, 1.0), 1)
    with pytest.raises(ValueError, match="standard-position"):
        check_S(eta(50), F(1, 2), TauPoint(0.1, 0.5), 1)


def test_check_S_residual_decreases_with_order():
    # Truncation error dominates at tiny orders; it must shrink (up to the
    # double-precision floor) as the order grows.
    tau = TauPoint(0.3, 0.8)
    residuals = [check_S(eta(n), F(1, 2), tau, 1).residual for n in (2, 4, 8, 60)]
    for r_small, r_big in zip(residuals, residuals[1:]):
        assert r_big <= r_small + 1e-12
    assert residuals[0] > 1e-9  # the order-2 truncation really is visible
    assert residuals[-1] < 1e-12
