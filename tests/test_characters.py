import json
from fractions import Fraction

import pytest

from oddtrace.characters import (
    SignResolutionError,
    _bgg_route,
    _fermion_route,
    _resolution_terms,
    bgg_odd_trace,
    compare_series,
    resolve_signs,
    verify_jacobi,
)
from oddtrace.errors import ConstraintError
from oddtrace.qseries import FracPowerSeries, eta
from oddtrace.superalgebras import central_charge, conformal_weight

F = Fraction
EIGHTH = F(1, 8)


def test_sign_assignment_validation():
    with pytest.raises(ValueError):
        bgg_odd_trace(EIGHTH + 1, {0: 2})


# ---------------------------------------------------------------------------
# bgg_odd_trace
# ---------------------------------------------------------------------------

def test_bgg_single_term():
    signs = {0: 1}
    s = bgg_odd_trace(EIGHTH + 1, signs)
    assert s.support() == [EIGHTH]
    assert s.coeff(EIGHTH) == F(1, 4)


def test_bgg_empty_window():
    s = bgg_odd_trace(F(1, 16), {})
    assert s.is_zero()


def test_bgg_all_plus_magnitudes():
    signs = {k: 1 for k in range(-3, 3)}
    s = bgg_odd_trace(EIGHTH + 12, signs)
    expected = {EIGHTH: F(1, 4), EIGHTH + 1: F(3, 4), EIGHTH + 3: F(5, 4),
                EIGHTH + 6: F(7, 4), EIGHTH + 10: F(9, 4)}
    assert {e: s.coeff(e) for e in s.support()} == expected


def test_bgg_with_resolved_signs_matches_eta_cubed_quarter():
    order = EIGHTH + 12
    s = bgg_odd_trace(order, resolve_signs(order))
    target = (eta(12) ** 3) * F(1, 4)
    assert s.eq_to_order(target, order)


def test_bgg_requires_sign_coverage():
    with pytest.raises(ValueError, match="k=-1"):
        bgg_odd_trace(EIGHTH + 2, {0: 1})


def test_bgg_support_matches_eta_cubed_to_200():
    order = F(200)
    s = bgg_odd_trace(order, resolve_signs(order))
    cube = eta(200) ** 3
    assert s.support() == [e for e in cube.support() if e < order]
    assert s.support() == sorted(EIGHTH + k * (2 * k + 1)
                                 for k in range(-10, 11)
                                 if k * (2 * k + 1) < order - EIGHTH)


# ---------------------------------------------------------------------------
# resolve_signs
# ---------------------------------------------------------------------------

def test_resolve_signs_smallest_windows():
    with pytest.raises(ConstraintError, match="at least 1/8"):
        resolve_signs(F(1, 16))
    assert resolve_signs(EIGHTH) == {0: 1}
    assert resolve_signs(EIGHTH + 1) == {0: 1, -1: -1}


def test_resolve_signs_follow_sign_of_4k_plus_1():
    signs = resolve_signs(EIGHTH + 100)
    assert len(signs) == 14  # k = -7..6
    for k, s in signs.items():
        assert s * abs(4 * k + 1) == 4 * k + 1


def test_resolve_signs_window_stable():
    small = resolve_signs(EIGHTH + 10)
    big = resolve_signs(EIGHTH + 120)
    for k, s in small.items():
        assert big[k] == s


def test_resolve_signs_detects_impossible_target(monkeypatch, capsys):
    # Corrupt the resolution terms; resolution must refuse to fit them, and
    # the command reports the refusal as a failed check.
    from oddtrace import characters, cli

    real = characters._resolution_terms

    def corrupted(max_exponent):
        return [(k, e, t * 7) for k, e, t in real(max_exponent)]
    monkeypatch.setattr(characters, "_resolution_terms", corrupted)
    with pytest.raises(SignResolutionError):
        resolve_signs(EIGHTH + 1)
    assert cli.main(["resolve-signs", "--order", "9/8"]) == 1
    assert json.loads(capsys.readouterr().out) == {
        "error": "no sign matches at k=0: target/magnitude = 1/7"}


def test_resolve_signs_agree_with_resolution_signs():
    # The signs read off eta^3/4 are the signs of the terms that the
    # resolution route derives.  The last window holds 32 terms, k = -16..15.
    for order in (EIGHTH, EIGHTH + 1, F(809, 8), EIGHTH + 500):
        assert resolve_signs(order) == _bgg_route(order)[0]
    assert len(resolve_signs(EIGHTH + 500)) == 32


# ---------------------------------------------------------------------------
# the resolution terms from the (2, 8) Kac labels
# ---------------------------------------------------------------------------

def _verma_gf(order):
    """Coefficients of the Verma character 2 prod (1+q^n)/(1-q^n), levels < order."""
    out = [2] + [0] * (order - 1)
    for n in range(1, order):
        for m in range(order - 1, n - 1, -1):  # times 1 + q^n
            out[m] += out[m - n]
        for m in range(n, order):  # times 1/(1 - q^n)
            out[m] += out[m - n]
    return out


def _times_verma(signs_by_level, order):
    verma = _verma_gf(order)
    return [sum(sign * verma[n - level] for level, sign in signs_by_level.items()
                if level <= n) for n in range(order)]


def test_resolution_terms_k0():
    assert _resolution_terms(EIGHTH) == [(0, EIGHTH, F(1, 4))]


def test_resolution_exponents_are_g0_squares_of_kac_weights():
    # Key k = 2j has label (1 + 4j, 2), key k = -2j-1 has label (1 + 4j, -2).
    c = central_charge(2, 8)
    terms = _resolution_terms(F(2809, 8))
    assert len(terms) == 27
    for k, exponent, term in terms:
        j, s = (k // 2, 2) if k % 2 == 0 else ((-k - 1) // 2, -2)
        assert exponent == conformal_weight(2, 8, 1 + 4 * j, s) - c / 24
        # pinned to the G_0 eigenvalue: term^2 = exponent/2
        assert term ** 2 == exponent / 2
        assert term == F(4 * k + 1, 4)


def test_character_signs_give_the_irreducible_dimensions():
    # sum eps q^level times the Verma character is the irreducible character:
    # the Gram ranks at levels 0..8, and nonnegative everywhere.
    order = 41
    # key k = 2j carries character sign +1, key k = -2j-1 carries -1
    eps = {int(e - EIGHTH): 1 if k % 2 == 0 else -1
           for k, e, _ in _resolution_terms(EIGHTH + order - 1)}
    dims = _times_verma(eps, order)
    assert dims[:9] == [2, 2, 4, 6, 8, 12, 18, 24, 32]
    assert min(dims) >= 0
    # The alternating (-1)^d over the same levels is not a character.
    alternating = {level: (-1) ** d for d, level in enumerate(sorted(eps))}
    assert _times_verma(alternating, order)[3] == 10


def test_resolution_route_reads_the_kac_weights(monkeypatch):
    from oddtrace import characters

    real = characters.conformal_weight
    monkeypatch.setattr(characters, "conformal_weight",
                        lambda p, pp, r, s: real(p, pp, r, s) + 1)
    # Every exponent moves up by 1, so nothing sits at eta^3/4's 1/8.
    report = _bgg_route(EIGHTH + 20)[2]
    assert not report.passed
    assert report.first_discrepancy == (EIGHTH, 0, F(1, 4))


# ---------------------------------------------------------------------------
# verify_jacobi
# ---------------------------------------------------------------------------

def test_verify_jacobi_passes_to_100():
    report = verify_jacobi(100)
    assert report.passed and report.first_discrepancy is None
    assert report.order == 100


def test_verify_jacobi_two_coefficients():
    assert verify_jacobi(EIGHTH + 2).passed


def test_verify_jacobi_rejects_tiny_order():
    with pytest.raises(ValueError):
        verify_jacobi(F(1, 16))


def test_compare_reports_injected_fault_at_lowest_exponent():
    cube = eta(10) ** 3
    bad = cube + FracPowerSeries.monomial(EIGHTH, 1, cube.truncation)  # coeff 1 -> 2
    report = compare_series("perturbed", cube, bad, 5)
    assert not report.passed
    e, lhs, rhs = report.first_discrepancy
    assert e == EIGHTH and lhs == 1 and rhs == 2


# ---------------------------------------------------------------------------
# _fermion_route: the trace and its check against eta
# ---------------------------------------------------------------------------

def test_verify_fermion_eta_30():
    assert _fermion_route(30)[1].passed


def test_verify_fermion_eta_level_one():
    assert _fermion_route(1)[1].passed


def test_verify_fermion_eta_validates():
    with pytest.raises(ConstraintError, match="^level must be at least 1$"):
        _fermion_route(0)


def test_fermion_fault_without_sign_fails_at_level_one():
    # Unsigned variant: every monomial contributes +1/2, so level N carries
    # the plain distinct-part count instead of the signed one.
    from oddtrace.pbw import enumerate_fermion_monomials

    terms = {}
    for n in range(6):
        terms[F(1, 24) + n] = F(len(enumerate_fermion_monomials(n)), 2)
    unsigned = FracPowerSeries.from_terms(terms, F(1, 24) + 6)
    report = compare_series("unsigned-fault", unsigned, eta(6), F(1, 24) + 6)
    assert not report.passed
    assert report.first_discrepancy[0] == F(1, 24) + 1


# ---------------------------------------------------------------------------
# _bgg_route: the resolution-route series and its check against eta^3/4
# ---------------------------------------------------------------------------

def test_verify_bgg_to_100():
    assert _bgg_route(100)[2].passed


def test_verify_bgg_single_term_window():
    # Window covering only the k=0 exponent: compares 1/4 against 1/4.
    report = _bgg_route(EIGHTH + 1)[2]
    assert report.passed


def test_bgg_route_does_not_read_its_target(monkeypatch):
    # Negate one coefficient of eta^3/4: signs read off the target would
    # follow it and still pass; derived signs must expose it.
    from oddtrace import characters

    real = characters._eta_cubed_quarter

    def corrupted(order):
        target = real(order)
        e = EIGHTH + 10
        return target - FracPowerSeries.monomial(e, 2 * target.coeff(e), target.truncation)
    monkeypatch.setattr(characters, "_eta_cubed_quarter", corrupted)
    report = _bgg_route(EIGHTH + 20)[2]
    assert not report.passed
    assert report.first_discrepancy[0] == EIGHTH + 10


def test_verify_bgg_all_minus_fails_at_lowest_exponent():
    order = EIGHTH + 5
    all_minus = {k: -1 for k in range(-2, 3)}
    lhs = bgg_odd_trace(order, all_minus)
    target = (eta(6) ** 3) * F(1, 4)
    report = compare_series("all-minus", lhs, target, order)
    assert not report.passed
    assert report.first_discrepancy[0] == EIGHTH


def test_eta_cubed_magnitudes_recover_4k_plus_1():
    cube = eta(120) ** 3
    for e in cube.support():
        # recover k from the exponent offset m = k(2k+1)
        m = e - EIGHTH
        k = next(k for k in range(-8, 9) if k * (2 * k + 1) == m)
        assert abs(cube.coeff(e)) == abs(4 * k + 1)
