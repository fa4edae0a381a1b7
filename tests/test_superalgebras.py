from fractions import Fraction
from math import gcd

import pytest

from oddtrace.superalgebras import (
    C,
    UNIT,
    BasisElement,
    G,
    Kind,
    L,
    bracket,
    central_charge,
    conformal_weight,
    g0_square_value,
    minimal_model_spectrum,
    psi,
)

F = Fraction


def test_parities_and_algebras():
    assert L(2).parity == 0 and C.parity == 0 and UNIT.parity == 0
    assert G(0).parity == 1 and psi(3).parity == 1
    assert L(0).algebra == "ramond" and psi(0).algebra == "fermion"
    assert (repr(C), repr(UNIT), repr(G(-1)), repr(psi(3))) == ("C", "1", "G_-1", "psi_3")
    with pytest.raises(ValueError):
        BasisElement(Kind.CENTRAL, 2)


def test_g0_g0_bracket():
    # m = n = 0: 2L_0 + (1/3)(0 - 1/4) C = 2L_0 - C/12
    assert bracket(G(0), G(0)) == {L(0): 2, C: F(-1, 12)}


def test_fermion_brackets():
    assert bracket(psi(3), psi(-3)) == {UNIT: 1}
    assert bracket(psi(3), psi(2)) == {}
    assert bracket(psi(0), psi(0)) == {UNIT: 1}
    assert all(type(x) is Fraction for x in bracket(psi(3), psi(-3)).values())


def test_l2_lminus2_bracket():
    assert bracket(L(2), L(-2)) == {L(0): 4, C: F(1, 2)}
    # the central term of [L_1, L_-1] vanishes and is dropped
    assert bracket(L(1), L(-1)) == {L(0): 2}


def test_bracket_specializes_central_term():
    assert bracket(L(2), L(-2), c_value=F(-21, 4)) == {L(0): 4, UNIT: F(1, 2) * F(-21, 4)}


def test_bracket_with_central_elements_vanishes():
    for x in (L(3), G(-1), C):
        assert bracket(C, x) == {}
        assert bracket(x, C) == {}
    assert bracket(UNIT, psi(2)) == {}


def test_mixing_algebras_rejected():
    with pytest.raises(ValueError):
        bracket(L(1), psi(1))


def test_antisupersymmetry_all_pairs():
    gens = [L(n) for n in range(-10, 11)] + [G(n) for n in range(-10, 11)] + [C]
    for a in gens:
        for b in gens:
            lhs = bracket(a, b)
            rhs = bracket(b, a)
            sign = -(-1) ** (a.parity * b.parity)
            assert lhs == {e: sign * c for e, c in rhs.items()}
    fgens = [psi(n) for n in range(-10, 11)]
    for a in fgens:
        for b in fgens:
            # odd-odd: [a, b] = [b, a]
            assert bracket(a, b) == bracket(b, a)


def _ad(a: BasisElement, combo):
    """Linear extension of bracket(a, -) applied to {element: coeff}."""
    out = {}
    for e, c in combo.items():
        for ee, cc in bracket(a, e).items():
            out[ee] = out.get(ee, F(0)) + c * cc
    return {e: c for e, c in out.items() if c != 0}


def test_super_jacobi_identity():
    # [a,[b,c]] = [[a,b],c] + (-1)^{p(a)p(b)} [b,[a,c]] on index window [-4,4]
    gens = [L(n) for n in range(-4, 5)] + [G(n) for n in range(-4, 5)]
    for a in gens:
        for b in gens:
            pab = (-1) ** (a.parity * b.parity)
            for c in gens:
                lhs = _ad(a, bracket(b, c))
                t1 = _ad_right(bracket(a, b), c)
                t2 = _ad(b, bracket(a, c))
                rhs = _add_combos(t1, {e: pab * v for e, v in t2.items()})
                assert lhs == rhs, (a, b, c)


def _ad_right(combo, c: BasisElement):
    out = {}
    for e, coef in combo.items():
        for ee, cc in bracket(e, c).items():
            out[ee] = out.get(ee, F(0)) + coef * cc
    return {e: v for e, v in out.items() if v != 0}


def _add_combos(x, y):
    out = dict(x)
    for e, v in y.items():
        out[e] = out.get(e, F(0)) + v
    return {e: v for e, v in out.items() if v != 0}


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------

def test_spectrum_2_8():
    entries = minimal_model_spectrum(2, 8)
    assert all(e.c == F(-21, 4) for e in entries)
    assert [e.h for e in entries] == [F(-3, 32), F(-7, 32)]


def test_spectrum_2_4():
    entries = minimal_model_spectrum(2, 4)
    assert len(entries) == 1
    assert entries[0].c == 0 and entries[0].h == 0


def test_spectrum_rejects_odd_difference():
    with pytest.raises(ValueError, match="even"):
        minimal_model_spectrum(3, 8)


def test_spectrum_rejects_bad_gcd_and_order():
    with pytest.raises(ValueError, match="gcd"):
        minimal_model_spectrum(4, 12)
    with pytest.raises(ValueError, match="p < p'"):
        minimal_model_spectrum(8, 2)


def test_spectrum_entries_recompute():
    for p, pp in [(2, 8), (2, 4), (2, 12), (4, 6)]:
        for e in minimal_model_spectrum(p, pp):
            assert e.c == central_charge(p, pp)
            assert e.h == conformal_weight(p, pp, e.r, e.s)
            assert 1 <= e.r <= p - 1 and 1 <= e.s <= pp - 1 and (e.r - e.s) % 2 == 1


def fraction_central_charge(p, pp):
    return Fraction(3, 2) * (1 - Fraction(2 * (pp - p) ** 2, p * pp))


def fraction_conformal_weight(p, pp, r, s):
    return Fraction((r * pp - s * p) ** 2 - (pp - p) ** 2, 8 * p * pp) + Fraction(1, 16)


def fraction_spectrum(p, pp):
    """The spectrum of record: deduplicated on (c, h) and sorted by h, in
    Fractions, as (r, s, c, h) rows."""
    c = fraction_central_charge(p, pp)
    rows, seen = [], set()
    for r in range(1, p):
        for s in range(1, pp):
            if (r - s) % 2 == 0:
                continue
            h = fraction_conformal_weight(p, pp, r, s)
            if (c, h) in seen:
                continue
            seen.add((c, h))
            rows.append((r, s, c, h))
    rows.sort(key=lambda row: row[3], reverse=True)
    return rows


def test_central_charge_and_weight_match_the_fraction_formulas():
    for p in range(1, 9):
        for pp in range(1, 13):
            assert central_charge(p, pp) == fraction_central_charge(p, pp)
            for r in range(-3, p + 4):
                for s in range(-3, pp + 4):
                    assert conformal_weight(p, pp, r, s) == \
                        fraction_conformal_weight(p, pp, r, s)


def test_spectrum_matches_the_fraction_spectrum():
    pairs = [(p, pp) for pp in range(2, 41) for p in range(1, pp)
             if (pp - p) % 2 == 0 and gcd((pp - p) // 2, p) == 1]
    for p, pp in pairs:
        entries = minimal_model_spectrum(p, pp)
        assert [(e.r, e.s, e.c, e.h) for e in entries] == fraction_spectrum(p, pp)
        assert all((e.p, e.pp) == (p, pp) for e in entries)


def test_spectrum_names_a_long_value_by_its_digits():
    # str() converts no int of more than 4300 digits; the p < p' message
    # is pinned through the command in test_cli.py.
    with pytest.raises(ValueError, match=r"\(got p' - p = <5001 digits>\)$"):
        minimal_model_spectrum(2, 10 ** 5000 + 3)
    with pytest.raises(ValueError, match=r"\(got <4999 digits>\)$"):
        minimal_model_spectrum(10 ** 4998 * 6, 10 ** 4998 * 10)


# ---------------------------------------------------------------------------
# g0_square_value
# ---------------------------------------------------------------------------

def test_g0_square_values():
    assert g0_square_value(F(-21, 4), F(-3, 32)) == F(1, 8)
    assert g0_square_value(F(-21, 4), F(-7, 32)) == 0
    assert g0_square_value(F(10), F(10, 24)) == 0
    value = g0_square_value(-21, F(-3, 32))
    assert value == F(25, 32) and isinstance(value, Fraction)


def test_g0_square_vanishes_iff_h_is_c_over_24():
    for c in [F(-21, 4), F(1, 2), F(0), F(7, 10)]:
        assert g0_square_value(c, c / 24) == 0
        assert g0_square_value(c, c / 24 + F(1, 5)) != 0


def test_g0_square_consistent_with_bracket():
    # G_0^2 = (1/2)[G_0, G_0] = L_0 - C/24
    res = bracket(G(0), G(0))
    assert res[L(0)] / 2 == 1
    assert res[C] / 2 == F(-1, 24)
