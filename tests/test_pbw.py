from fractions import Fraction

import pytest

from oddtrace.pbw import (
    FERMION_PREFACTOR_EXPONENT,
    _partition_counts,
    _partition_pairs,
    _partitions,
    _signed_distinct_counts,
    PBWMonomial,
    enumerate_fermion_monomials,
    enumerate_ns_monomials,
    fermion_odd_trace,
    signed_monomial_count,
    signed_monomial_counts,
)
from oddtrace.qseries import FracPowerSeries, eta, euler_product

F = Fraction


# ---------------------------------------------------------------------------
# Oracles: truncated generating-function products on plain dicts.
# ---------------------------------------------------------------------------

def _mul_trunc(a, b, order):
    out = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            if ka + kb < order:
                out[ka + kb] = out.get(ka + kb, 0) + ca * cb
    return out


def gf_distinct(order):
    """Coefficients of prod (1 + q^n): distinct-part partition counts."""
    out = {0: 1}
    for n in range(1, order):
        out = _mul_trunc(out, {0: 1, n: 1}, order)
    return out


def gf_all(order):
    """Coefficients of prod 1/(1 - q^n): partition counts."""
    out = {0: 1}
    for n in range(1, order):
        out = _mul_trunc(out, {k: 1 for k in range(0, order, n)}, order)
    return out


def gf_signed_distinct(order):
    """Coefficients of prod (1 - q^n): signed distinct-part counts."""
    out = {0: 1}
    for n in range(1, order):
        out = _mul_trunc(out, {0: 1, n: -1}, order)
    return out


ORDER = 31
Q_DISTINCT = gf_distinct(ORDER)
P_ALL = gf_all(ORDER)
NS_COUNTS = _mul_trunc(Q_DISTINCT, P_ALL, ORDER)  # prod (1+q^n)/(1-q^n)
SIGNED = gf_signed_distinct(ORDER)


# ---------------------------------------------------------------------------
# PBWMonomial validation
# ---------------------------------------------------------------------------

def test_monomial_level_and_validation():
    m = PBWMonomial((1, 1, 3), (2, 5), 0)
    assert m.level == 12
    assert m.fermionic_length == 2
    with pytest.raises(ValueError):
        PBWMonomial((), (3, 3), 0)  # repeated odd generator
    with pytest.raises(ValueError):
        PBWMonomial((2, 1), (), 0)  # unsorted bosonic part
    with pytest.raises(ValueError):
        PBWMonomial((), (0,), 0)  # nonpositive mode
    with pytest.raises(ValueError):
        PBWMonomial((), (), -1)  # negative top index


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def test_fermion_monomials_small_levels():
    assert len(enumerate_fermion_monomials(0)) == 2
    lvl3 = enumerate_fermion_monomials(3)
    assert len(lvl3) == 4
    assert {m.fermionic for m in lvl3} == {(3,), (1, 2)}
    assert len(enumerate_fermion_monomials(2)) == 2  # only {2}; {1,1} forbidden


def test_fermion_monomial_counts_match_distinct_gf():
    for n in range(ORDER):
        assert len(enumerate_fermion_monomials(n)) == 2 * Q_DISTINCT.get(n, 0)


def test_ns_monomials_small_levels():
    assert len(enumerate_ns_monomials(0, top_dim=1)) == 1
    lvl1 = enumerate_ns_monomials(1, top_dim=2)
    assert len(lvl1) == 4
    assert {(m.bosonic, m.fermionic) for m in lvl1} == {((1,), ()), ((), (1,))}
    # frozen from the generating-function oracle prod (1+q^n)/(1-q^n)
    assert NS_COUNTS[4] == 14
    assert len(enumerate_ns_monomials(4, top_dim=1)) == 14


def test_ns_monomial_counts_match_gf():
    for n in range(ORDER):
        assert len(enumerate_ns_monomials(n, top_dim=1)) == NS_COUNTS.get(n, 0)


def test_ns_top_dim_doubles_and_validates():
    assert len(enumerate_ns_monomials(5, 2)) == 2 * len(enumerate_ns_monomials(5, 1))
    with pytest.raises(ValueError):
        enumerate_ns_monomials(5, 3)
    with pytest.raises(ValueError):
        enumerate_ns_monomials(-1, 1)
    with pytest.raises(ValueError):
        enumerate_fermion_monomials(-1)


def recursive_partitions(n, max_part=None):
    """The partition order of record: weakly increasing tuples, largest
    part first, from n down to 1, then the rest in the same order."""
    if n == 0:
        yield ()
        return
    if max_part is None:
        max_part = n
    for largest in range(min(n, max_part), 0, -1):
        for rest in recursive_partitions(n - largest, largest):
            yield rest + (largest,)


def recursive_distinct_partitions(n, max_part=None):
    """As recursive_partitions, with distinct parts."""
    if n == 0:
        yield ()
        return
    if max_part is None:
        max_part = n
    for largest in range(min(n, max_part), 0, -1):
        for rest in recursive_distinct_partitions(n - largest, largest - 1):
            yield rest + (largest,)


def test_partition_generators_keep_the_order_of_record():
    for n in range(31):
        listed = list(_partitions(n))
        assert listed == list(recursive_partitions(n))
        # distinct parts: the listing of all parts, keeping no repeated part
        assert list(_partitions(n, distinct=True)) == \
            [parts for parts in listed if len(set(parts)) == len(parts)]
    for n in range(46):
        assert list(_partitions(n, distinct=True)) == list(recursive_distinct_partitions(n))


def nested_ns_monomials(level, top_dim):
    """The enumeration order of record: bosonic weight j, then the bosonic
    partitions of j, the distinct partitions of level - j and the top index."""
    return [PBWMonomial(bos, ferm, top)
            for j in range(level + 1)
            for bos in recursive_partitions(j)
            for ferm in recursive_distinct_partitions(level - j)
            for top in range(top_dim)]


@pytest.mark.parametrize("top_dim", [1, 2])
def test_ns_monomials_keep_their_order(top_dim):
    for n in range(13):
        assert enumerate_ns_monomials(n, top_dim) == nested_ns_monomials(n, top_dim)


def test_enumeration_duplicate_free():
    for n in range(12):
        fm = enumerate_fermion_monomials(n)
        assert len(set(fm)) == len(fm)
        nm = enumerate_ns_monomials(n, 2)
        assert len(set(nm)) == len(nm)
        assert all(m.level == n for m in nm)


# ---------------------------------------------------------------------------
# signed counts (cancellation of odd vs even fermionic lengths)
# ---------------------------------------------------------------------------

def test_signed_count_level_zero_and_one():
    assert signed_monomial_count(0) == 1
    assert signed_monomial_count(1) == 0  # L_{-1} (+1) against G_{-1} (-1)


def test_signed_count_vanishes_up_to_20():
    for n in range(1, 21):
        assert signed_monomial_count(n) == 0
    for n in range(15):
        assert signed_monomial_count(n) == sum(
            (-1) ** m.fermionic_length for m in enumerate_ns_monomials(n, 1))


def pair_stream_signed_count(n):
    """The signed count of record: (-1)^t summed over every (bosonic,
    fermionic) partition pair of level n."""
    return sum(-1 if len(ferm) & 1 else 1 for _, ferm in _partition_pairs(n))


def test_signed_counts_match_the_pair_walk():
    counts = signed_monomial_counts(25)
    assert len(counts) == 26
    for n, count in enumerate(counts):
        assert count == pair_stream_signed_count(n)
        assert count == signed_monomial_count(n)
    with pytest.raises(ValueError):
        signed_monomial_counts(-1)


def test_signed_distinct_counts_match_the_per_level_tally():
    # One walk over every set of distinct parts up to weight n against the
    # distinct partitions of each level, enumerated level by level.
    per_level = [sum(-1 if len(ferm) & 1 else 1 for ferm in _partitions(m, distinct=True))
                 for m in range(41)]
    for n in range(41):
        assert _signed_distinct_counts(n) == per_level[:n + 1]
    assert per_level[:ORDER] == [SIGNED.get(m, 0) for m in range(ORDER)]


def pushed_signed_distinct_counts(max_level):
    """The walk of record: every node, leaves too, pushed and popped."""
    counts = [0] * (max_level + 1)
    stack = [(0, 1, 1)]
    while stack:
        weight, sign, low = stack.pop()
        counts[weight] += sign
        for part in range(low, max_level - weight + 1):
            stack.append((weight + part, -sign, part + 1))
    return counts


def test_signed_distinct_counts_match_the_walk_that_pushes_every_node():
    # Leaves tallied in place against leaves pushed.  A level's count does
    # not depend on the top level, so one reference run serves every n.
    reference = pushed_signed_distinct_counts(70)
    for n in range(71):
        assert _signed_distinct_counts(n) == reference[:n + 1]


def test_partition_counts_match_the_enumeration():
    # The part-by-part recurrence against the listed partitions, level by level.
    listed = [sum(1 for _ in _partitions(j)) for j in range(41)]
    for n in range(41):
        assert _partition_counts(n) == listed[:n + 1]


def test_no_command_lists_a_partition(monkeypatch, capsysbinary):
    # Every command counts partitions and lists none: with both listings
    # made to raise, each command, the brute-force ones at the benchmark's
    # levels, prints the bytes it prints unpatched.
    from oddtrace import cli, pbw

    levels = {"fermion-trace": ["--level", "34"], "cancellation": ["--level", "24"]}
    runs = [[name, *levels.get(name, [])] for name in cli.COMMANDS]
    expected = []
    for argv in runs:
        assert cli.main(argv) == 0, argv
        expected.append(capsysbinary.readouterr())

    def listed(*args, **kwargs):
        raise AssertionError("a command listed partitions")

    monkeypatch.setattr(pbw, "_partitions", listed)
    monkeypatch.setattr(pbw, "_partition_pairs", listed)
    for argv, unpatched in zip(runs, expected):
        assert cli.main(argv) == 0, argv
        assert capsysbinary.readouterr() == unpatched, argv


def test_signed_count_matches_product_identity():
    # sum_m (-1)^t q^level = prod(1-q^n) * prod 1/(1-q^n) = 1
    ident = _mul_trunc(SIGNED, P_ALL, 21)
    for n in range(21):
        assert signed_monomial_count(n) == ident.get(n, 0)


# ---------------------------------------------------------------------------
# fermion odd trace
# ---------------------------------------------------------------------------

def test_fermion_trace_level_zero_and_prefactor():
    report = fermion_odd_trace(0)
    assert report.levels == ((0, F(1)),)
    assert report.prefactor_exponent == F(1, 24)
    assert FERMION_PREFACTOR_EXPONENT == F(1, 16) - F(1, 2) / 24
    with pytest.raises(ValueError):
        fermion_odd_trace(-1)


def test_fermion_trace_levels_equal_the_per_monomial_sums():
    # psi_0 Theta is diagonal on the monomials, with entry (-1)^t psi_0^2 =
    # (-1)^t / 2 on each of the two top-space vectors.
    report = fermion_odd_trace(16)
    for n, tr in report.levels:
        assert tr == sum(F((-1) ** m.fermionic_length, 2)
                         for m in enumerate_fermion_monomials(n))


def test_fermion_trace_reads_psi0_square_off_the_bracket(monkeypatch):
    # With [psi_0, psi_0] doubled, psi_0^2 doubles on v and vbar, and so
    # does every level.
    from oddtrace import pbw
    from oddtrace.superalgebras import UNIT

    monkeypatch.setattr(pbw, "bracket", lambda a, b: {UNIT: F(2)})
    report = fermion_odd_trace(5)
    assert report.levels == tuple((n, 2 * SIGNED.get(n, 0)) for n in range(6))
    assert report.series.coeff(F(1, 24)) == 2


def test_fermion_trace_levels_are_signed_distinct_counts():
    report = fermion_odd_trace(30)
    for n, tr in report.levels:
        assert tr == SIGNED.get(n, 0)


def test_fermion_trace_series_equals_eta():
    report = fermion_odd_trace(30)
    assert report.series.eq_to_order(eta(31), F(1, 24) + 31)


def test_fermion_trace_series_assembles_levels():
    report = fermion_odd_trace(8)
    for n, tr in report.levels:
        assert report.series.coeff(F(1, 24) + n) == tr


def test_fermion_trace_series_has_the_stored_form_of_from_terms():
    # The series built on integer keys against the build from Fraction
    # exponents: the same grid, truncation, scale and numerators.
    for n in range(61):
        report = fermion_odd_trace(n)
        built = FracPowerSeries.from_terms(
            {FERMION_PREFACTOR_EXPONENT + m: tr for m, tr in report.levels},
            truncation=FERMION_PREFACTOR_EXPONENT + n + 1)
        series = report.series
        assert (series.denominator, series.truncation, series._scale, series._nums) == \
            (built.denominator, built.truncation, built._scale, built._nums)
