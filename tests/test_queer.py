import math
import random
from fractions import Fraction

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from oddtrace import queer
from oddtrace.queer import (
    Supermatrix,
    end_basis,
    even_trace,
    odd_trace,
    q1_functional_solution_space,
    queer_basis,
    queer_mul,
    random_homogeneous_queer,
    supercommutator,
    supersymmetry_check,
    supertrace,
)

F = Fraction


# ---------------------------------------------------------------------------
# Oracle: dense (d0+d1) x (d0+d1) Fraction matrices, independent of the
# sparse product.
# ---------------------------------------------------------------------------

def to_full(e: Supermatrix):
    d = e.d0 + e.d1
    return [[F(e.entries.get((i, j), 0)) for j in range(d)] for i in range(d)]


def full_mul(a, b):
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), F(0)) for j in range(len(b[0]))]
            for i in range(len(a))]


def full_sub(a, b, sign=1):
    return [[x - sign * y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def full_parity(m, d0):
    """The parity of a dense matrix whose nonzero entries share one."""
    parities = {(i >= d0) != (j >= d0) for i, row in enumerate(m) for j, x in enumerate(row) if x}
    assert len(parities) <= 1
    return int(True in parities)


def full_traces(m, d0):
    """(tr of the top-left block, tr of the top-right block, supertrace),
    for a dense matrix with d0 even rows."""
    d = len(m)
    return (sum((m[i][i] for i in range(d0)), F(0)),
            sum((m[i][d0 + i] for i in range(min(d0, d - d0))), F(0)),
            sum((m[i][i] if i < d0 else -m[i][i] for i in range(d)), F(0)))


def full_rank(rows):
    """The rank of dense Fraction rows, by Gauss-Jordan elimination."""
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col] / rows[rank][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


# ---------------------------------------------------------------------------
# queer_mul: the sparse product
# ---------------------------------------------------------------------------

def test_identity_is_two_sided_unit():
    rng = random.Random(7)
    e = random_homogeneous_queer(3, rng)
    one = Supermatrix.identity(3, 3)
    assert queer_mul(one, e) == e
    assert queer_mul(e, one) == e


def test_theta_squares_to_identity():
    th = Supermatrix.theta(1)
    assert queer_mul(th, th) == Supermatrix.identity(1, 1)
    assert queer_mul(Supermatrix.theta(3), Supermatrix.theta(3)) == Supermatrix.identity(3, 3)


def test_queer_mul_matches_block_matrix_oracle():
    rng = random.Random(11)
    for _ in range(20):
        a = random_homogeneous_queer(2, rng)
        b = random_homogeneous_queer(2, rng)
        c = random_homogeneous_queer(2, rng)
        assert to_full(queer_mul(a, b)) == full_mul(to_full(a), to_full(b))
        assert queer_mul(queer_mul(a, b), c) == queer_mul(a, queer_mul(b, c))


def test_queer_mul_size_mismatch():
    with pytest.raises(ValueError, match="size mismatch"):
        queer_mul(Supermatrix.identity(2, 2), Supermatrix.identity(3, 3))
    with pytest.raises(ValueError, match="size mismatch"):
        queer_mul(Supermatrix.identity(2, 1), Supermatrix.identity(1, 2))


def test_products_keep_only_nonzero_entries():
    # Xa Xb sums to zero in every entry, though neither factor is zero.
    a = Supermatrix.queer([[1, 1], [0, 0]], [[0, 0], [0, 0]])
    b = Supermatrix.queer([[1, 0], [-1, 0]], [[0, 0], [0, 0]])
    assert queer_mul(a, b).entries == {}
    assert all(all(queer_mul(x, y).entries.values())
               for x in queer_basis(2) for y in queer_basis(2))


@st.composite
def block(draw, rows, cols):
    """A rows x cols block of rationals with denominators up to 9, often zero."""
    if draw(st.booleans()):
        return [[F(0)] * cols for _ in range(rows)]
    entry = st.builds(F, st.integers(-9, 9), st.integers(1, 9))
    return [[draw(entry) for _ in range(cols)] for _ in range(rows)]


# The block tests draw sizes and blocks from one flatmapped strategy, not
# through st.data(), and leave out the explain phase: after a first failure
# Hypothesis traces every run line by line to explain it, and with the
# Fraction reference traced a shrink took minutes instead of seconds.
NO_EXPLAIN = [p for p in Phase if p is not Phase.explain]


def _shaped(shapes, count):
    """`count` tuples holding one block of each (rows, cols) in `shapes`."""
    return st.tuples(*[st.tuples(*(block(r, c) for r, c in shapes))] * count)


def queer_blocks(count):
    """(n, `count` pairs (X, Y) of n x n blocks) for n in 1..4."""
    return st.integers(1, 4).flatmap(
        lambda n: st.tuples(st.just(n), _shaped([(n, n)] * 2, count)))


def end_shapes(d0, d1):
    return [(d0, d0), (d0, d1), (d1, d0), (d1, d1)]


def end_blocks(count):
    """((d0, d1), `count` tuples (A, B, C, D) of End(d0|d1) blocks) for
    d0, d1 in 0..3."""
    return st.tuples(st.integers(0, 3), st.integers(0, 3)).flatmap(
        lambda d: st.tuples(st.just(d), _shaped(end_shapes(*d), count)))


def queer_full(x, y):
    """The dense (X Y; Y X)."""
    return [list(rx) + list(ry) for rx, ry in zip(x, y)] + \
        [list(ry) + list(rx) for rx, ry in zip(x, y)]


def end_full(a, b, c, d):
    return [list(ra) + list(rb) for ra, rb in zip(a, b)] + \
        [list(rc) + list(rd) for rc, rd in zip(c, d)]


@settings(max_examples=150, deadline=None, phases=NO_EXPLAIN)
@given(queer_blocks(2))
def test_queer_mul_matches_fraction_reference(case):
    n, ((xa, ya), (xb, yb)) = case
    got = queer_mul(Supermatrix.queer(xa, ya), Supermatrix.queer(xb, yb))
    assert (got.d0, got.d1) == (n, n)
    assert to_full(got) == full_mul(queer_full(xa, ya), queer_full(xb, yb))
    assert all(v and type(v) is Fraction for v in got.entries.values())


@settings(max_examples=150, deadline=None, phases=NO_EXPLAIN)
@given(end_blocks(2))
def test_end_mul_matches_fraction_reference(case):
    (d0, d1), (x, y) = case
    got = queer_mul(Supermatrix.from_blocks(d0, d1, *x), Supermatrix.from_blocks(d0, d1, *y))
    assert to_full(got) == full_mul(end_full(*x), end_full(*y))
    assert all(v and type(v) is Fraction for v in got.entries.values())


# The traces of a product against those of the dense product.
@settings(max_examples=150, deadline=None, phases=NO_EXPLAIN)
@given(queer_blocks(2))
def test_product_traces_are_the_traces_of_queer_mul(case):
    n, ((xa, ya), (xb, yb)) = case
    ab = queer_mul(Supermatrix.queer(xa, ya), Supermatrix.queer(xb, yb))
    even, odd, _ = full_traces(full_mul(queer_full(xa, ya), queer_full(xb, yb)), n)
    got = (even_trace(ab), odd_trace(ab))
    assert got == (even, odd)
    assert all(type(t) is Fraction for t in got)


@settings(max_examples=150, deadline=None, phases=NO_EXPLAIN)
@given(queer_blocks(2))
def test_product_odd_trace_is_the_odd_trace_of_queer_mul(case):
    _, ((xa, ya), (xb, yb)) = case
    ab = queer_mul(Supermatrix.queer(xa, ya), Supermatrix.queer(xb, yb))
    # tr of the top-right block of (Xa Ya; Ya Xa)(Xb Yb; Yb Xb): tr(Xa Yb + Ya Xb)
    n = len(xa)
    assert odd_trace(ab) == sum(xa[i][k] * yb[k][i] + ya[i][k] * xb[k][i]
                                for i in range(n) for k in range(n))


@settings(max_examples=150, deadline=None, phases=NO_EXPLAIN)
@given(end_blocks(2))
def test_product_supertrace_is_the_supertrace_of_end_mul(case):
    (d0, d1), (x, y) = case
    got = supertrace(queer_mul(Supermatrix.from_blocks(d0, d1, *x),
                               Supermatrix.from_blocks(d0, d1, *y)))
    assert got == full_traces(full_mul(end_full(*x), end_full(*y)), d0)[2]
    assert type(got) is Fraction


def test_product_traces_size_mismatch():
    with pytest.raises(ValueError):
        odd_trace(queer_mul(Supermatrix.identity(2, 2), Supermatrix.identity(3, 3)))
    with pytest.raises(ValueError):
        supertrace(queer_mul(Supermatrix.identity(2, 1), Supermatrix.identity(1, 2)))


# The three traces against those of the dense matrix, on drawn elements of
# Q_n and of End(d0|d1), d1 > d0 included.  In the example the top-right
# block is zero, though entry (1, 2) lies on the diagonal j = i + d0.
ELEMENTS = st.one_of(
    queer_blocks(1).map(lambda case: Supermatrix.queer(*case[1][0])),
    end_blocks(1).map(lambda case: Supermatrix.from_blocks(*case[0], *case[1][0])))


@settings(max_examples=150, deadline=None, phases=NO_EXPLAIN)
@given(ELEMENTS)
@example(Supermatrix(1, 3, {(1, 2): F(1), (2, 3): F(1)}))
def test_traces_are_the_traces_of_the_dense_matrix(e):
    got = (even_trace(e), odd_trace(e), supertrace(e))
    assert got == full_traces(to_full(e), e.d0)
    assert all(type(t) is Fraction for t in got)


# ---------------------------------------------------------------------------
# parity: an entry is odd when exactly one of its indices is >= d0
# ---------------------------------------------------------------------------

def test_queer_parity_of_built_elements():
    even = Supermatrix.queer([[1, F(1, 2)], [0, 3]], [[0, F(0, 7)], [0, 0]])
    assert even.parity == 0
    odd = Supermatrix.queer([[0, 0], [0, 0]], [[0, F(-2, 3)], [0, 0]])
    assert odd.parity == 1
    with pytest.raises(ValueError, match="element is not homogeneous"):
        Supermatrix.queer([[1]], [[1]]).parity


def test_end_parity_with_empty_blocks():
    # With d0 = 0 the blocks A, B and C are empty.
    even = Supermatrix.from_blocks(0, 2, [], [], [[], []], [[1, 0], [0, 2]])
    assert even.parity == 0
    zero = Supermatrix.from_blocks(0, 2, [], [], [[], []], [[0, 0], [0, 0]])
    assert zero.entries == {} and zero.parity == 0
    assert Supermatrix.identity(0, 0).parity == 0
    odd = Supermatrix.from_blocks(1, 1, [[0]], [[F(1, 2)]], [[0]], [[0]])
    assert odd.parity == 1
    with pytest.raises(ValueError, match="element is not homogeneous"):
        Supermatrix.from_blocks(1, 1, [[1]], [[1]], [[0]], [[0]]).parity


def test_bases_are_homogeneous_and_independent():
    for n in range(1, 5):
        basis = queer_basis(n)
        assert [b.parity for b in basis] == [0] * n * n + [1] * n * n
        assert full_rank([sum(to_full(b), []) for b in basis]) == 2 * n * n
    basis = end_basis(2, 2)
    assert sorted(b.parity for b in basis) == [0] * 8 + [1] * 8
    assert full_rank([sum(to_full(b), []) for b in basis]) == 16


# ---------------------------------------------------------------------------
# supercommutators and the exhaustive check
# ---------------------------------------------------------------------------

def homogeneous(blocks, odd, zero_at):
    """The blocks with those of the other parity zeroed: zero_at[odd] lists
    the indices of the blocks an element of that parity has zero."""
    return [[[0] * len(row) for row in m] if i in zero_at[odd] else m
            for i, m in enumerate(blocks)]


QUEER_ZERO_AT = ((1,), (0,))           # even: Y = 0; odd: X = 0
END_ZERO_AT = ((1, 2), (0, 3))         # even: B = C = 0; odd: A = D = 0


@settings(max_examples=150, deadline=None, phases=NO_EXPLAIN)
@given(queer_blocks(2), st.lists(st.booleans(), min_size=2, max_size=2))
def test_queer_supercommutator_matches_fraction_reference(case, odd):
    n, lists = case
    blocks = [homogeneous(b, p, QUEER_ZERO_AT) for b, p in zip(lists, odd)]
    a, b = (Supermatrix.queer(*bl) for bl in blocks)
    fa, fb = (queer_full(*bl) for bl in blocks)
    sign = (-1) ** (full_parity(fa, n) * full_parity(fb, n))
    c = supercommutator(a, b)
    assert to_full(c) == full_sub(full_mul(fa, fb), full_mul(fb, fa), sign)
    assert odd_trace(c) == 0


@settings(max_examples=150, deadline=None, phases=NO_EXPLAIN)
@given(end_blocks(2), st.lists(st.booleans(), min_size=2, max_size=2))
def test_end_supercommutator_matches_fraction_reference(case, odd):
    (d0, d1), lists = case
    blocks = [homogeneous(b, p, END_ZERO_AT) for b, p in zip(lists, odd)]
    x, y = (Supermatrix.from_blocks(d0, d1, *bl) for bl in blocks)
    fx, fy = (end_full(*bl) for bl in blocks)
    sign = (-1) ** (full_parity(fx, d0) * full_parity(fy, d0))
    c = supercommutator(x, y)
    assert to_full(c) == full_sub(full_mul(fx, fy), full_mul(fy, fx), sign)
    assert supertrace(c) == 0


def test_supersymmetric_needs_homogeneous_elements_of_one_algebra():
    with pytest.raises(ValueError, match="element is not homogeneous"):
        supercommutator(Supermatrix.queer([[1]], [[1]]), Supermatrix.theta(1))
    with pytest.raises(ValueError, match="size mismatch"):
        supercommutator(Supermatrix.theta(1), Supermatrix.theta(2))
    with pytest.raises(ValueError, match="size mismatch"):
        supercommutator(Supermatrix.theta(1), Supermatrix.identity(1, 0))


def test_supersymmetry_check_needs_one_algebra():
    with pytest.raises(ValueError, match=r"size mismatch: \(1\|1\) vs \(2\|2\)"):
        supersymmetry_check([Supermatrix.theta(1), Supermatrix.theta(2)], odd_trace)


@pytest.mark.parametrize("name, basis, phi, pairs", [
    ("Q_1", queer_basis(1), odd_trace, 4),
    ("Q_2", queer_basis(2), odd_trace, 64),
    ("Q_3", queer_basis(3), odd_trace, 324),
    ("Q_4", queer_basis(4), odd_trace, 1024),
    ("End(2|2)", end_basis(2, 2), supertrace, 256),
])
def test_supersymmetry_check_on_every_basis_pair(name, basis, phi, pairs):
    assert supersymmetry_check(basis, phi) == (pairs, 0, 1)


def brackets_rank(basis, sign_of):
    """The rank of the [a, b] over all basis pairs, from dense matrices."""
    rows = []
    for a in basis:
        for b in basis:
            fa, fb = to_full(a), to_full(b)
            sign = sign_of(a.parity, b.parity)
            rows.append(sum(full_sub(full_mul(fa, fb), full_mul(fb, fa), sign), []))
    return full_rank(rows)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_dimension_is_nullity_of_the_dense_brackets(n):
    basis = queer_basis(n)
    rank = brackets_rank(basis, lambda p, q: (-1) ** (p * q))
    assert supersymmetry_check(basis, odd_trace)[2] == 2 * n * n - rank == 1
    # Plain commutators leave tr X as a second functional.
    assert 2 * n * n - brackets_rank(basis, lambda p, q: 1) == 2


def test_wrong_functionals_are_caught():
    # tr X fails on [theta, theta] = 2; tr A + tr D fails on odd pairs in End.
    assert supersymmetry_check(queer_basis(1), even_trace) == (4, 1, 1)
    pairs, violations, _ = supersymmetry_check(
        end_basis(2, 2), lambda c: sum((v for (i, j), v in c.entries.items() if i == j), F(0)))
    assert pairs == 256 and violations > 0


def test_dropped_sign_gives_a_second_functional(monkeypatch):
    monkeypatch.setattr(Supermatrix, "parity", property(lambda self: 0))
    for n in range(1, 5):
        pairs, violations, dimension = supersymmetry_check(queer_basis(n), odd_trace)
        assert (violations, dimension) == (0, 2)
    _, violations, dimension = supersymmetry_check(end_basis(2, 2), supertrace)
    assert violations > 0 and dimension == 1


@settings(max_examples=100, deadline=None, phases=NO_EXPLAIN)
@given(st.lists(st.dictionaries(st.integers(0, 5), st.fractions(-9, 9, max_denominator=5)
                                .filter(bool), max_size=4), max_size=8))
def test_echelon_rank_matches_dense_rank(rows):
    dense = [[row.get(k, F(0)) for k in range(6)] for row in rows]
    pivots = queer._echelon(dict(r) for r in rows)
    assert len(pivots) == full_rank(dense)
    for lead, row in pivots.items():
        assert lead == min(row)
        assert all(type(x) is int for x in row.values())
        assert math.gcd(*row.values()) == 1


def mixed_basis(n, seed):
    """A basis of Q_n with each even matrix unit replaced by a random -3..3
    mix of the even units, and likewise for the odd ones."""
    rng = random.Random(seed)
    units = queer_basis(n)
    basis = []
    for half in (units[:n * n], units[n * n:]):
        for _ in half:
            entries = {}
            for unit in half:
                c = rng.randint(-3, 3)
                for key, v in unit.entries.items():
                    entries[key] = entries.get(key, 0) + c * v
            basis.append(Supermatrix(n, n, {k: v for k, v in entries.items() if v}))
    return basis


# Without the content divided out, the pivot entries of these brackets reach
# about 670 bits on Q_3 and 120,000 on Q_4, where the check takes seconds.
@pytest.mark.parametrize("n", [3, 4])
def test_echelon_entries_stay_small(n):
    basis = mixed_basis(n, seed=n)
    assert full_rank([sum(to_full(b), []) for b in basis]) == len(basis)
    assert supersymmetry_check(basis, odd_trace) == (len(basis) ** 2, 0, 1)
    pivots = queer._echelon(supercommutator(a, b).entries for a in basis for b in basis)
    assert all(-2 ** 63 <= x < 2 ** 63 for row in pivots.values() for x in row.values())


def reference_supersymmetry_check(basis, phi):
    """The check bracket by bracket: supercommutator on every ordered pair,
    one violation per pair, and every row eliminated."""
    brackets = [supercommutator(a, b) for a in basis for b in basis]
    violations = sum(1 for c in brackets if phi(c))
    return len(brackets), violations, len(basis) - len(queer._echelon(c.entries for c in brackets))


def plain_trace(c):
    """tr A + tr D: supersymmetric on no superalgebra with odd elements."""
    return sum((v for (i, j), v in c.entries.items() if i == j), F(0))


@pytest.mark.parametrize("basis", [
    queer_basis(1), queer_basis(2), queer_basis(3), end_basis(2, 2), mixed_basis(3, seed=3),
], ids=["Q_1", "Q_2", "Q_3", "End(2|2)", "mixed Q_3"])
@pytest.mark.parametrize("phi", [odd_trace, even_trace, supertrace, plain_trace])
def test_supersymmetry_check_matches_the_pairwise_reference(basis, phi):
    assert supersymmetry_check(basis, phi) == reference_supersymmetry_check(basis, phi)


@pytest.mark.parametrize("name, basis, phi, violations, distinct", [
    ("Q_2", queer_basis(2), even_trace, 4, 16),
    ("Q_4", queer_basis(4), even_trace, 16, 83),
    ("End(2|2)", end_basis(2, 2), plain_trace, 8, 33),
    ("End(2|2)", end_basis(2, 2), odd_trace, 16, 33),
    ("mixed Q_3", mixed_basis(3, seed=3), even_trace, 79, 280),
])
def test_violations_count_every_ordered_pair_and_phi_runs_once_per_bracket(
        name, basis, phi, violations, distinct):
    calls = []
    pairs, got, dimension = supersymmetry_check(basis, lambda c: calls.append(c) or phi(c))
    assert (pairs, got, dimension) == (len(basis) ** 2, violations, 1)
    assert len(calls) == len({frozenset(c.entries.items()) for c in calls}) == distinct


# ---------------------------------------------------------------------------
# odd_trace
# ---------------------------------------------------------------------------

def test_odd_trace_basic_values():
    assert odd_trace(Supermatrix.identity(4, 4)) == 0
    assert odd_trace(Supermatrix.theta(1)) == 1
    assert odd_trace(Supermatrix.theta(3)) == 3


def test_odd_trace_vanishes_on_even_elements():
    rng = random.Random(3)
    for _ in range(20):
        e = random_homogeneous_queer(3, rng)
        if e.parity == 0:
            assert odd_trace(e) == 0


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(0, 10 ** 6))
def test_odd_trace_supersymmetry(n, seed):
    rng = random.Random(seed)
    a = random_homogeneous_queer(n, rng)
    b = random_homogeneous_queer(n, rng)
    sgn = (-1) ** (a.parity * b.parity)
    assert odd_trace(queer_mul(a, b)) == sgn * odd_trace(queer_mul(b, a))


# ---------------------------------------------------------------------------
# supertrace
# ---------------------------------------------------------------------------

def test_supertrace_identity_2_3():
    assert supertrace(Supermatrix.identity(2, 3)) == -1


def test_supertrace_vanishes_on_odd_elements():
    odd = [e for e in end_basis(2, 2) if e.parity == 1]
    assert len(odd) == 8 and all(supertrace(e) == 0 for e in odd)


def test_end_blocks_validated():
    with pytest.raises(ValueError, match="^block b must be 2x1$"):
        Supermatrix.from_blocks(2, 1, [[1, 0], [0, 1]], [[1, 1], [1, 1]], [[1, 1]], [[1]])
    with pytest.raises(ValueError, match="^block d must be 1x1$"):
        Supermatrix.from_blocks(2, 1, [[1, 0], [0, 1]], [[1], [1]], [[1, 1]], [[1, 1]])


def test_queer_blocks_validated():
    two = [[1, 0], [0, 1]]
    with pytest.raises(ValueError, match="^block a must be 2x2$"):
        Supermatrix.queer([[1], [0]], two)
    with pytest.raises(ValueError, match="^block b must be 2x2$"):
        Supermatrix.queer(two, [two[0], [0]])


# ---------------------------------------------------------------------------
# sampler
# ---------------------------------------------------------------------------

def ref_block(rows, cols, rng):
    return [[F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(cols)]
            for _ in range(rows)]


def ref_zeros(rows, cols):
    return [[0] * cols for _ in range(rows)]


def ref_homogeneous_queer(n, rng):
    if rng.random() < 0.5:
        return queer_full(ref_block(n, n, rng), ref_zeros(n, n))
    return queer_full(ref_zeros(n, n), ref_block(n, n, rng))


# Acceptance criterion 6 reads its pairs off a fixed seed, so the order of
# the draws is part of the sampler's contract.
@pytest.mark.parametrize("seed", [0, 1, 2024, 94099])
def test_samples_follow_the_stream_of_record(seed):
    rng, ref = random.Random(seed), random.Random(seed)
    for _ in range(8):
        for n in range(1, 5):
            got = random_homogeneous_queer(n, rng)
            assert (got.d0, got.d1) == (n, n) and to_full(got) == ref_homogeneous_queer(n, ref)
    assert rng.getstate() == ref.getstate()


# ---------------------------------------------------------------------------
# uniqueness probe on Q_n
# ---------------------------------------------------------------------------

def test_q1_solution_space_is_odd_trace_line():
    rng = random.Random(2024)
    pairs = [(random_homogeneous_queer(1, rng), random_homogeneous_queer(1, rng))
             for _ in range(50)]
    basis = q1_functional_solution_space(pairs)
    assert basis == [(F(0), F(1))]


def fraction_q1_solution_space(pairs):
    """The probe on dense matrices: each row is tr(ab) - (-1)^{p(a)p(b)} tr(ba)
    on the even and the odd block."""
    rows = []
    for a, b in pairs:
        n = a.d0
        fa, fb = to_full(a), to_full(b)
        sgn = (-1) ** (full_parity(fa, n) * full_parity(fb, n))
        even_ab, odd_ab, _ = full_traces(full_mul(fa, fb), n)
        even_ba, odd_ba, _ = full_traces(full_mul(fb, fa), n)
        rows.append((even_ab - sgn * even_ba, odd_ab - sgn * odd_ba))
    pivot = next((r for r in rows if r != (0, 0)), None)
    if pivot is None:
        return [(F(1), F(0)), (F(0), F(1))]
    p, q = pivot
    if any(r[0] * q != r[1] * p for r in rows):
        return []
    scale = -q if q else p
    return [(-q / scale, p / scale)]


@pytest.mark.parametrize("seed", range(40))
def test_q1_probe_matches_fraction_probe(seed):
    # One to four pairs at sizes 1..3: about half the seeds give only zero
    # constraints, the full plane, and the rest the odd trace's line.  A
    # wrong sign on either block would leave no solution or the full plane.
    rng = random.Random(seed)
    n, count = rng.randint(1, 3), rng.randint(1, 4)
    pairs = [(random_homogeneous_queer(n, rng), random_homogeneous_queer(n, rng))
             for _ in range(count)]
    th = Supermatrix.theta(n)
    for case in (pairs, [(th, th), *pairs], [(th, th)]):
        basis = q1_functional_solution_space(case)
        assert basis == fraction_q1_solution_space(case)
        assert all(type(x) is Fraction for v in basis for x in v)


def test_q1_probe_size_mismatch():
    with pytest.raises(ValueError, match="size mismatch"):
        q1_functional_solution_space([(Supermatrix.theta(1), Supermatrix.theta(2))])


def test_q1_probe_with_no_constraints_is_full_space():
    assert len(q1_functional_solution_space([])) == 2


def test_even_trace_alone_is_not_supersymmetric():
    th = Supermatrix.theta(1)
    # [theta, theta] = 2: tr X([theta, theta]) = 2 != 0
    rows = q1_functional_solution_space([(th, th)])
    assert rows == [(F(0), F(1))]
