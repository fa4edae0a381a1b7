import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from oddtrace.queer import (
    EndElement,
    QueerElement,
    end_mul,
    even_trace,
    odd_trace,
    product_odd_trace,
    product_supertrace,
    product_traces,
    q1_functional_solution_space,
    queer_mul,
    random_homogeneous_end,
    random_homogeneous_queer,
    supersymmetric,
    supertrace,
)
from oddtrace import queer
from oddtrace.queer import _odd_trace_ratio, _ratios_equal, _supertrace_ratio
from oddtrace.qseries import _clear_denominators

F = Fraction


# ---------------------------------------------------------------------------
# Oracle: full 2n x 2n block-matrix arithmetic, independent of queer_mul.
# ---------------------------------------------------------------------------

def to_block(e: QueerElement):
    n = e.n
    return [[(e.x[i][j] if j < n else e.y[i][j - n]) if i < n
             else (e.y[i - n][j] if j < n else e.x[i - n][j - n])
             for j in range(2 * n)] for i in range(2 * n)]


def block_mul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


# ---------------------------------------------------------------------------
# queer_mul
# ---------------------------------------------------------------------------

def test_identity_is_two_sided_unit():
    rng = random.Random(7)
    e = random_homogeneous_queer(3, rng)
    one = QueerElement.identity(3)
    assert queer_mul(one, e) == e
    assert queer_mul(e, one) == e


def test_theta_squares_to_identity():
    th = QueerElement.theta(1)
    assert queer_mul(th, th) == QueerElement.identity(1)


def test_queer_mul_matches_block_matrix_oracle():
    rng = random.Random(11)
    for _ in range(20):
        a = random_homogeneous_queer(2, rng)
        b = random_homogeneous_queer(2, rng)
        c = random_homogeneous_queer(2, rng)
        assert to_block(queer_mul(a, b)) == block_mul(to_block(a), to_block(b))
        lhs = queer_mul(queer_mul(a, b), c)
        rhs = queer_mul(a, queer_mul(b, c))
        assert lhs == rhs


def test_queer_mul_size_mismatch():
    with pytest.raises(ValueError):
        queer_mul(QueerElement.identity(2), QueerElement.identity(3))


# ---------------------------------------------------------------------------
# integer-numerator products against a plain Fraction triple loop
# ---------------------------------------------------------------------------

def ref_mat_mul(a, b, rows, inner, cols):
    return [[sum((a[i][k] * b[k][j] for k in range(inner)), F(0)) for j in range(cols)]
            for i in range(rows)]


def ref_mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


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


def _as_lists(m):
    assert all(type(x) is Fraction for row in m for x in row)
    return [list(row) for row in m]


@settings(max_examples=150, deadline=None, phases=NO_EXPLAIN)
@given(queer_blocks(2))
def test_queer_mul_matches_fraction_reference(case):
    n, ((xa, ya), (xb, yb)) = case
    got = queer_mul(QueerElement.from_lists(xa, ya), QueerElement.from_lists(xb, yb))
    assert _as_lists(got.x) == ref_mat_add(ref_mat_mul(xa, xb, n, n, n),
                                           ref_mat_mul(ya, yb, n, n, n))
    assert _as_lists(got.y) == ref_mat_add(ref_mat_mul(xa, yb, n, n, n),
                                           ref_mat_mul(ya, xb, n, n, n))


@settings(max_examples=150, deadline=None, phases=NO_EXPLAIN)
@given(end_blocks(2))
def test_end_mul_matches_fraction_reference(case):
    (d0, d1), (x, y) = case
    got = end_mul(EndElement.from_lists(d0, d1, *x), EndElement.from_lists(d0, d1, *y))
    (xa, xb, xc, xd), (ya, yb, yc, yd) = x, y
    expected = [
        ref_mat_add(ref_mat_mul(xa, ya, d0, d0, d0), ref_mat_mul(xb, yc, d0, d1, d0)),
        ref_mat_add(ref_mat_mul(xa, yb, d0, d0, d1), ref_mat_mul(xb, yd, d0, d1, d1)),
        ref_mat_add(ref_mat_mul(xc, ya, d1, d0, d0), ref_mat_mul(xd, yc, d1, d1, d0)),
        ref_mat_add(ref_mat_mul(xc, yb, d1, d0, d1), ref_mat_mul(xd, yd, d1, d1, d1)),
    ]
    assert [_as_lists(m) for m in (got.a, got.b, got.c, got.d)] == expected


# The trace kernel against the traces of the products it skips forming.
@settings(max_examples=150, deadline=None, phases=NO_EXPLAIN)
@given(queer_blocks(2))
def test_product_traces_are_the_traces_of_queer_mul(case):
    _, ((xa, ya), (xb, yb)) = case
    a, b = QueerElement.from_lists(xa, ya), QueerElement.from_lists(xb, yb)
    ab = queer_mul(a, b)
    got = product_traces(a, b)
    assert got == (even_trace(ab), odd_trace(ab))
    assert all(type(t) is Fraction for t in got)


@settings(max_examples=150, deadline=None, phases=NO_EXPLAIN)
@given(queer_blocks(2))
def test_product_odd_trace_is_the_odd_trace_of_queer_mul(case):
    _, ((xa, ya), (xb, yb)) = case
    a, b = QueerElement.from_lists(xa, ya), QueerElement.from_lists(xb, yb)
    got = product_odd_trace(a, b)
    assert got == odd_trace(queer_mul(a, b)) and type(got) is Fraction


@settings(max_examples=150, deadline=None, phases=NO_EXPLAIN)
@given(end_blocks(2))
def test_product_supertrace_is_the_supertrace_of_end_mul(case):
    (d0, d1), (x, y) = case
    x, y = EndElement.from_lists(d0, d1, *x), EndElement.from_lists(d0, d1, *y)
    got = product_supertrace(x, y)
    assert got == supertrace(end_mul(x, y)) and type(got) is Fraction


def test_product_traces_size_mismatch():
    with pytest.raises(ValueError):
        product_traces(QueerElement.identity(2), QueerElement.identity(3))
    with pytest.raises(ValueError):
        product_odd_trace(QueerElement.identity(2), QueerElement.identity(3))
    with pytest.raises(ValueError):
        product_supertrace(EndElement.identity(2, 1), EndElement.identity(1, 2))


# ---------------------------------------------------------------------------
# supersymmetric: unreduced integer ratios compared by cross-multiplication
# ---------------------------------------------------------------------------

def homogeneous(blocks, odd, zero_at):
    """The blocks with those of the other parity zeroed: zero_at[odd] lists
    the indices of the blocks an element of that parity has zero."""
    return [[[0] * len(row) for row in m] if i in zero_at[odd] else m
            for i, m in enumerate(blocks)]


QUEER_ZERO_AT = ((1,), (0,))           # even: Y = 0; odd: X = 0
END_ZERO_AT = ((1, 2), (0, 3))         # even: B = C = 0; odd: A = D = 0


@settings(max_examples=150, deadline=None, phases=NO_EXPLAIN)
@given(queer_blocks(4), st.lists(st.booleans(), min_size=2, max_size=2),
       st.sampled_from([1, -1]))
def test_queer_integer_comparison_agrees_with_fractions(case, odd, sign):
    _, lists = case
    a, b = (QueerElement.from_lists(*homogeneous(blocks, p, QUEER_ZERO_AT))
            for blocks, p in zip(lists, odd))
    sgn = (-1) ** (a.parity * b.parity)
    assert supersymmetric(a, b) is True
    assert product_odd_trace(a, b) == sgn * product_odd_trace(b, a)
    # Two unrelated products: the comparison is often False, and equal when
    # both traces vanish.
    c, d = (QueerElement.from_lists(x, y) for x, y in lists[2:])
    assert _ratios_equal(_odd_trace_ratio(a, c), _odd_trace_ratio(b, d), sign) == (
        odd_trace(queer_mul(a, c)) == sign * odd_trace(queer_mul(b, d)))


@settings(max_examples=150, deadline=None, phases=NO_EXPLAIN)
@given(end_blocks(4), st.lists(st.booleans(), min_size=2, max_size=2),
       st.sampled_from([1, -1]))
def test_end_integer_comparison_agrees_with_fractions(case, odd, sign):
    (d0, d1), lists = case
    x, y = (EndElement.from_lists(d0, d1, *homogeneous(blocks, p, END_ZERO_AT))
            for blocks, p in zip(lists, odd))
    sgn = (-1) ** (x.parity * y.parity)
    assert supersymmetric(x, y) is True
    assert product_supertrace(x, y) == sgn * product_supertrace(y, x)
    z, w = (EndElement.from_lists(d0, d1, *blocks) for blocks in lists[2:])
    assert _ratios_equal(_supertrace_ratio(x, z), _supertrace_ratio(y, w), sign) == (
        supertrace(end_mul(x, z)) == sign * supertrace(end_mul(y, w)))


def test_integer_comparison_can_fail():
    th, one = QueerElement.theta(1), QueerElement.identity(1)
    half = QueerElement.from_lists([[F(1, 2)]], [[0]])
    # tr(theta 1) = 1 against tr(theta (1/2)) = 1/2, and the unreduced 2/4
    # of (2 theta)(1/4) against 1/2.
    assert _odd_trace_ratio(th, one) == (1, 1)
    assert not _ratios_equal(_odd_trace_ratio(th, one), _odd_trace_ratio(th, half), 1)
    quarter = QueerElement.from_lists([[F(1, 4)]], [[0]])
    two_th = QueerElement.from_lists([[0]], [[2]])
    assert _odd_trace_ratio(two_th, quarter) == (2, 4)
    assert _ratios_equal(_odd_trace_ratio(two_th, quarter), _odd_trace_ratio(th, half), 1)
    assert not _ratios_equal(_odd_trace_ratio(two_th, quarter),
                             _odd_trace_ratio(th, half), -1)
    # The supertrace is one signed sum: str(1 1) = 2 - 1 on End(2|1).
    e = EndElement.identity(2, 1)
    assert _supertrace_ratio(e, e) == (1, 1)
    assert not _ratios_equal(_supertrace_ratio(e, e), (-1, 1), 1)


def test_supersymmetric_needs_homogeneous_elements_of_one_algebra():
    with pytest.raises(ValueError, match="element is not homogeneous"):
        supersymmetric(QueerElement.from_lists([[1]], [[1]]), QueerElement.theta(1))
    with pytest.raises(TypeError):
        supersymmetric(QueerElement.theta(1), EndElement.identity(1, 0))
    with pytest.raises(ValueError):
        supersymmetric(QueerElement.theta(1), QueerElement.theta(2))


def to_full(e: EndElement):
    """The (d0+d1) x (d0+d1) matrix (A B; C D) as lists."""
    return ([list(ra) + list(rb) for ra, rb in zip(e.a, e.b)]
            + [list(rc) + list(rd) for rc, rd in zip(e.c, e.d)])


def blocks_of(e):
    return (e.x, e.y) if isinstance(e, QueerElement) else (e.a, e.b, e.c, e.d)


def assert_forms_are_scaled_blocks(e):
    """Each cached integer form is None for a zero block, else the block's
    lcm scale L with the rows and the columns of L times the block."""
    for m, form in zip(blocks_of(e), e._forms):
        entries = [x for row in m for x in row]
        if not any(entries):
            assert form is None
            continue
        scale, rows, cols = form
        assert scale == _clear_denominators(entries)[0]
        assert [list(r) for r in rows] == [[x * scale for x in row] for row in m]
        assert [list(c) for c in cols] == [[x * scale for x in col] for col in zip(*m)]


def assert_reuse_keeps_identity(elements, lists, build):
    """Elements whose forms are filled stay equal, with equal hashes, to
    freshly built copies whose forms are not."""
    for e, blocks in zip(elements, lists):
        assert_forms_are_scaled_blocks(e)
        fresh = build(*blocks)
        assert e == fresh and hash(e) == hash(fresh)


@settings(max_examples=100, deadline=None, phases=NO_EXPLAIN)
@given(queer_blocks(3))
def test_cached_queer_forms(case):
    _, lists = case
    a, b, c = (QueerElement.from_lists(x, y) for x, y in lists)
    ab, ba = queer_mul(a, b), queer_mul(b, a)
    abc = queer_mul(ab, c)
    assert to_block(ab) == block_mul(to_block(a), to_block(b))
    assert to_block(ba) == block_mul(to_block(b), to_block(a))
    assert to_block(abc) == block_mul(block_mul(to_block(a), to_block(b)), to_block(c))
    assert_reuse_keeps_identity((a, b, c, ab), [*lists, (ab.x, ab.y)],
                                QueerElement.from_lists)


@settings(max_examples=100, deadline=None, phases=NO_EXPLAIN)
@given(end_blocks(3))
def test_cached_end_forms(case):
    (d0, d1), lists = case
    x, y, z = (EndElement.from_lists(d0, d1, *blocks) for blocks in lists)
    xy, yx = end_mul(x, y), end_mul(y, x)
    xyz = end_mul(xy, z)
    d = d0 + d1
    full_xy = ref_mat_mul(to_full(x), to_full(y), d, d, d)
    assert to_full(xy) == full_xy
    assert to_full(yx) == ref_mat_mul(to_full(y), to_full(x), d, d, d)
    assert to_full(xyz) == ref_mat_mul(full_xy, to_full(z), d, d, d)
    assert_reuse_keeps_identity((x, y, z, xy), [*lists, blocks_of(xy)],
                                lambda *blocks: EndElement.from_lists(d0, d1, *blocks))


# ---------------------------------------------------------------------------
# sampling: each entry is F(randint(-9, 9), randint(1, 9)), in this order
# ---------------------------------------------------------------------------

def ref_random_matrix(n, m, rng):
    return tuple(tuple(F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(m))
                 for _ in range(n))


def ref_zeros(n, m):
    return tuple((F(0),) * m for _ in range(n))


def ref_homogeneous_queer(n, rng):
    if rng.random() < 0.5:
        return QueerElement(n, ref_random_matrix(n, n, rng), ref_zeros(n, n))
    return QueerElement(n, ref_zeros(n, n), ref_random_matrix(n, n, rng))


def ref_homogeneous_end(d0, d1, rng):
    if rng.random() < 0.5:
        return EndElement(d0, d1, ref_random_matrix(d0, d0, rng), ref_zeros(d0, d1),
                          ref_zeros(d1, d0), ref_random_matrix(d1, d1, rng))
    return EndElement(d0, d1, ref_zeros(d0, d0), ref_random_matrix(d0, d1, rng),
                      ref_random_matrix(d1, d0, rng), ref_zeros(d1, d1))


@pytest.mark.parametrize("seed", [0, 1, 2024, 94099])
def test_samples_follow_the_stream_of_record(seed):
    rng, ref = random.Random(seed), random.Random(seed)
    for _ in range(8):
        for n in range(1, 5):
            got = random_homogeneous_queer(n, rng)
            assert got == ref_homogeneous_queer(n, ref)
            assert all(type(v) is Fraction for m in blocks_of(got) for row in m for v in row)
            assert_forms_are_scaled_blocks(got)
        for d0 in range(4):
            for d1 in range(4):
                got = random_homogeneous_end(d0, d1, rng)
                assert got == ref_homogeneous_end(d0, d1, ref)
                assert all(type(v) is Fraction
                           for m in blocks_of(got) for row in m for v in row)
                assert_forms_are_scaled_blocks(got)
    assert rng.getstate() == ref.getstate()


def test_numerator_rows_are_built_on_first_use():
    # A fresh process that imports oddtrace has built no row.
    env = {**os.environ, "PYTHONPATH": str(Path(queer.__file__).resolve().parents[1])}
    probe = "import oddtrace, oddtrace.queer as q; print(len(q._NUMERATORS_AT))"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out.split() == ["0"]
    for s in (s for s in range(1, 2521) if 2520 % s == 0):
        row = queer._NUMERATORS_AT[s]
        assert row == [p * (s // q) for p, q in queer._REDUCED]
        # Where the value's denominator divides s, the entry is s times it.
        assert all(n == v * s for n, v in zip(row, queer._SAMPLES) if s % v.denominator == 0)
    assert len(queer._NUMERATORS_AT) == 48


def test_samples_equal_their_public_copies():
    # The samplers skip __init__; a copy through it checks the shapes, and
    # must be equal with an equal hash.
    rng = random.Random(94099)
    for _ in range(8):
        for n in range(1, 5):
            e = random_homogeneous_queer(n, rng)
            copy = QueerElement(e.n, e.x, e.y)
            assert e == copy and hash(e) == hash(copy) and repr(e) == repr(copy)
        for d0 in range(4):
            for d1 in range(4):
                e = random_homogeneous_end(d0, d1, rng)
                copy = EndElement(e.d0, e.d1, e.a, e.b, e.c, e.d)
                assert e == copy and hash(e) == hash(copy) and repr(e) == repr(copy)


# ---------------------------------------------------------------------------
# parity, read off the integer forms: a zero block has the form None
# ---------------------------------------------------------------------------

def test_queer_parity_of_built_elements():
    even = QueerElement.from_lists([[1, F(1, 2)], [0, 3]], [[0, F(0, 7)], [0, 0]])
    assert even.is_even and not even.is_odd and even.parity == 0
    odd = QueerElement.from_lists([[0, 0], [0, 0]], [[0, F(-2, 3)], [0, 0]])
    assert odd.is_odd and not odd.is_even and odd.parity == 1
    with pytest.raises(ValueError, match="element is not homogeneous"):
        QueerElement.from_lists([[1]], [[1]]).parity


def test_end_parity_with_empty_blocks():
    # With d0 = 0 the blocks A, B and C are empty, and count as zero.
    even = EndElement.from_lists(0, 2, [], [], [[], []], [[1, 0], [0, 2]])
    assert even.is_even and not even.is_odd and even.parity == 0
    zero = EndElement.from_lists(0, 2, [], [], [[], []], [[0, 0], [0, 0]])
    assert zero.is_even and zero.is_odd and zero.parity == 0
    assert EndElement.identity(0, 0).is_odd and EndElement.identity(0, 0).parity == 0
    odd = EndElement.from_lists(1, 1, [[0]], [[F(1, 2)]], [[0]], [[0]])
    assert odd.is_odd and not odd.is_even and odd.parity == 1
    with pytest.raises(ValueError, match="element is not homogeneous"):
        EndElement.from_lists(1, 1, [[1]], [[1]], [[0]], [[0]]).parity


# ---------------------------------------------------------------------------
# odd_trace
# ---------------------------------------------------------------------------

def test_odd_trace_basic_values():
    assert odd_trace(QueerElement.identity(4)) == 0
    assert odd_trace(QueerElement.theta(1)) == 1


def test_odd_trace_vanishes_on_even_elements():
    rng = random.Random(3)
    for _ in range(20):
        e = random_homogeneous_queer(3, rng)
        if e.is_even:
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
    assert supertrace(EndElement.identity(2, 3)) == -1


def test_supertrace_vanishes_on_odd_elements():
    rng = random.Random(5)
    for _ in range(30):
        e = random_homogeneous_end(2, 2, rng)
        if e.is_odd:
            assert supertrace(e) == 0


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_supertrace_supersymmetry(seed):
    rng = random.Random(seed)
    a = random_homogeneous_end(2, 2, rng)
    b = random_homogeneous_end(2, 2, rng)
    sgn = (-1) ** (a.parity * b.parity)
    assert supertrace(end_mul(a, b)) == sgn * supertrace(end_mul(b, a))


def test_end_blocks_validated():
    with pytest.raises(ValueError):
        EndElement.from_lists(2, 1, [[1, 0], [0, 1]], [[1], [1]], [[1]], [[1]])


def test_queer_blocks_validated():
    two = ((F(1), F(0)), (F(0), F(1)))
    with pytest.raises(ValueError, match="^x must be 2x2$"):
        QueerElement(2, ((F(1),),), two)
    with pytest.raises(ValueError, match="^y must be 2x2$"):
        QueerElement(2, two, (two[0], (F(0),)))


# ---------------------------------------------------------------------------
# uniqueness probe on Q_1
# ---------------------------------------------------------------------------

def test_q1_solution_space_is_odd_trace_line():
    rng = random.Random(2024)
    pairs = [(random_homogeneous_queer(1, rng), random_homogeneous_queer(1, rng))
             for _ in range(50)]
    basis = q1_functional_solution_space(pairs)
    assert basis == [(F(0), F(1))]


def fraction_q1_solution_space(pairs):
    """The probe on Fraction traces: each row is tr(ab) - (-1)^{p(a)p(b)} tr(ba)
    on the even and the odd block."""
    rows = []
    for a, b in pairs:
        (even_ab, odd_ab), (even_ba, odd_ba) = product_traces(a, b), product_traces(b, a)
        sgn = (-1) ** (a.parity * b.parity)
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
    th = QueerElement.theta(n)
    for case in (pairs, [(th, th), *pairs], [(th, th)]):
        basis = q1_functional_solution_space(case)
        assert basis == fraction_q1_solution_space(case)
        assert all(type(x) is Fraction for v in basis for x in v)


def test_q1_probe_size_mismatch():
    with pytest.raises(ValueError, match="size mismatch"):
        q1_functional_solution_space([(QueerElement.theta(1), QueerElement.theta(2))])


def test_q1_probe_with_no_constraints_is_full_space():
    assert len(q1_functional_solution_space([])) == 2


def test_even_trace_alone_is_not_supersymmetric():
    th = QueerElement.theta(1)
    # [theta, theta] constraint: tr X(theta^2) - (-1) tr X(theta^2) = 2 != 0
    rows = q1_functional_solution_space([(th, th)])
    assert all(alpha == 0 for alpha, _ in rows)
