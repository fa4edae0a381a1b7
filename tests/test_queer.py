import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oddtrace.queer import (
    EndElement,
    QueerElement,
    end_mul,
    even_trace,
    odd_trace,
    q1_functional_solution_space,
    queer_mul,
    random_homogeneous_end,
    random_homogeneous_queer,
    supertrace,
)

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


def _as_lists(m):
    assert all(type(x) is Fraction for row in m for x in row)
    return [list(row) for row in m]


@settings(max_examples=150, deadline=None)
@given(st.data(), st.integers(1, 4))
def test_queer_mul_matches_fraction_reference(data, n):
    xa, ya, xb, yb = (data.draw(block(n, n)) for _ in range(4))
    got = queer_mul(QueerElement.from_lists(xa, ya), QueerElement.from_lists(xb, yb))
    assert _as_lists(got.x) == ref_mat_add(ref_mat_mul(xa, xb, n, n, n),
                                           ref_mat_mul(ya, yb, n, n, n))
    assert _as_lists(got.y) == ref_mat_add(ref_mat_mul(xa, yb, n, n, n),
                                           ref_mat_mul(ya, xb, n, n, n))


@settings(max_examples=150, deadline=None)
@given(st.data(), st.integers(0, 3), st.integers(0, 3))
def test_end_mul_matches_fraction_reference(data, d0, d1):
    shapes = [(d0, d0), (d0, d1), (d1, d0), (d1, d1)]
    x = [data.draw(block(r, c)) for r, c in shapes]
    y = [data.draw(block(r, c)) for r, c in shapes]
    got = end_mul(EndElement.from_lists(d0, d1, *x), EndElement.from_lists(d0, d1, *y))
    (xa, xb, xc, xd), (ya, yb, yc, yd) = x, y
    expected = [
        ref_mat_add(ref_mat_mul(xa, ya, d0, d0, d0), ref_mat_mul(xb, yc, d0, d1, d0)),
        ref_mat_add(ref_mat_mul(xa, yb, d0, d0, d1), ref_mat_mul(xb, yd, d0, d1, d1)),
        ref_mat_add(ref_mat_mul(xc, ya, d1, d0, d0), ref_mat_mul(xd, yc, d1, d1, d0)),
        ref_mat_add(ref_mat_mul(xc, yb, d1, d0, d1), ref_mat_mul(xd, yd, d1, d1, d1)),
    ]
    assert [_as_lists(m) for m in (got.a, got.b, got.c, got.d)] == expected


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


# ---------------------------------------------------------------------------
# uniqueness probe on Q_1
# ---------------------------------------------------------------------------

def test_q1_solution_space_is_odd_trace_line():
    rng = random.Random(2024)
    pairs = [(random_homogeneous_queer(1, rng), random_homogeneous_queer(1, rng))
             for _ in range(50)]
    basis = q1_functional_solution_space(pairs)
    assert basis == [(F(0), F(1))]


def test_q1_probe_with_no_constraints_is_full_space():
    assert len(q1_functional_solution_space([])) == 2


def test_even_trace_alone_is_not_supersymmetric():
    th = QueerElement.theta(1)
    # [theta, theta] constraint: tr X(theta^2) - (-1) tr X(theta^2) = 2 != 0
    rows = q1_functional_solution_space([(th, th)])
    assert all(alpha == 0 for alpha, _ in rows)
