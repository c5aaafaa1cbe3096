"""The fraction-free elimination of _ratlinalg against a Fraction Gauss-Jordan."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cayleykit import _ratlinalg
from cayleykit.exterior import inner
from cayleykit.spin7 import lambda27_basis


def gauss_jordan(mat):
    """The reference elimination: Gauss-Jordan over Fraction, each pivot
    row divided by its pivot.  Returns (reduced rows, pivot columns,
    determinant), the determinant being the product of the pivots with the
    sign of the row swaps for a square matrix of full rank, 0 for a
    singular one.  The input is not modified."""
    rows = [[Fraction(x) for x in row] for row in mat]
    ncols = len(rows[0]) if rows else 0
    pivots = []
    det = Fraction(1)
    r = 0
    for c in range(ncols):
        if r == len(rows):
            break
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
            det = -det
        pv = rows[r][c]
        det *= pv
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    if len(pivots) < len(rows) or len(rows) != ncols:
        det = Fraction(0)
    return rows, pivots, det


def reference_solve(a, b):
    """x with a x = b by gauss_jordan of [a | b], for a nonsingular a."""
    rows, pivots, _ = gauss_jordan([list(row) + [v] for row, v in zip(a, b)])
    assert pivots[:len(a)] == list(range(len(a))), "singular"
    return tuple(row[-1] for row in rows)


small = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))
# 21-digit numerators and denominators, far past int64
big = st.builds(Fraction, st.integers(-10**21, 10**21), st.integers(10**20, 10**21))


@st.composite
def matrices(draw, entries=small, square=False):
    """n x m rational matrices, n, m <= 8: a product of n x k and k x m
    factors, k <= 8, rank-deficient when k < min(n, m), some rows then
    zeroed and the rows shuffled, so that pivots are missing and rows must
    swap."""
    n = draw(st.integers(0, 8))
    m = n if square else draw(st.integers(0, 8))
    k = draw(st.integers(0, 8))
    entry = st.one_of(st.just(Fraction(0)), entries)
    left = [[draw(entry) for _ in range(k)] for _ in range(n)]
    right = [[draw(entry) for _ in range(m)] for _ in range(k)]
    mat = [[sum((left[i][t] * right[t][j] for t in range(k)), Fraction(0))
            for j in range(m)] for i in range(n)]
    zeroed = draw(st.sets(st.integers(0, max(n - 1, 0)), max_size=2))
    mat = [[Fraction(0)] * m if i in zeroed else row for i, row in enumerate(mat)]
    return draw(st.permutations(mat))


@given(matrices())
@settings(max_examples=80, deadline=None)
def test_rank_matches_the_reference(mat):
    assert _ratlinalg.rank(mat) == len(gauss_jordan(mat)[1])


@given(matrices(square=True))
@settings(max_examples=80, deadline=None)
def test_det_matches_the_reference(mat):
    assert _ratlinalg.det(mat) == gauss_jordan(mat)[2]


@given(matrices(square=True), st.lists(small, min_size=8, max_size=8))
@settings(max_examples=80, deadline=None)
def test_solve_matches_the_reference_or_refuses(mat, rhs):
    b = rhs[:len(mat)]
    if gauss_jordan(mat)[2] == 0:
        with pytest.raises(ValueError):
            _ratlinalg.solve(mat, b)
    else:
        x = _ratlinalg.solve(mat, b)
        assert x == reference_solve(mat, b)
        assert all(sum((a * v for a, v in zip(row, x)), Fraction(0)) == bi
                   for row, bi in zip(mat, b))


@given(matrices(entries=big, square=True), st.lists(big, min_size=8, max_size=8))
@settings(max_examples=25, deadline=None)
def test_det_and_solve_with_21_digit_denominators(mat, rhs):
    det = gauss_jordan(mat)[2]
    assert _ratlinalg.det(mat) == det
    assert _ratlinalg.rank(mat) == len(gauss_jordan(mat)[1])
    b = rhs[:len(mat)]
    if det != 0:
        assert _ratlinalg.solve(mat, b) == reference_solve(mat, b)


def test_small_cases():
    assert _ratlinalg.det([]) == 1
    assert _ratlinalg.rank([]) == 0
    assert _ratlinalg.solve([], []) == ()
    # one swap, so the sign flips
    assert _ratlinalg.det([[0, 1], [1, 0]]) == -1
    assert _ratlinalg.solve([[0, 2], [3, 0]], [1, 1]) == (Fraction(1, 3), Fraction(1, 2))
    with pytest.raises(ValueError):
        _ratlinalg.solve([[1, 2], [2, 4]], [1, 1])
    with pytest.raises(ValueError):
        _ratlinalg.det([[1, 2]])
    with pytest.raises(ValueError):
        _ratlinalg.solve([[1, 2], [3, 4]], [1])


def test_structure_ranks_match_the_reference(phi_exact):
    # the 7 + 21 split of two-forms and the span of the 28 generators
    P = phi_exact.proj7_matrix()
    comp = [[Fraction(int(i == j)) - P[i][j] for j in range(28)] for i in range(28)]
    gens = lambda27_basis(phi_exact)
    gram = [[inner(a, b) for b in gens] for a in gens]
    for mat, want in ((P, 7), (comp, 21), (gram, 7)):
        assert _ratlinalg.rank(mat) == len(gauss_jordan(mat)[1]) == want
