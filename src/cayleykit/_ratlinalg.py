"""Exact linear algebra over Fraction.

Small dense routines used by the exact backend: reduced row echelon form,
rank and determinant.  Matrices are lists of lists of Fraction (rows).
Nothing here is performance critical -- sizes are at most 28x28 -- so
clarity wins over cleverness.
"""

from fractions import Fraction


def _as_fraction_rows(mat):
    return [[Fraction(x) for x in row] for row in mat]


def rref(mat):
    """Reduced row echelon form.

    Returns (rows, pivot_columns).  The input is not modified.
    """
    rows = _as_fraction_rows(mat)
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(rows)):
            if rows[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def rank(mat):
    _, pivots = rref(mat)
    return len(pivots)


def det(mat):
    """Determinant by fraction-free-ish Gaussian elimination."""
    rows = _as_fraction_rows(mat)
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("det needs a square matrix")
    sign = 1
    out = Fraction(1)
    for c in range(n):
        pivot_row = None
        for i in range(c, n):
            if rows[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != c:
            rows[c], rows[pivot_row] = rows[pivot_row], rows[c]
            sign = -sign
        pv = rows[c][c]
        out *= pv
        for i in range(c + 1, n):
            if rows[i][c] != 0:
                f = rows[i][c] / pv
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    return sign * out
