"""Exact linear algebra over Fraction.

Small dense routines used by the exact backend.  Matrices are lists of
lists of Fraction (rows).

* ``scaled`` and ``unscaled`` carry a matrix of Fractions to Python-int
  numerators over one common denominator and back.  The numerators sit in a
  numpy ``object`` array, so a product of two matrices is one numpy matmul
  on Python ints, exact at any size of entry (no int64 and so no overflow),
  with the denominators multiplied once.  ``matmul`` is that product.  The
  exact defect tables and two-form operators are built and applied this
  way, and exact 4-frames, one or a batch over one denominator, are
  evaluated against the tables this way (exterior.exact_four_form_values);
  it is many times cheaper than summing Fractions entry by entry.
* ``rref``, ``rank`` and ``det`` are the elimination routines of the graph
  solver (rref of the 4x5 system [A | -b] that one batched
  exact_four_form_values call gives) and the structure checks; their
  sizes are at most 28x28, so they stay plain Fraction loops.
"""

import math
from fractions import Fraction

import numpy as np


def scaled(values):
    """An array of Fractions (ints mix in), any nesting of rows, as
    (numerators, denominator): an object array of Python ints of the same
    shape and the least common denominator, so that entry by entry
    values == numerators / denominator."""
    arr = np.array(values, dtype=object)
    den = math.lcm(*(x.denominator for x in arr.flat))
    nums = np.empty(arr.shape, dtype=object)
    nums.flat = [x.numerator * (den // x.denominator) for x in arr.flat]
    return nums, den


_ZERO = Fraction(0)


def unscaled(nums, den):
    """numerators / denominator as Fractions, in tuples nested like nums.
    Zero entries, most of a defect table, share one Fraction."""
    if nums.ndim == 1:
        return tuple(Fraction(int(n), den) if n else _ZERO for n in nums)
    return tuple(unscaled(row, den) for row in nums)


def matmul(a, b):
    """The exact product a @ b of two matrices of Fractions, as a tuple of
    rows of Fractions: one product of the scaled numerators."""
    a_nums, a_den = scaled(a)
    b_nums, b_den = scaled(b)
    return unscaled(a_nums @ b_nums, a_den * b_den)


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
