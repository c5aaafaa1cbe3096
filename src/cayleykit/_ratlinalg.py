"""Exact linear algebra over Fraction.

Small dense routines used by the exact backend.  Matrices are lists of
lists of Fraction (rows).

* ``scaled`` and ``unscaled`` carry a matrix of Fractions to Python-int
  numerators over one common denominator and back.  The numerators sit in a
  numpy ``object`` array, so a product of two matrices is one numpy matmul
  on Python ints, exact at any size of entry (no int64 and so no overflow),
  with the denominators multiplied once.  ``matmul`` is that product.  The
  exact defect tables and two-form operators are built and applied this
  way, and exact 4-frames are evaluated against the tables this way
  (exterior.FourFormTable); it is many times cheaper than summing
  Fractions entry by entry.
* ``rank``, ``det`` and ``solve`` are read off one fraction-free
  Gauss-Jordan elimination (Bareiss, Math. Comp. 22, 1968) of the scaled
  numerators, whose entries stay integers: the structure checks take the
  rank of 28x28 matrices, form_value takes determinants, and the exact
  graph solver solves its 4x4 system A x = -b.
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


def _eliminate(nums):
    """Fraction-free Gauss-Jordan elimination (Bareiss) of an object array
    of integer numerators, in place.  Column by column, the first nonzero
    entry at or below the next pivot row is swapped up, and every other row
    becomes (pivot * row - entry * pivot row) // previous pivot, an exact
    division (Sylvester's identity: every entry is then a minor of the
    input).  After k pivots each pivot entry is the k-th pivot, +-det of
    the first k pivot rows and columns.  Returns (pivot columns, last
    pivot, sign of the row swaps)."""
    pivots, prev, sign = [], 1, 1
    for c in range(nums.shape[1]):
        r = len(pivots)
        if r == len(nums):
            break
        nonzero = np.flatnonzero(nums[r:, c] != 0)
        if not nonzero.size:
            continue
        k = r + nonzero[0]
        if k != r:
            nums[[r, k]] = nums[[k, r]]
            sign = -sign
        pivot = nums[r, c]
        rest = np.arange(len(nums)) != r
        nums[rest] = (pivot * nums[rest]
                      - np.multiply.outer(nums[rest, c], nums[r])) // prev
        pivots.append(c)
        prev = pivot
    return pivots, prev, sign


def rank(mat):
    return len(_eliminate(np.atleast_2d(scaled(mat)[0]))[0])


def det(mat):
    """Determinant of a square matrix of Fractions; 1 for the empty one."""
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise ValueError("det needs a square matrix")
    nums, den = scaled(mat)
    pivots, prev, sign = _eliminate(nums.reshape(n, n))
    if len(pivots) < n:
        return Fraction(0)
    return Fraction(sign * prev, den**n)


def solve(a, b):
    """The x with a x = b, for a square matrix a of Fractions and a vector
    b, as a tuple of Fractions.  Eliminating [a | b] leaves the last pivot
    p on the diagonal of a's columns and p x in the last column.  Raises
    ValueError when a is singular."""
    n = len(a)
    if len(b) != n or any(len(row) != n for row in a):
        raise ValueError("solve needs a square matrix and a vector of its size")
    nums = scaled([list(row) + [v] for row, v in zip(a, b)])[0].reshape(n, n + 1)
    pivots, prev, _ = _eliminate(nums)
    if pivots[:n] != list(range(n)):
        raise ValueError("solve needs a nonsingular matrix")
    return tuple(Fraction(v, prev) for v in nums[:, n])
