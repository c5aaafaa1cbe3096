"""Exterior algebra on R^n (n <= 8) with two numeric backends.

Multivectors are stored sparsely: a dict from strictly increasing 1-based
index tuples to nonzero coefficients.  Terms handed in with out-of-order or
repeated indices are canonicalized on construction, e.g. {(2, 1): 5} becomes
{(1, 2): -5}.  There is one sign rule and one sum.  Every sign is that of
sorting an index tuple (``sort_indices``): a handed-in key, the keys of a
wedge's two terms put together, a key and its complement in the Hodge star,
the image of a key under a relabeling of the axes.  Construction, ``+``,
``wedge``, ``hook`` and ``apply_signed_permutation`` hand their (sorted key,
coefficient) pairs, in order, to one accumulator (``_sum_terms``), which
adds them up per key and drops a key whose sum is 0.

Two backends:

* ``exact``  -- coefficients are ``fractions.Fraction``, or ``ExactComplex``
  for complex ones; floats are rejected so exactness cannot silently
  degrade.
* ``float``  -- plain Python floats, or ``complex``.

The policy between them is stated here once.  A constant, such as
``Fraction(1, 2)``, is coerced by the call that takes it (``coerce_scalar``,
through ``scale``, ``Vector`` and ``Multivector``).  Objects on two
backends never mix: ``_same_backend`` raises BackendMismatch.  An identity
holds when its residual is exactly 0 on the exact backend and at most its
tolerance on the float one (``_negligible``), and never for a NaN.

Complex forms, such as the holomorphic volume form, are Multivectors with
complex coefficients and complex vectors are Vectors with complex
components: every operation runs the same code on real and complex scalars,
and ``re``, ``im`` and ``conj()`` take them apart.  ``inner`` and
``form_value`` are real and raise TypeError on complex input.

The metric is Euclidean with orthonormal basis e_1..e_n and orientation
e_1 ^ ... ^ e_n.  All operations return new objects; nothing mutates.

Alternating 4-linear maps on R^8, such as the calibration value and the
Cayley defect, are tables over FOUR_FORM_INDEX, evaluated on a 4-frame as
its 70 4x4 minors times the table.  One kernel evaluates them, the fold:
``fold_table`` scatters a table into the Laplace expansion of the minors
once, and ``four_form_values`` evaluates a batch of frames against it from
their 2x2 pair minors (those of ``pair_minors``, taken from the outer
products of rows 1, 2 and of rows 3, 4), without forming the 70 minors.  It
walks the batch in blocks of a few hundred frames, so its temporaries stay
in cache however many frames a call carries.  The other modules hold their
tables as ``FourFormTable``s, which run float and complex frames against
the table's float fold, and exact frames on integers: scaled to Python-int
numerators over one denominator (``_ratlinalg.scaled``), evaluated against
the fold of the table's own numerators, and divided once.  Graph frames
[I_4 | A], such as the flat-torus grids, have a second, float entry,
``FourFormTable.graph_values``, which takes the normal blocks A: rows 1, 2
of such a frame vanish off the axes 1, 2, 5..8 and rows 3, 4 off 3, 4,
5..8, so 13 of the 28 pair minors of each row pair are exactly 0, and the
same kernel runs on the 15 others against a (15, 15 r) slice of the fold.
It copies each block of A once component-major, each entry of A one
contiguous row over the block's frames, fills both row pairs' 15 minors
with whole-row operations, and hands the kernel the row-major minors by
one transposed copy: the products of a column-by-column fill, bit for bit.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import _ratlinalg
from .errors import (
    BackendMismatch,
    DimensionMismatch,
    GradeError,
    InputFormatError,
    check_integer,
)

EXACT = "exact"
FLOAT = "float"

_BACKENDS = (EXACT, FLOAT)


# -- exact complex scalars ------------------------------------------------


class ExactComplex:
    """A complex number with Fraction real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("ExactComplex is immutable")

    @classmethod
    def _of(cls, re, im):
        """Internal: build from two Fractions without the Fraction() wrap.
        The operations below build their results here, and the product
        skips the products with a zero part, since the exact forms run
        their arithmetic on these scalars."""
        obj = cls.__new__(cls)
        object.__setattr__(obj, "re", re)
        object.__setattr__(obj, "im", im)
        return obj

    def __add__(self, other):
        if isinstance(other, ExactComplex):
            return ExactComplex._of(self.re + other.re, self.im + other.im)
        if isinstance(other, (int, Fraction)):
            return ExactComplex._of(self.re + other, self.im)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, ExactComplex):
            return ExactComplex._of(self.re - other.re, self.im - other.im)
        if isinstance(other, (int, Fraction)):
            return ExactComplex._of(self.re - other, self.im)
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return ExactComplex._of(self.re * other, self.im * other)
        if not isinstance(other, ExactComplex):
            return NotImplemented
        a, b, c, d = self.re, self.im, other.re, other.im
        if not b:
            return ExactComplex._of(a * c, a * d)
        if not d:
            return ExactComplex._of(a * c, b * c)
        return ExactComplex._of(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            other = ExactComplex(other)
        if not isinstance(other, ExactComplex):
            return NotImplemented
        d = other.abs2()
        if d == 0:
            raise ZeroDivisionError("division by exact complex zero")
        return ExactComplex(
            (self.re * other.re + self.im * other.im) / d,
            (self.im * other.re - self.re * other.im) / d,
        )

    def __neg__(self):
        return ExactComplex._of(-self.re, -self.im)

    def conj(self):
        return ExactComplex._of(self.re, -self.im)

    # the names Python's numbers use, so that Fraction, float, complex and
    # ExactComplex coefficients all answer .real, .imag and .conjugate()
    conjugate = conj
    real = property(lambda self: self.re)
    imag = property(lambda self: self.im)

    def abs2(self):
        return self.re * self.re + self.im * self.im

    def as_complex(self):
        return complex(float(self.re), float(self.im))

    __complex__ = as_complex

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        if isinstance(other, ExactComplex):
            return self.re == other.re and self.im == other.im
        return NotImplemented

    __hash__ = None

    def __repr__(self):
        return "ExactComplex(%s, %s)" % (self.re, self.im)


# the types coerce_scalar gives a complex scalar on either backend, and the
# one type it gives a real scalar on the float backend
_COMPLEX = frozenset((ExactComplex, complex))
_FLOATS = frozenset((float,))


def _coerce_all(values, backend):
    """coerce_scalar of each value, as a tuple; Python floats are already
    what it makes on FLOAT, so an all-float tuple is kept as it is."""
    values = tuple(values)
    if backend == FLOAT and _FLOATS.issuperset(map(type, values)):
        return values
    return tuple(coerce_scalar(v, backend) for v in values)


def coerce_scalar(value, backend):
    """Coerce a scalar onto a backend, refusing lossy conversions.  Complex
    scalars are ExactComplex on the exact backend and complex on the float
    one."""
    if backend == EXACT:
        if isinstance(value, float):
            raise BackendMismatch(
                "float %r not accepted on the exact backend; "
                "pass an int, Fraction, or 'p/q' string" % (value,)
            )
        if isinstance(value, str):
            try:
                return Fraction(value)
            except (ValueError, ZeroDivisionError) as exc:
                raise InputFormatError("bad rational literal %r" % (value,)) from exc
        if isinstance(value, (int, Fraction)):
            return Fraction(value)
        if isinstance(value, ExactComplex):
            return value
        raise BackendMismatch("cannot put %r on the exact backend" % (value,))
    if backend == FLOAT:
        if isinstance(value, str):
            try:
                return float(Fraction(value))
            except (ValueError, ZeroDivisionError) as exc:
                raise InputFormatError("bad numeric literal %r" % (value,)) from exc
        if isinstance(value, (int, float, Fraction)):
            return float(value)
        if isinstance(value, complex):
            return complex(value)
        if isinstance(value, ExactComplex):
            return value.as_complex()
        raise BackendMismatch("cannot put %r on the float backend" % (value,))
    raise BackendMismatch("unknown backend %r" % (backend,))


def _size(c):
    """|c| for a real scalar; max(|Re c|, |Im c|) for an exact complex one,
    whose modulus is seldom rational; the modulus of a float complex one."""
    if isinstance(c, ExactComplex):
        return max(abs(c.re), abs(c.im))
    if isinstance(c, complex):
        return (c.real * c.real + c.imag * c.imag) ** 0.5
    return abs(c)


def _check_backend(backend):
    if backend not in _BACKENDS:
        raise BackendMismatch("unknown backend %r" % (backend,))


def _same_backend(a, b):
    if a.backend != b.backend:
        raise BackendMismatch(
            "mixed backends: %r vs %r" % (a.backend, b.backend)
        )


def _negligible(residual, backend, tol):
    """Whether a residual (or, elementwise, an array of them) is exactly 0
    on the exact backend, at most tol on the float one; a NaN never is."""
    return residual <= (0 if backend == EXACT else tol)


def _same_ambient(a, b):
    if a.n != b.n:
        raise DimensionMismatch("ambient dimensions differ: %d vs %d" % (a.n, b.n))


def sort_indices(indices):
    """Sort an index tuple, returning (sorted_tuple, sign).

    sign is the parity of the sorting permutation, or 0 if an index repeats.
    """
    idx = list(indices)
    sign = 1
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    for i in range(1, len(idx)):
        if idx[i - 1] == idx[i]:
            return tuple(idx), 0
    return tuple(idx), sign


def _sum_terms(pairs, backend, terms=()):
    """The one sum of the exterior algebra: a copy of ``terms`` plus each
    (sorted key, coefficient) pair in turn, added onto its key; a key whose
    sum is 0 is dropped, and if it comes back it comes back last."""
    zero = coerce_scalar(0, backend)
    out = dict(terms)
    for key, coeff in pairs:
        val = out.get(key, zero) + coeff
        if val == 0:
            out.pop(key, None)
        else:
            out[key] = val
    return out


class Vector:
    """A vector in R^n, or in C^n with complex components, on a fixed
    backend."""

    __slots__ = ("n", "backend", "comps")

    def __init__(self, comps, backend=EXACT):
        _check_backend(backend)
        comps = _coerce_all(comps, backend)
        if not 1 <= len(comps) <= 8:
            raise DimensionMismatch("supported ambient dimensions are 1..8")
        object.__setattr__(self, "n", len(comps))
        object.__setattr__(self, "backend", backend)
        object.__setattr__(self, "comps", comps)

    def __setattr__(self, name, value):
        raise AttributeError("Vector is immutable")

    @classmethod
    def basis(cls, n, i, backend=EXACT):
        n, i = check_integer(n, "ambient dimension"), check_integer(i, "basis index")
        if not 1 <= i <= n:
            raise DimensionMismatch("basis index %d out of range 1..%d" % (i, n))
        return cls([1 if j == i else 0 for j in range(1, n + 1)], backend)

    def __add__(self, other):
        _same_backend(self, other)
        _same_ambient(self, other)
        return Vector([a + b for a, b in zip(self.comps, other.comps)], self.backend)

    def __sub__(self, other):
        _same_backend(self, other)
        _same_ambient(self, other)
        return Vector([a - b for a, b in zip(self.comps, other.comps)], self.backend)

    def __neg__(self):
        return Vector([-a for a in self.comps], self.backend)

    def scale(self, c):
        c = coerce_scalar(c, self.backend)
        return Vector([c * a for a in self.comps], self.backend)

    def conj(self):
        return Vector([a.conjugate() for a in self.comps], self.backend)

    @property
    def re(self):
        return Vector([a.real for a in self.comps], self.backend)

    @property
    def im(self):
        return Vector([a.imag for a in self.comps], self.backend)

    def is_real(self):
        """True when no component is a complex scalar, whatever its
        imaginary part."""
        return _COMPLEX.isdisjoint(map(type, self.comps))

    def to_float(self):
        if self.backend == FLOAT:
            return self
        return Vector([float(c) for c in self.comps], FLOAT)

    def __eq__(self, other):
        return (
            isinstance(other, Vector)
            and self.n == other.n
            and self.backend == other.backend
            and self.comps == other.comps
        )

    __hash__ = None

    def __repr__(self):
        return "Vector(%s, %s)" % (list(self.comps), self.backend)


class Multivector:
    """Element of the exterior algebra of R^n, or of its complexification
    when coefficients are complex."""

    __slots__ = ("n", "backend", "terms")

    def __init__(self, n, terms=None, backend=EXACT):
        _check_backend(backend)
        n = check_integer(n, "ambient dimension")
        if not 1 <= n <= 8:
            raise DimensionMismatch("supported ambient dimensions are 1..8")
        # each coefficient is coerced before its key is sorted, so a term
        # with a repeated index, which is 0, is still refused on a bad value
        pairs = []
        for indices, coeff in (terms or {}).items():
            indices = tuple(check_integer(i, "index") for i in indices)
            for i in indices:
                if not 1 <= i <= n:
                    raise DimensionMismatch(
                        "index %d out of range 1..%d" % (i, n)
                    )
            coeff = coerce_scalar(coeff, backend)
            key, sign = sort_indices(indices)
            if sign:
                pairs.append((key, sign * coeff))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "backend", backend)
        object.__setattr__(self, "terms", _sum_terms(pairs, backend))

    def __setattr__(self, name, value):
        raise AttributeError("Multivector is immutable")

    @classmethod
    def zero(cls, n, backend=EXACT):
        return cls(n, {}, backend)

    @classmethod
    def scalar(cls, n, value, backend=EXACT):
        return cls(n, {(): value}, backend)

    @classmethod
    def basis(cls, n, indices, backend=EXACT):
        return cls(n, {tuple(indices): 1}, backend)

    def is_zero(self):
        return not self.terms

    def is_real(self):
        """True when no coefficient is a complex scalar, whatever its
        imaginary part."""
        return _COMPLEX.isdisjoint(map(type, self.terms.values()))

    def grades(self):
        return sorted({len(k) for k in self.terms})

    def coeff(self, indices):
        key, sign = sort_indices(tuple(indices))
        if sign == 0:
            return coerce_scalar(0, self.backend)
        return sign * self.terms.get(key, coerce_scalar(0, self.backend))

    def __add__(self, other):
        _same_backend(self, other)
        _same_ambient(self, other)
        return self._raw(
            self.n, _sum_terms(other.terms.items(), self.backend, self.terms), self.backend)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._raw(self.n, {k: -v for k, v in self.terms.items()}, self.backend)

    def scale(self, c):
        c = coerce_scalar(c, self.backend)
        if c == 0:
            return Multivector.zero(self.n, self.backend)
        return self._raw(self.n, {k: c * v for k, v in self.terms.items()}, self.backend)

    def conj(self):
        return self._raw(
            self.n, {k: v.conjugate() for k, v in self.terms.items()}, self.backend)

    @property
    def re(self):
        return self._part(lambda v: v.real)

    @property
    def im(self):
        return self._part(lambda v: v.imag)

    def _part(self, part):
        out = {}
        for k, v in self.terms.items():
            p = part(v)
            if p != 0:
                out[k] = p
        return self._raw(self.n, out, self.backend)

    @classmethod
    def _raw(cls, n, canon_terms, backend):
        """Internal: build from already-canonical terms without rework."""
        obj = cls.__new__(cls)
        object.__setattr__(obj, "n", n)
        object.__setattr__(obj, "backend", backend)
        object.__setattr__(obj, "terms", canon_terms)
        return obj

    def max_abs(self):
        """Largest coefficient size (see _size): a Fraction on the exact
        backend, a float on the float one, NaN if any size is NaN (max
        keeps whichever of a NaN and a number comes first)."""
        if not self.terms:
            return coerce_scalar(0, self.backend)
        sizes = [_size(v) for v in self.terms.values()]
        return float(np.max(sizes)) if self.backend == FLOAT else max(sizes)

    def __eq__(self, other):
        return (
            isinstance(other, Multivector)
            and self.n == other.n
            and self.backend == other.backend
            and self.terms == other.terms
        )

    __hash__ = None

    def __repr__(self):
        if not self.terms:
            return "Multivector(n=%d, %s, 0)" % (self.n, self.backend)
        bits = []
        for k in sorted(self.terms, key=lambda t: (len(t), t)):
            v = self.terms[k]
            name = "e%s" % ("".join(str(i) for i in k) or "0")
            bits.append("%s*%s" % (v, name))
        return "Multivector(n=%d, %s, %s)" % (self.n, self.backend, " + ".join(bits))


def volume_form(n, backend=EXACT):
    n = check_integer(n, "ambient dimension")
    return Multivector.basis(n, tuple(range(1, n + 1)), backend)


# -- core operations ------------------------------------------------------


def wedge(a, b):
    """Exterior product: each pair of terms on disjoint keys ka, kb gives
    the product of their coefficients on ka + kb, with the sign of sorting
    ka + kb."""
    _same_backend(a, b)
    _same_ambient(a, b)
    products = [
        (key, sign * va * vb)
        for ka, va in a.terms.items() for axes in [set(ka)]
        for kb, vb in b.terms.items() if axes.isdisjoint(kb)
        for key, sign in [sort_indices(ka + kb)]]
    return Multivector._raw(a.n, _sum_terms(products, a.backend), a.backend)


def wedge_many(forms):
    forms = list(forms)
    if not forms:
        raise GradeError("wedge_many needs at least one factor")
    acc = forms[0]
    for f in forms[1:]:
        acc = wedge(acc, f)
    return acc


def hook(v, a):
    """Interior product v -| a.  Dropping the index at position pos of a
    sorted key leaves it sorted, with the sign (-1)**pos."""
    _same_backend(v, a)
    if v.n != a.n:
        raise DimensionMismatch("vector and form live in different dimensions")
    comps = v.comps
    contractions = [
        (key[:pos] + key[pos + 1:], (-1 if pos % 2 else 1) * comp * coeff)
        for key, coeff in a.terms.items()
        for pos, idx in enumerate(key)
        for comp in [comps[idx - 1]] if comp != 0]
    return Multivector._raw(a.n, _sum_terms(contractions, a.backend), a.backend)


def hook_many(vectors, a):
    """Left-fold of interior products: vectors[0] first."""
    acc = a
    for v in vectors:
        acc = hook(v, acc)
    return acc


def hodge_star(a):
    """Hodge star for the Euclidean metric and orientation e_1^...^e_n,
    extended complex-linearly: e_K goes to sign * e_C, where C is the
    increasing tuple of the axes not in K and sign that of sorting K + C
    (sort_indices), so that e_K ^ *e_K = vol.  Distinct keys have distinct
    complements, so nothing is summed."""
    out = {}
    for key, coeff in a.terms.items():
        comp = tuple(i for i in range(1, a.n + 1) if i not in key)
        out[comp] = sort_indices(key + comp)[1] * coeff
    return Multivector._raw(a.n, out, a.backend)


def musical_flat(v):
    """Index-lowering: vector -> 1-form (Euclidean metric).  Its keys are
    sorted and a Vector's components coerced, so it skips the constructor."""
    terms = {(i + 1,): c for i, c in enumerate(v.comps) if c != 0}
    return Multivector._raw(v.n, terms, v.backend)


def musical_sharp(a):
    """Index-raising: 1-form -> vector.  Raises GradeError off grade 1."""
    gs = a.grades()
    if gs not in ([], [1]):
        raise GradeError("musical_sharp needs a 1-form, got grades %s" % (gs,))
    comps = [coerce_scalar(0, a.backend)] * a.n
    for key, coeff in a.terms.items():
        comps[key[0] - 1] = coeff
    return Vector(comps, a.backend)


def inner(a, b):
    """Pointwise inner product of two real homogeneous same-grade forms."""
    if not (a.is_real() and b.is_real()):
        raise TypeError("inner is defined for real forms; split re/im")
    _same_backend(a, b)
    _same_ambient(a, b)
    ga = a.grades()
    gb = b.grades()
    if len(ga) > 1 or len(gb) > 1:
        raise GradeError("inner needs homogeneous inputs (grades %s, %s)" % (ga, gb))
    if ga and gb and ga != gb:
        raise GradeError("grade mismatch in inner: %s vs %s" % (ga, gb))
    zero = coerce_scalar(0, a.backend)
    return sum((v * b.terms[k] for k, v in a.terms.items() if k in b.terms), zero)


def form_value(a, vectors):
    """Evaluate a real grade-k form on k real vectors: a Fraction on the
    exact backend, a float on the float one.  Complex input raises
    TypeError.  The value is the sum over the form's terms of the
    coefficient times the k x k minor of the vectors on the term's axes:
    each minor by _ratlinalg.det on the exact backend, all of them by one
    batched np.linalg.det on the float one."""
    if not (a.is_real() and all(v.is_real() for v in vectors)):
        raise TypeError("form_value takes a real form and real vectors")
    k = len(vectors)
    gs = a.grades()
    if gs not in ([], [k]):
        raise GradeError(
            "form of grades %s evaluated on %d vectors" % (gs, k)
        )
    for v in vectors:
        _same_backend(v, a)
        if v.n != a.n:
            raise DimensionMismatch("vector/form dimension mismatch")
    if a.backend == EXACT:
        return sum((coeff * _ratlinalg.det([[v.comps[i - 1] for i in key]
                                            for v in vectors])
                    for key, coeff in a.terms.items()), Fraction(0))
    cols = np.array(list(a.terms), dtype=int).reshape(len(a.terms), k) - 1
    frame = np.array([v.comps for v in vectors], dtype=float).reshape(k, a.n)
    minors = np.linalg.det(frame[:, cols].transpose(1, 0, 2))
    return float(np.array(list(a.terms.values()), dtype=float) @ minors)


# -- 4x4 minors of 4-frames in R^8 -------------------------------------------
#
# An alternating 4-linear map on R^8 is a table with one row per increasing
# 4-subset of the axes, and its value on a frame is the frame's 70 4x4 minors
# times that table.  The minors come from the Laplace expansion along rows
# (1, 2) | (3, 4): the minor on columns s0 < s1 < s2 < s3 is a signed sum,
# over the 6 ways to split those columns into two pairs, of the 2x2 minor of
# rows 1, 2 on the first pair times the 2x2 minor of rows 3, 4 on the second.
# The splits are listed by position in the same order for every subset, so
# each split has one sign.  fold_table moves the table into this expansion,
# so that the kernel sums splits and subsets in one matrix product.

FOUR_FORM_INDEX = tuple(itertools.combinations(range(1, 9), 4))
# the order of two-form coordinates on R^8, and each pair's position in it
TWO_FORM_INDEX = tuple(itertools.combinations(range(1, 9), 2))
PAIR_POS = {pair: p for p, pair in enumerate(TWO_FORM_INDEX)}

_SPLITS = tuple(
    (a, b) + tuple(x for x in range(4) if x not in (a, b))
    for a, b in itertools.combinations(range(4), 2)
)
# _LAPLACE[c][k] = (lo, hi, sign): the two pairs of split k of the c-th
# 4-subset, as positions in TWO_FORM_INDEX, and the split's sign
_LAPLACE = tuple(
    tuple((PAIR_POS[(quad[a], quad[b])],
           PAIR_POS[(quad[c], quad[d])],
           sort_indices((a, b, c, d))[1])
          for a, b, c, d in _SPLITS)
    for quad in FOUR_FORM_INDEX
)
_LAPLACE_LO, _LAPLACE_HI, _LAPLACE_SIGN = np.array(_LAPLACE).transpose(2, 1, 0)
_PAIR_I, _PAIR_J = np.array(TWO_FORM_INDEX).T - 1
# the entries x_i y_j and x_j y_i of the pairs i < j in a flattened (8, 8)
# outer product x y^T
_PAIR_IJ, _PAIR_JI = _PAIR_I * 8 + _PAIR_J, _PAIR_J * 8 + _PAIR_I
# frames per block of the kernel.  Against the complex torus fold (r = 4)
# the (block, 28 * r) product of four_form_values is 0.9 MB at 512 frames,
# inside a 2 MB L2 share, and the (block, 15 * r) one of the graph slice
# 0.5 MB; the graph entry's component-major copy of a block of normal
# blocks and its (2, 15, block) minors are 0.13 and 0.25 MB complex.  A
# sweep on a 2-core Xeon ran 1296 to 10000 frames 2.2 to 2.7 times faster
# than unblocked, flat from 256 to 1024 frames (CHANGES.md)
_BLOCK = 512

# On a graph frame [I_4 | A], rows 1, 2 are zero off the axes 1, 2, 5..8 and
# rows 3, 4 off the axes 3, 4, 5..8, so a pair minor of either row pair is
# exactly 0 unless the pair lies inside those six axes: 15 of the 28 pairs
# each.  The pairs of a graph frame's rows 1, 2 (_GRAPH_LO) and of its rows
# 3, 4 (_GRAPH_HI), as positions in TWO_FORM_INDEX
_GRAPH_LO, _GRAPH_HI = (
    np.array([p for p, pair in enumerate(TWO_FORM_INDEX) if set(pair) <= axes])
    for axes in ({1, 2, 5, 6, 7, 8}, {3, 4, 5, 6, 7, 8}))
# the pairs of normal axes, as positions 0..3 in a row of A
_NORMAL_I, _NORMAL_J = np.array(list(itertools.combinations(range(4), 2))).T


def fold_table(table):
    """Fold a (70, r) table into the Laplace expansion of the minors.

    Column j of ``table`` is an alternating 4-linear map on R^8, one entry
    per 4-subset of FOUR_FORM_INDEX.  Each minor is a signed sum over its 6
    splits of a rows-(1, 2) pair minor l times a rows-(3, 4) pair minor h,
    so the table becomes one matrix B with B[h, l * r + j] the signed entry
    table[c, j] of the subset c split as (l, h); each (l, h) belongs to one
    subset and one split.  Returns B as a read-only (28, 28 * r) array to
    hand to four_form_values.
    """
    table = np.asarray(table)
    if table.ndim != 2 or table.shape[0] != len(FOUR_FORM_INDEX):
        raise DimensionMismatch(
            "need a (70, r) table, got shape %s" % (table.shape,))
    r = table.shape[1]
    fold = np.zeros((len(TWO_FORM_INDEX), len(TWO_FORM_INDEX), r),
                    np.result_type(table.dtype, np.float64))
    for lo, hi, sign in zip(_LAPLACE_LO, _LAPLACE_HI, _LAPLACE_SIGN[:, 0]):
        fold[hi, lo] = sign * table
    fold = fold.reshape(len(TWO_FORM_INDEX), len(TWO_FORM_INDEX) * r)
    fold.flags.writeable = False
    return fold


def pair_minors(x, y):
    """The 28 2x2 minors x_i y_j - x_j y_i of two rows of 8 entries, over
    the pairs i < j in the order of TWO_FORM_INDEX; x and y may carry
    leading batch axes, which the result keeps.  Any entries with + and *
    will do: floats, complex numbers, or ExactComplex and Python ints in
    numpy object arrays."""
    return x[..., _PAIR_I] * y[..., _PAIR_J] - x[..., _PAIR_J] * y[..., _PAIR_I]


def _frame_pair_minors(block):
    """The 28 pair minors of rows 1, 2 and of rows 3, 4 of (n, 4, 8) frames:
    pair_minors of each row pair, bit for bit, read off its outer product."""
    outer = block[:, 0::2, :, None] * block[:, 1::2, None, :]
    outer = outer.reshape(len(block), 2, 64)
    minors = outer.take(_PAIR_IJ, axis=2) - outer.take(_PAIR_JI, axis=2)
    return minors[:, 0], minors[:, 1]


def _graph_pair_minors(block):
    """The 15 pair minors on _GRAPH_LO of rows 1, 2 and on _GRAPH_HI of rows
    3, 4 of the graph frames [I_4 | A] of (n, 4, 4) normal blocks A, as two
    C-contiguous (n, 15) arrays.  The rows e_a + x and e_b + y, a < b <= 4,
    of a graph frame on the six axes a, b, 5..8 give, in the order of
    TWO_FORM_INDEX: (a, b) 1, (a, 4 + m) y_m, (b, 4 + m) -x_m, and the pairs
    of normal axes the 2x2 minors of x and y.  The block is copied once
    component-major, each entry of A a contiguous length-n row, so both row
    pairs are filled at once with whole-row operations into one (2, 15, n)
    array, and one transposed copy hands the kernel its row-major operands."""
    a = np.ascontiguousarray(block.transpose(1, 2, 0))
    x, y = a[0::2], a[1::2]
    out = np.empty((2, len(_GRAPH_LO), len(block)), a.dtype)
    out[:, 0] = 1
    out[:, 1:5] = y
    np.negative(x, out=out[:, 5:9])
    np.subtract(x[:, _NORMAL_I] * y[:, _NORMAL_J], x[:, _NORMAL_J] * y[:, _NORMAL_I],
                out=out[:, 9:])
    top, bottom = out.transpose(0, 2, 1).copy()
    return top, bottom


def _contract(frames, fold, minors):
    """The kernel: a batch's pair minors against a fold, _BLOCK frames at a
    time.  ``fold`` has one row per pair of rows 3, 4 and r columns per
    pair of rows 1, 2, the same pairs, and ``minors(block)`` gives a
    block's (top, bottom) pair minors of rows 1, 2 and of rows 3, 4 on
    them.  ``bottom @ fold`` sums every split of every subset at once, and
    a batched matmul with ``top`` contracts the result into the block's
    rows of the preallocated (P, r) output."""
    P = frames.shape[0]
    pairs = fold.shape[0]
    r = fold.shape[1] // pairs
    out = np.empty((P, r), np.result_type(frames.dtype, fold.dtype))
    for start in range(0, P, _BLOCK):
        top, bottom = minors(frames[start:start + _BLOCK])
        folded = (bottom @ fold).reshape(len(top), pairs, r)
        np.matmul(top[:, None, :], folded, out=out[start:start + _BLOCK, None, :])
    return out


def four_form_values(frames, fold):
    """A batch of 4-frames' 70 4x4 minors times a table, without the minors.

    ``frames`` is a (P, 4, 8) array of frame rows and ``fold`` is
    fold_table(table) for a (70, r) table, both float or complex, or both
    Python ints in object arrays (FourFormTable on exact frames).  Returns
    the (P, r) array ``minors @ table``, from the kernel _contract on the
    28 pair minors of rows 1, 2 and of rows 3, 4.  The largest temporary is
    one (_BLOCK, 28 * r) array, which stays in cache however large P grows.

    Float values may differ in the last bit with the batch: OpenBLAS rounds
    ``bottom @ fold`` for one frame otherwise than for a row of a larger
    batch, and at small batches (2 to 19 frames against the Cayley fold)
    otherwise for C- than for Fortran-ordered minors, whatever the buffer's
    address.  A frame's values are bitwise reproducible at a fixed batch.
    """
    frames = np.asarray(frames)
    if frames.ndim != 3 or frames.shape[1:] != (4, 8):
        raise DimensionMismatch(
            "need a (P, 4, 8) array of 4-frames, got shape %s" % (frames.shape,))
    return _contract(frames, fold, _frame_pair_minors)


class FourFormTable:
    """A (70, r) table of alternating 4-linear maps on R^8, exact
    (Fractions, ints or ExactComplex) or float (float or complex).  Called
    on one 4-frame or a (P, 4, 8) batch, it gives the frames' 70 minors
    times the table by four_form_values, against one of two folds, each
    built on first use.  Float or complex frames run against the fold of
    the table as floats (float(Fraction), complex(ExactComplex), both
    correctly rounded) and give an (r,) or a (P, r) array.  Exact frames
    run against the fold of the table's integer numerators over their
    denominator d (_ratlinalg.scaled; a table of Fractions and ints only,
    else BackendMismatch): they are scaled to integers over one denominator
    q, and the values, quartic in the frame, are divided once, by d * q**4,
    giving a tuple of r Fractions or a tuple of P such tuples.
    ``graph_values`` is the float entry for graph frames [I_4 | A], given by
    their normal blocks A.  ``table`` is the table itself, a read-only copy.
    """

    def __init__(self, table):
        self.table = np.array(table)
        self.table.flags.writeable = False

    def __call__(self, frames):
        frames = np.asarray(frames)
        one = frames.ndim == 2
        batch = frames[None] if one else frames
        if frames.dtype.kind in "fc":
            values = four_form_values(batch, self._float_fold)
        else:
            fold, den = self._exact_fold
            nums, q = _ratlinalg.scaled(batch)
            values = _ratlinalg.unscaled(four_form_values(nums, fold), den * q**4)
        return values[0] if one else values

    def graph_values(self, normal_blocks):
        """The (P, r) values of the graph frames [I_4 | A] of a (P, 4, 4)
        float or complex stack of normal blocks A, as this table called on
        the (P, 4, 8) frames would give them up to rounding.  Only 15 of the
        28 pair minors of each row pair can be nonzero on such a frame
        (_GRAPH_LO, _GRAPH_HI), so the kernel runs on the (15, 15 * r) slice
        of the float fold that meets them, 225 of its 784 (l, h) pairs,
        built on first use; the minors it skips are exactly 0.  Each block
        of A is copied once component-major, so the 15 minors of both row
        pairs are filled by whole-row operations (_graph_pair_minors), the
        same products as a column-by-column fill, bit for bit."""
        blocks = np.asarray(normal_blocks)
        if blocks.ndim != 3 or blocks.shape[1:] != (4, 4):
            raise DimensionMismatch(
                "need a (P, 4, 4) array of normal blocks, got shape %s"
                % (blocks.shape,))
        if blocks.dtype.kind not in "fc":
            raise BackendMismatch("graph frames take float or complex normal blocks")
        return _contract(blocks, self._graph_fold, _graph_pair_minors)

    @cached_property
    def _graph_fold(self):
        fold = self._float_fold
        pairs = len(TWO_FORM_INDEX)
        r = fold.shape[1] // pairs
        graph = fold.reshape(pairs, pairs, r)[np.ix_(_GRAPH_HI, _GRAPH_LO)]
        graph = graph.reshape(len(_GRAPH_HI), len(_GRAPH_LO) * r)
        graph.flags.writeable = False
        return graph

    @cached_property
    def _float_fold(self):
        table = self.table
        if table.dtype == object:
            real = _COMPLEX.isdisjoint(map(type, table.flat))
            table = table.astype(float if real else complex)
        return fold_table(table)

    @cached_property
    def _exact_fold(self):
        if (self.table.dtype.kind in "fc"
                or not _COMPLEX.isdisjoint(map(type, self.table.flat))):
            raise BackendMismatch("exact frames need a table of Fractions or ints")
        nums, den = _ratlinalg.scaled(self.table)
        return fold_table(nums), den


def apply_signed_permutation(a, perm, signs):
    """Push a multivector through the isometry e_i -> signs[i-1] * e_perm[i-1].

    ``perm`` is a sequence of length n with 1-based targets forming a
    permutation; ``signs`` is a sequence of +-1.
    """
    perm = tuple(check_integer(p, "perm entry", least=None) for p in perm)
    signs = tuple(check_integer(s, "sign", least=None) for s in signs)
    if sorted(perm) != list(range(1, a.n + 1)):
        raise DimensionMismatch("perm %r is not a permutation of 1..%d" % (perm, a.n))
    if len(signs) != a.n or any(s not in (-1, 1) for s in signs):
        raise DimensionMismatch("signs must be +-1 of length %d" % (a.n,))
    images = [
        (image, math.prod(signs[i - 1] for i in key) * sign * coeff)
        for key, coeff in a.terms.items()
        for image, sign in [sort_indices(tuple(perm[i - 1] for i in key))]]
    return Multivector._raw(a.n, _sum_terms(images, a.backend), a.backend)
