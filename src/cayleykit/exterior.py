"""Exterior algebra on R^n (n <= 8) with two numeric backends.

A Multivector keeps its terms as a dict from blades to nonzero coefficients.
A blade is an 8-bit mask, bit i - 1 standing for the axis e_i, as in the
bitmap representation of Dorst, Fontijne and Mann, *Geometric Algebra for
Computer Science* (2007), Ch. 19.  Terms handed in with out-of-order or
repeated indices are canonicalized on construction, e.g. {(2, 1): 5}
becomes {(1, 2): -5}: ``sort_indices`` parses the tuple keys callers hand
in, and nothing else.  Every other sign is read off masks by popcounts:
that of a wedge of two blades, of a blade and its complement in the Hodge
star, of dropping one axis in a hook and of relabeling the axes.
Construction, ``+``, ``wedge``, ``hook`` and ``apply_signed_permutation``
hand their (mask, coefficient) pairs, in order, to one accumulator
(``_sum``), which adds them up per mask and drops a mask whose sum is 0.

Two backends:

* ``exact``  -- a form keeps Python-int numerators over one positive
  denominator: an int for a real coefficient, a Gaussian-integer pair
  (re, im) for a complex one.  Each operation runs on the integers and
  divides out the gcd of the result's numerators and denominator once.
  At the API the coefficients are ``fractions.Fraction``, or
  ``ExactComplex`` for complex ones; floats are rejected so exactness
  cannot silently degrade.
* ``float``  -- plain Python floats, or ``complex``, over no denominator.

``terms`` is the public view: a dict from strictly increasing 1-based index
tuples to Fractions, ExactComplex, floats or complexes, built from the
blades on first use and kept on the immutable form.  Its keys come in the
order the accumulator made them, a key that cancels and comes back going
last; each value keeps the type its terms give it (complex if a complex
term reached it since it last cancelled) and, on the float backend, the
bits of the operations written out term by term.

The policy between the backends is stated here once.  A constant, such as
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
Other modules read a form through the functions here (``numerators``,
``coefficient_matrix``, ``from_numerators``, ``substitute``,
``relabel_blade`` and the methods ``blades``, ``coefficients``, ``without``
and ``restrict``), never through its masks or numerators.

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

import functools
import itertools
import math
import operator
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
        # ExactComplex is tested first: isinstance against Fraction, an
        # abstract base class's subclass, is the slow check
        if not isinstance(other, ExactComplex):
            if isinstance(other, (int, Fraction)):
                return ExactComplex._of(self.re * other, self.im * other)
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
        if isinstance(other, ExactComplex):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
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
    It parses the tuple keys that callers hand in; the operations take
    their signs from masks.
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


# -- blades and their signs ---------------------------------------------------
#
# A blade is a mask, bit i - 1 for the axis e_i, and _KEY[m] its sorted
# 1-based index tuple.  Putting a sorted blade a before a disjoint sorted
# blade b and sorting takes one swap per pair (i in a, j in b) with i > j,
# so its sign is the parity of the sum over j in b of popcount(a & the
# bits above j): the parity of popcount(a & _ABOVE[b]), _ABOVE[b] being the
# XOR of those masks of bits above, one table of 256 entries.


def _mask(key):
    """The blade of a sorted index tuple."""
    return sum(1 << (i - 1) for i in key)


_KEY = tuple(tuple(i + 1 for i in range(8) if m >> i & 1) for m in range(256))
_ABOVE = tuple(
    functools.reduce(operator.xor,
                     (0xFF ^ ((2 << i) - 1) for i in range(8) if m >> i & 1), 0)
    for m in range(256))


# _DROPS[m]: per axis of the blade m, in increasing order, the blade less
# that axis, the parity of the axis's position and its 0-based index
_DROPS = tuple(tuple((m ^ (1 << (i - 1)), pos & 1, i - 1) for pos, i in enumerate(_KEY[m]))
               for m in range(256))


def _merge_sign(a, b):
    """The sign of sorting blade a followed by the disjoint blade b."""
    return -1 if (a & _ABOVE[b]).bit_count() & 1 else 1


def relabel_blade(mask, perm):
    """The image of a blade under the relabeling e_i -> e_perm[i-1]: the
    image blade, and the sign of sorting the images of its axes taken in
    increasing order.  Only the entries of ``perm`` on the blade's axes are
    read, 1-based targets, distinct on them."""
    image, swaps = 0, 0
    for i in _KEY[mask]:
        bit = 1 << (perm[i - 1] - 1)
        # each image already placed above this one is a swap
        swaps += (image & -(bit << 1)).bit_count()
        image |= bit
    return image, -1 if swaps & 1 else 1


# -- exact numerators ---------------------------------------------------------
#
# On the exact backend a coefficient c is stored as a numerator over the
# form's denominator: an int for a Fraction, an (re, im) pair of ints for an
# ExactComplex.  The sums and products below take both kinds; a pair is
# only ever met where an ExactComplex was, so each value keeps its type, and
# a pair that sums to 0 becomes the int 0.


def _denominator(c):
    if isinstance(c, ExactComplex):
        return math.lcm(c.re.denominator, c.im.denominator)
    return c.denominator


def _numerator(c, den):
    """c * den for a Fraction or ExactComplex c whose denominator divides
    den: an int, or an (re, im) pair."""
    if isinstance(c, ExactComplex):
        return (c.re.numerator * (den // c.re.denominator),
                c.im.numerator * (den // c.im.denominator))
    return c.numerator * (den // c.denominator)


def _gadd(x, y):
    if type(x) is int:
        if type(y) is int:
            return x + y
        re, im = x + y[0], y[1]
    elif type(y) is int:
        re, im = x[0] + y, x[1]
    else:
        re, im = x[0] + y[0], x[1] + y[1]
    return (re, im) if re or im else 0


def _gmul(x, y):
    if type(x) is int:
        if type(y) is int:
            return x * y
        return (x * y[0], x * y[1])
    a, b = x
    if type(y) is int:
        return (a * y, b * y)
    c, d = y
    return (a * c - b * d, a * d + b * c)


def _arith(*groups):
    """(add, mul) for the values in ``groups``: Python's own + and * on
    ints, floats and complexes, the pair arithmetic once a Gaussian-integer
    pair is among them."""
    for values in groups:
        for v in values:
            if type(v) is tuple:
                return _gadd, _gmul
    return operator.add, operator.mul


def _reduce(blades, den):
    """Divide the numerators and den by their gcd, once per result."""
    parts = [den]
    for v in blades.values():
        if type(v) is tuple:
            parts += v
        else:
            parts.append(v)
    g = math.gcd(*parts)
    if g == 1:
        return blades, den
    return {m: (v[0] // g, v[1] // g) if type(v) is tuple else v // g
            for m, v in blades.items()}, den // g


def _scalar(v, den, backend):
    """The public coefficient of a stored value."""
    if backend == FLOAT:
        return v
    if type(v) is tuple:
        return ExactComplex._of(Fraction(v[0], den), Fraction(v[1], den))
    return Fraction(v, den)


def _vector_numerators(v):
    """A vector's components as numerators over one denominator, a 0
    component as the int 0; floats over 1 on the float backend."""
    if v.backend == FLOAT:
        return v.comps, 1
    den = math.lcm(*map(_denominator, v.comps))
    return [_numerator(c, den) if c != 0 else 0 for c in v.comps], den


_ZERO = {EXACT: 0, FLOAT: 0.0}


def _sum(pairs, add, zero, start=()):
    """The one sum of the exterior algebra: a copy of ``start`` plus each
    (mask, value) pair in turn, added onto its mask; a mask whose sum is 0
    is dropped, and if it comes back it comes back last."""
    out = dict(start)
    get, pop = out.get, out.pop
    for mask, value in pairs:
        value = add(get(mask, zero), value)
        if value == 0:
            pop(mask, None)
        else:
            out[mask] = value
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


# the stored value types of a complex coefficient: an exact numerator pair
# and a float complex
_COMPLEX_VALUES = frozenset((tuple, complex))


class Multivector:
    """Element of the exterior algebra of R^n, or of its complexification
    when coefficients are complex."""

    __slots__ = ("n", "backend", "_blades", "_den", "_terms")

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
                pairs.append((_mask(key), sign, coeff))
        den = 1
        if backend == EXACT:
            den = math.lcm(*[_denominator(c) for _, _, c in pairs])
            pairs = [(m, s, _numerator(c, den)) for m, s, c in pairs]
        add, mul = _arith([c for _, _, c in pairs])
        blades = _sum([(m, mul(s, c)) for m, s, c in pairs], add, _ZERO[backend])
        _init(self, n, backend, blades, den)

    def __setattr__(self, name, value):
        raise AttributeError("Multivector is immutable")

    @classmethod
    def _of(cls, n, backend, blades, den=1):
        """Internal: build from mask-keyed values over den, reduced once."""
        obj = cls.__new__(cls)
        _init(obj, n, backend, blades, den)
        return obj

    @classmethod
    def zero(cls, n, backend=EXACT):
        return cls(n, {}, backend)

    @classmethod
    def scalar(cls, n, value, backend=EXACT):
        return cls(n, {(): value}, backend)

    @classmethod
    def basis(cls, n, indices, backend=EXACT):
        return cls(n, {tuple(indices): 1}, backend)

    @property
    def terms(self):
        """The public view: sorted index tuple -> coefficient, in the order
        of the blades, built on first use."""
        if self._terms is None:
            object.__setattr__(self, "_terms", {
                _KEY[m]: c for m, c in self.blades().items()})
        return self._terms

    def blades(self):
        """The terms keyed by blade, bit i - 1 for the axis e_i, in the
        order of ``terms``: a new dict of public coefficients."""
        den, backend = self._den, self.backend
        if backend == FLOAT:
            return dict(self._blades)
        return {m: _scalar(v, den, backend) for m, v in self._blades.items()}

    def coefficients(self):
        """The coefficients in the order of ``terms``, as a tuple."""
        return tuple(self.blades().values())

    def is_zero(self):
        return not self._blades

    def is_real(self):
        """True when no coefficient is a complex scalar, whatever its
        imaginary part."""
        return _COMPLEX_VALUES.isdisjoint(map(type, self._blades.values()))

    def grades(self):
        return sorted({m.bit_count() for m in self._blades})

    def coeff(self, indices):
        key, sign = sort_indices(tuple(indices))
        if sign == 0:
            return coerce_scalar(0, self.backend)
        return sign * self.terms.get(key, coerce_scalar(0, self.backend))

    def without(self, keys):
        """This form less its terms on the sorted index tuples ``keys``."""
        drop = {_mask(key) for key in keys}
        return Multivector._of(self.n, self.backend, {
            m: v for m, v in self._blades.items() if m not in drop}, self._den)

    def restrict(self, m):
        """The terms on the axes 1..m alone, as a form on R^m."""
        m = check_integer(m, "ambient dimension")
        if not 1 <= m <= self.n:
            raise DimensionMismatch("cannot restrict R^%d to R^%d" % (self.n, m))
        return Multivector._of(m, self.backend, {
            b: v for b, v in self._blades.items() if b >> m == 0}, self._den)

    def __add__(self, other):
        _same_backend(self, other)
        _same_ambient(self, other)
        den = math.lcm(self._den, other._den)
        a, b = _rescaled(self, den), _rescaled(other, den)
        add, _ = _arith(a.values(), b.values())
        return Multivector._of(
            self.n, self.backend, _sum(b.items(), add, _ZERO[self.backend], a), den)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Multivector._of(self.n, self.backend, {
            m: (-v[0], -v[1]) if type(v) is tuple else -v
            for m, v in self._blades.items()}, self._den)

    def scale(self, c):
        c = coerce_scalar(c, self.backend)
        if c == 0:
            return Multivector.zero(self.n, self.backend)
        den = 1
        if self.backend == EXACT:
            den = _denominator(c)
            c = _numerator(c, den)
        _, mul = _arith(self._blades.values(), [c])
        return Multivector._of(self.n, self.backend, {
            m: mul(c, v) for m, v in self._blades.items()}, self._den * den)

    def conj(self):
        if self.backend == FLOAT:
            blades = {m: v.conjugate() for m, v in self._blades.items()}
        else:
            blades = {m: (v[0], -v[1]) if type(v) is tuple else v
                      for m, v in self._blades.items()}
        return Multivector._of(self.n, self.backend, blades, self._den)

    @property
    def re(self):
        return self._part(0)

    @property
    def im(self):
        return self._part(1)

    def _part(self, which):
        """The real (0) or imaginary (1) parts, each a real coefficient,
        the parts that are 0 dropped."""
        out = {}
        for m, v in self._blades.items():
            if type(v) is tuple:
                p = v[which]
            elif self.backend == FLOAT:
                p = v.imag if which else v.real
            else:
                p = 0 if which else v
            if p != 0:
                out[m] = p
        return Multivector._of(self.n, self.backend, out, self._den)

    def max_abs(self):
        """Largest coefficient size (see _size): a Fraction on the exact
        backend, a float on the float one, NaN if any size is NaN (max
        keeps whichever of a NaN and a number comes first)."""
        if not self._blades:
            return coerce_scalar(0, self.backend)
        if self.backend == FLOAT:
            return float(np.max([_size(v) for v in self._blades.values()]))
        return Fraction(max(max(abs(v[0]), abs(v[1])) if type(v) is tuple else abs(v)
                            for v in self._blades.values()), self._den)

    def __eq__(self, other):
        if not (isinstance(other, Multivector) and self.n == other.n
                and self.backend == other.backend):
            return False
        if self._den == other._den and self._blades == other._blades:
            return True
        # a Fraction equals an ExactComplex with imaginary part 0
        return self.terms == other.terms

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


def _init(obj, n, backend, blades, den):
    if den != 1:
        blades, den = _reduce(blades, den)
    object.__setattr__(obj, "n", n)
    object.__setattr__(obj, "backend", backend)
    object.__setattr__(obj, "_blades", blades)
    object.__setattr__(obj, "_den", den)
    object.__setattr__(obj, "_terms", None)


def _rescaled(a, den):
    """a's values over den, a multiple of a's denominator."""
    k = den // a._den
    if k == 1:
        return a._blades
    return {m: (v[0] * k, v[1] * k) if type(v) is tuple else v * k
            for m, v in a._blades.items()}


def volume_form(n, backend=EXACT):
    n = check_integer(n, "ambient dimension")
    return Multivector.basis(n, tuple(range(1, n + 1)), backend)


# -- core operations ------------------------------------------------------


def wedge(a, b):
    """Exterior product: each pair of terms on disjoint blades ma, mb gives
    the product of their coefficients on ma | mb, with the sign of sorting
    ma's axes followed by mb's (_merge_sign)."""
    _same_backend(a, b)
    _same_ambient(a, b)
    add, mul = _arith(a._blades.values(), b._blades.values())
    # (-1 * va) * vb, as the term-by-term product writes a sign -1
    left = [(ma, (va, mul(-1, va))) for ma, va in a._blades.items()]
    right = [(mb, _ABOVE[mb], vb) for mb, vb in b._blades.items()]
    products = [
        (ma | mb, mul(signed[(ma & above).bit_count() & 1], vb))
        for ma, signed in left
        for mb, above, vb in right if not ma & mb]
    return Multivector._of(a.n, a.backend, _sum(products, add, _ZERO[a.backend]),
                           a._den * b._den)


def wedge_many(forms):
    forms = list(forms)
    if not forms:
        raise GradeError("wedge_many needs at least one factor")
    acc = forms[0]
    for f in forms[1:]:
        acc = wedge(acc, f)
    return acc


def hook(v, a):
    """Interior product v -| a.  Dropping the axis at position pos of a
    blade's sorted axes gives the sign (-1)**pos."""
    _same_backend(v, a)
    if v.n != a.n:
        raise DimensionMismatch("vector and form live in different dimensions")
    comps, den = _vector_numerators(v)
    add, mul = _arith(a._blades.values(), comps)
    # (-1 * comp) * coeff at the odd positions, as the term-by-term
    # product writes a sign -1
    signed = (comps, [mul(-1, c) for c in comps])
    contractions = [
        (sub, mul(signed[odd][k], coeff))
        for m, coeff in a._blades.items()
        for sub, odd, k in _DROPS[m] if comps[k] != 0]
    return Multivector._of(a.n, a.backend, _sum(contractions, add, _ZERO[a.backend]),
                           a._den * den)


def hook_many(vectors, a):
    """Left-fold of interior products: vectors[0] first."""
    acc = a
    for v in vectors:
        acc = hook(v, acc)
    return acc


def hodge_star(a):
    """Hodge star for the Euclidean metric and orientation e_1^...^e_n,
    extended complex-linearly: the blade m goes to sign * its complement c,
    sign that of sorting m's axes followed by c's (_merge_sign), so that
    e_m ^ *e_m = vol.  Distinct blades have distinct complements, so
    nothing is summed."""
    full = (1 << a.n) - 1
    _, mul = _arith(a._blades.values())
    out = {full ^ m: mul(_merge_sign(m, full ^ m), coeff)
           for m, coeff in a._blades.items()}
    return Multivector._of(a.n, a.backend, out, a._den)


def musical_flat(v):
    """Index-lowering: vector -> 1-form (Euclidean metric)."""
    comps, den = _vector_numerators(v)
    return Multivector._of(v.n, v.backend, {
        1 << i: c for i, c in enumerate(comps) if c != 0}, den)


def musical_sharp(a):
    """Index-raising: 1-form -> vector.  Raises GradeError off grade 1."""
    gs = a.grades()
    if gs not in ([], [1]):
        raise GradeError("musical_sharp needs a 1-form, got grades %s" % (gs,))
    comps = [coerce_scalar(0, a.backend)] * a.n
    for m, coeff in a.blades().items():
        comps[m.bit_length() - 1] = coeff
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
    other = b._blades
    total = sum((v * other[m] for m, v in a._blades.items() if m in other),
                _ZERO[a.backend])
    return Fraction(total, a._den * b._den) if a.backend == EXACT else total


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
        return sum((num * _ratlinalg.det([[v.comps[i - 1] for i in _KEY[m]]
                                          for v in vectors])
                    for m, num in a._blades.items()), Fraction(0)) / a._den
    cols = np.array([_KEY[m] for m in a._blades], dtype=int).reshape(len(a._blades), k) - 1
    frame = np.array([v.comps for v in vectors], dtype=float).reshape(k, a.n)
    minors = np.linalg.det(frame[:, cols].transpose(1, 0, 2))
    return float(np.array(list(a._blades.values()), dtype=float) @ minors)


def substitute(a, images):
    """The form a with each basis 1-form e^i replaced by the 1-form
    images[i], extended multiplicatively: the sum over a's terms, by grade
    and then by axes, of the wedge of their axes' images times the
    coefficient."""
    out = Multivector.zero(a.n, a.backend)
    terms = a.blades()
    for m in sorted(terms, key=lambda m: (m.bit_count(), _KEY[m])):
        prod = (wedge_many([images[i] for i in _KEY[m]]) if m
                else Multivector.scalar(a.n, 1, a.backend))
        out = out + prod.scale(terms[m])
    return out


# the blades of TWO_FORM_INDEX (grade 2) and FOUR_FORM_INDEX (grade 4)
_INDEX_BLADES = {
    k: tuple(_mask(key) for key in itertools.combinations(range(1, 9), k))
    for k in (2, 4)}


def numerators(a, grade):
    """A form's coefficients over TWO_FORM_INDEX (grade 2) or
    FOUR_FORM_INDEX (grade 4) on R^8, as (values, denominator).  On the
    exact backend values is an object array of Python-int numerators over
    the form's own denominator, one row (real part, imaginary part) per
    key; on the float one it is the float or complex array of the
    coefficients themselves, over 1."""
    blades = a._blades
    keys = _INDEX_BLADES[grade]
    if a.backend == FLOAT:
        return np.array([blades.get(m, 0.0) for m in keys]), 1
    out = np.empty((len(keys), 2), dtype=object)
    out[:] = [v if type(v) is tuple else (v, 0)
              for v in map(blades.get, keys, itertools.repeat(0))]
    return out, a._den


def coefficient_matrix(forms, grade):
    """Real forms' coefficients over TWO_FORM_INDEX (grade 2) or
    FOUR_FORM_INDEX (grade 4) on R^8 as one matrix, a column per form: a
    float array on the float backend, (object array of integer numerators,
    their common denominator) on the exact one, where a complex form raises
    TypeError."""
    cols = [numerators(f, grade) for f in forms]
    if all(f.backend == FLOAT for f in forms):
        return np.array([col for col, _ in cols]).T
    if not all(f.is_real() for f in forms):
        raise TypeError("coefficient_matrix takes real forms")
    den = math.lcm(*(d for _, d in cols))
    return np.stack([col[:, 0] * (den // d) for col, d in cols], axis=1), den


def from_numerators(values, den, grade, real=True):
    """The form on R^8 with coefficients values / den over TWO_FORM_INDEX
    (grade 2) or FOUR_FORM_INDEX (grade 4), values as numerators gives
    them.  A float or complex array is a float form's coefficients, over
    den 1.  An object array holds an exact form's (real part, imaginary
    part) integer numerators per key: Fractions if ``real``, the imaginary
    parts being 0, else ExactComplex.  A coefficient 0 is left out."""
    if values.dtype.kind in "fc":
        return Multivector._of(8, FLOAT, {
            m: c for m, c in zip(_INDEX_BLADES[grade], values.tolist()) if c != 0})
    blades = {}
    for m, (re, im) in zip(_INDEX_BLADES[grade], values):
        if re or im:
            blades[m] = int(re) if real else (int(re), int(im))
    return Multivector._of(8, EXACT, blades, den)


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
    permutation; ``signs`` is a sequence of +-1.  Each blade goes to its
    relabel_blade image, times the sort's sign and the product of the signs
    on its axes, -1 to the number of its axes with sign -1.
    """
    perm = tuple(check_integer(p, "perm entry", least=None) for p in perm)
    signs = tuple(check_integer(s, "sign", least=None) for s in signs)
    if sorted(perm) != list(range(1, a.n + 1)):
        raise DimensionMismatch("perm %r is not a permutation of 1..%d" % (perm, a.n))
    if len(signs) != a.n or any(s not in (-1, 1) for s in signs):
        raise DimensionMismatch("signs must be +-1 of length %d" % (a.n,))
    flipped = _mask(i for i, s in enumerate(signs, 1) if s < 0)
    add, mul = _arith(a._blades.values())
    images = []
    for m, coeff in a._blades.items():
        image, sign = relabel_blade(m, perm)
        if (m & flipped).bit_count() & 1:
            sign = -sign
        images.append((image, mul(sign, coeff)))
    return Multivector._of(a.n, a.backend, _sum(images, add, _ZERO[a.backend]), a._den)
