"""Flat Kaehler model on R^{2m}; a vector's complex type is read off J.

Complex coordinates are z_k = x_{2k-1} + i x_{2k}, so the complex structure
acts by J e_{2k-1} = e_{2k}, J e_{2k} = -e_{2k-1}.  The model carries

* omega  = sum_k dx_{2k-1} ^ dx_{2k}          (the Kaehler form),
* Omega  = e^{i phase} prod_k (dx_{2k-1} + i dx_{2k})   (the volume form of
  type (m, 0), with an overall phase).

The phase is given as its (cos, sin) pair on the unit circle, exact on the
exact backend, such as (3/5, 4/5), and floats on the float one.  It is
stored once, as the model's complex scalar ``phase``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DimensionMismatch, TypeMismatch, ValidationError, check_integer
from .exterior import (
    EXACT,
    ExactComplex,
    Multivector,
    Vector,
    _negligible,
    coerce_scalar,
    hook,
    substitute,
    wedge,
    wedge_many,
)


def imag_unit(backend):
    return ExactComplex(0, 1) if backend == EXACT else 1j


@dataclass(frozen=True)
class ComplexStructureJ:
    """The standard complex structure pairing x_{2k-1} with x_{2k}."""

    m: int

    @property
    def n(self):
        return 2 * self.m

    def apply(self, v):
        if v.n != self.n:
            raise DimensionMismatch(
                "J on R^%d applied to a vector in R^%d" % (self.n, v.n)
            )
        comps = [coerce_scalar(0, v.backend)] * self.n
        for k in range(self.m):
            comps[2 * k + 1] = v.comps[2 * k]
            comps[2 * k] = -v.comps[2 * k + 1]
        return Vector(comps, v.backend)

    def matrix(self):
        out = [[0] * self.n for _ in range(self.n)]
        for k in range(self.m):
            out[2 * k + 1][2 * k] = 1
            out[2 * k][2 * k + 1] = -1
        return out


@dataclass(frozen=True)
class CalabiYauModel:
    """Flat model data: dimension, backend, phase (the complex scalar
    e^{i phase}), and the two forms."""

    m: int
    backend: str
    phase: object
    J: ComplexStructureJ
    omega: Multivector
    Omega: Multivector

    @property
    def n(self):
        return 2 * self.m


def _phase_components(phase_pair, backend):
    """The (cos, sin) pair on the backend, or ValidationError unless it is
    two real components on the unit circle: exactly, or within 1e-12 on the
    float backend."""
    try:
        pair = tuple(phase_pair)
    except TypeError:
        pair = ()
    if len(pair) != 2:
        raise ValidationError("phase pair %r is not a (cos, sin) pair" % (phase_pair,))
    if any(isinstance(x, (complex, ExactComplex)) for x in pair):
        raise ValidationError("phase pair %r has a complex component" % (phase_pair,))
    c, s = (coerce_scalar(x, backend) for x in pair)
    if not _negligible(abs(c * c + s * s - 1), backend, 1e-12):
        raise ValidationError("phase pair %r is not on the unit circle" % (phase_pair,))
    return c, s


def _require_surface_model(model):
    if model.m != 4:
        raise DimensionMismatch("this construction needs the m=4 flat model")


def build_model(m, backend=EXACT, phase_pair=(1, 0)):
    """Construct the flat model on R^{2m} (1 <= m <= 4), with the phase of
    Omega given as its (cos, sin) pair on the unit circle."""
    m = check_integer(m, "m")
    if not 1 <= m <= 4:
        raise DimensionMismatch("m must be between 1 and 4")
    c, s = _phase_components(phase_pair, backend)
    phase = coerce_scalar(ExactComplex(c, s), backend)
    n = 2 * m
    omega_terms = {(2 * k + 1, 2 * k + 2): 1 for k in range(m)}
    omega = Multivector(n, omega_terms, backend)
    big = wedge_many([_dz(n, k, backend) for k in range(1, m + 1)]).scale(phase)
    return CalabiYauModel(
        m=m,
        backend=backend,
        phase=phase,
        J=ComplexStructureJ(m),
        omega=omega,
        Omega=big,
    )


def omega_power(model, k):
    acc = Multivector.scalar(model.n, 1, model.backend)
    for _ in range(k):
        acc = wedge(acc, model.omega)
    return acc


def verify_normalization(model):
    """Residual of the volume compatibility between omega^m and Omega.

    Computes omega^m / m!  minus  (i/2)^m (-1)^{m(m-1)/2} Omega ^ conj(Omega)
    and returns its Multivector.max_abs: the largest of |Re| and |Im| as a
    Fraction on the exact backend, the largest modulus as a float otherwise.
    """
    m = model.m
    lhs = omega_power(model, m).scale(Fraction(1, math.factorial(m)))
    rhs = wedge(model.Omega, model.Omega.conj())
    half_i = imag_unit(model.backend) * coerce_scalar(Fraction(1, 2), model.backend)
    factor = half_i
    for _ in range(m - 1):
        factor = factor * half_i
    if (m * (m - 1) // 2) % 2 == 1:
        factor = -factor
    return (lhs - rhs.scale(factor)).max_abs()


_TYPE_TOL = 1e-9  # largest component of J v -+ i v on a float vector


def require_type(J, vec, sign):
    """TypeMismatch unless J v = sign * i v: sign 1 is type (1,0) and
    sign -1 type (0,1).  The exact backend requires exact equality; the
    float one allows each component of the difference up to _TYPE_TOL, and
    the NaN-propagating maximum fails a NaN."""
    diff = J.apply(vec) - vec.scale(imag_unit(vec.backend) * sign)
    worst = np.max(np.abs(diff.re.comps + diff.im.comps))
    if not _negligible(worst, vec.backend, _TYPE_TOL):
        raise TypeMismatch("vector fails the %s condition by %s"
                           % ("(1,0)" if sign == 1 else "(0,1)", worst))


def hook_identities_check(model):
    """Residual of the pairing identities between basis hooks of Omega.

    For each complex coordinate k:  e_{2k-1} -| Omega + i (J e_{2k-1}) -| Omega
    must vanish, and the conjugate identity holds for conj(Omega).
    Returns the largest Multivector.max_abs seen.
    """
    i_unit = imag_unit(model.backend)
    worst = coerce_scalar(0, model.backend)
    for k in range(1, model.m + 1):
        e_odd = Vector.basis(model.n, 2 * k - 1, model.backend)
        e_even = Vector.basis(model.n, 2 * k, model.backend)
        r1 = hook(e_odd, model.Omega) + hook(e_even, model.Omega).scale(i_unit)
        omb = model.Omega.conj()
        r2 = hook(e_odd, omb) - hook(e_even, omb).scale(i_unit)
        worst = max(worst, r1.max_abs(), r2.max_abs())
    return worst


# -- complex coordinate frame ---------------------------------------------
#
# Frame index convention on R^{2m}: slots 1..m stand for dz_1..dz_m and
# slots m+1..2m stand for dzbar_1..dzbar_m.  A complex Multivector over this
# index space is "in the complex frame".


def _dz(n, k, backend):
    """dz_k = dx_{2k-1} + i dx_{2k} on R^n."""
    return Multivector(n, {(2 * k - 1,): 1, (2 * k,): imag_unit(backend)}, backend)


def dz_form(model, k):
    return _dz(model.n, k, model.backend)


def dzbar_form(model, k):
    return dz_form(model, k).conj()


def holo_vector(model, k):
    """The (1,0) coordinate vector dual to dz_k: (e_{2k-1} - i e_{2k})/2."""
    k = check_integer(k, "coordinate index")
    if not 1 <= k <= model.m:
        raise DimensionMismatch(
            "coordinate index %d out of range 1..%d" % (k, model.m))
    half = coerce_scalar(Fraction(1, 2), model.backend)
    comps = [0] * model.n
    comps[2 * k - 2] = half
    comps[2 * k - 1] = -half * imag_unit(model.backend)
    return Vector(comps, model.backend)


def antiholo_vector(model, k):
    return holo_vector(model, k).conj()


def to_complex_frame(model, a):
    """Rewrite a form over dz/dzbar slots (see the frame convention above)."""
    m, n = model.m, model.n
    i_unit = imag_unit(model.backend)
    images = {}
    for k in range(1, m + 1):
        fz = Multivector.basis(n, (k,), model.backend)
        fzb = Multivector.basis(n, (m + k,), model.backend)
        # dx_{2k-1} = (dz_k + dzbar_k)/2 ; dx_{2k} = -i (dz_k - dzbar_k)/2
        images[2 * k - 1] = (fz + fzb).scale(Fraction(1, 2))
        images[2 * k] = (fz - fzb).scale(Fraction(1, 2)).scale(-i_unit)
    return substitute(a, images)
