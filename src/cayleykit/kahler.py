"""Flat Kaehler model on R^{2m} and complex-type bookkeeping.

Complex coordinates are z_k = x_{2k-1} + i x_{2k}, so the complex structure
acts by J e_{2k-1} = e_{2k}, J e_{2k} = -e_{2k-1}.  The model carries

* omega  = sum_k dx_{2k-1} ^ dx_{2k}          (the Kaehler form),
* Omega  = e^{i phase} prod_k (dx_{2k-1} + i dx_{2k})   (the volume form of
  type (m, 0), with an overall phase).

On the exact backend the phase is stored as an exact (cos, sin) pair; pass
``phase_pair`` for anything beyond quarter turns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import BackendMismatch, DimensionMismatch, TypeMismatch, ValidationError
from .exterior import (
    EXACT,
    FLOAT,
    ComplexMultivector,
    ComplexVector,
    ExactComplex,
    Multivector,
    Vector,
    as_complex_multivector,
    as_complex_vector,
    coerce_scalar,
    hook,
    wedge,
    wedge_many,
)

TYPE_10 = "(1,0)"
TYPE_01 = "(0,1)"


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
        if isinstance(v, ComplexVector):
            return ComplexVector(self.apply(v.re), self.apply(v.im))
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
    """Flat model data: dimension, backend, phase, and the two forms."""

    m: int
    backend: str
    phase_cos: object
    phase_sin: object
    J: ComplexStructureJ
    omega: Multivector
    Omega: ComplexMultivector

    @property
    def n(self):
        return 2 * self.m

    def phase_scalar(self):
        if self.backend == EXACT:
            return ExactComplex(self.phase_cos, self.phase_sin)
        return complex(self.phase_cos, self.phase_sin)


_QUARTER_TURNS = {0: (1, 0), 1: (0, 1), 2: (-1, 0), 3: (0, -1)}


def _phase_components(phase, phase_pair, backend):
    if phase_pair is not None:
        c = coerce_scalar(phase_pair[0], backend)
        s = coerce_scalar(phase_pair[1], backend)
        r = c * c + s * s
        if backend == EXACT:
            if r != 1:
                raise ValidationError("phase pair %r is not on the unit circle" % (phase_pair,))
        elif abs(r - 1.0) > 1e-12:
            raise ValidationError("phase pair %r is not on the unit circle" % (phase_pair,))
        return c, s
    phase = float(phase)
    if backend == FLOAT:
        return math.cos(phase), math.sin(phase)
    # exact backend: only quarter turns have exact (cos, sin)
    quarter = phase / (math.pi / 2)
    k = round(quarter)
    if abs(quarter - k) > 1e-12:
        raise BackendMismatch(
            "exact backend needs a quarter-turn phase or an explicit phase_pair"
        )
    c, s = _QUARTER_TURNS[k % 4]
    return Fraction(c), Fraction(s)


def build_model(m, phase=0.0, backend=EXACT, phase_pair=None):
    """Construct the flat model on R^{2m} (1 <= m <= 4)."""
    if not 1 <= m <= 4:
        raise DimensionMismatch("m must be between 1 and 4")
    c, s = _phase_components(phase, phase_pair, backend)
    n = 2 * m
    omega_terms = {(2 * k + 1, 2 * k + 2): 1 for k in range(m)}
    omega = Multivector(n, omega_terms, backend)
    factors = []
    for k in range(m):
        factors.append(
            ComplexMultivector(
                Multivector.basis(n, (2 * k + 1,), backend),
                Multivector.basis(n, (2 * k + 2,), backend),
            )
        )
    big = wedge_many(factors)
    phase_scalar = ExactComplex(c, s) if backend == EXACT else complex(c, s)
    big = big.scale(phase_scalar)
    return CalabiYauModel(
        m=m,
        backend=backend,
        phase_cos=c,
        phase_sin=s,
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
    and returns the largest coefficient magnitude of the difference
    (a Fraction on the exact backend, a float otherwise).
    """
    m = model.m
    lhs = omega_power(model, m).scale(
        Fraction(1, math.factorial(m)) if model.backend == EXACT
        else 1.0 / math.factorial(m)
    )
    rhs = wedge(model.Omega, model.Omega.conj())
    half_i = imag_unit(model.backend)
    if model.backend == EXACT:
        half_i = half_i * Fraction(1, 2)
    else:
        half_i = half_i * 0.5
    factor = half_i
    for _ in range(m - 1):
        factor = factor * half_i
    if (m * (m - 1) // 2) % 2 == 1:
        factor = -factor
    rhs = rhs.scale(factor)
    diff = as_complex_multivector(lhs) - rhs
    if model.backend == EXACT:
        return max(diff.re.max_abs(), diff.im.max_abs())
    return diff.max_abs()


@dataclass(frozen=True)
class TypedVector:
    """A complexified vector tagged with its complex type."""

    vec: ComplexVector
    vtype: str


def typed_vector(J, vec, vtype, tol=1e-9):
    """Validate the J-eigenvector condition and tag the vector.

    (1,0) vectors satisfy J v = i v; (0,1) vectors satisfy J v = -i v.
    Exact backend requires exact equality; float backend uses ``tol``.
    """
    cv = as_complex_vector(vec)
    if vtype not in (TYPE_10, TYPE_01):
        raise TypeMismatch("unknown complex type %r" % (vtype,))
    i_unit = imag_unit(cv.backend)
    target = cv.scale(i_unit if vtype == TYPE_10 else -i_unit)
    diff = J.apply(cv) - target
    if cv.backend == EXACT:
        bad = any(c != 0 for c in diff.re.comps) or any(c != 0 for c in diff.im.comps)
        if bad:
            raise TypeMismatch("vector is not exactly of type %s" % (vtype,))
    else:
        worst = max(
            [abs(float(c)) for c in diff.re.comps]
            + [abs(float(c)) for c in diff.im.comps]
        )
        if worst > tol:
            raise TypeMismatch(
                "vector fails the %s condition by %.3e" % (vtype, worst)
            )
    return TypedVector(vec=cv, vtype=vtype)


def hook_identities_check(model, k=None):
    """Residual of the pairing identities between basis hooks of Omega.

    For each complex coordinate k:  e_{2k-1} -| Omega + i (J e_{2k-1}) -| Omega
    must vanish, and the conjugate identity holds for conj(Omega).
    Returns the largest coefficient magnitude seen.
    """
    ks = range(1, model.m + 1) if k is None else [k]
    i_unit = imag_unit(model.backend)
    worst = coerce_scalar(0, model.backend)
    for kk in ks:
        e_odd = Vector.basis(model.n, 2 * kk - 1, model.backend)
        e_even = Vector.basis(model.n, 2 * kk, model.backend)
        r1 = hook(e_odd, model.Omega) + hook(e_even, model.Omega).scale(i_unit)
        omb = model.Omega.conj()
        r2 = hook(e_odd, omb) - hook(e_even, omb).scale(i_unit)
        for r in (r1, r2):
            if model.backend == EXACT:
                worst = max(worst, r.re.max_abs(), r.im.max_abs())
            else:
                worst = max(worst, r.max_abs())
    return worst


# -- complex coordinate frame ---------------------------------------------
#
# Frame index convention on R^{2m}: slots 1..m stand for dz_1..dz_m and
# slots m+1..2m stand for dzbar_1..dzbar_m.  A ComplexMultivector over this
# index space is "in the complex frame".


def dz_form(model, k):
    n = model.n
    return ComplexMultivector(
        Multivector.basis(n, (2 * k - 1,), model.backend),
        Multivector.basis(n, (2 * k,), model.backend),
    )


def dzbar_form(model, k):
    return dz_form(model, k).conj()


def holo_vector(model, k):
    """The (1,0) coordinate vector dual to dz_k: (e_{2k-1} - i e_{2k})/2."""
    half = Fraction(1, 2) if model.backend == EXACT else 0.5
    re = Vector.basis(model.n, 2 * k - 1, model.backend).scale(half)
    im = Vector.basis(model.n, 2 * k, model.backend).scale(-half)
    return ComplexVector(re, im)


def antiholo_vector(model, k):
    return holo_vector(model, k).conj()


def _substitute(model, a, images):
    """Linear substitution on basis 1-forms, extended multiplicatively."""
    ca = as_complex_multivector(a)
    n = model.n
    zero_c = ComplexMultivector(Multivector.zero(n, model.backend))
    out = zero_c
    keys = set(ca.re.terms) | set(ca.im.terms)
    for key in sorted(keys, key=lambda t: (len(t), t)):
        coeff = ca.coeff(key)
        if not key:
            out = out + ComplexMultivector(
                Multivector.scalar(n, 1, model.backend)
            ).scale(coeff)
            continue
        prod = wedge_many([images[i] for i in key])
        out = out + prod.scale(coeff)
    return out


def to_complex_frame(model, a):
    """Rewrite a form over dz/dzbar slots (see the frame convention above)."""
    m, n = model.m, model.n
    half = Fraction(1, 2) if model.backend == EXACT else 0.5
    i_unit = imag_unit(model.backend)
    images = {}
    for k in range(1, m + 1):
        fz = ComplexMultivector(Multivector.basis(n, (k,), model.backend))
        fzb = ComplexMultivector(Multivector.basis(n, (m + k,), model.backend))
        # dx_{2k-1} = (dz_k + dzbar_k)/2 ; dx_{2k} = -i (dz_k - dzbar_k)/2
        images[2 * k - 1] = (fz + fzb).scale(half)
        images[2 * k] = (fz - fzb).scale(half).scale(-i_unit)
    return _substitute(model, a, images)
