"""The flat fourfold calibration on R^8 and its two-form machinery.

The distinguished four-form is

  phi0 = e1234 - e1256 - e1278 - e1357 + e1368 - e1458 - e1467
       - e2358 - e2367 + e2457 - e2468 - e3456 - e3478 + e5678.

Two-forms split into a 7-dimensional and a 21-dimensional piece.  Two
independent routes to the splitting are provided and cross-checked:

* ``pi7_matrix``   -- linear extension of the decomposable-pair formula
                    (x^ ^ y^ + phi(x, y, . , .)) / 2, twice the orthogonal
                    projection: a signed gather of phi's coefficients.
* ``proj7_matrix`` -- spectral construction (T + 1)/4 from the self-adjoint
                    map T(a) = *(phi ^ a), built by wedge and hodge_star,
                    which has eigenvalue 3 on the small piece and -1 on the
                    large one.

Keeping both routes separate is deliberate: their agreement (a fixed factor
of two) is one of the verified claims, not an assumption.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import _ratlinalg
from .errors import BackendMismatch, DimensionMismatch, GradeError, PlaneError
from .exterior import (
    EXACT,
    FLOAT,
    FOUR_FORM_INDEX,
    PAIR_POS,
    TWO_FORM_INDEX,
    FourFormTable,
    Multivector,
    Vector,
    _negligible,
    _same_backend,
    coefficient_matrix,
    from_numerators,
    hodge_star,
    hook,
    hook_many,
    inner,
    musical_flat,
    numerators,
    relabel_blade,
    sort_indices,
    wedge,
)
from .frames import OrientedPlane, frame_stack
from .kahler import _require_surface_model

_QUAD_AT = {quad: c for c, quad in enumerate(FOUR_FORM_INDEX)}


def _signed(key, sign):
    """The position of sign times phi's coefficient on the sorted 4-subset
    key in the signed row [phi_row(), 0, -phi_row()]; the 0 in the middle
    for sign 0."""
    n = len(FOUR_FORM_INDEX)
    return n if sign == 0 else _QUAD_AT[key] + (0 if sign > 0 else n + 1)


def _tau_gather():
    """(70, 28) int array: entry (c, p) of the pre-pi7 defect sum (see
    CayleyForm.defect_table) is entry index[c, p] of the signed row
    [phi_row(), 0, -phi_row()].  The pair p = {i, s_k} with s_k in the
    subset FOUR_FORM_INDEX[c] and i outside it picks the phi coefficient of
    i and the other three axes, signed by the sort of (i, others), by
    (-1)^k and by the order of i and s_k; a pair with no such split picks
    the 0 in the middle.  One index, not an index and a sign: multiplying
    by an int sign array would cast through numpy's buffered loops."""
    index = np.full((len(FOUR_FORM_INDEX), 28), len(FOUR_FORM_INDEX))
    for c, quad in enumerate(FOUR_FORM_INDEX):
        for k, s in enumerate(quad):
            rest = quad[:k] + quad[k + 1:]
            for i in range(1, 9):
                if i in quad:
                    continue
                key, parity = sort_indices((i,) + rest)
                p = PAIR_POS[(min(i, s), max(i, s))]
                index[c, p] = _signed(key, parity * (-1) ** k * (1 if i < s else -1))
    return index


_TAU_INDEX = _tau_gather()
# entry (kl, ij) of 2 pi7 - 1 is phi(e_i, e_j, e_k, e_l): phi's coefficient
# on the sorted axes with the sort's sign, 0 when the pairs meet
_PI7_INDEX = np.array([[_signed(*sort_indices(ij + kl)) for ij in TWO_FORM_INDEX]
                       for kl in TWO_FORM_INDEX])

PHI0_TERMS = {
    (1, 2, 3, 4): 1,
    (1, 2, 5, 6): -1,
    (1, 2, 7, 8): -1,
    (1, 3, 5, 7): -1,
    (1, 3, 6, 8): 1,
    (1, 4, 5, 8): -1,
    (1, 4, 6, 7): -1,
    (2, 3, 5, 8): -1,
    (2, 3, 6, 7): -1,
    (2, 4, 5, 7): 1,
    (2, 4, 6, 8): -1,
    (3, 4, 5, 6): -1,
    (3, 4, 7, 8): -1,
    (5, 6, 7, 8): 1,
}


class CayleyForm:
    """A calibration four-form on R^8 with cached two-form operators, each
    built once and kept once: a read-only float array on the float backend,
    rows of Fractions on the exact one (an exact two-form operator also
    keeps the numerators and denominator its products run on).  The exact
    operators are built from the form's own integer numerators and applied
    to a two-form's (exterior.numerators), with no Fraction in between."""

    def __init__(self, phi):
        if phi.n != 8:
            raise DimensionMismatch("calibration four-form must live on R^8")
        if phi.grades() not in ([], [4]):
            raise GradeError("calibration form must be homogeneous of grade 4")
        self.phi = phi

    @property
    def backend(self):
        return self.phi.backend

    def pi7_matrix(self):
        """28x28 matrix of the decomposable-pair splitting formula: column
        ij is (e^i ^ e^j + phi(e_i, e_j, ., .)) / 2, the identity plus
        phi_row() gathered by _PI7_INDEX, halved."""
        return self._pi7[0]

    def proj7_matrix(self):
        """Orthogonal projection onto the 7-dimensional piece: (T + 1)/4,
        column ij of T being *(phi ^ e^i ^ e^j)."""
        return self._proj7[0]

    def proj7_numerators(self):
        """proj7_matrix() on the exact backend as (integer numerators,
        denominator), the numerators its products run on."""
        if self.backend != EXACT:
            raise BackendMismatch("projection numerators are exact")
        return self._proj7[1]

    @cached_property
    def _pi7(self):
        return self._operator(self._gather(_PI7_INDEX), 2)

    @cached_property
    def _proj7(self):
        return self._operator(coefficient_matrix(
            [hodge_star(wedge(self.phi, Multivector.basis(8, pair, self.backend)))
             for pair in TWO_FORM_INDEX], 2), 4)

    def _gather(self, index):
        """The signed row [phi_row(), 0, -phi_row()] gathered by index: a
        float array on the float backend, (integer numerators, denominator)
        on the exact one, read off the form's own numerators."""
        if self.backend == EXACT:
            phi, den = self._phi_numerators
            return np.concatenate([phi, [0], -phi])[index], den
        row = self.phi_row()
        return np.concatenate([row, [0.0], -row])[index]

    @cached_property
    def _phi_numerators(self):
        nums, den = coefficient_matrix([self.phi], 4)
        return nums[:, 0], den

    def _operator(self, part, scale):
        """The operator (1 + part) / scale as (matrix, what products take).
        On the float backend part is a float array, and both are one
        read-only array; on the exact one part is (integer numerators,
        denominator), and so is the second, the matrix being its Fractions."""
        if self.backend == EXACT:
            nums, den = part
            nums, den = nums + den * np.eye(28, dtype=object), scale * den
            return _ratlinalg.unscaled(nums, den), (nums, den)
        matrix = self._frozen((np.eye(28) + part) / scale)
        return matrix, matrix

    def phi_row(self):
        """phi's 70 coefficients over FOUR_FORM_INDEX, so that phi on a
        frame is the frame's minors times this row.  A float array on the
        float backend, a tuple of Fractions on the exact one."""
        return self._phi_row

    @cached_property
    def _phi_row(self):
        if self.backend == EXACT:
            return _ratlinalg.unscaled(*self._phi_numerators)
        return self._frozen(coefficient_matrix([self.phi], 4)[:, 0])

    def defect_table(self):
        """70x28 table of tau: row c holds the TWO_FORM_INDEX coefficients
        of tau on the basis frame FOUR_FORM_INDEX[c], so that tau on a frame
        is the frame's minors times this table.

        On basis vectors each term of tau_eval is pi7 of
        phi(e_i, <the other three>) e^i ^ e^s for the slot vector e_s and an
        axis i outside the frame, so the row of the frame (s_0, .., s_3) is

          (1/4) pi7( sum_k (-1)^k sum_i phi(e_i, s_0..^s_k..s_3) e^i ^ e^s_k ).

        The pair {i, s_k} fixes k and i, so entry (c, p) of the sum is at
        most one signed coefficient of phi: the gather
        [phi_row(), 0, -phi_row()][_TAU_INDEX], and the table is that
        (70, 28) matrix times pi7_matrix() transposed, over 4.  On the float
        backend the product is one np.einsum.  On the exact one the gather
        runs on phi's integer numerators and the product on pi7's, with the
        denominators multiplied once.  tau_eval stays the reference the
        table is tested against.  The exact table's Fractions are built on
        first use; the exact products run on defect_numerators().
        """
        if self.backend == EXACT:
            return self._defect_fractions
        return self._defect

    def defect_numerators(self):
        """defect_table() on the exact backend as (integer numerators,
        denominator), the product it is divided out of."""
        if self.backend != EXACT:
            raise BackendMismatch("defect numerators are exact")
        return self._defect

    @cached_property
    def _defect_fractions(self):
        return _ratlinalg.unscaled(*self._defect)

    @cached_property
    def _defect(self):
        pi7 = self._pi7[1]
        if self.backend == EXACT:
            gathered, phi_den = self._gather(_TAU_INDEX)
            nums, den = pi7
            return gathered @ nums.T, 4 * phi_den * den
        # einsum's own loop, not BLAS: a matmul this small would allocate
        # BLAS work buffers, about 0.3 MB of peak memory
        return self._frozen(np.einsum(
            "cq,pq->cp", self._gather(_TAU_INDEX), pi7) * 0.25)

    def cayley_table(self):
        """The FourFormTable of [defect_table() | phi_row()] (70x29): on a
        frame, columns 0..27 of its values are tau and column 28 is phi,
        exact on exact frames."""
        return self._cayley_table

    @cached_property
    def _cayley_table(self):
        return FourFormTable(np.column_stack([self.defect_table(), self.phi_row()]))

    def _frozen(self, values):
        if self.backend == EXACT:
            return values
        arr = np.array(values, dtype=float)
        arr.flags.writeable = False
        return arr

    def _apply(self, operator, a):
        """An operator's matrix times a two-form's column, real or complex,
        by one product.  On the float backend an np.einsum (its own loop,
        not BLAS, as in defect_table), which takes a complex column as it
        is.  On the exact one the operator's numerators times the (28, 2)
        numerators of the column's real and imaginary parts side by side, a
        real column's imaginary part being 0: Fractions come back for a real
        column, ExactComplex for a complex one."""
        if a.grades() not in ([], [2]):
            raise GradeError("two-form operator applied to grades %s" % (a.grades(),))
        _same_backend(a, self)
        col, den = numerators(a, 2)
        if a.backend == FLOAT:
            values = np.einsum("rc,c->r", operator[1], col)
        else:
            nums, nums_den = operator[1]
            values, den = nums @ col, nums_den * den
        return from_numerators(values, den, 2, real=a.is_real())

    def pi7_apply(self, a):
        return self._apply(self._pi7, a)

    def proj7_apply(self, a):
        return self._apply(self._proj7, a)


def phi0(backend=EXACT):
    """The standard calibration four-form."""
    return CayleyForm(Multivector(8, dict(PHI0_TERMS), backend))


def phi_from_kahler(model):
    """Build the calibration form omega^2/2 + Re(Omega) from an m=4 model."""
    _require_surface_model(model)
    four = wedge(model.omega, model.omega).scale(Fraction(1, 2)) + model.Omega.re
    return CayleyForm(four)


def pi7_projection_scalar(Phi):
    """The constant c with pi7 = c * proj7 (as matrices).

    Raises PlaneError if no single constant works.
    """
    p = np.asarray(Phi.pi7_matrix())
    q = np.asarray(Phi.proj7_matrix())
    support = q != 0
    if (p[~support] != 0).any():
        raise PlaneError("splitting routes have different supports")
    ratios = p[support] / q[support]
    c = ratios.item(0)
    if not _negligible(abs(ratios - c), Phi.backend, 1e-12).all():
        raise PlaneError("splitting routes are not proportional")
    return c


def lambda27_basis(Phi):
    """The 28 generators e^i ^ e^j - e_i -| (e_j -| phi); they span the 7-part."""
    out = []
    for (i, j) in TWO_FORM_INDEX:
        ei = Vector.basis(8, i, Phi.backend)
        ej = Vector.basis(8, j, Phi.backend)
        gen = Multivector.basis(8, (i, j), Phi.backend) - hook(ei, hook(ej, Phi.phi))
        out.append(gen)
    return out


# -- the four-vector alternation ------------------------------------------


def _slot_one_form(Phi, u, v, w):
    """The 1-form z |-> phi(z, u, v, w), via -(u -| v -| w -| phi)."""
    return hook_many([u, v, w], Phi.phi).scale(-1)


def tau_eval(Phi, x, u, v, w):
    """Alternating two-form-valued obstruction on four real vectors.

    Value lands in the 7-dimensional piece.
    """
    t1 = Phi.pi7_apply(wedge(_slot_one_form(Phi, u, v, w), musical_flat(x)))
    t2 = Phi.pi7_apply(wedge(_slot_one_form(Phi, v, w, x), musical_flat(u)))
    t3 = Phi.pi7_apply(wedge(_slot_one_form(Phi, w, x, u), musical_flat(v)))
    t4 = Phi.pi7_apply(wedge(_slot_one_form(Phi, x, u, v), musical_flat(w)))
    val = t1 - t2 + t3 - t4
    return val.scale(Fraction(1, 4))


def tau_norm_sq(value):
    """Sum of squared coefficients of a real two-form value."""
    return inner(value, value)


def tau_norm(value):
    return math.sqrt(tau_norm_sq(value))


@dataclass(frozen=True)
class CayleyVerdict:
    """is_cayley's verdict: Python scalars for one plane, (P,) arrays for a
    stack of P."""

    is_cayley: bool
    phi_value: float
    tau_norm: float


TAU_TOL = 1e-7  # the largest defect norm of a Cayley plane
# the largest |value - 1| of a Cayley plane.  value^2 + |tau|^2 = det(f f^T),
# so on an OrientedPlane, every one orthonormal to frames.ORTHONORMAL_TOL =
# 1e-10, a defect within TAU_TOL puts the value within 1e-9 of +1 or of -1: a
# looser bound could only call a value -1 plane Cayley
PHI_TOL = 1e-9


def is_cayley(Phi, plane):
    """Classify oriented 4-planes: Cayley when the calibration value is
    within PHI_TOL of 1 and the alternation norm is at most TAU_TOL.
    ``plane`` is an OrientedPlane on the form's backend, or a (P, 4, 8)
    float array of frames on a float form, each held to the OrientedPlane
    rule by frames.frame_stack, which refuses anything else.  One plane
    gives a CayleyVerdict of Python scalars, a stack one of (P,) arrays.

    Both numbers come from each frame's 70 minors: times phi_row() for the
    value, times defect_table() for tau, by one call on cayley_table() for
    the whole stack, one plane being a stack of one.  On the exact backend
    that call is exact, and only the two results become floats.  A frame's
    floats may differ in the last bit between a stack and a call of its
    own (exterior.four_form_values)."""
    one = isinstance(plane, OrientedPlane)
    if one:
        _same_backend(plane, Phi)
        # an exact plane's minors run on its Fractions
        frames = (plane.matrix() if Phi.backend == FLOAT
                  else np.array([v.comps for v in plane.rows]))[None]
    else:
        frames = frame_stack(plane, Phi.backend)
    if frames.shape[1] != 4:
        raise PlaneError("need exactly 4 frame vectors, got %d" % (frames.shape[1],))
    if frames.shape[2] != 8:
        raise DimensionMismatch("frame vectors must live in R^8")
    values = np.asarray(Phi.cayley_table()(frames))
    tau = values[:, :28]
    # one dot product per frame (matmul takes each as a dot), exact on exact
    # frames; a norm is the correctly rounded root
    sq = np.matmul(tau[:, None], tau[:, :, None])[:, 0, 0]
    val = values[:, 28].astype(float, copy=False)
    tn = np.sqrt(sq.astype(float, copy=False))
    if one:
        val, tn = val.item(), tn.item()
    return CayleyVerdict(is_cayley=(abs(val - 1.0) <= PHI_TOL) & (tn <= TAU_TOL),
                         phi_value=val, tau_norm=tn)


def find_equivalence(a, b):
    """Search for a signed axis relabeling carrying form a onto form b.

    Returns (perm, signs) with perm a tuple of 1-based targets and signs a
    tuple of +-1 such that pushing a through e_i -> signs[i]*e_perm[i]
    gives b; or None when no such relabeling exists.  Tries the identity
    relabeling first.  Forms on different backends never compare equal, so
    they raise BackendMismatch before the search.  The relabelings are
    walked in ``itertools.permutations`` order by backtracking, axis by
    axis, past every branch where a placed term of a misses b's support:
    for phi0 only its 1344 support-preserving relabelings of the 40320
    reach the sign test.  Per relabeling, each term of a fixes the product
    of the signs over its key (b's coefficient on the image over a's,
    sorted, must be +-1): a linear system over GF(2), solved for the first
    sign vector in ``itertools.product`` order.
    """
    n = a.n
    if b.n != n:
        raise DimensionMismatch("forms live in different dimensions")
    _same_backend(a, b)
    a_terms, b_terms = a.blades(), b.blades()
    if len(a_terms) != len(b_terms):
        return None

    def try_perm(perm):
        # every term lands on b's support with +-coeff (maps_into_b), and
        # blades map one to one, so equal counts make the images b's
        # support.  Sign vector = bits of x (-1 where set); each term asks
        # an XOR of them over its blade, kept as a row by its highest bit
        rows = {}
        for mask, coeff in a_terms.items():
            image, sign = relabel_blade(mask, perm)
            flip = (sign < 0) == (b_terms[image] == coeff)
            while mask and (top := mask.bit_length() - 1) in rows:
                mask, flip = mask ^ rows[top][0], flip ^ rows[top][1]
            if mask:
                rows[top] = mask, flip
            elif flip:
                return None
        # itertools.product's first solution leaves every free bit 0; each
        # row then fixes its highest bit from the lower ones, set before it
        x = 0
        for top in sorted(rows):
            mask, flip = rows[top]
            x |= (flip ^ (mask & x).bit_count() & 1) << top
        return tuple(-1 if x >> i & 1 else 1 for i in range(n))

    # a term's image is known once its largest axis is placed: per axis (0
    # for a scalar term) the blades it places, each with the blades of b
    # that hold its coefficient up to sign
    placed_by = [[] for _ in range(n + 1)]
    for mask, coeff in a_terms.items():
        allowed = {m for m, v in b_terms.items() if v == coeff or v == -coeff}
        placed_by[mask.bit_length()].append((mask, allowed))
    perm = [0] * n

    def maps_into_b(axis):
        # every term placed by axis lands on b's support, +-coeff
        return all(relabel_blade(mask, perm)[0] in allowed
                   for mask, allowed in placed_by[axis])

    def extend(axis):
        # the first hit among the relabelings extending perm[:axis], in
        # lexicographic order, skipping a branch once a placed term misses
        # b's support: no relabeling in it could carry a onto b
        if axis == n:
            hit = try_perm(perm)
            return None if hit is None else (tuple(perm), hit)
        for target in range(1, n + 1):
            if target in perm[:axis]:
                continue
            perm[axis] = target
            if maps_into_b(axis + 1):
                hit = extend(axis + 1)
                if hit is not None:
                    return hit
        return None

    # lexicographic order, so the identity comes first
    return extend(0) if maps_into_b(0) else None
