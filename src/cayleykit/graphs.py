"""Planes, graph deformations, canonical angles, and complex-plane tests.

Conventions used throughout:

* A plane is an ordered orthonormal frame of row vectors; the row order
  fixes the orientation.
* Graph coefficients lam[j][i] describe the tilted frame
  v_j = e_j + sum_i lam^j_i e_i with tangent rows j = 1..4 and normal
  columns i = 5..8.
* The flat complex model identifies z_k = x_{2k-1} + i x_{2k}; complex
  p-dimensional graphs over the z_1..z_p coordinate plane carry two
  coefficient blocks (lam for the x-rows, mu for the y-rows), with normal
  labels k in {p+1..m} for x-legs and k+m for y-legs.
* The samplers (random_plane, random_complex_plane, plane_from_angles)
  build a float frame as one (k, n) array, a Haar draw through
  frames.orthonormal_rows, and hand it to OrientedPlane.from_rows;
  complex_frames and angle_frame give those frames without the plane.
* The classifiers (spin7.is_cayley and, here, j_invariance_residual,
  is_complex_plane and canonical_angles) take one OrientedPlane or a
  (P, k, n) float stack of frames (frames.frame_stack), and run one
  implementation on a stack, one plane being a stack of one: a stack's
  result holds (P, ...) arrays where one plane's holds Python values.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional

import numpy as np

from . import _ratlinalg
from .errors import (
    DimensionMismatch,
    PlaneError,
    TypeMismatch,
    ValidationError,
    check_integer,
)
from .exterior import (
    _COMPLEX,
    EXACT,
    FLOAT,
    Vector,
    _coerce_all,
    _negligible,
    _same_backend,
    coerce_scalar,
    hodge_star,
    hook,
    hook_many,
    musical_sharp,
    wedge,
)
from .frames import (
    OrientedPlane,
    frame_stack,
    orthonormal_rows,
    random_unitary,
)
from .kahler import (
    ComplexStructureJ,
    _require_surface_model,
    dz_form,
    dzbar_form,
    holo_vector,
    imag_unit,
    require_type,
    to_complex_frame,
    wedge_many,
)
from .spin7 import phi0


# -- oriented planes -------------------------------------------------------


def random_plane(n, dim, rng):
    """A uniformly random oriented plane (float backend)."""
    n, dim = check_integer(n, "n", least=1), check_integer(dim, "dim", least=1)
    if dim > n:
        raise PlaneError("cannot fit %d orthonormal vectors in R^%d" % (dim, n))
    g = rng.standard_normal((n, dim))
    return OrientedPlane.from_rows(orthonormal_rows(g.T))


def _stack(plane, m, model=None, what=None):
    """The (P, k, n) float frames a J classifier on R^{2m} runs on, and
    whether ``plane`` was one OrientedPlane, whose frame is a stack of one.
    A ``model``, when given, must share the plane's backend; a stack is
    float (frames.frame_stack).  A plane needs n = 2m (DimensionMismatch),
    and ``what``, when given, names a classifier that needs k even
    (PlaneError)."""
    one = isinstance(plane, OrientedPlane)
    if one:
        if model is not None:
            _same_backend(plane, model)
        frames = plane.matrix()[None]
    else:
        frames = frame_stack(plane, FLOAT if model is None else model.backend)
    if what and frames.shape[1] % 2 != 0:
        raise PlaneError("%s needs an even-dimensional plane" % (what,))
    if frames.shape[2] != 2 * m:
        raise DimensionMismatch("plane and model dimensions disagree")
    return frames, one


def j_invariance_residual(J, plane):
    """Operator-norm distance of the plane from J-invariance.

    Computes ||(I - P) J P||_2 with P the orthogonal projection onto the
    plane; zero exactly when the plane is closed under J.  A float for one
    OrientedPlane, on either backend, and a (P,) array for a stack, whose
    norms come from one stacked SVD.
    """
    frames, one = _stack(plane, J.m)
    p = frames.swapaxes(1, 2) @ frames
    res = np.linalg.norm((np.eye(2 * J.m) - p) @ _float_j(J.m)[0] @ p, 2,
                         axis=(-2, -1))
    return float(res[0]) if one else res


@lru_cache(maxsize=None)
def _float_j(m):
    """The standard J on R^{2m} and its transpose as read-only C-ordered
    float arrays: a product with a transposed view is slower on a stack."""
    jm = np.array(ComplexStructureJ(m).matrix(), dtype=float)
    jt = np.ascontiguousarray(jm.T)
    jm.flags.writeable = jt.flags.writeable = False
    return jm, jt


def random_complex_plane(J, p, rng):
    """A random J-invariant 2p-dimensional plane in R^{2m} (float)."""
    m, p = J.m, check_integer(p, "p", least=1)
    if p > m:
        raise PlaneError("complex dimension %d exceeds m=%d" % (p, m))
    return OrientedPlane.from_rows(complex_frames(random_unitary(m, rng), p))


def complex_frames(u, p):
    """The (..., 2p, 2m) real frames f_1, J f_1, .., f_p, J f_p of the first
    p columns w_j of (..., m, m) unitaries u (frames.haar_unitary), f_j
    being w_j realified and J f_j the realified i w_j: the frame
    random_complex_plane builds from its draw."""
    w = u[..., :p].swapaxes(-1, -2)
    pairs = np.stack((w, 1j * w), axis=-2)
    return _realify(pairs.reshape(*w.shape[:-2], -1, w.shape[-1]))


def _realify(z):
    """Complex rows (..., m) as real rows (..., 2m): (Re z_1, Im z_1, ...)."""
    return np.stack((z.real, z.imag), axis=-1).reshape(*z.shape[:-1], -1)


# -- the graph deformation polynomial system -------------------------------


@dataclass(frozen=True)
class GraphCoefficients:
    """4x4 tilt coefficients: rows are tangent 1..4, columns normal 5..8.
    A tilt is real: complex entries raise ValidationError."""

    entries: tuple
    backend: str = FLOAT

    def __post_init__(self):
        # a float solve's new tilt (replace_first_row) is not coerced again
        rows = tuple(_coerce_all(row, self.backend) for row in self.entries)
        flat = itertools.chain.from_iterable
        if len(rows) != 4 or any(len(r) != 4 for r in rows):
            raise ValidationError("graph coefficients must be a 4x4 array")
        if not _COMPLEX.isdisjoint(map(type, flat(rows))):
            raise ValidationError("graph coefficients must be real")
        object.__setattr__(self, "entries", rows)

    def entry(self, j, i):
        """lam^j_i with tangent j in 1..4 and normal i in 5..8."""
        return self.entries[j - 1][i - 5]

    def norm(self):
        """Frobenius norm as a float; inf when it overflows one."""
        try:
            return math.hypot(*(float(x) for row in self.entries for x in row))
        except OverflowError:
            return math.inf

    def replace_first_row(self, row):
        new = (tuple(row),) + self.entries[1:]
        return GraphCoefficients(entries=new, backend=self.backend)


def random_graph_coefficients(rng, radius=0.25):
    """Random coefficients with Frobenius norm scaled to ``radius``."""
    raw = rng.standard_normal((4, 4))
    raw *= radius / max(np.linalg.norm(raw), 1e-12)
    return GraphCoefficients(entries=tuple(tuple(row) for row in raw), backend=FLOAT)


def graph_frame(lam):
    """Frame of the tilted plane: v_j = e_j + sum_i lam^j_i e_i (not unit)."""
    out = []
    for j in range(1, 5):
        comps = [coerce_scalar(0, lam.backend)] * 8
        comps[j - 1] = coerce_scalar(1, lam.backend)
        for i in range(5, 9):
            comps[i - 1] = lam.entry(j, i)
        out.append(Vector(comps, lam.backend))
    return out


def _det3(lam, rows, cols):
    e = lam.entries
    a = [[e[j - 1][i - 5] for i in cols] for j in rows]
    return (
        a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
        - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
        + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0])
    )


def tau_system(lam):
    """The four graph equations, hand-expanded: linear tilt terms minus
    cubic minors.  The oracle the graph solver (solve_tau_system) and the
    mixed components of tau_graph_components are checked against."""
    L = lam.entry
    D = lambda rows, cols: _det3(lam, rows, cols)
    eq1 = (
        L(1, 5) + L(2, 6) + L(3, 7) + L(4, 8)
        - D((2, 3, 4), (6, 7, 8))
        - D((1, 3, 4), (5, 7, 8))
        - D((1, 2, 4), (5, 6, 8))
        - D((1, 2, 3), (5, 6, 7))
    )
    eq2 = (
        L(1, 6) - L(2, 5) - L(3, 8) + L(4, 7)
        + D((2, 3, 4), (5, 7, 8))
        - D((1, 3, 4), (6, 7, 8))
        - D((1, 2, 4), (5, 6, 7))
        + D((1, 2, 3), (5, 6, 8))
    )
    eq3 = (
        L(1, 7) + L(2, 8) - L(3, 5) - L(4, 6)
        - D((2, 3, 4), (5, 6, 8))
        - D((1, 3, 4), (5, 6, 7))
        + D((1, 2, 4), (6, 7, 8))
        + D((1, 2, 3), (5, 7, 8))
    )
    eq4 = (
        L(1, 8) - L(2, 7) + L(3, 6) - L(4, 5)
        + D((2, 3, 4), (5, 6, 7))
        - D((1, 3, 4), (5, 6, 8))
        + D((1, 2, 4), (5, 7, 8))
        - D((1, 2, 3), (6, 7, 8))
    )
    return (eq1, eq2, eq3, eq4)


_EPS_PAIRS = ((5, 6), (6, 7), (7, 8), (5, 8), (7, 5), (6, 8))
_EPS = {}
for _a, _b in _EPS_PAIRS:
    _EPS[(_a, _b)] = 1
    _EPS[(_b, _a)] = -1


def _eps_sum(lam, pairs, fn):
    total = coerce_scalar(0, lam.backend)
    for (a, b) in pairs:
        for (i, j) in ((a, b), (b, a)):
            total = total + _EPS[(i, j)] * fn(i, j)
    return total


def residual_quadratics(lam):
    """The three quadratic constraints that complete tau_system: together the
    seven expressions vanish exactly when the graphed plane is calibrated.
    Each equals one diagonal component of the four-vector defect (see
    tau_graph_components), an identity pinned by the regression tests."""
    L = lam.entry
    q1 = _eps_sum(
        lam, ((5, 7), (6, 8)), lambda i, j: L(1, i) * L(4, j) + L(2, i) * L(3, j)
    ) + _eps_sum(
        lam, ((6, 7), (5, 8)), lambda i, j: L(1, i) * L(3, j) - L(2, i) * L(4, j)
    )
    q2 = _eps_sum(
        lam, ((5, 6), (7, 8)), lambda i, j: L(1, i) * L(4, j) + L(2, i) * L(3, j)
    ) - _eps_sum(
        lam, ((5, 8), (6, 7)), lambda i, j: L(1, i) * L(2, j) + L(3, i) * L(4, j)
    )
    q3 = _eps_sum(
        lam, ((5, 6), (7, 8)), lambda i, j: L(2, i) * L(4, j) - L(1, i) * L(3, j)
    ) - _eps_sum(
        lam, ((5, 7), (6, 8)), lambda i, j: L(1, i) * L(2, j) + L(3, i) * L(4, j)
    )
    return (q1, q2, q3)


_PHI0 = phi0(EXACT)  # its exact component_table() serves float frames too


def tau_graph_components(lam):
    """The seven components of tau on the graph frame of ``lam`` in phi0's
    adapted orthonormal basis of the 7-piece (seven_basis()): returns (mixed
    4-tuple, diagonal 3-tuple) in the coefficients' own arithmetic.

    The frame's 70 minors times phi0's component_table(), by one call:
    exact on exact input, floats on float input.  tau_eval is the reference
    the tests hold this against.  The basis is orthonormal, so the squares
    of the seven sum to |tau|^2: the graph reports (cli) read their defect
    norm from them, in the tilt's own arithmetic."""
    rows = [v.comps for v in graph_frame(lam)]
    # Python floats or Fractions
    comps = np.asarray(_PHI0.component_table()(rows)).tolist()
    return tuple(comps[:4]), tuple(comps[4:])


_SOLVE_RADIUS = 0.3
# the five frames of solve_tau_system, first row e1, e5, e6, e7, e8 and rows
# 2-4 the graph rows with their tilt entries (columns 5-8) still zero
_SOLVE_FRAMES = np.zeros((5, 4, 8), dtype=int)
_SOLVE_FRAMES[0, 0, 0] = 1
_SOLVE_FRAMES[1:, 0, 4:] = np.eye(4, dtype=int)
_SOLVE_FRAMES[:, (1, 2, 3), (1, 2, 3)] = 1
_SOLVE_FRAMES.flags.writeable = False


def solve_tau_system(lam0):
    """Solve the four graph equations for the first row of the tilt, rows
    2-4 held fixed, in the input's own arithmetic.

    The equations are the mixed components of the defect on the graph frame
    (tau_graph_components), and the defect is multilinear in the frame
    rows.  Only row 1, e1 + sum_c x_c e_{4+c}, holds x = (lam^1_5..lam^1_8),
    so the equations are affine in x: A x + b, with b their value on the
    frame (e1; v2; v3; v4) and column c of A their value on (e_{4+c}; v2;
    v3; v4), v2..v4 the graph rows 2-4.  The mixed columns of one call on
    phi0's component_table() for those five frames give A and b, and one
    linear solve the solution: Fractions on the exact backend
    (_ratlinalg.solve), np.linalg.solve on the float one.  tau_system, the
    hand-expanded oracle, is not called; the tests hold the solution
    against it.

    The start must lie in the Frobenius ball of radius 0.3, else
    ValidationError.  There A = I + E, since every cubic minor of
    tau_system has at most one factor from row 1: each entry of E is a sum
    of at most three 2x2 minors of rows 2-4, each at most 0.3**2 / 2 =
    0.045 in size, so ||E||_F <= 4 * 3 * 0.045 < 1 and A is invertible.
    """
    norm = lam0.norm()
    if not norm <= _SOLVE_RADIUS:
        raise ValidationError("starting coefficients have norm %.4g > %.2f"
                              % (norm, _SOLVE_RADIUS))
    exact = lam0.backend == EXACT
    frames = _SOLVE_FRAMES.astype(object if exact else float)
    frames[:, 1:, 4:] = lam0.entries[1:]
    values = np.asarray(_PHI0.component_table()(frames))[:, :4]
    if exact:
        b, *columns = values
        x = _ratlinalg.solve(list(zip(*columns)), [-v for v in b])
    else:
        x = np.linalg.solve(values[1:].T, -values[0]).tolist()
    return lam0.replace_first_row(x)


# -- canonical angles ------------------------------------------------------


@dataclass(frozen=True)
class CanonicalAngles:
    """Result of the angle extraction for an even-dimensional plane, or
    for a stack of them with arrays in each field (canonical_angles);
    pair_frame and plane() are a one-plane result's."""

    angles: tuple            # p values, ascending, last possibly > pi/2
    frame_rows: tuple        # 2p tuples of floats (f_1, g_1, ..., f_p, g_p)
    gap: Optional[float]     # smallest spacing between distinct cosines
    gap_warning: bool

    @property
    def pair_frame(self):
        """The frame rows as 2p FLOAT Vectors, built on each access."""
        return tuple(Vector(r, FLOAT) for r in self.frame_rows)

    def plane(self):
        return OrientedPlane(rows=self.pair_frame)


_COS_ZERO = 1e-9  # a pairing eigenvalue at or below this is a zero cosine
_COS_GAP = 1e-8   # distinct cosines closer than this set gap_warning
# a complex plane's bound on its minors and j_invariance_residual: a complex
# float 4-plane in R^8 reads <= 1.3e-15, a Haar one >= 0.2; no caller sets it,
# as a minor of unit rows is at most 1, so a bound of 1 calls all complex
COMPLEX_TOL = 1e-9


def canonical_angles(model, plane):
    """Adapted frame and angles of a 2p-plane against the model pairing.

    Produces an orthonormal frame (f_1, g_1, .., f_p, g_p) of the plane
    with pairing values omega(f_j, g_j) = cos(theta_j), zero across pairs,
    theta_1 <= ... <= theta_p, the first p-1 angles in [0, pi/2], and the
    last flipped past pi/2 when needed to preserve orientation.  Pairs come
    in descending cosine, equal cosines in the order eigh returns them for
    i A (A the antisymmetric pairing matrix), the zero block, of the
    eigenvalues at or below _COS_ZERO, last.  ``gap_warning`` is set when
    two distinct cosines lie closer than _COS_GAP.

    ``plane`` is an OrientedPlane, whose frame matrix is read once, or a
    (P, 2p, 2m) float stack of frames (frames.frame_stack), classified by
    one stacked eigh; only the planes with a zero block take an SVD each.
    A stack gives (P, p) angles, (P, 2p, 2m) frame_rows, (P,) gap_warning
    and a (P,) gap that is nan where one plane's gap is None.  There is no
    rank test: every frame is exactly orthonormal (exact backend) or within
    frames.ORTHONORMAL_TOL with at most 8 rows, so |M M^T - I|_2 <= 8
    ORTHONORMAL_TOL = 8e-10 and every singular value of M is at least
    sqrt(1 - 8e-10) > 0.9999999, far above any rank cutoff.
    """
    rows, one = _stack(plane, model.m, model, "angle extraction")
    count, dim, _ = rows.shape
    p = dim // 2
    _, jt = _float_j(model.m)
    # pairing matrices A_ab = omega(f_a, f_b) = <J f_a, f_b>
    amat = rows @ jt @ rows.swapaxes(1, 2)
    amat = 0.5 * (amat - amat.swapaxes(1, 2))
    evals, evecs = np.linalg.eigh(1j * amat)
    # per plane the first p eigenpairs by descending eigenvalue, the sort
    # stable so that ties stay in ascending eigh order: the positive ones
    # come first, then the zero block's
    pick = (np.arange(count)[:, None], (-evals).argsort(kind="stable")[:, :p])
    cos = evals[pick]
    # frame coordinates (f_1, g_1, ..) with f = y/|y|, g = x/|x| for the
    # eigenvectors u = x + i y
    u = evecs.swapaxes(1, 2)[pick]
    coords = np.empty((count, dim, dim))
    coords[:, 0::2] = u.imag
    coords[:, 1::2] = u.real
    norms = np.sqrt(np.add.reduce(coords * coords, axis=-1))
    # the planes with a zero block, fewer than p positive eigenvalues
    zero = [i for i, c in enumerate(cos[:, -1].tolist()) if not c > _COS_ZERO]
    if zero:
        positive = cos > _COS_ZERO
        cos[~positive] = 0.0
        norms.reshape(count, p, 2)[~positive] = 1.0
    if norms.min(initial=math.inf) < 1e-12:
        raise PlaneError("pairing eigenvector degenerated; cannot pair")
    coords /= norms[..., None]
    # zero block: real kernel of the pairing matrix, paired in order
    for i in zero:
        paired = 2 * np.count_nonzero(cos[i])
        _, s_svd, vt = np.linalg.svd(amat[i])
        null = vt[np.argsort(np.abs(s_svd))[:dim - paired], :]
        # orthonormalize the kernel block
        q, _ = np.linalg.qr(null.T)
        coords[i, paired:] = q.T
    # frame vectors in ambient coordinates
    amb = coords @ rows
    flip = [i for i, d in enumerate(np.linalg.det(coords).tolist()) if d < 0]
    # theta = atan2(|g - cos(theta) J f|, cos(theta)): the sine is the part of
    # g off J f, which stays accurate near 0 where arccos loses half the digits
    off = amb[:, 1::2] - cos[..., None] * (amb[:, 0::2] @ jt)
    angles = np.arctan2(np.sqrt(np.add.reduce(off * off, axis=-1)), cos)
    # orientation: the last vector and angle of each plane with det < 0
    for i in flip:
        amb[i, -1] *= -1.0
        angles[i, -1] = np.pi - angles[i, -1]
    gaps = []
    for row in cos.tolist():
        cosines = sorted({round(c, 12) for c in row})
        gaps.append(min([b - a for a, b in zip(cosines, cosines[1:])])
                    if len(cosines) > 1 else None)
    warns = [gap is not None and gap < _COS_GAP for gap in gaps]
    if one:
        return CanonicalAngles(
            angles=tuple(angles[0].tolist()),
            frame_rows=tuple(map(tuple, amb[0].tolist())),
            gap=gaps[0],
            gap_warning=warns[0],
        )
    return CanonicalAngles(
        angles=angles,
        frame_rows=amb,
        gap=np.array([math.nan if gap is None else gap for gap in gaps]),
        gap_warning=np.array(warns, dtype=bool),
    )


def plane_from_angles(model, angles, rng):
    """Sample a plane realizing the requested angles: the OrientedPlane of
    angle_frame."""
    return OrientedPlane.from_rows(angle_frame(model, angles, rng))


def angle_frame(model, angles, rng):
    """The (2p, 2m) float frame of a plane realizing the requested angles.

    Uses a random unitary to place the pairs: each angle theta_j consumes
    one complex direction for f_j and (when sin(theta_j) != 0) one more for
    the partner leg.
    """
    m = model.m
    p = len(angles)
    sins = [abs(np.sin(t)) > 1e-12 for t in angles]
    needed = p + sum(sins)
    if needed > m:
        raise ValidationError(
            "angles need %d complex directions but m=%d" % (needed, m)
        )
    u = random_unitary(m, rng)
    rows = complex_frames(u, p)
    legs = iter(_realify(u[:, p:].T))
    for j, theta in enumerate(angles):
        jf = rows[2 * j + 1]
        if sins[j]:
            rows[2 * j + 1] = np.cos(theta) * jf + np.sin(theta) * next(legs)
        elif not np.cos(theta) > 0:
            rows[2 * j + 1] = -jf
    return rows


# -- complex-plane detection ----------------------------------------------


@dataclass(frozen=True)
class ComplexPlaneVerdict:
    """is_complex_plane's verdict; a stack's holds (P,) arrays but in p, m."""

    is_complex: bool
    max_sigma: float
    max_im: Optional[float]
    p: int
    m: int


@lru_cache(maxsize=None)
def _coordinate_minor_index(p, m):
    """Index arrays gathering every (p+1)x(p+1) submatrix Z[S, K] of a
    2p x m matrix, S running over the (p+1)-subsets of rows and K over the
    (p+1)-subsets of columns: shapes (N, p+1, 1) and (N, 1, p+1)."""
    rows = np.array(list(itertools.combinations(range(2 * p), p + 1)))
    cols = np.array(list(itertools.combinations(range(m), p + 1)))
    return (np.repeat(rows, len(cols), axis=0)[:, :, None],
            np.tile(cols, (len(rows), 1))[:, None, :])


def is_complex_plane(model, plane):
    """Decide J-invariance of a 2p-plane from the contractions v_S -| Omega.

    Let Z = rows[:, 0::2] + i rows[:, 1::2] be the plane's 2p x m complex
    coordinate matrix (z_k = x_{2k-1} + i x_{2k}).  For a set S of p+1 frame
    rows, each real coefficient of v_S -| Omega is, up to sign, the real
    part of w i^q for some q, where w = e^{i phase} det Z[S, K] is a phased
    (p+1)x(p+1) minor.  When m > p+1 both parities of q occur, so
    ``max_sigma`` is the largest of |Re w| and |Im w| over all minors; when
    m = p+1 the contraction is the 0-form w itself, ``max_sigma`` is the
    largest |Re w| and ``max_im`` the largest |Im w|.  Either way the plane
    is J-complex iff every minor vanishes, i.e. iff rank_C Z = p, read as
    every figure at most COMPLEX_TOL.  All minors come from one batched
    determinant, in floats on both backends.  ``plane`` is an OrientedPlane
    or a (P, 2p, 2m) float stack of frames (frames.frame_stack), whose
    verdict holds (P,) arrays of is_complex, max_sigma and max_im (still
    None when m > p+1) and the stack's p and m.
    """
    rows, one = _stack(plane, model.m, model, "complex-plane test")
    p = rows.shape[1] // 2
    m = model.m
    if p + 1 > m:
        # hooks of more than m vectors vanish identically: nothing to test,
        # and p = m, as 2p orthonormal rows fit in R^{2m}: the plane is the
        # whole space (J-invariant).
        worst, worst_im = np.zeros(len(rows)), None
    else:
        # each row's pairs (x_{2k-1}, x_{2k}) read as the complex z_k
        z = np.ascontiguousarray(rows).view(complex)
        r, c = _coordinate_minor_index(p, m)
        w = np.linalg.det(z[:, r, c]) * complex(model.phase)
        worst = np.abs(w.real).max(axis=-1)
        worst_im = np.abs(w.imag).max(axis=-1)
        if m > p + 1:
            worst, worst_im = np.maximum(worst, worst_im), None
    if one:
        worst, worst_im = worst.item(), None if worst_im is None else worst_im.item()
    return ComplexPlaneVerdict(
        is_complex=((worst <= COMPLEX_TOL)
                    & (worst_im is None or worst_im <= COMPLEX_TOL)),
        max_sigma=worst,
        max_im=worst_im,
        p=p,
        m=m,
    )


# -- complex graphs and their linear system --------------------------------


@dataclass(frozen=True)
class ComplexGraphCoefficients:
    """Tilt coefficients for a graph over the z_1..z_p coordinate plane.

    ``lam`` tilts the x-rows (v_j over e_{2j-1}) and ``mu`` the y-rows
    (w_j over e_{2j}); columns follow the normal labels
    [p+1, ..., m, m+p+1, ..., 2m], where label k <= m means the normal
    x-direction of z_k and label k+m its y-direction.
    """

    p: int
    m: int
    lam: tuple
    mu: tuple
    backend: str = FLOAT

    def __post_init__(self):
        width = 2 * (self.m - self.p)
        lam = tuple(_coerce_all(row, self.backend) for row in self.lam)
        mu = tuple(_coerce_all(row, self.backend) for row in self.mu)
        if len(lam) != self.p or len(mu) != self.p:
            raise ValidationError("need p rows in each coefficient block")
        if any(len(r) != width for r in lam + mu):
            raise ValidationError("need 2(m-p) columns per row")
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "mu", mu)

    def column_labels(self):
        return tuple(range(self.p + 1, self.m + 1)) + tuple(
            range(self.m + self.p + 1, 2 * self.m + 1)
        )

    def _real_coord(self, label):
        # normal label -> 1-based real coordinate in the interleaved model
        if label <= self.m:
            return 2 * label - 1
        return 2 * (label - self.m)

    def frame(self):
        """[v_1..v_p, w_1..w_p] as real vectors in R^{2m}."""
        labels = self.column_labels()
        out = []
        # an x-row v_j has its 1 on e_{2j-1}, a y-row w_j on e_{2j}
        for block, offset in ((self.lam, 2), (self.mu, 1)):
            for j, row in enumerate(block, start=1):
                comps = [coerce_scalar(0, self.backend)] * (2 * self.m)
                comps[2 * j - offset] = coerce_scalar(1, self.backend)
                for lab, x in zip(labels, row):
                    comps[self._real_coord(lab) - 1] = x
                out.append(Vector(comps, self.backend))
        return out

    @classmethod
    def from_flat(cls, p, m, values, backend=FLOAT):
        width = 2 * (m - p)
        vals = list(values)
        if len(vals) != 2 * p * width:
            raise ValidationError("wrong number of coefficient values")
        lam = tuple(
            tuple(vals[r * width: (r + 1) * width]) for r in range(p)
        )
        mu = tuple(
            tuple(vals[(p + r) * width: (p + r + 1) * width]) for r in range(p)
        )
        return cls(p=p, m=m, lam=lam, mu=mu, backend=backend)


def normal_volume_form(model, p):
    """beta = dz_{p+1} ^ ... ^ dz_m (grade m-p, complex)."""
    if p >= model.m:
        raise DimensionMismatch("no normal directions when p >= m")
    return wedge_many([dz_form(model, k) for k in range(p + 1, model.m + 1)])


def complex_graph_linear_system(model, cg):
    """The first-order graph constraints: for each row j the real form
      Re[e^{i phase}(w_j -| beta  -  i v_j -| beta)]."""
    if cg.m != model.m:
        raise DimensionMismatch("coefficients and model disagree on m")
    _same_backend(cg, model)
    beta = normal_volume_form(model, cg.p)
    frame = cg.frame()
    i_unit = imag_unit(cg.backend)
    return [(hook(frame[cg.p + j], beta) - hook(frame[j], beta).scale(i_unit))
            .scale(model.phase).re for j in range(cg.p)]


def hook_coefficient_oracle(model, cg):
    """Residual of the closed form of the complex combinations
    w_j -| beta - i v_j -| beta, which complex_graph_linear_system phases
    and takes the real part of.

    Each combination must equal
      sum_k [(mu^j_k + lam^j_{k+m}) + i (mu^j_{k+m} - lam^j_k)] e_k -| beta
    (phase factored out), where e_k is the x-leg of z_k.  Returns the
    largest coefficient deviation.
    """
    beta = normal_volume_form(model, cg.p)
    frame = cg.frame()
    labels = cg.column_labels()
    i_unit = imag_unit(cg.backend)
    width = cg.m - cg.p
    worst = []
    for j in range(cg.p):
        v = frame[j]
        w = frame[cg.p + j]
        combo = hook(w, beta) - hook(v, beta).scale(i_unit)
        acc = None
        for col in range(width):
            k = labels[col]
            lam_x = cg.lam[j][col]
            lam_y = cg.lam[j][col + width]
            mu_x = cg.mu[j][col]
            mu_y = cg.mu[j][col + width]
            coeff = (mu_x + lam_y) + (mu_y - lam_x) * i_unit
            ek = Vector.basis(2 * cg.m, 2 * k - 1, cg.backend)
            term = hook(ek, beta).scale(coeff)
            acc = term if acc is None else acc + term
        worst.append(float((combo - acc).max_abs()))
    return float(np.max(worst, initial=0.0))


def cr_residual(cg):
    """Residual of the first-order holomorphicity relations:
    mu^j_k = -lam^j_{k+m} and mu^j_{k+m} = lam^j_k."""
    width = cg.m - cg.p
    lam = np.array(cg.lam, dtype=float).reshape(cg.p, 2 * width)
    mu = np.array(cg.mu, dtype=float).reshape(cg.p, 2 * width)
    return float(np.max(np.abs([mu[:, :width] + lam[:, width:],
                                mu[:, width:] - lam[:, :width]]), initial=0.0))


def linear_system_matrix(model, p):
    """Real matrix of the first-order constraints acting on flat
    coefficient vectors (rows: constraint coefficients; cols: unknowns)."""
    m = model.m
    width = 2 * (m - p)
    nunk = 2 * p * width
    cols = []
    for u in range(nunk):
        flat = [0.0] * nunk
        flat[u] = 1.0
        cg = ComplexGraphCoefficients.from_flat(p, m, flat, backend=FLOAT)
        entries = []
        for form in complex_graph_linear_system(model, cg):
            for key in sorted(
                itertools.combinations(range(1, 2 * m + 1), m - p - 1)
            ):
                entries.append(float(form.coeff(key)))
        cols.append(entries)
    return np.array(cols).T


def solve_complex_graph_linear(model, p, rng):
    """A random solution of the first-order constraints."""
    mat = linear_system_matrix(model, p)
    _, s, vt = np.linalg.svd(mat)
    tol = (s.max() if s.size else 0.0) * 1e-10
    rank = int(np.sum(s > tol))
    null = vt[rank:, :]
    if null.shape[0] == 0:
        raise PlaneError("constraint system has no kernel")
    coeffs = rng.standard_normal(null.shape[0])
    flat = coeffs @ null
    return ComplexGraphCoefficients.from_flat(p, model.m, flat.tolist(), FLOAT)


# -- the normal-form isomorphism (m = 4 graphs over a surface) -------------


def _require_small(model, values, tol, message):
    """TypeMismatch(message) unless every |Re| and |Im| of the scalars
    ``values`` is zero on the exact backend, at most ``tol`` on the float
    one; the NaN-propagating maximum fails a NaN."""
    worst = np.max([max(abs(c.real), abs(c.imag)) for c in values], initial=0)
    if not _negligible(worst, model.backend, tol):
        raise TypeMismatch(message)


def normal_isom(model, v):
    """Quarter of the sharpened contraction with conj(Omega).

    Sends a (0,1) normal vector v to dzbar_1 ^ dzbar_2 (x) u and returns
    u, of type (1,0).  The (0,2) factor is the fixed dzbar_1 ^ dzbar_2;
    all scalars are carried on u.
    """
    _require_surface_model(model)
    require_type(model.J, v, -1)
    _require_small(model, v.comps[:4], 1e-12,
                   "vector has tangential components")
    three_form = hook(v, model.Omega.conj())
    cf = to_complex_frame(model, three_form)
    # frame slots: dzbar_k <-> 4 + k; surface legs are (5, 6)
    c3 = cf.coeff((5, 6, 7))
    c4 = cf.coeff((5, 6, 8))
    _require_small(model, cf.without([(5, 6, 7), (5, 6, 8)]).coefficients(), 1e-10,
                   "contraction has unexpected components")
    # sharp of dzbar_b is 2 * (holomorphic coordinate vector), then / 4
    return (holo_vector(model, 3).scale(c3).scale(Fraction(1, 2))
            + holo_vector(model, 4).scale(c4).scale(Fraction(1, 2)))


def normal_isom_inverse(model, u):
    """Inverse construction: alpha (x) u -> -1/4 sharp of the surface-star
    of alpha ^ (u -| Omega), for a (1,0) vector u.  The (0,2) factor alpha
    is the fixed dzbar_1 ^ dzbar_2; returns the (0,1) normal vector."""
    _require_surface_model(model)
    require_type(model.J, u, 1)
    alpha = wedge(dzbar_form(model, 1), dzbar_form(model, 2))
    five_form = wedge(alpha, hook(u, model.Omega))
    # the coefficients of vol_N ^ dx_r, r in 5..8, and nothing else
    _require_small(model, five_form.without(
                       [(1, 2, 3, 4, r) for r in range(5, 9)]).coefficients(),
                   1e-10, "unexpected components in the contraction")
    gamma = Vector([five_form.coeff((1, 2, 3, 4, r)) if r > 4 else 0
                    for r in range(1, 9)], model.backend)
    out = gamma.scale(-1).scale(Fraction(1, 4))
    require_type(model.J, out, -1)
    return out


# -- decomposable-pair identities for the 7-piece over a surface -----------


@dataclass(frozen=True)
class SevenPieceIdentityReport:
    antiholomorphic_residual: float
    mixed_kill_residual: float
    surface_residual: float


def e_isom_checks(Phi, model):
    """Exactness checks of the decomposable-pair identities over the
    surface z_3 = z_4 = 0.  Returns maximal residuals; all are zero on the
    exact backend when the identities hold."""
    _require_surface_model(model)
    worst_i = 0.0
    # (i) antiholomorphic surface x normal pairs against Omega, and the
    # conjugate flavor: holomorphic pairs against conj(Omega)
    for a in (1, 2):
        for c in (3, 4):
            for form, Omega in ((dzbar_form, model.Omega),
                                (dz_form, model.Omega.conj())):
                v = form(model, a)
                w = form(model, c)
                corr = hook_many([musical_sharp(v), musical_sharp(w)],
                                 Omega).scale(Fraction(1, 4))
                diff = Phi.pi7_apply(wedge(v, w)) - (wedge(v, w) + corr)
                worst_i = max(worst_i, float(diff.max_abs()))
    # (ii) mixed-type surface x normal pairs are annihilated
    worst_ii = 0.0
    for a in (1, 2):
        for c in (3, 4):
            for pair in (
                wedge(dz_form(model, a), dzbar_form(model, c)),
                wedge(dzbar_form(model, a), dz_form(model, c)),
            ):
                img = Phi.pi7_apply(pair)
                worst_ii = max(worst_ii, float(img.max_abs()))
    # (iii) restriction to the surface: half of (1 + surface star)
    worst_iii = 0.0
    surface_pairs = []
    for a in (1, 2):
        for b in (1, 2):
            surface_pairs.append(wedge(dz_form(model, a), dz_form(model, b)))
            surface_pairs.append(wedge(dz_form(model, a), dzbar_form(model, b)))
            surface_pairs.append(wedge(dzbar_form(model, a), dzbar_form(model, b)))
    for pair in surface_pairs:
        if pair.is_zero():
            continue
        lhs = Phi.pi7_apply(pair).restrict(4)
        restricted = pair.restrict(4)
        rhs = (restricted + hodge_star(restricted)).scale(Fraction(1, 2))
        diff = lhs - rhs
        worst_iii = max(worst_iii, float(diff.max_abs()))
    return SevenPieceIdentityReport(
        antiholomorphic_residual=worst_i,
        mixed_kill_residual=worst_ii,
        surface_residual=worst_iii,
    )
