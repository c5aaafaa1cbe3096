"""Oriented planes and float frames: a frame stays one (k, n) array until
``OrientedPlane.from_rows`` takes it, and ``orthonormal_rows`` is the one
orientation-preserving QR, which draws a Haar frame and repairs a skewed one.
A classifier takes one OrientedPlane or a (P, k, n) float stack of frames,
which ``frame_stack`` holds to the plane's own orthonormality rule."""

import math
from dataclasses import dataclass, field

import numpy as np

from . import _ratlinalg
from .errors import BackendMismatch, DimensionMismatch, PlaneError
from .exterior import EXACT, FLOAT, Vector, _negligible

# the one bound on max|M M^T - I| of a float frame, which OrientedPlane
# enforces and classify-plane repairs to: every plane source reads <= 1.5e-15,
# and within 1e-10 a calibrated plane's value is within 2e-10 of 1
ORTHONORMAL_TOL = 1e-10


def orthonormal_rows(rows):
    """The k orthonormal rows, as a (..., k, n) float array, that a QR of k
    independent rows (Vectors, rows of numbers or an array, which may carry
    leading axes) gives: row j spans with the rows before it what rows 1..j
    span.  R's diagonal is made nonnegative, so the frame keeps the rows'
    orientation, and a Gaussian draw comes out Haar-distributed (Mezzadri,
    Notices AMS 54, 2007).  A stack is one stacked QR, each frame bit for
    bit its own."""
    q, r = np.linalg.qr(as_matrix(rows).swapaxes(-1, -2))
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return (q * np.where(diag < 0.0, -1.0, 1.0)[..., None, :]).swapaxes(-1, -2)


def random_unitary(m, rng):
    """Haar-ish random unitary m x m matrix (complex numpy array)."""
    return haar_unitary(rng.standard_normal((2, m, m)))


def haar_unitary(g):
    """The Haar unitaries of (..., 2, m, m) Gaussian draws g, the real then
    the imaginary parts of complex (..., m, m) matrices: each one's Q of a
    QR, its columns phased so that R's diagonal is real and nonnegative.  A
    stack is one stacked QR, each unitary bit for bit its own."""
    q, r = np.linalg.qr(g[..., 0, :, :] + 1j * g[..., 1, :, :])
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(np.where(d == 0, 1.0, d)))[..., None, :]


def as_matrix(rows):
    """Stack Vectors or rows of numbers into a (k, n) float numpy array;
    an array, of any shape, is taken as float, and a complex entry or a
    complex array raises TypeError."""
    if not isinstance(rows, np.ndarray):
        rows = [r.comps if isinstance(r, Vector) else r for r in rows]
    mat = np.asarray(rows)
    if mat.dtype.kind == "c":
        # a cast to float would drop the imaginary parts with a warning
        raise TypeError("frame entries must be real, got a complex array")
    return mat.astype(float, copy=False)


def orthonormality_residual(rows):
    """max |M M^T - I| over the frame rows M (Vectors, rows of numbers, or
    an array whose leading axes give one residual per frame), a float or an
    array; inf when a product of entries overflows (inf, or inf - inf =
    nan) or an entry is nan."""
    mat = as_matrix(rows)
    with np.errstate(over="ignore", invalid="ignore"):
        res = np.abs(mat @ mat.swapaxes(-1, -2) - np.eye(mat.shape[-2]))
        res = res.max(axis=(-2, -1))
    return np.where(res == res, res, math.inf)[()]


def _not_orthonormal(res, which=""):
    """The PlaneError of a frame past ORTHONORMAL_TOL, the one message both
    an OrientedPlane and a frame stack give."""
    return PlaneError("frame%s is not orthonormal (residual %.3e)"
                      % (which, res if res < 1e300 else math.inf))


def frame_stack(frames, backend):
    """``frames`` as the (P, k, n) float stack a classifier of a form or
    model on ``backend`` runs on.  An input that is not an array of real
    numbers raises PlaneError, on either backend; a stack is float, so an
    exact form or model then raises BackendMismatch; an array that is not
    (P, k, n) raises DimensionMismatch, and a frame of no rows PlaneError.
    Every frame is held to the rule an OrientedPlane keeps, orthonormal
    within ORTHONORMAL_TOL, and the first that is not raises its
    PlaneError, naming its index; a nan or inf entry reads as residual
    inf."""
    if not isinstance(frames, np.ndarray) or frames.dtype.kind not in "fiu":
        raise PlaneError(
            "need an OrientedPlane or a float array of frames, got %s"
            % (getattr(frames, "dtype", type(frames).__name__),))
    if backend != FLOAT:
        raise BackendMismatch("mixed backends: %r vs %r" % (FLOAT, backend))
    if frames.ndim != 3:
        raise DimensionMismatch(
            "need a (P, k, n) stack of frames, got shape %s" % (frames.shape,))
    if frames.shape[1] == 0:
        raise PlaneError("a plane needs at least one frame vector")
    stack = frames.astype(float, copy=False)
    res = orthonormality_residual(stack)
    bad = np.flatnonzero(~_negligible(res, FLOAT, ORTHONORMAL_TOL))
    if bad.size:
        raise _not_orthonormal(res[bad[0]], " %d" % bad[0])
    return stack


@dataclass(frozen=True)
class OrientedPlane:
    """An ordered orthonormal frame spanning a 2p-dimensional subspace."""

    rows: tuple
    _matrix: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rows = tuple(self.rows)
        if not rows:
            raise PlaneError("a plane needs at least one frame vector")
        n = rows[0].n
        backend = rows[0].backend
        for r in rows:
            if r.n != n or r.backend != backend:
                raise PlaneError("frame vectors disagree in dimension or backend")
            if not r.is_real():
                raise PlaneError("frame vectors must be real")
        if len(rows) > n:
            raise PlaneError("more frame vectors than ambient dimensions")
        if backend == EXACT:
            # floats only once it passes: a refused frame may overflow them
            comps = [r.comps for r in rows]
            gram = np.array(_ratlinalg.matmul(comps, list(zip(*comps))))
            res = np.abs(gram - np.eye(len(rows), dtype=int)).max()
            mat = as_matrix(rows) if res == 0 else None
        else:
            mat = as_matrix(rows)
            res = orthonormality_residual(mat)
        if not _negligible(res, backend, ORTHONORMAL_TOL):
            raise _not_orthonormal(res)
        mat.flags.writeable = False
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "_matrix", mat)

    @property
    def n(self):
        return self.rows[0].n

    @property
    def dim(self):
        return len(self.rows)

    @property
    def backend(self):
        return self.rows[0].backend

    @classmethod
    def from_rows(cls, rows, backend=FLOAT):
        """rows: Vectors, rows of numbers, or an array read as Python scalars."""
        if isinstance(rows, np.ndarray):
            rows = rows.tolist()
        vecs = [r if isinstance(r, Vector) else Vector(r, backend) for r in rows]
        return cls(rows=tuple(vecs))

    def matrix(self):
        """The frame rows as one read-only (k, n) float array, built at
        construction on both backends."""
        return self._matrix
