"""Oriented planes and float frames: a frame stays one (k, n) array until
``OrientedPlane.from_rows`` takes it, and ``orthonormal_rows`` is the one
orientation-preserving QR, which draws a Haar frame and repairs a skewed one."""

import math
from dataclasses import dataclass, field

import numpy as np

from . import _ratlinalg
from .errors import PlaneError
from .exterior import EXACT, FLOAT, Vector, _negligible

# the one bound on max|M M^T - I| of a float frame, which OrientedPlane
# enforces and classify-plane repairs to: every plane source reads <= 1.5e-15,
# and within 1e-10 a calibrated plane's value is within 2e-10 of 1 (PHI_TOL)
ORTHONORMAL_TOL = 1e-10


def orthonormal_rows(rows):
    """The k orthonormal rows, as a (k, n) float array, that a QR of k
    independent rows (Vectors, rows of numbers or an array) gives: row j
    spans with the rows before it what rows 1..j span.  R's diagonal is
    made nonnegative, so the frame keeps the rows' orientation, and a
    Gaussian draw comes out Haar-distributed (Mezzadri, Notices AMS 54,
    2007)."""
    q, r = np.linalg.qr(as_matrix(rows).T)
    return (q * np.where(np.diag(r) < 0.0, -1.0, 1.0)).T


def random_unitary(m, rng):
    """Haar-ish random unitary m x m matrix (complex numpy array)."""
    g = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    q, r = np.linalg.qr(g)
    d = np.diag(r)
    ph = d / np.abs(np.where(d == 0, 1.0, d))
    return q * ph


def as_matrix(rows):
    """Stack Vectors or rows of numbers into a (k, n) float numpy array;
    an array is taken as float, and a complex entry raises TypeError."""
    if not isinstance(rows, np.ndarray):
        rows = [r.comps if isinstance(r, Vector) else r for r in rows]
    return np.asarray(rows, dtype=float)


def orthonormality_residual(rows):
    """max |M M^T - I| over the frame rows M (Vectors or rows of numbers);
    inf when a product of entries overflows (inf, or inf - inf = nan)."""
    mat = as_matrix(rows)
    with np.errstate(over="ignore", invalid="ignore"):
        res = float(np.max(np.abs(mat @ mat.T - np.eye(len(mat)))))
    return res if math.isfinite(res) else math.inf


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
            raise PlaneError("frame is not orthonormal (residual %.3e)"
                             % (res if res < 1e300 else math.inf))
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

    def projection_matrix(self):
        r = self.matrix()
        return r.T @ r
