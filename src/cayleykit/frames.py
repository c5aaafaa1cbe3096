"""Random frames and small orthogonality utilities (float backend)."""

import math

import numpy as np

from .errors import PlaneError
from .exterior import FLOAT, Vector


def haar_frame(n, k, rng):
    """k orthonormal vectors in R^n drawn from the rotation-invariant measure.

    Returns a list of float-backend Vectors (the frame rows).
    """
    if k > n:
        raise PlaneError("cannot fit %d orthonormal vectors in R^%d" % (k, n))
    g = rng.standard_normal((n, k))
    q, r = np.linalg.qr(g)
    # fix the residual sign ambiguity so the draw is measure-correct
    q = q * np.sign(np.where(np.diag(r) == 0, 1.0, np.diag(r)))
    return [Vector(q[:, j].tolist(), FLOAT) for j in range(k)]


def random_unitary(m, rng):
    """Haar-ish random unitary m x m matrix (complex numpy array)."""
    g = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    q, r = np.linalg.qr(g)
    d = np.diag(r)
    ph = d / np.abs(np.where(d == 0, 1.0, d))
    return q * ph


def as_matrix(rows):
    """Stack Vectors or rows of numbers into a (k, n) float numpy array."""
    rows = [r.comps if isinstance(r, Vector) else r for r in rows]
    return np.array([[float(c) for c in r] for r in rows])


def orthonormality_residual(rows):
    """max |M M^T - I| over the frame rows M (Vectors or rows of numbers);
    inf when a product of entries overflows (inf, or inf - inf = nan)."""
    mat = as_matrix(rows)
    with np.errstate(over="ignore", invalid="ignore"):
        res = float(np.max(np.abs(mat @ mat.T - np.eye(len(mat)))))
    return res if math.isfinite(res) else math.inf
