"""Spectral model of the deformation operator on a flat product torus.

The ambient space is the flat 8-torus obtained as the quotient of C^4 by the
standard unit lattice, and the submanifold is the 4-torus cut out by
z_3 = z_4 = 0.  Because the metric is flat and the calibration is parallel,
every operator in the deformation complex is diagonal over Fourier modes, so
kernel dimensions are exact integer counts rather than discretization
artifacts.  The module provides:

* truncated Fourier sections of the bundles that appear in the deformation
  complex (holomorphic normal fields, normal-valued (0,1)- and (0,2)-forms),
* the mode-diagonal matrices of dbar, its formal adjoint, and the combined
  first-order operator, with weighted-adjoint and kernel/gap reports.  Each
  operator is one exact symbol, a (4, r_out, r_in) table S of Gaussian
  rationals composed from the vectors d/dzbar_1 and d/dzbar_2, with the
  block 2 pi i sum_j k_j S_j on mode k: the float blocks are one product of
  the integer modes with S.  A block depends only on its mode, so a survey
  over several truncations takes the singular values of each operator
  once, at the largest one, and reads each smaller truncation off the rows
  of its modes.  Singular values
  come from ``block_singular_values``: a block whose columns or rows pass
  Jacobi's stopping test (every block of these operators, measured) takes
  its vector norms, and only the others go to LAPACK,
* a geometric evaluation of the nonlinear defect of a graphed deformation,
  finite-difference slope checks of its linearization, and an exact
  pointwise certification that the linearization agrees with the assembled
  first-order operator.  All three read one exact (70, 4) table, the Cayley
  form's defect table followed by the normal-valued (0,1)-part, whose value
  on a tangent frame is the frame's 70 4x4 minors times the table.  It is
  the Cayley form's defect table times psi, the (0,1)-part as a (28, 4)
  matrix, by the form's one exact product (``CayleyForm.defect_times``);
  psi does not depend on the phase and is built once per process from 2x2
  minors (``exterior.pair_minors``).
  Float grids are evaluated by one call of the graph entry of the table's
  ``exterior.FourFormTable``, built once per phase, whose kernel never
  forms the minors, skips the 13 of 28 pair minors of each row pair that
  are 0 on a graph frame, and walks the grid's frames in cache-sized
  blocks.  The frames are graphs [I_4 | t A],
  and the blocks A come from one grid synthesis per section (four small
  products with a cached DFT matrix, one per base axis), of the
  derivatives of the displacement's four normal components along the four
  base axes, which one exact displacement matrix per phase gives.  The
  certificate needs no minors at all, since a frame tilted in one row has
  only the degree-one minors besides the base one, so it reads the
  derivative off the table's degree-one rows.  It tilts by the rows of the
  displacement matrix and compares with the exact symbol of the combined
  operator, so it certifies the operator whose kernel is counted,
* the two signed first-order operators characterizing infinitesimal complex
  deformations, and the mode-by-mode match of their holomorphic half's
  kernel with dbar's, which takes singular vectors only of the blocks
  that drop a singular value, and
* integer index calculators from topological invariants and from Chern
  numbers, with a consistency family generator.
"""

import math
import numbers
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import numpy as np

from . import _ratlinalg
from .errors import NonIntegralError, ValidationError, check_integer
from .exterior import (
    EXACT,
    ExactComplex,
    FOUR_FORM_INDEX,
    FourFormTable,
    pair_minors,
)
from .kahler import _phase_components, antiholo_vector, build_model
from .spin7 import phi_from_kahler

# bundle tags and fiber ranks ------------------------------------------------
#
# normal10            holomorphic part of the complexified normal bundle,
#                     components (d/dz3, d/dz4)
# two_form_normal     (0,2)-forms on the base torus valued in normal10,
#                     components f_3, f_4 on conj(dz1)^conj(dz2) (x) d/dz_a
# one_form_normal     (0,1)-forms valued in normal10, components on
#                     conj(dz_b) (x) d/dz_a, rows ordered
#                     (1,3), (1,4), (2,3), (2,4)
# deformation_pair    normal10 (+) two_form_normal, the domain of the
#                     combined first-order operator
# complexified_normal full complexified normal bundle, components
#                     (v_3, v_4, u_3, u_4) on (d/dz3, d/dz4, d/dzbar3,
#                     d/dzbar4)
# type_pair_forms     codomain of the complex-deformation operators:
#                     dz_b (x) dz_a components then conj components, rows
#                     (1,3), (1,4), (2,3), (2,4) twice
#
# Hermitian fiber weights for the L2 pairing, from |dz|^2 = 2 and
# |d/dz|^2 = 1/2 in the flat metric, one per component, so that a bundle's
# fiber rank is the number of its weights.
BUNDLE_WEIGHTS = {
    "normal10": (0.5, 0.5),
    "two_form_normal": (2.0, 2.0),
    "one_form_normal": (1.0, 1.0, 1.0, 1.0),
    "deformation_pair": (0.5, 0.5, 2.0, 2.0),
    "complexified_normal": (0.5, 0.5, 0.5, 0.5),
    "type_pair_forms": (4.0,) * 8,
}
BUNDLE_RANK = {bundle: len(weights) for bundle, weights in BUNDLE_WEIGHTS.items()}

_DEFAULT_PHASE = (Fraction(1), Fraction(0))


def _rank(bundle):
    """The fiber rank of a bundle tag; ValidationError for an unknown one."""
    try:
        return BUNDLE_RANK[bundle]
    except (KeyError, TypeError):
        raise ValidationError("unknown bundle tag %r" % (bundle,)) from None


@dataclass(frozen=True)
class TorusModel:
    """Truncated Fourier model over the flat 4-torus inside the flat 8-torus.

    K bounds each of the four integer mode components by |k_i| <= K, so a
    scalar component carries (2K+1)^4 coefficients.  phase_pair is an exact
    rational point (cos, sin) on the unit circle fixing the phase of the
    holomorphic volume form; as on the exact backend, a float is refused.
    """

    K: int
    phase_pair: tuple = _DEFAULT_PHASE

    def __post_init__(self):
        object.__setattr__(self, "K", check_integer(self.K, "mode truncation"))
        object.__setattr__(self, "phase_pair",
                           _phase_components(self.phase_pair, EXACT))

    @property
    def mode_count(self):
        return (2 * self.K + 1) ** 4

    def modes(self):
        """Integer mode vectors, shape (mode_count, 4), C-order over axes."""
        g = np.arange(-self.K, self.K + 1)
        k1, k2, k3, k4 = np.meshgrid(g, g, g, g, indexing="ij")
        return np.stack([k1.ravel(), k2.ravel(), k3.ravel(), k4.ravel()], axis=1)

    def zero_mode(self):
        """Flat index of the constant mode."""
        L = 2 * self.K + 1
        return self.K * (L**3 + L**2 + L + 1)


@dataclass(frozen=True, eq=False)
class FourierSection:
    """Truncated Fourier coefficients of a section of a tagged bundle."""

    bundle: str
    coefficients: np.ndarray  # (mode_count, rank) complex

    def __post_init__(self):
        rank = _rank(self.bundle)
        arr = np.asarray(self.coefficients, dtype=complex)
        if arr.ndim != 2 or arr.shape[1] != rank:
            raise ValidationError(
                "coefficient array must have shape (modes, %d)" % rank)
        object.__setattr__(self, "coefficients", arr)


def _check_modes(section, mode_count):
    """Refuse a section whose mode count is not ``mode_count``."""
    if section.coefficients.shape[0] != mode_count:
        raise ValidationError(
            "a %r section with %d modes does not fit a truncation of %d modes"
            % (section.bundle, section.coefficients.shape[0], mode_count))


def random_section(model, bundle, rng):
    shape = (model.mode_count, _rank(bundle))
    coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return FourierSection(bundle, coeffs * (1.0 / np.sqrt(2.0)))


def section_inner(a, b):
    """Weighted L2 pairing of two sections of one bundle and truncation."""
    if a.bundle != b.bundle:
        raise ValidationError("sections live in different bundles")
    _check_modes(b, a.coefficients.shape[0])
    w = np.asarray(BUNDLE_WEIGHTS[a.bundle])
    return complex(np.sum(a.coefficients * np.conj(b.coefficients) * w))


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """Mode-diagonal operator between tagged bundles.

    blocks has shape (mode_count, rank_out, rank_in); block m acts on the
    coefficients of mode m.  dense() assembles the full matrix (mode-major
    flattening on both sides) for small truncations.
    """

    blocks: np.ndarray
    domain: str
    codomain: str

    def __post_init__(self):
        arr = np.asarray(self.blocks, dtype=complex)
        if arr.ndim != 3:
            raise ValidationError("blocks must be a 3-d array")
        if arr.shape[1:] != (_rank(self.codomain), _rank(self.domain)):
            raise ValidationError("block shape does not match bundle ranks")
        object.__setattr__(self, "blocks", arr)

    @property
    def mode_count(self):
        return self.blocks.shape[0]

    def apply(self, section):
        if section.bundle != self.domain:
            raise ValidationError(
                "operator domain %r does not accept %r sections"
                % (self.domain, section.bundle)
            )
        _check_modes(section, self.mode_count)
        out = np.einsum("mij,mj->mi", self.blocks, section.coefficients)
        return FourierSection(self.codomain, out)

    def dense(self):
        m, r_out, r_in = self.blocks.shape
        full = np.zeros((m * r_out, m * r_in), complex)
        for i in range(m):
            full[i * r_out:(i + 1) * r_out, i * r_in:(i + 1) * r_in] = self.blocks[i]
        return full

    def adjoint(self):
        """Formal adjoint with respect to the weighted L2 pairings."""
        w_dom = np.asarray(BUNDLE_WEIGHTS[self.domain])
        w_cod = np.asarray(BUNDLE_WEIGHTS[self.codomain])
        adj = np.einsum("i,mji,j->mij", 1.0 / w_dom, np.conj(self.blocks), w_cod)
        return OperatorMatrix(adj, domain=self.codomain, codomain=self.domain)


# exact symbols ---------------------------------------------------------------
#
# The derivative of exp(2 pi i k.x) along a vector u is 2 pi i (k.u) times
# it, so the components of d/dzbar_b along x_1..x_4 are the symbol of the
# derivative d/dzbar_b, and every table below is composed from them.

# components of a normal-valued (0,1)-form: conj(dz_b) (x) d/dz_a for (b, a)
_ONE_FORM_ROWS = ((1, 3), (1, 4), (2, 3), (2, 4))
_NIL = ExactComplex(0, 0)


@lru_cache(maxsize=None)
def _dzbar():
    """(4, 8) object array of the exact components of d/dzbar_1..d/dzbar_4
    (antiholo_vector) on the axes of R^8."""
    model = build_model(4, backend=EXACT)
    return np.array([antiholo_vector(model, k).comps for k in range(1, 5)],
                    dtype=object)


def _normal_leg(coefficients):
    """(4, 4, 2) table from (d/dz3, d/dz4) components to the rows
    _ONE_FORM_ROWS: row (b, a) holds coefficients[b - 1] in column a."""
    table = np.full((4, 4, 2), _NIL, dtype=object)
    for r, (b, a) in enumerate(_ONE_FORM_ROWS):
        table[:, r, a - 3] = coefficients[b - 1]
    return table


# (v_3, v_4) -> the (dz_3, dz_4) components of v_3 dz_4 - v_4 dz_3, the
# contraction of dz_3 ^ dz_4 with v
_CONTRACT = np.array([[0, -1], [1, 0]])


@lru_cache(maxsize=8)
def _exact_symbols(phase_pair):
    """The exact symbols at one phase of the holomorphic volume form, by
    name, as read-only object arrays.

    dbar, dbar02, dbar_star and dirac are the operators of the same names;
    dbar_star is written from its position-space formula, not taken as the
    adjoint of dbar02.  A0 and A1 are the two operators of
    complex_linear_op, on the holomorphic half through the volume form
    e dz1^dz2^dz3^dz4 and on its conjugate.  displacement is the (4, 4)
    matrix from the components (v_3, v_4, f_3, f_4) of a deformation pair
    to the normal axes 5..8 of the displacement v + iso^{-1}(f): f_4 and
    f_3 carry d/dzbar_3 and d/dzbar_4 with the weights 2e and -2e."""
    e = ExactComplex(*phase_pair)
    dzbar = _dzbar()
    s1, s2 = dzbar[0, :4], dzbar[1, :4]  # symbols of d/dzbar_1, d/dzbar_2
    c1, c2 = np.conj(s1), np.conj(s2)  # and of d/dz_1, d/dz_2
    dbar = _normal_leg((s1, s2))
    dbar_star = _normal_leg((2 * c2, -2 * c1))
    holo = _normal_leg((2 * e * s2, -2 * e * s1)) @ _CONTRACT
    anti = _normal_leg((2 * e.conj() * c2, -2 * e.conj() * c1)) @ _CONTRACT
    zero = np.full(holo.shape, _NIL, dtype=object)
    symbols = {
        "dbar": dbar,
        "dbar02": _normal_leg((-s2, s1)).transpose(0, 2, 1),
        "dbar_star": dbar_star,
        "dirac": np.concatenate([dbar, dbar_star], axis=2),
        "A0": -np.block([[holo, zero], [zero, anti]]),
        "A1": ExactComplex(0, 1) * np.block([[holo, zero], [zero, -anti]]),
        "displacement": np.array([np.conj(dzbar[2, 4:]), np.conj(dzbar[3, 4:]),
                                  -2 * e * dzbar[3, 4:], 2 * e * dzbar[2, 4:]]),
    }
    for table in symbols.values():
        table.flags.writeable = False
    return symbols


@lru_cache(maxsize=8)
def _float_symbols(phase_pair):
    """_exact_symbols as read-only complex arrays, each (4, r_out * r_in)."""
    out = {}
    for name, table in _exact_symbols(phase_pair).items():
        out[name] = np.array(table.reshape(4, -1), dtype=complex)
        out[name].flags.writeable = False
    return out


def _operator(model, name, domain, codomain):
    """The operator of symbol name on the model's modes, read-only: one
    BLAS product of the integer modes with the float symbol, scaled by
    2 pi i in place."""
    blocks = model.modes() @ _float_symbols(model.phase_pair)[name]
    blocks *= 2j * np.pi
    blocks.flags.writeable = False
    return OperatorMatrix(
        blocks.reshape(-1, _rank(codomain), _rank(domain)),
        domain=domain, codomain=codomain)


@lru_cache(maxsize=8)
def dbar_matrix(model):
    """dbar on holomorphic normal fields, valued in (0,1)-forms.

    On mode k the coefficient of conj(dz_b) (x) d/dz_a is the d/dzbar_b
    derivative of v_a; the kernel is exactly the constants.  Built once per
    model; the cached blocks are read-only."""
    return _operator(model, "dbar", "normal10", "one_form_normal")


def dbar02_matrix(model):
    """dbar from normal-valued (0,1)-forms into (0,2)-forms."""
    return _operator(model, "dbar02", "one_form_normal", "two_form_normal")


@lru_cache(maxsize=8)
def dbar_star_matrix(model):
    """Formal adjoint of dbar02_matrix, assembled from its position-space
    formula: f (x) conj(dz1)^conj(dz2) goes to
    2 (df/dz2) conj(dz1) - 2 (df/dz1) conj(dz2), tensored with the normal leg.
    The weighted conjugate-transpose relation with dbar02_matrix is pinned by
    the tests rather than used as the construction.  Built once per model;
    the cached blocks are read-only."""
    return _operator(model, "dbar_star", "two_form_normal", "one_form_normal")


def dirac_matrix(model):
    """The combined first-order operator [dbar | dbar_star] acting on pairs."""
    return _operator(model, "dirac", "deformation_pair", "one_form_normal")


# kernel counting -------------------------------------------------------------


@dataclass(frozen=True)
class KernelReport:
    dim_complex: int
    gap: float
    sigma_max: float
    threshold: float
    warning: bool


KERNEL_TOL = 1e-8  # kernel threshold, relative to the largest singular value
GAP_FLOOR = 1e6
RESIDUAL_FLOOR = 1e-13  # fd residuals at or below it are roundoff
FD_LADDER = (1e-2, 3e-3, 1e-3, 3e-4)  # fd step sizes t, strictly decreasing

_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny


def _dot(a, b):
    """Row-wise inner products <a_k, b_k> of two (M, m) arrays."""
    return np.einsum("ij,ij->i", a.conj(), b)


def _orthogonal_norms(vectors):
    """Norms of the vectors vectors[:, i, :] of each block and the mask of
    the blocks whose vectors pass Jacobi's stopping test pairwise,
    |<a_i, a_j>| <= eps |a_i| |a_j|.  A block with a squared norm that
    overflowed, or a nonzero vector whose squared norm is below the smallest
    normal double, fails, since its norms may be wrong."""
    with np.errstate(over="ignore", invalid="ignore"):
        sq = np.stack([_dot(v, v).real for v in np.moveaxis(vectors, 1, 0)],
                      axis=1)
        norms = np.sqrt(sq)
        unsafe = sq < _TINY
        if unsafe.any():
            small = np.nonzero(unsafe)
            unsafe[small] = vectors[small].any(axis=1)
        ok = ~(unsafe | ~np.isfinite(sq)).any(axis=1)
        for i, j in combinations(range(sq.shape[1]), 2):
            if not ok.any():
                break
            dot = _dot(vectors[:, i], vectors[:, j])
            ok &= np.abs(dot) <= _EPS * norms[:, i] * norms[:, j]
    return ok, norms


def block_singular_values(blocks):
    """Singular values of an (M, m, n) block stack, shape (M, min(m, n)) in
    descending order, as ``np.linalg.svd(blocks, compute_uv=False)``.

    A block whose columns, or failing that whose rows, pass Jacobi's
    stopping test is where one-sided Jacobi stops before its first
    rotation: its singular values are the vector norms, sorted and cut to
    min(m, n) (orthogonal nonzero vectors are independent, so the cut drops
    only zeros), each to a relative accuracy of about (m + n) eps.  Only
    the blocks that fail both tests go to LAPACK, in one call.  The test
    takes one dot product per pair of vectors over the whole stack, with no
    Gram array and no copy of the blocks."""
    blocks = np.asarray(blocks)
    r = min(blocks.shape[1:])
    by_cols, col_norms = _orthogonal_norms(np.swapaxes(blocks, 1, 2))
    if by_cols.all():
        return np.sort(col_norms)[:, ::-1][:, :r]
    by_rows, row_norms = _orthogonal_norms(blocks)
    by_rows &= ~by_cols
    rest = ~(by_cols | by_rows)
    sigma = np.empty((blocks.shape[0], r))
    for passed, norms in ((by_cols, col_norms), (by_rows, row_norms)):
        sigma[passed] = np.sort(norms[passed])[:, ::-1][:, :r]
    if rest.any():
        sigma[rest] = np.linalg.svd(blocks[rest], compute_uv=False)
    return sigma


def kernel_report(op):
    """Singular-value kernel count with a spectral-gap report.

    The kernel dimension is the number of singular values at or below
    KERNEL_TOL times the largest singular value; gap is the ratio of the
    smallest kept singular value to the largest dropped one (inf when
    nothing is dropped or everything dropped is exactly zero), and the
    report warns when it is under GAP_FLOOR.  The singular values
    come from ``block_singular_values``: vector norms for the blocks with
    orthogonal columns or rows, LAPACK for the others."""
    sigma = block_singular_values(op.blocks)
    return _report(sigma, op.blocks.shape[2])


def _report(sigma, r_in):
    """KernelReport of the (modes, r) singular values of blocks with r_in
    columns, thresholded at KERNEL_TOL times their largest value."""
    sigma_max = float(sigma.max()) if sigma.size else 0.0
    threshold = KERNEL_TOL * sigma_max
    kept = sigma > threshold
    rank = int(kept.sum())
    dim = sigma.shape[0] * r_in - rank
    dropped = sigma[~kept]
    largest_dropped = float(dropped.max()) if dropped.size else 0.0
    smallest_kept = float(sigma[kept].min()) if rank else float("inf")
    gap = float("inf") if largest_dropped == 0.0 else smallest_kept / largest_dropped
    warning = gap < GAP_FLOOR
    if warning:
        warnings.warn(
            "kernel threshold sits inside a weak spectral gap (ratio %.3e)" % gap
        )
    return KernelReport(
        dim_complex=dim,
        gap=gap,
        sigma_max=sigma_max,
        threshold=threshold,
        warning=warning,
    )


def kernel_dim(op):
    """Complex dimension of the kernel of a mode-diagonal operator."""
    return kernel_report(op).dim_complex


def joint_kernel_dim(ops):
    """Complex dimension of the common kernel of mode-diagonal operators on
    one domain: the kernel of their blocks stacked, counted by the rule of
    kernel_report."""
    blocks = np.concatenate([op.blocks for op in ops], axis=1)
    return _report(block_singular_values(blocks), blocks.shape[2]).dim_complex


def kernel_summary(K_values=(0, 1, 2, 3), phase_pair=_DEFAULT_PHASE):
    """Kernel dimensions of the three operators across truncations.

    Returns a dict with per-K reports, the adjoint-kernel count at the
    largest K, the operator index, and the worst spectral gap.

    Every block depends only on its mode, so each operator is built once, at
    the largest K, and its singular values come from one call of
    ``block_singular_values``.  The report for a smaller K reads the rows of
    the modes with max |k_i| <= K, which in C order are exactly that
    truncation's modes() and, since the values are taken block by block,
    its singular values bit for bit.  Each report keeps its own threshold,
    KERNEL_TOL times the largest of its rows' values.  dbar, dbar_star and
    dirac have orthogonal columns and the adjoint of dirac orthogonal rows,
    so every value is a vector norm, to a relative accuracy of about
    (m + n) eps, and no block goes to LAPACK.  Every K must be a
    nonnegative integer."""
    K_values = [check_integer(K, "mode truncation") for K in K_values]
    if not K_values:
        raise ValidationError("no mode truncation given")
    model = TorusModel(max(K_values), phase_pair)
    ops = {
        "dbar": dbar_matrix(model),
        "dbar_star": dbar_star_matrix(model),
        "dirac": dirac_matrix(model),
    }
    sigmas = {name: block_singular_values(op.blocks) for name, op in ops.items()}
    reach = np.abs(model.modes()).max(axis=1)
    per_k = {}
    worst_gap = float("inf")
    for K in K_values:
        rows = reach <= K
        reports = {name: _report(sigma[rows], ops[name].blocks.shape[2])
                   for name, sigma in sigmas.items()}
        for rep in reports.values():
            worst_gap = min(worst_gap, rep.gap)
        per_k[K] = reports
    adj = kernel_report(ops["dirac"].adjoint())
    worst_gap = min(worst_gap, adj.gap)
    dirac_dim = per_k[model.K]["dirac"].dim_complex
    return {
        "per_K": per_k,
        "adjoint_kernel_dim": adj.dim_complex,
        "index": dirac_dim - adj.dim_complex,
        "worst_gap": worst_gap,
    }


# grid sampling ---------------------------------------------------------------


@lru_cache(maxsize=None)
def _synthesis_matrix(K):
    """The read-only (G, 2K+1) matrix E[j, k] = exp(2 pi i j k / G) of one
    base axis, G = 2K + 2 and k = -K..K.  Its entries come from one table of
    the G-th roots of unity indexed by (j k) mod G, in which 1, i, -1 and -i
    are exact: the constant mode's column is all ones, and a mode whose
    phase steps by quarter turns is sampled exactly."""
    G = 2 * K + 2
    turns = np.arange(G)
    roots = np.exp(2j * np.pi * turns / G)
    quarter = (4 * turns) % G == 0
    roots[quarter] = np.array([1, 1j, -1, -1j])[4 * turns[quarter] // G]
    synthesis = roots[np.outer(turns, np.arange(-K, K + 1)) % G]
    synthesis.flags.writeable = False
    return synthesis


def grid_values(model, coefficients):
    """Sample a coefficient array on the uniform grid (j_1..j_4)/G, G = 2K+2.

    coefficients has shape (mode_count, r); the return has shape (G^4, r),
    and G > 2K+1, so no two modes alias.  Multiplying coefficient row m by
    2 pi i model.modes()[m, j] first samples the derivative along the
    (j+1)-th real coordinate.

    The sum over modes is taken one base axis at a time, as four small
    matrix products with the axis's synthesis matrix (_synthesis_matrix):
    at G <= 10 a dense DFT beats an FFT.  Each product synthesizes the last
    mode axis of the array and moves it to the front, so after four the
    grid axes are in C order with the r components last."""
    L = 2 * model.K + 1
    synthesis = _synthesis_matrix(model.K)
    vals = np.asarray(coefficients, dtype=complex).T
    r = vals.shape[0]
    for _ in range(4):
        vals = synthesis @ vals.reshape(-1, L).T
    return vals.reshape(-1, r)


# geometric defect evaluation --------------------------------------------------

@lru_cache(maxsize=None)
def _psi():
    """psi, the map from two-form coordinates (TWO_FORM_INDEX) to the
    normal-valued (0,1)-components _ONE_FORM_ROWS, as the (28, 8) real
    matrix [Re psi | Im psi], in integer numerators over one denominator
    (_ratlinalg.scaled).  It does not depend on the phase.

    Write x_i for the conj(dz) coefficients of the one-form dx_i; x_ik is
    dx_i of the dual vector d/dzbar_k (antiholo_vector), its i-th entry.
    Then dx_i ^ dx_j has the coefficient x_ib x_ja - x_ia x_jb on
    conj(dz_b) ^ conj(dz_a), and the component is twice that: column (b, a)
    is twice the pair minors (exterior.pair_minors, on ExactComplex entries)
    of the columns b and a of the eight one-forms' coefficients."""
    dzbar = _dzbar()
    b, a = (np.array(_ONE_FORM_ROWS) - 1).T
    psi = 2 * pair_minors(dzbar[b], dzbar[a]).T
    return _ratlinalg.scaled([[z.real for z in row] + [z.imag for z in row]
                              for row in psi])


@lru_cache(maxsize=8)
def _defect_table_exact(phase_pair):
    """Exact (70, 4) table of the pointwise defect map.

    Row c is the normal-valued (0,1)-part, components _ONE_FORM_ROWS, of the
    rank-7 defect on the basis frame FOUR_FORM_INDEX[c]: the Cayley form's
    defect_table() times psi (_psi, built once per process), by one call of
    its defect_times on the real and imaginary parts of psi side by side.
    The defect on a frame is the frame's 70 minors times this table."""
    model = build_model(4, backend=EXACT, phase_pair=phase_pair)
    both = phi_from_kahler(model).defect_times(*_psi())
    r = len(_ONE_FORM_ROWS)
    return tuple(tuple(ExactComplex(re, im) if re or im else _NIL
                       for re, im in zip(row[:r], row[r:]))
                 for row in both)


@lru_cache(maxsize=8)
def _defect_table(phase_pair):
    """The FourFormTable of _defect_table_exact, for the float grids."""
    return FourFormTable(_defect_table_exact(phase_pair))


def _pair(model, v):
    """The sections (v1, w) of v, or ValidationError unless v is a (normal10,
    two_form_normal) pair of sections with the model's mode count."""
    try:
        v1, w = v
    except (TypeError, ValueError):
        v1 = w = None
    if not (isinstance(v1, FourierSection) and isinstance(w, FourierSection)
            and (v1.bundle, w.bundle) == ("normal10", "two_form_normal")):
        raise ValidationError("expected a (normal10, two_form_normal) pair")
    _check_modes(v1, model.mode_count)
    _check_modes(w, model.mode_count)
    return v1, w


def _derivative_grids(model, v):
    """(G^4, 4, 4) samples of the displacement's derivatives, G = 2K + 2.

    Row j at a grid point is the derivative of the real-frame displacement
    of the pair v along the j-th base coordinate, on the normal axes 5..8,
    so the graph's tangent frame there at scale t is [I_4 | t A] for the
    (4, 4) block A of these rows.  The derivatives of the four normal
    components along the four base axes form one (M, 16) coefficient array,
    sampled by a single call of grid_values.  The normal components are the
    pair's coefficients times the displacement matrix of _exact_symbols."""
    v1, w = _pair(model, v)
    pair = np.concatenate([v1.coefficients, w.coefficients], axis=1)
    normal = pair @ _float_symbols(model.phase_pair)["displacement"]
    d_dx = 2j * np.pi * model.modes()  # (M, 4) multipliers of d/dx_1..d/dx_4
    stacked = (d_dx[:, :, None] * normal[:, None, :]).reshape(-1, 16)
    return grid_values(model, stacked).reshape(-1, 4, 4)


def _defect_on_grids(model, derivatives, t):
    """The defect of the graph at scale t from its derivative grids: the
    table's graph entry on the normal blocks t * derivatives."""
    return _defect_table(model.phase_pair).graph_values(t * derivatives)


def nonlinear_F(model, v, t=1.0):
    """Grid samples of the geometric defect of the graphed deformation.

    v is a (v1, w) pair of Fourier sections (holomorphic normal field and
    normal-valued (0,2)-form).  The displacement t * (v1 + iso^{-1}(w)) is
    graphed over the base torus; at each grid point the defect is the
    graph's tangent frame evaluated against one (70, 4) table: the Cayley
    form's defect table followed by the normal-valued (0,1)-part,
    precombined exactly and held as one ``exterior.FourFormTable``, so one
    call of its graph entry on the frames' normal blocks gives every grid
    point without forming the frames' 70 minors.  The result has shape
    (G^4, 4) on the grid G = 2K + 2 of ``grid_values``, components ordered
    (1,3), (1,4), (2,3), (2,4); the map extends the real geometric defect
    complex-multilinearly in the frame vectors.  t must be a finite real
    number."""
    if not _finite_real(t):
        raise ValidationError("scale t must be a finite real number, not %r" % (t,))
    return _defect_on_grids(model, _derivative_grids(model, v), t)


def linear_image_grid(model, v):
    """Grid samples of the first-order operator applied to the pair v."""
    v1, w = _pair(model, v)
    image = dbar_matrix(model).apply(v1).coefficients + dbar_star_matrix(model).apply(w).coefficients
    return grid_values(model, image)


@dataclass(frozen=True)
class SlopeReport:
    """Slopes of fd_linearization_check, nan where a sample was flagged."""

    slopes: tuple
    flagged_floor: tuple
    fraction_in_band: float | None  # None when every sample was flagged
    fraction_at_least_band: float | None
    band: tuple


def check_ladder(t_ladder):
    """Refuse a t ladder the slope fit cannot use: it needs at least three
    rungs, strictly decreasing, each finite and positive."""
    if len(t_ladder) < 3 or any(
        a <= b for a, b in zip(t_ladder, t_ladder[1:])
    ):
        raise ValidationError("t ladder must be strictly decreasing with >= 3 rungs")
    if not all(0.0 < t < np.inf for t in t_ladder):
        raise ValidationError("t ladder rungs must be finite and positive")


def _finite_real(value):
    """Whether value is a finite real number (numpy floats included,
    booleans not)."""
    return (not isinstance(value, bool) and isinstance(value, numbers.Real)
            and math.isfinite(value))


def _check_band(band):
    """Refuse a slope band that is not two finite real numbers low < high."""
    try:
        low, high = band
    except (TypeError, ValueError):
        raise ValidationError("band must be a (low, high) pair, not %r" % (band,)) from None
    if not (_finite_real(low) and _finite_real(high) and low < high):
        raise ValidationError(
            "band must be two finite numbers with low < high, not %r" % (band,))


def fd_linearization_check(
    model,
    samples=50,
    t_ladder=FD_LADDER,
    seed=0,
    band=(1.9, 2.1),
):
    """Finite-difference slope test of the defect's linearization.

    For random truncated section pairs v, fits the least-squares slope of
    log ||F(t v) - t L v|| against log t over the ladder.  A quadratic
    remainder gives slope 2, the band's centre.  On the flat torus the
    quadratic term of the defect lies in its three diagonal components, and
    the four mixed ones that F keeps are odd in the section, so their
    remainder is cubic and the slope is 3.  Rungs at or below
    RESIDUAL_FLOOR are dropped as pure roundoff, and a sample with fewer
    than three surviving rungs is flagged instead of fitted; the two
    fractions count fitted samples only, and are None when every sample
    was flagged.  Each sample's derivative grids are built once and every
    rung evaluates the same defect as ``nonlinear_F``, on the table's graph
    entry; rungs run one call at a time, since batching them makes the
    arrays outgrow the caches.  ``samples`` must be a positive integer,
    ``seed`` a nonnegative one and ``band`` two finite numbers low < high."""
    check_integer(samples, "samples", least=1)
    _check_band(band)
    check_ladder(t_ladder)
    rng = np.random.default_rng(check_integer(seed, "seed"))
    slopes = []
    flagged = []
    for _ in range(samples):
        v1 = random_section(model, "normal10", rng)
        w = random_section(model, "two_form_normal", rng)
        lin = linear_image_grid(model, (v1, w))
        derivatives = _derivative_grids(model, (v1, w))
        pts = lin.shape[0]
        residuals = []
        for t in t_ladder:
            F = _defect_on_grids(model, derivatives, t)
            r = float(np.sqrt(np.sum(np.abs(F - t * lin) ** 2) / pts))
            residuals.append(r)
        usable = [
            (t, r) for t, r in zip(t_ladder, residuals) if r > RESIDUAL_FLOOR
        ]
        if len(usable) < 3:
            flagged.append(True)
            slopes.append(float("nan"))
            continue
        ts = np.log([t for t, _ in usable])
        rs = np.log([r for _, r in usable])
        slope = float(np.polyfit(ts, rs, 1)[0])
        slopes.append(slope)
        flagged.append(False)
    fitted = [s for s, f in zip(slopes, flagged) if not f]
    in_band = sum(band[0] <= s <= band[1] for s in fitted)
    at_least = sum(s >= band[0] for s in fitted)
    return SlopeReport(
        slopes=tuple(slopes),
        flagged_floor=tuple(flagged),
        fraction_in_band=(in_band / len(fitted)) if fitted else None,
        fraction_at_least_band=(at_least / len(fitted)) if fitted else None,
        band=tuple(band),
    )


# exact pointwise certification of the linearization ---------------------------


_BASE_AXES = (1, 2, 3, 4)


def pointwise_linearization_check(phase_pair=(Fraction(3, 5), Fraction(4, 5))):
    """Exact certification that the defect linearizes to dirac_matrix.

    Tilting row j of the standard frame e_1..e_4 by a normal vector d keeps
    the base minor 1 and leaves 16 more nonzero minors, the degree-one ones:
    axis j+1 swapped for a normal axis n gives the minor (-1)^(3-j) d_n.  So
    the defect at the tilted frame is read straight off the exact defect
    table, as the base row plus the sum over n of (-1)^(3-j) d_n times the
    row of the swapped subset.  For each j and each basis vector of the
    deformation pair, d is its row of the displacement matrix, and the
    result must be the matching column of dirac's symbol along x_{j+1}:
    both are the tables the float blocks and grids read.  Returns
    (matches, total) over all 64 component comparisons."""
    phase_pair = _phase_components(phase_pair, EXACT)
    symbols = _exact_symbols(phase_pair)
    table = _defect_table_exact(phase_pair)
    base = table[FOUR_FORM_INDEX.index(_BASE_AXES)]
    matches = 0
    total = 0
    for j in range(4):
        kept = _BASE_AXES[:j] + _BASE_AXES[j + 1:]
        swapped = [table[FOUR_FORM_INDEX.index(kept + (n,))] for n in (5, 6, 7, 8)]
        sign = (-1) ** (3 - j)
        for beta, d in enumerate(symbols["displacement"]):
            for r, b0 in enumerate(base):
                measured = b0 + sum((d_n * row[r] for d_n, row in zip(d, swapped)),
                                    _NIL) * sign
                total += 1
                matches += measured == symbols["dirac"][j, r, beta]
    return matches, total


# complex-deformation operators -----------------------------------------------


def complex_linear_op(model):
    """The two signed first-order operators on the complexified normal bundle.

    Domain components are (v_3, v_4, u_3, u_4); the codomain stacks the
    dz_b (x) dz_a components (from the holomorphic input through the
    holomorphic volume form) over their conjugates (from the antiholomorphic
    input).  Returns the pair (A_0, A_1); the two differ only by the scalar
    prefactor and the relative sign between the halves, so their kernels
    coincide with the joint kernel."""
    return tuple(_complex_op(model, name) for name in ("A0", "A1"))


def _complex_op(model, name):
    """The complex-deformation operator of symbol name, A0 or A1."""
    return _operator(model, name, "complexified_normal", "type_pair_forms")


def holomorphic_kernel_match(model):
    """Largest deviation between the kernel projectors of the holomorphic half
    of the complex-deformation operator and of dbar, mode by mode.

    Both halves are (mode_count, 4, 2) block stacks.  A block's null
    projector is vh^H diag(dropped) vh, with vh its right singular vectors
    and dropped its singular values at or below KERNEL_TOL times that
    block's own largest value, so a block that drops nothing has projector
    exactly 0.  This per-block rule is not kernel_report's, which
    thresholds every value against the largest over all modes.  On the
    flat torus both rules drop exactly the constant mode's values, which
    are 0: every nonzero mode's values are one fixed multiple of 2 pi |k|
    per half, equal within a block and far above either threshold.  One
    call of ``block_singular_values`` finds the blocks that drop a value
    (on the flat torus only the constant mode's pair; both halves have
    orthogonal columns, so these values are vector norms); singular
    vectors are taken by LAPACK of those blocks alone, and only the modes
    where either half has a kernel are compared."""
    holo = _complex_op(model, "A0").blocks[:, :4, :2]
    blocks = np.concatenate([holo, dbar_matrix(model).blocks])
    s = block_singular_values(blocks)
    has_kernel = (s <= KERNEL_TOL * s.max(axis=1, keepdims=True)).any(axis=1)
    _, s, vh = np.linalg.svd(blocks[has_kernel], full_matrices=False)
    dropped = s <= KERNEL_TOL * s.max(axis=1, keepdims=True)
    proj = np.zeros((blocks.shape[0], 2, 2), complex)
    proj[has_kernel] = np.einsum("mki,mk,mkj->mij", vh.conj(), dropped, vh)
    M = model.mode_count
    compared = has_kernel[:M] | has_kernel[M:]
    diff = proj[:M][compared] - proj[M:][compared]
    return float(np.linalg.norm(diff, 2, axis=(1, 2)).max(initial=0.0))


# index calculators -----------------------------------------------------------


@dataclass(frozen=True)
class TopologicalInvariants:
    """Integer invariants of a compact surface and its normal bundle."""

    signature: int
    euler: int
    self_intersection: int
    chern: tuple = None  # optional (c1^2, c2, c2(normal))

    def __post_init__(self):
        for field in ("signature", "euler", "self_intersection"):
            object.__setattr__(self, field, check_integer(getattr(self, field), field, None))
        if self.chern is not None:
            c1sq, c2, c2nu = chern = tuple(_chern_numbers(self.chern))
            object.__setattr__(self, "chern", chern)
            if c1sq - 2 * c2 != 3 * self.signature:
                raise ValidationError(
                    "signature inconsistent with (c1^2 - 2 c2) / 3"
                )
            if c2 != self.euler:
                raise ValidationError("euler number inconsistent with c2")
            if c2nu != self.self_intersection:
                raise ValidationError(
                    "self-intersection inconsistent with normal-bundle c2"
                )


def index_from_topology(inv):
    """Index = signature/2 + euler/2 - self-intersection, as an exact integer."""
    half, odd = divmod(inv.signature + inv.euler, 2)
    if odd:
        raise NonIntegralError(
            "half-integer combination: signature + euler must be even"
        )
    return half - inv.self_intersection


def _chern_numbers(triple):
    """c1sq, c2 and c2nu of a triple, each checked an integer of either sign."""
    if not isinstance(triple, (tuple, list)) or len(triple) != 3:
        raise ValidationError("chern must be a triple, not %r" % (triple,))
    return [check_integer(c, what, None)
            for c, what in zip(triple, ("c1sq", "c2", "c2nu"))]


def index_from_chern(c1sq, c2, c2nu):
    """Index = (c1^2 + c2)/6 - c2(normal bundle), as an exact integer."""
    c1sq, c2, c2nu = _chern_numbers((c1sq, c2, c2nu))
    sixth, rest = divmod(c1sq + c2, 6)
    if rest:
        raise NonIntegralError("(c1^2 + c2) must be divisible by 6")
    return sixth - c2nu


def invariants_from_chern(c1sq, c2, c2nu):
    """Convert Chern numbers to (signature, euler, self-intersection)."""
    c1sq, c2, c2nu = _chern_numbers((c1sq, c2, c2nu))
    sig, rest = divmod(c1sq - 2 * c2, 3)
    if rest:
        raise NonIntegralError("(c1^2 - 2 c2) must be divisible by 3")
    return TopologicalInvariants(
        signature=sig,
        euler=c2,
        self_intersection=c2nu,
        chern=(c1sq, c2, c2nu),
    )


def chern_consistency_family(count, rng):
    """Random Chern triples (c1^2, c2, c2nu) with integral index and signature.

    Writing c1^2 = 5 c2 + 6 r makes both (c1^2 + c2)/6 = c2 + r and
    (c1^2 - 2 c2)/3 = c2 + 2 r integers for every integer r."""
    triples = []
    for _ in range(check_integer(count, "count", least=1)):
        c2 = int(rng.integers(-30, 31))
        r = int(rng.integers(-20, 21))
        c2nu = int(rng.integers(-25, 26))
        triples.append((5 * c2 + 6 * r, c2, c2nu))
    return triples
