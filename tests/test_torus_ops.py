"""Spectral model of the deformation operator on the flat four-torus."""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from cayleykit.errors import (
    BackendMismatch,
    InputFormatError,
    NonIntegralError,
    ValidationError,
)
from cayleykit import torus_ops
from cayleykit.exterior import (
    EXACT, FOUR_FORM_INDEX, ExactComplex, Multivector, fold_table, four_form_values)
from cayleykit.kahler import build_model, to_complex_frame
from cayleykit.spin7 import TWO_FORM_INDEX, phi_from_kahler
from cayleykit.torus_ops import (
    BUNDLE_WEIGHTS,
    GAP_FLOOR,
    FourierSection,
    TopologicalInvariants,
    block_singular_values,
    TorusModel,
    chern_consistency_family,
    complex_linear_op,
    dbar02_matrix,
    dbar_matrix,
    dbar_star_matrix,
    dirac_matrix,
    fd_linearization_check,
    grid_values,
    holomorphic_kernel_match,
    index_from_chern,
    index_from_topology,
    invariants_from_chern,
    kernel_dim,
    kernel_report,
    kernel_summary,
    linear_image_grid,
    nonlinear_F,
    pointwise_linearization_check,
    random_section,
    section_inner,
)


# section builders only these tests use; the fiber rank comes from the
# library's one bundle-tag rule
def zero_section(model, bundle):
    return FourierSection(
        bundle, np.zeros((model.mode_count, torus_ops._rank(bundle)), complex))


def constant_section(model, bundle, fiber):
    """Section equal to the given fiber vector at every point."""
    coeffs = np.zeros((model.mode_count, torus_ops._rank(bundle)), complex)
    coeffs[model.zero_mode()] = np.asarray(fiber, dtype=complex)
    return FourierSection(bundle, coeffs)


def section_norm(a):
    return float(np.sqrt(max(section_inner(a, a).real, 0.0)))


# -- kernels ---------------------------------------------------------------------


def test_kernel_dimensions_and_stability():
    summary = kernel_summary(K_values=(0, 1, 2, 3))
    for K, reports in summary["per_K"].items():
        assert reports["dbar"].dim_complex == 2, K
        assert reports["dbar_star"].dim_complex == 2, K
        assert reports["dirac"].dim_complex == 4, K
    assert summary["adjoint_kernel_dim"] == 4
    assert summary["index"] == 0
    assert summary["worst_gap"] >= GAP_FLOOR


def test_kernel_matches_dense_assembly():
    # dbar, dbar_star and dirac take the column test, dbar02 and the adjoint
    # of dirac the row test; the dense SVD knows nothing of either.  At K = 2
    # dirac and its adjoint are (2500, 2500) dense, too slow to take apart on
    # every run, so they are held to LAPACK on each block, which is just as
    # blind to both tests
    for K in (0, 1, 2):
        model = TorusModel(K)
        dirac = dirac_matrix(model)
        for op, dense in ((dbar_matrix(model), True), (dbar_star_matrix(model), True),
                          (dirac, K <= 1), (dirac.adjoint(), K <= 1),
                          (dbar02_matrix(model), True)):
            rep = kernel_report(op)
            if dense:
                sig = np.linalg.svd(op.dense(), compute_uv=False)
            else:
                sig = np.linalg.svd(op.blocks, compute_uv=False).ravel()
            thresh = 1e-8 * sig.max()
            nullity = op.mode_count * op.blocks.shape[2] - int(np.sum(sig > thresh))
            assert rep.dim_complex == nullity
            assert abs(rep.sigma_max - sig.max()) <= 1e-12 * sig.max()


def test_kernel_report_warns_inside_a_weak_gap():
    # singular values {1, 1e-4} and {1e-9, 0}: the threshold 1e-8 drops
    # 1e-9 and 0 and keeps 1e-4, a gap of 1e5 < GAP_FLOOR
    blocks = np.zeros((2, 4, 2))
    blocks[0, 0, 0], blocks[0, 1, 1], blocks[1, 0, 0] = 1.0, 1e-4, 1e-9
    op = torus_ops.OperatorMatrix(blocks, domain="normal10",
                                  codomain="one_form_normal")
    with pytest.warns(UserWarning, match="weak spectral gap"):
        rep = kernel_report(op)
    assert rep.warning and rep.dim_complex == 2
    assert rep.gap == pytest.approx(1e5)


def test_operator_blocks_are_built_once_per_model_and_read_only():
    for build in (dbar_matrix, dbar_star_matrix):
        op = build(TorusModel(1))
        assert build(TorusModel(1, phase_pair=(1, 0))) is op
        assert build(TorusModel(2)) is not op
        with pytest.raises(ValueError):
            op.blocks[0, 0, 0] = 1.0


def test_constants_span_the_kernel():
    model = TorusModel(2)
    op = dirac_matrix(model)
    for fiber in np.eye(4):
        sec = constant_section(model, op.domain, fiber)
        assert section_norm(op.apply(sec)) < 1e-14


def test_dbar_squared_is_zero():
    for K in (1, 2):
        model = TorusModel(K)
        comp = np.einsum(
            "mij,mjk->mik",
            dbar02_matrix(model).blocks,
            dbar_matrix(model).blocks,
        )
        assert np.abs(comp).max() == 0.0


def test_adjoint_is_the_weighted_conjugate_transpose():
    model = TorusModel(2)
    adj = dbar02_matrix(model).adjoint()
    star = dbar_star_matrix(model)
    assert np.abs(adj.blocks - star.blocks).max() == 0.0


def test_adjoint_pairing_identity():
    model = TorusModel(1)
    rng = np.random.default_rng(8)
    op = dbar02_matrix(model)
    for _ in range(5):
        u = random_section(model, op.domain, rng)
        v = random_section(model, op.codomain, rng)
        lhs = section_inner(op.apply(u), v)
        rhs = section_inner(u, op.adjoint().apply(v))
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


@pytest.mark.parametrize("phase", [(1, 0), (Fraction(3, 5), Fraction(4, 5))])
def test_blocks_are_the_hand_written_multipliers(phase):
    # m_b is the Fourier multiplier of d/dzbar_b; the blocks from the exact
    # symbols are these products value for value, except that the phase e
    # of the volume form enters A0 and A1 as one rounded table entry
    model = TorusModel(2, phase_pair=phase)
    e = complex(float(phase[0]), float(phase[1]))
    k = model.modes()
    m1 = np.pi * 1j * (k[:, 0] + 1j * k[:, 1])
    m2 = np.pi * 1j * (k[:, 2] + 1j * k[:, 3])
    n1, n2, z = np.conj(m1), np.conj(m2), np.zeros_like(m1)
    # (rows, columns, modes) arrays of the two halves of complex_linear_op
    t1 = e * np.array([[z, -2 * m2], [2 * m2, z], [z, 2 * m1], [-2 * m1, z]])
    t2 = np.conj(e) * np.array(
        [[z, 2 * n2], [-2 * n2, z], [z, -2 * n1], [2 * n1, z]])

    def halves(top, bottom):
        zero = np.zeros_like(top)
        return np.concatenate([np.concatenate([top, zero], axis=1),
                               np.concatenate([zero, bottom], axis=1)])

    A0, A1 = complex_linear_op(model)
    for op, rows in (
        (dbar_matrix(model), [[m1, z], [z, m1], [m2, z], [z, m2]]),
        (dbar02_matrix(model), [[-m2, z, m1, z], [z, -m2, z, m1]]),
        (dbar_star_matrix(model),
         [[-2 * n2, z], [z, -2 * n2], [2 * n1, z], [z, 2 * n1]]),
    ):
        assert np.array_equal(op.blocks, np.moveaxis(np.array(rows), 2, 0))
    for op, rows in ((A0, -halves(t1, t2)), (A1, 1j * halves(t1, -t2))):
        want = np.moveaxis(rows, 2, 0)
        if phase == (1, 0):
            assert np.array_equal(op.blocks, want)
        else:
            assert np.allclose(op.blocks, want, rtol=0, atol=1e-14)
    dirac = np.concatenate([dbar_matrix(model).blocks,
                            dbar_star_matrix(model).blocks], axis=2)
    assert np.array_equal(dirac_matrix(model).blocks, dirac)


def _weighted_adjoint(S, domain, codomain):
    """S_j^# = W_domain^-1 S_j^H W_codomain for each axis j, exactly."""
    w_in = np.array([Fraction(w) for w in BUNDLE_WEIGHTS[domain]], dtype=object)
    w_out = np.array([Fraction(w) for w in BUNDLE_WEIGHTS[codomain]], dtype=object)
    return np.conj(S.transpose(0, 2, 1)) * w_out[None, None, :] / w_in[None, :, None]


@pytest.mark.parametrize("phase", [(1, 0), (Fraction(3, 5), Fraction(4, 5))])
@pytest.mark.parametrize("name, domain, codomain, adjoint_first, c", [
    ("dirac", "deformation_pair", "one_form_normal", True, Fraction(1, 2)),
    ("dirac", "deformation_pair", "one_form_normal", False, Fraction(1, 2)),
    ("dbar", "normal10", "one_form_normal", True, Fraction(1, 2)),
    ("dbar_star", "two_form_normal", "one_form_normal", True, Fraction(1, 2)),
    ("A0", "complexified_normal", "type_pair_forms", True, Fraction(8)),
    ("A1", "complexified_normal", "type_pair_forms", True, Fraction(8)),
])
def test_symbol_squares_are_scalar(phase, name, domain, codomain,
                                   adjoint_first, c):
    # with B(k) = 2 pi i sum_j k_j S_j, B^# B = 4 pi^2 sum_ij k_i k_j S_i^# S_j
    # is 4 pi^2 c |k|^2 exactly when the coefficient of k_i^2 is c I and that
    # of k_i k_j (i < j) vanishes; B B^# likewise with the factors swapped
    S = torus_ops._exact_symbols(phase)[name]
    sharp = _weighted_adjoint(S, domain, codomain)
    left, right = (sharp, S) if adjoint_first else (S, sharp)
    size = left.shape[1]
    for i in range(4):
        for j in range(i, 4):
            got = left[i] @ right[j]
            if i == j:
                want = np.identity(size, dtype=int) * c
            else:
                got = got + left[j] @ right[i]
                want = np.zeros((size, size), dtype=int)
            assert all(x == y for x, y in zip(got.ravel(), want.ravel())), (i, j)


def test_rational_phase_preserves_kernel_counts():
    pair = (Fraction(3, 5), Fraction(4, 5))
    summary = kernel_summary(K_values=(0, 1), phase_pair=pair)
    for reports in summary["per_K"].values():
        assert reports["dirac"].dim_complex == 4
    assert summary["index"] == 0


def _summary_reference(K_values, phase_pair):
    """kernel_summary built the slow way: every truncation's own operators,
    each through kernel_report."""
    per_k = {}
    for K in K_values:
        model = TorusModel(K, phase_pair)
        per_k[K] = {
            "dbar": kernel_report(dbar_matrix(model)),
            "dbar_star": kernel_report(dbar_star_matrix(model)),
            "dirac": kernel_report(dirac_matrix(model)),
        }
    top = max(K_values)
    adj = kernel_report(dirac_matrix(TorusModel(top, phase_pair)).adjoint())
    gaps = [rep.gap for reports in per_k.values() for rep in reports.values()]
    return {
        "per_K": per_k,
        "adjoint_kernel_dim": adj.dim_complex,
        "index": per_k[top]["dirac"].dim_complex - adj.dim_complex,
        "worst_gap": min(gaps + [adj.gap]),
    }


@pytest.mark.parametrize("phase", [(1, 0), (Fraction(3, 5), Fraction(4, 5))])
@pytest.mark.parametrize("K_values", [(0, 1, 2, 3), (3, 1)])
def test_kernel_summary_reads_each_truncation_off_the_top_one(phase, K_values):
    summary = kernel_summary(K_values=K_values, phase_pair=phase)
    assert summary == _summary_reference(K_values, phase)
    assert list(summary["per_K"]) == list(K_values)


def test_kernel_summary_thresholds_each_truncation_by_its_own_sigma_max():
    per_k = kernel_summary(K_values=(1, 2))["per_K"]
    for name in ("dbar", "dbar_star", "dirac"):
        assert per_k[1][name].sigma_max < per_k[2][name].sigma_max
        assert per_k[1][name].threshold == 1e-8 * per_k[1][name].sigma_max


@pytest.mark.parametrize("K_values", [(-1, 2), (2, -1), (), (2.0,), (3, 2.0),
                                      (True,), ("2",)])
def test_kernel_summary_rejects_bad_truncations(K_values):
    with pytest.raises(ValidationError):
        kernel_summary(K_values=K_values)


def test_kernel_summary_accepts_numpy_integers():
    summary = kernel_summary(K_values=(np.int64(0), np.int8(1)))
    assert summary == kernel_summary(K_values=(0, 1))
    assert all(type(K) is int for K in summary["per_K"])


def _lapack_values(blocks):
    return np.linalg.svd(blocks, compute_uv=False)


@pytest.mark.parametrize("phase", [(1, 0), (Fraction(3, 5), Fraction(4, 5))])
def test_kernel_summary_matches_lapack_values(monkeypatch, phase):
    K_values = (0, 1, 2, 3, 4)
    summary = kernel_summary(K_values=K_values, phase_pair=phase)
    monkeypatch.setattr(torus_ops, "block_singular_values", _lapack_values)
    reference = kernel_summary(K_values=K_values, phase_pair=phase)
    for K in K_values:
        for name, rep in summary["per_K"][K].items():
            ref = reference["per_K"][K][name]
            assert rep.dim_complex == ref.dim_complex
            assert rep.gap == ref.gap == float("inf")
            assert abs(rep.sigma_max - ref.sigma_max) <= 1e-14 * ref.sigma_max
    for key in ("adjoint_kernel_dim", "index", "worst_gap"):
        assert summary[key] == reference[key]
    assert summary["worst_gap"] == float("inf")


# -- block singular values -----------------------------------------------------------

_SHAPES = [(4, 2), (2, 4), (4, 4), (8, 4), (16, 4)]
_EPS = np.finfo(float).eps


def _assert_near_lapack(blocks):
    """The bound the tests hold the helper to, per block:
    |sigma - sigma_LAPACK| <= 8 max(m, n) eps sigma_max."""
    got = block_singular_values(blocks)
    ref = np.linalg.svd(blocks, compute_uv=False)
    assert got.shape == ref.shape
    bound = 8 * max(blocks.shape[1:]) * _EPS * ref.max(axis=1, keepdims=True)
    assert np.all(np.abs(got - ref) <= bound)
    assert np.all(got[:, :-1] >= got[:, 1:])
    return got


@pytest.fixture
def lapack_blocks(monkeypatch):
    """Counts the blocks handed to np.linalg.svd."""
    sent = []
    svd = np.linalg.svd

    def counting(a, *args, **kwargs):
        sent.append(np.shape(a)[0])
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return sent


def _orthogonal_columns(rng, count, shape):
    """Blocks Q diag(d) with Q from a complex QR, d spread over six orders of
    magnitude; with more columns than rows the extra columns are zero, in
    random places."""
    m, n = shape
    r = min(m, n)
    z = rng.standard_normal((count, m, r)) + 1j * rng.standard_normal((count, m, r))
    q, _ = np.linalg.qr(z)
    filled = q * 10.0 ** rng.uniform(-3, 3, (count, 1, r))
    blocks = np.zeros((count, m, n), complex)
    for i in range(count):
        blocks[i][:, rng.permutation(n)[:r]] = filled[i]
    return blocks


def _generic(rng, count, shape):
    return (rng.standard_normal((count,) + shape)
            + 1j * rng.standard_normal((count,) + shape))


@pytest.mark.parametrize("shape", _SHAPES)
def test_block_values_of_orthogonal_columns_and_rows(shape, lapack_blocks):
    rng = np.random.default_rng(31)
    cols = _orthogonal_columns(rng, 64, shape)
    for blocks in (cols, np.conj(np.swapaxes(cols, 1, 2))):
        lapack_blocks.clear()
        _assert_near_lapack(blocks)
        # the reference call above is one of the LAPACK calls counted; a
        # Householder Q is orthogonal to a few eps, so most blocks pass
        assert sum(lapack_blocks) - 64 < 64 // 2


@pytest.mark.parametrize("shape", _SHAPES)
def test_block_values_of_generic_blocks_are_lapack_bit_for_bit(shape, lapack_blocks):
    blocks = _generic(np.random.default_rng(32), 64, shape)
    got = block_singular_values(blocks)
    assert lapack_blocks == [64]
    assert np.array_equal(got, np.linalg.svd(blocks, compute_uv=False))


@pytest.mark.parametrize("shape", _SHAPES)
def test_block_values_of_mixed_stacks(shape):
    rng = np.random.default_rng(33)
    generic = _generic(rng, 20, shape)
    blocks = np.concatenate([_orthogonal_columns(rng, 20, shape),
                             np.conj(np.swapaxes(_orthogonal_columns(
                                 rng, 20, shape[::-1]), 1, 2)),
                             generic, np.zeros((5,) + shape)])
    order = rng.permutation(len(blocks))
    got = _assert_near_lapack(blocks[order])
    back = np.empty_like(got)
    back[order] = got
    assert np.array_equal(back[40:60], np.linalg.svd(generic, compute_uv=False))
    assert not back[60:].any()


@pytest.mark.parametrize("shape", _SHAPES)
def test_block_values_of_zero_blocks_are_exact_zeros(shape, lapack_blocks):
    got = block_singular_values(np.zeros((7,) + shape, complex))
    assert got.shape == (7, min(shape)) and not got.any()
    assert lapack_blocks == []


@pytest.mark.parametrize("scale", [1e-170, 1e160])
@pytest.mark.parametrize("shape", _SHAPES)
def test_block_values_at_extreme_scales(shape, scale):
    # squared norms underflow below the smallest normal double or overflow,
    # so these blocks must not take their norms
    rng = np.random.default_rng(34)
    diagonal = np.zeros((16,) + shape, complex)
    r = np.arange(min(shape))
    diagonal[:, r, r] = 10.0 * rng.standard_normal((16, r.size))
    blocks = np.concatenate([diagonal, _orthogonal_columns(rng, 16, shape),
                             _generic(rng, 16, shape)])
    for scaled in (blocks * scale, np.conj(np.swapaxes(blocks, 1, 2)) * scale):
        got = _assert_near_lapack(scaled)
        assert np.all(np.isfinite(got)) and got.min() > 0.0


def test_block_values_of_a_nan_block_raise_as_lapack_does():
    blocks = _orthogonal_columns(np.random.default_rng(35), 8, (4, 2))
    blocks[3, 1, 0] = np.nan
    with pytest.raises(np.linalg.LinAlgError, match="SVD did not converge"):
        np.linalg.svd(blocks, compute_uv=False)
    with pytest.raises(np.linalg.LinAlgError, match="SVD did not converge"):
        block_singular_values(blocks)


def test_torus_operators_take_no_lapack_call(lapack_blocks):
    model = TorusModel(2)
    A0, A1 = complex_linear_op(model)
    joint = np.concatenate([A0.blocks, A1.blocks], axis=1)
    for blocks in (dbar_matrix(model).blocks, dbar_star_matrix(model).blocks,
                   dirac_matrix(model).blocks, dirac_matrix(model).adjoint().blocks,
                   dbar02_matrix(model).blocks, A0.blocks, A1.blocks, joint):
        lapack_blocks.clear()
        got = block_singular_values(blocks)
        assert lapack_blocks == []
        assert np.array_equal(got, _assert_near_lapack(blocks))


def test_block_values_run_on_numpy_1(monkeypatch):
    # pyproject declares numpy>=1.24; np.vecdot first appeared in numpy 2.0
    monkeypatch.delattr(np, "vecdot", raising=False)
    blocks = dirac_matrix(TorusModel(1)).blocks
    _assert_near_lapack(blocks)
    _assert_near_lapack(_generic(np.random.default_rng(36), 8, (4, 2)))


@pytest.mark.parametrize("phase", [(1, 0), (Fraction(3, 5), Fraction(4, 5))])
def test_block_values_take_the_closed_form(phase):
    # sigma(xi)^# sigma(xi) = c |xi|^2 I: on mode k dbar's values are
    # 0.5 * 2 pi |k|, dbar_star's 2 pi |k| and dirac's both, and the
    # constant mode's are exactly 0
    model = TorusModel(2, phase)
    radius = 2 * np.pi * np.linalg.norm(model.modes(), axis=1)[:, None]
    zero = model.zero_mode()
    nonzero = np.arange(model.mode_count) != zero
    for build, factors in ((dbar_matrix, [0.5, 0.5]), (dbar_star_matrix, [1, 1]),
                           (dirac_matrix, [1, 1, 0.5, 0.5])):
        got = block_singular_values(build(model).blocks)
        want = radius * np.array(factors)
        assert np.all(got[zero] == 0.0)
        err = np.abs(got[nonzero] - want[nonzero])
        assert np.all(err <= 4 * np.spacing(want[nonzero])), build.__name__


# -- grid sampling ----------------------------------------------------------------


def _padded_ifft(model, coeffs):
    """The grid by zero-padding the (2K+1)^4 coefficient cube into G^4 and
    one inverse FFT over the four base axes."""
    K, r = model.K, coeffs.shape[1]
    L, G = 2 * K + 1, 2 * K + 2
    slots = np.arange(-K, K + 1) % G
    padded = np.zeros((G, G, G, G, r), complex)
    padded[np.ix_(slots, slots, slots, slots, np.arange(r))] = (
        coeffs.reshape(L, L, L, L, r))
    return (np.fft.ifftn(padded, axes=(0, 1, 2, 3)) * G**4).reshape(G**4, r)


@pytest.mark.parametrize("K", [0, 1, 2, 3])
@pytest.mark.parametrize("r", [1, 4, 16])
def test_grid_values_match_a_padded_inverse_fft(K, r):
    model = TorusModel(K)
    rng = np.random.default_rng(100 + 10 * K + r)
    coeffs = (rng.standard_normal((model.mode_count, r))
              + 1j * rng.standard_normal((model.mode_count, r)))
    want = _padded_ifft(model, coeffs)
    got = grid_values(model, coeffs)
    assert got.shape == want.shape == ((2 * K + 2) ** 4, r)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("K", [0, 1, 2, 3])
def test_grid_values_of_a_constant_section_are_exact(K):
    # the synthesis matrices' constant-mode column is exactly 1
    model = TorusModel(K)
    fiber = (0.1 + 0.7j, -1.0 / 3.0, 2.5e-17j, -4.0e9 + 1.0j)
    vals = grid_values(model, constant_section(model, "one_form_normal", fiber)
                       .coefficients)
    assert np.array_equal(vals, np.broadcast_to(np.array(fiber), vals.shape))


@pytest.mark.parametrize("K", [1, 3])
def test_grid_values_of_a_quarter_turn_mode_are_exact(K):
    # G = 2K + 2 is a multiple of 4, so the mode G/4 along x_1 takes the
    # values i^j at the grid points j/G, each exactly
    model = TorusModel(K)
    G = 2 * K + 2
    coeffs = np.zeros((model.mode_count, 1), complex)
    coeffs[(model.modes() == [G // 4, 0, 0, 0]).all(axis=1)] = 1.0
    vals = grid_values(model, coeffs).reshape(G, -1)
    want = np.array([1, 1j, -1, -1j])[np.arange(G) % 4, None]
    assert np.array_equal(vals, np.broadcast_to(want, vals.shape))


def test_grid_values_single_mode():
    model = TorusModel(1)
    coeffs = np.zeros((model.mode_count, 1), complex)
    modes = model.modes()
    target = 7  # some fixed mode index
    coeffs[target, 0] = 1.0
    G = 4  # 2K + 2
    vals = grid_values(model, coeffs)
    k = modes[target]
    pts = np.stack(np.meshgrid(*([np.arange(G) / G] * 4), indexing="ij"),
                   axis=-1).reshape(-1, 4)
    want = np.exp(2j * np.pi * (pts @ k))
    assert np.abs(vals[:, 0] - want).max() < 1e-12


def test_derivative_grids_differentiate_each_base_axis():
    # one grid synthesis of the (M, 16) stack gives, in row j, the derivative
    # along x_{j+1} of the displacement's components on the normal axes
    model = TorusModel(1)
    rng = np.random.default_rng(21)
    v = _random_pair(model, rng)
    rows = torus_ops._derivative_grids(model, v)
    pair = np.concatenate([v[0].coefficients, v[1].coefficients], axis=1)
    disp = pair @ torus_ops._float_symbols(model.phase_pair)["displacement"]
    assert rows.shape == (4 ** 4, 4, 4)
    for j in range(4):
        single = grid_values(model, disp * (2j * np.pi * model.modes()[:, j:j + 1]))
        assert np.abs(rows[:, j] - single).max() < 1e-12


# -- the nonlinear defect map -------------------------------------------------------


def _random_pair(model, rng):
    return (
        random_section(model, "normal10", rng),
        random_section(model, "two_form_normal", rng),
    )


def test_defect_of_zero_section_is_zero():
    model = TorusModel(1)
    v = (zero_section(model, "normal10"), zero_section(model, "two_form_normal"))
    assert np.abs(nonlinear_F(model, v)).max() == 0.0


def test_defect_of_constant_sections_is_zero():
    model = TorusModel(1)
    v = (
        constant_section(model, "normal10", [0.3 - 0.2j, 0.1 + 0.4j]),
        constant_section(model, "two_form_normal", [0.2j, -0.1]),
    )
    assert np.abs(nonlinear_F(model, v)).max() < 1e-13


def test_defect_linearizes_to_the_operator():
    model = TorusModel(1)
    rng = np.random.default_rng(3)
    v = _random_pair(model, rng)
    lin = linear_image_grid(model, v)
    scale = np.abs(lin).max()
    rel = {}
    for t in (1e-4, 1e-5):
        fd = nonlinear_F(model, v, t=t) / t
        rel[t] = np.abs(fd - lin).max() / scale
    assert rel[1e-5] < 1e-5
    # the remainder is quadratic in t after the division
    assert rel[1e-4] / rel[1e-5] > 30


def test_defect_is_odd():
    model = TorusModel(1)
    rng = np.random.default_rng(14)
    for _ in range(3):
        v = _random_pair(model, rng)
        plus = nonlinear_F(model, v, t=0.37)
        minus = nonlinear_F(model, v, t=-0.37)
        assert np.abs(plus + minus).max() == 0.0


def test_remainder_scales_cubically():
    model = TorusModel(1)
    rep = fd_linearization_check(model, samples=20, seed=5)
    usable = [s for s, fl in zip(rep.slopes, rep.flagged_floor) if not fl]
    assert usable, "all samples hit the roundoff floor"
    assert all(2.9 < s < 3.1 for s in usable)
    assert rep.fraction_at_least_band == 1.0
    assert rep.fraction_in_band == 0.0


def test_roundoff_floor_is_flagged():
    model = TorusModel(1)
    # at these rungs the cubic remainder is far below RESIDUAL_FLOOR
    rep = fd_linearization_check(model, samples=10, seed=5,
                                 t_ladder=(1e-7, 1e-8, 1e-9))
    assert all(rep.flagged_floor)
    assert rep.fraction_in_band is None
    assert rep.fraction_at_least_band is None


def test_ladder_validation():
    model = TorusModel(1)
    with pytest.raises(ValidationError):
        fd_linearization_check(model, samples=2, t_ladder=(1e-2, 1e-2, 1e-3))
    with pytest.raises(ValidationError):
        fd_linearization_check(model, samples=2, t_ladder=(1e-2, 1e-3))
    inf, nan = float("inf"), float("nan")
    for ladder in ((inf, 1e-2, 1e-3), (1e-2, 1e-3, 0.0), (nan, 1.0, 0.5),
                   (1e-2, 1e-3, -1.0)):
        with pytest.raises(ValidationError):
            fd_linearization_check(model, samples=2, t_ladder=ladder)


@pytest.mark.parametrize("samples", [True, 0, -3, 2.5, "2", None])
def test_fd_check_rejects_bad_sample_counts(samples):
    # True ran one sample, 0 and -3 gave an empty report, 2.5 a TypeError
    with pytest.raises(ValidationError):
        fd_linearization_check(TorusModel(1), samples=samples)


@pytest.mark.parametrize("seed", [-1, 1.5, True, "1"])
def test_fd_check_rejects_bad_seeds(seed):
    # -1 and 1.5 let numpy's errors out, True ran as seed 1
    with pytest.raises(ValidationError):
        fd_linearization_check(TorusModel(1), samples=1, seed=seed)


def test_fd_check_takes_numpy_seeds():
    model = TorusModel(1)
    rep = fd_linearization_check(model, samples=1, seed=np.int64(3))
    assert rep == fd_linearization_check(model, samples=1, seed=3)


@pytest.mark.parametrize("band", [
    (2.1, 1.9), (2.0, 2.0), (float("nan"), 2.1), (1.9, float("inf")),
    (1.9,), (1.9, 2.0, 2.1), 2.0, ("1.9", "2.1"), (True, 2.0), (1.9, 2.1j)])
def test_fd_check_rejects_malformed_bands(band):
    # (2.1, 1.9) and (nan, 2.1) reported fraction_in_band 0.0 over 50 fits
    with pytest.raises(ValidationError):
        fd_linearization_check(TorusModel(1), samples=1, band=band)


def test_fd_check_takes_numpy_sample_counts_and_bands():
    rep = fd_linearization_check(TorusModel(1), samples=np.int32(2),
                                 band=(np.float64(2.9), 3.1))
    assert len(rep.slopes) == 2 and rep.fraction_in_band == 1.0


@pytest.mark.parametrize("t", [float("nan"), float("inf"), -float("inf"), 1j, "1", True])
def test_nonlinear_F_rejects_a_scale_that_is_not_finite_and_real(t):
    model = TorusModel(1)
    v = _random_pair(model, np.random.default_rng(2))
    with pytest.raises(ValidationError):
        nonlinear_F(model, v, t=t)


@pytest.mark.parametrize("K", [0, 2])
def test_grid_maps_reject_sections_of_another_truncation(K):
    # K = 2 sections at TorusModel(1) failed numpy's broadcasting
    model = TorusModel(1)
    v = _random_pair(TorusModel(K), np.random.default_rng(K))
    with pytest.raises(ValidationError):
        nonlinear_F(model, v)
    with pytest.raises(ValidationError):
        linear_image_grid(model, v)
    with pytest.raises(ValidationError):
        torus_ops._derivative_grids(model, v)


@pytest.mark.parametrize("shape", ["one", "lone", "none", "three"])
def test_grid_maps_reject_what_is_not_a_deformation_pair(shape):
    # unpacking them raised a ValueError or TypeError
    model = TorusModel(1)
    v1, w = _random_pair(model, np.random.default_rng(0))
    v = {"one": (v1,), "lone": v1, "none": None, "three": (v1, w, v1)}[shape]
    with pytest.raises(ValidationError):
        nonlinear_F(model, v)
    with pytest.raises(ValidationError):
        linear_image_grid(model, v)


@pytest.mark.parametrize("K", [0, 2])
def test_operator_rejects_sections_of_another_truncation(K):
    op = dbar_matrix(TorusModel(1))
    with pytest.raises(ValidationError):
        op.apply(random_section(TorusModel(K), "normal10", np.random.default_rng(0)))
    # a section of the operator's own truncation still applies
    out = op.apply(random_section(TorusModel(1), "normal10", np.random.default_rng(0)))
    assert out.coefficients.shape == (op.mode_count, 4)


def test_fd_slopes_match_nonlinear_F_per_rung():
    # the check builds each sample's derivative grids once; recomputing every
    # rung through nonlinear_F with the same draws gives the same slopes, on
    # one block of frames (K = 1, 256) and on three (K = 2, 1296)
    ladder = (1e-2, 3e-3, 1e-3, 3e-4)
    for K in (1, 2):
        model = TorusModel(K)
        rep = fd_linearization_check(model, samples=3, t_ladder=ladder, seed=11)
        rng = np.random.default_rng(11)
        for slope in rep.slopes:
            v = _random_pair(model, rng)
            lin = linear_image_grid(model, v)
            residuals = [
                np.sqrt(np.sum(np.abs(nonlinear_F(model, v, t=t) - t * lin) ** 2)
                        / lin.shape[0])
                for t in ladder
            ]
            assert min(residuals) > torus_ops.RESIDUAL_FLOOR
            assert slope == float(np.polyfit(np.log(ladder), np.log(residuals), 1)[0])


@pytest.mark.parametrize("phase", [(1, 0), (Fraction(3, 5), Fraction(4, 5))])
def test_graph_entry_at_zero_is_the_base_row(phase):
    # A = 0 is the frame e_1..e_4: its one nonzero minor is the base one,
    # so the value is exactly the table's row of the subset (1, 2, 3, 4)
    table = torus_ops._defect_table(phase)
    base = table.table[FOUR_FORM_INDEX.index((1, 2, 3, 4))].astype(complex)
    got = table.graph_values(np.zeros((3, 4, 4), complex))
    assert np.array_equal(got, np.broadcast_to(base, (3, 4)))


def test_fd_slopes_match_the_generic_kernel(monkeypatch):
    # the graph entry skips only exact zeros: the same check with every
    # rung run through the full frames [I_4 | tA] and four_form_values
    # gives slopes within 1e-12
    model = TorusModel(1)
    rep = fd_linearization_check(model, samples=50, seed=42)

    def on_full_frames(model, derivatives, t):
        frames = np.zeros((derivatives.shape[0], 4, 8), complex)
        frames[:, :, :4] = np.eye(4)
        frames[:, :, 4:] = t * derivatives
        return torus_ops._defect_table(model.phase_pair)(frames)

    monkeypatch.setattr(torus_ops, "_defect_on_grids", on_full_frames)
    generic = fd_linearization_check(model, samples=50, seed=42)
    assert rep.flagged_floor == generic.flagged_floor
    assert np.abs(np.subtract(rep.slopes, generic.slopes)).max() <= 1e-12


def test_pointwise_linearization_certificate():
    matches, total = pointwise_linearization_check()
    assert (matches, total) == (64, 64)


# a unit phase with a 21-digit denominator: ((m^2 - n^2) + 2mn i) / (m^2 + n^2)
_M, _N = 10**10 + 1, 10**10
_BIG_PHASE = (Fraction(_M * _M - _N * _N, _M * _M + _N * _N),
              Fraction(2 * _M * _N, _M * _M + _N * _N))
_PHASES = [
    (1, 0), (0, 1), (Fraction(3, 5), Fraction(4, 5)),
    (Fraction(-5, 13), Fraction(12, 13)), _BIG_PHASE,
]


@pytest.mark.parametrize("phase", _PHASES)
def test_pointwise_linearization_certificate_at_phase(phase):
    assert pointwise_linearization_check(phase) == (64, 64)


def _torus_table_by_rewrites(phase):
    """The torus table entry by entry: each coordinate two-form rewritten
    over dz/dzbar slots (to_complex_frame), twice its conj(dz_b) ^ conj(dz_a)
    coefficient contracted with the rows of the Cayley form's defect table."""
    model = build_model(4, backend=EXACT, phase_pair=phase)
    rewrites = [to_complex_frame(model, Multivector.basis(8, key, EXACT))
                for key in TWO_FORM_INDEX]
    psi = [[z.coeff((4 + b, 4 + a)) * 2 for z in rewrites]
           for b, a in torus_ops._ONE_FORM_ROWS]
    return tuple(
        tuple(sum((w * t for w, t in zip(col, row) if w != 0), ExactComplex(0, 0))
              for col in psi)
        for row in phi_from_kahler(model).defect_table())


@pytest.mark.parametrize("phase", _PHASES)
def test_torus_defect_table_matches_two_form_rewrites(phase):
    table = torus_ops._defect_table_exact(phase)
    assert all(type(z) is ExactComplex for row in table for z in row)
    assert table == _torus_table_by_rewrites(phase)


@pytest.mark.parametrize("phase", [(1, 0), (Fraction(3, 5), Fraction(4, 5))])
def test_torus_table_on_complex_frames_is_the_complex_fold_bit_for_bit(phase):
    rng = np.random.default_rng(6)
    frames = rng.standard_normal((9, 4, 8)) + 1j * rng.standard_normal((9, 4, 8))
    table = [[z.as_complex() for z in row]
             for row in torus_ops._defect_table_exact(phase)]
    assert np.array_equal(torus_ops._defect_table(phase)(frames),
                          four_form_values(frames, fold_table(table)))


def test_certificate_fails_on_a_wrong_degree_one_entry(monkeypatch):
    # tilting row 4 by d/dz3 reads the subset (1, 2, 3, 5); one entry off by
    # 1 there must cost comparisons
    table = torus_ops._defect_table_exact((Fraction(3, 5), Fraction(4, 5)))
    row = FOUR_FORM_INDEX.index((1, 2, 3, 5))
    broken = list(table)
    broken[row] = (table[row][0] + 1,) + table[row][1:]
    monkeypatch.setattr(torus_ops, "_defect_table_exact",
                        lambda phase_pair: tuple(broken))
    matches, total = pointwise_linearization_check()
    assert total == 64
    assert matches < 64


@pytest.mark.parametrize("name, entry", [("dirac", (3, 0, 2)),
                                         ("displacement", (2, 3))])
def test_certificate_reads_the_counted_symbols(monkeypatch, name, entry):
    # the certificate tilts by the displacement matrix and compares with
    # dirac's own symbol, so one entry off in either must cost comparisons
    phase = (Fraction(3, 5), Fraction(4, 5))
    symbols = dict(torus_ops._exact_symbols(phase))
    broken = symbols[name].copy()
    broken[entry] = broken[entry] + 1
    symbols[name] = broken
    monkeypatch.setattr(torus_ops, "_exact_symbols", lambda phase_pair: symbols)
    matches, total = pointwise_linearization_check(phase)
    assert total == 64
    assert matches < 64


@pytest.mark.parametrize("phase", [(1, 0), (Fraction(3, 5), Fraction(4, 5)),
                                   _BIG_PHASE])
def test_defect_table_has_odd_degree_only(phase):
    # a subset with m normal axes scales as t^m on a graph frame [I | tA], so
    # zero rows at even m make nonlinear_F odd for every input
    table = torus_ops._defect_table_exact(phase)
    by_degree = {m: [] for m in range(5)}
    for subset, row in zip(FOUR_FORM_INDEX, table):
        by_degree[sum(axis > 4 for axis in subset)].append(row)
    for m in (0, 2, 4):
        assert all(entry == 0 for row in by_degree[m] for entry in row), m
    for m in (1, 3):
        assert len(by_degree[m]) == 16
        assert all(any(entry != 0 for entry in row) for row in by_degree[m]), m


# -- the complexified operator pair -------------------------------------------------


def test_complex_operator_kernels():
    model = TorusModel(2)
    A0, A1 = complex_linear_op(model)
    assert kernel_dim(A0) == 4
    assert kernel_dim(A1) == 4
    joint = np.concatenate([A0.blocks, A1.blocks], axis=1)
    sig = np.linalg.svd(joint, compute_uv=False)
    thresh = 1e-8 * sig.max()
    assert joint.shape[0] * 4 - int(np.sum(sig > thresh)) == 4
    # the joint count takes kernel_report's rule on the stacked blocks
    assert torus_ops.joint_kernel_dim((A0, A1)) == 4
    assert torus_ops.joint_kernel_dim((A0,)) == kernel_dim(A0)
    assert holomorphic_kernel_match(model) == 0.0


def _zero_holomorphic_half(monkeypatch, rows):
    """Zero the holomorphic half of A0 on the modes rows, where A0 is built
    for complex_linear_op and for the kernel match alike."""
    build = torus_ops._complex_op

    def zeroed(model, name):
        op = build(model, name)
        if name != "A0":
            return op
        blocks = op.blocks.copy()
        blocks[rows, :4, :2] = 0.0
        return dataclasses.replace(op, blocks=blocks)

    monkeypatch.setattr(torus_ops, "_complex_op", zeroed)


def test_kernel_match_reads_the_complex_operator(monkeypatch):
    # with its holomorphic half zeroed the operator's kernel is everything,
    # which the match must notice
    _zero_holomorphic_half(monkeypatch, slice(None))
    assert not complex_linear_op(TorusModel(1))[0].blocks[:, :4, :2].any()
    assert holomorphic_kernel_match(TorusModel(1)) >= 0.5


def test_kernel_match_builds_only_the_holomorphic_operator(monkeypatch):
    built = []
    build = torus_ops._complex_op
    monkeypatch.setattr(torus_ops, "_complex_op",
                        lambda model, name: built.append(name) or build(model, name))
    assert holomorphic_kernel_match(TorusModel(1)) == 0.0
    assert built == ["A0"]


def _match_reference(model, tol=1e-8):
    """The kernel match with singular vectors of every block: each block's
    null projector is vh^H diag(dropped) vh."""
    holo = torus_ops.complex_linear_op(model)[0].blocks[:, :4, :2]
    blocks = np.concatenate([holo, dbar_matrix(model).blocks])
    _, s, vh = np.linalg.svd(blocks, full_matrices=False)
    dropped = s <= tol * s.max(axis=1, keepdims=True)
    proj = np.einsum("mki,mk,mkj->mij", vh.conj(), dropped, vh)
    diff = proj[:model.mode_count] - proj[model.mode_count:]
    return float(np.linalg.norm(diff, 2, axis=(1, 2)).max())


@pytest.mark.parametrize("K", [0, 1, 2, 3])
def test_kernel_match_equals_the_full_svd_projectors(K):
    model = TorusModel(K)
    assert holomorphic_kernel_match(model) == _match_reference(model)


@pytest.mark.parametrize("K", [0, 1, 2, 3, 4])
def test_kernel_match_matches_lapack_values(monkeypatch, K):
    model = TorusModel(K)
    residual = holomorphic_kernel_match(model)
    monkeypatch.setattr(torus_ops, "block_singular_values", _lapack_values)
    assert residual == holomorphic_kernel_match(model) == 0.0


def test_kernel_match_takes_vectors_where_some_blocks_lose_rank(monkeypatch):
    # zeroing the holomorphic half on every third mode gives those blocks a
    # full kernel, so the match takes vectors of some blocks but not all
    _zero_holomorphic_half(monkeypatch, slice(None, None, 3))
    for K in (1, 2):
        model = TorusModel(K)
        assert holomorphic_kernel_match(model) == _match_reference(model) == 1.0


# -- sections and operators: validation ----------------------------------------------


def test_section_shape_validation():
    model = TorusModel(1)
    with pytest.raises(ValidationError):
        FourierSection("normal10", np.zeros((model.mode_count, 3), complex))


def test_operator_bundle_validation():
    model = TorusModel(1)
    op = dbar_matrix(model)
    wrong = zero_section(model, "two_form_normal")
    with pytest.raises(ValidationError):
        op.apply(wrong)


def test_section_inner_requires_same_bundle():
    model = TorusModel(1)
    a = zero_section(model, "normal10")
    b = zero_section(model, "two_form_normal")
    with pytest.raises(ValidationError):
        section_inner(a, b)


def test_section_inner_requires_same_truncation():
    # numpy's broadcasting refused the pairing
    a = zero_section(TorusModel(1), "normal10")
    b = zero_section(TorusModel(2), "normal10")
    with pytest.raises(ValidationError):
        section_inner(a, b)
    with pytest.raises(ValidationError):
        section_inner(b, a)


@pytest.mark.parametrize("build", [
    lambda model, tag: zero_section(model, tag),
    lambda model, tag: constant_section(model, tag, (1, 0)),
    lambda model, tag: random_section(model, tag, np.random.default_rng(0)),
    lambda model, tag: torus_ops.OperatorMatrix(
        np.zeros((model.mode_count, 4, 2)), domain=tag, codomain="one_form_normal"),
    lambda model, tag: torus_ops.OperatorMatrix(
        np.zeros((model.mode_count, 4, 2)), domain="normal10", codomain=tag),
], ids=["zero", "constant", "random", "operator-domain", "operator-codomain"])
@pytest.mark.parametrize("tag", ["normal01", ["normal10"]], ids=["unknown", "unhashable"])
def test_section_and_operator_builders_reject_unknown_tags(build, tag):
    # all but FourierSection itself raised a bare KeyError
    with pytest.raises(ValidationError, match="unknown bundle tag"):
        build(TorusModel(1), tag)


def test_check_integer_states_each_rule_once():
    assert torus_ops.check_integer(np.int64(3), "seed") == 3
    assert type(torus_ops.check_integer(np.uint8(0), "K")) is int
    assert torus_ops.check_integer(1, "samples", least=1) == 1
    for value, least, message in [
            (True, 0, "seed must be an integer, not True"),
            (1.5, 0, "seed must be an integer, not 1.5"),
            ("1", 1, "seed must be an integer, not '1'"),
            (-1, 0, "seed must be nonnegative"),
            (0, 1, "seed must be positive")]:
        with pytest.raises(ValidationError) as info:
            torus_ops.check_integer(value, "seed", least)
        assert str(info.value) == message


def test_model_validation():
    with pytest.raises(ValidationError):
        TorusModel(-1)
    for K in (2.0, True, "2", None):
        with pytest.raises(ValidationError):
            TorusModel(K)
    with pytest.raises(ValidationError):
        TorusModel(1, phase_pair=(Fraction(1, 2), Fraction(1, 2)))
    # the phase is exact: a float, even 1.0, is refused as on the exact backend
    for pair, error in (((float("nan"), 0), BackendMismatch),
                        ((float("inf"), 0), BackendMismatch),
                        ((None, 0), BackendMismatch), (("x", 0), InputFormatError),
                        ((1.0, 0.0), BackendMismatch)):
        with pytest.raises(error):
            TorusModel(1, phase_pair=pair)
    # a complex component or a pair of another length is no (cos, sin) pair
    for pair in ((ExactComplex(1, 0), 0), (1 + 0j, 0), (1, 0, 0), (1,)):
        with pytest.raises(ValidationError):
            TorusModel(1, phase_pair=pair)


def test_model_accepts_numpy_integers():
    model = TorusModel(np.int64(2))
    assert type(model.K) is int and model == TorusModel(2)
    assert dbar_matrix(model) is dbar_matrix(TorusModel(2))


def test_inner_is_positive():
    model = TorusModel(1)
    rng = np.random.default_rng(77)
    for bundle in sorted(torus_ops.BUNDLE_WEIGHTS):
        sec = random_section(model, bundle, rng)
        val = section_inner(sec, sec)
        assert val.real > 0 and abs(val.imag) < 1e-13 * max(1.0, val.real)


# -- index formulas --------------------------------------------------------------------


def test_index_examples():
    assert index_from_topology(TopologicalInvariants(0, 0, 0)) == 0
    assert index_from_topology(TopologicalInvariants(-16, 24, 0)) == 4
    assert index_from_chern(0, 24, 0) == 4


def test_index_rejects_non_integral_combinations():
    with pytest.raises(NonIntegralError):
        index_from_topology(TopologicalInvariants(1, 0, 0))
    with pytest.raises(NonIntegralError):
        invariants_from_chern(1, 0, 0)


def test_chern_route_agrees_with_topology():
    rng = np.random.default_rng(123)
    triples = chern_consistency_family(100, rng)
    assert len(triples) == 100
    for c1sq, c2, c2nu in triples:
        via_chern = index_from_chern(c1sq, c2, c2nu)
        via_topology = index_from_topology(invariants_from_chern(c1sq, c2, c2nu))
        assert via_chern == via_topology


def test_invariants_cross_validation():
    TopologicalInvariants(-16, 24, 0, chern=(0, 24, 0))
    with pytest.raises(ValidationError):
        TopologicalInvariants(-16, 24, 0, chern=(3, 24, 0))
