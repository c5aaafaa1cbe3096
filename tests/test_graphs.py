"""Plane classification, canonical angles, and graph deformations."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cayleykit import _ratlinalg, graphs
from cayleykit.errors import (
    BackendMismatch,
    DimensionMismatch,
    PlaneError,
    TypeMismatch,
    ValidationError,
)
from cayleykit.exterior import (
    EXACT, FLOAT, FOUR_FORM_INDEX, ExactComplex, Multivector, Vector,
    coefficient_matrix, fold_table, four_form_values, hook_many, inner)
from cayleykit.frames import (
    ORTHONORMAL_TOL, as_matrix, orthonormal_rows, orthonormality_residual,
    random_unitary)
from cayleykit.graphs import (
    ComplexGraphCoefficients,
    GraphCoefficients,
    OrientedPlane,
    canonical_angles,
    complex_graph_linear_system,
    cr_residual,
    e_isom_checks,
    graph_frame,
    hook_coefficient_oracle,
    is_complex_plane,
    j_invariance_residual,
    normal_isom,
    normal_isom_inverse,
    plane_from_angles,
    random_complex_plane,
    random_graph_coefficients,
    random_plane,
    residual_quadratics,
    solve_complex_graph_linear,
    solve_tau_system,
    tau_graph_components,
    tau_system,
)
from cayleykit.kahler import (
    antiholo_vector,
    build_model,
    holo_vector,
)
from cayleykit.spin7 import is_cayley, phi0, phi_from_kahler, tau_eval, tau_norm
from test_ratlinalg import gauss_jordan

rationals = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))
# each entry is at most 3/40 = 0.075, so 16 of them lie in the 0.3 ball
small_rationals = st.builds(Fraction, st.integers(-3, 3), st.integers(40, 80))


def _exact_tilt(flat):
    return GraphCoefficients(
        [flat[4 * j:4 * j + 4] for j in range(4)], backend=EXACT)


def _seven_basis(Phi):
    """The adapted orthonormal basis of the 7-piece, four mixed then three
    diagonal two-forms, as pi7 of unit two-forms: the reference route for
    CayleyForm.seven_basis."""
    mixed = [
        Phi.pi7_apply(Multivector.basis(8, (1, 4 + i), Phi.backend))
        for i in range(1, 5)
    ]
    diagonal = [
        Phi.pi7_apply(Multivector.basis(8, (1, 1 + a), Phi.backend))
        for a in range(1, 4)
    ]
    return mixed, diagonal


def _components_by_tau_eval(lam):
    """The seven components as inner products of tau_eval on the graph
    frame with the adapted basis: the reference route."""
    Phi = phi0(lam.backend)
    value = tau_eval(Phi, *graph_frame(lam))
    mixed, diagonal = _seven_basis(Phi)
    return (tuple(inner(value, b) for b in mixed),
            tuple(inner(value, b) for b in diagonal))


# -- the seven-component identity -------------------------------------------


@given(st.lists(rationals, min_size=16, max_size=16))
@settings(max_examples=30, deadline=None)
def test_system_matches_defect_components(flat):
    lam = _exact_tilt(flat)
    mixed, diagonal = tau_graph_components(lam)
    for got, want in zip(tau_system(lam), mixed):
        assert got == want
    for got, want in zip(residual_quadratics(lam), diagonal):
        assert got == want


@given(st.lists(rationals, min_size=16, max_size=16))
@settings(max_examples=20, deadline=None)
def test_seven_zeros_iff_graph_calibrated(flat):
    lam = _exact_tilt(flat)
    Phi = phi0(backend=EXACT)
    defect = tau_eval(Phi, *graph_frame(lam))
    all_zero = all(e == 0 for e in tau_system(lam)) and all(
        q == 0 for q in residual_quadratics(lam)
    )
    assert all_zero == (defect.max_abs() == 0)


@given(st.lists(rationals, min_size=16, max_size=16))
@settings(max_examples=20, deadline=None)
def test_components_match_tau_eval_route_exactly(flat):
    lam = _exact_tilt(flat)
    assert tau_graph_components(lam) == _components_by_tau_eval(lam)


def test_components_match_tau_eval_route_in_floats():
    lam = random_graph_coefficients(np.random.default_rng(11), radius=0.25)
    got = tau_graph_components(lam)
    want = _components_by_tau_eval(lam)
    for g, w in zip(got[0] + got[1], want[0] + want[1]):
        assert abs(g - w) <= 1e-15


def test_component_table_on_float_frames_is_the_float_fold_bit_for_bit():
    # the float fold of the exact component table, each entry its
    # numerator over the common denominator, correctly rounded
    table = phi0(EXACT).component_table()
    nums, den = _ratlinalg.scaled(table.table)
    frames = np.random.default_rng(5).standard_normal((5, 4, 8))
    fold = fold_table((nums / den).astype(float))
    assert np.array_equal(table(frames), four_form_values(frames, fold))


# phi0 and the torus form at two phases; the torus form's tangent axes are
# 1..4 and its normal ones 5..8
_FORMS = [None, (1, 0), (Fraction(3, 5), Fraction(4, 5))]


def _exact_form(phase):
    if phase is None:
        return phi0(EXACT)
    return phi_from_kahler(build_model(4, backend=EXACT, phase_pair=phase))


@pytest.mark.parametrize("phase", _FORMS)
def test_seven_basis_is_the_pi7_route_and_orthonormal(phase):
    Phi = _exact_form(phase)
    nums, den = Phi.seven_basis()
    mixed, diagonal = _seven_basis(Phi)
    assert (_ratlinalg.unscaled(nums, den)
            == _ratlinalg.unscaled(*coefficient_matrix(mixed + diagonal, 2)))
    gram = _ratlinalg.unscaled(nums.T @ nums, den * den)
    assert gram == tuple(tuple(int(a == b) for b in range(7)) for a in range(7))


@pytest.mark.parametrize("phase", _FORMS)
def test_component_table_is_graded_by_normal_degree(phase):
    # McLean's splitting of the 7-piece over a complex surface: the mixed
    # components live on the rows with 1 or 3 normal axes, the diagonal ones
    # on the rows with 2, and the rows with 0 or 4 are zero
    nonzero = np.asarray(_exact_form(phase).component_table().table) != 0
    degree = np.array([sum(axis > 4 for axis in quad) for quad in FOUR_FORM_INDEX])
    assert np.bincount(degree).tolist() == [1, 16, 36, 16, 1]
    odd = (degree == 1) | (degree == 3)
    mixed, diagonal = nonzero[:, :4], nonzero[:, 4:]
    assert mixed[odd].any(axis=1).all() and not mixed[~odd].any()
    assert not diagonal[degree != 2].any()
    expected = 24 if phase in (None, (1, 0)) else 32
    assert np.count_nonzero(diagonal[degree == 2].any(axis=1)) == expected


def test_zero_tilt_is_a_solution():
    lam = GraphCoefficients([[0] * 4] * 4, backend=EXACT)
    assert all(e == 0 for e in tau_system(lam))
    assert all(q == 0 for q in residual_quadratics(lam))


# -- solving the graph equations ----------------------------------------------


def _oracle_solve(lam0):
    """The reference solve, A and b assembled from the hand-expanded
    tau_system: b its value at x = 0 and column c of A its value at x = e_c
    minus b, for x the first row of the tilt."""
    zero, one = (0, 1) if lam0.backend == EXACT else (0.0, 1.0)
    b = tau_system(lam0.replace_first_row([zero] * 4))
    at_units = [
        tau_system(lam0.replace_first_row([one if k == c else zero
                                           for k in range(4)]))
        for c in range(4)
    ]
    system = [[v[r] - b[r] for v in at_units] + [-b[r]] for r in range(4)]
    if lam0.backend == EXACT:
        x = [row[4] for row in gauss_jordan(system)[0]]
    else:
        system = np.array(system)
        x = np.linalg.solve(system[:, :4], system[:, 4]).tolist()
    return lam0.replace_first_row(x)


@given(st.lists(small_rationals, min_size=16, max_size=16))
@settings(max_examples=30, deadline=None)
def test_exact_solve_gives_exact_zeros(flat):
    sol = solve_tau_system(_exact_tilt(flat))
    assert sol == _oracle_solve(_exact_tilt(flat))
    assert all(isinstance(x, Fraction) for row in sol.entries for x in row)
    assert sol.entries[1:] == _exact_tilt(flat).entries[1:]
    assert all(e == 0 for e in tau_system(sol))
    assert all(q == 0 for q in residual_quadratics(sol))
    mixed, diagonal = tau_graph_components(sol)
    assert all(c == 0 for c in mixed + diagonal)


def test_newton_battery():
    rng = np.random.default_rng(2024)
    Phi = phi0(backend=FLOAT)
    for _ in range(50):
        start = random_graph_coefficients(rng, radius=0.25)
        sol = solve_tau_system(start)
        assert max(abs(float(q)) for q in residual_quadratics(sol)) < 1e-8
        assert tau_norm(tau_eval(Phi, *graph_frame(sol))) < 1e-8


def test_float_solve_matches_the_oracle_solve():
    # radii up to the edge of the 0.3 ball, where A is furthest from I
    rng = np.random.default_rng(314)
    radii = np.concatenate([rng.uniform(0.0, 0.3, 150), 0.3 - 1e-9 * rng.random(50)])
    for radius in radii:
        start = random_graph_coefficients(rng, radius=radius)
        got, want = solve_tau_system(start), _oracle_solve(start)
        assert got.entries[1:] == start.entries[1:]
        assert max(abs(g - w) for g, w in zip(got.entries[0], want.entries[0])) <= 1e-14


def test_solve_does_not_call_the_oracle(monkeypatch):
    def refuse(lam):
        raise AssertionError("solve_tau_system called tau_system")

    rng = np.random.default_rng(5)
    float_start = random_graph_coefficients(rng, radius=0.25)
    exact_start = _exact_tilt([Fraction(k % 7 - 3, 50) for k in range(16)])
    want = [_oracle_solve(float_start), _oracle_solve(exact_start)]
    monkeypatch.setattr(graphs, "tau_system", refuse)
    assert solve_tau_system(exact_start) == want[1]
    got = solve_tau_system(float_start)
    assert max(abs(g - w) for g, w in zip(got.entries[0], want[0].entries[0])) <= 1e-14


def test_newton_rejects_large_starts():
    lam = GraphCoefficients([[0.5] * 4] * 4, backend=FLOAT)
    with pytest.raises(ValidationError):
        solve_tau_system(lam)


def test_norm_past_float_range_is_inf_and_refused():
    lam = GraphCoefficients([[Fraction(10**400), 0, 0, 0]] + [[0] * 4] * 3,
                            backend=EXACT)
    assert lam.norm() == math.inf
    with pytest.raises(ValidationError):
        solve_tau_system(lam)


@pytest.mark.parametrize("backend, z", [(EXACT, ExactComplex(0, 1)), (FLOAT, 1j)])
def test_complex_tilts_are_refused(backend, z):
    # a tilt is real; a complex entry is refused, not left to fail in norm()
    with pytest.raises(ValidationError):
        solve_tau_system(GraphCoefficients([[z, 0, 0, 0]] + [[0] * 4] * 3, backend))


def test_newton_solutions_give_cayley_planes():
    rng = np.random.default_rng(7)
    Phi = phi0(backend=FLOAT)
    for _ in range(10):
        sol = solve_tau_system(random_graph_coefficients(rng, radius=0.2))
        plane = OrientedPlane.from_rows(orthonormal_rows(graph_frame(sol)))
        assert is_cayley(Phi, plane).is_cayley


# -- oriented planes -----------------------------------------------------------


def test_plane_validation_exact():
    rows = [Vector.basis(8, i, EXACT) for i in (1, 2, 3, 4)]
    OrientedPlane(rows=tuple(rows))
    bad = [Vector([1, 1, 0, 0, 0, 0, 0, 0], EXACT)] + rows[1:]
    with pytest.raises(PlaneError):
        OrientedPlane(rows=tuple(bad))


def test_plane_validation_float():
    with pytest.raises(PlaneError):
        OrientedPlane.from_rows(
            [[1, 0.1, 0, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0, 0, 0]],
            backend=FLOAT)


def test_float_plane_caches_a_read_only_frame():
    plane = random_plane(8, 4, np.random.default_rng(2))
    mat = plane.matrix()
    assert mat is plane.matrix()
    assert not mat.flags.writeable
    with pytest.raises(ValueError):
        mat[0, 0] = 0.0
    assert np.array_equal(mat, as_matrix(plane.rows))


@pytest.mark.parametrize("backend", [FLOAT, EXACT])
def test_plane_matrix_is_one_read_only_array_on_both_backends(backend):
    plane = OrientedPlane.from_rows(np.eye(8, dtype=int)[[0, 2, 4, 6]], backend)
    mat = plane.matrix()
    assert mat is plane.matrix()
    assert not mat.flags.writeable
    assert mat.dtype == float
    assert np.array_equal(mat, np.eye(8)[[0, 2, 4, 6]])
    # the exact backend's bound is 0: a frame off by 1/10**12 is refused
    off = [[Fraction(int(i == j)) for j in range(8)] for i in range(4)]
    off[0][0] += Fraction(1, 10**12)
    with pytest.raises(PlaneError, match="not orthonormal"):
        OrientedPlane.from_rows(off, EXACT)


def test_float_plane_bound_is_orthonormal_tol():
    # e1..e4 scaled by 1 + d has residual 2d + d^2: past the bound at
    # d = 4e-9, within it at d = 2e-11
    with pytest.raises(PlaneError, match="residual 8.000e-09"):
        OrientedPlane.from_rows(np.eye(8)[:4] * (1 + 4e-9))
    OrientedPlane.from_rows(np.eye(8)[:4] * (1 + 2e-11))
    assert ORTHONORMAL_TOL == 1e-10


def test_exact_frame_past_float_range_is_refused_not_overflowed():
    rows = [[10**400 if i == j else 0 for j in range(8)] for i in range(4)]
    with pytest.raises(PlaneError, match="residual inf"):
        OrientedPlane.from_rows(rows, EXACT)


def test_as_matrix_refuses_complex_entries():
    # a complex array too: a cast to float would drop its imaginary parts
    # with only a warning, and the frame functions read through as_matrix
    frame = np.eye(4, 8) + 0j
    for read in (as_matrix, orthonormal_rows, orthonormality_residual):
        for rows in ([[1.0, 1j]], [Vector([1, ExactComplex(0, 1)], EXACT)],
                     frame, frame[None], list(frame)):
            with pytest.raises(TypeError):
                read(rows)


@pytest.mark.parametrize("rows", [
    [[1, 0, 0, 0, 0, 0, 0, 0], [1, 0, 0, 0, 0, 0, 0, 0]],
    [[1, 0, 0, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0, 0, 0],
     [0, 1, 0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0, 0, 0]],
    [[1, 0, 0, 0, 0, 0, 0, 0], [0, 1 + 1e-7, 0, 0, 0, 0, 0, 0]],
])
def test_rank_deficient_and_skewed_float_frames_are_refused(rows):
    # canonical_angles has no rank test of its own: it relies on this
    with pytest.raises(PlaneError):
        OrientedPlane.from_rows(rows, backend=FLOAT)


def test_random_plane_is_orthonormal():
    rng = np.random.default_rng(0)
    plane = random_plane(8, 4, rng)
    mat = np.array([[float(x) for x in r.comps] for r in plane.rows])
    assert np.max(np.abs(mat @ mat.T - np.eye(4))) < 1e-12


_SKEWED = [[1, 0.1, 0, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0, 0, 0],
           [0, 0, 1, 0, 0, 0, 0, 0], [0, -2, 3, -1, 0, 0, 0, 5]]


@pytest.mark.parametrize("make", [
    lambda rows: rows,
    lambda rows: np.array(rows, dtype=float),
    lambda rows: [Vector(r, FLOAT) for r in rows],
    lambda rows: [Vector(map(Fraction, r), EXACT) for r in rows],
], ids=["lists", "array", "float-vectors", "exact-vectors"])
@pytest.mark.parametrize("rows", [
    _SKEWED,
    [[-r for r in row] for row in _SKEWED],
    np.random.default_rng(4).standard_normal((4, 8)).tolist(),
    [[0, 3], [-2, 0]],
], ids=["skewed", "negated", "gaussian", "R2-flipped"])
def test_orthonormal_rows_keep_span_and_orientation(rows, make):
    frame = make(rows)
    mat = as_matrix(frame)
    q = orthonormal_rows(frame)
    assert isinstance(q, np.ndarray) and q.dtype == float and q.shape == mat.shape
    assert np.max(np.abs(q @ q.T - np.eye(len(q)))) < 1e-12
    # the input rows in the new ones: lower triangular, positive diagonal,
    # so each row's span and the orientation are those of the rows given
    coords = mat @ q.T
    assert np.max(np.abs(np.triu(coords, 1))) < 1e-12
    assert np.all(np.diag(coords) > 0)
    assert np.max(np.abs(coords @ q - mat)) < 1e-12


# -- the samplers against the Vector-based reference ---------------------------


def _reference_haar_rows(n, k, rng):
    """random_plane's rows as the Vector-based sampler built them; its sign
    rule, sign(d) with 0 read as 1, is written apart from orthonormal_rows'."""
    q, r = np.linalg.qr(rng.standard_normal((n, k)))
    q = q * np.sign(np.where(np.diag(r) == 0, 1.0, np.diag(r)))
    return [Vector(q[:, j].tolist(), FLOAT) for j in range(k)]


def _reference_realify(w):
    return Vector(np.column_stack((w.real, w.imag)).ravel().tolist(), FLOAT)


def _reference_complex_rows(J, p, rng):
    u = random_unitary(J.m, rng)
    rows = []
    for j in range(p):
        rows += [_reference_realify(u[:, j]), _reference_realify(1j * u[:, j])]
    return rows


def _reference_angle_rows(model, angles, rng):
    u = random_unitary(model.m, rng)
    rows = []
    extra = len(angles)
    for j, theta in enumerate(angles):
        f = _reference_realify(u[:, j])
        jf = _reference_realify(1j * u[:, j])
        if abs(np.sin(theta)) > 1e-12:
            leg = _reference_realify(u[:, extra])
            extra += 1
            g = Vector((np.cos(theta) * as_matrix([jf])[0]
                        + np.sin(theta) * as_matrix([leg])[0]).tolist(), FLOAT)
        else:
            g = jf if np.cos(theta) > 0 else Vector(
                (-as_matrix([jf])[0]).tolist(), FLOAT)
        rows += [f, g]
    return rows


@pytest.mark.parametrize("sample, reference", [
    (lambda model, rng: random_plane(8, 4, rng),
     lambda model, rng: _reference_haar_rows(8, 4, rng)),
    (lambda model, rng: random_complex_plane(model.J, 2, rng),
     lambda model, rng: _reference_complex_rows(model.J, 2, rng)),
] + [
    (lambda model, rng, a=angles: plane_from_angles(model, a, rng),
     lambda model, rng, a=angles: _reference_angle_rows(model, a, rng))
    for angles in ((0.3, 0.9), (0.0, 1.2), (np.pi / 2, 3.0), (0.0, np.pi))
], ids=["haar", "complex", "angles-0.3-0.9", "angles-0-1.2",
        "angles-pi/2-3", "angles-0-pi"])
def test_samplers_draw_the_reference_rows_bit_for_bit(float_model, sample,
                                                      reference):
    for seed in range(20):
        plane = sample(float_model, np.random.default_rng(seed))
        want = reference(float_model, np.random.default_rng(seed))
        assert all(type(x) is float for r in plane.rows for x in r.comps)
        assert (np.array([r.comps for r in plane.rows]).tobytes()
                == np.array([r.comps for r in want]).tobytes()), seed


# -- canonical angles ----------------------------------------------------------


def test_angle_round_trip(float_model):
    rng = np.random.default_rng(31)
    for _ in range(100):
        target = np.sort(rng.uniform(0.1, 1.4, size=2))
        plane = plane_from_angles(float_model, tuple(target), rng)
        rec = canonical_angles(float_model, plane)
        assert np.max(np.abs(np.array(rec.angles) - target)) < 1e-9


def test_angles_zero_on_complex_planes(float_model):
    rng = np.random.default_rng(5)
    for _ in range(20):
        plane = random_complex_plane(float_model.J, 2, rng)
        rec = canonical_angles(float_model, plane)
        assert max(abs(a) for a in rec.angles) < 1e-7
        assert max(1.0 - np.cos(a) for a in rec.angles) < 1e-12


def test_complex_plane_angles_are_zero_to_roundoff(float_model):
    # the angle is atan2(sin, cos) with the sine read off g - cos J f, so a
    # complex plane gives angles at roundoff, not the sqrt(eps) of arccos
    for seed in range(50):
        plane = random_complex_plane(float_model.J, 2, np.random.default_rng(seed))
        rec = canonical_angles(float_model, plane)
        assert max(abs(a) for a in rec.angles) < 1e-12


def test_angles_right_on_isotropic_planes(float_model):
    sl = OrientedPlane.from_rows(
        [[1, 0, 0, 0, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0, 0, 0],
         [0, 0, 0, 0, 1, 0, 0, 0], [0, 0, 0, 0, 0, 0, 1, 0]],
        backend=FLOAT)
    rec = canonical_angles(float_model, sl)
    assert max(abs(a - np.pi / 2) for a in rec.angles) < 1e-12


def test_recovered_pair_frame_spans_the_plane(float_model):
    rng = np.random.default_rng(13)
    plane = plane_from_angles(float_model, (0.3, 0.9), rng)
    rec = canonical_angles(float_model, plane)
    orig = np.array([[float(x) for x in r.comps] for r in plane.rows])
    back = np.array([[float(x) for x in r.comps]
                     for r in rec.plane().rows])
    proj_orig = orig.T @ orig
    proj_back = back.T @ back
    assert np.max(np.abs(proj_orig - proj_back)) < 1e-9


def _canonical_angles_loop(model, plane, tol=1e-9):
    """Reference: the per-eigenpair loop canonical_angles used to run.
    Returns (angles, pair frame as an array, gap)."""
    p = plane.dim // 2
    rows = as_matrix([r.to_float() for r in plane.rows])
    jm = np.array(model.J.matrix(), dtype=float)
    amat = rows @ jm.T @ rows.T
    amat = 0.5 * (amat - amat.T)
    evals, evecs = np.linalg.eigh(1j * amat)
    pairs = []
    for idx in range(2 * p):
        c = float(evals[idx])
        if c <= tol:
            continue
        u = evecs[:, idx]
        x = np.real(u)
        y = np.imag(u)
        nx = np.linalg.norm(x)
        ny = np.linalg.norm(y)
        if nx < 1e-12 or ny < 1e-12:
            raise PlaneError("pairing eigenvector degenerated; cannot pair")
        pairs.append((c, y / ny, x / nx))
    nzero = 2 * p - 2 * len(pairs)
    if nzero:
        _, s_svd, vt = np.linalg.svd(amat)
        order = np.argsort(np.abs(s_svd))
        q, _ = np.linalg.qr(vt[order[:nzero], :].T)
        for a in range(nzero // 2):
            pairs.append((0.0, q[:, 2 * a], q[:, 2 * a + 1]))
    pairs.sort(key=lambda t: -t[0])
    frame_coords = []
    for c, f, g in pairs:
        frame_coords.append(f)
        frame_coords.append(g)
    amb = np.array(frame_coords) @ rows
    det = float(np.linalg.det(np.array(frame_coords)))
    cos = np.array([c for c, _, _ in pairs])
    sin = np.linalg.norm(amb[1::2] - cos[:, None] * (amb[0::2] @ jm.T), axis=1)
    angles = np.arctan2(sin, cos).tolist()
    if det < 0:
        amb[-1] = -amb[-1]
        angles[-1] = float(np.pi) - angles[-1]
    cosines = sorted({round(c, 12) for c, _, _ in pairs})
    gap = None
    if len(cosines) > 1:
        gap = float(min(b - a for a, b in zip(cosines, cosines[1:])))
    return angles, amb, gap


def _angle_cases():
    model = build_model(4, backend=FLOAT)
    rng = np.random.default_rng(2024)
    cases = [(model, random_plane(8, 4, rng)) for _ in range(100)]
    cases += [(model, random_complex_plane(model.J, 2, rng)) for _ in range(20)]
    cases.append((model, OrientedPlane.from_rows(
        np.eye(8)[[0, 2, 4, 6]].tolist(), backend=FLOAT)))
    cases.append((build_model(2, backend=FLOAT), OrientedPlane.from_rows(
        [[1, 0, 0, 0], [0, 0, 0, 1]], backend=FLOAT)))
    return cases


def test_pair_frame_contract():
    flipped = set()
    for model, plane in _angle_cases():
        rec = canonical_angles(model, plane)
        p = plane.dim // 2
        # the pair frame: FLOAT Vectors built on access from the stored rows
        assert all(type(x) is float for row in rec.frame_rows for x in row)
        assert rec.pair_frame == tuple(Vector(r, FLOAT) for r in rec.frame_rows)
        assert rec.plane() == OrientedPlane(rows=rec.pair_frame)
        assert rec == canonical_angles(model, plane)
        frame = np.array([r.comps for r in rec.pair_frame])
        rows = plane.matrix()
        assert np.max(np.abs(frame @ frame.T - np.eye(2 * p))) < 1e-12
        # omega(f_a, f_b) = <J f_a, f_b>: cos(theta_j) on each pair, 0 across
        jm = np.array(model.J.matrix(), dtype=float)
        pairing = frame @ jm.T @ frame.T
        want = np.zeros((2 * p, 2 * p))
        for j, theta in enumerate(rec.angles):
            want[2 * j, 2 * j + 1] = np.cos(theta)
            want[2 * j + 1, 2 * j] = -np.cos(theta)
        assert np.max(np.abs(pairing - want)) < 1e-12
        assert np.linalg.det(frame @ rows.T) > 0
        # cosines descend exactly; equal cosines (a complex plane) give
        # angles that differ by the roundoff in their sines
        assert np.all(np.diff(rec.angles) > -1e-12)
        assert all(0.0 <= a <= np.pi / 2 for a in rec.angles[:-1])
        flipped.add(rec.angles[-1] > np.pi / 2)
    # the Haar planes need the orientation flip for some draws, not others
    assert flipped == {True, False}
    # two totally real planes: every angle pi/2, exactly, on different
    # frames, so == on the results tells them apart by the frame
    model = build_model(4, backend=FLOAT)
    odd, even = (canonical_angles(model, OrientedPlane.from_rows(
        np.eye(8)[axes].tolist(), backend=FLOAT)) for axes in ([0, 2, 4, 6], [1, 3, 5, 7]))
    assert odd.angles == even.angles == (np.pi / 2,) * 2
    assert (odd.gap, odd.gap_warning) == (even.gap, even.gap_warning)
    assert odd != even


def test_angles_match_the_per_pair_loop():
    for model, plane in _angle_cases():
        rec = canonical_angles(model, plane)
        angles, frame, gap = _canonical_angles_loop(model, plane)
        assert np.max(np.abs(np.array(rec.angles) - angles)) < 1e-14
        got = np.array([r.comps for r in rec.pair_frame])
        assert np.max(np.abs(got - frame)) < 1e-14
        assert rec.gap == gap


def test_canonical_angles_needs_an_oriented_plane(float_model):
    rows = [Vector.basis(8, i, FLOAT) for i in (1, 3, 5, 7)]
    with pytest.raises(PlaneError, match="OrientedPlane"):
        canonical_angles(float_model, rows)


def test_j_invariance_residual_matches_the_direct_formula(float_model):
    rng = np.random.default_rng(8)
    jm = np.array(float_model.J.matrix(), dtype=float)
    for plane in [random_plane(8, 4, rng) for _ in range(10)]:
        proj = plane.matrix().T @ plane.matrix()
        direct = np.linalg.norm((np.eye(8) - proj) @ jm @ proj, 2)
        assert j_invariance_residual(float_model.J, plane) == float(direct)


def test_j_classifiers_refuse_a_plane_of_another_dimension(float_model):
    small = build_model(2, backend=FLOAT)
    plane = random_plane(8, 4, np.random.default_rng(0))
    with pytest.raises(DimensionMismatch, match="plane and model dimensions"):
        j_invariance_residual(small.J, plane)


def test_canonical_angles_rejects_mixed_backends(exact_model):
    plane = random_plane(8, 4, np.random.default_rng(0))
    with pytest.raises(BackendMismatch, match="mixed backends"):
        canonical_angles(exact_model, plane)


def test_angle_constructor_rejects_impossible_requests(float_model):
    rng = np.random.default_rng(1)
    small = build_model(2, backend=FLOAT)
    with pytest.raises(ValidationError):
        plane_from_angles(small, (0.3, 0.4), rng)  # needs 4 directions in C^2


# -- the complex-plane detector -------------------------------------------------


def test_detector_agrees_with_rotation_oracle(float_model):
    rng = np.random.default_rng(99)
    for _ in range(250):
        plane = random_plane(8, 4, rng)
        verdict = is_complex_plane(float_model, plane)
        assert verdict.is_complex == (
            j_invariance_residual(float_model.J, plane) < 1e-9)
    for _ in range(25):
        plane = random_complex_plane(float_model.J, 2, rng)
        assert is_complex_plane(float_model, plane).is_complex
        assert j_invariance_residual(float_model.J, plane) < 1e-9


def test_half_dimension_branch_needs_imaginary_part():
    small = build_model(2, backend=FLOAT)
    counter = OrientedPlane.from_rows(
        [[1, 0, 0, 0], [0, 0, 0, 1]], backend=FLOAT)
    verdict = is_complex_plane(small, counter)
    assert verdict.max_sigma < 1e-15
    assert verdict.max_im == pytest.approx(1.0)
    assert not verdict.is_complex
    assert j_invariance_residual(small.J, counter) > 0.5


def test_full_space_counts_as_complex():
    small = build_model(2, backend=FLOAT)
    whole = OrientedPlane.from_rows(np.eye(4).tolist(), backend=FLOAT)
    verdict = is_complex_plane(small, whole)
    assert verdict.is_complex


def _hook_reference(model, plane):
    """(max_sigma, max_im) by contracting every (p+1)-subset of frame rows
    into Omega with interior products, one multivector at a time."""
    p = plane.dim // 2
    check_im = model.m == p + 1
    worst = worst_im = 0.0
    for subset in itertools.combinations(plane.rows, p + 1):
        hooked = hook_many(list(subset), model.Omega)
        worst = max(worst, float(hooked.re.max_abs()))
        if check_im:
            worst_im = max(worst_im, float(hooked.im.max_abs()))
    return worst, (worst_im if check_im else None)


@pytest.mark.parametrize("phase", [0.0, 0.7, np.pi / 2])
@pytest.mark.parametrize("m", [2, 3, 4])
def test_minor_detector_matches_hook_contractions(m, phase):
    model = build_model(m, backend=FLOAT,
                        phase_pair=(math.cos(phase), math.sin(phase)))
    rng = np.random.default_rng(100 * m + int(10 * phase))
    for p in range(1, m):
        planes = [random_plane(2 * m, 2 * p, rng) for _ in range(6)]
        planes += [random_complex_plane(model.J, p, rng) for _ in range(3)]
        for plane in planes:
            verdict = is_complex_plane(model, plane)
            sigma, im = _hook_reference(model, plane)
            assert verdict.is_complex == (
                sigma <= 1e-9 and (im is None or im <= 1e-9))
            assert abs(verdict.max_sigma - sigma) <= 1e-14
            if im is None:
                assert verdict.max_im is None
            else:
                assert abs(verdict.max_im - im) <= 1e-14


def test_detector_on_exact_model_and_exact_planes():
    model = build_model(4, backend=EXACT,
                        phase_pair=(Fraction(3, 5), Fraction(4, 5)))

    def coordinate_plane(axes):
        return OrientedPlane.from_rows(
            [[int(j == i) for j in range(8)] for i in axes], backend=EXACT)

    std = is_complex_plane(model, coordinate_plane((0, 1, 2, 3)))
    assert (std.is_complex, std.max_sigma) == (True, 0.0)
    special_lagrangian = is_complex_plane(model, coordinate_plane((0, 2, 4, 6)))
    assert (special_lagrangian.is_complex, special_lagrangian.max_sigma) == (
        False, 0.8)


def test_detector_rejects_mixed_backends(float_model, exact_model):
    rows = [[int(j == i) for j in range(8)] for i in range(4)]
    with pytest.raises(BackendMismatch, match="mixed backends: 'float' vs 'exact'"):
        is_complex_plane(exact_model, OrientedPlane.from_rows(rows, backend=FLOAT))
    with pytest.raises(BackendMismatch, match="mixed backends: 'exact' vs 'float'"):
        is_complex_plane(float_model, OrientedPlane.from_rows(rows, backend=EXACT))
    # a plane with p + 1 > m, which has no minors to test, is refused too
    with pytest.raises(BackendMismatch, match="mixed backends: 'float' vs 'exact'"):
        is_complex_plane(build_model(2, EXACT), OrientedPlane.from_rows(np.eye(4)))


# -- the complex-graph linear system -------------------------------------------


def test_hook_expansion_identity_exact():
    rng = np.random.default_rng(3)
    for p, m in ((1, 2), (1, 3), (2, 3), (2, 4)):
        model = build_model(m, backend=EXACT)
        width = 2 * (m - p)
        lam = tuple(
            tuple(Fraction(int(rng.integers(-4, 5)), 3) for _ in range(width))
            for _ in range(p))
        mu = tuple(
            tuple(Fraction(int(rng.integers(-4, 5)), 3) for _ in range(width))
            for _ in range(p))
        cg = ComplexGraphCoefficients(p, m, lam, mu, backend=EXACT)
        assert hook_coefficient_oracle(model, cg) == 0.0


def test_linear_solutions_are_holomorphic_away_from_half_dimension():
    model = build_model(3, backend=FLOAT)
    rng = np.random.default_rng(17)
    for _ in range(5):
        cg = solve_complex_graph_linear(model, 1, rng)
        assert cr_residual(cg) < 1e-9
        plane = OrientedPlane.from_rows(orthonormal_rows(cg.frame()))
        assert is_complex_plane(model, plane).is_complex


def test_linear_system_refuses_mixed_backends():
    cg = ComplexGraphCoefficients(1, 2, ((0, 0),), ((0, 0),), backend=EXACT)
    with pytest.raises(BackendMismatch,
                       match="mixed backends: 'exact' vs 'float'"):
        complex_graph_linear_system(build_model(2, backend=FLOAT), cg)
    cg = ComplexGraphCoefficients(1, 2, ((0, 0),), ((0, 0),), backend=FLOAT)
    with pytest.raises(BackendMismatch,
                       match="mixed backends: 'float' vs 'exact'"):
        complex_graph_linear_system(build_model(2, backend=EXACT), cg)


def test_float_graph_residuals_keep_a_nan():
    model = build_model(3, backend=FLOAT)
    lam = ((0.0, 0.5, 0.0, 0.0),)
    mu = ((0.0, 0.0, math.nan, 0.0),)
    cg = ComplexGraphCoefficients(1, 3, lam, mu)
    assert math.isnan(cr_residual(cg))
    assert math.isnan(hook_coefficient_oracle(model, cg))


def test_half_dimension_kernel_admits_non_holomorphic_solutions():
    model = build_model(2, backend=FLOAT)
    rng = np.random.default_rng(5)
    residuals = [cr_residual(solve_complex_graph_linear(model, 1, rng))
                 for _ in range(5)]
    assert max(residuals) > 0.05


# -- bundle isomorphisms ---------------------------------------------------------


def _is_zero(diff):
    return all(x == 0 for x in diff.re.comps + diff.im.comps)


def test_normal_isomorphism_round_trip(exact_model):
    b3 = antiholo_vector(exact_model, 3)
    b4 = antiholo_vector(exact_model, 4)
    combo = b3.scale(ExactComplex(Fraction(1, 2), Fraction(3))) + b4.scale(
        ExactComplex(Fraction(-2), Fraction(1, 5)))
    for v in (b3, b4, combo):
        assert _is_zero(normal_isom_inverse(
            exact_model, normal_isom(exact_model, v)) - v)


@pytest.mark.parametrize("phase", [(1, 0), (Fraction(3, 5), Fraction(4, 5))])
def test_normal_isomorphism_inverts_its_inverse(phase):
    model = build_model(4, backend=EXACT, phase_pair=phase)
    h3 = holo_vector(model, 3)
    h4 = holo_vector(model, 4)
    combo = h3.scale(ExactComplex(Fraction(2), Fraction(-1))) + h4.scale(
        ExactComplex(Fraction(1, 3), Fraction(5)))
    for u in (h3, h4, combo):
        assert _is_zero(normal_isom(model, normal_isom_inverse(model, u)) - u)


def test_normal_isomorphism_is_linear(exact_model):
    c = ExactComplex(Fraction(2, 3), Fraction(-1, 2))
    v = antiholo_vector(exact_model, 3)
    assert _is_zero(normal_isom(exact_model, v.scale(c))
                    - normal_isom(exact_model, v).scale(c))


def test_normal_isomorphism_rejects_wrong_type(exact_model, float_model):
    # a (1,0) vector into the forward map, a (0,1) one into the inverse
    for model in (exact_model, float_model):
        with pytest.raises(TypeMismatch, match=r"\(0,1\) condition"):
            normal_isom(model, holo_vector(model, 3))
        with pytest.raises(TypeMismatch, match=r"\(1,0\) condition"):
            normal_isom_inverse(model, antiholo_vector(model, 3))


@pytest.mark.parametrize("direction", [normal_isom, normal_isom_inverse])
def test_normal_isomorphism_rejects_a_nan(float_model, direction):
    v = Vector([0, 0, 0, 0, math.nan, math.nan, 0, 0], FLOAT)
    with pytest.raises(TypeMismatch, match="by nan"):
        direction(float_model, v)


@pytest.mark.parametrize("backend", [EXACT, FLOAT])
def test_normal_isomorphism_rejects_tangential_components(backend):
    model = build_model(4, backend=backend)
    with pytest.raises(TypeMismatch, match="tangential"):
        normal_isom(model, antiholo_vector(model, 1) + antiholo_vector(model, 3))
    with pytest.raises(TypeMismatch, match="unexpected components"):
        normal_isom_inverse(model, holo_vector(model, 1) + holo_vector(model, 3))


def test_seven_piece_identities(phi_cy_exact, exact_model):
    rep = e_isom_checks(phi_cy_exact, exact_model)
    assert rep.antiholomorphic_residual == 0
    assert rep.mixed_kill_residual == 0
    assert rep.surface_residual == 0
