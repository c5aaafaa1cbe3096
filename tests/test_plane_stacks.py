"""The classifiers on a (P, k, n) stack of frames: the same verdicts as one
plane at a time, the samplers' stacked draws, and the stacks refused."""

import math

import numpy as np
import pytest

from cayleykit.errors import BackendMismatch, DimensionMismatch, PlaneError
from cayleykit.exterior import EXACT
from cayleykit.frames import (
    ORTHONORMAL_TOL,
    haar_unitary,
    orthonormal_rows,
    orthonormality_residual,
    random_unitary,
)
from cayleykit.graphs import (
    OrientedPlane,
    canonical_angles,
    complex_frames,
    is_complex_plane,
    j_invariance_residual,
    plane_from_angles,
    random_complex_plane,
    random_plane,
)
from cayleykit.spin7 import PHI_TOL, is_cayley, phi0

# A frame's values may differ in the last bits between a stack and a call
# of its own (exterior.four_form_values rounds one frame otherwise than a
# row of a batch), so a float field of a stack is held to within _ULPS units
# in the last place of max(|x|, 1) of the one-plane value.
_ULPS = 4


def _tilt(eps):
    """e1..e4 tilted by eps * A, A Gaussian of unit norm (seed 0), as a plane:
    1 - phi is about |tau|^2 / 2, so value and defect straddle their bounds."""
    a = np.random.default_rng(0).standard_normal((4, 8))
    tilted = np.eye(8)[:4] + eps * a / np.linalg.norm(a)
    return OrientedPlane.from_rows(orthonormal_rows(tilted))


def _pool(model):
    rng = np.random.default_rng(39)
    planes = [random_plane(8, 4, rng) for _ in range(12)]
    planes += [random_complex_plane(model.J, 2, rng) for _ in range(6)]
    planes += [plane_from_angles(model, (a, b), rng)
               for a, b in ((0.2, 0.9), (0.5, 0.5), (0.3, 1.4), (0.0, 1.2))]
    planes += [OrientedPlane.from_rows(np.eye(8)[:4]),
               OrientedPlane.from_rows(np.eye(8)[[0, 2, 4, 6]]),
               _tilt(1e-5), _tilt(1e-6)]
    return planes


def _agree(one, stacked):
    """A one-plane field against the same plane's entry of a stack."""
    if one is None:
        assert stacked is None or math.isnan(stacked)
    elif isinstance(one, bool):
        assert one == stacked
    else:
        one, stacked = np.asarray(one, dtype=float), np.asarray(stacked)
        assert one.shape == stacked.shape
        bound = _ULPS * np.spacing(np.maximum(np.abs(one), 1.0))
        assert (np.abs(one - stacked) <= bound).all(), (one, stacked)


def _classifiers(float_model, phi):
    return {
        "is_cayley": lambda planes: is_cayley(phi, planes),
        "is_complex_plane": lambda planes: is_complex_plane(float_model, planes),
        "canonical_angles": lambda planes: canonical_angles(float_model, planes),
    }


@pytest.mark.parametrize("name", ["is_cayley", "is_complex_plane", "canonical_angles"])
def test_a_stack_gives_each_plane_its_one_plane_verdict(name, float_model, phi_cy_float):
    classify = _classifiers(float_model, phi_cy_float)[name]
    planes = _pool(float_model)
    stacked = classify(np.stack([plane.matrix() for plane in planes]))
    fields = [f for f in vars(stacked) if f not in ("p", "m")]
    for i, plane in enumerate(planes):
        one = classify(plane)
        for field in fields:
            column = getattr(stacked, field)
            _agree(getattr(one, field), None if column is None else column[i])
    if name == "is_cayley":
        # complex and coordinate planes are Cayley; the tilts pass by value
        # and fail by defect, in both call forms alike
        assert stacked.is_cayley[12:18].all() and stacked.is_cayley[-4:-2].all()
        assert not stacked.is_cayley[-2:].any()
        assert (np.abs(stacked.phi_value[-2:] - 1.0) <= PHI_TOL).all()


def test_a_stack_of_j_residuals_is_the_one_plane_residuals(float_model):
    planes = _pool(float_model)
    stacked = j_invariance_residual(float_model.J, np.stack([p.matrix() for p in planes]))
    assert stacked.tolist() == [j_invariance_residual(float_model.J, p) for p in planes]


def test_one_plane_calls_keep_their_python_types(float_model, phi_cy_float):
    plane = random_plane(8, 4, np.random.default_rng(3))
    verdict = is_cayley(phi_cy_float, plane)
    assert [type(x) for x in vars(verdict).values()] == [bool, float, float]
    cx = is_complex_plane(float_model, plane)
    assert (type(cx.is_complex), type(cx.max_sigma)) == (bool, float)
    rec = canonical_angles(float_model, plane)
    assert type(rec.angles) is tuple and type(rec.frame_rows[0]) is tuple
    assert type(j_invariance_residual(float_model.J, plane)) is float


def test_the_samplers_draw_a_stack_bit_for_bit(float_model):
    # one stacked QR gives each frame exactly what its own draw gives
    draws = np.random.default_rng(5).standard_normal((30, 8, 4))
    stacked = orthonormal_rows(draws.swapaxes(1, 2))
    assert np.array_equal(stacked, [orthonormal_rows(g.T) for g in draws])
    assert np.array_equal(orthonormality_residual(stacked),
                          [orthonormality_residual(f) for f in stacked])
    rng = np.random.default_rng(6)
    one = [random_complex_plane(float_model.J, 2, rng).matrix() for _ in range(8)]
    g = np.random.default_rng(6).standard_normal((8, 2, 4, 4))
    assert np.array_equal(complex_frames(haar_unitary(g), 2), one)
    # a unitary's draw is its real part, then its imaginary part
    rng = np.random.default_rng(7)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    q, r = np.linalg.qr(g)
    d = np.diag(r)
    assert np.array_equal(random_unitary(4, np.random.default_rng(7)), q * (d / np.abs(d)))


def _haar_stack(count=5):
    return orthonormal_rows(np.random.default_rng(8).standard_normal((count, 4, 8)))


def _spoiled(index, value):
    stack = _haar_stack()
    stack[index] = value(stack[index])
    return stack


_BAD_STACKS = [
    # one frame past the plane bound, named by its index
    (_spoiled(3, lambda f: f * (1 + ORTHONORMAL_TOL)), PlaneError,
     "frame 3 is not orthonormal"),
    (_spoiled(1, lambda f: np.where(np.eye(4, 8) > 0, np.nan, f)), PlaneError,
     r"frame 1 is not orthonormal \(residual inf\)"),
    (_spoiled(4, lambda f: np.where(np.eye(4, 8) > 0, np.inf, f)), PlaneError,
     r"frame 4 is not orthonormal \(residual inf\)"),
    (_haar_stack() + 0j, PlaneError, "float array of frames"),
    (_haar_stack().astype(object), PlaneError, "float array of frames"),
    (_haar_stack() > 0, PlaneError, "float array of frames"),
    # nested lists are no stack
    ([list(map(list, f)) for f in _haar_stack()], PlaneError, None),
    (_haar_stack()[0], DimensionMismatch, r"need a \(P, k, n\) stack"),
    (_haar_stack()[..., None], DimensionMismatch, r"need a \(P, k, n\) stack"),
    (np.zeros((2, 0, 8)), PlaneError, "at least one frame vector"),
]


@pytest.mark.parametrize("name", ["is_cayley", "is_complex_plane", "canonical_angles",
                                  "j_invariance_residual"])
@pytest.mark.parametrize("stack, error, match", _BAD_STACKS)
def test_a_bad_stack_is_refused(name, stack, error, match, float_model, phi_cy_float):
    classify = {**_classifiers(float_model, phi_cy_float),
                "j_invariance_residual":
                lambda planes: j_invariance_residual(float_model.J, planes)}[name]
    with pytest.raises(error, match=match):
        classify(stack)


def test_a_stack_of_the_wrong_frame_shape_is_refused(float_model, phi_cy_float):
    six = orthonormal_rows(np.random.default_rng(9).standard_normal((3, 4, 6)))
    with pytest.raises(DimensionMismatch, match="R\\^8"):
        is_cayley(phi_cy_float, six)
    for classify in (lambda s: is_complex_plane(float_model, s),
                     lambda s: canonical_angles(float_model, s),
                     lambda s: j_invariance_residual(float_model.J, s)):
        with pytest.raises(DimensionMismatch, match="plane and model dimensions"):
            classify(six)
    two = orthonormal_rows(np.random.default_rng(9).standard_normal((3, 2, 8)))
    with pytest.raises(PlaneError, match="exactly 4 frame vectors"):
        is_cayley(phi_cy_float, two)
    three = orthonormal_rows(np.random.default_rng(9).standard_normal((3, 3, 8)))
    for classify in (lambda s: is_complex_plane(float_model, s),
                     lambda s: canonical_angles(float_model, s)):
        with pytest.raises(PlaneError, match="even-dimensional"):
            classify(three)


def test_a_stack_on_an_exact_form_or_model_is_refused(exact_model):
    stack = _haar_stack()
    with pytest.raises(BackendMismatch, match="mixed backends: 'float' vs 'exact'"):
        is_cayley(phi0(EXACT), stack)
    for classify in (is_complex_plane, canonical_angles):
        with pytest.raises(BackendMismatch, match="mixed backends: 'float' vs 'exact'"):
            classify(exact_model, stack)


def test_a_list_is_refused_by_its_type_on_either_backend(exact_model, float_model):
    # the type is read before the backend: a list of frame rows is no plane
    rows = [list(row) for row in np.eye(4, 8)]
    for model in (exact_model, float_model):
        for classify in (lambda s: is_cayley(phi0(model.backend), s),
                         lambda s: is_complex_plane(model, s),
                         lambda s: canonical_angles(model, s),
                         lambda s: j_invariance_residual(model.J, s)):
            with pytest.raises(PlaneError, match="float array of frames, got list"):
                classify(rows)


def test_an_empty_stack_gives_empty_verdicts(float_model, phi_cy_float):
    empty = np.zeros((0, 4, 8))
    assert is_cayley(phi_cy_float, empty).is_cayley.shape == (0,)
    assert is_complex_plane(float_model, empty).max_sigma.shape == (0,)
    rec = canonical_angles(float_model, empty)
    assert (rec.angles.shape, rec.gap_warning.dtype) == ((0, 2), bool)
    assert j_invariance_residual(float_model.J, empty).shape == (0,)


def test_a_zero_block_is_paired_only_where_it_is(float_model):
    # the Lagrangian plane has no positive cosine and the complex plane two:
    # stacked, each plane keeps its one-plane frame
    planes = [OrientedPlane.from_rows(np.eye(8)[[0, 2, 4, 6]]),
              random_complex_plane(float_model.J, 2, np.random.default_rng(1)),
              plane_from_angles(float_model, (0.0, math.pi / 2), np.random.default_rng(2))]
    stacked = canonical_angles(float_model, np.stack([p.matrix() for p in planes]))
    for i, plane in enumerate(planes):
        one = canonical_angles(float_model, plane)
        assert stacked.angles[i].tolist() == list(one.angles)
        assert stacked.frame_rows[i].tolist() == list(map(list, one.frame_rows))
    assert stacked.angles[0].tolist() == [math.pi / 2] * 2
