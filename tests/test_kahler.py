"""Flat model data: forms, complex structure, complex types of vectors."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cayleykit.errors import DimensionMismatch, TypeMismatch, ValidationError
from cayleykit.exterior import EXACT, FLOAT, ExactComplex, Vector
from cayleykit.kahler import (
    antiholo_vector,
    build_model,
    dz_form,
    dzbar_form,
    holo_vector,
    hook_identities_check,
    require_type,
    to_complex_frame,
    verify_normalization,
)

rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 7))


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_volume_normalization_exact(m):
    assert verify_normalization(build_model(m)) == 0


@pytest.mark.parametrize("m", [2, 3, 4])
def test_hook_identities_exact(m):
    assert hook_identities_check(build_model(m)) == 0


def test_rational_phase_pair_keeps_identities_exact():
    model = build_model(4, backend=EXACT,
                        phase_pair=(Fraction(3, 5), Fraction(4, 5)))
    assert verify_normalization(model) == 0
    assert hook_identities_check(model) == 0


def test_invalid_phase_pair_rejected():
    with pytest.raises(ValidationError):
        build_model(4, backend=EXACT,
                    phase_pair=(Fraction(1, 2), Fraction(1, 2)))
    # a NaN radius is within no tolerance of 1
    for pair in ((float("nan"), 0.0), (1.0, float("nan"))):
        with pytest.raises(ValidationError):
            build_model(4, backend=FLOAT, phase_pair=pair)


@pytest.mark.parametrize("backend", [EXACT, FLOAT])
def test_phase_pair_of_another_length_rejected(backend):
    for pair in ((1, 0, 0), (1,), (), 1):
        with pytest.raises(ValidationError, match="not a \\(cos, sin\\) pair"):
            build_model(4, backend=backend, phase_pair=pair)


@pytest.mark.parametrize("backend", [EXACT, FLOAT])
def test_complex_phase_component_rejected(backend):
    # on the unit circle as complex numbers, but the components are real
    for pair in ((ExactComplex(1, 0), 0), (0, ExactComplex(1, 0)), (1 + 0j, 0)):
        with pytest.raises(ValidationError, match="complex component"):
            build_model(4, backend=backend, phase_pair=pair)


def test_model_dimension_bounds():
    with pytest.raises(DimensionMismatch):
        build_model(5)
    with pytest.raises(DimensionMismatch):
        build_model(0)


@given(st.lists(rationals, min_size=8, max_size=8))
def test_J_squares_to_minus_one(comps):
    J = build_model(4).J
    v = Vector(comps, EXACT)
    w = J.apply(J.apply(v))
    assert all(a == -b for a, b in zip(w.comps, v.comps))


def test_coordinate_vectors_have_the_right_type(exact_model):
    for k in range(1, 5):
        hv = holo_vector(exact_model, k)
        av = antiholo_vector(exact_model, k)
        require_type(exact_model.J, hv, 1)
        require_type(exact_model.J, av, -1)
        with pytest.raises(TypeMismatch):
            require_type(exact_model.J, hv, -1)
        with pytest.raises(TypeMismatch):
            require_type(exact_model.J, av, 1)


@pytest.mark.parametrize("make", [holo_vector, antiholo_vector])
@pytest.mark.parametrize("k", [0, 5])
def test_coordinate_vector_index_out_of_range(exact_model, make, k):
    # unchecked, k = 0 would wrap round to the last coordinate and k = m + 1
    # would raise a bare IndexError
    with pytest.raises(DimensionMismatch, match="out of range 1..4"):
        make(exact_model, k)


def test_coordinate_forms_occupy_their_frame_slots(exact_model):
    for k in range(1, 5):
        dz = to_complex_frame(exact_model, dz_form(exact_model, k))
        assert dz.re.terms == {(k,): Fraction(1)}
        assert dz.im.terms == {}
        dzb = to_complex_frame(exact_model, dzbar_form(exact_model, k))
        assert dzb.re.terms == {(4 + k,): Fraction(1)}
        assert dzb.im.terms == {}


def test_omega_in_complex_frame(exact_model):
    cf = to_complex_frame(exact_model, exact_model.omega)
    assert cf.re.terms == {}
    assert cf.im.terms == {
        (1, 5): Fraction(1, 2),
        (2, 6): Fraction(1, 2),
        (3, 7): Fraction(1, 2),
        (4, 8): Fraction(1, 2),
    }


def test_omega_is_j_invariant(exact_model):
    J = exact_model.J
    omega = exact_model.omega
    for a in range(1, 9):
        for b in range(a + 1, 9):
            ea = Vector.basis(8, a, EXACT)
            eb = Vector.basis(8, b, EXACT)
            direct = omega.terms.get((a, b), Fraction(0))
            Ja, Jb = J.apply(ea), J.apply(eb)
            rotated = Fraction(0)
            for (i, j), val in omega.terms.items():
                rotated += val * (
                    Ja.comps[i - 1] * Jb.comps[j - 1]
                    - Ja.comps[j - 1] * Jb.comps[i - 1]
                )
            assert rotated == direct


def test_dzbar_is_conjugate_of_dz(exact_model):
    for k in range(1, 5):
        diff = dzbar_form(exact_model, k) - dz_form(exact_model, k).conj()
        assert diff.max_abs() == 0
