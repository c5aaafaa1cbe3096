"""Exact-backend algebra laws of the exterior calculus layer."""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cayleykit.exterior import (
    EXACT,
    FLOAT,
    FOUR_FORM_INDEX,
    ExactComplex,
    Multivector,
    Vector,
    hodge_star,
    hook,
    inner,
    musical_flat,
    musical_sharp,
    plucker_minors,
    plucker_minors_exact,
    volume_form,
    wedge,
)
from cayleykit.errors import BackendMismatch, DimensionMismatch, GradeError

rationals = st.builds(Fraction, st.integers(-8, 8), st.integers(1, 6))


def form_strategy(k, n=8):
    keys = list(itertools.combinations(range(1, n + 1), k))
    pairs = st.lists(
        st.tuples(st.sampled_from(keys), rationals), min_size=1, max_size=4
    )
    return pairs.map(lambda items: Multivector(n, dict(items), EXACT))


vectors = st.lists(rationals, min_size=8, max_size=8).map(
    lambda c: Vector(c, EXACT)
)


@given(form_strategy(1), form_strategy(2))
def test_wedge_graded_anticommutativity_odd_even(a, b):
    assert (wedge(a, b) - wedge(b, a)).max_abs() == 0


@given(form_strategy(1), form_strategy(3))
def test_wedge_anticommutes_odd_odd(a, b):
    assert (wedge(a, b) + wedge(b, a)).max_abs() == 0


@given(form_strategy(1), form_strategy(1), form_strategy(2))
def test_wedge_associativity(a, b, c):
    lhs = wedge(wedge(a, b), c)
    rhs = wedge(a, wedge(b, c))
    assert (lhs - rhs).max_abs() == 0


@given(vectors, form_strategy(2), form_strategy(2))
def test_hook_antiderivation(v, a, b):
    lhs = hook(v, wedge(a, b))
    rhs = wedge(hook(v, a), b) + wedge(a, hook(v, b))
    assert (lhs - rhs).max_abs() == 0


@given(vectors, form_strategy(3), form_strategy(2))
def test_hook_is_wedge_adjoint(v, a, b):
    assert inner(hook(v, a), b) == inner(a, wedge(musical_flat(v), b))


@given(form_strategy(2), form_strategy(2))
def test_hodge_defining_property(a, b):
    vol = volume_form(8)
    defect = wedge(a, hodge_star(b)) - vol.scale(inner(a, b))
    assert defect.max_abs() == 0


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_double_star_sign(k):
    key = tuple(range(1, k + 1))
    a = Multivector(8, {key: Fraction(3, 2)}, EXACT)
    sign = (-1) ** (k * (8 - k))
    assert (hodge_star(hodge_star(a)) - a.scale(Fraction(sign))).max_abs() == 0


@given(vectors)
def test_musical_round_trip(v):
    w = musical_sharp(musical_flat(v))
    assert all(a == b for a, b in zip(w.comps, v.comps))


@given(rationals, rationals, rationals, rationals)
def test_exact_complex_is_a_field(ar, ai, br, bi):
    a = ExactComplex(ar, ai)
    b = ExactComplex(br, bi)
    assert (a + b) * a == a * a + b * a
    assert (a * b).conj() == a.conj() * b.conj()
    assert a.abs2() == (a * a.conj()).re
    if b.abs2() != 0:
        q = a / b
        assert q * b == a


def test_volume_form_is_top_basis_element():
    vol = volume_form(8)
    assert vol.terms == {tuple(range(1, 9)): Fraction(1)}


def test_wedge_of_repeated_basis_vanishes():
    a = Multivector(8, {(1, 2): Fraction(1)}, EXACT)
    b = Multivector(8, {(2, 3): Fraction(1)}, EXACT)
    assert wedge(a, b).max_abs() == 0


def test_backend_mixing_rejected():
    a = Multivector(8, {(1, 2): Fraction(1)}, EXACT)
    b = Multivector(8, {(3, 4): 1.0}, FLOAT)
    with pytest.raises(BackendMismatch):
        wedge(a, b)


def test_inner_requires_matching_grade():
    a = Multivector(8, {(1, 2): Fraction(1)}, EXACT)
    b = Multivector(8, {(1, 2, 3): Fraction(1)}, EXACT)
    with pytest.raises(GradeError):
        inner(a, b)


def test_zero_coefficients_are_not_stored():
    a = Multivector(8, {(1, 2): Fraction(0), (3, 4): Fraction(2)}, EXACT)
    assert (3, 4) in a.terms and (1, 2) not in a.terms


# -- the 4x4 minor kernel --------------------------------------------------------


def _leibniz_det(rows):
    """Determinant as the signed sum over all permutations, in the entries'
    own arithmetic."""
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = -1 if inversions % 2 else 1
        for i in range(n):
            term = term * rows[i][perm[i]]
        total = total + term
    return total


def _leibniz_minors(rows):
    return [_leibniz_det([[r[i - 1] for i in quad] for r in rows])
            for quad in FOUR_FORM_INDEX]


def test_plucker_minors_match_numpy_det():
    rng = np.random.default_rng(7)
    frames = rng.standard_normal((200, 4, 8)) + 1j * rng.standard_normal((200, 4, 8))
    cols = np.array(FOUR_FORM_INDEX) - 1
    ref = np.linalg.det(np.moveaxis(frames[:, :, cols], 2, 1))  # (P, 70)
    got = plucker_minors(frames)
    assert got.shape == (200, 70)
    scale = np.abs(ref).max(axis=1, keepdims=True)
    assert np.all(np.abs(got - ref) <= 1e-12 * scale)


def test_plucker_minors_of_real_frames_are_real():
    rng = np.random.default_rng(8)
    frames = rng.standard_normal((5, 4, 8))
    got = plucker_minors(frames)
    assert got.dtype == np.float64
    cols = np.array(FOUR_FORM_INDEX) - 1
    ref = np.linalg.det(np.moveaxis(frames[:, :, cols], 2, 1))
    assert np.all(np.abs(got - ref) <= 1e-12 * np.abs(ref).max(axis=1, keepdims=True))


def test_plucker_minors_reject_bad_shapes():
    with pytest.raises(DimensionMismatch):
        plucker_minors(np.zeros((3, 4, 7)))
    with pytest.raises(DimensionMismatch):
        plucker_minors_exact([[0] * 8] * 3)


@given(st.lists(rationals, min_size=32, max_size=32))
@settings(max_examples=20)
def test_exact_minors_match_leibniz_on_fractions(entries):
    rows = [entries[8 * r:8 * r + 8] for r in range(4)]
    assert plucker_minors_exact(rows) == _leibniz_minors(rows)


@given(st.lists(st.tuples(rationals, rationals), min_size=32, max_size=32))
@settings(max_examples=5)
def test_exact_minors_match_leibniz_on_exact_complex(entries):
    values = [ExactComplex(re, im) for re, im in entries]
    rows = [values[8 * r:8 * r + 8] for r in range(4)]
    assert plucker_minors_exact(rows) == _leibniz_minors(rows)


def test_exact_minors_of_a_sparse_frame():
    rows = [[Fraction(int(i == j)) for i in range(8)] for j in range(4)]
    rows[1][5] = Fraction(2, 3)
    minors = plucker_minors_exact(rows)
    assert minors == _leibniz_minors(rows)
    assert sum(m != 0 for m in minors) == 2
