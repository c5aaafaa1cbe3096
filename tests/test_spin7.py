"""The calibration four-form, the two-form splitting, and the defect tensor."""

import functools
import itertools
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cayleykit import exterior, spin7
from cayleykit._ratlinalg import rank as exact_rank
from cayleykit.errors import BackendMismatch, DimensionMismatch, PlaneError
from cayleykit.exterior import (
    EXACT,
    FLOAT,
    FOUR_FORM_INDEX,
    ExactComplex,
    Multivector,
    Vector,
    apply_signed_permutation,
    coerce_scalar,
    fold_table,
    form_value,
    four_form_values,
    hodge_star,
    hook,
    inner,
    volume_form,
    wedge,
)
from cayleykit.frames import ORTHONORMAL_TOL
from cayleykit.graphs import (
    OrientedPlane, is_complex_plane, random_complex_plane, random_plane)
from cayleykit.kahler import build_model
from cayleykit.spin7 import (
    TWO_FORM_INDEX,
    find_equivalence,
    is_cayley,
    lambda27_basis,
    phi0,
    phi_from_kahler,
    pi7_projection_scalar,
    tau_eval,
    tau_norm,
)


@dataclass(frozen=True)
class TwoFormDecomposition:
    part7: Multivector
    part21: Multivector


def decompose_two_form(Phi, a):
    """Split a two-form into its 7-part and 21-part (orthogonal pieces)."""
    small = Phi.proj7_apply(a)
    return TwoFormDecomposition(part7=small, part21=a - small)


# the four-form's full coefficient table in the standard coordinates
EXPECTED_TERMS = {
    (1, 2, 3, 4): 1,
    (1, 2, 5, 6): -1,
    (1, 2, 7, 8): -1,
    (1, 3, 5, 7): -1,
    (1, 3, 6, 8): 1,
    (1, 4, 5, 8): -1,
    (1, 4, 6, 7): -1,
    (2, 3, 5, 8): -1,
    (2, 3, 6, 7): -1,
    (2, 4, 5, 7): 1,
    (2, 4, 6, 8): -1,
    (3, 4, 5, 6): -1,
    (3, 4, 7, 8): -1,
    (5, 6, 7, 8): 1,
}

rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


def test_term_table(phi_exact):
    got = {key: val for key, val in phi_exact.phi.terms.items()}
    assert got == {k: Fraction(v) for k, v in EXPECTED_TERMS.items()}


def test_self_dual(phi_exact):
    assert (hodge_star(phi_exact.phi) - phi_exact.phi).max_abs() == 0


def test_wedge_square_is_fourteen_volumes(phi_exact):
    vol = volume_form(8)
    defect = wedge(phi_exact.phi, phi_exact.phi) - vol.scale(Fraction(14))
    assert defect.max_abs() == 0


def test_norm_squared_is_fourteen(phi_exact):
    assert inner(phi_exact.phi, phi_exact.phi) == 14


def test_projection_is_symmetric_idempotent_rank_seven(phi_exact):
    P = phi_exact.proj7_matrix()
    for i in range(28):
        for j in range(28):
            assert P[i][j] == P[j][i]
            acc = sum(P[i][k] * P[k][j] for k in range(28))
            assert acc == P[i][j]
    assert exact_rank(P) == 7
    comp = [
        [Fraction(int(i == j)) - P[i][j] for j in range(28)]
        for i in range(28)
    ]
    assert exact_rank(comp) == 21


def test_rescaled_projection_scalar(phi_exact):
    assert pi7_projection_scalar(phi_exact) == 2
    P = phi_exact.proj7_matrix()
    Q = phi_exact.pi7_matrix()
    for i in range(28):
        for j in range(28):
            assert Q[i][j] == 2 * P[i][j]


@pytest.mark.parametrize("backend", [EXACT, FLOAT])
def test_projection_scalar_on_both_backends(backend):
    for Phi in _forms(backend):
        assert pi7_projection_scalar(Phi) == 2
    # e1234 alone: entry (34, 12) is 1/2 in pi7 and 0 in proj7, as
    # e1234 ^ e12 = 0
    lone = spin7.CayleyForm(Multivector(8, {(1, 2, 3, 4): 1}, backend))
    with pytest.raises(PlaneError, match="different supports"):
        pi7_projection_scalar(lone)
    # not self-dual: the ratio is 2 on the diagonal, 1 at (34, 12), 4 at (78, 56)
    skew = spin7.CayleyForm(Multivector(8, {(1, 2, 3, 4): 1, (5, 6, 7, 8): 2},
                                        backend))
    with pytest.raises(PlaneError, match="not proportional"):
        pi7_projection_scalar(skew)


def test_projection_scalar_refuses_a_nan_coefficient():
    # a NaN ratio is within no tolerance of the others, so no constant works
    terms = {key: float(c) for key, c in dict(spin7.PHI0_TERMS).items()}
    terms[(1, 2, 5, 6)] = float("nan")
    with pytest.raises(PlaneError):
        pi7_projection_scalar(spin7.CayleyForm(Multivector(8, terms, FLOAT)))


def test_generators_span_the_small_piece(phi_exact):
    gens = lambda27_basis(phi_exact)
    assert len(gens) == 28
    for g in gens:
        assert (phi_exact.proj7_apply(g) - g).max_abs() == 0
    gram = [[inner(a, b) for b in gens] for a in gens]
    assert exact_rank(gram) == 7


@given(
    st.lists(
        st.tuples(st.sampled_from(list(TWO_FORM_INDEX)), rationals),
        min_size=1,
        max_size=5,
    )
)
@settings(max_examples=40)
def test_two_form_decomposition(items):
    Phi = phi0(backend=EXACT)
    a = Multivector(8, dict(items), EXACT)
    dec = decompose_two_form(Phi, a)
    assert (dec.part7 + dec.part21 - a).max_abs() == 0
    assert (Phi.proj7_apply(dec.part7) - dec.part7).max_abs() == 0
    assert Phi.proj7_apply(dec.part21).max_abs() == 0
    assert inner(dec.part7, dec.part21) == 0


big_rationals = st.builds(Fraction, st.integers(-10**30, 10**30),
                          st.integers(1, 10**25))


@functools.lru_cache(maxsize=None)
def _operator_forms(backend):
    model = build_model(4, backend=backend,
                        phase_pair=(Fraction(3, 5), Fraction(4, 5)))
    return (phi0(backend=backend), phi_from_kahler(model))


@given(st.dictionaries(st.sampled_from(TWO_FORM_INDEX), big_rationals, max_size=8),
       st.lists(big_rationals, min_size=8, max_size=8))
@settings(max_examples=30, deadline=None)
def test_exact_operators_match_entrywise_sums(terms, imag):
    # the one-product operators against entry-by-entry sums: the exact
    # scaled-integer product with numerators and denominators far past
    # int64, and the float einsum within the rounding of a 28-term sum,
    # each on a real two-form and on a complex one
    complex_terms = {k: ExactComplex(v, w) for (k, v), w in zip(terms.items(), imag)}
    for backend in (EXACT, FLOAT):
        for a in (Multivector(8, terms, backend),
                  Multivector(8, complex_terms, backend)):
            col = [a.coeff(key) for key in TWO_FORM_INDEX]
            for Phi in _operator_forms(backend):
                for apply, mat in ((Phi.pi7_apply, Phi.pi7_matrix()),
                                   (Phi.proj7_apply, Phi.proj7_matrix())):
                    image = apply(a)
                    for row, key in zip(mat, TWO_FORM_INDEX):
                        products = [m * c for m, c in zip(row, col)]
                        want = sum(products, coerce_scalar(0, backend))
                        if backend == EXACT:
                            assert image.coeff(key) == want
                        else:
                            # two sums of 28 rounded products in different
                            # orders, each within 14 eps * sum|products| of
                            # the exact sum: they differ by at most 28 eps
                            # times that sum, sqrt(2) times more if complex
                            assert abs(image.coeff(key) - want) <= (
                                64 * np.finfo(float).eps * sum(map(abs, products)))


@pytest.mark.parametrize("entry", [ExactComplex(1, 0), ExactComplex(0, 1)],
                         ids=["complex-one", "complex-i"])
@pytest.mark.parametrize("backend", [EXACT, FLOAT])
def test_real_entry_points_refuse_complex_input(backend, entry):
    # a complex entry is refused by its type, even when it is real in value
    rows = [Vector.basis(8, i, backend) for i in (1, 2, 3)]
    rows.append(Vector([0, 0, 0, entry, 0, 0, 0, 0], backend))
    form = Multivector(8, {(1, 2): entry}, backend)
    real = Multivector(8, {(1, 2): 1}, backend)
    with pytest.raises(PlaneError):
        is_cayley(phi0(backend=backend), rows)
    with pytest.raises(PlaneError):
        OrientedPlane(rows=tuple(rows))
    for a, b in ((form, form), (real, form), (form, real)):
        with pytest.raises(TypeError):
            inner(a, b)
    with pytest.raises(TypeError):
        form_value(phi0(backend=backend).phi, rows)
    with pytest.raises(TypeError):
        form_value(form, rows[:2])


def test_defect_anchor_value(phi_exact):
    frame = [Vector.basis(8, i, EXACT) for i in (1, 2, 3, 5)]
    t = tau_eval(phi_exact, *frame)
    assert t.terms == {
        (1, 8): Fraction(-1, 2),
        (2, 7): Fraction(1, 2),
        (3, 6): Fraction(-1, 2),
        (4, 5): Fraction(1, 2),
    }
    e18 = Multivector(8, {(1, 8): Fraction(1)}, EXACT)
    assert (t + phi_exact.pi7_apply(e18)).max_abs() == 0


def test_defect_vanishes_on_calibrated_planes(phi_exact):
    std = [Vector.basis(8, i, EXACT) for i in (1, 2, 3, 4)]
    assert tau_eval(phi_exact, *std).max_abs() == 0
    sl = [Vector.basis(8, i, EXACT) for i in (1, 3, 5, 7)]
    assert tau_eval(phi_exact, *sl).max_abs() == 0


def test_defect_is_alternating(phi_float):
    rng = np.random.default_rng(11)
    vs = [Vector(list(rng.standard_normal(8)), FLOAT) for _ in range(4)]
    t = tau_eval(phi_float, *vs)
    swapped = tau_eval(phi_float, vs[1], vs[0], vs[2], vs[3])
    assert (t + swapped).max_abs() < 1e-12


def test_comass_bound(phi_float):
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(300):
        q, _ = np.linalg.qr(rng.standard_normal((8, 4)))
        rows = [Vector(list(col), FLOAT) for col in q.T]
        worst = max(worst, abs(float(form_value(phi_float.phi, rows))))
    assert worst <= 1.0 + 1e-12


def test_standard_planes_are_calibrated(phi_cy_float):
    std = OrientedPlane.from_rows(
        [[1, 0, 0, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0, 0, 0],
         [0, 0, 1, 0, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0, 0, 0]],
        backend=FLOAT)
    sl = OrientedPlane.from_rows(
        [[1, 0, 0, 0, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0, 0, 0],
         [0, 0, 0, 0, 1, 0, 0, 0], [0, 0, 0, 0, 0, 0, 1, 0]],
        backend=FLOAT)
    for plane in (std, sl):
        verdict = is_cayley(phi_cy_float, plane)
        assert verdict.is_cayley
        assert abs(verdict.phi_value - 1.0) < 1e-12
        assert verdict.tau_norm < 1e-12


def test_kahler_form_equivalence(phi_exact, phi_cy_exact):
    perm, signs = find_equivalence(phi_cy_exact.phi, phi_exact.phi)
    assert perm == (1, 2, 3, 4, 5, 6, 7, 8)
    assert signs == (1, 1, 1, 1, 1, -1, -1, 1)
    pushed = apply_signed_permutation(phi_cy_exact.phi, perm, signs)
    assert (pushed - phi_exact.phi).max_abs() == 0


def test_equivalence_search_refuses_mixed_backends():
    # the same form on two backends: the search would try all 8! relabelings
    # and find none, since an exact form never equals a float one
    start = time.perf_counter()
    with pytest.raises(BackendMismatch, match="mixed backends: 'exact' vs 'float'"):
        find_equivalence(phi0(EXACT).phi, phi0(FLOAT).phi)
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("backend", [EXACT, FLOAT])
def test_equivalence_search_rejects_one_negated_coefficient(backend):
    # same support, so every support-preserving relabeling is tried, but
    # no sign vector flips the one term of phi0 and none of the others
    phi = phi0(backend).phi
    terms = dict(phi.terms)
    terms[(1, 2, 3, 4)] = -terms[(1, 2, 3, 4)]
    start = time.perf_counter()
    assert find_equivalence(phi, Multivector(8, terms, backend)) is None
    assert time.perf_counter() - start < 5.0


def test_equivalence_search_recovers_a_signed_relabeling():
    phi = phi0(EXACT).phi
    target = apply_signed_permutation(
        phi, (3, 1, 2, 4, 6, 5, 8, 7), (1, -1, 1, 1, -1, 1, 1, -1))
    perm, signs = find_equivalence(phi, target)
    # phi0 has a stabilizer, so the first hit in search order is another
    # relabeling with the same image
    assert (perm, signs) == ((1, 2, 3, 4, 5, 8, 6, 7),
                             (1, 1, 1, -1, 1, -1, 1, -1))
    assert apply_signed_permutation(phi, perm, signs) == target


def _first_equivalence(a, b):
    """The search walked in full: each relabeling in order, and under it
    each sign vector in itertools.product order, until one carries a to b."""
    for perm in itertools.permutations(range(1, a.n + 1)):
        for signs in itertools.product((1, -1), repeat=a.n):
            if apply_signed_permutation(a, perm, signs) == b:
                return perm, signs
    return None


@st.composite
def _form_pairs(draw):
    """A small exact form a and a signed relabeling b of it, with one
    coefficient of b negated half the time."""
    n = draw(st.integers(3, 5))
    keys = st.lists(st.integers(1, n), unique=True, max_size=n).map(
        lambda key: tuple(sorted(key)))
    a = Multivector(n, draw(st.dictionaries(
        keys, st.sampled_from([1, -1, 2, Fraction(1, 2)]), min_size=1, max_size=6)))
    b = apply_signed_permutation(
        a, draw(st.permutations(range(1, n + 1))),
        draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n)))
    if draw(st.booleans()):
        key = draw(st.sampled_from(sorted(b.terms)))
        b = Multivector(n, {**b.terms, key: -b.terms[key]})
    return a, b


@given(_form_pairs())
@settings(max_examples=40, deadline=None)
def test_equivalence_search_returns_the_first_hit_of_the_full_walk(pair):
    a, b = pair
    assert find_equivalence(a, b) == _first_equivalence(a, b)


def test_phase_family_is_still_a_calibration():
    from cayleykit.kahler import build_model
    from cayleykit.spin7 import phi_from_kahler

    model = build_model(4, backend=EXACT,
                        phase_pair=(Fraction(3, 5), Fraction(4, 5)))
    Phi = phi_from_kahler(model)
    assert (hodge_star(Phi.phi) - Phi.phi).max_abs() == 0
    assert inner(Phi.phi, Phi.phi) == 14
    vol = volume_form(8)
    defect = wedge(Phi.phi, Phi.phi) - vol.scale(Fraction(14))
    assert defect.max_abs() == 0


def test_defect_norm_scale(phi_exact):
    frame = [Vector.basis(8, i, EXACT) for i in (1, 2, 3, 5)]
    t = tau_eval(phi_exact, *frame)
    assert tau_norm(t) == pytest.approx(1.0)


# -- the defect table and the minor route of is_cayley -------------------------------

PHASES = ((Fraction(1), Fraction(0)), (Fraction(3, 5), Fraction(4, 5)))


def _tables_by_tau_eval(Phi):
    """The 70 rows of the defect table, one tau_eval per basis frame."""
    rows = []
    for quad in FOUR_FORM_INDEX:
        value = tau_eval(Phi, *[Vector.basis(8, i, Phi.backend) for i in quad])
        rows.append(tuple(value.coeff(key) for key in TWO_FORM_INDEX))
    return tuple(rows)


def _forms(backend):
    yield phi0(backend=backend)
    for phase in PHASES:
        yield phi_from_kahler(build_model(4, backend=backend, phase_pair=phase))


def test_exact_defect_table_equals_tau_eval():
    for Phi in _forms(EXACT):
        assert Phi.defect_table() == _tables_by_tau_eval(Phi)
        assert Phi.phi_row() == tuple(Phi.phi.coeff(q) for q in FOUR_FORM_INDEX)


def test_float_defect_table_matches_tau_eval():
    for Phi in _forms(FLOAT):
        table = Phi.defect_table()
        assert table.shape == (70, 28)
        ref = np.array(_tables_by_tau_eval(Phi))
        assert np.abs(table - ref).max() <= 1e-15


def test_defect_table_is_cached():
    Phi = phi0(backend=FLOAT)
    assert Phi.defect_table() is Phi.defect_table()
    assert Phi.phi_row() is Phi.phi_row()


def _pi7_by_hook(Phi):
    """pi7 column by column, (e^i ^ e^j + e_j -| (e_i -| phi)) / 2: the
    decomposable-pair formula through the term-by-term hook, as rows."""
    half = Fraction(1, 2) if Phi.backend == EXACT else 0.5
    cols = []
    for (i, j) in TWO_FORM_INDEX:
        ei = Vector.basis(8, i, Phi.backend)
        ej = Vector.basis(8, j, Phi.backend)
        pair = Multivector.basis(8, (i, j), Phi.backend)
        img = (pair + hook(ej, hook(ei, Phi.phi))).scale(half)
        cols.append([img.coeff(key) for key in TWO_FORM_INDEX])
    return [list(row) for row in zip(*cols)]


def test_exact_pi7_gather_equals_the_hook_route():
    for Phi in _forms(EXACT):
        pi7 = Phi.pi7_matrix()
        assert [list(row) for row in pi7] == _pi7_by_hook(Phi)
        assert all(type(x) is Fraction for row in pi7 for x in row)


def test_float_pi7_gather_is_the_hook_route_bit_for_bit():
    for Phi in _forms(FLOAT):
        pi7 = Phi.pi7_matrix()
        assert not pi7.flags.writeable
        assert pi7.tobytes() == np.array(_pi7_by_hook(Phi)).tobytes()


def test_doubled_pi7_columns_are_the_small_piece_generators():
    for Phi in _forms(EXACT):
        pi7 = Phi.pi7_matrix()
        for p, gen in enumerate(lambda27_basis(Phi)):
            assert [2 * row[p] for row in pi7] == [gen.coeff(key)
                                                  for key in TWO_FORM_INDEX]


@pytest.mark.parametrize("backend", [EXACT, FLOAT])
def test_pi7_is_built_without_hook(monkeypatch, backend):
    want = _pi7_by_hook(phi0(backend))

    def refuse(*args):
        raise AssertionError("pi7 built through hook")

    for module, name in ((spin7, "hook"), (spin7, "hook_many"), (exterior, "hook")):
        monkeypatch.setattr(module, name, refuse)
    got = phi0(backend).pi7_matrix()
    assert [list(row) for row in got] == want


@pytest.mark.parametrize("backend", [EXACT, FLOAT])
def test_two_form_operators_are_built_once(backend):
    Phi = phi0(backend)
    assert Phi.pi7_matrix() is Phi.pi7_matrix()
    assert Phi.proj7_matrix() is Phi.proj7_matrix()
    if backend == FLOAT:
        assert not Phi.proj7_matrix().flags.writeable


def test_is_cayley_matches_form_value_and_tau_eval(phi_cy_float, float_model):
    rng = np.random.default_rng(21)
    planes = [random_plane(8, 4, rng) if i % 2 else
              random_complex_plane(float_model.J, 2, rng) for i in range(200)]
    calibrated = 0
    for plane in planes:
        rows = list(plane.rows)
        value = float(form_value(phi_cy_float.phi, rows))
        norm = tau_norm(tau_eval(phi_cy_float, *rows))
        verdict = is_cayley(phi_cy_float, plane)
        assert verdict.is_cayley == (abs(value - 1.0) <= 1e-9 and norm <= 1e-7)
        assert abs(verdict.phi_value - value) <= 1e-12
        assert abs(verdict.tau_norm - norm) <= 1e-12
        calibrated += verdict.is_cayley
    assert calibrated == 100


def test_every_accepted_complex_plane_is_cayley(phi_cy_float, float_model):
    # Wirtinger: a complex plane is calibrated, so is_cayley must call every
    # OrientedPlane spanning one Cayley, however far off orthonormal the
    # plane bound lets its frame be: scaled by 1 + eps, the residual is
    # about 2 |eps|, kept within ORTHONORMAL_TOL
    rng = np.random.default_rng(38)
    for _ in range(50):
        plane = random_complex_plane(float_model.J, 2, rng)
        eps = rng.uniform(-0.49, 0.49) * ORTHONORMAL_TOL
        scaled = OrientedPlane.from_rows(plane.matrix() * (1 + eps))
        assert is_complex_plane(float_model, scaled).is_complex
        assert is_cayley(phi_cy_float, scaled).is_cayley


def test_is_cayley_is_exact_on_exact_forms(phi_cy_exact):
    c, s = Fraction(3, 5), Fraction(4, 5)
    standard = OrientedPlane.from_rows(
        [[int(i == j) for i in range(8)] for j in range(4)], backend=EXACT)
    rotated = OrientedPlane.from_rows(
        [[c, 0, s, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0, 0, 0],
         [-s, 0, c, 0, 0, 0, 0, 0], [0, 0, 0, c, s, 0, 0, 0]],
        backend=EXACT)
    # the same rotation at a Pythagorean angle over a 21-digit denominator
    m, n = 10**10 + 1, 10**10 - 3
    c, s = Fraction(m * m - n * n, m * m + n * n), Fraction(2 * m * n, m * m + n * n)
    big = OrientedPlane.from_rows(
        [[c, 0, s, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0, 0, 0],
         [-s, 0, c, 0, 0, 0, 0, 0], [0, 0, 0, c, s, 0, 0, 0]],
        backend=EXACT)
    for plane in (standard, rotated, big):
        rows = list(plane.rows)
        verdict = is_cayley(phi_cy_exact, plane)
        assert verdict.phi_value == float(form_value(phi_cy_exact.phi, rows))
        assert verdict.tau_norm == tau_norm(tau_eval(phi_cy_exact, *rows))
    assert is_cayley(phi_cy_exact, standard).tau_norm == 0.0
    assert is_cayley(phi_cy_exact, rotated).tau_norm > 0.1


def test_is_cayley_reads_an_oriented_plane_like_its_rows(phi_exact, phi_float):
    rng = np.random.default_rng(12)
    for plane in (random_plane(8, 4, rng),
                  random_complex_plane(build_model(4, backend=FLOAT).J, 2, rng)):
        # one plane is the stack of its one frame, bit for bit
        stack = is_cayley(phi_float, plane.matrix()[None])
        assert is_cayley(phi_float, plane) == spin7.CayleyVerdict(
            *(column.item() for column in vars(stack).values()))
    plane = random_plane(8, 4, rng)
    with pytest.raises(BackendMismatch):
        is_cayley(phi_exact, plane)
    with pytest.raises(PlaneError):
        is_cayley(phi_float, random_plane(8, 2, rng))
    with pytest.raises(DimensionMismatch):
        is_cayley(phi_float, random_plane(6, 4, rng))


def test_is_cayley_rejects_mixed_frames(phi_exact, phi_float):
    rows = [Vector.basis(8, i, FLOAT) for i in (1, 2, 3, 4)]
    with pytest.raises(BackendMismatch, match="mixed backends: 'float' vs 'exact'"):
        is_cayley(phi_exact, OrientedPlane(rows=tuple(rows)))
    # a list of Vectors is no plane, whatever the backends
    for Phi in (phi_exact, phi_float):
        for frame in (rows, rows[:3]):
            with pytest.raises(PlaneError, match="float array of frames, got list"):
                is_cayley(Phi, frame)


def test_two_form_operators_reject_the_other_backend(phi_exact, phi_float):
    for Phi, backend in ((phi_exact, FLOAT), (phi_float, EXACT)):
        a = Multivector.basis(8, (1, 2), backend)
        for apply in (Phi.pi7_apply, Phi.proj7_apply):
            with pytest.raises(BackendMismatch, match="mixed backends: %r vs %r"
                               % (backend, Phi.backend)):
                apply(a)


@pytest.mark.parametrize("backend", [EXACT, FLOAT])
def test_cayley_table_on_float_frames_is_the_float_fold_bit_for_bit(backend):
    # float frames run against fold_table of [tau | phi] as floats
    Phi = phi0(backend)
    table = np.column_stack([Phi.defect_table(), Phi.phi_row()]).astype(float)
    frames = np.random.default_rng(4).standard_normal((7, 4, 8))
    assert np.array_equal(Phi.cayley_table()(frames),
                          four_form_values(frames, fold_table(table)))
