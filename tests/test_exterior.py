"""Exact-backend algebra laws of the exterior calculus layer."""

import functools
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cayleykit import exterior, spin7
from cayleykit.exterior import (
    EXACT,
    FLOAT,
    FOUR_FORM_INDEX,
    ExactComplex,
    FourFormTable,
    Multivector,
    Vector,
    coerce_scalar,
    fold_table,
    form_value,
    four_form_values,
    hodge_star,
    hook,
    inner,
    musical_flat,
    musical_sharp,
    pair_minors,
    sort_indices,
    substitute,
    volume_form,
    wedge,
)
from cayleykit.errors import (
    BackendMismatch,
    DimensionMismatch,
    GradeError,
    InputFormatError,
)

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


def complex_form_strategy(k, n=8):
    keys = list(itertools.combinations(range(1, n + 1), k))
    items = st.lists(st.tuples(st.sampled_from(keys), rationals, rationals),
                     min_size=1, max_size=4)
    return items.map(lambda items: Multivector(
        n, {key: ExactComplex(re, im) for key, re, im in items}, EXACT))


complex_vectors = st.lists(st.tuples(rationals, rationals), min_size=8,
                           max_size=8).map(
    lambda c: Vector([ExactComplex(re, im) for re, im in c], EXACT))

I_UNIT = ExactComplex(0, 1)


def _join(re, im):
    """re + i im, from real parts: a form or a vector."""
    return re + im.scale(I_UNIT)


@given(complex_form_strategy(1), complex_form_strategy(2), complex_vectors,
       rationals, rationals)
def test_complex_operations_match_real_expansion(f, a, v, cre, cim):
    # each operation on complex coefficients against its expansion into
    # real operations on the real and imaginary parts
    c = ExactComplex(cre, cim)
    assert a.re.is_real() and a.im.is_real() and v.re.is_real()
    assert _join(a.re, a.im) == a and _join(v.re, v.im) == v
    assert wedge(f, a) == _join(wedge(f.re, a.re) - wedge(f.im, a.im),
                                wedge(f.re, a.im) + wedge(f.im, a.re))
    assert hook(v, a) == _join(hook(v.re, a.re) - hook(v.im, a.im),
                               hook(v.re, a.im) + hook(v.im, a.re))
    assert hodge_star(a) == _join(hodge_star(a.re), hodge_star(a.im))
    assert musical_sharp(f) == _join(musical_sharp(f.re), musical_sharp(f.im))
    assert musical_flat(v) == _join(musical_flat(v.re), musical_flat(v.im))
    assert a.scale(c) == _join(a.re.scale(cre) - a.im.scale(cim),
                               a.re.scale(cim) + a.im.scale(cre))
    assert v.scale(c) == _join(v.re.scale(cre) - v.im.scale(cim),
                               v.re.scale(cim) + v.im.scale(cre))
    assert a.conj() == _join(a.re, -a.im) and v.conj() == _join(v.re, -v.im)


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


def test_substitute_refuses_mixed_backends():
    # an exact form with float images of its axes: the sum of the pulled
    # terms would mix the backends
    a = Multivector(8, {(1, 2): Fraction(1)}, EXACT)
    images = {i: Multivector.basis(8, (i,), FLOAT) for i in range(1, 9)}
    with pytest.raises(BackendMismatch, match="mixed backends: 'exact' vs 'float'"):
        substitute(a, images)


@st.composite
def _substitution_chain(draw, backend):
    """A form of grade 0-3 on R^n, n <= 4, and two maps of its axes to
    arbitrary 1-forms, all with small integer coefficients, so a float sum
    is exact as well."""
    n = draw(st.integers(1, 4))
    coeff = st.integers(-3, 3).map(float if backend == FLOAT else Fraction)
    keys = st.lists(st.integers(1, n), unique=True, max_size=min(3, n)).map(tuple)
    a = Multivector(n, draw(st.dictionaries(keys, coeff, max_size=5)), backend)

    def one_forms():
        return {i: Multivector(n, {(j,): draw(coeff) for j in range(1, n + 1)},
                               backend) for i in range(1, n + 1)}

    return a, one_forms(), one_forms()


@pytest.mark.parametrize("backend", [EXACT, FLOAT])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_substitute_composes(backend, data):
    # pulling back along G and then along H is pulling back along H o G:
    # e^i goes to G[i] with its axes replaced by H's images
    a, g, h = data.draw(_substitution_chain(backend))
    composite = {i: substitute(g[i], h) for i in g}
    assert substitute(substitute(a, g), h) == substitute(a, composite)


def test_float_vector_entries_all_become_python_floats():
    floats = [0.5, -1.25, 3.0, 0.0]
    assert Vector(floats, FLOAT) == Vector([Fraction(1, 2), "-5/4", 3, 0], FLOAT)
    for entries in ([np.float64(0.5), 2], [Fraction(1, 3), "0.25"],
                    [1, 2.0], floats, iter(floats)):
        v = Vector(entries, FLOAT)
        assert all(type(c) is float for c in v.comps)
    assert Vector([np.float64(0.1), 2.0], FLOAT).comps == (0.1, 2.0)
    with pytest.raises(BackendMismatch):
        Vector([0.5, 1.0], EXACT)


def test_inner_requires_matching_grade():
    a = Multivector(8, {(1, 2): Fraction(1)}, EXACT)
    b = Multivector(8, {(1, 2, 3): Fraction(1)}, EXACT)
    with pytest.raises(GradeError):
        inner(a, b)


def test_zero_coefficients_are_not_stored():
    a = Multivector(8, {(1, 2): Fraction(0), (3, 4): Fraction(2)}, EXACT)
    assert (3, 4) in a.terms and (1, 2) not in a.terms



def test_coefficients_are_coerced_before_their_keys_are_sorted():
    # a repeated index makes a term 0, but its coefficient is checked first
    with pytest.raises(BackendMismatch):
        Multivector(8, {(1, 1): 0.5}, EXACT)
    with pytest.raises(InputFormatError):
        Multivector(8, {(3, 1): "x/0"}, EXACT)


# -- the term-by-term reference ---------------------------------------------------
#
# Each operation written out with its own loop and, for wedge and the Hodge
# star, its own sign routine.  The library sums every operation's terms in
# one accumulator and takes every sign from sort_indices; it must give the
# same dict: the same keys in the same order, each value of the same type
# and, on the float backend, with the same bits.


def _ref_merge_sign(left, right):
    """Sign of sorting the concatenation of two sorted tuples, 0 if they
    share an index."""
    sign = 1
    i = j = 0
    while i < len(left) and j < len(right):
        if left[i] == right[j]:
            return 0
        if left[i] < right[j]:
            i += 1
        else:
            # right[j] hops over the remaining left entries
            if (len(left) - i) % 2 == 1:
                sign = -sign
            j += 1
    return sign


def _ref_star_sign(key, n):
    comp = tuple(i for i in range(1, n + 1) if i not in key)
    inversions = 0
    seq = key + comp
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                inversions += 1
    return (comp, -1 if inversions % 2 else 1)


def _ref_construct(n, terms, backend):
    canon = {}
    for indices, coeff in terms.items():
        coeff = coerce_scalar(coeff, backend)
        key, sign = sort_indices(indices)
        if sign == 0:
            continue
        val = canon.get(key, coerce_scalar(0, backend)) + sign * coeff
        if val == 0:
            canon.pop(key, None)
        else:
            canon[key] = val
    return canon


def _ref_add(a, b):
    out = dict(a.terms)
    zero = coerce_scalar(0, a.backend)
    for k, v in b.terms.items():
        val = out.get(k, zero) + v
        if val == 0:
            out.pop(k, None)
        else:
            out[k] = val
    return out


def _ref_wedge(a, b):
    zero = coerce_scalar(0, a.backend)
    out = {}
    for ka, va in a.terms.items():
        for kb, vb in b.terms.items():
            sgn = _ref_merge_sign(ka, kb)
            if sgn == 0:
                continue
            key, _ = sort_indices(ka + kb)
            val = out.get(key, zero) + sgn * va * vb
            if val == 0:
                out.pop(key, None)
            else:
                out[key] = val
    return out


def _ref_hook(v, a):
    zero = coerce_scalar(0, a.backend)
    out = {}
    for key, coeff in a.terms.items():
        for pos, idx in enumerate(key):
            comp = v.comps[idx - 1]
            if comp == 0:
                continue
            sub = key[:pos] + key[pos + 1:]
            sgn = -1 if pos % 2 else 1
            val = out.get(sub, zero) + sgn * comp * coeff
            if val == 0:
                out.pop(sub, None)
            else:
                out[sub] = val
    return out


def _ref_hodge_star(a):
    out = {}
    for key, coeff in a.terms.items():
        comp, sgn = _ref_star_sign(key, a.n)
        out[comp] = sgn * coeff
    return out


def _ref_apply_signed_permutation(a, perm, signs):
    out_terms = {}
    zero = coerce_scalar(0, a.backend)
    for key, coeff in a.terms.items():
        image = tuple(perm[i - 1] for i in key)
        smul = 1
        for i in key:
            smul *= signs[i - 1]
        skey, ssort = sort_indices(image)
        if ssort == 0:
            continue
        val = out_terms.get(skey, zero) + smul * ssort * coeff
        if val == 0:
            out_terms.pop(skey, None)
        else:
            out_terms[skey] = val
    return out_terms


def _bits(terms):
    """Terms in order, each value as its type and repr; the repr of a float
    or a complex keeps every bit, the sign of a zero and a NaN included."""
    return [(key, type(v), repr(v)) for key, v in terms.items()]


def _coefficients(backend):
    """Real and complex coefficients of one backend.  Small integers make
    terms cancel; the full float range rounds, overflows and underflows."""
    if backend == EXACT:
        return st.one_of(rationals, st.builds(ExactComplex, rationals, rationals))
    real = st.one_of(st.integers(-3, 3).map(float),
                     st.floats(allow_nan=False, allow_infinity=False))
    return st.one_of(real, st.builds(complex, real, real))


@st.composite
def _algebra_case(draw, backend):
    """Raw terms of grades 0-4 on R^n, n <= 8, keyed by unsorted and
    repeated indices; two forms built from such terms; a vector; a signed
    permutation of the axes."""
    n = draw(st.integers(1, 8))
    keys = st.lists(st.integers(1, n), max_size=min(4, n)).map(tuple)
    coeffs = _coefficients(backend)
    raw = st.dictionaries(keys, coeffs, max_size=8)
    a, b = (Multivector(n, draw(raw), backend) for _ in range(2))
    v = Vector(draw(st.lists(coeffs, min_size=n, max_size=n)), backend)
    perm = tuple(draw(st.permutations(range(1, n + 1))))
    signs = tuple(draw(st.lists(st.sampled_from((-1, 1)), min_size=n, max_size=n)))
    return n, draw(raw), a, b, v, perm, signs


def _assert_matches_reference(backend, n, raw, a, b, v, perm, signs):
    assert _bits(Multivector(n, raw, backend).terms) == _bits(
        _ref_construct(n, raw, backend))
    assert _bits((a + b).terms) == _bits(_ref_add(a, b))
    assert _bits(wedge(a, b).terms) == _bits(_ref_wedge(a, b))
    assert _bits(hook(v, a).terms) == _bits(_ref_hook(v, a))
    assert _bits(hodge_star(a).terms) == _bits(_ref_hodge_star(a))
    # the pullback along e^i -> signs[i-1] e^perm[i-1] makes its terms in
    # another order, so they are compared as a dict
    images = {i: Multivector.basis(n, (p,), backend).scale(s)
              for i, p, s in zip(range(1, n + 1), perm, signs)}
    assert substitute(a, images).terms == _ref_apply_signed_permutation(a, perm, signs)


@pytest.mark.parametrize("backend", [EXACT, FLOAT])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_operations_match_the_term_by_term_reference(backend, data):
    _assert_matches_reference(backend, *data.draw(_algebra_case(backend)))


@pytest.mark.parametrize("backend", [EXACT, FLOAT])
def test_a_key_that_cancels_and_comes_back_goes_last(backend):
    def form(terms):
        return Multivector(3, terms, backend)

    # (1, 2, 3) cancels against (2, 1, 3), then (2, 3, 1) brings it back
    raw = {(1, 2, 3): 1, (3,): 7, (2, 1, 3): 1, (2, 3, 1): 2}
    assert list(form(raw).terms) == [(3,), (1, 2, 3)]
    # e1 ^ e2 cancels against e2 ^ e1, then 1 ^ e12 brings (1, 2) back
    a = form({(1,): 1, (2,): 1, (): 1})
    b = form({(2,): 1, (1,): 1, (1, 2): 1})
    assert list(wedge(a, b).terms) == [(2,), (1,), (1, 2)]
    # a sum keeps the order of its first term's keys, then the new ones
    assert list((a + form({(1,): -1, (2,): -1, (3,): 1})).terms) == [(), (3,)]
    # (1,) cancels in the first sum and comes back last in the second
    assert list((a + form({(1,): -1}) + form({(1,): 2})).terms) == [(2,), (), (1,)]
    v = Vector([1, 1, 0], backend)
    _assert_matches_reference(backend, 3, raw, a, b, v, (2, 1, 3), (1, -1, 1))
    _assert_matches_reference(backend, 3, raw, b, a, v, (3, 2, 1), (-1, 1, 1))


# -- the blade sign rules, exhaustively on R^8 ----------------------------------
#
# The operations read their signs off bit masks by popcounts.  On unit
# blades every sign is a whole coefficient, so running each operation on
# every blade of R^8 against the reference above checks each rule on every
# case it has.

_UNIT_BLADES = [Multivector.basis(8, key) for k in range(9)
                for key in itertools.combinations(range(1, 9), k)]


def test_wedge_sign_matches_the_reference_on_every_disjoint_pair():
    # each axis lies in the left blade, the right one or neither: 3^8 pairs
    pairs = [(a, b) for a in _UNIT_BLADES for b in _UNIT_BLADES
             if not set(*a.terms) & set(*b.terms)]
    assert len(pairs) == 3**8
    for a, b in pairs:
        ka, kb = *a.terms, *b.terms
        assert wedge(a, b).terms == {tuple(sorted(ka + kb)): _ref_merge_sign(ka, kb)}


def test_star_sign_matches_the_reference_on_every_blade():
    assert len(_UNIT_BLADES) == 256
    for a in _UNIT_BLADES:
        comp, sign = _ref_star_sign(*a.terms, 8)
        assert hodge_star(a).terms == {comp: sign}


def test_hook_parity_on_every_blade_and_axis():
    for i in range(1, 9):
        e = Vector.basis(8, i)
        for a in _UNIT_BLADES:
            key, = a.terms
            out = hook(e, a).terms
            assert out == _ref_hook(e, a)
            assert out == ({key[:key.index(i)] + key[key.index(i) + 1:]:
                            -1 if key.index(i) % 2 else 1} if i in key else {})


# -- the 4x4 minor kernel --------------------------------------------------------


def _leibniz_minors(rows):
    """The k x k minors of k rows of 8 entries as Leibniz sums, in the
    entries' own arithmetic, over the increasing k-subsets of the columns in
    lexicographic order (FOUR_FORM_INDEX for 4 rows).

    The sum over permutations is grouped by the columns taken in the first
    rows (cofactor expansion along rows 1 to k - 1), and each signed partial
    sum over the last rows on a set of columns is computed once and shared
    by every minor that contains those columns."""

    @functools.lru_cache(maxsize=None)
    def det(cols):
        row = rows[len(rows) - len(cols)]
        if len(cols) == 1:
            return row[cols[0]]
        total = 0
        for k, c in enumerate(cols):
            term = row[c] * det(cols[:k] + cols[k + 1:])
            total = total - term if k % 2 else total + term
        return total

    return [det(cols) for cols in itertools.combinations(range(8), len(rows))]


def _det_minors(frames):
    cols = np.array(FOUR_FORM_INDEX) - 1
    return np.linalg.det(np.moveaxis(frames[:, :, cols], 2, 1))  # (P, 70)


@pytest.mark.parametrize("r", [1, 4, 29])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_folded_table_matches_det_minors_times_table(r, kind):
    rng = np.random.default_rng(100 + r)
    frames = rng.standard_normal((64, 4, 8))
    table = rng.standard_normal((70, r))
    if kind == "complex":
        frames = frames + 1j * rng.standard_normal((64, 4, 8))
        table = table + 1j * rng.standard_normal((70, r))
    minors = _det_minors(frames)
    got = four_form_values(frames, fold_table(table))
    assert got.shape == (64, r)
    scale = np.abs(minors) @ np.abs(table)
    assert np.all(np.abs(got - minors @ table) <= 1e-12 * scale)


_B = exterior._BLOCK


@pytest.mark.parametrize("count", [1, _B - 1, _B, _B + 1, 3 * _B + 7],
                         ids=["1", "B-1", "B", "B+1", "3B+7"])
def test_four_form_values_across_blocks(count):
    # frames run through the kernel _BLOCK at a time; every block, the last
    # partial one included, lands in its own rows of the result
    rng = np.random.default_rng(count)
    frames = rng.standard_normal((count, 4, 8)) + 1j * rng.standard_normal((count, 4, 8))
    table = rng.standard_normal((70, 4)) + 1j * rng.standard_normal((70, 4))
    minors = _det_minors(frames)
    got = four_form_values(frames, fold_table(table))
    assert got.shape == (count, 4)
    scale = np.abs(minors) @ np.abs(table)
    assert np.all(np.abs(got - minors @ table) <= 1e-12 * scale)


def _graph_frames(blocks):
    frames = np.zeros((len(blocks), 4, 8), blocks.dtype)
    frames[:, :, :4] = np.eye(4)
    frames[:, :, 4:] = blocks
    return frames


@pytest.mark.parametrize("count", [1, _B - 1, _B, _B + 1, 3 * _B + 5],
                         ids=["1", "B-1", "B", "B+1", "3B+5"])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_graph_entry_matches_the_generic_kernel(count, kind):
    # on [I_4 | A] the graph entry skips only pair minors that are exactly
    # 0, so it gives the kernel's values on the full frames up to rounding
    rng = np.random.default_rng(count)
    blocks = rng.standard_normal((count, 4, 4))
    table = rng.standard_normal((70, 4))
    if kind == "complex":
        blocks = blocks + 1j * rng.standard_normal((count, 4, 4))
        table = table + 1j * rng.standard_normal((70, 4))
    want = four_form_values(_graph_frames(blocks), fold_table(table))
    got = FourFormTable(table).graph_values(blocks)
    assert got.shape == (count, 4) and got.dtype == want.dtype
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def _graph_blocks(count, kind, layout):
    rng = np.random.default_rng(count)
    rows = 2 * count if layout == "strided" else count
    blocks = rng.standard_normal((rows, 4, 4))
    if kind == "complex":
        blocks = blocks + 1j * rng.standard_normal((rows, 4, 4))
    if layout == "strided":
        return blocks[::2]
    return np.asfortranarray(blocks) if layout == "fortran" else blocks


@pytest.mark.parametrize("layout", ["strided", "fortran"])
@pytest.mark.parametrize("count", [1, _B + 1, 3 * _B + 5], ids=["1", "B+1", "3B+5"])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_graph_entry_does_not_depend_on_the_block_layout(count, kind, layout):
    # each block is copied component-major first, so the same values in
    # any memory layout give the same minors and the same bits
    rng = np.random.default_rng(count + 1)
    table = rng.standard_normal((70, 4))
    if kind == "complex":
        table = table + 1j * rng.standard_normal((70, 4))
    table = FourFormTable(table)
    blocks = _graph_blocks(count, kind, layout)
    want = table.graph_values(np.ascontiguousarray(blocks))
    assert np.array_equal(table.graph_values(blocks), want)


@pytest.mark.parametrize("layout", ["C", "strided", "fortran"])
@pytest.mark.parametrize("count", [1, _B - 1, _B, _B + 1, 3 * _B + 5],
                         ids=["1", "B-1", "B", "B+1", "3B+5"])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_graph_minors_match_the_determinants(count, kind, layout):
    # the identity table keeps all 70 rows, so its graph entry is the fill
    # of every minor of A in every block, the last partial one included:
    # each the determinant of its 4x4 submatrix of [I_4 | A]
    blocks = _graph_blocks(count, kind, layout)
    got = FourFormTable(np.eye(70)).graph_values(blocks)
    want = _det_minors(_graph_frames(blocks))
    assert got.shape == (count, 70) and got.dtype == blocks.dtype
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("P", [1, 6, 40])
def test_graph_minors_are_the_exact_minors_of_the_graph_frame(P):
    # the minor routine on Fractions, zeros included, re-indexed with the
    # signs of the identity table's plan, gives [I_4 | A]'s 70 minors as
    # the identity table gives them exactly
    rng = random.Random(P)
    blocks = np.empty((P, 4, 4), dtype=object)
    blocks[...] = [[[Fraction(rng.randint(-9, 9), rng.randint(1, 7))
                     if rng.random() < 0.7 else Fraction(0)
                     for _ in range(4)] for _ in range(4)] for _ in range(P)]
    size, count, levels, signed = _IDENTITY._graph_plan
    assert size == 70 and count == 36 and len(levels) == 3
    assert sorted(np.abs(signed).sum(axis=0)) == [1] * 70
    minors = exterior._graph_minors(blocks, levels, np.empty((size, P), object),
                                    np.empty((2, count, P), object))
    got = minors.T @ signed.astype(int).astype(object)
    frames = np.zeros((P, 4, 8), dtype=object)
    frames[:, :, :4] = np.eye(4, dtype=int)
    frames[:, :, 4:] = blocks
    want = _IDENTITY(frames)
    assert [tuple(row) for row in got] == list(want)


def _degree(quad):
    return sum(axis > 4 for axis in quad)


@pytest.mark.parametrize("zeroed", ["even", "odd", "random"])
def test_graph_entry_drops_zero_rows(zeroed):
    # a table with zero rows fills only the minors its other rows read, and
    # agrees with the full kernel: all 70 minors (the identity table, which
    # has no zero row) times the table
    rng = np.random.default_rng(len(zeroed))
    table = rng.standard_normal((70, 4)) + 1j * rng.standard_normal((70, 4))
    if zeroed == "random":
        drop = rng.random(70) < 0.5
    else:
        drop = np.array([_degree(quad) % 2 == (zeroed == "odd")
                         for quad in FOUR_FORM_INDEX])
    table[drop] = 0
    blocks = _graph_blocks(300, "complex", "C")
    got = FourFormTable(table).graph_values(blocks)
    want = FourFormTable(np.eye(70)).graph_values(blocks) @ table
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
    size, _, _, signed = FourFormTable(table)._graph_plan
    assert np.count_nonzero(np.abs(signed).sum(axis=1)) == 70 - drop.sum()
    if zeroed == "even":
        # the rows of degree 1 and 3 read A's 16 entries and 16 3x3 minors,
        # which need the 18 2x2 minors on A's rows 2..4
        assert size == 1 + 16 + 18 + 16


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("kind", ["dense", "odd"])
def test_graph_entry_keeps_a_non_finite_block(kind, bad):
    # a NaN or an infinity in any entry of A reaches its frame's values,
    # also when the table drops rows
    rng = np.random.default_rng(3)
    table = rng.standard_normal((70, 4)) + 1j * rng.standard_normal((70, 4))
    if kind == "odd":
        table[[_degree(quad) % 2 == 0 for quad in FOUR_FORM_INDEX]] = 0
    table = FourFormTable(table)
    blocks = _graph_blocks(16, "complex", "C").copy()
    for p in range(16):
        blocks[p].flat[p] = bad
    blocks = np.concatenate([blocks, _graph_blocks(5, "complex", "C")])
    with np.errstate(invalid="ignore"):  # inf * 0 in a complex product
        values = table.graph_values(blocks)
    assert not np.isfinite(values[:16]).all(axis=1).any()
    assert np.isfinite(values[16:]).all()


def test_graph_entry_rejects_bad_shapes():
    tab = FourFormTable(np.ones((70, 2)))
    for shape in ((4, 4), (3, 4, 8), (3, 3, 4)):
        with pytest.raises(DimensionMismatch):
            tab.graph_values(np.zeros(shape))
    with pytest.raises(BackendMismatch):
        tab.graph_values(np.zeros((3, 4, 4), dtype=object))


def test_folded_real_table_on_real_frames_is_real():
    rng = np.random.default_rng(9)
    frames = rng.standard_normal((5, 4, 8))
    fold = fold_table(rng.standard_normal((70, 29)))
    assert fold.shape == (28, 28 * 29) and not fold.flags.writeable
    assert four_form_values(frames, fold).dtype == np.float64


def test_fold_rejects_bad_shapes():
    with pytest.raises(DimensionMismatch):
        fold_table(np.zeros((69, 4)))
    with pytest.raises(DimensionMismatch):
        fold_table(np.zeros(70))


def test_plucker_minors_reject_bad_shapes():
    with pytest.raises(DimensionMismatch):
        four_form_values(np.zeros((3, 4, 7)), fold_table(np.zeros((70, 1))))
    with pytest.raises(DimensionMismatch):
        _IDENTITY([[0] * 8] * 3)
    with pytest.raises(DimensionMismatch):
        _IDENTITY(np.zeros((3, 4, 7)))


# the (70, 70) identity table, whose values on a frame are its 70 minors
_IDENTITY = FourFormTable(np.eye(70, dtype=int))


@given(st.lists(rationals, min_size=32, max_size=32))
@settings(max_examples=20)
def test_exact_minors_match_leibniz_on_fractions(entries):
    rows = [entries[8 * r:8 * r + 8] for r in range(4)]
    assert list(_IDENTITY(rows)) == _leibniz_minors(rows)


@given(st.lists(st.tuples(rationals, rationals), min_size=16, max_size=16))
@settings(max_examples=20)
def test_pair_minors_match_leibniz_on_exact_complex(entries):
    values = [ExactComplex(re, im) for re, im in entries]
    rows = np.array([values[:8], values[8:]], dtype=object)
    assert list(pair_minors(rows[0], rows[1])) == _leibniz_minors(rows)
    # with a leading batch axis, as torus_ops._psi calls it
    batch = pair_minors(rows[[0, 1]], rows[[1, 0]])
    assert list(batch[0]) == _leibniz_minors(rows)
    assert list(-batch[1]) == _leibniz_minors(rows)


def _frames_of(kind, P):
    """P seeded (4, 8) frames of one entry kind, some entries 0.0 and -0.0
    on the float kinds so that signed zeros reach the minors."""
    rng = random.Random(P)
    if kind in ("float64", "complex128"):
        gen = np.random.default_rng(P)
        frames = gen.standard_normal((P, 4, 8))
        frames[gen.random((P, 4, 8)) < 0.2] = 0.0
        frames[gen.random((P, 4, 8)) < 0.2] = -0.0
        if kind == "complex128":
            frames = frames + 1j * frames[:, ::-1]
        return frames
    if kind == "int":
        entry = functools.partial(rng.randint, -9, 9)
    elif kind == "fraction":
        def entry():
            return Fraction(rng.randint(-9, 9), rng.randint(1, 7))
    else:
        def entry():
            return ExactComplex(Fraction(rng.randint(-9, 9), rng.randint(1, 7)),
                                rng.randint(-3, 3))
    frames = np.empty((P, 4, 8), dtype=object)
    frames[...] = [[[entry() for _ in range(8)] for _ in range(4)] for _ in range(P)]
    return frames


@pytest.mark.parametrize("P", [1, 5, exterior._BLOCK + 1])
@pytest.mark.parametrize(
    "kind", ["float64", "complex128", "int", "fraction", "exact_complex"])
def test_frame_pair_minors_match_pair_minors(kind, P):
    # the kernel's minors of rows 1, 2 and 3, 4 are pair_minors of the same
    # rows bit for bit: bytes on float and complex frames, since -0.0 == 0.0,
    # and value and type on object frames
    frames = _frames_of(kind, P)
    got = exterior._frame_pair_minors(frames)
    want = (pair_minors(frames[:, 0], frames[:, 1]),
            pair_minors(frames[:, 2], frames[:, 3]))
    for g, w in zip(got, want):
        assert g.shape == w.shape == (P, 28) and g.dtype == w.dtype
        if g.dtype == object:
            assert [(type(x), x) for x in g.flat] == [(type(x), x) for x in w.flat]
        else:
            assert g.tobytes() == np.ascontiguousarray(w).tobytes()
    if kind == "float64":
        assert any((np.signbit(g) & (g == 0)).any() for g in got)


def test_pair_minors_follow_the_two_form_index():
    x, y = np.arange(1, 9), np.arange(8) ** 2
    want = [x[i - 1] * y[j - 1] - x[j - 1] * y[i - 1]
            for i, j in exterior.TWO_FORM_INDEX]
    assert list(pair_minors(x, y)) == want
    assert exterior.TWO_FORM_INDEX == tuple(itertools.combinations(range(1, 9), 2))
    assert spin7.TWO_FORM_INDEX is exterior.TWO_FORM_INDEX


def test_float_max_abs_keeps_a_nan():
    for terms in ({(1, 2): 1.0, (3, 4): math.nan},
                  {(1, 2): math.nan, (3, 4): 1.0}):
        assert math.isnan(Multivector(8, terms, FLOAT).max_abs())
    assert Multivector(8, {(1, 2): -2.0, (3, 4): 1.0}, FLOAT).max_abs() == 2.0


def test_exact_minors_of_a_sparse_frame():
    rows = [[Fraction(int(i == j)) for i in range(8)] for j in range(4)]
    rows[1][5] = Fraction(2, 3)
    minors = _IDENTITY(rows)
    assert list(minors) == _leibniz_minors(rows)
    assert sum(m != 0 for m in minors) == 2


def test_exact_values_with_21_digit_denominators():
    # numerators far past int64: a frame and a table over 21-digit
    # denominators, whose values are exact only on unbounded integers
    rng = random.Random(21)

    def big():
        return Fraction(rng.randrange(-10**21, 10**21),
                        rng.randrange(10**20, 10**21))

    rows = [[big() for _ in range(8)] for _ in range(4)]
    table = [[big() for _ in range(3)] for _ in range(70)]
    got = FourFormTable(table)(rows)
    minors = _leibniz_minors(rows)
    want = tuple(sum((m * row[j] for m, row in zip(minors, table)), Fraction(0))
                 for j in range(3))
    assert got == want
    assert all(v.denominator > 10**63 for v in got)
    # a batch over one common denominator, each frame over its own
    frames = [rows]
    for _ in range(3):
        q = rng.randrange(10**20, 10**21)
        frames.append([[Fraction(rng.randrange(-10**21, 10**21), q)
                        for _ in range(8)] for _ in range(4)])
    assert len({math.lcm(*(x.denominator for row in f for x in row))
                for f in frames}) == 4
    batch = FourFormTable(table)(frames)
    assert batch == tuple(FourFormTable(table)(f) for f in frames)
    assert batch[0] == want


def test_exact_frames_need_a_real_exact_table():
    frame = [[Fraction(int(i == j)) for i in range(8)] for j in range(4)]
    with pytest.raises(BackendMismatch):
        FourFormTable(np.ones((70, 2)))(frame)
    with pytest.raises(BackendMismatch):
        FourFormTable([[ExactComplex(1, 1)]] * 70)(frame)


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_table_on_float_frames_folds_the_table_as_floats(kind):
    # an exact table on float frames: bitwise the kernel on the table
    # rounded entry by entry, float(Fraction) or complex(ExactComplex)
    rng = random.Random(kind)

    def entry():
        x = Fraction(rng.randrange(-10**9, 10**9), rng.randrange(1, 10**9))
        return x if kind == "real" else ExactComplex(x, x / 7)

    table = [[entry() for _ in range(3)] for _ in range(70)]
    frames = np.random.default_rng(3).standard_normal((6, 4, 8))
    rounded = [[complex(x) if kind == "complex" else float(x) for x in row]
               for row in table]
    fold = fold_table(rounded)
    assert np.array_equal(FourFormTable(table)(frames), four_form_values(frames, fold))
    assert np.array_equal(FourFormTable(table)(frames[0]),
                          four_form_values(frames[:1], fold)[0])


@pytest.mark.parametrize("n", [4, 8])
def test_form_value_float_matches_exact_for_every_grade(n):
    # the batched float determinants against the exact ones, grade 0 to n
    rng = random.Random(n)
    for k in range(n + 1):
        keys = list(itertools.combinations(range(1, n + 1), k))
        terms = {key: Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                 for key in rng.sample(keys, min(len(keys), 6))}
        vectors = [[Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)]
                   for _ in range(k)]
        exact = form_value(Multivector(n, terms, EXACT),
                           [Vector(v, EXACT) for v in vectors])
        got = form_value(Multivector(n, terms, FLOAT),
                         [Vector(v, FLOAT) for v in vectors])
        assert isinstance(exact, Fraction) and type(got) is float
        assert abs(got - float(exact)) <= 1e-12 * max(1.0, abs(float(exact)))
    assert form_value(Multivector.scalar(n, Fraction(5, 2), FLOAT), []) == 2.5
    assert form_value(Multivector.scalar(n, Fraction(5, 2), EXACT), []) == Fraction(5, 2)
    assert form_value(Multivector.zero(n, FLOAT), [Vector.basis(n, 1, FLOAT)]) == 0.0


def test_form_value_refusals():
    a = Multivector(8, {(1, 2): 1}, FLOAT)
    with pytest.raises(GradeError):
        form_value(a, [Vector.basis(8, 1, FLOAT)])
    with pytest.raises(BackendMismatch):
        form_value(a, [Vector.basis(8, 1, EXACT), Vector.basis(8, 2, EXACT)])
    with pytest.raises(DimensionMismatch):
        form_value(a, [Vector.basis(6, 1, FLOAT), Vector.basis(6, 2, FLOAT)])
