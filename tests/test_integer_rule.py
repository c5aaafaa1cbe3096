"""The package's one integer rule, errors.check_integer, at every public
parameter that takes an integer."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cayleykit import cli, errors, torus_ops
from cayleykit.errors import ValidationError
from cayleykit.exterior import Multivector, Vector, volume_form
from cayleykit.graphs import random_complex_plane, random_plane
from cayleykit.kahler import antiholo_vector, build_model, holo_vector
from cayleykit.torus_ops import (
    TopologicalInvariants,
    TorusModel,
    chern_consistency_family,
    fd_linearization_check,
    index_from_chern,
    invariants_from_chern,
    kernel_summary,
)

# a bool, a fractional float, NaN, None and a numeral string: none is an
# integer, and before the rule some passed as one (True as 1, 1.5 as 1)
NOT_INTEGERS = (True, 1.5, math.nan, None, "1")

_MODEL = build_model(4)
_FORM = Multivector(3, {(1, 2): 1, (3,): 2})
_ONE_TO = {n: st.integers(1, n) for n in (4, 8)}
_ANY = st.integers(-60, 60)


def _multiple(k):
    return _ANY.map(lambda j: k * j)


def _rng():
    # each call draws from the same seed, so equal integers give equal draws
    return np.random.default_rng(0)


# id, the call with the integer x in one place, and the x it accepts
SITES = [
    ("Multivector-n", lambda x: Multivector(x, {(1,): 1}), _ONE_TO[8]),
    ("Multivector-index", lambda x: Multivector(8, {(x, 8): 1}), _ONE_TO[8]),
    ("Multivector.basis-n", lambda x: Multivector.basis(x, (1,)), _ONE_TO[8]),
    ("Multivector.basis-index", lambda x: Multivector.basis(8, (x, 1)), _ONE_TO[8]),
    ("Multivector.restrict", lambda x: _FORM.restrict(x), st.integers(1, 3)),
    ("Vector.basis-n", lambda x: Vector.basis(x, 1), _ONE_TO[8]),
    ("Vector.basis-i", lambda x: Vector.basis(8, x), _ONE_TO[8]),
    ("volume_form", volume_form, _ONE_TO[8]),
    ("build_model", build_model, _ONE_TO[4]),
    ("holo_vector", lambda x: holo_vector(_MODEL, x), _ONE_TO[4]),
    ("antiholo_vector", lambda x: antiholo_vector(_MODEL, x), _ONE_TO[4]),
    ("TopologicalInvariants-signature",
     lambda x: TopologicalInvariants(x, 0, 0), _ANY),
    ("TopologicalInvariants-euler", lambda x: TopologicalInvariants(0, x, 0), _ANY),
    ("TopologicalInvariants-self_intersection",
     lambda x: TopologicalInvariants(0, 0, x), _ANY),
    ("TopologicalInvariants-chern-c1sq",
     lambda x: TopologicalInvariants(0, 0, 0, chern=(x, 0, 0)), st.just(0)),
    ("TopologicalInvariants-chern-c2",
     lambda x: TopologicalInvariants(0, 0, 0, chern=(0, x, 0)), st.just(0)),
    ("TopologicalInvariants-chern-c2nu",
     lambda x: TopologicalInvariants(0, 0, 0, chern=(0, 0, x)), st.just(0)),
    ("index_from_chern-c1sq", lambda x: index_from_chern(x, 0, 0), _multiple(6)),
    ("index_from_chern-c2", lambda x: index_from_chern(0, x, 0), _multiple(6)),
    ("index_from_chern-c2nu", lambda x: index_from_chern(0, 0, x), _ANY),
    ("invariants_from_chern-c1sq",
     lambda x: invariants_from_chern(x, 0, 0), _multiple(3)),
    ("invariants_from_chern-c2",
     lambda x: invariants_from_chern(0, x, 0), _multiple(3)),
    ("invariants_from_chern-c2nu", lambda x: invariants_from_chern(0, 0, x), _ANY),
    ("TorusModel", TorusModel, st.integers(0, 3)),
    ("kernel_summary", lambda x: kernel_summary(K_values=(x,)), st.integers(0, 1)),
    ("fd_linearization_check-samples",
     lambda x: fd_linearization_check(TorusModel(1), samples=x), st.integers(1, 2)),
    ("fd_linearization_check-seed",
     lambda x: fd_linearization_check(TorusModel(1), samples=1, seed=x),
     st.integers(0, 2**32)),
    ("random_plane-n", lambda x: random_plane(x, 1, _rng()), _ONE_TO[8]),
    ("random_plane-dim", lambda x: random_plane(8, x, _rng()), _ONE_TO[8]),
    ("random_complex_plane-p",
     lambda x: random_complex_plane(_MODEL.J, x, _rng()), _ONE_TO[4]),
    ("chern_consistency_family-count",
     lambda x: chern_consistency_family(x, _rng()), st.integers(1, 5)),
    ("SuiteConfig-samples", lambda x: cli.SuiteConfig(samples=x), st.integers(1, 500)),
    ("SuiteConfig-K", lambda x: cli.SuiteConfig(K=x), st.integers(0, 4)),
    ("SuiteConfig-seed", lambda x: cli.SuiteConfig(seed=x), st.integers(0, 2**62)),
]


@pytest.mark.parametrize("call, valid", [site[1:] for site in SITES],
                         ids=[site[0] for site in SITES])
@given(data=st.data())
@settings(max_examples=10, deadline=None)
def test_integer_parameters_refuse_non_integers_and_take_numpy_ones(call, valid,
                                                                    data):
    for value in NOT_INTEGERS:
        with pytest.raises(ValidationError, match="must be an integer, not"):
            call(value)
    v = data.draw(valid)
    assert call(np.int64(v)) == call(v)


def test_chern_triple_is_checked_and_kept_as_plain_ints():
    for bad in ((None, 0, 0), ("0", 0, 0), (0.0, 0.0, 0.0), (True, 0, 0)):
        with pytest.raises(ValidationError, match="c1sq must be an integer"):
            TopologicalInvariants(0, 0, 0, chern=bad)
    for bad in ((0, 0), (0, 0, 0, 0), 5):
        with pytest.raises(ValidationError, match="chern must be a triple"):
            TopologicalInvariants(0, 0, 0, chern=bad)
    inv = TopologicalInvariants(-16, 24, 0, chern=tuple(map(np.int64, (0, 24, 0))))
    assert inv.chern == (0, 24, 0)
    assert {type(c) for c in inv.chern} == {int}


def test_samplers_refuse_sizes_below_one():
    # before the rule p = -1 sliced off one column, and True read as 1
    for call in (lambda x: random_complex_plane(_MODEL.J, x, _rng()),
                 lambda x: random_plane(8, x, _rng()),
                 lambda x: random_plane(x, 1, _rng()),
                 lambda x: chern_consistency_family(x, _rng())):
        for value in (0, -1):
            with pytest.raises(ValidationError, match="must be positive"):
                call(value)


def test_one_integer_rule_for_the_package():
    assert torus_ops.check_integer is errors.check_integer
    assert errors.check_integer(np.int16(-7), "c2", least=None) == -7
    for value in NOT_INTEGERS:
        with pytest.raises(ValidationError):
            errors.check_integer(value, "c2", least=None)
