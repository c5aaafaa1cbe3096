"""Acceptance gate: the eleven headline guarantees of this package.

Each test records exactly one PASS/FAIL line (shown in the terminal
summary at the end of the run) together with its runtime and the runtime
budget it must stay under.  Tolerances are stated inline; none of them
are loosened for speed.
"""

import functools
import json
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from cayleykit._ratlinalg import rank as exact_rank
from cayleykit.exterior import (
    EXACT,
    FLOAT,
    ExactComplex,
    hodge_star,
    inner,
    volume_form,
    wedge,
)
from cayleykit.graphs import (
    OrientedPlane,
    canonical_angles,
    e_isom_checks,
    graph_frame,
    is_complex_plane,
    j_invariance_residual,
    normal_isom,
    normal_isom_inverse,
    plane_from_angles,
    random_complex_plane,
    random_graph_coefficients,
    random_plane,
    residual_quadratics,
    solve_tau_system,
)
from cayleykit.kahler import antiholo_vector, build_model
from cayleykit.spin7 import (
    is_cayley,
    lambda27_basis,
    phi0,
    phi_from_kahler,
    tau_eval,
    tau_norm,
)
from cayleykit.torus_ops import (
    TopologicalInvariants,
    TorusModel,
    chern_consistency_family,
    fd_linearization_check,
    index_from_chern,
    index_from_topology,
    invariants_from_chern,
    kernel_summary,
    nonlinear_F,
    pointwise_linearization_check,
    random_section,
)

# the four-form's full signed coefficient table, pinned independently
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

STD_COMPLEX_ROWS = [
    [1, 0, 0, 0, 0, 0, 0, 0],
    [0, 1, 0, 0, 0, 0, 0, 0],
    [0, 0, 1, 0, 0, 0, 0, 0],
    [0, 0, 0, 1, 0, 0, 0, 0],
]
SPECIAL_LAGRANGIAN_ROWS = [
    [1, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 1, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 1, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 1, 0],
]


# one line per criterion; printed by the terminal-summary hook in conftest
ACCEPTANCE_LINES = []


def _announce(tag, status, elapsed, budget, detail):
    ACCEPTANCE_LINES.append(
        "criterion %-3s %s (%.2fs / budget %gs)  %s"
        % (tag, status, elapsed, budget, detail))


def _criterion(tag, budget, note):
    """Wrap a test so it reports one PASS/FAIL line and a runtime budget."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                extra = fn(*args, **kwargs)
            except BaseException as exc:
                elapsed = time.perf_counter() - t0
                first = str(exc).splitlines()[0] if str(exc) else type(exc).__name__
                _announce(tag, "FAIL", elapsed, budget,
                          "%s -- %s" % (note, first))
                raise
            elapsed = time.perf_counter() - t0
            ok = elapsed <= budget
            detail = note if extra is None else "%s -- %s" % (note, extra)
            _announce(tag, "PASS" if ok else "FAIL", elapsed, budget, detail)
            assert ok, "runtime %.2fs exceeded the %gs budget" % (elapsed, budget)

        return wrapper

    return deco


@_criterion("01", 1.0, "four-form table, self-duality, wedge square")
def test_criterion_01_four_form_structure():
    Phi = phi0(backend=EXACT)
    assert Phi.phi.terms == {k: Fraction(v) for k, v in EXPECTED_TERMS.items()}
    assert (hodge_star(Phi.phi) - Phi.phi).max_abs() == 0
    vol = volume_form(8, backend=EXACT)
    assert (wedge(Phi.phi, Phi.phi) - vol.scale(Fraction(14))).max_abs() == 0
    return "14 signed unit terms; star-fixed; square = 14 vol"


@_criterion("02", 1.0, "two-form splitting ranks and spanning set")
def test_criterion_02_two_form_splitting():
    Phi = phi0(backend=EXACT)
    P = Phi.proj7_matrix()
    assert exact_rank(P) == 7
    eye = [[Fraction(int(i == j)) for j in range(28)] for i in range(28)]
    comp = [[eye[i][j] - P[i][j] for j in range(28)] for i in range(28)]
    assert exact_rank(comp) == 21
    gens = lambda27_basis(Phi)
    assert len(gens) == 28
    for b in gens:
        assert (Phi.proj7_apply(b) - b).max_abs() == 0
    gram = [[inner(a, b) for b in gens] for a in gens]
    assert exact_rank(gram) == 7
    return "ranks 7 + 21; generators span exactly the rank-7 piece"


@_criterion("03", 30.0, "calibration value vs defect norm, 1000 planes")
def test_criterion_03_calibration_defect_equivalence():
    model = build_model(4, backend=FLOAT)
    Phi = phi_from_kahler(model)
    rng = np.random.default_rng(2026)
    pool = [random_plane(8, 4, rng) for _ in range(900)]
    pool += [random_complex_plane(model.J, 2, rng) for _ in range(100)]
    contradictions = 0
    calibrated = 0
    for plane in pool:
        verdict = is_cayley(Phi, plane)
        by_value = abs(verdict.phi_value - 1.0) < 1e-9
        by_defect = verdict.tau_norm < 1e-7
        contradictions += int(by_value != by_defect)
        calibrated += int(by_value)
    assert contradictions == 0
    assert calibrated >= 100
    std = OrientedPlane.from_rows(STD_COMPLEX_ROWS, backend=FLOAT)
    sl = OrientedPlane.from_rows(SPECIAL_LAGRANGIAN_ROWS, backend=FLOAT)
    assert is_cayley(Phi, std).is_cayley
    assert is_cayley(Phi, sl).is_cayley
    return "0 contradictions in 1000; %d calibrated; both model planes pass" % calibrated


@_criterion("04", 60.0, "50 Newton solutions satisfy both residual families")
def test_criterion_04_graph_scale_equivalence():
    Phi = phi0(backend=FLOAT)
    rng = np.random.default_rng(2024)
    worst_quad = 0.0
    worst_defect = 0.0
    kept = 0
    draws = 0
    while kept < 50:
        draws += 1
        assert draws <= 500, "not enough in-ball solutions"
        start = random_graph_coefficients(rng, radius=0.25)
        sol = solve_tau_system(start)
        if sol.norm() > 0.3:
            continue
        kept += 1
        worst_quad = max(worst_quad,
                         max(abs(float(q)) for q in residual_quadratics(sol)))
        worst_defect = max(worst_defect,
                           tau_norm(tau_eval(Phi, *graph_frame(sol))))
    assert worst_quad < 1e-8
    assert worst_defect < 1e-8
    return "worst quadratic %.1e, worst defect %.1e" % (worst_quad, worst_defect)


@_criterion("05", 5.0, "normal-form round trip and identity residuals, exact")
def test_criterion_05_bundle_isomorphisms():
    model = build_model(4, backend=EXACT)
    Phic = phi_from_kahler(model)
    b3 = antiholo_vector(model, 3)
    b4 = antiholo_vector(model, 4)
    combo = b3.scale(ExactComplex(Fraction(1, 2), Fraction(3))) + b4.scale(
        ExactComplex(Fraction(-2), Fraction(1, 5)))
    for v in (b3, b4, combo):
        diff = normal_isom_inverse(model, normal_isom(model, v)) - v
        assert all(x == 0 for x in diff.re.comps + diff.im.comps)
    rep = e_isom_checks(Phic, model)
    assert rep.antiholomorphic_residual == 0
    assert rep.mixed_kill_residual == 0
    assert rep.surface_residual == 0
    return "round trip exact; all three identity residuals are 0"


@_criterion("06", 10.0, "canonical-angle recovery and degenerate extremes")
def test_criterion_06_canonical_angles():
    model = build_model(4, backend=FLOAT)
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(100):
        target = np.sort(rng.uniform(0.1, 1.4, size=2))
        plane = plane_from_angles(model, tuple(target), rng)
        rec = canonical_angles(model, plane)
        worst = max(worst, float(np.max(np.abs(np.array(rec.angles) - target))))
    assert worst < 1e-9
    worst_zero = 0.0
    worst_cos = 0.0
    for _ in range(10):
        plane = random_complex_plane(model.J, 2, rng)
        rec = canonical_angles(model, plane)
        worst_zero = max(worst_zero, max(abs(a) for a in rec.angles))
        worst_cos = max(worst_cos, max(1.0 - np.cos(a) for a in rec.angles))
    # arccos conditioning caps angle accuracy near zero at sqrt(eps);
    # the cosine-domain defect certifies the angles are genuinely zero
    assert worst_zero < 1e-7
    assert worst_cos < 1e-12
    sl = OrientedPlane.from_rows(SPECIAL_LAGRANGIAN_ROWS, backend=FLOAT)
    rec = canonical_angles(model, sl)
    assert max(abs(a - np.pi / 2) for a in rec.angles) < 1e-9
    return "100 round trips < 1e-9; zeros and right angles recovered"


@_criterion("07", 30.0, "complex detector vs rotation invariance, 500 planes")
def test_criterion_07_complex_detector():
    model = build_model(4, backend=FLOAT)
    rng = np.random.default_rng(4242)
    disagreements = 0
    for _ in range(450):
        plane = random_plane(8, 4, rng)
        sigma = is_complex_plane(model, plane)
        jres = j_invariance_residual(model.J, plane)
        disagreements += int(sigma.is_complex != (jres < 1e-9))
    for _ in range(50):
        plane = random_complex_plane(model.J, 2, rng)
        sigma = is_complex_plane(model, plane)
        jres = j_invariance_residual(model.J, plane)
        disagreements += int((not sigma.is_complex) or jres > 1e-9)
    assert disagreements == 0

    # half-dimension branch: the real-part residual alone is not enough
    small = build_model(2, backend=FLOAT)
    counter = OrientedPlane.from_rows([[1, 0, 0, 0], [0, 0, 0, 1]],
                                      backend=FLOAT)
    verdict = is_complex_plane(small, counter)
    assert verdict.max_sigma < 1e-12
    assert abs(verdict.max_im - 1.0) < 1e-12
    assert not verdict.is_complex
    assert j_invariance_residual(small.J, counter) > 1e-6
    angle = canonical_angles(small, counter).angles[0]
    assert abs(angle - np.pi / 2) < 1e-9
    return "0 disagreements in 500; half-dimension counterexample reproduced"


@_criterion("08", 60.0, "flat-model kernel dimensions, cutoffs 0..3")
def test_criterion_08_kernel_dimensions():
    summary = kernel_summary(K_values=(0, 1, 2, 3))
    for K, per in sorted(summary["per_K"].items()):
        dims = {name: rep.dim_complex for name, rep in per.items()}
        assert dims == {"dbar": 2, "dbar_star": 2, "dirac": 4}, K
        for rep in per.values():
            assert rep.gap >= 1e6
            assert not rep.warning
    assert summary["adjoint_kernel_dim"] == 4
    assert summary["index"] == 0
    assert summary["worst_gap"] >= 1e6
    return "2 / 2 / 4 at every cutoff; singular-value gap >= 1e6"


@pytest.mark.xfail(
    strict=True,
    reason="the defect map is odd, so the remainder beyond the linear term "
           "decays one order faster than this band expects; the companion "
           "test pins the measured behaviour")
@_criterion("09", 120.0, "finite-difference slope inside [1.9, 2.1]")
def test_criterion_09_linearization_slope_band():
    model = TorusModel(1)
    rep = fd_linearization_check(model, samples=50, seed=0)
    usable = [s for s, fl in zip(rep.slopes, rep.flagged_floor) if not fl]
    assert usable, "every sample hit the roundoff floor"
    detail = "in-band fraction %.2f, median slope %.3f" % (
        rep.fraction_in_band, float(np.median(usable)))
    assert rep.fraction_in_band >= 0.95, detail
    return detail


@_criterion("09+", 120.0, "measured remainder order, oddness, certificate")
def test_criterion_09_companion_cubic_remainder():
    model = TorusModel(1)
    rep = fd_linearization_check(model, samples=50, seed=0)
    usable = [s for s, fl in zip(rep.slopes, rep.flagged_floor) if not fl]
    assert usable
    assert all(2.9 < s < 3.1 for s in usable)
    assert rep.fraction_at_least_band == 1.0
    rng = np.random.default_rng(14)
    v = (random_section(model, "normal10", rng),
         random_section(model, "two_form_normal", rng))
    plus = nonlinear_F(model, v, t=0.37)
    minus = nonlinear_F(model, v, t=-0.37)
    assert np.abs(plus + minus).max() == 0.0
    assert pointwise_linearization_check() == (64, 64)
    return "slopes all in [2.9, 3.1]; map exactly odd; 64/64 certificate"


@_criterion("10", 1.0, "expected-dimension formulas and route agreement")
def test_criterion_10_index_formulas():
    assert index_from_topology(TopologicalInvariants(0, 0, 0)) == 0
    assert index_from_topology(TopologicalInvariants(-16, 24, 0)) == 4
    assert index_from_chern(0, 24, 0) == 4
    rng = np.random.default_rng(55)
    triples = chern_consistency_family(100, rng)
    assert len(triples) == 100
    for c1sq, c2, c2nu in triples:
        via_chern = index_from_chern(c1sq, c2, c2nu)
        via_topology = index_from_topology(
            invariants_from_chern(c1sq, c2, c2nu))
        assert via_chern == via_topology
    return "0 and 4 reproduced exactly; 100 triples agree across routes"


@_criterion("11", 120.0, "seeded CLI runs emit byte-identical reports")
def test_criterion_11_deterministic_cli(tmp_path, cli_env):
    payloads = []
    for name in ("first.json", "second.json"):
        path = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "cayleykit.cli", "all",
             "--seed", "42", "--json", str(path), "--quiet"],
            capture_output=True, text=True, cwd=str(tmp_path), timeout=300,
            env=cli_env)
        assert proc.returncode == 0, proc.stderr
        payloads.append(path.read_bytes())
    assert payloads[0] == payloads[1]
    report = json.loads(payloads[0])
    assert report["summary"]["fail"] == 0
    return "two runs, %d checks each, byte-identical" % report["summary"]["total"]
