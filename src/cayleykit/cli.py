"""Command-line verification suites and plane/graph classification tools.

Every subcommand emits a single JSON report: tool metadata, the settings
the run read, a name-sorted list of checks (each with a status, residual,
tolerance, and details), and a pass/warn/fail summary, on stdout or, with
``--json PATH``, in that file and as one stdout line per check.  Every
suite has a subcommand (``classify-plane`` without a file runs planes).
Each suite yields `Check` records, and a record's status is computed in
one place, `Check.status`, from the comparison its kind names between
residual and tolerance, its `holds` flag and its `warn` flag.  Reports are
deterministic for a fixed seed so repeated runs can be diffed byte for
byte.  Exit status is 0 exactly when no check failed; an option the run
would not read is a usage error, and input problems have their own codes,
so scripts can tell a failed verification from a bad file: `main` maps an
`OSError` (a FILE that cannot be read) to 3 and a `CayleykitError` (bad
input, such as a FILE that is not UTF-8 text or not a matrix) to 4.
"""

import argparse
import dataclasses
import json
import math
import operator
import sys
from fractions import Fraction

import numpy as np

from .exterior import (
    EXACT,
    FLOAT,
    ExactComplex,
    Multivector,
    coefficient_matrix,
    hodge_star,
    inner,
    substitute,
    volume_form,
    wedge,
)
from ._ratlinalg import rank as exact_rank
from . import __version__
from .errors import (
    CayleykitError,
    InputFormatError,
    PlaneError,
    ValidationError,
    check_integer,
)
from .frames import (
    ORTHONORMAL_TOL,
    haar_unitary,
    orthonormal_rows,
    orthonormality_residual,
)
from .kahler import (
    antiholo_vector,
    build_model,
    hook_identities_check,
    verify_normalization,
)
from .spin7 import (
    TAU_TOL,
    is_cayley,
    lambda27_basis,
    phi0,
    phi_from_kahler,
    pi7_projection_scalar,
)
from .graphs import (
    COMPLEX_TOL,
    ComplexGraphCoefficients,
    GraphCoefficients,
    OrientedPlane,
    angle_frame,
    canonical_angles,
    complex_frames,
    cr_residual,
    e_isom_checks,
    graph_frame,
    hook_coefficient_oracle,
    is_complex_plane,
    j_invariance_residual,
    normal_isom,
    normal_isom_inverse,
    random_graph_coefficients,
    residual_quadratics,
    solve_complex_graph_linear,
    solve_tau_system,
    tau_graph_components,
    tau_system,
)
from . import torus_ops
from .torus_ops import (
    TopologicalInvariants,
    TorusModel,
    chern_consistency_family,
    fd_linearization_check,
    holomorphic_kernel_match,
    index_from_chern,
    index_from_topology,
    invariants_from_chern,
    kernel_summary,
    pointwise_linearization_check,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_UNREADABLE = 3
EXIT_MALFORMED = 4

SUITES = ("structure", "planes", "graphs", "angles", "torus", "index", "all")


@dataclasses.dataclass(frozen=True)
class SuiteConfig:
    """The settings a suite run reads, checked before any suite runs."""

    suite: str = "all"
    seed: int = 0
    samples: int = 200
    K: int = 2
    t_ladder: tuple = torus_ops.FD_LADDER

    def __post_init__(self):
        if self.suite not in SUITES:
            raise ValidationError("unknown suite %r" % (self.suite,))
        check_integer(self.samples, "samples", least=1)
        torus_ops.check_ladder(self.t_ladder)
        check_integer(self.K, "K")
        check_integer(self.seed, "seed")


def _rng(seed, salt):
    return np.random.default_rng([seed, salt])


def _worst(residuals):
    """The largest of some float residuals, 0.0 for none, and NaN if any is
    NaN: a running max(worst, x) keeps whichever of a NaN and a number
    comes first, so a NaN residual could pass."""
    return float(np.max(residuals, initial=0.0))


def _num(x):
    """JSON-safe scalar: rationals as strings, numpy scalars unwrapped, and
    non-finite floats as "inf", "-inf" or "nan" (strict JSON has no token
    for them)."""
    if x is None:
        return None
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, ExactComplex):
        return {"re": str(x.re), "im": str(x.im)}
    if isinstance(x, (bool, np.bool_)):
        return bool(x)
    if isinstance(x, (int, np.integer)):
        return int(x)
    if isinstance(x, (float, np.floating)):
        x = float(x)
        return x if math.isfinite(x) else str(x)
    if isinstance(x, complex):
        return {"re": _num(x.real), "im": _num(x.imag)}
    if isinstance(x, (list, tuple)):
        return [_num(v) for v in x]
    if isinstance(x, dict):
        return {str(k): _num(v) for k, v in x.items()}
    return str(x)


# the comparison each kind makes of residual with tolerance; a NaN residual
# fails all four
_COMPARE = {
    "exact": operator.eq,
    "below": operator.lt,
    "bound": operator.le,
    "floor": operator.ge,
}


@dataclasses.dataclass(frozen=True)
class Check:
    """One verified claim of a report.

    ``kind`` names how ``residual`` is compared with ``tolerance``: one of
    the keys of ``_COMPARE``, or None for numbers shown but not compared.
    ``holds`` carries the part of a pass rule that is not those numbers,
    and ``warn`` marks a pass that deserves a look."""

    name: str
    claim: str
    kind: str
    residual: object = None
    tolerance: object = None
    details: dict = None
    holds: bool = True
    warn: bool = False

    @property
    def status(self):
        """``fail`` unless ``holds`` and the kind's comparison both hold;
        otherwise ``warn`` if ``warn`` is set and ``pass`` if not."""
        if not (self.holds and (
                self.kind is None
                or _COMPARE[self.kind](self.residual, self.tolerance))):
            return "fail"
        return "warn" if self.warn else "pass"


# structure suite --------------------------------------------------------------


# the relabeling e^i -> s_i e^pi(i), as (pi, s), that pulls the Kahler model's
# calibration omega^2/2 + Re Omega back onto phi0: it reverses e6 and e7
_KAHLER_RELABELING = ((1, 2, 3, 4, 5, 6, 7, 8), (1, 1, 1, 1, 1, -1, -1, 1))


def _suite_structure(cfg):
    Phi = phi0(backend=EXACT)
    model = build_model(4, backend=EXACT)
    Phic = phi_from_kahler(model)

    coeffs = Phi.phi.coefficients()
    coeff_ok = len(coeffs) == 14 and all(
        val in (Fraction(1), Fraction(-1)) for val in coeffs
    )
    yield Check(
        "cayley-form:term-table", "four-form:unit-coefficients",
        "exact", int(not coeff_ok), 0, details={"terms": len(coeffs)})

    yield Check(
        "cayley-form:self-dual", "four-form:star-fixed",
        "exact", (hodge_star(Phi.phi) - Phi.phi).max_abs(), 0)
    vol = volume_form(8, backend=EXACT)
    yield Check(
        "cayley-form:wedge-square", "four-form:square-is-14-vol",
        "exact", (wedge(Phi.phi, Phi.phi) - vol.scale(Fraction(14))).max_abs(),
        0)
    yield Check(
        "cayley-form:inner-norm", "four-form:norm-squared-14",
        "exact", abs(inner(Phi.phi, Phi.phi) - Fraction(14)), 0)

    # the ranks of P = nums / den and of 1 - P, on their integer numerators
    nums, den = Phi.proj7_numerators()
    r7 = exact_rank(nums)
    r21 = exact_rank(den * np.eye(28, dtype=int).astype(object) - nums)
    yield Check(
        "two-forms:rank-split", "two-forms:7-21-split",
        "exact", abs(r7 - 7) + abs(r21 - 21), 0,
        details={"rank_small": r7, "rank_large": r21})

    gens = lambda27_basis(Phi)
    fixed = all((Phi.proj7_apply(b) - b).is_zero() for b in gens)
    rk = exact_rank(coefficient_matrix(gens, 2)[0])
    span_ok = len(gens) == 28 and fixed and rk == 7
    yield Check(
        "two-forms:spanning-set", "two-forms:small-piece-generators",
        "exact", int(not span_ok), 0,
        details={"count": len(gens), "span_dimension": rk,
                 "fixed_by_projection": fixed})

    # routes that disagree are a failed check, not malformed input
    try:
        scal = pi7_projection_scalar(Phi)
        res, details = abs(scal - 2), {"scalar": scal}
    except PlaneError as exc:
        res, details = None, {"error": str(exc)}
    yield Check(
        "two-forms:projection-scalar", "two-forms:double-contraction-scalar",
        "exact", res, 0, details=details, holds=res is not None)

    worst_norm = Fraction(0)
    for m in (1, 2, 3, 4):
        worst_norm = max(worst_norm, verify_normalization(build_model(m)))
    yield Check(
        "kahler:volume-normalization", "kahler:power-normalization",
        "exact", worst_norm, 0)

    yield Check(
        "kahler:hook-identities", "kahler:contraction-identities",
        "exact", hook_identities_check(model), 0)

    perm, signs = _KAHLER_RELABELING
    pulled = substitute(Phic.phi, {
        i: Multivector.basis(8, (p,), EXACT).scale(sign)
        for i, p, sign in zip(range(1, 9), perm, signs)})
    yield Check(
        "cayley-form:kahler-equivalence", "four-form:model-equivalence",
        "exact", int(pulled != Phi.phi), 0,
        details={"permutation": list(perm), "signs": list(signs)})

    rep = e_isom_checks(Phic, model)
    yield Check(
        "bundle-isomorphism:seven-piece", "normal-forms:decomposable-identities",
        "exact", max(rep.antiholomorphic_residual, rep.mixed_kill_residual,
                     rep.surface_residual), 0,
        details={
            "antiholomorphic": rep.antiholomorphic_residual,
            "mixed_kill": rep.mixed_kill_residual,
            "surface": rep.surface_residual,
        })

    worst_rt = Fraction(0)
    b3 = antiholo_vector(model, 3)
    b4 = antiholo_vector(model, 4)
    combo = b3.scale(ExactComplex(Fraction(2), Fraction(-1))) + b4.scale(
        ExactComplex(Fraction(1, 3), Fraction(5)))
    for cv in (b3, b4, combo):
        diff = normal_isom_inverse(model, normal_isom(model, cv)) - cv
        worst_rt = max(worst_rt,
                       *(abs(x) for x in diff.re.comps + diff.im.comps))
    yield Check(
        "bundle-isomorphism:round-trip", "normal-forms:inverse-pair",
        "exact", worst_rt, 0)


# planes suite -----------------------------------------------------------------


# the coordinate planes the planes and angles suites check: in R^8 the
# complex plane e1..e4 and the special Lagrangian plane e1, e3, e5, e7, and
# in R^4 the totally real plane e1, e4
_COMPLEX_PLANE = OrientedPlane.from_rows(np.eye(8)[:4])
_LAGRANGIAN_PLANE = OrientedPlane.from_rows(np.eye(8)[[0, 2, 4, 6]])
_COUNTER_PLANE = OrientedPlane.from_rows(np.eye(4)[[0, 3]])
# the |value - 1| bound the planes suite shows; is_cayley reads the defect,
# which puts a Cayley plane's value within about 2e-10 of 1
PHI_TOL = 1e-9


def _complex_sample(count, rng):
    """``count`` frames of 4-planes complex for the standard J on R^8, each
    bit for bit what random_complex_plane draws, by one stacked QR."""
    return complex_frames(haar_unitary(rng.standard_normal((count, 2, 4, 4))), 2)


def _sample_frames(samples, rng):
    """The planes suite's sample as one (P, 4, 8) stack of frames, and a (P,)
    mask of the planes built complex: ``samples`` Haar 4-planes in R^8, each
    bit for bit what random_plane draws, by one stacked QR, then
    max(2, samples // 10) planes complex for the standard J."""
    haar = orthonormal_rows(rng.standard_normal((samples, 8, 4)).swapaxes(1, 2))
    frames = np.concatenate((haar, _complex_sample(max(2, samples // 10), rng)))
    return frames, np.arange(len(frames)) >= samples


def _cayley_verdict_check(name, claim, verdict, holds=True):
    """A check showing an `is_cayley` verdict: its defect against TAU_TOL."""
    return Check(
        name, claim, None, verdict.tau_norm, TAU_TOL,
        details={"is_cayley": verdict.is_cayley,
                 "calibration_value": verdict.phi_value,
                 "defect_norm": verdict.tau_norm},
        holds=holds)


def _complex_verdicts_agree(verdict, jres):
    """Whether is_complex_plane and j_invariance_residual agree at COMPLEX_TOL."""
    return verdict.is_complex == (jres < COMPLEX_TOL)


def _suite_planes(cfg):
    model = build_model(4, backend=FLOAT)
    Phi = phi_from_kahler(model)
    rng = _rng(cfg.seed, 1)

    # one call per classifier on the whole sample
    frames, built_complex = _sample_frames(cfg.samples, rng)
    verdict = is_cayley(Phi, frames)
    by_value = np.abs(verdict.phi_value - 1.0) < PHI_TOL
    by_defect = verdict.tau_norm < TAU_TOL
    sigma = is_complex_plane(model, frames)
    jres = j_invariance_residual(model.J, frames)
    disagreements = (~_complex_verdicts_agree(sigma, jres)
                     | (built_complex & ~sigma.is_complex))
    yield Check(
        "planes:calibration-defect-equivalence",
        "cayley-criterion:value-vs-defect",
        "exact", int(np.count_nonzero(by_value != by_defect)), 0,
        details={"planes": len(frames),
                 "cayley_in_sample": int(np.count_nonzero(by_value))})

    # the two coordinate planes pass on is_cayley's own verdicts, whose
    # defect bound is not the tolerance shown
    for name, claim, plane, complex_ in (
            ("planes:standard-complex-plane", "cayley-criterion:complex-planes",
             _COMPLEX_PLANE, True),
            ("planes:special-lagrangian-plane",
             "cayley-criterion:lagrangian-branch", _LAGRANGIAN_PLANE, False)):
        verdict = is_cayley(Phi, plane)
        is_complex = is_complex_plane(model, plane).is_complex
        details = {"phi_value": verdict.phi_value, "tau_norm": verdict.tau_norm}
        if not complex_:
            # the Lagrangian branch shows the complex verdict it rules out
            details["is_complex"] = is_complex
        yield Check(
            name, claim, None, max(abs(verdict.phi_value - 1.0),
                                   verdict.tau_norm), PHI_TOL,
            details=details, holds=verdict.is_cayley and is_complex == complex_)

    yield Check(
        "planes:complex-detector-agreement", "complex-criterion:hook-vs-rotation",
        "exact", int(np.count_nonzero(disagreements)), 0,
        details={"planes": len(frames)})

    small = build_model(2, backend=FLOAT)
    verdict = is_complex_plane(small, _COUNTER_PLANE)
    jres = j_invariance_residual(small.J, _COUNTER_PLANE)
    angle = canonical_angles(small, _COUNTER_PLANE).angles[0]
    yield Check(
        "planes:half-dimension-counterexample",
        "complex-criterion:imaginary-part-needed",
        "below", verdict.max_sigma, 1e-12,
        details={"real_part_residual": verdict.max_sigma,
                 "imag_part_residual": verdict.max_im,
                 "rotation_residual": jres,
                 "angle": angle},
        holds=(verdict.max_im is not None
               and abs(verdict.max_im - 1.0) < 1e-12 and not verdict.is_complex
               and _complex_verdicts_agree(verdict, jres)
               and abs(angle - np.pi / 2) < 1e-9))


# graphs suite -----------------------------------------------------------------


def _random_exact_lambda(rng):
    entries = [[Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 5)))
                for _ in range(4)] for _ in range(4)]
    return GraphCoefficients(entries, backend=EXACT)


def _suite_graphs(cfg):
    rng = _rng(cfg.seed, 2)

    worst = Fraction(0)
    for _ in range(6):
        lam = _random_exact_lambda(rng)
        mixed, diagonal = tau_graph_components(lam)
        eqs = tau_system(lam)
        quads = residual_quadratics(lam)
        for got, want in zip(eqs, mixed):
            worst = max(worst, abs(got - want))
        for got, want in zip(quads, diagonal):
            worst = max(worst, abs(got - want))
    yield Check(
        "graph-system:component-identity", "graph-defect:seven-component-match",
        "exact", worst, 0)

    n_newton = max(5, min(50, cfg.samples // 4))
    quads, taus = [], []
    failures = 0
    for _ in range(n_newton):
        start = random_graph_coefficients(rng, radius=0.25)
        try:
            sol = solve_tau_system(start)
        except ValidationError:
            failures += 1
            continue
        quads.extend(abs(float(q)) for q in residual_quadratics(sol))
        taus.append(_graph_defect_norm(sol))
    worst_quad, worst_tau = _worst(quads), _worst(taus)
    yield Check(
        "graph-system:newton-batch", "graph-defect:solutions-are-calibrated",
        "below", _worst([worst_quad, worst_tau]), _GRAPH_TOL,
        details={"attempted": n_newton, "solved": n_newton - failures,
                 "max_quadratic": worst_quad, "max_defect": worst_tau},
        holds=failures == 0)

    sys_res = []
    for p, m in ((1, 2), (2, 3)):
        big = build_model(m, backend=FLOAT)
        for _ in range(4):
            width = 2 * (m - p)
            lam = tuple(tuple(rng.standard_normal() for _ in range(width))
                        for _ in range(p))
            mu = tuple(tuple(rng.standard_normal() for _ in range(width))
                       for _ in range(p))
            cg = ComplexGraphCoefficients(p, m, lam, mu)
            sys_res.append(hook_coefficient_oracle(big, cg))
    yield Check(
        "complex-graph:first-order-system", "complex-graph:hook-expansion",
        "below", _worst(sys_res), 1e-12)

    model3 = build_model(3, backend=FLOAT)
    cr_res = []
    all_complex = True
    for _ in range(5):
        cg = solve_complex_graph_linear(model3, 1, rng)
        cr_res.append(cr_residual(cg))
        plane = OrientedPlane.from_rows(orthonormal_rows(cg.frame()))
        if not is_complex_plane(model3, plane).is_complex:
            all_complex = False
    yield Check(
        "complex-graph:cauchy-riemann", "complex-graph:kernel-is-holomorphic",
        "below", _worst(cr_res), 1e-9, details={"graphs_are_complex": all_complex},
        holds=all_complex)


# angles suite -----------------------------------------------------------------


def _suite_angles(cfg):
    model = build_model(4, backend=FLOAT)
    rng = _rng(cfg.seed, 3)

    # the targets and unitaries interleave in the stream, so each plane is
    # drawn on its own; each pool is classified by one call
    n = cfg.samples // 2 or 1
    targets, frames = [], []
    for _ in range(n):
        targets.append(np.sort(rng.uniform(0.1, 1.4, size=2)))
        frames.append(angle_frame(model, tuple(targets[-1]), rng))
    rec = canonical_angles(model, np.stack(frames))
    yield Check(
        "angles:round-trip", "canonical-angles:recovery",
        "below", _worst(np.abs(rec.angles - targets)), 1e-9,
        details={"planes": n})

    angles = canonical_angles(model, _complex_sample(10, rng)).angles
    yield Check(
        "angles:complex-plane-zeros", "canonical-angles:complex-degenerate",
        "below", _worst(np.abs(angles)), 1e-7,
        details={"cosine_defect": _worst(1.0 - np.cos(angles))})

    rec = canonical_angles(model, _LAGRANGIAN_PLANE)
    yield Check(
        "angles:isotropic-right-angles", "canonical-angles:lagrangian-extreme",
        "below", _worst(np.abs(np.array(rec.angles) - np.pi / 2)), 1e-9,
        details={"angles": list(rec.angles)})


# torus suite ------------------------------------------------------------------


def _suite_torus(cfg):
    K_values = tuple(range(min(cfg.K, 3) + 1))
    summary = kernel_summary(K_values=K_values)
    top = summary["per_K"][max(K_values)]
    dims = {name: rep.dim_complex for name, rep in top.items()}
    yield Check(
        "torus:kernel-dimensions", "flat-model:kernel-counts",
        "exact", int(dims != {"dbar": 2, "dbar_star": 2, "dirac": 4}), 0,
        details={"complex_dims": dims,
                 "real_dims": {k: 2 * v for k, v in dims.items()},
                 "K": max(K_values)})

    stable = all(
        {name: rep.dim_complex for name, rep in per.items()} == dims
        for per in summary["per_K"].values()
    )
    yield Check(
        "torus:kernel-stability", "flat-model:truncation-independence",
        "exact", int(not stable), 0, details={"K_values": list(K_values)})

    yield Check(
        "torus:spectral-gap", "flat-model:isolated-kernel",
        "floor", summary["worst_gap"], torus_ops.GAP_FLOOR)

    model = TorusModel(max(K_values))
    dbar02 = torus_ops.dbar02_matrix(model)
    adj = dbar02.adjoint()
    star = torus_ops.dbar_star_matrix(model)
    adj_res = float(np.max(np.abs(adj.blocks - star.blocks)))
    rngt = _rng(cfg.seed, 4)
    u = torus_ops.random_section(model, "one_form_normal", rngt)
    v = torus_ops.random_section(model, "two_form_normal", rngt)
    lhs = torus_ops.section_inner(dbar02.apply(u), v)
    rhs = torus_ops.section_inner(u, star.apply(v))
    pair_res = abs(lhs - rhs)
    # max keeps its first argument against a NaN, so a NaN pairing
    # residual stays the residual and fails
    yield Check(
        "torus:adjoint-pairing", "flat-model:formal-adjoint",
        "below", max(pair_res, adj_res), 1e-10,
        details={"matrix_residual": adj_res, "pairing_residual": pair_res},
        holds=adj_res == 0.0)

    yield Check(
        "torus:operator-index", "flat-model:index-matches-topology",
        "exact", summary["index"], 0,
        details={"kernel": dims.get("dirac"),
                 "adjoint_kernel": summary["adjoint_kernel_dim"]},
        holds=index_from_topology(TopologicalInvariants(0, 0, 0)) == 0)

    # at K = 0 every section is constant and every remainder 0, so the fd
    # check always runs at K = 1
    rep = fd_linearization_check(
        TorusModel(1), samples=min(cfg.samples, 50), t_ladder=cfg.t_ladder,
        seed=cfg.seed, band=(1.9, 2.1))
    usable = [s for s, fl in zip(rep.slopes, rep.flagged_floor) if not fl]
    slope_min = min(usable) if usable else None
    # the slope passes on the share of samples at or above the band, not
    # on its smallest slope, which is shown against the band's lower edge;
    # with every sample flagged as roundoff there is no slope to judge
    yield Check(
        "torus:linearization-slope", "deformation-map:derivative-dominates",
        None, slope_min, rep.band[0],
        details={
            "fraction_in_band": rep.fraction_in_band,
            "fraction_at_least_band": rep.fraction_at_least_band,
            "flagged_roundoff": int(sum(rep.flagged_floor)),
            "samples": len(rep.slopes),
            "slope_min": slope_min,
            "slope_max": max(usable) if usable else None,
        },
        holds=bool(usable) and rep.fraction_at_least_band >= 0.95,
        warn=bool(usable) and rep.fraction_in_band < 0.95)

    matches, total = pointwise_linearization_check()
    yield Check(
        "torus:linearization-exact", "deformation-map:derivative-identity",
        "exact", total - matches, 0,
        details={"matches": matches, "total": total})

    A0, A1 = torus_ops.complex_linear_op(model)
    k0 = torus_ops.kernel_dim(A0)
    k1 = torus_ops.kernel_dim(A1)
    kj = torus_ops.joint_kernel_dim((A0, A1))
    yield Check(
        "torus:complex-kernel-match", "deformation-map:holomorphic-kernel",
        "below", holomorphic_kernel_match(model), 1e-10,
        details={"first_order": k0, "conjugate": k1, "joint": kj},
        holds=(k0, k1, kj) == (4, 4, 4))


# index suite ------------------------------------------------------------------


def _suite_index(cfg):
    flat = index_from_topology(TopologicalInvariants(0, 0, 0))
    yield Check(
        "index:flat-torus", "expected-dimension:flat-case",
        "exact", flat, 0, details={"index": flat})

    k3 = index_from_topology(TopologicalInvariants(-16, 24, 0))
    k3c = index_from_chern(0, 24, 0)
    yield Check(
        "index:k3-surface", "expected-dimension:k3-case",
        "exact", abs(k3 - 4) + abs(k3c - 4), 0,
        details={"topological": k3, "chern": k3c})

    rng = _rng(cfg.seed, 5)
    triples = chern_consistency_family(100, rng)
    mismatches = sum(
        1 for c1sq, c2, c2nu in triples
        if index_from_chern(c1sq, c2, c2nu)
        != index_from_topology(invariants_from_chern(c1sq, c2, c2nu)))
    yield _route_agreement(mismatches, {"triples": len(triples)})


def _route_agreement(residual, details=None):
    """The topological and Chern routes to the index agree: ``residual``
    measures how far they differ."""
    return Check(
        "index:route-agreement", "expected-dimension:chern-equivalence",
        "exact", residual, 0, details=details)


# each suite's builder and the SuiteConfig settings it reads
_SUITE_BUILDERS = {
    "structure": (_suite_structure, ()),
    "planes": (_suite_planes, ("seed", "samples")),
    "graphs": (_suite_graphs, ("seed", "samples")),
    "angles": (_suite_angles, ("seed", "samples")),
    "torus": (_suite_torus, ("seed", "samples", "K", "t_ladder")),
    "index": (_suite_index, ("seed",)),
}


def run_suite(cfg):
    """Run one suite (or all of them) and return the report dict."""
    names = _SUITE_BUILDERS if cfg.suite == "all" else [cfg.suite]
    checks = [c for name in names for c in _SUITE_BUILDERS[name][0](cfg)]
    return _assemble(cfg.suite, cfg.suite, vars(cfg), checks)


def _reads(mode):
    """The options a mode of `_COMMANDS` reads: those it lists, or for a
    suite the settings its builders read (all reads what every suite does)."""
    if not isinstance(mode, str):
        return mode
    names = _SUITE_BUILDERS if mode == "all" else [mode]
    return tuple(dict.fromkeys(
        k for name in names for k in _SUITE_BUILDERS[name][1]))


def _assemble(kind, mode, values, checks):
    """The report of a run of ``kind`` in ``mode``: its config is each
    setting the mode reads (the FILE aside), with its value in ``values``."""
    checks = [
        {"name": c.name, "claim": c.claim, "status": c.status,
         "residual": _num(c.residual), "tolerance": _num(c.tolerance),
         "details": _num(c.details or {})}
        for c in sorted(checks, key=lambda c: c.name)
    ]
    summary = {s: sum(c["status"] == s for c in checks)
               for s in ("pass", "warn", "fail")}
    summary["total"] = len(checks)
    config = {k: _num(values[k]) for k in _reads(mode) if k != "file"}
    return {
        "tool": "cayleykit",
        "version": __version__,
        "config": {"suite": kind, **config},
        "checks": checks,
        "summary": summary,
    }


# file-driven subcommands -------------------------------------------------------


def _read_matrix(path, backend):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise InputFormatError("not UTF-8 text in %s: %s" % (path, exc))
    rows = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        row = []
        for token in line.split():
            # every entry must fit a float: the checks evaluate in floats
            try:
                value = Fraction(token)
                as_float = float(value)
            except (ValueError, ZeroDivisionError, OverflowError):
                raise InputFormatError("bad number %r in %s" % (token, path))
            row.append(value if backend == EXACT else as_float)
        rows.append(row)
    if not rows:
        raise InputFormatError("no data rows in %s" % (path,))
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise InputFormatError("ragged rows in %s" % (path,))
    return rows


def classify_plane(path, tol=1e-9, reject=False):
    if not 0.0 < tol < math.inf:
        raise ValidationError("tol must be finite and positive")
    frame = np.array(_read_matrix(path, FLOAT))
    k, n = frame.shape
    if k % 2 != 0 or n % 2 != 0 or k > n:
        raise InputFormatError(
            "need a 2p x 2m frame with 2p <= 2m, got %d x %d" % (k, n))
    # QR of a rank-deficient frame returns an arbitrary plane, so such a
    # frame is refused before any repair.  matrix_rank's tolerance is
    # relative to the largest singular value, so each row is first scaled
    # by its largest entry: a long row must not make the others look null
    # (a zero row stays zero)
    scale = np.abs(frame).max(axis=1, keepdims=True)
    rank = int(np.linalg.matrix_rank(frame / np.where(scale > 0, scale, 1.0)))
    if rank < k:
        raise InputFormatError(
            "frame rows have rank %d < %d and span no %d-plane" % (rank, k, k))
    res = orthonormality_residual(frame)
    if res > tol and reject:
        raise InputFormatError(
            "rows not orthonormal (residual %.3g) and --reject set" % res)
    fixed = res > ORTHONORMAL_TOL
    if fixed:
        frame = orthonormal_rows(frame)
    # a skewed frame is repaired, not refused, so it warns and passes
    checks = [Check(
        "input:orthonormality", "frame:unit-orthogonal-rows",
        None, res, tol,
        details={"action": "orthonormalized" if fixed else "accepted"},
        warn=res > tol)]

    plane = OrientedPlane.from_rows(frame)
    m = n // 2
    model = build_model(m, backend=FLOAT)

    cx = is_complex_plane(model, plane)
    jres = j_invariance_residual(model.J, plane)
    checks.append(Check(
        "plane:complex", "complex-criterion:hook-vs-rotation",
        None, cx.max_sigma, COMPLEX_TOL,
        details={"is_complex": cx.is_complex,
                 "real_part_residual": cx.max_sigma,
                 "imag_part_residual": cx.max_im,
                 "rotation_residual": jres},
        holds=_complex_verdicts_agree(cx, jres)))

    rec = canonical_angles(model, plane)
    checks.append(Check(
        "plane:canonical-angles", "canonical-angles:definition", None,
        details={"angles": list(rec.angles), "gap_warning": rec.gap_warning},
        warn=rec.gap_warning))

    if (k, n) == (4, 8):
        verdict = is_cayley(phi_from_kahler(model), plane)
        checks.append(_cayley_verdict_check(
            "plane:calibration", "cayley-criterion:value-vs-defect", verdict))
    return _assemble("classify-plane", _COMMANDS["classify-plane"][2],
                     {"tol": tol, "reject": reject}, checks)


def _lambda_from_file(path, backend):
    rows = _read_matrix(path, backend)
    if len(rows) != 4 or len(rows[0]) != 4:
        raise InputFormatError(
            "tilt file must be 4 rows of 4 numbers, got %d x %d"
            % (len(rows), len(rows[0])))
    return GraphCoefficients(rows, backend=backend)


def _magnitude(x):
    """|x| as a float; an exact value too large for a float is inf."""
    try:
        return abs(float(x))
    except OverflowError:
        return math.inf


def _graph_defect_norm(lam):
    """|tau| on the graph frame of ``lam``: the root of the sum of the
    squares of its seven components (tau_graph_components), summed in the
    tilt's own arithmetic and rounded once, exact on an exact tilt.  A tilt
    past float range gives an inf or nan norm, which fails its check."""
    with np.errstate(over="ignore", invalid="ignore"):
        mixed, diagonal = tau_graph_components(lam)
    return math.sqrt(_magnitude(sum(c * c for c in mixed + diagonal)))


_GRAPH_TOL = 1e-8  # each graph equation's bound, in the suite and on a FILE


def _graph_report_checks(lam):
    eqs = [_magnitude(e) for e in tau_system(lam)]
    quads = [_magnitude(q) for q in residual_quadratics(lam)]
    defect = _graph_defect_norm(lam)
    yield Check("graph:system-residuals", "graph-defect:mixed-components",
                "bound", _worst(eqs), _GRAPH_TOL, details={"components": eqs})
    yield Check("graph:quadratic-residuals", "graph-defect:diagonal-components",
                "bound", _worst(quads), _GRAPH_TOL,
                details={"components": quads})
    yield Check("graph:defect-norm", "graph-defect:total",
                "bound", defect, _GRAPH_TOL * 10)
    plane = OrientedPlane.from_rows(orthonormal_rows(graph_frame(lam)))
    verdict = is_cayley(phi0(backend=FLOAT), plane)
    yield _cayley_verdict_check(
        "graph:cayley-verdict", "cayley-criterion:graph-form", verdict,
        holds=verdict.is_cayley == (_worst(eqs + quads) <= _GRAPH_TOL))


def graph_verify(path, backend=FLOAT):
    lam = _lambda_from_file(path, backend)
    return _assemble("graph-verify", _COMMANDS["graph-verify"][2],
                     {"backend": backend}, _graph_report_checks(lam))


def graph_solve(path, backend=FLOAT, seed=0):
    if path is not None:
        start = _lambda_from_file(path, backend)
    else:
        check_integer(seed, "seed")
        start = random_graph_coefficients(_rng(seed, 6), radius=0.25)
        if backend == EXACT:  # a float's Fraction is exact (dyadic)
            start = GraphCoefficients(
                [list(map(Fraction, row)) for row in start.entries], EXACT)
    try:
        sol = solve_tau_system(start)
    except ValidationError as exc:
        sol, residual, details = None, None, {"error": str(exc)}
    else:
        residual = max(abs(float(e)) for e in tau_system(sol))
        details = {"solution": [[float(x) for x in row] for row in sol.entries]}
    checks = [Check(
        "newton:converged", "graph-defect:solvability",
        None, residual, 1e-12, details=details, holds=sol is not None)]
    if sol is not None:
        checks += _graph_report_checks(sol)
    mode = _COMMANDS["graph-solve"][1 + (path is not None)]
    return _assemble("graph-solve", mode, {"backend": backend, "seed": seed},
                     checks)


def index_report(sign=None, euler=None, self_int=None,
                 c1sq=None, c2=None, c2nu=None):
    topo_given = any(v is not None for v in (sign, euler, self_int))
    chern_given = any(v is not None for v in (c1sq, c2, c2nu))
    checks = []
    topo_idx = chern_idx = None
    if topo_given:
        if None in (sign, euler, self_int):
            raise InputFormatError(
                "need all of --sign --euler --self-int together")
        inv = TopologicalInvariants(sign, euler, self_int)
        topo_idx = index_from_topology(inv)
        checks.append(Check(
            "index:from-topology", "expected-dimension:topological-formula",
            None,
            details={"signature": sign, "euler": euler,
                     "self_intersection": self_int, "index": topo_idx}))
    if chern_given:
        if None in (c1sq, c2, c2nu):
            raise InputFormatError("need all of --c1sq --c2 --c2nu together")
        chern_idx = index_from_chern(c1sq, c2, c2nu)
        inv2 = invariants_from_chern(c1sq, c2, c2nu)
        checks.append(Check(
            "index:from-chern", "expected-dimension:chern-formula", None,
            details={"c1_squared": c1sq, "c2": c2, "c2_normal": c2nu,
                     "signature": inv2.signature, "euler": inv2.euler,
                     "self_intersection": inv2.self_intersection,
                     "index": chern_idx}))
    if topo_idx is not None and chern_idx is not None:
        checks.append(_route_agreement(abs(topo_idx - chern_idx)))
    return _assemble("index", _COMMANDS["index"][2], dict(zip(
        _INVARIANTS, (sign, euler, self_int, c1sq, c2, c2nu))), checks)


# entry point -------------------------------------------------------------------


def _cell(value):
    """A table cell: "-" for none, %.3e for a float, else the report's."""
    if value is None:
        return "-"
    if isinstance(value, float):
        return "%.3e" % value
    return str(value)


def _emit(report, json_path, quiet):
    doc = json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"
    if json_path:
        try:
            with open(json_path, "w", encoding="utf-8") as fh:
                fh.write(doc)
        except OSError as exc:
            print("cannot write %s: %s" % (json_path, exc), file=sys.stderr)
            return EXIT_UNREADABLE
        if not quiet:
            checks = report["checks"]
            width = max(len(c["name"]) for c in checks)
            for c in checks:
                print("%-6s %-*s residual=%-12s tol=%s" % (
                    c["status"].upper(), width, c["name"],
                    _cell(c["residual"]), _cell(c["tolerance"])))
            s = report["summary"]
            print("%s: %d pass, %d warn, %d fail -> %s" % (
                report["config"]["suite"], s["pass"], s["warn"], s["fail"],
                json_path))
    elif not quiet:
        sys.stdout.write(doc)
    return EXIT_OK if report["summary"]["fail"] == 0 else EXIT_CHECK_FAILED


def _parse_ladder(text):
    try:
        return tuple(float(t) for t in text.split(","))
    except ValueError:
        raise InputFormatError("bad --t-ladder %r" % (text,))


_INVARIANTS = ("sign", "euler", "self_int", "c1sq", "c2", "c2nu")

# why the graph commands take no --tol
_FIXED_GRAPH_TOL = ("; graph equations are judged at the fixed bound %g, that "
                    "of graph-system:newton-batch, so there is no --tol"
                    % _GRAPH_TOL)

# each subcommand's help, then what it reads without an input and, if it
# takes one, with it (a FILE, or for index the invariants): the suite it
# runs, or the options listed.  main refuses an option the run would not
# read, and a report's config is what its mode reads.  --json and --quiet
# go everywhere
_COMMANDS = {
    "verify-structure": ("exact identities of the calibration form",
                         "structure"),
    "classify-plane": ("classify a frame file or run the planes suite",
                       "planes", ("file", "tol", "reject")),
    "angles": ("canonical-angle checks", "angles"),
    "graph-verify": ("verify a tilt matrix or run the graphs suite"
                     + _FIXED_GRAPH_TOL, "graphs", ("file", "backend")),
    "graph-solve": ("solve the graph defect system" + _FIXED_GRAPH_TOL,
                    ("backend", "seed"), ("file", "backend")),
    "torus": ("flat-model operator checks", "torus"),
    "index": ("expected-dimension computations", "index", _INVARIANTS),
    "all": ("run every suite", "all"),
}

# how each option is declared, in help order
_OPTIONS = {
    "file": dict(nargs="?", default=None),
    "backend": dict(choices=(EXACT, FLOAT)),
    "tol": dict(type=float),
    "seed": dict(type=int),
    "samples": dict(type=int),
    "K": dict(type=int),
    "t_ladder": {},
    "reject": dict(action="store_true",
                   help="reject non-orthonormal frames instead of fixing"),
    **{name: dict(type=int) for name in _INVARIANTS},
}


def _flag(name):  # file is the positional
    return name if name == "file" else "--" + name.replace("_", "-")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cayleykit",
        description="Verification suites for calibrated four-plane geometry.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, *modes) in _COMMANDS.items():
        # an option left out stays absent, so main can tell it was not given
        p = sub.add_parser(name, help=help_text, description=help_text,
                           argument_default=argparse.SUPPRESS)
        for option, spec in _OPTIONS.items():
            if any(option in _reads(mode) for mode in modes):
                p.add_argument(_flag(option), **spec)
        p.add_argument("--json", dest="json_path", metavar="PATH")
        p.add_argument("--quiet", action="store_true")
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser()
    if argv and argv[0].startswith("-") and argv[0] not in ("-h", "--help"):
        parser.error("%s: options follow the subcommand" % (argv[0],))
    args = vars(parser.parse_args(argv))
    command, json_path, quiet, file = (
        args.pop(k, None) for k in ("command", "json_path", "quiet", "file"))
    _, *modes = _COMMANDS[command]
    with_input = file is not None or any(k in args for k in _INVARIANTS)
    mode = modes[with_input]
    unread = [_flag(k) for k in args if k not in _reads(mode)]
    if unread:
        run = command if len(modes) == 1 else "%s %s %s" % (
            command, "with" if with_input else "without",
            "invariants" if command == "index" else "a file")
        parser.error("%s does not read %s" % (run, " ".join(unread)))
    try:
        if "t_ladder" in args:
            args["t_ladder"] = _parse_ladder(args["t_ladder"])
        # options left out take the defaults of SuiteConfig or of the mode
        if isinstance(mode, str):  # a suite
            report = run_suite(SuiteConfig(suite=mode, **args))
        elif command == "index":
            report = index_report(**args)
        else:
            report = {"classify-plane": classify_plane,
                      "graph-verify": graph_verify,
                      "graph-solve": graph_solve}[command](file, **args)
    except OSError as exc:
        print("cannot read %s: %s" % (exc.filename, exc), file=sys.stderr)
        return EXIT_UNREADABLE
    except CayleykitError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_MALFORMED
    return _emit(report, json_path, quiet)


if __name__ == "__main__":
    sys.exit(main())
