"""End-to-end checks for the command line interface and suite runner."""

import argparse
import contextlib
import dataclasses
import io
import json
import math
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cayleykit
from cayleykit import EXACT, Multivector, cli, graphs, spin7
from cayleykit.cli import (
    EXIT_CHECK_FAILED,
    EXIT_MALFORMED,
    EXIT_OK,
    EXIT_UNREADABLE,
    EXIT_USAGE,
    Check,
    SuiteConfig,
    classify_plane,
    main,
    run_suite,
)
from cayleykit.errors import ValidationError

# -- suite runner ----------------------------------------------------------------------


def _cfg(**kw):
    return SuiteConfig(**kw)


def test_structure_suite_is_all_green():
    report = run_suite(_cfg(suite="structure"))
    assert report["summary"]["fail"] == 0
    assert report["summary"]["warn"] == 0
    assert report["summary"]["total"] >= 10


def test_checks_are_sorted_and_well_formed():
    report = run_suite(_cfg(suite="structure"))
    names = [c["name"] for c in report["checks"]]
    assert names == sorted(names)
    for c in report["checks"]:
        assert c["status"] in ("pass", "warn", "fail")
        assert c["name"] and c["claim"]


def test_planes_suite_small_sample():
    report = run_suite(_cfg(suite="planes", samples=40, seed=3))
    assert report["summary"]["fail"] == 0


def test_planes_suite_draws_its_pool_once(monkeypatch):
    # every check classifies the one pool, drawn by one stacked draw of the
    # Haar frames and one of the complex planes' unitaries: a second draw
    # for the complex detectors once made 40 Haar draws at 20 samples
    shapes = {name: [] for name in ("orthonormal_rows", "haar_unitary", "is_cayley",
                                    "is_complex_plane", "j_invariance_residual")}

    def recorded(name, original):
        def call(*args):
            shapes[name].append(getattr(args[-1], "shape", None))
            return original(*args)
        return call

    for name in shapes:
        monkeypatch.setattr(cli, name, recorded(name, getattr(cli, name)))
    report = run_suite(_cfg(suite="planes", samples=20, seed=3))
    assert shapes.pop("orthonormal_rows") == [(20, 4, 8)]
    assert shapes.pop("haar_unitary") == [(2, 2, 4, 4)]
    for name, got in shapes.items():
        # the pool in one call; the coordinate planes are OrientedPlanes
        assert [shape for shape in got if shape is not None] == [(22, 4, 8)], name
    assert report["summary"]["fail"] == 0


def _reference_checks(suite, seed):
    """The planes or angles suite's checks on the pool, recomputed by the
    one-plane-at-a-time loop the suites ran before they took stacks: each
    plane drawn by its sampler and classified by one-plane calls."""
    model = cayleykit.build_model(4, backend="float")
    if suite == "planes":
        Phi = spin7.phi_from_kahler(model)
        rng = cli._rng(seed, 1)
        pool = [(graphs.random_plane(8, 4, rng), False) for _ in range(200)]
        pool += [(graphs.random_complex_plane(model.J, 2, rng), True) for _ in range(20)]
        contradictions = hits = disagreements = 0
        for plane, built_complex in pool:
            verdict = spin7.is_cayley(Phi, plane)
            by_value = abs(verdict.phi_value - 1.0) < spin7.PHI_TOL
            contradictions += by_value != (verdict.tau_norm < spin7.TAU_TOL)
            hits += by_value
            sigma = graphs.is_complex_plane(model, plane)
            jres = graphs.j_invariance_residual(model.J, plane)
            disagreements += (sigma.is_complex != (jres < graphs.COMPLEX_TOL)
                              or (built_complex and not sigma.is_complex))
        return {"planes:calibration-defect-equivalence":
                (contradictions, {"planes": 220, "cayley_in_sample": hits}),
                "planes:complex-detector-agreement":
                (disagreements, {"planes": 220})}
    rng = cli._rng(seed, 3)
    errors = []
    for _ in range(100):
        target = np.sort(rng.uniform(0.1, 1.4, size=2))
        plane = graphs.plane_from_angles(model, tuple(target), rng)
        errors.extend(np.abs(np.array(graphs.canonical_angles(model, plane).angles)
                             - target))
    angles = []
    for _ in range(10):
        plane = graphs.random_complex_plane(model.J, 2, rng)
        angles.extend(graphs.canonical_angles(model, plane).angles)
    return {"angles:round-trip": (max(errors), {"planes": 100}),
            "angles:complex-plane-zeros":
            (max(np.abs(angles)),
             {"cosine_defect": max(1.0 - np.cos(a) for a in angles)})}


@pytest.mark.parametrize("seed", [42, 1, 7])
@pytest.mark.parametrize("suite", ["planes", "angles"])
def test_stacked_suites_match_the_one_plane_loop(suite, seed):
    rows = {c["name"]: c for c in run_suite(_cfg(suite=suite, seed=seed))["checks"]}
    for name, (residual, details) in _reference_checks(suite, seed).items():
        assert (rows[name]["residual"], rows[name]["details"]) == (residual, details), name


def test_graphs_suite_small_sample():
    report = run_suite(_cfg(suite="graphs", samples=40, seed=3))
    assert report["summary"]["fail"] == 0


def test_angles_suite_small_sample():
    report = run_suite(_cfg(suite="angles", samples=40, seed=3))
    assert report["summary"]["fail"] == 0


def _nan_grade(rec):
    """The last angle NaN: of one plane's tuple, or of the second plane of a
    stack's (P, p) array, so that the NaN is not a maximum's first value."""
    if isinstance(rec.angles, tuple):
        return dataclasses.replace(rec, angles=rec.angles[:-1] + (math.nan,))
    angles = rec.angles.copy()
    angles[1, -1] = math.nan
    return dataclasses.replace(rec, angles=angles)


# (suite, function cli calls, its result made NaN, calls made NaN, checks):
# a NaN after the first value of a maximum must still reach the residual
_NAN_CASES = [
    ("graphs", "hook_coefficient_oracle", lambda r: math.nan, {1},
     ["complex-graph:first-order-system"]),
    ("graphs", "cr_residual", lambda r: math.nan, {1},
     ["complex-graph:cauchy-riemann"]),
    # the six exact tilts of the component identity come first, then the
    # Newton solutions: the second solution's last component
    ("graphs", "tau_graph_components", lambda c: (c[0], c[1][:-1] + (math.nan,)),
     {7}, ["graph-system:newton-batch"]),
    # the 10 round trips and the 10 complex planes, each one stack, then
    # the isotropic plane
    ("angles", "canonical_angles", _nan_grade, {0, 1, 2},
     ["angles:round-trip", "angles:complex-plane-zeros",
      "angles:isotropic-right-angles"]),
]


@pytest.mark.parametrize("suite, name, make_nan, calls, checks", _NAN_CASES)
def test_a_nan_residual_fails_its_check(monkeypatch, suite, name, make_nan,
                                        calls, checks):
    original = getattr(cli, name)
    count = iter(range(1000))

    def patched(*args, **kw):
        out = original(*args, **kw)
        return make_nan(out) if next(count) in calls else out

    monkeypatch.setattr(cli, name, patched)
    report = run_suite(_cfg(suite=suite, samples=20, seed=3))
    rows = {c["name"]: c for c in report["checks"]}
    for check in checks:
        assert rows[check]["status"] == "fail", check
        assert rows[check]["residual"] == "nan", check


# negative controls: each corrupts the coordinate planes the planes and
# angles suites share, and exactly the checks reading that plane must fail
_PLANE_CORRUPTIONS = [
    ({"_COMPLEX_PLANE": cli._LAGRANGIAN_PLANE,
      "_LAGRANGIAN_PLANE": cli._COMPLEX_PLANE},
     {"planes:standard-complex-plane", "planes:special-lagrangian-plane",
      "angles:isotropic-right-angles"}),
    ({"_COUNTER_PLANE": cli.OrientedPlane.from_rows(np.eye(4)[:2])},
     {"planes:half-dimension-counterexample"}),
]


@pytest.mark.parametrize("planes, failing", _PLANE_CORRUPTIONS,
                         ids=["swapped-r8-planes", "complex-counterexample"])
def test_corrupted_coordinate_planes_fail_their_checks(monkeypatch, planes,
                                                       failing):
    for name, plane in planes.items():
        monkeypatch.setattr(cli, name, plane)
    statuses = {}
    for suite in ("planes", "angles"):
        report = run_suite(_cfg(suite=suite, samples=20, seed=3))
        statuses.update((c["name"], c["status"]) for c in report["checks"])
    assert {n for n, status in statuses.items() if status == "fail"} == failing
    assert {status for n, status in statuses.items()
            if n not in failing} == {"pass"}


def test_disagreeing_pi7_routes_fail_a_check(monkeypatch, capsys):
    # one negated coefficient makes the two pi7 routes disagree: the
    # structure suite reports that as a failed check, not as bad input
    terms = dict(spin7.PHI0_TERMS)
    first = min(terms)
    terms[first] = -terms[first]
    monkeypatch.setattr(cli, "phi0", lambda backend=EXACT: spin7.CayleyForm(
        Multivector(8, terms, backend)))
    report = run_suite(_cfg(suite="structure"))
    rows = {c["name"]: c for c in report["checks"]}
    scalar = rows["two-forms:projection-scalar"]
    assert scalar["status"] == "fail"
    assert scalar["residual"] is None
    assert "not proportional" in scalar["details"]["error"]
    assert main(["verify-structure", "--quiet"]) == EXIT_CHECK_FAILED
    assert capsys.readouterr().out == ""


def test_index_suite():
    report = run_suite(_cfg(suite="index"))
    assert report["summary"]["fail"] == 0
    assert report["summary"]["warn"] == 0


def test_torus_suite_small_cutoff():
    report = run_suite(_cfg(suite="torus", K=1, samples=40, seed=3))
    assert report["summary"]["fail"] == 0


def test_report_is_json_serializable_with_exact_entries():
    report = run_suite(_cfg(suite="structure"))
    doc = json.dumps(report, sort_keys=True)
    assert "structure" in doc


def test_config_echo_round_trips():
    # the index suite reads the seed and not the sample count
    cfg = _cfg(suite="index", seed=11, samples=50)
    report = run_suite(cfg)
    assert report["config"] == {"suite": "index", "seed": 11}


# -- check records -----------------------------------------------------------------------


def _status(kind, residual, tolerance=1e-9, **kw):
    return Check("name", "claim", kind, residual, tolerance, **kw).status


@pytest.mark.parametrize("kind, status", [
    ("exact", "pass"), ("below", "fail"), ("bound", "pass"), ("floor", "pass"),
])
def test_check_status_at_the_tolerance(kind, status):
    assert _status(kind, 1e-9) == status


@pytest.mark.parametrize("kind, under, over", [
    ("exact", "fail", "fail"), ("below", "pass", "fail"),
    ("bound", "pass", "fail"), ("floor", "fail", "pass"),
])
def test_check_status_one_ulp_either_side(kind, under, over):
    assert _status(kind, math.nextafter(1e-9, 0.0)) == under
    assert _status(kind, math.nextafter(1e-9, 1.0)) == over


def test_exact_check_compares_rationals_and_counts():
    assert _status("exact", 0, 0) == "pass"
    assert _status("exact", Fraction(0), 0) == "pass"
    assert _status("exact", Fraction(1, 10**30), 0) == "fail"
    assert _status("exact", -1, 0) == "fail"


@pytest.mark.parametrize("kind", ["exact", "below", "bound", "floor"])
def test_nan_residual_fails_every_comparing_kind(kind):
    assert _status(kind, math.nan) == "fail"
    assert _status(kind, math.nan, warn=True) == "fail"


def test_infinite_residual_passes_only_a_floor():
    assert _status("floor", math.inf, 1e6) == "pass"
    for kind in ("exact", "below", "bound"):
        assert _status(kind, math.inf, 1e6) == "fail"


def test_uncompared_numbers_decide_nothing():
    for residual in (None, math.nan, math.inf, 1e300):
        assert _status(None, residual) == "pass"


@pytest.mark.parametrize("kind, residual, tolerance", [
    (None, None, None), ("exact", 0, 0), ("below", 0.0, 1e-9),
    ("bound", 0.0, 1e-9), ("floor", 1.0, 1e-9),
])
def test_holds_false_fails_whatever_the_numbers(kind, residual, tolerance):
    assert _status(kind, residual, tolerance) == "pass"
    assert _status(kind, residual, tolerance, holds=False) == "fail"
    assert _status(kind, residual, tolerance, holds=False, warn=True) == "fail"


def test_warn_downgrades_a_pass_and_never_a_fail():
    assert _status("bound", 0.0, warn=True) == "warn"
    assert _status(None, None, warn=True) == "warn"
    assert _status("bound", 1.0, warn=True) == "fail"
    assert _status("bound", 0.0, holds=False, warn=True) == "fail"


# the suite checks whose pass rule holds more than residual against tolerance
_SUITE_HOLDS = {
    "two-forms:projection-scalar",
    "planes:standard-complex-plane",
    "planes:special-lagrangian-plane",
    "planes:half-dimension-counterexample",
    "graph-system:newton-batch",
    "complex-graph:cauchy-riemann",
    "torus:adjoint-pairing",
    "torus:operator-index",
    "torus:linearization-slope",
    "torus:complex-kernel-match",
}

# each kind's comparison, written out apart from cli's own table
_KIND_HOLDS = {
    None: lambda r, t: True,
    "exact": lambda r, t: r == t,
    "below": lambda r, t: r < t,
    "bound": lambda r, t: r <= t,
    "floor": lambda r, t: r >= t,
}


def test_seeded_report_statuses_follow_from_the_records(monkeypatch):
    made = {}

    def recording(*args, **kw):
        check = Check(*args, **kw)
        holds_given = len(args) > 6 or "holds" in kw
        made[check.name] = (check, holds_given)
        return check

    monkeypatch.setattr(cli, "Check", recording)
    report = run_suite(_cfg(suite="all", seed=42))
    assert len(made) == len(report["checks"]) == 35
    for row in report["checks"]:
        check, _ = made[row["name"]]
        if not (check.holds and _KIND_HOLDS[check.kind](check.residual,
                                                        check.tolerance)):
            want = "fail"
        else:
            want = "warn" if check.warn else "pass"
        assert row["status"] == want, row["name"]
        # the numbers printed are the numbers compared
        assert row["residual"] == cli._num(check.residual)
        assert row["tolerance"] == cli._num(check.tolerance)
    assert {name for name, (_, given) in made.items() if given} == _SUITE_HOLDS
    assert report["summary"] == {"pass": 34, "warn": 1, "fail": 0, "total": 35}
    warned = [c["name"] for c in report["checks"] if c["status"] == "warn"]
    assert warned == ["torus:linearization-slope"]


# -- exit codes through main() ---------------------------------------------------------


def test_main_verify_structure_exits_zero(capsys):
    assert main(["verify-structure", "--quiet"]) == EXIT_OK
    assert capsys.readouterr().out == ""


def test_main_writes_json_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["index", "--json", str(out), "--quiet"])
    assert code == EXIT_OK
    report = json.loads(out.read_text())
    assert report["tool"] == "cayleykit"
    assert report["summary"]["fail"] == 0
    # with no flags the config is SuiteConfig's default for the one
    # setting the index suite reads
    assert report["config"] == {"suite": "index", "seed": 0}
    capsys.readouterr()


def test_same_seed_gives_identical_reports(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code = main(["angles", "--seed", "7", "--samples", "30",
                     "--json", str(path), "--quiet"])
        assert code == EXIT_OK
    assert a.read_bytes() == b.read_bytes()
    capsys.readouterr()


def test_json_run_prints_the_per_check_table(tmp_path, capsys):
    loud, quiet = tmp_path / "loud.json", tmp_path / "quiet.json"
    argv = ["torus", "--K", "1", "--samples", "5"]
    assert main(argv + ["--json", str(loud)]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert main(argv + ["--json", str(quiet), "--quiet"]) == EXIT_OK
    assert capsys.readouterr().out == ""
    assert loud.read_bytes() == quiet.read_bytes()
    report = json.loads(loud.read_text())
    # one line per check in report order, then the summary line
    assert len(lines) == len(report["checks"]) + 1
    for line, c in zip(lines, report["checks"]):
        assert line.split()[:2] == [c["status"].upper(), c["name"]]
    s = report["summary"]
    assert lines[-1] == "torus: %d pass, %d warn, %d fail -> %s" % (
        s["pass"], s["warn"], s["fail"], loud)


def test_unwritable_json_path_prints_nothing(tmp_path, capsys):
    # a directory cannot be opened for writing, so no table is printed
    assert main(["index", "--json", str(tmp_path)]) == EXIT_UNREADABLE
    out, err = capsys.readouterr()
    assert out == ""
    assert "cannot write" in err


def test_classify_plane_without_a_file_runs_the_planes_suite(tmp_path,
                                                             capsys):
    out = tmp_path / "planes.json"
    argv = ["classify-plane", "--seed", "3", "--samples", "20",
            "--json", str(out), "--quiet"]
    assert main(argv) == EXIT_OK
    suite = run_suite(_cfg(suite="planes", seed=3, samples=20))
    assert json.loads(out.read_text())["checks"] == suite["checks"]
    capsys.readouterr()


def test_angles_takes_no_frame_file(capsys):
    # classify-plane reads frame files; angles only runs its suite
    with pytest.raises(SystemExit) as exc:
        main(["angles", "frame.txt"])
    assert exc.value.code == 2
    assert "unrecognized arguments: frame.txt" in capsys.readouterr().err


def test_seeded_report_is_strict_json(tmp_path, capsys):
    out = tmp_path / "all.json"
    main(["all", "--seed", "42", "--json", str(out), "--quiet"])
    capsys.readouterr()
    report = _strict_json(out.read_text())
    by_name = {c["name"]: c for c in report["checks"]}
    # the flat torus has no dropped singular value: an infinite gap
    assert by_name["torus:spectral-gap"]["residual"] == "inf"


def test_module_entry_point_loads_cli_once(tmp_path, cli_env):
    # runpy warns when the package import has already loaded cayleykit.cli,
    # which then executes a second time as __main__
    out = tmp_path / "index.json"
    proc = subprocess.run(
        [sys.executable, "-m", "cayleykit.cli", "index", "--json", str(out)],
        capture_output=True, text=True, cwd=str(tmp_path), timeout=120,
        env=cli_env)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert "found in sys.modules" not in proc.stderr


def test_public_names_resolve():
    # SuiteConfig and run_suite come through the lazy loader
    for name in cayleykit.__all__:
        assert getattr(cayleykit, name) is not None, name


def test_unreadable_file_exit_code(tmp_path, capsys):
    missing = tmp_path / "nope.txt"
    assert main(["classify-plane", str(missing)]) == EXIT_UNREADABLE
    capsys.readouterr()


def test_malformed_number_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("1 0 zebra 0\n0 1 0 0\n")
    assert main(["classify-plane", str(bad)]) == EXIT_MALFORMED
    capsys.readouterr()


_HUGE_FRAME = ("1e400 0 0 0 0 0 0 0\n0 1 0 0 0 0 0 0\n"
               "0 0 1 0 0 0 0 0\n0 0 0 1 0 0 0 0\n")
_HUGE_TILT = "1e400 0 0 0\n" + "0 0 0 0\n" * 3


@pytest.mark.parametrize("argv, text", [
    (["classify-plane"], _HUGE_FRAME),
    (["graph-verify"], _HUGE_TILT),
    (["graph-verify", "--backend", "exact"], _HUGE_TILT),
    (["graph-solve"], _HUGE_TILT),
], ids=["classify-plane", "graph-verify", "graph-verify-exact", "graph-solve"])
def test_overflowing_number_exit_code(tmp_path, cli_env, argv, text):
    # an entry too large for a float is malformed input, not a crash
    bad = tmp_path / "huge.txt"
    bad.write_text(text)
    proc = subprocess.run(
        [sys.executable, "-m", "cayleykit.cli", *argv, str(bad), "--quiet"],
        capture_output=True, text=True, cwd=str(tmp_path), timeout=120,
        env=cli_env)
    assert proc.returncode == EXIT_MALFORMED, proc.stderr
    assert "Traceback" not in proc.stderr


def _strict_json(text):
    def refuse(token):
        raise ValueError("non-strict JSON token %s" % (token,))
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("argv, text, failing, residual", [
    (["graph-solve"], "1e200 0 0 0\n" + "0 0 0 0\n" * 3,
     "newton:converged", None),
    (["graph-verify", "--backend", "exact"],
     "1e300 1e300 0 0\n0 1e300 1e300 0\n0 0 1e300 0\n0 0 0 0\n",
     "graph:system-residuals", "inf"),
    (["graph-verify"],
     "1e300 1e300 0 0\n0 1e300 1e300 0\n0 0 1e300 0\n0 0 0 0\n",
     "graph:defect-norm", "nan"),
    # nan only after a 0 in the components: a running max would read 0
    (["graph-verify"],
     "0 0 -1e200 1e200\n0 0 0 0\n1e200 1e200 0 0\n0 1e200 0 0\n",
     "graph:system-residuals", "nan"),
], ids=["graph-solve", "graph-verify-exact", "graph-verify", "graph-verify-nan"])
def test_overflowing_tilt_fails_a_check(tmp_path, cli_env, argv, text,
                                        failing, residual):
    # every entry fits a float, but the norm or the cubic residuals do not:
    # a failed check in a strict JSON report, not a crash
    tilt = tmp_path / "tilt.txt"
    tilt.write_text(text)
    proc = subprocess.run(
        [sys.executable, "-m", "cayleykit.cli", *argv, str(tilt)],
        capture_output=True, text=True, cwd=str(tmp_path), timeout=120,
        env=cli_env)
    assert proc.returncode == EXIT_CHECK_FAILED, proc.stderr
    assert "Traceback" not in proc.stderr
    by_name = {c["name"]: c for c in _strict_json(proc.stdout)["checks"]}
    assert by_name[failing]["status"] == "fail"
    assert by_name[failing]["residual"] == residual


# -- fuzzed frame and tilt files --------------------------------------------------------

# tokens no float check can use: not numbers, not finite, or past float range
_BAD_TOKENS = ("nan", "NaN", "-nan", "inf", "-inf", "Infinity", "1e400",
               "-1e400", "%d/3" % 10**400, "-%d/7" % 10**401, "1/0")
_ENTRIES = st.integers(-5, 5)


@st.composite
def _corrupted(draw, rows, cols, rank_deficient):
    """A rows x cols text matrix of small integers, broken one way: a bad
    token, a ragged row, or (frames only) one row a multiple of another."""
    grid = [[str(draw(_ENTRIES)) for _ in range(cols)] for _ in range(rows)]
    kinds = ["token", "ragged"] + (["rank"] if rank_deficient else [])
    kind = draw(st.sampled_from(kinds))
    i = draw(st.integers(0, rows - 1))
    if kind == "token":
        grid[i][draw(st.integers(0, cols - 1))] = draw(st.sampled_from(_BAD_TOKENS))
    elif kind == "ragged":
        grid[i] = grid[i][:-1] if draw(st.booleans()) else grid[i] + ["0"]
    else:
        j = draw(st.integers(0, rows - 1).filter(lambda j: j != i))
        a = draw(_ENTRIES)
        grid[i] = [str(a * int(x)) for x in grid[j]]
    return "".join(" ".join(row) + "\n" for row in grid)


def _exit_code(argv):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@settings(max_examples=60, deadline=None)
@given(text=_corrupted(4, 8, rank_deficient=True))
def test_fuzzed_frame_file_exits_malformed(text, tmp_path_factory):
    frame = tmp_path_factory.mktemp("frame") / "frame.txt"
    frame.write_text(text)
    assert _exit_code(["classify-plane", str(frame), "--quiet"]) == EXIT_MALFORMED


@settings(max_examples=60, deadline=None)
@given(text=_corrupted(4, 4, rank_deficient=False),
       backend=st.sampled_from(["float", "exact"]))
def test_fuzzed_tilt_file_exits_malformed(text, backend, tmp_path_factory):
    tilt = tmp_path_factory.mktemp("tilt") / "tilt.txt"
    tilt.write_text(text)
    argv = ["graph-verify", "--backend", backend, str(tilt), "--quiet"]
    assert _exit_code(argv) == EXIT_MALFORMED


_FILE_COMMANDS = ["classify-plane", "graph-verify", "graph-solve"]


@pytest.mark.parametrize("command", _FILE_COMMANDS)
def test_missing_or_directory_file_exits_unreadable(command, tmp_path, capsys):
    for path in (str(tmp_path / "nope.txt"), str(tmp_path)):
        assert main([command, path]) == EXIT_UNREADABLE
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("cannot read %s: " % (path,))


# a frame or tilt file that is not UTF-8 text
_NOT_UTF8 = b"\xff\xfe 1 0\n"


@pytest.mark.parametrize("command", _FILE_COMMANDS)
def test_non_utf8_file_exits_malformed(command, tmp_path, capsys):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(_NOT_UTF8)
    assert main([command, str(bad)]) == EXIT_MALFORMED
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and str(bad) in err


def test_non_utf8_file_prints_no_traceback(tmp_path, cli_env):
    # the decode error escaped main as a traceback with exit 1, the code
    # of a failed check
    bad = tmp_path / "bad.bin"
    bad.write_bytes(_NOT_UTF8)
    proc = subprocess.run(
        [sys.executable, "-m", "cayleykit.cli", "graph-verify", str(bad)],
        capture_output=True, text=True, cwd=str(tmp_path), timeout=120,
        env=cli_env)
    assert proc.returncode == EXIT_MALFORMED, proc.stderr
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr


def test_classify_plane_lets_the_open_error_through(tmp_path):
    # main, not the library call, turns it into exit 3
    with pytest.raises(FileNotFoundError):
        classify_plane(str(tmp_path / "nope.txt"))


@pytest.mark.parametrize("command", ["graph-verify", "graph-solve"])
def test_graph_help_says_why_there_is_no_tol(command, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "400")  # no line breaks inside a name
    with pytest.raises(SystemExit):
        main([command, "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert "fixed bound %g" % cli._GRAPH_TOL in help_text
    assert "graph-system:newton-batch" in help_text


def test_ragged_rows_exit_code(tmp_path, capsys):
    bad = tmp_path / "ragged.txt"
    bad.write_text("1 0 0 0\n0 1 0\n")
    assert main(["classify-plane", str(bad)]) == EXIT_MALFORMED
    capsys.readouterr()


def test_odd_dimensions_exit_code(tmp_path, capsys):
    bad = tmp_path / "odd.txt"
    bad.write_text("1 0 0\n0 1 0\n")
    assert main(["classify-plane", str(bad)]) == EXIT_MALFORMED
    capsys.readouterr()


def test_reject_flag_refuses_skewed_frame(tmp_path, capsys):
    skew = tmp_path / "skew.txt"
    skew.write_text(
        "2 0 0 0 0 0 0 0\n0 1 0 0 0 0 0 0\n"
        "0 0 1 0 0 0 0 0\n0 0 0 1 0 0 0 0\n")
    assert main(["classify-plane", str(skew), "--reject"]) == EXIT_MALFORMED
    capsys.readouterr()


def test_skewed_frame_is_fixed_and_warned(tmp_path):
    skew = tmp_path / "skew.txt"
    skew.write_text(
        "2 0 0 0 0 0 0 0\n0 1 0 0 0 0 0 0\n"
        "0 0 1 0 0 0 0 0\n0 0 0 1 0 0 0 0\n")
    report = classify_plane(str(skew))
    by_name = {c["name"]: c for c in report["checks"]}
    ortho = by_name["input:orthonormality"]
    assert ortho["status"] == "warn"
    assert ortho["details"]["action"] == "orthonormalized"
    assert by_name["plane:complex"]["details"]["is_complex"] is True


def test_rank_deficient_frame_is_malformed(tmp_path, capsys):
    # two equal rows: QR would hand back an arbitrary plane
    flat = tmp_path / "flat.txt"
    flat.write_text(
        "1 0 0 0 0 0 0 0\n1 0 0 0 0 0 0 0\n"
        "0 0 1 0 0 0 0 0\n0 0 0 1 0 0 0 0\n")
    assert main(["classify-plane", str(flat)]) == EXIT_MALFORMED
    assert "rank 3 < 4" in capsys.readouterr().err


@pytest.mark.parametrize("second, code", [
    ("0 1 0 0 0 0 0 0", EXIT_OK),
    ("0 0 0 0 0 0 0 0", EXIT_MALFORMED),
    ("2 0 0 0 0 0 0 0", EXIT_MALFORMED),
], ids=["spanning", "zero-row", "multiple-row"])
def test_rank_test_ignores_row_lengths(second, code, tmp_path, capsys):
    # a row 1e15 long beside unit rows: the rank counts directions, not
    # lengths, so only a zero row or a repeated direction is refused
    frame = tmp_path / "long.txt"
    frame.write_text("1e15 0 0 0 0 0 0 0\n" + second + "\n"
                     "0 0 1 0 0 0 0 0\n0 0 0 1 0 0 0 0\n")
    out = tmp_path / "report.json"
    assert main(["classify-plane", str(frame), "--json", str(out),
                 "--quiet"]) == code
    capsys.readouterr()
    if code == EXIT_OK:
        by_name = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
        assert by_name["plane:calibration"]["details"]["is_cayley"] is True


def test_full_rank_skewed_frame_is_orthonormalized(tmp_path, capsys):
    skew = tmp_path / "skew.txt"
    skew.write_text(
        "1 1 0 0 0 0 0 0\n0 1 0 0 0 0 0 0\n"
        "0 0 1 0 0 0 0 0\n0 0 1 3 0 0 0 0\n")
    out = tmp_path / "report.json"
    code = main(["classify-plane", str(skew), "--json", str(out), "--quiet"])
    assert code == EXIT_OK
    capsys.readouterr()
    by_name = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
    assert by_name["input:orthonormality"]["details"]["action"] == "orthonormalized"
    # the rows span the coordinate plane e1..e4
    assert by_name["plane:calibration"]["details"]["is_cayley"] is True


@pytest.mark.parametrize("rows", [
    # same-sign entries: the Gram products overflow to inf
    ["1e300 0 0 0 0 0 0 0", "0 1e300 0 0 0 0 0 0",
     "0 0 1e300 0 0 0 0 0", "0 0 0 1e300 0 0 0 0"],
    # mixed-sign rows: an off-diagonal Gram entry is inf + (-inf) = nan
    ["1e300 1e300 0 0 0 0 0 0", "1e300 -1e300 0 0 0 0 0 0",
     "0 0 0 0 1e300 1e300 0 0", "0 0 0 0 1e300 -1e300 0 0"],
], ids=["same-sign", "mixed-sign"])
def test_huge_entry_frame_is_orthonormalized_quietly(rows, tmp_path, cli_env):
    huge = tmp_path / "huge.txt"
    huge.write_text("\n".join(rows) + "\n")
    out = tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, "-m", "cayleykit.cli", "classify-plane", str(huge),
         "--json", str(out), "--quiet"],
        capture_output=True, text=True, cwd=str(tmp_path), timeout=120,
        env=cli_env)
    assert proc.returncode == EXIT_OK
    assert proc.stderr == ""
    by_name = {c["name"]: c for c in _strict_json(out.read_text())["checks"]}
    ortho = by_name["input:orthonormality"]
    assert (ortho["residual"], ortho["status"]) == ("inf", "warn")
    assert ortho["details"]["action"] == "orthonormalized"
    # both frames span complex coordinate planes
    assert by_name["plane:complex"]["details"]["is_complex"] is True
    proc = subprocess.run(
        [sys.executable, "-m", "cayleykit.cli", "classify-plane", str(huge),
         "--reject", "--quiet"],
        capture_output=True, text=True, cwd=str(tmp_path), timeout=120,
        env=cli_env)
    assert proc.returncode == EXIT_MALFORMED
    assert "Warning" not in proc.stderr


def test_classify_coordinate_complex_plane(tmp_path):
    frame = tmp_path / "c2.txt"
    frame.write_text(
        "1 0 0 0 0 0 0 0\n0 1 0 0 0 0 0 0\n"
        "0 0 1 0 0 0 0 0\n0 0 0 1 0 0 0 0\n")
    report = classify_plane(str(frame))
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["plane:complex"]["details"]["is_complex"] is True
    calib = by_name["plane:calibration"]
    assert calib["details"]["is_cayley"] is True
    assert abs(calib["details"]["calibration_value"] - 1.0) < 1e-12


@pytest.mark.parametrize("tol", [1e-9, 1e-3, 0.5, 5.0])
@pytest.mark.parametrize("first, value", [("1 0", 1.0), ("0 1", -1.0)],
                         ids=["cayley", "reversed"])
def test_classify_plane_tol_leaves_the_cayley_verdict_alone(tmp_path, tol,
                                                            first, value):
    # the reversed frame e2, e1, e3, e4 has calibration value -1; a value
    # bound that followed --tol once called it Cayley from tol 2 on
    frame = tmp_path / "frame.txt"
    frame.write_text(first + " 0 0 0 0 0 0\n" + first[::-1] + " 0 0 0 0 0 0\n"
                     "0 0 1 0 0 0 0 0\n0 0 0 1 0 0 0 0\n")
    calib, = [c for c in classify_plane(str(frame), tol=tol)["checks"]
              if c["name"] == "plane:calibration"]
    assert calib["details"]["calibration_value"] == value
    assert calib["details"]["is_cayley"] is (value == 1.0)


@pytest.mark.parametrize("tol", [1e-9, 1e-3, 0.5, 1.0, 5.0])
@pytest.mark.parametrize("axes, is_complex", [((0, 2, 4, 6), False),
                                              ((0, 1, 2, 3), True)],
                         ids=["lagrangian", "complex"])
def test_classify_plane_tol_leaves_the_complex_verdict_alone(tmp_path, tol,
                                                             axes, is_complex):
    # a minor of unit rows is at most 1 in size, so a complex bound that
    # followed --tol once called e1, e3, e5, e7 complex from tol 1 on
    frame = tmp_path / "frame.txt"
    frame.write_text("".join(" ".join("1" if c == a else "0" for c in range(8))
                             + "\n" for a in axes))
    cx, = [c for c in classify_plane(str(frame), tol=tol)["checks"]
           if c["name"] == "plane:complex"]
    assert cx["details"]["is_complex"] is is_complex
    assert (cx["status"], cx["tolerance"]) == ("pass", graphs.COMPLEX_TOL)


def test_classify_half_dimensional_counterexample(tmp_path):
    frame = tmp_path / "line.txt"
    frame.write_text("1 0 0 0\n0 0 0 1\n")
    report = classify_plane(str(frame))
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["plane:complex"]["details"]["is_complex"] is False
    assert "plane:calibration" not in by_name


def test_fraction_tokens_and_comments_accepted(tmp_path, capsys):
    frame = tmp_path / "frac.txt"
    frame.write_text(
        "# a coordinate plane with exact entries\n"
        "3/5 4/5 0 0 0 0 0 0\n-4/5 3/5 0 0 0 0 0 0\n"
        "0 0 1 0 0 0 0 0\n0 0 0 1 0 0 0 0\n")
    assert main(["classify-plane", str(frame), "--quiet"]) == EXIT_OK
    capsys.readouterr()


def test_a_frame_file_of_comments_only_exits_malformed(tmp_path, capsys):
    frame = tmp_path / "empty.txt"
    frame.write_text("# no rows here\n")
    assert main(["classify-plane", str(frame)]) == EXIT_MALFORMED
    out, err = capsys.readouterr()
    assert out == "" and "no data rows in %s" % frame in err


def test_classify_plane_table_shows_a_dash_for_no_residual(tmp_path, capsys):
    frame = tmp_path / "frame.txt"
    frame.write_text("".join(" ".join("1" if j == i else "0" for j in range(8))
                             + "\n" for i in range(4)))
    assert main(["classify-plane", str(frame),
                 "--json", str(tmp_path / "plane.json")]) == EXIT_OK
    line, = [row for row in capsys.readouterr().out.splitlines()
             if "plane:canonical-angles" in row]
    assert "residual=- " in line and line.endswith("tol=-")


def test_graph_verify_solution_file(tmp_path, capsys):
    tilt = tmp_path / "zero.txt"
    tilt.write_text("\n".join("0 0 0 0" for _ in range(4)) + "\n")
    assert main(["graph-verify", str(tilt), "--quiet"]) == EXIT_OK
    capsys.readouterr()


# the exactly calibrated tilt CI verifies on the exact backend
_EXACT_TILT = ("1/2 -1/3 1/4 2/5\n-1/3 -1/2 2/5 -1/4\n"
               "1/5 0 -1/2 1/3\n0 -1/5 1/3 1/2\n")


def test_graph_verify_reads_an_exact_defect_norm_on_an_exact_tilt(tmp_path):
    tilt = tmp_path / "tilt.txt"
    tilt.write_text(_EXACT_TILT)
    report = cli.graph_verify(str(tilt), backend=EXACT)
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["graph:defect-norm"]["residual"] == 0.0
    assert report["summary"]["fail"] == 0


def test_graph_defect_norm_is_tau_evals_exactly():
    # seven_basis is orthonormal, so the squares of the seven components sum
    # to |tau|^2 exactly, and the report's norm is tau_eval's, rounded once
    rng = np.random.default_rng(40)
    Phi = spin7.phi0(EXACT)
    for _ in range(6):
        lam = cli._random_exact_lambda(rng)
        mixed, diagonal = graphs.tau_graph_components(lam)
        value = spin7.tau_eval(Phi, *graphs.graph_frame(lam))
        assert sum(c * c for c in mixed + diagonal) == spin7.tau_norm_sq(value)
        assert cli._graph_defect_norm(lam) == spin7.tau_norm(value) > 0


def test_graph_verify_non_solution_fails(tmp_path, capsys):
    tilt = tmp_path / "tilt.txt"
    tilt.write_text("\n".join("0.05 0.05 0.05 0.05" for _ in range(4)) + "\n")
    assert main(["graph-verify", str(tilt)]) == EXIT_CHECK_FAILED
    capsys.readouterr()


def test_graph_verify_wrong_shape(tmp_path, capsys):
    tilt = tmp_path / "small.txt"
    tilt.write_text("0 0\n0 0\n")
    assert main(["graph-verify", str(tilt)]) == EXIT_MALFORMED
    capsys.readouterr()


def test_graph_solve_from_file(tmp_path, capsys):
    start = tmp_path / "start.txt"
    start.write_text("\n".join("0.04 -0.03 0.02 0.01" for _ in range(4)) + "\n")
    out = tmp_path / "sol.json"
    code = main(["graph-solve", str(start), "--json", str(out), "--quiet"])
    assert code == EXIT_OK
    report = json.loads(out.read_text())
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["newton:converged"]["status"] == "pass"
    sol = np.array(by_name["newton:converged"]["details"]["solution"])
    assert sol.shape == (4, 4)
    capsys.readouterr()


@pytest.mark.parametrize("from_file", [True, False], ids=["file", "seed"])
def test_graph_solve_exact_backend_solves_exactly(from_file, tmp_path, capsys):
    start = tmp_path / "start.txt"
    start.write_text("1/20 0 0 0\n0 1/50 0 0\n0 0 -3/100 0\n0 0 0 1/100\n")
    source = [str(start)] if from_file else ["--seed", "7"]
    out = tmp_path / "sol.json"
    argv = ["graph-solve", *source, "--backend", "exact", "--json", str(out),
            "--quiet"]
    assert main(argv) == EXIT_OK
    by_name = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
    for name in ("newton:converged", "graph:system-residuals",
                 "graph:quadratic-residuals"):
        assert by_name[name]["residual"] == 0, name
    capsys.readouterr()


def test_graph_solve_fails_a_start_past_its_radius(tmp_path, capsys):
    start = tmp_path / "ones.txt"
    start.write_text("1 1 1 1\n" * 4)
    out = tmp_path / "sol.json"
    code = main(["graph-solve", str(start), "--json", str(out), "--quiet"])
    assert code == EXIT_CHECK_FAILED
    checks = json.loads(out.read_text())["checks"]
    assert [(c["name"], c["status"]) for c in checks] == [
        ("newton:converged", "fail")]
    assert checks[0]["details"] == {
        "error": "starting coefficients have norm 4 > 0.30"}


def test_index_refuses_a_partial_chern_triple(capsys):
    assert main(["index", "--c1sq", "0"]) == EXIT_MALFORMED
    out, err = capsys.readouterr()
    assert out == "" and "need all of --c1sq --c2 --c2nu together" in err


def test_graph_solve_seeded(capsys):
    assert main(["graph-solve", "--seed", "5", "--quiet"]) == EXIT_OK
    capsys.readouterr()


def test_index_flags_topology(tmp_path, capsys):
    out = tmp_path / "ix.json"
    code = main(["index", "--sign", "-16", "--euler", "24",
                 "--self-int", "0", "--json", str(out), "--quiet"])
    assert code == EXIT_OK
    report = json.loads(out.read_text())
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["index:from-topology"]["details"]["index"] == 4
    # the config shows every invariant, null where not given
    assert report["config"] == {
        "suite": "index", "sign": -16, "euler": 24, "self_int": 0,
        "c1sq": None, "c2": None, "c2nu": None}
    capsys.readouterr()


def test_index_flags_both_routes_agree(tmp_path, capsys):
    out = tmp_path / "ix2.json"
    code = main(["index", "--sign", "-16", "--euler", "24", "--self-int", "0",
                 "--c1sq", "0", "--c2", "24", "--c2nu", "0",
                 "--json", str(out), "--quiet"])
    assert code == EXIT_OK
    report = json.loads(out.read_text())
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["index:route-agreement"]["status"] == "pass"
    assert by_name["index:from-chern"]["details"]["index"] == 4
    capsys.readouterr()


def test_index_incomplete_flags(capsys):
    assert main(["index", "--sign", "-16"]) == EXIT_MALFORMED
    capsys.readouterr()


def test_non_integral_chern_combination(capsys):
    assert main(["index", "--c1sq", "1", "--c2", "0", "--c2nu", "0"]) \
        == EXIT_MALFORMED
    capsys.readouterr()


def test_bad_ladder_values(monkeypatch, capsys):
    # the whole ladder rule is checked before any suite runs
    ran = []
    for name, (_, reads) in list(cli._SUITE_BUILDERS.items()):
        monkeypatch.setitem(cli._SUITE_BUILDERS, name, (
            lambda cfg, name=name: ran.append(name) or (), reads))
    assert main(["torus", "--t-ladder", "a,b,c"]) == EXIT_MALFORMED
    assert main(["torus", "--t-ladder", "0.1,0.01"]) == EXIT_MALFORMED
    assert main(["all", "--t-ladder", "1e-3,1e-2,1e-4"]) == EXIT_MALFORMED
    assert "strictly decreasing" in capsys.readouterr().err
    assert ran == []


@pytest.mark.parametrize("ladder", [
    "inf,1e-2,1e-3", "1e-2,1e-3,0", "nan,1,0.5", "1e-2,1e-3,-1",
])
def test_non_finite_or_non_positive_ladder_exit_code(ladder, capsys):
    # such rungs used to pass the slope check as roundoff, or crash in the fit
    assert main(["torus", "--t-ladder", ladder, "--quiet"]) == EXIT_MALFORMED
    assert "finite and positive" in capsys.readouterr().err


def test_slope_check_fails_with_every_sample_at_roundoff(tmp_path, capsys):
    # a ladder this short leaves every remainder below the floor: no slope
    # was measured, so the check has no evidence to pass on
    out = tmp_path / "torus.json"
    argv = ["torus", "--t-ladder", "1e-7,1e-8,1e-9", "--seed", "1",
            "--json", str(out), "--quiet"]
    assert main(argv) == EXIT_CHECK_FAILED
    capsys.readouterr()
    by_name = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
    slope = by_name["torus:linearization-slope"]
    assert slope["status"] == "fail"
    assert slope["details"]["flagged_roundoff"] == slope["details"]["samples"]
    assert slope["details"]["slope_min"] is None
    # no sample was fitted, so neither fraction of fitted samples exists
    assert slope["details"]["fraction_in_band"] is None
    assert slope["details"]["fraction_at_least_band"] is None


def test_torus_at_K_0_runs_the_slope_check_at_K_1(tmp_path, capsys):
    # at K = 0 every section is constant and every remainder 0, so the fd
    # check runs at K = 1 and warns on its slope 3, as at every other K
    out = tmp_path / "torus0.json"
    assert main(["torus", "--K", "0", "--json", str(out), "--quiet"]) == EXIT_OK
    capsys.readouterr()
    report = json.loads(out.read_text())
    by_name = {c["name"]: c for c in report["checks"]}
    slope = by_name["torus:linearization-slope"]
    assert slope["status"] == "warn"
    assert slope["details"]["flagged_roundoff"] == 0
    assert by_name["torus:kernel-dimensions"]["details"]["K"] == 0
    assert report["summary"]["fail"] == 0


def test_infinite_tol_exit_code(tmp_path, capsys):
    # with tol inf every tolerance-gated check would pass, this frame's
    # orthonormality included
    huge = tmp_path / "huge.txt"
    huge.write_text("".join(
        " ".join("1e300" if i == j else "0" for i in range(8)) + "\n"
        for j in range(4)))
    argv = ["classify-plane", "--tol", "inf", str(huge), "--quiet"]
    assert main(argv) == EXIT_MALFORMED
    assert "finite and positive" in capsys.readouterr().err


def test_options_before_the_subcommand_exit_usage(capsys):
    # options belong to a subcommand, so they follow it
    for argv in (["--seed", "9", "--quiet", "index"], ["--seed", "9", "index"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert "--seed: options follow the subcommand" in err
        # the parser used to take the option's value for the subcommand
        assert "invalid choice" not in err


# -- every option is read or refused ----------------------------------------------------

# the options each (subcommand, input) reads: no input, a FILE, or for index
# the invariants; --json and --quiet go everywhere
_SWEEP = {"--seed", "--samples", "--K", "--t-ladder"}
_INVARIANT_FLAGS = {"--sign", "--euler", "--self-int", "--c1sq", "--c2", "--c2nu"}
_READS = {
    ("verify-structure", None): set(),
    ("classify-plane", None): {"--seed", "--samples"},
    ("classify-plane", "file"): {"--tol", "--reject"},
    ("angles", None): {"--seed", "--samples"},
    ("graph-verify", None): {"--seed", "--samples"},
    ("graph-verify", "file"): {"--backend"},
    ("graph-solve", None): {"--backend", "--seed"},
    ("graph-solve", "file"): {"--backend"},
    ("torus", None): _SWEEP,
    ("index", None): {"--seed"},
    ("index", "invariants"): _INVARIANT_FLAGS,
    ("all", None): _SWEEP,
}
_INPUT = {None: [], "file": ["frame.txt"],
          "invariants": ["--sign", "0", "--euler", "0", "--self-int", "0"]}
_VALUES = {"--backend": ["exact"], "--tol": ["1e-3"], "--seed": ["4"],
           "--samples": ["3"], "--K": ["1"], "--t-ladder": ["1e-2,1e-3,1e-4"],
           "--reject": [], **{flag: ["0"] for flag in _INVARIANT_FLAGS}}
_REFUSED = [
    (command, mode, option)
    for (command, mode), reads in _READS.items()
    for option in _VALUES
    # a given invariant puts index in its invariants mode
    if option not in reads
    and not ((command, mode) == ("index", None) and option in _INVARIANT_FLAGS)
]


@pytest.mark.parametrize("command, mode, option", _REFUSED)
def test_an_option_the_run_would_not_read_exits_usage(command, mode, option,
                                                       capsys):
    # refused before any input is read: frame.txt does not exist
    with pytest.raises(SystemExit) as exc:
        main([command, *_INPUT[mode], option, *_VALUES[option]])
    assert exc.value.code == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert option in err


@pytest.mark.parametrize("argv", [
    ["angles", "--backend", "exact", "--tol", "1e-3"],
    ["index", "--samples", "3", "--backend", "exact"],
    ["classify-plane", "--reject"],
    ["classify-plane", "frame.txt", "--backend", "exact"],
])
def test_ignored_options_used_to_exit_zero(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_USAGE
    assert capsys.readouterr().out == ""


def test_declared_options_are_those_some_mode_reads():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    declared = {}
    for name, p in sub.choices.items():
        declared[name] = {s for a in p._actions for s in a.option_strings
                          if s.startswith("--") and s != "--help"}
    expected = {}
    for (command, _), reads in _READS.items():
        expected.setdefault(command, {"--json", "--quiet"}).update(reads)
    assert declared == expected
    # the top-level parser declares only --help
    assert [a.option_strings for a in parser._actions
            if a.option_strings] == [["-h", "--help"]]
    assert sum(map(len, declared.values())) == 42


# the value each option of _VALUES shows in a report's config, and the
# suite a mode's report names where it is not the command
_ECHOED = {"--backend": "exact", "--tol": 1e-3, "--seed": 4, "--samples": 3,
           "--K": 1, "--t-ladder": [1e-2, 1e-3, 1e-4], "--reject": True,
           **{flag: 0 for flag in _INVARIANT_FLAGS}}
_SUITE_OF = {("verify-structure", None): "structure",
             ("classify-plane", None): "planes",
             ("graph-verify", None): "graphs"}
_FILES = {
    "classify-plane": "1 0 0 0 0 0 0 0\n0 0 1 0 0 0 0 0\n"
                      "0 0 0 0 1 0 0 0\n0 0 0 0 0 0 1 0\n",
    "graph-verify": "0 0 0 0\n" * 4,
    "graph-solve": "0 0 0 0\n" * 4,
}


@pytest.mark.parametrize("command, mode", list(_READS))
def test_config_is_what_the_run_read(command, mode, tmp_path, capsys):
    # every option the mode reads is given, and the config shows each one
    # with its value, and nothing else
    argv = [command]
    if mode == "file":
        path = tmp_path / "input.txt"
        path.write_text(_FILES[command])
        argv.append(str(path))
    reads = _READS[command, mode]
    for option in sorted(reads):
        argv += [option, *_VALUES[option]]
    out = tmp_path / "report.json"
    main(argv + ["--json", str(out), "--quiet"])
    capsys.readouterr()
    assert json.loads(out.read_text())["config"] == {
        "suite": _SUITE_OF.get((command, mode), command),
        **{flag[2:].replace("-", "_"): _ECHOED[flag] for flag in reads}}


def test_config_validation_rejects_bad_values():
    for kw in ({"suite": "bogus"}, {"samples": 0}, {"K": -1},
               {"t_ladder": (float("inf"), 1e-2, 1e-3)},
               {"t_ladder": (1e-2, 1e-3, 0.0)},
               {"t_ladder": (1e-3, 1e-2, 1e-4)},
               {"samples": 2.5}, {"seed": 1.5}, {"K": 1.5}, {"samples": True},
               {"seed": False}, {"K": "2"}):
        with pytest.raises(ValidationError):
            _cfg(**kw)


@pytest.mark.parametrize("argv", [
    ["all", "--seed", "-1"], ["graph-solve", "--seed", "-3"],
])
def test_negative_seed_exits_malformed(argv, capsys):
    # the generator refused it with a ValueError traceback, exit 1
    assert main(argv + ["--quiet"]) == EXIT_MALFORMED
    assert "seed must be nonnegative" in capsys.readouterr().err
    with pytest.raises(ValidationError):
        _cfg(seed=-1)


def test_config_takes_numpy_integer_settings():
    cfg = _cfg(seed=np.int64(1), samples=np.int32(3), K=np.uint8(1))
    assert (cfg.seed, cfg.samples, cfg.K) == (1, 3, 1)


def test_replace_keeps_frozen_config_usable():
    cfg = _cfg(suite="all", seed=2)
    cfg2 = dataclasses.replace(cfg, suite="index")
    assert cfg.suite == "all" and cfg2.suite == "index"
    assert cfg2.seed == 2
