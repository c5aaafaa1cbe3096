"""One workload process of the benchmark: set-up, a closed loop, the gate.

``bench/run.py`` starts this file once per set-up sample and once for the
measured run; a workload never shares a process with another, so set-up
time and peak memory belong to it.  The process prints JSON lines on
stdout: ``{"event": "ready", ...}`` when set-up is done and, unless
``--setup-only`` is given, ``{"event": "result", ...}`` at the end.

    python3 bench/workloads.py --workload planes --seed 1 --seconds 30 \\
        --trace 0 --spawned-at <time.perf_counter() of the parent>

Set-up is the same for every workload: import the package (the CLI module
imports every other module), build the m=4 float Kahler model and both
float Cayley forms, fill the lazy caches with one untimed warm-up call,
then generate the workload's inputs from ``--seed``.

Each workload is a closed loop with one caller: a pass starts when the
previous one returns, and passes run back to back until another one would
end past ``--seconds``.  A traced run alternates an untraced pass with a
traced one, so the tracing overhead is measured in the same process.
Passes and set-up are timed section by section with ``speed.Meter``,
which also rescales each section to a reference core speed.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import warnings
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from speed import Meter

# the process's own time is metered from here, before numpy and cayleykit
# are imported
CLOCK = Meter()
CLOCK.lap()

import numpy as np  # noqa: E402

from spans import PASS, NullTracer, Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_out"
MIN_PASSES = 3
MIN_STEPS_TRACED = 2  # each step is an untraced and a traced pass
SAMPLE_EVERY_S = 0.25  # core-speed probes between a section's brackets

# --- planes ------------------------------------------------------------------

PLANE_MIX = {"generic": 600, "complex": 200, "graph": 100, "angles": 100}
ANGLE_RANGE = (0.1, 1.4)
ANGLE_MIN_SPACING = 0.05
ROUNDTRIP_TOL = 1e-9
COMPLEX_ZERO_TOL = 1e-7
SPLIT_EVERY = 10  # planes whose frames time tau_eval and form_value
CHUNK = 100  # planes per timed section

# --- spectrum ----------------------------------------------------------------

SUMMARY_K = (0, 1, 2, 3, 4)
KERNEL_DIMS = {"dbar": 2, "dbar_star": 2, "dirac": 4}
MATCH_K = 4
MATCH_TOL = 1e-10
FD_RUNS = ((2, 3), (3, 2))  # (K, samples) per fd_linearization_check call
LADDER_K = 3
LADDER = (1e-2, 3e-3, 1e-3, 3e-4)
SLOPE_BAND = (2.9, 3.1)
WEAK_GAP = "weak spectral gap"

# --- battery -----------------------------------------------------------------

CLI_TIMEOUT_S = 170

CERT_PHASE = (Fraction(3, 5), Fraction(4, 5))


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def cpu_seconds():
    """User plus system time of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def timed(fn, *args, **kwargs):
    start = perf_counter()
    out = fn(*args, **kwargs)
    return out, perf_counter() - start


def caught(fn, *args, **kwargs):
    """Call ``fn`` and count the weak-spectral-gap warnings it raises.

    Warnings are recorded, not printed, so a weak gap reaches the gate as a
    count instead of a line on stderr."""
    with warnings.catch_warnings(record=True) as got:
        warnings.simplefilter("always")
        out = fn(*args, **kwargs)
    return out, sum(1 for w in got if WEAK_GAP in str(w.message))


def p50_ms(durations):
    return 1e3 * statistics.median(durations) if durations else 0.0


# --- set-up --------------------------------------------------------------------


class Forms:
    """Model and calibration forms every workload builds in set-up."""

    def __init__(self, model, phi, phi_graph):
        self.model = model
        self.phi = phi              # phi_from_kahler(build_model(4))
        self.phi_graph = phi_graph  # phi0, the form the graph equations use


def set_up(meter):
    """Import, models and forms, warm-up; returns (forms, timings).

    ``meter.lap()`` between the stages keeps the rescaling close to each."""
    timings = {}
    meter.lap()
    _, timings["cli.import_s"] = timed(__import__, "cayleykit.cli")
    from cayleykit import FLOAT, build_model, phi0, phi_from_kahler

    meter.lap()
    model, timings["kahler.build_model.busy_s"] = timed(
        build_model, 4, backend=FLOAT)
    phi, timings["spin7.phi_from_kahler.busy_s"] = timed(
        phi_from_kahler, model)
    forms = Forms(model, phi, phi0(backend=FLOAT))
    meter.lap()
    timings["torus_ops.first_call_s"] = warm_caches(forms)
    return forms, timings


def warm_caches(forms):
    """Fill the lazy caches; returns first-call minus warm-call seconds.

    The first ``nonlinear_F`` call per phase builds the exact defect tables
    (default phase for the operators, 3/5 + 4/5 i for the exact
    certificate); one ``is_cayley`` per form fills its two-form matrices."""
    from cayleykit import is_cayley, nonlinear_F, torus_ops
    from cayleykit.graphs import random_plane

    rng = np.random.default_rng(0)
    extra = 0.0
    for model in (torus_ops.TorusModel(0), torus_ops.TorusModel(0, CERT_PHASE)):
        v = (torus_ops.random_section(model, "normal10", rng),
             torus_ops.random_section(model, "two_form_normal", rng))
        _, first = timed(nonlinear_F, model, v, t=1e-2)
        _, warm = timed(nonlinear_F, model, v, t=1e-2)
        extra += first - warm
    plane = random_plane(8, 4, rng)
    for form in (forms.phi, forms.phi_graph):
        is_cayley(form, plane)
    return extra


# --- planes ------------------------------------------------------------------


def angle_pair(rng):
    while True:
        pair = np.sort(rng.uniform(*ANGLE_RANGE, size=2))
        if pair[1] - pair[0] >= ANGLE_MIN_SPACING:
            return tuple(float(a) for a in pair)


def orthonormal_rows(frame):
    """Orientation-preserving QR of a spanning frame of float Vectors."""
    mat = np.array([[float(x) for x in v.comps] for v in frame])
    q, r = np.linalg.qr(mat.T)
    q = q * np.where(np.diag(r) < 0.0, -1.0, 1.0)[None, :]
    return [list(col) for col in q.T]


def plane_ok(kind, verdict, is_complex, angles, target):
    """Does the classification match the kind of plane that was built?"""
    if kind == "generic":
        return not verdict.is_cayley and not is_complex
    if kind == "complex":
        return (verdict.is_cayley and is_complex
                and max(abs(a) for a in angles) < COMPLEX_ZERO_TOL)
    if kind == "graph":
        return verdict.is_cayley
    if kind == "angles":
        return (not verdict.is_cayley and not is_complex
                and max(abs(a - t) for a, t in zip(angles, target))
                < ROUNDTRIP_TOL)
    raise ValueError("unknown plane kind %r" % (kind,))


class Workload:
    """Hooks a workload may override; the defaults do nothing."""

    def warm_up(self):
        pass

    def after_traced_pass(self, tracer):
        pass

    def close(self):
        pass

    def end_metrics(self):
        return {}

    def layer_metrics(self):
        return {}


class Planes(Workload):
    """~1000 seeded 4-planes in R^8 through is_cayley, is_complex_plane and
    canonical_angles; graph planes first go through the Newton solver."""

    def __init__(self, forms, seed):
        from cayleykit.graphs import (
            plane_from_angles, random_complex_plane, random_graph_coefficients,
            random_plane)

        self.forms = forms
        rng = np.random.default_rng([seed, 1])
        kinds = rng.permutation(
            np.repeat(list(PLANE_MIX), list(PLANE_MIX.values())))
        self.items = []
        for kind in kinds.tolist():
            target = None
            if kind == "generic":
                payload = random_plane(8, 4, rng)
            elif kind == "complex":
                payload = random_complex_plane(forms.model.J, 2, rng)
            elif kind == "graph":
                payload = random_graph_coefficients(rng, radius=0.25)
            else:
                target = angle_pair(rng)
                payload = plane_from_angles(forms.model, target, rng)
            self.items.append((kind, payload, target))
        self.latencies = []
        self.cayley = 0
        self.classified = 0
        self.solves = 0
        self.converged = 0
        self.tau_worst_calibrated = 0.0
        self.complex_zero_worst = 0.0
        self.roundtrip_worst = 0.0
        self.split_frames = []

    def classify(self, kind, payload, tracer):
        """One plane through the classifiers (the timed operation)."""
        from cayleykit import (
            FLOAT, OrientedPlane, canonical_angles, graph_frame, is_cayley,
            is_complex_plane, solve_tau_system)

        form = self.forms.phi
        plane = payload
        if kind == "graph":
            self.solves += 1
            with tracer.span("graphs.solve_tau_system"):
                sol = solve_tau_system(payload)
            self.converged += 1
            with tracer.span("graphs.graph_frame"):
                frame = graph_frame(sol)
            plane = OrientedPlane.from_rows(orthonormal_rows(frame),
                                            backend=FLOAT)
            form = self.forms.phi_graph
        with tracer.span("spin7.is_cayley"):
            verdict = is_cayley(form, plane)
        with tracer.span("graphs.is_complex_plane"):
            cplx = is_complex_plane(self.forms.model, plane)
        with tracer.span("graphs.canonical_angles"):
            angles = canonical_angles(self.forms.model, plane).angles
        return plane, form, verdict, cplx.is_complex, angles

    def run_pass(self, tracer, meter):
        failed = 0
        with meter.sampling(SAMPLE_EVERY_S):
            for first in range(0, len(self.items), CHUNK):
                with meter.section():
                    failed += self.run_chunk(first, tracer)
        return len(self.items), failed

    def run_chunk(self, first, tracer):
        from cayleykit.errors import CayleykitError

        record = isinstance(tracer, NullTracer)
        failed = 0
        for i in range(first, min(first + CHUNK, len(self.items))):
            kind, payload, target = self.items[i]
            start = perf_counter()
            try:
                with tracer.span("bench.plane"):
                    plane, form, verdict, is_complex, angles = self.classify(
                        kind, payload, tracer)
            except (CayleykitError, np.linalg.LinAlgError):
                failed += 1
                continue
            finally:
                if record:
                    self.latencies.append(perf_counter() - start)
            if not plane_ok(kind, verdict, is_complex, angles, target):
                failed += 1
            self.observe(kind, verdict, angles, target)
            if not record and i % SPLIT_EVERY == 0:
                self.split_frames.append((form, plane.rows))
        return failed

    def observe(self, kind, verdict, angles, target):
        self.classified += 1
        self.cayley += verdict.is_cayley
        if kind in ("complex", "graph"):
            self.tau_worst_calibrated = max(self.tau_worst_calibrated,
                                            verdict.tau_norm)
        if kind == "complex":
            self.complex_zero_worst = max(self.complex_zero_worst,
                                          max(abs(a) for a in angles))
        if kind == "angles":
            self.roundtrip_worst = max(
                self.roundtrip_worst,
                max(abs(a - t) for a, t in zip(angles, target)))

    def after_traced_pass(self, tracer):
        """Split is_cayley into defect and calibration value on the frames
        of every tenth plane, outside the pass."""
        from cayleykit import tau_eval
        from cayleykit.exterior import form_value

        with tracer.span("bench.split"):
            for form, rows in self.split_frames:
                with tracer.span("spin7.tau_eval"):
                    tau_eval(form, *rows)
                with tracer.span("exterior.form_value"):
                    form_value(form.phi, list(rows))
        self.split_frames = []

    def end_metrics(self):
        lat = self.latencies
        p99 = float(np.percentile(lat, 99)) if lat else 0.0
        return {
            "planes_per_s": len(lat) / sum(lat) if lat else 0.0,
            "plane_p50_ms": p50_ms(lat),
            "plane_p99_ms": 1e3 * p99,
            "plane_samples": len(lat),
        }

    def layer_metrics(self):
        return {
            "spin7.is_cayley.cayley_share": self.cayley / max(self.classified, 1),
            "spin7.is_cayley.tau_norm_worst_calibrated": self.tau_worst_calibrated,
            "graphs.canonical_angles.complex_zero_worst": self.complex_zero_worst,
            "graphs.canonical_angles.roundtrip_worst": self.roundtrip_worst,
            "graphs.solve_tau_system.converged_ratio":
                self.converged / max(self.solves, 1),
        }


# --- spectrum ----------------------------------------------------------------


class Spectrum(Workload):
    """The torus operators at cutoffs where the arrays outgrow the caches."""

    def __init__(self, forms, seed):
        from cayleykit import torus_ops

        rng = np.random.default_rng([seed, 4])
        self.ladder_model = torus_ops.TorusModel(LADDER_K)
        self.v = (
            torus_ops.random_section(self.ladder_model, "normal10", rng),
            torus_ops.random_section(self.ladder_model, "two_form_normal", rng))
        self.lin = torus_ops.linear_image_grid(self.ladder_model, self.v)
        self.fd_seeds = [int(s) for s in rng.integers(0, 2**31, len(FD_RUNS))]
        self.min_gap = float("inf")
        self.weak_gaps = 0
        self.match_residual = 0.0
        self.matches = 0
        self.fd_samples = 0
        self.fd_floored = 0

    def run_pass(self, tracer, meter):
        with meter.sampling(SAMPLE_EVERY_S):
            return self.run_sections(tracer, meter)

    def run_sections(self, tracer, meter):
        from cayleykit import torus_ops

        ok = []
        with meter.section(), tracer.span("torus_ops.kernel_summary"):
            summary, weak = caught(torus_ops.kernel_summary, K_values=SUMMARY_K)
        dims_ok = all(
            {name: rep.dim_complex for name, rep in per.items()} == KERNEL_DIMS
            for per in summary["per_K"].values())
        self.weak_gaps += weak
        self.min_gap = min(self.min_gap, summary["worst_gap"])
        ok.append(dims_ok and weak == 0
                  and summary["worst_gap"] >= torus_ops.GAP_FLOOR)

        with meter.section(), tracer.span("torus_ops.holomorphic_kernel_match"):
            residual = torus_ops.holomorphic_kernel_match(
                torus_ops.TorusModel(MATCH_K))
        self.match_residual = max(self.match_residual, residual)
        ok.append(residual < MATCH_TOL)

        self.fd_samples = self.fd_floored = 0
        for (K, samples), seed in zip(FD_RUNS, self.fd_seeds):
            with meter.section(), tracer.span("torus_ops.fd_linearization_check"):
                rep = torus_ops.fd_linearization_check(
                    torus_ops.TorusModel(K), samples=samples, t_ladder=LADDER,
                    seed=seed, band=SLOPE_BAND)
            self.fd_samples += len(rep.slopes)
            self.fd_floored += sum(rep.flagged_floor)
            ok.append(slopes_in_band(
                [s for s, fl in zip(rep.slopes, rep.flagged_floor) if not fl]))

        residuals = []
        points = self.lin.shape[0]
        for t in LADDER:
            with meter.section(), tracer.span("torus_ops.nonlinear_F"):
                F = torus_ops.nonlinear_F(self.ladder_model, self.v, t=t)
            residuals.append(
                float(np.sqrt(np.sum(np.abs(F - t * self.lin) ** 2) / points)))
        slope = float(np.polyfit(np.log(LADDER), np.log(residuals), 1)[0])
        ok.append(slopes_in_band([slope]))

        with (meter.section(),
              tracer.span("torus_ops.pointwise_linearization_check")):
            matches, total = torus_ops.pointwise_linearization_check()
        self.matches = matches
        ok.append(matches == total == 64)
        return len(ok), ok.count(False)

    def layer_metrics(self):
        grid = 2 * LADDER_K + 2
        return {
            "torus_ops.pointwise_linearization_check.matches": self.matches,
            "torus_ops.fd_linearization_check.samples": self.fd_samples,
            "torus_ops.fd_linearization_check.floored_samples": self.fd_floored,
            # (points, 70 minors, 4, 4) complex128 frames handed to det
            "torus_ops.nonlinear_F.minor_tensor_mb_computed":
                grid ** 4 * 70 * 4 * 4 * 16 / 1e6,
            "torus_ops.holomorphic_kernel_match.residual": self.match_residual,
            # largest dropped over smallest kept singular value: finite, and
            # 0 when every dropped one is exactly zero (an infinite gap)
            "torus_ops.kernel_report.inv_min_gap": 1.0 / self.min_gap,
            "torus_ops.kernel_report.weak_gap_warnings": self.weak_gaps,
        }


def slopes_in_band(slopes):
    return bool(slopes) and all(SLOPE_BAND[0] <= s <= SLOPE_BAND[1]
                                for s in slopes)


# --- battery -----------------------------------------------------------------


def battery_gate(returncode, report, reference):
    """Gate one ``cayleykit all`` pass; returns (ok, status counts).

    A pass fails on an exit code other than 0 or 1, an unreadable report,
    any ``fail`` status, or bytes that differ from the reference report.
    ``warn`` statuses are counted, not failed."""
    counts = {"pass": 0, "warn": 0, "fail": 0}
    if returncode not in (0, 1) or report is None:
        return False, counts
    try:
        checks = json.loads(report)["checks"]
    except (ValueError, KeyError, TypeError):
        return False, counts
    for check in checks:
        status = check.get("status")
        counts[status if status in counts else "fail"] += 1
    ok = counts["fail"] == 0 and (reference is None or report == reference)
    return ok, counts


def canonical_checks(checks):
    return json.dumps(sorted(checks, key=lambda c: c["name"]), sort_keys=True)


class Battery(Workload):
    """The seeded battery, cold, with the default samples (200) and K (2).

    The first, untimed pass is the CLI command users run,
    ``python -m cayleykit.cli all --seed <seed> --json <tmp> --quiet``; its
    report is gated and becomes the reference.  Each timed pass is a fresh
    process that imports the CLI module and runs every suite through
    ``run_suite``, one timed section per suite, and must reproduce the
    reference's checks exactly."""

    def __init__(self, forms, seed):
        self.seed = seed
        self.tmp = None
        self.counts = {"pass": 0, "warn": 0, "fail": 0}
        self.reference_checks = None

    def close(self):
        if self.tmp is not None:
            shutil.rmtree(self.tmp, ignore_errors=True)

    def warm_up(self):
        SCRATCH.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(dir=SCRATCH))
        out = self.tmp / "report.json"
        proc = subprocess.run(
            [sys.executable, "-m", "cayleykit.cli", "all", "--seed",
             str(self.seed), "--json", str(out), "--quiet"],
            env=child_env(), capture_output=True, timeout=CLI_TIMEOUT_S)
        report = out.read_bytes() if out.exists() else None
        ok, _ = battery_gate(proc.returncode, report, None)
        if ok:
            self.reference_checks = canonical_checks(json.loads(report)["checks"])

    def run_pass(self, tracer, meter):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--battery-pass",
             "--seed", str(self.seed), "--spawned-at", repr(perf_counter())],
            env=child_env(), capture_output=True, timeout=CLI_TIMEOUT_S)
        if proc.returncode != 0:
            return 1, 1
        got = json.loads(proc.stdout.decode().splitlines()[-1])
        meter.raw_s += got["raw_s"]
        meter.ref_s += sum(got["sections"])
        meter.sections.extend(got["sections"])
        tracer.adopt(got["spans"])
        self.counts = {k: sum(c["status"] == k for c in got["checks"])
                       for k in self.counts}
        ok = (self.reference_checks is not None
              and canonical_checks(got["checks"]) == self.reference_checks)
        return 1, int(not ok)

    def layer_metrics(self):
        return {"cli.checks." + k: v for k, v in self.counts.items()}


def battery_pass(seed, spawned_at):
    """A timed battery pass, run in its own process: import, then every
    suite, each a section of the process's meter."""
    tracer = Tracer()
    CLOCK.lap()
    with tracer.span("cli.import"):
        import cayleykit.cli as cli
    checks = []
    with CLOCK.sampling(SAMPLE_EVERY_S):
        for suite in cli.SUITES:
            if suite == "all":
                continue
            CLOCK.lap()
            with tracer.span("cli.suite." + suite):
                report = cli.run_suite(cli.SuiteConfig(suite=suite, seed=seed))
            checks.extend(report["checks"])
        CLOCK.stop()
    add_start(CLOCK, spawned_at)
    print(json.dumps({"spans": tracer.spans, "checks": checks,
                      "raw_s": CLOCK.raw_s, "sections": CLOCK.sections}))


def add_start(meter, spawned_at):
    """Add the interpreter's own start, spawn to the first probe, rescaled
    by that probe."""
    start, first_probe = meter.first
    meter.add(start - spawned_at, first_probe)


WORKLOADS = {"battery": Battery, "planes": Planes, "spectrum": Spectrum}


# --- the loop ------------------------------------------------------------------


def closed_loop(seconds, step, min_steps):
    """Run ``step`` back to back until another one would end past
    ``seconds``, and at least ``min_steps`` times."""
    took = []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        step()
        took.append(perf_counter() - t0)
        if (len(took) >= min_steps
                and perf_counter() - start + max(took) > seconds):
            return


def measure(workload, seconds, traced):
    """The measured part of a run; returns the result message.

    Pass times are kept rescaled to the reference core speed (``pass_s``,
    with each section's share in ``sections``) and as measured
    (``pass_raw_s``)."""
    tracer = Tracer() if traced else NullTracer()
    null = NullTracer()
    attempted = failed = 0
    pass_s, pass_raw_s, sections, traced_s, cpu_s = [], [], [], [], []

    def one(t):
        nonlocal attempted, failed
        meter = Meter()
        cpu0 = cpu_seconds()
        if t is null:
            n, bad = workload.run_pass(null, meter)
            pass_s.append(meter.ref_s)
            pass_raw_s.append(meter.raw_s)
            sections.append(meter.sections)
        else:
            with t.span(PASS):
                n, bad = workload.run_pass(t, meter)
            traced_s.append(meter.ref_s)
            workload.after_traced_pass(t)
        cpu_s.append(cpu_seconds() - cpu0)
        attempted += n
        failed += bad

    if traced:
        closed_loop(seconds, lambda: (one(null), one(tracer)), MIN_STEPS_TRACED)
    else:
        closed_loop(seconds, lambda: one(null), MIN_PASSES)
    return {
        "event": "result",
        "attempted": attempted,
        "failed": failed,
        "pass_s": pass_s,
        "pass_raw_s": pass_raw_s,
        "sections": sections,
        "traced_pass_s": traced_s,
        "cpu_s": cpu_s,
        "spans": tracer.spans if traced else [],
    }


def peak_rss_mb(name):
    # a battery pass is the CLI child process, so its peak is the children's
    who = resource.RUSAGE_CHILDREN if name == "battery" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def blas_threads():
    """Thread count OpenBLAS is using, read from the loaded library."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def environment(seed):
    """What the result depends on besides the code: recorded, never set."""
    import platform

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ[k] for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ},
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "seed": seed,
    }


def emit(msg):
    sys.stdout.write(json.dumps(msg) + "\n")
    sys.stdout.flush()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, default=perf_counter())
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--battery-pass", action="store_true")
    args = ap.parse_args(argv)
    if args.battery_pass:
        battery_pass(args.seed, args.spawned_at)
        return 0
    if args.workload is None:
        ap.error("--workload is required")

    forms, timings = set_up(CLOCK)
    CLOCK.lap()
    workload = WORKLOADS[args.workload](forms, args.seed)
    CLOCK.stop()
    ready = perf_counter()
    add_start(CLOCK, args.spawned_at)
    emit({"event": "ready", "setup_s": ready - args.spawned_at,
          "setup_ref_s": CLOCK.ref_s, "timings": timings,
          "env": None if args.setup_only else environment(args.seed)})
    if args.setup_only:
        return 0
    try:
        workload.warm_up()
        result = measure(workload, args.seconds, bool(args.trace))
    finally:
        workload.close()
    result["layer"] = workload.layer_metrics()
    result["end"] = workload.end_metrics()
    result["peak_rss_mb"] = peak_rss_mb(args.workload)
    emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
