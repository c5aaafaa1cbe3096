"""Benchmark of cayleykit: one run of one workload.

    python3 bench/run.py --workload {battery,planes,spectrum} --seed N \\
        --seconds S --trace {0,1}

Run it from the root of a source checkout; the package is imported from
``src``.  Workloads, metrics and the reason for each are in
``bench/README.md``; names, units and bounds are in ``BENCHMARK.json``.

The run sets the workload up in SETUPS fresh processes (set-up time is
their median), the last of which goes on to the measured closed loop.
Every line but the last is for people: the environment, then one
``name value unit`` line per figure.  The last line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``.  A traced run also writes its spans to
``.bench_out/trace-<workload>-<seed>.json``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

from spans import summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("battery", "planes", "spectrum")
SETUPS = 5
DEADLINE_S = 175
LAYERS = ("cli", "spin7", "exterior", "graphs", "kahler", "torus_ops")


def spawn(args, deadline):
    """Run one workload process to its end; returns its messages by event."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, str(HERE / "workloads.py"), *args]
    proc = subprocess.Popen(cmd + ["--spawned-at", repr(perf_counter())],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env, cwd=ROOT)
    try:
        out, err = proc.communicate(timeout=max(deadline - perf_counter(), 1))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("workload process timed out")
    if proc.returncode != 0:
        raise RuntimeError("workload process exited %d:\n%s" % (
            proc.returncode, err.decode(errors="replace")[-2000:]))
    msgs = [json.loads(line) for line in out.decode().splitlines()
            if line.startswith("{")]
    return {m["event"]: m for m in msgs}


def unit_of(name):
    """Unit of a figure BENCHMARK.json does not list, read from its name."""
    for suffix, unit in (("_per_s", "1/s"), ("_ms", "ms"), ("_s", "s"),
                         (".calls", "count"), ("_samples", "count")):
        if name.endswith(suffix):
            return unit
    return ""


def span_figures(spans):
    """busy_s and calls per traced pass, p50_ms per call, for every span
    name; self time per layer and uncovered time per pass."""
    passes, by_name, self_s, uncovered = summarize(spans)
    figures = {"trace.uncovered_s": uncovered}
    for layer in LAYERS:
        figures[layer + ".self_s"] = self_s.get(layer, 0.0)
    for name, durations in by_name.items():
        figures[name + ".busy_s"] = sum(durations) / max(passes, 1)
        figures[name + ".calls"] = len(durations) / max(passes, 1)
        figures[name + ".p50_ms"] = 1e3 * statistics.median(durations)
    return figures


def pass_median(sections):
    """Median time of a pass: the sum over a pass's sections of each
    section's median across the passes of the run.  Every pass of a run
    has the same sections in the same order."""
    return sum(statistics.median(times) for times in zip(*sections))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "cayleykit" / "__init__.py").is_file():
        print("no cayleykit package under %s" % SRC, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    deadline = perf_counter() + DEADLINE_S

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    readies = [spawn(common + ["--setup-only"], deadline)["ready"]
               for _ in range(SETUPS - 1)]
    msgs = spawn(common + ["--seconds", str(args.seconds),
                           "--trace", str(args.trace)], deadline)
    readies.append(msgs["ready"])
    result = msgs["result"]
    env = msgs["ready"]["env"]

    setup = defaultdict(list)
    for ready in readies:
        for name, value in ready["timings"].items():
            setup[name].append(value)
    attempted, failed = result["attempted"], result["failed"]
    figures = {
        "wall_s": pass_median(result["sections"]),
        "setup_s": statistics.median(r["setup_ref_s"] for r in readies),
        "process.wall_raw_s": statistics.median(result["pass_raw_s"]),
        "process.setup_raw_s": statistics.median(r["setup_s"] for r in readies),
        "peak_rss_mb": result["peak_rss_mb"],
        "fail_ratio": failed / attempted,
        "process.cpu_s": statistics.median(result["cpu_s"]),
        **result["end"],
        **{name: statistics.median(v) for name, v in setup.items()},
    }
    if args.trace:
        figures.update(span_figures(result["spans"]))
        figures["trace.overhead_ratio"] = (
            statistics.median(result["traced_pass_s"])
            / statistics.median(result["pass_s"]))
        figures.update(result["layer"])
        listed = spec["per_layer"]
    else:
        listed = spec["end_to_end"]

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print("env " + json.dumps(env, sort_keys=True))
    print("pass_s " + " ".join("%.4f" % t for t in result["pass_s"]))
    print("pass_raw_s " + " ".join("%.4f" % t for t in result["pass_raw_s"]))
    for name in sorted(figures):
        print("%-52s %.6g %s" % (name, figures[name],
                                 units.get(name) or unit_of(name)))
    if args.trace:
        OUT.mkdir(exist_ok=True)
        path = OUT / ("trace-%s-%d.json" % (args.workload, args.seed))
        path.write_text(json.dumps({"env": env, "figures": figures,
                                    "spans": result["spans"]}))

    if args.trace:
        # a per-layer metric of a layer the workload never calls reads 0
        values = {m["name"]: figures.get(m["name"], 0.0) for m in listed}
    else:
        values = {m["name"]: figures[m["name"]] for m in listed}
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
               for m in listed}
    # allow_nan=False: a value JSON cannot hold stops the run, not the reader
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
