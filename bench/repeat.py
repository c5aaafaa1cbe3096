"""Run one workload over several seeds and summarise each metric.

    python3 bench/repeat.py --workload planes --seeds 1-10 [--trace 0] \\
        [--seconds 30] [--out bench/baseline.json]

Runs ``bench/run.py`` once per seed, one after another, and prints for
each metric the median, the first and third quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and their distance as a
share of the median, beside the metric's bound from ``BENCHMARK.json``.
With ``--out`` the summary is merged into that JSON file under the
workload's name.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=True)
        lines = proc.stdout.splitlines()
        runs.append(json.loads(lines[-1]))
        print("seed %d: %s" % (seed, lines[-1]), flush=True)
        for line in lines[:-1]:
            print("  " + line, flush=True)

    names = list(runs[0]["metrics"])
    table = {name: summary([r["metrics"][name]["value"] for r in runs])
             for name in names}
    for name, row in table.items():
        print("%-48s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.4f bound %s"
              % (name, row["median"], row["q1"], row["q3"], row["spread"],
                 bounds.get(name)))
    fails = sum(r["failed"] for r in runs)
    print("failed %d of %d; correct in %d of %d runs" % (
        fails, sum(r["attempted"] for r in runs),
        sum(r["correct"] for r in runs), len(runs)))
    if args.out:
        doc = json.loads(args.out.read_text()) if args.out.exists() else {}
        doc[args.workload] = {"seeds": args.seeds, "seconds": seconds,
                              "trace": args.trace, "failed": fails,
                              "metrics": table}
        args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
