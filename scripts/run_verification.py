"""Run every verification suite and print one line per check.

Thin driver over the library's suite runner, handy when you want the full
report on the terminal.  The JSON report has one writer, the CLI:
``cayleykit all --json PATH`` writes it.

    python3 scripts/run_verification.py --seed 42 --samples 500
    python3 scripts/run_verification.py --suite torus --K 3
"""

import argparse
import sys

from cayleykit.cli import SUITES, SuiteConfig, run_suite


def fmt_residual(value):
    if value is None:
        return "-"
    if isinstance(value, str):  # exact rationals are serialized as strings
        return value
    if isinstance(value, float):
        return "%.3e" % value
    return str(value)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--suite", choices=SUITES, default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--samples", type=int, default=200)
    ap.add_argument("--K", type=int, default=2, help="mode cutoff for the flat model")
    args = ap.parse_args()

    cfg = SuiteConfig(suite=args.suite, seed=args.seed, samples=args.samples,
                      K=args.K)
    report = run_suite(cfg)

    width = max(len(c["name"]) for c in report["checks"])
    for c in report["checks"]:
        print("%-6s %-*s residual=%-12s tol=%s" % (
            c["status"].upper(), width, c["name"],
            fmt_residual(c["residual"]), fmt_residual(c["tolerance"])))
    s = report["summary"]
    print("-" * (width + 40))
    print("%d checks: %d pass, %d warn, %d fail" % (
        s["total"], s["pass"], s["warn"], s["fail"]))

    return 0 if s["fail"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
