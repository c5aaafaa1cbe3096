"""Spectral survey of the flat-model deformation operators.

Prints, per mode cutoff, the complex kernel dimensions of the first-order
operator, its formal adjoint, and the combined elliptic operator, together
with the gap between the kernel and the rest of the singular spectrum.
Then runs the finite-difference slope experiment for the nonlinear defect:
because the map is odd, the measured remainder decays with slope 3 rather
than the generic 2.  Exits 1 when the exact linearization certificate
fails.

    python3 scripts/torus_spectrum.py --max-K 3 --slope-samples 30
"""

import argparse
import sys

import numpy as np

from cayleykit.torus_ops import (
    GAP_FLOOR,
    TorusModel,
    fd_linearization_check,
    kernel_summary,
    pointwise_linearization_check,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-K", type=int, default=3)
    ap.add_argument("--slope-samples", type=int, default=30)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    K_values = tuple(range(args.max_K + 1))
    summary = kernel_summary(K_values=K_values)

    print("%4s %18s %10s %10s %12s" % ("K", "operator", "dim_C", "dim_R", "gap"))
    for K in K_values:
        for name, rep in sorted(summary["per_K"][K].items()):
            gap = "inf" if np.isinf(rep.gap) else "%.3e" % rep.gap
            print("%4d %18s %10d %10d %12s" % (
                K, name, rep.dim_complex, rep.dim_real, gap))
    print("\nadjoint kernel dimension:", summary["adjoint_kernel_dim"])
    print("operator index:", summary["index"])
    print("worst gap vs floor %.0e:" % GAP_FLOOR, summary["worst_gap"])

    matches, total = pointwise_linearization_check()
    print("\npointwise linearization certificate: %d/%d component comparisons"
          " match" % (matches, total))

    model = TorusModel(1)
    rep = fd_linearization_check(model, samples=args.slope_samples,
                                 seed=args.seed)
    usable = [s for s, fl in zip(rep.slopes, rep.flagged_floor) if not fl]
    print("\nremainder slopes over t-ladder (%d samples, %d usable):"
          % (args.slope_samples, len(usable)))
    if usable:
        print("  min %.3f   median %.3f   max %.3f" % (
            min(usable), float(np.median(usable)), max(usable)))
        print("  fraction with slope >= %.1f: %.2f" % (
            rep.band[0], rep.fraction_at_least_band))
        print("  fraction inside the quadratic band %s: %.2f" % (
            list(rep.band), rep.fraction_in_band))
    print("  flagged as pure roundoff: %d" % sum(rep.flagged_floor))
    return 0 if matches == total else 1


if __name__ == "__main__":
    sys.exit(main())
