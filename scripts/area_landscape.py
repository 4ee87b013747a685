"""Map the lower bound as a function of synthesis disc area.

Prints beta(|S|) across the admissible area band at one received SNR,
together with the upper bound it chases, and marks the argmax. The
top of the landscape is shallow: at gamma_g = 100 beta stays within
0.5% of its optimum over M0 roughly 3.0 to 4.0, and even at the scale
M0 = sqrt(gamma_g/(eps0-1)) = 5.05 it is only 2.4% down. The argmax
itself lands at M0 = 3.485, below that scale; the scale marks where
the bound saturates, not where the finite-SNR maximum sits.

Usage: PYTHONPATH=src python3 scripts/area_landscape.py [--gamma-g 100] [--points 41]
       [--csv landscape.csv]
"""

import argparse
import csv
import math
import sys

import numpy as np

from apcap.bounds import EPS0, beta_at_area, default_area_grid, optimize_disc_area, upper_bound
from apcap.verification import STUDY_RANGE, STUDY_WAVELENGTH, study_link


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--gamma-g", type=float, default=100.0)
    parser.add_argument("--points", type=int, default=41)
    parser.add_argument("--csv", default=None, help="also write rows to this file")
    args = parser.parse_args()

    link = study_link(args.gamma_g)
    upper = upper_bound(args.gamma_g)
    lambda_d = STUDY_WAVELENGTH * STUDY_RANGE

    grid = default_area_grid(link, points=args.points)
    betas = np.array([beta_at_area(a, link)[0] for a in grid])
    best_area, best_beta, _ = optimize_disc_area(link, points=args.points)
    best_ratio = (best_area / lambda_d) ** 2

    print(f"gamma_g = {args.gamma_g:g}, upper bound {upper:.4f} b/s/Hz")
    print(f"{'M0 = (S/lambda d)^2':>20} {'beta b/s/Hz':>12} {'beta/upper':>11}")
    rows = []
    for area, beta in zip(grid, betas):
        ratio = (area / lambda_d) ** 2
        rows.append((ratio, beta, beta / upper))
        marker = "  <- grid max" if beta == betas.max() else ""
        print(f"{ratio:20.5f} {beta:12.5f} {beta / upper:11.5f}{marker}")

    print()
    print(f"refined argmax: M0 = {best_ratio:.5f}, beta = {best_beta:.5f}")
    print(f"plateau scale sqrt(gamma_g/(eps0-1)) = {math.sqrt(args.gamma_g / (EPS0 - 1.0)):.5f}")
    half_pct = grid[(betas >= 0.995 * best_beta)]
    if half_pct.size:
        lo, hi = (half_pct[0] / lambda_d) ** 2, (half_pct[-1] / lambda_d) ** 2
        print(f"within 0.5% of the optimum over M0 in [{lo:.3f}, {hi:.3f}]")
    else:
        print("no grid point within 0.5% of the refined optimum; raise --points")

    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["m0_ratio", "beta", "beta_over_upper"])
            for row in rows:
                writer.writerow([repr(v) for v in row])
        print(f"wrote {args.csv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
