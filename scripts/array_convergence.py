"""Convergence of synthesized finite arrays toward the mode bound.

For a fixed study link (gamma_g = 10, M0 = 4, four streams) this sweeps
the cell count N and reports the achieved equal-weight efficiency, its
excess over the waterfilled mode bound, and the off-diagonal Frobenius
mass of the finite Gram matrix. The coarse partition slightly inflates
the Gram diagonal, so the finite efficiency approaches the bound from
above; the excess shrinks like the cell diameter squared (about 1/4
per quadrupling of N) while the off-diagonal mass falls two orders per
step, far past the 0.7 factor the verify check demands.

Usage: PYTHONPATH=src python3 scripts/array_convergence.py [--cells 64 256 1024 4096]
"""

import argparse
import sys
import time

import numpy as np

from apcap.arrays import achieved_efficiency, finite_array_gram, synthesize_array
from apcap.bounds import beta_at_area
from apcap.verification import area_for_m0, study_link


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cells", type=int, nargs="+", default=[64, 256, 1024])
    parser.add_argument("--streams", type=int, default=4)
    parser.add_argument("--gamma-g", type=float, default=10.0)
    args = parser.parse_args()

    link = study_link(args.gamma_g)
    area = area_for_m0(4.0)
    bound, active = beta_at_area(area, link)
    print(
        f"gamma_g = {args.gamma_g:g}, M0 = 4, K = {args.streams}: "
        f"mode bound {bound:.6f} b/s/Hz ({active} active streams)"
    )
    print(f"{'N':>6} {'efficiency':>11} {'excess':>10} {'shrink':>7} {'offdiag frob':>13} {'s':>5}")

    prev_excess = None
    for cells in args.cells:
        t0 = time.time()
        design = synthesize_array(link, area, args.streams, cells)
        gram = finite_array_gram(design)
        offdiag = float(np.linalg.norm(gram - np.diag(np.diag(gram))))
        eff = achieved_efficiency(design)
        excess = eff - bound
        shrink = "" if prev_excess is None else f"{excess / prev_excess:7.3f}"
        prev_excess = excess
        print(
            f"{cells:6d} {eff:11.6f} {excess:10.2e} {shrink:>7} "
            f"{offdiag:13.3e} {time.time() - t0:5.1f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
