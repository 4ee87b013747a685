"""Regenerate the frozen golden values shipped inside the package.

Runs the independent oracles (dense 2-D kernel SVD, bisection constant)
and the deterministic study computations, then rewrites golden.json.
Run from the repository root after any change that legitimately moves a
golden value, and eyeball the diff before committing it.

Usage: python3 scripts/refresh_golden.py [--out src/apcap/golden.json]
"""

import argparse
import json
import math
import time
from pathlib import Path

import numpy as np

from apcap import (
    assemble_spectrum,
    finite_array_gram,
    lower_bound_beta,
    optimize_disc_area,
    synthesize_array,
    waterfill,
)
from apcap.bounds import default_area_grid
from apcap.numerics import solve_eps0
from apcap.oracles import dense_disc_gain_fractions
from apcap.spectrum import disc_for_area
from apcap.verification import (
    DEFAULT_SEED,
    GAMMA_G_GRID,
    STUDY_RANGE,
    STUDY_WAVELENGTH,
    _lemma1_transverse_gaps,
    area_for_m0,
    study_link,
)
from apcap.waterfill import ChannelGains, allocation_efficiency


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        default=str(Path(__file__).resolve().parent.parent / "src/apcap/golden.json"),
    )
    args = parser.parse_args()

    golden = {}
    t_start = time.time()

    print("constants ...")
    eps0 = solve_eps0()
    golden["eps0"] = eps0
    golden["corollary_coefficient"] = math.log2(eps0) / math.sqrt(eps0 - 1.0)

    print("hand allocation ...")
    channels = ChannelGains(gains_eta_sq=np.array([1.0, 0.5, 0.1]), noise_floor_BN0=1.0)
    alloc = waterfill(channels, 10.0)
    golden["hand_allocation_efficiency"] = allocation_efficiency(channels, alloc)

    for c in (1.0, 2.0, 4.0):
        t0 = time.time()
        fractions = dense_disc_gain_fractions(c, 5, radial_points=60, angular_points=60)
        golden[f"dense_oracle_gain_fractions_c{c:g}"] = [float(f) for f in fractions]
        print(f"dense 2-D oracle c={c:g} done in {time.time() - t0:.0f} s")

    print("lemma 1 gap sequence ...")
    golden["lemma1_gap_sequence"] = [g for _, g in _lemma1_transverse_gaps(DEFAULT_SEED)]

    print("array gram convergence ...")
    link = study_link(10.0)
    area = area_for_m0(4.0)
    geometry = disc_for_area(area, STUDY_WAVELENGTH, STUDY_RANGE, 1.0)
    spectrum = assemble_spectrum(geometry)
    masses = []
    for cells in (64, 256, 1024):
        design = synthesize_array(spectrum, area, 4, cells, link)
        gram = finite_array_gram(design, geometry)
        masses.append(float(np.linalg.norm(gram - np.diag(np.diag(gram)))))
    golden["gram_offdiag_frobenius"] = masses
    beta, _ = lower_bound_beta(area, link, spectrum)
    golden["array_study_lower_bound"] = beta

    print("area maximizer at gamma_g = 100 ...")
    link100 = study_link(100.0)
    best_area, best_beta = optimize_disc_area(link100, default_area_grid(link100, points=32))
    golden["maximizer_area_ratio_snr100"] = (
        best_area / (STUDY_WAVELENGTH * STUDY_RANGE)
    ) ** 2
    golden["maximizer_beta_snr100"] = best_beta

    print("asymptotic ratio sequence (slow: includes gamma_g = 1e6) ...")
    ratios = []
    for gamma_g in GAMMA_G_GRID:
        t0 = time.time()
        row_link = study_link(gamma_g)
        _, row_beta = optimize_disc_area(row_link, default_area_grid(row_link, points=24))
        strong = math.sqrt(gamma_g / (eps0 - 1.0)) * math.log2(eps0)
        ratios.append(row_beta / strong)
        print(f"  gamma_g={gamma_g:g}: ratio {ratios[-1]:.6f} in {time.time() - t0:.0f} s")
    golden["asymptotic_ratio_sequence"] = ratios

    Path(args.out).write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.out} in {time.time() - t_start:.0f} s total")


if __name__ == "__main__":
    main()
