"""Regenerate the frozen golden values shipped inside the package.

Runs the independent oracles (dense 2-D kernel SVD, bisection constant)
and the deterministic study computations, then rewrites golden.json.
Run from the repository root after any change that legitimately moves a
golden value, and eyeball the diff before committing it. Both modes print
the numpy version, its BLAS and the BLAS thread settings first, since the
last digits of the dense oracle depend on them.

With --check nothing is written: each key's recomputed value is compared
with the committed file, and its largest difference is printed beside the
tolerance of the verify check that reads it (verification.GOLDEN_TOLERANCES).
The exit code is 1 when a key moved past its tolerance.

Usage: python3 scripts/refresh_golden.py [--out src/apcap/golden.json] [--check]
"""

import argparse
import json
import math
import os
import sys
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
    GOLDEN_TOLERANCES,
    STUDY_RANGE,
    STUDY_WAVELENGTH,
    _lemma1_transverse_gaps,
    area_for_m0,
    study_link,
)
from apcap.waterfill import ChannelGains, allocation_efficiency

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def environment() -> str:
    """numpy version, BLAS name and version, and the thread settings."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = ", ".join(f"{name}={os.environ.get(name, 'unset')}" for name in THREAD_VARIABLES)
    return (
        f"numpy {np.__version__}; BLAS {blas.get('name')} {blas.get('version')}; "
        f"{threads}; {os.cpu_count()} CPUs"
    )


def check(fresh: dict, committed: dict) -> bool:
    """Print each key's largest difference beside its tolerance; True if all hold."""
    ok = True
    print(f"{'key':<34} {'max abs diff':>12} {'max rel diff':>12}  tolerance (rtol, atol)")
    for key in sorted(fresh.keys() | committed.keys()):
        if key not in fresh or key not in committed:
            print(f"{key:<34} missing from the {'committed file' if key in fresh else 'refresh'}")
            ok = False
            continue
        new = np.atleast_1d(np.asarray(fresh[key], dtype=float))
        old = np.atleast_1d(np.asarray(committed[key], dtype=float))
        diff = np.abs(new - old)
        rel = float(np.max(diff / np.maximum(np.abs(old), 1e-300)))
        if key in GOLDEN_TOLERANCES:
            rtol, atol = GOLDEN_TOLERANCES[key]
            within = bool(np.all(diff <= atol + rtol * np.abs(old)))
            verdict = f"({rtol:g}, {atol:g})  {'ok' if within else 'MOVED PAST'}"
            ok = ok and within
        else:
            verdict = "not read by any check"
        print(f"{key:<34} {float(diff.max()):>12.3e} {rel:>12.3e}  {verdict}")
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        default=str(Path(__file__).resolve().parent.parent / "src/apcap/golden.json"),
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare with the file at --out instead of writing it",
    )
    args = parser.parse_args()

    print(environment())
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

    print("asymptotic ratio sequence ...")
    ratios = []
    for gamma_g in GAMMA_G_GRID:
        t0 = time.time()
        row_link = study_link(gamma_g)
        _, row_beta = optimize_disc_area(row_link, default_area_grid(row_link, points=24))
        strong = math.sqrt(gamma_g / (eps0 - 1.0)) * math.log2(eps0)
        ratios.append(row_beta / strong)
        print(f"  gamma_g={gamma_g:g}: ratio {ratios[-1]:.6f} in {time.time() - t0:.0f} s")
    golden["asymptotic_ratio_sequence"] = ratios

    if args.check:
        ok = check(golden, json.loads(Path(args.out).read_text()))
        print(f"checked {args.out} in {time.time() - t_start:.0f} s total")
        return 0 if ok else 1
    Path(args.out).write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.out} in {time.time() - t_start:.0f} s total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
