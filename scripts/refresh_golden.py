"""Regenerate the frozen golden values shipped inside the package.

Runs the dense 2-D kernel oracle of tests/oracles.py and the study
quantities, then rewrites golden.json. Each study quantity comes from the
function in apcap.verification that the verify check reading it calls, so
the value frozen here is the value verify measures.
Run from the repository root after any change that legitimately moves a
golden value, and eyeball the diff before committing it. Both modes print
the numpy version, its BLAS and the BLAS thread settings first, since the
last digits of the dense oracle depend on them.

With --check nothing is written: each key a verify check reads
(verification.GOLDEN_KEYS) has its recomputed value judged against the
committed file by the comparison verify makes, and its largest relative
difference is printed beside its tolerance. The exit code is 1 when a key
moved past its tolerance or is missing from the committed file.

Usage: PYTHONPATH=src python3 scripts/refresh_golden.py [--out src/apcap/golden.json] [--check]
"""

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from apcap.bounds import EPS0
from apcap.verification import (
    COROLLARY_COEFFICIENT,
    DEFAULT_SEED,
    GOLDEN_KEYS,
    _golden,
    asymptotic_ratios,
    gram_study,
    hand_allocation,
    lemma1_gaps,
    maximizer_snr100,
)

# the dense oracle is a test reference, not part of the package
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from oracles import dense_disc_gain_fractions  # noqa: E402

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
    """Print each checked key's largest relative difference and verdict; True if all hold."""
    ok = True
    print(f"{'key':<34} {'max rel diff':>12}  tolerance (rtol, atol)")
    for key, (_, rtol, atol) in sorted(GOLDEN_KEYS.items()):
        value = fresh[key]
        try:
            within, rel = _golden(value, committed, key)
        except LookupError as exc:  # missing from the committed file
            print(f"{key:<34} {exc}")
            ok = False
            continue
        print(f"{key:<34} {rel:>12.3e}  ({rtol:g}, {atol:g})  {'ok' if within else 'MOVED PAST'}")
        ok = ok and within
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
    golden["eps0"] = EPS0
    golden["corollary_coefficient"] = COROLLARY_COEFFICIENT

    print("hand allocation ...")
    golden["hand_allocation_efficiency"] = hand_allocation().efficiency

    for c in (1.0, 2.0, 4.0):
        t0 = time.time()
        fractions = dense_disc_gain_fractions(c, 5, radial_points=60, angular_points=60)
        golden[f"dense_oracle_gain_fractions_c{c:g}"] = [float(f) for f in fractions]
        print(f"dense 2-D oracle c={c:g} done in {time.time() - t0:.0f} s")

    print("lemma 1 gap sequence ...")
    golden["lemma1_gap_sequence"] = [g for _, g in lemma1_gaps(DEFAULT_SEED)]

    print("array gram convergence ...")
    golden["gram_offdiag_frobenius"], _, golden["array_study_lower_bound"] = gram_study()

    print("area maximizer at gamma_g = 100 ...")
    golden["maximizer_area_ratio_snr100"], golden["maximizer_beta_snr100"] = maximizer_snr100()

    print("asymptotic ratio sequence ...")
    golden["asymptotic_ratio_sequence"] = asymptotic_ratios()

    if args.check:
        ok = check(golden, json.loads(Path(args.out).read_text()))
        print(f"checked {args.out} in {time.time() - t_start:.0f} s total")
        return 0 if ok else 1
    Path(args.out).write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.out} in {time.time() - t_start:.0f} s total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
