"""Convergence study behind spectrum.default_truncation.

For each c it solves the default eigenvalue-only spectrum (quadrature order
Q = ceil(c) + 40), the same disc at the fixed orders Q = 16, 24 and 32, at
quadrature margins 24 and 32 (Q = ceil(c) + margin) and at a reference order
well above the default, then prints:

- stop: the angular order where the walk stopped (the first order whose
  top mode is below EPS of the strongest), the table bound N_hi, and
  (stop - c) / c^(1/3), the scaled distance that N_hi must cover;
- for each fixed order and each margin, the largest nu_sq difference from
  the reference over the modes both solves keep, relative to the top mode,
  and the relative difference of the captured mass;
- kept: the number of modes the default keeps, and the largest Bessel
  block it holds in MB.

The fixed orders lie below ceil(c) + 7 on purpose for c above 9; the
TruncationWarning assemble_spectrum raises for them is silenced.

Usage: PYTHONPATH=src python3 scripts/truncation_study.py [--c 0.05 0.5 4 9 16 64 128 280]
"""

import argparse
import math
import time
import warnings

import numpy as np

from apcap import spectrum as spectrum_module
from apcap.numerics import QUAD_MAX_ORDER
from apcap.spectrum import DiscGeometry, TruncationWarning, assemble_spectrum, default_truncation

WAVELENGTH = 0.1
RANGE = 1.0e6
REFERENCE_EXTRA = 80  # reference quadrature order = default order + this, capped at 512
FIXED_ORDERS = (16, 24, 32)
MARGINS = (24, 32)


def geometry_for_c(c):
    return DiscGeometry(c * WAVELENGTH * RANGE / 2.0, WAVELENGTH, RANGE, 1.0)


def modes(spectrum):
    keys = zip(spectrum.angular_N.tolist(), spectrum.radial_m.tolist())
    return dict(zip(keys, spectrum.nu_sq.tolist()))


def compare(candidate, reference):
    """(max |nu_sq diff| / top over shared modes, relative mass difference)."""
    a, b = modes(candidate), modes(reference)
    top = float(reference.nu_sq[0])
    worst = max(abs(a[k] - b[k]) for k in a.keys() & b.keys()) / top
    mass = abs(candidate.captured_mass - reference.captured_mass) / reference.captured_mass
    return worst, mass


def solve_recording_tables(geometry, quadrature_order=None):
    """assemble_spectrum, also returning the largest Bessel block it built."""
    largest = 0
    original = spectrum_module.bessel_j_table

    def recording(*args):
        nonlocal largest
        table = original(*args)
        largest = max(largest, table.nbytes)
        return table

    spectrum_module.bessel_j_table = recording
    try:
        result = assemble_spectrum(geometry, quadrature_order=quadrature_order, keep_radial=False)
    finally:
        spectrum_module.bessel_j_table = original
    return result, largest


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--c", type=float, nargs="+", default=[0.05, 0.5, 4.0, 9.0, 16.0, 64.0, 128.0, 280.0]
    )
    args = parser.parse_args()
    warnings.filterwarnings("ignore", "quadrature order .* is below", TruncationWarning)
    trials = [f"Q {q}" for q in FIXED_ORDERS] + [f"margin {margin}" for margin in MARGINS]
    print(f"{'c':>6} {'N_hi':>5} {'stop':>5} {'(stop-c)/c^1/3':>14} {'Q':>4} {'Q_ref':>5} "
          + "".join(f" {name:>19}" for name in trials + ["default"])
          + f" {'kept':>6} {'block MB':>8} {'s':>6}")
    for c in args.c:
        t0 = time.perf_counter()
        geometry = geometry_for_c(c)
        bound_N, q = default_truncation(c)
        q_ref = min(QUAD_MAX_ORDER, q + REFERENCE_EXTRA)
        default, block_bytes = solve_recording_tables(geometry)
        reference = assemble_spectrum(geometry, quadrature_order=q_ref, keep_radial=False)
        stop = default.angular_orders_solved - 1
        cells = []
        for trial_q in FIXED_ORDERS + tuple(math.ceil(c) + margin for margin in MARGINS):
            trial = assemble_spectrum(geometry, quadrature_order=trial_q, keep_radial=False)
            cells.append("{:.1e} / {:.1e}".format(*compare(trial, reference)))
        cells.append("{:.1e} / {:.1e}".format(*compare(default, reference)))
        print(
            f"{c:>6g} {bound_N:>5d} {stop:>5d} {(stop - c) / c ** (1.0 / 3.0):>14.2f} "
            f"{q:>4d} {q_ref:>5d}" + "".join(f" {cell:>19}" for cell in cells)
            + f" {default.nu_sq.size:>6d} {block_bytes / 2**20:>8.1f} "
            f"{time.perf_counter() - t0:>6.1f}",
            flush=True,
        )
    print(f"cells: max |nu_sq - reference| / top over shared modes / relative mass difference; "
          f"numpy {np.__version__}")


if __name__ == "__main__":
    main()
