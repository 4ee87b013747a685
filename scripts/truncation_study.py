"""Convergence study behind spectrum.default_truncation, and the gate of its quadrature rule.

For each c it solves the disc eigenvalue-only at the default quadrature
order Q = ceil(c/2 + 4 c^(1/3)) + 12 (at least 16), at the fixed orders
Q = 16, 24 and 32, at the earlier default ceil(c) + 40 and at the reference
order Q_ref = min(512, ceil(c) + 120), which does not move with the
default, then prints:

- stop: the angular order where the walk stopped (the first order whose
  top mode is below EPS of the strongest), the table bound N_hi, and
  (stop - c) / c^(1/3), the scaled distance that N_hi must cover;
- for each order, the largest nu_sq difference from the reference over
  the modes both solves keep, relative to the top mode, and the relative
  difference of the captured mass;
- kept: the number of modes the default keeps, and the largest Bessel
  block it holds in MB;
- gate: ok when the default keeps as many modes as ceil(c) + 40 does and
  its nu_sq difference is at most max(2 times that order's, 4e-15) and at
  most 5e-14; where ceil(c) + 40 is itself the reference (c above 472 - 120),
  only the 5e-14 bound applies. Any FAIL makes the script exit 1.

The fixed orders lie below ceil(c/2 + 4 c^(1/3)) on purpose for larger c;
the TruncationWarning assemble_spectrum raises for them is silenced.

Usage: PYTHONPATH=src python3 scripts/truncation_study.py [--c 0.01 1 2.5 9 20 44 64 90 128 200 280 400 471.9]
"""

import argparse
import math
import sys
import time
import warnings

import numpy as np

from apcap import spectrum as spectrum_module
from apcap.numerics import QUAD_MAX_ORDER
from apcap.spectrum import DiscGeometry, TruncationWarning, assemble_spectrum, default_truncation

WAVELENGTH = 0.1
RANGE = 1.0e6
REFERENCE_EXTRA = 120  # reference quadrature order ceil(c) + this, capped at 512
EARLIER_MARGIN = 40  # the earlier default quadrature order ceil(c) + this
FIXED_ORDERS = (16, 24, 32)
GATE_FLOOR, GATE_MAX = 4.0e-15, 5.0e-14
DEFAULT_C = (0.01, 1.0, 2.5, 9.0, 20.0, 44.0, 64.0, 90.0, 128.0, 200.0, 280.0, 400.0, 471.9)


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
    parser.add_argument("--c", type=float, nargs="+", default=list(DEFAULT_C))
    args = parser.parse_args()
    warnings.filterwarnings("ignore", "quadrature order .* is below", TruncationWarning)
    trials = [f"Q {q}" for q in FIXED_ORDERS] + [f"ceil(c)+{EARLIER_MARGIN}", "default"]
    print(f"{'c':>6} {'N_hi':>5} {'stop':>5} {'(stop-c)/c^1/3':>14} {'Q':>4} {'Q_ref':>5} "
          + "".join(f" {name:>19}" for name in trials)
          + f" {'kept':>6} {'block MB':>8} {'s':>6} {'gate':>4}")
    failed = False
    for c in args.c:
        t0 = time.perf_counter()
        geometry = geometry_for_c(c)
        bound_N, q = default_truncation(c)
        q_earlier = math.ceil(c) + EARLIER_MARGIN
        q_ref = min(QUAD_MAX_ORDER, math.ceil(c) + REFERENCE_EXTRA)
        default, block_bytes = solve_recording_tables(geometry)
        reference = assemble_spectrum(geometry, quadrature_order=q_ref, keep_radial=False)
        stop = default.angular_orders_solved - 1
        earlier = assemble_spectrum(geometry, quadrature_order=q_earlier, keep_radial=False)
        cells = [
            compare(assemble_spectrum(geometry, quadrature_order=fixed, keep_radial=False), reference)
            for fixed in FIXED_ORDERS
        ] + [compare(earlier, reference), compare(default, reference)]
        earlier_worst, worst = cells[-2][0], cells[-1][0]
        bound = GATE_MAX if q_earlier >= q_ref else min(GATE_MAX, max(2 * earlier_worst, GATE_FLOOR))
        passed = default.nu_sq.size == earlier.nu_sq.size and worst <= bound
        failed |= not passed
        print(
            f"{c:>6g} {bound_N:>5d} {stop:>5d} {(stop - c) / c ** (1.0 / 3.0):>14.2f} "
            f"{q:>4d} {q_ref:>5d}"
            + "".join(" {:>19}".format("{:.1e} / {:.1e}".format(*cell)) for cell in cells)
            + f" {default.nu_sq.size:>6d} {block_bytes / 2**20:>8.1f} "
            f"{time.perf_counter() - t0:>6.1f} {'ok' if passed else 'FAIL':>4}",
            flush=True,
        )
    print(f"cells: max |nu_sq - reference| / top over shared modes / relative mass difference; "
          f"numpy {np.__version__}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
