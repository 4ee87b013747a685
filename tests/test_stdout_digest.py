"""The CLI's output bytes, pinned: scripts/stdout_digest.py against a committed listing.

tests/stdout_digest.txt holds the `--in-process` listing taken with
OpenBLAS forced to its Haswell kernel, which every x86-64 runner with AVX2
has, under a header naming the numpy and BLAS builds it was taken with.
Some last digits depend on the BLAS build and kernel, so on another build,
or off x86-64, the test skips and names both builds. A change that moves an
output refreshes the file, from the root of the checkout, with

    python3 tests/test_stdout_digest.py > tests/stdout_digest.txt

and says which lines moved and why.
"""

import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
PINNED = ROOT / "tests" / "stdout_digest.txt"
KERNEL = "Haswell"


def header() -> str:
    """A listing's first line: the numpy and BLAS builds and the kernel it depends on."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_text = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # a numpy too old to report its BLAS build
        blas_text = "an unknown BLAS"
    return f"# numpy {np.__version__}, {blas_text}, OPENBLAS_CORETYPE={KERNEL}\n"


def listing() -> str:
    """scripts/stdout_digest.py --in-process, run in one process on the pinned kernel."""
    proc = subprocess.run(
        [sys.executable, "scripts/stdout_digest.py", "--in-process"],
        cwd=ROOT,
        env=dict(os.environ, OPENBLAS_CORETYPE=KERNEL),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_outputs_match_the_pinned_listing():
    pinned_header, *pinned = PINNED.read_text().splitlines(keepends=True)
    if platform.machine().lower() not in ("x86_64", "amd64"):
        pytest.skip(f"the {KERNEL} kernel is x86-64 only; this machine is {platform.machine()}")
    if pinned_header != header():
        pytest.skip(f"listing taken with {pinned_header[2:].strip()}; this run has {header()[2:].strip()}")
    fresh = listing().splitlines(keepends=True)
    moved = [line.split("  ", 4)[-1].strip() for line in set(fresh) ^ set(pinned)]
    assert fresh == pinned, f"outputs moved: {sorted(set(moved))}"


if __name__ == "__main__":
    sys.stdout.write(header() + listing())
