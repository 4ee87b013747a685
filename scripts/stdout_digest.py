"""Digest of the CLI's stdout for a fixed set of invocations.

For each invocation it prints `sha256  bytes  exit  invocation`: the sha256
and length of its stdout and its exit code. Every invocation is one fresh
`python -m apcap.cli` process, run from the root of the checkout with
PYTHONPATH=src and one BLAS thread. The invocations are the benchmark's
workload invocations (WORKLOADS of perfbench/run.py, imported, not copied)
and three more: the spectrum report as JSON and as CSV, and a starved
truncation that warns on every disc the area optimizer tries.

Two checkouts print the same lines exactly when these outputs are
byte-identical, so a change that must not move any output is checked by a
diff of the two listings.

Usage: python3 scripts/stdout_digest.py [CHECKOUT]   (default: this script's checkout)
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

EXTRA = (
    ("spectrum", "--area", "2e5"),
    ("spectrum", "--area", "3.2e6", "--format", "csv"),
    ("bounds", "--max-angular", "0", "--max-radial", "0", "--quadrature-order", "16"),
)

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def invocations(root: Path) -> list[tuple[str, ...]]:
    """The benchmark's workload invocations, in order, then EXTRA."""
    sys.path.insert(0, str(root / "perfbench"))  # run.py imports its sibling modules
    from run import WORKLOADS

    return [args for workload in WORKLOADS.values() for args in workload] + list(EXTRA)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "root",
        nargs="?",
        type=Path,
        default=Path(__file__).resolve().parent.parent,
        help="root of the apcap checkout to run (default: the one holding this script)",
    )
    root = parser.parse_args().root.resolve()
    env = dict(os.environ, PYTHONPATH="src", **{name: "1" for name in THREAD_VARIABLES})
    for args in invocations(root):
        proc = subprocess.run(
            [sys.executable, "-m", "apcap.cli", *args], cwd=root, env=env, capture_output=True
        )
        digest = hashlib.sha256(proc.stdout).hexdigest()
        print(f"{digest}  {len(proc.stdout)}  {proc.returncode}  {' '.join(args)}", flush=True)


if __name__ == "__main__":
    main()
