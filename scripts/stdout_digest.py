"""Digest of the CLI's stdout and stderr for a fixed set of invocations.

For each invocation it prints `sha256  bytes  exit  stderr-sha256
invocation`: the sha256 and length of its stdout, its exit code and the
sha256 of its stderr, so a gained or lost warning shows as well. Every
invocation is one fresh `python -m apcap.cli` process, run from the root
of the checkout with PYTHONPATH=src and one BLAS thread. With --in-process
they all run through apcap.cli.main in this one process instead, in the
--order given (forward, reverse, or shuffled by an integer seed), and the
lines are still printed in forward order: a result depends only on its
inputs, so this listing must equal the fresh-process one. The invocations
are the benchmark's workload invocations (WORKLOADS of perfbench/run.py,
imported, not copied) and EXTRA, the edge cases those miss, each with its
reason beside it.

Two checkouts print the same lines exactly when these outputs are
byte-identical, so a change that must not move any output is checked by a
diff of the two listings.

Usage: python3 scripts/stdout_digest.py [--in-process [--order forward|reverse|SEED]] [CHECKOUT]
(default CHECKOUT: this script's checkout)
"""

import argparse
import contextlib
import hashlib
import io
import os
import random
import subprocess
import sys
from pathlib import Path

EXTRA = (
    # the spectrum report as JSON and as CSV
    ("spectrum", "--area", "2e5"),
    ("spectrum", "--area", "3.2e6", "--format", "csv"),
    # a starved truncation, which warns on every disc the area optimizer tries
    ("bounds", "--max-angular", "0", "--max-radial", "0", "--quadrature-order", "16"),
    # an array whose subnormal transmit aperture is refused
    ("array", "--area", "2e5", "--aperture-tx", "1e-305"),
    # the CSV forms of link, sweep and bounds
    ("link", "--format", "csv"),
    ("sweep", "--area", "2e5", "--grid", "2:20:3:log", "--format", "csv"),
    ("bounds", "--format", "csv"),
    # flags wrong in two ways at once: which error wins is part of the output
    ("sweep", "--power", "-1", "--grid", "junk"),
    ("array", "--format", "csv", "--loss", "2", "--area", "2e5"),
    ("verify", "--list", "no_such_check"),
    # the check names
    ("verify", "--list"),
    # a disc too small for its modes to be represented, next to a tiny one that still works
    ("spectrum", "--area", "1e-300"),
    ("spectrum", "--area", "1e-30"),
    # an --out path in a directory that does not exist
    ("bounds", "--area", "2e5", "--out", "no-such-dir/bounds.json"),
    # an array on a link that fails the far-field gate
    (
        "array", "--area", "3e5", "--aperture-tx", "2e3", "--aperture-rx", "2e3",
        "--range", "1e5", "--cells", "4096", "--streams", "1",
    ),
    # a bounds whose area grid reaches c = 160
    ("bounds", "--power", "1e13"),
    # a radial ceiling: a truncation override, so every disc walks to the EPS cut
    # where the default truncation may stop at the water level
    ("bounds", "--max-radial", "2"),
    # a disc at c = 64 solved at a quadrature order of 16, below the
    # ceil(c/2 + 4 c^(1/3)) = 48 its modes need, which warns; then the same order under area optimization, which
    # warns once, for the largest c it tries
    ("bounds", "--area", "3.2e6", "--power", "1e12", "--quadrature-order", "16"),
    ("bounds", "--power", "1e12", "--quadrature-order", "16"),
    # a receive aperture unlike the transmit one, so the receive weights are
    # formatted on their own rather than reusing the transmit text
    (
        "array", "--area", "4e5", "--power", "1e9", "--streams", "21", "--cells", "4096",
        "--aperture-rx", "400",
    ),
    # an optimized strong-regime sweep up to gamma*g = 1e7, whose rows share only their
    # first grid disc (4 of its 265 spectrum walks read the per-order memo, 8 of 5727 orders)
    ("sweep", "--grid", "1e3:1e7:5:log"),
    # one fixed disc at c = 280, whose Nystrom solve builds the largest Bessel table,
    # from the highest start order, of all these invocations
    ("bounds", "--power", "1e14", "--area", "1.4e7"),
    # a disc smaller than max(A_T, A_R), refused before any solve
    ("bounds", "--area", "50"),
    # links that fail the far-field gate together with a second fault (a junk sweep
    # grid, an array asked for as CSV, an array of zero streams): the gate wins,
    # because a link is checked before any other input
    ("sweep", "--range", "1e3", "--aperture-tx", "1e4", "--grid", "junk"),
    ("array", "--format", "csv", "--range", "1e3", "--aperture-tx", "1e4", "--area", "2e5"),
    ("array", "--streams", "0", "--range", "1e3", "--aperture-tx", "1e4", "--area", "2e5"),
    # a sweep grid value whose rescaled transmit power overflows, refused by its value
    ("sweep", "--area", "2e5", "--grid", "1:1e305:2:log"),
    # links whose received SNR gamma*g is not a finite number, refused when they are
    # built: a noise floor B*N0 that underflows to 0, a wavelength whose square
    # overflows, and a transmit SNR that overflows
    ("link", "--bandwidth", "1e-300", "--noise-psd", "1e-300"),
    ("link", "--wavelength", "1e200"),
    ("bounds", "--power", "1e300", "--bandwidth", "1e-10", "--area", "2e5"),
    # a sweep grid value whose rescaled transmit power is finite but makes the rescaled
    # link's transmit SNR overflow, refused by its value too
    ("sweep", "--bandwidth", "1e-10", "--noise-psd", "1e-10", "--grid", "1:1e308:2:log"),
    # verify refusing a negative seed and an unreadable golden file with one error line
    ("verify", "--seed", "-1", "eps0_constant"),
    ("verify", "--golden", "no-such-dir/golden.json", "eps0_constant"),
    # float range edges refused with one error line, each once a traceback: a range
    # whose square overflows in the disc's area check, a disc whose (lambda d)^2
    # underflows, a sweep over a link whose gamma*g underflows to 0, and a link
    # whose lambda*d underflows in the far-field ratio
    ("spectrum", "--range", "1e200", "--area", "1"),
    ("spectrum", "--wavelength", "1e-200", "--range", "1", "--area", "1e-250"),
    ("sweep", "--loss", "5e-324", "--area", "2e5"),
    ("link", "--wavelength", "1e-200", "--range", "1e-200"),
)

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def invocations(root: Path) -> list[tuple[str, ...]]:
    """The benchmark's workload invocations, in order, then EXTRA."""
    sys.path.insert(0, str(root / "perfbench"))  # run.py imports its sibling modules
    from run import WORKLOADS

    return [args for workload in WORKLOADS.values() for args in workload] + list(EXTRA)


def line(args: tuple[str, ...], stdout: bytes, stderr: bytes, code: int) -> str:
    digest, err_digest = hashlib.sha256(stdout).hexdigest(), hashlib.sha256(stderr).hexdigest()
    return f"{digest}  {len(stdout)}  {code}  {err_digest}  {' '.join(args)}"


def run_in_process(args: tuple[str, ...]) -> tuple[bytes, bytes, int]:
    """stdout, stderr and exit code of apcap.cli.main(args), run in this process."""
    from apcap.cli import main as cli_main

    out, err = io.BytesIO(), io.BytesIO()
    text_out, text_err = (io.TextIOWrapper(raw, "utf-8", newline="\n") for raw in (out, err))
    with contextlib.redirect_stdout(text_out), contextlib.redirect_stderr(text_err):
        code = cli_main(list(args))
    text_out.flush()
    text_err.flush()
    return out.getvalue(), err.getvalue(), code


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "root",
        nargs="?",
        type=Path,
        default=Path(__file__).resolve().parent.parent,
        help="root of the apcap checkout to run (default: the one holding this script)",
    )
    parser.add_argument(
        "--in-process",
        action="store_true",
        help="run every invocation through apcap.cli.main in this one process",
    )
    parser.add_argument(
        "--order",
        default="forward",
        help="with --in-process, the run order: forward, reverse or an integer shuffle seed",
    )
    options = parser.parse_args()
    root = options.root.resolve()
    # before numpy loads, here or in a child
    os.environ.update({name: "1" for name in THREAD_VARIABLES})
    calls = invocations(root)
    if not options.in_process:
        env = dict(os.environ, PYTHONPATH="src")
        for args in calls:
            proc = subprocess.run(
                [sys.executable, "-m", "apcap.cli", *args], cwd=root, env=env, capture_output=True
            )
            print(line(args, proc.stdout, proc.stderr, proc.returncode), flush=True)
        return
    order = list(range(len(calls)))
    if options.order == "reverse":
        order.reverse()
    elif options.order != "forward":
        try:
            random.Random(int(options.order)).shuffle(order)
        except ValueError:
            parser.error(f"--order is forward, reverse or an integer seed, not {options.order!r}")
    sys.path.insert(0, str(root / "src"))
    os.chdir(root)  # as the fresh processes run, for --out paths
    results = {index: run_in_process(calls[index]) for index in order}
    for index, args in enumerate(calls):
        print(line(args, *results[index]))


if __name__ == "__main__":
    main()
