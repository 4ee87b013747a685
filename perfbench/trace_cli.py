"""Run one apcap CLI invocation with spans recorded around its public functions.

usage: python perfbench/trace_cli.py SPANS_FILE INVOCATION_ID ARGS...

The functions named in TARGETS are wrapped from outside the program: every
attribute of an apcap module (and of the package) that is the same function
object is rebound to the wrapper, so callers that imported a name directly,
such as `from .spectrum import assemble_spectrum`, are traced as well.
numpy.linalg.eigh and eigvalsh are wrapped as `spectrum.eigensolve`; the
report counts only those beneath assemble_spectrum. Spans stay in memory
and are written as JSON when the invocation ends. A target that no longer
exists is listed as absent.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

import numpy

TARGETS = (
    ("numerics", "gauss_quadrature"),
    ("numerics", "bessel_j_table"),
    ("spectrum", "assemble_spectrum"),
    ("bounds", "bounds_report"),
    ("bounds", "optimize_disc_area"),
    ("bounds", "beta_at_area"),
    ("waterfill", "waterfill"),
    ("arrays", "equal_area_partition"),
    ("arrays", "synthesize_array"),
    ("arrays", "design_to_dict"),
    ("cli", "main"),
)

# A span is [name, parent index or -1, start, end, end of bookkeeping, detail].
# The bookkeeping after `end` (the detail below) belongs to no layer: parents
# subtract it along with the child, so it shows only in trace.overhead_s.
spans: list[list] = []
stack: list[int] = []


def _detail(name: str, args: tuple, result):
    """Table bytes, [modes kept, modes significant] or gains length; None if unreadable."""
    try:
        if name == "numerics.bessel_j_table":
            return int(result.nbytes)
        if name == "spectrum.assemble_spectrum":
            nu_sq = numpy.array([e.nu_sq for e in result.entries])
            top = float(nu_sq.max(initial=0.0))
            return [int(nu_sq.size), int(numpy.count_nonzero(nu_sq >= 1.0e-16 * top))]
        if name == "waterfill.waterfill":
            return int(numpy.size(args[0].gains_eta_sq))
    except (AttributeError, IndexError):
        pass  # the result's layout changed; the span still counts
    return None


def _wrap(name: str, func):
    @functools.wraps(func)
    def traced(*args, **kwargs):
        index = len(spans)
        span = [name, stack[-1] if stack else -1, 0.0, 0.0, 0.0, None]
        spans.append(span)
        stack.append(index)
        span[2] = time.perf_counter()
        try:
            result = func(*args, **kwargs)
        finally:
            span[3] = time.perf_counter()
            stack.pop()
        span[5] = _detail(name, args, result)
        span[4] = time.perf_counter()
        return result

    return traced


def _rebind(original, wrapper) -> None:
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "apcap" or module_name.startswith("apcap.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def install() -> list[str]:
    """Wrap every target; return the names of the targets that do not exist."""
    importlib.import_module("apcap.cli")
    absent = []
    for module_name, func_name in TARGETS:
        name = f"{module_name}.{func_name}"
        try:
            module = importlib.import_module(f"apcap.{module_name}")
        except ImportError:
            absent.append(name)
            continue
        func = getattr(module, func_name, None)
        if not callable(func):
            absent.append(name)
            continue
        _rebind(func, _wrap(name, func))
    for func_name in ("eigh", "eigvalsh"):
        setattr(numpy.linalg, func_name,
                _wrap("spectrum.eigensolve", getattr(numpy.linalg, func_name)))
    return absent


def main() -> int:
    spans_path, invocation = sys.argv[1], int(sys.argv[2])
    absent = install()
    cli = sys.modules["apcap.cli"]
    try:
        code = cli.main(sys.argv[3:])
    finally:
        sys.stdout.flush()
        with open(spans_path, "w") as fh:
            json.dump({"invocation": invocation, "absent": absent, "spans": spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
