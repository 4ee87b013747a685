"""The apcap benchmark: the command line as users run it, timed from outside.

usage: python3 perfbench/run.py --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]

Run from the root of an apcap checkout. Each operation is one invocation of
`python -m apcap.cli ...` in a fresh process with PYTHONPATH=src and one
BLAS thread. A pass runs a workload's invocations one after another; a run
makes whole passes until their timed total reaches --seconds (by default
run_seconds of BENCHMARK.json), then reports medians over its passes. A cold
import is timed before every pass, and more after the last one, for at least
SETUP_SAMPLES in all. Output checks (see checks.py) run between passes,
outside the timed region. With --trace 1 every pass is followed by a traced
pass of the same invocations (see trace_cli.py), which --seconds does not
count, and the per-layer metrics are reported instead of the end-to-end
ones; --workload all reports both for every workload. The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.

The workloads are fixed lists of invocations: --seed is accepted and
echoed, but no random number enters.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from checks import Checker

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOADS = {
    # the capacity-vs-SNR study across the threshold gamma g = eps0 - 1:
    # hundreds of small spectrum solves that miss the spectrum cache
    "design_sweep": (
        ("link",),
        ("sweep",),
    ),
    # the sqrt(SNR) regime: a few large Nystrom solves, then a fixed disc
    # (c = 64) whose sweep is one solve and fifteen cache hits
    "deep_space": (
        ("bounds", "--power", "1e10"),
        ("bounds", "--power", "1e12"),
        ("sweep", "--area", "3.2e6", "--grid", "1e3:1e6:16:log"),
    ),
    # distributed-array synthesis: small spectra, large partitions and JSON
    "array_synthesis": (
        ("array", "--area", "2e5", "--cells", "1024"),
        ("array", "--area", "4e5", "--power", "1e9", "--streams", "21", "--cells", "4096"),
        ("array", "--area", "4e5", "--power", "1e9", "--streams", "21", "--cells", "16384"),
    ),
}

BLAS_THREADS = "1"
SETUP_SAMPLES = 9
IMPORTTIME_REPEATS = 3

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"))

PER_LAYER = (
    ("numerics.gauss_quadrature.calls", "count"),
    ("numerics.gauss_quadrature.self_s", "s"),
    ("numerics.bessel_j_table.calls", "count"),
    ("numerics.bessel_j_table.self_s", "s"),
    ("numerics.bessel_j_table.peak_table_mb", "MB"),
    ("spectrum.assemble_spectrum.calls", "count"),
    ("spectrum.assemble_spectrum.self_s", "s"),
    ("spectrum.eigensolve.calls", "count"),
    ("spectrum.eigensolve.self_s", "s"),
    ("spectrum.modes_kept", "count"),
    ("spectrum.modes_significant", "count"),
    ("spectrum.useful_mode_ratio", "ratio"),
    ("bounds.bounds_report.calls", "count"),
    ("bounds.bounds_report.self_s", "s"),
    ("bounds.optimize_disc_area.calls", "count"),
    ("bounds.optimize_disc_area.self_s", "s"),
    ("bounds.optimize_disc_area.evaluations", "count"),
    ("bounds.beta_at_area.calls", "count"),
    ("bounds.beta_at_area.self_s", "s"),
    ("bounds.spectrum_cache.hit_ratio", "ratio"),
    ("waterfill.waterfill.calls", "count"),
    ("waterfill.waterfill.self_s", "s"),
    ("waterfill.waterfill.gains_per_call", "count"),
    ("arrays.equal_area_partition.self_s", "s"),
    ("arrays.synthesize_array.self_s", "s"),
    ("arrays.design_to_dict.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("setup.numpy_import_s", "s"),
    ("setup.scipy_import_s", "s"),
    ("setup.apcap_import_s", "s"),
    ("trace.overhead_s", "s"),
)

MIB = 1024.0 * 1024.0


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH="src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


ENV = child_env()


def spawn(cmd: list[str], stdout, stderr):
    """Run cmd to completion from the checkout root; return (exit code, rusage)."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=ENV, stdout=stdout, stderr=stderr)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


@dataclass
class Pass:
    """One pass over a workload's invocations."""

    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    codes: list[int]
    outputs: list[Path]
    errors: list[Path]
    span_files: list[Path] = field(default_factory=list)


def run_pass(invocations, tag: str, traced: bool = False) -> Pass:
    codes, outputs, errors, span_files = [], [], [], []
    cpu = peak = 0.0
    start = time.perf_counter()
    for i, args in enumerate(invocations):
        out_path, err_path = OUT / f"{tag}-{i}.out", OUT / f"{tag}-{i}.err"
        if traced:
            span_files.append(OUT / f"{tag}-{i}.spans.json")
            cmd = [sys.executable, str(HERE / "trace_cli.py"), str(span_files[-1]), str(i), *args]
        else:
            cmd = [sys.executable, "-m", "apcap.cli", *args]
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            code, usage = spawn(cmd, out, err)
        codes.append(code)
        outputs.append(out_path)
        errors.append(err_path)
        cpu += usage.ru_utime + usage.ru_stime
        peak = max(peak, usage.ru_maxrss * 1024.0 / MIB)  # ru_maxrss is in KiB
    wall = time.perf_counter() - start
    return Pass(wall, cpu, peak, codes, outputs, errors, span_files)


class Verifier:
    """Checks every operation of a run; identical outputs are checked once."""

    def __init__(self):
        self.checker = Checker()
        self.verdicts: dict[tuple, list[str]] = {}
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.problems: list[str] = []

    def verify(self, invocations, done: Pass) -> list[str]:
        """Count the pass's operations; return the sha256 of each stdout."""
        digests = []
        for args, code, out_path, err_path in zip(invocations, done.codes, done.outputs,
                                                  done.errors):
            self.attempted += 1
            stdout = out_path.read_bytes()
            stderr = err_path.read_bytes()
            digests.append(hashlib.sha256(stdout).hexdigest())
            label = " ".join(args)
            if code != 0 or stderr:
                self.failed += 1
                self.problems.append(f"{label}: exit {code}, stderr {stderr[:300]!r}")
                continue
            key = (args, digests[-1])
            if key not in self.verdicts:
                self.verdicts[key] = self.checker.check(list(args), stdout)
            if self.verdicts[key]:
                self.failed += 1
                self.correct = False
                self.problems.extend(f"{label}: {p}" for p in self.verdicts[key][:20])
        return digests

    def same(self, label: str, first: str, second: str) -> None:
        if first != second:
            self.correct = False
            self.problems.append(f"{label}: output differs between two invocations")


def time_import() -> float:
    """Wall time of a cold `import apcap.cli` in a fresh interpreter."""
    start = time.perf_counter()
    code, _ = spawn([sys.executable, "-c", "import apcap.cli"],
                    subprocess.DEVNULL, subprocess.DEVNULL)
    elapsed = time.perf_counter() - start
    if code != 0:
        sys.exit(f"perfbench: `import apcap.cli` exits {code}")
    return elapsed


def import_times() -> dict[str, float]:
    """setup.* metrics: medians of `python -X importtime -c "import apcap.cli"`."""
    samples = defaultdict(list)
    for _ in range(IMPORTTIME_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import apcap.cli"],
            cwd=ROOT, env=ENV, capture_output=True, text=True, check=True,
        )
        rows = []
        for line in proc.stderr.splitlines():
            parts = line.removeprefix("import time:").split("|")
            if len(parts) != 3 or not parts[1].strip().isdigit():
                continue
            name = parts[2].rstrip()
            depth = (len(name) - len(name.lstrip()) - 1) // 2
            rows.append((depth, name.strip(), int(parts[1]) * 1.0e-6))
        for package in ("numpy", "scipy", "apcap"):
            samples[f"setup.{package}_import_s"].append(_outermost(rows, package))
    return {name: statistics.median(values) for name, values in samples.items()}


def _outermost(rows: list[tuple[int, str, float]], package: str) -> float:
    """Cumulative import time of a package's modules not imported by the package itself.

    importtime prints children before their parent, so walking the rows
    backwards visits every parent before its children.
    """
    def inside(name: str) -> bool:
        return name == package or name.startswith(package + ".")

    total = 0.0
    ancestors: list[str] = []
    for depth, name, cumulative in reversed(rows):
        del ancestors[depth:]
        if inside(name) and not any(inside(a) for a in ancestors):
            total += cumulative
        ancestors.append(name)
    return total


def layer_metrics(span_files: list[Path]) -> tuple[dict[str, float], set[str]]:
    """Per-layer metrics of one traced pass, and the targets it found absent."""
    total = defaultdict(float)
    absent: set[str] = set()
    peak_table = 0
    for path in span_files:
        data = json.loads(path.read_text())
        absent.update(data["absent"])
        spans = data["spans"]
        children = defaultdict(list)
        for i, span in enumerate(spans):
            if span[1] >= 0:
                children[span[1]].append(i)

        def beneath(i: int, name: str) -> bool:
            parent = spans[i][1]
            while parent >= 0:
                if spans[parent][0] == name:
                    return True
                parent = spans[parent][1]
            return False

        for i, (name, _, start, end, _, detail) in enumerate(spans):
            if name == "spectrum.eigensolve" and not beneath(i, "spectrum.assemble_spectrum"):
                continue
            covered = [(spans[c][2], spans[c][4]) for c in children[i]]
            total[name + ".calls"] += 1
            total[name + ".self_s"] += (end - start) - _union(covered, start, end)
            if name == "numerics.bessel_j_table" and detail is not None:
                peak_table = max(peak_table, detail)
            elif name == "spectrum.assemble_spectrum" and detail is not None:
                total["spectrum.modes_kept"] += detail[0]
                total["spectrum.modes_significant"] += detail[1]
                if beneath(i, "bounds.beta_at_area"):
                    total["cache_misses"] += 1
            elif name == "waterfill.waterfill" and detail is not None:
                total["gains"] += detail
            elif name == "bounds.beta_at_area" and beneath(i, "bounds.optimize_disc_area"):
                total["bounds.optimize_disc_area.evaluations"] += 1
    metrics = {name: total.get(name, 0.0) for name, _ in PER_LAYER}
    metrics["numerics.bessel_j_table.peak_table_mb"] = peak_table / MIB
    kept = total["spectrum.modes_kept"]
    metrics["spectrum.useful_mode_ratio"] = total["spectrum.modes_significant"] / kept if kept else 0.0
    lookups = total["bounds.beta_at_area.calls"]
    metrics["bounds.spectrum_cache.hit_ratio"] = 1.0 - total["cache_misses"] / lookups if lookups else 0.0
    calls = total["waterfill.waterfill.calls"]
    metrics["waterfill.waterfill.gains_per_call"] = total["gains"] / calls if calls else 0.0
    return metrics, absent


def _union(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    length, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            length += end - start
            reach = end
    return length


def measure(workload: str, seconds: float, trace: bool) -> dict:
    """One run of a workload: its end-to-end metrics, with trace its per-layer
    metrics too, and the lines to print before the result."""
    OUT.mkdir(exist_ok=True)
    invocations = WORKLOADS[workload]
    verifier = Verifier()
    time_import()  # the first import also writes bytecode caches
    setup_layers = import_times() if trace else {}
    imports: list[float] = []
    plain: list[Pass] = []
    traced: list[Pass] = []
    layers: list[dict[str, float]] = []
    absent: set[str] = set()
    spent = 0.0
    while spent < seconds:
        imports.append(time_import())
        done = run_pass(invocations, workload)
        digests = verifier.verify(invocations, done)
        plain.append(done)
        spent += done.wall_s
        if len(plain) == 1:
            # byte-identical output for identical flags, as docs/formats.md promises;
            # the repeat is a check, not an operation
            probe = run_pass(invocations[:1], workload + "-probe")
            again = hashlib.sha256(probe.outputs[0].read_bytes()).hexdigest()
            verifier.same(" ".join(invocations[0]), digests[0], again)
        if trace:
            done = run_pass(invocations, workload + "-traced", traced=True)
            for args, first, second in zip(invocations, digests,
                                           verifier.verify(invocations, done)):
                verifier.same(" ".join(args) + " (traced)", first, second)
            traced.append(done)
            found, missing = layer_metrics(done.span_files)
            layers.append(found)
            absent |= missing
    while len(imports) < SETUP_SAMPLES:
        imports.append(time_import())
    end_to_end = {
        "setup_s": statistics.median(imports),
        "wall_s": statistics.median(p.wall_s for p in plain),
        "cpu_s": statistics.median(p.cpu_s for p in plain),
        "peak_rss_mb": statistics.median(p.peak_rss_mb for p in plain),
    }
    lines = [f"workload {workload}: {len(plain)} pass(es), {len(imports)} timed imports, "
             f"BLAS threads {BLAS_THREADS}"]
    lines += [f"  {name:<40} {end_to_end[name]:>14.6f} {unit}" for name, unit in END_TO_END]
    result = {"end_to_end": _tagged(end_to_end, dict(END_TO_END))}
    if trace:
        per_layer = {name: statistics.median(m[name] for m in layers) for name, _ in PER_LAYER}
        per_layer.update(setup_layers)
        per_layer["trace.overhead_s"] = (
            statistics.median(p.wall_s for p in traced) - end_to_end["wall_s"]
        )
        lines += [f"  {name:<40} {per_layer[name]:>14.6f} {unit}" for name, unit in PER_LAYER]
        lines += [f"  absent: {name}" for name in sorted(absent)]
        result["per_layer"] = _tagged(per_layer, dict(PER_LAYER))
    lines.append(f"  attempted {verifier.attempted}, failed {verifier.failed}, "
                 f"correct {str(verifier.correct).lower()}")
    lines += [f"  FAIL {p}" for p in verifier.problems]
    result.update(lines=lines, correct=verifier.correct, attempted=verifier.attempted,
                  failed=verifier.failed)
    return result


def _tagged(values: dict[str, float], units: dict[str, str]) -> dict:
    return {name: {"value": value, "unit": units[name]} for name, value in values.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0, help="accepted and echoed; no randomness")
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed total per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "apcap" / "cli.py").is_file():
        print(f"perfbench: no src/apcap/cli.py under {ROOT}; run from an apcap checkout",
              file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    if args.workload == "all":
        # every workload: end-to-end metrics from the untraced passes, layers from the traced
        results = {}
        for name in WORKLOADS:
            results[name] = measure(name, args.seconds, trace=True)
            print("\n".join(results[name]["lines"]), flush=True)
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": value for name, r in results.items()
                        for metric, value in {**r["end_to_end"], **r["per_layer"]}.items()},
        }
    else:
        measured = measure(args.workload, args.seconds, bool(args.trace))
        print("\n".join(measured["lines"]))
        result = {key: measured[key] for key in ("correct", "attempted", "failed")}
        result["metrics"] = measured["per_layer" if args.trace else "end_to_end"]
    print(f"seed {args.seed} (no randomness enters)")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
