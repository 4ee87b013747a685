"""Repeat the benchmark over seeds and check that two sets of runs agree.

usage:
  python3 perfbench/stability.py run SET_A [SET_B] [--runs 10] [--first-seed 1]
  python3 perfbench/stability.py compare SET_A SET_B

`run` calls the command in BENCHMARK.json with --trace 0 and its run_seconds,
--runs times per set and workload, each time with a new seed, and stores the
results in perfbench/results/SET.json. Given two sets, it alternates between
them run by run, so that a drift in machine speed reaches both alike, and
then compares them. For each workload and end-to-end metric it prints the
median, the quartiles of statistics.quantiles(n=4) and the spread
(q3 - q1) / median beside the metric's bound; `compare` also prints how far
the median of SET_B lies from that of SET_A, in either direction, and whether
the share of failed operations matches exactly. Both exit 0 only when every
spread and every median shift is within the metric's bound and the shares
match.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_sets(names: list[str], runs: int, first_seed: int) -> None:
    RESULTS.mkdir(exist_ok=True)
    paths = [RESULTS / f"{name}.json" for name in names]
    sets = [json.loads(path.read_text()) if path.exists() else {} for path in paths]
    seed = first_seed
    for workload in (w["name"] for w in spec()["workloads"]):
        for _ in range(runs):
            for name, path, results in zip(names, paths, sets):
                result = run_once(workload, seed)
                results.setdefault(workload, []).append(result)
                path.write_text(json.dumps(results, indent=1))
                shown = "  ".join(f"{k} {v['value']:.4f}" for k, v in result["metrics"].items())
                print(f"{name} {workload} seed {seed}: {shown}", flush=True)
                seed += 1


def run_once(workload: str, seed: int) -> dict:
    """One run of the BENCHMARK.json command with --workload, --seed, --seconds and --trace 0."""
    bench = spec()
    cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    if cmd[0] in ("python", "python3"):
        cmd[0] = sys.executable
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(results: list[dict], metric: str) -> tuple[float, float, float]:
    values = [r["metrics"][metric]["value"] for r in results]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def failed_share(results: list[dict]) -> tuple[int, int]:
    return sum(r["failed"] for r in results), sum(r["attempted"] for r in results)


def report(name: str, other: str | None = None) -> bool:
    bench = spec()
    first = json.loads((RESULTS / f"{name}.json").read_text())
    second = json.loads((RESULTS / f"{other}.json").read_text()) if other else None
    ok = True
    for workload, results in first.items():
        failed, attempted = failed_share(results)
        print(f"{workload}: {len(results)} runs, failed {failed} of {attempted}, "
              f"all correct: {all(r['correct'] for r in results)}")
        if second is not None:
            failed_b, attempted_b = failed_share(second[workload])
            same = failed * attempted_b == failed_b * attempted
            ok &= same
            print(f"  {other}: failed {failed_b} of {attempted_b}, same share: {same}")
        for metric in bench["end_to_end"]:
            name_, bound = metric["name"], metric["bound"]
            median, q1, q3 = summary(results, name_)
            spread = (q3 - q1) / median
            ok &= spread <= bound
            line = (f"  {name_:<12} median {median:10.4f}  q1 {q1:10.4f}  q3 {q3:10.4f}  "
                    f"spread {spread:6.2%} (bound {bound:.0%}, a third {bound / 3:.2%})")
            if second is not None:
                median_b, q1_b, q3_b = summary(second[workload], name_)
                shift = (median_b - median) / median
                spread_b = (q3_b - q1_b) / median_b
                ok &= abs(shift) <= bound and spread_b <= bound
                line += f"\n  {'':<12} {other}: median {median_b:10.4f}  spread {spread_b:6.2%}  " \
                        f"median shift {shift:+.2%}"
            print(line)
    print("agree within bounds" if ok else "NOT within bounds")
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="action", required=True)
    p_run = sub.add_parser("run")
    p_run.add_argument("sets", nargs="+", metavar="SET", help="one or two set names")
    p_run.add_argument("--runs", type=int, default=10)
    p_run.add_argument("--first-seed", type=int, default=1)
    p_compare = sub.add_parser("compare")
    p_compare.add_argument("first")
    p_compare.add_argument("second")
    args = parser.parse_args()
    if args.action == "run":
        if len(args.sets) > 2:
            parser.error("run takes one or two sets")
        run_sets(args.sets, args.runs, args.first_seed)
        return 0 if report(*args.sets) else 1
    return 0 if report(args.first, args.second) else 1


if __name__ == "__main__":
    sys.exit(main())
