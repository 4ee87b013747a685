"""Smoke runs of the study scripts: each exits 0 and prints its header line.

refresh_golden.py runs with --help only, since its dense 2-D oracle takes
minutes; argparse exits after the script's imports, so a renamed or
deleted name it imports still fails here. Its --check verdict, check(), is
tested in process on edited copies of the packaged golden values. Every
script's Usage: line must also run as written, from the root of the
checkout: its --help runs with the line's own environment assignments and
no other PYTHONPATH.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from apcap.verification import GOLDEN_KEYS, load_golden

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script, args, header",
    [
        ("area_landscape.py", ("--points", "8"), "gamma_g = 100, upper bound 11.6100 b/s/Hz"),
        (
            "array_convergence.py",
            ("--cells", "64"),
            "gamma_g = 10, M0 = 4, K = 4: mode bound 2.317240 b/s/Hz (3 active streams)",
        ),
        ("truncation_study.py", ("--c", "0.5"), "     c  N_hi  stop (stop-c)/c^1/3    Q Q_ref"),
        ("refresh_golden.py", ("--help",), "usage: refresh_golden.py [-h]"),
    ],
)
def test_script_runs(script, args, header):
    assert run_script(script, *args)[0].startswith(header)


def test_truncation_study_columns():
    # the fixed small orders sit beside the earlier default ceil(c) + 40, the
    # default Q is the floor of 16, and the reference ceil(c) + 120 does not move
    # with the default
    header, row = run_script("truncation_study.py", "--c", "0.05")[:2]
    assert header.split()[6:] == [
        "Q", "16", "Q", "24", "Q", "32", "ceil(c)+40", "default",
        "kept", "block", "MB", "s", "gate",
    ]
    assert row.split()[:6] == ["0.05", "11", "4", "10.72", "16", "121"]
    assert row.split()[-1] == "ok"


@pytest.fixture(scope="module")
def refresh_golden():
    """scripts/refresh_golden.py as a module; importing it computes nothing."""
    path = ROOT / "scripts" / "refresh_golden.py"
    spec = importlib.util.spec_from_file_location("refresh_golden", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def golden_check(refresh_golden, capsys, fresh, committed):
    """check()'s verdict, and its printed line for each key."""
    ok = refresh_golden.check(fresh, committed)
    lines = capsys.readouterr().out.splitlines()[1:]
    return ok, {line.split()[0]: line for line in lines}


def test_golden_check_flags_a_key_moved_past_its_tolerance(refresh_golden, capsys):
    committed = load_golden()
    fresh = dict(committed, eps0=committed["eps0"] * (1.0 + 1.0e-9))
    ok, lines = golden_check(refresh_golden, capsys, fresh, committed)
    assert not ok
    assert lines.keys() == GOLDEN_KEYS.keys()
    assert lines.pop("eps0").endswith("1.000e-09  (1e-12, 0)  MOVED PAST")
    assert all(line.endswith(")  ok") for line in lines.values())


def test_golden_check_ignores_a_key_no_check_reads(refresh_golden, capsys):
    committed = load_golden()
    fresh = dict(committed, maximizer_beta_snr100=0.0)
    del committed["array_study_lower_bound"]
    ok, lines = golden_check(refresh_golden, capsys, fresh, committed)
    assert ok
    assert lines.keys() == GOLDEN_KEYS.keys()


def test_golden_check_flags_a_missing_key(refresh_golden, capsys):
    fresh = load_golden()
    committed = dict(fresh)
    del committed["lemma1_gap_sequence"]
    ok, lines = golden_check(refresh_golden, capsys, fresh, committed)
    assert not ok
    assert lines["lemma1_gap_sequence"].endswith("golden file missing key 'lemma1_gap_sequence'")


@pytest.mark.parametrize("script", sorted(p.name for p in (ROOT / "scripts").glob("*.py")))
def test_usage_line_runs_as_written(script):
    # the Usage: line's environment assignments, then python3 and the script's path
    # from the root; nothing else of PYTHONPATH reaches the run
    line = next(
        line for line in (ROOT / "scripts" / script).read_text().splitlines()
        if line.startswith("Usage: ")
    )
    words = line.split()[1:]
    assignments = words[: next(i for i, word in enumerate(words) if "=" not in word)]
    assert words[len(assignments) : len(assignments) + 2] == ["python3", f"scripts/{script}"]
    env = {name: value for name, value in os.environ.items() if name != "PYTHONPATH"}
    env.update(assignment.split("=", 1) for assignment in assignments)
    proc = subprocess.run(
        [sys.executable, f"scripts/{script}", "--help"],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=ROOT,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(f"usage: {script} [-h]")


def run_script(script, *args):
    """stdout lines of one run of scripts/SCRIPT, which must exit 0."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True,
        text=True,
        timeout=120,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()
