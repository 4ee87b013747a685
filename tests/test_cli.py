"""End-to-end checks of the command-line interface via subprocesses."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
GOLDEN = SRC / "apcap" / "golden.json"
STARVED = ("bounds", "--max-angular", "0", "--max-radial", "0", "--quadrature-order", "16")


def run_cli(*args, timeout=180, python_flags=()):
    return subprocess.run(
        [sys.executable, *python_flags, "-m", "apcap.cli", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


class TestLinkCommand:
    def test_json_report_fields(self):
        proc = run_cli("link", "--area", "2e5")
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["schema_version"] == 1
        assert payload["g"] == pytest.approx(1.0e-6)
        assert payload["gamma"] == pytest.approx(1.0e7)
        assert payload["gamma_g"] == pytest.approx(10.0)
        assert payload["siso_bits"] == pytest.approx(3.4594316186372973)
        bounds = payload["bounds"]
        assert bounds["regime"] == "strong_signal"
        assert bounds["lower"] == pytest.approx(2.3172404605164445, rel=1e-9)
        assert bounds["K"] == 3
        assert bounds["lower"] <= bounds["upper"]

    def test_csv_single_row(self):
        proc = run_cli("link", "--area", "2e5", "--format", "csv")
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().split("\n")
        assert len(lines) == 2
        assert lines[0].startswith("g,gamma,gamma_g,siso_bits")

    def test_out_file(self, tmp_path):
        target = tmp_path / "link.json"
        proc = run_cli("link", "--area", "2e5", "--out", str(target))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == ""
        assert json.loads(target.read_text())["gamma_g"] == pytest.approx(10.0)

    def test_loss_above_one_rejected(self):
        proc = run_cli("link", "--loss", "1.5")
        assert proc.returncode == 1
        assert "loss" in proc.stderr

    def test_far_field_violation_rejected(self):
        proc = run_cli("link", "--range", "1e3", "--area", "2e5")
        assert proc.returncode == 1
        assert "far-field" in proc.stderr


class TestSweepCommand:
    def test_csv_layout_and_weak_rows(self, tmp_path):
        target = tmp_path / "sweep.csv"
        proc = run_cli(
            "sweep", "--grid", "1:10:3:log", "--area", "2e5", "--format", "csv",
            "--out", str(target),
        )
        assert proc.returncode == 0, proc.stderr
        lines = target.read_text().strip().split("\n")
        assert lines[0] == "gamma_g,siso,lower,upper,approx,K,best_area_ratio"
        assert len(lines) == 4
        # gamma_g = 1 sits below the threshold: no closed-form column entry
        first = lines[1].split(",")
        assert first[0] == "1.0"
        assert first[4] == ""
        last = lines[3].split(",")
        assert float(last[0]) == pytest.approx(10.0, rel=1e-12)
        assert float(last[4]) > 0.0

    def test_byte_determinism(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ("sweep", "--grid", "2:20:3:log", "--area", "2e5", "--format", "csv")
        assert run_cli(*args, "--out", str(a)).returncode == 0
        assert run_cli(*args, "--out", str(b)).returncode == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bad_grid_rejected(self):
        for grid in ("5:1:10:log", "1:10:1:log", "-1:10:5:log", "1:10:5:cubic", "junk"):
            proc = run_cli("sweep", "--grid", grid, "--area", "2e5")
            assert proc.returncode == 1, grid
            assert "grid" in proc.stderr


class TestSpectrumCommand:
    def test_csv_modes(self):
        proc = run_cli("spectrum", "--area", "2e5", "--format", "csv")
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().split("\n")
        assert lines[0] == "N,m,beta,nu_sq"
        top = lines[1].split(",")
        assert (top[0], top[1]) == ("0", "0")
        assert float(top[2]) == pytest.approx(0.2468490271803804, rel=1e-9)

    def test_json_sum_rule_header(self):
        proc = run_cli("spectrum", "--area", "2e5")
        payload = json.loads(proc.stdout)
        assert payload["sum_rule"]["fraction"] == pytest.approx(1.0, abs=1e-3)
        assert payload["geometry"]["space_bandwidth_M0"] == pytest.approx(4.0)

    def test_loss_rejected_at_geometry(self):
        proc = run_cli("spectrum", "--area", "2e5", "--loss", "1.5")
        assert proc.returncode == 1
        assert "loss" in proc.stderr


class TestBoundsCommand:
    def test_fixed_area_json(self):
        proc = run_cli("bounds", "--area", "2e5")
        payload = json.loads(proc.stdout)
        assert payload["schema_version"] == 1
        assert payload["lower"] == pytest.approx(2.3172404605164445, rel=1e-9)
        assert payload["best_area"] == pytest.approx(2.0e5)

    def test_truncation_override_changes_capture(self):
        proc = run_cli(
            "bounds", "--area", "2e5", "--max-angular", "2", "--max-radial", "1"
        )
        payload = json.loads(proc.stdout)
        # a starved truncation loses spectral mass but the top modes survive
        assert payload["lower"] == pytest.approx(2.317, abs=2e-3)

    def test_truncation_override_applies_when_optimizing(self):
        default = run_cli("bounds")
        starved = run_cli(*STARVED)
        assert default.returncode == 0 and starved.returncode == 0
        assert starved.stdout != default.stdout

    def test_truncation_warning_is_one_line_per_message(self):
        # every disc the optimizer tries loses mass to the starved truncation
        starved = run_cli(*STARVED)
        assert starved.returncode == 0
        lines = starved.stderr.splitlines()
        assert len(lines) > 1 and len(set(lines)) == len(lines)
        for line in lines:
            assert line.startswith("apcap: warning: retained modes capture ")
            assert line.endswith("of the theoretical spectral mass; increase the truncation orders")
        silenced = run_cli(*STARVED, python_flags=("-W", "ignore"))
        assert silenced.returncode == 0 and silenced.stderr == ""
        assert starved.stdout == silenced.stdout


class TestReceivedSnrRange:
    def test_gamma_g_1e7_optimizes(self):
        # the area grid reaches c = 160 here, past the old quadrature limit
        proc = run_cli("bounds", "--power", "1e13")
        assert proc.returncode == 0 and proc.stderr == ""
        payload = json.loads(proc.stdout)
        assert payload["gamma_g"] == pytest.approx(1.0e7)
        assert payload["lower"] <= payload["upper"]

    def test_past_supported_gamma_g_names_the_range(self):
        proc = run_cli("bounds", "--power", "1e15")
        assert proc.returncode == 1 and proc.stdout == ""
        assert "gamma*g up to 7.60" in proc.stderr
        assert "c = 2 |S| / (lambda d) = 472" in proc.stderr
        assert "quadrature order" not in proc.stderr

    def test_past_supported_c_names_the_range(self):
        proc = run_cli("spectrum", "--area", "2.4e7")
        assert proc.returncode == 1
        assert "outside supported range (0, 472]" in proc.stderr


class TestArrayCommand:
    def test_json_design(self):
        proc = run_cli("array", "--area", "2e5", "--streams", "3", "--cells", "64")
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["N"] == 64 and payload["K"] == 3
        assert len(payload["elements"]) == 64
        assert len(payload["weights"][0]) == 64
        assert sum(payload["powers"]) == pytest.approx(1.0e7, rel=1e-9)

    def test_streams_past_kept_modes_refused(self):
        # the 1e-16 cut keeps 90 modes of this disc
        kept = json.loads(run_cli("spectrum", "--area", "2e5").stdout)["modes"]
        proc = run_cli("array", "--area", "2e5", "--streams", str(len(kept) + 1), "--cells", "128")
        assert proc.returncode == 1 and proc.stdout == ""
        assert f"exceeds available modes {len(kept)} (the spectrum keeps only" in proc.stderr

    def test_non_finite_weights_refused(self):
        # area / aperture-tx overflows, so the weights would be NaN, which JSON lacks
        proc = run_cli("array", "--area", "2e5", "--cells", "64", "--aperture-tx", "1e-305")
        assert proc.returncode == 1 and proc.stdout == ""
        errors = [line for line in proc.stderr.splitlines() if line.startswith("apcap: error:")]
        assert errors == ["apcap: error: array design field 'weights' holds a non-finite value"]

    def test_csv_refused(self):
        proc = run_cli("array", "--area", "2e5", "--format", "csv")
        assert proc.returncode == 1
        assert "JSON" in proc.stderr


class TestVerifyCommand:
    def test_list_names(self):
        proc = run_cli("verify", "--list")
        assert proc.returncode == 0
        names = proc.stdout.strip().split("\n")
        assert len(names) == 15
        assert "eps0_constant" in names
        assert "array_gram_convergence" in names

    def test_single_check_passes(self):
        proc = run_cli("verify", "eps0_constant")
        assert proc.returncode == 0
        assert "PASS" in proc.stdout
        assert "1 passed, 0 failed" in proc.stdout

    def test_unknown_name_rejected(self):
        proc = run_cli("verify", "no_such_check")
        assert proc.returncode == 1
        assert "unknown check" in proc.stderr

    def test_tampered_golden_fails(self, tmp_path):
        golden = json.loads(GOLDEN.read_text())
        golden["eps0"] += 1e-3
        bad = tmp_path / "golden.json"
        bad.write_text(json.dumps(golden))
        proc = run_cli("verify", "eps0_constant", "--golden", str(bad))
        assert proc.returncode == 2
        assert "FAIL" in proc.stdout

    def test_small_golden_drift_fails(self, tmp_path):
        # the smallest off-diagonal mass is below 1e-9, so only a purely
        # relative comparison catches a 50% drift in it
        golden = json.loads(GOLDEN.read_text())
        golden["gram_offdiag_frobenius"][-1] *= 1.5
        bad = tmp_path / "golden.json"
        bad.write_text(json.dumps(golden))
        proc = run_cli("verify", "array_gram_convergence", "--golden", str(bad))
        assert proc.returncode == 2
        assert "FAIL" in proc.stdout


class TestParserBehavior:
    def test_unknown_subcommand_exits_one(self):
        proc = run_cli("frobnicate")
        assert proc.returncode == 1

    def test_missing_subcommand_exits_one(self):
        proc = run_cli()
        assert proc.returncode == 1

    def test_console_script_installed(self):
        path = shutil.which("apcap")
        assert path is not None
        proc = subprocess.run(
            [path, "verify", "--list"], capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0


class TestColdStart:
    def test_import_needs_no_scipy(self):
        probe = "import apcap.cli, sys; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
        proc = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True,
            text=True,
            timeout=60,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"
