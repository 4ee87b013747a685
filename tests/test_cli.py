"""End-to-end checks of the command-line interface via subprocesses."""

import argparse
import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apcap import DEFAULT_SEED
from apcap.verification import GOLDEN_KEYS, run_checks

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
        specs = ("5:1:10:log", "1:10:1:log", "-1:10:5:log", "1:10:5:cubic", "junk")
        # a zero lin minimum, an infinite maximum and a finite value whose rescaled
        # power overflows are refused as grids, not by the power of the link a grid
        # value would rescale; the last one also after the area optimizer has run
        overflow = "1:1e305:2:log"
        cases = [(grid, "--area", "2e5") for grid in (*specs, "0:10:3:lin", "1:inf:3:lin", overflow)]
        for grid, *area in [*cases, (overflow,)]:
            # --grid=SPEC, so that argparse does not take "-1:..." for an option
            proc = run_cli("sweep", f"--grid={grid}", *area)
            assert proc.returncode == 1 and proc.stdout == "", grid
            (line,) = proc.stderr.splitlines()
            assert line.startswith("apcap: error: ") and "grid" in line, grid
            if grid == overflow:
                assert line.startswith("apcap: error: grid value 1e+305 "), line

    def test_grid_value_with_overflowing_snr_named(self):
        # the rescaled power 1e294 W is finite, but P/(B*N0) = 1e314 overflows
        proc = run_cli(
            "sweep", "--bandwidth", "1e-10", "--noise-psd", "1e-10", "--grid", "1:1e308:2:log"
        )
        assert proc.returncode == 1 and proc.stdout == ""
        (line,) = proc.stderr.splitlines()
        assert line.startswith("apcap: error: grid value 1e+308: received SNR gamma*g "), line

    def test_link_checked_before_grid(self):
        proc = run_cli("sweep", "--power", "-1", "--grid", "junk")
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.splitlines() == [
            "apcap: error: power_P must be a positive finite number, got -1.0"
        ]


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

    def test_underflowing_disc_refused(self):
        # the spectral mass L |S|^2 / (lambda d)^2 underflows to 0 here
        proc = run_cli("spectrum", "--area", "1e-300")
        assert proc.returncode == 1 and proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("apcap: error: disc area 1e-300 is too small")

    def test_tiny_disc_still_solved(self):
        proc = run_cli("spectrum", "--area", "1e-30")
        assert proc.returncode == 0 and proc.stderr == ""
        payload = json.loads(proc.stdout)
        assert payload["sum_rule"]["fraction"] == pytest.approx(1.0, abs=1e-12)
        assert [(m["N"], m["m"]) for m in payload["modes"]] == [(0, 0)]


class TestBoundsCommand:
    def test_out_into_missing_directory_refused(self, tmp_path):
        target = tmp_path / "missing" / "bounds.json"
        proc = run_cli("bounds", "--area", "2e5", "--out", str(target))
        assert proc.returncode == 1 and proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"apcap: error: cannot write --out {str(target)!r}: ")

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
        # at gamma*g = 1e3 the best disc carries 17 streams; the starved truncation
        # keeps one mode per disc, so the optimizer settles on the smallest grid area
        default = run_cli("bounds", "--power", "1e9")
        starved = run_cli(*STARVED, "--power", "1e9")
        assert default.returncode == 0 and starved.returncode == 0
        default, starved = json.loads(default.stdout), json.loads(starved.stdout)
        assert (default["K"], starved["K"]) == (17, 1)
        assert default["best_area"] == pytest.approx(358707.6307253363, rel=1e-9)
        assert starved["best_area"] == 100.0

    def test_area_floor_refusal_names_both_sides(self):
        # 1e-7 below max(A_T, A_R) = 100, past the 1e-12 slack: the two numbers must differ
        out, err, code = main_output("bounds", "--area", "99.9999999")
        assert (out, code) == ("", 1)
        assert err == "apcap: error: synthesis area 99.9999999 is below max(A_T, A_R) = 100\n"

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

    def test_undersized_quadrature_warns_once_for_the_largest_c(self):
        # every disc the optimizer tries past c = 13 is undersized at Q = 16
        proc = run_cli("bounds", "--quadrature-order", "16", "--power", "1e12")
        assert proc.returncode == 0
        assert proc.stderr.splitlines() == [
            "apcap: warning: quadrature order 16 is below ceil(c/2 + 4 c^(1/3)) = 63 at "
            "c = 89.8867; the modes are not converged, and the sum rule cannot show it"
        ]

    def test_warning_repeats_in_one_process(self, capsys):
        # the second call reads the first call's spectrum from the memo
        from apcap.cli import main

        errs = []
        for _ in range(2):
            assert main([*STARVED, "--area", "2e5"]) == 0
            errs.append(capsys.readouterr().err)
        assert errs[0] == errs[1]
        assert errs[0].startswith("apcap: warning: retained modes capture 24.3738% ")


class TestSubnormalGain:
    @pytest.mark.parametrize("command", ["bounds", "link", "array"])
    def test_infinite_noise_floor_refused(self, command):
        # the top gain is subnormal here, so B N0 / g overflows
        proc = run_cli(command, "--area", "2e5", "--aperture-tx", "1e-305")
        assert proc.returncode == 1 and proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("apcap: error: top gain ")

    def test_overflowing_water_level_stays_finite(self):
        # every inverted floor is finite, but the sum of the first two overflows
        proc = run_cli("bounds", "--area", "2e5", "--aperture-tx", "3e-300")
        assert proc.returncode == 0 and proc.stderr == ""
        payload = json.loads(proc.stdout)
        assert payload["K"] == 1 and 0.0 <= payload["lower"] <= payload["upper"]


@pytest.mark.parametrize(
    "args",
    [
        ("link", "--bandwidth", "1e-300", "--noise-psd", "1e-300"),
        ("link", "--wavelength", "1e200"),
        ("bounds", "--power", "1e300", "--bandwidth", "1e-10", "--area", "2e5"),
    ],
    ids=["B*N0-underflows", "lambda^2-overflows", "gamma-overflows"],
)
def test_non_finite_received_snr_refused(args):
    # once a ZeroDivisionError, an OverflowError and a "gamma_g": Infinity report
    proc = run_cli(*args)
    assert proc.returncode == 1 and proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("apcap: error: received SNR gamma*g ")


@pytest.mark.parametrize(
    "args, error",
    [
        (
            ("spectrum", "--range", "1e200", "--area", "1"),
            "disc area 1 is too small: its spectral mass L |S|^2 / (lambda d)^2 = 0 ",
        ),
        (
            ("spectrum", "--range", "1e200", "--area", "1e195"),
            "lambda d = 1e+199 m^2: its square, which scales every mode by L / (lambda d)^2, "
            "is not a positive finite double",
        ),
        (
            ("spectrum", "--wavelength", "1e-200", "--range", "1", "--area", "1e-250"),
            "lambda d = 1e-200 m^2: its square, which scales every mode by L / (lambda d)^2, "
            "is not a positive finite double",
        ),
        (
            ("sweep", "--loss", "5e-324", "--area", "2e5"),
            "received SNR gamma*g underflows to 0, so no transmit power rescales the link "
            "to a sweep grid value",
        ),
        (
            ("link", "--wavelength", "1e-200", "--range", "1e-200"),
            "far-field admissibility violated: sqrt(A_T*A_R)/(lambda*d) = inf exceeds 0.01",
        ),
    ],
    ids=["d^2-overflows", "(lambda d)^2-overflows", "(lambda d)^2-underflows",
         "gamma*g-underflows", "lambda*d-underflows"],
)
def test_float_range_edges_refused_in_one_line(args, error):
    # once an OverflowError in the disc's area check, an OverflowError and a
    # ZeroDivisionError forming L / (lambda d)^2, and ZeroDivisionErrors rescaling
    # the sweep's power and forming the far-field ratio
    proc = run_cli(*args)
    assert proc.returncode == 1 and proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"apcap: error: {error}")


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

    def test_non_finite_weights_refused(self, tmp_path):
        # area / aperture-tx overflows, so the weights would be NaN, which JSON lacks;
        # the low noise PSD keeps the waterfill's inverted floors finite
        target = tmp_path / "d.json"
        for out in ((), ("--out", str(target))):
            proc = run_cli(
                "array", "--area", "2e5", "--cells", "64", "--aperture-tx", "1e-305",
                "--noise-psd", "1e-10", *out,
            )
            assert proc.returncode == 1 and proc.stdout == ""
            errors = [line for line in proc.stderr.splitlines() if line.startswith("apcap: error:")]
            assert errors == ["apcap: error: array design field 'weights' holds a non-finite value"]
        # the refusal comes before --out is opened
        assert not target.exists()

    def test_out_file_matches_stdout(self, tmp_path):
        target = tmp_path / "d.json"
        for args in (
            ("array", "--area", "2e5", "--streams", "3", "--cells", "64"),
            # A_T != A_R: the receive elements and weight rows are formatted on their own
            ("array", "--area", "2e5", "--streams", "3", "--cells", "64", "--aperture-rx", "400"),
        ):
            assert run_cli(*args, "--out", str(target)).returncode == 0
            assert target.read_text() == run_cli(*args).stdout

    def test_stdout_written_in_blocks(self, monkeypatch):
        from apcap.arrays import design_json, synthesize_array
        from apcap.cli import _emit
        from apcap.link import LinkBudget

        class CountingStream(io.StringIO):
            writes = 0

            def write(self, text):
                self.writes += 1
                return super().write(text)

        link = LinkBudget(1.0e9, 1.0, 1.0, 0.1, 1.0e6, 1.0, 100.0, 100.0)
        pieces = design_json(synthesize_array(link, 4.0e5, 21, 4096))
        stream = CountingStream()
        monkeypatch.setattr(sys, "stdout", stream)
        _emit(argparse.Namespace(out_path=None), *pieces)
        text = "".join(pieces)
        assert stream.getvalue() == text
        # one write per piece, and design_json's pieces are its weight rows and fields, so
        # the writes are no more than 64 KiB blocks and the pieces past that size would make
        large = sum(len(piece) > 64 * 1024 for piece in pieces)
        assert stream.writes <= math.ceil(len(text) / (64 * 1024)) + large

    def test_csv_refused(self):
        proc = run_cli("array", "--area", "2e5", "--format", "csv")
        assert proc.returncode == 1
        assert "JSON" in proc.stderr

    def test_far_field_gate(self):
        # sqrt(A_T A_R) / (lambda d) = 0.2, as `bounds` refuses for the same link
        proc = run_cli(
            "array", "--area", "3e5", "--aperture-tx", "2e3", "--aperture-rx", "2e3",
            "--range", "1e5", "--cells", "4096", "--streams", "1",
        )
        assert proc.returncode == 1 and proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("apcap: error: far-field admissibility")

    def test_link_checked_before_format(self):
        proc = run_cli("array", "--format", "csv", "--loss", "2", "--area", "2e5")
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.splitlines() == ["apcap: error: loss_L must not exceed 1, got 2.0"]


# a link that fails the far-field gate, sqrt(A_T A_R)/(lambda d) = 10, with a second fault
NEAR_FIELD = ("--range", "1e3", "--aperture-tx", "1e4")


@pytest.mark.parametrize(
    "args",
    [
        ("sweep", *NEAR_FIELD, "--grid", "junk"),
        ("array", "--format", "csv", *NEAR_FIELD, "--area", "2e5"),
        ("array", "--streams", "0", *NEAR_FIELD, "--area", "2e5"),
    ],
)
def test_far_field_gate_checked_before_other_inputs(args):
    proc = run_cli(*args)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.splitlines() == [
        "apcap: error: far-field admissibility violated: sqrt(A_T*A_R)/(lambda*d) = 10 exceeds 0.01"
    ]


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

    def test_unknown_name_rejected_before_list(self):
        proc = run_cli("verify", "--list", "no_such_check")
        assert proc.returncode == 1 and proc.stdout == ""
        assert "unknown check names: no_such_check" in proc.stderr

    @pytest.mark.parametrize("first", [(), ("--list",)])
    def test_negative_seed_refused_before_any_check(self, first):
        proc = run_cli(
            "verify", *first, "--seed", "-1", "far_field_reduction_gap", "waterfill_vs_greedy_oracle"
        )
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr == "apcap: error: --seed must be a nonnegative integer, got -1\n"

    @pytest.mark.parametrize(
        "content, reason",
        [
            (None, "No such file or directory"),
            (b"{", "Expecting property name enclosed in double quotes"),
            (b"\xff", "can't decode byte 0xff"),
            (b"[1, 2]", "not a JSON object"),
        ],
    )
    def test_unreadable_golden_refused(self, tmp_path, content, reason):
        path = tmp_path / "golden.json"
        if content is not None:
            path.write_bytes(content)
        proc = run_cli("verify", "--golden", str(path), "eps0_constant")
        assert proc.returncode == 1 and proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"apcap: error: cannot read --golden {str(path)!r}: ")
        assert reason in lines[0]

    def test_golden_read_only_when_checks_run(self, tmp_path):
        proc = run_cli("verify", "--list", "--golden", str(tmp_path / "absent.json"))
        assert proc.returncode == 0 and len(proc.stdout.splitlines()) == 15

    def test_tampered_golden_fails(self, tmp_path):
        golden = json.loads(GOLDEN.read_text())
        golden["eps0"] += 1e-3
        bad = tmp_path / "golden.json"
        bad.write_text(json.dumps(golden))
        proc = run_cli("verify", "eps0_constant", "--golden", str(bad))
        assert proc.returncode == 2
        assert "FAIL" in proc.stdout

    def test_dense_oracle_drift_fails(self, tmp_path):
        # a 1e-11 relative drift in one frozen gain fraction is far past the 1.5e-14
        # the check measures, and far below the old rtol of 1e-5
        golden = json.loads(GOLDEN.read_text())
        golden["dense_oracle_gain_fractions_c2"][1] *= 1.0 + 1.0e-11
        bad = tmp_path / "golden.json"
        bad.write_text(json.dumps(golden))
        proc = run_cli("verify", "spectrum_vs_dense_oracle", "--golden", str(bad))
        assert proc.returncode == 2
        assert "FAIL  spectrum_vs_dense_oracle" in proc.stdout

    @pytest.mark.parametrize("key, check", [(key, row[0]) for key, row in GOLDEN_KEYS.items()])
    def test_missing_golden_key_fails(self, tmp_path, key, check):
        golden = json.loads(GOLDEN.read_text())
        del golden[key]
        bad = tmp_path / "golden.json"
        bad.write_text(json.dumps(golden))
        (result,) = run_checks([check], golden_path=str(bad))
        assert not result.passed
        assert result.measured == f"raised LookupError: golden file missing key {key!r}"
        assert result.limit  # a crashed check still states its window

    def test_golden_keys(self):
        # every key a check reads is shipped; the rest are refresh-only records
        keys = set(json.loads(GOLDEN.read_text()))
        assert set(GOLDEN_KEYS) <= keys
        assert keys - set(GOLDEN_KEYS) == {"array_study_lower_bound", "maximizer_beta_snr100"}

    def test_non_default_seed_skips_the_lemma1_golden(self, tmp_path):
        # the frozen gaps are those of DEFAULT_SEED's layout; another seed draws another
        golden = json.loads(GOLDEN.read_text())
        golden["lemma1_gap_sequence"][0] *= 2.0
        bad = tmp_path / "golden.json"
        bad.write_text(json.dumps(golden))
        (seeded,) = run_checks(["far_field_reduction_gap"], seed=7, golden_path=str(bad))
        assert seeded.passed
        assert seeded.measured.endswith("]; golden skipped (non-default seed)")
        (default,) = run_checks(
            ["far_field_reduction_gap"], seed=DEFAULT_SEED, golden_path=str(bad)
        )
        assert not default.passed
        assert default.measured.endswith("; golden rel err 5.00e-01")

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

    @pytest.mark.parametrize("key", list(GOLDEN_KEYS))
    def test_drift_of_ten_tolerances_is_caught(self, tmp_path, key):
        golden = json.loads(GOLDEN.read_text())
        check, rtol, atol = GOLDEN_KEYS[key]
        values = np.atleast_1d(golden[key])
        moved = [value * (1.0 + 10.0 * rtol) + 10.0 * atol for value in values]
        golden[key] = moved if isinstance(golden[key], list) else moved[0]
        bad = tmp_path / "golden.json"
        bad.write_text(json.dumps(golden))
        (result,) = run_checks([check], golden_path=str(bad))
        assert not result.passed
        # the drift shows in what the check measured, also behind a window that fails by design
        assert float(result.measured.rsplit("; golden rel err ", 1)[1]) > rtol


class TestParserBehavior:
    def test_unknown_subcommand_exits_one(self):
        proc = run_cli("frobnicate")
        assert proc.returncode == 1

    def test_missing_subcommand_exits_one(self):
        proc = run_cli()
        assert proc.returncode == 1

    @pytest.mark.parametrize("command", ["link", "sweep", "spectrum", "bounds", "array"])
    def test_seed_only_on_verify(self, command):
        proc = run_cli(command, "--area", "2e5", "--seed", "1")
        assert proc.returncode == 1 and proc.stdout == ""
        assert "unrecognized arguments: --seed 1" in proc.stderr

    def test_verify_takes_seed(self):
        proc = run_cli("verify", "--seed", "1", "--list")
        assert proc.returncode == 0 and len(proc.stdout.splitlines()) == 15

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
        assert probe_python(probe) == "[]"

    def test_checks_imported_only_by_verify(self):
        # and the array synthesis only by array, the CSV writer only by --format csv
        modules = ("apcap.verification", "apcap.arrays", "csv")
        probe = f"import apcap.cli, sys; print([m for m in {modules} if m in sys.modules])"
        assert probe_python(probe) == "[]"

    def test_checks_leave_the_cli_out(self):
        # the checks read DEFAULT_SEED from the package root, not from the CLI
        assert probe_python("import apcap.verification, sys; print('apcap.cli' in sys.modules)") == "False"

    def test_submodule_is_not_shadowed(self):
        # the package root re-exports no function under its module's name
        import apcap.waterfill as m

        assert isinstance(m, types.ModuleType)


def probe_python(probe):
    """stdout, stripped, of a fresh interpreter running probe with the package on its path."""
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        timeout=60,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


# refusals, the bounds path and its cached solves, an array's radial solve, and a
# sweep whose rising powers read on past the orders earlier water cuts solved
EARLIER_CALLS = [
    ("bounds", "--area", "50"),
    ("spectrum", "--area", "1e-300"),
    ("sweep", "--power", "-1", "--grid", "junk"),
    ("link",),
    ("spectrum", "--area", "2e5"),
    ("bounds", "--area", "2e5"),
    ("sweep", "--area", "2e5", "--grid", "2:20:3:log"),
    ("array", "--area", "2e5", "--cells", "1024"),
    ("sweep", "--area", "3.2e6", "--grid", "1e3:1e6:16:log"),
]


class TestEarlierCalls:
    def test_outputs_match_fresh_processes_in_either_order(self, capsys):
        from apcap import spectrum
        from apcap.cli import main

        fresh = {args: run_cli(*args) for args in EARLIER_CALLS}
        spectrum._memo_entry.cache_clear()
        for args in EARLIER_CALLS + EARLIER_CALLS[::-1]:
            code = main(list(args))
            out, err = capsys.readouterr()
            proc = fresh[args]
            assert (out, err, code) == (proc.stdout, proc.stderr, proc.returncode), args


def main_output(*args):
    """stdout, stderr and exit code of one in-process apcap.cli.main call."""
    from apcap.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(args))
    return out.getvalue(), err.getvalue(), code


class TestWavelengthRangeProduct:
    """Metamorphic: lambda and d enter the physics only as lambda*d.

    Scaling lambda by 2^k and d by 2^-k is exact in floating point, and so is
    each product and quotient built from them, so every output that does not
    echo lambda or d is bit-identical. The one gate on d alone, the small-disc
    area gate |S| <= 1e-4 pi d^2, is not invariant; every drawn disc lies far
    inside it on both sides.
    """

    @settings(max_examples=25)
    @given(
        wavelength=st.sampled_from((0.05, 0.1, 0.3)),
        range_d=st.sampled_from((2.5e5, 1.0e6, 3.0e6)),
        k=st.sampled_from((-2, -1, 1, 2)),
        # |S| / (lambda d): c = 2 |S| / (lambda d) stays at most 16, so no draw starts a large-c walk
        area_ratio=st.floats(0.25, 8.0),
    )
    def test_outputs_depend_on_lambda_d_only(self, wavelength, range_d, k, area_ratio):
        area = repr(area_ratio * wavelength * range_d)
        paths = [
            ("--wavelength", repr(wavelength), "--range", repr(range_d)),
            ("--wavelength", repr(wavelength * 2.0**k), "--range", repr(range_d / 2.0**k)),
        ]
        commands = (
            ("link", "--area", area),
            ("bounds", "--area", area),
            ("array", "--area", area, "--streams", "1", "--cells", "16"),
            ("spectrum", "--area", area),
        )
        for command in commands:
            results = [main_output(*command, *path) for path in paths]
            if command[0] != "spectrum":
                assert results[0] == results[1], command
                continue
            # the spectrum's geometry header echoes lambda and d; nothing else may move
            reports = [json.loads(out) for out, _, _ in results]
            for report in reports:
                del report["geometry"]["wavelength_lambda"], report["geometry"]["range_d"]
            assert reports[0] == reports[1]
            assert results[0][1:] == results[1][1:]
