"""Named verification checks behind the verify subcommand.

Each check recomputes a quantitative claim about the package from scratch
and compares against its stated window, plus a frozen golden value where
one exists (golden.json ships inside the package; --golden overrides the
path, which is how tamper detection is exercised). Checks report measured
values either way; failures are enumerated, never short-circuited.

Two checks are expected to fail on this implementation; their stated
windows do not contain the values the mathematics actually produces.
optimal_area_location measures the optimized area ratio at received SNR
100 about 1.4% below its window, and asymptotic_ratio_trend finds the
bound ratio is not monotone across the weak-to-strong transition. Both
checks print the measured truth; see the README for the numbers.
"""

from __future__ import annotations

import importlib.resources
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .arrays import (
    FarFieldScene,
    achieved_efficiency,
    finite_array_gram,
    lemma1_check,
    synthesize_array,
)
from .bounds import default_area_grid, lower_bound_beta, optimize_disc_area, upper_bound
from .link import LinkBudget, siso_efficiency
from .numerics import solve_eps0
from .oracles import greedy_waterfill
from .spectrum import (
    DEFAULT_TRUNCATION,
    assemble_spectrum,
    disc_for_area,
    effective_rank,
    eigenvalue_spectrum,
)
from .waterfill import ChannelGains, allocation_efficiency, waterfill

DEFAULT_SEED = 20260822

# common geometry for the study links: 10 cm wavelength at 1000 km range
STUDY_WAVELENGTH = 0.1
STUDY_RANGE = 1.0e6
STUDY_APERTURE = 100.0

GAMMA_G_GRID = (1.0e-2, 1.0, 3.9215, 10.0, 1.0e2, 1.0e4, 1.0e6)

# (rtol, atol) each check allows between a measured value and its golden key;
# a key no check reads is absent
GOLDEN_TOLERANCES = {
    "eps0": (1.0e-12, 0.0),
    "corollary_coefficient": (1.0e-12, 0.0),
    "hand_allocation_efficiency": (1.0e-12, 0.0),
    "dense_oracle_gain_fractions_c1": (1.0e-5, 0.0),
    "dense_oracle_gain_fractions_c2": (1.0e-5, 0.0),
    "dense_oracle_gain_fractions_c4": (1.0e-5, 0.0),
    "maximizer_area_ratio_snr100": (1.0e-3, 0.0),
    "asymptotic_ratio_sequence": (1.0e-6, 1.0e-8),
    "lemma1_gap_sequence": (1.0e-9, 0.0),
    "gram_offdiag_frobenius": (1.0e-9, 0.0),
}


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: str
    limit: str
    seconds: float


def load_golden(path: str | None = None) -> dict:
    if path is None:
        text = importlib.resources.files("apcap").joinpath("golden.json").read_text()
    else:
        text = Path(path).read_text()
    return json.loads(text)


def study_link(gamma_g: float) -> LinkBudget:
    """Reference link with g = 1e-6 and P chosen to hit the requested snr."""
    gain = STUDY_APERTURE**2 / (STUDY_WAVELENGTH * STUDY_RANGE) ** 2
    return LinkBudget(
        power_P=gamma_g / gain,
        bandwidth_B=1.0,
        noise_psd_N0=1.0,
        wavelength_lambda=STUDY_WAVELENGTH,
        range_d=STUDY_RANGE,
        loss_L=1.0,
        aperture_tx_AT=STUDY_APERTURE,
        aperture_rx_AR=STUDY_APERTURE,
    )


def area_for_m0(m0: float) -> float:
    """Disc area giving the requested space-bandwidth number on the study link."""
    return math.sqrt(m0) * STUDY_WAVELENGTH * STUDY_RANGE


def _match(value: float, golden: dict, key: str) -> tuple[bool, str]:
    if key not in golden:
        return False, f"golden file missing key {key!r}"
    ref = golden[key]
    err = abs(value - ref) / max(abs(ref), 1e-300)
    return err <= GOLDEN_TOLERANCES[key][0], f"golden rel err {err:.2e}"


def _allclose(values, golden: dict, key: str) -> bool:
    frozen = golden.get(key)
    rtol, atol = GOLDEN_TOLERANCES[key]
    return frozen is not None and np.allclose(values, frozen, rtol=rtol, atol=atol)


def _check_eps0_constant(seed, golden):
    t0 = time.perf_counter()
    value = solve_eps0()
    elapsed = time.perf_counter() - t0
    in_window = abs(value - 4.9215) <= 5.0e-4 and elapsed < 1.0e-3
    frozen_ok, frozen_msg = _match(value, golden, "eps0")
    return (
        in_window and frozen_ok,
        f"eps0 = {value:.12f} in {elapsed * 1e6:.0f} us; {frozen_msg}",
        "4.9215 +/- 5e-4, < 1 ms",
    )


def _check_corollary_coefficient(seed, golden):
    eps0 = solve_eps0()
    coeff = math.log2(eps0) / math.sqrt(eps0 - 1.0)
    in_window = abs(coeff - 1.1610) <= 1.0e-3
    frozen_ok, frozen_msg = _match(coeff, golden, "corollary_coefficient")
    return (
        in_window and frozen_ok,
        f"log2(eps0)/sqrt(eps0-1) = {coeff:.12f}; {frozen_msg}",
        "1.1610 +/- 1e-3",
    )


def _check_branch_continuity(seed, golden):
    eps0 = solve_eps0()
    x = eps0 - 1.0
    weak = math.log1p(x) / math.log(2.0)
    strong = math.sqrt(x / (eps0 - 1.0)) * math.log2(eps0)
    gap = abs(weak - strong)
    at_point = abs(upper_bound(x, eps0) - weak)
    return (
        gap <= 1.0e-9 and at_point <= 1.0e-12,
        f"|weak - strong| = {gap:.3e} at gamma_g = eps0 - 1; "
        f"upper_bound offset {at_point:.1e}",
        "<= 1e-9 b/s/Hz",
    )


def _check_sum_rule(seed, golden):
    t0 = time.perf_counter()
    worst = 0.0
    details = []
    for c in (0.5, 1.0, 2.0, 4.0):
        area = c * STUDY_WAVELENGTH * STUDY_RANGE / 2.0
        geometry = disc_for_area(area, STUDY_WAVELENGTH, STUDY_RANGE, 1.0)
        spectrum = assemble_spectrum(geometry, keep_radial=False)
        frac = spectrum.captured_mass / geometry.spectral_mass
        worst = max(worst, abs(1.0 - frac))
        details.append(f"c={c:g}: {frac:.6f}")
    elapsed = time.perf_counter() - t0
    return (
        worst <= 1.0e-3 and elapsed < 30.0,
        f"captured/total: {', '.join(details)} in {elapsed:.1f} s",
        "within 0.1% of L|S|^2/(lambda d)^2, < 30 s",
    )


def _check_eigenvalue_plunge(seed, golden):
    results = []
    ok = True
    for m0 in (4.0, 9.0, 16.0):
        geometry = disc_for_area(area_for_m0(m0), STUDY_WAVELENGTH, STUDY_RANGE, 1.0)
        spectrum = assemble_spectrum(geometry, keep_radial=False)
        rank = effective_rank(spectrum, 0.5)
        tol = max(2.0, 0.25 * m0)
        ok = ok and abs(rank - m0) <= tol
        results.append(f"M0={m0:g}: rank {rank}")
    return ok, "; ".join(results), "|rank - M0| <= max(2, 0.25 M0)"


def _check_spectrum_oracle(seed, golden):
    worst = 0.0
    ok = True
    for c in (1.0, 2.0, 4.0):
        key = f"dense_oracle_gain_fractions_c{c:g}"
        if key not in golden:
            return False, f"golden file missing key {key!r}", "rel err <= 1e-5"
        oracle = np.asarray(golden[key])
        area = c * STUDY_WAVELENGTH * STUDY_RANGE / 2.0
        geometry = disc_for_area(area, STUDY_WAVELENGTH, STUDY_RANGE, 1.0)
        spectrum = assemble_spectrum(geometry, keep_radial=False)
        fractions = np.array([4.0 * beta**2 for beta in spectrum.beta[:5].tolist()])
        rel = float(np.max(np.abs(fractions - oracle) / oracle))
        worst = max(worst, rel)
        ok = ok and rel <= GOLDEN_TOLERANCES[key][0]
    return ok, f"worst top-5 rel err vs dense 2-D oracle {worst:.2e}", "<= 1e-5"


def _check_waterfill_oracle(seed, golden):
    rng = np.random.Generator(np.random.Philox(seed))
    worst_gap = -math.inf
    worst_budget = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 5))
        gains = np.sort(rng.uniform(0.05, 2.0, size=n))[::-1]
        total = float(rng.uniform(0.5, 20.0))
        channels = ChannelGains(gains_eta_sq=gains, noise_floor_BN0=1.0)
        alloc = waterfill(channels, total)
        eff = allocation_efficiency(channels, alloc)
        oracle_powers = greedy_waterfill(gains, total, 1000)
        oracle_eff = float(np.sum(np.log1p(gains * oracle_powers)) / math.log(2.0))
        worst_gap = max(worst_gap, oracle_eff - eff)
        worst_budget = max(
            worst_budget, abs(float(np.sum(alloc.powers_Pn)) - total) / total
        )
    return (
        worst_gap <= 1.0e-6 and worst_budget <= 1.0e-9,
        f"worst oracle excess {worst_gap:.2e} b/s/Hz; "
        f"worst budget error {worst_budget:.2e} relative",
        "excess <= 1e-6, budget <= 1e-9",
    )


def _check_hand_allocation(seed, golden):
    channels = ChannelGains(gains_eta_sq=np.array([1.0, 0.5, 0.1]), noise_floor_BN0=1.0)
    alloc = waterfill(channels, 10.0)
    eff = allocation_efficiency(channels, alloc)
    powers_ok = np.allclose(alloc.powers_Pn, [5.5, 4.5, 0.0], atol=1.0e-9)
    frozen_ok, frozen_msg = _match(eff, golden, "hand_allocation_efficiency")
    return (
        alloc.active_K == 2 and powers_ok and abs(eff - 4.4009) <= 1.0e-4 and frozen_ok,
        f"K = {alloc.active_K}, powers = {np.round(alloc.powers_Pn, 9).tolist()}, "
        f"efficiency = {eff:.6f}; {frozen_msg}",
        "K=2, powers {5.5, 4.5, 0}, 4.4009 +/- 1e-4",
    )


def _check_bound_ordering(seed, golden):
    eps0 = solve_eps0()
    worst_margin = -math.inf
    weak_err = 0.0
    for gamma_g in GAMMA_G_GRID:
        link = study_link(gamma_g)
        upper = upper_bound(gamma_g, eps0)
        best_lower = -math.inf
        for area in default_area_grid(link, points=20):
            geometry = disc_for_area(area, STUDY_WAVELENGTH, STUDY_RANGE, 1.0)
            spectrum = eigenvalue_spectrum(geometry, DEFAULT_TRUNCATION)
            beta, _ = lower_bound_beta(area, link, spectrum)
            best_lower = max(best_lower, beta)
            worst_margin = max(worst_margin, beta - upper)
        if gamma_g <= eps0 - 1.0:
            weak_err = max(weak_err, abs(best_lower - siso_efficiency(gamma_g)))
    return (
        worst_margin <= 1.0e-12 and weak_err <= 1.0e-3,
        f"max(lower - upper) = {worst_margin:.2e}; "
        f"worst weak-regime |lower - siso| = {weak_err:.2e}",
        "lower <= upper on 7 x 20 grid; weak equality <= 1e-3",
    )


def _check_maximizer_location(seed, golden):
    eps0 = solve_eps0()
    link = study_link(100.0)
    best_area, best_beta = optimize_disc_area(link, default_area_grid(link, points=32))
    ratio = (best_area / (STUDY_WAVELENGTH * STUDY_RANGE)) ** 2
    center = math.sqrt(100.0 / (eps0 - 1.0))
    lo, hi = 0.7 * center, 1.3 * center
    in_window = lo <= ratio <= hi
    frozen_ok, frozen_msg = _match(ratio, golden, "maximizer_area_ratio_snr100")
    return (
        in_window and frozen_ok,
        f"|S|^2/(lambda d)^2 = {ratio:.5f} at gamma_g = 100 "
        f"(window [{lo:.5f}, {hi:.5f}], beta = {best_beta:.4f}); {frozen_msg}",
        "within [0.7, 1.3] sqrt(100/(eps0-1))",
    )


def _check_asymptotic_ratio(seed, golden):
    eps0 = solve_eps0()
    ratios = []
    for gamma_g in GAMMA_G_GRID:
        link = study_link(gamma_g)
        _, best_beta = optimize_disc_area(link, default_area_grid(link, points=24))
        strong = math.sqrt(gamma_g / (eps0 - 1.0)) * math.log2(eps0)
        ratios.append(best_beta / strong)
    nondecreasing = all(b >= a - 1.0e-12 for a, b in zip(ratios, ratios[1:]))
    at_1e4 = ratios[GAMMA_G_GRID.index(1.0e4)]
    frozen_ok = _allclose(ratios, golden, "asymptotic_ratio_sequence")
    text = ", ".join(f"{r:.4f}" for r in ratios)
    return (
        nondecreasing and at_1e4 >= 0.9 and frozen_ok,
        f"ratios over gamma_g grid: [{text}]; golden match {frozen_ok}",
        "non-decreasing and >= 0.9 at gamma_g = 1e4",
    )


def _lemma1_transverse_gaps(seed: int) -> list[tuple[float, float]]:
    """Seeded fixed transverse layout, swept over range; (range, gap) pairs."""
    rng = np.random.Generator(np.random.Philox(seed))
    radius = 1.0e2 * STUDY_WAVELENGTH

    def disk_points(count):
        rr = radius * np.sqrt(rng.uniform(size=count))
        th = 2.0 * math.pi * rng.uniform(size=count)
        return np.column_stack((rr * np.cos(th), rr * np.sin(th)))

    tx_yz = disk_points(8)
    rx_yz = disk_points(8)
    gaps = []
    for d_over_lambda in (1.0e4, 1.0e5, 1.0e6, 1.0e7):
        d = d_over_lambda * STUDY_WAVELENGTH
        tx = np.column_stack((np.zeros(8), tx_yz[:, 0], tx_yz[:, 1]))
        rx = np.column_stack((np.full(8, d), rx_yz[:, 0], rx_yz[:, 1]))
        scene = FarFieldScene(
            tx_positions=tx,
            rx_positions=rx,
            wavelength_lambda=STUDY_WAVELENGTH,
            nominal_range_d=d,
            enforce_far_field=d / radius >= 1.0e3,
        )
        gaps.append((d_over_lambda, lemma1_check(scene)))
    return gaps


def _check_lemma1_gap(seed, golden):
    gaps = _lemma1_transverse_gaps(seed)
    values = [g for _, g in gaps]
    decreasing = all(b < a for a, b in zip(values, values[1:]))
    final_ok = values[-1] <= 1.0e-3
    frozen_msg = "golden skipped (non-default seed)"
    frozen_ok = True
    if seed == DEFAULT_SEED:
        frozen_ok = _allclose(values, golden, "lemma1_gap_sequence")
        frozen_msg = f"golden match {frozen_ok}"
    text = ", ".join(f"{d:g}: {g:.3e}" for d, g in gaps)
    return (
        decreasing and final_ok and frozen_ok,
        f"gaps by d/lambda: [{text}]; {frozen_msg}",
        "strictly decreasing, <= 1e-3 at d = 1e7 lambda",
    )


def _check_array_convergence(seed, golden):
    t0 = time.perf_counter()
    link = study_link(10.0)
    area = area_for_m0(4.0)
    geometry = disc_for_area(area, STUDY_WAVELENGTH, STUDY_RANGE, 1.0)
    spectrum = assemble_spectrum(geometry)
    off_masses = []
    last_design = None
    for cells in (64, 256, 1024):
        design = synthesize_array(spectrum, area, 4, cells, link)
        gram = finite_array_gram(design, geometry)
        off = gram - np.diag(np.diag(gram))
        off_masses.append(float(np.linalg.norm(off)))
        last_design = design
    ratios = [b / a for a, b in zip(off_masses, off_masses[1:])]
    eff = achieved_efficiency(last_design, geometry, link)
    beta, _ = lower_bound_beta(area, link, spectrum)
    rel = abs(eff - beta) / beta
    elapsed = time.perf_counter() - t0
    frozen_ok = _allclose(off_masses, golden, "gram_offdiag_frobenius")
    ok = (
        all(r <= 0.7 for r in ratios)
        and all(b < a for a, b in zip(off_masses, off_masses[1:]))
        and rel <= 0.02
        and elapsed < 300.0
        and frozen_ok
    )
    masses = ", ".join(f"{m:.4e}" for m in off_masses)
    return (
        ok,
        f"off-diag Frobenius [{masses}], quadrupling ratios "
        f"[{ratios[0]:.3f}, {ratios[1]:.3f}]; efficiency {eff:.4f} vs lower "
        f"{beta:.4f} ({100 * rel:.2f}%); {elapsed:.0f} s; golden match {frozen_ok}",
        "ratios <= 0.7, efficiency within 2%, < 5 min",
    )


def _check_siso_construction(seed, golden):
    link = study_link(10.0)
    area = area_for_m0(1.0e-4)
    geometry = disc_for_area(area, STUDY_WAVELENGTH, STUDY_RANGE, 1.0)
    spectrum = assemble_spectrum(geometry)
    design = synthesize_array(spectrum, area, 1, 1, link)
    eff = achieved_efficiency(design, geometry, link)
    target = siso_efficiency(10.0)
    rel = abs(eff - target) / target
    return (
        rel <= 0.01,
        f"single-element efficiency {eff:.6f} vs log2(1+10) = {target:.6f} "
        f"({100 * rel:.4f}%)",
        "within 1% at M0 = 1e-4",
    )


def _check_sweep_determinism(seed, golden):
    import tempfile

    from .cli import main as cli_main

    args_common = [
        "sweep",
        "--power",
        "1e7",
        "--bandwidth",
        "1",
        "--noise-psd",
        "1",
        "--wavelength",
        "0.1",
        "--range",
        "1e6",
        "--loss",
        "1",
        "--aperture-tx",
        "100",
        "--aperture-rx",
        "100",
        "--grid",
        "0.5:10:4:log",
        "--optimize-area",
        "--format",
        "csv",
        "--seed",
        str(seed),
    ]
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp) / "a.csv", Path(tmp) / "b.csv"]
        for path in paths:
            code = cli_main(args_common + ["--out", str(path)])
            if code != 0:
                return False, f"sweep exited {code}", "byte-identical files"
        blobs = [p.read_bytes() for p in paths]
    identical = blobs[0] == blobs[1]
    return (
        identical,
        f"two runs, {len(blobs[0])} bytes each, identical = {identical}",
        "byte-identical files",
    )


CHECKS = (
    ("eps0_constant", _check_eps0_constant),
    ("corollary_coefficient", _check_corollary_coefficient),
    ("upper_bound_branch_continuity", _check_branch_continuity),
    ("spectrum_sum_rule", _check_sum_rule),
    ("eigenvalue_plunge_rank", _check_eigenvalue_plunge),
    ("spectrum_vs_dense_oracle", _check_spectrum_oracle),
    ("waterfill_vs_greedy_oracle", _check_waterfill_oracle),
    ("waterfill_hand_check", _check_hand_allocation),
    ("bound_ordering", _check_bound_ordering),
    ("optimal_area_location", _check_maximizer_location),
    ("asymptotic_ratio_trend", _check_asymptotic_ratio),
    ("far_field_reduction_gap", _check_lemma1_gap),
    ("array_gram_convergence", _check_array_convergence),
    ("siso_array_limit", _check_siso_construction),
    ("sweep_determinism", _check_sweep_determinism),
)

CHECK_NAMES = tuple(name for name, _ in CHECKS)

# checks whose stated windows exclude the measured truth; kept failing on purpose
EXPECTED_FAILURES = ("optimal_area_location", "asymptotic_ratio_trend")


def run_checks(
    names: list[str] | None = None,
    seed: int = DEFAULT_SEED,
    golden_path: str | None = None,
) -> list[CheckResult]:
    golden = load_golden(golden_path)
    selected = CHECKS if names is None else [c for c in CHECKS if c[0] in set(names)]
    results = []
    for name, func in selected:
        t0 = time.perf_counter()
        try:
            passed, measured, limit = func(seed, golden)
        except Exception as exc:  # a crashed check is a failed check
            passed, measured, limit = False, f"raised {type(exc).__name__}: {exc}", ""
        results.append(CheckResult(name, passed, measured, limit, time.perf_counter() - t0))
    return results
