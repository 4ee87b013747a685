"""Named verification checks behind the verify subcommand.

Each check recomputes a quantitative claim about the package from scratch,
judges it against its own stated window, and returns its measured text and
the values it measured for its golden keys. run_checks alone compares those
values with their frozen ones (golden.json ships inside the package;
--golden overrides the path, which is how tamper detection is exercised):
GOLDEN_KEYS names each key once, with the check that reads it and its
tolerance, and _golden is the one comparison. Checks report measured values
either way; failures are enumerated, never short-circuited.

Each golden-pinned study quantity has one function here, which the
checks, scripts/refresh_golden.py and the acceptance tests all call.

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

from . import DEFAULT_SEED
from .arrays import achieved_efficiency, finite_array_gram, lemma1_check, synthesize_array
from .bounds import EPS0, beta_at_area, default_area_grid, optimize_disc_area, upper_bound
from .link import LinkBudget, ValidationError, siso_efficiency
from .numerics import solve_eps0
from .spectrum import DiscGeometry, assemble_spectrum, effective_rank
from .waterfill import PowerAllocation, waterfill

# common geometry for the study links: 10 cm wavelength at 1000 km range
STUDY_WAVELENGTH = 0.1
STUDY_RANGE = 1.0e6
STUDY_APERTURE = 100.0

GAMMA_G_GRID = (1.0e-2, 1.0, 3.9215, 10.0, 1.0e2, 1.0e4, 1.0e6)

# the sqrt(gamma_g) coefficient of the strong-regime upper bound, about 1.1610
COROLLARY_COEFFICIENT = math.log2(EPS0) / math.sqrt(EPS0 - 1.0)

# each golden key a check reads: (the check, rtol, atol), the tolerance it allows
# between a measured value and the frozen one; a check returns its golden
# values in the order its keys appear here, and a key no check reads is absent
GOLDEN_KEYS = {
    "eps0": ("eps0_constant", 1.0e-12, 0.0),
    "corollary_coefficient": ("corollary_coefficient", 1.0e-12, 0.0),
    "hand_allocation_efficiency": ("waterfill_hand_check", 1.0e-12, 0.0),
    "dense_oracle_gain_fractions_c1": ("spectrum_vs_dense_oracle", 1.0e-12, 0.0),
    "dense_oracle_gain_fractions_c2": ("spectrum_vs_dense_oracle", 1.0e-12, 0.0),
    "dense_oracle_gain_fractions_c4": ("spectrum_vs_dense_oracle", 1.0e-12, 0.0),
    # the 52 betas the optimizer compares differ pairwise by at least 6.7e-11
    # relative, and nudging each by one ulp left the ratio unmoved in 40 draws
    "maximizer_area_ratio_snr100": ("optimal_area_location", 1.0e-6, 0.0),
    "asymptotic_ratio_sequence": ("asymptotic_ratio_trend", 1.0e-6, 1.0e-8),
    "lemma1_gap_sequence": ("far_field_reduction_gap", 1.0e-9, 0.0),
    "gram_offdiag_frobenius": ("array_gram_convergence", 1.0e-9, 0.0),
}


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: str
    limit: str
    seconds: float


def load_golden(path: str | None = None) -> dict:
    """The packaged golden values, or the JSON object in the file at path.

    A path that cannot be read, or does not hold a JSON object, is a
    validation error naming it; a key missing from the object fails only
    the checks that read it.
    """
    if path is None:
        return json.loads(importlib.resources.files("apcap").joinpath("golden.json").read_text())
    try:
        golden = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        reason = exc.strerror
    except ValueError as exc:  # not UTF-8 text, or not JSON
        reason = str(exc)
    else:
        if isinstance(golden, dict):
            return golden
        reason = "not a JSON object"
    raise ValidationError(f"cannot read --golden {path!r}: {reason}")


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


def study_disc(c: float) -> DiscGeometry:
    """The lossless disc of the study link with c = 2 |S| / (lambda d)."""
    area = c * STUDY_WAVELENGTH * STUDY_RANGE / 2.0
    return DiscGeometry(area, STUDY_WAVELENGTH, STUDY_RANGE, 1.0)


def _golden(values, golden: dict, key: str) -> tuple[bool, float]:
    """(pass, worst relative error) of values against their frozen golden[key].

    A value v passes when |v - g| <= atol + rtol |g|, with (rtol, atol) the
    key's GOLDEN_KEYS tolerance. A missing key raises, naming it.
    """
    if key not in golden:
        raise LookupError(f"golden file missing key {key!r}")
    new = np.atleast_1d(np.asarray(values, dtype=float))
    ref = np.atleast_1d(np.asarray(golden[key], dtype=float))
    if new.shape != ref.shape:
        return False, math.inf
    _, rtol, atol = GOLDEN_KEYS[key]
    diff = np.abs(new - ref)
    passed = bool(np.all(diff <= atol + rtol * np.abs(ref)))
    return passed, float(np.max(diff / np.maximum(np.abs(ref), 1e-300)))


def hand_allocation() -> PowerAllocation:
    """Waterfill of the gains (1, 0.5, 0.1) over BN0 = 1 at P = 10."""
    return waterfill(np.array([1.0, 0.5, 0.1]), 1.0, 10.0)


def gram_study() -> tuple[list[float], float, float]:
    """Off-diagonal Gram masses, achieved efficiency and beta(|S|) of the study array.

    K = 4 streams at M0 = 4 and gamma_g = 10; the Frobenius masses at 64,
    256 and 1024 cells, and the efficiency of the 1024-cell design.
    """
    link = study_link(10.0)
    area = area_for_m0(4.0)
    masses = []
    for cells in (64, 256, 1024):
        design = synthesize_array(link, area, 4, cells)
        gram = finite_array_gram(design)
        masses.append(float(np.linalg.norm(gram - np.diag(np.diag(gram)))))
    beta, _ = beta_at_area(area, link)
    return masses, achieved_efficiency(design), beta


def maximizer_snr100() -> tuple[float, float]:
    """Optimal area ratio |S|^2/(lambda d)^2 at gamma_g = 100 (32 grid points), and its beta."""
    best_area, best_beta, _ = optimize_disc_area(study_link(100.0), points=32)
    return (best_area / (STUDY_WAVELENGTH * STUDY_RANGE)) ** 2, best_beta


def asymptotic_ratios() -> list[float]:
    """Best-area lower bound over the strong-branch upper bound, at each GAMMA_G_GRID point."""
    ratios = []
    for gamma_g in GAMMA_G_GRID:
        _, best_beta, _ = optimize_disc_area(study_link(gamma_g), points=24)
        strong = math.sqrt(gamma_g / (EPS0 - 1.0)) * math.log2(EPS0)
        ratios.append(best_beta / strong)
    return ratios


def lemma1_gaps(seed: int) -> list[tuple[float, float]]:
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
        gaps.append((d_over_lambda, lemma1_check(tx, rx, STUDY_WAVELENGTH, d)))
    return gaps


def greedy_waterfill(
    gains: np.ndarray, total_power: float | np.ndarray, step_count: int = 1000
) -> np.ndarray:
    """Power allocation by greedy marginal-rate ascent on a power grid.

    Splits the budget into step_count equal increments and gives each to
    the channel with the largest rate increase. For a separable concave
    objective the greedy allocation is optimal at the grid resolution,
    which makes it a fair independent baseline for the closed-form
    waterfiller (within the grid's own discretization error).

    gains is one problem's vector, or a (problems, channels) matrix with
    one total_power per row, each row ascending on its own step. A row
    padded with zero gains keeps its padding at zero power: a zero gain's
    marginal is log1p(0) = 0, and argmax takes the first of equal maxima.
    """
    gains = np.asarray(gains, dtype=float)
    rows = np.atleast_2d(gains)
    powers = np.zeros_like(rows)
    step = np.asarray(total_power, dtype=float).reshape(-1) / step_count
    index = np.arange(rows.shape[0])
    for _ in range(step_count):
        marginal = np.log1p(step[:, None] * rows / (1.0 + rows * powers))
        powers[index, np.argmax(marginal, axis=1)] += step
    return powers.reshape(gains.shape)


def waterfill_problems(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The 200 seeded problems of waterfill_vs_greedy_oracle: gains and budgets.

    Each problem has 1 to 4 gains drawn from [0.05, 2), in descending order
    and zero-padded to 4 columns, and a total power drawn from [0.5, 20).
    """
    rng = np.random.Generator(np.random.Philox(seed))
    gains = np.zeros((200, 4))
    totals = np.zeros(200)
    for row in range(200):
        n = int(rng.integers(1, 5))
        gains[row, :n] = np.sort(rng.uniform(0.05, 2.0, size=n))[::-1]
        totals[row] = rng.uniform(0.5, 20.0)
    return gains, totals


def _check_eps0_constant(seed):
    t0 = time.perf_counter()
    value = solve_eps0()
    elapsed = time.perf_counter() - t0
    return (
        abs(value - 4.9215) <= 5.0e-4 and elapsed < 1.0e-3,
        f"eps0 = {value:.12f} in {elapsed * 1e6:.0f} us",
        (value,),
    )


def _check_corollary_coefficient(seed):
    coeff = COROLLARY_COEFFICIENT
    return abs(coeff - 1.1610) <= 1.0e-3, f"log2(eps0)/sqrt(eps0-1) = {coeff:.12f}", (coeff,)


def _check_branch_continuity(seed):
    x = EPS0 - 1.0
    weak = math.log1p(x) / math.log(2.0)
    strong = math.sqrt(x / (EPS0 - 1.0)) * math.log2(EPS0)
    gap = abs(weak - strong)
    at_point = abs(upper_bound(x) - weak)
    return (
        gap <= 1.0e-9 and at_point <= 1.0e-12,
        f"|weak - strong| = {gap:.3e} at gamma_g = eps0 - 1; "
        f"upper_bound offset {at_point:.1e}",
        (),
    )


def _check_sum_rule(seed):
    t0 = time.perf_counter()
    worst = 0.0
    details = []
    for c in (0.5, 1.0, 2.0, 4.0):
        geometry = study_disc(c)
        spectrum = assemble_spectrum(geometry, keep_radial=False)
        frac = spectrum.captured_mass / geometry.spectral_mass
        worst = max(worst, abs(1.0 - frac))
        details.append(f"c={c:g}: {frac:.6f}")
    elapsed = time.perf_counter() - t0
    return (
        worst <= 1.0e-3 and elapsed < 30.0,
        f"captured/total: {', '.join(details)} in {elapsed:.1f} s",
        (),
    )


def _check_eigenvalue_plunge(seed):
    results = []
    ok = True
    for m0 in (4.0, 9.0, 16.0):
        geometry = DiscGeometry(area_for_m0(m0), STUDY_WAVELENGTH, STUDY_RANGE, 1.0)
        spectrum = assemble_spectrum(geometry, keep_radial=False)
        rank = effective_rank(spectrum, 0.5)
        tol = max(2.0, 0.25 * m0)
        ok = ok and abs(rank - m0) <= tol
        results.append(f"M0={m0:g}: rank {rank}")
    return ok, "; ".join(results), ()


def _check_spectrum_oracle(seed):
    fractions = []
    for c in (1.0, 2.0, 4.0):
        spectrum = assemble_spectrum(study_disc(c), keep_radial=False)
        fractions.append([4.0 * beta**2 for beta in spectrum.beta[:5].tolist()])
    return True, "top-5 gain fractions at c = 1, 2, 4 vs dense 2-D oracle", fractions


def _check_waterfill_oracle(seed):
    gains, totals = waterfill_problems(seed)
    oracle = greedy_waterfill(gains, totals, 1000)
    worst_gap = -math.inf
    worst_budget = 0.0
    for row, total, oracle_powers in zip(gains, totals.tolist(), oracle):
        n = int(np.count_nonzero(row))  # every drawn gain is at least 0.05; the rest is padding
        alloc = waterfill(row[:n], 1.0, total)
        oracle_eff = float(np.sum(np.log1p(row[:n] * oracle_powers[:n])) / math.log(2.0))
        worst_gap = max(worst_gap, oracle_eff - alloc.efficiency)
        worst_budget = max(
            worst_budget, abs(float(np.sum(alloc.powers_Pn)) - total) / total
        )
    return (
        worst_gap <= 1.0e-6 and worst_budget <= 1.0e-9,
        f"worst oracle excess {worst_gap:.2e} b/s/Hz; "
        f"worst budget error {worst_budget:.2e} relative",
        (),
    )


def _check_hand_allocation(seed):
    alloc = hand_allocation()
    eff = alloc.efficiency
    powers_ok = np.allclose(alloc.powers_Pn, [5.5, 4.5, 0.0], atol=1.0e-9)
    return (
        alloc.active_K == 2 and powers_ok and abs(eff - 4.4009) <= 1.0e-4,
        f"K = {alloc.active_K}, powers = {np.round(alloc.powers_Pn, 9).tolist()}, "
        f"efficiency = {eff:.6f}",
        (eff,),
    )


def _check_bound_ordering(seed):
    worst_margin = -math.inf
    weak_err = 0.0
    for gamma_g in GAMMA_G_GRID:
        link = study_link(gamma_g)
        upper = upper_bound(gamma_g)
        best_lower = -math.inf
        for area in default_area_grid(link, points=20):
            beta, _ = beta_at_area(area, link)
            best_lower = max(best_lower, beta)
            worst_margin = max(worst_margin, beta - upper)
        if gamma_g <= EPS0 - 1.0:
            weak_err = max(weak_err, abs(best_lower - siso_efficiency(gamma_g)))
    return (
        worst_margin <= 1.0e-12 and weak_err <= 1.0e-3,
        f"max(lower - upper) = {worst_margin:.2e}; "
        f"worst weak-regime |lower - siso| = {weak_err:.2e}",
        (),
    )


def _check_maximizer_location(seed):
    ratio, best_beta = maximizer_snr100()
    center = math.sqrt(100.0 / (EPS0 - 1.0))
    lo, hi = 0.7 * center, 1.3 * center
    return (
        lo <= ratio <= hi,
        f"|S|^2/(lambda d)^2 = {ratio:.5f} at gamma_g = 100 "
        f"(window [{lo:.5f}, {hi:.5f}], beta = {best_beta:.4f})",
        (ratio,),
    )


def _check_asymptotic_ratio(seed):
    ratios = asymptotic_ratios()
    nondecreasing = all(b >= a - 1.0e-12 for a, b in zip(ratios, ratios[1:]))
    at_1e4 = ratios[GAMMA_G_GRID.index(1.0e4)]
    text = ", ".join(f"{r:.4f}" for r in ratios)
    return nondecreasing and at_1e4 >= 0.9, f"ratios over gamma_g grid: [{text}]", (ratios,)


def _check_lemma1_gap(seed):
    gaps = lemma1_gaps(seed)
    values = [g for _, g in gaps]
    decreasing = all(b < a for a, b in zip(values, values[1:]))
    final_ok = values[-1] <= 1.0e-3
    text = ", ".join(f"{d:g}: {g:.3e}" for d, g in gaps)
    measured = f"gaps by d/lambda: [{text}]"
    if seed != DEFAULT_SEED:
        return decreasing and final_ok, f"{measured}; golden skipped (non-default seed)", ()
    return decreasing and final_ok, measured, (values,)


def _check_array_convergence(seed):
    t0 = time.perf_counter()
    off_masses, eff, beta = gram_study()
    ratios = [b / a for a, b in zip(off_masses, off_masses[1:])]
    rel = abs(eff - beta) / beta
    elapsed = time.perf_counter() - t0
    ok = (
        all(r <= 0.7 for r in ratios)
        and all(b < a for a, b in zip(off_masses, off_masses[1:]))
        and rel <= 0.02
        and elapsed < 300.0
    )
    masses = ", ".join(f"{m:.4e}" for m in off_masses)
    return (
        ok,
        f"off-diag Frobenius [{masses}], quadrupling ratios "
        f"[{ratios[0]:.3f}, {ratios[1]:.3f}]; efficiency {eff:.4f} vs lower "
        f"{beta:.4f} ({100 * rel:.2f}%); {elapsed:.0f} s",
        (off_masses,),
    )


def _check_siso_construction(seed):
    link = study_link(10.0)
    design = synthesize_array(link, area_for_m0(1.0e-4), 1, 1)
    eff = achieved_efficiency(design)
    target = siso_efficiency(10.0)
    rel = abs(eff - target) / target
    return (
        rel <= 0.01,
        f"single-element efficiency {eff:.6f} vs log2(1+10) = {target:.6f} "
        f"({100 * rel:.4f}%)",
        (),
    )


def _check_sweep_determinism(seed):
    import tempfile

    from .cli import main as cli_main

    args = (
        "sweep --power 1e7 --bandwidth 1 --noise-psd 1 --wavelength 0.1 --range 1e6 --loss 1 "
        "--aperture-tx 100 --aperture-rx 100 --grid 0.5:10:4:log --optimize-area --format csv"
    ).split()
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp) / "a.csv", Path(tmp) / "b.csv"]
        for path in paths:
            code = cli_main(args + ["--out", str(path)])
            if code != 0:
                return False, f"sweep exited {code}", ()
        blobs = [p.read_bytes() for p in paths]
    identical = blobs[0] == blobs[1]
    return identical, f"two runs, {len(blobs[0])} bytes each, identical = {identical}", ()


# (name, check, limit): check(seed) returns whether its window holds, its measured
# text and the values it measured for its GOLDEN_KEYS in their order there (none
# when it reads no key); limit states the window
CHECKS = (
    ("eps0_constant", _check_eps0_constant, "4.9215 +/- 5e-4, < 1 ms"),
    ("corollary_coefficient", _check_corollary_coefficient, "1.1610 +/- 1e-3"),
    ("upper_bound_branch_continuity", _check_branch_continuity, "<= 1e-9 b/s/Hz"),
    ("spectrum_sum_rule", _check_sum_rule, "within 0.1% of L|S|^2/(lambda d)^2, < 30 s"),
    ("eigenvalue_plunge_rank", _check_eigenvalue_plunge, "|rank - M0| <= max(2, 0.25 M0)"),
    ("spectrum_vs_dense_oracle", _check_spectrum_oracle, "<= 1e-12"),
    ("waterfill_vs_greedy_oracle", _check_waterfill_oracle, "excess <= 1e-6, budget <= 1e-9"),
    ("waterfill_hand_check", _check_hand_allocation, "K=2, powers {5.5, 4.5, 0}, 4.4009 +/- 1e-4"),
    ("bound_ordering", _check_bound_ordering,
     "lower <= upper on 7 x 20 grid; weak equality <= 1e-3"),
    ("optimal_area_location", _check_maximizer_location,
     "within [0.7, 1.3] sqrt(100/(eps0-1)); golden rel err <= 1e-6"),
    ("asymptotic_ratio_trend", _check_asymptotic_ratio,
     "non-decreasing and >= 0.9 at gamma_g = 1e4"),
    ("far_field_reduction_gap", _check_lemma1_gap,
     "strictly decreasing, <= 1e-3 at d = 1e7 lambda"),
    ("array_gram_convergence", _check_array_convergence,
     "ratios <= 0.7, efficiency within 2%, < 5 min"),
    ("siso_array_limit", _check_siso_construction, "within 1% at M0 = 1e-4"),
    ("sweep_determinism", _check_sweep_determinism, "byte-identical files"),
)

CHECK_NAMES = tuple(name for name, _, _ in CHECKS)


def run_checks(
    names: list[str] | None = None,
    seed: int = DEFAULT_SEED,
    golden_path: str | None = None,
) -> list[CheckResult]:
    """Run the named checks (default: all) in CHECKS order.

    A check passes when its window holds and each value it returns is within
    its golden key's tolerance; its measured text then ends in "; golden rel
    err X", the worst relative error over its keys. A check that raises fails.
    """
    golden = load_golden(golden_path)
    chosen = set(CHECK_NAMES if names is None else names)
    results = []
    for name, func, limit in CHECKS:
        if name not in chosen:
            continue
        t0 = time.perf_counter()
        try:
            passed, measured, values = func(seed)
            if values:
                keys = [key for key, (check, _, _) in GOLDEN_KEYS.items() if check == name]
                verdicts = [_golden(v, golden, k) for k, v in zip(keys, values, strict=True)]
                passed = passed and all(ok for ok, _ in verdicts)
                measured += f"; golden rel err {max(err for _, err in verdicts):.2e}"
        except Exception as exc:  # a crashed check is a failed check
            passed, measured = False, f"raised {type(exc).__name__}: {exc}"
        results.append(CheckResult(name, passed, measured, limit, time.perf_counter() - t0))
    return results
