"""Capacity bounds for the aperture-constrained link and disc-area optimization.

The achievable spectral efficiency xi of a link with received SNR gamma*g
is sandwiched between a waterfilled lower bound beta(|S|), computed over
the operator spectrum for a synthesis disc of area |S|, and a closed-form
upper bound that switches branches at gamma*g = eps0 - 1, where eps0
solves eps = exp(2(1 - 1/eps)). Above the threshold the upper bound is
sqrt(gamma*g/(eps0-1)) * log2(eps0), about 1.1610 sqrt(gamma*g).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .link import LinkBudget, ValidationError, derive_link, siso_efficiency
from .numerics import solve_eps0
from .spectrum import (
    AREA_RATIO_MAX,
    DEFAULT_TRUNCATION,
    OperatorSpectrum,
    Truncation,
    disc_for_area,
    eigenvalue_spectrum,
)
from .waterfill import ChannelGains, allocation_efficiency, waterfill

WEAK_SIGNAL = "weak_signal"
STRONG_SIGNAL = "strong_signal"


@dataclass(frozen=True)
class CapacityBounds:
    """Bounds record for one link: regime, bits, active count, best area."""

    received_snr: float
    lower_bits: float
    upper_bits: float
    regime: str
    active_K: int
    best_area_S: float | None
    eps0: float


def upper_bound(received_snr: float, eps0: float) -> float:
    """Upper bound on spectral efficiency in bits/s/Hz.

    log2(1 + gamma*g) up to the threshold eps0 - 1, then
    sqrt(gamma*g/(eps0-1)) * log2(eps0). The two branches agree at the
    threshold by construction of eps0.
    """
    if received_snr < 0.0:
        raise ValidationError(f"received SNR must be nonnegative, got {received_snr!r}")
    if received_snr <= eps0 - 1.0:
        return math.log1p(received_snr) / math.log(2.0)
    return math.sqrt(received_snr / (eps0 - 1.0)) * math.log2(eps0)


def corollary_approx(received_snr: float) -> float:
    """Strong-regime closed form sqrt(gamma*g/(eps0-1)) * log2(eps0).

    Only valid for received SNR at or above the threshold eps0 - 1; weaker
    inputs are rejected since the approximation does not apply there. The
    coefficient log2(eps0)/sqrt(eps0-1) (about 1.1610) is computed from
    the solved eps0, never hard-coded.
    """
    eps0 = solve_eps0()
    if received_snr < eps0 - 1.0:
        raise ValidationError(
            f"received SNR {received_snr:.6g} is below the threshold eps0 - 1 = "
            f"{eps0 - 1.0:.6g}; the closed form only applies in the strong regime"
        )
    return math.sqrt(received_snr / (eps0 - 1.0)) * math.log2(eps0)


def effective_gains(area_S: float, link: LinkBudget, spectrum: OperatorSpectrum) -> np.ndarray:
    """Per-mode effective power gains h_k = (A_T A_R / |S|^2) |nu_k|^2."""
    scale = link.aperture_tx_AT * link.aperture_rx_AR / area_S**2
    return scale * spectrum.nu_sq_values


def _check_spectrum_matches(area_S: float, link: LinkBudget, spectrum: OperatorSpectrum):
    geo = spectrum.geometry
    if abs(geo.area_S - area_S) > 1.0e-9 * area_S:
        raise ValidationError(
            f"spectrum geometry area {geo.area_S:.6g} does not match requested area {area_S:.6g}"
        )
    for name, got, want in (
        ("wavelength", geo.wavelength_lambda, link.wavelength_lambda),
        ("range", geo.range_d, link.range_d),
        ("loss", geo.loss_L, link.loss_L),
    ):
        if abs(got - want) > 1.0e-12 * abs(want):
            raise ValidationError(f"spectrum {name} {got!r} does not match link {want!r}")


def lower_bound_beta(
    area_S: float, link: LinkBudget, spectrum: OperatorSpectrum
) -> tuple[float, int]:
    """Waterfilled lower bound beta(|S|) and its active stream count.

    The disc area must be at least max(A_T, A_R) so the apertures fit
    inside the synthesis disc. The bound is the waterfilling efficiency
    over the effective gains h_k = (A_T A_R/|S|^2) |nu_k|^2 with budget P
    and noise floor B*N0.
    """
    min_area = max(link.aperture_tx_AT, link.aperture_rx_AR)
    if area_S < min_area * (1.0 - 1.0e-12):
        raise ValidationError(
            f"synthesis area {area_S:.6g} is below max(A_T, A_R) = {min_area:.6g}"
        )
    _check_spectrum_matches(area_S, link, spectrum)
    derive_link(link)  # enforces the far-field gate
    gains = ChannelGains(
        gains_eta_sq=effective_gains(area_S, link, spectrum),
        noise_floor_BN0=link.bandwidth_B * link.noise_psd_N0,
    )
    alloc = waterfill(gains, link.power_P)
    return allocation_efficiency(gains, alloc), alloc.active_K


def beta_at_area(
    area_S: float, link: LinkBudget, truncation: Truncation = DEFAULT_TRUNCATION
) -> tuple[float, int]:
    """lower_bound_beta at one area over the memoized eigenvalue spectrum."""
    geometry = disc_for_area(area_S, link.wavelength_lambda, link.range_d, link.loss_L)
    return lower_bound_beta(area_S, link, eigenvalue_spectrum(geometry, truncation))


def default_area_grid(link: LinkBudget, points: int = 32) -> np.ndarray:
    """Logarithmic area grid from max(A_T, A_R) up to four times the expected peak.

    The upper end is the area where M0 = |S|^2/(lambda d)^2 reaches
    4*sqrt(gamma*g/(eps0-1)), past which the lower bound is already
    falling; the small-disc gate caps it if necessary.
    """
    derived = derive_link(link)
    eps0 = solve_eps0()
    lam_d = link.wavelength_lambda * link.range_d
    lo = max(link.aperture_tx_AT, link.aperture_rx_AR)
    m0_hi = 4.0 * math.sqrt(max(derived.received_snr, eps0 - 1.0) / (eps0 - 1.0))
    hi = lam_d * math.sqrt(m0_hi)
    gate = AREA_RATIO_MAX * math.pi * link.range_d**2
    if hi > gate:
        raise ValidationError(
            f"area grid upper end {hi:.6g} exceeds the small-disc gate {gate:.6g}"
        )
    if hi <= lo:
        raise ValidationError(
            f"area grid degenerate: upper end {hi:.6g} not above max(A_T, A_R) = {lo:.6g}"
        )
    return np.geomspace(lo, hi, points)


def optimize_disc_area(
    link: LinkBudget, area_grid: np.ndarray, truncation: Truncation = DEFAULT_TRUNCATION
) -> tuple[float, float]:
    """Best synthesis disc area and the lower bound it achieves.

    Evaluates beta over the supplied grid, then runs a golden-section
    refinement stage between the neighbors of the best grid point. The
    refinement only ever improves on the best grid value since every
    evaluated point is tracked.
    """
    grid = np.sort(np.asarray(area_grid, dtype=float))
    if grid.size < 2:
        raise ValidationError("area grid needs at least two points")
    min_area = max(link.aperture_tx_AT, link.aperture_rx_AR)
    gate = AREA_RATIO_MAX * math.pi * link.range_d**2
    if grid[0] < min_area * (1.0 - 1.0e-12) or grid[-1] > gate:
        raise ValidationError(
            f"area grid [{grid[0]:.6g}, {grid[-1]:.6g}] outside the admissible range "
            f"[{min_area:.6g}, {gate:.6g}]"
        )

    betas = np.array([beta_at_area(a, link, truncation)[0] for a in grid])
    best_idx = int(np.argmax(betas))
    best_area = float(grid[best_idx])
    best_beta = float(betas[best_idx])

    # one golden-section stage between the bracketing neighbors, in log-area
    lo = grid[max(best_idx - 1, 0)]
    hi = grid[min(best_idx + 1, grid.size - 1)]
    if hi > lo:
        phi = (math.sqrt(5.0) - 1.0) / 2.0
        a, b = math.log(lo), math.log(hi)
        x1 = b - phi * (b - a)
        x2 = a + phi * (b - a)
        f1, _ = beta_at_area(math.exp(x1), link, truncation)
        f2, _ = beta_at_area(math.exp(x2), link, truncation)
        for _ in range(24):
            if f1 >= f2:
                b, x2, f2 = x2, x1, f1
                x1 = b - phi * (b - a)
                f1, _ = beta_at_area(math.exp(x1), link, truncation)
                x, fx = x1, f1
            else:
                a, x1, f1 = x1, x2, f2
                x2 = a + phi * (b - a)
                f2, _ = beta_at_area(math.exp(x2), link, truncation)
                x, fx = x2, f2
            if fx > best_beta:
                best_beta = fx
                best_area = math.exp(x)
            if b - a < 1.0e-4:
                break
    return best_area, best_beta


def stream_rates(
    area_S: float, link: LinkBudget, spectrum: OperatorSpectrum
) -> list[tuple[float, float]]:
    """Per-stream powers and rate ceilings for the active waterfill streams.

    Only meaningful in the strong regime, where multiple streams carry
    power. Powers are the waterfill allocation over the effective gains;
    the rate ceiling of stream k is log2(1 + h_k P_k / (B N0)). Powers sum
    to P and the ceilings sum to the lower bound.
    """
    derived = derive_link(link)
    eps0 = solve_eps0()
    if derived.received_snr <= eps0 - 1.0:
        raise ValidationError(
            f"received SNR {derived.received_snr:.6g} is in the weak regime; stream "
            f"splitting applies above eps0 - 1 = {eps0 - 1.0:.6g}"
        )
    min_area = max(link.aperture_tx_AT, link.aperture_rx_AR)
    if area_S < min_area * (1.0 - 1.0e-12):
        raise ValidationError(
            f"synthesis area {area_S:.6g} is below max(A_T, A_R) = {min_area:.6g}"
        )
    _check_spectrum_matches(area_S, link, spectrum)
    noise = link.bandwidth_B * link.noise_psd_N0
    gains = ChannelGains(
        gains_eta_sq=effective_gains(area_S, link, spectrum), noise_floor_BN0=noise
    )
    alloc = waterfill(gains, link.power_P)
    out = []
    for k in range(alloc.active_K):
        power = float(alloc.powers_Pn[k])
        rate = math.log1p(gains.gains_eta_sq[k] * power / noise) / math.log(2.0)
        out.append((power, rate))
    return out


def bounds_report(
    link: LinkBudget,
    area_S: float | None = None,
    truncation: Truncation = DEFAULT_TRUNCATION,
    grid_points: int = 32,
) -> CapacityBounds:
    """Full bounds record for a link, optimizing the disc area when none is given.

    The truncation applies to every area evaluated.
    """
    derived = derive_link(link)
    eps0 = solve_eps0()
    snr = derived.received_snr
    upper = upper_bound(snr, eps0)
    if snr <= eps0 - 1.0:
        regime = WEAK_SIGNAL
    else:
        regime = STRONG_SIGNAL
    if area_S is None:
        grid = default_area_grid(link, points=grid_points)
        best_area, lower = optimize_disc_area(link, grid, truncation)
        _, active = beta_at_area(best_area, link, truncation)
    else:
        lower, active = beta_at_area(area_S, link, truncation)
        best_area = area_S
    return CapacityBounds(
        received_snr=snr,
        lower_bits=lower,
        upper_bits=upper,
        regime=regime,
        active_K=active,
        best_area_S=best_area,
        eps0=eps0,
    )


def bounds_to_dict(bounds: CapacityBounds) -> dict:
    """JSON-ready bounds record."""
    approx = None
    if bounds.regime == STRONG_SIGNAL:
        approx = corollary_approx(bounds.received_snr)
    return {
        "gamma_g": bounds.received_snr,
        "regime": bounds.regime,
        "lower": bounds.lower_bits,
        "upper": bounds.upper_bits,
        "approx": approx,
        "K": bounds.active_K,
        "best_area": bounds.best_area_S,
        "eps0": bounds.eps0,
    }
