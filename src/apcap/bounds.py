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

import numpy as np

from .link import LinkBudget, ValidationError, siso_efficiency
from .numerics import solve_eps0
from .spectrum import (
    AREA_RATIO_MAX,
    C_PARAM_MAX,
    DEFAULT_TRUNCATION,
    DiscGeometry,
    OperatorSpectrum,
    Truncation,
    assemble_spectrum,
)
from .waterfill import waterfill

WEAK_SIGNAL = "weak_signal"
STRONG_SIGNAL = "strong_signal"

# the root of eps = exp(2(1 - 1/eps)); gamma*g = EPS0 - 1 splits the two regimes
EPS0 = solve_eps0()


def upper_bound(received_snr: float) -> float:
    """Upper bound on spectral efficiency in bits/s/Hz.

    siso_efficiency, log2(1 + gamma*g), up to the threshold eps0 - 1, then
    corollary_approx, sqrt(gamma*g/(eps0-1)) * log2(eps0). The two branches
    agree at the threshold by construction of eps0. siso_efficiency refuses
    a negative SNR.
    """
    if received_snr <= EPS0 - 1.0:
        return siso_efficiency(received_snr)
    return corollary_approx(received_snr)


def corollary_approx(received_snr: float) -> float:
    """Strong-regime closed form sqrt(gamma*g/(eps0-1)) * log2(eps0).

    Only valid for received SNR at or above the threshold eps0 - 1; weaker
    inputs are rejected since the approximation does not apply there. The
    coefficient log2(eps0)/sqrt(eps0-1) (about 1.1610) is computed from
    the solved eps0, never hard-coded.
    """
    if received_snr < EPS0 - 1.0:
        raise ValidationError(
            f"received SNR {received_snr:.6g} is below the threshold eps0 - 1 = "
            f"{EPS0 - 1.0:.6g}; the closed form only applies in the strong regime"
        )
    return math.sqrt(received_snr / (EPS0 - 1.0)) * math.log2(EPS0)


def effective_gains(link: LinkBudget, spectrum: OperatorSpectrum) -> np.ndarray:
    """Per-mode effective power gains h_k = (A_T A_R / |S|^2) |nu_k|^2.

    |S| is the area of the spectrum's disc.
    """
    scale = link.aperture_tx_AT * link.aperture_rx_AR / spectrum.geometry.area_S**2
    return scale * spectrum.nu_sq


def check_area_floor(area_S: float, link: LinkBudget) -> None:
    """Refuse a synthesis area below max(A_T, A_R): the apertures must fit inside the disc."""
    min_area = max(link.aperture_tx_AT, link.aperture_rx_AR)
    if area_S < min_area * (1.0 - 1.0e-12):
        raise ValidationError(
            f"synthesis area {area_S:.15g} is below max(A_T, A_R) = {min_area:.15g}"
        )


def beta_at_area(
    area_S: float, link: LinkBudget, truncation: Truncation = DEFAULT_TRUNCATION
) -> tuple[float, int]:
    """Waterfilled lower bound beta(|S|) and its active stream count.

    The disc of area |S| takes the link's wavelength, range and loss, and
    its eigenvalue-only spectrum comes from assemble_spectrum. |S| must be
    at least max(A_T, A_R) so the apertures fit inside the disc, which is
    checked before the solve; the link passed the far-field gate when it
    was built.
    The bound is the waterfilling efficiency over the effective gains
    h_k = (A_T A_R/|S|^2) |nu_k|^2 with budget P and noise floor B*N0. It
    sums over the active modes only, so under the default truncation the
    spectrum walk may stop at the first angular order whose top inverted
    floor B*N0/h lies above this link's one-channel water level
    P + B*N0/h_top, which no waterfill level exceeds (see
    assemble_spectrum, which takes the received SNR gamma*g for it): the
    modes it leaves out get no power. A truncation override walks to its
    own ceiling and warns as it would without a bound.
    """
    geometry = DiscGeometry(area_S, link.wavelength_lambda, link.range_d, link.loss_L)
    check_area_floor(area_S, link)
    water = link.received_snr if truncation == DEFAULT_TRUNCATION else math.inf
    spectrum = assemble_spectrum(geometry, *truncation, keep_radial=False, water=water)
    alloc = waterfill(effective_gains(link, spectrum), link.noise_floor_BN0, link.power_P)
    return alloc.efficiency, alloc.active_K


def default_area_grid(link: LinkBudget, points: int = 32) -> np.ndarray:
    """Logarithmic area grid from max(A_T, A_R) up to four times the expected peak.

    The upper end is the area where M0 = |S|^2/(lambda d)^2 reaches
    4*sqrt(gamma*g/(eps0-1)), past which the lower bound is already
    falling. A received SNR whose upper end lies past C_PARAM_MAX or past
    the small-disc gate is rejected.
    """
    lam_d = link.wavelength_lambda * link.range_d
    lo = max(link.aperture_tx_AT, link.aperture_rx_AR)
    end_factor = 4.0
    m0_hi = end_factor * math.sqrt(max(link.received_snr, EPS0 - 1.0) / (EPS0 - 1.0))
    hi = lam_d * math.sqrt(m0_hi)
    c_hi = 2.0 * math.sqrt(m0_hi)
    if c_hi > C_PARAM_MAX:
        # the same end rule solved for gamma*g at c = C_PARAM_MAX, i.e. M0 = (c/2)^2
        snr_max = (EPS0 - 1.0) * ((C_PARAM_MAX / 2.0) ** 2 / end_factor) ** 2
        raise ValidationError(
            f"received SNR gamma*g = {link.received_snr:.6g} is outside the supported "
            f"range: area optimization covers gamma*g up to {snr_max:.6g}, "
            f"where its area grid reaches c = 2 |S| / (lambda d) = {C_PARAM_MAX:g}; "
            f"this grid would reach c = {c_hi:.6g}"
        )
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
    link: LinkBudget, points: int = 32, truncation: Truncation = DEFAULT_TRUNCATION
) -> tuple[float, float, int]:
    """Best synthesis disc area, the lower bound it achieves and its active stream count.

    Evaluates beta over default_area_grid(link, points), then runs a
    golden-section refinement stage between the neighbors of the best grid
    point. Every evaluated (area, beta, K) goes into one list, and the
    first one with the largest beta is returned, so the refinement only
    ever improves on the best grid value.
    """
    if points < 2:
        raise ValidationError("area grid needs at least two points")
    # Python floats: a numpy scalar's repr would reach the CSV through best_area
    grid = default_area_grid(link, points).tolist()
    evaluated: list[tuple[float, float, int]] = []

    def beta_at(area: float) -> float:
        evaluated.append((area, *beta_at_area(area, link, truncation)))
        return evaluated[-1][1]

    for area in grid:
        beta_at(area)
    best = max(range(points), key=lambda i: evaluated[i][1])

    # one golden-section stage between the bracketing neighbors, in log-area
    a, b = math.log(grid[max(best - 1, 0)]), math.log(grid[min(best + 1, points - 1)])
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - phi * (b - a)
    x2 = a + phi * (b - a)
    f1, f2 = beta_at(math.exp(x1)), beta_at(math.exp(x2))
    for _ in range(24):
        if f1 >= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - phi * (b - a)
            f1 = beta_at(math.exp(x1))
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + phi * (b - a)
            f2 = beta_at(math.exp(x2))
        if b - a < 1.0e-4:
            break
    return max(evaluated, key=lambda point: point[1])


def bounds_report(
    link: LinkBudget, area_S: float | None = None, truncation: Truncation = DEFAULT_TRUNCATION
) -> dict:
    """JSON-ready bounds record of a link, optimizing the disc area when none is given.

    Keys, in order: gamma_g (the link's received SNR), regime, lower,
    upper, approx (the strong-regime closed form, None in the weak regime),
    K (active streams), best_area and eps0. The truncation applies to every
    area evaluated.
    """
    snr = link.received_snr
    regime = WEAK_SIGNAL if snr <= EPS0 - 1.0 else STRONG_SIGNAL
    if area_S is None:
        best_area, lower, active = optimize_disc_area(link, truncation=truncation)
    else:
        lower, active = beta_at_area(area_S, link, truncation)
        best_area = area_S
    return {
        "gamma_g": snr,
        "regime": regime,
        "lower": lower,
        "upper": upper_bound(snr),
        "approx": corollary_approx(snr) if regime == STRONG_SIGNAL else None,
        "K": active,
        "best_area": best_area,
        "eps0": EPS0,
    }
