"""Optimal power allocation over parallel Gaussian channels.

Classic waterfilling: the optimum fills power up to a common water level
1/rho' over the channels whose inverted noise floor sits below it, and the
achieved efficiency is sum log2(1 + gain * power / BN0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .link import ValidationError


@dataclass(frozen=True)
class PowerAllocation:
    """Per-channel powers, the active-channel count, the water level and the efficiency."""

    powers_Pn: np.ndarray
    active_K: int
    water_level: float
    efficiency: float


def waterfill(gains_eta_sq, noise_floor_BN0: float, total_power_P: float) -> PowerAllocation:
    """Waterfilling allocation of a total power budget over the channels.

    The gains are squared channel gains sorted non-increasing, nonempty,
    finite and nonnegative, with a top gain g_1 > 0 whose inverted floor
    BN0/g_1 is finite; the noise floor B*N0 and the budget P are positive
    and finite.

    The active count K is the largest integer with

        (P + sum_{i<=K} BN0/g_i) / K >= BN0/g_K,

    over the gains with a finite inverted floor BN0/g_i, in sorted order,
    and among the K whose prefix sum does not overflow. The gains are
    sorted, so the rest (zero gains, and gains so small that BN0/g
    overflows) form a suffix, and none of those channels can be active.
    Channels sitting exactly at the water level are counted active: they
    receive zero power, and the efficiency is unaffected either way.

    The water level is (P + sum_{i<=K} BN0/g_i) / K; each active channel
    receives the level minus its own inverted gain, and the powers
    telescope to P exactly. Channels past the active ones, zero-gain
    channels among them, are reported with zero power.

    The efficiency sum_{n<=K} log2(1 + g_n P_n / BN0) sums the K active
    channels only: the rest carry no power and add log2(1) = 0, so leaving
    them out keeps the bits of the sum independent of how many inactive
    channels follow, and the bounds path's lower bound depends on the
    active modes alone.
    """
    gains = np.asarray(gains_eta_sq, dtype=float)
    if gains.ndim != 1 or gains.size == 0:
        raise ValidationError("gains must be a nonempty 1-D sequence")
    if np.any(gains < 0.0) or not np.all(np.isfinite(gains)):
        raise ValidationError("gains must be finite and nonnegative")
    if np.any(np.diff(gains) > 0.0):
        raise ValidationError("gains must be sorted non-increasing")
    if not (gains[0] > 0.0):
        raise ValidationError("at least one gain must be strictly positive")
    if not (noise_floor_BN0 > 0.0 and math.isfinite(noise_floor_BN0)):
        raise ValidationError(
            f"noise_floor_BN0 must be positive and finite, got {noise_floor_BN0!r}"
        )
    top = float(gains[0])
    if not math.isfinite(float(noise_floor_BN0) / top):
        raise ValidationError(
            f"top gain {top!r} is too small for noise_floor_BN0 "
            f"{noise_floor_BN0!r}: the inverted floor BN0/g overflows"
        )
    if not (total_power_P > 0.0 and math.isfinite(total_power_P)):
        raise ValidationError(f"total power must be positive and finite, got {total_power_P!r}")
    positive = gains[gains > 0.0]
    with np.errstate(over="ignore"):
        floors = noise_floor_BN0 / positive
        floors = floors[np.isfinite(floors)]
        levels = (total_power_P + np.cumsum(floors)) / np.arange(1, floors.size + 1)
    clears = np.flatnonzero((levels >= floors) & np.isfinite(levels))
    active = int(clears[-1]) + 1 if clears.size else 1
    floors = floors[:active]
    level = (total_power_P + float(np.sum(floors))) / active
    powers = np.zeros(gains.size)
    # a channel exactly at the level is active with zero power; tiny negative
    # residues from roundoff are clipped as well
    powers[:active] = np.maximum(level - floors, 0.0)
    snr = gains[:active] * powers[:active] / noise_floor_BN0
    efficiency = float(np.sum(np.log1p(snr)) / math.log(2.0))
    return PowerAllocation(powers_Pn=powers, active_K=active, water_level=level, efficiency=efficiency)
