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
class ChannelGains:
    """Squared channel gains sorted non-increasing, plus the noise floor B*N0."""

    gains_eta_sq: np.ndarray
    noise_floor_BN0: float

    def __post_init__(self):
        gains = np.asarray(self.gains_eta_sq, dtype=float)
        object.__setattr__(self, "gains_eta_sq", gains)
        if gains.ndim != 1 or gains.size == 0:
            raise ValidationError("gains must be a nonempty 1-D sequence")
        if np.any(gains < 0.0) or not np.all(np.isfinite(gains)):
            raise ValidationError("gains must be finite and nonnegative")
        if np.any(np.diff(gains) > 0.0):
            raise ValidationError("gains must be sorted non-increasing")
        if not (gains[0] > 0.0):
            raise ValidationError("at least one gain must be strictly positive")
        if not (self.noise_floor_BN0 > 0.0 and math.isfinite(self.noise_floor_BN0)):
            raise ValidationError(
                f"noise_floor_BN0 must be positive and finite, got {self.noise_floor_BN0!r}"
            )
        top = float(gains[0])
        if not math.isfinite(float(self.noise_floor_BN0) / top):
            raise ValidationError(
                f"top gain {top!r} is too small for noise_floor_BN0 "
                f"{self.noise_floor_BN0!r}: the inverted floor BN0/g overflows"
            )


@dataclass(frozen=True)
class PowerAllocation:
    """Per-channel powers, the active-channel count, and the water level."""

    powers_Pn: np.ndarray
    active_K: int
    water_level: float


def _inverted_floors(gains: ChannelGains) -> np.ndarray:
    """BN0/g_i over the leading gains whose inverted floor is finite.

    The gains are sorted, so the rest (zero gains, and gains so small that
    BN0/g overflows) form a suffix; none of those channels can be active.
    """
    positive = gains.gains_eta_sq[gains.gains_eta_sq > 0.0]
    with np.errstate(over="ignore"):
        floors = gains.noise_floor_BN0 / positive
    return floors[np.isfinite(floors)]


def select_active_K(gains: ChannelGains, total_power_P: float) -> int:
    """Greatest K whose prefix water level clears the K-th inverted gain.

    K is the largest integer with

        (P + sum_{i<=K} BN0/g_i) / K >= BN0/g_K,

    over the gains with a finite inverted floor, in sorted order, and among
    the K whose prefix sum does not overflow. Channels sitting exactly at
    the water level are counted active (they receive zero power, and the
    efficiency is unaffected either way).
    """
    if not (total_power_P > 0.0 and math.isfinite(total_power_P)):
        raise ValidationError(f"total power must be positive and finite, got {total_power_P!r}")
    floors = _inverted_floors(gains)
    with np.errstate(over="ignore"):
        levels = (total_power_P + np.cumsum(floors)) / np.arange(1, floors.size + 1)
    clears = np.flatnonzero((levels >= floors) & np.isfinite(levels))
    return int(clears[-1]) + 1 if clears.size else 1


def waterfill(gains: ChannelGains, total_power_P: float) -> PowerAllocation:
    """Waterfilling allocation of a total power budget over the channels.

    The water level is (P + sum_{i<=K} BN0/g_i) / K with K the active
    count; each active channel receives the level minus its own inverted
    gain, and the powers telescope to P exactly. Channels past the active
    ones, zero-gain channels among them, are reported with zero power.
    """
    active = select_active_K(gains, total_power_P)
    floors = _inverted_floors(gains)[:active]
    level = (total_power_P + float(np.sum(floors))) / active
    powers = np.zeros(gains.gains_eta_sq.size)
    # a channel exactly at the level is active with zero power; tiny negative
    # residues from roundoff are clipped as well
    powers[:active] = np.maximum(level - floors, 0.0)
    return PowerAllocation(powers_Pn=powers, active_K=active, water_level=level)


def allocation_efficiency(gains: ChannelGains, alloc: PowerAllocation) -> float:
    """Spectral efficiency sum_n log2(1 + g_n P_n / BN0) of an allocation."""
    powers = np.asarray(alloc.powers_Pn, dtype=float)
    if powers.shape != gains.gains_eta_sq.shape:
        raise ValidationError(
            f"allocation length {powers.shape} does not match gains {gains.gains_eta_sq.shape}"
        )
    snr = gains.gains_eta_sq * powers / gains.noise_floor_BN0
    return float(np.sum(np.log1p(snr)) / math.log(2.0))
