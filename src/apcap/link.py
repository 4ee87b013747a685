"""Physical link parameters and baseline spectral efficiencies.

The SISO reference efficiency is log2(1 + gamma*g) with g the power
coupling of the link.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .numerics import ValidationError

# Far-field admissibility gate. The flat-kernel approximation needs
# sqrt(A_T*A_R)/(lambda*d) well below 1; at 1e-2 the neglected phase terms
# stay below about 2*pi*1e-4 radians at disc scale.
FAR_FIELD_RATIO_MAX = 1.0e-2


@dataclass(frozen=True)
class LinkBudget:
    """Physical parameters of a free-space link, SI units throughout."""

    power_P: float
    bandwidth_B: float
    noise_psd_N0: float
    wavelength_lambda: float
    range_d: float
    loss_L: float
    aperture_tx_AT: float
    aperture_rx_AR: float

    def __post_init__(self):
        for name in (
            "power_P",
            "bandwidth_B",
            "noise_psd_N0",
            "wavelength_lambda",
            "range_d",
            "loss_L",
            "aperture_tx_AT",
            "aperture_rx_AR",
        ):
            value = getattr(self, name)
            if not (value > 0.0) or not math.isfinite(value):
                raise ValidationError(f"{name} must be a positive finite number, got {value!r}")
        if self.loss_L > 1.0:
            raise ValidationError(f"loss_L must not exceed 1, got {self.loss_L!r}")

    @property
    def far_field_ratio(self) -> float:
        """sqrt(A_T*A_R)/(lambda*d); must stay at or below 1e-2."""
        return math.sqrt(self.aperture_tx_AT * self.aperture_rx_AR) / (
            self.wavelength_lambda * self.range_d
        )


@dataclass(frozen=True)
class LinkDerived:
    """Quantities derived from a link budget: gain, SNR, and their product."""

    gain_g: float
    snr_gamma: float
    received_snr: float


def derive_link(link: LinkBudget) -> LinkDerived:
    """Compute the channel gain g, transmit SNR gamma, and received SNR gamma*g.

    g = A_T*A_R*L / (lambda^2 d^2) and gamma = P / (B*N0). The far-field
    gate sqrt(A_T*A_R)/(lambda*d) <= 1e-2 is enforced here; a violation
    raises with the offending ratio in the message.
    """
    ratio = link.far_field_ratio
    if ratio > FAR_FIELD_RATIO_MAX:
        raise ValidationError(
            f"far-field admissibility violated: sqrt(A_T*A_R)/(lambda*d) = {ratio:.6g} "
            f"exceeds {FAR_FIELD_RATIO_MAX:g}"
        )
    gain = (
        link.aperture_tx_AT
        * link.aperture_rx_AR
        * link.loss_L
        / (link.wavelength_lambda**2 * link.range_d**2)
    )
    gamma = link.power_P / (link.bandwidth_B * link.noise_psd_N0)
    return LinkDerived(gain_g=gain, snr_gamma=gamma, received_snr=gain * gamma)


def siso_efficiency(received_snr: float) -> float:
    """Single-mode spectral efficiency log2(1 + gamma*g) in bits/s/Hz."""
    if received_snr < 0.0:
        raise ValidationError(f"received SNR must be nonnegative, got {received_snr!r}")
    return math.log1p(received_snr) / math.log(2.0)
