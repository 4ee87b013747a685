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
    """Physical parameters of a free-space link, SI units throughout.

    Construction, dataclasses.replace included, refuses a field that is not
    a positive finite number, a loss above 1, then a link that fails the
    far-field gate, and then one whose received SNR gamma*g is not a finite
    number in floating point, so every LinkBudget is one the model describes.
    """

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
        try:
            ratio = self.far_field_ratio
        except ZeroDivisionError:  # lambda*d underflowing to 0
            ratio = math.inf
        if not ratio <= FAR_FIELD_RATIO_MAX:  # a NaN ratio (inf/inf) is refused too
            raise ValidationError(
                f"far-field admissibility violated: sqrt(A_T*A_R)/(lambda*d) = {ratio:.6g} "
                f"exceeds {FAR_FIELD_RATIO_MAX:g}"
            )
        try:
            snr = self.received_snr
        except ArithmeticError:  # B*N0 underflowing to 0, or lambda**2 or d**2 overflowing
            snr = math.nan
        if not snr < math.inf:  # an SNR that underflows to 0 still describes a link
            raise ValidationError(
                "received SNR gamma*g = P*A_T*A_R*L / (B*N0*lambda^2*d^2) does not "
                "evaluate to a finite number"
            )

    @property
    def far_field_ratio(self) -> float:
        """sqrt(A_T*A_R)/(lambda*d); at or below 1e-2 on every LinkBudget."""
        return math.sqrt(self.aperture_tx_AT * self.aperture_rx_AR) / (
            self.wavelength_lambda * self.range_d
        )

    @property
    def gain_g(self) -> float:
        """Channel power gain g = A_T*A_R*L / (lambda^2 d^2)."""
        lam_sq_d_sq = self.wavelength_lambda**2 * self.range_d**2
        return self.aperture_tx_AT * self.aperture_rx_AR * self.loss_L / lam_sq_d_sq

    @property
    def noise_floor_BN0(self) -> float:
        """Noise power B*N0 over the band."""
        return self.bandwidth_B * self.noise_psd_N0

    @property
    def snr_gamma(self) -> float:
        """Transmit SNR gamma = P / (B*N0)."""
        return self.power_P / self.noise_floor_BN0

    @property
    def received_snr(self) -> float:
        """Received SNR gamma*g."""
        return self.gain_g * self.snr_gamma


def siso_efficiency(received_snr: float) -> float:
    """Single-mode spectral efficiency log2(1 + gamma*g) in bits/s/Hz."""
    if received_snr < 0.0:
        raise ValidationError(f"received SNR must be nonnegative, got {received_snr!r}")
    return math.log1p(received_snr) / math.log(2.0)
