import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from apcap.link import (
    LinkBudget,
    ValidationError,
    derive_link,
    siso_efficiency,
)


def make_link(**overrides):
    params = dict(
        power_P=1.0e7,
        bandwidth_B=1.0,
        noise_psd_N0=1.0,
        wavelength_lambda=0.1,
        range_d=1.0e6,
        loss_L=1.0,
        aperture_tx_AT=100.0,
        aperture_rx_AR=100.0,
    )
    params.update(overrides)
    return LinkBudget(**params)


class TestLinkBudget:
    def test_all_ones_toy_link(self):
        # g = 1 and gamma = 1 gives one bit per channel use
        link = LinkBudget(
            power_P=1.0,
            bandwidth_B=1.0,
            noise_psd_N0=1.0,
            wavelength_lambda=1.0,
            range_d=1.0,
            loss_L=1.0,
            aperture_tx_AT=1.0,
            aperture_rx_AR=1.0,
        )
        assert link.far_field_ratio == 1.0  # deliberately unphysical toy values
        gain = (
            link.aperture_tx_AT
            * link.aperture_rx_AR
            * link.loss_L
            / (link.wavelength_lambda * link.range_d) ** 2
        )
        assert gain == 1.0
        assert siso_efficiency(1.0) == pytest.approx(1.0)

    def test_derive_study_link(self):
        derived = derive_link(make_link())
        assert derived.gain_g == pytest.approx(1.0e-6, rel=1e-12)
        assert derived.snr_gamma == pytest.approx(1.0e7)
        assert derived.received_snr == pytest.approx(10.0, rel=1e-12)

    def test_gain_formula_scaling(self):
        base = derive_link(make_link())
        doubled = derive_link(make_link(aperture_tx_AT=200.0))
        assert doubled.gain_g == pytest.approx(2.0 * base.gain_g, rel=1e-12)
        halved_loss = derive_link(make_link(loss_L=0.5))
        assert halved_loss.gain_g == pytest.approx(0.5 * base.gain_g, rel=1e-12)

    def test_far_field_gate(self):
        # apertures of 1e4 m^2 at 1 km range: sqrt(A)/d = 0.1, not far field
        with pytest.raises(ValidationError, match="far.field"):
            derive_link(make_link(range_d=1.0e3, aperture_tx_AT=1.0e4))

    @pytest.mark.parametrize(
        "field,value",
        [
            ("power_P", 0.0),
            ("power_P", -1.0),
            ("bandwidth_B", 0.0),
            ("noise_psd_N0", -2.0),
            ("wavelength_lambda", 0.0),
            ("range_d", math.inf),
            ("loss_L", 0.0),
            ("loss_L", 1.5),
            ("aperture_tx_AT", -5.0),
            ("aperture_rx_AR", math.nan),
        ],
    )
    def test_field_validation(self, field, value):
        with pytest.raises(ValidationError, match=field):
            make_link(**{field: value})


class TestSisoEfficiency:
    def test_reference_points(self):
        assert siso_efficiency(1.0) == pytest.approx(1.0)
        assert siso_efficiency(3.0) == pytest.approx(2.0)
        assert siso_efficiency(10.0) == pytest.approx(math.log2(11.0))

    def test_tiny_snr_uses_log1p_accuracy(self):
        snr = 1e-15
        assert siso_efficiency(snr) == pytest.approx(snr / math.log(2.0), rel=1e-12)

    @given(st.floats(min_value=1e-8, max_value=1e8))
    def test_monotone(self, snr):
        assert siso_efficiency(snr * 1.01) > siso_efficiency(snr)

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            siso_efficiency(-0.1)
