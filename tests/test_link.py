import dataclasses
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from apcap.link import FAR_FIELD_RATIO_MAX, LinkBudget, ValidationError, siso_efficiency
from apcap.verification import study_link

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


def formula_triple(link):
    """(g, gamma, gamma*g) spelled out as A_T A_R L/(lambda^2 d^2), P/(B N0) and their product."""
    gain = (
        link.aperture_tx_AT
        * link.aperture_rx_AR
        * link.loss_L
        / (link.wavelength_lambda**2 * link.range_d**2)
    )
    gamma = link.power_P / (link.bandwidth_B * link.noise_psd_N0)
    return gain, gamma, gain * gamma


class TestLinkBudget:
    def test_power_of_two_toy_link(self):
        # g = 2^-14 and gamma = 2^14 give one bit per channel use, exactly
        link = LinkBudget(
            power_P=16384.0,
            bandwidth_B=1.0,
            noise_psd_N0=1.0,
            wavelength_lambda=1.0,
            range_d=128.0,
            loss_L=1.0,
            aperture_tx_AT=1.0,
            aperture_rx_AR=1.0,
        )
        assert link.far_field_ratio == 1.0 / 128.0  # deliberately unphysical toy values
        gain = (
            link.aperture_tx_AT
            * link.aperture_rx_AR
            * link.loss_L
            / (link.wavelength_lambda * link.range_d) ** 2
        )
        assert gain == link.gain_g == 2.0**-14
        assert link.received_snr == 1.0
        assert siso_efficiency(link.received_snr) == pytest.approx(1.0)

    def test_study_link(self):
        link = make_link()
        assert link.gain_g == pytest.approx(1.0e-6, rel=1e-12)
        assert link.snr_gamma == pytest.approx(1.0e7)
        assert link.received_snr == pytest.approx(10.0, rel=1e-12)

    @pytest.mark.parametrize(
        "link",
        [
            *(
                pytest.param(study_link(snr), id=f"study-{snr:g}")
                for snr in (0.1, 1.0, 10.0, 1.0e2, 1.0e4, 1.0e6, 1.0e8)
            ),
            pytest.param(make_link(), id="cli-defaults"),
            pytest.param(make_link(power_P=1.0e13), id="power-1e13"),
            pytest.param(make_link(aperture_rx_AR=400.0, power_P=1.0e9), id="rx-400"),
            pytest.param(
                make_link(range_d=1.0e7, aperture_tx_AT=2.0e3, aperture_rx_AR=2.0e3), id="range-1e7"
            ),
            pytest.param(
                make_link(loss_L=0.3, bandwidth_B=3.0, noise_psd_N0=7.0e-3, wavelength_lambda=0.03),
                id="every-field",
            ),
        ],
    )
    def test_properties_match_the_formulas_bit_for_bit(self, link):
        assert (link.gain_g, link.snr_gamma, link.received_snr) == formula_triple(link)
        assert link.noise_floor_BN0 == link.bandwidth_B * link.noise_psd_N0

    def test_gain_formula_scaling(self):
        base = make_link()
        doubled = make_link(aperture_tx_AT=200.0)
        assert doubled.gain_g == pytest.approx(2.0 * base.gain_g, rel=1e-12)
        halved_loss = make_link(loss_L=0.5)
        assert halved_loss.gain_g == pytest.approx(0.5 * base.gain_g, rel=1e-12)

    def test_far_field_gate(self):
        # apertures of 1e4 m^2 at 1 km range: sqrt(A)/d = 0.1, not far field
        with pytest.raises(ValidationError, match="far.field"):
            make_link(range_d=1.0e3, aperture_tx_AT=1.0e4)
        # both products overflow, and the ratio inf/inf is NaN
        huge = dict(wavelength_lambda=1.0e200, range_d=1.0e200)
        with pytest.raises(ValidationError, match="far-field .* = nan exceeds"):
            make_link(aperture_tx_AT=1.0e200, aperture_rx_AR=1.0e200, **huge)
        # the fields are checked first
        with pytest.raises(ValidationError, match="power_P"):
            make_link(range_d=1.0e3, aperture_tx_AT=1.0e4, power_P=-1.0)

    @pytest.mark.parametrize(
        "overrides",
        [
            pytest.param(dict(bandwidth_B=1.0e-300, noise_psd_N0=1.0e-300), id="B*N0-underflows"),
            pytest.param(dict(wavelength_lambda=1.0e200), id="lambda^2-overflows"),
            pytest.param(dict(power_P=1.0e300, bandwidth_B=1.0e-10), id="gamma-overflows"),
            pytest.param(
                dict(power_P=1.0e300, bandwidth_B=1.0e-10, wavelength_lambda=1.0e150),
                id="inf-times-0",
            ),
        ],
    )
    def test_non_finite_received_snr_refused(self, overrides):
        with pytest.raises(ValidationError, match=r"received SNR gamma\*g .* finite number"):
            make_link(**overrides)

    def test_gate_checked_before_received_snr(self):
        with pytest.raises(ValidationError, match="far-field"):
            make_link(range_d=1.0e3, aperture_tx_AT=1.0e4, power_P=1.0e300, bandwidth_B=1.0e-10)

    def test_underflowing_received_snr_kept(self):
        link = make_link(power_P=1.0e-320)
        assert link.snr_gamma == 1.0e-320 and link.received_snr == 0.0

    def test_gate_boundary(self):
        # sqrt(x*x) == x in floating point, so these ratios are x itself
        toy = dict(wavelength_lambda=1.0, range_d=1.0)
        link = make_link(aperture_tx_AT=1.0e-2, aperture_rx_AR=1.0e-2, **toy)
        assert link.far_field_ratio == FAR_FIELD_RATIO_MAX
        above = math.nextafter(FAR_FIELD_RATIO_MAX, math.inf)
        message = "far-field admissibility violated: sqrt(A_T*A_R)/(lambda*d) = 0.01 exceeds 0.01"
        with pytest.raises(ValidationError) as refused:
            make_link(aperture_tx_AT=above, aperture_rx_AR=above, **toy)
        assert str(refused.value) == message
        with pytest.raises(ValidationError) as replaced:
            dataclasses.replace(link, aperture_tx_AT=above, aperture_rx_AR=above)
        assert str(replaced.value) == message

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
