import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from apcap.bounds import (
    beta_at_area,
    bounds_report,
    bounds_to_dict,
    corollary_approx,
    default_area_grid,
    effective_gains,
    lower_bound_beta,
    optimize_disc_area,
    upper_bound,
)
from apcap.link import ValidationError, siso_efficiency
from apcap.numerics import solve_eps0
from apcap.spectrum import assemble_spectrum, disc_for_area
from apcap.verification import STUDY_RANGE, STUDY_WAVELENGTH, area_for_m0, study_link

EPS0 = solve_eps0()

# frozen from this implementation at M0 = 4, received SNR 10; the dense-grid
# oracle agreement for the underlying eigenvalues lives in test_spectrum
LOWER_AT_M0_4_SNR10 = 2.3172404605164445


def fresh_beta_at_area(area, link):
    """beta_at_area computed from a spectrum solved afresh for this call."""
    geometry = disc_for_area(area, link.wavelength_lambda, link.range_d, link.loss_L)
    return lower_bound_beta(area, link, assemble_spectrum(geometry, keep_radial=False))


class TestUpperBound:
    def test_weak_branch_is_siso(self):
        for snr in (1e-3, 0.5, EPS0 - 1.0):
            assert upper_bound(snr, EPS0) == pytest.approx(siso_efficiency(snr), rel=1e-14)

    def test_strong_branch_formula(self):
        snr = 100.0
        expected = math.sqrt(snr / (EPS0 - 1.0)) * math.log2(EPS0)
        assert upper_bound(snr, EPS0) == pytest.approx(expected, rel=1e-14)

    def test_branch_continuity(self):
        x = EPS0 - 1.0
        weak = math.log1p(x) / math.log(2.0)
        strong = math.sqrt(x / (EPS0 - 1.0)) * math.log2(EPS0)
        assert abs(weak - strong) < 1e-9

    @given(st.floats(min_value=1e-6, max_value=1e8))
    def test_monotone(self, snr):
        assert upper_bound(1.02 * snr, EPS0) > upper_bound(snr, EPS0)

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            upper_bound(-1.0, EPS0)


class TestCorollaryApprox:
    def test_coefficient_value(self):
        assert corollary_approx(1.0e4) == pytest.approx(1.1610 * 100.0, abs=0.01)

    def test_equals_strong_branch(self):
        for snr in (5.0, 100.0, 1e6):
            assert corollary_approx(snr) == pytest.approx(
                upper_bound(snr, EPS0), rel=1e-14
            )

    def test_weak_domain_rejected(self):
        with pytest.raises(ValidationError):
            corollary_approx(1.0)
        # the boundary itself is allowed
        corollary_approx(EPS0 - 1.0)


class TestEffectiveGains:
    def test_gain_identity(self, m0_4_spectrum, snr10_link):
        area = area_for_m0(4.0)
        gains = effective_gains(area, snr10_link, m0_4_spectrum)
        g = 1.0e-6
        expected0 = g * 4.0 * float(m0_4_spectrum.beta[0]) ** 2
        assert gains[0] == pytest.approx(expected0, rel=1e-9)
        assert np.all(np.diff(gains) <= 1e-30)

    def test_geometry_mismatch_rejected(self, m0_4_spectrum, snr10_link):
        with pytest.raises(ValidationError, match="does not match requested area"):
            lower_bound_beta(area_for_m0(1.0), snr10_link, m0_4_spectrum)


class TestLowerBound:
    def test_frozen_reference_value(self, m0_4_spectrum, snr10_link):
        beta, active = lower_bound_beta(area_for_m0(4.0), snr10_link, m0_4_spectrum)
        assert beta == pytest.approx(LOWER_AT_M0_4_SNR10, rel=1e-12)
        assert active == 3

    def test_area_below_aperture_rejected(self, snr10_link):
        geo = disc_for_area(50.0, STUDY_WAVELENGTH, STUDY_RANGE, 1.0)
        spectrum = assemble_spectrum(geo, keep_radial=False)
        with pytest.raises(ValidationError, match="max\\(A_T, A_R\\)"):
            lower_bound_beta(50.0, snr10_link, spectrum)

    def test_never_exceeds_upper(self, snr10_link):
        upper = upper_bound(10.0, EPS0)
        for area in default_area_grid(snr10_link, points=12):
            beta, _ = beta_at_area(area, snr10_link)
            assert beta <= upper + 1e-12

    def test_weak_regime_approaches_siso(self):
        link = study_link(0.5)
        beta, active = beta_at_area(100.0, link)
        assert active == 1
        assert beta == pytest.approx(siso_efficiency(0.5), abs=1e-3)


class TestAreaOptimization:
    def test_grid_spans_peak(self, snr10_link):
        grid = default_area_grid(snr10_link, points=16)
        assert grid[0] == pytest.approx(100.0)
        m0_top = (grid[-1] / (STUDY_WAVELENGTH * STUDY_RANGE)) ** 2
        assert m0_top == pytest.approx(4.0 * math.sqrt(10.0 / (EPS0 - 1.0)), rel=1e-9)

    def test_optimum_beats_grid(self, snr10_link):
        grid = default_area_grid(snr10_link, points=12)
        best_area, best_beta = optimize_disc_area(snr10_link, grid)
        grid_betas = [beta_at_area(a, snr10_link)[0] for a in grid]
        assert best_beta >= max(grid_betas) - 1e-13
        assert grid[0] <= best_area <= grid[-1]

    def test_grid_validation(self, snr10_link):
        with pytest.raises(ValidationError):
            optimize_disc_area(snr10_link, np.array([200.0]))
        with pytest.raises(ValidationError):
            optimize_disc_area(snr10_link, np.array([1.0, 200.0]))

    def test_cache_reuse_consistent(self, snr10_link):
        area = area_for_m0(4.0)
        first, _ = beta_at_area(area, snr10_link)
        second, _ = beta_at_area(area, snr10_link)
        third, _ = beta_at_area(area, snr10_link)
        # memo hits return the spectrum a fresh solve gives, bit for bit
        assert first == second == third == fresh_beta_at_area(area, snr10_link)[0]

    def test_result_independent_of_call_history(self, snr10_link):
        # the golden-section search of `apcap link` evaluates this area; its c
        # lies within 5e-7 of the c at area 100
        near = 100.0185310010082
        beta_at_area(100.0, snr10_link)
        assert beta_at_area(near, snr10_link) == fresh_beta_at_area(near, snr10_link)


class TestBoundsReport:
    def test_fixed_area_report(self, snr10_link):
        bounds = bounds_report(snr10_link, area_S=area_for_m0(4.0))
        assert bounds.regime == "strong_signal"
        assert bounds.lower_bits == pytest.approx(LOWER_AT_M0_4_SNR10, rel=1e-12)
        assert bounds.active_K == 3
        record = bounds_to_dict(bounds)
        assert record["approx"] == pytest.approx(upper_bound(10.0, EPS0), rel=1e-14)

    def test_weak_regime_record_has_no_approx(self):
        link = study_link(1.0)
        record = bounds_to_dict(bounds_report(link, area_S=1000.0))
        assert record["regime"] == "weak_signal"
        assert record["approx"] is None
        assert record["lower"] <= record["upper"] + 1e-12
