import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from apcap.link import ValidationError
from apcap.oracles import dense_disc_gain_fractions
from apcap.spectrum import (
    DiscGeometry,
    TruncationWarning,
    assemble_spectrum,
    default_truncation,
    disc_for_area,
    effective_rank,
    spectrum_report,
)
from apcap.verification import STUDY_RANGE, STUDY_WAVELENGTH, area_for_m0


def geometry_for_c(c):
    area = c * STUDY_WAVELENGTH * STUDY_RANGE / 2.0
    return disc_for_area(area, STUDY_WAVELENGTH, STUDY_RANGE, 1.0)


class TestDiscGeometry:
    def test_factory_round_trip(self):
        geo = disc_for_area(2.0e5, 0.1, 1.0e6, 1.0)
        assert geo.area_S == pytest.approx(math.pi * geo.radius_R**2, rel=1e-14)
        assert geo.c_param == pytest.approx(4.0, rel=1e-12)
        assert geo.space_bandwidth_M0 == pytest.approx(4.0, rel=1e-12)
        assert geo.spectral_mass == pytest.approx(4.0, rel=1e-12)

    def test_c_is_twice_root_m0(self):
        for m0 in (0.25, 1.0, 9.0):
            geo = disc_for_area(area_for_m0(m0), STUDY_WAVELENGTH, STUDY_RANGE, 1.0)
            assert geo.c_param == pytest.approx(2.0 * math.sqrt(m0), rel=1e-12)

    def test_inconsistent_fields_rejected(self):
        good = disc_for_area(2.0e5, 0.1, 1.0e6, 1.0)
        with pytest.raises(ValidationError, match="area"):
            DiscGeometry(
                radius_R=good.radius_R,
                area_S=good.area_S * 1.001,
                c_param=good.c_param,
                space_bandwidth_M0=good.space_bandwidth_M0,
                wavelength_lambda=good.wavelength_lambda,
                range_d=good.range_d,
                loss_L=good.loss_L,
            )

    def test_small_disc_gate(self):
        # area above 1e-4 * pi d^2 is no longer a small disc at this range
        with pytest.raises(ValidationError, match="small-disc|area"):
            disc_for_area(1.0e9, 0.1, 1.0e6, 1.0)

    def test_loss_bounds(self):
        with pytest.raises(ValidationError):
            disc_for_area(2.0e5, 0.1, 1.0e6, -0.5)
        with pytest.raises(ValidationError):
            disc_for_area(2.0e5, 0.1, 1.0e6, 1.5)


class TestRadialEigensolve:
    def test_eigenvalue_sum_rule_across_orders(self):
        # sum over all N (+-N both entered) and m of beta^2 equals 1/4
        spectrum = assemble_spectrum(geometry_for_c(4.0), 39, 63, 64, keep_radial=False)
        total = sum(e.beta**2 for e in spectrum.entries)
        assert total == pytest.approx(0.25, rel=1e-10)

    def test_negative_order_matches_positive(self):
        spectrum = assemble_spectrum(geometry_for_c(2.0), quadrature_order=48)
        betas = {(e.mode.angular_N, e.mode.radial_m): e.beta for e in spectrum.entries}
        for (n, m), beta in betas.items():
            assert betas[(-n, m)] == pytest.approx(beta, rel=1e-14)

    def test_samples_shape_and_norm(self):
        spectrum = assemble_spectrum(geometry_for_c(4.0), quadrature_order=64)
        betas = [e.beta for e in spectrum.entries if e.mode.angular_N == 0]
        assert abs(betas[0]) > abs(betas[-1])
        rule = spectrum.quadrature
        for m in range(3):
            samples = spectrum.radial_samples[(0, m)]
            assert samples.shape == (64,)
            # unit L2 norm over the physical unit disc: integral of R^2 r dr
            # against 2*pi equals one
            norm = 2.0 * math.pi * rule.integrate(samples**2 * rule.nodes)
            assert norm == pytest.approx(1.0, rel=1e-10)

    def test_quadrature_floor(self):
        with pytest.raises(ValidationError):
            assemble_spectrum(geometry_for_c(1.0), quadrature_order=8)

    def test_c_bounds(self):
        # c = 2 |S| / (lambda d) = 2000 at |S| = 1e8, lambda = 0.1, d = 1e6
        with pytest.raises(ValidationError, match="c_param"):
            assemble_spectrum(disc_for_area(1.0e8, 0.1, 1.0e6, 1.0), keep_radial=False)


class TestAssembleSpectrum:
    def test_entries_sorted_and_degenerate(self, m0_4_spectrum):
        nu = [e.nu_sq for e in m0_4_spectrum.entries]
        assert nu == sorted(nu, reverse=True)
        by_mode = {(e.mode.angular_N, e.mode.radial_m): e.nu_sq for e in m0_4_spectrum.entries}
        for (n, m), value in by_mode.items():
            if n != 0:
                assert by_mode[(-n, m)] == value

    def test_mode_identities(self, m0_4_spectrum):
        # leading mode is radially fundamental and angularly symmetric at c = 4
        top = m0_4_spectrum.entries[0].mode
        assert (top.angular_N, top.radial_m) == (0, 0)
        for e in m0_4_spectrum.entries:
            assert e.nu_sq == pytest.approx(
                m0_4_spectrum.geometry.loss_L
                * (m0_4_spectrum.geometry.c_param * e.beta) ** 2,
                rel=1e-12,
            )

    def test_sum_rule_capture(self, m0_4_spectrum):
        frac = m0_4_spectrum.captured_mass / m0_4_spectrum.geometry.spectral_mass
        assert 0.999 <= frac <= 1.0 + 1e-12

    def test_loss_scales_nu_not_beta(self):
        area = area_for_m0(1.0)
        full = assemble_spectrum(
            disc_for_area(area, STUDY_WAVELENGTH, STUDY_RANGE, 1.0), keep_radial=False
        )
        lossy = assemble_spectrum(
            disc_for_area(area, STUDY_WAVELENGTH, STUDY_RANGE, 0.5), keep_radial=False
        )
        assert lossy.entries[0].beta == pytest.approx(full.entries[0].beta, rel=1e-13)
        assert lossy.entries[0].nu_sq == pytest.approx(
            0.5 * full.entries[0].nu_sq, rel=1e-13
        )

    def test_same_c_same_betas(self):
        # beta depends on the geometry only through c
        a = assemble_spectrum(
            disc_for_area(5.0e4, 0.1, 1.0e6, 1.0), keep_radial=False
        )
        b = assemble_spectrum(
            disc_for_area(5.0e3, 0.1, 1.0e5, 1.0), keep_radial=False
        )
        assert a.geometry.c_param == pytest.approx(b.geometry.c_param, rel=1e-14)
        for ea, eb in zip(a.entries[:20], b.entries[:20]):
            assert ea.beta == pytest.approx(eb.beta, rel=1e-12)

    def test_truncation_warning_when_starved(self):
        geo = geometry_for_c(4.0)
        with pytest.warns(TruncationWarning):
            assemble_spectrum(geo, max_angular_N=1, max_radial_m=1, keep_radial=False)

    def test_radial_samples_toggle(self):
        geo = geometry_for_c(1.0)
        with_samples = assemble_spectrum(geo)
        without = assemble_spectrum(geo, keep_radial=False)
        assert without.radial_samples is None
        assert with_samples.radial_samples is not None
        assert (0, 0) in with_samples.radial_samples

    def test_default_truncation_grows_with_c(self):
        n1, m1, q1 = default_truncation(1.0)
        n2, m2, q2 = default_truncation(30.0)
        assert n2 > n1 and m2 > m1 and q2 >= q1
        assert q1 >= 64


class TestEffectiveRank:
    def test_golden_plunge_ranks(self):
        for m0, expected in ((4.0, 3), (9.0, 8), (16.0, 17)):
            geo = disc_for_area(area_for_m0(m0), STUDY_WAVELENGTH, STUDY_RANGE, 1.0)
            spectrum = assemble_spectrum(geo, keep_radial=False)
            assert effective_rank(spectrum, 0.5) == expected

    def test_full_fraction_counts_top_ties(self, m0_4_spectrum):
        # the strongest mode at this geometry is the lone N = 0, m = 0 entry
        assert effective_rank(m0_4_spectrum, 1.0) == 1

    def test_fraction_validation(self, m0_4_spectrum):
        with pytest.raises(ValidationError):
            effective_rank(m0_4_spectrum, 0.0)
        with pytest.raises(ValidationError):
            effective_rank(m0_4_spectrum, 1.1)

    @given(fraction=st.floats(min_value=0.05, max_value=0.999))
    def test_weaker_threshold_keeps_more_modes(self, fraction):
        spectrum = _CACHED_C2
        assert effective_rank(spectrum, fraction * 0.5) >= effective_rank(
            spectrum, fraction
        )


_CACHED_C2 = assemble_spectrum(geometry_for_c(2.0), keep_radial=False)


class TestAgainstDenseOracle:
    def test_top_modes_match_small_dense_grid(self):
        # modest 32 x 32 polar grid is plenty at c = 1 for the top three
        oracle = dense_disc_gain_fractions(1.0, 3, radial_points=32, angular_points=32)
        spectrum = assemble_spectrum(geometry_for_c(1.0), keep_radial=False)
        mine = np.array([4.0 * e.beta**2 for e in spectrum.entries[:3]])
        assert np.max(np.abs(mine - oracle) / oracle) < 1e-8


class TestSpectrumReport:
    def test_report_shape(self, m0_4_spectrum):
        report = spectrum_report(m0_4_spectrum)
        assert report["schema_version"] == 1
        assert report["geometry"]["c_param"] == pytest.approx(4.0, rel=1e-12)
        assert 0.999 <= report["sum_rule"]["fraction"] <= 1.0 + 1e-12
        first = report["modes"][0]
        assert set(first) == {"N", "m", "beta", "nu_sq"}
        assert isinstance(first["N"], int) and isinstance(first["beta"], float)
