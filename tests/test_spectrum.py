import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from apcap import spectrum as spectrum_module
from apcap.cli import main as cli_main
from apcap.link import ValidationError
from apcap.numerics import QUAD_MAX_ORDER, bessel_j_table, gauss_quadrature
from apcap.oracles import dense_disc_gain_fractions
from apcap.spectrum import (
    C_PARAM_MAX,
    DEFAULT_TRUNCATION,
    EPS,
    DiscGeometry,
    TruncationWarning,
    assemble_spectrum,
    default_truncation,
    disc_for_area,
    effective_rank,
    eigenvalue_spectrum,
    spectrum_report,
)
from apcap.verification import STUDY_RANGE, STUDY_WAVELENGTH, area_for_m0


def geometry_for_c(c):
    area = c * STUDY_WAVELENGTH * STUDY_RANGE / 2.0
    return disc_for_area(area, STUDY_WAVELENGTH, STUDY_RANGE, 1.0)


def modes_of(spectrum):
    """The (N, m) index of every mode, in spectrum order."""
    return list(zip(spectrum.angular_N.tolist(), spectrum.radial_m.tolist()))


def fixed_truncation_nu_sq(c, max_angular_N, max_radial_m, quadrature_order):
    """nu_sq of every mode (N >= 0, m) of a fixed truncation: no walk, no cut.

    The Nystrom discretization of assemble_spectrum solved for every order
    up to max_angular_N and kept to max_radial_m, as the fixed rule
    (2c + 10, c + 10, 4c) did. Rows are fetched 96 orders at a time to
    bound memory (about 100 MB at Q = 512). geometry_for_c has L = 1, so nu_sq = (c beta)^2.
    """
    rule = gauss_quadrature(quadrature_order)
    upper = np.triu_indices(quadrature_order)
    args = c * np.outer(rule.nodes, rule.nodes)[upper]
    weight = np.sqrt(rule.weights * rule.nodes)
    out = np.empty((max_angular_N + 1, max_radial_m + 1))
    for lo in range(0, max_angular_N + 1, 96):
        orders = range(lo, min(lo + 96, max_angular_N + 1))
        for N, values in zip(orders, bessel_j_table(max_angular_N, args, orders)):
            kernel = np.zeros((quadrature_order, quadrature_order))
            kernel[upper] = values
            kernel += np.triu(kernel, 1).T
            betas = np.linalg.eigvalsh(weight[:, None] * kernel * weight[None, :])
            out[N] = np.sort(betas**2)[::-1][: max_radial_m + 1] * c * c
    return out


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
        total = sum(beta**2 for beta in spectrum.beta.tolist())
        assert total == pytest.approx(0.25, rel=1e-10)

    def test_negative_order_matches_positive(self):
        spectrum = assemble_spectrum(geometry_for_c(2.0), quadrature_order=48)
        betas = dict(zip(modes_of(spectrum), spectrum.beta.tolist()))
        for (n, m), beta in betas.items():
            assert betas[(-n, m)] == pytest.approx(beta, rel=1e-14)

    def test_samples_shape_and_norm(self):
        spectrum = assemble_spectrum(geometry_for_c(4.0), quadrature_order=64)
        betas = spectrum.beta[spectrum.angular_N == 0]
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
        # the default quadrature order of the largest c fits the quadrature limit
        assert default_truncation(C_PARAM_MAX)[2] == QUAD_MAX_ORDER
        assert default_truncation(C_PARAM_MAX + 1.0)[2] > QUAD_MAX_ORDER
        # c = 2 |S| / (lambda d): 480 and 2000 at |S| = 2.4e7 and 1e8, lambda = 0.1, d = 1e6
        for area in (2.4e7, 1.0e8):
            with pytest.raises(ValidationError, match=r"c_param .* \(0, 472\]"):
                assemble_spectrum(disc_for_area(area, 0.1, 1.0e6, 1.0), keep_radial=False)


class TestAssembleSpectrum:
    def test_entries_sorted_and_degenerate(self, m0_4_spectrum):
        nu = m0_4_spectrum.nu_sq.tolist()
        assert nu == sorted(nu, reverse=True)
        by_mode = dict(zip(modes_of(m0_4_spectrum), nu))
        for (n, m), value in by_mode.items():
            if n != 0:
                assert by_mode[(-n, m)] == value

    def test_tie_break_order(self, m0_4_spectrum):
        # exact nu_sq ties fall back to |N|, then m, then +N before -N
        s = m0_4_spectrum
        keys = list(
            zip(
                (-s.nu_sq).tolist(),
                np.abs(s.angular_N).tolist(),
                s.radial_m.tolist(),
                (s.angular_N < 0).tolist(),
            )
        )
        assert keys == sorted(keys) and len(set(keys)) == len(keys)
        assert np.count_nonzero(np.diff(s.nu_sq) == 0.0) > 0

    def test_memoized_columns_read_only(self, m0_4_geometry):
        spectrum = eigenvalue_spectrum(m0_4_geometry, DEFAULT_TRUNCATION)
        with pytest.raises(ValueError):
            spectrum.nu_sq[0] = 0.0
        for column in (spectrum.angular_N, spectrum.radial_m, spectrum.beta):
            assert not column.flags.writeable
        assert eigenvalue_spectrum(m0_4_geometry, DEFAULT_TRUNCATION) is spectrum

    def test_mode_identities(self, m0_4_spectrum):
        # leading mode is radially fundamental and angularly symmetric at c = 4
        assert modes_of(m0_4_spectrum)[0] == (0, 0)
        for beta, nu_sq in zip(m0_4_spectrum.beta.tolist(), m0_4_spectrum.nu_sq.tolist()):
            assert nu_sq == pytest.approx(
                m0_4_spectrum.geometry.loss_L
                * (m0_4_spectrum.geometry.c_param * beta) ** 2,
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
        assert lossy.beta[0] == pytest.approx(full.beta[0], rel=1e-13)
        assert lossy.nu_sq[0] == pytest.approx(0.5 * full.nu_sq[0], rel=1e-13)

    def test_same_c_same_betas(self):
        # beta depends on the geometry only through c
        a = assemble_spectrum(
            disc_for_area(5.0e4, 0.1, 1.0e6, 1.0), keep_radial=False
        )
        b = assemble_spectrum(
            disc_for_area(5.0e3, 0.1, 1.0e5, 1.0), keep_radial=False
        )
        assert a.geometry.c_param == pytest.approx(b.geometry.c_param, rel=1e-14)
        for beta_a, beta_b in zip(a.beta[:20], b.beta[:20]):
            assert beta_a == pytest.approx(beta_b, rel=1e-12)

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


class TestAdaptiveTruncation:
    @pytest.mark.filterwarnings("error::apcap.spectrum.TruncationWarning")
    @pytest.mark.parametrize("c", [0.5, 4.0, 16.0, 64.0, 128.0])
    def test_matches_fixed_truncation(self, c):
        c_ceil = math.ceil(c)
        old = fixed_truncation_nu_sq(c, 2 * c_ceil + 10, c_ceil + 10, max(64, 4 * c_ceil))
        new = assemble_spectrum(geometry_for_c(c), keep_radial=False)
        top = old.max()
        kept = np.zeros(old.shape, dtype=bool)
        for (N, m), nu_sq in zip(modes_of(new), new.nu_sq.tolist()):
            if N >= 0:
                kept[N, m] = True
                assert abs(nu_sq - old[N, m]) <= 1e-13 * top, (N, m)
        old_mass = old[0].sum() + 2.0 * old[1:].sum()
        assert new.captured_mass == pytest.approx(old_mass, rel=1e-14)
        assert old[~kept].max() < EPS * top
        assert new.angular_orders_solved - 1 < default_truncation(c)[0]

    def test_ceilings_and_report(self):
        geo = geometry_for_c(16.0)
        free = assemble_spectrum(geo, keep_radial=False)
        capped = assemble_spectrum(geo, 500, 500, keep_radial=False)
        # a ceiling above the cut changes nothing
        for column in ("angular_N", "radial_m", "beta", "nu_sq"):
            assert np.array_equal(getattr(capped, column), getattr(free, column)), column
        report = spectrum_report(free)["truncation"]
        assert report["max_angular_N"] == free.angular_N.max()
        assert report["max_radial_m"] == free.radial_m.max()
        assert report["quadrature_order"] == 64
        assert report["angular_orders_solved"] == report["max_angular_N"] + 2
        with pytest.warns(TruncationWarning, match="capture"):
            low = assemble_spectrum(geo, 3, 2, 48, keep_radial=False)
        assert low.truncation == (3, 2, 48)
        assert low.angular_orders_solved == 4

    @pytest.mark.filterwarnings("error::apcap.spectrum.TruncationWarning")
    def test_c280_bounds_in_bounded_memory(self, monkeypatch, capsys):
        # gamma*g = 1e8 on a fixed disc with c = 280
        tables = []
        original = spectrum_module.bessel_j_table

        def recording(*args):
            table = original(*args)
            tables.append(table.shape)
            return table

        monkeypatch.setattr(spectrum_module, "bessel_j_table", recording)
        eigenvalue_spectrum.cache_clear()
        code = cli_main(["bounds", "--power", "1e14", "--area", "1.4e7"])
        out, err = capsys.readouterr()
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert payload["lower"] <= payload["upper"]
        largest = max(rows * cols * 8 for rows, cols in tables)
        assert largest < 150 * 2**20
        geometry = disc_for_area(1.4e7, 0.1, 1.0e6, 1.0)
        assert geometry.c_param == pytest.approx(280.0, rel=1e-12)
        spectrum = eigenvalue_spectrum(geometry, DEFAULT_TRUNCATION)  # the memoized solve
        assert spectrum.angular_orders_solved - 1 < default_truncation(280.0)[0]

    def test_walk_reaching_bound_warns(self, monkeypatch):
        # a bound below the cut must not truncate silently
        geo = geometry_for_c(4.0)
        monkeypatch.setattr(spectrum_module, "default_truncation", lambda c: (5, 63, 64))
        with pytest.warns(TruncationWarning, match="bound 5"):
            spectrum = assemble_spectrum(geo, keep_radial=False)
        assert spectrum.angular_orders_solved == 6


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
        mine = np.array([4.0 * beta**2 for beta in spectrum.beta[:3].tolist()])
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
