import json
import math
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from apcap import spectrum as spectrum_module
from apcap.cli import main as cli_main
from apcap.link import ValidationError
from apcap.numerics import QUAD_MAX_ORDER, bessel_j_table, gauss_quadrature
from apcap.spectrum import (
    C_PARAM_MAX,
    EPS,
    QUADRATURE_MARGIN,
    QUADRATURE_MIN,
    RADIAL_QUADRATURE_FLOOR,
    DiscGeometry,
    QuadratureWarning,
    TruncationWarning,
    assemble_spectrum,
    converged_quadrature,
    default_truncation,
    effective_rank,
    spectrum_report,
)
from apcap.verification import STUDY_RANGE, STUDY_WAVELENGTH, area_for_m0, study_disc
from oracles import dense_disc_gain_fractions, integrate


def block_bytes(q, orders):
    """A BESSEL_BLOCK_BYTES that holds `orders` Bessel rows on q quadrature nodes."""
    return 8 * (q * (q + 1) // 2) * orders


def modes_of(spectrum):
    """The (N, m) index of every mode, in spectrum order."""
    return list(zip(spectrum.angular_N.tolist(), spectrum.radial_m.tolist()))


def fixed_truncation_nu_sq(c, max_angular_N, max_radial_m, quadrature_order):
    """nu_sq of every mode (N >= 0, m) of a fixed truncation: no walk, no cut.

    The Nystrom discretization of assemble_spectrum solved for every order
    up to max_angular_N and kept to max_radial_m, as the fixed rule
    (2c + 10, c + 10, 4c) did. Rows are fetched 96 orders at a time to
    bound memory (about 100 MB at Q = 512). study_disc has L = 1, so nu_sq = (c beta)^2.
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
        geo = DiscGeometry(2.0e5, 0.1, 1.0e6, 1.0)
        assert geo.area_S == pytest.approx(math.pi * geo.radius_R**2, rel=1e-14)
        assert geo.c_param == pytest.approx(4.0, rel=1e-12)
        assert geo.space_bandwidth_M0 == pytest.approx(4.0, rel=1e-12)
        assert geo.spectral_mass == pytest.approx(4.0, rel=1e-12)

    def test_c_is_twice_root_m0(self):
        for m0 in (0.25, 1.0, 9.0):
            geo = DiscGeometry(area_for_m0(m0), STUDY_WAVELENGTH, STUDY_RANGE, 1.0)
            assert geo.c_param == pytest.approx(2.0 * math.sqrt(m0), rel=1e-12)

    @pytest.mark.parametrize("field", ["area_S", "wavelength_lambda", "range_d"])
    @pytest.mark.parametrize("value", [0.0, -1.0, math.inf, math.nan])
    def test_non_finite_or_negative_input_rejected(self, field, value):
        values = {"area_S": 2.0e5, "wavelength_lambda": 0.1, "range_d": 1.0e6, "loss_L": 1.0}
        values[field] = value
        with pytest.raises(ValidationError, match=f"{field} must be positive and finite"):
            DiscGeometry(**values)

    def test_small_disc_gate(self):
        # area above 1e-4 * pi d^2 is no longer a small disc at this range
        with pytest.raises(ValidationError, match="small-disc|area"):
            DiscGeometry(1.0e9, 0.1, 1.0e6, 1.0)

    def test_loss_bounds(self):
        with pytest.raises(ValidationError):
            DiscGeometry(2.0e5, 0.1, 1.0e6, -0.5)
        with pytest.raises(ValidationError):
            DiscGeometry(2.0e5, 0.1, 1.0e6, 1.5)


class TestRadialEigensolve:
    def test_eigenvalue_sum_rule_across_orders(self):
        # sum over all N (+-N both entered) and m of beta^2 equals 1/4
        spectrum = assemble_spectrum(study_disc(4.0), 39, 63, 64, keep_radial=False)
        total = sum(beta**2 for beta in spectrum.beta.tolist())
        assert total == pytest.approx(0.25, rel=1e-10)

    def test_negative_order_matches_positive(self):
        spectrum = assemble_spectrum(study_disc(2.0), quadrature_order=48)
        betas = dict(zip(modes_of(spectrum), spectrum.beta.tolist()))
        for (n, m), beta in betas.items():
            assert betas[(-n, m)] == pytest.approx(beta, rel=1e-14)

    def test_samples_shape_and_norm(self):
        spectrum = assemble_spectrum(study_disc(4.0), quadrature_order=64)
        betas = spectrum.beta[spectrum.angular_N == 0]
        assert abs(betas[0]) > abs(betas[-1])
        rule = spectrum.quadrature
        assert spectrum.radial_samples[0].shape == (64, betas.size)
        for m in range(3):
            samples = spectrum.radial_samples[0][:, m]
            # unit L2 norm over the physical unit disc: integral of R^2 r dr
            # against 2*pi equals one
            norm = 2.0 * math.pi * integrate(rule, samples**2 * rule.nodes)
            assert norm == pytest.approx(1.0, rel=1e-10)

    @pytest.mark.parametrize("c", [4.0, 64.0])
    def test_betas_match_full_symmetric_matrix(self, c):
        # assembly forms only the lower triangle; eigvalsh of the full matrix,
        # built with the same products, must give the same bits
        geo = study_disc(c)
        c = geo.c_param
        spectrum = assemble_spectrum(geo, keep_radial=False)
        q = spectrum.truncation[2]
        rule = gauss_quadrature(q)
        sqrt_x, sqrt_w = np.sqrt(rule.nodes), np.sqrt(rule.weights)
        args = c * np.outer(rule.nodes, rule.nodes).ravel()
        table = bessel_j_table(default_truncation(c)[0], args, range(4))
        for N in range(4):
            row = table[N].reshape(q, q)
            matrix = sqrt_w[:, None] * (row * np.outer(sqrt_x, sqrt_x)) * sqrt_w[None, :]
            betas = np.linalg.eigvalsh(matrix)
            betas = betas[np.argsort(-np.abs(betas), kind="stable")]
            kept = spectrum.beta[spectrum.angular_N == N]
            assert kept.size > 0
            assert np.array_equal(kept, betas[: kept.size])

    def test_quadrature_floor(self):
        with pytest.raises(ValidationError):
            assemble_spectrum(study_disc(1.0), quadrature_order=8)

    def test_c_bounds(self):
        # the radial-sample quadrature order of the largest c fits the quadrature
        # limit; an eigenvalue-only solve there takes 280 nodes
        assert default_truncation(C_PARAM_MAX, keep_radial=True)[1] == QUAD_MAX_ORDER
        assert default_truncation(C_PARAM_MAX + 1.0, keep_radial=True)[1] > QUAD_MAX_ORDER
        assert default_truncation(C_PARAM_MAX)[1] == 280
        # c = 2 |S| / (lambda d): 480 and 2000 at |S| = 2.4e7 and 1e8, lambda = 0.1, d = 1e6
        for area in (2.4e7, 1.0e8):
            with pytest.raises(ValidationError, match=r"c_param .* \(0, 472\]"):
                assemble_spectrum(DiscGeometry(area, 0.1, 1.0e6, 1.0), keep_radial=False)


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
        # the cached betas of each order are shared between walks
        spectrum_module._memo_entry.cache_clear()
        first = assemble_spectrum(m0_4_geometry, keep_radial=False)
        assert spectrum_module._memo_entry.cache_info().currsize == 1
        c = m0_4_geometry.c_param
        key = (c, first.truncation[2], default_truncation(c)[0])
        cached = spectrum_module._memo_entry(*key)
        assert spectrum_module._memo_entry.cache_info().hits == 1
        assert len(cached) == first.angular_orders_solved
        for betas in cached:
            with pytest.raises(ValueError):
                betas[0] = 0.0
        shared = list(cached)
        again = assemble_spectrum(m0_4_geometry, keep_radial=False)
        assert all(a is b for a, b in zip(spectrum_module._memo_entry(*key), shared, strict=True))
        # a spectrum's columns are its caller's: writing them leaves the cache alone
        for column in (again.angular_N, again.radial_m, again.beta, again.nu_sq):
            column[:] = 0
        third = assemble_spectrum(m0_4_geometry, keep_radial=False)
        assert third.nu_sq.tobytes() == first.nu_sq.tobytes()
        assert third.beta.tobytes() == first.beta.tobytes()

    def test_memo_hit_warns_as_the_solve_did(self, solved_orders):
        # one angular order and one radial mode keep a quarter of the mass
        geometry = DiscGeometry(2.0e5, STUDY_WAVELENGTH, STUDY_RANGE, 1.0)
        spectrum_module._memo_entry.cache_clear()
        for solves in ([0], []):  # a solve, then a walk over the cached order
            solved_orders.clear()
            with pytest.warns(TruncationWarning, match="retained modes capture 24.3738%"):
                assemble_spectrum(geometry, 0, 0, 16, keep_radial=False)
            assert solved_orders == solves

    def test_same_c_reuses_the_cached_solves(self, solved_orders):
        # beta depends on the disc only through c: L = 0.5 reads the L = 1 solves
        area = area_for_m0(1.0)
        spectrum_module._memo_entry.cache_clear()
        full = assemble_spectrum(
            DiscGeometry(area, STUDY_WAVELENGTH, STUDY_RANGE, 1.0), keep_radial=False
        )
        assert solved_orders == list(range(full.angular_orders_solved))
        solved_orders.clear()
        lossy = assemble_spectrum(
            DiscGeometry(area, STUDY_WAVELENGTH, STUDY_RANGE, 0.5), keep_radial=False
        )
        assert solved_orders == []
        for name in ("angular_N", "radial_m", "beta"):
            assert getattr(lossy, name).tobytes() == getattr(full, name).tobytes(), name
        assert lossy.nu_sq.tobytes() == (0.5 * full.nu_sq).tobytes()
        assert lossy.angular_orders_solved == full.angular_orders_solved

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

    @pytest.mark.parametrize("c", [0.5, 4.0, 16.0, 64.0])
    def test_captured_mass_sums_left_to_right(self, c):
        # a plain loop, as the builtin sum rounded before Python 3.12 compensated it
        spectrum = assemble_spectrum(study_disc(c), keep_radial=False)
        mass = 0.0
        for value in spectrum.nu_sq.tolist():
            mass += value
        assert spectrum.captured_mass == mass

    def test_loss_scales_nu_not_beta(self):
        area = area_for_m0(1.0)
        full = assemble_spectrum(
            DiscGeometry(area, STUDY_WAVELENGTH, STUDY_RANGE, 1.0), keep_radial=False
        )
        lossy = assemble_spectrum(
            DiscGeometry(area, STUDY_WAVELENGTH, STUDY_RANGE, 0.5), keep_radial=False
        )
        assert lossy.beta[0] == pytest.approx(full.beta[0], rel=1e-13)
        assert lossy.nu_sq[0] == pytest.approx(0.5 * full.nu_sq[0], rel=1e-13)

    def test_same_c_same_betas(self):
        # beta depends on the geometry only through c
        a = assemble_spectrum(
            DiscGeometry(5.0e4, 0.1, 1.0e6, 1.0), keep_radial=False
        )
        b = assemble_spectrum(
            DiscGeometry(5.0e3, 0.1, 1.0e5, 1.0), keep_radial=False
        )
        assert a.geometry.c_param == pytest.approx(b.geometry.c_param, rel=1e-14)
        for beta_a, beta_b in zip(a.beta[:20], b.beta[:20]):
            assert beta_a == pytest.approx(beta_b, rel=1e-12)

    def test_truncation_warning_when_starved(self):
        geo = study_disc(4.0)
        with pytest.warns(TruncationWarning):
            assemble_spectrum(geo, max_angular_N=1, max_radial_m=1, keep_radial=False)

    def test_radial_samples_toggle(self):
        geo = study_disc(1.0)
        with_samples = assemble_spectrum(geo)
        without = assemble_spectrum(geo, keep_radial=False)
        assert without.radial_samples is None
        assert with_samples.radial_samples is not None
        assert 0 in with_samples.radial_samples

    def test_default_truncation_grows_with_c(self):
        n1, q1 = default_truncation(1.0)
        n2, q2 = default_truncation(30.0)
        assert n2 > n1 and q2 > q1
        # eigenvalue-only solves take Q = ceil(c/2 + 4 c^(1/3)) + 12, at least 16
        assert (q1, q2, default_truncation(0.05)[1]) == (17, 40, QUADRATURE_MIN)
        assert default_truncation(64.0)[1] == converged_quadrature(64.0) + QUADRATURE_MARGIN == 60

    @pytest.mark.parametrize("c", [0.05, 1.0, 4.0, 9.0, 16.0, 44.0, 64.0, 128.0])
    def test_default_quadrature_matches_large_quadrature(self, c):
        # the default reproduces a Q = ceil(c) + 120 solve on every mode, matched
        # by (N, m) since near-tied rows may reorder; scripts/truncation_study.py
        # reads at most 9.3e-15 of the top mode here, and the old default
        # Q = ceil(c) + 40 itself 1.3e-14 at c = 44
        geo = study_disc(c)
        default = assemble_spectrum(geo, keep_radial=False)
        reference = assemble_spectrum(
            geo, quadrature_order=math.ceil(geo.c_param) + 120, keep_radial=False
        )
        assert default.truncation[2] == max(
            QUADRATURE_MIN, converged_quadrature(geo.c_param) + QUADRATURE_MARGIN
        )
        ours = dict(zip(modes_of(default), default.nu_sq.tolist()))
        theirs = dict(zip(modes_of(reference), reference.nu_sq.tolist()))
        assert ours.keys() == theirs.keys()
        top = float(reference.nu_sq[0])
        assert max(abs(ours[key] - theirs[key]) for key in ours) <= 2e-14 * top

    @pytest.mark.parametrize("c, q, warns", [(16.0, 16, True), (16.0, 24, False),
                                             (128.0, 80, True), (128.0, 88, False)])
    def test_undersized_quadrature_warning_edge(self, c, q, warns):
        # below ceil(c/2 + 4 c^(1/3)) = 19 and 85 the modes are off a Q = ceil(c) + 120
        # solve by 4.7e-9 and 7.2e-9 of the top one; Q = 24 and 88 by 2.4e-15 and 2.3e-14
        geo = study_disc(c)
        assert converged_quadrature(geo.c_param) == (19 if c == 16.0 else 85)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assemble_spectrum(geo, quadrature_order=q, keep_radial=False)
        undersized = [w for w in caught if issubclass(w.category, QuadratureWarning)]
        assert len(undersized) == warns

    def test_radial_samples_keep_quadrature_floor(self):
        # the array path interpolates through the nodes and keeps Q >= 64
        geo = study_disc(4.0)
        with_samples = assemble_spectrum(geo)
        assert with_samples.truncation[2] == RADIAL_QUADRATURE_FLOOR == 64
        assert with_samples.radial_samples[0].shape[0] == 64
        assert assemble_spectrum(geo, keep_radial=False).truncation[2] == 21


class TestAdaptiveTruncation:
    @pytest.mark.filterwarnings("error::apcap.spectrum.TruncationWarning")
    @pytest.mark.parametrize("c", [0.5, 4.0, 16.0, 64.0, 128.0])
    def test_matches_fixed_truncation(self, c):
        c_ceil = math.ceil(c)
        old = fixed_truncation_nu_sq(c, 2 * c_ceil + 10, c_ceil + 10, max(64, 4 * c_ceil))
        new = assemble_spectrum(study_disc(c), keep_radial=False)
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
        geo = study_disc(16.0)
        free = assemble_spectrum(geo, keep_radial=False)
        capped = assemble_spectrum(geo, 500, 500, keep_radial=False)
        # a ceiling above the cut changes nothing
        for column in ("angular_N", "radial_m", "beta", "nu_sq"):
            assert np.array_equal(getattr(capped, column), getattr(free, column)), column
        report = spectrum_report(free)["truncation"]
        assert report["max_angular_N"] == free.angular_N.max()
        assert report["max_radial_m"] == free.radial_m.max()
        assert report["quadrature_order"] == 31  # ceil(16/2 + 4 16^(1/3)) + 12
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
        spectrum_module._memo_entry.cache_clear()
        code = cli_main(["bounds", "--power", "1e14", "--area", "1.4e7"])
        out, err = capsys.readouterr()
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert payload["lower"] <= payload["upper"]
        largest = max(rows * cols * 8 for rows, cols in tables)
        assert largest < 150 * 2**20
        geometry = DiscGeometry(1.4e7, 0.1, 1.0e6, 1.0)
        assert geometry.c_param == pytest.approx(280.0, rel=1e-12)
        # the bounds call stopped at its water cut; this walks on to the EPS cut
        spectrum = assemble_spectrum(geometry, keep_radial=False)
        assert spectrum.angular_orders_solved - 1 < default_truncation(280.0)[0]

    @pytest.mark.parametrize("keep_radial", [False, True])
    def test_each_block_released_before_the_next(self, monkeypatch, keep_radial):
        q = 64 if keep_radial else 31
        monkeypatch.setattr(spectrum_module, "BESSEL_BLOCK_BYTES", block_bytes(q, 2))
        tables = []
        original = spectrum_module.bessel_j_table

        def recording(*args):
            assert all(table() is None for table in tables), "an earlier block is alive"
            table = original(*args)
            tables.append(weakref.ref(table))
            return table

        monkeypatch.setattr(spectrum_module, "bessel_j_table", recording)
        # an eigenvalue-only walk solves every order afresh
        spectrum_module._memo_entry.cache_clear()
        spectrum = assemble_spectrum(study_disc(16.0), keep_radial=keep_radial)
        assert spectrum.truncation[2] == q
        assert len(tables) == (spectrum.angular_orders_solved + 1) // 2
        assert all(table() is None for table in tables)

    @pytest.mark.parametrize("keep_radial", [False, True])
    def test_fresh_walk_independent_of_block_size(self, monkeypatch, keep_radial):
        geo = study_disc(16.0)
        q = 64 if keep_radial else 31
        spectrum_module._memo_entry.cache_clear()
        default = assemble_spectrum(geo, keep_radial=keep_radial)
        for orders in (1, 2):
            monkeypatch.setattr(spectrum_module, "BESSEL_BLOCK_BYTES", block_bytes(q, orders))
            spectrum_module._memo_entry.cache_clear()
            blocked = assemble_spectrum(geo, keep_radial=keep_radial)
            for name in ("angular_N", "radial_m", "beta", "nu_sq"):
                assert getattr(blocked, name).tobytes() == getattr(default, name).tobytes()
            assert blocked.angular_orders_solved == default.angular_orders_solved
            if keep_radial:
                assert blocked.radial_samples.keys() == default.radial_samples.keys()
                for N, samples in default.radial_samples.items():
                    assert blocked.radial_samples[N].shape == samples.shape
                    assert blocked.radial_samples[N].tobytes() == samples.tobytes(), N
            else:
                assert blocked.radial_samples is None

    def test_walk_reaching_bound_warns(self, monkeypatch):
        # a bound below the cut must not truncate silently
        geo = study_disc(4.0)
        monkeypatch.setattr(spectrum_module, "default_truncation", lambda c, keep_radial: (5, 64))
        with pytest.warns(TruncationWarning, match="bound 5"):
            spectrum = assemble_spectrum(geo, keep_radial=False)
        assert spectrum.angular_orders_solved == 6


class TestEffectiveRank:
    def test_golden_plunge_ranks(self):
        for m0, expected in ((4.0, 3), (9.0, 8), (16.0, 17)):
            geo = DiscGeometry(area_for_m0(m0), STUDY_WAVELENGTH, STUDY_RANGE, 1.0)
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


_CACHED_C2 = assemble_spectrum(study_disc(2.0), keep_radial=False)


class TestAgainstDenseOracle:
    def test_top_modes_match_small_dense_grid(self):
        # modest 32 x 32 polar grid is plenty at c = 1 for the top three
        oracle = dense_disc_gain_fractions(1.0, 3, radial_points=32, angular_points=32)
        spectrum = assemble_spectrum(study_disc(1.0), keep_radial=False)
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
