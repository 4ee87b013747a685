import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from apcap import bounds as bounds_module
from apcap import spectrum as spectrum_module
from apcap.cli import main as cli_main
from apcap.bounds import (
    EPS0,
    beta_at_area,
    bounds_report,
    check_area_floor,
    corollary_approx,
    default_area_grid,
    effective_gains,
    optimize_disc_area,
    upper_bound,
)
from apcap.link import LinkBudget, ValidationError, siso_efficiency
from apcap.spectrum import (
    DiscGeometry,
    OperatorSpectrum,
    TruncationWarning,
    assemble_spectrum,
)
from apcap.waterfill import waterfill
from apcap.verification import STUDY_RANGE, STUDY_WAVELENGTH, area_for_m0, study_link

# frozen from this implementation at M0 = 4, received SNR 10; the dense-grid
# oracle agreement for the underlying eigenvalues lives in test_spectrum
LOWER_AT_M0_4_SNR10 = 2.3172404605164445


def fresh_beta_at_area(area, link):
    """beta_at_area computed from a spectrum solved afresh for this call."""
    spectrum_module._memo_entry.cache_clear()
    return beta_at_area(area, link)


def geometry_of(area, link):
    return DiscGeometry(area, link.wavelength_lambda, link.range_d, link.loss_L)


def full_walk_beta(area, link):
    """(lower, K) of a waterfill over the gains of the spectrum walked to the EPS cut."""
    spectrum = assemble_spectrum(geometry_of(area, link), keep_radial=False)
    assert spectrum.water_stop_nu_sq is None
    alloc = waterfill(
        effective_gains(link, spectrum), link.bandwidth_B * link.noise_psd_N0, link.power_P
    )
    return alloc.efficiency, alloc.active_K


def assert_same_spectrum(a, b):
    """Every field of two spectra equal, the columns bit for bit."""
    for name in (field.name for field in dataclasses.fields(OperatorSpectrum)):
        x, y = getattr(a, name), getattr(b, name)
        if isinstance(x, np.ndarray):
            assert (x.dtype, x.tobytes()) == (y.dtype, y.tobytes()), name
        else:
            assert x == y, name


@pytest.fixture
def received(monkeypatch):
    """The spectra beta_at_area receives, in order."""
    spectra = []
    assemble = bounds_module.assemble_spectrum

    def recorded(*args, **kwargs):
        spectra.append(assemble(*args, **kwargs))
        return spectra[-1]

    monkeypatch.setattr(bounds_module, "assemble_spectrum", recorded)
    return spectra


@pytest.fixture
def table_orders(monkeypatch):
    """The angular orders of each Bessel table the spectrum walks build, in order."""
    tables = []
    build = spectrum_module.bessel_j_table

    def recorded(max_order, args, orders):
        tables.append(orders)
        return build(max_order, args, orders)

    monkeypatch.setattr(spectrum_module, "bessel_j_table", recorded)
    return tables


class TestUpperBound:
    def test_weak_branch_is_siso(self):
        for snr in (1e-3, 0.5, EPS0 - 1.0):
            assert upper_bound(snr) == pytest.approx(siso_efficiency(snr), rel=1e-14)

    def test_strong_branch_formula(self):
        snr = 100.0
        expected = math.sqrt(snr / (EPS0 - 1.0)) * math.log2(EPS0)
        assert upper_bound(snr) == pytest.approx(expected, rel=1e-14)

    def test_branch_continuity(self):
        x = EPS0 - 1.0
        weak = math.log1p(x) / math.log(2.0)
        strong = math.sqrt(x / (EPS0 - 1.0)) * math.log2(EPS0)
        assert abs(weak - strong) < 1e-9

    @given(st.floats(min_value=1e-6, max_value=1e8))
    def test_monotone(self, snr):
        assert upper_bound(1.02 * snr) > upper_bound(snr)

    def test_rejects_negative(self):
        with pytest.raises(ValidationError, match="received SNR must be nonnegative"):
            upper_bound(-1.0)


class TestCorollaryApprox:
    def test_coefficient_value(self):
        assert corollary_approx(1.0e4) == pytest.approx(1.1610 * 100.0, abs=0.01)

    def test_equals_strong_branch(self):
        for snr in (5.0, 100.0, 1e6):
            assert corollary_approx(snr) == pytest.approx(
                upper_bound(snr), rel=1e-14
            )

    def test_weak_domain_rejected(self):
        with pytest.raises(ValidationError):
            corollary_approx(1.0)
        # the boundary itself is allowed
        corollary_approx(EPS0 - 1.0)


class TestEffectiveGains:
    def test_gain_identity(self, m0_4_spectrum, snr10_link):
        gains = effective_gains(snr10_link, m0_4_spectrum)
        g = 1.0e-6
        expected0 = g * 4.0 * float(m0_4_spectrum.beta[0]) ** 2
        assert gains[0] == pytest.approx(expected0, rel=1e-9)
        assert np.all(np.diff(gains) <= 1e-30)


class TestLowerBound:
    def test_frozen_reference_value(self, snr10_link):
        beta, active = beta_at_area(area_for_m0(4.0), snr10_link)
        assert beta == pytest.approx(LOWER_AT_M0_4_SNR10, rel=1e-12)
        assert active == 3

    def test_area_below_aperture_rejected(self, snr10_link, solved_orders):
        spectrum_module._memo_entry.cache_clear()
        with pytest.raises(ValidationError, match="max\\(A_T, A_R\\)"):
            beta_at_area(50.0, snr10_link)
        # refused before the solve
        assert solved_orders == [] and not spectrum_module._memo_entry.cache_info().currsize

    def test_area_floor_edge(self, snr10_link):
        # max(A_T, A_R) = 100 with a relative slack of 1e-12: the largest refused area
        # reads apart from the floor, and an area inside the slack is accepted
        assert max(snr10_link.aperture_tx_AT, snr10_link.aperture_rx_AR) == 100.0
        refused = math.nextafter(100.0 * (1.0 - 1.0e-12), 0.0)
        with pytest.raises(ValidationError) as exc:
            check_area_floor(refused, snr10_link)
        assert str(exc.value) == "synthesis area 99.9999999999 is below max(A_T, A_R) = 100"
        check_area_floor(99.99999999995, snr10_link)

    def test_far_field_gate(self, snr10_link, solved_orders):
        # a disc DiscGeometry accepts, on a link the far-field gate refuses
        spectrum_module._memo_entry.cache_clear()
        with pytest.raises(ValidationError, match="far-field"):
            beta_at_area(200.0, dataclasses.replace(snr10_link, range_d=1.0e3))
        assert solved_orders == [] and not spectrum_module._memo_entry.cache_info().currsize

    def test_never_exceeds_upper(self, snr10_link):
        upper = upper_bound(10.0)
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
        best_area, best_beta, best_K = optimize_disc_area(snr10_link, points=12)
        grid_betas = [beta_at_area(a, snr10_link)[0] for a in grid]
        assert best_beta >= max(grid_betas) - 1e-13
        assert grid[0] <= best_area <= grid[-1]
        # the stream count is the one the best area's own evaluation gives
        assert (best_beta, best_K) == beta_at_area(best_area, snr10_link)

    def test_opening_points_are_compared(self, monkeypatch, snr10_link):
        # zero on the grid, 1.0 on the first golden-section point only
        calls = []

        def stub(area, link, truncation):
            calls.append(area)
            return (1.0 if len(calls) == 33 else 0.0), len(calls)

        monkeypatch.setattr(bounds_module, "beta_at_area", stub)
        best_area, best_beta, best_K = optimize_disc_area(snr10_link)
        assert (best_area, best_beta, best_K) == (calls[32], 1.0, 33)

    def test_grid_validation(self, snr10_link):
        with pytest.raises(ValidationError, match="at least two points"):
            optimize_disc_area(snr10_link, points=1)

    def test_cache_reuse_consistent(self, snr10_link):
        area = area_for_m0(4.0)
        first, _ = beta_at_area(area, snr10_link)
        second, _ = beta_at_area(area, snr10_link)
        third, _ = beta_at_area(area, snr10_link)
        # walks over cached solves give what a fresh solve gives, bit for bit
        assert first == second == third == fresh_beta_at_area(area, snr10_link)[0]

    def test_result_independent_of_call_history(self, snr10_link):
        # the golden-section search of `apcap link` evaluates this area; its c
        # lies within 5e-7 of the c at area 100
        near = 100.0185310010082
        beta_at_area(100.0, snr10_link)
        assert beta_at_area(near, snr10_link) == fresh_beta_at_area(near, snr10_link)


class TestBoundsReport:
    def test_fixed_area_report(self, snr10_link):
        record = bounds_report(snr10_link, area_S=area_for_m0(4.0))
        assert list(record) == [
            "gamma_g", "regime", "lower", "upper", "approx", "K", "best_area", "eps0"
        ]
        assert record["regime"] == "strong_signal"
        assert record["lower"] == pytest.approx(LOWER_AT_M0_4_SNR10, rel=1e-12)
        assert record["K"] == 3
        assert record["approx"] == pytest.approx(upper_bound(10.0), rel=1e-14)

    def test_weak_regime_record_has_no_approx(self):
        link = study_link(1.0)
        record = bounds_report(link, area_S=1000.0)
        assert record["regime"] == "weak_signal"
        assert record["approx"] is None
        assert record["lower"] <= record["upper"] + 1e-12

    @pytest.mark.parametrize("power", [1.0e7, 1.0e8, 1.0e10])
    def test_floor_free_quadrature_keeps_the_bounds(self, power):
        # the CLI's default link, solved at the default Q = ceil(c/2 + 4 c^(1/3)) + 12 and at
        # Q = 64 on every disc the optimizer evaluates
        link = LinkBudget(power, 1.0, 1.0, 0.1, 1.0e6, 1.0, 100.0, 100.0)
        floor = bounds_report(link, truncation=(None, None, 64))
        record = bounds_report(link)
        assert (record["K"], record["best_area"]) == (floor["K"], floor["best_area"])
        assert record["lower"] == pytest.approx(floor["lower"], rel=1e-15, abs=0.0)


class TestWaterStop:
    """Under the default truncation the walk stops at the first order whose top
    inverted floor lies above the link's one-channel water level P + BN0/h_top."""

    @pytest.mark.parametrize("snr", [0.1, EPS0 - 1.0, 10.0, 1.0e4, 1.0e6, 1.0e7])
    @pytest.mark.parametrize("end", [0, -1])
    def test_matches_full_walk(self, snr, end):
        link = study_link(snr)
        area = float(default_area_grid(link)[end])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a water stop warns of nothing
            assert fresh_beta_at_area(area, link) == full_walk_beta(area, link)

    def test_stops_before_the_eps_cut(self, received):
        link = study_link(10.0)
        area = float(default_area_grid(link)[-1])
        fresh_beta_at_area(area, link)
        stopped = received[-1]
        full = assemble_spectrum(geometry_of(area, link), keep_radial=False)
        assert stopped.water_stop_nu_sq is not None
        assert stopped.angular_orders_solved < full.angular_orders_solved
        # the orders it kept hold the full walk's modes, bit for bit
        kept = np.abs(full.angular_N) < stopped.angular_orders_solved - 1
        assert stopped.nu_sq.tobytes() == full.nu_sq[kept].tobytes()

    def test_stopped_entry_then_a_call_needing_more_orders(self, received):
        weak, strong = study_link(10.0), study_link(1.0e4)
        area = float(default_area_grid(weak)[-1])
        expected = full_walk_beta(area, strong)
        fresh_beta_at_area(area, weak)
        stopped = received[-1]
        assert stopped.water_stop_nu_sq is not None
        assert beta_at_area(area, strong) == expected
        assert received[-1].angular_orders_solved > stopped.angular_orders_solved
        # the weak call after it gets the spectrum it got before
        assert beta_at_area(area, weak) == full_walk_beta(area, weak)
        assert_same_spectrum(received[-1], stopped)

    @pytest.mark.parametrize("block_orders", [1, 2, None])
    def test_rewalk_resumes_at_the_stopping_order(
        self, monkeypatch, solved_orders, table_orders, received, block_orders
    ):
        # rising water on one disc: 10 stops at order 3, 100 at order 5, and so on
        links = [study_link(snr) for snr in (10.0, 1.0e2, 1.0e3, 1.0e4)]
        area = float(default_area_grid(links[0])[-1])
        geometry = geometry_of(area, links[0])
        walk_N, q = spectrum_module.default_truncation(geometry.c_param)
        block = walk_N + 1
        if block_orders is not None:
            # Bessel blocks of this many orders, so an extension starts mid-block
            block = block_orders
            block_bytes = 8 * (q * (q + 1) // 2) * block
            monkeypatch.setattr(spectrum_module, "BESSEL_BLOCK_BYTES", block_bytes)
        expected = [full_walk_beta(area, link) for link in links]
        spectrum_module._memo_entry.cache_clear()
        solved_orders.clear()
        table_orders.clear()
        assert [beta_at_area(area, link) for link in links] == expected
        stops = [spectrum.angular_orders_solved for spectrum in received]
        # each call reads past the orders of the calls before it
        assert stops == sorted(set(stops))
        # no order is solved twice: the orders solved are 0 up to the largest stop
        assert solved_orders == list(range(stops[-1]))
        # and each call runs its own Bessel blocks from the first order it solves
        assert table_orders == [
            range(lo, min(lo + block, walk_N + 1))
            for start, end in zip([0] + stops, stops)
            for lo in range(start, end, block)
        ]
        for link, spectrum in zip(links, received):
            spectrum_module._memo_entry.cache_clear()
            water = link.received_snr
            fresh = assemble_spectrum(geometry, keep_radial=False, water=water)
            assert_same_spectrum(spectrum, fresh)

    def test_full_entry_then_a_stopped_call(self, received):
        # a water-stopped call made after an EPS walk of the same disc
        link = study_link(10.0)
        area = float(default_area_grid(link)[-1])
        fresh_beta_at_area(area, link)
        fresh = received[-1]
        full = assemble_spectrum(geometry_of(area, link), keep_radial=False)
        assert full.water_stop_nu_sq is None
        assert beta_at_area(area, link) == full_walk_beta(area, link)
        assert received[-1].water_stop_nu_sq is not None
        assert_same_spectrum(received[-1], fresh)

    def test_override_walks_to_its_ceiling_and_warns(self, received):
        link = study_link(10.0)
        area = float(default_area_grid(link)[-1])
        beta_at_area(area, link, (None, 2, None))
        spectrum = received[-1]
        assert spectrum.water_stop_nu_sq is None
        ceiling = assemble_spectrum(geometry_of(area, link), max_radial_m=2, keep_radial=False)
        assert spectrum.angular_orders_solved == ceiling.angular_orders_solved
        with pytest.warns(TruncationWarning, match="retained modes capture"):
            beta_at_area(area, link, (0, 0, 16))

    def test_subnormal_gain_keeps_its_one_error_line(self, capsys, received):
        # at gamma*g of about 1e-306 only the top mode can be active
        code = cli_main(["bounds", "--area", "2e5", "--aperture-tx", "1e-305"])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("apcap: error: top gain ")
        (stopped,) = received
        # the walk stopped on order 1 and holds order 0 only
        assert stopped.water_stop_nu_sq is not None
        assert stopped.angular_orders_solved == 2
        assert not stopped.angular_N.any()

    def test_undersized_quadrature_warns(self):
        link = LinkBudget(1.0e12, 1.0, 1.0, 0.1, 1.0e6, 1.0, 100.0, 100.0)
        message = r"quadrature order 16 is below ceil\(c/2 \+ 4 c\^\(1/3\)\) = 48 at c = 64"
        with pytest.warns(TruncationWarning, match=message):
            beta_at_area(3.2e6, link, (None, None, 16))
