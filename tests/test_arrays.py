import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.interpolate import PchipInterpolator

import apcap.arrays as arrays_module
from apcap.arrays import (
    FarFieldScene,
    achieved_efficiency,
    channel_matrix_pair,
    design_json,
    equal_area_partition,
    exact_channel_matrix,
    finite_array_gram,
    lemma1_check,
    reduced_channel_matrix,
    synthesize_array,
)
from apcap.bounds import lower_bound_beta, upper_bound
from apcap.link import LinkBudget, ValidationError, siso_efficiency
from apcap.numerics import solve_eps0
from apcap.spectrum import assemble_spectrum, disc_for_area
from apcap.verification import STUDY_RANGE, STUDY_WAVELENGTH, area_for_m0, study_link

STUDY_AREA = area_for_m0(4.0)
# the disc and budget of `apcap array --area 4e5 --power 1e9 --streams 21`
WIDE_AREA = 4.0e5
WIDE_LINK = LinkBudget(
    power_P=1.0e9,
    bandwidth_B=1.0,
    noise_psd_N0=1.0,
    wavelength_lambda=0.1,
    range_d=1.0e6,
    loss_L=1.0,
    aperture_tx_AT=100.0,
    aperture_rx_AR=100.0,
)


@pytest.fixture(scope="module")
def study_designs(m0_4_spectrum, snr10_link):
    # four streams: the fourth is inactive at this budget and draws zero
    # power, but its weights exercise the mode pairs whose Gram coupling
    # does not cancel by angular symmetry alone
    return {
        n: synthesize_array(m0_4_spectrum, STUDY_AREA, 4, n, snr10_link)
        for n in (64, 256, 1024)
    }


@pytest.fixture(scope="module")
def wide_spectrum():
    return assemble_spectrum(disc_for_area(WIDE_AREA, 0.1, 1.0e6, 1.0))


def design_to_dict(design):
    """The record the design JSON held when json.dumps(indent=2) wrote it: the oracle."""
    return {
        "schema_version": 1,
        "N": design.cell_count_N,
        "K": int(design.stream_weights_tx.shape[0]),
        "elements": [
            {"x": x, "y": y, "area": area} for (x, y, area) in design.tx_elements.tolist()
        ],
        "weights": [
            [[float(v.real), float(v.imag)] for v in row] for row in design.stream_weights_tx
        ],
        "powers": [float(p) for p in design.stream_powers],
        "elements_rx": [
            {"x": x, "y": y, "area": area} for (x, y, area) in design.rx_elements.tolist()
        ],
        "weights_rx": [
            [[float(v.real), float(v.imag)] for v in row] for row in design.stream_weights_rx
        ],
        "modes": [[n, m] for (n, m) in design.mode_indices],
    }


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


class TestFarFieldScene:
    def test_cluster_radii(self):
        scene = FarFieldScene(
            tx_positions=np.array([[0.0, 3.0, 4.0]]),
            rx_positions=np.array([[1.0e5, 0.0, 7.0]]),
            wavelength_lambda=0.1,
            nominal_range_d=1.0e5,
        )
        assert scene.cluster_radii == (5.0, 7.0)

    def test_range_gate(self):
        tx = np.array([[0.0, 10.0, 0.0]])
        rx = np.array([[9.0e3, 0.0, 0.0]])
        with pytest.raises(ValidationError, match="far field"):
            FarFieldScene(tx, rx, 0.1, 9.0e3)
        # the same marginal layout is allowed when the gate is waived
        scene = FarFieldScene(tx, rx, 0.1, 9.0e3, enforce_far_field=False)
        assert scene.cluster_radii[0] == 10.0

    def test_positions_must_be_3d(self):
        with pytest.raises(ValidationError, match="3-D"):
            FarFieldScene(np.zeros((2, 2)), np.zeros((1, 3)), 0.1, 1.0e5)


class TestExactChannelMatrix:
    def test_whole_wavelength_range_is_unity(self):
        scene = FarFieldScene(
            tx_positions=np.zeros((1, 3)),
            rx_positions=np.array([[5.0e3, 0.0, 0.0]]),
            wavelength_lambda=0.5,
            nominal_range_d=5.0e3,
        )
        h = exact_channel_matrix(scene)
        assert h[0, 0] == pytest.approx(1.0 + 0.0j, abs=1e-12)

    def test_colocated_elements_give_identical_columns(self):
        scene = FarFieldScene(
            tx_positions=np.array([[0.0, 2.0, 1.0], [0.0, 2.0, 1.0]]),
            rx_positions=np.array([[1.0e5, 3.0, 0.0], [1.0e5, 0.0, -4.0]]),
            wavelength_lambda=0.25,
            nominal_range_d=1.0e5,
        )
        h = exact_channel_matrix(scene)
        assert np.array_equal(h[:, 0], h[:, 1])

    def test_transverse_pair_stays_near_unity(self):
        # two aligned pairs, 10 m apart transversely, a million wavelengths
        # deep: the only surviving phase is the quadratic offset term
        # |delta|^2 / (2d) = 5e-5 wavelengths, about 3.14e-4 radians
        scene = FarFieldScene(
            tx_positions=np.array([[0.0, 0.0, 0.0], [0.0, 10.0, 0.0]]),
            rx_positions=np.array([[1.0e6, 0.0, 0.0], [1.0e6, 10.0, 0.0]]),
            wavelength_lambda=1.0,
            nominal_range_d=1.0e6,
        )
        h = exact_channel_matrix(scene)
        deviation = np.max(np.abs(h - np.ones((2, 2))))
        assert deviation == pytest.approx(3.1415926e-4, rel=1e-5)
        assert deviation < 1e-3
        assert h[0, 0] == 1.0 + 0.0j

    def test_entries_unit_modulus(self):
        scene = FarFieldScene(
            tx_positions=np.array([[0.0, -4.0, 1.0], [0.2, 3.0, -2.0]]),
            rx_positions=np.array([[2.0e5, 5.0, 2.0], [2.0e5, -1.0, 6.0]]),
            wavelength_lambda=0.1,
            nominal_range_d=2.0e5,
        )
        h = exact_channel_matrix(scene)
        assert np.abs(h) == pytest.approx(np.ones((2, 2)), abs=1e-14)


class TestReducedChannelMatrix:
    def test_axis_elements_give_ones(self):
        h = reduced_channel_matrix(np.zeros((3, 2)), np.zeros((2, 2)), 0.1, 1.0e5)
        assert np.array_equal(h, np.ones((2, 3), dtype=complex))

    def test_scaling_invariance(self):
        tx = np.array([[1.0, -2.0], [0.5, 3.0]])
        rx = np.array([[-1.5, 0.25], [2.0, 1.0]])
        base = reduced_channel_matrix(tx, rx, 0.125, 1.0e4)
        scaled = reduced_channel_matrix(2.0 * tx, 2.0 * rx, 0.125, 4.0e4)
        assert np.array_equal(base, scaled)

    def test_half_cycle_pair_is_orthogonal(self):
        # y_R y_T / (lambda d) = 1/2 puts the cross entries at phase pi
        lam, d = 0.1, 1.0e4
        y = math.sqrt(0.5 * lam * d)
        h = reduced_channel_matrix(
            np.array([[0.0, 0.0], [y, 0.0]]),
            np.array([[0.0, 0.0], [y, 0.0]]),
            lam,
            d,
        )
        sv = np.linalg.svd(h, compute_uv=False)
        assert sv == pytest.approx([math.sqrt(2.0), math.sqrt(2.0)], rel=1e-12)

    def test_rejects_3d_points(self):
        with pytest.raises(ValidationError, match="2-D"):
            reduced_channel_matrix(np.zeros((2, 3)), np.zeros((2, 2)), 0.1, 1.0e5)


class TestLemma1Check:
    def test_single_pair_gap_is_zero(self):
        scene = FarFieldScene(
            tx_positions=np.array([[0.0, 1.0, 0.0]]),
            rx_positions=np.array([[1.0e5, 0.0, 2.0]]),
            wavelength_lambda=0.1,
            nominal_range_d=1.0e5,
        )
        assert lemma1_check(scene) == 0.0

    def test_gap_shrinks_with_range(self):
        rng = np.random.Generator(np.random.Philox(7))
        tx_t = rng.uniform(-10.0, 10.0, size=(6, 2))
        rx_t = rng.uniform(-10.0, 10.0, size=(6, 2))
        gaps = []
        for d in (2.0e4, 2.0e6):
            scene = FarFieldScene(
                tx_positions=np.column_stack((np.zeros(6), tx_t)),
                rx_positions=np.column_stack((np.full(6, d), rx_t)),
                wavelength_lambda=0.1,
                nominal_range_d=d,
            )
            gaps.append(lemma1_check(scene))
        assert gaps[1] < gaps[0] * 1e-2
        pair = channel_matrix_pair(scene)
        assert pair.exact_H.shape == pair.reduced_H.shape == (6, 6)


class TestEqualAreaPartition:
    @given(cell_count=st.integers(min_value=1, max_value=300))
    def test_exact_count_and_equal_areas(self, cell_count):
        cells = equal_area_partition(cell_count)
        assert len(cells) == cell_count
        target = math.pi / cell_count
        for cell in cells:
            area = 0.5 * (cell.r_hi**2 - cell.r_lo**2) * (cell.theta_hi - cell.theta_lo)
            assert area == pytest.approx(target, rel=1e-9)
            assert cell.clearance > 0.0
            assert cell.r_lo <= cell.centroid_r <= cell.r_hi

    def test_single_cell_is_the_whole_disc(self):
        (cell,) = equal_area_partition(1)
        assert cell.r_lo == 0.0 and cell.r_hi == 1.0
        assert cell.centroid_r == 0.0
        assert cell.clearance == 1.0

    def test_outer_boundary_reaches_unit_radius(self):
        for n in (2, 7, 97, 256):
            cells = equal_area_partition(n)
            assert max(c.r_hi for c in cells) == pytest.approx(1.0, abs=1e-15)

    def test_rejects_nonpositive_count(self):
        with pytest.raises(ValidationError):
            equal_area_partition(0)


class TestSynthesizeArray:
    def test_validation(self, m0_4_spectrum, snr10_link):
        with pytest.raises(ValidationError, match="stream count"):
            synthesize_array(m0_4_spectrum, STUDY_AREA, 0, 16, snr10_link)
        with pytest.raises(ValidationError, match="at least the stream count"):
            synthesize_array(m0_4_spectrum, STUDY_AREA, 8, 4, snr10_link)
        with pytest.raises(ValidationError, match="available modes"):
            synthesize_array(m0_4_spectrum, STUDY_AREA, 1000, 2000, snr10_link)
        with pytest.raises(ValidationError, match="does not match requested area"):
            synthesize_array(m0_4_spectrum, area_for_m0(1.0), 3, 64, snr10_link)

    def test_needs_radial_samples(self, snr10_link):
        bare = assemble_spectrum(
            disc_for_area(STUDY_AREA, STUDY_WAVELENGTH, STUDY_RANGE, 1.0),
            keep_radial=False,
        )
        with pytest.raises(ValidationError, match="radial samples"):
            synthesize_array(bare, STUDY_AREA, 3, 64, snr10_link)

    def test_subaperture_must_fit_cell(self, snr10_link):
        # a synthesis disc barely larger than the aperture leaves no room
        # for four sub-aperture disks inside their cells
        area = 120.0
        tight = assemble_spectrum(
            disc_for_area(area, STUDY_WAVELENGTH, STUDY_RANGE, 1.0)
        )
        with pytest.raises(ValidationError, match="does not fit inside"):
            synthesize_array(tight, area, 1, 4, snr10_link)

    def test_weight_rows_unit_norm(self, study_designs, snr10_link):
        for n, design in study_designs.items():
            tx_area = snr10_link.aperture_tx_AT / n
            norms = tx_area * np.sum(np.abs(design.stream_weights_tx) ** 2, axis=1)
            assert norms == pytest.approx(np.ones(4), rel=1e-13)

    def test_powers_sum_to_budget(self, study_designs, snr10_link):
        design = study_designs[256]
        assert float(np.sum(design.stream_powers)) == pytest.approx(
            snr10_link.power_P, rel=1e-12
        )

    def test_top_modes_become_streams(self, study_designs):
        assert study_designs[64].mode_indices == ((0, 0), (1, 0), (-1, 0), (2, 0))

    def test_idle_stream_draws_no_power(self, study_designs):
        # only three streams are active at this budget; the fourth rides
        # along with zero allocation
        assert study_designs[256].stream_powers[3] == 0.0
        assert np.all(study_designs[256].stream_powers[:3] > 0.0)

    def test_weight_rows_nearly_orthogonal(self, study_designs, snr10_link):
        design = study_designs[256]
        w = design.stream_weights_tx
        gram = (snr10_link.aperture_tx_AT / 256) * (np.conj(w) @ w.T)
        off = gram - np.diag(np.diag(gram))
        assert np.max(np.abs(off)) < 1e-2


class TestFiniteArrayGram:
    def test_diagonal_approaches_operator_limit(
        self, study_designs, m0_4_geometry, m0_4_spectrum, snr10_link
    ):
        design = study_designs[1024]
        gram = finite_array_gram(design, m0_4_geometry)
        scale = math.sqrt(
            snr10_link.aperture_tx_AT * snr10_link.aperture_rx_AR / STUDY_AREA**2
        )
        expected = scale * np.sqrt(m0_4_spectrum.nu_sq_values[:4])
        assert np.abs(np.diag(gram)) == pytest.approx(expected, rel=2e-3)

    def test_offdiagonal_mass_quarters_with_cell_count(
        self, study_designs, m0_4_geometry
    ):
        frob = {}
        for n, design in study_designs.items():
            gram = finite_array_gram(design, m0_4_geometry)
            off = gram - np.diag(np.diag(gram))
            frob[n] = float(np.linalg.norm(off))
        assert frob[256] < 0.1 * frob[64]
        assert frob[1024] < 0.1 * frob[256]
        assert frob[1024] < 1e-8


class TestAchievedEfficiency:
    def test_single_element_matches_siso(self, m0_4_spectrum, m0_4_geometry, snr10_link):
        design = synthesize_array(m0_4_spectrum, STUDY_AREA, 1, 1, snr10_link)
        achieved = achieved_efficiency(design, m0_4_geometry, snr10_link)
        assert achieved == pytest.approx(siso_efficiency(10.0), rel=1e-12)
        # the lone weight is the inverse aperture-root, up to phase
        assert np.abs(design.stream_weights_tx[0, 0]) == pytest.approx(0.1, rel=1e-12)

    def test_converges_to_waterfill_bound(
        self, study_designs, m0_4_geometry, m0_4_spectrum, snr10_link
    ):
        lower, _ = lower_bound_beta(STUDY_AREA, snr10_link, m0_4_spectrum)
        upper = upper_bound(10.0, solve_eps0())
        effs = {
            n: achieved_efficiency(d, m0_4_geometry, snr10_link)
            for n, d in study_designs.items()
        }
        for eff in effs.values():
            assert eff <= upper + 1e-6
        assert abs(effs[1024] - lower) < abs(effs[64] - lower)
        assert abs(effs[1024] - lower) < 5e-3 * lower


class TestDesignSerialization:
    def test_record_shapes(self, study_designs):
        record = json.loads(design_json(study_designs[64]))
        assert record["schema_version"] == 1
        assert record["N"] == 64 and record["K"] == 4
        assert len(record["elements"]) == 64
        assert len(record["weights"]) == 4
        assert len(record["weights"][0]) == 64
        assert record["modes"] == [[0, 0], [1, 0], [-1, 0], [2, 0]]
        assert set(record["elements"][0]) == {"x", "y", "area"}
        pair = record["weights"][0][0]
        assert isinstance(pair, list) and len(pair) == 2
        assert len(record["elements_rx"]) == 64
        assert len(record["weights_rx"]) == 4

    def test_bytes_match_json_dumps(
        self, study_designs, m0_4_spectrum, snr10_link, wide_spectrum
    ):
        designs = (
            synthesize_array(m0_4_spectrum, STUDY_AREA, 1, 1, snr10_link),
            study_designs[64],
            synthesize_array(wide_spectrum, WIDE_AREA, 21, 1024, WIDE_LINK),
        )
        for design in designs:
            expected = json.dumps(design_to_dict(design), indent=2) + "\n"
            assert design_json(design) == expected

    @pytest.mark.parametrize(
        "field, attribute, value",
        [
            ("elements", "tx_elements", np.nan),
            ("weights", "stream_weights_tx", complex(np.inf, 0.0)),
            ("powers", "stream_powers", np.inf),
            ("elements_rx", "rx_elements", -np.inf),
            ("weights_rx", "stream_weights_rx", complex(0.0, np.nan)),
        ],
    )
    def test_non_finite_value_refused(self, study_designs, field, attribute, value):
        # %r would write nan or inf, and json.dumps wrote NaN or Infinity: neither is JSON
        table = getattr(study_designs[64], attribute).copy()
        table.flat[-1] = value
        broken = dataclasses.replace(study_designs[64], **{attribute: table})
        with pytest.raises(ValidationError, match=f"field '{field}' holds a non-finite"):
            design_json(broken)


class TestPchip:
    """The numpy PCHIP against SciPy's PchipInterpolator, bit for bit."""

    def test_radial_interpolants_of_the_wide_array(self, wide_spectrum, monkeypatch):
        built = []
        original = arrays_module._pchip

        def recording(knots, values):
            built.append((knots, values, original(knots, values)))
            return built[-1][2]

        monkeypatch.setattr(arrays_module, "_pchip", recording)
        synthesize_array(wide_spectrum, WIDE_AREA, 21, 4096, WIDE_LINK)
        assert len(built) == 12  # the 21 streams pair +N with -N
        radii = np.array([c.centroid_r for c in equal_area_partition(4096)])
        dense = np.linspace(0.0, 1.0, 2049)
        for knots, values, evaluate in built:
            oracle = PchipInterpolator(knots, values)
            for r in (radii, dense, knots):
                assert same_bits(evaluate(r), oracle(r))

    def test_every_slope_branch(self):
        knots = np.array([0.0, 1.0, 1.5, 3.0, 4.0, 4.2, 5.0, 7.0, 7.5, 9.0])
        jagged = np.array([0.0, 0.1, 1.1, 0.5, 0.5, 0.7, 1.5, 2.0, 0.0, 1.5])
        smooth = np.sin(knots)
        points = np.concatenate((np.linspace(-0.5, 9.5, 2001), knots))
        for values in (jagged, smooth, -jagged[::-1]):
            oracle = PchipInterpolator(knots, values)
            assert same_bits(arrays_module._pchip(knots, values)(points), oracle(points))
        # the jagged data reaches every branch of the slope rule
        slopes = PchipInterpolator(knots, jagged).derivative()(knots)
        assert slopes[0] == 0.0  # end slope of the wrong sign, clamped to zero
        assert slopes[2] == 0.0  # secant slopes change sign
        assert slopes[3] == slopes[4] == 0.0  # a flat secant
        assert slopes[5] == pytest.approx(1.0)  # weighted harmonic mean of equal slopes
        assert slopes[-1] == pytest.approx(3.0)  # end slope clamped to 3 m0
