import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st
from scipy.interpolate import PchipInterpolator

import apcap.arrays as arrays_module
from apcap.arrays import (
    achieved_efficiency,
    design_json,
    equal_area_partition,
    exact_channel_matrix,
    finite_array_gram,
    lemma1_check,
    reduced_channel_matrix,
    synthesize_array,
)
from apcap.bounds import beta_at_area, upper_bound
from apcap.link import LinkBudget, ValidationError, siso_efficiency
from apcap.spectrum import DiscGeometry, assemble_spectrum
from apcap.verification import area_for_m0

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
def study_designs(snr10_link):
    # four streams: the fourth is inactive at this budget and draws zero
    # power, but its weights exercise the mode pairs whose Gram coupling
    # does not cancel by angular symmetry alone
    return {n: synthesize_array(snr10_link, STUDY_AREA, 4, n) for n in (64, 256, 1024)}


def design_to_dict(design):
    """The record the design JSON held when json.dumps(indent=2) wrote it: the oracle."""
    n = len(design.positions)

    def elements(aperture):
        return [{"x": x, "y": y, "area": aperture / n} for (x, y) in design.positions.tolist()]

    return {
        "schema_version": 1,
        "N": n,
        "K": int(design.stream_weights_tx.shape[0]),
        "elements": elements(design.link.aperture_tx_AT),
        "weights": [
            [[float(v.real), float(v.imag)] for v in row] for row in design.stream_weights_tx
        ],
        "powers": [float(p) for p in design.stream_powers],
        "elements_rx": elements(design.link.aperture_rx_AR),
        "weights_rx": [
            [[float(v.real), float(v.imag)] for v in row] for row in design.stream_weights_rx
        ],
        "modes": [[n, m] for (n, m) in design.mode_indices],
    }


def field_items(pieces, field):
    """The transmit and receive pieces of a design_json field: its weight rows, or its one piece."""

    def items(key):
        start = pieces.index(f'  "{key}": ') + 1
        if pieces[start] != "[\n":
            return pieces[start : start + 1]
        return pieces[start + 1 : pieces.index("\n  ]", start) : 2]

    return items(field), items(f"{field}_rx")


def assert_json_dumps_text(pieces, design):
    """The pieces join to json.dumps's text of the design, byte for byte.

    A mismatch is reported by its first differing offset, not by pytest's
    diff of the two texts, which takes minutes on a design of a few MB.
    """
    text = "".join(pieces)
    expected = json.dumps(design_to_dict(design), indent=2) + "\n"
    if text != expected:
        at = next(
            (i for i, (a, b) in enumerate(zip(text, expected)) if a != b),
            min(len(text), len(expected)),
        )
        near = slice(max(at - 40, 0), at + 40)
        pytest.fail(
            f"design text ({len(text)} chars) differs from json.dumps ({len(expected)} chars) "
            f"first at offset {at}: {text[near]!r} != {expected[near]!r}",
            pytrace=False,
        )


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


class TestExactChannelMatrix:
    def test_positions_must_be_3d(self):
        with pytest.raises(ValidationError, match="3-D"):
            exact_channel_matrix(np.zeros((2, 2)), np.zeros((1, 3)), 0.1, 1.0e5)

    def test_whole_wavelength_range_is_unity(self):
        h = exact_channel_matrix(np.zeros((1, 3)), np.array([[5.0e3, 0.0, 0.0]]), 0.5, 5.0e3)
        assert h[0, 0] == pytest.approx(1.0 + 0.0j, abs=1e-12)

    def test_colocated_elements_give_identical_columns(self):
        h = exact_channel_matrix(
            np.array([[0.0, 2.0, 1.0], [0.0, 2.0, 1.0]]),
            np.array([[1.0e5, 3.0, 0.0], [1.0e5, 0.0, -4.0]]),
            0.25,
            1.0e5,
        )
        assert np.array_equal(h[:, 0], h[:, 1])

    def test_transverse_pair_stays_near_unity(self):
        # two aligned pairs, 10 m apart transversely, a million wavelengths
        # deep: the only surviving phase is the quadratic offset term
        # |delta|^2 / (2d) = 5e-5 wavelengths, about 3.14e-4 radians
        h = exact_channel_matrix(
            np.array([[0.0, 0.0, 0.0], [0.0, 10.0, 0.0]]),
            np.array([[1.0e6, 0.0, 0.0], [1.0e6, 10.0, 0.0]]),
            1.0,
            1.0e6,
        )
        deviation = np.max(np.abs(h - np.ones((2, 2))))
        assert deviation == pytest.approx(3.1415926e-4, rel=1e-5)
        assert deviation < 1e-3
        assert h[0, 0] == 1.0 + 0.0j

    def test_entries_unit_modulus(self):
        h = exact_channel_matrix(
            np.array([[0.0, -4.0, 1.0], [0.2, 3.0, -2.0]]),
            np.array([[2.0e5, 5.0, 2.0], [2.0e5, -1.0, 6.0]]),
            0.1,
            2.0e5,
        )
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
        gap = lemma1_check(np.array([[0.0, 1.0, 0.0]]), np.array([[1.0e5, 0.0, 2.0]]), 0.1, 1.0e5)
        assert gap == 0.0

    def test_gap_shrinks_with_range(self):
        rng = np.random.Generator(np.random.Philox(7))
        tx_t = rng.uniform(-10.0, 10.0, size=(6, 2))
        rx_t = rng.uniform(-10.0, 10.0, size=(6, 2))
        tx = np.column_stack((np.zeros(6), tx_t))
        gaps = []
        for d in (2.0e4, 2.0e6):
            rx = np.column_stack((np.full(6, d), rx_t))
            gaps.append(lemma1_check(tx, rx, 0.1, d))
        assert gaps[1] < gaps[0] * 1e-2
        exact = exact_channel_matrix(tx, rx, 0.1, d)
        reduced = reduced_channel_matrix(tx_t, rx_t, 0.1, d)
        assert exact.shape == reduced.shape == (6, 6)


class TestEqualAreaPartition:
    @given(cell_count=st.integers(min_value=1, max_value=65536))
    def test_exact_count_and_equal_areas(self, cell_count):
        edges, counts, centroid_r, centroid_theta, clearance = equal_area_partition(cell_count)
        assert counts.sum() == cell_count and counts.min() >= 1
        assert centroid_r.shape == centroid_theta.shape == clearance.shape == (cell_count,)
        ring = np.repeat(np.arange(counts.size), counts)
        r_lo, r_hi = edges[ring], edges[ring + 1]
        area = 0.5 * (r_hi**2 - r_lo**2) * (2.0 * math.pi / counts[ring])
        assert area == pytest.approx(np.full(cell_count, math.pi / cell_count), rel=1e-9)
        assert np.all(clearance > 0.0)
        assert np.all((r_lo <= centroid_r) & (centroid_r <= r_hi))

    def test_single_cell_is_the_whole_disc(self):
        edges, counts, centroid_r, centroid_theta, clearance = equal_area_partition(1)
        assert edges.tolist() == [0.0, 1.0] and counts.tolist() == [1]
        assert centroid_r.tolist() == [0.0]
        # an angle of pi would put the origin element at x = -0.0
        assert centroid_theta.view(np.int64).tolist() == [0]
        assert clearance.tolist() == [1.0]

    def test_outer_boundary_reaches_unit_radius(self):
        for n in (2, 7, 97, 256):
            edges = equal_area_partition(n)[0]
            assert edges[-1] == pytest.approx(1.0, abs=1e-15)

    def test_rejects_nonpositive_count(self):
        with pytest.raises(ValidationError):
            equal_area_partition(0)


class TestSynthesizeArray:
    def test_validation(self, snr10_link):
        with pytest.raises(ValidationError, match="stream count"):
            synthesize_array(snr10_link, STUDY_AREA, 0, 16)
        with pytest.raises(ValidationError, match="at least the stream count"):
            synthesize_array(snr10_link, STUDY_AREA, 8, 4)
        with pytest.raises(ValidationError, match="available modes"):
            synthesize_array(snr10_link, STUDY_AREA, 1000, 2000)
        # sqrt(A_T A_R) / (lambda d) = 1 at a 1 km range, a hundred times the gate
        with pytest.raises(ValidationError, match="far-field"):
            synthesize_array(dataclasses.replace(snr10_link, range_d=1.0e3), 200.0, 1, 64)

    def test_cheap_refusals_skip_the_radial_solve(self, snr10_link, monkeypatch):
        calls = []
        monkeypatch.setattr(
            arrays_module, "assemble_spectrum", lambda *args, **kwargs: calls.append(args)
        )
        with pytest.raises(ValidationError, match="stream count"):
            synthesize_array(snr10_link, STUDY_AREA, 0, 16)
        with pytest.raises(ValidationError, match="at least the stream count"):
            synthesize_array(snr10_link, STUDY_AREA, 8, 4)
        # `apcap array --area 3e5 --aperture-tx 2e3 --aperture-rx 2e3 --range 1e5
        # --cells 4096 --streams 1`: a c = 60 disc on a link that fails the gate
        apertures = dict(aperture_tx_AT=2.0e3, aperture_rx_AR=2.0e3)
        with pytest.raises(ValidationError, match="far-field"):
            near = dataclasses.replace(snr10_link, range_d=1.0e5, **apertures)
            synthesize_array(near, 3.0e5, 1, 4096)
        # two wrong inputs: the far-field gate wins over a c past C_PARAM_MAX
        with pytest.raises(ValidationError, match="far-field"):
            wide_c = dataclasses.replace(
                snr10_link, wavelength_lambda=1.0e-3, range_d=1.0e4, **apertures
            )
            synthesize_array(wide_c, 1.0e4, 1, 64)  # c = 2000
        # a disc smaller than the apertures, whatever the cell count
        with pytest.raises(ValidationError, match=r"synthesis area 50 is below max\(A_T, A_R\)"):
            synthesize_array(snr10_link, 50.0, 4, 4096)
        # sub-apertures that do not fit their cells
        with pytest.raises(ValidationError, match="does not fit inside"):
            synthesize_array(snr10_link, 120.0, 1, 4)
        assert calls == []

    def test_subaperture_must_fit_cell(self, snr10_link):
        # a synthesis disc barely larger than the aperture leaves no room
        # for four sub-aperture disks inside their cells
        with pytest.raises(ValidationError, match="does not fit inside"):
            synthesize_array(snr10_link, 120.0, 1, 4)

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
    def test_diagonal_approaches_operator_limit(self, study_designs, m0_4_spectrum, snr10_link):
        design = study_designs[1024]
        gram = finite_array_gram(design)
        scale = math.sqrt(
            snr10_link.aperture_tx_AT * snr10_link.aperture_rx_AR / STUDY_AREA**2
        )
        expected = scale * np.sqrt(m0_4_spectrum.nu_sq[:4])
        assert np.abs(np.diag(gram)) == pytest.approx(expected, rel=2e-3)

    def test_offdiagonal_mass_quarters_with_cell_count(self, study_designs):
        frob = {}
        for n, design in study_designs.items():
            gram = finite_array_gram(design)
            off = gram - np.diag(np.diag(gram))
            frob[n] = float(np.linalg.norm(off))
        assert frob[256] < 0.1 * frob[64]
        assert frob[1024] < 0.1 * frob[256]
        assert frob[1024] < 1e-8


class TestAchievedEfficiency:
    def test_single_element_matches_siso(self, snr10_link):
        design = synthesize_array(snr10_link, STUDY_AREA, 1, 1)
        achieved = achieved_efficiency(design)
        assert achieved == pytest.approx(siso_efficiency(10.0), rel=1e-12)
        # the lone weight is the inverse aperture-root, up to phase
        assert np.abs(design.stream_weights_tx[0, 0]) == pytest.approx(0.1, rel=1e-12)

    def test_converges_to_waterfill_bound(self, study_designs, snr10_link):
        lower, _ = beta_at_area(STUDY_AREA, snr10_link)
        upper = upper_bound(10.0)
        effs = {n: achieved_efficiency(d) for n, d in study_designs.items()}
        for eff in effs.values():
            assert eff <= upper + 1e-6
        assert abs(effs[1024] - lower) < abs(effs[64] - lower)
        assert abs(effs[1024] - lower) < 5e-3 * lower


class TestDesignSerialization:
    def test_record_shapes(self, study_designs):
        record = json.loads("".join(design_json(study_designs[64])))
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

    def test_bytes_match_json_dumps(self, study_designs, snr10_link):
        asymmetric = dataclasses.replace(WIDE_LINK, aperture_rx_AR=4.0 * WIDE_LINK.aperture_tx_AT)
        designs = (
            synthesize_array(snr10_link, STUDY_AREA, 1, 1),
            study_designs[64],
            synthesize_array(WIDE_LINK, WIDE_AREA, 21, 1024),
            synthesize_array(asymmetric, WIDE_AREA, 21, 1024),
        )
        for design in designs:
            assert_json_dumps_text(design_json(design), design)

    @settings(max_examples=40)
    @given(
        data=st.data(),
        cells=st.integers(1, 512),
        area=st.sampled_from((2.0e4, 5.0e4, 2.0e5)),
        aperture_tx=st.sampled_from((10.0, 100.0, 400.0)),
        aperture_rx=st.sampled_from((10.0, 100.0, 400.0)),
        loss=st.sampled_from((1.0, 0.5, 0.1)),
    )
    def test_bytes_match_json_dumps_for_buildable_designs(
        self, data, cells, area, aperture_tx, aperture_rx, loss
    ):
        link = dataclasses.replace(
            WIDE_LINK, aperture_tx_AT=aperture_tx, aperture_rx_AR=aperture_rx, loss_L=loss
        )
        modes = assemble_spectrum(DiscGeometry(area, 0.1, 1.0e6, loss)).nu_sq.size
        streams = data.draw(st.integers(1, min(cells, modes)), label="streams")
        try:
            design = synthesize_array(link, area, streams, cells)
        except ValidationError:
            reject()  # a design `array` refuses has no output to compare
        assert_json_dumps_text(design_json(design), design)

    @pytest.mark.parametrize("change", ["zero_sign", "ulp"])
    def test_row_no_longer_conjugate_is_written_from_its_own_values(self, monkeypatch, change):
        design = synthesize_array(WIDE_LINK, WIDE_AREA, 21, 1024)
        row = design.mode_indices.index((-1, 0))
        assert design.mode_indices[row - 1] == (1, 0)
        # a zero imaginary part that keeps the two rows conjugate: -0.0 above, +0.0 below
        table = design.stream_weights_tx.copy()
        table.imag[row - 1, 5], table.imag[row, 5] = -0.0, 0.0
        changed = table.copy()
        if change == "zero_sign":
            changed.imag[row, 5] = -0.0
        else:
            changed.real[row, 7] = np.nextafter(changed.real[row, 7], np.inf)
        formatted = []
        original = arrays_module._float_reprs

        def recording(values):
            formatted.append(values.copy())
            return original(values)

        monkeypatch.setattr(arrays_module, "_float_reprs", recording)
        for weights, own in ((table, False), (changed, True)):
            formatted.clear()
            case = dataclasses.replace(design, stream_weights_tx=weights, stream_weights_rx=weights)
            assert_json_dumps_text(design_json(case), case)
            values = np.concatenate((weights[row].real, weights[row].imag))
            assert any(same_bits(values, v) for v in formatted) == own

    def test_repeating_row_formats_each_distinct_value_once(self):
        design = synthesize_array(WIDE_LINK, WIDE_AREA, 21, 1024)
        row = design.stream_weights_tx[design.mode_indices.index((0, 0))]
        values = np.concatenate((row.real, row.imag))
        text = arrays_module._float_reprs(values)
        assert text == list(map(repr, values.tolist()))
        assert len({id(s) for s in text}) == np.unique(values.view(np.int64)).size < 100

    def test_receive_rows_reused_only_when_bit_identical(self):
        # each weight row and the one elements piece: the receive piece is the
        # transmit piece under A_T = A_R, and formatted on its own when the areas differ
        design = synthesize_array(WIDE_LINK, WIDE_AREA, 21, 1024)
        symmetric = design_json(design)
        asymmetric = dataclasses.replace(WIDE_LINK, aperture_rx_AR=4.0 * WIDE_LINK.aperture_tx_AT)
        pieces = design_json(synthesize_array(asymmetric, WIDE_AREA, 21, 1024))
        for field, count in (("weights", 21), ("elements", 1)):
            items_tx, items_rx = field_items(symmetric, field)
            assert len(items_tx) == len(items_rx) == count
            assert all(tx is rx for tx, rx in zip(items_tx, items_rx))
            items_tx, items_rx = field_items(pieces, field)
            assert len(items_tx) == len(items_rx) == count
            assert not any(tx is rx for tx, rx in zip(items_tx, items_rx))

        # 0.0 == -0.0, so only a comparison of the bits tells the two tables apart
        table = design.stream_weights_rx.copy()
        zero = np.flatnonzero(table.imag.view(np.int64) == 0)[0]
        table.imag.flat[zero] = -0.0
        flipped = dataclasses.replace(design, stream_weights_rx=table)
        assert np.array_equal(flipped.stream_weights_rx, flipped.stream_weights_tx)
        pieces = design_json(flipped)
        assert_json_dumps_text(pieces, flipped)
        rows_tx, rows_rx = field_items(pieces, "weights")
        assert not any(tx is rx for tx, rx in zip(rows_tx, rows_rx))
        assert "".join(rows_rx).count("-0.0\n") == "".join(rows_tx).count("-0.0\n") + 1

    def test_pieces_are_rows_or_fields(self):
        # the largest piece is one weight row or one element list, never the record,
        # and the piece count follows K alone: a larger N makes larger pieces, not more
        counts = set()
        for cells in (64, 1024):
            pieces = design_json(synthesize_array(WIDE_LINK, WIDE_AREA, 21, cells))
            rows_tx, _ = field_items(pieces, "weights")
            (elements_tx,), _ = field_items(pieces, "elements")
            assert max(map(len, pieces)) == max(len(elements_tx), *map(len, rows_tx))
            counts.add(len(pieces))
        assert len(counts) == 1

    @pytest.mark.parametrize(
        "field, attribute, value",
        [
            ("elements", "positions", np.nan),
            ("weights", "stream_weights_tx", complex(np.inf, 0.0)),
            ("powers", "stream_powers", np.inf),
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

    def test_radial_interpolants_of_the_wide_array(self, monkeypatch):
        built = []
        original = arrays_module._pchip

        def recording(knots, values):
            built.append((knots, values, original(knots, values)))
            return built[-1][2]

        monkeypatch.setattr(arrays_module, "_pchip", recording)
        synthesize_array(WIDE_LINK, WIDE_AREA, 21, 4096)
        assert len(built) == 12  # the 21 streams pair +N with -N
        radii = equal_area_partition(4096)[2]
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
