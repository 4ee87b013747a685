import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from apcap.link import ValidationError
from apcap.spectrum import WATER_MARGIN
from apcap.verification import greedy_waterfill
from apcap.waterfill import waterfill
from oracles import grid_two_channel_best


def fill(*gains, total, noise=1.0):
    return waterfill(np.array(gains, dtype=float), noise, total)


def loop_active_K(gains, noise_floor_BN0, total_power_P):
    """The scalar downward search for the active count that waterfill replaced, kept as its reference."""
    floors = noise_floor_BN0 / gains[gains > 0.0]
    prefix = np.cumsum(floors)
    for k in range(floors.size, 0, -1):
        if (total_power_P + prefix[k - 1]) / k >= floors[k - 1]:
            return k
    return 1


class TestChannelGains:
    """waterfill's preconditions on the gains and the noise floor, checked before the budget."""

    def test_rejects_empty_or_not_1d(self):
        with pytest.raises(ValidationError, match="nonempty 1-D sequence"):
            waterfill(np.array([]), 1.0, 1.0)
        with pytest.raises(ValidationError, match="nonempty 1-D sequence"):
            waterfill(np.ones((2, 2)), 1.0, 1.0)

    def test_rejects_increasing_order(self):
        with pytest.raises(ValidationError, match="sorted non-increasing"):
            fill(0.5, 1.0, total=1.0)

    def test_rejects_negative_gain(self):
        with pytest.raises(ValidationError, match="finite and nonnegative"):
            fill(1.0, -0.1, total=1.0)
        with pytest.raises(ValidationError, match="finite and nonnegative"):
            fill(math.inf, 1.0, total=1.0)

    def test_rejects_all_zero(self):
        with pytest.raises(ValidationError, match="at least one gain must be strictly positive"):
            fill(0.0, 0.0, total=1.0)

    def test_rejects_bad_noise(self):
        for noise in (0.0, math.inf):
            with pytest.raises(ValidationError, match="noise_floor_BN0 must be positive and finite"):
                fill(1.0, total=1.0, noise=noise)

    def test_trailing_zeros_allowed(self):
        alloc = fill(1.0, 0.5, 0.0, total=1.0)
        assert alloc.powers_Pn.size == 3

    def test_rejects_top_gain_with_infinite_floor(self):
        # BN0 / 1e-320 overflows, so no channel could ever be active
        with pytest.raises(ValidationError, match="top gain 1e-320 is too small"):
            fill(1e-320, 0.0, total=1.0)

    def test_gains_checked_before_noise_and_budget(self):
        with pytest.raises(ValidationError, match="sorted non-increasing"):
            fill(0.5, 1.0, total=0.0, noise=0.0)
        with pytest.raises(ValidationError, match="noise_floor_BN0"):
            fill(1.0, total=0.0, noise=0.0)


class TestHandWorkedAllocation:
    """Gains {1, 0.5, 0.1} with P = 10: worked by hand from the level formula."""

    def test_active_count(self):
        assert fill(1.0, 0.5, 0.1, total=10.0).active_K == 2

    def test_powers_and_level(self):
        alloc = fill(1.0, 0.5, 0.1, total=10.0)
        assert alloc.water_level == pytest.approx(6.5)
        assert alloc.powers_Pn == pytest.approx([5.5, 4.5, 0.0], abs=1e-12)

    def test_efficiency(self):
        eff = fill(1.0, 0.5, 0.1, total=10.0).efficiency
        assert eff == pytest.approx(math.log2(6.5) + math.log2(3.25), rel=1e-13)
        assert eff == pytest.approx(4.4009, abs=1e-4)


class TestWaterfill:
    def test_single_channel_takes_everything(self):
        alloc = fill(0.3, total=7.0)
        assert alloc.active_K == 1
        assert alloc.powers_Pn == pytest.approx([7.0])

    def test_equal_gains_split_evenly(self):
        alloc = fill(0.8, 0.8, 0.8, 0.8, total=12.0)
        assert alloc.active_K == 4
        assert alloc.powers_Pn == pytest.approx([3.0, 3.0, 3.0, 3.0])

    def test_budget_exact_telescoping(self):
        alloc = fill(2.0, 1.0, 0.25, 0.04, total=5.0)
        assert float(np.sum(alloc.powers_Pn)) == pytest.approx(5.0, rel=1e-15)

    def test_zero_gain_channels_get_nothing(self):
        alloc = fill(1.0, 0.5, 0.0, 0.0, total=4.0)
        assert alloc.powers_Pn[2] == 0.0 and alloc.powers_Pn[3] == 0.0

    def test_small_budget_single_active(self):
        # tiny budget cannot lift the level past the second inverted gain
        alloc = fill(1.0, 0.1, total=0.5)
        assert alloc.active_K == 1
        assert alloc.powers_Pn == pytest.approx([0.5, 0.0])

    def test_boundary_tie_counts_as_active(self):
        # with P = 1 the level reaches exactly 1/g_2 = 2: channel 2 active, zero power
        alloc = fill(1.0, 0.5, total=1.0)
        assert alloc.active_K == 2
        assert alloc.powers_Pn == pytest.approx([1.0, 0.0], abs=1e-12)

    def test_power_validation(self):
        with pytest.raises(ValidationError, match="total power must be positive and finite"):
            fill(1.0, total=0.0)
        with pytest.raises(ValidationError, match="total power must be positive and finite"):
            fill(1.0, total=math.inf)

    @pytest.mark.filterwarnings("error")
    def test_subnormal_gain_never_active(self):
        # BN0 / 1e-320 overflows; the third channel is dropped, not turned into NaN
        alloc = fill(1.0, 0.5, 1e-320, total=10.0)
        assert alloc.active_K == 2 and alloc.water_level == 6.5
        assert alloc.powers_Pn.tolist() == [5.5, 4.5, 0.0]

    @pytest.mark.filterwarnings("error")
    def test_overflowing_prefix_never_active(self):
        # floors 1, 1e308, 1e308: the level over all three overflows to inf
        alloc = fill(1.0, 1e-308, 1e-308, total=10.0)
        assert alloc.active_K == 1 and alloc.water_level == 11.0
        assert alloc.powers_Pn.tolist() == [10.0, 0.0, 0.0]

    @given(
        st.lists(st.floats(min_value=1e-6, max_value=1e3), min_size=1, max_size=40),
        st.integers(min_value=0, max_value=3),
        st.floats(min_value=1e-3, max_value=1e6),
    )
    def test_matches_loop_reference(self, gains, zeros, total):
        gains = np.concatenate((np.sort(gains)[::-1], np.zeros(zeros)))
        alloc = waterfill(gains, 0.7, total)
        assert alloc.active_K == loop_active_K(gains, 0.7, total)
        # reference: sum log2(1 + g P / BN0) over the active channels, in this arithmetic
        K = alloc.active_K
        snr = gains[:K] * alloc.powers_Pn[:K] / 0.7
        assert alloc.efficiency == float(np.sum(np.log1p(snr)) / math.log(2.0))

    @given(
        st.lists(st.floats(min_value=1e-6, max_value=1e6), min_size=1, max_size=60),
        st.floats(min_value=1e-6, max_value=1e9),
    )
    def test_level_never_exceeds_one_channel_value(self, floors, total):
        # the bound the bounds path's spectrum walk stops on: no level tops P + f_1
        gains = 1.0 / np.sort(floors)
        floors = 1.0 / gains
        alloc = waterfill(gains, 1.0, total)
        cut = (total + floors[0]) * (1.0 + WATER_MARGIN)
        assert alloc.water_level <= cut
        assert np.all(alloc.powers_Pn[floors > cut] == 0.0)

    def test_active_k_monotone_in_power(self):
        ks = [fill(1.0, 0.5, 0.1, total=p).active_K for p in (0.1, 1.0, 3.0, 10.0, 100.0)]
        assert ks == sorted(ks)

    @given(
        st.lists(st.floats(min_value=0.01, max_value=5.0), min_size=1, max_size=6),
        st.floats(min_value=0.1, max_value=50.0),
    )
    def test_efficiency_beats_uniform_split(self, gains, total):
        gains = np.sort(np.array(gains))[::-1]
        uniform = np.full(gains.size, total / gains.size)
        best = waterfill(gains, 1.0, total).efficiency
        naive = float(np.sum(np.log1p(gains * uniform)) / math.log(2.0))
        assert best >= naive - 1e-12

    @given(
        st.lists(st.floats(min_value=0.05, max_value=2.0), min_size=2, max_size=4),
        st.floats(min_value=0.5, max_value=20.0),
    )
    def test_matches_greedy_oracle(self, gains, total):
        gains = np.sort(np.array(gains))[::-1]
        eff = waterfill(gains, 1.0, total).efficiency
        oracle_powers = greedy_waterfill(gains, total, 400)
        oracle = float(np.sum(np.log1p(gains * oracle_powers)) / math.log(2.0))
        assert eff >= oracle - 1e-6

    def test_two_channel_exhaustive_grid(self):
        eff = fill(1.7, 0.4, total=6.0).efficiency
        grid_best = grid_two_channel_best(1.7, 0.4, 6.0)
        assert eff >= grid_best - 1e-7
        assert eff == pytest.approx(grid_best, abs=1e-6)

