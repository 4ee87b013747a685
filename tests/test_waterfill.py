import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from apcap.link import ValidationError
from apcap.oracles import greedy_waterfill, grid_two_channel_best
from apcap.waterfill import (
    ChannelGains,
    allocation_efficiency,
    select_active_K,
    waterfill,
)


def channels(*gains, noise=1.0):
    return ChannelGains(gains_eta_sq=np.array(gains, dtype=float), noise_floor_BN0=noise)


def loop_active_K(gains, total_power_P):
    """The scalar downward search select_active_K replaced, kept as its reference."""
    floors = gains.noise_floor_BN0 / gains.gains_eta_sq[gains.gains_eta_sq > 0.0]
    prefix = np.cumsum(floors)
    for k in range(floors.size, 0, -1):
        if (total_power_P + prefix[k - 1]) / k >= floors[k - 1]:
            return k
    return 1


class TestChannelGains:
    def test_rejects_increasing_order(self):
        with pytest.raises(ValidationError):
            channels(0.5, 1.0)

    def test_rejects_negative_gain(self):
        with pytest.raises(ValidationError):
            channels(1.0, -0.1)

    def test_rejects_all_zero(self):
        with pytest.raises(ValidationError):
            channels(0.0, 0.0)

    def test_rejects_bad_noise(self):
        with pytest.raises(ValidationError):
            channels(1.0, noise=0.0)

    def test_trailing_zeros_allowed(self):
        ch = channels(1.0, 0.5, 0.0)
        assert ch.gains_eta_sq.size == 3

    def test_rejects_top_gain_with_infinite_floor(self):
        # BN0 / 1e-320 overflows, so no channel could ever be active
        with pytest.raises(ValidationError, match="top gain 1e-320 is too small"):
            channels(1e-320, 0.0)


class TestHandWorkedAllocation:
    """Gains {1, 0.5, 0.1} with P = 10: worked by hand from the level formula."""

    def test_active_count(self):
        assert select_active_K(channels(1.0, 0.5, 0.1), 10.0) == 2

    def test_powers_and_level(self):
        alloc = waterfill(channels(1.0, 0.5, 0.1), 10.0)
        assert alloc.water_level == pytest.approx(6.5)
        assert alloc.powers_Pn == pytest.approx([5.5, 4.5, 0.0], abs=1e-12)

    def test_efficiency(self):
        ch = channels(1.0, 0.5, 0.1)
        eff = allocation_efficiency(ch, waterfill(ch, 10.0))
        assert eff == pytest.approx(math.log2(6.5) + math.log2(3.25), rel=1e-13)
        assert eff == pytest.approx(4.4009, abs=1e-4)


class TestWaterfill:
    def test_single_channel_takes_everything(self):
        alloc = waterfill(channels(0.3), 7.0)
        assert alloc.active_K == 1
        assert alloc.powers_Pn == pytest.approx([7.0])

    def test_equal_gains_split_evenly(self):
        alloc = waterfill(channels(0.8, 0.8, 0.8, 0.8), 12.0)
        assert alloc.active_K == 4
        assert alloc.powers_Pn == pytest.approx([3.0, 3.0, 3.0, 3.0])

    def test_budget_exact_telescoping(self):
        alloc = waterfill(channels(2.0, 1.0, 0.25, 0.04), 5.0)
        assert float(np.sum(alloc.powers_Pn)) == pytest.approx(5.0, rel=1e-15)

    def test_zero_gain_channels_get_nothing(self):
        alloc = waterfill(channels(1.0, 0.5, 0.0, 0.0), 4.0)
        assert alloc.powers_Pn[2] == 0.0 and alloc.powers_Pn[3] == 0.0

    def test_small_budget_single_active(self):
        # tiny budget cannot lift the level past the second inverted gain
        alloc = waterfill(channels(1.0, 0.1), 0.5)
        assert alloc.active_K == 1
        assert alloc.powers_Pn == pytest.approx([0.5, 0.0])

    def test_boundary_tie_counts_as_active(self):
        # with P = 1 the level reaches exactly 1/g_2 = 2: channel 2 active, zero power
        alloc = waterfill(channels(1.0, 0.5), 1.0)
        assert alloc.active_K == 2
        assert alloc.powers_Pn == pytest.approx([1.0, 0.0], abs=1e-12)

    def test_power_validation(self):
        with pytest.raises(ValidationError):
            waterfill(channels(1.0), 0.0)
        with pytest.raises(ValidationError):
            waterfill(channels(1.0), math.inf)

    @pytest.mark.filterwarnings("error")
    def test_subnormal_gain_never_active(self):
        # BN0 / 1e-320 overflows; the third channel is dropped, not turned into NaN
        ch = channels(1.0, 0.5, 1e-320)
        assert select_active_K(ch, 10.0) == 2
        alloc = waterfill(ch, 10.0)
        assert alloc.active_K == 2 and alloc.water_level == 6.5
        assert alloc.powers_Pn.tolist() == [5.5, 4.5, 0.0]

    @pytest.mark.filterwarnings("error")
    def test_overflowing_prefix_never_active(self):
        # floors 1, 1e308, 1e308: the level over all three overflows to inf
        alloc = waterfill(channels(1.0, 1e-308, 1e-308), 10.0)
        assert alloc.active_K == 1 and alloc.water_level == 11.0
        assert alloc.powers_Pn.tolist() == [10.0, 0.0, 0.0]

    @given(
        st.lists(st.floats(min_value=1e-6, max_value=1e3), min_size=1, max_size=40),
        st.integers(min_value=0, max_value=3),
        st.floats(min_value=1e-3, max_value=1e6),
    )
    def test_matches_loop_reference(self, gains, zeros, total):
        gains = np.concatenate((np.sort(gains)[::-1], np.zeros(zeros)))
        ch = ChannelGains(gains_eta_sq=gains, noise_floor_BN0=0.7)
        assert select_active_K(ch, total) == loop_active_K(ch, total)

    def test_active_k_monotone_in_power(self):
        ch = channels(1.0, 0.5, 0.1)
        ks = [select_active_K(ch, p) for p in (0.1, 1.0, 3.0, 10.0, 100.0)]
        assert ks == sorted(ks)

    @given(
        st.lists(st.floats(min_value=0.01, max_value=5.0), min_size=1, max_size=6),
        st.floats(min_value=0.1, max_value=50.0),
    )
    def test_efficiency_beats_uniform_split(self, gains, total):
        gains = np.sort(np.array(gains))[::-1]
        ch = ChannelGains(gains_eta_sq=gains, noise_floor_BN0=1.0)
        alloc = waterfill(ch, total)
        uniform = np.full(gains.size, total / gains.size)
        best = allocation_efficiency(ch, alloc)
        naive = float(np.sum(np.log1p(gains * uniform)) / math.log(2.0))
        assert best >= naive - 1e-12

    @given(
        st.lists(st.floats(min_value=0.05, max_value=2.0), min_size=2, max_size=4),
        st.floats(min_value=0.5, max_value=20.0),
    )
    def test_matches_greedy_oracle(self, gains, total):
        gains = np.sort(np.array(gains))[::-1]
        ch = ChannelGains(gains_eta_sq=gains, noise_floor_BN0=1.0)
        eff = allocation_efficiency(ch, waterfill(ch, total))
        oracle_powers = greedy_waterfill(gains, total, 400)
        oracle = float(np.sum(np.log1p(gains * oracle_powers)) / math.log(2.0))
        assert eff >= oracle - 1e-6

    def test_two_channel_exhaustive_grid(self):
        ch = channels(1.7, 0.4)
        eff = allocation_efficiency(ch, waterfill(ch, 6.0))
        grid_best = grid_two_channel_best(1.7, 0.4, 6.0)
        assert eff >= grid_best - 1e-7
        assert eff == pytest.approx(grid_best, abs=1e-6)


class TestAllocationEfficiency:
    def test_shape_mismatch_rejected(self):
        from apcap.waterfill import PowerAllocation

        ch = channels(1.0, 0.5)
        bad = PowerAllocation(powers_Pn=np.array([1.0]), active_K=1, water_level=1.0)
        with pytest.raises(ValidationError):
            allocation_efficiency(ch, bad)

    def test_zero_powers_zero_rate(self):
        from apcap.waterfill import PowerAllocation

        ch = channels(1.0, 0.5)
        alloc = PowerAllocation(
            powers_Pn=np.zeros(2), active_K=0, water_level=0.0
        )
        assert allocation_efficiency(ch, alloc) == 0.0
