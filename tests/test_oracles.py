import math

import numpy as np
import pytest
from scipy import special

from apcap.numerics import bessel_j_table, solve_eps0
from apcap.oracles import (
    bisect_eps0,
    dense_disc_gain_fractions,
    dense_disc_singular_values,
    greedy_waterfill,
    grid_two_channel_best,
)
from apcap.waterfill import ChannelGains, allocation_efficiency, waterfill


class TestSeriesBessel:
    def test_against_scipy(self):
        from apcap.oracles import series_bessel_j

        # the plain series keeps ~13 digits through x = 11, where the
        # alternating terms already cancel three digits
        for order in (0, 1, 2, 5, 9):
            for x in (0.0, 0.3, 1.0, 4.7, 11.0):
                assert series_bessel_j(order, x) == pytest.approx(
                    float(special.jv(order, x)), abs=1e-11
                )

    def test_against_production(self):
        from apcap.oracles import series_bessel_j

        for order in (0, 3, 12):
            for x in (0.5, 2.0, 8.0):
                production = bessel_j_table(order, np.array([x]))[order, 0]
                assert series_bessel_j(order, x) == pytest.approx(production, abs=1e-12)


class TestBisectEps0:
    def test_matches_production_solver(self):
        assert bisect_eps0() == pytest.approx(solve_eps0(), rel=1e-13)

    def test_residual_vanishes(self):
        e = bisect_eps0()
        assert e - math.exp(2.0 * (1.0 - 1.0 / e)) == pytest.approx(0.0, abs=1e-12)


class TestDenseDiscOracle:
    def test_gain_fractions_sum_to_one(self):
        # Frobenius identity: the squared singular values of the weighted
        # unit-modulus kernel sum to (disc area)^2 = pi^2
        sv = dense_disc_singular_values(2.0, radial_points=24, angular_points=24)
        assert float(np.sum((sv / math.pi) ** 2)) == pytest.approx(1.0, rel=1e-12)

    def test_angular_pair_degeneracy(self):
        fractions = dense_disc_gain_fractions(1.0, 3, radial_points=24, angular_points=24)
        assert fractions[1] == pytest.approx(fractions[2], rel=1e-10)
        assert fractions[0] > fractions[1]


class TestGreedyWaterfill:
    def test_spends_the_whole_budget(self):
        powers = greedy_waterfill(np.array([1.0, 0.25]), 10.0, step_count=500)
        assert float(np.sum(powers)) == pytest.approx(10.0, rel=1e-12)

    def test_single_channel_takes_everything(self):
        powers = greedy_waterfill(np.array([2.0]), 3.0, step_count=100)
        assert powers[0] == pytest.approx(3.0, rel=1e-12)

    def test_never_beats_the_closed_form(self):
        gains = ChannelGains(
            gains_eta_sq=np.array([1.0, 0.6, 0.2]), noise_floor_BN0=1.0
        )
        optimal = allocation_efficiency(gains, waterfill(gains, 8.0))
        powers = greedy_waterfill(gains.gains_eta_sq, 8.0, step_count=2000)
        greedy_rate = float(
            np.sum(np.log1p(gains.gains_eta_sq * powers)) / math.log(2.0)
        )
        assert greedy_rate <= optimal + 1e-12
        assert greedy_rate == pytest.approx(optimal, abs=1e-4)


class TestTwoChannelGrid:
    def test_matches_hand_worked_waterfill(self):
        best = grid_two_channel_best(1.0, 0.5, 10.0)
        assert best == pytest.approx(math.log2(6.5) + math.log2(3.25), abs=1e-6)

    def test_degenerate_second_channel(self):
        best = grid_two_channel_best(1.0, 0.0, 4.0)
        assert best == pytest.approx(math.log2(5.0), abs=1e-9)
