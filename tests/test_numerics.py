import math
import sys
import time

import numpy as np
import pytest
import scipy.special
from hypothesis import given
from hypothesis import strategies as st

from apcap.link import ValidationError
from apcap.numerics import (
    bessel_j_table,
    gauss_quadrature,
    solve_eps0,
)
from apcap.spectrum import default_truncation
from oracles import bisect_eps0, integrate, loop_bessel_j_table, series_bessel_j

# reference values computed independently: the quadrature pair from the
# closed-form two-point rule on [0, 1], the Bessel value from the
# ascending series summed exactly in rational arithmetic
GL2_NODES = (0.21132486540518713, 0.7886751345948129)
J0_AT_1 = 0.7651976865579666


def scalar_gauss_legendre(order):
    """Nodes and weights on [0, 1] from a scalar Newton loop, one root at a time.

    The reference gauss_quadrature's vectorized iteration must reproduce to
    the bit: the same recurrence, start, 1e-14 step tolerance and mirroring.
    """

    def legendre(n, x):
        p_prev, p = 1.0, x
        for k in range(2, n + 1):
            p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
        return p, n * (x * p - p_prev) / (x * x - 1.0)

    if order == 1:
        return np.array([0.5]), np.array([1.0])
    n, half = order, (order + 1) // 2
    nodes, weights = np.empty(n), np.empty(n)
    for k in range(1, half + 1):
        x = math.cos(math.pi * (k - 0.25) / (n + 0.5))
        for _ in range(100):
            p, dp = legendre(n, x)
            dx = p / dp
            x -= dx
            if abs(dx) <= 1.0e-14:
                break
        p, dp = legendre(n, x)
        w = 2.0 / ((1.0 - x * x) * dp * dp)
        upper_node = (1.0 + x) / 2.0
        nodes[n - k], nodes[k - 1] = upper_node, 1.0 - upper_node
        weights[k - 1] = weights[n - k] = w / 2.0
    if n % 2 == 1:
        nodes[half - 1] = 0.5
    return nodes, weights


def table_j(order, x):
    """J_order(x) alone: a table up to `order` at the single argument x."""
    return float(bessel_j_table(order, np.array([x]))[order, 0])


class TestGaussQuadrature:
    def test_two_point_rule(self):
        rule = gauss_quadrature(2)
        assert rule.nodes == pytest.approx(GL2_NODES, abs=1e-15)
        assert rule.weights == pytest.approx((0.5, 0.5), abs=1e-15)

    def test_single_point_rule(self):
        rule = gauss_quadrature(1)
        assert rule.nodes[0] == pytest.approx(0.5)
        assert rule.weights[0] == pytest.approx(1.0)

    @pytest.mark.parametrize("order", [3, 8, 17, 64, 128])
    def test_polynomial_exactness(self, order):
        # degree 2n-1 integrated exactly
        rule = gauss_quadrature(order)
        for degree in (2 * order - 1, 2 * order - 2, 1, 0):
            integral = integrate(rule, rule.nodes**degree)
            assert integral == pytest.approx(1.0 / (degree + 1), rel=1e-13)

    def test_bit_identical_to_scalar_newton(self):
        for order in [*range(1, 97), 128, 256, 300, 512]:
            rule = gauss_quadrature(order)
            nodes, weights = scalar_gauss_legendre(order)
            assert np.array_equal(rule.nodes, nodes), order
            assert np.array_equal(rule.weights, weights), order

    def test_matches_numpy_on_unit_interval(self):
        rule = gauss_quadrature(40)
        nodes, weights = np.polynomial.legendre.leggauss(40)
        assert rule.nodes == pytest.approx(0.5 * (nodes + 1.0), abs=1e-14)
        assert rule.weights == pytest.approx(0.5 * weights, abs=1e-14)

    def test_weights_positive_and_sum_to_one(self):
        for order in (5, 33, 200):
            rule = gauss_quadrature(order)
            assert np.all(rule.weights > 0)
            assert np.sum(rule.weights) == pytest.approx(1.0, abs=1e-14)

    def test_symmetry(self):
        rule = gauss_quadrature(9)
        assert rule.nodes == pytest.approx(1.0 - rule.nodes[::-1], abs=0)

    def test_order_validation(self):
        with pytest.raises(ValidationError):
            gauss_quadrature(0)
        with pytest.raises(ValidationError):
            gauss_quadrature(513)
        gauss_quadrature(1)
        with pytest.raises(ValidationError):
            gauss_quadrature(True)  # must not hit the memo entry of order 1

    def test_memoized_rule_is_fresh_and_read_only(self):
        cached = gauss_quadrature(64)
        assert gauss_quadrature(64) is cached
        fresh = gauss_quadrature.__wrapped__(64)
        assert cached.nodes.tobytes() == fresh.nodes.tobytes()
        assert cached.weights.tobytes() == fresh.weights.tobytes()
        with pytest.raises(ValueError):
            cached.nodes[0] = 0.0
        with pytest.raises(ValueError):
            cached.weights *= 2.0


class TestBesselJ:
    def test_j0_at_one(self):
        assert table_j(0, 1.0) == pytest.approx(J0_AT_1, abs=1e-15)

    def test_against_scipy_grid(self):
        # spans small and large arguments, below and past the order
        xs = np.concatenate((np.linspace(0.01, 11.9, 37), np.linspace(12.1, 400.0, 53)))
        worst = 0.0
        for order in (0, 1, 2, 5, 13, 40, 90):
            for x in xs:
                ref = scipy.special.jv(order, x)
                err = abs(table_j(order, float(x)) - ref)
                worst = max(worst, err)
        assert worst < 5e-13

    def test_against_series_oracle(self):
        for order in (0, 1, 3, 7):
            for x in (0.1, 0.9, 2.7, 6.5):
                assert table_j(order, x) == pytest.approx(
                    series_bessel_j(order, x), abs=1e-14
                )

    def test_at_zero(self):
        assert table_j(0, 0.0) == 1.0
        for order in (1, 2, 17):
            assert table_j(order, 0.0) == 0.0

    def test_high_order_small_x_underflow(self):
        # far below the turning point the value underflows to zero cleanly
        assert table_j(180, 1.0) == 0.0

    def test_table_matches_scalar(self):
        # a row does not depend on max_order or on the other arguments
        xs = np.array([0.3, 4.2, 18.0, 77.7])
        table = bessel_j_table(25, xs)
        assert table.shape == (26, 4)
        for order in (0, 1, 9, 25):
            for j, x in enumerate(xs):
                assert table[order, j] == pytest.approx(
                    table_j(order, float(x)), abs=1e-13
                )

    def test_table_blocks_match_full_table(self):
        xs = np.array([0.0, 0.3, 4.2, 18.0, 77.7, 150.0])
        full = bessel_j_table(60, xs)
        for lo, hi in ((0, 7), (7, 40), (40, 61)):
            block = bessel_j_table(60, xs, range(lo, hi))
            assert block.tobytes() == full[lo:hi].tobytes()
        with pytest.raises(ValidationError):
            bessel_j_table(60, xs, range(50, 62))

    def test_table_scipy_high_order(self):
        xs = np.linspace(0.5, 360.0, 91)
        table = bessel_j_table(190, xs)
        ref = scipy.special.jv(np.arange(191)[:, None], xs[None, :])
        assert np.max(np.abs(table - ref)) < 1e-12

    @given(
        order=st.integers(min_value=1, max_value=60),
        x=st.floats(min_value=0.5, max_value=200.0),
    )
    def test_three_term_recurrence(self, order, x):
        lhs = table_j(order - 1, x) + table_j(order + 1, x)
        rhs = 2.0 * order / x * table_j(order, x)
        assert lhs == pytest.approx(rhs, abs=2e-12)

    @given(
        order=st.integers(min_value=0, max_value=120),
        x=st.floats(min_value=0.0, max_value=500.0),
    )
    def test_bounded_by_one(self, order, x):
        assert abs(table_j(order, x)) <= 1.0 + 1e-12

    def test_rescale_budget_at_extreme_arguments(self):
        # the smallest recurrence argument takes a rescale every 5 steps of a
        # start past 1400, next to an argument far into the oscillatory range
        xs = [1.0e-50, 1.0e-20, 1.0e-3, 400.0]
        table = bessel_j_table(1100, np.array(xs))
        assert np.all(np.isfinite(table))
        for i, x in enumerate(xs[:3]):
            assert table[0, i] == pytest.approx(series_bessel_j(0, x), rel=2e-16)

    def test_argument_validation(self):
        with pytest.raises(ValidationError):
            table_j(-1, 1.0)
        with pytest.raises(ValidationError):
            table_j(0, -0.5)
        with pytest.raises(ValidationError):
            table_j(0, float("nan"))


def nystrom_arguments(c):
    """c r_i r_j over the lower triangle of the default Nystrom kernel at c, and N_hi."""
    bound_N, q = default_truncation(c)
    nodes = gauss_quadrature(q).nodes
    cols, rows = np.triu_indices(q)
    return bound_N, c * (nodes[rows] * nodes[cols])


class TestBesselTableBits:
    """bessel_j_table against the plain-loop recurrence, to the bit."""

    @pytest.mark.parametrize("c", [0.002, 4.0, 64.0, 280.0])
    def test_whole_table(self, c):
        bound_N, args = nystrom_arguments(c)
        table = bessel_j_table(bound_N, args)
        assert table.tobytes() == loop_bessel_j_table(bound_N, args).tobytes()

    @pytest.mark.parametrize("c", [0.002, 4.0, 64.0])
    def test_blocks(self, c):
        bound_N, args = nystrom_arguments(c)
        for orders in (range(0, 3), range(3, bound_N // 2), range(bound_N // 2, bound_N + 1)):
            block = bessel_j_table(bound_N, args, orders)
            assert block.tobytes() == loop_bessel_j_table(bound_N, args, orders).tobytes()

    @pytest.mark.parametrize("c", [0.002, 4.0, 64.0, 280.0])
    def test_rescale_schedule_does_not_move_normal_results(self, c):
        # power-of-two shifts are exact unless they leave a row value subnormal,
        # which needs |J_n(x)| < 2 DBL_MIN; so shifting each argument after every
        # step where its larger iterate passes 2^800 gives the same bits on every
        # result at or above 2 DBL_MIN on either schedule. A normal result below
        # that may move: 2 of the c = 280 table's entries, each 1 ulp apart
        bound_N, args = nystrom_arguments(c)
        table = bessel_j_table(bound_N, args)
        other = loop_bessel_j_table(bound_N, args, over=2.0**800)
        large = np.maximum(np.abs(table), np.abs(other)) >= 2.0 * sys.float_info.min
        assert table[large].tobytes() == other[large].tobytes()

    @pytest.mark.parametrize("c, worst", [(4.0, 3.8e-14), (64.0, 4.6e-11)])
    def test_relative_accuracy_against_scipy(self, c, worst):
        # worst is the error the table had under a rescale by 1e-250, rounded up:
        # 3.70e-14, scipy's own error there by mpmath, and 4.593e-11, at
        # J_4(43.01) = 1e-5 next to a zero
        bound_N, args = nystrom_arguments(c)
        table = bessel_j_table(bound_N, args)
        ref = scipy.special.jv(np.arange(bound_N + 1)[:, None], args[None, :])
        big = np.abs(table) > 1e-250
        assert np.max(np.abs(table[big] - ref[big]) / np.abs(ref[big])) < worst

    def test_arguments_below_recurrence_floor(self):
        xs = np.array([0.0, 1.0e-300, 3.0e-51, 9.9e-51, 1.0e-50, 2.0e-50, 0.3, 7.5, 90.0])
        for orders in (range(0, 41), range(5, 30)):
            table = bessel_j_table(40, xs, orders)
            assert table.tobytes() == loop_bessel_j_table(40, xs, orders).tobytes()


class TestEps0:
    def test_fixed_point(self):
        eps0 = solve_eps0()
        assert eps0 == pytest.approx(math.exp(2.0 * (1.0 - 1.0 / eps0)), abs=1e-12)

    def test_in_published_window(self):
        assert abs(solve_eps0() - 4.9215) < 5e-4

    def test_against_bisection_oracle(self):
        assert solve_eps0() == pytest.approx(bisect_eps0(), abs=1e-11)

    def test_runtime_under_a_millisecond(self):
        solve_eps0()  # warm
        t0 = time.perf_counter()
        for _ in range(10):
            solve_eps0()
        assert (time.perf_counter() - t0) / 10 < 1e-3
