import math
import time

import numpy as np
import pytest
import scipy.special
from hypothesis import given
from hypothesis import strategies as st

from apcap.link import ValidationError
from apcap.numerics import (
    bessel_j,
    bessel_j_table,
    gauss_quadrature,
    solve_eps0,
)
from apcap.oracles import bisect_eps0, series_bessel_j

# reference values computed independently: the quadrature pair from the
# closed-form two-point rule on [0, 1], the Bessel value from the
# ascending series summed exactly in rational arithmetic
GL2_NODES = (0.21132486540518713, 0.7886751345948129)
J0_AT_1 = 0.7651976865579666


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
            integral = rule.integrate(rule.nodes**degree)
            assert integral == pytest.approx(1.0 / (degree + 1), rel=1e-13)

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
        assert bessel_j(0, 1.0) == pytest.approx(J0_AT_1, abs=1e-15)

    def test_against_scipy_grid(self):
        # spans both the series and the recurrence branches
        xs = np.concatenate((np.linspace(0.01, 11.9, 37), np.linspace(12.1, 400.0, 53)))
        worst = 0.0
        for order in (0, 1, 2, 5, 13, 40, 90):
            for x in xs:
                ref = scipy.special.jv(order, x)
                err = abs(bessel_j(order, float(x)) - ref)
                worst = max(worst, err)
        assert worst < 5e-13

    def test_against_series_oracle(self):
        for order in (0, 1, 3, 7):
            for x in (0.1, 0.9, 2.7, 6.5):
                assert bessel_j(order, x) == pytest.approx(
                    series_bessel_j(order, x), abs=1e-14
                )

    def test_at_zero(self):
        assert bessel_j(0, 0.0) == 1.0
        for order in (1, 2, 17):
            assert bessel_j(order, 0.0) == 0.0

    def test_high_order_small_x_underflow(self):
        # far below the turning point the value underflows to zero cleanly
        assert bessel_j(180, 1.0) == 0.0

    def test_table_matches_scalar(self):
        xs = np.array([0.3, 4.2, 18.0, 77.7])
        table = bessel_j_table(25, xs)
        assert table.shape == (26, 4)
        for order in (0, 1, 9, 25):
            for j, x in enumerate(xs):
                assert table[order, j] == pytest.approx(
                    bessel_j(order, float(x)), abs=1e-13
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
        lhs = bessel_j(order - 1, x) + bessel_j(order + 1, x)
        rhs = 2.0 * order / x * bessel_j(order, x)
        assert lhs == pytest.approx(rhs, abs=2e-12)

    @given(
        order=st.integers(min_value=0, max_value=120),
        x=st.floats(min_value=0.0, max_value=500.0),
    )
    def test_bounded_by_one(self, order, x):
        assert abs(bessel_j(order, x)) <= 1.0 + 1e-12

    def test_argument_validation(self):
        with pytest.raises(ValidationError):
            bessel_j(-1, 1.0)
        with pytest.raises(ValidationError):
            bessel_j(0, -0.5)
        with pytest.raises(ValidationError):
            bessel_j(0, float("nan"))
        with pytest.raises(ValidationError):
            bessel_j(201, 1.0)


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
