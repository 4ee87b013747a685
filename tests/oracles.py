"""Slow independent references that only the tests use.

Different algorithms from the package's own numerics, sharing nothing with
them beyond numpy, so agreement is evidence. The oracles that `apcap
verify` and `scripts/refresh_golden.py` also use live in `apcap.oracles`.
"""

import math

import numpy as np


def series_bessel_j(order: int, x: float, terms: int = 60) -> float:
    """Bessel J_n(x) by the plain ascending series with exact factorials.

    Python integers keep the coefficients exact, so the only rounding is
    the final float conversions. Accurate while the series converges
    without significant cancellation, roughly x^2/4 < order + terms.
    """
    total = 0.0
    half = x / 2.0
    for k in range(terms):
        coeff = (-1) ** k / (math.factorial(k) * math.factorial(k + order))
        term = coeff * half ** (2 * k + order)
        total += term
        if abs(term) < 1e-18 * max(1.0, abs(total)) and k > order:
            break
    return total


def bisect_eps0(iterations: int = 80) -> float:
    """The threshold constant by pure bisection on e = exp(2(1 - 1/e))."""
    lo, hi = 2.0, 10.0
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        if mid - math.exp(2.0 * (1.0 - 1.0 / mid)) > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def grid_two_channel_best(
    gain_a: float, gain_b: float, total_power: float, points: int = 20001
) -> float:
    """Exhaustive two-channel split: best rate in bits over a power grid."""
    split = np.linspace(0.0, total_power, points)
    rates = np.log1p(gain_a * split) + np.log1p(gain_b * (total_power - split))
    return float(np.max(rates)) / math.log(2.0)


def integrate(rule, values: np.ndarray) -> float:
    """Integrate samples taken at a quadrature rule's nodes."""
    return float(np.dot(rule.weights, values))
