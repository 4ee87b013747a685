"""Slow independent references for the tests and the golden refresh.

Different algorithms from the package's own numerics, sharing nothing with
them beyond numpy, so agreement is evidence. scripts/refresh_golden.py
freezes the dense 2-D oracle's values into golden.json, which is all
`apcap verify` reads of it; the one oracle verify runs itself,
greedy_waterfill, lives in apcap.verification, and loop_greedy_waterfill
here is its per-problem reference.
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


def dense_disc_singular_values(
    c_param: float, radial_points: int = 60, angular_points: int = 60
) -> np.ndarray:
    """Singular values of the unit-disc kernel e^{ic<v,u>} by brute force.

    Discretizes the disc on a full 2-D polar grid (Gauss-Legendre radii,
    uniform angles), symmetrizes with the square-root weights, and takes
    the SVD of the resulting dense matrix. No angular separation, no
    Bessel functions. The leading singular values converge to 2*pi*|beta|
    for the radial eigenvalues beta of the separated problem.
    """
    nodes, weights = np.polynomial.legendre.leggauss(radial_points)
    radii = 0.5 * (nodes + 1.0)
    radial_w = 0.5 * weights
    theta = 2.0 * math.pi * (np.arange(angular_points) + 0.5) / angular_points
    r_grid, t_grid = np.meshgrid(radii, theta, indexing="ij")
    x = (r_grid * np.cos(t_grid)).ravel()
    y = (r_grid * np.sin(t_grid)).ravel()
    w = (
        np.repeat(radial_w * radii, angular_points) * (2.0 * math.pi / angular_points)
    )
    sqrt_w = np.sqrt(w)
    inner = np.outer(x, x) + np.outer(y, y)
    kernel = np.exp(1j * c_param * inner)
    kernel *= sqrt_w[:, None]
    kernel *= sqrt_w[None, :]
    return np.linalg.svd(kernel, compute_uv=False)


def dense_disc_gain_fractions(
    c_param: float, count: int, radial_points: int = 60, angular_points: int = 60
) -> np.ndarray:
    """Top channel-gain fractions h_k/g from the dense-grid oracle.

    Maps the leading kernel singular values to the dimensionless per-mode
    gain fractions: beta = sigma/(2*pi), fraction = 4*beta^2 = (sigma/pi)^2.
    """
    sv = dense_disc_singular_values(c_param, radial_points, angular_points)
    return (sv[:count] / math.pi) ** 2


def loop_greedy_waterfill(
    gains: np.ndarray, total_power: float, step_count: int = 1000
) -> np.ndarray:
    """Greedy marginal-rate ascent on one problem, written as a plain loop.

    The arithmetic apcap.verification.greedy_waterfill must reproduce bit
    for bit on each row of a batch: the same step, the same marginal and
    the first of equal maxima.
    """
    gains = np.asarray(gains, dtype=float)
    powers = np.zeros_like(gains)
    step = total_power / step_count
    for _ in range(step_count):
        marginal = np.log1p(step * gains / (1.0 + gains * powers))
        best = int(np.argmax(marginal))
        powers[best] += step
    return powers


def integrate(rule, values: np.ndarray) -> float:
    """Integrate samples taken at a quadrature rule's nodes."""
    return float(np.dot(rule.weights, values))


def loop_bessel_j_table(
    max_order: int, x: np.ndarray, orders: range | None = None, over: float | None = None
) -> np.ndarray:
    """J_n(x) rows by the Miller recurrence written as a plain loop.

    The arithmetic apcap.numerics.bessel_j_table must reproduce bit for bit:
    the same start order, seed, grouping of each step and normalization
    sum, with a fresh array made at each step. Every
    floor(999 / log2(2 start / min(x) + 1)) steps, each argument's iterates,
    normalization sum and whole table column are scaled by 2^-e, e the
    exponent of its larger iterate. With `over` given, the shifts run on
    another schedule instead: after every step, on each argument whose
    larger iterate exceeds `over`. Arguments below 1e-50 take the leading
    series term (x/2)^n / n!.
    """
    if orders is None:
        orders = range(max_order + 1)
    lo, hi = orders.start, orders.stop
    x = np.asarray(x, dtype=float).ravel()
    recur = x >= 1.0e-50
    xs = x[recur]
    acc = np.zeros((len(orders), xs.size))
    if xs.size:
        start = max(max_order, int(math.ceil(float(xs.max())))) + 1
        start += int(20 + 10 * math.sqrt(start))
        if start % 2:
            start += 1
        budget = int(999.0 / math.log2(2.0 * start / float(xs.min()) + 1.0))
        jp = np.zeros(xs.size)
        j = np.full(xs.size, 1.0e-30)
        norm = np.zeros(xs.size)
        inv_x = 1.0 / xs
        for step, k in enumerate(range(start, 0, -1), 1):
            jm = (2.0 * k) * inv_x * j - jp
            jp = j
            j = jm
            if lo <= k - 1 < hi:
                acc[k - 1 - lo] = j
            if (k - 1) % 2 == 0 and k - 1 > 0:
                norm += 2.0 * j
            larger = np.maximum(np.abs(j), np.abs(jp))
            if over is None and step % budget == 0:
                shift = -np.frexp(larger)[1]
                j = np.ldexp(j, shift)
                jp = np.ldexp(jp, shift)
                norm = np.ldexp(norm, shift)
                acc = np.ldexp(acc, shift)
            elif over is not None and np.any(larger > over):
                big = larger > over
                shift = -np.frexp(larger[big])[1]
                j[big] = np.ldexp(j[big], shift)
                jp[big] = np.ldexp(jp[big], shift)
                norm[big] = np.ldexp(norm[big], shift)
                acc[:, big] = np.ldexp(acc[:, big], shift)
        norm += j
        acc /= norm
    out = np.zeros((len(orders), x.size))
    out[:, recur] = acc
    term, half = np.ones(x.size - xs.size), x[~recur] / 2.0
    for n in range(hi):
        if n >= lo:
            out[n - lo, ~recur] = term
        term = term * half / (n + 1)
    return out
