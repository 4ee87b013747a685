"""Independent cross-checks for the production numerics.

Everything in this module deliberately avoids the main code paths:
different algorithms, different discretizations, no shared helpers beyond
numpy itself. `apcap verify`, the golden-file refresh script and the test
suite run these against the production implementations; agreement is
evidence, shared bugs are not. Oracles only the tests use live in
tests/oracles.py.
"""

from __future__ import annotations

import math

import numpy as np


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


def greedy_waterfill(
    gains: np.ndarray, total_power: float, step_count: int = 1000
) -> np.ndarray:
    """Power allocation by greedy marginal-rate ascent on a power grid.

    Splits the budget into step_count equal increments and gives each to
    the channel with the largest rate increase. For a separable concave
    objective the greedy allocation is optimal at the grid resolution,
    which makes it a fair independent baseline for the closed-form
    waterfiller (within the grid's own discretization error).
    """
    gains = np.asarray(gains, dtype=float)
    powers = np.zeros_like(gains)
    step = total_power / step_count
    for _ in range(step_count):
        marginal = np.log1p(step * gains / (1.0 + gains * powers))
        best = int(np.argmax(marginal))
        powers[best] += step
    return powers
