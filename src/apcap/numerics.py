"""Special functions, quadrature, and root-finding shared by the other modules.

Everything here is pure and deterministic: same inputs give bit-identical
outputs across runs, which the golden-file tests rely on.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

QUAD_MAX_ORDER = 512

# Smallest argument the recurrence takes. Below it the leading series term
# (x/2)^n / n! is J_n(x) to rounding, since the next term is (x/2)^2 < 1e-100
# of it. At it, bessel_j_table's step budget is still 5 steps for any start
# order up to 1e9.
_MILLER_MIN_X = 1.0e-50


class ValidationError(ValueError):
    """Raised when an input fails a documented precondition."""


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights of a quadrature rule on the open interval (0, 1).

    nodes are strictly increasing and interior; weights are positive and sum
    to 1, so the rule integrates the constant 1 exactly.
    """

    nodes: np.ndarray
    weights: np.ndarray


def _legendre_value_and_derivative(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n(x) and P_n'(x) by the three-term recurrence, elementwise over x."""
    p_prev, p = np.ones_like(x), x
    for k in range(2, n + 1):
        p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
    # derivative from the standard identity, valid for |x| < 1
    dp = n * (x * p - p_prev) / (x * x - 1.0)
    return p, dp


# typed: True and 1 must not share an entry, since bool orders are rejected;
# QUAD_MAX_ORDER bounds the memo to 512 rules, about 2 MB
@functools.lru_cache(maxsize=None, typed=True)
def gauss_quadrature(order: int) -> QuadratureRule:
    """Gauss-Legendre rule with `order` points, mapped to [0, 1].

    Nodes are found by Newton iteration on the Legendre recurrence, run on
    every root at once (a root stops updating once its step is at most
    1e-14), then mirrored about the midpoint so the rule is exactly
    symmetric. A rule of order Q integrates polynomials of degree
    up to 2Q - 1 exactly.

    Rules are memoized and shared between callers, so their node and
    weight arrays are read-only.

    Parameters
    ----------
    order : int
        Number of nodes, between 1 and 512.
    """
    if not isinstance(order, (int, np.integer)) or isinstance(order, bool):
        raise ValidationError(f"quadrature order must be an integer, got {order!r}")
    if order < 1 or order > QUAD_MAX_ORDER:
        raise ValidationError(
            f"quadrature order {order} outside supported range [1, {QUAD_MAX_ORDER}]"
        )
    n = order
    half = (n + 1) // 2
    k = np.arange(1, half + 1)
    # initial guesses from math.cos, so they do not depend on numpy's SIMD kernels
    x = np.array([math.cos(math.pi * (j - 0.25) / (n + 0.5)) for j in range(1, half + 1)])
    todo = np.arange(half)
    for _ in range(100):
        p, dp = _legendre_value_and_derivative(n, x[todo])
        dx = p / dp
        x[todo] -= dx
        todo = todo[~(np.abs(dx) <= 1.0e-14)]
        if not todo.size:
            break
    p, dp = _legendre_value_and_derivative(n, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    # x holds the k-th root from the +1 end; mirror to fill both halves.
    # The lower node is formed as 1 - upper, which is exact since the
    # upper node lies in [1/2, 1], so the pair is symmetric to the bit.
    upper_node = (1.0 + x) / 2.0
    nodes = np.empty(n)
    weights = np.empty(n)
    nodes[n - k] = upper_node
    nodes[k - 1] = 1.0 - upper_node
    weights[k - 1] = w / 2.0
    weights[n - k] = w / 2.0
    if n % 2 == 1:
        nodes[half - 1] = 0.5
    return _frozen_rule(nodes, weights)


def _frozen_rule(nodes: np.ndarray, weights: np.ndarray) -> QuadratureRule:
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return QuadratureRule(nodes=nodes, weights=weights)


def bessel_j_table(
    max_order: int, x: np.ndarray, orders: range | None = None
) -> np.ndarray:
    """J_n(x) for orders n = 0..max_order at once, vectorized over x.

    Returns an array of shape (len(orders), len(x)), one row per order in
    `orders` (default: every order 0..max_order, which must contain it).
    Internal workhorse for kernel assembly, where the same arguments are
    needed at every angular order. Uses the normalized downward recurrence
    (below x = 1e-50, the leading series term); accuracy is a few ulps over
    the assembly range (x up to ~1e3). The recurrence depends on max_order
    and x only, so a row has the same bits whichever `orders` it is
    returned in: a caller can fetch the rows in blocks and hold one block
    at a time. A negative max_order, or an argument that is negative or
    NaN, raises ValidationError.

    The unnormalized iterates grow, so they are rescaled on a step budget
    rather than tested at every step. A step gives
    |j_{k-1}| <= (2k/x + 1) max(|j_k|, |j_{k+1}|), so from iterates below
    2 no run of floor(999 / log2(2 start / min(x) + 1)) steps leaves 2^1000
    (5 steps at x = 1e-50, a few dozen at the Nystrom tables' smallest
    arguments). After each such run every argument's iterates, its
    normalization sum and its rows written so far are scaled by 2^-e, e
    the exponent of max(|j_k|, |j_{k+1}|), which brings that maximum into
    [1/2, 1). Scaling by a power of two is exact unless its result is
    subnormal, the steps and the normalization sum scale with the iterates,
    and the normalization divides the common factor out. So a result has
    the same bits whichever steps the rescales fall on, unless on one
    schedule a shift left its row value subnormal. Right after a shift the
    iterates are s J_k(x) with the larger at least 1/2, so s >= 1/2 since
    |J_k| <= 1, and a row value s J_n(x) below DBL_MIN needs
    |J_n(x)| < 2 DBL_MIN. Only results below 2 DBL_MIN can therefore
    differ; the division by the normalization sum may lift one of them
    above DBL_MIN, a normal double that still moves with the schedule. The
    tests keep a plain loop on the same budget as the bit-for-bit
    reference, and one on another schedule as the check of that bound.
    """
    if orders is None:
        orders = range(max_order + 1)
    if orders.step != 1 or orders.start < 0 or orders.stop > max_order + 1:
        raise ValidationError(f"orders {orders!r} not a contiguous part of 0..{max_order}")
    lo, hi = orders.start, orders.stop
    x = np.asarray(x, dtype=float).ravel()
    if max_order < 0 or not np.all(x >= 0.0):
        raise ValidationError("bessel table needs max_order >= 0 and arguments x >= 0")
    recur = x >= _MILLER_MIN_X
    xs = x[recur]
    acc = np.zeros((len(orders), xs.size))
    if xs.size:
        start = max(max_order, int(math.ceil(float(xs.max())))) + 1
        start += int(20 + 10 * math.sqrt(start))
        if start % 2:
            start += 1
        # a step multiplies max(|j|, |jp|) by at most 2 start / min(x) + 1
        budget = int(999.0 / math.log2(2.0 * start / float(xs.min()) + 1.0))
        jp = np.zeros(xs.size)
        j = np.full(xs.size, 1.0e-30)
        spare = np.empty(xs.size)  # receives the next iterate, then holds the oldest
        norm = np.zeros(xs.size)
        inv_x = 1.0 / xs
        filled = len(orders)  # rows acc[filled:] are written; the rest are still zeros
        for k in range(start, 0, -1):
            # ((2k) * (1/x)) * j - jp, the grouping every table has used
            np.multiply(2.0 * k, inv_x, out=spare)
            spare *= j
            spare -= jp
            jp, j, spare = j, spare, jp
            if lo <= k - 1 < hi:
                filled = k - 1 - lo
                acc[filled] = j
            if (k - 1) % 2 == 0 and k - 1 > 0:
                norm += 2.0 * j
            if (start + 1 - k) % budget == 0:
                # zeros stay zeros, so the unwritten rows need no shift
                np.maximum(np.abs(j), np.abs(jp), out=spare)
                shift = -np.frexp(spare)[1]
                for values in (j, jp, norm, acc[filled:]):
                    np.ldexp(values, shift, out=values)
        norm += j
        acc /= norm
    if recur.all():
        return acc
    out = np.zeros((len(orders), x.size))
    out[:, recur] = acc
    # below _MILLER_MIN_X, zero included, J_n(x) is (x/2)^n / n! to rounding
    term, half = np.ones(x.size - xs.size), x[~recur] / 2.0
    for n in range(hi):
        if n >= lo:
            out[n - lo, ~recur] = term
        term = term * half / (n + 1)
    return out


def solve_eps0() -> float:
    """Root e0 > 1 of the transcendental equation e = exp(2(1 - 1/e)).

    Bisection on [2, 10] brackets the root, then Newton iterations polish
    it; the residual at the returned value is below 1e-12. The value is
    about 4.9215 and marks the received-SNR threshold e0 - 1 between the
    single-mode and multi-mode regimes.
    """

    def f(e: float) -> float:
        return e - math.exp(2.0 * (1.0 - 1.0 / e))

    lo, hi = 2.0, 10.0
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if f(lo) * f(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
    e = 0.5 * (lo + hi)
    for _ in range(10):
        fe = f(e)
        # f'(e) = 1 - exp(2(1-1/e)) * 2/e^2
        dfe = 1.0 - math.exp(2.0 * (1.0 - 1.0 / e)) * 2.0 / (e * e)
        step = fe / dfe
        e -= step
        if abs(step) < 1.0e-15:
            break
    return e
