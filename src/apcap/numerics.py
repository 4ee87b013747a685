"""Special functions, quadrature, and root-finding shared by the other modules.

Everything here is pure and deterministic: same inputs give bit-identical
outputs across runs, which the golden-file tests rely on.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

BESSEL_MAX_ORDER = 200
BESSEL_MAX_X = 1.0e4
QUAD_MAX_ORDER = 512
# distinct quadrature orders kept by the gauss_quadrature memo
QUAD_MEMO_SIZE = 64

# Rescaling guard for the downward recurrence; values beyond this are scaled
# back to keep the unnormalized iterates finite.
_MILLER_BIG = 1.0e250


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

    def integrate(self, values: np.ndarray) -> float:
        """Integrate samples taken at the rule's nodes."""
        return float(np.dot(self.weights, values))


def _legendre_value_and_derivative(n: int, x: float) -> tuple[float, float]:
    """P_n(x) and P_n'(x) by the three-term recurrence."""
    p_prev, p = 1.0, x
    for k in range(2, n + 1):
        p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
    # derivative from the standard identity, valid for |x| < 1
    dp = n * (x * p - p_prev) / (x * x - 1.0)
    return p, dp


# typed: True and 1 must not share an entry, since bool orders are rejected
@functools.lru_cache(maxsize=QUAD_MEMO_SIZE, typed=True)
def gauss_quadrature(order: int) -> QuadratureRule:
    """Gauss-Legendre rule with `order` points, mapped to [0, 1].

    Nodes are found by Newton iteration on the Legendre recurrence with a
    fixed 1e-14 tolerance, then mirrored about the midpoint so the rule is
    exactly symmetric. A rule of order Q integrates polynomials of degree
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
    if order == 1:
        return _frozen_rule(np.array([0.5]), np.array([1.0]))

    n = order
    half = (n + 1) // 2
    nodes = np.empty(n)
    weights = np.empty(n)
    for k in range(1, half + 1):
        x = math.cos(math.pi * (k - 0.25) / (n + 0.5))
        for _ in range(100):
            p, dp = _legendre_value_and_derivative(n, x)
            dx = p / dp
            x -= dx
            if abs(dx) <= 1.0e-14:
                break
        p, dp = _legendre_value_and_derivative(n, x)
        w = 2.0 / ((1.0 - x * x) * dp * dp)
        # x is the k-th root from the +1 end; mirror to fill both halves.
        # The lower node is formed as 1 - upper, which is exact since the
        # upper node lies in [1/2, 1], so the pair is symmetric to the bit.
        upper_node = (1.0 + x) / 2.0
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


def _bessel_series(order: int, x: float) -> float:
    # ascending power series; safe when x is small or the leading term
    # (x/2)^order / order! is already far below the target accuracy
    half = x / 2.0
    term = 1.0
    for k in range(1, order + 1):
        term *= half / k
        if term == 0.0:
            return 0.0
    total = term
    k = 1
    while k < 500:
        term *= -(half * half) / (k * (order + k))
        total += term
        if abs(term) <= 1.0e-17 * (abs(total) + 1.0e-300):
            break
        k += 1
    return total


def _bessel_miller(order: int, x: float) -> float:
    # downward recurrence normalized by J_0 + 2*sum_k J_{2k} = 1
    start = max(order, int(x)) + 1
    start += int(20 + 10 * math.sqrt(start))
    if start % 2:
        start += 1
    jp = 0.0
    j = 1.0e-30
    result = 0.0
    norm = 0.0
    for k in range(start, 0, -1):
        jm = (2.0 * k / x) * j - jp
        jp = j
        j = jm
        if k - 1 == order:
            result = j
        if (k - 1) % 2 == 0 and k - 1 > 0:
            norm += 2.0 * j
        if abs(j) > _MILLER_BIG:
            j *= 1.0e-250
            jp *= 1.0e-250
            result *= 1.0e-250
            norm *= 1.0e-250
    norm += j
    return result / norm


def bessel_j(order: int, x: float) -> float:
    """Bessel function of the first kind J_order(x).

    Valid for integer orders 0..200 and real arguments 0 <= x <= 1e4, with
    absolute error below 1e-10 on that envelope. Arguments outside the
    envelope raise, since accuracy there is not established.

    The ascending power series is used where it is numerically safe, which
    is x <= 12 or (x/2)^2 <= order + 1; elsewhere the normalized downward
    (Miller) recurrence is used. The series alone suffers catastrophic
    cancellation once x grows past the order, so the crossover is by
    argument size rather than a fixed multiple of the order.
    """
    if not isinstance(order, (int, np.integer)) or isinstance(order, bool):
        raise ValidationError(f"bessel order must be an integer, got {order!r}")
    if order < 0 or order > BESSEL_MAX_ORDER:
        raise ValidationError(f"bessel order {order} outside supported range [0, {BESSEL_MAX_ORDER}]")
    x = float(x)
    if not (0.0 <= x <= BESSEL_MAX_X):
        raise ValidationError(f"bessel argument {x} outside supported range [0, {BESSEL_MAX_X}]")
    if x == 0.0:
        return 1.0 if order == 0 else 0.0
    if x <= 12.0 or (x / 2.0) ** 2 <= order + 1:
        return _bessel_series(order, x)
    return _bessel_miller(order, x)


def bessel_j_table(
    max_order: int, x: np.ndarray, orders: range | None = None
) -> np.ndarray:
    """J_n(x) for orders n = 0..max_order at once, vectorized over x.

    Returns an array of shape (len(orders), len(x)), one row per order in
    `orders` (default: every order 0..max_order, which must contain it).
    Internal workhorse for kernel assembly, where the same arguments are
    needed at every angular order. Uses the normalized downward recurrence
    throughout; accuracy is a few ulps over the assembly range (x up to
    ~1e3). The recurrence depends on max_order and x only, so a row has the
    same bits whichever `orders` it is returned in: a caller can fetch the
    rows in blocks and hold one block at a time.
    """
    if orders is None:
        orders = range(max_order + 1)
    if orders.step != 1 or orders.start < 0 or orders.stop > max_order + 1:
        raise ValidationError(f"orders {orders!r} not a contiguous part of 0..{max_order}")
    lo, hi = orders.start, orders.stop
    x = np.asarray(x, dtype=float).ravel()
    positive = x > 0.0
    xs = x[positive]
    acc = np.zeros((len(orders), xs.size))
    if xs.size:
        start = max(max_order, int(math.ceil(float(xs.max())))) + 1
        start += int(20 + 10 * math.sqrt(start))
        if start % 2:
            start += 1
        jp = np.zeros(xs.size)
        j = np.full(xs.size, 1.0e-30)
        norm = np.zeros(xs.size)
        inv_x = 1.0 / xs
        for k in range(start, 0, -1):
            jm = (2.0 * k) * inv_x * j - jp
            jp = j
            j = jm
            if lo <= k - 1 < hi:
                acc[k - 1 - lo] = j
            if (k - 1) % 2 == 0 and k - 1 > 0:
                norm += 2.0 * j
            big = np.abs(j) > _MILLER_BIG
            if big.any():
                j[big] *= 1.0e-250
                jp[big] *= 1.0e-250
                acc[:, big] *= 1.0e-250
                norm[big] *= 1.0e-250
        norm += j
        acc /= norm
    if positive.all():
        return acc
    out = np.zeros((len(orders), x.size))
    out[:, positive] = acc
    if lo == 0:
        out[0, ~positive] = 1.0
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
