"""Eigenvalues and radial eigenfunctions of the free-space propagation operator.

The operator on a disc of radius R at range d has kernel
sqrt(L/lambda^2 d^2) * exp(i (2 pi / lambda d) <v, u>). In polar
coordinates it separates over angular orders, leaving for each integer
order N a real symmetric radial integral equation on [0, 1]:

    beta * R(r) = integral_0^1 J_N(c r r') R(r') r' dr',  c = 2 pi R^2/(lambda d)

solved here by a Nystrom discretization. The 2-D eigenvalues are
alpha_{N,m} = 2 pi i^N beta_{N,m}; only their magnitudes matter
downstream, so the unit-modulus factor i^N is dropped. Physical
eigenvalue magnitudes are |nu|^2 = (L/lambda^2 d^2) R^4 (2 pi beta)^2,
and modes with N != 0 are doubly degenerate (+-N pairs).
"""

from __future__ import annotations

import functools
import math
import sys
import warnings
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .link import ValidationError
from .numerics import QUAD_MAX_ORDER, QuadratureRule, bessel_j_table, gauss_quadrature

# The kernel model treats the disc as small compared with the range.
AREA_RATIO_MAX = 1.0e-4

QUADRATURE_MIN = 16

# Nodes an eigenvalue-only default quadrature order keeps past
# converged_quadrature(c); an explicit order below converged_quadrature(c)
# draws a QuadratureWarning.
QUADRATURE_MARGIN = 12

# A solve that keeps radial samples takes max(RADIAL_QUADRATURE_FLOOR,
# ceil(c) + RADIAL_QUADRATURE_MARGIN) nodes: the samples also feed the monotone
# cubic interpolant arrays._radial_interpolator runs through the nodes, which
# scripts/truncation_study.py does not measure.
RADIAL_QUADRATURE_MARGIN = 40
RADIAL_QUADRATURE_FLOOR = 64

# The largest c whose radial-sample quadrature order fits in QUAD_MAX_ORDER.
C_PARAM_MAX = float(QUAD_MAX_ORDER - RADIAL_QUADRATURE_MARGIN)

# Modes with nu_sq below EPS times the top one are dropped, and the angular
# walk stops at the first order whose top mode is below it.
EPS = 1.0e-16

# Largest Bessel table block assembly holds at once; larger tables are
# fetched in blocks of angular orders.
BESSEL_BLOCK_BYTES = 64 * 2**20

# (c, Q, N_hi) keys whose eigenvalue-only solves _memo_entry keeps: one
# area optimization evaluates 32 grid points plus at most 26 golden-section points.
SPECTRUM_MEMO_SIZE = 64

# (max_angular_N, max_radial_m, quadrature_order); None takes the default
Truncation = tuple[int | None, int | None, int | None]
DEFAULT_TRUNCATION: Truncation = (None, None, None)

# A water stop needs a top inverted floor above the one-channel level P + BN0/h_top
# by this relative margin. It covers the rounding of that one sum and of the
# waterfill's prefix sums (at most n unit roundoffs, about 1e-11 for 1e5 floors).
WATER_MARGIN = 1.0e-9

# Fraction of the theoretical spectral mass the retained modes must reach
# before the truncation is considered adequate.
SUM_RULE_CAPTURE_MIN = 0.999


class TruncationWarning(UserWarning):
    """Retained modes capture too little of the theoretical spectral mass."""


class QuadratureWarning(TruncationWarning):
    """An explicit quadrature order is below converged_quadrature(c) at this c."""

    def __init__(self, message: str, c: float):
        super().__init__(message)
        self.c = c


@dataclass(frozen=True)
class DiscGeometry:
    """Synthesis disc: area |S|, wavelength lambda, range d and loss L.

    The spectrum depends on the disc only through these four values, and
    the other parameters are derived from them: the radius
    R = sqrt(|S|/pi); c_param = 2 pi R^2 / (lambda d), which controls the
    radial eigenproblem; and space_bandwidth_M0 = |S|^2 / (lambda^2 d^2),
    which approximates the number of strongly coupled modes.
    """

    area_S: float
    wavelength_lambda: float
    range_d: float
    loss_L: float

    def __post_init__(self):
        for name in ("area_S", "wavelength_lambda", "range_d"):
            value = getattr(self, name)
            if not (value > 0.0 and math.isfinite(value)):
                raise ValidationError(f"{name} must be positive and finite, got {value!r}")
        if not (0.0 < self.loss_L <= 1.0):
            raise ValidationError(f"loss_L must lie in (0, 1], got {self.loss_L!r}")
        max_area = AREA_RATIO_MAX * math.pi * (self.range_d * self.range_d)  # inf, not OverflowError
        if self.area_S > max_area:
            raise ValidationError(
                f"disc area {self.area_S:.6g} exceeds {AREA_RATIO_MAX:g} * pi * d^2 "
                f"= {max_area:.6g}; the small-disc kernel model does not apply"
            )

    @property
    def radius_R(self) -> float:
        return math.sqrt(self.area_S / math.pi)

    @property
    def c_param(self) -> float:
        return 2.0 * math.pi * self.radius_R**2 / (self.wavelength_lambda * self.range_d)

    @property
    def space_bandwidth_M0(self) -> float:
        return (self.area_S / (self.wavelength_lambda * self.range_d)) ** 2

    @property
    def spectral_mass(self) -> float:
        """Theoretical total of |nu|^2 over all modes: L |S|^2 / (lambda d)^2."""
        return self.loss_L * (self.area_S / (self.wavelength_lambda * self.range_d)) ** 2


@dataclass(frozen=True, eq=False)
class OperatorSpectrum:
    """Sorted operator modes plus the sampled radial eigenfunctions.

    The modes are four parallel columns, angular_N, radial_m, beta and
    nu_sq, sorted by nu_sq descending, ties broken by |N| ascending, then
    m ascending, then sign of N (+ first). radial_samples maps each kept
    order |N| to a Q x kept matrix whose column m holds the eigenfunction
    R_{|N|,m} at the quadrature nodes, under the normalization
    integral_0^1 R(r)^2 r dr = 1/(2 pi), which makes the full 2-D mode unit
    norm on the unit disc; +N and -N share the matrix. The map is None
    when the spectrum was assembled for eigenvalues only. truncation is
    what was kept (largest |N|, largest m, quadrature order), and
    angular_orders_solved counts the orders N = 0, 1, ... the walk read,
    solved or cached. water_stop_nu_sq is None when the walk ran to the EPS cut; a
    walk that stopped at a bounds call's water cut records the top nu_sq of
    the order it stopped on, and holds only the orders before it.
    """

    angular_N: np.ndarray
    radial_m: np.ndarray
    beta: np.ndarray
    nu_sq: np.ndarray
    geometry: DiscGeometry
    truncation: tuple[int, int, int]
    quadrature: QuadratureRule
    radial_samples: dict[int, np.ndarray] | None = field(default=None)
    angular_orders_solved: int = 0
    water_stop_nu_sq: float | None = None

    @property
    def captured_mass(self) -> float:
        # summed left to right in sorted order, not by numpy's pairwise sum nor by
        # the builtin sum, which compensates from Python 3.12 on
        return float(np.add.accumulate(self.nu_sq)[-1])


def converged_quadrature(c_param: float) -> int:
    """ceil(c/2 + 4 c^(1/3)): the fewest Gauss-Legendre nodes that resolve the kernel.

    On [0, 1] the kernel J_N(c r r') and its eigenfunctions each oscillate
    at most c radians per unit radius, so the Nystrom integrand is
    band-limited at 2c, and Gauss-Legendre resolves it with about c/2
    nodes plus a transition layer of order c^(1/3) (Trefethen, SIAM Review
    50, 2008), the layer N_hi also carries. At this order the modes are off
    a much larger one by up to a few 1e-12 of the top mode at c = 16 and
    128, and by about 5e-9 a few nodes below it; QUADRATURE_MARGIN more
    nodes reach the larger order's accuracy (scripts/truncation_study.py).
    """
    return int(math.ceil(c_param / 2.0 + 4.0 * c_param ** (1.0 / 3.0)))


def default_truncation(c_param: float, keep_radial: bool = False) -> tuple[int, int]:
    """(angular order bound N_hi, quadrature order Q) for a given c.

    N_hi is a limit, not the kept count: assemble_spectrum walks the
    angular orders up from 0 and stops at the first one whose top mode
    falls below EPS of the strongest, and keeps only the modes at or above
    that cut. Past the plunge the eigenvalues decay super-exponentially,
    and the walk stops within about 6.5 c^(1/3) + 2 orders of c
    (scripts/truncation_study.py). N_hi = ceil(c + 8 c^(1/3)) + 8 bounds
    that with room to spare, or 2 ceil(c) + 10 where that is smaller (c
    below about 20), and the Bessel table is built up to N_hi.

    An eigenvalue-only solve takes Q = converged_quadrature(c) +
    QUADRATURE_MARGIN, at least QUADRATURE_MIN: the study finds it
    reproduces every kept mode of a reference order ceil(c) + 120 (at most
    QUAD_MAX_ORDER) as closely as ceil(c) + 40 nodes do, to a few 1e-14 of
    the top one, for every c up to C_PARAM_MAX. With keep_radial, Q is
    max(RADIAL_QUADRATURE_FLOOR, ceil(c) + RADIAL_QUADRATURE_MARGIN).
    """
    c_ceil = int(math.ceil(c_param))
    angular = min(2 * c_ceil + 10, int(math.ceil(c_param + 8.0 * c_param ** (1.0 / 3.0))) + 8)
    if keep_radial:
        return angular, max(RADIAL_QUADRATURE_FLOOR, c_ceil + RADIAL_QUADRATURE_MARGIN)
    return angular, max(QUADRATURE_MIN, converged_quadrature(c_param) + QUADRATURE_MARGIN)


def _order_solves(
    c: float, rule: QuadratureRule, walk_N: int, first_N: int, keep_radial: bool
) -> Iterator[tuple[int, np.ndarray, np.ndarray | None]]:
    """Each order's radial solve, lazily for N = first_N, first_N + 1, ..., walk_N.

    For each order N the radial kernel J_|N|(c r r') r' on [0, 1] is
    discretized on the rule's Q Gauss-Legendre nodes. The kernel depends on
    N only through |N|, so +-N give identical eigenvalues. The substitution
    phi = sqrt(r) R(r) symmetrizes it to J_|N|(c r r') sqrt(r r'), so the
    Nystrom matrix D^{1/2} K D^{1/2} is real symmetric and its eigenvalues
    are real. Only the lower triangle is formed, in one Q x Q buffer
    refilled per order; the eigensolver reads no other. The Bessel rows are
    fetched up to walk_N in blocks of at most BESSEL_BLOCK_BYTES, each let go
    before the next is built.

    Yields (N, betas, samples): the betas sorted by |beta| descending and,
    when keep_radial, the eigenvectors back-substituted to R(r) samples at
    the nodes with unit-disc normalization, one column per beta (else
    None). Eigenvector signs are fixed so the largest-magnitude entry is
    positive, keeping golden files stable across library versions.
    eigvalsh serves the eigenvalue-only case; it rounds differently from
    eigh, so each case keeps its own LAPACK driver.
    """
    q = rule.nodes.size
    # the lower triangle (row i >= column j) column by column: the Bessel
    # recurrence runs faster on this argument order than on row by row
    cols, rows = np.triu_indices(q)
    args = c * (rule.nodes[rows] * rule.nodes[cols])
    block = max(1, BESSEL_BLOCK_BYTES // (8 * args.size))
    sqrt_x, sqrt_w = np.sqrt(rule.nodes), np.sqrt(rule.weights)
    # products grouped as sqrt_w[i] * (J * (sqrt_x[i] sqrt_x[j])) * sqrt_w[j];
    # another grouping rounds differently and moves the betas
    left, nodes_term, right = sqrt_w[rows], sqrt_x[rows] * sqrt_x[cols], sqrt_w[cols]
    matrix = np.zeros((q, q))
    sample_scale = (1.0 / (sqrt_w * sqrt_x * math.sqrt(2.0 * math.pi)))[:, None]
    for lo in range(first_N, walk_N + 1, block):
        row = table = None  # a row is a view: both let the previous block go
        table = bessel_j_table(walk_N, args, range(lo, min(lo + block, walk_N + 1)))
        for N, row in enumerate(table, lo):
            matrix[rows, cols] = left * (row * nodes_term) * right
            try:
                if keep_radial:
                    values, vectors = np.linalg.eigh(matrix)
                else:
                    values, vectors = np.linalg.eigvalsh(matrix), None
            except np.linalg.LinAlgError as exc:
                raise RuntimeError(
                    f"radial eigensolve failed to converge at angular order {N}, c = {c:.6g}"
                ) from exc
            order = np.argsort(-np.abs(values), kind="stable")
            if keep_radial:
                vectors = vectors[:, order]
                flip = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(q)] < 0.0
                vectors[:, flip] = -vectors[:, flip]
                vectors *= sample_scale
            yield N, values[order], vectors


@functools.lru_cache(maxsize=SPECTRUM_MEMO_SIZE)
def _memo_entry(c: float, q: int, walk_N: int) -> list[np.ndarray]:
    """The read-only betas of N = 0, 1, ... as far as walks on (c, Q, walk_N) read them."""
    return []


def _eigenvalue_solves(
    c: float, rule: QuadratureRule, walk_N: int
) -> Iterator[tuple[int, np.ndarray, None]]:
    """_order_solves(c, rule, walk_N, 0, keep_radial=False), memoized per order.

    An order's betas depend only on c, Q and walk_N, the Bessel table's
    bound, so the last SPECTRUM_MEMO_SIZE such keys keep them. The cached
    orders are yielded first; a walk that reads past them resumes the
    solves at the first uncached order and keeps each order it reads, so
    no order of a key is solved twice.
    """
    betas = _memo_entry(c, rule.nodes.size, walk_N)
    cached = len(betas)
    yield from ((N, betas[N], None) for N in range(cached))
    for N, values, _ in _order_solves(c, rule, walk_N, cached, keep_radial=False):
        values.flags.writeable = False
        betas.append(values)
        yield N, values, None


def assemble_spectrum(
    geometry: DiscGeometry,
    max_angular_N: int | None = None,
    max_radial_m: int | None = None,
    quadrature_order: int | None = None,
    keep_radial: bool = True,
    water: float = math.inf,
) -> OperatorSpectrum:
    """Walk the angular orders' radial solves (_order_solves) and merge the modes.

    The walk solves N = 0, 1, ... and stops at the first order whose top
    nu_sq is below EPS times the strongest mode's; within each order only
    the radial modes at or above that cut are kept. max_angular_N and
    max_radial_m are ceilings on the walk and on the radial index (None
    takes default_truncation's bound N_hi and Q - 1); quadrature_order is
    used as given, and None takes default_truncation's Q, which is larger
    when keep_radial. Reaching N_hi without the cut
    stopping the walk issues a TruncationWarning, and so does capturing
    less than 99.9% of the theoretical mass L |S|^2 / (lambda d)^2, and so
    does a quadrature order below converged_quadrature(c), which the sum
    rule cannot see. A disc whose theoretical mass is below the
    smallest normal double is refused: its modes underflow.
    The spectrum's truncation is what was kept: the largest |N| and m among
    its modes, and Q.

    water, the received SNR gamma*g of a bounds call, also stops the walk
    at that call's water cut; the default math.inf never stops it. A
    waterfill's level never exceeds its one-channel value P + BN0/h_top
    (Cover & Thomas, Elements of Information Theory, 9.4), with h_top the
    strongest gain, which the walk's running top bounds from below. So the
    walk stops at the first order whose top inverted floor BN0/h lies above
    (P + BN0/h_top) (1 + WATER_MARGIN): by the same monotone decay in N the
    EPS stop relies on, no later order holds an active mode. The spectrum
    records the stopping order's top nu_sq in water_stop_nu_sq, and a
    water-stopped solve raises no sum-rule warning, since it leaves out
    inactive modes on purpose.

    Each mode (N, m) with N != 0 enters twice (+N and -N) with the same
    magnitude. nu_sq = (L / lambda^2 d^2) R^4 (2 pi beta)^2.

    keep_radial=False skips eigenvectors (faster, eigenvalues only); the
    resulting spectrum has radial_samples None, and its walk reads each
    order's betas through the per-order cache of _eigenvalue_solves, so a
    call solves only the orders no earlier call on a disc of the same c,
    Q and N_hi read. The stops, the kept counts, the sort and the warnings
    run on every call, so the result is the one a fresh solve gives.
    """
    c = geometry.c_param
    if not (0.0 < c <= C_PARAM_MAX):
        raise ValidationError(
            f"c_param {c!r} outside supported range (0, {C_PARAM_MAX:g}], a disc area "
            f"|S| of up to about {C_PARAM_MAX / 2.0:g} lambda d (c = 2 |S| / (lambda d))"
        )
    total = geometry.spectral_mass
    if not total >= sys.float_info.min:
        raise ValidationError(
            f"disc area {geometry.area_S:.6g} is too small: its spectral mass "
            f"L |S|^2 / (lambda d)^2 = {total:.6g} is below the smallest normal double "
            f"{sys.float_info.min:.6g}, so its modes underflow"
        )
    lam_d = geometry.wavelength_lambda * geometry.range_d
    if not 0.0 < lam_d * lam_d < math.inf:
        raise ValidationError(
            f"lambda d = {lam_d:.6g} m^2: its square, which scales every mode by "
            f"L / (lambda d)^2, is not a positive finite double"
        )
    bound_N, default_q = default_truncation(c, keep_radial)
    if quadrature_order is None:
        quadrature_order = default_q
    if any(limit is not None and limit < 0 for limit in (max_angular_N, max_radial_m)):
        raise ValidationError("truncation orders must be nonnegative")
    if quadrature_order < QUADRATURE_MIN:
        raise ValidationError(
            f"quadrature order {quadrature_order} below minimum {QUADRATURE_MIN}"
        )
    enough_q = converged_quadrature(c)
    if quadrature_order < enough_q:
        warnings.warn(
            QuadratureWarning(
                f"quadrature order {quadrature_order} is below ceil(c/2 + 4 c^(1/3)) = "
                f"{enough_q} at c = {c:.6g}; the modes are not converged, and the sum rule "
                f"cannot show it",
                c,
            ),
            stacklevel=2,
        )
    walk_N = bound_N if max_angular_N is None else min(max_angular_N, bound_N)
    radial_m = quadrature_order - 1 if max_radial_m is None else max_radial_m

    rule = gauss_quadrature(quadrature_order)
    scale_nu = geometry.loss_L / (geometry.wavelength_lambda * geometry.range_d) ** 2
    scale_nu *= geometry.radius_R**4 * (2.0 * math.pi) ** 2

    pieces: list[tuple[np.ndarray, ...]] = []  # (N, m, beta, nu_sq) per order and sign
    radial: dict[int, np.ndarray] | None = {} if keep_radial else None
    top = 0.0
    water_stop = None
    for N, betas, samples in (
        _order_solves(c, rule, walk_N, 0, keep_radial=True)
        if keep_radial
        else _eigenvalue_solves(c, rule, walk_N)
    ):
        nu_sq = scale_nu * betas * betas
        top = max(top, float(nu_sq[0]))
        if nu_sq[0] < EPS * top:
            break
        # A gain is h = (A_T A_R/|S|^2) nu_sq, and P (A_T A_R/|S|^2)/BN0 is gamma*g
        # over the spectral mass, so BN0/h > (P + BN0/h_top) (1 + WATER_MARGIN)
        # reads as below, free of P, BN0 and the apertures; math.inf never stops.
        if nu_sq[0] * (water / total + 1.0 / top) * (1.0 + WATER_MARGIN) < 1.0:
            water_stop = float(nu_sq[0])
            break
        kept = int(np.count_nonzero(nu_sq[: radial_m + 1] >= EPS * top))
        indices = np.arange(kept)
        for signed_N in (N, -N) if N > 0 else (N,):
            pieces.append((np.full(kept, signed_N), indices, betas[:kept], nu_sq[:kept]))
        if keep_radial:
            radial[N] = samples[:, :kept].copy()  # a view would pin the whole Q x Q matrix
    else:
        if walk_N == bound_N:
            warnings.warn(
                f"angular orders up to the bound {bound_N} at c = {c:.6g} all hold modes "
                f"above {EPS:g} of the top one; orders beyond it were not solved",
                TruncationWarning,
                stacklevel=2,
            )
    solved = N + 1

    columns = [np.concatenate(column) for column in zip(*pieces)]
    signed, indices, _, values = columns
    order = np.lexsort((signed < 0, indices, np.abs(signed), -values))
    spectrum = OperatorSpectrum(
        *(column[order] for column in columns),
        geometry=geometry,
        truncation=(int(signed.max()), int(indices.max()), quadrature_order),
        quadrature=rule,
        radial_samples=radial,
        angular_orders_solved=solved,
        water_stop_nu_sq=water_stop,
    )
    if water_stop is None and spectrum.captured_mass < SUM_RULE_CAPTURE_MIN * total:
        warnings.warn(
            f"retained modes capture {spectrum.captured_mass / total:.4%} of the "
            f"theoretical spectral mass; increase the truncation orders",
            TruncationWarning,
            stacklevel=2,
        )
    return spectrum


def effective_rank(spectrum: OperatorSpectrum, fraction: float) -> int:
    """Number of modes whose nu_sq reaches `fraction` of the largest one.

    At fraction = 1 this counts the modes tied with the strongest one.
    """
    if not spectrum.nu_sq.size:
        raise ValidationError("spectrum has no modes")
    if not (0.0 < fraction <= 1.0):
        raise ValidationError(f"fraction must lie in (0, 1], got {fraction!r}")
    return int(np.sum(spectrum.nu_sq >= fraction * spectrum.nu_sq[0]))


def spectrum_report(spectrum: OperatorSpectrum) -> dict:
    """JSON-ready report: geometry header plus the mode array."""
    geo = spectrum.geometry
    total = geo.spectral_mass
    captured = spectrum.captured_mass
    return {
        "schema_version": 1,
        "geometry": {
            "radius_R": geo.radius_R,
            "area_S": geo.area_S,
            "c_param": geo.c_param,
            "space_bandwidth_M0": geo.space_bandwidth_M0,
            "wavelength_lambda": geo.wavelength_lambda,
            "range_d": geo.range_d,
            "loss_L": geo.loss_L,
        },
        "truncation": {
            "max_angular_N": spectrum.truncation[0],
            "max_radial_m": spectrum.truncation[1],
            "quadrature_order": spectrum.truncation[2],
            "angular_orders_solved": spectrum.angular_orders_solved,
        },
        "sum_rule": {
            "captured": captured,
            "total": total,
            "fraction": captured / total,
        },
        "modes": [
            {"N": N, "m": m, "beta": beta, "nu_sq": nu_sq}
            for N, m, beta, nu_sq in zip(
                spectrum.angular_N.tolist(),
                spectrum.radial_m.tolist(),
                spectrum.beta.tolist(),
                spectrum.nu_sq.tolist(),
            )
        ],
    }
