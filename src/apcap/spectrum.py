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
import warnings
from dataclasses import dataclass, field

import numpy as np

from .link import ValidationError
from .numerics import QUAD_MAX_ORDER, QuadratureRule, bessel_j_table, gauss_quadrature

# The kernel model treats the disc as small compared with the range.
AREA_RATIO_MAX = 1.0e-4

QUADRATURE_MIN = 16

# Default quadrature order max(QUADRATURE_FLOOR, ceil(c) + QUADRATURE_MARGIN);
# scripts/truncation_study.py measures the margin against larger orders.
QUADRATURE_FLOOR = 64
QUADRATURE_MARGIN = 40

# The largest c whose default quadrature order fits in QUAD_MAX_ORDER.
C_PARAM_MAX = float(QUAD_MAX_ORDER - QUADRATURE_MARGIN)

# Modes with nu_sq below EPS times the top one are dropped, and the angular
# walk stops at the first order whose top mode is below it.
EPS = 1.0e-16

# Largest Bessel table block assembly holds at once; larger tables are
# fetched in blocks of angular orders.
BESSEL_BLOCK_BYTES = 64 * 2**20

# Spectra memoized by eigenvalue_spectrum: one area optimization evaluates
# 32 grid points plus at most 26 golden-section points.
SPECTRUM_MEMO_SIZE = 64

# (max_angular_N, max_radial_m, quadrature_order); None takes the default
Truncation = tuple[int | None, int | None, int | None]
DEFAULT_TRUNCATION: Truncation = (None, None, None)

# Fraction of the theoretical spectral mass the retained modes must reach
# before the truncation is considered adequate.
SUM_RULE_CAPTURE_MIN = 0.999


class TruncationWarning(UserWarning):
    """Retained modes capture too little of the theoretical spectral mass."""


@dataclass(frozen=True)
class DiscGeometry:
    """Synthesis disc and the dimensionless parameters it induces.

    c_param = 2 pi R^2 / (lambda d) controls the radial eigenproblem;
    space_bandwidth_M0 = |S|^2 / (lambda^2 d^2) approximates the number of
    strongly coupled modes.
    """

    radius_R: float
    area_S: float
    c_param: float
    space_bandwidth_M0: float
    wavelength_lambda: float
    range_d: float
    loss_L: float

    def __post_init__(self):
        if not (self.radius_R > 0.0 and math.isfinite(self.radius_R)):
            raise ValidationError(f"radius_R must be positive and finite, got {self.radius_R!r}")
        for name in ("wavelength_lambda", "range_d"):
            value = getattr(self, name)
            if not (value > 0.0 and math.isfinite(value)):
                raise ValidationError(f"{name} must be positive and finite, got {value!r}")
        if not (0.0 < self.loss_L <= 1.0):
            raise ValidationError(f"loss_L must lie in (0, 1], got {self.loss_L!r}")
        area = math.pi * self.radius_R**2
        if abs(self.area_S - area) > 1.0e-12 * area:
            raise ValidationError(
                f"area_S {self.area_S!r} inconsistent with radius {self.radius_R!r}"
            )
        lam_d = self.wavelength_lambda * self.range_d
        c = 2.0 * math.pi * self.radius_R**2 / lam_d
        if abs(self.c_param - c) > 1.0e-12 * c:
            raise ValidationError(f"c_param {self.c_param!r} inconsistent with geometry")
        m0 = (self.area_S / lam_d) ** 2
        if abs(self.space_bandwidth_M0 - m0) > 1.0e-12 * m0:
            raise ValidationError(
                f"space_bandwidth_M0 {self.space_bandwidth_M0!r} inconsistent with geometry"
            )
        max_area = AREA_RATIO_MAX * math.pi * self.range_d**2
        if self.area_S > max_area:
            raise ValidationError(
                f"disc area {self.area_S:.6g} exceeds {AREA_RATIO_MAX:g} * pi * d^2 "
                f"= {max_area:.6g}; the small-disc kernel model does not apply"
            )

    @property
    def spectral_mass(self) -> float:
        """Theoretical total of |nu|^2 over all modes: L |S|^2 / (lambda d)^2."""
        return self.loss_L * (self.area_S / (self.wavelength_lambda * self.range_d)) ** 2


def disc_for_area(
    area_S: float, wavelength_lambda: float, range_d: float, loss_L: float
) -> DiscGeometry:
    """Build a DiscGeometry from a disc area, deriving the redundant fields."""
    if not (area_S > 0.0 and math.isfinite(area_S)):
        raise ValidationError(f"area_S must be positive and finite, got {area_S!r}")
    radius = math.sqrt(area_S / math.pi)
    lam_d = wavelength_lambda * range_d
    return DiscGeometry(
        radius_R=radius,
        area_S=area_S,
        c_param=2.0 * math.pi * radius**2 / lam_d,
        space_bandwidth_M0=(area_S / lam_d) ** 2,
        wavelength_lambda=wavelength_lambda,
        range_d=range_d,
        loss_L=loss_L,
    )


@dataclass(frozen=True, eq=False)
class OperatorSpectrum:
    """Sorted operator modes plus the sampled radial eigenfunctions.

    The modes are four parallel read-only columns, angular_N, radial_m,
    beta and nu_sq, sorted by nu_sq descending, ties broken by |N|
    ascending, then m ascending, then sign of N (+ first). radial_samples
    maps (|N|, m) to the eigenfunction values at the quadrature nodes,
    under the normalization integral_0^1 R(r)^2 r dr = 1/(2 pi), which
    makes the full 2-D mode unit norm on the unit disc. The map is None
    when the spectrum was assembled for eigenvalues only. truncation is
    what was kept (largest |N|, largest m, quadrature order), and
    angular_orders_solved counts the orders N = 0, 1, ... the walk solved.
    """

    angular_N: np.ndarray
    radial_m: np.ndarray
    beta: np.ndarray
    nu_sq: np.ndarray
    geometry: DiscGeometry
    truncation: tuple[int, int, int]
    quadrature: QuadratureRule
    radial_samples: dict[tuple[int, int], np.ndarray] | None = field(default=None)
    angular_orders_solved: int = 0

    @property
    def captured_mass(self) -> float:
        # summed left to right in sorted order, not by numpy's pairwise sum
        return float(sum(self.nu_sq.tolist()))


def default_truncation(c_param: float) -> tuple[int, int, int]:
    """(angular order bound N_hi, radial ceiling, quadrature order Q) for a given c.

    These are limits, not the kept counts: assemble_spectrum walks the
    angular orders up from 0 and stops at the first one whose top mode
    falls below EPS of the strongest, and keeps only the modes at or above
    that cut. Past the plunge the eigenvalues decay super-exponentially,
    and the walk stops within about 6.5 c^(1/3) + 2 orders of c
    (scripts/truncation_study.py). N_hi = ceil(c + 8 c^(1/3)) + 8 bounds
    that with room to spare, or 2 ceil(c) + 10 where that is smaller (c
    below about 20), and the Bessel table is built up to N_hi. Q is
    max(64, ceil(c) + 40): the study finds that 24 or more nodes past c
    already reproduce every kept mode of a much larger Q to a few 1e-14 of
    the top one. The radial ceiling is Q - 1, every mode the solve yields.
    """
    c_ceil = int(math.ceil(c_param))
    angular = min(2 * c_ceil + 10, int(math.ceil(c_param + 8.0 * c_param ** (1.0 / 3.0))) + 8)
    quadrature = max(QUADRATURE_FLOOR, c_ceil + QUADRATURE_MARGIN)
    return angular, quadrature - 1, quadrature


def _radial_eigensolve(
    bessel_row: np.ndarray,
    rule: QuadratureRule,
    angular_N: int,
    c_param: float,
    keep_radial: bool,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Eigenpairs of the radial kernel J_|N|(c r r') r' on [0, 1].

    The kernel depends on the angular index only through |N|, so +-N give
    identical eigenvalues. The substitution phi = sqrt(r) R(r) symmetrizes
    the kernel to J_|N|(c r r') sqrt(r r'), so the Nystrom matrix
    D^{1/2} K D^{1/2} is real symmetric and the eigenvalues come out real.
    Returns the betas sorted by |beta| descending and, when keep_radial,
    the matching R(r) samples at the quadrature nodes as columns (else
    None). Eigenvector signs are fixed so the largest-magnitude sample is
    positive, keeping golden files stable across library versions.
    eigvalsh serves the eigenvalue-only case; it rounds differently from
    eigh, so each case keeps its own LAPACK driver.
    """
    sqrt_x = np.sqrt(rule.nodes)
    sqrt_w = np.sqrt(rule.weights)
    kernel = bessel_row * np.outer(sqrt_x, sqrt_x)
    symmetric = sqrt_w[:, None] * kernel * sqrt_w[None, :]
    try:
        if keep_radial:
            values, vectors = np.linalg.eigh(symmetric)
        else:
            values, vectors = np.linalg.eigvalsh(symmetric), None
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(
            f"radial eigensolve failed to converge at angular order {angular_N}, "
            f"c = {c_param:.6g}"
        ) from exc
    order = np.argsort(-np.abs(values), kind="stable")
    if vectors is None:
        return values[order], None
    vectors = vectors[:, order]
    pivots = np.argmax(np.abs(vectors), axis=0)
    flip = vectors[pivots, np.arange(vectors.shape[1])] < 0.0
    vectors[:, flip] = -vectors[:, flip]
    # back-substitute to R(r) samples with unit-disc normalization
    scale = 1.0 / (sqrt_w * sqrt_x * math.sqrt(2.0 * math.pi))
    return values[order], vectors * scale[:, None]


def assemble_spectrum(
    geometry: DiscGeometry,
    max_angular_N: int | None = None,
    max_radial_m: int | None = None,
    quadrature_order: int | None = None,
    keep_radial: bool = True,
) -> OperatorSpectrum:
    """Solve the radial problems order by order and merge the modes.

    The walk solves N = 0, 1, ... and stops at the first order whose top
    nu_sq is below EPS times the strongest mode's; within each order only
    the radial modes at or above that cut are kept. max_angular_N and
    max_radial_m are ceilings on the walk and on the radial index (None
    takes default_truncation's bound N_hi and Q - 1); quadrature_order is
    used as given. Reaching N_hi without the cut stopping the walk issues
    a TruncationWarning, and so does capturing less than 99.9% of the
    theoretical mass L |S|^2 / (lambda d)^2. The spectrum's truncation is
    what was kept: the largest |N| and m among its modes, and Q.

    Each mode (N, m) with N != 0 enters twice (+N and -N) with the same
    magnitude. nu_sq = (L / lambda^2 d^2) R^4 (2 pi beta)^2.

    keep_radial=False skips eigenvectors (faster, eigenvalues only); the
    resulting spectrum has radial_samples None and cannot seed array
    synthesis.
    """
    c = geometry.c_param
    if not (0.0 < c <= C_PARAM_MAX):
        raise ValidationError(
            f"c_param {c!r} outside supported range (0, {C_PARAM_MAX:g}], a disc area "
            f"|S| of up to about {C_PARAM_MAX / 2.0:g} lambda d (c = 2 |S| / (lambda d))"
        )
    bound_N, _, default_q = default_truncation(c)
    quadrature_order = default_q if quadrature_order is None else quadrature_order
    if any(limit is not None and limit < 0 for limit in (max_angular_N, max_radial_m)):
        raise ValidationError("truncation orders must be nonnegative")
    if quadrature_order < QUADRATURE_MIN:
        raise ValidationError(
            f"quadrature order {quadrature_order} below minimum {QUADRATURE_MIN}"
        )
    walk_N = bound_N if max_angular_N is None else min(max_angular_N, bound_N)
    radial_m = quadrature_order - 1 if max_radial_m is None else max_radial_m

    rule = gauss_quadrature(quadrature_order)
    nodes_outer = np.outer(rule.nodes, rule.nodes)
    upper = np.triu_indices(quadrature_order)
    args = c * nodes_outer[upper]
    block = max(1, BESSEL_BLOCK_BYTES // (8 * args.size))

    scale_nu = geometry.loss_L / (geometry.wavelength_lambda * geometry.range_d) ** 2
    scale_nu *= geometry.radius_R**4 * (2.0 * math.pi) ** 2

    pieces: list[tuple[np.ndarray, ...]] = []  # (N, m, beta, nu_sq) per order and sign
    radial: dict[tuple[int, int], np.ndarray] | None = {} if keep_radial else None
    top = 0.0
    stopped = False
    for N in range(walk_N + 1):
        if N % block == 0:
            table = None  # let the previous block go before the next is built
            table = bessel_j_table(walk_N, args, range(N, min(N + block, walk_N + 1)))
        row = np.zeros_like(nodes_outer)
        row[upper] = table[N % block]
        row = row + row.T - np.diag(np.diag(row))
        betas, samples = _radial_eigensolve(row, rule, N, c, keep_radial)
        nu_sq = scale_nu * betas * betas
        top = max(top, float(nu_sq[0]))
        if nu_sq[0] < EPS * top:
            stopped = True
            break
        kept = int(np.count_nonzero(nu_sq[: radial_m + 1] >= EPS * top))
        indices = np.arange(kept)
        for signed_N in (N, -N) if N > 0 else (N,):
            pieces.append((np.full(kept, signed_N), indices, betas[:kept], nu_sq[:kept]))
        if keep_radial:
            for m in range(kept):
                radial[(N, m)] = samples[:, m].copy()
    solved = N + 1
    if not stopped and walk_N == bound_N:
        warnings.warn(
            f"angular orders up to the bound {bound_N} at c = {c:.6g} all hold modes "
            f"above {EPS:g} of the top one; orders beyond it were not solved",
            TruncationWarning,
            stacklevel=2,
        )

    columns = [np.concatenate(column) for column in zip(*pieces)]
    signed, indices, _, values = columns
    order = np.lexsort((signed < 0, indices, np.abs(signed), -values))
    columns = [column[order] for column in columns]
    for column in columns:
        column.flags.writeable = False  # eigenvalue_spectrum shares one spectrum between callers
    spectrum = OperatorSpectrum(
        *columns,
        geometry=geometry,
        truncation=(int(signed.max()), int(indices.max()), quadrature_order),
        quadrature=rule,
        radial_samples=radial,
        angular_orders_solved=solved,
    )
    total = geometry.spectral_mass
    if spectrum.captured_mass < SUM_RULE_CAPTURE_MIN * total:
        warnings.warn(
            f"retained modes capture {spectrum.captured_mass / total:.4%} of the "
            f"theoretical spectral mass; increase the truncation orders",
            TruncationWarning,
            stacklevel=2,
        )
    return spectrum


@functools.lru_cache(maxsize=SPECTRUM_MEMO_SIZE)
def eigenvalue_spectrum(geometry: DiscGeometry, truncation: Truncation) -> OperatorSpectrum:
    """assemble_spectrum(geometry, *truncation, keep_radial=False), memoized.

    The key is the exact geometry and truncation triple (None entries take
    the defaults), so a hit returns the spectrum a fresh solve gives. The
    result is shared between callers; its columns are read-only.
    """
    return assemble_spectrum(geometry, *truncation, keep_radial=False)


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
