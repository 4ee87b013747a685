"""Far-field channel matrices and constructive distributed-array synthesis.

Two layers live here. The first builds explicit channel matrices from 3-D
element positions: the exact matrix from pairwise distances and the
reduced matrix from projected transverse coordinates, whose singular
values agree in the far field. The second approximates the leading
operator eigenfunctions by simple functions on an equal-area partition of
the synthesis disc, yielding a finite K-stream array whose Gram matrix
approaches the diagonal operator limit and whose efficiency approaches
the waterfilled lower bound as the cell count grows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .link import LinkBudget, ValidationError
from .numerics import bessel_j_table
from .spectrum import EPS, DiscGeometry, OperatorSpectrum
from .waterfill import ChannelGains, waterfill

FAR_FIELD_RANGE_FACTOR = 1.0e3


@dataclass(frozen=True)
class FarFieldScene:
    """Explicit 3-D element positions for the two ends of a link.

    Transmit positions cluster around the origin, receive positions around
    (d, 0, 0). The far-field regime wants the range to dwarf both cluster
    radii; construction enforces d >= 1000 * max(r_T, r_R) unless
    enforce_far_field is False, which convergence sweeps use to reach
    deliberately marginal ranges.
    """

    tx_positions: np.ndarray
    rx_positions: np.ndarray
    wavelength_lambda: float
    nominal_range_d: float
    enforce_far_field: bool = True

    def __post_init__(self):
        tx = np.atleast_2d(np.asarray(self.tx_positions, dtype=float))
        rx = np.atleast_2d(np.asarray(self.rx_positions, dtype=float))
        if tx.shape[1] != 3 or rx.shape[1] != 3:
            raise ValidationError("element positions must be 3-D points")
        object.__setattr__(self, "tx_positions", tx)
        object.__setattr__(self, "rx_positions", rx)
        if not (self.wavelength_lambda > 0.0 and self.nominal_range_d > 0.0):
            raise ValidationError("wavelength and range must be positive")
        if self.enforce_far_field:
            ratio = self.nominal_range_d / max(self.cluster_radii + (1e-300,))
            if ratio < FAR_FIELD_RANGE_FACTOR:
                raise ValidationError(
                    f"range over cluster radius {ratio:.3g} is below "
                    f"{FAR_FIELD_RANGE_FACTOR:g}; the scene is not in the far field"
                )

    @property
    def cluster_radii(self) -> tuple[float, float]:
        """(r_T, r_R): element cluster radii about the two origins."""
        r_t = float(np.max(np.linalg.norm(self.tx_positions, axis=1), initial=0.0))
        rx_local = self.rx_positions - np.array([self.nominal_range_d, 0.0, 0.0])
        r_r = float(np.max(np.linalg.norm(rx_local, axis=1), initial=0.0))
        return r_t, r_r


@dataclass(frozen=True)
class ChannelMatrixPair:
    """Exact and reduced channel matrices for one scene; entries unit modulus."""

    exact_H: np.ndarray
    reduced_H: np.ndarray


def exact_channel_matrix(scene: FarFieldScene) -> np.ndarray:
    """Channel matrix h_ij = exp(-i 2 pi d_ij / lambda) from exact distances.

    The phase is evaluated as a single global factor exp(-i 2 pi d/lambda)
    times exp(-i 2 pi (d_ij - d)/lambda), with the difference computed
    from coordinates directly. That keeps the entry-to-entry phases
    accurate even when d spans millions of wavelengths, where forming
    2 pi d_ij / lambda first would lose the sub-wavelength structure to
    roundoff; the global factor is common to all entries and leaves the
    singular values untouched.
    """
    d = scene.nominal_range_d
    lam = scene.wavelength_lambda
    tx = scene.tx_positions
    rx_local = scene.rx_positions - np.array([d, 0.0, 0.0])
    # d_ij^2 = d^2 + 2 d (vx - tx) + |v - t|^2, with v, t the local offsets
    dx = rx_local[:, 0][:, None] - tx[:, 0][None, :]
    diff_sq = (
        (rx_local[:, 0][:, None] - tx[:, 0][None, :]) ** 2
        + (rx_local[:, 1][:, None] - tx[:, 1][None, :]) ** 2
        + (rx_local[:, 2][:, None] - tx[:, 2][None, :]) ** 2
    )
    excess = 2.0 * d * dx + diff_sq
    dist = np.sqrt(d * d + excess)
    delta = excess / (dist + d)  # d_ij - d without cancellation
    global_phase = np.exp(-2j * math.pi * (d / lam - math.floor(d / lam)))
    return global_phase * np.exp(-2j * math.pi * delta / lam)


def reduced_channel_matrix(
    tx_2d: np.ndarray, rx_2d: np.ndarray, wavelength_lambda: float, range_d: float
) -> np.ndarray:
    """Reduced matrix from projected transverse coordinates only.

    Entries exp(i 2 pi (y_R y_T + z_R z_T) / (lambda d)). Invariant under
    scaling all coordinates by sqrt(s) while the range scales by s.
    """
    tx = np.atleast_2d(np.asarray(tx_2d, dtype=float))
    rx = np.atleast_2d(np.asarray(rx_2d, dtype=float))
    if tx.shape[1] != 2 or rx.shape[1] != 2:
        raise ValidationError("projected coordinates must be 2-D points")
    phase = (np.outer(rx[:, 0], tx[:, 0]) + np.outer(rx[:, 1], tx[:, 1])) / (
        wavelength_lambda * range_d
    )
    return np.exp(2j * math.pi * phase)


def channel_matrix_pair(scene: FarFieldScene) -> ChannelMatrixPair:
    """Exact and reduced matrices for the same scene."""
    d = scene.nominal_range_d
    rx_local = scene.rx_positions - np.array([d, 0.0, 0.0])
    return ChannelMatrixPair(
        exact_H=exact_channel_matrix(scene),
        reduced_H=reduced_channel_matrix(
            scene.tx_positions[:, 1:], rx_local[:, 1:], scene.wavelength_lambda, d
        ),
    )


def lemma1_check(scene: FarFieldScene) -> float:
    """Largest relative gap between sorted singular values of the two matrices.

    Gaps are measured against the largest singular value. The gap shrinks
    as the range grows at fixed transverse layout, since the neglected
    longitudinal and quartic phase terms die off.
    """
    pair = channel_matrix_pair(scene)
    sv_exact = np.linalg.svd(pair.exact_H, compute_uv=False)
    sv_reduced = np.linalg.svd(pair.reduced_H, compute_uv=False)
    return float(np.max(np.abs(sv_exact - sv_reduced)) / sv_exact[0])


@dataclass(frozen=True)
class PartitionCell:
    """One annular-sector cell of the equal-area unit-disc partition."""

    r_lo: float
    r_hi: float
    theta_lo: float
    theta_hi: float
    centroid_r: float
    centroid_theta: float
    clearance: float  # largest disk radius around the centroid staying inside


def equal_area_partition(cell_count: int) -> list[PartitionCell]:
    """Partition of the unit disc into equal-area, near-square polar cells.

    Concentric rings are split into sectors, with sector counts
    apportioned proportionally to ring radius (largest-remainder rounding)
    so that all cells have area exactly pi/cell_count. Ring boundaries
    then follow from the cumulative cell counts. Sample points sit at the
    area centroids of the cells.
    """
    if cell_count < 1:
        raise ValidationError(f"cell count must be positive, got {cell_count}")
    rings = max(1, round(math.sqrt(cell_count / math.pi)))
    quota = [cell_count * (2 * i + 1) / rings**2 for i in range(rings)]
    counts = [max(1, math.floor(q)) for q in quota]
    while sum(counts) > cell_count:
        # only possible via the max(1, .) floor on tiny rings; shrink the largest
        counts[int(np.argmax(counts))] -= 1
    remainders = sorted(
        range(rings), key=lambda i: (quota[i] - math.floor(quota[i]), i), reverse=True
    )
    idx = 0
    while sum(counts) < cell_count:
        counts[remainders[idx % rings]] += 1
        idx += 1

    bounds = np.sqrt(np.cumsum([0] + counts) / cell_count)
    cells = []
    for i in range(rings):
        r_lo, r_hi = float(bounds[i]), float(bounds[i + 1])
        n_sec = counts[i]
        phi = 2.0 * math.pi / n_sec
        if n_sec == 1 and r_lo == 0.0:
            # central disk: centroid at the origin, clearance the full radius
            cells.append(PartitionCell(0.0, r_hi, 0.0, 2.0 * math.pi, 0.0, 0.0, r_hi))
            continue
        r_bar = (2.0 / 3.0) * (r_hi**3 - r_lo**3) / (r_hi**2 - r_lo**2)
        r_bar *= math.sin(phi / 2.0) / (phi / 2.0)
        side = r_bar * math.sin(min(phi / 2.0, math.pi / 2.0))
        clearance = min(r_bar - r_lo, r_hi - r_bar, side)
        for s in range(n_sec):
            theta_lo = phi * s
            cells.append(
                PartitionCell(
                    r_lo, r_hi, theta_lo, theta_lo + phi, r_bar, theta_lo + phi / 2.0, clearance
                )
            )
    return cells


@dataclass(frozen=True)
class ArrayDesign:
    """A finite K-stream distributed array over N equal-area cells.

    Element positions are the physical cell centroids; each element owns a
    sub-aperture of area A_T/N (transmit) or A_R/N (receive). Stream
    weight rows are eigenfunction samples at the element positions, scaled
    by sqrt(|S|/A) and normalized so each antenna function has exactly
    unit norm under the sub-aperture measure. Stream powers are the
    waterfill allocation over the top-K effective gains and sum to P.
    """

    cell_count_N: int
    tx_elements: np.ndarray  # N x 3 rows (x, y, sub-aperture area)
    rx_elements: np.ndarray
    stream_weights_tx: np.ndarray  # K x N complex
    stream_weights_rx: np.ndarray
    stream_powers: np.ndarray
    mode_indices: tuple[tuple[int, int], ...]


def _pchip(knots: np.ndarray, values: np.ndarray):
    """Monotone piecewise-cubic Hermite interpolant (Fritsch & Carlson 1980).

    Knot slopes are the weighted harmonic mean of the neighbouring secant
    slopes, zero where those differ in sign or vanish, with one-sided end
    slopes (Moler, Numerical Computing with MATLAB, 3.6). The slopes, the
    cubic coefficients and the order of evaluation are those of SciPy's
    PchipInterpolator, so the two agree bit for bit. Needs three or more
    strictly increasing knots; points outside extend the end cubics.
    """
    h = np.diff(knots)
    m = np.diff(values) / h
    d = np.zeros_like(values)
    w1 = 2.0 * h[1:] + h[:-1]
    w2 = h[1:] + 2.0 * h[:-1]
    mean = (np.sign(m[1:]) == np.sign(m[:-1])) & (m[1:] != 0.0) & (m[:-1] != 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        harmonic = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
    d[1:-1][mean] = 1.0 / harmonic[mean]
    # one-sided three-point end slopes, clamped to preserve shape
    h0, h1, m0, m1 = h[[0, -1]], h[[1, -2]], m[[0, -1]], m[[1, -2]]
    ends = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    clamp = (np.sign(m0) != np.sign(m1)) & (np.abs(ends) > 3.0 * np.abs(m0))
    d[[0, -1]] = np.where(np.sign(ends) != np.sign(m0), 0.0, np.where(clamp, 3.0 * m0, ends))
    # power-basis coefficients of each interval, in s = r - knots[i]
    t = (d[:-1] + d[1:] - 2.0 * m) / h
    a3, a2, a1, a0 = t / h, (m - d[:-1]) / h - t, d[:-1], values[:-1]

    def evaluate(r: np.ndarray) -> np.ndarray:
        i = np.clip(np.searchsorted(knots, r, side="right") - 1, 0, h.size - 1)
        s = r - knots[i]
        z = s * s
        # SciPy's PPoly order: a sum from 0.0 up from the constant term, s^3 as (s s) s
        return 0.0 + a0[i] + a1[i] * s + a2[i] * z + a3[i] * (z * s)

    return evaluate


def _radial_interpolator(spectrum: OperatorSpectrum, index: int):
    """Monotone cubic interpolant of the radial eigenfunction of mode `index`.

    index is the mode's position in the spectrum columns. The quadrature
    nodes are interior, so the endpoints are filled in first: R(0) vanishes
    for |N| >= 1, and both R(0) for N = 0 and R(1) follow from pushing the
    sampled eigenfunction through the integral equation once.
    """
    order = abs(int(spectrum.angular_N[index]))
    radial_m = int(spectrum.radial_m[index])
    samples = spectrum.radial_samples[(order, radial_m)]
    beta = float(spectrum.beta[index])
    if abs(beta) < 1.0e-12:
        raise ValidationError(
            f"mode (N={order}, m={radial_m}) eigenvalue too small to interpolate"
        )
    rule = spectrum.quadrature
    c = spectrum.geometry.c_param
    weighted = rule.weights * samples * rule.nodes
    if order == 0:
        value_0 = float(np.sum(weighted)) / beta  # J_0(0) = 1
    else:
        value_0 = 0.0
    bessel_at_1 = bessel_j_table(order, c * rule.nodes)[order]
    value_1 = float(np.sum(bessel_at_1 * weighted)) / beta
    knots = np.concatenate(([0.0], rule.nodes, [1.0]))
    values = np.concatenate(([value_0], samples, [value_1]))
    return _pchip(knots, values)


def synthesize_array(
    spectrum: OperatorSpectrum,
    area_S: float,
    stream_count_K: int,
    cell_count_N: int,
    link: LinkBudget,
) -> ArrayDesign:
    """Build the K-stream distributed array on N equal-area cells.

    The top K spectrum modes become streams. Tx and rx share the same
    partition of their (equal-area) discs; every element's sub-aperture
    disk must fit inside its cell, otherwise the cell count is too small
    and the call is rejected.
    """
    if stream_count_K < 1:
        raise ValidationError(f"stream count must be positive, got {stream_count_K}")
    if cell_count_N < stream_count_K:
        raise ValidationError(
            f"cell count {cell_count_N} must be at least the stream count {stream_count_K}"
        )
    if stream_count_K > spectrum.nu_sq.size:
        raise ValidationError(
            f"stream count {stream_count_K} exceeds available modes {spectrum.nu_sq.size} "
            f"(the spectrum keeps only modes at or above EPS = {EPS:g} of the top one)"
        )
    if spectrum.radial_samples is None:
        raise ValidationError("spectrum was assembled without radial samples")
    from .bounds import _check_spectrum_matches, effective_gains

    _check_spectrum_matches(area_S, link, spectrum)
    geometry = spectrum.geometry
    radius = geometry.radius_R

    cells = equal_area_partition(cell_count_N)
    clearance_unit = min(c.clearance for c in cells)
    for name, aperture in (("transmit", link.aperture_tx_AT), ("receive", link.aperture_rx_AR)):
        sub_radius = math.sqrt(aperture / cell_count_N / math.pi)
        if sub_radius > clearance_unit * radius:
            raise ValidationError(
                f"{name} sub-aperture radius {sub_radius:.6g} does not fit inside the "
                f"tightest cell (clearance {clearance_unit * radius:.6g}); "
                f"increase the cell count"
            )

    centroid_r = np.array([c.centroid_r for c in cells])
    centroid_theta = np.array([c.centroid_theta for c in cells])
    xy = radius * np.column_stack(
        (centroid_r * np.cos(centroid_theta), centroid_r * np.sin(centroid_theta))
    )
    tx_area = link.aperture_tx_AT / cell_count_N
    rx_area = link.aperture_rx_AR / cell_count_N
    tx_elements = np.column_stack((xy, np.full(cell_count_N, tx_area)))
    rx_elements = np.column_stack((xy, np.full(cell_count_N, rx_area)))

    streams = slice(stream_count_K)
    modes = tuple(zip(spectrum.angular_N[streams].tolist(), spectrum.radial_m[streams].tolist()))
    interpolators = {}
    rows = []
    for index, (angular_N, radial_m) in enumerate(modes):
        key = (abs(angular_N), radial_m)
        if key not in interpolators:
            interpolators[key] = _radial_interpolator(spectrum, index)
        radial_vals = interpolators[key](centroid_r)
        # eigenfunction on the physical disc: psi(u/R)/R, unit L2 norm over the disc
        rows.append(radial_vals * np.exp(1j * angular_N * centroid_theta) / radius)
    eig_samples = np.array(rows)

    weights_tx = math.sqrt(area_S / link.aperture_tx_AT) * eig_samples
    weights_rx = math.sqrt(area_S / link.aperture_rx_AR) * eig_samples
    # exact unit norm under the sub-aperture measure (A/N per element)
    norm_tx = np.sqrt(tx_area * np.sum(np.abs(weights_tx) ** 2, axis=1))
    norm_rx = np.sqrt(rx_area * np.sum(np.abs(weights_rx) ** 2, axis=1))
    weights_tx /= norm_tx[:, None]
    weights_rx /= norm_rx[:, None]

    gains = effective_gains(area_S, link, spectrum)[:stream_count_K]
    alloc = waterfill(
        ChannelGains(gains_eta_sq=gains, noise_floor_BN0=link.bandwidth_B * link.noise_psd_N0),
        link.power_P,
    )

    return ArrayDesign(
        cell_count_N=cell_count_N,
        tx_elements=tx_elements,
        rx_elements=rx_elements,
        stream_weights_tx=weights_tx,
        stream_weights_rx=weights_rx,
        stream_powers=alloc.powers_Pn,
        mode_indices=modes,
    )


def finite_array_gram(design: ArrayDesign, geometry: DiscGeometry) -> np.ndarray:
    """K x K channel Gram of the finite array under the disc kernel.

    Each element contributes a midpoint evaluation of the kernel times its
    sub-aperture area. As the cell count grows the Gram approaches
    sqrt(A_T A_R / |S|^2) nu_n on the diagonal and zero elsewhere.
    """
    tx_xy, tx_area = design.tx_elements[:, :2], float(design.tx_elements[0, 2])
    rx_xy, rx_area = design.rx_elements[:, :2], float(design.rx_elements[0, 2])
    lam_d = geometry.wavelength_lambda * geometry.range_d
    kernel_amp = math.sqrt(geometry.loss_L) / lam_d
    phase = (2.0 * math.pi / lam_d) * (
        np.outer(rx_xy[:, 0], tx_xy[:, 0]) + np.outer(rx_xy[:, 1], tx_xy[:, 1])
    )
    kernel = kernel_amp * np.exp(1j * phase)
    return (tx_area * rx_area) * (
        np.conj(design.stream_weights_rx) @ kernel @ design.stream_weights_tx.T
    )


def achieved_efficiency(
    design: ArrayDesign, geometry: DiscGeometry, link: LinkBudget
) -> float:
    """Spectral efficiency the finite array actually achieves, in bits/s/Hz.

    Takes the singular values of the finite Gram, pairs them with the
    stream powers in sorted order, and sums the per-stream rates.
    """
    gram = finite_array_gram(design, geometry)
    sv = np.linalg.svd(gram, compute_uv=False)
    powers = np.sort(np.asarray(design.stream_powers))[::-1]
    noise = link.bandwidth_B * link.noise_psd_N0
    snr = sv**2 * powers / noise
    return float(np.sum(np.log1p(snr)) / math.log(2.0))


# The json.dumps(indent=2) layout of one element, one [re, im] weight pair
# and one mode index in the design record; %r writes the float repr json does.
_ELEMENT = '    {\n      "x": %r,\n      "y": %r,\n      "area": %r\n    }'
_PAIR = "      [\n        %r,\n        %r\n      ]"
_MODE = "    [\n      %d,\n      %d\n    ]"


def _json_list(item: str, count: int, values: list) -> str:
    return "[\n" + ",\n".join([item] * count) % tuple(values) + "\n  ]"


def design_json(design: ArrayDesign) -> str:
    """The design record as the text json.dumps(record, indent=2) + "\n" writes.

    The record is {schema_version: 1, N, K, elements, weights, powers,
    elements_rx, weights_rx, modes}: transmit side first, the receive side
    under the _rx suffix. Each element and [re, im] pair goes through one
    repeated %r template, not the pure-Python indenting encoder. JSON has
    no non-finite numbers, so one raises ValidationError naming its field.
    """
    tables = {
        "elements": design.tx_elements,
        "weights": design.stream_weights_tx,
        "powers": design.stream_powers,
        "elements_rx": design.rx_elements,
        "weights_rx": design.stream_weights_rx,
    }
    for name, table in tables.items():
        if not np.isfinite(table).all():
            raise ValidationError(f"array design field {name!r} holds a non-finite value")
    k, n = design.stream_weights_tx.shape
    row = "    [\n" + ",\n".join([_PAIR] * n) + "\n    ]"

    def elements(table: np.ndarray) -> str:
        return _json_list(_ELEMENT, len(table), table.ravel().tolist())

    def weights(table: np.ndarray) -> str:
        return _json_list(row, k, np.stack((table.real, table.imag), axis=-1).ravel().tolist())

    fields = (
        ("schema_version", "1"),
        ("N", repr(design.cell_count_N)),
        ("K", repr(k)),
        ("elements", elements(tables["elements"])),
        ("weights", weights(tables["weights"])),
        ("powers", _json_list("    %r", k, tables["powers"].tolist())),
        ("elements_rx", elements(tables["elements_rx"])),
        ("weights_rx", weights(tables["weights_rx"])),
        ("modes", _json_list(_MODE, k, [i for mode in design.mode_indices for i in mode])),
    )
    return "{\n" + ",\n".join(f'  "{key}": {text}' for key, text in fields) + "\n}\n"
