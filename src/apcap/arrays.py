"""Far-field channel matrices and constructive distributed-array synthesis.

Two layers live here. The first builds explicit channel matrices from
element positions, a wavelength and a range: the exact matrix from
pairwise 3-D distances and the reduced matrix from projected transverse
coordinates, whose singular values agree in the far field. Nothing here
gates the range against the cluster radius: lemma1_check measures the gap
between the two, and it shrinks as the range grows. The second
approximates the leading operator eigenfunctions by simple functions on
an equal-area partition of the synthesis disc, yielding a finite K-stream
array whose Gram matrix approaches the diagonal operator limit and whose
efficiency approaches the waterfilled lower bound as the cell count grows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import check_area_floor, effective_gains
from .link import LinkBudget, ValidationError
from .numerics import bessel_j_table
from .spectrum import (
    DEFAULT_TRUNCATION,
    EPS,
    DiscGeometry,
    OperatorSpectrum,
    Truncation,
    assemble_spectrum,
)
from .waterfill import waterfill


def exact_channel_matrix(
    tx_positions: np.ndarray, rx_positions: np.ndarray, wavelength_lambda: float, range_d: float
) -> np.ndarray:
    """Channel matrix h_ij = exp(-i 2 pi d_ij / lambda) from exact distances.

    Transmit positions cluster around the origin, receive positions around
    (d, 0, 0), both as rows of 3-D points. The phase is evaluated as a
    single global factor exp(-i 2 pi d/lambda) times
    exp(-i 2 pi (d_ij - d)/lambda), with the difference computed from
    coordinates directly. That keeps the entry-to-entry phases accurate
    even when d spans millions of wavelengths, where forming
    2 pi d_ij / lambda first would lose the sub-wavelength structure to
    roundoff; the global factor is common to all entries and leaves the
    singular values untouched.
    """
    tx = np.atleast_2d(np.asarray(tx_positions, dtype=float))
    rx = np.atleast_2d(np.asarray(rx_positions, dtype=float))
    if tx.shape[1] != 3 or rx.shape[1] != 3:
        raise ValidationError("element positions must be 3-D points")
    if not (wavelength_lambda > 0.0 and range_d > 0.0):
        raise ValidationError("wavelength and range must be positive")
    d = range_d
    lam = wavelength_lambda
    rx_local = rx - np.array([d, 0.0, 0.0])
    # d_ij^2 = d^2 + 2 d (vx - tx) + |v - t|^2, with v, t the local offsets
    dx = rx_local[:, 0][:, None] - tx[:, 0][None, :]
    diff_sq = (
        dx**2
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


def lemma1_check(
    tx_positions: np.ndarray, rx_positions: np.ndarray, wavelength_lambda: float, range_d: float
) -> float:
    """Largest relative gap between sorted singular values of the two matrices.

    The exact matrix takes the 3-D positions, the reduced one their (y, z)
    coordinates. Gaps are measured against the largest singular value. The
    gap shrinks as the range grows at fixed transverse layout, since the
    neglected longitudinal and quartic phase terms die off.
    """
    exact = exact_channel_matrix(tx_positions, rx_positions, wavelength_lambda, range_d)
    tx, rx = np.atleast_2d(tx_positions, rx_positions)
    reduced = reduced_channel_matrix(tx[:, 1:], rx[:, 1:], wavelength_lambda, range_d)
    sv_exact = np.linalg.svd(exact, compute_uv=False)
    sv_reduced = np.linalg.svd(reduced, compute_uv=False)
    return float(np.max(np.abs(sv_exact - sv_reduced)) / sv_exact[0])


def equal_area_partition(cell_count: int) -> tuple[np.ndarray, ...]:
    """Partition of the unit disc into equal-area, near-square polar cells.

    Concentric rings are split into sectors, with sector counts
    apportioned proportionally to ring radius (largest-remainder rounding)
    so that all cells have area exactly pi/cell_count. Ring boundaries
    then follow from the cumulative cell counts. Sample points sit at the
    area centroids of the cells.

    Returns (edges, counts, centroid_r, centroid_theta, clearance): the
    ring edges rising from 0 to 1 and the cell count of each ring, then,
    per cell, ring by ring outward and by angle within a ring, the
    centroid's radius and angle and the largest disk radius around the
    centroid that stays inside the cell.
    """
    if cell_count < 1:
        raise ValidationError(f"cell count must be positive, got {cell_count}")
    rings = max(1, round(math.sqrt(cell_count / math.pi)))
    quota = [cell_count * (2 * i + 1) / rings**2 for i in range(rings)]
    # every ring gets a cell: the innermost quota N/rings^2 is at least 1, as
    # N >= pi (k - 1/2)^2 >= k^2 for rings = k >= 2, and N >= 1 for one ring
    counts = [math.floor(q) for q in quota]
    remainders = sorted(
        range(rings), key=lambda i: (quota[i] - math.floor(quota[i]), i), reverse=True
    )
    # the shortfall is the sum of the rings' fractional quotas, under one per ring
    for i in remainders[: cell_count - sum(counts)]:
        counts[i] += 1

    edges = np.sqrt(np.cumsum([0] + counts) / cell_count)
    radii, angles, clearances = [], [], []
    for r_lo, r_hi, n_sec in zip(edges[:-1].tolist(), edges[1:].tolist(), counts):
        phi = 2.0 * math.pi / n_sec
        if n_sec == 1 and r_lo == 0.0:
            # central disk: centroid at the origin (angle 0, not pi), clearance the full radius
            r_bar, theta, clearance = 0.0, np.zeros(1), r_hi
        else:
            r_bar = (2.0 / 3.0) * (r_hi**3 - r_lo**3) / (r_hi**2 - r_lo**2)
            r_bar *= math.sin(phi / 2.0) / (phi / 2.0)
            side = r_bar * math.sin(min(phi / 2.0, math.pi / 2.0))
            clearance = min(r_bar - r_lo, r_hi - r_bar, side)
            theta = phi * np.arange(n_sec) + phi / 2.0
        radii.append(np.full(n_sec, r_bar))
        angles.append(theta)
        clearances.append(np.full(n_sec, clearance))
    return edges, np.array(counts), *map(np.concatenate, (radii, angles, clearances))


@dataclass(frozen=True)
class ArrayDesign:
    """A finite K-stream distributed array over N equal-area cells of one link.

    Tx and rx share the element positions, the physical cell centroids;
    each element owns a sub-aperture of area A_T/N (transmit) or A_R/N
    (receive). Stream weight rows are eigenfunction samples at the element
    positions, scaled by sqrt(|S|/A) and normalized so each antenna
    function has exactly unit norm under the sub-aperture measure. Stream
    powers are the waterfill allocation over the top-K effective gains and
    sum to P.
    """

    link: LinkBudget
    positions: np.ndarray  # N x 2 rows (x, y) in meters
    stream_weights_tx: np.ndarray  # K x N complex
    stream_weights_rx: np.ndarray
    stream_powers: np.ndarray
    mode_indices: tuple[tuple[int, int], ...]

    @property
    def sub_areas(self) -> tuple[float, float]:
        """Each element's transmit and receive sub-aperture area, A_T/N and A_R/N."""
        n = len(self.positions)
        return self.link.aperture_tx_AT / n, self.link.aperture_rx_AR / n


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
    samples = spectrum.radial_samples[order][:, radial_m]
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
    bessel_at_1 = bessel_j_table(order, c * rule.nodes, range(order, order + 1))[0]
    value_1 = float(np.sum(bessel_at_1 * weighted)) / beta
    knots = np.concatenate(([0.0], rule.nodes, [1.0]))
    values = np.concatenate(([value_0], samples, [value_1]))
    return _pchip(knots, values)


def synthesize_array(
    link: LinkBudget,
    area_S: float,
    stream_count_K: int,
    cell_count_N: int,
    truncation: Truncation = DEFAULT_TRUNCATION,
) -> ArrayDesign:
    """Build the K-stream distributed array on N equal-area cells.

    The disc of area |S| takes the link's wavelength, range and loss, and
    its spectrum is solved with radial samples at the given truncation;
    its top K modes become streams. Tx and rx share the same partition of
    that disc. |S| must be at least max(A_T, A_R), and every element's
    sub-aperture disk must fit inside its cell, otherwise the cell count is
    too small and the call is rejected; the link passed the far-field gate
    when it was built.
    """
    geometry = DiscGeometry(area_S, link.wavelength_lambda, link.range_d, link.loss_L)
    if stream_count_K < 1:
        raise ValidationError(f"stream count must be positive, got {stream_count_K}")
    if cell_count_N < stream_count_K:
        raise ValidationError(
            f"cell count {cell_count_N} must be at least the stream count {stream_count_K}"
        )
    check_area_floor(area_S, link)
    # the radial solve is the costly step, so every check that does not need it comes first
    radius = geometry.radius_R
    _, _, centroid_r, centroid_theta, clearance = equal_area_partition(cell_count_N)
    clearance_unit = clearance.min()
    for name, aperture in (("transmit", link.aperture_tx_AT), ("receive", link.aperture_rx_AR)):
        sub_radius = math.sqrt(aperture / cell_count_N / math.pi)
        if sub_radius > clearance_unit * radius:
            raise ValidationError(
                f"{name} sub-aperture radius {sub_radius:.6g} does not fit inside the "
                f"tightest cell (clearance {clearance_unit * radius:.6g}); "
                f"increase the cell count"
            )
    spectrum = assemble_spectrum(geometry, *truncation)
    if stream_count_K > spectrum.nu_sq.size:
        raise ValidationError(
            f"stream count {stream_count_K} exceeds available modes {spectrum.nu_sq.size} "
            f"(the spectrum keeps only modes at or above EPS = {EPS:g} of the top one)"
        )

    positions = radius * np.column_stack(
        (centroid_r * np.cos(centroid_theta), centroid_r * np.sin(centroid_theta))
    )

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

    # validate the gains first: where they are refused, the weights below overflow
    gains = effective_gains(link, spectrum)[:stream_count_K]
    alloc = waterfill(gains, link.noise_floor_BN0, link.power_P)

    def normalized(aperture: float) -> np.ndarray:
        weights = math.sqrt(area_S / aperture) * eig_samples
        # exact unit norm under the sub-aperture measure (A/N per element)
        norms = np.sqrt(aperture / cell_count_N * np.sum(np.abs(weights) ** 2, axis=1))
        weights /= norms[:, None]
        return weights

    return ArrayDesign(
        link=link,
        positions=positions,
        stream_weights_tx=normalized(link.aperture_tx_AT),
        stream_weights_rx=normalized(link.aperture_rx_AR),
        stream_powers=alloc.powers_Pn,
        mode_indices=modes,
    )


def finite_array_gram(design: ArrayDesign) -> np.ndarray:
    """K x K channel Gram of the finite array under the disc kernel of its link.

    Each element contributes a midpoint evaluation of the kernel times its
    sub-aperture area. As the cell count grows the Gram approaches
    sqrt(A_T A_R / |S|^2) nu_n on the diagonal and zero elsewhere.
    """
    tx_area, rx_area = design.sub_areas
    x, y = design.positions.T
    link = design.link
    lam_d = link.wavelength_lambda * link.range_d
    kernel_amp = math.sqrt(link.loss_L) / lam_d
    phase = (2.0 * math.pi / lam_d) * (np.outer(x, x) + np.outer(y, y))
    kernel = kernel_amp * np.exp(1j * phase)
    return (tx_area * rx_area) * (
        np.conj(design.stream_weights_rx) @ kernel @ design.stream_weights_tx.T
    )


def achieved_efficiency(design: ArrayDesign) -> float:
    """Spectral efficiency the finite array actually achieves on its link, in bits/s/Hz.

    Takes the singular values of the finite Gram, pairs them with the
    stream powers in sorted order, and sums the per-stream rates.
    """
    sv = np.linalg.svd(finite_array_gram(design), compute_uv=False)
    powers = np.sort(np.asarray(design.stream_powers))[::-1]
    snr = sv**2 * powers / design.link.noise_floor_BN0
    return float(np.sum(np.log1p(snr)) / math.log(2.0))


# The json.dumps(indent=2) layout of one element and one mode index in the
# design record; %r writes the float repr json does. The area is the same for
# every element, so it is filled in first, past the escaped x and y slots.
_ELEMENT = '    {\n      "x": %%r,\n      "y": %%r,\n      "area": %r\n    }'
_MODE = "    [\n      %d,\n      %d\n    ]"
# one weight row: the text between and around its [re, im] pairs
_ROW_OPEN = "    [\n      [\n        "
_PAIR_MID = ",\n        "
_PAIR_NEXT = "\n      ],\n      [\n        "
_ROW_CLOSE = "\n      ]\n    ]"
_SIGN_BIT = np.uint64(1 << 63)


def _json_list(items: list[str]) -> list[str]:
    """The pieces of a record-level list whose items are already laid out."""
    pieces = [",\n"] * (2 * len(items) - 1)
    pieces[::2] = items
    return ["[\n", *pieces, "\n  ]"]


def _float_reprs(values: np.ndarray) -> list[str]:
    """repr of each value, each distinct bit pattern formatted once when most repeat a neighbour."""
    bits = values.view(np.uint64)
    if 2 * np.count_nonzero(bits[1:] == bits[:-1]) < bits.size:
        return list(map(repr, values.tolist()))
    distinct, inverse = np.unique(bits, return_inverse=True)
    text = np.array(list(map(repr, distinct.view(np.float64).tolist())), dtype=object)
    return text[inverse].tolist()


def _weight_rows(table: np.ndarray) -> list[str]:
    """The text of each K x N weight row, as a list of N [re, im] pairs."""
    k, n = table.shape
    re, im = table.real, table.imag
    re_bits, im_bits = re.view(np.uint64), im.view(np.uint64)
    layout = [_ROW_OPEN] + [None, _PAIR_MID, None, _PAIR_NEXT] * n
    layout[-1] = _ROW_CLOSE
    rows = []
    for i in range(k):
        if (
            i > 0
            and np.array_equal(re_bits[i], re_bits[i - 1])
            and np.array_equal(im_bits[i], im_bits[i - 1] ^ _SIGN_BIT)
        ):
            # the conjugate of the row above: repr(-x) is "-" + repr(x) for every finite x
            im_text = [s[1:] if s[0] == "-" else "-" + s for s in im_text]
        else:
            text = _float_reprs(np.concatenate((re[i], im[i])))
            re_text, im_text = text[:n], text[n:]
        pieces = layout.copy()
        pieces[1::4] = re_text
        pieces[3::4] = im_text
        rows.append("".join(pieces))
    return rows


def design_json(design: ArrayDesign) -> list[str]:
    """The design record as pieces that join to json.dumps(record, indent=2) + "\n".

    The record is {schema_version: 1, N, K, elements, weights, powers,
    elements_rx, weights_rx, modes}: transmit side first, the receive side
    under the _rx suffix. The pieces follow the record: each weight row is
    one piece, each other field's value is one piece, and each key and
    separator is one more, so their count depends on K alone and the text
    is never held as one string. A caller writes them as they are: a
    weight row or an element list is the bulk of a large design, so the
    writes stay few. Nothing goes through the pure-Python indenting
    encoder, and each float's text is its repr, as json writes it. A
    weight row formats only what its bits need:

    - a row whose real part is bit-identical to the row above's, and whose
      imaginary part is the row above's with every sign bit flipped, is
      that row's conjugate, as the (-N, m) stream is the (N, m) one's. It
      reuses the row above's strings, each imaginary one with its leading
      "-" toggled, which is exact since repr(-x) is "-" + repr(x) for every
      finite double, -0.0 and subnormals included;
    - any other row most of whose values repeat their neighbour, as an
      N = 0 stream's do (one value per ring, a zero imaginary part),
      formats each distinct bit pattern once;
    - every other row maps repr over its values once.

    The reuse compares bits and assumes no mode structure. The two sides
    share the element positions; each is normalized under its own
    sub-aperture measure, so the receive weights are the transmit weights
    times sqrt(A_T/A_R). When A_T/N = A_R/N, elements_rx reuses the
    elements piece, and when the two weight tables are bit-identical,
    weights_rx reuses the transmit row pieces likewise. JSON has
    no non-finite numbers, so one raises ValidationError naming its field
    before any piece is formatted.
    """
    tables = {
        "elements": design.positions,
        "weights": design.stream_weights_tx,
        "powers": design.stream_powers,
        "weights_rx": design.stream_weights_rx,
    }
    for name, table in tables.items():
        if not np.isfinite(table).all():
            raise ValidationError(f"array design field {name!r} holds a non-finite value")
    k, n = design.stream_weights_tx.shape
    xy = design.positions.tolist()

    def elements(area: float) -> str:
        element = _ELEMENT % area
        return "".join(_json_list([element % (x, y) for x, y in xy]))

    tx_area, rx_area = design.sub_areas
    elements_tx = elements(tx_area)
    rows_tx = _weight_rows(design.stream_weights_tx)
    rx = design.stream_weights_rx
    # compare the bits: 0.0 == -0.0, but their reprs differ
    same_rows = np.array_equal(design.stream_weights_tx.view(np.int64), rx.view(np.int64))
    fields = (
        ("schema_version", ["1"]),
        ("N", [repr(n)]),
        ("K", [repr(k)]),
        ("elements", [elements_tx]),
        ("weights", _json_list(rows_tx)),
        ("powers", ["".join(_json_list(["    %r" % p for p in design.stream_powers.tolist()]))]),
        ("elements_rx", [elements_tx if rx_area == tx_area else elements(rx_area)]),
        ("weights_rx", _json_list(rows_tx if same_rows else _weight_rows(rx))),
        ("modes", ["".join(_json_list([_MODE % mode for mode in design.mode_indices]))]),
    )
    pieces = ["{\n"]
    for key, items in fields:
        pieces += [f'  "{key}": ', *items, ",\n"]
    pieces[-1] = "\n}\n"
    return pieces
