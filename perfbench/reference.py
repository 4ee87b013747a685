"""Independent numpy-only references for checking apcap outputs.

Nothing here imports apcap. Every quantity is recomputed from the link
parameters by a route of its own:

- eps0 by plain bisection of e = exp(2 (1 - 1/e)) down to adjacent floats;
- Gauss-Legendre nodes from numpy.polynomial.legendre.leggauss;
- J_n(x) for all orders at once from the periodic trapezoid rule for
  J_n(x) = (1/2 pi) int_0^{2 pi} cos(n t - x sin t) dt, evaluated by FFT;
- the radial Nystrom eigenvalues with a truncation chosen here (a quadrature
  order of 2c + 32 and angular orders until their top eigenvalue is
  negligible), not the program's;
- waterfilling by the closed-form level over every prefix at once;
- the finite-array Gram of an emitted design, built in row blocks.

With the link budget reduced to received SNR gamma*g, the per-mode SNR of
mode k is 4 gamma*g beta_k^2: the disc area enters only through
c = 2 |S| / (lambda d).
"""

from __future__ import annotations

import math

import numpy as np

LOG2 = math.log(2.0)

# Angular orders stop once their top eigenvalue squared falls below this
# share of the strongest one: such modes sit far under any water level.
NEGLIGIBLE_NU_SQ = 1.0e-24


def solve_eps0() -> float:
    """Root e > 1 of e = exp(2 (1 - 1/e)), bisected until the bracket is two adjacent floats."""

    def f(e: float) -> float:
        return e - math.exp(2.0 * (1.0 - 1.0 / e))

    lo, hi = 2.0, 10.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return lo if abs(f(lo)) <= abs(f(hi)) else hi
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid


def upper_bound(gamma_g: float, eps0: float) -> float:
    """log2(1 + gamma*g) up to eps0 - 1, sqrt(gamma*g / (eps0 - 1)) log2(eps0) above."""
    if gamma_g <= eps0 - 1.0:
        return math.log2(1.0 + gamma_g)
    return strong_approx(gamma_g, eps0)


def strong_approx(gamma_g: float, eps0: float) -> float:
    return math.sqrt(gamma_g / (eps0 - 1.0)) * math.log(eps0) / LOG2


def bessel_table(max_order: int, x: np.ndarray) -> np.ndarray:
    """J_n(x) for n = 0..max_order, shape (max_order + 1, x.size).

    exp(i x sin t) = sum_n J_n(x) exp(i n t), so the discrete Fourier
    transform of M equispaced samples gives J_n(x) up to aliasing by
    J_{M-n}(x), which is below 1e-25 once M - n exceeds 2x + 64.
    """
    x = np.asarray(x, dtype=float).ravel()
    m = 64
    while m < max_order + 2.0 * float(x.max(initial=0.0)) + 64.0:
        m *= 2
    t = np.sin(2.0 * math.pi * np.arange(m) / m)
    out = np.empty((max_order + 1, x.size))
    block = max(1, (1 << 20) // m)
    for start in range(0, x.size, block):
        xs = x[start:start + block]
        coeff = np.fft.fft(np.exp(1j * xs[:, None] * t[None, :]), axis=1)
        out[:, start:start + block] = coeff[:, : max_order + 1].real.T / m
    return out


def radial_betas(c: float) -> np.ndarray:
    """Nystrom eigenvalues beta of J_N(c r r') r' on [0, 1], every angular order.

    Orders run upward until the top eigenvalue of an order is negligible;
    modes with N != 0 appear twice (+N and -N). Returned in no particular
    order.
    """
    q = 2 * int(math.ceil(c)) + 32
    x, w = np.polynomial.legendre.leggauss(q)
    r = 0.5 * (x + 1.0)
    scale = np.sqrt(r * 0.5 * w)
    sym = np.outer(scale, scale)
    iu = np.triu_indices(q)
    # J_N(x) for x <= c is far below 1e-20 by N = 2c + 40
    max_order = 2 * int(math.ceil(c)) + 40
    table = bessel_table(max_order, c * np.outer(r, r)[iu])
    betas = []
    top = 0.0
    for n in range(max_order + 1):
        kern = np.zeros((q, q))
        kern[iu] = table[n]
        kern = kern + np.triu(kern, 1).T
        vals = np.linalg.eigvalsh(kern * sym)
        peak = float(np.max(np.abs(vals)))
        top = max(top, peak)
        if peak * peak < NEGLIGIBLE_NU_SQ * top * top:
            return np.concatenate(betas)
        betas.append(vals if n == 0 else np.concatenate((vals, vals)))
    raise RuntimeError(f"angular orders up to {max_order} still carry mass at c = {c:.6g}")


def waterfill_bits(snr_gains: np.ndarray) -> tuple[float, int]:
    """Waterfilled efficiency in bits and active count, for unit total power.

    snr_gains are per-mode SNRs at full power. With floors f_k = 1/s_k in
    ascending order the level over the first K modes is (1 + sum f_k)/K;
    the active set is the longest prefix whose last floor lies below its
    level, and the efficiency is sum log2(level / f_k) over it.
    """
    s = np.sort(snr_gains[snr_gains > 0.0])[::-1]
    floors = 1.0 / s
    counts = np.arange(1, s.size + 1)
    levels = (1.0 + np.cumsum(floors)) / counts
    active = int(np.nonzero(levels >= floors)[0][-1]) + 1
    bits = float(np.sum(np.log(levels[active - 1] / floors[:active]))) / LOG2
    return bits, active


def lower_bound(gamma_g: float, area: float, lam_d: float, spectra: dict[float, np.ndarray]
                ) -> tuple[float, int]:
    """Waterfilled lower bound in bits and its active stream count, at one disc area.

    spectra memoizes radial_betas by c = 2 pi R^2 / (lambda d) = 2 |S| / (lambda d).
    """
    c = 2.0 * area / lam_d
    if c not in spectra:
        spectra[c] = radial_betas(c)
    betas = spectra[c]
    return waterfill_bits(4.0 * gamma_g * betas * betas)


def array_efficiency(design: dict, lam_d: float, loss: float, noise: float) -> float:
    """Efficiency in bits the emitted finite array achieves, from its JSON alone.

    G = a_T a_R conj(W_rx) H W_tx^T with H_ij = sqrt(L)/(lambda d)
    exp(i 2 pi <u_i, v_j> / (lambda d)); rates pair the singular values of
    G with the stream powers, both in descending order. H is formed one
    block of receive elements at a time, in single precision: its rounding,
    near 1e-6 relative, is far inside the tolerance the check applies.
    """
    tx = np.array([(e["x"], e["y"]) for e in design["elements"]])
    rx = np.array([(e["x"], e["y"]) for e in design["elements_rx"]])
    w_tx = _complex_rows(design["weights"])
    w_rx = _complex_rows(design["weights_rx"])
    a_tx = design["elements"][0]["area"]
    a_rx = design["elements_rx"][0]["area"]
    k = 2.0 * math.pi / lam_d
    streams = w_tx.shape[0]
    # H W^T = (C + iS)(Wr + iWi) with C = cos(phase) and S = sin(phase)
    parts = np.concatenate((w_tx.real, w_tx.imag)).T.astype(np.float32)  # N x 2K
    gram = np.zeros((streams, streams), dtype=complex)
    rx_k = (k * rx).astype(np.float32)
    tx_x, tx_y = tx.T.astype(np.float32)
    block = max(1, (1 << 22) // tx.shape[0])
    for start in range(0, rx.shape[0], block):
        phase = np.outer(rx_k[start:start + block, 0], tx_x)
        phase += np.outer(rx_k[start:start + block, 1], tx_y)
        cw = np.cos(phase) @ parts
        sw = np.sin(phase) @ parts
        proj = (cw[:, :streams] - sw[:, streams:]) + 1j * (cw[:, streams:] + sw[:, :streams])
        gram += np.conj(w_rx[:, start:start + block]) @ proj
    gram *= a_tx * a_rx * math.sqrt(loss) / lam_d
    sv = np.linalg.svd(gram, compute_uv=False)
    powers = np.sort(np.asarray(design["powers"], dtype=float))[::-1]
    return float(np.sum(np.log1p(sv**2 * powers / noise))) / LOG2


def _complex_rows(rows) -> np.ndarray:
    arr = np.asarray(rows, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]
