"""Output checks for each apcap CLI invocation the benchmark makes.

Every figure a command prints is compared with `reference` (which never
imports apcap) or with a property the method must have. Link parameters
come from the invocation's own flags over the CLI defaults that
`apcap <command> --help` documents.
"""

from __future__ import annotations

import json
import math

import numpy as np

import reference

LINK_DEFAULTS = {
    "--power": 1.0e7,
    "--bandwidth": 1.0,
    "--noise-psd": 1.0,
    "--wavelength": 0.1,
    "--range": 1.0e6,
    "--loss": 1.0,
    "--aperture-tx": 100.0,
    "--aperture-rx": 100.0,
}
DEFAULT_GRID = "0.1:100:25:log"
DEFAULT_STREAMS = 4
DEFAULT_CELLS = 256

EXACT = 1.0e-12  # closed forms: upper, approx, eps0, SNR arithmetic
LOWER = 1.0e-9  # waterfilled lower bound against the reference Nystrom solve
NORMS = 1.0e-9  # array powers and weight norms
GRAM = 0.02  # achieved finite-array efficiency against the lower bound
WEAK_SISO = 1.0e-3  # weak regime: lower bound against log2(1 + gamma g)
STRONG_SHARE = 0.9  # gamma g >= 1e4: lower / upper
AREA_STEP = 0.03  # the optimized area beats its +-3% neighbours


class Checker:
    """Checks outputs; keeps reference spectra across calls, keyed by c."""

    def __init__(self):
        self.eps0 = reference.solve_eps0()
        self.spectra: dict[float, np.ndarray] = {}

    def check(self, args: list[str], text: bytes) -> list[str]:
        """Problems found in one invocation's stdout; empty when it passes."""
        try:
            payload = json.loads(text)
        except ValueError as exc:
            return [f"stdout is not JSON: {exc}"]
        problems: list[str] = []
        if payload.get("schema_version") != 1:
            problems.append(f"schema_version {payload.get('schema_version')!r} != 1")
        flags = _flags(args)
        command = args[0]
        try:
            if command == "link":
                self._link(flags, payload, problems)
            elif command == "bounds":
                self._bounds(flags, math.prod(_gain_and_snr(flags)), payload, problems, "")
            elif command == "sweep":
                self._sweep(flags, payload, problems)
            elif command == "array":
                self._array(flags, payload, problems)
            else:
                problems.append(f"no check for command {command!r}")
        except (KeyError, TypeError, IndexError, ValueError) as exc:
            problems.append(f"malformed {command} output: {exc!r}")
        return problems

    def _link(self, flags, out, problems):
        g, gamma = _gain_and_snr(flags)
        siso = math.log2(1.0 + g * gamma)
        _close(problems, "g", out["g"], g, EXACT)
        _close(problems, "gamma", out["gamma"], gamma, EXACT)
        _close(problems, "gamma_g", out["gamma_g"], g * gamma, EXACT)
        _close(problems, "siso_bits", out["siso_bits"], siso, EXACT)
        _close(problems, "capacity_bps", out["capacity_bps"], flags["--bandwidth"] * siso, EXACT)
        self._bounds(flags, g * gamma, out["bounds"], problems, "bounds.")

    def _bounds(self, flags, gamma_g, rec, problems, where):
        """Checks one bounds record: the `bounds` report, `link`'s bounds object."""
        eps0 = self.eps0
        _close(problems, where + "gamma_g", rec["gamma_g"], gamma_g, EXACT)
        _close(problems, where + "eps0", rec["eps0"], eps0, EXACT)
        weak = gamma_g <= eps0 - 1.0
        regime = "weak_signal" if weak else "strong_signal"
        if rec["regime"] != regime:
            problems.append(f"{where}regime {rec['regime']!r} != {regime!r}")
        upper = reference.upper_bound(gamma_g, eps0)
        _close(problems, where + "upper", rec["upper"], upper, EXACT)
        if weak:
            if rec["approx"] is not None:
                problems.append(f"{where}approx {rec['approx']!r} should be null below eps0 - 1")
        else:
            _close(problems, where + "approx", rec["approx"],
                   reference.strong_approx(gamma_g, eps0), EXACT)
        area = flags.get("--area")
        if area is not None and rec["best_area"] != area:
            problems.append(f"{where}best_area {rec['best_area']!r} != --area {area!r}")
        self._lower(flags, gamma_g, rec["best_area"], rec["lower"], rec["upper"], rec["K"],
                    area is None, problems, where)

    def _lower(self, flags, gamma_g, area, lower, upper, active, optimized, problems, where):
        """The lower bound at `area` against the reference, plus its properties."""
        lam_d = flags["--wavelength"] * flags["--range"]
        ref, ref_k = reference.lower_bound(gamma_g, area, lam_d, self.spectra)
        _close(problems, where + "lower", lower, ref, LOWER)
        if active != ref_k:
            problems.append(f"{where}K {active} != reference {ref_k}")
        if lower > upper + 1.0e-12:
            problems.append(f"{where}lower {lower!r} exceeds upper {upper!r}")
        if gamma_g <= self.eps0 - 1.0 and abs(lower - math.log2(1.0 + gamma_g)) > WEAK_SISO:
            problems.append(f"{where}weak-regime lower {lower!r} is not log2(1 + {gamma_g!r})")
        if not optimized:
            return
        if gamma_g >= 1.0e4 and lower < STRONG_SHARE * upper:
            problems.append(f"{where}lower {lower!r} below {STRONG_SHARE} * upper {upper!r}")
        smallest = max(flags["--aperture-tx"], flags["--aperture-rx"])
        if area < smallest * (1.0 - 1.0e-12):
            problems.append(f"{where}best_area {area!r} below max(A_T, A_R) = {smallest!r}")
        for step in (1.0 - AREA_STEP, 1.0 + AREA_STEP):
            if area * step < smallest:
                continue  # the apertures no longer fit in the disc
            nearby, _ = reference.lower_bound(gamma_g, area * step, lam_d, self.spectra)
            if nearby > lower * (1.0 + 1.0e-12):
                problems.append(
                    f"{where}lower {lower!r} at best_area is beaten by {nearby!r} "
                    f"at {step:g} * best_area"
                )

    def _sweep(self, flags, out, problems):
        lo, hi, points, scale = flags.get("--grid", DEFAULT_GRID).split(":")
        space = np.geomspace if scale == "log" else np.linspace
        grid = space(float(lo), float(hi), int(points))
        rows = out["rows"]
        if len(rows) != grid.size:
            problems.append(f"{len(rows)} rows for a {grid.size}-point grid")
            return
        lam_d = flags["--wavelength"] * flags["--range"]
        area = flags.get("--area")
        for i, (row, gamma_g) in enumerate(zip(rows, grid)):
            where = f"rows[{i}]."
            _close(problems, where + "gamma_g", row["gamma_g"], float(gamma_g), EXACT)
            gamma_g = row["gamma_g"]
            _close(problems, where + "siso", row["siso"], math.log2(1.0 + gamma_g), EXACT)
            # rows carry no eps0 or regime, and give the area as (|S| / lambda d)^2
            rec = dict(row, eps0=self.eps0, best_area=lam_d * math.sqrt(row["best_area_ratio"]),
                       regime="weak_signal" if gamma_g <= self.eps0 - 1.0 else "strong_signal")
            if area is not None:
                _close(problems, where + "best_area_ratio", row["best_area_ratio"],
                       (area / lam_d) ** 2, EXACT)
                rec["best_area"] = area
            self._bounds(flags, gamma_g, rec, problems, where)

    def _array(self, flags, out, problems):
        cells = int(flags.get("--cells", DEFAULT_CELLS))
        streams = int(flags.get("--streams", DEFAULT_STREAMS))
        area = flags["--area"]
        lam_d = flags["--wavelength"] * flags["--range"]
        radius = math.sqrt(area / math.pi)
        if out["N"] != cells or out["K"] != streams:
            problems.append(f"N, K = {out['N']}, {out['K']} != --cells {cells}, --streams {streams}")
            return
        if len(out["modes"]) != streams or len(out["powers"]) != streams:
            problems.append("modes or powers do not have K entries")
        powers = np.asarray(out["powers"], dtype=float)
        if np.any(powers < 0.0):
            problems.append("negative stream power")
        _close(problems, "sum(powers)", float(np.sum(powers)), flags["--power"], NORMS)
        for side, aperture in (("", flags["--aperture-tx"]), ("_rx", flags["--aperture-rx"])):
            elements = out["elements" + side]
            xy = np.array([(e["x"], e["y"]) for e in elements])
            areas = np.array([e["area"] for e in elements])
            if xy.shape != (cells, 2):
                problems.append(f"elements{side} has shape {xy.shape}, wanted ({cells}, 2)")
                continue
            if np.max(np.hypot(xy[:, 0], xy[:, 1])) >= radius:
                problems.append(f"an element of elements{side} lies outside the disc radius")
            if np.max(np.abs(areas - aperture / cells)) > EXACT * aperture / cells:
                problems.append(f"elements{side} areas differ from A/N = {aperture / cells!r}")
            weights = np.asarray(out["weights" + side], dtype=float)
            if weights.shape != (streams, cells, 2):
                problems.append(f"weights{side} has shape {weights.shape}")
                continue
            norms = (aperture / cells) * np.sum(weights**2, axis=(1, 2))
            worst = float(np.max(np.abs(norms - 1.0)))
            if worst > NORMS:
                problems.append(f"weights{side} rows miss unit norm under A/N by {worst:.3g}")
        if problems:
            return
        gamma_g = math.prod(_gain_and_snr(flags))
        bound, _ = reference.lower_bound(gamma_g, area, lam_d, self.spectra)
        noise = flags["--bandwidth"] * flags["--noise-psd"]
        achieved = reference.array_efficiency(out, lam_d, flags["--loss"], noise)
        if abs(achieved - bound) > GRAM * bound:
            problems.append(
                f"achieved efficiency {achieved!r} is not within {GRAM:.0%} of the bound {bound!r}"
            )


def _flags(args: list[str]) -> dict:
    """--flag value pairs over the link defaults; numbers as floats, --grid as text."""
    flags = dict(LINK_DEFAULTS)
    for name, value in zip(args[1::2], args[2::2]):
        flags[name] = value if name == "--grid" else float(value)
    return flags


def _gain_and_snr(flags: dict) -> tuple[float, float]:
    """Channel gain g = A_T A_R L / (lambda d)^2 and transmit SNR gamma = P / (B N0)."""
    lam_d = flags["--wavelength"] * flags["--range"]
    g = flags["--aperture-tx"] * flags["--aperture-rx"] * flags["--loss"] / lam_d**2
    return g, flags["--power"] / (flags["--bandwidth"] * flags["--noise-psd"])


def _close(problems: list[str], name: str, got, want: float, rel: float) -> None:
    if not isinstance(got, (int, float)) or isinstance(got, bool):
        problems.append(f"{name} is {got!r}, not a number")
    elif not abs(got - want) <= rel * abs(want):
        problems.append(f"{name} {got!r} differs from {want!r} by more than {rel:g} relative")
