"""Command-line front end.

Subcommands: link (single link budget report), sweep (received-SNR sweep
table), spectrum (operator eigenvalues for a disc), bounds (capacity
bounds with optional area optimization), array (finite distributed-array
synthesis), verify (the named verification checks).

Exit codes: 0 success, 1 validation error (bad flags or physical
parameters), 2 verification failure. Output is deterministic: identical
flags and seed produce byte-identical files.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass

from .bounds import bounds_report, bounds_to_dict, corollary_approx
from .arrays import design_to_dict, synthesize_array
from .link import LinkBudget, ValidationError, derive_link, siso_efficiency
from .numerics import solve_eps0
from .spectrum import Truncation, assemble_spectrum, disc_for_area, spectrum_report
from .verification import CHECK_NAMES, DEFAULT_SEED, run_checks

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_VERIFY = 2

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class GridSpec:
    """Sweep grid: points values from lo to hi, log or linear spacing."""

    lo: float
    hi: float
    points: int
    log: bool

    def values(self) -> list[float]:
        if self.log:
            step = (math.log(self.hi) - math.log(self.lo)) / (self.points - 1)
            return [math.exp(math.log(self.lo) + i * step) for i in range(self.points)]
        step = (self.hi - self.lo) / (self.points - 1)
        return [self.lo + i * step for i in range(self.points)]


@dataclass
class RunConfig:
    """Everything one invocation needs; assembled from parsed flags."""

    command: str
    link: LinkBudget | None = None
    area: float | None = None
    grid: GridSpec | None = None
    quadrature_order: int | None = None
    max_angular: int | None = None
    max_radial: int | None = None
    out_format: str = "json"
    out_path: str | None = None
    seed: int = DEFAULT_SEED
    streams: int = 4
    cells: int = 256
    golden: str | None = None
    list_checks: bool = False
    check_names: tuple[str, ...] = ()


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors exit with the validation code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_VALIDATION)


def _add_link_flags(p):
    p.add_argument("--power", type=float, default=1.0e7, help="transmit power P in W (default 1e7)")
    p.add_argument("--bandwidth", type=float, default=1.0, help="bandwidth B in Hz (default 1)")
    p.add_argument("--noise-psd", type=float, default=1.0, help="noise PSD N0 in W/Hz (default 1)")
    p.add_argument("--wavelength", type=float, default=0.1, help="wavelength in m (default 0.1)")
    p.add_argument("--range", dest="range_d", type=float, default=1.0e6, help="range d in m (default 1e6)")
    p.add_argument("--loss", type=float, default=1.0, help="propagation loss L in (0, 1] (default 1)")
    p.add_argument("--aperture-tx", type=float, default=100.0, help="transmit aperture area in m^2 (default 100)")
    p.add_argument("--aperture-rx", type=float, default=100.0, help="receive aperture area in m^2 (default 100)")


def _add_area_flags(p):
    group = p.add_mutually_exclusive_group()
    group.add_argument("--area", type=float, default=None, help="synthesis disc area |S| in m^2")
    group.add_argument(
        "--optimize-area",
        action="store_true",
        help="optimize |S| over the default area grid (the default when --area is absent)",
    )


def _add_truncation_flags(p):
    p.add_argument("--quadrature-order", type=int, default=None, help="radial quadrature order override")
    p.add_argument("--max-angular", type=int, default=None, help="ceiling on the largest |N| kept in the spectrum")
    p.add_argument("--max-radial", type=int, default=None, help="ceiling on the radial index m kept per angular order")


def _add_output_flags(p):
    p.add_argument("--format", dest="out_format", choices=("json", "csv"), default="json", help="output format (default json)")
    p.add_argument("--out", dest="out_path", default=None, help="output path (default stdout)")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help=f"seed for randomized scenes (default {DEFAULT_SEED})")


def build_parser() -> _Parser:
    parser = _Parser(prog="apcap", description="Capacity bounds and array synthesis for aperture-constrained free-space links.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_link = sub.add_parser("link", help="single link-budget report with capacity bounds")
    _add_link_flags(p_link)
    _add_area_flags(p_link)
    _add_truncation_flags(p_link)
    _add_output_flags(p_link)

    p_sweep = sub.add_parser("sweep", help="received-SNR sweep table")
    _add_link_flags(p_sweep)
    _add_area_flags(p_sweep)
    p_sweep.add_argument(
        "--grid",
        default="0.1:100:25:log",
        help="received-SNR grid min:max:points:log|lin (default 0.1:100:25:log); "
        "transmit power is rescaled per row to hit each value",
    )
    _add_truncation_flags(p_sweep)
    _add_output_flags(p_sweep)

    p_spec = sub.add_parser("spectrum", help="operator eigenvalues for one synthesis disc")
    p_spec.add_argument("--area", type=float, required=True, help="synthesis disc area |S| in m^2")
    p_spec.add_argument("--wavelength", type=float, default=0.1, help="wavelength in m (default 0.1)")
    p_spec.add_argument("--range", dest="range_d", type=float, default=1.0e6, help="range d in m (default 1e6)")
    p_spec.add_argument("--loss", type=float, default=1.0, help="propagation loss L (default 1)")
    _add_truncation_flags(p_spec)
    _add_output_flags(p_spec)

    p_bounds = sub.add_parser("bounds", help="capacity bounds, optionally optimizing the disc area")
    _add_link_flags(p_bounds)
    _add_area_flags(p_bounds)
    _add_truncation_flags(p_bounds)
    _add_output_flags(p_bounds)

    p_array = sub.add_parser("array", help="synthesize a finite distributed array (JSON only)")
    _add_link_flags(p_array)
    p_array.add_argument("--area", type=float, required=True, help="synthesis disc area |S| in m^2")
    p_array.add_argument("--streams", type=int, default=4, help="stream count K (default 4)")
    p_array.add_argument("--cells", type=int, default=256, help="partition cell count N (default 256)")
    _add_truncation_flags(p_array)
    _add_output_flags(p_array)

    p_verify = sub.add_parser("verify", help="run the named verification checks")
    p_verify.add_argument("names", nargs="*", help="run only these checks (default: all)")
    p_verify.add_argument("--list", dest="list_checks", action="store_true", help="print check names without running")
    p_verify.add_argument("--golden", default=None, help="path to an alternate golden file")
    p_verify.add_argument("--seed", type=int, default=DEFAULT_SEED, help=f"seed for randomized checks (default {DEFAULT_SEED})")
    return parser


def _parse_grid(text: str) -> GridSpec:
    parts = text.split(":")
    if len(parts) != 4:
        raise ValidationError(f"grid spec {text!r} is not min:max:points:log|lin")
    try:
        lo, hi, points = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ValidationError(f"grid spec {text!r}: {exc}") from None
    if parts[3] not in ("log", "lin"):
        raise ValidationError(f"grid scale {parts[3]!r} is neither log nor lin")
    if points < 2:
        raise ValidationError(f"grid needs at least 2 points, got {points}")
    if not lo < hi:
        raise ValidationError(f"grid needs min < max, got {lo} and {hi}")
    if parts[3] == "log" and lo <= 0.0:
        raise ValidationError("log grid needs a positive minimum")
    return GridSpec(lo=lo, hi=hi, points=points, log=parts[3] == "log")


def config_from_args(args: argparse.Namespace) -> RunConfig:
    config = RunConfig(command=args.command)
    if hasattr(args, "power"):
        config.link = LinkBudget(
            power_P=args.power,
            bandwidth_B=args.bandwidth,
            noise_psd_N0=args.noise_psd,
            wavelength_lambda=args.wavelength,
            range_d=args.range_d,
            loss_L=args.loss,
            aperture_tx_AT=args.aperture_tx,
            aperture_rx_AR=args.aperture_rx,
        )
    for name in (
        "area",
        "quadrature_order",
        "max_angular",
        "max_radial",
        "out_format",
        "out_path",
        "seed",
        "streams",
        "cells",
        "golden",
        "list_checks",
    ):
        if hasattr(args, name):
            setattr(config, name, getattr(args, name))
    if hasattr(args, "grid"):
        config.grid = _parse_grid(args.grid)
    if hasattr(args, "names"):
        unknown = [n for n in args.names if n not in CHECK_NAMES]
        if unknown:
            raise ValidationError(f"unknown check names: {', '.join(unknown)}")
        config.check_names = tuple(args.names)
    return config


def _truncation(config: RunConfig) -> Truncation:
    return (config.max_angular, config.max_radial, config.quadrature_order)


def _emit(config: RunConfig, text: str) -> None:
    if config.out_path is None:
        sys.stdout.write(text)
    else:
        with open(config.out_path, "w", newline="") as fh:
            fh.write(text)


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(["" if v is None else repr(v) if isinstance(v, float) else v for v in row])
    return buf.getvalue()


def run_link(config: RunConfig) -> int:
    link = config.link
    derived = derive_link(link)
    bounds = bounds_report(link, config.area, _truncation(config))
    siso = siso_efficiency(derived.received_snr)
    if config.out_format == "json":
        payload = {
            "schema_version": SCHEMA_VERSION,
            "g": derived.gain_g,
            "gamma": derived.snr_gamma,
            "gamma_g": derived.received_snr,
            "siso_bits": siso,
            "capacity_bps": link.bandwidth_B * siso,
            "bounds": bounds_to_dict(bounds),
        }
        _emit(config, _json_text(payload))
    else:
        record = bounds_to_dict(bounds)
        header = ["g", "gamma", "gamma_g", "siso_bits", "capacity_bps", "regime", "lower", "upper", "approx", "K", "best_area", "eps0"]
        row = [
            derived.gain_g,
            derived.snr_gamma,
            derived.received_snr,
            siso,
            link.bandwidth_B * siso,
            record["regime"],
            record["lower"],
            record["upper"],
            record["approx"],
            record["K"],
            record["best_area"],
            record["eps0"],
        ]
        _emit(config, _csv_text(header, [row]))
    return EXIT_OK


def run_sweep(config: RunConfig) -> int:
    base = config.link
    derived = derive_link(base)
    eps0 = solve_eps0()
    lam_d = base.wavelength_lambda * base.range_d
    rows = []
    for gamma_g in config.grid.values():
        scale = gamma_g / derived.received_snr
        link = LinkBudget(
            power_P=base.power_P * scale,
            bandwidth_B=base.bandwidth_B,
            noise_psd_N0=base.noise_psd_N0,
            wavelength_lambda=base.wavelength_lambda,
            range_d=base.range_d,
            loss_L=base.loss_L,
            aperture_tx_AT=base.aperture_tx_AT,
            aperture_rx_AR=base.aperture_rx_AR,
        )
        bounds = bounds_report(link, config.area, _truncation(config))
        approx = corollary_approx(gamma_g) if gamma_g >= eps0 - 1.0 else None
        rows.append(
            {
                "gamma_g": gamma_g,
                "siso": siso_efficiency(gamma_g),
                "lower": bounds.lower_bits,
                "upper": bounds.upper_bits,
                "approx": approx,
                "K": bounds.active_K,
                "best_area_ratio": (bounds.best_area_S / lam_d) ** 2,
            }
        )
    if config.out_format == "json":
        _emit(config, _json_text({"schema_version": SCHEMA_VERSION, "rows": rows}))
    else:
        header = ["gamma_g", "siso", "lower", "upper", "approx", "K", "best_area_ratio"]
        _emit(config, _csv_text(header, [[r[k] for k in header] for r in rows]))
    return EXIT_OK


def run_spectrum(config: RunConfig, args: argparse.Namespace) -> int:
    geometry = disc_for_area(args.area, args.wavelength, args.range_d, args.loss)
    spectrum = assemble_spectrum(geometry, *_truncation(config), keep_radial=False)
    report = spectrum_report(spectrum)
    if config.out_format == "json":
        _emit(config, _json_text(report))
    else:
        header = ["N", "m", "beta", "nu_sq"]
        rows = [[m["N"], m["m"], m["beta"], m["nu_sq"]] for m in report["modes"]]
        _emit(config, _csv_text(header, rows))
    return EXIT_OK


def run_bounds(config: RunConfig) -> int:
    bounds = bounds_report(config.link, config.area, _truncation(config))
    record = bounds_to_dict(bounds)
    if config.out_format == "json":
        record = {"schema_version": SCHEMA_VERSION, **record}
        _emit(config, _json_text(record))
    else:
        header = ["gamma_g", "regime", "lower", "upper", "approx", "K", "best_area", "eps0"]
        _emit(config, _csv_text(header, [[record[k] for k in header]]))
    return EXIT_OK


def run_array(config: RunConfig) -> int:
    if config.out_format != "json":
        raise ValidationError("array designs export as JSON only")
    link = config.link
    geometry = disc_for_area(
        config.area, link.wavelength_lambda, link.range_d, link.loss_L
    )
    spectrum = assemble_spectrum(geometry, *_truncation(config))
    design = synthesize_array(spectrum, config.area, config.streams, config.cells, link)
    payload = {"schema_version": SCHEMA_VERSION, **design_to_dict(design)}
    _emit(config, _json_text(payload))
    return EXIT_OK


def run_verify(config: RunConfig) -> int:
    if config.list_checks:
        for name in CHECK_NAMES:
            print(name)
        return EXIT_OK
    names = list(config.check_names) if config.check_names else None
    results = run_checks(names=names, seed=config.seed, golden_path=config.golden)
    width = max(len(r.name) for r in results)
    for i, result in enumerate(results, start=1):
        status = "PASS" if result.passed else "FAIL"
        print(f"[{i:2d}/{len(results)}] {status}  {result.name:<{width}}  ({result.seconds:.2f} s)")
        print(f"         measured: {result.measured}")
        if result.limit:
            print(f"         limit:    {result.limit}")
    failed = [r.name for r in results if not r.passed]
    print(f"{len(results) - len(failed)} passed, {len(failed)} failed out of {len(results)} checks")
    if failed:
        print(f"FAILED: {', '.join(failed)}")
        return EXIT_VERIFY
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        config = config_from_args(args)
        if config.command == "link":
            return run_link(config)
        if config.command == "sweep":
            return run_sweep(config)
        if config.command == "spectrum":
            return run_spectrum(config, args)
        if config.command == "bounds":
            return run_bounds(config)
        if config.command == "array":
            return run_array(config)
        return run_verify(config)
    except ValidationError as exc:
        print(f"apcap: error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except SystemExit as exc:
        return int(exc.code or 0)


if __name__ == "__main__":
    sys.exit(main())
