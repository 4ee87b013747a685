"""Command-line front end.

Subcommands: link (single link budget report), sweep (received-SNR sweep
table), spectrum (operator eigenvalues for a disc), bounds (capacity
bounds with optional area optimization), array (finite distributed-array
synthesis), verify (the named verification checks).

Exit codes: 0 success, 1 validation error (bad flags or physical
parameters, an unwritable --out path), 2 verification failure. Output is
deterministic: identical flags produce byte-identical output. It is
written in the pieces its command builds, with no joining here: a report
is one piece, and an array design one piece per weight row or record
field, as arrays.design_json cuts it.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import warnings

from . import DEFAULT_SEED
from .bounds import EPS0, bounds_report, corollary_approx
from .link import LinkBudget, ValidationError, siso_efficiency
from .spectrum import DiscGeometry, QuadratureWarning, Truncation, assemble_spectrum, spectrum_report

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_VERIFY = 2

SCHEMA_VERSION = 1


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors exit with the validation code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_VALIDATION)


def _add_path_flags(p):
    p.add_argument("--wavelength", type=float, default=0.1, help="wavelength in m (default 0.1)")
    p.add_argument("--range", dest="range_d", type=float, default=1.0e6, help="range d in m (default 1e6)")
    p.add_argument("--loss", type=float, default=1.0, help="propagation loss L in (0, 1] (default 1)")


def _add_link_flags(p):
    p.add_argument("--power", type=float, default=1.0e7, help="transmit power P in W (default 1e7)")
    p.add_argument("--bandwidth", type=float, default=1.0, help="bandwidth B in Hz (default 1)")
    p.add_argument("--noise-psd", type=float, default=1.0, help="noise PSD N0 in W/Hz (default 1)")
    _add_path_flags(p)
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
    _add_path_flags(p_spec)
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


def _parse_grid(text: str) -> list[float]:
    """The received-SNR values of a min:max:points:log|lin grid spec."""
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
    if lo <= 0.0:
        raise ValidationError(f"{parts[3]} grid needs a positive minimum, got {lo}")
    if hi == math.inf:
        raise ValidationError(f"grid needs a finite maximum, got {hi}")
    if parts[3] == "lin":
        step = (hi - lo) / (points - 1)
        return [lo + i * step for i in range(points)]
    step = (math.log(hi) - math.log(lo)) / (points - 1)
    return [math.exp(math.log(lo) + i * step) for i in range(points)]


def _link(args: argparse.Namespace) -> LinkBudget:
    return LinkBudget(
        args.power, args.bandwidth, args.noise_psd, args.wavelength, args.range_d,
        args.loss, args.aperture_tx, args.aperture_rx,
    )


def _truncation(args: argparse.Namespace) -> Truncation:
    return (args.max_angular, args.max_radial, args.quadrature_order)


def _emit(args: argparse.Namespace, *pieces: str) -> None:
    """Write the pieces of a command's output, in order and as they are, to stdout or to --out."""
    if args.out_path is None:
        sys.stdout.writelines(pieces)
        return
    try:
        with open(args.out_path, "w", newline="") as fh:
            fh.writelines(pieces)
    except OSError as exc:
        raise ValidationError(f"cannot write --out {args.out_path!r}: {exc.strerror}") from None


def _csv_text(rows: list[dict]) -> str:
    """Header from the first record's keys, then one line per record."""
    import csv
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(rows[0])
    for row in rows:
        writer.writerow(["" if v is None else repr(v) if isinstance(v, float) else v for v in row.values()])
    return buf.getvalue()


def _report(args: argparse.Namespace, payload: dict, rows: list[dict]) -> None:
    """Write the payload as indented JSON, or the rows as CSV under --format csv."""
    if args.out_format == "json":
        _emit(args, json.dumps(payload, indent=2) + "\n")
    else:
        _emit(args, _csv_text(rows))


def run_link(args: argparse.Namespace) -> int:
    link = _link(args)
    bounds = bounds_report(link, args.area, _truncation(args))
    siso = siso_efficiency(link.received_snr)
    record = {
        "g": link.gain_g,
        "gamma": link.snr_gamma,
        "gamma_g": link.received_snr,
        "siso_bits": siso,
        "capacity_bps": link.bandwidth_B * siso,
    }
    # the bounds' gamma_g is the same number; the key keeps its place in record
    _report(args, {"schema_version": SCHEMA_VERSION, **record, "bounds": bounds}, [{**record, **bounds}])
    return EXIT_OK


def run_sweep(args: argparse.Namespace) -> int:
    base = _link(args)
    if not base.received_snr > 0.0:
        raise ValidationError(
            "received SNR gamma*g underflows to 0, so no transmit power rescales the link "
            "to a sweep grid value"
        )
    grid = _parse_grid(args.grid)
    lam_d = base.wavelength_lambda * base.range_d
    rows = []
    for gamma_g in grid:
        power = base.power_P * (gamma_g / base.received_snr)
        if not 0.0 < power < math.inf:
            raise ValidationError(
                f"grid value {gamma_g:.6g} needs a transmit power of {power:.6g} W, "
                "which is not a positive finite number"
            )
        try:
            link = dataclasses.replace(base, power_P=power)
        except ValidationError as exc:  # a finite power whose P/(B*N0) overflows
            raise ValidationError(f"grid value {gamma_g:.6g}: {exc}") from None
        bounds = bounds_report(link, args.area, _truncation(args))
        # siso and approx from the grid value: the rescaled link's gamma_g may be an ulp off
        rows.append(
            {
                "gamma_g": gamma_g,
                "siso": siso_efficiency(gamma_g),
                "lower": bounds["lower"],
                "upper": bounds["upper"],
                "approx": corollary_approx(gamma_g) if gamma_g >= EPS0 - 1.0 else None,
                "K": bounds["K"],
                "best_area_ratio": (bounds["best_area"] / lam_d) ** 2,
            }
        )
    _report(args, {"schema_version": SCHEMA_VERSION, "rows": rows}, rows)
    return EXIT_OK


def run_spectrum(args: argparse.Namespace) -> int:
    geometry = DiscGeometry(args.area, args.wavelength, args.range_d, args.loss)
    spectrum = assemble_spectrum(geometry, *_truncation(args), keep_radial=False)
    report = spectrum_report(spectrum)
    _report(args, report, report["modes"])
    return EXIT_OK


def run_bounds(args: argparse.Namespace) -> int:
    record = bounds_report(_link(args), args.area, _truncation(args))
    _report(args, {"schema_version": SCHEMA_VERSION, **record}, [record])
    return EXIT_OK


def run_array(args: argparse.Namespace) -> int:
    from .arrays import design_json, synthesize_array

    link = _link(args)
    if args.out_format != "json":
        raise ValidationError("array designs export as JSON only")
    design = synthesize_array(link, args.area, args.streams, args.cells, _truncation(args))
    _emit(args, *design_json(design))
    return EXIT_OK


def run_verify(args: argparse.Namespace) -> int:
    from .verification import CHECK_NAMES, run_checks

    unknown = [n for n in args.names if n not in CHECK_NAMES]
    if unknown:
        raise ValidationError(f"unknown check names: {', '.join(unknown)}")
    if args.seed < 0:
        raise ValidationError(f"--seed must be a nonnegative integer, got {args.seed}")
    if args.list_checks:
        for name in CHECK_NAMES:
            print(name)
        return EXIT_OK
    results = run_checks(names=args.names or None, seed=args.seed, golden_path=args.golden)
    width = max(len(r.name) for r in results)
    for i, result in enumerate(results, start=1):
        status = "PASS" if result.passed else "FAIL"
        print(f"[{i:2d}/{len(results)}] {status}  {result.name:<{width}}  ({result.seconds:.2f} s)")
        print(f"         measured: {result.measured}")
        print(f"         limit:    {result.limit}")
    failed = [r.name for r in results if not r.passed]
    print(f"{len(results) - len(failed)} passed, {len(failed)} failed out of {len(results)} checks")
    if failed:
        print(f"FAILED: {', '.join(failed)}")
        return EXIT_VERIFY
    return EXIT_OK


COMMANDS = {
    "link": run_link,
    "sweep": run_sweep,
    "spectrum": run_spectrum,
    "bounds": run_bounds,
    "array": run_array,
    "verify": run_verify,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    with warnings.catch_warnings(record=True) as caught:
        try:
            args = parser.parse_args(argv)
            return COMMANDS[args.command](args)
        except ValidationError as exc:
            print(f"apcap: error: {exc}", file=sys.stderr)
            return EXIT_VALIDATION
        except SystemExit as exc:
            return int(exc.code or 0)
        finally:
            # one stderr line per distinct warning message, not a raw Python warning;
            # of the undersized-quadrature warnings, one per disc tried, only the
            # largest c's, which names the largest order needed
            messages = [w.message for w in caught]
            undersized = [m for m in messages if isinstance(m, QuadratureWarning)]
            worst = max(undersized, key=lambda m: m.c, default=None)
            messages = [m for m in messages if m is worst or not isinstance(m, QuadratureWarning)]
            for message in dict.fromkeys(map(str, messages)):
                print(f"apcap: warning: {message}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
