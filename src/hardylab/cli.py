"""Command-line front end: parses run configurations, dispatches experiments,
and emits CSV/JSON reports plus optional SVG convergence plots.

Exit codes: 0 when every check passes (INFO rows never fail a run), 2 when
any verdict is FAIL, 1 for usage, I/O or quadrature errors.  The same configuration and
seed always produce byte-identical artifacts, whatever the worker count.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

from .hgroup import ProductSpec
from .lab import (
    DEFAULT_EPS_GRID,
    ExperimentReport,
    bound_fuzz,
    duality_check,
    geometry_selftest,
    radialization_check,
    sharpness_sweep,
    volume_check,
    weighted_sharpness,
)
from .funcs import parse_test_function
from .measure import IntegrationError
from .operators import parse_weight

# flag name -> add_argument keyword arguments
FLAGS = {
    "p": dict(type=float, default=2.0, help="Lebesgue exponent in (1, inf)"),
    "factors": dict(default="1", help="comma-separated group orders, e.g. 1,1"),
    "eps": dict(default=",".join(map(str, DEFAULT_EPS_GRID)), help="comma-separated eps grid"),
    "weight": dict(default="monomial:3", help="one | monomial:a1,... | table:<file>"),
    "function": dict(help="extra scored function: power-inside:a1,... | bumps:<file>"),
    "method": dict(default="closed", choices=("closed", "radial", "mc")),
    "samples": dict(type=int, default=100_000),
    "inner-samples": dict(type=int, default=768),
    "trials": dict(type=int, default=50),
    "pairs": dict(type=int, default=20),
    "n": dict(type=int, default=1, help="group order"),
    "workers": dict(type=int, default=1),
    "plot": dict(action="store_true", help="also write an SVG convergence plot next to the output"),
    "seed": dict(type=int),  # defaults to HARDYLAB_SEED, read when the parser is built
    "format": dict(default="json", choices=("csv", "json")),
    "output": dict(default="-", help="output path, '-' for stdout"),
    "config": dict(help="JSON config file; its keys are flag names"),
}
COMMON = ("seed", "format", "output", "config")
# subcommand -> (the flags it reads besides COMMON, defaults of its own)
SUBCOMMANDS = {
    "geometry-check": (("samples",), {}),
    "sharpness": (("p", "factors", "eps", "method", "samples", "inner-samples", "workers", "plot"),
                  {}),
    # fuzz's estimators run on one thread; it still accepts and checks --workers
    "fuzz": (("p", "factors", "function", "samples", "trials", "workers"), {}),
    # a ball average and a nested spherical average per point: smaller samples
    "radialize-check": (("p", "factors", "samples", "inner-samples", "trials"),
                        {"samples": 6250, "inner_samples": 64}),
    "weighted": (("p", "factors", "weight", "plot"), {}),
    "cesaro-duality": (("p", "factors", "weight", "samples", "pairs", "workers"), {}),
    "volume": (("n", "samples"), {}),
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems through exit code 1."""

    def error(self, message: str):  # noqa: D401
        raise UsageError(message)


def build_parser() -> _Parser:
    """One subparser per subcommand, holding only the flags it reads."""
    parser = _Parser(prog="hardylab", description=__doc__)
    sub = parser.add_subparsers(dest="command")
    for name, (flags, defaults) in SUBCOMMANDS.items():
        cmd = sub.add_parser(name)
        for flag in flags + COMMON:
            cmd.add_argument("--" + flag, **FLAGS[flag])
        # argparse passes a string default through `type`, so a bad
        # HARDYLAB_SEED is a usage error like a bad flag
        cmd.set_defaults(seed=os.environ.get("HARDYLAB_SEED") or 0, **defaults)
    return parser


def _config_flags(path: str, cmd: str) -> list[str]:
    """The flags a config file stands for: key k with value v becomes
    --k=v (underscores read as hyphens), true a bare --k, and false or null
    no flag at all.  A key must name one of the subcommand's flags in full,
    and may not name another config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        raise UsageError(f"cannot read config file: {err}") from err
    if not isinstance(cfg, dict):
        raise UsageError("config file must hold a JSON object")
    flags = []
    for key, value in cfg.items():
        if key == "config":
            raise UsageError("a config file cannot name another config file")
        if value is False or value is None:
            continue
        name = key.replace("_", "-")
        flag = f"--{name}" if value is True else f"--{name}={value}"
        if name not in SUBCOMMANDS[cmd][0] + COMMON:
            raise UsageError(f"unrecognized arguments: {flag}")
        flags.append(flag)
    return flags


def _validate(cfg: dict) -> None:
    """Check the values of the flags the subcommand has; the factors become
    cfg["spec"] and the eps grid cfg["eps_list"]."""
    if "p" in cfg and not 1.0 < cfg["p"] < math.inf:
        raise UsageError(f"--p must lie in (1, inf), got {cfg['p']}")
    if "factors" in cfg:
        try:
            factors = [int(v) for v in cfg["factors"].split(",") if v != ""]
        except ValueError as err:
            raise UsageError(f"bad --factors: {err}") from err
        if not factors or any(n < 1 for n in factors):
            raise UsageError("--factors needs at least one positive group order")
        cfg["spec"] = ProductSpec.of_orders(*factors)
    if "eps" in cfg:
        try:
            cfg["eps_list"] = [float(v) for v in cfg["eps"].split(",") if v != ""]
        except ValueError as err:
            raise UsageError(f"bad --eps grid: {err}") from err
        if any(not 0.0 < e < 1.0 for e in cfg["eps_list"]):
            raise UsageError("--eps values must lie in (0, 1)")
        if len(set(cfg["eps_list"])) < 2:
            raise UsageError("--eps needs at least two distinct values for the eps -> 0 fit")
    for name in ("trials", "pairs", "workers", "inner_samples"):
        if cfg.get(name, 1) < 1:
            raise UsageError(f"--{name.replace('_', '-')} must be at least 1")
    if cfg.get("method", "mc") == "mc" and cfg.get("samples", 1000) < 1000:
        raise UsageError("--samples must be at least 1000 for Monte Carlo runs")
    if cfg.get("n", 1) < 1:
        raise UsageError("--n must be a positive integer")
    if cfg.get("plot") and cfg["output"] == "-":
        raise UsageError("--plot needs an --output path for the SVG sibling file")


def _dispatch(cmd: str, cfg: dict) -> ExperimentReport:
    spec = cfg.get("spec")
    seed = cfg["seed"]
    if cmd == "geometry-check":
        return geometry_selftest(seed=seed, samples=cfg["samples"])
    if cmd == "sharpness":
        return sharpness_sweep(
            cfg["p"], spec, eps_grid=tuple(cfg["eps_list"]), method=cfg["method"],
            samples=cfg["samples"], inner_samples=cfg["inner_samples"],
            seed=seed, workers=cfg["workers"],
        )
    if cmd == "fuzz":
        extra = None
        if cfg["function"]:
            try:
                extra = parse_test_function(cfg["function"], spec)
            except (ValueError, OSError) as err:
                raise UsageError(f"bad --function: {err}") from err
        return bound_fuzz(
            cfg["trials"], cfg["p"], spec, samples=cfg["samples"],
            seed=seed, extra_function=extra,
        )
    if cmd == "radialize-check":
        return radialization_check(
            cfg["trials"], cfg["p"], spec, samples=cfg["samples"],
            inner_samples=cfg["inner_samples"], seed=seed,
        )
    if cmd == "weighted":
        return weighted_sharpness(parse_weight(cfg["weight"], spec.m), cfg["p"], spec, seed=seed)
    if cmd == "cesaro-duality":
        # the pairings integrate over a tensor grid on [0,1]^m built for m <= 2;
        # refused here, before the weight file is read
        if spec.m > 2:
            raise UsageError("cesaro-duality pairings support at most 2 factors")
        phi = parse_weight(cfg["weight"], spec.m)
        return duality_check(
            phi, cfg["p"], spec, pairs=cfg["pairs"], samples=cfg["samples"],
            seed=seed, workers=cfg["workers"],
        )
    if cmd == "volume":
        return volume_check(cfg["n"], samples=cfg["samples"], seed=seed)
    raise UsageError(f"unknown subcommand {cmd!r}")


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _fmt(x) -> str:
    if x is None:
        return ""
    return format(float(x), ".17g")


def report_to_csv(report: ExperimentReport) -> str:
    params = json.dumps({**report.params, "seed": report.seed},
                        sort_keys=True, separators=(",", ":"), allow_nan=False)
    lines = ["experiment,param_json,input,estimate,std_error,oracle,deviation,sigma_multiple,verdict"]
    for row in report.rows:
        cells = [
            report.experiment,
            '"' + params.replace('"', '""') + '"',
            '"' + row.input.replace('"', '""') + '"',
            _fmt(row.estimate),
            _fmt(row.std_error),
            _fmt(row.oracle),
            _fmt(row.deviation),
            _fmt(row.sigma_multiple),
            row.verdict,
        ]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def report_to_json(report: ExperimentReport) -> str:
    payload = {
        "experiment": report.experiment,
        "params": report.params,
        "rows": [
            {
                "input": r.input,
                "estimate": r.estimate,
                "std_error": r.std_error,
                "oracle": r.oracle,
                "deviation": r.deviation,
                "sigma_multiple": r.sigma_multiple,
                "verdict": r.verdict,
            }
            for r in report.rows
        ],
        "summary": report.summary,
        "seed": report.seed,
        # measured time is reported on stderr; the file stays byte-identical
        # across reruns of the same config and seed
        "wall_time_ms": None,
    }
    return json.dumps(payload, indent=2, sort_keys=False, allow_nan=False) + "\n"


def render_svg(report: ExperimentReport) -> str:
    """One polyline of the swept series against eps, with a single horizontal
    rule at the report's reference constant.  viewBox is 800x500."""
    series_name = report.params.get("plot_series", "quotient")
    rule = report.params.get("plot_rule")
    pts = []
    for row in report.rows:
        if row.input.startswith(f"{series_name} eps=") and "(" not in row.input:
            eps = float(row.input.split("eps=")[1].split()[0])
            pts.append((eps, row.estimate))
    pts.sort()
    if not pts:
        raise ValueError("report has no swept series to plot")
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    y_all = ys + ([rule] if rule is not None else [])
    x_lo, x_hi = 0.0, max(xs) * 1.05
    y_lo = min(y_all) - 0.1 * (max(y_all) - min(y_all) + 1e-9)
    y_hi = max(y_all) + 0.1 * (max(y_all) - min(y_all) + 1e-9)
    L, R, T, B = 70.0, 770.0, 40.0, 460.0

    def sx(x: float) -> float:
        return L + (R - L) * (x - x_lo) / (x_hi - x_lo)

    def sy(y: float) -> float:
        return B - (B - T) * (y - y_lo) / (y_hi - y_lo)

    poly = " ".join(f"{sx(x):.3f},{sy(y):.3f}" for x, y in pts)
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 800 500">',
        '<rect x="0" y="0" width="800" height="500" fill="white"/>',
        f'<path d="M {L} {T} L {L} {B} L {R} {B}" stroke="black" fill="none" stroke-width="1"/>',
    ]
    if rule is not None:
        parts.append(
            f'<line x1="{L}" y1="{sy(rule):.3f}" x2="{R}" y2="{sy(rule):.3f}" '
            'stroke="crimson" stroke-dasharray="6 4" stroke-width="1.5"/>'
        )
    parts.append(
        f'<polyline points="{poly}" fill="none" stroke="steelblue" stroke-width="2"/>'
    )
    for x, y in pts:
        parts.append(f'<circle cx="{sx(x):.3f}" cy="{sy(y):.3f}" r="3" fill="steelblue"/>')
    parts.append(
        f'<text x="{(L + R) / 2:.0f}" y="490" text-anchor="middle" font-size="14">eps</text>'
    )
    parts.append(
        f'<text x="16" y="{(T + B) / 2:.0f}" font-size="14" '
        f'transform="rotate(-90 16 {(T + B) / 2:.0f})" text-anchor="middle">{series_name}</text>'
    )
    title = f"{report.experiment}: {series_name} vs eps"
    parts.append(f'<text x="{(L + R) / 2:.0f}" y="24" text-anchor="middle" font-size="16">{title}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_report(report: ExperimentReport, fmt: str, path: str, plot: bool = False) -> None:
    """Write the report (and optionally its SVG sibling) with LF endings."""
    text = report_to_csv(report) if fmt == "csv" else report_to_json(report)
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    if plot:
        svg_path = os.path.splitext(path)[0] + ".svg"
        with open(svg_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(render_svg(report))


def run(argv) -> int:
    parser = build_parser()
    try:
        argv = list(argv)
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError("a subcommand is required: " + ", ".join(SUBCOMMANDS))
        if args.config:
            flags = _config_flags(args.config, args.command)
            # the config file's flags go right after the subcommand, so the
            # command line's own flags, parsed after them, win
            i = argv.index(args.command) + 1
            args = parser.parse_args(argv[:i] + flags + argv[i:])
        cfg = vars(args)
        _validate(cfg)
        t0 = time.perf_counter()
        report = _dispatch(args.command, cfg)
        wall_ms = (time.perf_counter() - t0) * 1e3
        emit_report(report, cfg["format"], cfg["output"], plot=cfg.get("plot", False))
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    except (ValueError, OverflowError) as err:
        # bad parameter combinations surface from the experiments themselves,
        # e.g. an eps outside the admissible range for the chosen p, or a p
        # so large that a power of it overflows
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"io error: {err}", file=sys.stderr)
        return 1
    except IntegrationError as err:
        # a quadrature that cannot converge at these parameters, e.g. an
        # endpoint singularity that is not integrable as p nears 1
        print(f"quadrature error: {err}", file=sys.stderr)
        return 1
    print(f"[{report.experiment}] wall time {wall_ms:.0f} ms, summary: {report.summary}", file=sys.stderr)
    return 0 if report.passed else 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
