"""Command-line front end.

Subcommands: classify, region, solve, map, relay-power. Gains come from
a JSON file (--gains), inline flags (--g12 .. --gr2), or a geometry file
(--geometry); exactly one source. region, map and relay-power each build
one list of rows and write it through one writer, :func:`_write`, as CSV
or, with --format json, inside a JSON payload. Outputs are deterministic:
CSV numbers use 9 significant digits (NA where a value is missing) and
JSON keys are sorted, so identical inputs produce byte-identical files.
Rates are log base 2 throughout.

Exit codes: 0 success, 2 invalid input, 3 grid cap exceeded, 1 other
errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional

from .channel import GAIN_FIELDS, Geometry, LinkGains, gains_from_geometry
from .errors import GridCapError, TwrcError, ValidationError, WrongRegimeError, check_number
from .optimizer import FULL_POWER_TOL, check_full_power, min_relay_power, solve
from .oracle import grid_region
from .regimes import classify
from .sweeps import (
    DEFAULT_MAP_BOUNDS,
    DEFAULT_MAP_RESOLUTION,
    regime_map,
    relay_power_profile,
    technique_labels,
)


def _fmt(value: float) -> str:
    return format(float(value), ".9g")


def _load_json(path: str, what: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read {what} file {path!r}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{what} file {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValidationError(f"{what} file {path!r} must hold a JSON object")
    return data


def _resolve_gains(args: argparse.Namespace) -> LinkGains:
    inline = {name: getattr(args, name) for name in GAIN_FIELDS}
    inline_given = [name for name, value in inline.items() if value is not None]
    sources = sum([
        args.gains is not None,
        bool(inline_given),
        args.geometry is not None,
    ])
    if sources == 0:
        raise ValidationError(
            "no gains given; use --gains FILE, the inline --g12..--gr2 flags, "
            "or --geometry FILE"
        )
    if sources > 1:
        raise ValidationError(
            "gains sources are mutually exclusive; give exactly one of "
            "--gains, the inline --g* flags, or --geometry"
        )
    if args.gains is not None:
        data = _load_json(args.gains, "gains")
        if args.p is not None:
            data = dict(data, p=args.p)
        return LinkGains.from_dict(data)
    p = args.p if args.p is not None else 1.0
    if inline_given:
        missing = [name for name in GAIN_FIELDS if inline[name] is None]
        if missing:
            flags = ", ".join(f"--{name}" for name in missing)
            raise ValidationError(f"missing inline gain flags: {flags}")
        return LinkGains(p=p, **inline)
    return gains_from_geometry(_resolve_geometry(args), p=p)


def _resolve_geometry(args: argparse.Namespace) -> Geometry:
    if args.geometry is not None:
        return Geometry.from_dict(_load_json(args.geometry, "geometry"))
    return Geometry()


def _emit(text: str, out: Optional[str], summary: Optional[str] = None) -> None:
    """Write the artifact to --out (summary to stdout) or to stdout
    (summary to stderr, keeping the artifact clean)."""
    if out:
        try:
            Path(out).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise ValidationError(f"cannot write output file {out!r}: {exc}") from exc
        if summary:
            print(summary)
    else:
        sys.stdout.write(text)
        if summary:
            print(summary, file=sys.stderr)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _write(args: argparse.Namespace, payload: dict, rows: list[dict], header: str,
           keys: tuple[str, ...], summary: Optional[str] = None) -> None:
    """Emit ``payload`` as JSON under ``--format json``, else ``header`` and
    one CSV line per row over ``keys``: floats through :func:`_fmt`, None as NA."""
    if args.format == "json":
        text = _json_text(payload)
    else:
        lines = [header] + [",".join("NA" if v is None else v if isinstance(v, str) else _fmt(v)
                                     for v in (row[k] for k in keys)) for row in rows]
        text = "\n".join(lines) + "\n"
    _emit(text, args.out, summary)


def cmd_classify(args: argparse.Namespace) -> int:
    g = _resolve_gains(args)
    mu = check_number("--mu", args.mu, 0.0, 1.0)
    reg = classify(g)
    decision, source = technique_labels(g, mu)
    payload: dict = {"regime": reg.to_dict(), "mu": mu,
                     "assignment": decision.assignment.to_dict(), "source": source}
    if decision.ambiguous:
        payload["ambiguous"] = True
        payload["alternate_assignment"] = decision.alternate.to_dict()
    sys.stdout.write(_json_text(payload))
    return 0


def cmd_region(args: argparse.Namespace) -> int:
    g = _resolve_gains(args)
    hull = grid_region(g, step=args.step, restriction=args.restrict)
    rows = [v.to_dict() for v in hull.vertices]
    payload = {"restriction": hull.restriction.value, "step": hull.step, "vertices": rows}
    _write(args, payload, rows, "r1,r2", ("r1", "r2"),
           f"vertices={len(rows)} max_sum_rate={_fmt(hull.max_sum_rate)}")
    return 0


def cmd_solve(args: argparse.Namespace) -> int:
    g = _resolve_gains(args)
    mu = check_number("--mu", args.mu, 0.0, 1.0)
    res = solve(g, mu)
    payload = res.to_dict()
    payload["regime"] = classify(g).to_dict()
    payload["full_power_ok"] = check_full_power(g, res)
    payload["relay_full_power"] = abs(res.allocation.relay_total - g.p) <= FULL_POWER_TOL * g.p
    try:
        payload["closed_form_beta3"] = min_relay_power(g)
    except WrongRegimeError:
        payload["closed_form_beta3"] = None
    _emit(_json_text(payload), args.out)
    return 0


def cmd_map(args: argparse.Namespace) -> int:
    geom = _resolve_geometry(args)
    mu = check_number("--mu", args.mu, 0.0, 1.0)
    bounds = (args.xmin, args.xmax, args.ymin, args.ymax)
    cells = regime_map(geom, bounds=bounds, resolution=args.resolution, mu=mu, p=args.p)
    rows = [{"x": c.x, "y": c.y,
             "r": None if c.regime is None else c.regime.r_index,
             "t": None if c.regime is None else c.regime.t_index,
             "user1": None if c.assignment is None else c.assignment.user1.value,
             "user2": None if c.assignment is None else c.assignment.user2.value,
             "source": c.source} for c in cells]
    _write(args, {"cells": rows}, rows, "x,y,r_index,t_index,user1,user2",
           ("x", "y", "r", "t", "user1", "user2"))
    return 0


def cmd_relay_power(args: argparse.Namespace) -> int:
    geom = _resolve_geometry(args)
    mu = check_number("--mu", args.mu, 0.0, 1.0)
    segment = []
    for label, xflag, yflag, default in (("start", "x0", "y0", geom.user1),
                                         ("end", "x1", "y1", geom.user2)):
        x, y = getattr(args, xflag), getattr(args, yflag)
        if x is None and y is None:
            x, y = default
        elif x is None or y is None:
            raise ValidationError(f"give both --{xflag} and --{yflag} for the segment {label}")
        if not (args.xmin <= x <= args.xmax and args.ymin <= y <= args.ymax):
            raise ValidationError(
                f"segment {label} ({x}, {y}) lies outside the bounds "
                f"[{args.xmin}, {args.xmax}] x [{args.ymin}, {args.ymax}]"
            )
        segment.append((x, y))
    start, end = segment
    points = relay_power_profile(
        geom, samples=args.samples, start=start, end=end, mu=mu, p=args.p)
    fractions = [pt.beta3 / args.p for pt in points] if args.p > 0 else [0.0 for _ in points]
    rows = [{"x": pt.x, "y": pt.y, "beta3": pt.beta3} for pt in points]
    _write(args, {"points": rows}, rows, "x,y,beta3", ("x", "y", "beta3"),
           f"min_power_fraction={_fmt(min(fractions))} max_power_fraction={_fmt(max(fractions))}")
    return 0


def _add_gain_source_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--gains", metavar="FILE", help="JSON file with g12, g21, g1r, gr1, g2r, gr2 and optional p")
    for name in GAIN_FIELDS:
        sub.add_argument(f"--{name}", type=float, metavar="AMP", help=f"inline amplitude gain {name}")
    sub.add_argument("--geometry", metavar="FILE", help="JSON file with user1, user2, relay, gamma1, gamma2")
    sub.add_argument("--p", type=float, help="power budget per node (default 1; overrides a gains file)")


def _add_bounds_flags(sub: argparse.ArgumentParser) -> None:
    xmin, xmax, ymin, ymax = DEFAULT_MAP_BOUNDS
    sub.add_argument("--xmin", type=float, default=xmin)
    sub.add_argument("--xmax", type=float, default=xmax)
    sub.add_argument("--ymin", type=float, default=ymin)
    sub.add_argument("--ymax", type=float, default=ymax)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twrc",
        description="Two-way relay channel rate regions, power allocation, "
                    "and link-state classification (rates in bits, log base 2).",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("classify", help="link-state regime and technique labels")
    _add_gain_source_flags(sub)
    sub.add_argument("--mu", type=float, default=0.75, help="rate weight for user 1 (default 0.75)")
    sub.set_defaults(func=cmd_classify)

    sub = subs.add_parser("region", help="achievable-rate hull by grid search")
    _add_gain_source_flags(sub)
    sub.add_argument("--step", type=float, default=0.05, help="grid spacing (default 0.05)")
    sub.add_argument("--restrict", default="composite",
                     help="composite, bm, ind, direct, or timeshare (default composite)")
    sub.add_argument("--out", metavar="FILE", help="write here instead of stdout")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.set_defaults(func=cmd_region)

    sub = subs.add_parser("solve", help="optimal powers and rates for a weight")
    _add_gain_source_flags(sub)
    sub.add_argument("--mu", type=float, default=0.75, help="rate weight for user 1 (default 0.75)")
    sub.add_argument("--out", metavar="FILE", help="write here instead of stdout")
    sub.set_defaults(func=cmd_solve)

    sub = subs.add_parser("map", help="technique map over relay positions")
    sub.add_argument("--geometry", metavar="FILE", help="JSON geometry template (default: users 20 m apart)")
    sub.add_argument("--p", type=float, default=1.0, help="power budget per node (default 1)")
    sub.add_argument("--mu", type=float, default=0.75)
    sub.add_argument("--resolution", type=int, default=DEFAULT_MAP_RESOLUTION,
                     help=f"grid points per axis (default {DEFAULT_MAP_RESOLUTION})")
    _add_bounds_flags(sub)
    sub.add_argument("--out", metavar="FILE", help="write here instead of stdout")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.set_defaults(func=cmd_map)

    sub = subs.add_parser("relay-power", help="required relay power along a segment")
    sub.add_argument("--geometry", metavar="FILE", help="JSON geometry template (default: users 20 m apart)")
    sub.add_argument("--p", type=float, default=1.0, help="power budget per node (default 1)")
    sub.add_argument("--mu", type=float, default=0.75)
    sub.add_argument("--samples", type=int, default=41, help="interior sample count (default 41)")
    sub.add_argument("--x0", type=float, help="segment start x (default: user 1)")
    sub.add_argument("--y0", type=float, help="segment start y")
    sub.add_argument("--x1", type=float, help="segment end x (default: user 2)")
    sub.add_argument("--y1", type=float, help="segment end y")
    _add_bounds_flags(sub)
    sub.add_argument("--out", metavar="FILE", help="write here instead of stdout")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.set_defaults(func=cmd_relay_power)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TwrcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, GridCapError) else 2 if isinstance(exc, ValidationError) else 1


if __name__ == "__main__":
    sys.exit(main())
