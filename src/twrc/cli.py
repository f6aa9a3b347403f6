"""Command-line front end.

Subcommands: classify, region, solve, map, relay-power. Gains come from
a JSON file (--gains), inline flags (--g12 .. --gr2), or a geometry file
(--geometry); exactly one source. Outputs are deterministic: CSV numbers
use 9 significant digits and JSON keys are sorted, so identical inputs
produce byte-identical files. Rates are log base 2 throughout.

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
        Path(out).write_text(text, encoding="utf-8")
        if summary:
            print(summary)
    else:
        sys.stdout.write(text)
        if summary:
            print(summary, file=sys.stderr)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def cmd_classify(args: argparse.Namespace) -> int:
    g = _resolve_gains(args)
    mu = check_number("--mu", args.mu, 0.0, 1.0)
    reg = classify(g)
    decision, source = technique_labels(g, reg, mu)
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
    summary = f"vertices={len(hull.vertices)} max_sum_rate={_fmt(hull.max_sum_rate)}"
    if args.format == "json":
        payload = {
            "restriction": hull.restriction.value,
            "step": hull.step,
            "vertices": [v.to_dict() for v in hull.vertices],
        }
        _emit(_json_text(payload), args.out, summary)
    else:
        lines = ["r1,r2"]
        lines += [f"{_fmt(v.r1)},{_fmt(v.r2)}" for v in hull.vertices]
        _emit("\n".join(lines) + "\n", args.out, summary)
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
    p = args.p if args.p is not None else 1.0
    bounds = (args.xmin, args.xmax, args.ymin, args.ymax)
    cells = regime_map(geom, bounds=bounds, resolution=args.resolution, mu=mu, p=p)
    if args.format == "json":
        rows = []
        for c in cells:
            rows.append({
                "x": c.x,
                "y": c.y,
                "r": None if c.regime is None else c.regime.r_index,
                "t": None if c.regime is None else c.regime.t_index,
                "user1": None if c.assignment is None else c.assignment.user1.value,
                "user2": None if c.assignment is None else c.assignment.user2.value,
                "source": c.source,
            })
        _emit(_json_text({"cells": rows}), args.out)
    else:
        lines = ["x,y,r_index,t_index,user1,user2"]
        for c in cells:
            if c.regime is None or c.assignment is None:
                lines.append(f"{_fmt(c.x)},{_fmt(c.y)},NA,NA,NA,NA")
            else:
                lines.append(
                    f"{_fmt(c.x)},{_fmt(c.y)},{c.regime.r_index},{c.regime.t_index},"
                    f"{c.assignment.user1.value},{c.assignment.user2.value}"
                )
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_relay_power(args: argparse.Namespace) -> int:
    geom = _resolve_geometry(args)
    mu = check_number("--mu", args.mu, 0.0, 1.0)
    p = args.p if args.p is not None else 1.0
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
        geom, samples=args.samples, start=start, end=end, mu=mu, p=p)
    fractions = [pt.beta3 / p for pt in points] if p > 0 else [0.0 for _ in points]
    summary = None
    if fractions:
        summary = (f"min_power_fraction={_fmt(min(fractions))} "
                   f"max_power_fraction={_fmt(max(fractions))}")
    if args.format == "json":
        rows = [{"x": pt.x, "y": pt.y, "beta3": pt.beta3} for pt in points]
        _emit(_json_text({"points": rows}), args.out, summary)
    else:
        lines = ["x,y,beta3"]
        lines += [f"{_fmt(pt.x)},{_fmt(pt.y)},{_fmt(pt.beta3)}" for pt in points]
        _emit("\n".join(lines) + "\n", args.out, summary)
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
    sub.add_argument("--p", type=float, help="power budget per node (default 1)")
    sub.add_argument("--mu", type=float, default=0.75)
    sub.add_argument("--resolution", type=int, default=DEFAULT_MAP_RESOLUTION,
                     help=f"grid points per axis (default {DEFAULT_MAP_RESOLUTION})")
    _add_bounds_flags(sub)
    sub.add_argument("--out", metavar="FILE", help="write here instead of stdout")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.set_defaults(func=cmd_map)

    sub = subs.add_parser("relay-power", help="required relay power along a segment")
    sub.add_argument("--geometry", metavar="FILE", help="JSON geometry template (default: users 20 m apart)")
    sub.add_argument("--p", type=float, help="power budget per node (default 1)")
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
    except GridCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TwrcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
