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
import math
import sys
from pathlib import Path
from typing import Optional

from .channel import GAIN_FIELDS, Geometry, LinkGains, gains_from_geometry
from .errors import GridCapError, SideConditionError, TwrcError, ValidationError, WrongRegimeError
from .oracle import (
    DEFAULT_MAP_BOUNDS,
    DEFAULT_MAP_RESOLUTION,
    SchemeRestriction,
    grid_region,
    regime_map,
    relay_power_profile,
)
from .optimizer import check_full_power, min_relay_power, solve
from .regimes import assignment_for_gains, classify


def _fmt(value: float) -> str:
    return format(float(value), ".9g")


def _load_json(path: str, what: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
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
        getattr(args, "geometry", None) is not None,
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
    if inline_given:
        missing = [name for name in GAIN_FIELDS if inline[name] is None]
        if missing:
            flags = ", ".join(f"--{name}" for name in missing)
            raise ValidationError(f"missing inline gain flags: {flags}")
        p = args.p if args.p is not None else 1.0
        return LinkGains(p=p, **{k: float(v) for k, v in inline.items()})
    geom = Geometry.from_dict(_load_json(args.geometry, "geometry"))
    p = args.p if args.p is not None else 1.0
    return gains_from_geometry(geom, p=p)


def _resolve_geometry(args: argparse.Namespace) -> Geometry:
    if getattr(args, "geometry", None) is not None:
        return Geometry.from_dict(_load_json(args.geometry, "geometry"))
    return Geometry()


def _check_mu(mu: float) -> float:
    if not (math.isfinite(mu) and 0.0 <= mu <= 1.0):
        raise ValidationError(f"--mu must lie in [0, 1], got {mu!r}")
    return mu


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
    mu = _check_mu(args.mu)
    reg = classify(g)
    payload: dict = {"regime": reg.to_dict(), "mu": mu}
    try:
        decision = assignment_for_gains(g, mu)
        payload["assignment"] = decision.assignment.to_dict()
        payload["source"] = "table"
        if decision.ambiguous and decision.alternate is not None:
            payload["ambiguous"] = True
            payload["alternate_assignment"] = decision.alternate.to_dict()
    except SideConditionError:
        res = solve(g, mu)
        payload["assignment"] = res.assignment.to_dict()
        payload["source"] = "solver"
    sys.stdout.write(_json_text(payload))
    return 0


def cmd_region(args: argparse.Namespace) -> int:
    g = _resolve_gains(args)
    try:
        restriction = SchemeRestriction(args.restrict)
    except ValueError:
        names = ", ".join(r.value for r in SchemeRestriction)
        raise ValidationError(f"unknown restriction {args.restrict!r}; expected one of {names}")
    hull = grid_region(g, step=args.step, restriction=restriction)
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
    mu = _check_mu(args.mu)
    res = solve(g, mu, method=args.method)
    payload = res.to_dict()
    payload["regime"] = classify(g).to_dict()
    payload["full_power_ok"] = check_full_power(g, res)
    tol = 1e-8 * max(1.0, g.p)
    payload["relay_full_power"] = abs(res.allocation.relay_total - g.p) <= tol
    try:
        payload["closed_form_beta3"] = min_relay_power(g)
    except WrongRegimeError:
        payload["closed_form_beta3"] = None
    _emit(_json_text(payload), args.out)
    return 0


def cmd_map(args: argparse.Namespace) -> int:
    geom = _resolve_geometry(args)
    mu = _check_mu(args.mu)
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
    mu = _check_mu(args.mu)
    p = args.p if args.p is not None else 1.0
    start = (args.x0, args.y0) if args.x0 is not None or args.y0 is not None else None
    end = (args.x1, args.y1) if args.x1 is not None or args.y1 is not None else None
    if start is not None and (args.x0 is None or args.y0 is None):
        raise ValidationError("give both --x0 and --y0 for the segment start")
    if end is not None and (args.x1 is None or args.y1 is None):
        raise ValidationError("give both --x1 and --y1 for the segment end")
    sx, sy = start if start is not None else geom.user1
    ex, ey = end if end is not None else geom.user2
    for label, (vx, vy) in (("start", (sx, sy)), ("end", (ex, ey))):
        if not (args.xmin <= vx <= args.xmax and args.ymin <= vy <= args.ymax):
            raise ValidationError(
                f"segment {label} ({vx}, {vy}) lies outside the bounds "
                f"[{args.xmin}, {args.xmax}] x [{args.ymin}, {args.ymax}]"
            )
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


def _add_gain_source_flags(sub: argparse.ArgumentParser, geometry: bool = True) -> None:
    sub.add_argument("--gains", metavar="FILE", help="JSON file with g12, g21, g1r, gr1, g2r, gr2 and optional p")
    for name in GAIN_FIELDS:
        sub.add_argument(f"--{name}", type=float, metavar="AMP", help=f"inline amplitude gain {name}")
    if geometry:
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
    sub.add_argument("--method", choices=("auto", "numeric"), default="auto")
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
