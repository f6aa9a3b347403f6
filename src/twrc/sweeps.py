"""Sweeps over relay positions that call the solver: the technique map,
whose labels come from :func:`~twrc.regimes.technique_lookup` or, where
the table does not cover the gains, the solver (the rule ``twrc
classify`` shares), and the required-relay-power profile along a
segment."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .channel import Geometry, LinkGains, check_point, gains_from_geometry, validate_geometry
from .errors import CoincidentNodesError, SideConditionError, ValidationError, check_count, check_number
from .optimizer import ACTIVITY_THRESHOLD, solve
from .rate_region import validate_mu
from .regimes import Regime, SchemeAssignment, TechniqueDecision, classify, technique_lookup

__all__ = ["MapCell", "ProfilePoint", "regime_map", "relay_power_profile"]


def technique_labels(g: LinkGains, mu: float) -> tuple[TechniqueDecision, str]:
    """``technique_lookup(g, mu)`` and its source, ``"table"``, or the
    solver's labels and ``"solver"`` when the technique table does not
    cover ``g`` at ``mu``."""
    try:
        return technique_lookup(g, mu), "table"
    except SideConditionError:
        return TechniqueDecision(assignment=solve(g, mu).assignment), "solver"


@dataclass(frozen=True)
class MapCell:
    """One relay position in the technique map.

    ``source`` is "table" when the lookup table applied, "solver" when
    the side condition failed and labels came from the numeric solver,
    and "skipped" when the relay coincided with a user.
    """

    x: float
    y: float
    regime: Optional[Regime]
    assignment: Optional[SchemeAssignment]
    source: str


DEFAULT_MAP_BOUNDS = (-20.0, 40.0, -30.0, 30.0)
DEFAULT_MAP_RESOLUTION = 61


def regime_map(geom_template: Geometry = Geometry(),
               bounds: tuple[float, float, float, float] = DEFAULT_MAP_BOUNDS,
               resolution: int = DEFAULT_MAP_RESOLUTION,
               mu: float = 0.75,
               p: float = 1.0) -> list[MapCell]:
    """Technique labels over a grid of relay positions.

    ``resolution`` is the number of grid points per axis, endpoints
    included. Cells are emitted row by row (y outer, x inner).
    """
    validate_geometry(geom_template)
    resolution = check_count("resolution", resolution, 2)
    try:
        xmin, xmax, ymin, ymax = bounds
    except (TypeError, ValueError):
        raise ValidationError(f"bounds must be (xmin, xmax, ymin, ymax), got {bounds!r}") from None
    xmin, ymin = check_number("x bounds: xmin", xmin), check_number("y bounds: ymin", ymin)
    xmax = check_number("x bounds: xmax", xmax, xmin, low_open=True)
    ymax = check_number("y bounds: ymax", ymax, ymin, low_open=True)
    mu = validate_mu(mu)
    xs = np.linspace(xmin, xmax, resolution)
    ys = np.linspace(ymin, ymax, resolution)
    cells: list[MapCell] = []
    for y in ys:
        for x in xs:
            geom = geom_template.with_relay((float(x), float(y)))
            try:
                g = gains_from_geometry(geom, p=p)
            except CoincidentNodesError:
                cells.append(MapCell(float(x), float(y), None, None, "skipped"))
                continue
            decision, source = technique_labels(g, mu)
            cells.append(MapCell(float(x), float(y), classify(g), decision.assignment, source))
    return cells


@dataclass(frozen=True)
class ProfilePoint:
    """Required total relay power at one position: ``beta3`` is the whole
    budget ``p`` when the optimum uses coherent relay power, else the
    optimum's bin power."""

    x: float
    y: float
    beta3: float


def relay_power_profile(geom_template: Geometry = Geometry(),
                        samples: int = 41,
                        start: Optional[tuple[float, float]] = None,
                        end: Optional[tuple[float, float]] = None,
                        mu: float = 0.75,
                        p: float = 1.0) -> list[ProfilePoint]:
    """Relay power needed at interior points of a segment.

    The segment defaults to the line between the two users; samples are
    placed at fractions k/(samples+1) for k = 1..samples, so a single
    sample lands at the midpoint. Per sample the point reads
    ``solve(g, mu)``'s allocation: ``p`` when its coherent powers
    ``pw1 + pw2`` exceed ``ACTIVITY_THRESHOLD * p``, its ``beta3``, the
    least bin power the optimum needs, otherwise.
    """
    validate_geometry(geom_template)
    samples = check_count("samples", samples, 1)
    mu = validate_mu(mu)
    check_number("power budget p", p, 0.0)
    sx, sy = check_point("start", geom_template.user1 if start is None else start)
    ex, ey = check_point("end", geom_template.user2 if end is None else end)
    points: list[ProfilePoint] = []
    act = ACTIVITY_THRESHOLD * p
    for k in range(samples):
        t = (k + 1) / (samples + 1)
        x = sx + t * (ex - sx)
        y = sy + t * (ey - sy)
        geom = geom_template.with_relay((x, y))
        g = gains_from_geometry(geom, p=p)
        alloc = solve(g, mu).allocation
        points.append(ProfilePoint(x=x, y=y, beta3=p if alloc.pw1 + alloc.pw2 > act else alloc.beta3))
    return points
