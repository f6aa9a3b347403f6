"""Brute-force grid search over power allocations, plus map/profile tools.

This module is the ground truth the analytic solver is validated against:
it enumerates reparameterized power allocations on a lattice, evaluates
the five rate bounds at every point with
:class:`~twrc.rate_region.RateKernel`, collects both pentagon corners, and
convex-hulls the result. Restricted variants (block Markov only,
independent only, direct only, time sharing) reuse the same machinery so
containment comparisons are exact: every restricted lattice is a literal
subset of the composite lattice. :func:`grid_best` skips the points and
corners that cannot hold a weighted-sum maximum.

Also here because they share the geometry plumbing: the relay-position
technique map and the required-relay-power profile along a segment.

All rates are log base 2 (bits per channel use).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Optional, Sequence

import numpy as np

from .channel import Geometry, LinkGains, gains_from_geometry, validate_gains, validate_geometry
from .errors import CoincidentNodesError, GridCapError, SideConditionError, ValidationError, WrongRegimeError
from .optimizer import ACTIVITY_THRESHOLD, SolveResult, min_relay_power, solve
from .rate_region import PowerAllocation, RateKernel, RatePoint, capacity, pentagon_corner
from .regimes import Regime, SchemeAssignment, classify, technique_lookup

DEFAULT_GRID_CAP = 10 ** 8
GRID_CAP_ENV = "TWRC_GRID_CAP"


class SchemeRestriction(str, Enum):
    """Which coding components the grid may use.

    Values double as the CLI spellings.
    """

    COMPOSITE = "composite"
    BLOCK_MARKOV_ONLY = "bm"
    INDEPENDENT_ONLY = "ind"
    DIRECT_ONLY = "direct"
    TIME_SHARE = "timeshare"


@dataclass(frozen=True)
class RegionHull:
    """Upper-right boundary of an achievable-rate set.

    ``vertices`` are sorted by r1 ascending (r2 descending) and trace a
    concave staircase envelope from (0, r2_max) to (r1_max, 0).
    ``sources[i]`` is an allocation whose pentagon contains
    ``vertices[i]``, or None for analytically constructed hulls.
    """

    vertices: tuple[RatePoint, ...]
    step: float
    restriction: SchemeRestriction
    sources: tuple[Optional[PowerAllocation], ...]

    @property
    def r1_max(self) -> float:
        return max(v.r1 for v in self.vertices)

    @property
    def r2_max(self) -> float:
        return max(v.r2 for v in self.vertices)

    @property
    def max_sum_rate(self) -> float:
        return max(v.r1 + v.r2 for v in self.vertices)

    def envelope(self, r1: Sequence[float]) -> np.ndarray:
        """Boundary r2 value above each queried r1 (0 beyond r1_max)."""
        xs = np.array([v.r1 for v in self.vertices])
        ys = np.array([v.r2 for v in self.vertices])
        # collapse duplicate abscissas (degenerate hulls) keeping max r2
        if len(xs) > 1:
            ux, inverse = np.unique(xs, return_inverse=True)
            uy = np.full(len(ux), -np.inf)
            np.maximum.at(uy, inverse, ys)
            xs, ys = ux, uy
        q = np.asarray(r1, dtype=float)
        out = np.interp(q, xs, ys)
        out = np.where(q > xs[-1], 0.0, out)
        return out


def _check_cap(count: int, cap: Optional[int]) -> None:
    """Raise :class:`GridCapError` when ``count`` evaluations exceed the
    cap: ``cap`` if given, else ``TWRC_GRID_CAP``, else the default."""
    if cap is not None:
        value = int(cap)
    else:
        raw = os.environ.get(GRID_CAP_ENV)
        value = int(raw) if raw else DEFAULT_GRID_CAP
    if value <= 0:
        raise ValidationError(f"grid cap must be positive, got {value}")
    if count > value:
        raise GridCapError(
            f"grid needs {count} evaluations, over the cap of {value}; "
            f"raise {GRID_CAP_ENV} or increase step"
        )


def _levels(p: float, step: float) -> np.ndarray:
    """Lattice 0, step, 2*step, ... plus p itself when step does not
    divide p (the final cell is then shorter than step). No level exceeds
    p, which ``n * step`` can by rounding."""
    if p <= 0.0:
        return np.zeros(1)
    n = int(math.floor(p / step + 1e-9))
    vals = np.minimum(np.linspace(0.0, n * step, n + 1), p)
    if n * step < p - 1e-12 * max(1.0, p):
        vals = np.append(vals, p)
    return vals


def _simplex_pair_count(levels: np.ndarray, p: float) -> int:
    budget = p * (1.0 + 1e-12) - levels
    return int(np.searchsorted(levels, budget, side="right").clip(min=0).sum())


def _simplex_pairs(levels: np.ndarray, p: float) -> tuple[np.ndarray, np.ndarray]:
    g1, g2 = np.meshgrid(levels, levels, indexing="ij")
    mask = g1 + g2 <= p * (1.0 + 1e-12)
    return g1[mask], g2[mask]


def _bounds(g: LinkGains, a1, b1, a2, b2, q1, q2, b3):
    """``(j1, ..., j5)`` for a batch of allocations (numpy arrays)."""
    return RateKernel(g).bounds(b1, b2, np.sqrt(q1 * a1), np.sqrt(q2 * a2), q1 + b3, q2 + b3)


def _corner_rates(g: LinkGains, a1, b1, a2, b2, q1, q2, b3):
    """Both pentagon corners for a batch of allocations (numpy arrays):
    user 1's ``(r1a, r2a)``, then user 2's ``(r1b, r2b)``."""
    j = _bounds(g, a1, b1, a2, b2, q1, q2, b3)
    return (*pentagon_corner(*j, True), *pentagon_corner(*j, False))


_Batch = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _face_batches(levels: np.ndarray, p: float, q1p: np.ndarray, q2p: np.ndarray,
                  zero_bin: bool) -> Iterator[_Batch]:
    """Lattice over (a1, a2, relay simplex) with b3 = p - q1 - q2 (clamped
    at 0, as q1 + q2 may round past p), or b3 = 0 for the
    block-Markov-only variant."""
    n = len(levels)
    m = len(q1p)
    a2 = np.repeat(levels, m)
    q1 = np.tile(q1p, n)
    q2 = np.tile(q2p, n)
    b3 = np.zeros_like(q1) if zero_bin else np.maximum(p - q1 - q2, 0.0)
    for a1_val in levels:
        a1 = np.full_like(a2, a1_val)
        valid = ((q1 <= 0.0) | (a1 > 0.0)) & ((q2 <= 0.0) | (a2 > 0.0))
        yield a1[valid], a2[valid], q1[valid], q2[valid], b3[valid]


def _ind_batch(levels: np.ndarray) -> Iterator[_Batch]:
    zeros = np.zeros_like(levels)
    yield zeros, zeros, zeros.copy(), zeros.copy(), levels.copy()


def _mixed_batch(levels: np.ndarray, p: float, bm_user: int) -> Iterator[_Batch]:
    """One user runs block Markov only (fresh power + coherent relay
    power), the other independent only (bin power takes the rest)."""
    n = len(levels)
    a = np.repeat(levels, n)
    q = np.tile(levels, n)
    valid = (q <= 0.0) | (a > 0.0)
    a, q = a[valid], q[valid]
    b3 = p - q
    zeros = np.zeros_like(a)
    if bm_user == 1:
        yield a, zeros, q, zeros.copy(), b3
    else:
        yield zeros, a, zeros.copy(), q, b3


def _candidate_batches(restriction: SchemeRestriction, levels: np.ndarray,
                       p: float) -> Iterator[_Batch]:
    if restriction in (SchemeRestriction.COMPOSITE, SchemeRestriction.BLOCK_MARKOV_ONLY):
        q1p, q2p = _simplex_pairs(levels, p)
    if restriction == SchemeRestriction.COMPOSITE:
        yield from _face_batches(levels, p, q1p, q2p, zero_bin=False)
        yield from _face_batches(levels, p, q1p, q2p, zero_bin=True)
        yield from _ind_batch(levels)
        yield from _mixed_batch(levels, p, bm_user=1)
        yield from _mixed_batch(levels, p, bm_user=2)
    elif restriction == SchemeRestriction.BLOCK_MARKOV_ONLY:
        yield from _face_batches(levels, p, q1p, q2p, zero_bin=True)
    elif restriction == SchemeRestriction.INDEPENDENT_ONLY:
        yield from _ind_batch(levels)
    elif restriction == SchemeRestriction.TIME_SHARE:
        yield from _mixed_batch(levels, p, bm_user=1)
        yield from _mixed_batch(levels, p, bm_user=2)
    else:  # pragma: no cover - direct handled analytically
        raise ValidationError(f"no lattice for restriction {restriction!r}")


def _count_candidates(restriction: SchemeRestriction, levels: np.ndarray, p: float) -> int:
    n = len(levels)
    if restriction in (SchemeRestriction.COMPOSITE, SchemeRestriction.BLOCK_MARKOV_ONLY):
        pairs = _simplex_pair_count(levels, p)
    if restriction == SchemeRestriction.COMPOSITE:
        return 2 * n * n * pairs + n + 2 * n * n
    if restriction == SchemeRestriction.BLOCK_MARKOV_ONLY:
        return n * n * pairs
    if restriction == SchemeRestriction.INDEPENDENT_ONLY:
        return n
    if restriction == SchemeRestriction.TIME_SHARE:
        return 2 * n * n
    return 0


def _pareto_mask(r1: np.ndarray, r2: np.ndarray) -> np.ndarray:
    order = np.lexsort((-r2, -r1))
    r2o = r2[order]
    cummax = np.maximum.accumulate(r2o)
    keep = np.empty(len(order), dtype=bool)
    keep[0] = True
    keep[1:] = r2o[1:] > cummax[:-1]
    mask = np.zeros(len(order), dtype=bool)
    mask[order[keep]] = True
    return mask


def _chain_indices(r1: np.ndarray, r2: np.ndarray) -> list[int]:
    """Concave upper envelope of points sorted by r1 ascending."""
    kept: list[int] = []
    for i in range(len(r1)):
        while len(kept) >= 2:
            o, a = kept[-2], kept[-1]
            turn = (r1[a] - r1[o]) * (r2[i] - r2[o]) - (r2[a] - r2[o]) * (r1[i] - r1[o])
            if turn >= 0.0:
                kept.pop()
            else:
                break
        kept.append(i)
    return kept


def _check_mu(mu: float) -> None:
    if not (0.0 <= mu <= 1.0):
        raise ValidationError(f"mu must lie in [0, 1], got {mu!r}")


def _validate_step(step: float, p: float) -> float:
    if not (isinstance(step, (int, float)) and math.isfinite(step) and step > 0.0):
        raise ValidationError(f"step must be a positive finite number, got {step!r}")
    if p > 0.0 and step > p:
        raise ValidationError(f"step {step!r} exceeds the power budget {p!r}")
    return float(step)


def _direct_hull(g: LinkGains, step: float) -> RegionHull:
    r1c = capacity(g.g21 ** 2 * g.p)
    r2c = capacity(g.g12 ** 2 * g.p)
    points = [(0.0, r2c), (r1c, r2c), (r1c, 0.0)]
    seen = set()
    vertices = []
    for pt in points:
        if pt not in seen:
            seen.add(pt)
            vertices.append(RatePoint(r1=pt[0], r2=pt[1]))
    return RegionHull(
        vertices=tuple(vertices),
        step=step,
        restriction=SchemeRestriction.DIRECT_ONLY,
        sources=(None,) * len(vertices),
    )


def grid_region(g: LinkGains, step: float = 0.05,
                restriction: SchemeRestriction = SchemeRestriction.COMPOSITE,
                cap: Optional[int] = None) -> RegionHull:
    """Achievable-rate hull by exhaustive lattice search.

    Enumerates allocations on a lattice of spacing ``step`` (users at
    full power; the relay split on its own simplex), evaluates the five
    bounds, keeps both pentagon corners per allocation, and returns the
    concave envelope padded with the axis points (0, r2_max) and
    (r1_max, 0).

    Raises :class:`GridCapError` when the lattice would exceed ``cap``
    evaluations (default ``DEFAULT_GRID_CAP``, overridable via the
    ``TWRC_GRID_CAP`` environment variable).
    """
    validate_gains(g)
    restriction = SchemeRestriction(restriction)
    step = _validate_step(step, g.p)
    p = g.p
    if restriction == SchemeRestriction.DIRECT_ONLY:
        return _direct_hull(g, step)
    levels = _levels(p, step)
    _check_cap(_count_candidates(restriction, levels, p), cap)
    acc_r1, acc_r2 = [], []
    acc_coord = [[], [], [], [], []]
    for a1, a2, q1, q2, b3 in _candidate_batches(restriction, levels, p):
        if len(a1) == 0:
            continue
        r1a, r2a, r1b, r2b = _corner_rates(g, a1, p - a1, a2, p - a2, q1, q2, b3)
        r1 = np.concatenate([r1a, r1b])
        r2 = np.concatenate([r2a, r2b])
        coords = [np.concatenate([c, c]) for c in (a1, a2, q1, q2, b3)]
        keep = _pareto_mask(r1, r2)
        acc_r1.append(r1[keep])
        acc_r2.append(r2[keep])
        for store, arr in zip(acc_coord, coords):
            store.append(arr[keep])
    r1 = np.concatenate(acc_r1)
    r2 = np.concatenate(acc_r2)
    coords = [np.concatenate(c) for c in acc_coord]
    keep = _pareto_mask(r1, r2)
    r1, r2 = r1[keep], r2[keep]
    coords = [c[keep] for c in coords]
    order = np.argsort(r1, kind="stable")
    r1, r2 = r1[order], r2[order]
    coords = [c[order] for c in coords]
    chain = _chain_indices(r1, r2)

    def _alloc(i: int) -> PowerAllocation:
        return PowerAllocation(
            alpha1=float(coords[0][i]), beta1=float(p - coords[0][i]),
            alpha2=float(coords[1][i]), beta2=float(p - coords[1][i]),
            pw1=float(coords[2][i]), pw2=float(coords[3][i]),
            beta3=float(coords[4][i]),
        )

    vertices = [RatePoint(r1=float(r1[i]), r2=float(r2[i])) for i in chain]
    sources = [_alloc(i) for i in chain]
    if vertices[0].r1 > 0.0:
        vertices.insert(0, RatePoint(r1=0.0, r2=vertices[0].r2))
        sources.insert(0, sources[0])
    if vertices[-1].r2 > 0.0:
        vertices.append(RatePoint(r1=vertices[-1].r1, r2=0.0))
        sources.append(sources[-1])
    return RegionHull(
        vertices=tuple(vertices),
        step=step,
        restriction=restriction,
        sources=tuple(sources),
    )


def grid_best(g: LinkGains, mus: Sequence[float], step: float = 0.025,
              cap: Optional[int] = None) -> list[float]:
    """Best weighted sum over the composite lattice, per weight.

    Searches only the relay's full-power face ``beta3 = p - pw1 - pw2``
    and, per weight, only the corner the weight favors (user 1's when
    ``mu >= 1/2``, as in :func:`~twrc.rate_region.best_weighted_point`).
    The rest of the composite lattice cannot raise the maximum:

    - every point with less bin power (the ``beta3 = 0`` face) is
      dominated by the face point with the same ``(alpha, pw)``, since
      raising ``beta3`` raises only the user-side bounds ``j2`` and
      ``j4``; the bin-only line and the mixed time-share planes are
      points of the face itself;
    - at the favored corner the weighted sum never falls when any bound
      rises: if ``r1`` gains d, ``r2`` loses at most d, and ``mu >= 1/2``
      (symmetrically for user 2);
    - the favored corner is the pentagon's maximizer.

    A dominated point can still round a few ulps above the point that
    dominates it, so the result may sit that far below a search of the
    whole lattice. :func:`grid_region` keeps every candidate, because
    each restricted lattice must stay a literal subset of the composite
    one. :func:`local_grid_best` searches a box around a solver point,
    which need not meet the full-power face, and :func:`audit_grid_best`
    is the independent unreduced check, so neither is pruned.

    Shares the lattice across all weights, so checking several weights
    costs barely more than one. The cap counts the face lattice,
    ``n * n`` user splits times the relay simplex pairs.
    """
    validate_gains(g)
    step = _validate_step(step, g.p)
    for mu in mus:
        _check_mu(mu)
    p = g.p
    levels = _levels(p, step)
    _check_cap(len(levels) ** 2 * _simplex_pair_count(levels, p), cap)
    q1p, q2p = _simplex_pairs(levels, p)
    favor1 = [mu >= 0.5 for mu in mus]
    best = [-math.inf] * len(mus)
    for a1, a2, q1, q2, b3 in _face_batches(levels, p, q1p, q2p, zero_bin=False):
        if len(a1) == 0:
            continue
        j = _bounds(g, a1, p - a1, a2, p - a2, q1, q2, b3)
        corners = {f: pentagon_corner(*j, f) for f in set(favor1)}
        for k, mu in enumerate(mus):
            r1, r2 = corners[favor1[k]]
            best[k] = max(best[k], float(np.max(mu * r1 + (1.0 - mu) * r2)))
    return best


def local_grid_best(g: LinkGains, mu: float, center: PowerAllocation,
                    radius: float, points_per_axis: int = 9) -> float:
    """Best weighted sum on a dense box around a candidate optimum.

    Varies (alpha1, alpha2, pw1, pw2, beta3) within ``radius`` of the
    center, clipped to the feasible set. Used to probe whether a solver
    point is locally beatable. ``radius`` must be finite and nonnegative
    and ``points_per_axis`` a positive integer.
    """
    validate_gains(g)
    _check_mu(mu)
    if not (math.isfinite(radius) and radius >= 0.0):
        raise ValidationError(f"radius must be finite and nonnegative, got {radius!r}")
    if not (isinstance(points_per_axis, int) and points_per_axis >= 1):
        raise ValidationError(f"points_per_axis must be an integer >= 1, got {points_per_axis!r}")
    p = g.p
    if p <= 0.0:
        return 0.0

    def axis(value: float, hi: float) -> np.ndarray:
        lo_v = max(0.0, value - radius)
        hi_v = min(hi, value + radius)
        return np.linspace(lo_v, hi_v, points_per_axis)

    a1v = axis(center.alpha1, p)
    a2v = axis(center.alpha2, p)
    q1v = axis(center.pw1, p)
    q2v = axis(center.pw2, p)
    b3v = axis(center.beta3, p)
    a1, a2, q1, q2, b3 = (x.ravel() for x in np.meshgrid(a1v, a2v, q1v, q2v, b3v, indexing="ij"))
    ok = (q1 + q2 + b3 <= p * (1.0 + 1e-12))
    ok &= ((q1 <= 0.0) | (a1 > 0.0)) & ((q2 <= 0.0) | (a2 > 0.0))
    a1, a2, q1, q2, b3 = a1[ok], a2[ok], q1[ok], q2[ok], b3[ok]
    if len(a1) == 0:
        return -math.inf
    r1a, r2a, r1b, r2b = _corner_rates(g, a1, p - a1, a2, p - a2, q1, q2, b3)
    wa = float(np.max(mu * r1a + (1.0 - mu) * r2a))
    wb = float(np.max(mu * r1b + (1.0 - mu) * r2b))
    return max(wa, wb)


def audit_grid_best(g: LinkGains, mu: float, step: float,
                    cap: Optional[int] = None) -> float:
    """Best weighted sum over the unreduced lattice.

    Unlike :func:`grid_best` this varies all seven powers, including
    underusing the user budgets, and exists to confirm empirically that
    the full-power reductions lose nothing. Keep the step coarse.
    """
    validate_gains(g)
    _check_mu(mu)
    step = _validate_step(step, g.p)
    p = g.p
    levels = _levels(p, step)
    pa, pb = _simplex_pairs(levels, p)
    m_pairs = len(pa)
    q1g, q2g, b3g = np.meshgrid(levels, levels, levels, indexing="ij")
    tri_mask = q1g + q2g + b3g <= p * (1.0 + 1e-12)
    q1t, q2t, b3t = q1g[tri_mask], q2g[tri_mask], b3g[tri_mask]
    m_tri = len(q1t)
    _check_cap(m_pairs * m_pairs * m_tri, cap)
    best = -math.inf
    a2 = np.repeat(pa, m_tri)
    b2 = np.repeat(pb, m_tri)
    q1 = np.tile(q1t, m_pairs)
    q2 = np.tile(q2t, m_pairs)
    b3 = np.tile(b3t, m_pairs)
    for a1_val, b1_val in zip(pa, pb):
        valid = ((q1 <= 0.0) | (a1_val > 0.0)) & ((q2 <= 0.0) | (a2 > 0.0))
        if not valid.any():
            continue
        a1 = np.full(int(valid.sum()), a1_val)
        b1 = np.full_like(a1, b1_val)
        r1a, r2a, r1b, r2b = _corner_rates(
            g, a1, b1, a2[valid], b2[valid], q1[valid], q2[valid], b3[valid])
        wa = float(np.max(mu * r1a + (1.0 - mu) * r2a))
        wb = float(np.max(mu * r1b + (1.0 - mu) * r2b))
        best = max(best, wa, wb)
    return best


# absorbs interpolation round-off so exact-subset containment at slack 0
# is not broken by a few ulps
_HULL_FP_GUARD = 1e-12


def hull_contains(outer: RegionHull, inner: RegionHull, slack: float = 0.0) -> bool:
    """True when every inner vertex lies in the outer region grown by
    ``slack``. Both hulls must come from the same gains to be
    comparable."""
    if slack < 0.0:
        raise ValidationError(f"slack must be nonnegative, got {slack!r}")
    xmax = outer.r1_max
    for v in inner.vertices:
        if v.r1 > xmax + slack + _HULL_FP_GUARD:
            return False
        bound = float(outer.envelope([min(v.r1, xmax)])[0])
        if v.r2 > bound + slack + _HULL_FP_GUARD * (1.0 + abs(bound)):
            return False
    return True


def hull_exceeds(outer: RegionHull, inner: RegionHull, margin: float) -> bool:
    """True when some outer vertex beats the inner boundary by at least
    ``margin`` bits in the r2 direction (0 beyond the inner r1 range)."""
    for v in outer.vertices:
        bound = float(inner.envelope([v.r1])[0])
        if v.r2 >= bound + margin:
            return True
    return False


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
    if not (isinstance(resolution, int) and resolution >= 2):
        raise ValidationError(f"resolution must be an integer >= 2, got {resolution!r}")
    xmin, xmax, ymin, ymax = (float(b) for b in bounds)
    if not (math.isfinite(xmin) and math.isfinite(xmax) and xmin < xmax):
        raise ValidationError(f"x bounds must satisfy xmin < xmax, got {xmin!r}, {xmax!r}")
    if not (math.isfinite(ymin) and math.isfinite(ymax) and ymin < ymax):
        raise ValidationError(f"y bounds must satisfy ymin < ymax, got {ymin!r}, {ymax!r}")
    _check_mu(mu)
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
            reg = classify(g)
            swapped_reg = classify(g.swapped()) if mu <= 0.5 else None
            try:
                decision = technique_lookup(reg, mu, swapped_reg=swapped_reg)
                cells.append(MapCell(float(x), float(y), reg, decision.assignment, "table"))
            except SideConditionError:
                res = solve(g, mu)
                cells.append(MapCell(float(x), float(y), reg, res.assignment, "solver"))
    return cells


@dataclass(frozen=True)
class ProfilePoint:
    """Required total relay power at one position (``beta3`` holds the
    whole relay budget in use, coherent parts included)."""

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
    sample lands at the midpoint. Per sample: full power when any
    coherent component is active at the optimum, the independent-coding
    minimum-power formula in its cells, the solver's minimized bin power
    otherwise.
    """
    validate_geometry(geom_template)
    if not (isinstance(samples, int) and samples >= 1):
        raise ValidationError(f"samples must be a positive integer, got {samples!r}")
    _check_mu(mu)
    sx, sy = start if start is not None else geom_template.user1
    ex, ey = end if end is not None else geom_template.user2
    for name, value in (("start", (sx, sy)), ("end", (ex, ey))):
        if not (math.isfinite(value[0]) and math.isfinite(value[1])):
            raise ValidationError(f"segment {name} must be finite, got {value!r}")
    points: list[ProfilePoint] = []
    act = ACTIVITY_THRESHOLD * p
    for k in range(samples):
        t = (k + 1) / (samples + 1)
        x = sx + t * (ex - sx)
        y = sy + t * (ey - sy)
        geom = geom_template.with_relay((x, y))
        g = gains_from_geometry(geom, p=p)
        res: SolveResult = solve(g, mu)
        alloc = res.allocation
        if alloc.pw1 + alloc.pw2 > act:
            power = p
        else:
            try:
                power = min_relay_power(g)
            except WrongRegimeError:
                power = alloc.beta3
        points.append(ProfilePoint(x=x, y=y, beta3=power))
    return points
