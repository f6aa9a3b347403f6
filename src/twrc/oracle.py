"""Brute-force grid search over power allocations.

This module is the ground truth the analytic solver is validated against:
it enumerates reparameterized power allocations on a lattice, evaluates
the five rate bounds at every point with
:class:`~twrc.rate_region.RateKernel`, collects both pentagon corners, and
convex-hulls the result. Restricted variants (block Markov only,
independent only, direct only, time sharing) reuse the same machinery so
containment comparisons are exact: every restricted lattice is a literal
subset of the composite lattice. :func:`grid_best` skips the points and
corners that cannot hold a weighted-sum maximum.

The relay faces, which hold nearly all of the lattice, are never
materialized: each bound is evaluated once on the sub-lattice of the
variables it reads, in one broadcast kernel call, and the pentagon
corners broadcast back to one ``a1`` level at a time
(:func:`_face_corners`). The rates are bit-identical to evaluating
every point; :func:`_candidate_batches` keeps the materialized lattice
as the reference the tests compare against. The Pareto filter drops the
points strictly dominated by the batch's max-sum point before its sort,
which provably keeps the same points.

The oracle shares only the rate formulas with the solver and never
calls it; the sweeps that do call it live in :mod:`twrc.sweeps`.

All rates are log base 2 (bits per channel use).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .channel import LinkGains, validate_gains
from .errors import GridCapError, ValidationError, check_count, check_number
from .rate_region import PowerAllocation, RateKernel, RatePoint, capacity, pentagon_corner, validate_mu

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


def _check_cap(count: int) -> None:
    """Raise :class:`GridCapError` when ``count`` evaluations exceed the
    cap: ``TWRC_GRID_CAP`` if set, else the default. A cap that is not an
    integer >= 1 raises :class:`ValidationError`."""
    raw = os.environ.get(GRID_CAP_ENV)
    try:
        value = int(raw) if raw else DEFAULT_GRID_CAP
    except ValueError:
        value = None
    if value is None or value < 1:
        raise ValidationError(f"{GRID_CAP_ENV} must be an integer >= 1, got {raw!r}")
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


def _corner_rates(g: LinkGains, a1, b1, a2, b2, q1, q2, b3):
    """Both pentagon corners for a batch of allocations (numpy arrays):
    user 1's ``(r1a, r2a)``, then user 2's ``(r1b, r2b)``."""
    j = RateKernel(g).bounds(b1, b2, np.sqrt(q1 * a1), np.sqrt(q2 * a2), q1 + b3, q2 + b3)
    return (*pentagon_corner(*j, True), *pentagon_corner(*j, False))


_Batch = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _face_batches(levels: np.ndarray, p: float, q1p: np.ndarray, q2p: np.ndarray,
                  zero_bin: bool) -> Iterator[_Batch]:
    """Lattice over (a1, a2, relay simplex) with the bin power of
    :func:`_relay_bin`, one batch per ``a1`` level."""
    n = len(levels)
    m = len(q1p)
    a2 = np.repeat(levels, m)
    q1 = np.tile(q1p, n)
    q2 = np.tile(q2p, n)
    b3 = np.tile(_relay_bin(p, q1p, q2p, zero_bin), n)
    for a1_val in levels:
        a1 = np.full_like(a2, a1_val)
        valid = ((q1 <= 0.0) | (a1 > 0.0)) & ((q2 <= 0.0) | (a2 > 0.0))
        yield a1[valid], a2[valid], q1[valid], q2[valid], b3[valid]


def _face_corners(g: LinkGains, levels: np.ndarray, p: float, q1p: np.ndarray,
                  q2p: np.ndarray, b3p: np.ndarray,
                  favors: Iterable[bool]) -> Iterator[tuple[float, np.ndarray, dict]]:
    """The face lattice of :func:`_face_batches`, with the bin power
    ``b3p`` per relay pair, one ``a1`` level at a time: ``(a1, valid,
    corners)``. ``valid`` is the ``(n, m)`` mask of valid points over
    (``a2`` level, relay pair), whose ravel order is that of the batch,
    and ``corners[f]`` is :func:`pentagon_corner` favoring user 1 when
    ``f``, as ``(n, m)`` arrays.

    Each bound is evaluated once on the sub-lattice it depends on
    (``j1`` on ``a1``, ``j3`` on ``a2``, ``j5`` on both, ``j2`` on
    ``a1`` and the relay pair, ``j4`` on ``a2`` and the pair), through
    one broadcast :meth:`~twrc.rate_region.RateKernel.bounds` call, in
    the operand order of :func:`_corner_rates`, so the rates are
    bit-identical to the materialized batch. No array exceeds ``n * m``.
    """
    a1 = levels[:, None, None]
    a2 = levels[None, :, None]
    j1, j2, j3, j4, j5 = RateKernel(g).bounds(
        p - a1, p - a2, np.sqrt(q1p * a1), np.sqrt(q2p * a2), q1p + b3p, q2p + b3p)
    valid_pos = (q2p <= 0.0) | (levels[:, None] > 0.0)
    valid_zero = valid_pos & (q1p <= 0.0)
    for i, a1_val in enumerate(levels):
        j = (j1[i], j2[i], j3[0], j4[0], j5[i])
        corners = {f: pentagon_corner(*j, f) for f in favors}
        yield a1_val, (valid_pos if a1_val > 0.0 else valid_zero), corners


def _relay_bin(p: float, q1p: np.ndarray, q2p: np.ndarray, zero_bin: bool) -> np.ndarray:
    """Bin power per relay pair: the rest of the budget, clamped at 0 as
    ``q1 + q2`` may round past ``p``, or 0 on the block-Markov-only face."""
    return np.zeros_like(q1p) if zero_bin else np.maximum(p - q1p - q2p, 0.0)


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


class _Lattice(NamedTuple):
    """A restriction's lattice, in lattice order: the relay faces (the
    ``zero_bin`` flag of each), then the bin-only line, then the two
    time-share planes."""

    faces: tuple[bool, ...]
    bin_line: bool
    time_share: bool

    def count(self, levels: np.ndarray, p: float) -> int:
        n = len(levels)
        pairs = _simplex_pair_count(levels, p) if self.faces else 0
        return len(self.faces) * n * n * pairs + self.bin_line * n + self.time_share * 2 * n * n

    def line_batches(self, levels: np.ndarray, p: float) -> Iterator[_Batch]:
        """The lattice after its faces."""
        if self.bin_line:
            zeros = np.zeros_like(levels)
            yield zeros, zeros, zeros.copy(), zeros.copy(), levels.copy()
        if self.time_share:
            yield from _mixed_batch(levels, p, bm_user=1)
            yield from _mixed_batch(levels, p, bm_user=2)


# direct-only has no lattice: its hull is the analytic rectangle
_LATTICES = {
    SchemeRestriction.COMPOSITE: _Lattice(faces=(False, True), bin_line=True, time_share=True),
    SchemeRestriction.BLOCK_MARKOV_ONLY: _Lattice(faces=(True,), bin_line=False, time_share=False),
    SchemeRestriction.INDEPENDENT_ONLY: _Lattice(faces=(), bin_line=True, time_share=False),
    SchemeRestriction.TIME_SHARE: _Lattice(faces=(), bin_line=False, time_share=True),
}


def _candidate_batches(restriction: SchemeRestriction, levels: np.ndarray,
                       p: float) -> Iterator[_Batch]:
    """Every candidate of the restriction's lattice, materialized batch
    by batch: the reference that :func:`grid_region` and
    :func:`grid_best` evaluate without materializing the faces."""
    lattice = _LATTICES[restriction]
    if lattice.faces:
        q1p, q2p = _simplex_pairs(levels, p)
    for zero_bin in lattice.faces:
        yield from _face_batches(levels, p, q1p, q2p, zero_bin)
    yield from lattice.line_batches(levels, p)


def _pareto_mask(r1: np.ndarray, r2: np.ndarray) -> np.ndarray:
    """Points whose r2 beats every point before them in the order r1
    descending, then r2 descending, then index.

    Points strictly dominated by the max-``r1 + r2`` anchor are dropped
    before the sort: the anchor precedes each of them, and precedes
    every point they precede with no more r2, so dropping them changes
    no other point's fate. Exact copies of the anchor stay, since they
    are not dominated strictly.
    """
    anchor = np.argmax(r1 + r2)
    x, y = r1[anchor], r2[anchor]
    live = np.flatnonzero((r1 > x) | (r2 > y) | ((r1 == x) & (r2 == y)))
    order = live[np.lexsort((-r2[live], -r1[live]))]
    r2o = r2[order]
    cummax = np.maximum.accumulate(r2o)
    keep = np.empty(len(order), dtype=bool)
    keep[0] = True
    keep[1:] = r2o[1:] > cummax[:-1]
    mask = np.zeros(len(r1), dtype=bool)
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


def _validate_step(step: float, p: float) -> float:
    step = check_number("step", step, 0.0, low_open=True)
    if p > 0.0 and step > p:
        raise ValidationError(f"step {step!r} exceeds the power budget {p!r}")
    return step


def _direct_hull(g: LinkGains, step: float) -> RegionHull:
    kernel = RateKernel(g)
    r1c, r2c = capacity(kernel.base2), capacity(kernel.base4)
    corners = dict.fromkeys([(0.0, r2c), (r1c, r2c), (r1c, 0.0)])
    vertices = tuple(RatePoint(r1=r1, r2=r2) for r1, r2 in corners)
    return RegionHull(
        vertices=vertices,
        step=step,
        restriction=SchemeRestriction.DIRECT_ONLY,
        sources=(None,) * len(vertices),
    )


def grid_region(g: LinkGains, step: float = 0.05,
                restriction: SchemeRestriction = SchemeRestriction.COMPOSITE) -> RegionHull:
    """Achievable-rate hull by exhaustive lattice search.

    Enumerates allocations on a lattice of spacing ``step`` (users at
    full power; the relay split on its own simplex), evaluates the five
    bounds, keeps both pentagon corners per allocation, and returns the
    concave envelope padded with the axis points (0, r2_max) and
    (r1_max, 0).

    Raises :class:`GridCapError` when the lattice would exceed
    ``DEFAULT_GRID_CAP`` evaluations, or the ``TWRC_GRID_CAP``
    environment variable when set.
    """
    validate_gains(g)
    try:
        restriction = SchemeRestriction(restriction)
    except ValueError:
        names = ", ".join(r.value for r in SchemeRestriction)
        raise ValidationError(f"unknown restriction {restriction!r}; expected one of {names}") from None
    step = _validate_step(step, g.p)
    p = g.p
    if restriction == SchemeRestriction.DIRECT_ONLY:
        return _direct_hull(g, step)
    levels = _levels(p, step)
    lattice = _LATTICES[restriction]
    _check_cap(lattice.count(levels, p))
    kept: list[tuple[np.ndarray, ...]] = []

    def pareto(r1: np.ndarray, r2: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """A batch's Pareto points (user 1's corners, then user 2's) and
        the candidate each one comes from."""
        k = np.flatnonzero(_pareto_mask(r1, r2))
        return r1[k], r2[k], k % (len(r1) // 2)

    if lattice.faces:
        q1p, q2p = _simplex_pairs(levels, p)
    for zero_bin in lattice.faces:
        b3p = _relay_bin(p, q1p, q2p, zero_bin)
        for a1_val, valid, corners in _face_corners(g, levels, p, q1p, q2p, b3p, (True, False)):
            (r1a, r2a), (r1b, r2b) = corners[True], corners[False]
            r1, r2, i = pareto(np.concatenate([r1a[valid], r1b[valid]]),
                               np.concatenate([r2a[valid], r2b[valid]]))
            a2_idx, pair = np.divmod(np.flatnonzero(valid)[i], len(q1p))
            kept.append((r1, r2, np.full(len(i), a1_val), levels[a2_idx],
                         q1p[pair], q2p[pair], b3p[pair]))
    for batch in lattice.line_batches(levels, p):
        a1, a2, q1, q2, b3 = batch
        r1a, r2a, r1b, r2b = _corner_rates(g, a1, p - a1, a2, p - a2, q1, q2, b3)
        r1, r2, i = pareto(np.concatenate([r1a, r1b]), np.concatenate([r2a, r2b]))
        kept.append((r1, r2, *(c[i] for c in batch)))
    r1, r2, *coords = (np.concatenate(col) for col in zip(*kept))
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


def grid_best(g: LinkGains, mus: Sequence[float], step: float = 0.025) -> list[float]:
    """Best weighted sum over the composite lattice, per weight.

    Searches only the relay's full-power face ``beta3 = p - pw1 - pw2``
    and, per weight, only the corner the weight favors (user 1's when
    ``mu >= 1/2``, as in :func:`~twrc.rate_region.best_weighted_point`).
    The rest of the composite lattice cannot raise the maximum:

    - every point with less bin power (the ``beta3 = 0`` face, the
      bin-only line below ``beta3 = p``) is dominated by the face point
      with the same ``(alpha, pw)``, since raising ``beta3`` raises only
      the user-side bounds ``j2`` and ``j4``; the mixed time-share planes
      and the bin-only point ``beta3 = p`` are points of the face itself;
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

    Evaluates the face as in :func:`_face_corners` and shares it across
    all weights, so checking several weights costs barely more than one.
    The cap counts the face lattice, ``n * n`` user splits times the
    relay simplex pairs.
    """
    validate_gains(g)
    step = _validate_step(step, g.p)
    if not isinstance(mus, Iterable):
        raise ValidationError(f"mus must be an iterable of weights, got {mus!r}")
    mus = [validate_mu(mu) for mu in mus]
    p = g.p
    levels = _levels(p, step)
    _check_cap(len(levels) ** 2 * _simplex_pair_count(levels, p))
    q1p, q2p = _simplex_pairs(levels, p)
    b3p = _relay_bin(p, q1p, q2p, zero_bin=False)
    favor1 = [mu >= 0.5 for mu in mus]
    best = [-math.inf] * len(mus)
    for _, valid, corners in _face_corners(g, levels, p, q1p, q2p, b3p, set(favor1)):
        rates = {f: (r1[valid], r2[valid]) for f, (r1, r2) in corners.items()}
        for k, mu in enumerate(mus):
            r1, r2 = rates[favor1[k]]
            best[k] = max(best[k], float(np.max(mu * r1 + (1.0 - mu) * r2)))
    return best


def local_grid_best(g: LinkGains, mu: float, center: PowerAllocation,
                    radius: float, points_per_axis: int = 9) -> float:
    """Best weighted sum on a dense box around a candidate optimum.

    Varies (alpha1, alpha2, pw1, pw2, beta3) within ``radius`` of the
    center, clipped to the feasible set. Used to probe whether a solver
    point is locally beatable. ``radius`` and the center's fields must be
    finite, ``radius`` also nonnegative, and ``points_per_axis`` a
    positive integer; the cap counts the ``points_per_axis ** 5`` points
    of the box.
    """
    validate_gains(g)
    mu = validate_mu(mu)
    for name, value in center.to_dict().items():
        check_number(f"center {name}", value)
    check_number("radius", radius, 0.0)
    points_per_axis = check_count("points_per_axis", points_per_axis, 1)
    _check_cap(points_per_axis ** 5)
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


def audit_grid_best(g: LinkGains, mu: float, step: float) -> float:
    """Best weighted sum over the unreduced lattice.

    Unlike :func:`grid_best` this varies all seven powers, including
    underusing the user budgets, and exists to confirm empirically that
    the full-power reductions lose nothing. Keep the step coarse.
    """
    validate_gains(g)
    mu = validate_mu(mu)
    step = _validate_step(step, g.p)
    p = g.p
    levels = _levels(p, step)
    pa, pb = _simplex_pairs(levels, p)
    m_pairs = len(pa)
    # relay triples (q1, q2, b3) within budget, one q1 level at a time, so
    # no array is n**3 and the cap is checked before any lattice is built
    q2g, b3g = np.meshgrid(levels, levels, indexing="ij")
    budget = p * (1.0 + 1e-12)
    counts = [int(np.count_nonzero(q1 + q2g + b3g <= budget)) for q1 in levels]
    m_tri = sum(counts)
    _check_cap(m_pairs * m_pairs * m_tri)
    masks = [q1 + q2g + b3g <= budget for q1 in levels]
    q1t = np.repeat(levels, counts)
    q2t = np.concatenate([q2g[m] for m in masks])
    b3t = np.concatenate([b3g[m] for m in masks])
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
    check_number("slack", slack, 0.0)
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
    check_number("margin", margin, 0.0)
    for v in outer.vertices:
        bound = float(inner.envelope([v.r1])[0])
        if v.r2 >= bound + margin:
            return True
    return False
