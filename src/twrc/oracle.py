"""Brute-force grid search over power allocations.

This module is the ground truth the analytic solver is validated against:
it enumerates reparameterized power allocations on a lattice, evaluates
the five rate bounds at every point with
:class:`~twrc.rate_region.RateKernel`, collects both pentagon corners, and
convex-hulls the result. Restricted variants (block Markov only,
independent only, direct only, time sharing) reuse the same machinery so
containment comparisons are exact: every restricted lattice is a literal
subset of the composite lattice. :func:`grid_best` skips the points and
corners that cannot hold a weighted-sum maximum, and :func:`grid_region`
the points that cannot survive its Pareto filter.

Every lattice is a list of product pieces, user-1 points x user-2
points x relay points (:func:`_pieces`), and none is materialized: each
bound is evaluated once on the points it reads, in one broadcast kernel
call (:func:`_bounds`). The rates are bit-identical to evaluating every
allocation alone, which the tests do on the materialized lattice as
their reference. No search walks the points: the pentagon corners have
one route, :func:`_corner_best`. Two float facts of the bounds, ``j5 >=
j1, j3`` and ``j5`` never rising with either user's level, make the
favored user's rate at each corner independent of the other user's
level, so an exact crossing search (:func:`_crossing`) finds, per
favored level and relay pair, the other user's best rate, in O(n m
log n) time and O(n m) memory for ``n`` levels and ``m`` relay pairs.
Those are the only points that can hold grid_best's maximum or survive
grid_region's Pareto filter, with the same floats and tie-breaks as a
point-by-point search. :func:`_first_level` finds each one's first
level, skipping those a running max-sum anchor strictly dominates.

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
from .errors import GridCapError, ValidationError, check_number
from .rate_region import PowerAllocation, RateKernel, RatePoint, capacity, validate_mu

__all__ = ["DEFAULT_GRID_CAP", "RegionHull", "SchemeRestriction", "grid_best", "grid_region", "hull_contains",
           "hull_exceeds"]

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


def _check_cap(count: float, at_least: bool = False) -> None:
    """Raise :class:`GridCapError` when ``count`` evaluations exceed the
    cap: ``TWRC_GRID_CAP`` if set, else the default. ``at_least`` marks a
    lower bound on the count. A cap that is not an integer >= 1 raises
    :class:`ValidationError`."""
    raw = os.environ.get(GRID_CAP_ENV)
    try:
        value = int(raw) if raw else DEFAULT_GRID_CAP
    except ValueError:
        value = None
    if value is None or value < 1:
        raise ValidationError(f"{GRID_CAP_ENV} must be an integer >= 1, got {raw!r}")
    if count > value:
        raise GridCapError(
            f"grid needs {'at least ' if at_least else ''}{count} evaluations, over the cap "
            f"of {value}; raise {GRID_CAP_ENV} or increase step"
        )


def _levels(p: float, step: float) -> np.ndarray:
    """Lattice 0, step, 2*step, ... plus p itself when step does not
    divide p (the final cell is then shorter than step). No level exceeds
    p, which ``n * step`` can by rounding.

    Every lattice evaluates at least one point per level, so the level
    count is checked against the cap before anything is allocated."""
    ratio = p / step + 1e-9
    _check_cap(math.floor(ratio) + 1 if math.isfinite(ratio) else ratio, at_least=True)
    n = math.floor(ratio)
    vals = np.minimum(np.linspace(0.0, n * step, n + 1), p)
    if n * step < p - 1e-12 * max(1.0, p):
        vals = np.append(vals, p)
    return vals


def _simplex_counts(levels: np.ndarray, p: float) -> np.ndarray:
    """Per level ``pw1``, how many of the ascending levels ``pw2`` fit the
    relay simplex ``pw1 + pw2 <= p``, with 1e-12 relative slack."""
    return np.searchsorted(levels, p * (1.0 + 1e-12) - levels, side="right")


def _simplex_pairs(levels: np.ndarray, p: float) -> tuple[np.ndarray, np.ndarray]:
    """The relay simplex pairs ``(pw1, pw2)``, ``pw1`` outermost."""
    counts = _simplex_counts(levels, p)
    starts = np.repeat(np.cumsum(counts) - counts, counts)
    return np.repeat(levels, counts), levels[np.arange(len(starts)) - starts]


class _Piece(NamedTuple):
    """A product lattice: every user-1 point ``alpha1`` with every user-2
    point ``alpha2`` and every relay point ``(pw1, pw2, beta3)``, user 1
    outermost and the relay innermost. Users run at full power, so a
    user's fresh power is ``beta_i = p - alpha_i``, computed where it is
    read. Each field is a 1-D array, the relay's paired by position."""

    alpha1: np.ndarray
    alpha2: np.ndarray
    pw1: np.ndarray
    pw2: np.ndarray
    beta3: np.ndarray


def _face(levels: np.ndarray, p: float, bin_power: bool) -> _Piece:
    """Full-power users on every level times the relay simplex pairs, the
    bin power the rest of the relay budget (clamped at 0, as ``pw1 + pw2``
    may round past ``p``) or, without ``bin_power``, 0."""
    q1, q2 = _simplex_pairs(levels, p)
    b3 = np.maximum(p - q1 - q2, 0.0) if bin_power else np.zeros_like(q1)
    return _Piece(levels, levels, q1, q2, b3)


def _pieces(restriction: SchemeRestriction, levels: np.ndarray, p: float) -> list[_Piece]:
    """A restriction's lattice as product pieces, in candidate order.

    Composite is the relay's full-power face, the ``beta3 = 0`` face and
    the bin-only line. It has no time-share planes: each of their points
    is a point of the full-power face, with the same rates, and comes
    after it, so the Pareto filter would drop it.
    """
    idle = np.zeros(1)
    zeros = np.zeros_like(levels)
    bin_line = _Piece(idle, idle, zeros, zeros, levels)
    if restriction == SchemeRestriction.COMPOSITE:
        return [_face(levels, p, True), _face(levels, p, False), bin_line]
    if restriction == SchemeRestriction.BLOCK_MARKOV_ONLY:
        return [_face(levels, p, False)]
    if restriction == SchemeRestriction.INDEPENDENT_ONLY:
        return [bin_line]
    # time sharing: one user block Markov only, the other independent only
    return [_Piece(levels, idle, levels, zeros, p - levels),
            _Piece(idle, levels, zeros, levels, p - levels)]


def _bounds(g: LinkGains, piece: _Piece) -> tuple[np.ndarray, ...]:
    """``(j1, j2, j3, j4, j5)`` of ``piece``, each evaluated once on the
    points it reads: ``j1`` on user 1 (shape ``(n1, 1, 1)``), ``j3`` on
    user 2 ``(n2, 1)``, ``j5`` on both ``(n1, n2, 1)``, ``j2`` on user 1 x
    relay ``(n1, 1, m)`` and ``j4`` on user 2 x relay ``(n2, m)``. One
    broadcast :meth:`~twrc.rate_region.RateKernel.bounds` call, with the
    operands of evaluating each allocation alone, so every rate is
    bit-identical to that."""
    a1 = piece.alpha1[:, None, None]
    a2 = piece.alpha2[:, None]
    return RateKernel(g).bounds(
        g.p - a1, g.p - a2, np.sqrt(piece.pw1 * a1),
        np.sqrt(piece.pw2 * a2), piece.pw1 + piece.beta3, piece.pw2 + piece.beta3)


def _corner_best(g: LinkGains, piece: _Piece, favors: Iterable[bool]
                 ) -> Iterator[tuple[bool, np.ndarray, np.ndarray, np.ndarray, tuple]]:
    """The points of ``piece`` that can hold each pentagon corner's
    maximum or Pareto points, one per favored-user level and relay pair:
    ``(f, r1, r2, valid, search)`` for the corner favoring user 1 when
    ``f``, each array indexed (favored-user level, relay pair). ``r1,
    r2`` are the corner's rates at the other user's best level and
    ``valid`` marks the favored user's valid points; where it is False
    the rates mean nothing. ``_first_level(*search)`` is that level, the
    other user's first with the most for the other user. An allocation
    is valid when each user the relay spends coherent power ``pw_i > 0``
    on sends a coherent part ``alpha_i > 0``.

    At the corner favoring user 1, ``r1 = min(j1, j2)`` whatever user
    2's level, since ``j5 >= j1`` holds elementwise in floats, so every
    user-2 level at one (user-1 level, relay pair) gives the same
    ``r1``; :func:`_crossing` finds the best ``r2`` among them. User 2's
    corner swaps the users. Each piece of :func:`_pieces` gives the
    other user a valid point at every relay pair (where its coherent
    power is positive, its levels reach ``p > 0``), so the rates are
    finite wherever ``valid`` holds.
    """
    j1, j2, j3, j4, j5 = _bounds(g, piece)
    j5 = j5[:, :, 0]
    # per user, over (its level, relay pair): the min of its own bounds,
    # which is its rate at the corner that favors it (written over j2 and
    # j4, which nothing reads again), and which points are valid
    own = (np.minimum(j1, j2, out=j2)[:, 0], np.minimum(j3, j4, out=j4))
    valid = ((piece.pw1 <= 0.0) | (piece.alpha1[:, None] > 0.0),
             (piece.pw2 <= 0.0) | (piece.alpha2[:, None] > 0.0))
    for f in favors:
        u, o = (0, 1) if f else (1, 0)
        other, search = _crossing(own[u], own[o], valid[o], j5 if f else j5.T)
        r1, r2 = (own[u], other) if f else (other, own[u])
        yield f, r1, r2, valid[u], search


def _pareto_mask(r1: np.ndarray, r2: np.ndarray, key: np.ndarray) -> np.ndarray:
    """Points whose r2 beats every point before them in the order r1
    descending, then r2 descending, then ``key`` ascending: the points
    no other point weakly dominates, the first of exact copies in
    ``key`` order. An empty input gives an empty mask."""
    order = np.lexsort((key, -r2, -r1))
    r2o = r2[order]
    keep = np.empty(len(order), dtype=bool)
    keep[:1] = True
    keep[1:] = r2o[1:] > np.maximum.accumulate(r2o)[:-1]
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

    Searches allocations on a lattice of spacing ``step`` (users at full
    power; the relay split on its own simplex) at both pentagon corners,
    keeps the Pareto points and returns their concave envelope padded
    with the axis points (0, r2_max) and (r1_max, 0). Each source is the
    first allocation in candidate order (piece, user-1 point, corner,
    user-2 point, relay point) that reaches its vertex.

    Only the points that can survive the Pareto filter are generated:
    at each corner, per favored-user level and relay pair, the other
    user's first level with its best rate (:func:`_corner_best`,
    :func:`_first_level`), unless a running anchor, the candidate with
    the largest ``r1 + r2`` so far, strictly dominates it (the maxima
    filter of Kung, Luccio and Preparata, J. ACM 22(4), 1975). Each
    point left out comes after one at least as good in both rates in the
    filter's order, which blocks all it would block, so the hull and
    its sources are those of the whole lattice. The filter runs per
    piece, keyed by candidate order, then over the pieces in order,
    which is the same, as one piece's survivors never tie.

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
    n = len(levels)
    face = n * n * int(_simplex_counts(levels, p).sum())
    _check_cap({SchemeRestriction.COMPOSITE: 2 * face + n, SchemeRestriction.BLOCK_MARKOV_ONLY: face,
                SchemeRestriction.INDEPENDENT_ONLY: n, SchemeRestriction.TIME_SHARE: 2 * n * n}[restriction])
    kept: list[tuple[np.ndarray, ...]] = []
    x = y = -math.inf  # the anchor: the candidate with the largest r1 + r2 so far
    for piece in _pieces(restriction, levels, p):
        # per corner and (favored level, relay pair), the one point that
        # can survive the Pareto filter, keyed by candidate order: user-1
        # point, corner (user 1's first), user-2 point, relay point
        shape = (len(piece.alpha1), 2, len(piece.alpha2), len(piece.pw1))
        found = []
        for f, r1, r2, valid, (pv, at, lower) in _corner_best(g, piece, (True, False)):
            best = np.where(valid, r1 + r2, -np.inf).argmax()  # each piece has a valid point
            if r1.flat[best] + r2.flat[best] > x + y:
                x, y = r1.flat[best], r2.flat[best]
            live = valid & ((r1 > x) | (r2 > y) | ((r1 == x) & (r2 == y)))
            u, r = np.nonzero(live)
            level = _first_level(pv, at[live], lower[live])
            i, k = (u, level) if f else (level, u)
            found.append((r1[live], r2[live], np.ravel_multi_index((i, int(not f), k, r), shape)))
        r1, r2, key = (np.concatenate(col) for col in zip(*found))
        keep = _pareto_mask(r1, r2, key)
        i, _, k, r = np.unravel_index(key[keep], shape)
        a1, a2 = piece.alpha1[i], piece.alpha2[k]
        kept.append((r1[keep], r2[keep], a1, p - a1, a2, p - a2, piece.pw1[r], piece.pw2[r], piece.beta3[r]))
    r1, r2, *powers = (np.concatenate(col) for col in zip(*kept))
    keep = _pareto_mask(r1, r2, np.arange(len(r1)))
    order = np.argsort(r1[keep], kind="stable")
    r1, r2 = r1[keep][order], r2[keep][order]
    powers = [c[keep][order] for c in powers]
    chain = _chain_indices(r1, r2)
    vertices = [RatePoint(r1=float(r1[i]), r2=float(r2[i])) for i in chain]
    sources = [PowerAllocation(*(float(c[i]) for c in powers)) for i in chain]
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
      the user-side bounds ``j2`` and ``j4``; the bin-only point
      ``beta3 = p`` is a point of the face itself;
    - at the favored corner the weighted sum never falls when any bound
      rises: if ``r1`` gains d, ``r2`` loses at most d, and ``mu >= 1/2``
      (symmetrically for user 2);
    - the favored corner is the pentagon's maximizer.

    A dominated point can still round a few ulps above the point that
    dominates it, so the result may sit that far below a search of the
    whole lattice. :func:`grid_region` searches every piece, because
    each restricted lattice must stay a literal subset of the composite
    one.

    The face is one :func:`_bounds` call, shared across all weights, so
    checking several weights costs barely more than one. Its search is
    exact, not a scan of every point, and rests on two float facts that
    hold elementwise on the lattice: ``j5 >= j1`` and ``j5 >= j3``, and
    ``j5`` never rises along either user's level axis (each ``log2``
    argument is a rounded sum of nonnegative terms, and a user's fresh
    power ``p - alpha`` never rises with its level). At user 1's corner
    the first fact makes ``r1 = min(j1, j2)`` independent of ``alpha2``,
    and :func:`_crossing` finds the best ``r2`` over the ``alpha2`` levels
    from where ``min(j3, j4)``'s prefix max crosses ``j5 - r1``; user 2's
    corner swaps the users. For a fixed ``r1`` the rounded weighted sum
    never falls as ``r2`` rises, so the result is the same float as the
    best over every point. That takes O(n m log n) time and O(n m)
    memory for ``n`` levels and ``m`` relay pairs. The tests compare it
    with a point-by-point search of the face and of the whole composite
    lattice. The cap counts the face lattice, ``n * n`` user splits
    times the relay simplex pairs.
    """
    validate_gains(g)
    step = _validate_step(step, g.p)
    if not isinstance(mus, Iterable):
        raise ValidationError(f"mus must be an iterable of weights, got {mus!r}")
    mus = [validate_mu(mu) for mu in mus]
    p = g.p
    levels = _levels(p, step)
    _check_cap(len(levels) ** 2 * int(_simplex_counts(levels, p).sum()))
    favor1 = [mu >= 0.5 for mu in mus]
    best = [-math.inf] * len(mus)
    for f, r1, r2, valid, _ in _corner_best(g, _face(levels, p, bin_power=True), set(favor1)):
        for k, mu in enumerate(mus):
            if favor1[k] == f:
                best[k] = float(np.max((mu * r1 + (1.0 - mu) * r2)[valid]))
    return best


def _crossing(own: np.ndarray, other: np.ndarray, valid: np.ndarray,
              j5: np.ndarray) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """``max over valid k of min(other[k, r], j5[i, k] - own[i, r])`` for
    every favored-user level ``i`` and relay pair ``r``: the other user's
    best rate at the favored corner, with ``own`` the favored user's
    rate, ``other`` the min of the other user's own bounds, ``valid`` its
    valid points and ``j5`` indexed (favored level, other level). Every
    piece of :func:`_pieces` gives each ``r`` a valid ``k`` (see
    :func:`_corner_best`), so the rate is finite. Also returns the
    search's state, ``(pv, at, lower)``, from which :func:`_first_level`
    finds the first ``k`` that reaches the rate.

    With ``w = j5[i, k] - own[i, r]``, which never rises with ``k``, and
    ``pv`` the prefix max of ``other`` over ``k``, which never falls,
    ``max over k of min(other, w)`` equals ``max over k of min(pv, w)``:
    ``pv[k]`` is some ``other[j]`` with ``j <= k`` and ``w[j] >= w[k]``.
    ``pv < w`` holds on exactly the levels below the crossing ``c``, and
    from ``c`` on ``min(pv, w) = w`` never rises, so the maximum is
    ``max(pv[c - 1], w[c])``, either term absent at the ends. A
    branchless bisection finds ``c`` for every ``(i, r)`` at once, in
    about ``log2 n`` gathers of ``own``'s shape.
    """
    n, m = other.shape
    size = 1 << n.bit_length()  # a power of two above n
    # pv[r, k] is the prefix max of other[:k, r] over valid levels, -inf
    # at k = 0 and +inf past n, and w5 is j5 with -inf past level n, so
    # no probe needs clamping and none past n crosses
    pv = np.full((m, size), np.inf)
    pv[:, 0] = -np.inf
    np.maximum.accumulate(np.where(valid, other, -np.inf).T, axis=1, out=pv[:, 1:n + 1])
    w5 = np.full((len(own), size), -np.inf)
    w5[:, :n] = j5
    cols = np.arange(m) * size  # start of each relay pair's row of pv
    rows = (np.arange(len(own)) * size)[:, None]  # start of each favored level's row of w5
    flat, w5 = pv.ravel(), w5.ravel()
    c = np.zeros(own.shape, dtype=np.intp)
    half = size >> 1
    while half:
        # probe level c + half - 1: pv's prefix through it against w there
        c += (flat.take(cols + half + c) < w5.take(rows + (half - 1) + c) - own) * half
        half >>= 1
    at = cols + c
    prefix = flat.take(at)
    w = w5.take(rows + c)
    w -= own
    return np.maximum(prefix, w), (pv, at, prefix >= w)


def _first_level(pv: np.ndarray, at: np.ndarray, lower: np.ndarray) -> np.ndarray:
    """The first level that reaches :func:`_crossing`'s best rate, from
    its state: ``pv[r, k]``, the prefix max of the other user's valid
    rates below level ``k``, the flat index ``at = r * size + c`` of each
    crossing ``c`` into it, and ``lower``, where ``pv[c - 1] >= w[c]``.

    Below the crossing each ``min`` is ``other`` itself, so where
    ``lower`` holds the first maximizer is ``pv[c - 1]``'s first level;
    elsewhere it is ``c``, where ``other >= w`` and every later ``w`` is
    no larger.
    """
    m, size = pv.shape
    level = at % size
    # first[r, k]: the first level that reaches pv[r, k], which is the
    # last level j < k where the prefix max rose (0 if none)
    first = np.zeros((m, size), dtype=np.int32)
    np.multiply(pv[:, 1:] > pv[:, :-1], np.arange(size - 1, dtype=np.int32), out=first[:, 1:])
    np.maximum.accumulate(first, axis=1, out=first)
    level[lower] = first.ravel().take(at[lower])
    return level


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
