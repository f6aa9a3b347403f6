"""Point-by-point reference for the grid oracle.

Each lattice is materialized from its definition and every allocation
is evaluated on its own, so the reference shares nothing with
:mod:`twrc.oracle`'s evaluator but the lattice levels and the rate
formulas. Composite keeps its time-share planes here, which the oracle
drops as duplicates of points of its full-power face.
"""

from itertools import islice

import numpy as np

from twrc import SchemeRestriction
from twrc.rate_region import RateKernel, pentagon_corner


def corner_rates(g, a1, b1, a2, b2, q1, q2, b3):
    """Both pentagon corners for flat arrays of allocations: user 1's
    ``(r1a, r2a)``, then user 2's ``(r1b, r2b)``."""
    j = RateKernel(g).bounds(b1, b2, np.sqrt(q1 * a1), np.sqrt(q2 * a2), q1 + b3, q2 + b3)
    return (*pentagon_corner(*j, True), *pentagon_corner(*j, False))


def valid_points(a1, a2, q1, q2, b3):
    """The arguments broadcast to flat arrays, keeping the allocations in
    which each user the relay spends coherent power on sends a coherent
    part."""
    a1, a2, q1, q2, b3 = (np.ravel(x) for x in np.broadcast_arrays(a1, a2, q1, q2, b3))
    ok = ((q1 <= 0.0) | (a1 > 0.0)) & ((q2 <= 0.0) | (a2 > 0.0))
    return tuple(x[ok] for x in (a1, a2, q1, q2, b3))


def lattice_batches(restriction, levels, p):
    """``(a1, a2, q1, q2, b3)`` of the valid allocations of a restriction's
    lattice (users at full power, ``beta_i = p - alpha_i``), in candidate
    order and one batch per user-1 point:

    - the relay faces, ``beta3 = max(p - pw1 - pw2, 0)`` (composite) and
      ``beta3 = 0`` (composite, block Markov only), over ``alpha1`` x
      ``alpha2`` x the relay pairs with ``pw1 + pw2 <= p``;
    - the bin-only line ``beta3`` on every level, both users idle
      (composite, independent only);
    - the time-share planes (composite, time share): user 1 block Markov
      only with ``pw1`` on every level and ``beta3 = p - pw1``, then
      user 2 likewise, in one batch as its user-1 point is idle.
    """
    restriction = SchemeRestriction(restriction)
    composite = restriction == SchemeRestriction.COMPOSITE
    simplex = levels[:, None] + levels <= p * (1.0 + 1e-12)
    q1 = np.broadcast_to(levels[:, None], simplex.shape)[simplex]
    q2 = np.broadcast_to(levels, simplex.shape)[simplex]
    faces = [np.maximum(p - q1 - q2, 0.0)] if composite else []
    if composite or restriction == SchemeRestriction.BLOCK_MARKOV_ONLY:
        faces.append(np.zeros_like(q1))
    for b3 in faces:
        for a1 in levels:
            yield valid_points(a1, levels[:, None], q1, q2, b3)
    if composite or restriction == SchemeRestriction.INDEPENDENT_ONLY:
        yield valid_points(0.0, 0.0, 0.0, 0.0, levels)
    if composite or restriction == SchemeRestriction.TIME_SHARE:
        for a1 in levels:
            yield valid_points(a1, 0.0, levels, 0.0, p - levels)
        yield valid_points(0.0, levels[:, None], 0.0, levels, p - levels)


def face_best(g, mus, levels, p):
    """Best weighted sum over the composite lattice's full-power face
    (the first ``len(levels)`` batches of ``lattice_batches``), per weight,
    at the corner the weight favors (user 1's when ``mu >= 1/2``), every
    allocation evaluated on its own."""
    best = [-np.inf] * len(mus)
    for a1, a2, q1, q2, b3 in islice(lattice_batches(SchemeRestriction.COMPOSITE, levels, p), len(levels)):
        if len(a1) == 0:
            continue
        r1a, r2a, r1b, r2b = corner_rates(g, a1, p - a1, a2, p - a2, q1, q2, b3)
        for k, mu in enumerate(mus):
            r1, r2 = (r1a, r2a) if mu >= 0.5 else (r1b, r2b)
            best[k] = max(best[k], float(np.max(mu * r1 + (1.0 - mu) * r2)))
    return best


def local_box_best(g, mu, center, radius, points_per_axis):
    """``local_grid_best`` over its box, materialized: every combination
    of the five axes, then the relay budget and validity filters; the
    best weighted sum at either corner, or -inf when no point is left."""
    p = g.p
    axes = [np.linspace(min(max(0.0, v - radius), p), max(min(p, v + radius), 0.0), points_per_axis)
            for v in (center.alpha1, center.alpha2, center.pw1, center.pw2, center.beta3)]
    a1, a2, q1, q2, b3 = (x.ravel() for x in np.meshgrid(*axes, indexing="ij"))
    budget = q1 + q2 + b3 <= p * (1.0 + 1e-12)
    a1, a2, q1, q2, b3 = valid_points(a1[budget], a2[budget], q1[budget], q2[budget], b3[budget])
    if len(a1) == 0:
        return -np.inf
    r1a, r2a, r1b, r2b = corner_rates(g, a1, p - a1, a2, p - a2, q1, q2, b3)
    return max(float(np.max(mu * r1a + (1.0 - mu) * r2a)), float(np.max(mu * r1b + (1.0 - mu) * r2b)))
