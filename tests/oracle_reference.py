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


def valid(a1, a2, q1, q2):
    """Which allocations are valid: those in which each user the relay
    spends coherent power on sends a coherent part."""
    return ((q1 <= 0.0) | (a1 > 0.0)) & ((q2 <= 0.0) | (a2 > 0.0))


def valid_points(a1, a2, q1, q2, b3):
    """The arguments broadcast to flat arrays, keeping the valid
    allocations."""
    a1, a2, q1, q2, b3 = (np.ravel(x) for x in np.broadcast_arrays(a1, a2, q1, q2, b3))
    ok = valid(a1, a2, q1, q2)
    return tuple(x[ok] for x in (a1, a2, q1, q2, b3))


def best_sum(mu, ok, r1a, r2a, r1b, r2b):
    """Best weighted sum at either corner (as ``corner_rates`` gives them)
    over the points where ``ok`` holds, or -inf when it holds nowhere."""
    return max(float(np.max(mu * r1 + (1.0 - mu) * r2, where=ok, initial=-np.inf))
               for r1, r2 in ((r1a, r2a), (r1b, r2b)))


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
    """Best weighted sum at either pentagon corner over a box around
    ``center``: ``points_per_axis`` levels of each of ``alpha1``,
    ``alpha2``, ``pw1``, ``pw2`` and ``beta3`` within ``radius`` of the
    center's, clipped to ``[0, p]``, users at full power; or -inf when no
    point is valid. User-1 levels x user-2 levels x the relay triples
    within the relay budget are broadcast, so every allocation is
    evaluated elementwise, with the floats of evaluating it alone."""
    p = g.p
    a1, a2, q1, q2, b3 = (np.linspace(min(max(0.0, v - radius), p), max(min(p, v + radius), 0.0), points_per_axis)
                          for v in (center.alpha1, center.alpha2, center.pw1, center.pw2, center.beta3))
    q1, q2, b3 = (x.ravel() for x in np.meshgrid(q1, q2, b3, indexing="ij"))
    budget = q1 + q2 + b3 <= p * (1.0 + 1e-12)
    q1, q2, b3 = q1[budget], q2[budget], b3[budget]
    a1, a2 = a1[:, None, None], a2[:, None]
    return best_sum(mu, valid(a1, a2, q1, q2), *corner_rates(g, a1, p - a1, a2, p - a2, q1, q2, b3))


def unreduced_best(g, mu, levels, p):
    """Best weighted sum at either pentagon corner over the unreduced
    lattice on ``levels``: each user's ``(alpha_i, beta_i)`` and the
    relay's ``(pw1, pw2, beta3)`` anywhere within their budgets, not only
    at full power, every allocation evaluated on its own. It confirms
    that the oracle's full-power reductions lose nothing. Keep the
    lattice coarse: it has a point per user-1 split, user-2 split and
    relay triple."""
    budget = p * (1.0 + 1e-12)
    a, b = np.meshgrid(levels, levels, indexing="ij")
    pairs = a + b <= budget
    alpha, beta = a[pairs], b[pairs]
    q1, q2, b3 = np.meshgrid(levels, levels, levels, indexing="ij")
    triples = q1 + q2 + b3 <= budget
    q1, q2, b3 = q1[triples], q2[triples], b3[triples]
    a2, b2 = alpha[:, None], beta[:, None]
    best = -np.inf
    # one user-1 split at a time (a 1-element array, so the kernel takes
    # the array path), against every user-2 split and relay triple
    for a1, b1 in zip(alpha[:, None], beta[:, None]):
        best = max(best, best_sum(mu, valid(a1, a2, q1, q2), *corner_rates(g, a1, b1, a2, b2, q1, q2, b3)))
    return best
