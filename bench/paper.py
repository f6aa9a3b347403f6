"""The paper's formulas, written out independently of twrc.

Everything the checks compare against comes from this file: the five
rate bounds of the composite decode-forward scheme, the pentagon corner
for a weight, the path-loss law, the 3 x 5 link-state classification
with its technique table, the minimum relay (bin) power in cells
(R2,T3)/(R2,T4), single-user rate caps and a brute-force lattice search
on the relay-budget face. None of it imports twrc.

Rates are log base 2 (bits per channel use). Gains are amplitudes,
receiver first: ``g21`` is the gain into user 2 from user 1.
"""

from __future__ import annotations

import math

import numpy as np

GAIN_NAMES = ("g12", "g21", "g1r", "gr1", "g2r", "gr2")

# Cell -> (user 1, user 2) technique labels for mu > 1/2 (the paper's table).
TECHNIQUES = {
    ("R1", "T1"): ("DT", "DT"),
    ("R1", "T2"): ("DT", "Ind"),
    ("R1", "T3"): ("DT", "Ind"),
    ("R1", "T4"): ("DT", "BM"),
    ("R1", "T5"): ("DT", "BM"),
    ("R2", "T1"): ("Ind", "DT"),
    ("R2", "T2"): ("Ind", "DT"),
    ("R2", "T3"): ("Ind", "Ind"),
    ("R2", "T4"): ("Ind", "Ind"),
    ("R2", "T5"): ("Ind", "BM"),
    ("R3", "T1"): ("BM", "DT"),
    ("R3", "T2"): ("BM", "DT"),
    ("R3", "T3"): ("BM", "Ind"),
    ("R3", "T4"): ("Both", "Both"),
    ("R3", "T5"): ("Both", "Both"),
}

CLOSED_FORM_CELLS = (("R2", "T3"), ("R2", "T4"))


def bounds(g: dict, a1, b1, a2, b2, q1, q2, b3):
    """The five rate bounds j1..j5 for allocations (scalars or arrays).

    ``a``/``b`` are each user's repeated and fresh power, ``q1``/``q2``
    the relay's coherent powers and ``b3`` its bin power. The user-side
    bounds j2/j4 carry the full direct power p, the coherent cross term
    and the relay's forwarded power.
    """
    p = g["p"]
    s1 = g["gr1"] ** 2 * b1
    s3 = g["gr2"] ** 2 * b2
    j2 = 1.0 + g["g21"] ** 2 * p + 2.0 * g["g21"] * g["g2r"] * np.sqrt(q1 * a1) + g["g2r"] ** 2 * (q1 + b3)
    j4 = 1.0 + g["g12"] ** 2 * p + 2.0 * g["g12"] * g["g1r"] * np.sqrt(q2 * a2) + g["g1r"] ** 2 * (q2 + b3)
    return (np.log2(1.0 + s1), np.log2(j2), np.log2(1.0 + s3), np.log2(j4), np.log2(1.0 + s1 + s3))


def corner(j, mu: float):
    """Pentagon corner maximizing ``mu*r1 + (1-mu)*r2`` (user 1 first when mu >= 1/2)."""
    j1, j2, j3, j4, j5 = j
    if mu >= 0.5:
        r1 = np.minimum(np.minimum(j1, j2), j5)
        r2 = np.minimum(np.minimum(j3, j4), j5 - r1)
    else:
        r2 = np.minimum(np.minimum(j3, j4), j5)
        r1 = np.minimum(np.minimum(j1, j2), j5 - r2)
    return r1, r2


def path_loss_gains(user1, user2, relay, gamma1: float, gamma2: float, p: float) -> dict:
    """Amplitudes ``d**(-gamma/2)``; links carrying user 1's message use gamma1."""
    d12 = math.dist(user1, user2)
    d1r = math.dist(user1, relay)
    d2r = math.dist(user2, relay)
    return {
        "gr1": d1r ** (-gamma1 / 2.0), "g2r": d2r ** (-gamma1 / 2.0), "g21": d12 ** (-gamma1 / 2.0),
        "g1r": d1r ** (-gamma2 / 2.0), "gr2": d2r ** (-gamma2 / 2.0), "g12": d12 ** (-gamma2 / 2.0),
        "p": p,
    }


def cell(g: dict) -> tuple[str, str, bool]:
    """(R, T, side condition) from the squared relay-listening gains.

    Intervals are closed on the right; two T thresholds scale by
    ``s = 1 + gr1**2 p``. The side condition ``g12**2 s <= g12**2 + g1r**2``
    orders the T thresholds.
    """
    relay1, relay2 = g["gr1"] ** 2, g["gr2"] ** 2
    direct2, beam2 = g["g21"] ** 2, g["g2r"] ** 2
    direct1, beam1 = g["g12"] ** 2, g["g1r"] ** 2
    s = 1.0 + relay1 * g["p"]
    if relay1 <= direct2:
        r = "R1"
    elif relay1 <= direct2 + beam2:
        r = "R2"
    else:
        r = "R3"
    for t, edge in (("T1", direct1), ("T2", direct1 * s), ("T3", direct1 + beam1),
                    ("T4", (direct1 + beam1) * s)):
        if relay2 <= edge:
            break
    else:
        t = "T5"
    return r, t, direct1 * s <= direct1 + beam1


def min_relay_power(g: dict) -> float:
    """Minimum bin power sustaining the full-rate corner in (R2,T3)/(R2,T4).

    ``max((gr2^2 - g12^2 s) p / (g1r^2 s), (gr1^2 - g21^2) p / g2r^2)``,
    each term floored at zero, with ``s = 1 + gr1^2 p``.
    """
    p = g["p"]
    s = 1.0 + g["gr1"] ** 2 * p
    t1 = (g["gr2"] ** 2 - g["g12"] ** 2 * s) * p / (g["g1r"] ** 2 * s)
    t2 = (g["gr1"] ** 2 - g["g21"] ** 2) * p / g["g2r"] ** 2
    return max(t1, t2, 0.0)


def in_closed_form_region(g: dict) -> bool:
    """Closed (R2,T3) u (R2,T4): g21^2 <= gr1^2 <= g21^2 + g2r^2 and
    g12^2 s <= gr2^2 <= (g12^2 + g1r^2) s, where min_relay_power applies."""
    relay1, relay2 = g["gr1"] ** 2, g["gr2"] ** 2
    s = 1.0 + relay1 * g["p"]
    return (g["g21"] ** 2 <= relay1 <= g["g21"] ** 2 + g["g2r"] ** 2
            and g["g12"] ** 2 * s <= relay2 <= (g["g12"] ** 2 + g["g1r"] ** 2) * s)


def single_user_caps(g: dict) -> tuple[float, float]:
    """Upper bounds on r1 and r2 over every feasible allocation.

    r1 <= j1 <= log2(1 + gr1^2 p) and r1 <= j2 <= log2(1 + (g21 + g2r)^2 p),
    since sqrt(pw1 alpha1) <= p and pw1 + beta3 <= p; r2 likewise.
    """
    p = g["p"]
    cap1 = min(math.log2(1.0 + g["gr1"] ** 2 * p), math.log2(1.0 + (g["g21"] + g["g2r"]) ** 2 * p))
    cap2 = min(math.log2(1.0 + g["gr2"] ** 2 * p), math.log2(1.0 + (g["g12"] + g["g1r"]) ** 2 * p))
    return cap1, cap2


def face_bounds(g: dict, levels: int):
    """j1..j5 and a feasibility mask on the relay-budget face with ``levels`` powers per axis.

    Users run at full power (beta = p - alpha); the relay puts
    ``b3 = p - q1 - q2`` into binning. Points where a coherent power has
    no matching repeated power are infeasible and left out. Raising b3
    never lowers a bound, so this face holds the lattice optimum.
    """
    p = g["p"]
    x = np.arange(levels) * (p / (levels - 1))
    i, j = np.triu_indices(levels)
    q1 = x[i]
    q2 = x[levels - 1 - j]  # i + (levels-1-j) <= levels-1: q1 + q2 <= p
    a1, a2 = np.meshgrid(x, x, indexing="ij")
    a1 = a1.ravel()[:, None]
    a2 = a2.ravel()[:, None]
    q1 = q1[None, :]
    q2 = q2[None, :]
    ok = ((q1 == 0.0) | (a1 > 0.0)) & ((q2 == 0.0) | (a2 > 0.0))
    b3 = np.maximum(p - q1 - q2, 0.0)
    return bounds(g, a1, p - a1, a2, p - a2, q1, q2, b3), ok


def lattice_best(face, mu: float) -> float:
    """Best ``mu*r1 + (1-mu)*r2`` over the feasible points of ``face_bounds``."""
    j, ok = face
    r1, r2 = corner(j, mu)
    return float(np.max(np.where(ok, mu * r1 + (1.0 - mu) * r2, -np.inf)))


def lattice_max_sum(face) -> float:
    """Largest r1 + r2 over both corners of every feasible lattice point."""
    j, ok = face
    return max(float(np.max(np.where(ok, sum(corner(j, mu)), -np.inf))) for mu in (1.0, 0.0))
