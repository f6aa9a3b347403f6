"""Checks of twrc outputs against the benchmark's own formulas.

Each check takes plain data (dicts, tuples, floats), so the same code
checks an in-process result and a CLI child's JSON. A check returns a
list of problems; an empty list means the output passed. A solve whose
only problem is that it lies below the lattice best is the solver
shortfall (see ``inputs.PINNED``): ``SHORTFALL`` marks it so the run can
count it as a failed operation instead of a wrong answer.
"""

from __future__ import annotations

import math

import paper

SHORTFALL = "below lattice best"

# Budgets may be exceeded by this much times max(1, p), as in twrc's
# documented feasibility slack.
BUDGET_SLACK = 1e-9
# A relay coherent power below this fraction of p counts as inactive.
ACTIVITY = 1e-6
# Slack on rate comparisons that only differ in floating-point order.
RATE_TOL = 1e-12
# The solver's documented convergence tolerance against a lattice search.
LATTICE_TOL = 1e-9

ALLOCATION_FIELDS = ("alpha1", "beta1", "alpha2", "beta2", "pw1", "pw2", "beta3")


def allocation_problems(g: dict, a: dict) -> list[str]:
    """Nonnegative powers within the three budgets (with the slack)."""
    p = g["p"]
    slack = BUDGET_SLACK * max(1.0, p)
    out = [f"{k} = {a[k]!r} is negative or not finite"
           for k in ALLOCATION_FIELDS if not (math.isfinite(a[k]) and a[k] >= -slack)]
    for name, total in (("user 1", a["alpha1"] + a["beta1"]),
                        ("user 2", a["alpha2"] + a["beta2"]),
                        ("relay", a["pw1"] + a["pw2"] + a["beta3"])):
        if total > p + slack:
            out.append(f"{name} budget overrun: {total!r} > p = {p!r}")
    return out


def pentagon_problems(g: dict, a: dict, r1: float, r2: float) -> list[str]:
    """Rate pair inside the pentagon of allocation ``a``.

    Powers are floored at zero first; ``allocation_problems`` has already
    rejected any that are negative beyond the budget slack.
    """
    powers = (max(a[k], 0.0) for k in ALLOCATION_FIELDS)
    j1, j2, j3, j4, j5 = (float(v) for v in paper.bounds(g, *powers))
    out = []
    if min(r1, r2) < -RATE_TOL:
        out.append(f"negative rate ({r1!r}, {r2!r})")
    if r1 > min(j1, j2) + RATE_TOL:
        out.append(f"r1 = {r1!r} above min(j1, j2) = {min(j1, j2)!r}")
    if r2 > min(j3, j4) + RATE_TOL:
        out.append(f"r2 = {r2!r} above min(j3, j4) = {min(j3, j4)!r}")
    if r1 + r2 > j5 + RATE_TOL:
        out.append(f"r1 + r2 = {r1 + r2!r} above j5 = {j5!r}")
    return out


def solve_problems(g: dict, mu: float, res: dict, best: float) -> list[str]:
    """Check one solve result given as ``SolveResult.to_dict()``.

    ``best`` is the benchmark's own lattice best for (g, mu).
    """
    p = g["p"]
    a = res["allocation"]
    r1, r2 = res["rates"]["r1"], res["rates"]["r2"]
    slack = BUDGET_SLACK * max(1.0, p)
    out = allocation_problems(g, a)
    for user, total in ((1, a["alpha1"] + a["beta1"]), (2, a["alpha2"] + a["beta2"])):
        if abs(total - p) > slack and p > 0.0:
            out.append(f"user {user} below full power: {total!r} < p = {p!r}")
    relay = a["pw1"] + a["pw2"] + a["beta3"]
    if a["pw1"] + a["pw2"] > ACTIVITY * p and abs(relay - p) > slack:
        out.append(f"relay off full power with coherent power active: {relay!r} != p = {p!r}")
    out += pentagon_problems(g, a, r1, r2)
    ws = mu * r1 + (1.0 - mu) * r2
    if abs(res["weighted_sum"] - ws) > RATE_TOL * (1.0 + abs(ws)):
        out.append(f"weighted_sum {res['weighted_sum']!r} != mu*r1 + (1-mu)*r2 = {ws!r}")
    if res["method"] == "closed-form-r2t34":
        r, t, side = paper.cell(g)
        if (r, t) not in paper.CLOSED_FORM_CELLS or not side or mu <= 0.5:
            out.append(f"closed form taken in ({r},{t}), side condition {side}, mu = {mu!r}")
        else:
            want = paper.min_relay_power(g)
            if abs(a["beta3"] - want) > 1e-9 * max(1.0, want):
                out.append(f"closed-form beta3 = {a['beta3']!r}, paper minimum {want!r}")
            if max(a["alpha1"], a["alpha2"], a["pw1"], a["pw2"]) != 0.0:
                out.append("closed form with nonzero repeated or coherent power")
    elif res["method"] not in ("numeric", "trivial"):
        out.append(f"unknown method {res['method']!r}")
    if res["weighted_sum"] < best - LATTICE_TOL:
        out.append(f"{SHORTFALL}: {res['weighted_sum']!r} < {best!r} by {best - res['weighted_sum']:.3e} bits")
    return out


def grid_best_problems(g: dict, mus, values, coarse_best) -> list[str]:
    """Each value at least the nested coarser lattice's, at most the caps."""
    cap1, cap2 = paper.single_user_caps(g)
    out = []
    for mu, value, floor in zip(mus, values, coarse_best):
        if value < floor - RATE_TOL:
            out.append(f"mu = {mu}: {value!r} below the coarser lattice's {floor!r}")
        cap = mu * cap1 + (1.0 - mu) * cap2
        if value > cap + RATE_TOL:
            out.append(f"mu = {mu}: {value!r} above the single-user caps {cap!r}")
    if len(values) != len(mus):
        out.append(f"{len(values)} values for {len(mus)} weights")
    return out


def hull_problems(g: dict, vertices, sources, max_sum: float, lattice_max: float) -> list[str]:
    """Concave staircase, each vertex in its source's pentagon, max sum rate matches."""
    out = []
    if not vertices:
        return ["empty hull"]
    if vertices[0][0] != 0.0 or vertices[-1][1] != 0.0:
        out.append(f"hull does not reach both axes: {vertices[0]} ... {vertices[-1]}")
    for (x0, y0), (x1, y1) in zip(vertices, vertices[1:]):
        if x1 < x0 or y1 > y0:
            out.append(f"not a staircase at ({x0}, {y0}) -> ({x1}, {y1})")
    for (x0, y0), (x1, y1), (x2, y2) in zip(vertices, vertices[1:], vertices[2:]):
        if (x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0) > RATE_TOL:
            out.append(f"not concave at ({x1}, {y1})")
    for (r1, r2), a in zip(vertices, sources):
        out += allocation_problems(g, a)
        out += pentagon_problems(g, a, r1, r2)
    if abs(max_sum - lattice_max) > RATE_TOL * (1.0 + lattice_max):
        out.append(f"max sum rate {max_sum!r} != lattice maximum {lattice_max!r}")
    return out


def map_problems(geometry: dict, bounds, resolution: int, p: float, cells) -> list[str]:
    """Re-derive every map cell; check labels, corners and the midpoint.

    ``cells`` holds ``(x, y, r, t, side, user1, user2, source)`` tuples
    (``r`` is None for skipped cells) of a map made at a weight above 1/2,
    where the stored table applies to the gains as they are.
    """
    xmin, xmax, ymin, ymax = bounds
    out = []
    if len(cells) != resolution * resolution:
        return [f"{len(cells)} cells for resolution {resolution}"]
    xs = [xmin + (xmax - xmin) * k / (resolution - 1) for k in range(resolution)]
    ys = [ymin + (ymax - ymin) * k / (resolution - 1) for k in range(resolution)]
    users = (tuple(geometry["user1"]), tuple(geometry["user2"]))
    for n, (x, y, r, t, side, u1, u2, source) in enumerate(cells):
        wx, wy = xs[n % resolution], ys[n // resolution]
        if abs(x - wx) > 1e-9 or abs(y - wy) > 1e-9:
            out.append(f"cell {n} at ({x}, {y}), expected ({wx}, {wy})")
            continue
        if (x, y) in users:
            if source != "skipped":
                out.append(f"relay on a user at ({x}, {y}) not skipped")
            continue
        g = paper.path_loss_gains(geometry["user1"], geometry["user2"], (x, y),
                                  geometry["gamma1"], geometry["gamma2"], p)
        want = paper.cell(g)
        if (r, t, side) != want:
            out.append(f"({x}, {y}) classified ({r},{t},{side}), re-derived {want}")
        elif side:
            if source != "table" or (u1, u2) != paper.TECHNIQUES[(r, t)]:
                out.append(f"({x}, {y}) in ({r},{t}) labelled {u1}/{u2} from {source}, "
                           f"table says {paper.TECHNIQUES[(r, t)]}")
        elif source != "solver":
            out.append(f"({x}, {y}) fails the side condition but labels came from {source}")
    corners = (cells[0], cells[resolution - 1], cells[-resolution], cells[-1])
    for c in corners:
        if (c[5], c[6]) != ("DT", "DT"):
            out.append(f"far corner ({c[0]}, {c[1]}) labelled {c[5]}/{c[6]}, not DT/DT")
    mid = [c for c in cells if (c[0], c[1]) == (10.0, 0.0)]
    if len(mid) != 1 or (mid[0][5], mid[0][6]) != ("Ind", "Ind"):
        out.append(f"midpoint relay (10, 0) labelled {mid}, not Ind/Ind")
    return out


def profile_problems(geometry: dict, samples: int, p: float, points) -> list[str]:
    """Samples on the user-to-user segment; each power p or the closed-form minimum."""
    (sx, sy), (ex, ey) = geometry["user1"], geometry["user2"]
    slack = BUDGET_SLACK * max(1.0, p)
    out = []
    if len(points) != samples:
        return [f"{len(points)} profile points for {samples} samples"]
    for k, (x, y, power) in enumerate(points):
        t = (k + 1) / (samples + 1)
        if abs(x - (sx + t * (ex - sx))) > 1e-9 or abs(y - (sy + t * (ey - sy))) > 1e-9:
            out.append(f"sample {k} at ({x}, {y}) is not at fraction {t} of the segment")
            continue
        if abs(power - p) <= slack:
            continue
        g = paper.path_loss_gains(geometry["user1"], geometry["user2"], (x, y),
                                  geometry["gamma1"], geometry["gamma2"], p)
        r, t_idx, _ = paper.cell(g)
        want = paper.min_relay_power(g) if (r, t_idx) in paper.CLOSED_FORM_CELLS else None
        if want is None or abs(power - want) > 1e-9 * max(1.0, want):
            out.append(f"sample {k} in ({r},{t_idx}) needs power {power!r}: neither p = {p!r} "
                       f"nor the closed-form minimum {want!r}")
    return out


def classify_problems(g: dict, mu: float, payload: dict) -> list[str]:
    """Output of ``twrc classify`` (mu > 1/2): regime and table labels."""
    r, t, side = paper.cell(g)
    reg = payload["regime"]
    out = []
    if (reg["r"], reg["t"], reg["side_condition"]) != (r, t, side):
        out.append(f"regime {reg} re-derives as ({r},{t},{side})")
    labels = (payload["assignment"]["user1"], payload["assignment"]["user2"])
    if side and (payload["source"] != "table" or labels != paper.TECHNIQUES[(r, t)]):
        out.append(f"labels {labels} from {payload['source']}, table says {paper.TECHNIQUES[(r, t)]}")
    if not side and payload["source"] != "solver":
        out.append(f"side condition fails but labels came from {payload['source']}")
    if payload["mu"] != mu:
        out.append(f"mu echoed as {payload['mu']!r}")
    return out
