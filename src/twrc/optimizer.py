"""Weighted-sum-rate maximization over the composite decode-forward scheme.

The problem ``max mu*r1 + (1-mu)*r2`` subject to the pentagon constraints
and the three power budgets is concave after reparameterizing the relay's
coherent components as ``pw_i = k_i * alpha_i``: the coupling terms
``sqrt(pw_i * alpha_i)`` are jointly concave and every bound is a concave
increasing function of them.

Two reductions shrink the search space without losing optima:

* users transmit at full power, so ``beta_i = p - alpha_i``;
* raising the binning power ``beta3`` never lowers any bound, so the
  search runs on the relay-budget face ``beta3 = p - pw1 - pw2`` and the
  reported ``beta3`` is minimized afterwards when no coherent component
  is active.

That leaves four variables ``(alpha1, alpha2, pw1, pw2)``. The numeric
path seeds from a coarse lattice, refines with golden-section line
searches along coordinate and diagonal directions (the objective is
concave, hence unimodal along any line), then polishes with an SLSQP run
on a smooth lifted formulation where the rates and the coupling terms are
auxiliary variables. A closed-form shortcut covers cells (R2,T3) and
(R2,T4), where it is provably optimal; the (R2,T5) closed form is exposed
separately because it is not optimal on all of its cell.

Every rate bound, in the objective, the SLSQP constraint and its
Jacobian, and dual recovery, is evaluated by
:class:`~twrc.rate_region.RateKernel`, and every pentagon corner by
:func:`~twrc.rate_region.pentagon_corner`. The scalar objective that the
line searches, the polls and the finalize step evaluate about a thousand
times per solve is the kernel's flat fast path,
:meth:`~twrc.rate_region.RateKernel.face_objective`, which is
bit-identical to those two composed (a hypothesis test in
``tests/test_rate_region.py`` compares them with ``==``).

All rates are log base 2 (bits per channel use).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

import numpy as np
from scipy.optimize import minimize, nnls

from .channel import LinkGains, validate_gains
from .errors import NoRootError, ValidationError, WrongRegimeError
from .rate_region import (
    PowerAllocation,
    RateConstraints,
    RateKernel,
    RatePoint,
    allocation_inputs,
    best_weighted_point,
    compute_constraints,
    pentagon_corner,
)
from .regimes import SchemeAssignment, Technique, classify

# A power component below this fraction of the budget counts as inactive
# when labeling techniques and deciding relay full power.
ACTIVITY_THRESHOLD = 1e-6

# Lexicographic nudge toward larger sum rate; breaks ties along flat
# directions (mu = 0, 1) without affecting the reported weighted sum.
_TIE_BONUS = 1e-10

# Value loss accepted when snapping a tiny component to exactly zero.
_SNAP_TOL = 1e-12

_LN2 = math.log(2.0)
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

_DIRECTIONS = (
    (1.0, 0.0, 0.0, 0.0),
    (0.0, 1.0, 0.0, 0.0),
    (0.0, 0.0, 1.0, 0.0),
    (0.0, 0.0, 0.0, 1.0),
    (0.0, 0.0, 1.0, -1.0),
    (0.0, 0.0, 1.0, 1.0),
    (1.0, 0.0, 1.0, 0.0),
    (0.0, 1.0, 0.0, 1.0),
    (1.0, 0.0, -1.0, 0.0),
    (0.0, 1.0, 0.0, -1.0),
    (1.0, 1.0, 0.0, 0.0),
    (1.0, -1.0, 0.0, 0.0),
    (1.0, 0.0, 1.0, -1.0),
    (0.0, 1.0, -1.0, 1.0),
)


@dataclass(frozen=True)
class KktDiagnostics:
    """Dual values recovered a posteriori from the active constraints.

    ``lambda1``..``lambda5`` pair with the five rate bounds, ``lambda6``/
    ``lambda7`` with the user power budgets, ``lambda8`` with the relay
    budget. ``complementary_slackness_residual`` is ``max_i lambda_i *
    slack_i``; ``stationarity_residual`` is the largest violation of the
    first-order equalities used in the recovery.
    """

    lambda1: float
    lambda2: float
    lambda3: float
    lambda4: float
    lambda5: float
    lambda6: float
    lambda7: float
    lambda8: float
    complementary_slackness_residual: float
    stationarity_residual: float

    def to_dict(self) -> dict:
        return {
            "lambda1": self.lambda1,
            "lambda2": self.lambda2,
            "lambda3": self.lambda3,
            "lambda4": self.lambda4,
            "lambda5": self.lambda5,
            "lambda6": self.lambda6,
            "lambda7": self.lambda7,
            "lambda8": self.lambda8,
            "complementary_slackness_residual": self.complementary_slackness_residual,
            "stationarity_residual": self.stationarity_residual,
        }


_ZERO_DIAGNOSTICS = KktDiagnostics(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


@dataclass(frozen=True)
class SolveResult:
    """Optimal allocation, achieved rates, labels, and diagnostics."""

    allocation: PowerAllocation
    rates: RatePoint
    assignment: SchemeAssignment
    weighted_sum: float
    diagnostics: KktDiagnostics
    mu: float
    method: str = "numeric"
    alternate_rates: Optional[RatePoint] = None
    ambiguous: bool = False

    def to_dict(self) -> dict:
        return {
            "allocation": self.allocation.to_dict(),
            "rates": self.rates.to_dict(),
            "assignment": self.assignment.to_dict(),
            "weighted_sum": self.weighted_sum,
            "diagnostics": self.diagnostics.to_dict(),
            "mu": self.mu,
            "method": self.method,
            "alternate_rates": None if self.alternate_rates is None else self.alternate_rates.to_dict(),
            "ambiguous": self.ambiguous,
        }


def _validate_mu(mu: float) -> float:
    if not (isinstance(mu, (int, float)) and math.isfinite(mu) and 0.0 <= mu <= 1.0):
        raise ValidationError(f"mu must lie in [0, 1], got {mu!r}")
    return float(mu)


class _Objective:
    """Scalar/batch evaluation of the reduced 4-variable program on the
    relay face ``beta3 = p - pw1 - pw2``."""

    __slots__ = ("p", "mu", "favor1", "kernel", "flat")

    def __init__(self, g: LinkGains, mu: float):
        self.p = g.p
        self.mu = mu
        self.favor1 = mu >= 0.5
        self.kernel = RateKernel(g)
        # value of (alpha1, alpha2, pw1, pw2) as four floats, no tuple
        self.flat = self.kernel.face_objective(g.p, mu, _TIE_BONUS)

    def rates(self, x: Sequence[float]) -> tuple[float, float]:
        a1, a2, q1, q2 = x
        p = self.p
        c1 = q1 * a1
        c2 = q2 * a2
        j = self.kernel.bounds(p - a1, p - a2, math.sqrt(c1 if c1 > 0.0 else 0.0),
                               math.sqrt(c2 if c2 > 0.0 else 0.0), p - q2, p - q1)
        return pentagon_corner(*j, self.favor1)

    def value(self, x: Sequence[float]) -> float:
        return self.flat(*x)

    def value_batch(self, a1, a2, q1, q2):
        p = self.p
        j = self.kernel.bounds(p - a1, p - a2, np.sqrt(q1 * a1), np.sqrt(q2 * a2), p - q2, p - q1)
        r1, r2 = pentagon_corner(*j, self.favor1)
        return self.mu * r1 + (1.0 - self.mu) * r2 + _TIE_BONUS * (r1 + r2)


def _clip(x: Sequence[float], p: float) -> tuple[float, float, float, float]:
    a1 = min(max(x[0], 0.0), p)
    a2 = min(max(x[1], 0.0), p)
    q1 = min(max(x[2], 0.0), p)
    q2 = min(max(x[3], 0.0), p)
    total = q1 + q2
    if total > p and total > 0.0:
        shrink = p / total
        q1 *= shrink
        q2 *= shrink
    return (a1, a2, q1, q2)


def _t_range(x: Sequence[float], d: Sequence[float], p: float) -> tuple[float, float]:
    """Feasible step range so that x + t*d stays in the box/simplex."""
    tlo, thi = -math.inf, math.inf
    bounds = (
        (x[0], d[0]),
        (x[1], d[1]),
        (x[2], d[2]),
        (x[3], d[3]),
        (x[2] + x[3], d[2] + d[3]),
    )
    for value, slope in bounds:
        if slope > 1e-16:
            thi = min(thi, (p - value) / slope)
            tlo = max(tlo, (0.0 - value) / slope)
        elif slope < -1e-16:
            thi = min(thi, (0.0 - value) / slope)
            tlo = max(tlo, (p - value) / slope)
    if not (tlo < thi):
        return 0.0, 0.0
    return tlo, thi


def _golden_section(fun: Callable[[float], float], lo: float, hi: float, tol: float) -> tuple[float, float]:
    width = hi - lo
    if width <= tol:
        mid = 0.5 * (lo + hi)
        return mid, fun(mid)
    c = hi - _INVPHI * width
    d = lo + _INVPHI * width
    fc = fun(c)
    fd = fun(d)
    while width > tol:
        if fc >= fd:
            hi, d, fd = d, c, fc
            width = hi - lo
            c = hi - _INVPHI * width
            fc = fun(c)
        else:
            lo, c, fc = c, d, fd
            width = hi - lo
            d = lo + _INVPHI * width
            fd = fun(d)
    return (c, fc) if fc >= fd else (d, fd)


def _seed(obj: _Objective) -> tuple[tuple[float, float, float, float], float]:
    p = obj.p
    levels = np.linspace(0.0, p, 9)
    n = len(levels)
    q1_list = []
    q2_list = []
    for i in range(n):
        for j in range(n - i):
            q1_list.append(levels[i])
            q2_list.append(levels[j])
    q1_arr = np.array(q1_list)
    q2_arr = np.array(q2_list)
    m = len(q1_arr)
    a1 = np.repeat(levels, n * m)
    a2 = np.tile(np.repeat(levels, m), n)
    q1 = np.tile(q1_arr, n * n)
    q2 = np.tile(q2_arr, n * n)
    vals = obj.value_batch(a1, a2, q1, q2)
    k = int(np.argmax(vals))
    x = (float(a1[k]), float(a2[k]), float(q1[k]), float(q2[k]))
    return x, float(vals[k])


def _refine(obj: _Objective, x, val, max_cycles: int) -> tuple[tuple, float]:
    p = obj.p
    flat = obj.flat
    scale = max(1.0, p)
    gss_tol = 1e-9 * scale
    for _ in range(max_cycles):
        before = val
        for d in _DIRECTIONS:
            tlo, thi = _t_range(x, d, p)
            if thi - tlo <= 1e-15 * scale:
                continue
            x0, x1, x2, x3 = x
            d0, d1, d2, d3 = d

            def fun(t):
                return flat(x0 + t * d0, x1 + t * d1, x2 + t * d2, x3 + t * d3)

            t_best, f_best = _golden_section(fun, tlo, thi, gss_tol)
            for t_end in (tlo, thi):
                f_end = fun(t_end)
                if f_end > f_best:
                    t_best, f_best = t_end, f_end
            if f_best > val:
                val = f_best
                x = _clip((x0 + t_best * d0, x1 + t_best * d1,
                           x2 + t_best * d2, x3 + t_best * d3), p)
        if val - before <= 1e-13 * max(1.0, abs(val)):
            break
    return x, val


def _polish(obj: _Objective, x, val) -> tuple[tuple, float]:
    """SLSQP on the lifted smooth formulation; fall back to x on failure.

    The variables are ``z = (r1, r2, alpha1, alpha2, pw1, pw2, s1, s2)``.
    One vector constraint holds the five rate bounds ``j - r >= 0``, the
    rotated cones ``pw_i * alpha_i - s_i**2 >= 0`` and the relay simplex.
    """
    p = obj.p
    k = obj.kernel
    a1, a2, q1, q2 = x
    r1, r2 = obj.rates(x)
    z0 = np.array([r1, r2, a1, a2, q1, q2,
                   math.sqrt(max(q1 * a1, 0.0)), math.sqrt(max(q2 * a2, 0.0))])
    # box cap on the rate variables, one bit above the largest j5
    rate_cap = math.log2(1.0 + (k.relay1 + k.relay2) * p) + 1.0
    bounds = [(0.0, rate_cap), (0.0, rate_cap)] + [(0.0, p)] * 6
    mu = obj.mu

    def objective(z):
        return -(mu * z[0] + (1.0 - mu) * z[1])

    obj_jac = np.zeros(8)
    obj_jac[0] = -mu
    obj_jac[1] = -(1.0 - mu)

    def inputs(z):
        return p - z[2], p - z[3], z[6], z[7], p - z[5], p - z[4]

    def cons(z):
        z = z.tolist()
        j1, j2, j3, j4, j5 = k.bounds(*inputs(z))
        return np.array([j1 - z[0], j2 - z[0], j3 - z[1], j4 - z[1], j5 - z[0] - z[1],
                         z[4] * z[2] - z[6] * z[6], z[5] * z[3] - z[7] * z[7],
                         p - z[4] - z[5]])

    jac_fixed = np.zeros((8, 8))  # the entries that do not depend on z
    jac_fixed[[0, 1, 4], 0] = -1.0
    jac_fixed[[2, 3, 4], 1] = -1.0
    jac_fixed[7, [4, 5]] = -1.0

    def cons_jac(z):
        z = z.tolist()
        d1, d2, d3, d4, d5 = (arg * _LN2 for arg in k.log_args(*inputs(z)))
        jac = jac_fixed.copy()
        jac[0, 2] = -k.relay1 / d1
        jac[1, 5] = -k.beam2 / d2
        jac[1, 6] = k.cross1 / d2
        jac[2, 3] = -k.relay2 / d3
        jac[3, 4] = -k.beam1 / d4
        jac[3, 7] = k.cross2 / d4
        jac[4, 2] = -k.relay1 / d5
        jac[4, 3] = -k.relay2 / d5
        jac[5, [2, 4, 6]] = z[4], z[2], -2.0 * z[6]
        jac[6, [3, 5, 7]] = z[5], z[3], -2.0 * z[7]
        return jac

    try:
        with warnings.catch_warnings():
            # SLSQP warns when its line search steps momentarily outside the
            # box before clipping; the clipped iterate is what we consume.
            warnings.filterwarnings("ignore", message=".*outside bounds.*")
            res = minimize(
                objective, z0, jac=lambda z: obj_jac, method="SLSQP",
                bounds=bounds, constraints={"type": "ineq", "fun": cons, "jac": cons_jac},
                options={"maxiter": 200, "ftol": 1e-14},
            )
    except (ValueError, FloatingPointError):  # pragma: no cover - scipy guard
        return x, val
    if not np.all(np.isfinite(res.x)):
        return x, val
    cand = _clip((res.x[2], res.x[3], res.x[4], res.x[5]), p)
    cand_val = obj.value(cand)
    if cand_val > val:
        return cand, cand_val
    return x, val


def _poll(obj: _Objective, x, val) -> tuple[tuple, float, bool]:
    p = obj.p
    scale = max(1.0, p)
    best_x, best_val = x, val
    for h in (1e-3 * scale, 1e-5 * scale):
        for d in _DIRECTIONS:
            for s in (h, -h):
                cand = _clip((x[0] + s * d[0], x[1] + s * d[1],
                              x[2] + s * d[2], x[3] + s * d[3]), p)
                v = obj.value(cand)
                if v > best_val + 1e-13:
                    best_x, best_val = cand, v
    return best_x, best_val, best_val > val + 1e-13


def _optimize(obj: _Objective) -> tuple[tuple, float]:
    x, val = _seed(obj)
    x, val = _refine(obj, x, val, max_cycles=8)
    x, val = _polish(obj, x, val)
    for _ in range(2):
        x2, v2, found = _poll(obj, x, val)
        if not found:
            break
        x, val = _refine(obj, x2, v2, max_cycles=4)
        x, val = _polish(obj, x, val)
    return x, val


def _min_beta3(obj: _Objective, x, r1: float, r2: float) -> float:
    """Smallest beta3 preserving the achieved rates (no coherent power)."""
    a1, a2, q1, q2 = x
    k = obj.kernel
    room = obj.p - q1 - q2
    need = 0.0
    base1, base2 = k.user_snrs(math.sqrt(max(q1 * a1, 0.0)), math.sqrt(max(q2 * a2, 0.0)), q1, q2)
    deficit1 = (2.0 ** r1 - 1.0) - base1
    if deficit1 > 0.0:
        if k.beam2 <= 0.0:
            return room
        need = max(need, deficit1 / k.beam2)
    deficit2 = (2.0 ** r2 - 1.0) - base2
    if deficit2 > 0.0:
        if k.beam1 <= 0.0:
            return room
        need = max(need, deficit2 / k.beam1)
    return min(need, room)


def _infer_assignment(g: LinkGains, alloc: PowerAllocation, rates: RatePoint) -> SchemeAssignment:
    """Label each user's technique from the allocation's active components.

    A user runs block Markov coding when both its repeated-message power
    and the relay's matching coherent power are active. A user relies on
    independent (binning) relaying when the bin power is active and the
    user's delivered rate would become infeasible without it. When
    exactly one user beamforms, the bin power is attributed to the other
    user, matching how the bin level is set by that user's constraints.
    """
    act = ACTIVITY_THRESHOLD * g.p
    bm1 = alloc.alpha1 > act and alloc.pw1 > act
    bm2 = alloc.alpha2 > act and alloc.pw2 > act

    def needs_bin(rate: float, base: float, relay_gain_sq: float) -> bool:
        if alloc.beta3 <= act:
            return False
        deficit = (2.0 ** rate - 1.0) - base
        return deficit > act * relay_gain_sq

    k = RateKernel(g)
    base1, base2 = k.user_snrs(math.sqrt(max(alloc.pw1 * alloc.alpha1, 0.0)),
                               math.sqrt(max(alloc.pw2 * alloc.alpha2, 0.0)),
                               alloc.pw1, alloc.pw2)
    ind1 = needs_bin(rates.r1, base1, k.beam2)
    ind2 = needs_bin(rates.r2, base2, k.beam1)

    if bm1 and bm2:
        user1 = Technique.BOTH if ind1 else Technique.BM
        user2 = Technique.BOTH if ind2 else Technique.BM
    elif bm1:
        user1 = Technique.BM
        user2 = Technique.IND if ind2 else Technique.DT
    elif bm2:
        user2 = Technique.BM
        user1 = Technique.IND if ind1 else Technique.DT
    else:
        user1 = Technique.IND if ind1 else Technique.DT
        user2 = Technique.IND if ind2 else Technique.DT
    return SchemeAssignment(user1=user1, user2=user2)


def _recover_duals(g: LinkGains, mu: float, alloc: PowerAllocation,
                   cons: RateConstraints, rates: RatePoint) -> KktDiagnostics:
    p = g.p
    if p <= 0.0:
        return _ZERO_DIAGNOSTICS
    slacks = [
        cons.j1 - rates.r1,
        cons.j2 - rates.r1,
        cons.j3 - rates.r2,
        cons.j4 - rates.r2,
        cons.j5 - rates.r1 - rates.r2,
        p - alloc.user1_total,
        p - alloc.user2_total,
        p - alloc.relay_total,
    ]
    rate_tol = [1e-6 * (1.0 + abs(j)) for j in cons.as_tuple()]
    pw_tol = 1e-6 * max(1.0, p)
    active = [slacks[i] <= rate_tol[i] for i in range(5)]
    active += [slacks[i] <= pw_tol for i in range(5, 8)]

    k = RateKernel(g)
    den1, den2, den3, den4, den5 = (arg * _LN2 for arg in k.log_args(*allocation_inputs(alloc)))

    interior = 1e-7 * max(1.0, p)
    rows: list[tuple[list[float], float, float]] = []
    weight = 1e3
    rows.append(([1.0, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0], mu, weight))
    rows.append(([0.0, 0.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0], 1.0 - mu, weight))
    if alloc.beta1 > interior:
        rows.append(([k.relay1 / den1, 0.0, 0.0, 0.0, k.relay1 / den5, -1.0, 0.0, 0.0], 0.0, 1.0))
    if alloc.beta2 > interior:
        rows.append(([0.0, 0.0, k.relay2 / den3, 0.0, k.relay2 / den5, 0.0, -1.0, 0.0], 0.0, 1.0))
    if alloc.alpha1 > interior and alloc.pw1 > interior:
        slope = k.cross1 * 0.5 * math.sqrt(alloc.pw1 / alloc.alpha1) / den2
        rows.append(([0.0, slope, 0.0, 0.0, 0.0, -1.0, 0.0, 0.0], 0.0, 1.0))
    if alloc.alpha2 > interior and alloc.pw2 > interior:
        slope = k.cross2 * 0.5 * math.sqrt(alloc.pw2 / alloc.alpha2) / den4
        rows.append(([0.0, 0.0, 0.0, slope, 0.0, 0.0, -1.0, 0.0], 0.0, 1.0))
    if alloc.pw1 > interior:
        slope = (k.cross1 * 0.5 * math.sqrt(alloc.alpha1 / alloc.pw1) + k.beam2) / den2
        rows.append(([0.0, slope, 0.0, 0.0, 0.0, 0.0, 0.0, -1.0], 0.0, 1.0))
    if alloc.pw2 > interior:
        slope = (k.cross2 * 0.5 * math.sqrt(alloc.alpha2 / alloc.pw2) + k.beam1) / den4
        rows.append(([0.0, 0.0, 0.0, slope, 0.0, 0.0, 0.0, -1.0], 0.0, 1.0))
    if alloc.beta3 > interior:
        rows.append(([0.0, k.beam2 / den2, 0.0, k.beam1 / den4, 0.0, 0.0, 0.0, -1.0], 0.0, 1.0))

    free = [i for i in range(8) if active[i]]
    lam = [0.0] * 8
    if free:
        a_mat = np.array([[row[i] * w for i in free] for row, rhs, w in rows])
        b_vec = np.array([rhs * w for row, rhs, w in rows])
        try:
            sol, _ = nnls(a_mat, b_vec)
            for idx, value in zip(free, sol):
                lam[idx] = float(value)
        except (ValueError, RuntimeError):  # pragma: no cover - scipy guard
            pass

    comp = max(lam[i] * abs(slacks[i]) for i in range(8))
    stat = 0.0
    for row, rhs, _ in rows:
        stat = max(stat, abs(sum(row[i] * lam[i] for i in range(8)) - rhs))
    return KktDiagnostics(
        lambda1=lam[0], lambda2=lam[1], lambda3=lam[2], lambda4=lam[3],
        lambda5=lam[4], lambda6=lam[5], lambda7=lam[6], lambda8=lam[7],
        complementary_slackness_residual=comp,
        stationarity_residual=stat,
    )


def _finalize(obj: _Objective, g: LinkGains, mu: float, x, method: str) -> SolveResult:
    p = g.p
    val = obj.value(x)
    snap_tol = _SNAP_TOL * max(1.0, abs(val))
    for idx in (2, 3):
        if x[idx] > 0.0:
            cand = list(x)
            cand[idx] = 0.0
            cand = tuple(cand)
            v = obj.value(cand)
            if v >= val - snap_tol:
                x, val = cand, v
    for a_idx, q_idx in ((0, 2), (1, 3)):
        if x[a_idx] > 0.0:
            cand = list(x)
            cand[a_idx] = 0.0
            cand[q_idx] = 0.0
            cand = tuple(cand)
            v = obj.value(cand)
            if v >= val - snap_tol:
                x, val = cand, v
    # a zero repeated-message power cannot support coherent relay power
    cleaned = [float(v) for v in x]
    if cleaned[0] == 0.0:
        cleaned[2] = 0.0
    if cleaned[1] == 0.0:
        cleaned[3] = 0.0
    x = tuple(cleaned)

    a1, a2, q1, q2 = x
    act = ACTIVITY_THRESHOLD * p
    r1, r2 = obj.rates(x)
    if q1 + q2 > act:
        beta3 = max(float(p - q1 - q2), 0.0)
    else:
        beta3 = max(float(_min_beta3(obj, x, r1, r2)), 0.0)
    alloc = PowerAllocation(
        alpha1=a1, beta1=p - a1, alpha2=a2, beta2=p - a2,
        pw1=q1, pw2=q2, beta3=beta3,
    )
    cons = compute_constraints(g, alloc)
    rates = best_weighted_point(cons, mu)
    assignment = _infer_assignment(g, alloc, rates)
    alternate = None
    ambiguous = False
    if mu == 0.5:
        other = best_weighted_point(cons, 0.0)
        if abs(other.r1 - rates.r1) > 1e-12 or abs(other.r2 - rates.r2) > 1e-12:
            alternate = other
            ambiguous = True
    diagnostics = _recover_duals(g, mu, alloc, cons, rates)
    return SolveResult(
        allocation=alloc,
        rates=rates,
        assignment=assignment,
        weighted_sum=rates.weighted_sum(mu),
        diagnostics=diagnostics,
        mu=mu,
        method=method,
        alternate_rates=alternate,
        ambiguous=ambiguous,
    )


def _trivial_result(g: LinkGains, mu: float) -> SolveResult:
    alloc = PowerAllocation(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    cons = compute_constraints(g, alloc)
    rates = best_weighted_point(cons, mu)
    return SolveResult(
        allocation=alloc,
        rates=rates,
        assignment=_infer_assignment(g, alloc, rates),
        weighted_sum=rates.weighted_sum(mu),
        diagnostics=_ZERO_DIAGNOSTICS,
        mu=mu,
        method="trivial",
    )


def _closed_form_r2t34(g: LinkGains, mu: float) -> Optional[SolveResult]:
    """Both users independent: full fresh power, minimal bin power."""
    p = g.p
    try:
        beta3 = min_relay_power(g)
    except WrongRegimeError:
        return None
    alloc = PowerAllocation(0.0, p, 0.0, p, 0.0, 0.0, beta3)
    cons = compute_constraints(g, alloc)
    rates = best_weighted_point(cons, mu)
    # the construct must bind the relay-decoding constraints; otherwise
    # the cell was misjudged (e.g. borderline floats) and the numeric
    # path should decide
    tol1 = 1e-9 * (1.0 + cons.j1)
    tol5 = 1e-9 * (1.0 + cons.j5)
    if abs(rates.r1 - cons.j1) > tol1 or abs(rates.r1 + rates.r2 - cons.j5) > tol5:
        return None
    return SolveResult(
        allocation=alloc,
        rates=rates,
        assignment=_infer_assignment(g, alloc, rates),
        weighted_sum=rates.weighted_sum(mu),
        diagnostics=_recover_duals(g, mu, alloc, cons, rates),
        mu=mu,
        method="closed-form-r2t34",
    )


def _certify(g: LinkGains, mu: float, res: SolveResult) -> bool:
    """Quick optimality screen for a closed-form candidate.

    Polls ascent directions around the candidate on the relay-budget
    face. The closed forms only cover part of their cells (coherent
    combining can beat pure binning when the user-to-relay beam link is
    weak), so an improvable candidate is discarded and the numeric path
    decides.
    """
    obj = _Objective(g, mu)
    alloc = res.allocation
    x = (alloc.alpha1, alloc.alpha2, alloc.pw1, alloc.pw2)
    _, _, found = _poll(obj, x, obj.value(x))
    return not found


def solve(g: LinkGains, mu: float, method: str = "auto") -> SolveResult:
    """Maximize ``mu * r1 + (1 - mu) * r2`` over powers and rates.

    ``method="auto"`` (default) takes a closed-form shortcut in cells
    (R2,T3) and (R2,T4) with ``mu > 1/2``, where full relay binning for
    user 2 on top of user 1's direct-transmission corner is provably
    optimal, and runs the numeric path everywhere else. The (R2,T5)
    closed form (:func:`solve_r2t5`) is deliberately not used as a
    shortcut: on a measurable fraction of that cell a mixed allocation
    with ``alpha1 > 0`` strictly beats it, so treating it as the answer
    would break this function's optimality contract.
    ``method="numeric"`` forces the numeric path, which is useful for
    validating the closed forms against an independent computation.

    At ``mu = 1/2`` the two pentagon corners tie; the user-1-favoring
    corner is reported and the other appears in ``alternate_rates`` with
    ``ambiguous=True`` when it differs.
    """
    validate_gains(g)
    mu = _validate_mu(mu)
    if method not in ("auto", "numeric"):
        raise ValidationError(f"method must be 'auto' or 'numeric', got {method!r}")
    if g.p == 0.0:
        return _trivial_result(g, mu)
    if method == "auto" and mu > 0.5:
        reg = classify(g)
        if reg.side_condition_holds and reg.cell in (("R2", "T3"), ("R2", "T4")):
            candidate = _closed_form_r2t34(g, mu)
            if candidate is not None and _certify(g, mu, candidate):
                return candidate
    obj = _Objective(g, mu)
    x, _ = _optimize(obj)
    return _finalize(obj, g, mu, x, "numeric")


def solve_r2t5(g: LinkGains, mu: float) -> SolveResult:
    """Closed form for cell (R2,T5): user 1 independent, user 2 coherent.

    The bin power is pinned by user 1's delivered-rate constraint,
    ``beta3 = (gr1**2 - g21**2) * p / g2r**2``, the relay spends the rest
    coherently for user 2, and user 2's split solves ``j4 = j5 - j1``, a
    quadratic in ``sqrt(alpha2)``. Raises :class:`NoRootError` when that
    equation has no root in ``(0, p]``, which happens exactly when
    ``gr2**2 <= (g12**2 + g1r**2) * (1 + gr1**2 * p)``, gains outside
    this case's validity. Raises :class:`WrongRegimeError` when
    ``gr1**2`` falls outside ``[g21**2, g21**2 + g2r**2]``.
    """
    validate_gains(g)
    mu = _validate_mu(mu)
    if not 0.5 < mu <= 1.0:
        raise ValidationError(f"this closed form requires mu in (1/2, 1], got {mu!r}")
    p = g.p
    if p <= 0.0:
        raise ValidationError("this closed form requires a positive power budget")
    relay1 = g.gr1 ** 2
    relay2 = g.gr2 ** 2
    direct2 = g.g21 ** 2
    beam2 = g.g2r ** 2
    direct1 = g.g12 ** 2
    beam1 = g.g1r ** 2
    if not direct2 <= relay1 <= direct2 + beam2:
        reg = classify(g)
        raise WrongRegimeError(
            f"gains classify as ({reg.r_index},{reg.t_index}); this closed form "
            "needs gr1^2 in [g21^2, g21^2 + g2r^2]"
        )
    beta3 = (relay1 - direct2) * p / beam2 if beam2 > 0.0 else 0.0
    beta3 = min(beta3, p)
    pw2 = max(p - beta3, 0.0)
    scale = 1.0 + relay1 * p
    # j4 = j5 - j1 reads relay2 * s**2 + b * s + c = 0 in s = sqrt(alpha2),
    # with c the equation's value at alpha2 = 0
    c = (direct1 * p + beam1 * p) * scale - relay2 * p
    if c >= 0.0:
        raise NoRootError(
            f"j4 = j5 - j1 has no root in (0, p]: gr2^2 = {relay2!r} does not exceed "
            f"(g12^2 + g1r^2) * (1 + gr1^2 * p) = {(direct1 + beam1) * scale!r}"
        )
    # c < 0 < relay2: exactly one positive root, in cancellation-free form
    b = 2.0 * g.g12 * g.g1r * math.sqrt(pw2) * scale
    s = -2.0 * c / (b + math.sqrt(b * b - 4.0 * relay2 * c))
    alpha2 = min(s * s, p)  # the root lies in (0, p]; min absorbs rounding
    alloc = PowerAllocation(
        alpha1=0.0, beta1=p, alpha2=alpha2, beta2=p - alpha2,
        pw1=0.0, pw2=pw2, beta3=beta3,
    )
    cons = compute_constraints(g, alloc)
    rates = best_weighted_point(cons, mu)
    return SolveResult(
        allocation=alloc,
        rates=rates,
        assignment=_infer_assignment(g, alloc, rates),
        weighted_sum=rates.weighted_sum(mu),
        diagnostics=_recover_duals(g, mu, alloc, cons, rates),
        mu=mu,
        method="closed-form-r2t5",
    )


def min_relay_power(g: LinkGains) -> float:
    """Minimum bin power when the relay only does independent coding.

    Valid in cells (R2,T3) and (R2,T4), including their closed boundary:
    ``g21**2 <= gr1**2 <= g21**2 + g2r**2`` and
    ``g12**2 * s <= gr2**2 <= (g12**2 + g1r**2) * s`` with
    ``s = 1 + gr1**2 * p``. Returns
    ``max((gr2**2 - g12**2 * s) * p / (g1r**2 * s), (gr1**2 - g21**2) * p / g2r**2)``
    with each term floored at zero. Raises :class:`WrongRegimeError`
    naming the actual cell otherwise.
    """
    validate_gains(g)
    p = g.p
    relay1 = g.gr1 ** 2
    relay2 = g.gr2 ** 2
    direct2 = g.g21 ** 2
    beam2 = g.g2r ** 2
    direct1 = g.g12 ** 2
    beam1 = g.g1r ** 2
    scale = 1.0 + relay1 * p
    in_r = direct2 <= relay1 <= direct2 + beam2
    in_t = direct1 * scale <= relay2 <= (direct1 + beam1) * scale
    if not (in_r and in_t):
        reg = classify(g)
        raise WrongRegimeError(
            f"gains classify as ({reg.r_index},{reg.t_index}); this formula covers "
            "(R2,T3) and (R2,T4) only"
        )
    num1 = relay2 - direct1 * scale
    term1 = num1 * p / (beam1 * scale) if num1 > 0.0 else 0.0
    num2 = relay1 - direct2
    term2 = num2 * p / beam2 if num2 > 0.0 else 0.0
    return max(term1, term2)


def check_full_power(g: LinkGains, res: SolveResult) -> bool:
    """True when both users transmit at full power and the relay does too
    whenever any coherent component is active (within 1e-8 * p)."""
    p = g.p
    tol = 1e-8 * p
    alloc = res.allocation
    users_ok = (abs(alloc.user1_total - p) <= tol
                and abs(alloc.user2_total - p) <= tol)
    act = ACTIVITY_THRESHOLD * p
    relay_ok = (alloc.pw1 + alloc.pw2 <= act
                or abs(alloc.relay_total - p) <= tol)
    return users_ok and relay_ok


def boundary_trace(g: LinkGains, mu_samples: Iterable[float]) -> list[RatePoint]:
    """Rate points tracing the region boundary for ascending weights."""
    samples = [_validate_mu(m) for m in mu_samples]
    if any(b < a for a, b in zip(samples, samples[1:])):
        raise ValidationError("mu_samples must be sorted ascending")
    return [solve(g, m).rates for m in samples]
