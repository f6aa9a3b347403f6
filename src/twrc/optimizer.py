"""Weighted-sum-rate maximization over the composite decode-forward scheme.

The problem ``max mu*r1 + (1-mu)*r2`` subject to the pentagon constraints
and the three power budgets is convex once the relay's coherent parts are
lifted to ``s_i = sqrt(alpha_i * pw_i)``: every bound is ``log2`` of an
affine function of ``(beta1, beta2, s1, s2, f1, f2)``, and
``s_i**2 <= alpha_i * pw_i`` is a rotated cone.

Two reductions shrink the search space without losing optima:

* users transmit at full power, so ``beta_i = p - alpha_i``;
* raising the binning power ``beta3`` never lowers any bound, so the
  search runs on the relay-budget face ``beta3 = p - pw1 - pw2`` and,
  when no coherent component is active, the reported ``beta3`` is the
  least that keeps the reported corners (both at ``mu = 1/2``): the
  larger of the two users' bin needs (``_bin_need``), the rule the
  ``Ind``/``Both`` labels read too.

That leaves four powers ``(alpha1, alpha2, pw1, pw2)``. The numeric path
is one interior-point solve, ``_primal_dual``: a primal-dual method on the
lifted program in ``(r1, r2, alpha1, alpha2, pw1, pw2, s1, s2)``, one
Newton system and one multiplier update per iteration, whose answer
``_finalize`` snaps to exact zeros where that costs nothing. ``solve``
logs its Newton-system count, how it stopped, its surrogate gap and its
dual residual as one DEBUG record on this module's logger. It is the one
path for every nonzero budget: in cells (R2,T3) and (R2,T4) it reproduces
the paper's closed form (both users independent, the relay at
:func:`min_relay_power`), which the tests check rather than ``solve``
assuming it. The (R2,T5) closed form is exposed separately because it is
not optimal on all of its cell.

Every rate bound, in the interior-point solve, the finalize step and dual
recovery, is evaluated by the one :class:`~twrc.rate_region.RateKernel`
that ``solve`` or :func:`solve_r2t5` builds, every derivative entry of a
bound is read from the kernel's ``table``, and every corner, of the
finalize step's candidates and of the result, comes from the solver's
corner entry :func:`~twrc.rate_region.pentagon_corner`, the rule that the
checked public :func:`~twrc.rate_region.best_weighted_point` applies.

Every result, the zero-budget answer, the numeric optimum and the (R2,T5)
closed form, ends in ``_result``, the one place a :class:`SolveResult` is
built. It evaluates the allocation once, one set of kernel inputs and
``log2`` arguments, and the rates, the labels and the duals all read
that evaluation; a new result field is computed there.

All rates are log base 2 (bits per channel use).
"""

from __future__ import annotations

import logging
import math
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.optimize import nnls

from .channel import LinkGains, validate_gains
from .errors import NoRootError, WrongRegimeError, check_number
from .rate_region import (
    PowerAllocation,
    RateConstraints,
    RateKernel,
    RatePoint,
    allocation_inputs,
    pentagon_corner,
    validate_allocation,
    validate_mu,
)
from .regimes import SchemeAssignment, Technique, classify, thresholds

__all__ = ["ACTIVITY_THRESHOLD", "KktDiagnostics", "SolveResult", "check_full_power", "min_relay_power", "solve",
           "solve_r2t5"]

# A power component below this fraction of the budget counts as inactive
# when labeling techniques and deciding relay full power.
ACTIVITY_THRESHOLD = 1e-6

# A node within this fraction of the budget runs at full power.
FULL_POWER_TOL = 1e-8

# Lexicographic nudge toward larger sum rate; breaks ties along flat
# directions (mu = 0, 1) without affecting the reported weighted sum.
_TIE_BONUS = 1e-10

# Value loss accepted when snapping a tiny component to exactly zero.
_SNAP_TOL = 1e-12

_LN2 = math.log(2.0)

# One DEBUG record per numeric solve: its Newton systems, how it stopped,
# the final surrogate gap and dual residual. Silent unless configured.
_LOG = logging.getLogger(__name__)

# The primal-dual iteration of _primal_dual on its 14 rows f_i <= 0. A
# step aims at the central point of t = _GROWTH * 14 / gap, gap the
# surrogate duality gap -f'lambda, or of t = 14 / gap (centering) after a
# step shorter than _SHORT; it goes at most _TO_BOUNDARY of the way to a
# multiplier's or a linearized row's zero, halved until back in the domain.
# It stops once the gap is at most _GAP (21 / 1e13, the final gap of the
# log-barrier schedule it replaced; at 1e-10 _TIE_BONUS is unresolved) and
# the dual residual is at most _DUAL_TOL ("converged"), or complementarity
# has collapsed before the duals became feasible ("collapsed"): the last
# step was shorter than _STALLED, as near a cone's alpha_i = pw_i = s_i = 0
# corner, or did not lower the gap, which then sits at the rows' rounding
# floor. _ITERATIONS only guards. The dual residual max |Df' lam - c| is
# computed where the test reads it and on the last iteration, at the gap's.
_GROWTH = 10.0
_GAP = 2.1e-12
_DUAL_TOL = 1e-6
_SHORT = 0.5
_STALLED = 1e-2
_TO_BOUNDARY = 0.99
_ITERATIONS = 100
# The Newton system's diagonal is raised by this fraction of itself, so
# that it stays solvable where rounding makes two directions' curvature
# agree (r1 and r2 move only together at g1r = g2r = 0 and mu = 1/2).
_RIDGE = 1e-12

# Column of z = (r1, r2, alpha1, alpha2, pw1, pw2, s1, s2) carrying each
# kernel input (beta1, beta2, s1, s2, f1, f2), and the input's slope in
# it: beta_i = p - alpha_i, f1 = p - pw2, f2 = p - pw1.
_INPUT_COLUMNS = ((2, -1.0), (3, -1.0), (6, 1.0), (7, 1.0), (5, -1.0), (4, -1.0))


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
        return asdict(self)


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

    @property
    def ambiguous(self) -> bool:
        """True when ``alternate_rates`` holds a second corner (``mu = 1/2``)."""
        return self.alternate_rates is not None

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


def _reported_rates(j: Sequence[float], mu: float) -> list[RatePoint]:
    """The pentagon corners of the bounds ``j = (j1, ..., j5)`` that a
    result reports: the one ``mu`` favors and, at ``mu = 1/2``, where the
    two tie, user 2's too, by ``pentagon_corner`` without
    :func:`~twrc.rate_region.best_weighted_point`'s input checks."""
    return [RatePoint(*pentagon_corner(*j, favor1)) for favor1 in ((True, False) if mu == 0.5 else (mu >= 0.5,))]


def _primal_dual(k: RateKernel, p: float,
                 mu: float) -> tuple[tuple[float, float, float, float], int, str, float, float]:
    """``(alpha1, alpha2, pw1, pw2)`` maximizing the weighted sum on the
    relay face, the number of Newton systems solved, how the iteration
    stopped (``"converged"``, ``"collapsed"`` or ``"cap"``), and the last
    surrogate gap and dual residual.

    The method is primal-dual interior-point (Boyd & Vandenberghe, *Convex
    Optimization*, §11.7, the reduced Newton system of eq. 11.55) on the
    lifted program in ``z = (r1, r2, alpha1, alpha2, pw1, pw2, s1, s2)``,
    powers in units of ``p`` so that no row under- or overflows at an
    extreme budget:

        max  (mu + b) r1 + (1 - mu + b) r2        (b = _TIE_BONUS)
        s.t. ln2 * r - ln arg_k <= 0   (r = r1, r1, r2, r2, r1 + r2),
             s_i**2 / alpha_i - pw_i <= 0,  0 <= alpha_i <= 1,
             pw1 + pw2 <= 1,  r_i >= -1.

    Each ``arg_k`` is affine in ``z`` (the kernel's ``log_args``, with its
    slopes from ``table``), so every row is convex. Each iteration is one
    loop body: it sets the gradients that move with ``z``, applies the
    stop rule, builds and solves one 8x8 Newton system for ``z`` and
    updates one multiplier per row.
    """
    c = np.array([mu + _TIE_BONUS, 1.0 - mu + _TIE_BONUS, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    # rows 0-13: the gradients of the 14 rows; rows 14-18: those of
    # ln arg_k. The entries that move with z are set at `cells`: the
    # slopes of ln arg_k in rows 0-4 and 14-18, and the cones' in row 5
    # (alpha1, s1) and row 6 (alpha2, s2).
    rows = np.zeros((19, 8))
    rows[[0, 1, 4], 0] = rows[[2, 3, 4], 1] = _LN2
    rows[[7, 9, 12, 13], [2, 3, 0, 1]] = rows[[5, 6], [4, 5]] = -1.0
    rows[[8, 10], [2, 3]] = rows[11, [4, 5]] = 1.0
    grads, grads_t = rows[:14], rows[:14].T
    slopes = [(bound, _INPUT_COLUMNS[v][0], _INPUT_COLUMNS[v][1] * coef * p) for bound, v, coef in k.table]
    cells = [8 * bound + col for bound, col, _ in slopes]
    cells = np.array(cells + [8 * 14 + cell for cell in cells] + [42, 46, 51, 55])
    # the Newton-matrix entries of the cones' curvature: (alpha_i, s_i) squared
    curved = np.ravel_multi_index(([2, 2, 6, 6, 3, 3, 7, 7], [2, 6, 2, 6, 3, 7, 3, 7]), (8, 8))

    def rows_at(z):
        """The 14 rows at ``z``, negated, and the five ``arg_k``, or None
        outside the domain, where every row is negative."""
        r1, r2, a1, a2, q1, q2, s1, s2 = z
        args = k.log_args(p * (1.0 - a1), p * (1.0 - a2), p * s1, p * s2, p * (1.0 - q2), p * (1.0 - q1))
        if min(args) <= 0.0 or a1 <= 0.0 or a2 <= 0.0:
            return None
        ln1, ln2, ln3, ln4, ln5 = map(math.log, args)
        f = (_LN2 * r1 - ln1, _LN2 * r1 - ln2, _LN2 * r2 - ln3, _LN2 * r2 - ln4, _LN2 * (r1 + r2) - ln5,
             s1 * s1 / a1 - q1, s2 * s2 / a2 - q2, -a1, a1 - 1.0, -a2, a2 - 1.0, q1 + q2 - 1.0, -1.0 - r1, -1.0 - r2)
        return (-np.array(f), args) if max(f) < 0.0 else None

    # a strictly feasible start: half of each user's power repeated, a
    # third of the relay's coherent per user, rates below every bound;
    # lam_i = 1 / -f_i is its central point at t = 1
    bits = [math.log2(a) for a in k.log_args(0.5 * p, 0.5 * p, 0.0, 0.0, 2.0 * p / 3.0, 2.0 * p / 3.0)]
    z = [0.5 * min(bits[0], bits[1], 0.5 * bits[4]) - 0.5, 0.5 * min(bits[2], bits[3], 0.5 * bits[4]) - 0.5,
         0.5, 0.5, 1.0 / 3.0, 1.0 / 3.0, 0.0, 0.0]
    nf, args = rows_at(z)
    lam, step, stop, gap, base = 1.0 / nf, 1.0, "cap", math.inf, np.array(z)
    for count in range(_ITERATIONS):
        gap, last = float(nf @ lam), gap
        _, _, a1, a2, _, _, s1, s2 = z
        logs = [coef / args[bound] for bound, _, coef in slopes]
        u1, u2 = s1 / a1, s2 / a2
        rows.flat[cells] = [-x for x in logs] + logs + [-u1 * u1, 2.0 * u1, -u2 * u2, 2.0 * u2]
        if gap <= _GAP or count == _ITERATIONS - 1:
            residual = float(np.maximum.reduce(np.abs(grads_t @ lam - c)))
            if gap <= _GAP and (residual <= _DUAL_TOL or step < _STALLED or gap >= last):
                stop = "converged" if residual <= _DUAL_TOL else "collapsed"
                break
        t = (_GROWTH if step >= _SHORT else 1.0) * 14.0 / gap
        # the Newton step toward the central point of t: the matrix is
        # sum_i lam_i hess(f_i) + lam_i / -f_i grad(f_i) grad(f_i)', a rate
        # row's hess being ln arg_k's gradient squared and a cone's
        # 2 lam_i / alpha_i [[u_i^2, -u_i], [-u_i, 1]] on (alpha_i, s_i)
        hess = (rows.T * np.concatenate((lam / nf, lam[:5]))) @ rows
        h1, h2 = 2.0 * lam[5] / a1, 2.0 * lam[6] / a2
        hess.flat[curved] += [h1 * u1 * u1, -h1 * u1, -h1 * u1, h1, h2 * u2 * u2, -h2 * u2, -h2 * u2, h2]
        hess.flat[::9] *= 1.0 + _RIDGE
        dz = np.linalg.solve(hess, c - (1.0 / t) * (grads_t @ (1.0 / nf)))
        slack = grads @ dz
        dlam = (1.0 / t + lam * slack) / nf - lam
        # at most _TO_BOUNDARY of the way to a multiplier's zero or a
        # linearized row's zero, then halved until the point is back in the
        # domain: at the latest at step 0, where it is z, unless dz is not
        # finite
        rate = float(np.maximum.reduce(np.concatenate((dlam / -lam, slack / nf))))
        step = 1.0 if rate <= _TO_BOUNDARY else _TO_BOUNDARY / rate
        while (found := rows_at(trial := (moved := base + step * dz).tolist())) is None and step > 0.0:
            step *= 0.5
        if found is not None:
            z, base, lam, (nf, args) = trial, moved, lam + step * dlam, found
    else:
        count = _ITERATIONS
    return (p * z[2], p * z[3], p * z[4], p * z[5]), count, stop, gap, residual


def _bin_need(k: RateKernel, s1: float, s2: float, pw1: float, pw2: float,
              r1: float, r2: float) -> tuple[float, float]:
    """Bin power each user's rate needs on top of its coherent relay power
    ``pw_i`` (coupling ``s_i``): ``deficit / beam``, the SNR the rate lacks
    over the relay-to-receiver gain. It is 0 when the deficit is not
    positive or the beam is zero, since bin power cannot help that user."""
    base1, base2 = k.user_snrs(s1, s2, pw1, pw2)
    deficit1 = (2.0 ** r1 - 1.0) - base1
    deficit2 = (2.0 ** r2 - 1.0) - base2
    return (deficit1 / k.beam2 if deficit1 > 0.0 and k.beam2 > 0.0 else 0.0,
            deficit2 / k.beam1 if deficit2 > 0.0 and k.beam1 > 0.0 else 0.0)


def _infer_assignment(k: RateKernel, p: float, alloc: PowerAllocation, rates: RatePoint,
                      s1: float, s2: float) -> SchemeAssignment:
    """Label each user's technique from the allocation's active components.

    A user runs block Markov coding when both its repeated-message power
    and the relay's matching coherent power are active. A user relies on
    independent (binning) relaying when the bin power is active and the
    user's :func:`_bin_need` at the couplings ``s1, s2``, the bin power its
    rate needs, is too: the rule that sets the minimum bin power in
    :func:`_finalize`. When exactly one user beamforms, the bin power is
    attributed to the other user, matching how the bin level is set by
    that user's constraints.
    """
    act = ACTIVITY_THRESHOLD * p
    bm1 = alloc.alpha1 > act and alloc.pw1 > act
    bm2 = alloc.alpha2 > act and alloc.pw2 > act
    need1, need2 = _bin_need(k, s1, s2, alloc.pw1, alloc.pw2, rates.r1, rates.r2)

    def label(bm: bool, other_bm: bool, need: float) -> Technique:
        needs_bin = alloc.beta3 > act and need > act
        if bm:
            return Technique.BOTH if needs_bin and other_bm else Technique.BM
        return Technique.IND if needs_bin else Technique.DT

    return SchemeAssignment(user1=label(bm1, bm2, need1), user2=label(bm2, bm1, need2))


def _recover_duals(k: RateKernel, p: float, mu: float, alloc: PowerAllocation,
                   args: Sequence[float], cons: RateConstraints, rates: RatePoint) -> KktDiagnostics:
    """KKT multipliers of ``alloc`` by nonnegative least squares on the
    stationarity rows of its interior powers, from ``_result``'s evaluation."""
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

    dens = [arg * _LN2 for arg in args]
    rows: list[tuple[list[float], float, float]] = []
    weight = 1e3
    rows.append(([1.0, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0], mu, weight))
    rows.append(([0.0, 0.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0], 1.0 - mu, weight))

    def add_row(chain, budget):
        """Stationarity in one interior power x: ``chain`` is d v / d x for
        the kernel inputs v, ``budget`` the index of x's budget multiplier."""
        slopes = [0.0] * 5
        for bound, v, coef in k.table:
            slopes[bound] += coef * chain[v]
        row = [slope / den for slope, den in zip(slopes, dens)] + [0.0, 0.0, 0.0]
        row[budget] = -1.0
        rows.append((row, 0.0, 1.0))

    interior = 1e-7 * max(1.0, p)
    if alloc.beta1 > interior:
        add_row((1.0, 0.0, 0.0, 0.0, 0.0, 0.0), 5)
    if alloc.beta2 > interior:
        add_row((0.0, 1.0, 0.0, 0.0, 0.0, 0.0), 6)
    if alloc.alpha1 > interior and alloc.pw1 > interior:
        add_row((0.0, 0.0, 0.5 * math.sqrt(alloc.pw1 / alloc.alpha1), 0.0, 0.0, 0.0), 5)
    if alloc.alpha2 > interior and alloc.pw2 > interior:
        add_row((0.0, 0.0, 0.0, 0.5 * math.sqrt(alloc.pw2 / alloc.alpha2), 0.0, 0.0), 6)
    if alloc.pw1 > interior:
        add_row((0.0, 0.0, 0.5 * math.sqrt(alloc.alpha1 / alloc.pw1), 0.0, 1.0, 0.0), 7)
    if alloc.pw2 > interior:
        add_row((0.0, 0.0, 0.0, 0.5 * math.sqrt(alloc.alpha2 / alloc.pw2), 0.0, 1.0), 7)
    if alloc.beta3 > interior:
        add_row((0.0, 0.0, 0.0, 0.0, 1.0, 1.0), 7)

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


def _result(k: RateKernel, g: LinkGains, mu: float, alloc: PowerAllocation, method: str) -> SolveResult:
    """The one place a :class:`SolveResult` is built, on one evaluation of
    ``alloc`` with the caller's kernel ``k`` of ``g``: the kernel inputs,
    the ``log2`` arguments ``args`` and the bounds ``cons``
    (:func:`~twrc.rate_region.compute_constraints` without its check of
    ``g``, which every caller has made). From them come the rates at the
    corner ``mu`` favors, user 2's corner at ``mu = 1/2`` when it differs
    by more than 1e-12, the labels and the duals."""
    validate_allocation(alloc, g.p)
    inputs = allocation_inputs(alloc)
    args = k.log_args(*inputs)
    cons = RateConstraints(*map(math.log2, args))
    corners = _reported_rates(cons.as_tuple(), mu)
    rates, other = corners[0], corners[-1]
    alternate = other if abs(other.r1 - rates.r1) > 1e-12 or abs(other.r2 - rates.r2) > 1e-12 else None
    return SolveResult(
        allocation=alloc,
        rates=rates,
        assignment=_infer_assignment(k, g.p, alloc, rates, *inputs[2:4]),
        weighted_sum=rates.weighted_sum(mu),
        diagnostics=_recover_duals(k, g.p, mu, alloc, args, cons, rates),
        mu=mu,
        method=method,
        alternate_rates=alternate,
    )


def _finalize(k: RateKernel, g: LinkGains, mu: float, x) -> SolveResult:
    p = g.p

    def bounds(x):
        """The bounds of the powers ``x = (alpha1, alpha2, pw1, pw2)`` on
        the relay face ``beta3 = p - pw1 - pw2``."""
        a1, a2, q1, q2 = x
        return k.bounds(p - a1, p - a2, math.sqrt(q1 * a1), math.sqrt(q2 * a2), p - q2, p - q1)

    def value(x):
        """The weighted sum plus ``_TIE_BONUS * (r1 + r2)`` at the corner
        ``mu`` favors."""
        r1, r2 = pentagon_corner(*bounds(x), mu >= 0.5)
        return mu * r1 + (1.0 - mu) * r2 + _TIE_BONUS * (r1 + r2)

    val = value(x)
    snap_tol = _SNAP_TOL * max(1.0, abs(val))
    # zero each coherent power, then each repeated power with its partner
    for zeroed in ((2,), (3,), (0, 2), (1, 3)):
        if x[zeroed[0]] > 0.0:
            cand = tuple(0.0 if i in zeroed else v for i, v in enumerate(x))
            v = value(cand)
            if v >= val - snap_tol:
                x, val = cand, v
    # a zero repeated-message power cannot support coherent relay power
    a1, a2, q1, q2 = (float(v) for v in x)
    if a1 == 0.0:
        q1 = 0.0
    if a2 == 0.0:
        q2 = 0.0
    x = (a1, a2, q1, q2)
    beta3 = p - q1 - q2
    if q1 + q2 <= ACTIVITY_THRESHOLD * p:
        # no coherent power: the least bin power that keeps the reported
        # corners, both of them at mu = 1/2
        s1, s2 = math.sqrt(q1 * a1), math.sqrt(q2 * a2)
        corners = _reported_rates(bounds(x), mu)
        beta3 = min(max(max(_bin_need(k, s1, s2, q1, q2, r.r1, r.r2)) for r in corners), beta3)
    alloc = PowerAllocation(
        alpha1=a1, beta1=p - a1, alpha2=a2, beta2=p - a2,
        pw1=q1, pw2=q2, beta3=max(float(beta3), 0.0),
    )
    return _result(k, g, mu, alloc, "numeric")


def solve(g: LinkGains, mu: float) -> SolveResult:
    """Maximize ``mu * r1 + (1 - mu) * r2`` over powers and rates.

    One path: a zero budget gives the all-zero allocation (``method``
    ``"trivial"``); any other budget runs the interior-point solve and its
    finalize step (``"numeric"``). In cells (R2,T3) and (R2,T4) at
    ``mu > 1/2`` that solve lands on the paper's closed form, both users
    independent at the bin power :func:`min_relay_power`. The (R2,T5)
    closed form (:func:`solve_r2t5`) is exposed separately: on a
    measurable fraction of that cell a mixed allocation with
    ``alpha1 > 0`` strictly beats it.

    At ``mu = 1/2`` the two pentagon corners tie; the user-1-favoring
    corner is reported and the other appears in ``alternate_rates`` with
    ``ambiguous=True`` when it differs.
    """
    validate_gains(g)
    mu = validate_mu(mu)
    p = g.p
    k = RateKernel(g)
    if p == 0.0:
        return _result(k, g, mu, PowerAllocation(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0), "trivial")
    x, *stats = _primal_dual(k, p, mu)
    _LOG.debug("numeric solve: %d Newton systems, stopped %s, gap %.3g, dual residual %.3g", *stats)
    return _finalize(k, g, mu, x)


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
    kernel, _, r_cuts, t_cuts = thresholds(g)
    mu = check_number("mu", mu, 0.5, 1.0, low_open=True)
    p = check_number("power budget p", g.p, 0.0, low_open=True)
    relay1, relay2, beam2 = kernel.relay1, kernel.relay2, kernel.beam2
    if not r_cuts[0] <= relay1 <= r_cuts[1]:
        reg = classify(g)
        raise WrongRegimeError(
            f"gains classify as ({reg.r_index},{reg.t_index}); this closed form "
            "needs gr1^2 in [g21^2, g21^2 + g2r^2]"
        )
    beta3 = min((relay1 - r_cuts[0]) * p / beam2, p) if beam2 > 0.0 else 0.0
    pw2 = max(p - beta3, 0.0)
    scale = 1.0 + relay1 * p
    # j4 = j5 - j1 reads relay2 * s**2 + b * s + c = 0 in s = sqrt(alpha2),
    # with c the equation's value at alpha2 = 0
    c = (kernel.direct1 * p + kernel.beam1 * p) * scale - relay2 * p
    if c >= 0.0:
        raise NoRootError(
            f"j4 = j5 - j1 has no root in (0, p]: gr2^2 = {relay2!r} does not exceed "
            f"(g12^2 + g1r^2) * (1 + gr1^2 * p) = {t_cuts[3]!r}"
        )
    # c < 0 < relay2: exactly one positive root, in cancellation-free form
    b = kernel.cross2 * math.sqrt(pw2) * scale
    s = -2.0 * c / (b + math.sqrt(b * b - 4.0 * relay2 * c))
    alpha2 = min(s * s, p)  # the root lies in (0, p]; min absorbs rounding
    alloc = PowerAllocation(
        alpha1=0.0, beta1=p, alpha2=alpha2, beta2=p - alpha2,
        pw1=0.0, pw2=pw2, beta3=beta3,
    )
    return _result(kernel, g, mu, alloc, "closed-form-r2t5")


def min_relay_power(g: LinkGains) -> float:
    """Minimum bin power when the relay only does independent coding.

    Valid in cells (R2,T3) and (R2,T4) of :func:`~twrc.regimes.thresholds`,
    including their closed boundary. Returns
    ``max((gr2**2 - g12**2 * s) * p / (g1r**2 * s), (gr1**2 - g21**2) * p / g2r**2)``
    with ``s = 1 + gr1**2 * p`` and each term floored at zero. Raises
    :class:`WrongRegimeError` naming the actual cell otherwise.
    """
    kernel, scale, r_cuts, t_cuts = thresholds(g)
    relay1, relay2 = kernel.relay1, kernel.relay2
    if not (r_cuts[0] <= relay1 <= r_cuts[1] and t_cuts[1] <= relay2 <= t_cuts[3]):
        reg = classify(g)
        raise WrongRegimeError(
            f"gains classify as ({reg.r_index},{reg.t_index}); this formula covers "
            "(R2,T3) and (R2,T4) only"
        )
    p = g.p
    term1 = (relay2 - t_cuts[1]) * p / (kernel.beam1 * scale) if relay2 > t_cuts[1] else 0.0
    term2 = (relay1 - r_cuts[0]) * p / kernel.beam2 if relay1 > r_cuts[0] else 0.0
    return max(term1, term2)


def check_full_power(g: LinkGains, res: SolveResult) -> bool:
    """True when both users transmit at full power and the relay does too
    whenever any coherent component is active (within 1e-8 * p)."""
    validate_gains(g)
    p = g.p
    tol = FULL_POWER_TOL * p
    alloc = res.allocation
    users_ok = (abs(alloc.user1_total - p) <= tol
                and abs(alloc.user2_total - p) <= tol)
    act = ACTIVITY_THRESHOLD * p
    relay_ok = (alloc.pw1 + alloc.pw2 <= act
                or abs(alloc.relay_total - p) <= tol)
    return users_ok and relay_ok
