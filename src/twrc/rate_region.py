"""Rate constraints of the composite decode-forward scheme and pentagon corners.

For a fixed power allocation the achievable rate pairs form a pentagon
(or a degenerate rectangle):

    r1 <= min(j1, j2),  r2 <= min(j3, j4),  r1 + r2 <= j5.

``j1``, ``j3``, ``j5`` bound decoding at the relay; ``j2`` and ``j4`` bound
decoding at the receiving users. All rates use log base 2, i.e. bits per
channel use.

Power allocation fields follow the transmit-signal structure: each user
splits its budget between a fresh-message part (``beta1``/``beta2``) and a
repeated part (``alpha1``/``alpha2``) that the relay amplifies coherently.
The relay splits its budget between the two coherent components (``pw1``,
``pw2``) and an independent binning component (``beta3``). ``pw1``/``pw2``
replace the unbounded per-user scaling factors ``k_i`` via
``pw_i = k_i * alpha_i``, which keeps the feasible set identical while
making it compact.

The bound formulas are written once, in :class:`RateKernel`, with their
derivative entries in its ``table``, and the corner rule once, in
:func:`pentagon_corner`. The solver goes through both; the grid oracle
through the kernel only, its crossing search matching the corner rule's
floats, as the tests check with :func:`pentagon_corner` on arrays.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .channel import LinkGains, numbers_from_dict, validate_gains
from .errors import InfeasibleAllocationError, check_number

__all__ = ["PowerAllocation", "RateConstraints", "RatePoint", "best_weighted_point", "capacity",
           "compute_constraints", "validate_allocation"]

# Absolute slack (scaled by max(1, p)) when checking power budgets, so
# allocations produced by float arithmetic on the budget boundary pass.
BUDGET_SLACK = 1e-9

ALLOCATION_FIELDS = ("alpha1", "beta1", "alpha2", "beta2", "pw1", "pw2", "beta3")


@dataclass(frozen=True)
class PowerAllocation:
    """The seven transmit-power parameters, all nonnegative.

    Feasibility against a budget ``p`` means ``alpha1 + beta1 <= p``,
    ``alpha2 + beta2 <= p`` and ``pw1 + pw2 + beta3 <= p``. A positive
    ``pw_i`` additionally requires ``alpha_i > 0``, because ``pw_i``
    scales a signal that user ``i`` must actually transmit.
    """

    alpha1: float
    beta1: float
    alpha2: float
    beta2: float
    pw1: float
    pw2: float
    beta3: float

    @property
    def user1_total(self) -> float:
        return self.alpha1 + self.beta1

    @property
    def user2_total(self) -> float:
        return self.alpha2 + self.beta2

    @property
    def relay_total(self) -> float:
        return self.pw1 + self.pw2 + self.beta3

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "PowerAllocation":
        return cls(**numbers_from_dict("allocation", data, ALLOCATION_FIELDS))


@dataclass(frozen=True)
class RateConstraints:
    """The five rate bounds (bits per channel use), all nonnegative."""

    j1: float
    j2: float
    j3: float
    j4: float
    j5: float

    def as_tuple(self) -> tuple[float, float, float, float, float]:
        return (self.j1, self.j2, self.j3, self.j4, self.j5)


@dataclass(frozen=True)
class RatePoint:
    """An achievable rate pair (bits per channel use)."""

    r1: float
    r2: float

    def weighted_sum(self, mu: float) -> float:
        return mu * self.r1 + (1.0 - mu) * self.r2

    def to_dict(self) -> dict:
        return asdict(self)


def capacity(x: float) -> float:
    """Gaussian capacity ``log2(1 + x)`` in bits per channel use."""
    check_number("capacity argument x", x, 0.0)
    return math.log2(1.0 + x)


def validate_mu(mu: float) -> float:
    """The rate weight ``mu`` as a float; raises :class:`ValidationError`
    unless it is a finite number in [0, 1]."""
    return check_number("mu", mu, 0.0, 1.0)


def validate_allocation(a: PowerAllocation, p: float) -> PowerAllocation:
    """Check nonnegativity, the three power budgets, and pw/alpha coupling.

    Raises :class:`InfeasibleAllocationError` naming the violated
    constraint. Budget checks allow slack ``BUDGET_SLACK * max(1, p)``.
    """
    check_number("power budget p", p, 0.0)
    for name in ALLOCATION_FIELDS:
        value = check_number(name, getattr(a, name))
        if value < 0:
            raise InfeasibleAllocationError(f"allocation field {name} must be >= 0, got {value!r}")
    slack = BUDGET_SLACK * max(1.0, p)
    if a.alpha1 + a.beta1 > p + slack:
        raise InfeasibleAllocationError(
            f"user 1 budget violated: alpha1 + beta1 = {a.alpha1 + a.beta1!r} > p = {p!r}"
        )
    if a.alpha2 + a.beta2 > p + slack:
        raise InfeasibleAllocationError(
            f"user 2 budget violated: alpha2 + beta2 = {a.alpha2 + a.beta2!r} > p = {p!r}"
        )
    if a.pw1 + a.pw2 + a.beta3 > p + slack:
        raise InfeasibleAllocationError(
            f"relay budget violated: pw1 + pw2 + beta3 = {a.relay_total!r} > p = {p!r}"
        )
    if a.pw1 > 0 and a.alpha1 == 0:
        raise InfeasibleAllocationError("pw1 > 0 requires alpha1 > 0")
    if a.pw2 > 0 and a.alpha2 == 0:
        raise InfeasibleAllocationError("pw2 > 0 requires alpha2 > 0")
    return a


class RateKernel:
    """The five rate bounds as functions of the gains: the one place their
    formulas and their derivatives are written.

    The inputs ``v = (beta1, beta2, s1, s2, f1, f2)`` are the fresh-message
    powers, the coherent couplings ``s_i = sqrt(pw_i * alpha_i)`` and the
    relay power forwarded to each receiving user, ``f1 = pw1 + beta3``
    (carrying user 1's message to user 2) and ``f2 = pw2 + beta3``;
    callers that search the relay face pass ``f1 = p - pw2`` and
    ``f2 = p - pw1``. They are all floats, evaluated with :mod:`math`, or
    all numpy arrays, evaluated elementwise.

    The attributes are the gain products the bounds are built from, and
    the only place a gain is squared. Each ``log2`` argument is affine,
    ``arg_k = c_k + A_k . v``, so ``d j_k / d v_i = A_ki / (arg_k ln 2)``.
    ``table`` holds the nonzero ``A_ki`` as ``(k, i, A_ki)`` triples, ``k``
    in 0..4 and each row in input order: the one source of derivative
    entries (the solver's Newton systems, dual recovery).
    """

    __slots__ = ("relay1", "relay2", "beam1", "beam2", "direct1", "direct2",
                 "cross1", "cross2", "base2", "base4", "table")

    def __init__(self, g: LinkGains):
        self.relay1 = g.gr1 ** 2
        self.relay2 = g.gr2 ** 2
        self.beam1 = g.g1r ** 2
        self.beam2 = g.g2r ** 2
        self.direct1 = g.g12 ** 2
        self.direct2 = g.g21 ** 2
        self.cross1 = 2.0 * g.g21 * g.g2r
        self.cross2 = 2.0 * g.g12 * g.g1r
        self.base2 = self.direct2 * g.p
        self.base4 = self.direct1 * g.p
        self.table = ((0, 0, self.relay1), (1, 2, self.cross1), (1, 4, self.beam2),
                      (2, 1, self.relay2), (3, 3, self.cross2), (3, 5, self.beam1),
                      (4, 0, self.relay1), (4, 1, self.relay2))

    def user_snrs(self, s1, s2, f1, f2):
        """Received SNR of user 1's message at user 2 and of user 2's at
        user 1: the direct link at full power, the coherent cross term and
        the forwarded relay power."""
        return (self.base2 + self.cross1 * s1 + self.beam2 * f1,
                self.base4 + self.cross2 * s2 + self.beam1 * f2)

    def log_args(self, beta1, beta2, s1, s2, f1, f2):
        """The arguments of ``log2`` in ``j1``..``j5``."""
        arg1 = self.relay1 * beta1
        arg3 = self.relay2 * beta2
        snr2, snr4 = self.user_snrs(s1, s2, f1, f2)
        return 1.0 + arg1, 1.0 + snr2, 1.0 + arg3, 1.0 + snr4, 1.0 + arg1 + arg3

    def bounds(self, beta1, beta2, s1, s2, f1, f2):
        """``(j1, j2, j3, j4, j5)`` in bits per channel use."""
        x1, x2, x3, x4, x5 = self.log_args(beta1, beta2, s1, s2, f1, f2)
        log2 = np.log2 if isinstance(x1, np.ndarray) else math.log2
        return log2(x1), log2(x2), log2(x3), log2(x4), log2(x5)


def allocation_inputs(a: PowerAllocation) -> tuple[float, float, float, float, float, float]:
    """:class:`RateKernel` inputs ``(beta1, beta2, s1, s2, f1, f2)`` of a
    valid allocation."""
    return (a.beta1, a.beta2, math.sqrt(a.pw1 * a.alpha1), math.sqrt(a.pw2 * a.alpha2),
            a.pw1 + a.beta3, a.pw2 + a.beta3)


def compute_constraints(g: LinkGains, a: PowerAllocation) -> RateConstraints:
    """Evaluate the five rate bounds for gains ``g`` and allocation ``a``.

    The user-side bounds ``j2``/``j4`` use the full budget ``p`` in their
    direct-link term regardless of the split chosen at the transmitter,
    plus the coherent cross term ``2 * g * g * sqrt(pw_i * alpha_i)`` and
    the relay's forwarded power (see :class:`RateKernel`).
    """
    validate_gains(g)
    validate_allocation(a, g.p)
    return RateConstraints(*RateKernel(g).bounds(*allocation_inputs(a)))


def pentagon_corner(j1, j2, j3, j4, j5, favor1: bool):
    """The pentagon corner favoring user 1 (``favor1``) or user 2, as
    ``(r1, r2)``: the favored user takes the most its bounds and ``j5``
    allow and the other user the rest. Floats or numpy arrays."""
    min3 = _min3_array if isinstance(j1, np.ndarray) else min
    if favor1:
        r1 = min3(j1, j2, j5)
        r2 = min3(j3, j4, j5 - r1)
    else:
        r2 = min3(j3, j4, j5)
        r1 = min3(j1, j2, j5 - r2)
    return r1, r2


def _min3_array(a, b, c):
    return np.minimum(np.minimum(a, b), c)


def best_weighted_point(c: RateConstraints, mu: float) -> RatePoint:
    """Maximizer of ``mu * r1 + (1 - mu) * r2`` over the pentagon.

    For ``mu >= 1/2`` this is the corner favoring user 1, symmetric for
    ``mu < 1/2`` (at ``mu = 1/2`` the two corners tie; the user-1 corner
    is returned). The corner is feasible for any nonnegative constraint
    tuple, including hand-built ones where ``j5 < min(j1, j2)``: the
    favored rate never exceeds ``j5``, so the other user's share
    ``j5 - r`` is nonnegative.
    """
    mu = validate_mu(mu)
    for name in ("j1", "j2", "j3", "j4", "j5"):
        check_number(name, getattr(c, name), 0.0)
    r1, r2 = pentagon_corner(*c.as_tuple(), mu >= 0.5)
    return RatePoint(r1=r1, r2=r2)
