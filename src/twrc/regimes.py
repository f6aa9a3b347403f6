"""Link-state regime classification and the technique lookup table.

The plane of squared user-to-relay gains ``(gr1**2, gr2**2)`` is split
into 3 x 5 cells. The row index compares ``gr1**2`` against the strength
of the alternative route to user 2 (direct link, then direct plus relay
forward link). The column index does the same for ``gr2**2``, except that
two of the thresholds are scaled by ``1 + gr1**2 * p``: when user 1 also
loads the relay, user 2's share of the relay's decoding capability
shrinks by exactly that factor.

Each cell maps to a pair of technique labels, one per user:

* ``DT``  - direct transmission (the relay adds nothing for this user),
* ``Ind`` - independent (binning) relaying only,
* ``BM``  - block Markov (coherent beamforming) relaying only,
* ``Both`` - block Markov plus binning.

The stored table applies to weights ``mu > 1/2`` (user 1 prioritized) and
requires the side condition ``g12**2 * (1 + gr1**2 * p) <= g12**2 + g1r**2``,
which orders the column thresholds. For ``mu < 1/2`` the table applies to
the index-swapped gains with the two users' labels exchanged.

:func:`thresholds` is the one place the cell boundaries are computed;
:func:`classify` and the closed forms' range checks in
:mod:`twrc.optimizer` read them.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .channel import LinkGains, validate_gains
from .errors import SideConditionError, ValidationError
from .rate_region import RateKernel, validate_mu

__all__ = ["TECHNIQUE_TABLE", "Regime", "SchemeAssignment", "Technique", "TechniqueDecision", "assignment_for_gains",
           "classify", "technique_lookup"]

R_LABELS = ("R1", "R2", "R3")
T_LABELS = ("T1", "T2", "T3", "T4", "T5")


class Technique(str, Enum):
    """Per-user technique labels used in the lookup table."""

    DT = "DT"
    IND = "Ind"
    BM = "BM"
    BOTH = "Both"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Regime:
    """A classification cell plus the side-condition validity flag."""

    r_index: str
    t_index: str
    side_condition_holds: bool

    @property
    def cell(self) -> tuple[str, str]:
        return (self.r_index, self.t_index)

    def to_dict(self) -> dict:
        return {
            "r": self.r_index,
            "t": self.t_index,
            "side_condition": self.side_condition_holds,
        }


@dataclass(frozen=True)
class SchemeAssignment:
    """Technique labels for the two users."""

    user1: Technique
    user2: Technique

    def swapped(self) -> "SchemeAssignment":
        return SchemeAssignment(user1=self.user2, user2=self.user1)

    def to_dict(self) -> dict:
        return {"user1": self.user1.value, "user2": self.user2.value}


@dataclass(frozen=True)
class TechniqueDecision:
    """Result of a table lookup.

    ``alternate`` carries the second orientation's assignment when the
    weight is exactly 1/2, where both pentagon corners achieve the same
    weighted sum and the table orientation is ambiguous.
    """

    assignment: SchemeAssignment
    alternate: Optional[SchemeAssignment] = None

    @property
    def ambiguous(self) -> bool:
        """True when ``alternate`` holds the second orientation (``mu = 1/2``)."""
        return self.alternate is not None


# Stored lookup table for mu in (1/2, 1]: cell -> (user 1, user 2).
TECHNIQUE_TABLE: dict[tuple[str, str], tuple[Technique, Technique]] = {
    ("R1", "T1"): (Technique.DT, Technique.DT),
    ("R1", "T2"): (Technique.DT, Technique.IND),
    ("R1", "T3"): (Technique.DT, Technique.IND),
    ("R1", "T4"): (Technique.DT, Technique.BM),
    ("R1", "T5"): (Technique.DT, Technique.BM),
    ("R2", "T1"): (Technique.IND, Technique.DT),
    ("R2", "T2"): (Technique.IND, Technique.DT),
    ("R2", "T3"): (Technique.IND, Technique.IND),
    ("R2", "T4"): (Technique.IND, Technique.IND),
    ("R2", "T5"): (Technique.IND, Technique.BM),
    ("R3", "T1"): (Technique.BM, Technique.DT),
    ("R3", "T2"): (Technique.BM, Technique.DT),
    ("R3", "T3"): (Technique.BM, Technique.IND),
    ("R3", "T4"): (Technique.BOTH, Technique.BOTH),
    ("R3", "T5"): (Technique.BOTH, Technique.BOTH),
}


def thresholds(g: LinkGains) -> tuple:
    """``(RateKernel(g), scale, r_cuts, t_cuts)`` after validating ``g``:
    ``scale = 1 + gr1**2 * p``, the upper ends of R1, R2 on ``gr1**2`` and
    the upper ends of T1..T4 on ``gr2**2``."""
    validate_gains(g)
    k = RateKernel(g)
    scale = 1.0 + k.relay1 * g.p
    return (k, scale, (k.direct2, k.direct2 + k.beam2),
            (k.direct1, k.direct1 * scale, k.direct1 + k.beam1, (k.direct1 + k.beam1) * scale))


def _label(gain: float, cuts: tuple[float, ...], labels: tuple[str, ...]) -> str:
    for cut, label in zip(cuts, labels):
        if gain <= cut:
            return label
    return labels[-1]


def classify(g: LinkGains) -> Regime:
    """Map gains to their ``(R, T)`` cell.

    Intervals are open on the left and closed on the right, with the first
    interval closed at zero, so every nonnegative pair lands in exactly
    one cell. The T thresholds are evaluated in ascending label order;
    when the side condition fails they may be unordered, in which case the
    first matching label wins and ``side_condition_holds`` is False.
    """
    kernel, _, r_cuts, t_cuts = thresholds(g)
    return Regime(r_index=_label(kernel.relay1, r_cuts, R_LABELS),
                  t_index=_label(kernel.relay2, t_cuts, T_LABELS),
                  side_condition_holds=t_cuts[1] <= t_cuts[2])


def technique_lookup(
    reg: Regime,
    mu: float,
    swapped_reg: Optional[Regime] = None,
) -> TechniqueDecision:
    """Look up the optimal techniques for a classified regime and weight.

    For ``mu < 1/2`` the stored table applies to the index-swapped gains,
    so ``swapped_reg`` (the classification of ``g.swapped()``) is required
    and the users' labels are exchanged. At ``mu = 1/2`` both orientations
    are returned, flagged ambiguous. Raises :class:`SideConditionError`
    when the relevant orientation's side condition fails; the numeric
    solver is the fallback in that case.
    """
    mu = validate_mu(mu)

    def direct_assignment(r: Regime) -> SchemeAssignment:
        if not r.side_condition_holds:
            raise SideConditionError(
                "technique table does not cover these gains "
                "(column thresholds are unordered); use the numeric solver"
            )
        user1, user2 = TECHNIQUE_TABLE[r.cell]
        return SchemeAssignment(user1=user1, user2=user2)

    def transposed_assignment(r: Optional[Regime]) -> SchemeAssignment:
        if r is None:
            raise ValidationError(
                "mu <= 1/2 requires swapped_reg, the classification "
                "of the index-swapped gains"
            )
        return direct_assignment(r).swapped()

    if mu > 0.5:
        return TechniqueDecision(assignment=direct_assignment(reg))
    if mu < 0.5:
        return TechniqueDecision(assignment=transposed_assignment(swapped_reg))
    return TechniqueDecision(
        assignment=direct_assignment(reg),
        alternate=transposed_assignment(swapped_reg),
    )


def assignment_for_gains(g: LinkGains, mu: float) -> TechniqueDecision:
    """Classify ``g`` (and its swap when needed) and look up techniques."""
    mu = validate_mu(mu)
    reg = classify(g)
    swapped_reg = classify(g.swapped()) if mu <= 0.5 else None
    return technique_lookup(reg, mu, swapped_reg)
