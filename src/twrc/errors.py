"""Exception hierarchy for the twrc package.

Every error raised by this package derives from :class:`TwrcError`, so callers
can catch one base class.  Input-validation problems additionally derive from
:class:`ValueError` so that idiomatic ``except ValueError`` blocks keep
working.
"""

import math
import operator

__all__ = ["CoincidentNodesError", "GridCapError", "InfeasibleAllocationError", "NoRootError", "SideConditionError",
           "TwrcError", "ValidationError", "WrongRegimeError"]


class TwrcError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(TwrcError, ValueError):
    """Invalid user input: bad gains, bad geometry, bad allocation, bad args."""


def check_number(name: str, value, low: float = -math.inf, high: float = math.inf,
                 low_open: bool = False) -> float:
    """``value`` as a float if it is a finite real in ``[low, high]`` (``(low, high]``
    with ``low_open``), numpy scalars included, else :class:`ValidationError` naming
    ``name``. The message is built only on failure: hot paths call this per field."""
    try:
        if math.isfinite(value) and (value > low if low_open else value >= low) and value <= high:
            return float(value)
    except TypeError:
        raise ValidationError(f"{name} must be a number, got {value!r}") from None
    except OverflowError:  # an int too large for a float
        pass
    interval = f"{'(' if low_open else '['}{low:g}, {high:g}]"
    raise ValidationError(f"{name} must be a finite number in {interval}, got {value!r}")


def check_count(name: str, value, low: int) -> int:
    """``value`` as an int if it is an integer >= ``low``; numpy integers
    pass, floats do not. Raises :class:`ValidationError` naming ``name``."""
    try:
        count = operator.index(value)
    except TypeError:
        count = None
    if count is None or count < low:
        raise ValidationError(f"{name} must be an integer >= {low}, got {value!r}")
    return count


class CoincidentNodesError(ValidationError):
    """Two network nodes were placed at the same coordinates.

    Path-loss gains diverge at zero distance, so the geometry is rejected.
    """


class InfeasibleAllocationError(ValidationError):
    """A power allocation violates a power budget or a structural constraint."""


class SideConditionError(TwrcError):
    """The ordering assumption behind the regime thresholds does not hold.

    The relay-gain thresholds used to pick a technique pair are only valid
    when the self-interference-side threshold is no larger than the combined
    direct-plus-relay one.  When that ordering fails, the lookup table does
    not apply.
    """


class WrongRegimeError(TwrcError):
    """A closed-form routine was invoked for link gains outside its regime."""


class NoRootError(TwrcError):
    """A scalar equation that a closed form relies on has no root in range."""


class GridCapError(TwrcError):
    """A brute-force grid would exceed the configured point-count cap."""
