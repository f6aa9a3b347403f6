"""Link gains and path-loss geometry for the full-duplex two-way relay channel.

The network has three nodes: user 1, user 2, and a relay. Six amplitude
gains describe the links between them, using receiver-first subscripts:
``g12`` is the gain of the link into user 1 from user 2, ``gr1`` the gain
into the relay from user 1, and so on. The common transmit power budget
``p`` applies to every node.

Gains can either be given directly or derived from node coordinates with
the path-loss law ``g = 1 / d**(gamma / 2)``. The two path-loss exponents
model an FDD split: the three links that carry user 1's message
(``gr1``, ``g2r``, ``g21``) use ``gamma1``, and the three links that carry
user 2's message (``g1r``, ``gr2``, ``g12``) use ``gamma2``.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

from .errors import CoincidentNodesError, ValidationError, check_number

__all__ = ["GAIN_FIELDS", "Geometry", "LinkGains", "gains_from_geometry", "validate_gains", "validate_geometry"]

GAIN_FIELDS = ("g12", "g21", "g1r", "gr1", "g2r", "gr2")
# largest amplitude or power budget accepted: the largest product the
# package forms, the (R2,T5) closed form's ``b * b``, is about
# ``4 * g**8 * p**3``, which stays finite up to this limit on each
GAIN_LIMIT = 1e20
_GAIN_LABELS = tuple((name, f"gain {name}") for name in GAIN_FIELDS) + (("p", "power budget p"),)


@dataclass(frozen=True)
class LinkGains:
    """Amplitude gains of the six links plus the per-node power budget.

    All values are dimensionless amplitudes; the rate formulas square
    them. Values must be finite, nonnegative (zero is allowed, e.g.
    ``g12 = g21 = 0`` models the multi-hop channel without direct links)
    and at most ``GAIN_LIMIT = 1e20``, so that every product of gains and
    budgets the package forms stays finite.
    """

    g12: float
    g21: float
    g1r: float
    gr1: float
    g2r: float
    gr2: float
    p: float = 1.0

    def swapped(self) -> "LinkGains":
        """Return the gains with the two user indices exchanged."""
        return LinkGains(
            g12=self.g21,
            g21=self.g12,
            g1r=self.g2r,
            g2r=self.g1r,
            gr1=self.gr2,
            gr2=self.gr1,
            p=self.p,
        )

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "LinkGains":
        """The six amplitudes and ``p``, which defaults to 1 when absent."""
        values = numbers_from_dict("gains", {"p": cls.p, **data}, GAIN_FIELDS + ("p",))
        return validate_gains(cls(**values))


def numbers_from_dict(what: str, data: dict, keys: tuple[str, ...]) -> dict:
    """``data[k]`` as a float for each key of a parsed JSON object, or
    :class:`ValidationError` naming the missing or unknown keys or a value
    that is not a JSON number."""
    missing = [k for k in keys if k not in data]
    if missing:
        raise ValidationError(f"{what} object is missing keys: {', '.join(missing)}")
    _check_known_keys(what, data, keys)
    return {k: _json_number(what, k, data[k]) for k in keys}


def _json_number(what: str, key: str, value) -> float:
    """``value`` as a float if it is a JSON number, an int or a float; a
    string or a boolean is refused. An int too large for a float reads as
    infinity, which the range checks then refuse."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{what} values must be numbers: {key} is {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.inf


def _check_known_keys(what: str, data: dict, keys: tuple[str, ...]) -> None:
    """:class:`ValidationError` naming the keys of ``data`` outside ``keys``,
    so a mistyped key is refused instead of silently dropped."""
    unknown = [str(k) for k in data if k not in keys]
    if unknown:
        raise ValidationError(f"{what} object has unknown keys: {', '.join(unknown)}")


def validate_gains(g: LinkGains) -> LinkGains:
    """Check that every gain and the power budget is a finite number in
    ``[0, GAIN_LIMIT]``.

    Returns the input unchanged when valid so calls can be chained.
    Raises :class:`ValidationError` naming the offending field otherwise.
    """
    for name, label in _GAIN_LABELS:
        check_number(label, getattr(g, name), 0.0, GAIN_LIMIT)
    return g


@dataclass(frozen=True)
class Geometry:
    """2-D node positions in meters plus the two FDD path-loss exponents."""

    user1: tuple[float, float] = (0.0, 0.0)
    user2: tuple[float, float] = (20.0, 0.0)
    relay: tuple[float, float] = (10.0, 0.0)
    gamma1: float = 2.3
    gamma2: float = 3.6

    def with_relay(self, position: tuple[float, float]) -> "Geometry":
        return replace(self, relay=(float(position[0]), float(position[1])))

    def to_dict(self) -> dict:
        return {
            "user1": list(self.user1),
            "user2": list(self.user2),
            "relay": list(self.relay),
            "gamma1": self.gamma1,
            "gamma2": self.gamma2,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Geometry":
        _check_known_keys("geometry", data, ("user1", "user2", "relay", "gamma1", "gamma2"))
        kwargs = {}
        for key, value in data.items():
            if key in ("gamma1", "gamma2"):
                kwargs[key] = _json_number("geometry", key, value)
            elif isinstance(value, (list, tuple)) and len(value) == 2:
                kwargs[key] = tuple(_json_number("geometry", key, v) for v in value)
            else:
                raise ValidationError(f"geometry {key} must be an [x, y] pair")
        return validate_geometry(cls(**kwargs))


def validate_geometry(geom: Geometry) -> Geometry:
    """Check positions are (x, y) pairs of finite numbers and exponents positive."""
    for name in ("user1", "user2", "relay"):
        check_point(name, getattr(geom, name))
    for name in ("gamma1", "gamma2"):
        check_number(name, getattr(geom, name), 0.0, low_open=True)
    return geom


def check_point(name: str, point) -> tuple[float, float]:
    """``point`` as two floats if it is an (x, y) pair of finite numbers, else
    :class:`ValidationError` naming ``name``."""
    try:
        x, y = point
    except (TypeError, ValueError):
        raise ValidationError(f"{name} must be an (x, y) pair, got {point!r}") from None
    return check_number(name, x), check_number(name, y)


def _path_loss(distance: float, gamma: float) -> float:
    try:
        return distance ** (-gamma / 2.0)
    except OverflowError:
        return math.inf


def gains_from_geometry(geom: Geometry, p: float = 1.0) -> LinkGains:
    """Derive link gains from node positions via ``g = 1 / d**(gamma/2)``.

    ``gamma1`` applies to the links carrying user 1's message (``gr1``,
    ``g2r``, ``g21``) and ``gamma2`` to the links carrying user 2's message
    (``g1r``, ``gr2``, ``g12``). Forward and reverse links between the same
    node pair share a distance but use different exponents.

    Raises :class:`CoincidentNodesError` when any two nodes coincide, since
    the path-loss law diverges at zero distance, or are so close that a
    gain would exceed ``GAIN_LIMIT``.
    """
    validate_geometry(geom)
    check_number("power budget p", p, 0.0, GAIN_LIMIT)
    distances = []
    for name_a, name_b in (("user1", "user2"), ("user1", "relay"), ("user2", "relay")):
        pos_a, pos_b = getattr(geom, name_a), getattr(geom, name_b)
        dist = math.hypot(pos_a[0] - pos_b[0], pos_a[1] - pos_b[1])
        if dist == 0.0:
            raise CoincidentNodesError(f"nodes {name_a} and {name_b} coincide at {tuple(pos_a)}")
        if _path_loss(dist, max(geom.gamma1, geom.gamma2)) > GAIN_LIMIT:
            raise CoincidentNodesError(
                f"nodes {name_a} and {name_b} are {dist!r} apart, so close that a gain "
                f"would exceed {GAIN_LIMIT:g}")
        distances.append(dist)
    d12, d1r, d2r = distances
    return LinkGains(
        gr1=_path_loss(d1r, geom.gamma1),
        g2r=_path_loss(d2r, geom.gamma1),
        g21=_path_loss(d12, geom.gamma1),
        g1r=_path_loss(d1r, geom.gamma2),
        gr2=_path_loss(d2r, geom.gamma2),
        g12=_path_loss(d12, geom.gamma2),
        p=p,
    )
