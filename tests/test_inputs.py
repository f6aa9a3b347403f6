"""The public API's input rule: every numeric argument accepts any finite
real in its range, numpy scalars included (any integer for a count), and
raises ValidationError naming the argument otherwise. The numeric fields
of the input dataclasses are covered through a function that takes them."""

import itertools
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from twrc import (
    GAIN_FIELDS,
    Geometry,
    LinkGains,
    PowerAllocation,
    RateConstraints,
    ValidationError,
    best_weighted_point,
    capacity,
    check_full_power,
    classify,
    compute_constraints,
    gains_from_geometry,
    grid_best,
    grid_region,
    hull_contains,
    hull_exceeds,
    min_relay_power,
    regime_map,
    relay_power_profile,
    solve,
    solve_r2t5,
    technique_lookup,
    validate_allocation,
    validate_gains,
    validate_geometry,
)

from twrc.channel import GAIN_LIMIT

from helpers import R2T3_GAINS, R2T5_GAINS, R3T5_GAINS

G = R3T5_GAINS
# dyadic values, so their float32 copies stay inside the budgets
ALLOC = PowerAllocation(alpha1=0.25, beta1=0.75, alpha2=0.5, beta2=0.5, pw1=0.25, pw2=0.25, beta3=0.5)
CONS = RateConstraints(j1=1.0, j2=1.0, j3=1.0, j4=1.0, j5=1.5)
HULL = grid_region(G, step=0.5, restriction="direct")
RESULT = solve(G, 0.75)

# (name the message must contain, call taking the value, a value out of
# its range or None when every finite real is in range, a valid value)
REALS = [
    ("mu", lambda v: solve(G, v), 1.5, 0.5),
    ("mu", lambda v: solve_r2t5(R2T5_GAINS, v), 0.5, 0.75),
    ("mu", lambda v: technique_lookup(G, v), -0.25, 0.5),
    ("mu", lambda v: best_weighted_point(CONS, v), 1.5, 0.5),
    ("mu", lambda v: grid_best(G, [v], step=0.5), 1.5, 0.5),
    ("mu", lambda v: regime_map(resolution=2, mu=v), 1.5, 0.5),
    ("mu", lambda v: relay_power_profile(samples=1, mu=v), 1.5, 0.5),
    ("step", lambda v: grid_best(G, [0.5], step=v), 0.0, 0.25),
    ("step", lambda v: grid_region(G, step=v), 2.0, 0.5),
    ("slack", lambda v: hull_contains(HULL, HULL, v), -0.25, 0.0),
    ("margin", lambda v: hull_exceeds(HULL, HULL, v), -0.25, 0.0),
    ("capacity argument x", capacity, -1.0, 1.0),
    ("power budget p", lambda v: gains_from_geometry(Geometry(), v), -1.0, 1.0),
    ("power budget p", lambda v: validate_allocation(ALLOC, v), -1.0, 1.0),
    ("power budget p", lambda v: regime_map(resolution=2, p=v), -1.0, 1.0),
    ("power budget p", lambda v: relay_power_profile(samples=1, p=v), -1.0, 1.0),
    ("x bounds", lambda v: regime_map(bounds=(v, 40.0, -30.0, 30.0), resolution=2), 50.0, -20.0),
    ("x bounds", lambda v: regime_map(bounds=(-20.0, v, -30.0, 30.0), resolution=2), -30.0, 40.0),
    ("y bounds", lambda v: regime_map(bounds=(-20.0, 40.0, v, 30.0), resolution=2), 30.0, -30.0),
    ("y bounds", lambda v: regime_map(bounds=(-20.0, 40.0, -30.0, v), resolution=2), -40.0, 30.0),
    ("start", lambda v: relay_power_profile(samples=1, start=(v, 0.0)), None, 5.0),
    ("end", lambda v: relay_power_profile(samples=1, end=(15.0, v)), None, 0.0),
]
# the dataclass fields, each through a function that takes the object
REALS += [(name, lambda v, name=name: validate_gains(replace(G, **{name: v})), -1.0, 0.5)
          for name in GAIN_FIELDS + ("p",)]
REALS += [(name, lambda v, name=name: validate_geometry(replace(Geometry(), **{name: (3.0, v)})), None, 1.0)
          for name in ("user1", "user2", "relay")]
REALS += [(name, lambda v, name=name: validate_geometry(replace(Geometry(), **{name: v})), 0.0, 2.0)
          for name in ("gamma1", "gamma2")]
REALS += [(name, lambda v, name=name: validate_allocation(replace(ALLOC, **{name: v}), 1.0),
           -1.0, getattr(ALLOC, name)) for name in ALLOC.to_dict()]
REALS += [(name, lambda v, name=name: best_weighted_point(replace(CONS, **{name: v}), 0.5),
           -1.0, getattr(CONS, name)) for name in ("j1", "j2", "j3", "j4", "j5")]
# every other function that takes gains, allocations or a geometry
# validates them with the functions above
REALS += [("g12", lambda v, f=f: f(replace(R2T3_GAINS, g12=v)), -1.0, 0.25) for f in (
    classify, min_relay_power, lambda g: solve(g, 0.75),
    lambda g: technique_lookup(g, 0.75),
    lambda g: grid_best(g, [0.75], step=0.5), lambda g: grid_region(g, step=0.5),
    lambda g: compute_constraints(g, ALLOC),
    lambda g: check_full_power(g, RESULT),
)]
REALS += [("g12", lambda v: solve_r2t5(replace(R2T5_GAINS, g12=v), 0.75), -1.0, 0.25)]
REALS += [("alpha1", lambda v: compute_constraints(G, replace(ALLOC, alpha1=v)), -1.0, 0.25)]
REALS += [("gamma1", lambda v, f=f: f(replace(Geometry(), gamma1=v)), 0.0, 2.0) for f in (
    gains_from_geometry, lambda geom: regime_map(geom, resolution=2),
    lambda geom: relay_power_profile(geom, samples=1),
)]

COUNTS = [
    ("resolution", lambda v: regime_map(resolution=v), 1, 2),
    ("samples", lambda v: relay_power_profile(samples=v), 0, 1),
]

# numbers of REALS rows removed with the functions they checked (a boundary
# trace, the unreduced lattice search, the local box search and a second
# technique lookup by gains), which no row reuses
RETIRED = {3, 6, 7, 8, 13, 14, 56, 59, 61, *range(68, 75)}

NOT_REALS = ["0.5", None, 1j, math.nan, math.inf, -math.inf]
# too large for a float, yet a valid count, so tried on REALS only
HUGE_INT = 10 ** 400


def _numbered(rows):
    """``(number, row)`` for each row of ``REALS``, the number its test ids
    carry, skipping ``RETIRED`` so that no row's ids move when another
    row is removed."""
    return zip((i for i in itertools.count() if i not in RETIRED), rows)


def _rejections():
    for i, (name, call, out_of_range, _) in _numbered(REALS):
        for bad in NOT_REALS + [HUGE_INT] + ([] if out_of_range is None else [out_of_range]):
            label = "10**400" if bad is HUGE_INT else repr(bad)
            yield pytest.param(name, call, bad, id=f"{i}-{name}-{label}")
    for name, call, out_of_range, _ in COUNTS:
        for bad in NOT_REALS + [2.0, "2", out_of_range]:
            yield pytest.param(name, call, bad, id=f"{name}-{bad!r}")


def _acceptances():
    for i, (name, call, _, good) in _numbered(REALS):
        for kind in (np.float32, np.float64):
            yield pytest.param(call, kind(good), id=f"{i}-{name}-{kind.__name__}")
    for name, call, _, good in COUNTS:
        yield pytest.param(call, np.int64(good), id=f"{name}-int64")


@pytest.mark.parametrize("name, call, bad", _rejections())
def test_rejects_naming_the_argument(name, call, bad):
    with pytest.raises(ValidationError, match=re.escape(name)):
        call(bad)


@pytest.mark.parametrize("call, good", _acceptances())
def test_accepts_numpy_scalars(call, good):
    call(good)


@pytest.mark.parametrize("call, name", [
    (lambda: regime_map(bounds=(0, 1, 0)), "bounds"),
    (lambda: regime_map(bounds=None), "bounds"),
    (lambda: grid_best(G, 0.5), "mus"),
    (lambda: gains_from_geometry(Geometry(user1=(1.0,))), "user1"),
    (lambda: validate_geometry(Geometry(user1=(1.0, 0.0, 5.0))), "user1"),
    (lambda: relay_power_profile(samples=1, start=(1.0, 0.0, 0.0)), "start"),
    (lambda: relay_power_profile(samples=1, end=15.0), "end"),
    (lambda: PowerAllocation.from_dict(dict(ALLOC.to_dict(), alpha1="a")), "numbers"),
    (lambda: grid_region(G, step=0.5, restriction="bogus"), "unknown restriction"),
], ids=["bounds-3", "bounds-None", "grid_best-mus", "user1-1",
        "user1-3", "start-3", "end-scalar", "allocation-from_dict", "restriction"])
def test_shape_errors_raise_validation_error(call, name):
    with pytest.raises(ValidationError, match=name):
        call()


@pytest.mark.parametrize("gains, name", [
    (LinkGains(1e160, 0.5, 0.5, 0.5, 0.5, 0.5), "g12"),
    (LinkGains(g12=0.0, g21=0.5, g1r=0.5, gr1=1e150, g2r=0.5, gr2=0.3, p=1e10), "gr1"),
], ids=["square-overflows", "square-times-p-overflows"])
def test_gains_past_the_limit_rejected(gains, name):
    with pytest.raises(ValidationError, match=name):
        classify(gains)


@pytest.mark.parametrize("amp, p", [(1e-3, 1e-6), (1e3, 1e4), (GAIN_LIMIT, GAIN_LIMIT)])
def test_gains_up_to_the_limit_give_finite_bounds(amp, p):
    g = LinkGains(amp, amp, amp, amp, amp, amp, p=p)
    classify(g)
    cons = compute_constraints(g, PowerAllocation(p / 2, p / 2, p / 2, p / 2, p / 4, p / 4, p / 2))
    assert all(math.isfinite(v) for v in (cons.j1, cons.j2, cons.j3, cons.j4, cons.j5))
