import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twrc import (
    InfeasibleAllocationError,
    LinkGains,
    PowerAllocation,
    RateConstraints,
    ValidationError,
    best_weighted_point,
    capacity,
    compute_constraints,
)

from twrc.rate_region import ALLOCATION_FIELDS, RateKernel, pentagon_corner

from helpers import R3T5_GAINS, random_gains


class TestCapacity:
    def test_zero(self):
        assert capacity(0.0) == 0.0

    def test_log_base_two_at_one(self):
        assert capacity(1.0) == 1.0

    def test_log_base_two_at_three(self):
        assert capacity(3.0) == 2.0

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            capacity(-0.01)


def alloc(alpha1=0.0, beta1=0.0, alpha2=0.0, beta2=0.0, pw1=0.0, pw2=0.0, beta3=0.0):
    return PowerAllocation(alpha1=alpha1, beta1=beta1, alpha2=alpha2,
                           beta2=beta2, pw1=pw1, pw2=pw2, beta3=beta3)


class TestValidateAllocation:
    def test_totals(self):
        a = alloc(alpha1=0.25, beta1=0.5, alpha2=0.1, beta2=0.2,
                  pw1=0.1, pw2=0.2, beta3=0.3)
        assert a.user1_total == 0.75
        assert a.user2_total == pytest.approx(0.3)
        assert a.relay_total == pytest.approx(0.6)

    def test_user_budget_violation_names_user(self):
        with pytest.raises(InfeasibleAllocationError, match="user 1"):
            compute_constraints(R3T5_GAINS, alloc(alpha1=0.7, beta1=0.7))

    def test_relay_budget_violation(self):
        with pytest.raises(InfeasibleAllocationError, match="relay"):
            compute_constraints(
                R3T5_GAINS, alloc(alpha1=0.1, pw1=0.6, pw2=0.3, beta3=0.3)
            )

    def test_coherent_power_requires_source_component(self):
        with pytest.raises(InfeasibleAllocationError, match="pw1"):
            compute_constraints(R3T5_GAINS, alloc(pw1=0.5))

    def test_negative_field_rejected(self):
        with pytest.raises(InfeasibleAllocationError, match="beta3"):
            compute_constraints(R3T5_GAINS, alloc(beta3=-0.1))

    def test_budget_boundary_with_float_slack_accepted(self):
        a = alloc(alpha1=0.3, beta1=0.7 + 5e-10, beta2=1.0)
        cons = compute_constraints(R3T5_GAINS, a)
        assert cons.j1 >= 0.0

    def test_allocation_dict_round_trip(self):
        a = alloc(alpha1=0.25, beta1=0.5, beta2=1.0, beta3=0.1)
        assert PowerAllocation.from_dict(a.to_dict()) == a


class TestComputeConstraints:
    def test_unit_gains_reference_point(self):
        g = LinkGains(g12=1, g21=1, g1r=1, gr1=1, g2r=1, gr2=1, p=1.0)
        cons = compute_constraints(g, alloc(beta1=1.0, beta2=1.0, beta3=1.0))
        assert cons.j1 == pytest.approx(1.0, abs=1e-12)
        assert cons.j3 == pytest.approx(1.0, abs=1e-12)
        assert cons.j2 == pytest.approx(math.log2(3.0), abs=1e-12)
        assert cons.j4 == pytest.approx(math.log2(3.0), abs=1e-12)
        assert cons.j5 == pytest.approx(math.log2(3.0), abs=1e-12)

    def test_zero_power_gives_zero_rates(self):
        g = LinkGains(g12=1, g21=1, g1r=1, gr1=1, g2r=1, gr2=1, p=0.0)
        cons = compute_constraints(g, alloc())
        assert cons.as_tuple() == (0.0, 0.0, 0.0, 0.0, 0.0)

    def test_showcase_gains_bin_only_allocation(self):
        cons = compute_constraints(R3T5_GAINS, alloc(beta1=1.0, beta2=1.0, beta3=1.0))
        assert cons.j1 == pytest.approx(1.0, abs=1e-12)
        assert cons.j3 == pytest.approx(1.0, abs=1e-12)
        assert cons.j5 == pytest.approx(math.log2(3.0), abs=1e-12)
        assert cons.j2 == pytest.approx(math.log2(1.5525), abs=1e-12)
        assert cons.j4 == pytest.approx(math.log2(1.3125), abs=1e-12)
        assert cons.j2 == pytest.approx(0.6345933, abs=5e-7)
        assert cons.j4 == pytest.approx(0.39232, abs=5e-6)

    def test_direct_term_uses_full_budget_not_split(self):
        # the user-side bounds keep g21^2 * p even when beta1 < p
        g = LinkGains(g12=0.5, g21=0.5, g1r=0.0, gr1=1.0, g2r=0.0, gr2=1.0, p=2.0)
        lo = compute_constraints(g, alloc(alpha1=1.5, beta1=0.5, beta2=2.0))
        hi = compute_constraints(g, alloc(alpha1=0.0, beta1=2.0, beta2=2.0))
        assert lo.j2 == hi.j2 == pytest.approx(math.log2(1.5))

    def test_reparameterized_cross_term_matches_scaling_factor_form(self):
        # pw1 = k1 * alpha1 reproduces 2*g21*g2r*sqrt(k1)*alpha1
        rng = random.Random(5)
        for _ in range(20):
            g = random_gains(rng)
            k1 = rng.uniform(0.0, 4.0)
            a1 = rng.uniform(0.0, g.p / 2)
            pw1 = k1 * a1
            if pw1 + 1e-12 > g.p:
                continue
            a = alloc(alpha1=a1, beta1=g.p - a1, beta2=g.p, pw1=pw1)
            cons = compute_constraints(g, a)
            direct = (g.g21 ** 2 * g.p
                      + 2.0 * g.g21 * g.g2r * math.sqrt(k1) * a1
                      + g.g2r ** 2 * pw1)
            assert cons.j2 == pytest.approx(math.log2(1.0 + direct), rel=1e-12)


class TestBestWeightedPoint:
    def test_rectangle_when_sum_constraint_slack(self):
        c = RateConstraints(j1=1, j2=2, j3=1, j4=2, j5=3)
        pt = best_weighted_point(c, 0.7)
        assert (pt.r1, pt.r2) == (1.0, 1.0)

    def test_pentagon_corner_favoring_user1(self):
        c = RateConstraints(j1=1, j2=2, j3=1, j4=2, j5=1.5)
        pt = best_weighted_point(c, 0.7)
        assert (pt.r1, pt.r2) == (1.0, 0.5)

    def test_pentagon_corner_favoring_user2(self):
        c = RateConstraints(j1=1, j2=2, j3=1, j4=2, j5=1.5)
        pt = best_weighted_point(c, 0.3)
        assert (pt.r1, pt.r2) == (0.5, 1.0)

    def test_degenerate_sum_constraint_clamps_to_zero(self):
        c = RateConstraints(j1=2, j2=2, j3=1, j4=1, j5=1.0)
        pt = best_weighted_point(c, 0.9)
        assert (pt.r1, pt.r2) == (1.0, 0.0)

    def test_rejects_mu_out_of_range(self):
        c = RateConstraints(j1=1, j2=1, j3=1, j4=1, j5=1)
        with pytest.raises(ValidationError):
            best_weighted_point(c, 1.5)

    def test_rejects_negative_constraint(self):
        c = RateConstraints(j1=-0.1, j2=1, j3=1, j4=1, j5=1)
        with pytest.raises(ValidationError):
            best_weighted_point(c, 0.5)

    def test_weighted_sum_helper(self):
        pt = best_weighted_point(RateConstraints(1, 2, 1, 2, 3), 0.25)
        assert pt.weighted_sum(0.25) == pytest.approx(0.25 * pt.r1 + 0.75 * pt.r2)


nonneg = st.floats(min_value=0.0, max_value=4.0, allow_nan=False)


@given(j1=nonneg, j2=nonneg, j3=nonneg, j4=nonneg, j5=nonneg,
       mu=st.floats(min_value=0.0, max_value=1.0))
def test_corner_is_feasible_and_beats_other_corner(j1, j2, j3, j4, j5, mu):
    c = RateConstraints(j1=j1, j2=j2, j3=j3, j4=j4, j5=j5)
    pt = best_weighted_point(c, mu)
    assert 0.0 <= pt.r1 <= min(j1, j2) + 1e-12
    assert 0.0 <= pt.r2 <= min(j3, j4) + 1e-12
    assert pt.r1 + pt.r2 <= j5 + 1e-12
    other = best_weighted_point(c, 1.0 - mu)
    assert pt.weighted_sum(mu) >= other.weighted_sum(mu) - 1e-12


@given(seed=st.integers(min_value=0, max_value=10 ** 6),
       bump=st.floats(min_value=1e-3, max_value=0.5))
def test_constraints_monotone_in_fresh_and_bin_powers(seed, bump):
    rng = random.Random(seed)
    g = random_gains(rng)
    beta1 = rng.uniform(0.0, g.p * 0.6)
    beta2 = rng.uniform(0.0, g.p * 0.6)
    beta3 = rng.uniform(0.0, g.p * 0.6)
    base = compute_constraints(g, alloc(beta1=beta1, beta2=beta2, beta3=beta3))
    up1 = compute_constraints(g, alloc(beta1=beta1 + bump * g.p * 0.3,
                                       beta2=beta2, beta3=beta3))
    assert up1.j1 >= base.j1 and up1.j5 >= base.j5
    up3 = compute_constraints(g, alloc(beta1=beta1, beta2=beta2,
                                       beta3=beta3 + bump * g.p * 0.3))
    assert up3.j2 >= base.j2 and up3.j4 >= base.j4


@given(seed=st.integers(min_value=0, max_value=10 ** 6))
def test_relay_constraints_never_exceed_sum_constraint(seed):
    rng = random.Random(seed)
    g = random_gains(rng)
    beta1 = rng.uniform(0.0, g.p)
    beta2 = rng.uniform(0.0, g.p)
    cons = compute_constraints(g, alloc(beta1=beta1, beta2=beta2))
    assert cons.j1 <= cons.j5 + 1e-12
    assert cons.j3 <= cons.j5 + 1e-12


def random_allocation(rng: random.Random, p: float) -> PowerAllocation:
    """A feasible allocation with some components at exactly zero."""
    def part(total):
        return 0.0 if rng.random() < 0.2 else rng.uniform(0.0, total)

    alpha1, alpha2 = part(p), part(p)
    q1 = part(p) if alpha1 > 0.0 else 0.0
    q2 = part(p - q1) if alpha2 > 0.0 else 0.0
    return PowerAllocation(alpha1=alpha1, beta1=part(p - alpha1), alpha2=alpha2,
                           beta2=part(p - alpha2), pw1=q1, pw2=q2, beta3=part(p - q1 - q2))


@given(seed=st.integers(min_value=0, max_value=10 ** 6))
def test_kernel_array_path_matches_scalar_path(seed):
    rng = random.Random(seed)
    g = random_gains(rng)
    allocs = [random_allocation(rng, g.p) for _ in range(16)]
    cols = {name: np.array([getattr(a, name) for a in allocs]) for name in ALLOCATION_FIELDS}
    bounds = RateKernel(g).bounds(
        cols["beta1"], cols["beta2"],
        np.sqrt(cols["pw1"] * cols["alpha1"]), np.sqrt(cols["pw2"] * cols["alpha2"]),
        cols["pw1"] + cols["beta3"], cols["pw2"] + cols["beta3"])
    # numpy's log2 and math.log2 may round differently in the last bit
    close = dict(rel=1e-15, abs=1e-15)
    for favor1, mu in ((True, 0.75), (False, 0.25)):
        r1, r2 = pentagon_corner(*bounds, favor1)
        for i, a in enumerate(allocs):
            cons = compute_constraints(g, a)
            assert [j[i] for j in bounds] == pytest.approx(cons.as_tuple(), **close)
            pt = best_weighted_point(cons, mu)
            assert [r1[i], r2[i]] == pytest.approx([pt.r1, pt.r2], **close)


# amplitudes 1e-3..1e3 or exactly zero, and fractions that are exactly 0
# or 1 on some draws; most draws stay generic, where a reordered addition
# changes the last bit
face_amplitude = st.floats(min_value=-3.5, max_value=3.0).map(lambda e: 0.0 if e < -3.0 else 10.0 ** e)
fraction = st.floats(min_value=-0.2, max_value=1.2).map(lambda v: min(max(v, 0.0), 1.0))


@settings(max_examples=500)
@given(
    amps=st.lists(face_amplitude, min_size=6, max_size=6),
    log_p=st.floats(min_value=-6.0, max_value=4.0),
    u=st.lists(fraction, min_size=4, max_size=4),
    mu=st.sampled_from((0.0, 0.25, 0.5, 0.75, 1.0)),
    tie_bonus=st.sampled_from((0.0, 1e-10)),
)
def test_face_objective_is_bit_identical_to_kernel_and_corner(amps, log_p, u, mu, tie_bonus):
    p = 10.0 ** log_p
    g = LinkGains(g12=amps[0], g21=amps[1], g1r=amps[2], gr1=amps[3], g2r=amps[4], gr2=amps[5], p=p)
    # a point of the box x relay simplex; zero fractions reach the faces
    # alpha_i = 0, pw_i = 0 and both, fractions of 1 the far corners
    a1, a2 = u[0] * p, u[1] * p
    q1 = u[2] * p
    q2 = u[3] * (p - q1)
    kernel = RateKernel(g)
    j = kernel.bounds(p - a1, p - a2, math.sqrt(q1 * a1), math.sqrt(q2 * a2), p - q2, p - q1)
    r1, r2 = pentagon_corner(*j, mu >= 0.5)
    want = mu * r1 + (1.0 - mu) * r2 + tie_bonus * (r1 + r2)
    assert kernel.face_objective(p, mu, tie_bonus)(a1, a2, q1, q2) == want
