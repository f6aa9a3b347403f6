import ast
import math
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twrc import (
    GAIN_FIELDS,
    InfeasibleAllocationError,
    LinkGains,
    PowerAllocation,
    RateConstraints,
    ValidationError,
    best_weighted_point,
    capacity,
    compute_constraints,
)

from twrc import rate_region
from twrc.rate_region import ALLOCATION_FIELDS, RateKernel, pentagon_corner, validate_mu

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
        with pytest.raises(InfeasibleAllocationError, match="user 2"):
            compute_constraints(R3T5_GAINS, alloc(alpha2=0.7, beta2=0.7))

    def test_relay_budget_violation(self):
        with pytest.raises(InfeasibleAllocationError, match="relay"):
            compute_constraints(
                R3T5_GAINS, alloc(alpha1=0.1, pw1=0.6, pw2=0.3, beta3=0.3)
            )

    def test_coherent_power_requires_source_component(self):
        with pytest.raises(InfeasibleAllocationError, match="pw1"):
            compute_constraints(R3T5_GAINS, alloc(pw1=0.5))
        with pytest.raises(InfeasibleAllocationError, match="pw2"):
            compute_constraints(R3T5_GAINS, alloc(alpha1=0.5, pw1=0.25, pw2=0.5))

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

    def test_allocation_from_dict_refuses_unknown_keys(self):
        data = dict(alloc(alpha1=0.25, beta1=0.5, beta2=1.0).to_dict(), beta4=0.1)
        with pytest.raises(ValidationError, match="unknown keys: beta4"):
            PowerAllocation.from_dict(data)

    @pytest.mark.parametrize("bad", ["0.25", True])
    def test_allocation_from_dict_accepts_only_json_numbers(self, bad):
        data = dict(alloc(alpha1=0.25, beta1=0.5, beta2=1.0).to_dict(), beta3=bad)
        with pytest.raises(ValidationError, match="values must be numbers: beta3"):
            PowerAllocation.from_dict(data)


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

    @pytest.mark.parametrize("mu", [None, "0.5", math.nan])
    def test_rejects_mu_that_is_not_a_finite_number(self, mu):
        c = RateConstraints(j1=1, j2=1, j3=1, j4=1, j5=1)
        with pytest.raises(ValidationError, match="mu"):
            best_weighted_point(c, mu)

    def test_validate_mu_returns_a_float(self):
        assert validate_mu(1) == 1.0 and isinstance(validate_mu(1), float)
        assert validate_mu(0.25) == 0.25

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
# or 1 on some draws; most draws stay generic
face_amplitude = st.floats(min_value=-3.5, max_value=3.0).map(lambda e: 0.0 if e < -3.0 else 10.0 ** e)
fraction = st.floats(min_value=-0.2, max_value=1.2).map(lambda v: min(max(v, 0.0), 1.0))


@settings(max_examples=300)
@given(
    amps=st.lists(face_amplitude, min_size=6, max_size=6),
    log_p=st.floats(min_value=-6.0, max_value=4.0),
    u=st.lists(fraction, min_size=6, max_size=6),
)
def test_table_is_the_affine_part_of_the_bounds(amps, log_p, u):
    """``log_args(v) - log_args(0) == A . v`` with ``A`` built from
    ``RateKernel.table``, and each ``A_ki / (arg_k ln 2)`` matches a
    central difference of ``j_k = log2(arg_k)``, as :meth:`bounds` takes
    it; an ``arg_k`` with ``A_ki == 0`` does not move with ``v_i``."""
    p = 10.0 ** log_p
    kernel = RateKernel(LinkGains(*amps, p=p))
    assert list(kernel.table) == sorted(kernel.table, key=lambda entry: entry[:2])
    slope = [[0.0] * 6 for _ in range(5)]
    for k, i, coef in kernel.table:
        slope[k][i] += coef
    v = [x * p for x in u]
    args = kernel.log_args(*v)
    zero = kernel.log_args(*[0.0] * 6)
    for k in range(5):
        affine = sum(slope[k][i] * v[i] for i in range(6))
        assert args[k] - zero[k] == pytest.approx(affine, rel=1e-12, abs=1e-12 * args[k])
        for i in range(6):
            # a step that moves arg_k by 1e-4 of itself each way; the other
            # arguments may turn negative, so only arg_k goes through log2
            h = 1e-4 * args[k] / slope[k][i] if slope[k][i] > 0.0 else 1.0
            plus = kernel.log_args(*(x + h * (n == i) for n, x in enumerate(v)))[k]
            minus = kernel.log_args(*(x - h * (n == i) for n, x in enumerate(v)))[k]
            if slope[k][i] > 0.0:
                want = slope[k][i] / (args[k] * math.log(2.0))
                central = (math.log2(plus) - math.log2(minus)) / (2.0 * h)
                assert central == pytest.approx(want, rel=1e-6)
            else:
                assert plus == minus == args[k]


def test_only_the_rate_kernel_squares_a_gain():
    """Every ``<name>.<gain> ** 2`` in the package sits in
    ``RateKernel.__init__``; the regime thresholds, the closed forms and
    the oracle read the kernel's squared gains instead of writing their own."""
    package = Path(rate_region.__file__).parent
    outside = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name == "RateKernel":
                init = next(f for f in node.body if isinstance(f, ast.FunctionDef) and f.name == "__init__")
                allowed = {id(n) for n in ast.walk(init)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
                    and isinstance(node.left, ast.Attribute) and node.left.attr in GAIN_FIELDS
                    and isinstance(node.right, ast.Constant) and node.right.value == 2
                    and id(node) not in allowed):
                outside.append(f"{path.name}:{node.lineno}")
    assert not outside, outside
