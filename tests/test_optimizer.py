import ast
import logging
import math
import random
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from twrc import (
    LinkGains,
    NoRootError,
    ValidationError,
    WrongRegimeError,
    best_weighted_point,
    check_full_power,
    classify,
    compute_constraints,
    grid_best,
    min_relay_power,
    solve,
    solve_r2t5,
    validate_allocation,
)
from twrc import optimizer, regimes
from twrc.rate_region import RateKernel

from helpers import (
    R2T3_GAINS,
    R2T5_GAINS,
    R3T5_GAINS,
    random_gains,
    sample_cell,
)
import solver_corpus
from solver_corpus import solve_stats


class TestSolveBasics:
    def test_zero_budget_gives_zero_everything(self):
        g = LinkGains(g12=0.5, g21=0.5, g1r=0.5, gr1=0.5, g2r=0.5, gr2=0.5, p=0.0)
        res = solve(g, 0.7)
        assert res.rates.r1 == 0.0 and res.rates.r2 == 0.0
        assert res.allocation.relay_total == 0.0
        assert res.method == "trivial"

    def test_unreachable_relay_degenerates_to_direct_labels(self):
        g = LinkGains(g12=0.5, g21=0.4, g1r=0.6, gr1=0.0, g2r=0.7, gr2=0.0, p=1.0)
        res = solve(g, 0.6)
        a = res.allocation
        assert (a.alpha1, a.alpha2) == (0.0, 0.0)
        assert (a.beta1, a.beta2) == (g.p, g.p)
        assert (a.pw1, a.pw2, a.beta3) == (0.0, 0.0, 0.0)
        assert res.rates.r1 == 0.0 and res.rates.r2 == 0.0
        assert res.assignment.user1.value == "DT"
        assert res.assignment.user2.value == "DT"

    def test_rejects_mu_out_of_range(self):
        with pytest.raises(ValidationError):
            solve(R3T5_GAINS, 1.2)

    def test_weighted_sum_consistent_with_rates(self):
        res = solve(R3T5_GAINS, 0.75)
        assert res.weighted_sum == pytest.approx(
            0.75 * res.rates.r1 + 0.25 * res.rates.r2, abs=1e-15
        )

    def test_output_allocation_is_feasible(self):
        res = solve(R3T5_GAINS, 0.75)
        validate_allocation(res.allocation, R3T5_GAINS.p)
        cons = compute_constraints(R3T5_GAINS, res.allocation)
        assert res.rates.r1 <= min(cons.j1, cons.j2) + 1e-9
        assert res.rates.r2 <= min(cons.j3, cons.j4) + 1e-9
        assert res.rates.r1 + res.rates.r2 <= cons.j5 + 1e-9

    def test_showcase_gains_composite_for_both_users(self):
        res = solve(R3T5_GAINS, 0.75)
        assert res.assignment.user1.value == "Both"
        assert res.assignment.user2.value == "Both"
        assert abs(res.allocation.relay_total - 1.0) <= 1e-8
        assert check_full_power(R3T5_GAINS, res)

    def test_equal_weights_report_both_corners(self):
        # strong forwarding links keep j2/j4 slack, so the sum constraint
        # binds strictly between two distinct pentagon corners
        g = LinkGains(g12=2.0, g21=2.0, g1r=2.0, gr1=1.0, g2r=2.0, gr2=1.0, p=1.0)
        res = solve(g, 0.5)
        assert res.ambiguous
        assert res.alternate_rates is not None
        # reported corner favors user 1; the alternate favors user 2
        assert res.rates.r1 >= res.alternate_rates.r1
        assert res.rates.r2 <= res.alternate_rates.r2
        both = (res.rates.weighted_sum(0.5), res.alternate_rates.weighted_sum(0.5))
        assert both[0] == pytest.approx(both[1], abs=1e-6)

    def test_equal_weights_keep_the_bin_power_of_both_corners(self):
        # draw 11 of random_gains(Random(3)): no coherent power, and the
        # user-2 corner needs more bin power than the user-1 corner
        g = LinkGains(g12=0.05901561950982189, g21=0.7078720249901279, g1r=0.169503394798807,
                      gr1=1.2889413407669703, g2r=1.8621185069997872, gr2=0.32261441143743913,
                      p=1.9977634180636648)
        res = solve(g, 0.5)
        assert res.allocation.pw1 + res.allocation.pw2 == 0.0
        assert res.ambiguous
        assert res.rates.r1 == pytest.approx(2.110705, abs=1e-6)
        assert res.alternate_rates.r1 == pytest.approx(2.088558, abs=1e-6)
        assert res.alternate_rates.r2 == pytest.approx(0.089981, abs=1e-6)
        assert res.alternate_rates == best_weighted_point(compute_constraints(g, res.allocation), 0.0)

    def test_equal_weights_without_a_corner_tie(self):
        # the numeric optimum for these gains equalizes the corners, so
        # no alternate is reported
        res = solve(R3T5_GAINS, 0.5)
        assert not res.ambiguous
        assert res.alternate_rates is None


class TestClosedFormR2T5:
    def test_documented_instance_allocation(self):
        res = solve_r2t5(R2T5_GAINS, 0.75)
        a = res.allocation
        assert a.alpha1 == 0.0
        assert a.beta1 == 1.0
        expected_beta3 = min(
            (R2T5_GAINS.gr1 ** 2 - R2T5_GAINS.g21 ** 2)
            * R2T5_GAINS.p / R2T5_GAINS.g2r ** 2,
            R2T5_GAINS.p,
        )
        assert a.beta3 == expected_beta3
        assert a.beta3 == pytest.approx(0.64, abs=1e-12)
        assert a.pw2 == pytest.approx(0.36, abs=1e-12)
        # frozen from an independent fine-grid search around the optimum
        assert a.alpha2 == pytest.approx(0.21554783906818983, abs=1e-9)

    def test_documented_instance_rate_identity(self):
        res = solve_r2t5(R2T5_GAINS, 0.75)
        cons = compute_constraints(R2T5_GAINS, res.allocation)
        assert abs(cons.j4 - (cons.j5 - cons.j1)) <= 1e-9
        assert res.rates.r1 == pytest.approx(cons.j1, abs=1e-12)
        assert res.rates.r2 == pytest.approx(cons.j4, abs=1e-9)

    def test_documented_instance_labels(self):
        res = solve_r2t5(R2T5_GAINS, 0.75)
        assert res.assignment.user1.value == "Ind"
        assert res.assignment.user2.value == "BM"

    def test_documented_instance_matches_numeric_solver(self):
        cf = solve_r2t5(R2T5_GAINS, 0.75)
        num = solve(R2T5_GAINS, 0.75)
        assert num.weighted_sum == pytest.approx(cf.weighted_sum, abs=1e-9)

    def test_boundary_instance_uses_whole_relay_budget_for_binning(self):
        g = LinkGains(g21=0.2, g2r=0.5, gr1=math.sqrt(0.29),
                      g12=0.2, g1r=0.3, gr2=0.5, p=1.0)
        assert classify(g).cell == ("R2", "T5")
        res = solve_r2t5(g, 0.75)
        assert res.allocation.beta3 == pytest.approx(g.p, abs=1e-12)
        assert res.allocation.pw2 <= 1e-12

    def test_no_root_when_forward_links_dominate(self):
        # gains where gr2^2 stays below (g12^2 + g1r^2) * (1 + gr1^2 p)
        with pytest.raises(NoRootError, match="gr2"):
            solve_r2t5(R2T3_GAINS, 0.75)

    def test_wrong_regime_names_actual_cell(self):
        with pytest.raises(WrongRegimeError, match=r"\(R3,T5\)"):
            solve_r2t5(R3T5_GAINS, 0.75)

    def test_requires_user1_priority_weight(self):
        with pytest.raises(ValidationError, match="mu"):
            solve_r2t5(R2T5_GAINS, 0.5)

    def test_construction_is_feasible_across_the_cell(self):
        rng = random.Random(23)
        for _ in range(20):
            g = sample_cell(rng, "R2", "T5")
            res = solve_r2t5(g, 0.75)
            validate_allocation(res.allocation, g.p)
            cons = compute_constraints(g, res.allocation)
            assert abs(cons.j4 - (cons.j5 - cons.j1)) <= 1e-9 * (1.0 + cons.j5)
            assert res.allocation.alpha1 < 1e-8


class TestMinRelayPower:
    def test_documented_instance(self):
        value = min_relay_power(R2T3_GAINS)
        assert value == pytest.approx(0.42715596330275235, rel=1e-12)
        # first argument dominates here: (0.16 - 0.04*1.09) / (0.25*1.09)
        assert value == pytest.approx(0.1164 / 0.2725, rel=1e-12)

    def test_documented_variant_second_term_dominates(self):
        g = LinkGains(g21=0.2, g2r=0.5, gr1=0.3, g12=0.2, g1r=0.5,
                      gr2=math.sqrt(0.05), p=1.0)
        assert min_relay_power(g) == pytest.approx(0.2, rel=1e-12)

    def test_zero_at_lower_regime_corner(self):
        # gr2^2 = g12^2 * (1 + gr1^2 p) and gr1^2 = g21^2 at the corner
        # (nudged up one ulp so float rounding cannot leave the cell)
        gr1 = 0.25
        scale = 1.0 + gr1 ** 2
        gr2 = math.nextafter(math.sqrt(0.0625 * scale), 2.0)
        g = LinkGains(g21=0.25, g2r=0.5, gr1=gr1, g12=0.25, g1r=0.5,
                      gr2=gr2, p=1.0)
        assert min_relay_power(g) <= 1e-12

    def test_wrong_regime_names_actual_cell(self):
        with pytest.raises(WrongRegimeError, match=r"\(R3,T5\)"):
            min_relay_power(R3T5_GAINS)

    def test_solver_reports_the_same_bin_power(self):
        # solve has no shortcut: its one numeric path must land on the
        # paper's closed form, both users independent at min_relay_power
        rng = random.Random(29)
        for t_idx in ("T3", "T4"):
            for margin in (0.05, 1e-6):
                for _ in range(10):
                    g = sample_cell(rng, "R2", t_idx, margin)
                    expected = min_relay_power(g)
                    for mu in (0.6, 0.75, 1.0):
                        res = solve(g, mu)
                        a = res.allocation
                        assert a.alpha1 == a.alpha2 == a.pw1 == a.pw2 == 0.0
                        assert a.beta3 == pytest.approx(expected, rel=1e-9)
                        assert (res.assignment.user1.value, res.assignment.user2.value) == ("Ind", "Ind")


_DECADES = st.floats(min_value=-3.0, max_value=3.0).map(lambda e: 10.0 ** e)
_EDGE_OR_INSIDE = st.sampled_from((0.0, 1.0)) | st.floats(min_value=0.0, max_value=1.0)


def _ulps(x: float, steps: int) -> float:
    for _ in range(abs(steps)):
        x = math.nextafter(x, math.inf if steps > 0 else 0.0)
    return x


@settings(max_examples=300)
@given(g21=_DECADES, g2r=_DECADES, g12=_DECADES,
       p=st.floats(min_value=-6.0, max_value=4.0).map(lambda e: 10.0 ** e),
       u=_EDGE_OR_INSIDE, v=_EDGE_OR_INSIDE,
       w=st.sampled_from((0.0,)) | st.floats(min_value=0.0, max_value=10.0),
       t4=st.booleans(), nudge1=st.integers(-2, 2), nudge2=st.integers(-2, 2))
def test_min_relay_power_covers_every_gain_set_solve_hands_it(
        g21, g2r, g12, p, u, v, w, t4, nudge1, nudge2):
    # the CLI's closed_form_beta3, null only outside (R2,T3)/(R2,T4), relies
    # on this: whatever classify puts there with the side condition,
    # min_relay_power accepts.
    # u, v in {0, 1} and w = 0 put the relay gains and g1r on a cell
    # threshold or on the side condition's equality, and the nudges step a
    # few ulps either way.
    direct2, beam2, direct1 = g21 ** 2, g2r ** 2, g12 ** 2
    relay1 = direct2 + u * beam2
    scale = 1.0 + relay1 * p
    beam1 = direct1 * (scale - 1.0) * (1.0 + w)
    lo, hi = ((direct1 + beam1, (direct1 + beam1) * scale) if t4
              else (direct1 * scale, direct1 + beam1))
    relay2 = lo + v * (hi - lo)
    g = LinkGains(g12=g12, g21=g21, g1r=math.sqrt(beam1), gr1=_ulps(math.sqrt(relay1), nudge1),
                  g2r=g2r, gr2=_ulps(math.sqrt(relay2), nudge2), p=p)
    reg = classify(g)
    assume(reg.side_condition_holds and reg.cell in (("R2", "T3"), ("R2", "T4")))
    beta3 = min_relay_power(g)
    assert 0.0 <= beta3 < math.inf


_ZERO_BUDGET = LinkGains(g12=0.5, g21=0.5, g1r=0.5, gr1=0.5, g2r=0.5, gr2=0.5, p=0.0)
_CORNER_TIE = LinkGains(g12=2.0, g21=2.0, g1r=2.0, gr1=1.0, g2r=2.0, gr2=1.0, p=1.0)


_PATHS = [
    (solve, _ZERO_BUDGET, 0.5, "trivial"),
    (solve, _ZERO_BUDGET, 0.75, "trivial"),
    (solve, R2T3_GAINS, 0.75, "numeric"),
    (solve_r2t5, R2T5_GAINS, 0.75, "closed-form-r2t5"),
    (solve, R3T5_GAINS, 0.75, "numeric"),
    (solve, R3T5_GAINS, 0.5, "numeric"),
    (solve, _CORNER_TIE, 0.5, "numeric"),
    (solve, R2T3_GAINS, 0.25, "numeric"),
]


@pytest.mark.parametrize("run, g, mu, method", _PATHS)
def test_every_path_reports_its_allocations_best_corner(run, g, mu, method):
    res = run(g, mu)
    assert res.method == method
    assert res.rates == best_weighted_point(compute_constraints(g, res.allocation), mu)
    assert res.weighted_sum == res.rates.weighted_sum(mu)
    assert res.ambiguous == (res.alternate_rates is not None)
    assert res.ambiguous == (g is _CORNER_TIE)


@settings(max_examples=100)
@given(seed=st.integers(min_value=0, max_value=10 ** 9),
       mu=st.sampled_from((0.0, 0.25, 0.5, 0.75, 1.0)))
def test_reported_corners_are_the_checked_rules(seed, mu):
    # solve reads its corners through pentagon_corner, unchecked; on the
    # extreme corpus' distribution they are best_weighted_point's corners
    # of the reported allocation's bounds, bit for bit
    g = solver_corpus.extreme_gains(random.Random(seed))
    res = solve(g, mu)
    cons = compute_constraints(g, res.allocation)
    assert res.rates == best_weighted_point(cons, mu)
    if mu == 0.5 and res.alternate_rates is not None:
        assert res.alternate_rates == best_weighted_point(cons, 0.0)


@pytest.mark.parametrize("run, g, mu, method", _PATHS)
def test_every_path_builds_one_kernel(monkeypatch, run, g, mu, method):
    # counted where optimizer.py and regimes.thresholds (solve_r2t5's
    # range check) look the name up
    built = []

    class Counted(RateKernel):
        __slots__ = ()

        def __init__(self, gains):
            built.append(gains)
            super().__init__(gains)

    for module in (optimizer, regimes):
        monkeypatch.setattr(module, "RateKernel", Counted)
    assert run(g, mu).method == method
    assert built == [g]


class TestZeroRelayToUserLink:
    # g2r = 0: the relay cannot reach user 2, so bin power cannot carry
    # user 1's message and only user 2's need sets beta3
    G = LinkGains(g12=0.05247829575668491, g21=0.11122032161467511, g1r=0.14019015670632537,
                  gr1=1.4689609900348921, g2r=0.0, gr2=0.09008770584433425, p=0.7081511275983547)

    def test_bin_power_is_what_the_reachable_user_needs(self):
        res = solve(self.G, 1.0)
        a = res.allocation
        assert (a.pw1, a.pw2) == (0.0, 0.0)
        assert a.beta3 == 0.19319834404941813
        assert res.assignment.user1.value == "DT"
        # the whole relay budget reaches no higher weighted sum
        full = best_weighted_point(compute_constraints(self.G, replace(a, beta3=self.G.p)), 1.0)
        assert res.weighted_sum == full.weighted_sum(1.0)


@settings(max_examples=60)
@given(amps=st.lists(_DECADES, min_size=6, max_size=6),
       p=st.floats(min_value=-6.0, max_value=4.0).map(lambda e: 10.0 ** e),
       zero=st.sampled_from((("g2r",), ("g1r",), ("g1r", "g2r"))))
def test_a_zero_relay_to_user_link_never_labels_its_sender_binned(amps, p, zero):
    # bin power reaches user 2 through g2r only and user 1 through g1r
    # only, so a zero g2r leaves user 1's message nothing to gain from it,
    # and a zero g1r user 2's
    g = replace(LinkGains(*amps, p=p), **{name: 0.0 for name in zero})
    for mu in (0.0, 0.25, 0.5, 0.75, 1.0):
        res = solve(g, mu)
        if g.g2r == 0.0:
            assert res.assignment.user1.value not in ("Ind", "Both")
        if g.g1r == 0.0:
            assert res.assignment.user2.value not in ("Ind", "Both")


# Instances the solver must carry up to the p/24 lattice. On A-G the former
# seed-refine-polish-poll solver stalled on the face alpha_i = pw_i = 0,
# 2.5e-4 to 4.5e-3 bits below it (A-F as pinned in bench/inputs.py, G draw
# 2 of random_gains(Random(3))). On L1-L3 a log2 argument varies over
# decades between two stages of the former log-barrier solver: without
# -log arg_k in its barrier, or with a stage cut at 50 Newton steps, the
# solve ended 1e-3 to 4e-2 bits below it.
_HARD = {
    "A": (dict(g12=1.7506298023965636, g21=0.7065018674621684, g1r=0.12569960453950946,
               gr1=1.437100152064607, g2r=0.05223671591704307, gr2=1.9130121528748816,
               p=1.1199586318517318), 0.5),
    "B": (dict(g12=0.36222251188981536, g21=0.45907648207736995, g1r=0.10478509376878575,
               gr1=0.7259480069987246, g2r=0.09356936136639868, gr2=0.4045092985833885,
               p=1.9860957598352251), 0.5),
    "C": (dict(g12=0.19745311915884284, g21=0.40843089696236173, g1r=0.2363762602350522,
               gr1=0.6959034816501953, g2r=0.19782103274329274, gr2=0.2787125883927931,
               p=1.9505910281067562), 0.5),
    "D": (dict(g21=0.6553252277041374, g2r=0.8175710392960996, gr1=1.179884501927189,
               g12=0.19130005212328308, g1r=0.5739156901869317, gr2=1.7556517251833983,
               p=1.4903847727870563), 0.25),
    "E": (dict(g21=0.9078089861798654, g2r=0.1422032672107268, gr1=1.2807715002120768,
               g12=0.3458129661644031, g1r=0.5299014436404447, gr2=0.5026949899559745,
               p=0.6240799077189437), 0.75),
    "F": (dict(g21=0.46386218722919, g2r=0.18016665729633236, gr1=0.5190402179018537,
               g12=0.48119075788450244, g1r=0.945712081205875, gr2=1.473562986776211,
               p=0.6699548139686371), 0.75),
    "G": (dict(g12=0.5281964816700762, g21=0.08714983140801803, g1r=0.5200616925208942,
               gr1=1.2292229542124522, g2r=0.34445912155301645, gr2=0.770016349772931,
               p=1.5071172130543888), 0.75),
    "L1": (dict(g12=2.2868774208889495, g21=0.07689104715195454, g1r=19.23057376089894,
                gr1=0.03300560751590219, g2r=0.0032339000686336075, gr2=83.93383722074365,
                p=23.657480883377215), 0.5),
    "L2": (dict(g12=521.2888694398749, g21=4.444222162541124, g1r=0.0017863479218468725,
                gr1=58.55464391269183, g2r=9.893661250576265, gr2=7.207352685652938,
                p=3.2653683213620344), 1.0),
    "L3": (dict(g12=15.923236171289886, g21=0.3551402352003906, g1r=10.611031486494909,
                gr1=0.13939839366619275, g2r=0.10343709531835069, gr2=92.20073083974614,
                p=0.05781387574293755), 0.25),
}


@pytest.mark.parametrize("name", sorted(_HARD))
def test_hard_instance_reaches_the_lattice(name):
    gains, mu = _HARD[name]
    g = LinkGains(**gains)
    assert solve(g, mu).weighted_sum >= grid_best(g, [mu], step=g.p / 24)[0] - 1e-9


_H = LinkGains(g12=0.4069396116962378, g21=0.10536807650263909, g1r=0.1258132156560926,
              gr1=0.8938011976944921, g2r=0.05586913046189336, gr2=0.9675531641540047,
              p=1.8368001700255328)


def test_former_stall_h_clears_its_old_value():
    # draw 73 of random_gains(Random(3)); the former solver's value at
    # mu = 1/4 beat the p/40 lattice, but a restart from alpha1 = 0.05 p
    # gained 1.98e-4 bits on it
    assert solve(_H, 0.25).weighted_sum >= 0.44032690217255466 + 1.9e-4


# Corpus solves (solver_corpus.py) where the surrogate gap reached the rows'
# rounding floor while the duals were still infeasible, next to a cone's
# alpha_i = pw_i = s_i = 0 corner. Stopping only on a feasible dual or a
# step shorter than 1e-2, the primal-dual iteration took 56 to 179 Newton
# systems on them; the collapse rule's "gap did not fall" clause stops it
# at the floor.
_FLOOR = {"random_gains": (66, 78, 106, 127, 176, 182), "extreme": (562, 637, 993)}


def _converging_cases():
    cases = [pytest.param(LinkGains(**gains), mu, id=name) for name, (gains, mu) in sorted(_HARD.items())]
    cases.append(pytest.param(_H, 0.25, id="H"))
    for corpus, indices in _FLOOR.items():
        built = solver_corpus.CORPORA[corpus]()
        cases += [pytest.param(*built[i], id=f"{corpus}-{i}") for i in indices]
    return cases


@pytest.mark.parametrize("g, mu", _converging_cases())
def test_primal_dual_stops_before_its_cap_at_the_lattice(g, mu):
    with solve_stats() as stats:
        value = solve(g, mu).weighted_sum
    (count, stop, gap, _), = stats
    assert stop in ("converged", "collapsed") and count < optimizer._ITERATIONS
    assert gap <= optimizer._GAP
    assert value >= grid_best(g, [mu], step=g.p / 24)[0] - 1e-9


def test_one_debug_record_per_numeric_solve(caplog):
    caplog.set_level(logging.DEBUG, logger="twrc.optimizer")
    solve(_ZERO_BUDGET, 0.5)
    assert not caplog.records
    solve(R3T5_GAINS, 0.75)
    solve(R2T3_GAINS, 0.75)
    assert [r.name for r in caplog.records] == ["twrc.optimizer"] * 2
    for record in caplog.records:
        assert record.levelno == logging.DEBUG
        count, stop, gap, residual = record.args
        assert count > 0 and stop == "converged" and gap <= optimizer._GAP and residual <= 1e-6
        assert f"{count} Newton systems, stopped {stop}" in record.getMessage()


@pytest.mark.parametrize("cap", range(1, 12))
def test_a_capped_solve_reports_its_dual_residual_at_its_gap(monkeypatch, cap):
    # a solve capped at `cap` iterations reports the point of its last
    # stop test; an uncapped solve whose tolerances are that gap and that
    # residual stops converged at the same point with the same record
    monkeypatch.setattr(optimizer, "_ITERATIONS", cap)
    with solve_stats() as stats:
        solve(R3T5_GAINS, 0.75)
    (count, stop, gap, residual), = stats
    assert (count, stop) == (cap, "cap")
    monkeypatch.setattr(optimizer, "_ITERATIONS", 100)
    monkeypatch.setattr(optimizer, "_GAP", gap)
    monkeypatch.setattr(optimizer, "_DUAL_TOL", residual)
    with solve_stats() as stats:
        solve(R3T5_GAINS, 0.75)
    assert stats == [(cap - 1, "converged", gap, residual)]


_AMPLITUDES = st.sampled_from((0.0,)) | _DECADES


@settings(max_examples=150)
@example(amps=[236.13535787727287, 144.63221521042314, 0.0, 0.015132424830124365, 0.0,
               0.006006224152594114], p=550.1681280356258, mu=0.5)
@example(amps=[0.5, 0.3, 0.7, 1.2, 0.4, 0.9], p=1e-200, mu=0.25)
@given(amps=st.lists(_AMPLITUDES, min_size=6, max_size=6),
       p=st.floats(min_value=-6.0, max_value=4.0).map(lambda e: 10.0 ** e),
       mu=st.sampled_from((0.0, 0.25, 0.5, 0.75, 1.0)))
def test_solve_holds_on_extreme_inputs(amps, p, mu):
    # amplitudes over six decades or zero, any subset of them; the examples
    # add g1r = g2r = 0, where no bound reads pw_i or s_i, and a budget
    # whose square underflows
    g = LinkGains(*amps, p=p)
    with solve_stats() as stats:
        res = solve(g, mu)
    assert all(stop != "cap" for _, stop, _, _ in stats)
    validate_allocation(res.allocation, p)
    value = res.weighted_sum
    assert value >= grid_best(g, [mu], step=p / 6)[0] - 1e-9 * max(1.0, abs(value))


class TestBoundaryTrace:
    """The region's boundary, traced by solving at ascending weights."""

    def test_staircase_monotonicity(self):
        points = [solve(R3T5_GAINS, k / 10).rates for k in range(11)]
        for a, b in zip(points, points[1:]):
            assert b.r1 >= a.r1 - 1e-9
            assert b.r2 <= a.r2 + 1e-9

    def test_endpoint_weights_maximize_single_rates(self):
        points = [solve(R3T5_GAINS, m).rates for m in (0.0, 0.5, 1.0)]
        assert points[-1].r1 == max(pt.r1 for pt in points)
        assert points[0].r2 == max(pt.r2 for pt in points)

    def test_symmetric_gains_give_mirrored_points(self):
        g = LinkGains(g12=0.3, g21=0.3, g1r=0.5, g2r=0.5, gr1=0.8, gr2=0.8, p=1.0)
        lo = solve(g, 0.3).rates
        hi = solve(g, 0.7).rates
        assert hi.r1 == pytest.approx(lo.r2, abs=1e-7)
        assert hi.r2 == pytest.approx(lo.r1, abs=1e-7)


class TestDiagnostics:
    def test_duals_nonnegative_and_residuals_small(self):
        rng = random.Random(41)
        for _ in range(15):
            g = random_gains(rng)
            res = solve(g, rng.choice((0.3, 0.6, 0.75)))
            d = res.diagnostics
            for idx in range(1, 9):
                assert getattr(d, f"lambda{idx}") >= 0.0
            assert d.complementary_slackness_residual <= 1e-9
            assert d.stationarity_residual <= 1e-4

    def test_rate_weights_split_across_duals(self):
        res = solve(R3T5_GAINS, 0.75)
        d = res.diagnostics
        assert d.lambda1 + d.lambda2 + d.lambda5 == pytest.approx(0.75, abs=1e-3)
        assert d.lambda3 + d.lambda4 + d.lambda5 == pytest.approx(0.25, abs=1e-3)


class TestTransposition:
    def test_swapping_users_and_weight_mirrors_rates(self):
        rng = random.Random(43)
        for _ in range(8):
            g = random_gains(rng)
            mu = rng.choice((0.2, 0.35, 0.75, 0.9))
            fwd = solve(g, mu)
            rev = solve(g.swapped(), 1.0 - mu)
            assert fwd.weighted_sum == pytest.approx(rev.weighted_sum, abs=1e-7)
            assert fwd.rates.r1 == pytest.approx(rev.rates.r2, abs=1e-6)
            assert fwd.rates.r2 == pytest.approx(rev.rates.r1, abs=1e-6)


@settings(max_examples=60)
@given(seed=st.integers(min_value=0, max_value=10 ** 9),
       mu=st.sampled_from((0.0, 0.25, 0.5, 0.75, 1.0)))
def test_full_power_holds_at_every_optimum(seed, mu):
    rng = random.Random(seed)
    g = random_gains(rng)
    res = solve(g, mu)
    assert check_full_power(g, res)
    validate_allocation(res.allocation, g.p)


@settings(max_examples=40)
@given(seed=st.integers(min_value=0, max_value=10 ** 9))
def test_reported_rates_lie_inside_their_own_pentagon(seed):
    rng = random.Random(seed)
    g = random_gains(rng)
    res = solve(g, 0.75)
    cons = compute_constraints(g, res.allocation)
    best = best_weighted_point(cons, 0.75)
    assert res.weighted_sum == pytest.approx(best.weighted_sum(0.75), abs=1e-9)


def test_derivative_code_reads_no_gain_product():
    """The primal-dual solve (``_primal_dual``, its Newton step included)
    and ``_recover_duals`` take every derivative entry of a rate bound
    from ``RateKernel.table``; neither reads a gain product."""
    products = set(RateKernel.__slots__) - {"table"}
    tree = ast.parse(Path(optimizer.__file__).read_text(encoding="utf-8"))
    checked, reads = [], []
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name in ("_primal_dual", "_recover_duals"):
            checked.append(node.name)
            reads += [f"{node.name}:{n.lineno}.{n.attr}" for n in ast.walk(node)
                      if isinstance(n, ast.Attribute) and n.attr in products]
    assert sorted(checked) == ["_primal_dual", "_recover_duals"]
    assert not reads, reads


def test_one_kernel_per_result_and_one_bin_need_rule():
    """In ``optimizer.py`` only ``solve`` builds a ``RateKernel``, the one
    its result is evaluated with (``solve_r2t5`` uses the one
    ``thresholds`` builds), and only ``_bin_need`` calls ``user_snrs``, so
    the minimum bin power and the labels share one rule. Nothing calls
    ``compute_constraints``, which would build a second kernel and
    evaluate a result again."""
    tree = ast.parse(Path(optimizer.__file__).read_text(encoding="utf-8"))
    allowed = {"RateKernel": {"solve"}, "user_snrs": {"_bin_need"}}
    calls, second = [], []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in allowed:
                    calls.append((name, scope))
                elif name == "compute_constraints":
                    second.append(scope)
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                inner = child.name if scope is None else f"{scope}.{child.name}"
            visit(child, inner)

    visit(tree, None)
    assert {name for name, _ in calls} == set(allowed)
    assert all(scope in allowed[name] for name, scope in calls), calls
    assert not second, second
