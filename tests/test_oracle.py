import ast
import math
import random
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from twrc import oracle, regimes, sweeps
from twrc import (
    ACTIVITY_THRESHOLD,
    Geometry,
    GridCapError,
    LinkGains,
    PowerAllocation,
    RatePoint,
    SchemeRestriction,
    TECHNIQUE_TABLE,
    ValidationError,
    classify,
    compute_constraints,
    gains_from_geometry,
    grid_best,
    grid_region,
    hull_contains,
    hull_exceeds,
    regime_map,
    relay_power_profile,
    solve,
    technique_lookup,
    validate_allocation,
)

from helpers import MAP_GEOMETRY, R3T5_GAINS, random_gains
from oracle_reference import corner_rates, face_best, lattice_batches, local_box_best, unreduced_best


@pytest.fixture(scope="module")
def showcase_hulls():
    return {
        mode: grid_region(R3T5_GAINS, step=0.05, restriction=mode)
        for mode in SchemeRestriction
    }


ZERO_POWER = LinkGains(g12=0.5, g21=0.5, g1r=0.5, gr1=0.5, g2r=0.5, gr2=0.5, p=0.0)


class TestGridRegion:
    @pytest.mark.parametrize("step", [0.05, 2.0])
    @pytest.mark.parametrize("restriction", list(SchemeRestriction), ids=lambda r: r.value)
    def test_zero_power_hull_is_origin(self, restriction, step):
        hull = grid_region(ZERO_POWER, step=step, restriction=restriction)
        assert all(v.r1 == 0.0 and v.r2 == 0.0 for v in hull.vertices)

    def test_vertices_trace_a_staircase(self, showcase_hulls):
        hull = showcase_hulls[SchemeRestriction.COMPOSITE]
        for a, b in zip(hull.vertices, hull.vertices[1:]):
            assert b.r1 >= a.r1
            assert b.r2 <= a.r2
        assert hull.vertices[0] == RatePoint(r1=0.0, r2=hull.r2_max)
        assert hull.vertices[-1] == RatePoint(r1=hull.r1_max, r2=0.0)

    def test_direct_only_rectangle_corner(self, showcase_hulls):
        hull = showcase_hulls[SchemeRestriction.DIRECT_ONLY]
        corner = math.log2(1.0625)
        assert len(hull.vertices) == 3
        mid = hull.vertices[1]
        assert mid.r1 == pytest.approx(corner, abs=1e-12)
        assert mid.r2 == pytest.approx(corner, abs=1e-12)
        assert all(src is None for src in hull.sources)

    def test_every_vertex_reproducible_from_its_allocation(self, showcase_hulls):
        hull = showcase_hulls[SchemeRestriction.COMPOSITE]
        checked = 0
        for vertex, alloc in zip(hull.vertices, hull.sources):
            if alloc is None:
                continue
            validate_allocation(alloc, R3T5_GAINS.p)
            cons = compute_constraints(R3T5_GAINS, alloc)
            assert vertex.r1 <= min(cons.j1, cons.j2) + 1e-12
            assert vertex.r2 <= min(cons.j3, cons.j4) + 1e-12
            assert vertex.r1 + vertex.r2 <= cons.j5 + 1e-12
            checked += 1
        assert checked >= 3

    def test_every_source_is_a_valid_allocation(self):
        # steps that do not divide p exactly, where the top lattice level
        # and the relay face's bin power p - pw1 - pw2 round past the budget
        rng = random.Random(5)
        restrictions = (SchemeRestriction.COMPOSITE, SchemeRestriction.BLOCK_MARKOV_ONLY,
                        SchemeRestriction.INDEPENDENT_ONLY, SchemeRestriction.TIME_SHARE)
        for _ in range(20):
            g = random_gains(rng)
            for divisions in (24, 16, 10, 7):
                for mode in restrictions:
                    hull = grid_region(g, step=g.p / divisions, restriction=mode)
                    for alloc in hull.sources:
                        validate_allocation(alloc, g.p)

    def test_deterministic_across_runs(self):
        h1 = grid_region(R3T5_GAINS, step=0.1)
        h2 = grid_region(R3T5_GAINS, step=0.1)
        assert h1.vertices == h2.vertices

    def test_refining_step_never_shrinks_the_hull(self):
        coarse = grid_region(R3T5_GAINS, step=0.2)
        fine = grid_region(R3T5_GAINS, step=0.1)
        finest = grid_region(R3T5_GAINS, step=0.05)
        assert hull_contains(fine, coarse, slack=0.0)
        assert hull_contains(finest, fine, slack=0.0)

    def test_step_validation(self):
        with pytest.raises(ValidationError, match="step"):
            grid_region(R3T5_GAINS, step=0.0)
        with pytest.raises(ValidationError, match="step"):
            grid_region(R3T5_GAINS, step=2.0)

    def test_grid_cap_enforced_by_environment(self, monkeypatch):
        monkeypatch.setenv("TWRC_GRID_CAP", "50")
        with pytest.raises(GridCapError, match="TWRC_GRID_CAP"):
            grid_region(R3T5_GAINS, step=0.05)

    def test_cap_error_message_counts_evaluations(self, monkeypatch):
        monkeypatch.setenv("TWRC_GRID_CAP", "10")
        with pytest.raises(GridCapError, match=r"\d+ evaluations"):
            grid_region(R3T5_GAINS, step=0.05)

    @pytest.mark.parametrize("restriction, count", [
        # step p/4: 5 levels, 15 relay simplex pairs; composite's time-share
        # planes are points of its full-power face and not counted again
        ("composite", 2 * 5 * 5 * 15 + 5),
        ("bm", 5 * 5 * 15),
        ("ind", 5),
        ("timeshare", 2 * 5 * 5),
    ])
    def test_grid_cap_counts_the_lattice(self, monkeypatch, restriction, count):
        monkeypatch.setenv("TWRC_GRID_CAP", str(count - 1))
        with pytest.raises(GridCapError, match=rf"{count} evaluations"):
            grid_region(R3T5_GAINS, step=0.25, restriction=restriction)
        monkeypatch.setenv("TWRC_GRID_CAP", str(count))
        grid_region(R3T5_GAINS, step=0.25, restriction=restriction)

    @pytest.mark.parametrize("call", [
        lambda step: grid_region(R3T5_GAINS, step=step),
        lambda step: grid_region(R3T5_GAINS, step=step, restriction="ind"),
        lambda step: grid_best(R3T5_GAINS, [0.5], step=step),
    ], ids=["grid_region", "grid_region-ind", "grid_best"])
    @pytest.mark.parametrize("step", [1e-13, 5e-324])
    def test_tiny_step_is_refused_before_allocating(self, monkeypatch, call, step):
        # 1e13 levels would take 80 TB; 1 / 5e-324 overflows to inf
        monkeypatch.delenv("TWRC_GRID_CAP", raising=False)
        tracemalloc.start()
        try:
            with pytest.raises(GridCapError, match="at least"):
                call(step)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    @pytest.mark.parametrize("raw", ["abc", "1e9", "10.5", "0", "-3"])
    def test_malformed_cap_environment_rejected(self, monkeypatch, raw):
        monkeypatch.setenv("TWRC_GRID_CAP", raw)
        with pytest.raises(ValidationError, match="TWRC_GRID_CAP"):
            grid_region(R3T5_GAINS, step=0.25)


class TestContainment:
    def test_reflexive(self, showcase_hulls):
        comp = showcase_hulls[SchemeRestriction.COMPOSITE]
        assert hull_contains(comp, comp, slack=0.0)
        # the same hull reaching 1e-6 further along r1 is contained only
        # within that slack
        wider = replace(comp, vertices=comp.vertices[:-1] + (RatePoint(r1=comp.r1_max + 1e-6, r2=0.0),))
        assert not hull_contains(comp, wider, slack=0.0)
        assert hull_contains(comp, wider, slack=1e-6)

    def test_composite_contains_every_restriction(self, showcase_hulls):
        comp = showcase_hulls[SchemeRestriction.COMPOSITE]
        for mode in SchemeRestriction:
            assert hull_contains(comp, showcase_hulls[mode], slack=0.0), mode

    def test_composite_strictly_exceeds_each_component(self, showcase_hulls):
        comp = showcase_hulls[SchemeRestriction.COMPOSITE]
        for mode in (SchemeRestriction.BLOCK_MARKOV_ONLY,
                     SchemeRestriction.INDEPENDENT_ONLY,
                     SchemeRestriction.DIRECT_ONLY,
                     SchemeRestriction.TIME_SHARE):
            assert hull_exceeds(comp, showcase_hulls[mode], margin=1e-3), mode
            assert not hull_exceeds(showcase_hulls[mode], comp, margin=1e-3), mode

    def test_time_share_does_not_contain_composite(self, showcase_hulls):
        comp = showcase_hulls[SchemeRestriction.COMPOSITE]
        ts = showcase_hulls[SchemeRestriction.TIME_SHARE]
        assert not hull_contains(ts, comp, slack=0.0)

    def test_time_share_contains_both_pure_components(self, showcase_hulls):
        ts = showcase_hulls[SchemeRestriction.TIME_SHARE]
        bm = showcase_hulls[SchemeRestriction.BLOCK_MARKOV_ONLY]
        ind = showcase_hulls[SchemeRestriction.INDEPENDENT_ONLY]
        # time sharing mixes one user's coherent curve with the other's
        # binning curve, so each pure hull's corners stay available
        assert hull_contains(ts, ind, slack=1e-9)
        assert not hull_contains(bm, ts, slack=0.0)

    def test_negative_slack_rejected(self, showcase_hulls):
        comp = showcase_hulls[SchemeRestriction.COMPOSITE]
        with pytest.raises(ValidationError, match="slack"):
            hull_contains(comp, comp, slack=-0.1)

    @pytest.mark.parametrize("slack", [math.nan, math.inf])
    def test_nonfinite_slack_rejected(self, showcase_hulls, slack):
        comp = showcase_hulls[SchemeRestriction.COMPOSITE]
        ind = showcase_hulls[SchemeRestriction.INDEPENDENT_ONLY]
        with pytest.raises(ValidationError, match="slack"):
            hull_contains(ind, comp, slack=slack)

    @pytest.mark.parametrize("margin", [math.nan, -1.0, math.inf])
    def test_bad_margin_rejected(self, showcase_hulls, margin):
        comp = showcase_hulls[SchemeRestriction.COMPOSITE]
        ind = showcase_hulls[SchemeRestriction.INDEPENDENT_ONLY]
        with pytest.raises(ValidationError, match="margin"):
            hull_exceeds(comp, ind, margin=margin)


class TestGridBest:
    @pytest.mark.parametrize("step", [0.05, 2.0])
    def test_zero_power_best_is_zero(self, step):
        assert grid_best(ZERO_POWER, (0.0, 0.25, 0.5, 0.75, 1.0), step=step) == [0.0] * 5

    def test_matches_solver_within_resolution(self):
        rng = random.Random(53)
        for _ in range(3):
            g = random_gains(rng)
            step = g.p / 25
            best = grid_best(g, (0.5, 0.75), step=step)
            for mu, grid_value in zip((0.5, 0.75), best):
                res = solve(g, mu)
                assert grid_value <= res.weighted_sum + 1e-9
                assert grid_value >= res.weighted_sum - 0.1

    def test_local_grid_never_beats_solver(self):
        rng = random.Random(59)
        for _ in range(5):
            g = random_gains(rng)
            res = solve(g, 0.75)
            local = local_box_best(g, 0.75, res.allocation, 0.02 * g.p, 9)
            assert local <= res.weighted_sum + 1e-6

    def test_unreduced_audit_grid_confirms_full_power_reduction(self):
        rng = random.Random(61)
        for _ in range(2):
            g = random_gains(rng)
            res = solve(g, 0.75)
            audit = unreduced_best(g, 0.75, oracle._levels(g.p, g.p / 8), g.p)
            assert audit <= res.weighted_sum + 1e-9

    def test_mu_validation(self):
        with pytest.raises(ValidationError, match="mu"):
            grid_best(R3T5_GAINS, (0.5, 1.2), step=0.1)

    @pytest.mark.parametrize("mu", ["0.5", None, math.nan])
    def test_mu_must_be_a_number(self, mu):
        with pytest.raises(ValidationError, match="mu"):
            grid_best(R3T5_GAINS, [mu], step=0.25)

    def test_grid_cap_counts_the_full_power_face(self, monkeypatch):
        # step p/4: 5 levels per user split, 15 relay simplex pairs
        count = 5 * 5 * 15
        monkeypatch.setenv("TWRC_GRID_CAP", str(count - 1))
        with pytest.raises(GridCapError, match=rf"{count} evaluations"):
            grid_best(R3T5_GAINS, (0.5,), step=0.25)
        monkeypatch.setenv("TWRC_GRID_CAP", str(count))
        assert len(grid_best(R3T5_GAINS, (0.5,), step=0.25)) == 1


GRID_BEST_MUS = (0.0, 0.25, 0.5, 0.75, 1.0)


def unpruned_grid_best(g, mus, step):
    """Best weighted sum over every composite-lattice batch and both
    pentagon corners, for every weight."""
    p = g.p
    levels = oracle._levels(p, step)
    best = [-math.inf] * len(mus)
    for a1, a2, q1, q2, b3 in lattice_batches(SchemeRestriction.COMPOSITE, levels, p):
        if len(a1) == 0:
            continue
        r1a, r2a, r1b, r2b = corner_rates(g, a1, p - a1, a2, p - a2, q1, q2, b3)
        for k, mu in enumerate(mus):
            wa = np.max(mu * r1a + (1.0 - mu) * r2a)
            wb = np.max(mu * r1b + (1.0 - mu) * r2b)
            best[k] = max(best[k], float(wa), float(wb))
    return best


# direct-only is the analytic rectangle; every other restriction has a lattice
LATTICE_RESTRICTIONS = [r for r in SchemeRestriction if r != SchemeRestriction.DIRECT_ONLY]


amplitude = st.one_of(
    st.just(0.0),
    st.floats(min_value=-3.0, max_value=3.0).map(lambda e: 10.0 ** e),
)


@given(
    amps=st.lists(amplitude, min_size=6, max_size=6),
    log_p=st.floats(min_value=-6.0, max_value=4.0),
    divisions=st.floats(min_value=6.0, max_value=12.0),
)
def test_grid_best_matches_unpruned_lattice(amps, log_p, divisions):
    p = 10.0 ** log_p
    g = LinkGains(g12=amps[0], g21=amps[1], g1r=amps[2], gr1=amps[3], g2r=amps[4], gr2=amps[5], p=p)
    step = p / divisions
    pruned = grid_best(g, GRID_BEST_MUS, step=step)
    for mu, got, want in zip(GRID_BEST_MUS, pruned, unpruned_grid_best(g, GRID_BEST_MUS, step)):
        assert abs(got - want) <= 1e-15 * max(1.0, abs(want)), (mu, got, want)


@given(
    amps=st.lists(amplitude, min_size=6, max_size=6),
    log_p=st.floats(min_value=-6.0, max_value=4.0),
    divisions=st.floats(min_value=2.0, max_value=40.0),
)
@example(amps=[0.3, 0.0, 1e3, 1e-3, 2.0, 0.7], log_p=0.0, divisions=40.0)
@example(amps=[1.0, 0.5, 0.0, 3.0, 0.2, 0.0], log_p=4.0, divisions=7.5)
@example(amps=[110.0, 0.0082, 0.0, 4.72, 1.17, 13.8], log_p=2.175, divisions=5.0)
def test_grid_best_equals_point_by_point_face(amps, log_p, divisions):
    # the crossing search returns the very float the best point of the
    # face gives at the favored corner, not merely a close one; on the
    # last example an invalid point (alpha2 = 0, pw2 > 0) left in the
    # search would round one ulp above it at mu = 1/2
    p = 10.0 ** log_p
    g = LinkGains(g12=amps[0], g21=amps[1], g1r=amps[2], gr1=amps[3], g2r=amps[4], gr2=amps[5], p=p)
    step = p / divisions
    assert grid_best(g, GRID_BEST_MUS, step=step) == face_best(g, GRID_BEST_MUS, oracle._levels(p, step), p)


@given(
    amps=st.lists(amplitude, min_size=6, max_size=6),
    log_p=st.floats(min_value=-6.0, max_value=4.0),
    divisions=st.floats(min_value=2.0, max_value=40.0),
)
def test_face_bounds_keep_the_float_facts_grid_best_relies_on(amps, log_p, divisions):
    # j5 >= j1 and j5 >= j3 elementwise, and j5 never rises along either
    # user's level axis, on every piece of every lattice exactly as
    # grid_best and grid_region build it: the bin face, the beta3 = 0
    # face, the bin-only line and both time-share pieces; and at both
    # corners the rates are finite wherever valid holds, as grid_region's
    # argmax ("each piece has a valid point") assumes
    p = 10.0 ** log_p
    g = LinkGains(g12=amps[0], g21=amps[1], g1r=amps[2], gr1=amps[3], g2r=amps[4], gr2=amps[5], p=p)
    levels = oracle._levels(p, p / divisions)
    for restriction in LATTICE_RESTRICTIONS:
        for piece in oracle._pieces(restriction, levels, p):
            j1, _, j3, _, j5 = oracle._bounds(g, piece)
            assert np.all(j5 >= j1) and np.all(j5 >= j3)
            assert np.all(np.diff(j5, axis=0) <= 0.0) and np.all(np.diff(j5, axis=1) <= 0.0)
            for _, r1, r2, valid, _ in oracle._corner_best(g, piece, (True, False)):
                assert np.all(np.isfinite(r1[valid])) and np.all(np.isfinite(r2[valid]))


def test_grid_best_memory_stays_linear_in_the_face():
    # step p/40: 41 levels and 861 relay pairs; one n * n * m array of
    # floats alone would take about 11.6 MB
    tracemalloc.start()
    try:
        grid_best(R3T5_GAINS, GRID_BEST_MUS, step=R3T5_GAINS.p / 40)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000


def test_grid_region_memory_stays_linear_in_the_face():
    # step p/40 as above: one n * n * m array of floats alone would take
    # about 11.6 MB; dropping what the running anchor dominates before
    # gathering the candidates keeps the peak near 5.3 MB
    tracemalloc.start()
    try:
        grid_region(R3T5_GAINS, step=R3T5_GAINS.p / 40)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8_000_000


@st.composite
def crossing_inputs(draw):
    """``_crossing`` arguments of random shape from small value sets, so
    ties are common: ``j5`` never rising along the other user's level
    axis, and a random ``valid`` mask that may leave a relay pair with no
    valid level."""
    n1, n, m = (draw(st.integers(1, hi)) for hi in (4, 9, 5))
    own = np.array(draw(st.lists(st.sampled_from([0.0, 0.5, 1.0]), min_size=n1 * m, max_size=n1 * m)))
    other = np.array(draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0]), min_size=n * m, max_size=n * m)))
    valid = np.array(draw(st.lists(st.booleans(), min_size=n * m, max_size=n * m)))
    j5 = np.array(draw(st.lists(st.lists(st.sampled_from([0.5, 1.0, 2.0, 2.5, 3.0]), min_size=n, max_size=n),
                                min_size=n1, max_size=n1)))
    return own.reshape(n1, m), other.reshape(n, m), valid.reshape(n, m), -np.sort(-j5, axis=1)


@given(crossing_inputs())
# relay pair 1 has no valid level, and at relay pair 0 the second level ties the first
@example((np.zeros((2, 2)), np.array([[1.0, 0.5], [1.0, 0.5]]), np.array([[True, False], [True, False]]),
          np.array([[2.0, 1.0], [1.0, 1.0]])))
def test_crossing_returns_the_best_and_its_first_level(args):
    own, other, valid, j5 = args
    best, search = oracle._crossing(own, other, valid, j5)
    level = oracle._first_level(*search)
    # brute force over (favored level, other level, relay pair)
    every = np.minimum(other[None], j5[:, :, None] - own[:, None, :])
    every = np.where(valid[None], every, -np.inf)
    assert np.array_equal(best, every.max(axis=1))
    assert np.array_equal(level, every.argmax(axis=1))


def plain_pareto_mask(r1, r2):
    """Points whose r2 beats every point before them in the order r1
    descending, then r2 descending, then index: one full lexsort."""
    order = np.lexsort((-r2, -r1))
    r2o = r2[order]
    keep = np.empty(len(order), dtype=bool)
    keep[:1] = True
    keep[1:] = r2o[1:] > np.maximum.accumulate(r2o)[:-1]
    mask = np.zeros(len(order), dtype=bool)
    mask[order[keep]] = True
    return mask


def reference_region(g, step, restriction):
    """``(vertices, sources)`` of the hull over the materialized lattice:
    every candidate batch of ``lattice_batches``, both corners from
    ``corner_rates``, one plain lexsort filter over all of them."""
    p = g.p
    levels = oracle._levels(p, step)
    rates, coords = [], []
    for batch in lattice_batches(restriction, levels, p):
        a1, a2, q1, q2, b3 = batch
        r1a, r2a, r1b, r2b = corner_rates(g, a1, p - a1, a2, p - a2, q1, q2, b3)
        rates.append((np.concatenate([r1a, r1b]), np.concatenate([r2a, r2b])))
        coords.append(tuple(np.concatenate([c, c]) for c in batch))
    r1, r2 = (np.concatenate(col) for col in zip(*rates))
    coords = [np.concatenate(col) for col in zip(*coords)]
    keep = plain_pareto_mask(r1, r2)
    order = np.argsort(r1[keep], kind="stable")
    r1, r2 = r1[keep][order], r2[keep][order]
    a1, a2, q1, q2, b3 = (c[keep][order] for c in coords)
    chain = oracle._chain_indices(r1, r2)
    vertices = [RatePoint(r1=float(r1[i]), r2=float(r2[i])) for i in chain]
    sources = [
        PowerAllocation(alpha1=float(a1[i]), beta1=float(p - a1[i]), alpha2=float(a2[i]),
                        beta2=float(p - a2[i]), pw1=float(q1[i]), pw2=float(q2[i]),
                        beta3=float(b3[i]))
        for i in chain
    ]
    if vertices[0].r1 > 0.0:
        vertices.insert(0, RatePoint(r1=0.0, r2=vertices[0].r2))
        sources.insert(0, sources[0])
    if vertices[-1].r2 > 0.0:
        vertices.append(RatePoint(r1=vertices[-1].r1, r2=0.0))
        sources.append(sources[-1])
    return tuple(vertices), tuple(sources)


@given(
    amps=st.lists(amplitude, min_size=6, max_size=6),
    log_p=st.floats(min_value=-6.0, max_value=4.0),
    divisions=st.floats(min_value=6.0, max_value=12.0),
    restriction=st.sampled_from(LATTICE_RESTRICTIONS),
)
# exact ties everywhere, so the first candidate decides each source:
# symmetric gains, relay links at zero, and (seventh) gains on which the
# sources change if grid_region's candidates leave candidate order; on
# the last two the running anchor drops every candidate of a later
# piece, the composite bin-only line and the second time-share piece
@example(amps=[0.5, 0.5, 1.0, 2.0, 1.0, 2.0], log_p=0.0, divisions=8.0, restriction=SchemeRestriction.COMPOSITE)
@example(amps=[0.5, 0.5, 1.0, 2.0, 1.0, 2.0], log_p=0.0, divisions=8.0, restriction=SchemeRestriction.TIME_SHARE)
@example(amps=[0.7, 0.7, 0.0, 0.0, 0.0, 0.0], log_p=1.0, divisions=10.0, restriction=SchemeRestriction.COMPOSITE)
@example(amps=[0.0] * 6, log_p=0.0, divisions=6.0, restriction=SchemeRestriction.COMPOSITE)
@example(amps=[0.0, 0.0, 1.0, 0.0, 1.0, 1.0], log_p=2.0, divisions=1.0, restriction=SchemeRestriction.COMPOSITE)
@example(amps=[2.0, 0.0, 1.0, 0.0, 1.0, 1.0], log_p=1.0, divisions=6.0,
         restriction=SchemeRestriction.BLOCK_MARKOV_ONLY)
@example(amps=[1.0, 1.0, 1.0, 1.0, 1.0, 3.0], log_p=0.0, divisions=12.0, restriction=SchemeRestriction.COMPOSITE)
@example(amps=[0.5, 0.5, 0.5, 0.5, 0.5, 1.0], log_p=0.0, divisions=6.0, restriction=SchemeRestriction.COMPOSITE)
@example(amps=[0.5, 0.5, 0.5, 1.0, 0.5, 0.5], log_p=0.0, divisions=8.0, restriction=SchemeRestriction.TIME_SHARE)
def test_grid_region_matches_materialized_lattice(amps, log_p, divisions, restriction):
    p = 10.0 ** log_p
    g = LinkGains(g12=amps[0], g21=amps[1], g1r=amps[2], gr1=amps[3], g2r=amps[4], gr2=amps[5], p=p)
    step = p / divisions
    hull = grid_region(g, step=step, restriction=restriction)
    vertices, sources = reference_region(g, step, restriction)
    assert hull.vertices == vertices
    assert hull.sources == sources


@st.composite
def keyed_points(draw):
    """``(r1, r2, key)`` from small value sets, so ties are common, with
    ``key`` a random permutation of the indices."""
    points = draw(st.lists(st.tuples(st.sampled_from([0.0, 0.25, 0.5, 1.0]),
                                     st.sampled_from([0.0, 0.25, 0.5, 1.0])), max_size=40))
    key = draw(st.permutations(range(len(points))))
    return (np.array([x for x, _ in points]), np.array([y for _, y in points]),
            np.array(key, dtype=np.intp))


@given(keyed_points())
@example((np.zeros(0), np.zeros(0), np.zeros(0, dtype=np.intp)))
def test_pareto_mask_matches_plain_lexsort_filter(args):
    # the plain filter breaks ties by index, so it runs on the points
    # rearranged into key order
    r1, r2, key = args
    order = np.argsort(key)
    want = np.zeros(len(key), dtype=bool)
    want[order] = plain_pareto_mask(r1[order], r2[order])
    assert np.array_equal(oracle._pareto_mask(r1, r2, key), want)

class TestRegimeMap:
    def test_minimal_grid_emits_four_corner_cells(self):
        cells = regime_map(resolution=2)
        assert len(cells) == 4
        assert [(c.x, c.y) for c in cells] == [
            (-20.0, -30.0), (40.0, -30.0), (-20.0, 30.0), (40.0, 30.0)
        ]
        for c in cells:
            assert c.regime.cell == ("R1", "T1")
            assert c.assignment.user1.value == "DT"
            assert c.assignment.user2.value == "DT"

    def test_midpoint_cell_is_independent_for_both_users(self):
        cells = regime_map(resolution=61)
        mid = [c for c in cells if c.x == 10.0 and c.y == 0.0]
        assert len(mid) == 1
        assert mid[0].assignment.user1.value == "Ind"
        assert mid[0].assignment.user2.value == "Ind"

    def test_relay_on_a_user_becomes_skipped_cell(self):
        cells = regime_map(bounds=(-10.0, 10.0, -10.0, 10.0), resolution=3)
        skipped = [c for c in cells if c.source == "skipped"]
        assert len(skipped) == 1
        assert (skipped[0].x, skipped[0].y) == (0.0, 0.0)
        assert skipped[0].regime is None
        assert skipped[0].assignment is None

    def test_relay_next_to_a_user_becomes_skipped_cell(self):
        # where a map at resolution 175 over the default bounds puts the
        # relay: 3.6e-15 m from user 1, so a path-loss gain would pass 1e20
        cells = regime_map(bounds=(3.552713678800501e-15, 1.0, 0.0, 1.0), resolution=2)
        assert [c.source == "skipped" for c in cells] == [True, False, False, False]

    def test_table_cells_match_stored_table(self):
        cells = regime_map(resolution=15)
        for c in cells:
            if c.source != "table":
                continue
            want = TECHNIQUE_TABLE[c.regime.cell]
            assert (c.assignment.user1, c.assignment.user2) == want

    def test_sampled_cells_agree_with_solver_labels(self):
        # restricted to cells whose stored entry is grid-verified; the
        # remaining cells are exercised (and the stored table challenged)
        # by the acceptance checks
        verified = {("R1", "T1"), ("R1", "T3"), ("R1", "T5"),
                    ("R2", "T1"), ("R2", "T2"), ("R2", "T3"),
                    ("R2", "T4"), ("R3", "T1")}
        rng = random.Random(67)
        cells = [c for c in regime_map(resolution=31)
                 if c.source == "table" and c.regime.cell in verified]
        for c in rng.sample(cells, 25):
            g = gains_from_geometry(MAP_GEOMETRY.with_relay((c.x, c.y)), p=1.0)
            res = solve(g, 0.75)
            assert (res.assignment.user1, res.assignment.user2) == (
                c.assignment.user1, c.assignment.user2
            ), (c.x, c.y, c.regime.cell)

    def test_labels_come_from_the_table_else_the_solver(self):
        for mu in (0.75, 0.5, 0.25):
            decision, source = sweeps.technique_labels(R3T5_GAINS, mu)
            assert source == "table"
            assert decision == technique_lookup(R3T5_GAINS, mu)
        g = LinkGains(g12=1.0, g21=0.5, g1r=0.1, gr1=1.0, g2r=0.5, gr2=1.0, p=1.0)
        assert not classify(g).side_condition_holds
        decision, source = sweeps.technique_labels(g, 0.75)
        assert source == "solver"
        assert decision.assignment == solve(g, 0.75).assignment

    @pytest.mark.parametrize("g1r, holds, expected", [(1.0, True, "table"),
                                                      (math.nextafter(1.0, 0.0), False, "solver")])
    def test_side_condition_boundary_belongs_to_the_table(self, g1r, holds, expected):
        # at g12 = gr1 = g1r = p = 1 both column thresholds are exactly 2.0
        g = LinkGains(g12=1.0, g21=0.5, g1r=g1r, gr1=1.0, g2r=0.5, gr2=0.5, p=1.0)
        t_cuts = regimes.thresholds(g)[3]
        assert (t_cuts[1] == t_cuts[2] == 2.0) is holds
        assert classify(g).side_condition_holds is holds
        assert sweeps.technique_labels(g, 0.75)[1] == expected

    def test_resolution_validation(self):
        with pytest.raises(ValidationError, match="resolution"):
            regime_map(resolution=1)

    def test_bounds_validation(self):
        with pytest.raises(ValidationError, match="x bounds"):
            regime_map(bounds=(5.0, -5.0, -1.0, 1.0))


class TestRelayPowerProfile:
    def test_single_sample_lands_at_midpoint(self):
        points = relay_power_profile(samples=1)
        assert len(points) == 1
        assert points[0].x == pytest.approx(10.0)
        assert points[0].y == pytest.approx(0.0)
        assert points[0].beta3 < 1.0

    def test_default_segment_spans_the_users(self):
        points = relay_power_profile(samples=3)
        assert [pt.x for pt in points] == pytest.approx([5.0, 10.0, 15.0])

    def test_power_never_exceeds_budget_and_dips_below(self):
        points = relay_power_profile(samples=21, p=1.0)
        assert all(pt.beta3 <= 1.0 + 1e-12 for pt in points)
        assert any(pt.beta3 < 1.0 - 1e-9 for pt in points)
        assert any(abs(pt.beta3 - 1.0) <= 1e-12 for pt in points)

    def test_custom_segment(self):
        points = relay_power_profile(
            samples=1, start=(8.0, 1.0), end=(12.0, -1.0))
        assert points[0].x == pytest.approx(10.0)
        assert points[0].y == pytest.approx(0.0)

    def test_sample_count_validation(self):
        with pytest.raises(ValidationError, match="samples"):
            relay_power_profile(samples=0)

    @pytest.mark.parametrize("relay", [(10.0, 20.0), (-4.0, 18.0)])
    def test_sample_outside_the_formula_cells_reads_the_solvers_bin_power(self, relay):
        # (R1,T1) and (R2,T1), outside the closed form's cells: no coherent
        # power, so the point is the solver's minimized bin power
        (point,) = relay_power_profile(MAP_GEOMETRY, samples=1, start=relay, end=relay)
        g = gains_from_geometry(MAP_GEOMETRY.with_relay(relay), p=1.0)
        alloc = solve(g, 0.75).allocation
        assert classify(g).cell not in (("R2", "T3"), ("R2", "T4"))
        assert alloc.pw1 + alloc.pw2 == 0.0
        assert (point.x, point.y, point.beta3) == (*relay, alloc.beta3)

    @pytest.mark.parametrize("mu", [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_each_point_is_the_solvers_relay_power(self, mu):
        # p where the optimum uses coherent power, its bin power elsewhere,
        # at every weight: at mu <= 1/2 the user-1-priority formula
        # min_relay_power understates what the optimum needs (sample 20,
        # the midpoint in (R2,T3))
        points = relay_power_profile(mu=mu)
        assert len(points) == 41
        for pt in points:
            alloc = solve(gains_from_geometry(Geometry().with_relay((pt.x, pt.y)), p=1.0), mu).allocation
            assert pt.beta3 == (1.0 if alloc.pw1 + alloc.pw2 > ACTIVITY_THRESHOLD else alloc.beta3), pt


class TestRestrictionSemantics:
    def test_independent_only_matches_no_coherent_power_search(self, showcase_hulls):
        # the independent-only hull must beat direct-only and stay below
        # composite for these gains
        ind = showcase_hulls[SchemeRestriction.INDEPENDENT_ONLY]
        direct = showcase_hulls[SchemeRestriction.DIRECT_ONLY]
        comp = showcase_hulls[SchemeRestriction.COMPOSITE]
        assert hull_contains(ind, direct, slack=1e-12)
        assert ind.max_sum_rate <= comp.max_sum_rate + 1e-12

    def test_block_markov_only_beats_direct(self, showcase_hulls):
        bm = showcase_hulls[SchemeRestriction.BLOCK_MARKOV_ONLY]
        direct = showcase_hulls[SchemeRestriction.DIRECT_ONLY]
        assert hull_contains(bm, direct, slack=1e-12)

    def test_restriction_accepts_value_strings(self):
        hull = grid_region(R3T5_GAINS, step=0.25, restriction="direct")
        assert hull.restriction is SchemeRestriction.DIRECT_ONLY


class TestReferenceSearches:
    # the reference searches of oracle_reference.py: local_box_best, the
    # box search criterion 6 refines each solve answer with, and
    # unreduced_best, the search that confirms the full-power reductions
    center = PowerAllocation(alpha1=0.2, beta1=0.8, alpha2=0.3, beta2=0.7, pw1=0.1, pw2=0.2, beta3=0.7)

    def test_local_accepts_zero_radius_and_one_point(self):
        value = local_box_best(R3T5_GAINS, 0.75, self.center, 0.0, 1)
        assert math.isfinite(value)
        # and a zero budget, where every rate is 0
        for mu in (0.0, 0.25, 0.5, 0.75, 1.0):
            for radius in (0.0, 0.3):
                assert local_box_best(replace(R3T5_GAINS, p=0.0), mu, self.center, radius, 9) == 0.0

    @pytest.mark.parametrize("alpha1, edge", [(5.0, 1.25), (-5.0, -0.25)])
    def test_local_box_is_clipped_to_the_budget(self, alpha1, edge):
        # a center past p + radius (or below -radius) searches the budget's
        # end, not alpha1 > p (a negative beta1) or alpha1 < 0
        far = replace(self.center, alpha1=alpha1)
        near = replace(self.center, alpha1=edge)
        got = local_box_best(R3T5_GAINS, 0.75, far, 0.25, 9)
        assert math.isfinite(got)
        assert got == local_box_best(R3T5_GAINS, 0.75, near, 0.25, 9)

    def test_audit_matches_the_full_relay_meshgrid(self):
        # the unreduced reference against every (user-1 split, user-2
        # split) pair over the relay triples the cube mask keeps
        g, step = R3T5_GAINS, 0.25
        p = g.p
        levels = oracle._levels(p, step)
        pa, pb = oracle._simplex_pairs(levels, p)
        q1g, q2g, b3g = np.meshgrid(levels, levels, levels, indexing="ij")
        mask = q1g + q2g + b3g <= p * (1.0 + 1e-12)
        q1t, q2t, b3t = q1g[mask], q2g[mask], b3g[mask]
        best = -math.inf
        for a1, b1 in zip(pa, pb):
            for a2, b2 in zip(pa, pb):
                ok = ((q1t <= 0.0) | (a1 > 0.0)) & ((q2t <= 0.0) | (a2 > 0.0))
                k = int(ok.sum())
                if k == 0:
                    continue
                r1a, r2a, r1b, r2b = corner_rates(
                    g, np.full(k, a1), np.full(k, b1), np.full(k, a2), np.full(k, b2),
                    q1t[ok], q2t[ok], b3t[ok])
                best = max(best, float(np.max(0.75 * r1a + 0.25 * r2a)),
                           float(np.max(0.75 * r1b + 0.25 * r2b)))
        assert unreduced_best(g, 0.75, levels, p) == best


def test_oracle_imports_only_the_rate_formulas():
    """The oracle checks the solver, so it must not depend on it: of twrc's
    modules it may import only ``channel``, ``errors`` and ``rate_region``."""
    tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 1:
            # "from .x import y" or "from . import x"
            modules.update([f"twrc.{node.module}"] if node.module else
                           (f"twrc.{a.name}" for a in node.names))
        elif isinstance(node, ast.ImportFrom):
            modules.add(node.module)
    twrc_modules = {m for m in modules if m == "twrc" or m.startswith("twrc.")}
    assert twrc_modules <= {"twrc.channel", "twrc.errors", "twrc.rate_region"}, twrc_modules
