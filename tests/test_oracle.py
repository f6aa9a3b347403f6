import math
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from twrc import oracle
from twrc import (
    Geometry,
    GridCapError,
    LinkGains,
    PowerAllocation,
    SchemeRestriction,
    TECHNIQUE_TABLE,
    ValidationError,
    audit_grid_best,
    compute_constraints,
    gains_from_geometry,
    grid_best,
    grid_region,
    hull_contains,
    hull_exceeds,
    local_grid_best,
    regime_map,
    relay_power_profile,
    solve,
    validate_allocation,
)

from helpers import MAP_GEOMETRY, R3T5_GAINS, random_gains


@pytest.fixture(scope="module")
def showcase_hulls():
    return {
        mode: grid_region(R3T5_GAINS, step=0.05, restriction=mode)
        for mode in SchemeRestriction
    }


class TestGridRegion:
    def test_zero_power_hull_is_origin(self):
        g = LinkGains(g12=0.5, g21=0.5, g1r=0.5, gr1=0.5, g2r=0.5, gr2=0.5, p=0.0)
        hull = grid_region(g, step=0.05)
        assert all(v.r1 == 0.0 and v.r2 == 0.0 for v in hull.vertices)

    def test_vertices_trace_a_staircase(self, showcase_hulls):
        hull = showcase_hulls[SchemeRestriction.COMPOSITE]
        for a, b in zip(hull.vertices, hull.vertices[1:]):
            assert b.r1 >= a.r1
            assert b.r2 <= a.r2
        assert hull.vertices[0].r1 == 0.0
        assert hull.vertices[-1].r2 == 0.0

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

    def test_grid_cap_enforced_by_argument(self):
        with pytest.raises(GridCapError, match="cap"):
            grid_region(R3T5_GAINS, step=0.05, cap=100)

    def test_grid_cap_enforced_by_environment(self, monkeypatch):
        monkeypatch.setenv("TWRC_GRID_CAP", "50")
        with pytest.raises(GridCapError, match="TWRC_GRID_CAP"):
            grid_region(R3T5_GAINS, step=0.05)

    def test_cap_error_message_counts_evaluations(self):
        with pytest.raises(GridCapError, match=r"\d+ evaluations"):
            grid_region(R3T5_GAINS, step=0.05, cap=10)


class TestContainment:
    def test_reflexive(self, showcase_hulls):
        comp = showcase_hulls[SchemeRestriction.COMPOSITE]
        assert hull_contains(comp, comp, slack=0.0)

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


class TestGridBest:
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
            local = local_grid_best(g, 0.75, res.allocation, radius=0.02 * g.p)
            assert local <= res.weighted_sum + 1e-6

    def test_unreduced_audit_grid_confirms_full_power_reduction(self):
        rng = random.Random(61)
        for _ in range(2):
            g = random_gains(rng)
            res = solve(g, 0.75)
            audit = audit_grid_best(g, 0.75, step=g.p / 8)
            assert audit <= res.weighted_sum + 1e-9

    def test_mu_validation(self):
        with pytest.raises(ValidationError, match="mu"):
            grid_best(R3T5_GAINS, (0.5, 1.2), step=0.1)

    def test_grid_cap_counts_the_full_power_face(self):
        # step p/4: 5 levels per user split, 15 relay simplex pairs
        count = 5 * 5 * 15
        with pytest.raises(GridCapError, match=rf"{count} evaluations"):
            grid_best(R3T5_GAINS, (0.5,), step=0.25, cap=count - 1)
        assert len(grid_best(R3T5_GAINS, (0.5,), step=0.25, cap=count)) == 1


GRID_BEST_MUS = (0.0, 0.25, 0.5, 0.75, 1.0)


def unpruned_grid_best(g, mus, step):
    """Best weighted sum over every composite-lattice batch and both
    pentagon corners, for every weight."""
    p = g.p
    levels = oracle._levels(p, step)
    best = [-math.inf] * len(mus)
    for a1, a2, q1, q2, b3 in oracle._candidate_batches(SchemeRestriction.COMPOSITE, levels, p):
        if len(a1) == 0:
            continue
        r1a, r2a, r1b, r2b = oracle._corner_rates(g, a1, p - a1, a2, p - a2, q1, q2, b3)
        for k, mu in enumerate(mus):
            wa = np.max(mu * r1a + (1.0 - mu) * r2a)
            wb = np.max(mu * r1b + (1.0 - mu) * r2b)
            best[k] = max(best[k], float(wa), float(wb))
    return best


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


class TestLocalAndAuditValidation:
    center = PowerAllocation(alpha1=0.2, beta1=0.8, alpha2=0.3, beta2=0.7, pw1=0.1, pw2=0.2, beta3=0.7)

    @pytest.mark.parametrize("mu", [-0.1, 1.5, math.nan])
    def test_local_rejects_mu_outside_unit_interval(self, mu):
        with pytest.raises(ValidationError, match="mu"):
            local_grid_best(R3T5_GAINS, mu, self.center, radius=0.02)

    @pytest.mark.parametrize("radius", [-0.5, math.nan, math.inf])
    def test_local_rejects_bad_radius(self, radius):
        with pytest.raises(ValidationError, match="radius"):
            local_grid_best(R3T5_GAINS, 0.75, self.center, radius=radius)

    @pytest.mark.parametrize("points", [0, -3, 2.5])
    def test_local_rejects_bad_points_per_axis(self, points):
        with pytest.raises(ValidationError, match="points_per_axis"):
            local_grid_best(R3T5_GAINS, 0.75, self.center, radius=0.02, points_per_axis=points)

    def test_local_accepts_zero_radius_and_one_point(self):
        value = local_grid_best(R3T5_GAINS, 0.75, self.center, radius=0.0, points_per_axis=1)
        assert math.isfinite(value)

    @pytest.mark.parametrize("mu", [-0.1, 1.5, math.nan])
    def test_audit_rejects_mu_outside_unit_interval(self, mu):
        with pytest.raises(ValidationError, match="mu"):
            audit_grid_best(R3T5_GAINS, mu, step=0.25)
