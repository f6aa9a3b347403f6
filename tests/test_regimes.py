import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from twrc import (
    LinkGains,
    Regime,
    SideConditionError,
    TECHNIQUE_TABLE,
    Technique,
    ValidationError,
    assignment_for_gains,
    classify,
    technique_lookup,
)

from helpers import R2T5_GAINS, R3T5_GAINS, R_CELLS, T_CELLS, random_gains, sample_cell


class TestClassify:
    def test_showcase_gains_cell(self):
        reg = classify(R3T5_GAINS)
        assert reg.cell == ("R3", "T5")
        assert reg.side_condition_holds

    def test_zero_relay_links_fall_in_first_cell(self):
        g = LinkGains(g12=0.5, g21=0.5, g1r=0.5, gr1=0.0, g2r=0.5, gr2=0.0, p=1.0)
        reg = classify(g)
        assert reg.cell == ("R1", "T1")

    def test_documented_r2t5_instance(self):
        reg = classify(R2T5_GAINS)
        assert reg.cell == ("R2", "T5")
        assert reg.side_condition_holds

    def test_r_boundaries_closed_on_the_right(self):
        base = dict(g21=0.4, g2r=0.3, g12=0.2, g1r=0.6, gr2=0.1, p=1.0)
        at_direct = classify(LinkGains(gr1=0.4, **base))
        assert at_direct.r_index == "R1"
        just_above = classify(LinkGains(gr1=0.4 + 1e-9, **base))
        assert just_above.r_index == "R2"
        at_sum = classify(LinkGains(gr1=0.5, **base))  # 0.16 + 0.09 = 0.25
        assert at_sum.r_index == "R2"
        assert classify(LinkGains(gr1=0.5 + 1e-9, **base)).r_index == "R3"

    def test_t_boundaries_closed_on_the_right(self):
        base = dict(g21=0.5, g2r=0.5, gr1=1.0, g12=0.2, g1r=0.6, p=1.0)
        scale = 1.0 + 1.0  # 1 + gr1^2 * p
        t1_edge = classify(LinkGains(gr2=0.2, **base))
        assert t1_edge.t_index == "T1"
        t2_edge = classify(LinkGains(gr2=math.sqrt(0.04 * scale), **base))
        assert t2_edge.t_index == "T2"
        t3_edge = classify(LinkGains(gr2=math.sqrt(0.04 + 0.36), **base))
        assert t3_edge.t_index == "T3"
        t4_edge = classify(LinkGains(gr2=math.sqrt((0.04 + 0.36) * scale), **base))
        assert t4_edge.t_index == "T4"
        beyond = classify(LinkGains(gr2=math.sqrt((0.04 + 0.36) * scale) + 1e-9, **base))
        assert beyond.t_index == "T5"

    def test_side_condition_flag(self):
        holding = classify(R3T5_GAINS)
        assert holding.side_condition_holds
        # strong direct link, weak coherent link: thresholds unordered
        failing = classify(
            LinkGains(g12=1.0, g21=0.5, g1r=0.1, gr1=1.0, g2r=0.5, gr2=0.5, p=1.0)
        )
        assert not failing.side_condition_holds

    def test_serialization_shape(self):
        reg = classify(R3T5_GAINS)
        assert reg.to_dict() == {"r": "R3", "t": "T5", "side_condition": True}


class TestTechniqueTable:
    def test_has_all_15_cells(self):
        assert set(TECHNIQUE_TABLE) == {(r, t) for r in R_CELLS for t in T_CELLS}

    def test_documented_entries(self):
        assert TECHNIQUE_TABLE[("R2", "T5")] == (Technique.IND, Technique.BM)
        assert TECHNIQUE_TABLE[("R1", "T1")] == (Technique.DT, Technique.DT)
        assert TECHNIQUE_TABLE[("R3", "T4")] == (Technique.BOTH, Technique.BOTH)

    def test_technique_prints_its_label(self):
        assert str(Technique.IND) == f"{Technique.IND}" == "Ind"

    def test_user2_technique_never_regresses_along_rows(self):
        rank = {Technique.DT: 0, Technique.IND: 1, Technique.BM: 2, Technique.BOTH: 2}
        for r in R_CELLS:
            ranks = [rank[TECHNIQUE_TABLE[(r, t)][1]] for t in T_CELLS]
            assert ranks == sorted(ranks), f"row {r} regresses: {ranks}"


class TestTechniqueLookup:
    def test_user1_priority_uses_table_directly(self):
        dec = technique_lookup(Regime("R2", "T5", True), 0.75)
        assert dec.assignment.user1 is Technique.IND
        assert dec.assignment.user2 is Technique.BM
        assert not dec.ambiguous

    def test_user2_priority_swaps_users_of_swapped_cell(self):
        swapped_reg = Regime("R1", "T4", True)
        dec = technique_lookup(Regime("R3", "T2", True), 0.25, swapped_reg)
        # swapped-gain cell (R1,T4) reads (DT, BM); users then exchange
        assert dec.assignment.user1 is Technique.BM
        assert dec.assignment.user2 is Technique.DT

    def test_equal_weights_return_both_orientations(self):
        dec = technique_lookup(Regime("R1", "T2", True), 0.5, Regime("R2", "T1", True))
        assert dec.ambiguous
        assert dec.assignment.user1 is Technique.DT
        assert dec.alternate is not None

    def test_low_weight_requires_swapped_classification(self):
        with pytest.raises(ValidationError, match="swapped"):
            technique_lookup(Regime("R1", "T1", True), 0.25)

    def test_side_condition_failure_raises(self):
        with pytest.raises(SideConditionError, match="numeric"):
            technique_lookup(Regime("R1", "T1", False), 0.75)

    def test_rejects_mu_out_of_range(self):
        with pytest.raises(ValidationError):
            technique_lookup(Regime("R1", "T1", True), -0.1)

    @pytest.mark.parametrize("mu", ["0.5", None, math.nan, math.inf])
    def test_rejects_mu_that_is_not_a_finite_number(self, mu):
        with pytest.raises(ValidationError, match="mu"):
            technique_lookup(Regime("R1", "T1", True), mu, Regime("R1", "T1", True))


class TestAssignmentForGains:
    def test_showcase_gains_both_users_composite(self):
        dec = assignment_for_gains(R3T5_GAINS, 0.75)
        assert dec.assignment.user1 is Technique.BOTH
        assert dec.assignment.user2 is Technique.BOTH

    def test_transposition_symmetry_on_sampled_cells(self):
        rng = random.Random(17)
        for r in R_CELLS:
            for t in T_CELLS:
                g = sample_cell(rng, r, t)
                if not classify(g.swapped()).side_condition_holds:
                    continue
                direct = assignment_for_gains(g, 0.75).assignment
                mirrored = assignment_for_gains(g.swapped(), 0.25).assignment
                assert direct.user1 is mirrored.user2
                assert direct.user2 is mirrored.user1


@given(
    gr1=st.floats(min_value=0.0, max_value=3.0),
    gr2=st.floats(min_value=0.0, max_value=3.0),
    seed=st.integers(min_value=0, max_value=10 ** 6),
)
def test_classification_is_total_and_unique(gr1, gr2, seed):
    rng = random.Random(seed)
    base = random_gains(rng)
    g = LinkGains(g12=base.g12, g21=base.g21, g1r=base.g1r,
                  gr1=gr1, g2r=base.g2r, gr2=gr2, p=base.p)
    reg = classify(g)
    assert reg.r_index in R_CELLS
    assert reg.t_index in T_CELLS

    relay1, relay2 = gr1 ** 2, gr2 ** 2
    direct2, beam2 = g.g21 ** 2, g.g2r ** 2
    direct1, beam1 = g.g12 ** 2, g.g1r ** 2
    scale = 1.0 + relay1 * g.p
    r_expected = ("R1" if relay1 <= direct2
                  else "R2" if relay1 <= direct2 + beam2 else "R3")
    assert reg.r_index == r_expected
    if reg.side_condition_holds:
        # thresholds are ordered, so membership is unambiguous
        bounds = [direct1, direct1 * scale, direct1 + beam1,
                  (direct1 + beam1) * scale]
        t_expected = "T5"
        for label, upper in zip(("T1", "T2", "T3", "T4"), bounds):
            if relay2 <= upper:
                t_expected = label
                break
        assert reg.t_index == t_expected
