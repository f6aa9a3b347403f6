"""Self-tests for the benchmark's formulas and checks.

    python3 -m unittest discover -s bench -p 'test_*.py'

The formulas must reproduce hand values, real twrc outputs must pass
every check, and each check must reject a corrupted copy of them.
"""

from __future__ import annotations

import copy
import math
import sys
import unittest
from unittest import mock
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import twrc  # noqa: E402

import calib  # noqa: E402
import checks  # noqa: E402
import paper  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

R3T5 = {"g21": 0.25, "gr1": 1.0, "g12": 0.25, "gr2": 1.0, "g1r": 0.5, "g2r": 0.7, "p": 1.0}
R2T3 = {"g21": 0.2, "g2r": 0.5, "gr1": 0.3, "g12": 0.2, "g1r": 0.5, "gr2": 0.4, "p": 1.0}
GEOMETRY = {"user1": (0.0, 0.0), "user2": (20.0, 0.0), "gamma1": 2.3, "gamma2": 3.6}


def solve_dict(g: dict, mu: float) -> dict:
    return twrc.solve(twrc.LinkGains(**g), mu).to_dict()


class FormulaTest(unittest.TestCase):
    def test_direct_only_corner(self):
        j = paper.bounds(R3T5, 0.0, 1.0, 0.0, 1.0, 0.0, 0.0, 0.0)
        self.assertEqual(paper.cell(R3T5), ("R3", "T5", True))
        self.assertAlmostEqual(float(j[1]), math.log2(1.0625), delta=1e-15)
        self.assertAlmostEqual(float(j[3]), math.log2(1.0625), delta=1e-15)

    def test_r2t3_minimum_relay_power(self):
        self.assertEqual(paper.cell(R2T3), ("R2", "T3", True))
        self.assertTrue(paper.in_closed_form_region(R2T3))
        # first term dominates: (0.16 - 0.04 * 1.09) / (0.25 * 1.09)
        self.assertAlmostEqual(paper.min_relay_power(R2T3), 0.1164 / 0.2725, delta=1e-15)
        self.assertAlmostEqual(paper.min_relay_power(R2T3), 0.42715596330275235, delta=1e-15)

    def test_lattice_count_matches_levels(self):
        self.assertEqual(workloads.lattice_points(2), 2 * 9 * 6 + 3 + 2 * 9)

    def test_face_lattice_includes_direct_only_point(self):
        best = paper.lattice_best(paper.face_bounds(R3T5, 5), 1.0)
        self.assertGreaterEqual(best, math.log2(1.0625))

    def test_calls_scale_by_the_samples_on_either_side(self):
        rnd = workloads.Round("python")
        rnd.calls = [("solve", 1.0), ("solve", 1.0), ("solve", 3.0)]
        ref = calib.REF_S["python"]
        rnd.cal = [(0, 2 * ref), (2, 2 * ref), (3, 4 * ref)]
        self.assertEqual(rnd.scaled(), [("solve", 0.5), ("solve", 0.5), ("solve", 1.0)])
        self.assertEqual(workloads.typical_round_seconds([rnd, rnd]), 2.0)

    def test_missing_trace_target_is_reported(self):
        tracer = tracing.Tracer()
        targets = (("twrc.optimizer", "solve", "optimizer.solve"), ("twrc.optimizer", "no_such_name", "x"))
        with mock.patch.object(tracing, "TARGETS", targets):
            tracer.install()
            tracer.uninstall()
        self.assertEqual(tracer.missing, {"twrc.optimizer.no_such_name"})
        self.assertIs(twrc.optimizer.solve, twrc.solve)


class SolveCheckTest(unittest.TestCase):
    def setUp(self):
        self.res = solve_dict(R3T5, 0.75)
        self.best = paper.lattice_best(paper.face_bounds(R3T5, 13), 0.75)

    def problems(self, res):
        return checks.solve_problems(R3T5, 0.75, res, self.best)

    def test_real_output_passes(self):
        self.assertEqual(self.problems(self.res), [])

    def test_closed_form_output_passes(self):
        res = solve_dict(R2T3, 0.75)
        self.assertEqual(res["method"], "closed-form-r2t34")
        best = paper.lattice_best(paper.face_bounds(R2T3, 13), 0.75)
        self.assertEqual(checks.solve_problems(R2T3, 0.75, res, best), [])

    def test_rates_outside_pentagon(self):
        bad = copy.deepcopy(self.res)
        bad["rates"]["r1"] += 1e-3
        bad["weighted_sum"] = 0.75 * bad["rates"]["r1"] + 0.25 * bad["rates"]["r2"]
        self.assertTrue(any("above" in p for p in self.problems(bad)))

    def test_budget_overrun(self):
        bad = copy.deepcopy(self.res)
        bad["allocation"]["beta3"] += 1e-6
        self.assertTrue(any("budget overrun" in p for p in self.problems(bad)))

    def test_user_below_full_power(self):
        bad = copy.deepcopy(self.res)
        bad["allocation"]["beta1"] -= 1e-6
        self.assertTrue(any("below full power" in p for p in self.problems(bad)))

    def test_weighted_sum_mismatch(self):
        bad = copy.deepcopy(self.res)
        bad["weighted_sum"] += 1e-6
        self.assertTrue(any("weighted_sum" in p for p in self.problems(bad)))

    def test_shortfall_is_its_own_problem(self):
        problems = checks.solve_problems(R3T5, 0.75, self.res, self.res["weighted_sum"] + 1e-6)
        self.assertEqual(len(problems), 1)
        self.assertTrue(problems[0].startswith(checks.SHORTFALL))

    def test_closed_form_outside_its_cells(self):
        bad = copy.deepcopy(self.res)
        bad["method"] = "closed-form-r2t34"
        self.assertTrue(any("closed form taken" in p for p in self.problems(bad)))


class OracleCheckTest(unittest.TestCase):
    def test_grid_best_bounds(self):
        mus = (0.25, 1.0)
        values = twrc.grid_best(twrc.LinkGains(**R3T5), mus, step=0.125)
        coarse = [paper.lattice_best(paper.face_bounds(R3T5, 5), mu) for mu in mus]
        self.assertEqual(checks.grid_best_problems(R3T5, mus, values, coarse), [])
        self.assertTrue(checks.grid_best_problems(R3T5, mus, [v - 1e-3 for v in values], coarse))
        self.assertTrue(checks.grid_best_problems(R3T5, mus, [v + 10.0 for v in values], coarse))

    def test_hull(self):
        hull = twrc.grid_region(twrc.LinkGains(**R3T5), step=0.125)
        vertices = [(v.r1, v.r2) for v in hull.vertices]
        sources = [s.to_dict() for s in hull.sources]
        max_sum = paper.lattice_max_sum(paper.face_bounds(R3T5, 9))
        self.assertEqual(checks.hull_problems(R3T5, vertices, sources, hull.max_sum_rate, max_sum), [])
        moved = list(vertices)
        k = len(moved) // 2
        moved[k] = (moved[k][0], moved[k][1] + 1e-3)
        self.assertTrue(checks.hull_problems(R3T5, moved, sources, hull.max_sum_rate, max_sum))
        overrun = copy.deepcopy(sources)
        overrun[k]["beta3"] += 1e-6
        self.assertTrue(any("budget overrun" in p for p in
                            checks.hull_problems(R3T5, vertices, overrun, hull.max_sum_rate, max_sum)))
        self.assertTrue(checks.hull_problems(R3T5, vertices, sources, hull.max_sum_rate + 1e-6, max_sum))


class SweepCheckTest(unittest.TestCase):
    def test_map(self):
        geom = twrc.Geometry(gamma1=GEOMETRY["gamma1"], gamma2=GEOMETRY["gamma2"])
        rows = workloads.map_rows(twrc.regime_map(geom, resolution=61, mu=0.75, p=1.0))
        bounds = (-20.0, 40.0, -30.0, 30.0)
        self.assertEqual(checks.map_problems(GEOMETRY, bounds, 61, 1.0, rows), [])
        swapped = list(rows)
        k = next(n for n, r in enumerate(rows) if r[5] != r[6] and r[7] == "table")
        swapped[k] = rows[k][:5] + (rows[k][6], rows[k][5], rows[k][7])
        self.assertTrue(checks.map_problems(GEOMETRY, bounds, 61, 1.0, swapped))

    def test_profile(self):
        geom = twrc.Geometry(gamma1=GEOMETRY["gamma1"], gamma2=GEOMETRY["gamma2"])
        points = [(pt.x, pt.y, pt.beta3) for pt in twrc.relay_power_profile(geom, samples=41, mu=0.75, p=1.0)]
        self.assertEqual(checks.profile_problems(GEOMETRY, 41, 1.0, points), [])
        above = list(points)
        above[3] = (points[3][0], points[3][1], 1.0 + 1e-6)
        self.assertTrue(checks.profile_problems(GEOMETRY, 41, 1.0, above))
        k = next(n for n, pt in enumerate(points) if pt[2] < 1.0)
        lowered = list(points)
        lowered[k] = (points[k][0], points[k][1], points[k][2] * 0.9)
        self.assertTrue(checks.profile_problems(GEOMETRY, 41, 1.0, lowered))

    def test_classify(self):
        g = dict(R3T5)
        payload = {"regime": {"r": "R3", "t": "T5", "side_condition": True}, "mu": 0.75,
                   "assignment": {"user1": "Both", "user2": "Both"}, "source": "table"}
        self.assertEqual(checks.classify_problems(g, 0.75, payload), [])
        payload["assignment"] = {"user1": "BM", "user2": "Both"}
        self.assertTrue(checks.classify_problems(g, 0.75, payload))


if __name__ == "__main__":
    unittest.main()
