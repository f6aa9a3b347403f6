"""The three workloads: what one round calls, and how its outputs are checked.

A round is a fixed list of operations on the seed's inputs; a run
repeats whole rounds, so every run attempts the same mix. ``run_round``
times each call and keeps its output; ``check`` runs afterwards, outside
the timed region, and returns the failed operations and any problem
that makes the run incorrect.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calib
import checks
import inputs
import paper

ORACLE_MUS = (0.25, 0.5, 0.75, 1.0)
# Lattice steps are fixed fractions of p, so every call evaluates the
# same number of points whatever the gains.
GRID_BEST_DIVISIONS = 24
GRID_REGION_DIVISIONS = 16
# The solve checks compare against a lattice with this many powers per axis.
CHECK_LEVELS = 25
# Calibration samples are taken every this many solve calls and oracle
# draws (about every 0.15 s); the sweeps take one before every call.
SOLVE_CAL_EVERY = 24
ORACLE_CAL_EVERY = 4

SWEEP_MU = 0.75
SWEEP_P = 1.0
MAP_RESOLUTION = 61
MAP_BOUNDS = (-20.0, 40.0, -30.0, 30.0)
PROFILE_SAMPLES = 41
CLI_CLASSIFY_MU = 0.75
CLI_SOLVE_MU = 1.0


def lattice_points(divisions: int) -> int:
    """Candidates grid_best evaluates on the composite lattice with step p/divisions:
    both relay faces over a1 x a2 x relay simplex, the bin-only line and the
    two mixed planes."""
    n = divisions + 1
    pairs = n * (n + 1) // 2
    return 2 * n * n * pairs + n + 2 * n * n


class Round:
    """Timings and outputs of one round.

    ``calls`` holds (kind, seconds) for each call in call order, so the
    k-th entry of every round times the same operation on the same input.
    ``cal`` holds (calls made so far, seconds) for each sample of the
    workload's calibration kernel (see ``calib``); a round starts and ends
    with one, and the workloads take more in between.
    """

    def __init__(self, kernel: str):
        self.kernel = kernel
        self.calls: list[tuple[str, float]] = []
        self.cal: list[tuple[int, float]] = []
        self.outputs: list[tuple] = []
        self.seconds = 0.0
        self.traced = False

    def timed(self, kind: str, fn, *args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        self.calls.append((kind, time.perf_counter() - t0))
        return out

    def calibrate(self) -> None:
        self.cal.append((len(self.calls), calib.sample(self.kernel)))

    def scaled(self) -> list[tuple[str, float]]:
        """(kind, seconds at the reference speed) per call: each call is
        scaled by the mean of the calibration samples on either side."""
        out = []
        for (start, before), (end, after) in zip(self.cal, self.cal[1:]):
            factor = calib.REF_S[self.kernel] / (0.5 * (before + after))
            out += [(kind, seconds * factor) for kind, seconds in self.calls[start:end]]
        return out


def typical_round_seconds(rounds: list[Round]) -> float:
    """Sum over a round's calls of each call's median scaled time across rounds.

    A stall in one call of one round moves one sample of one median
    instead of that round's whole total.
    """
    per_call = zip(*([seconds for _, seconds in r.scaled()] for r in rounds))
    return sum(statistics.median(times) for times in per_call)


def call_seconds(rounds: list[Round], kind: str) -> list[float]:
    """Scaled times of every call of one kind."""
    return [seconds for r in rounds for k, seconds in r.scaled() if k == kind]


class SolveCells:
    """solve(g, mu) with the default method over cell and log-uniform draws."""

    name = "solve-cells"
    kernel = "python"

    def __init__(self, twrc, seed: int):
        self.twrc = twrc
        draws = inputs.solve_instances(seed, per_cell=10, loose=45)
        self.ops = [(f"draw {k}", g, mu) for k, g in enumerate(draws) for mu in inputs.SEEDED_MUS]
        self.ops += [(f"pinned {name}", g, mu) for name, (g, mu) in inputs.PINNED.items()]
        self._gains = {key: twrc.LinkGains(**g) for key, g, _ in self.ops}
        self._best = {}

    def first_call(self) -> dict:
        _, g, mu = self.ops[0]
        return {"call": "solve", "gains": g, "mu": mu}

    def run_round(self, rnd: Round, tracer) -> None:
        solve = self.twrc.solve
        for k, (key, _, mu) in enumerate(self.ops):
            if k and k % SOLVE_CAL_EVERY == 0:
                rnd.calibrate()
            res = rnd.timed("solve", solve, self._gains[key], mu)
            rnd.outputs.append((key, mu, res))

    def lattice_best(self, key: str, g: dict, mu: float) -> float:
        """Lattice best at every weight the draw is solved at; the lattice
        (about 8 MB at 25 levels) is built once per draw and dropped."""
        if (key, mu) not in self._best:
            face = paper.face_bounds(g, CHECK_LEVELS)
            for m in {m for k, _, m in self.ops if k == key}:
                self._best[(key, m)] = paper.lattice_best(face, m)
        return self._best[(key, mu)]

    def check(self, rounds: list[Round]):
        gains = {key: g for key, g, _ in self.ops}
        for rnd in rounds:
            for key, mu, res in rnd.outputs:
                best = self.lattice_best(key, gains[key], mu)
                yield f"solve {key} mu={mu}", checks.solve_problems(gains[key], mu, res.to_dict(), best)


class OracleLattice:
    """grid_best over four weights and a composite grid_region per draw."""

    name = "oracle-lattice"
    kernel = "numpy"

    def __init__(self, twrc, seed: int):
        self.twrc = twrc
        self.draws = inputs.oracle_instances(seed, count=32)
        self._gains = [twrc.LinkGains(**g) for g in self.draws]
        self._ref = {}

    def first_call(self) -> dict:
        g = self.draws[0]
        return {"call": "grid_best", "gains": g, "mus": list(ORACLE_MUS),
                "step": g["p"] / GRID_BEST_DIVISIONS}

    def run_round(self, rnd: Round, tracer) -> None:
        for k, g in enumerate(self._gains):
            if k and k % ORACLE_CAL_EVERY == 0:
                rnd.calibrate()
            best = rnd.timed("grid_best", self.twrc.grid_best, g, ORACLE_MUS, step=g.p / GRID_BEST_DIVISIONS)
            hull = rnd.timed("grid_region", self.twrc.grid_region, g, step=g.p / GRID_REGION_DIVISIONS)
            rnd.outputs.append((k, best, hull))

    def reference(self, k: int):
        """Coarser nested lattice best per weight, and the lattice maximum sum rate."""
        if k not in self._ref:
            g = self.draws[k]
            coarse = paper.face_bounds(g, GRID_BEST_DIVISIONS // 2 + 1)
            self._ref[k] = ([paper.lattice_best(coarse, mu) for mu in ORACLE_MUS],
                            paper.lattice_max_sum(paper.face_bounds(g, GRID_REGION_DIVISIONS + 1)))
        return self._ref[k]

    def check(self, rounds: list[Round]):
        for rnd in rounds:
            for k, best, hull in rnd.outputs:
                coarse, max_sum = self.reference(k)
                g = self.draws[k]
                yield f"grid_best draw {k}", checks.grid_best_problems(g, ORACLE_MUS, best, coarse)
                vertices = [(v.r1, v.r2) for v in hull.vertices]
                sources = [s.to_dict() for s in hull.sources]
                yield f"grid_region draw {k}", checks.hull_problems(g, vertices, sources, hull.max_sum_rate, max_sum)


class SweepsCli:
    """regime_map, relay_power_profile and cold CLI children on one geometry."""

    name = "sweeps-cli"
    kernel = "python"

    def __init__(self, twrc, seed: int, root: Path, env: dict):
        self.twrc = twrc
        self.root = root
        self.env = env
        gamma1, gamma2 = inputs.sweep_exponents(seed)
        self.geometry = {"user1": (0.0, 0.0), "user2": (20.0, 0.0), "gamma1": gamma1, "gamma2": gamma2}
        self.geom = twrc.Geometry(gamma1=gamma1, gamma2=gamma2)
        self.gains = inputs.cli_gains(seed)
        flags = []
        for name in paper.GAIN_NAMES:
            flags += [f"--{name}", repr(self.gains[name])]
        flags += ["--p", repr(self.gains["p"])]
        self.classify_argv = ["classify", *flags, "--mu", repr(CLI_CLASSIFY_MU)]
        self.solve_argv = ["solve", *flags, "--mu", repr(CLI_SOLVE_MU)]
        self._best = None

    def first_call(self) -> dict:
        return {"call": "regime_map", "gamma1": self.geometry["gamma1"], "gamma2": self.geometry["gamma2"],
                "resolution": MAP_RESOLUTION, "mu": SWEEP_MU, "p": SWEEP_P}

    def cli(self, argv: list[str]) -> tuple[int, bytes, bytes]:
        proc = subprocess.run([sys.executable, "-m", "twrc", *argv], cwd=self.root, env=self.env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=120)
        return proc.returncode, proc.stdout, proc.stderr

    def run_round(self, rnd: Round, tracer) -> None:
        twrc = self.twrc
        cells = rnd.timed("regime_map", twrc.regime_map, self.geom, bounds=MAP_BOUNDS,
                          resolution=MAP_RESOLUTION, mu=SWEEP_MU, p=SWEEP_P)
        rnd.calibrate()
        points = rnd.timed("relay_power_profile", twrc.relay_power_profile, self.geom,
                           samples=PROFILE_SAMPLES, mu=SWEEP_MU, p=SWEEP_P)
        outs = {}
        for kind, argv in (("cli_classify", self.classify_argv), ("cli_solve", self.solve_argv)):
            runs = []
            for _ in range(2):
                rnd.calibrate()
                with tracer.span(f"cli.{kind[4:]}"):
                    runs.append(rnd.timed(kind, self.cli, argv))
            outs[kind] = runs
        rnd.outputs.append((cells, points, outs))

    def check(self, rounds: list[Round]):
        for rnd in rounds:
            cells, points, outs = rnd.outputs[0]
            yield "regime_map", checks.map_problems(self.geometry, MAP_BOUNDS, MAP_RESOLUTION, SWEEP_P, map_rows(cells))
            yield "relay_power_profile", checks.profile_problems(
                self.geometry, PROFILE_SAMPLES, SWEEP_P, [(pt.x, pt.y, pt.beta3) for pt in points])
            for kind, runs in outs.items():
                for n, (code, out, err) in enumerate(runs):
                    yield f"{kind} child {n}", self.cli_problems(kind, code, out, err, runs[0][1])

    def cli_problems(self, kind: str, code: int, out: bytes, err: bytes, first: bytes) -> list[str]:
        if code != 0:
            return [f"exit code {code}: {err.decode(errors='replace').strip()[-300:]}"]
        if out != first:
            return ["stdout differs between two identical invocations"]
        payload = json.loads(out)
        g = self.gains
        if kind == "cli_classify":
            return checks.classify_problems(g, CLI_CLASSIFY_MU, payload)
        if self._best is None:
            self._best = paper.lattice_best(paper.face_bounds(g, CHECK_LEVELS), CLI_SOLVE_MU)
        problems = checks.solve_problems(g, CLI_SOLVE_MU, payload, self._best)
        r, t, side = paper.cell(g)
        reg = payload["regime"]
        if (reg["r"], reg["t"], reg["side_condition"]) != (r, t, side):
            problems.append(f"regime {reg} re-derives as ({r},{t},{side})")
        if not payload["full_power_ok"]:
            problems.append("full_power_ok is false")
        want = paper.min_relay_power(g) if paper.in_closed_form_region(g) else None
        have = payload["closed_form_beta3"]
        if (want is None) != (have is None) or (want is not None and abs(have - want) > 1e-9 * max(1.0, want)):
            problems.append(f"closed_form_beta3 = {have!r}, paper formula gives {want!r}")
        return problems


def map_rows(cells) -> list[tuple]:
    """``MapCell``s as the plain tuples ``checks.map_problems`` takes."""
    return [(c.x, c.y,
             None if c.regime is None else c.regime.r_index,
             None if c.regime is None else c.regime.t_index,
             None if c.regime is None else c.regime.side_condition_holds,
             None if c.assignment is None else c.assignment.user1.value,
             None if c.assignment is None else c.assignment.user2.value,
             c.source) for c in cells]


def make(name: str, twrc, seed: int, root: Path, env: dict):
    if name == SolveCells.name:
        return SolveCells(twrc, seed)
    if name == OracleLattice.name:
        return OracleLattice(twrc, seed)
    if name == SweepsCli.name:
        return SweepsCli(twrc, seed, root, env)
    raise ValueError(f"unknown workload {name!r}")


NAMES = (SolveCells.name, OracleLattice.name, SweepsCli.name)


def child_env(root: Path, out_dir: Path) -> dict:
    """Environment for child interpreters: this process's (thread-pinned)
    environment, twrc from the checkout's src/, and bytecode cached under
    the output directory."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONPYCACHEPREFIX"] = str(out_dir / "pycache")
    return env
