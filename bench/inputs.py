"""Seeded inputs for the three workloads.

Every input is a plain dict of the six amplitudes plus ``p``; the
workloads turn them into ``LinkGains``. The same seed gives the same
inputs. Ranges follow the tier-1 samplers: log-uniform amplitudes in
[0.05, 2], squared cross gains log-uniform in [0.02, 1], budgets
uniform in [0.5, 2].
"""

from __future__ import annotations

import math
import random

import paper

R_CELLS = ("R1", "R2", "R3")
T_CELLS = ("T1", "T2", "T3", "T4", "T5")

# Weights every seeded draw is solved at. At interior weights the solver
# falls below the lattice on a small share of draws (about 0.1% at
# 1/4 and 3/4, 0.5% at 1/2), which would make the failed count depend on
# the seed; those weights are covered by the fixed instances in PINNED.
SEEDED_MUS = (0.0, 1.0)

# (gains, mu) where solve() stalls on the face where one user's repeated
# power and its coherent relay power are both zero, and ends below a
# 25-level lattice on the relay face. A to C are at mu = 1/2; D to F were
# found among seeded draws (seed, index into solve_instances(seed, 2, 15))
# and fail with one BLAS thread and with two. They stay in every solve
# round and count as failed operations.
PINNED = {
    # (R3,T2), short by 4.5e-3 bits
    "A": ({"g12": 1.7506298023965636, "g21": 0.7065018674621684, "g1r": 0.12569960453950946,
           "gr1": 1.437100152064607, "g2r": 0.05223671591704307, "gr2": 1.9130121528748816,
           "p": 1.1199586318517318}, 0.5),
    # (R3,T2), short by 3.5e-3 bits
    "B": ({"g12": 0.36222251188981536, "g21": 0.45907648207736995, "g1r": 0.10478509376878575,
           "gr1": 0.7259480069987246, "g2r": 0.09356936136639868, "gr2": 0.4045092985833885,
           "p": 1.9860957598352251}, 0.5),
    # (R3,T3), short by 3.7e-3 bits
    "C": ({"g12": 0.19745311915884284, "g21": 0.40843089696236173, "g1r": 0.2363762602350522,
           "gr1": 0.6959034816501953, "g2r": 0.19782103274329274, "gr2": 0.2787125883927931,
           "p": 1.9505910281067562}, 0.5),
    # seed 7, index 28: (R3,T5), short by 2.5e-4 bits
    "D": ({"g21": 0.6553252277041374, "g2r": 0.8175710392960996, "gr1": 1.179884501927189,
           "g12": 0.19130005212328308, "g1r": 0.5739156901869317, "gr2": 1.7556517251833983,
           "p": 1.4903847727870563}, 0.25),
    # seed 67, index 25: (R3,T3), short by 2.6e-3 bits
    "E": ({"g21": 0.9078089861798654, "g2r": 0.1422032672107268, "gr1": 1.2807715002120768,
           "g12": 0.3458129661644031, "g1r": 0.5299014436404447, "gr2": 0.5026949899559745,
           "p": 0.6240799077189437}, 0.75),
    # seed 56, index 29: (R3,T5), short by 2.5e-3 bits
    "F": ({"g21": 0.46386218722919, "g2r": 0.18016665729633236, "gr1": 0.5190402179018537,
           "g12": 0.48119075788450244, "g1r": 0.945712081205875, "gr2": 1.473562986776211,
           "p": 0.6699548139686371}, 0.75),
}

# Geometry for the sweeps: users 20 m apart, map bounds and segment as
# in the CLI defaults. Exponents are drawn from these ranges; on all of
# them the far map corners are DT/DT, the midpoint relay is Ind/Ind and
# every profile sample is at full power or at the closed-form minimum.
GAMMA1_RANGE = (2.0, 2.6)
GAMMA2_RANGE = (3.0, 4.0)


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def log_uniform_gains(rng: random.Random) -> dict:
    """Amplitudes log-uniform in [0.05, 2], p uniform in [0.5, 2]."""
    g = {name: _log_uniform(rng, 0.05, 2.0) for name in paper.GAIN_NAMES}
    g["p"] = rng.uniform(0.5, 2.0)
    return g


def cell_gains(rng: random.Random, r: str, t: str, margin: float = 0.05) -> dict:
    """Gains strictly inside cell (r, t) with the side condition holding.

    Squared cross gains are log-uniform in [0.02, 1]; the squared relay
    gains sit at an interior fraction of their target interval. Draws
    whose T2/T4 interval is too thin, or whose side condition comes
    within 2% of failing, are redrawn.
    """
    for _ in range(10000):
        c, d, e, f = (_log_uniform(rng, 0.02, 1.0) for _ in range(4))
        p = rng.uniform(0.5, 2.0)
        u = rng.uniform(margin, 1.0 - margin)
        a = {"R1": u * c, "R2": c + u * d, "R3": (c + d) * (1.0 + 1.5 * u)}[r]
        s = 1.0 + a * p
        if (t in ("T2", "T4") and s - 1.0 < 0.02) or e * s > 0.98 * (e + f):
            continue
        v = rng.uniform(margin, 1.0 - margin)
        b = {
            "T1": v * e,
            "T2": e + v * e * (s - 1.0),
            "T3": e * s + v * (e + f - e * s),
            "T4": (e + f) + v * (e + f) * (s - 1.0),
            "T5": (e + f) * s * (1.0 + margin + 2.0 * v),
        }[t]
        g = {"g21": math.sqrt(c), "g2r": math.sqrt(d), "gr1": math.sqrt(a),
             "g12": math.sqrt(e), "g1r": math.sqrt(f), "gr2": math.sqrt(b), "p": p}
        if paper.cell(g) == (r, t, True):
            return g
    raise RuntimeError(f"could not draw gains inside cell ({r},{t})")


def solve_instances(seed: int, per_cell: int, loose: int) -> list[dict]:
    """``per_cell`` draws in each of the 15 cells, then ``loose`` log-uniform draws."""
    rng = random.Random(seed)
    draws = [cell_gains(rng, r, t) for r in R_CELLS for t in T_CELLS for _ in range(per_cell)]
    draws += [log_uniform_gains(rng) for _ in range(loose)]
    return draws


def oracle_instances(seed: int, count: int) -> list[dict]:
    rng = random.Random(seed ^ 0x5EED)
    return [log_uniform_gains(rng) for _ in range(count)]


def sweep_exponents(seed: int) -> tuple[float, float]:
    rng = random.Random(seed ^ 0x6A33)
    return rng.uniform(*GAMMA1_RANGE), rng.uniform(*GAMMA2_RANGE)


def cli_gains(seed: int) -> dict:
    """Inline gains for the CLI children, rounded so the flags are short."""
    rng = random.Random(seed ^ 0xC11)
    return {k: round(v, 6) for k, v in log_uniform_gains(rng).items()}
