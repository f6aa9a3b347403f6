"""Checked benchmark for twrc: solve, the grid oracle, the sweeps and the CLI.

    python3 bench/run.py --workload solve-cells --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. twrc is imported from the checkout's
``src/``; the run stops with an error if it cannot be imported from
there. One process drives twrc in a closed loop (the next call starts
when the previous one returns), with at most one child process at a
time. Whole rounds of the workload's operations repeat until
``--seconds`` have passed; then every output is checked against the
formulas in ``paper.py``.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` rounds alternate between plain
and traced and the object carries the per-layer metrics. Results and
spans are written under ``.bench_out/`` in the checkout, nothing else.
"""

from __future__ import annotations

import os
import sys

# Pin BLAS and OpenMP to one thread before numpy loads, here and in every
# child: whether solve() falls short on a marginal draw depends on it.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
# Bytecode is cached under the output directory, not next to the sources;
# with the cache warm, imports cost what they cost a returning user.
sys.pycache_prefix = str(OUT / "pycache")
sys.dont_write_bytecode = False
# With a cache prefix, numpy's and scipy's bytecode is cached there too.
# Import everything once in a child first, so that compiling it on a
# checkout's first run does not count toward this process's peak RSS. A
# failure shows when twrc is imported below.
os.environ.pop("PYTHONDONTWRITEBYTECODE", None)
subprocess.run([sys.executable, "-c", "import twrc, scipy.optimize, checks, paper, tracing, workloads"],
               env=dict(os.environ, PYTHONPYCACHEPREFIX=sys.pycache_prefix,
                        PYTHONPATH=os.pathsep.join((str(ROOT / "src"), str(BENCH)))),
               stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

import calib  # noqa: E402
import checks  # noqa: E402
import probe  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_RUNS = 7
IMPORTTIME_RUNS = 3


def import_twrc():
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import twrc
    except ImportError as exc:
        raise SystemExit(f"error: cannot import twrc from {src}: {exc}")
    origin = Path(twrc.__file__).resolve()
    if src not in origin.parents:
        raise SystemExit(f"error: twrc was imported from {origin}, not from {src}")
    return twrc


def child(argv: list[str], env: dict) -> subprocess.CompletedProcess:
    proc = subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=120)
    if proc.returncode != 0:
        raise SystemExit(f"error: {' '.join(argv[:3])} exited {proc.returncode}: {proc.stderr[-500:]}")
    return proc


class SetupProbe:
    """Fresh interpreters that time ``import twrc`` plus the workload's first call.

    ``warm`` runs one untimed child so that bytecode and the OS file
    cache are warm, as they are for a user who has run twrc before.
    ``sample`` runs one timed child; the samples are spread between the
    measured rounds. Each child takes a sample of the ``python``
    calibration kernel before and after its timed part, and its time is
    scaled to the reference speed by their mean.
    """

    def __init__(self, wl, env: dict):
        self.argv = [sys.executable, str(BENCH / "probe.py"), json.dumps(wl.first_call())]
        self.env = env
        self.times: list[float] = []

    def warm(self) -> None:
        self._run()

    def sample(self) -> None:
        self.times.append(self._run())

    def _run(self) -> float:
        out = json.loads(child(self.argv, self.env).stdout)
        if (ROOT / "src").resolve() not in Path(out["twrc"]).resolve().parents:
            raise SystemExit(f"error: setup child imported twrc from {out['twrc']}")
        return out["setup_s"] * calib.REF_S["python"] / (0.5 * (out["cal_before_s"] + out["cal_after_s"]))


def import_seconds(env: dict) -> dict[str, float]:
    """Cumulative import time of twrc and scipy.optimize from ``-X importtime``."""
    argv = [sys.executable, "-X", "importtime", "-c", "import twrc"]
    child(argv, env)  # warm
    found: dict[str, list[float]] = {"twrc": [], "scipy.optimize": []}
    for _ in range(IMPORTTIME_RUNS):
        for line in child(argv, env).stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in found:
                found[parts[2].strip()].append(int(parts[1]) * 1e-6)
    return {"import.twrc_s": statistics.median(found["twrc"]),
            "import.scipy_optimize_s": statistics.median(found["scipy.optimize"])}


def measure(wl, seconds: float, tracer: tracing.Tracer, traced_rounds: bool,
            between: list) -> tuple[list[workloads.Round], float]:
    """Repeat whole rounds until ``seconds`` have passed.

    Before round k, ``between[k]`` runs untimed when there is one. With
    ``traced_rounds`` every second round runs with the tracer installed,
    and at least one plain and one traced round run. Also returns the
    peak resident size in MB after the first round, which does not grow
    with the number of rounds whose outputs are kept for the checks.
    """
    rounds = []
    peak_rss_mb = 0.0
    start = time.perf_counter()
    while True:
        if len(rounds) < len(between):
            between[len(rounds)]()
        traced = traced_rounds and len(rounds) % 2 == 1
        if traced:
            tracer.install()
        rnd = workloads.Round(wl.kernel)
        rnd.calibrate()
        t0 = time.perf_counter()
        with tracer.span("round"):
            wl.run_round(rnd, tracer)
        rnd.seconds = time.perf_counter() - t0
        rnd.calibrate()
        if traced:
            tracer.uninstall()
        rnd.traced = traced
        rounds.append(rnd)
        if len(rounds) == 1:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if time.perf_counter() - start >= seconds and (not traced_rounds or len(rounds) >= 2):
            return rounds, peak_rss_mb


def evaluate(wl, rounds) -> tuple[int, int, dict, list]:
    """Check every output: (attempted, failed, named shortfalls, other problems)."""
    attempted = failed = 0
    shortfalls: dict[str, str] = {}
    wrong = []
    for label, problems in wl.check(rounds):
        attempted += 1
        if not problems:
            continue
        failed += 1
        if all(p.startswith(checks.SHORTFALL) for p in problems):
            shortfalls[label] = problems[0]
        else:
            wrong.append((label, problems))
    return attempted, failed, shortfalls, wrong


def p50(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def p95(values: list[float]) -> float:
    """Nearest-rank 95th percentile, 0 when there are no values."""
    if not values:
        return 0.0
    return sorted(values)[math.ceil(0.95 * len(values)) - 1]


def layer_metrics(wl, rounds, tracer: tracing.Tracer, imports: dict) -> dict[str, tuple[float, str]]:
    plain = [r for r in rounds if not r.traced]
    traced = [r for r in rounds if r.traced]
    n = len(traced)

    def times(kind: str) -> list[float]:
        return workloads.call_seconds(plain, kind)

    spans = tracer.self_times()

    def calls(name: str) -> float:
        return spans.get(name, (0, 0.0))[0] / n

    def self_s(name: str) -> float:
        return spans.get(name, (0, 0.0))[1] / n

    grid_best_calls = calls("oracle.grid_best")
    points = grid_best_calls * workloads.lattice_points(workloads.GRID_BEST_DIVISIONS)
    hulls = [out[2] for out in rounds[0].outputs] if wl.name == workloads.OracleLattice.name else []
    plain_round = workloads.typical_round_seconds(plain)
    m = {
        "import.twrc_s": (imports["import.twrc_s"], "s"),
        "import.scipy_optimize_s": (imports["import.scipy_optimize_s"], "s"),
        "optimizer.solve.p50_ms": (p50(times("solve")) * 1e3, "ms"),
        "optimizer.solve.p95_ms": (p95(times("solve")) * 1e3, "ms"),
        "optimizer.closed_form.attempts": (tracer.counts["optimizer.closed_form.attempts"] / n, "count"),
        "optimizer.closed_form.taken": (tracer.counts["optimizer.closed_form.taken"] / n, "count"),
        "oracle.lattice_points": (points, "count"),
        "oracle.lattice_points_per_s": (points / self_s("oracle.grid_best") if points else 0.0, "1/s"),
        "oracle.hull_vertices": (float(sum(len(h.vertices) for h in hulls)), "count"),
        "oracle.grid_best.p50_s": (p50(times("grid_best")), "s"),
        "oracle.grid_region.p50_s": (p50(times("grid_region")), "s"),
        "oracle.regime_map.p50_s": (p50(times("regime_map")), "s"),
        "oracle.relay_power_profile.p50_s": (p50(times("relay_power_profile")), "s"),
        "cli.classify.p50_s": (p50(times("cli_classify")), "s"),
        "cli.solve.p50_s": (p50(times("cli_solve")), "s"),
        "trace.plain_round_s": (plain_round, "s"),
        "trace.overhead_ratio": (workloads.typical_round_seconds(traced) / plain_round, "ratio"),
    }
    for name in ("optimizer.solve", "scipy.minimize", "scipy.lsq_linear", "rate_region.compute_constraints",
                 "regimes.classify", "channel.gains_from_geometry"):
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.self_s"] = (self_s(name), "s")
    for name in ("rate_region.best_weighted_point", "regimes.technique_lookup"):
        m[f"{name}.calls"] = (calls(name), "count")
    for name in ("oracle.grid_best", "oracle.grid_region", "oracle.regime_map", "oracle.relay_power_profile"):
        m[f"{name}.self_s"] = (self_s(name), "s")
    return m


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "thread_pinning": {var: os.environ[var] for var in THREAD_VARS},
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    twrc = import_twrc()
    env = workloads.child_env(ROOT, OUT)
    wl = workloads.make(args.workload, twrc, args.seed, ROOT, env)
    tracer = tracing.Tracer()
    if args.trace:
        imports = import_seconds(env)
        between = []
    else:
        setup = SetupProbe(wl, env)
        setup.warm()
        between = [setup.sample] * SETUP_RUNS
    probe.first_call(twrc, wl.first_call())  # lazy imports and first-call work, untimed
    rounds, peak_rss_mb = measure(wl, args.seconds, tracer, bool(args.trace), between)
    for sample in between[len(rounds):]:
        sample()
    attempted, failed, shortfalls, wrong = evaluate(wl, rounds)

    if args.trace:
        metrics = layer_metrics(wl, rounds, tracer, imports)
        tracer.write(OUT / "spans" / f"{args.workload}-seed{args.seed}.json")
    else:
        metrics = {
            "setup_s": (statistics.median(setup.times), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "round_s": (workloads.typical_round_seconds(rounds), "s"),
        }
    result = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    for label, problem in shortfalls.items():
        print(f"failed (solver shortfall): {label}: {problem}", file=sys.stderr)
    for label, problems in wrong[:20]:
        print(f"WRONG: {label}: {'; '.join(problems[:3])}", file=sys.stderr)
    for target in sorted(tracer.missing):
        print(f"warning: trace target {target} not found; its spans are missing", file=sys.stderr)
    env_info = environment()
    plain = [r for r in rounds if not r.traced]
    kinds = sorted({kind for kind, _ in plain[0].calls})
    op_median_s = {kind: statistics.median(workloads.call_seconds(plain, kind)) for kind in kinds}
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
                  rounds=len(rounds), wall_round_s=[r.seconds for r in rounds],
                  calibration_s=[s for r in rounds for _, s in r.cal], op_median_s=op_median_s,
                  environment=env_info, shortfalls=shortfalls, missing_trace_targets=sorted(tracer.missing),
                  wrong=[[label, problems] for label, problems in wrong[:50]])
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    with open(OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print("environment: " + json.dumps(env_info, sort_keys=True))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
