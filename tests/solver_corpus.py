"""Four corpora of solver inputs, the Newton systems ``solve`` spends on
them, and a digest of its answers.

Each corpus is a list of ``(LinkGains, mu)`` pairs:

* ``random_gains``: 100 draws of ``helpers.random_gains(Random(3))``, at
  five weights;
* ``extreme``: 250 draws from ``Random(12)`` at five weights, amplitudes
  log-uniform in [1e-3, 1e3] and each exactly 0 with probability 0.15,
  ``p`` log-uniform in [1e-6, 1e4];
* ``profile``: the gains ``relay_power_profile`` solves at mu = 3/4 and
  p = 1 (41 relay positions on the segment between users 20 m apart) for
  six exponent pairs from ``Random(20)``, gamma1 uniform in [2.0, 2.6]
  and gamma2 in [3.0, 4.0];
* ``closed_form``: ``helpers.sample_cell(Random(21), ...)`` draws in
  cells (R2,T3) and (R2,T4), 20 per cell at each margin 0.05 and 1e-6,
  at mu = 0.6, 3/4 and 1, where the paper's closed form
  (:func:`~twrc.min_relay_power`) is the optimum.

``solve_stats`` collects what ``solve`` logs at DEBUG on the
``twrc.optimizer`` logger for each numeric solve: the Newton systems,
how the iteration stopped, the final surrogate gap and dual residual.

Each family of outputs is a list of records, each a JSON-ready value:
``solved`` gives ``solve(...).to_dict()`` per instance of a corpus,
``profile_records`` the ``relay_power_profile`` points of the profile
corpus' six geometries at one weight, ``grid_best_records`` the oracle's
``grid_best`` on acceptance criterion 6's 100 draws
(``helpers.random_gains(Random(2030))``, step 0.025, weights 1/4, 1/2,
3/4, 1) and on the extreme corpus' gains (step p/12, weights ``MUS``),
``grid_region_records`` the ``grid_region`` vertices and sources of
every lattice restriction on the same draws, at step 0.05 and p/12,
``regime_map_records`` ``regime_map``'s cells at its defaults, the
CLI's, and ``cli_outputs`` the output of ``twrc.cli.main``, run in this
process, for ``classify``, ``solve``, ``region``, ``map`` and
``relay-power`` at the README's example arguments (``CLI_RUNS``). A
digest is sha256 over a family's dicts as sorted-key JSON, every float
as ``float.hex``, so two checkouts that print the same digest gave the
same answers bit for bit.

Run from a checkout as ``python tests/solver_corpus.py`` to print, per
corpus, the Newton systems per solve (mean and max), the stop-reason
counts and the digest, then one profile digest per weight in ``MUS``,
then the ``grid_best``, ``grid_region``, ``regime_map`` and CLI digests;
``--src DIR`` runs them on the package in ``DIR`` instead of the
checkout's ``src``, and ``--dump`` prints every family's records as JSON
in place of the digests.

``python tests/solver_corpus.py --against REV`` compares the checkout
with a git revision: it unpacks ``git archive REV`` into a temporary
directory, runs this script on that tree's ``src`` beside the
checkout's, and prints each output line once after ``same`` when both
trees print it, or both versions, the checkout's after ``this`` and
the revision's after ``REV``. It takes about twice as long as a plain
run. With ``--diff`` it compares the two trees' dumps instead and prints
one line per family: ``identical``, or how many floats moved (bit for
bit) with the largest absolute and relative move, how many other values
changed (counts, labels; for the CLI, output lines) and the indices of
the first three records that differ. It reports and does not gate.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import logging
import math
import random
import subprocess
import sys
import tempfile
from collections import Counter
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from itertools import chain, zip_longest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

if __name__ == "__main__":
    _PARSER = argparse.ArgumentParser(description="Print the solver and oracle digests of a twrc tree.")
    _PARSER.add_argument("--src", default=str(ROOT / "src"), help="directory holding the twrc package")
    _PARSER.add_argument("--against", metavar="REV", help="compare with the tree of git revision REV")
    _PARSER.add_argument("--diff", action="store_true",
                         help="with --against, report per family which values moved instead of the digests")
    _PARSER.add_argument("--dump", action="store_true", help="print every family's records as JSON")
    ARGS = _PARSER.parse_args()
    sys.path.insert(0, ARGS.src)

from twrc import (  # noqa: E402
    Geometry, LinkGains, SchemeRestriction, gains_from_geometry, grid_best, grid_region, regime_map,
    relay_power_profile, solve,
)
from twrc.cli import main as cli_main  # noqa: E402

from helpers import random_gains, sample_cell  # noqa: E402

MUS = (0.0, 0.25, 0.5, 0.75, 1.0)
PROFILE_SAMPLES = 41
CLOSED_FORM_MUS = (0.6, 0.75, 1.0)
ORACLE_MUS = (0.25, 0.5, 0.75, 1.0)
# the README's command-line examples, the gains inline and every artifact
# on stdout
README_GAINS = ("--g12", "0.25", "--g21", "0.25", "--g1r", "0.5", "--gr1", "1", "--g2r", "0.7", "--gr2", "1")
CLI_RUNS = (("classify", *README_GAINS), ("solve", *README_GAINS, "--mu", "0.75"),
            ("region", *README_GAINS, "--step", "0.05", "--restrict", "composite"),
            ("map", "--resolution", "61"), ("relay-power", "--samples", "41"))


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def random_gains_corpus() -> list[tuple[LinkGains, float]]:
    rng = random.Random(3)
    return [(g, mu) for g in [random_gains(rng) for _ in range(100)] for mu in MUS]


def extreme_gains(rng: random.Random) -> LinkGains:
    """Amplitudes log-uniform in [1e-3, 1e3], each exactly 0 with
    probability 0.15, and ``p`` log-uniform in [1e-6, 1e4]."""
    amps = [0.0 if rng.random() < 0.15 else _log_uniform(rng, 1e-3, 1e3) for _ in range(6)]
    return LinkGains(*amps, p=_log_uniform(rng, 1e-6, 1e4))


def extreme_draws() -> list[LinkGains]:
    rng = random.Random(12)
    return [extreme_gains(rng) for _ in range(250)]


def extreme_corpus() -> list[tuple[LinkGains, float]]:
    return [(g, mu) for g in extreme_draws() for mu in MUS]


def profile_geometries() -> list[Geometry]:
    rng = random.Random(20)
    return [Geometry(gamma1=rng.uniform(2.0, 2.6), gamma2=rng.uniform(3.0, 4.0)) for _ in range(6)]


def profile_corpus() -> list[tuple[LinkGains, float]]:
    corpus = []
    for geom in profile_geometries():
        (sx, sy), (ex, ey) = geom.user1, geom.user2
        for k in range(PROFILE_SAMPLES):
            t = (k + 1) / (PROFILE_SAMPLES + 1)
            relay = (sx + t * (ex - sx), sy + t * (ey - sy))
            corpus.append((gains_from_geometry(geom.with_relay(relay), p=1.0), 0.75))
    return corpus


def closed_form_corpus() -> list[tuple[LinkGains, float]]:
    rng = random.Random(21)
    draws = [sample_cell(rng, "R2", t, margin) for t in ("T3", "T4") for margin in (0.05, 1e-6) for _ in range(20)]
    return [(g, mu) for g in draws for mu in CLOSED_FORM_MUS]


CORPORA = {"random_gains": random_gains_corpus, "extreme": extreme_corpus, "profile": profile_corpus,
           "closed_form": closed_form_corpus}


def _hexed(value):
    """``value`` with every float replaced by its ``float.hex``."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {key: _hexed(item) for key, item in value.items()}
    return value


def _sha256(dicts) -> str:
    """sha256 of each dict as sorted-key JSON, floats as ``float.hex``."""
    h = hashlib.sha256()
    for d in dicts:
        h.update(json.dumps(_hexed(d), sort_keys=True).encode())
        h.update(b"\n")
    return h.hexdigest()


def solved(name: str) -> tuple[list[dict], list[tuple]]:
    """``solve(...).to_dict()`` per instance of corpus ``name``, and what
    ``solve_stats`` collected meanwhile."""
    with solve_stats() as stats:
        records = [solve(g, mu).to_dict() for g, mu in CORPORA[name]()]
    return records, stats


def profile_records(mu: float) -> list[dict]:
    """The ``relay_power_profile`` points of the profile corpus'
    geometries at weight ``mu``."""
    return [vars(pt) for geom in profile_geometries()
            for pt in relay_power_profile(geom, samples=PROFILE_SAMPLES, mu=mu, p=1.0)]


def grid_best_records() -> list[dict]:
    """``grid_best`` on criterion 6's draws and on the extreme draws, one
    ``{weight: best}`` dict per call."""
    rng = random.Random(2030)
    calls = [(random_gains(rng), ORACLE_MUS, 0.025) for _ in range(100)]
    calls += [(g, MUS, g.p / 12) for g in extreme_draws()]
    return [dict(zip(map(str, mus), grid_best(g, mus, step=step))) for g, mus, step in calls]


def grid_region_records() -> list[list[dict]]:
    """``grid_region``'s hulls for every lattice restriction, on criterion
    6's draws at step 0.05 and on the extreme draws at step p/12: per
    hull, its restriction and vertex count, then one dict per vertex with
    the vertex's rates and its source's powers."""
    rng = random.Random(2030)
    calls = [(random_gains(rng), 0.05) for _ in range(100)]
    calls += [(g, g.p / 12) for g in extreme_draws()]
    restrictions = [r for r in SchemeRestriction if r != SchemeRestriction.DIRECT_ONLY]
    hulls = [grid_region(g, step=step, restriction=r) for g, step in calls for r in restrictions]
    return [[{"restriction": hull.restriction.value, "vertices": len(hull.vertices)},
             *({**vars(vertex), **vars(source)} for vertex, source in zip(hull.vertices, hull.sources))]
            for hull in hulls]


def regime_map_records() -> list[dict]:
    """``regime_map``'s cells at its defaults: per cell its position,
    regime, labels and source."""
    return [{"x": c.x, "y": c.y, "source": c.source,
             "regime": None if c.regime is None else c.regime.to_dict(),
             "assignment": None if c.assignment is None else c.assignment.to_dict()}
            for c in regime_map()]


def cli_outputs() -> list[str]:
    """Per run of ``CLI_RUNS``, its arguments, exit code, stdout and
    stderr, from ``twrc.cli.main`` in this process."""
    outputs = []
    for argv in CLI_RUNS:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli_main(list(argv))
        outputs.append(f"{' '.join(argv)}\n{code}\n{out.getvalue()}{err.getvalue()}")
    return outputs


@contextmanager
def solve_stats():
    """A list that fills, inside the block, with one ``(newton_systems,
    stop, gap, dual_residual)`` tuple per numeric solve."""
    stats: list[tuple] = []

    class Collect(logging.Handler):
        def emit(self, record):
            stats.append(record.args)

    logger = logging.getLogger("twrc.optimizer")
    handler, level = Collect(), logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)
    try:
        yield stats
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


def report():
    """The lines a run prints, one at a time."""
    for name in CORPORA:
        records, stats = solved(name)
        counts = [s[0] for s in stats]
        stops = Counter(s[1] for s in stats)
        yield (f"{name}: {len(records)} solves, {len(counts)} numeric; Newton systems per solve "
               f"mean {sum(counts) / len(counts):.2f}, max {max(counts)}; stops "
               + ", ".join(f"{reason} {stops[reason]}" for reason in ("converged", "collapsed", "cap"))
               + f"; sha256 {_sha256(records)}")
    for mu in MUS:
        yield f"relay_power_profile mu {mu}: sha256 {_sha256(profile_records(mu))}"
    yield f"grid_best: sha256 {_sha256(grid_best_records())}"
    yield f"grid_region: sha256 {_sha256(chain.from_iterable(grid_region_records()))}"
    yield f"regime_map at the defaults: sha256 {_sha256(regime_map_records())}"
    yield (f"cli {', '.join(argv[0] for argv in CLI_RUNS)}: "
           f"sha256 {hashlib.sha256(''.join(cli_outputs()).encode()).hexdigest()}")


def dump() -> dict[str, list]:
    """Every family's records, as a JSON round trip leaves them: the four
    corpora, the profiles at every weight in ``MUS``, ``grid_best``,
    ``grid_region``, ``regime_map`` and the CLI's output lines."""
    families = {name: solved(name)[0] for name in CORPORA}
    families["profiles"] = [record for mu in MUS for record in profile_records(mu)]
    families["grid_best"] = grid_best_records()
    families["grid_region"] = grid_region_records()
    families["regime_map"] = regime_map_records()
    families["cli"] = [line for output in cli_outputs() for line in output.splitlines()]
    return json.loads(json.dumps(families))


_ABSENT = object()


def _leaves(value, path=""):
    """``(path, scalar)`` for every scalar in nested dicts and lists."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, f"{path}.{key}")
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _leaves(item, f"{path}[{index}]")
    else:
        yield path, value


def compare(ours: dict[str, list], theirs: dict[str, list], rev: str) -> list[str]:
    """One line per family of two dumps: ``identical``, or how many floats
    moved, the largest absolute and relative move, how many other values
    (counts, labels, CLI lines) changed, the record counts and the first
    three records that differ, by index."""
    lines = []
    for family in {**ours, **theirs}:
        mine, other = ours.get(family, []), theirs.get(family, [])
        moved = changed = 0
        max_abs = max_rel = 0.0
        first = []
        for index, (a, b) in enumerate(zip(mine, other)):
            a, b = dict(_leaves(a)), dict(_leaves(b))
            before = moved + changed
            for path in {**a, **b}:
                x, y = a.get(path, _ABSENT), b.get(path, _ABSENT)
                if type(x) is float and type(y) is float:
                    if x.hex() != y.hex():
                        moved += 1
                        gap = abs(x - y) if math.isfinite(x) and math.isfinite(y) else math.inf
                        max_abs = max(max_abs, gap)
                        max_rel = max(max_rel, gap / max(abs(x), abs(y)) if gap else 0.0)
                elif type(x) is not type(y) or x != y:
                    changed += 1
            if moved + changed > before and len(first) < 3:
                first.append(f"#{index}")
        if not first and len(mine) == len(other):
            lines.append(f"{family}: identical")
            continue
        lines.append(f"{family}: {moved} floats moved, max abs {max_abs:.3g}, max rel {max_rel:.3g}; "
                     f"{changed} other values changed; {len(mine)} records here, {len(other)} at {rev}; "
                     f"first at {', '.join(first) or 'none'}")
    return lines


def against(rev: str, diff: bool = False) -> None:
    """Print this checkout's lines beside those of ``rev``'s tree, which
    a child process computes while this one computes its own; with
    ``diff``, compare the two trees' dumps family by family instead."""
    with tempfile.TemporaryDirectory() as tree:
        with subprocess.Popen(["git", "archive", rev], cwd=ROOT, stdout=subprocess.PIPE) as archive:
            untar = subprocess.run(["tar", "-x", "-C", tree], stdin=archive.stdout)
        if archive.returncode or untar.returncode:
            raise SystemExit(f"could not unpack git archive {rev}")
        argv = [sys.executable, __file__, "--src", str(Path(tree) / "src"), *(["--dump"] if diff else [])]
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as child:
            ours = dump() if diff else list(report())
            theirs = child.communicate()[0]
    if child.returncode:
        raise SystemExit(f"the run on {rev}'s tree failed")
    if diff:
        print("\n".join(compare(ours, json.loads(theirs), rev)))
        return
    for this, that in zip_longest(ours, theirs.splitlines()):
        print(f"same  {this}" if this == that else f"this  {this}\n{rev}  {that}")


if __name__ == "__main__":
    if ARGS.against:
        against(ARGS.against, ARGS.diff)
    elif ARGS.dump:
        print(json.dumps(dump()))
    else:
        for line in report():
            print(line, flush=True)
