"""Spans around calls into twrc's layers, recorded from outside the package.

``Tracer.install`` replaces twrc's layer functions, in the modules that
define them and in those that import them (and the scipy entry points
the optimizer uses), with wrappers that record a span per call,
and ``uninstall`` puts the originals back, so untraced rounds run the
unmodified code. A span holds its name, start, end and the index of the
enclosing span. Spans stay in memory; ``write`` dumps them once at the
end of a run. Self time is a span's duration minus the time covered by
its child spans.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from pathlib import Path

import paper

# (module, attribute, span name). Each function is wrapped in the module
# that defines it and in every module that imports it by name, so a call
# is seen whichever name it goes through; scipy.optimize's own names are
# wrapped too, so a call that imports them late is timed. A name a module
# no longer has is listed in ``Tracer.missing`` (the run reports it), as
# its metrics would read 0 without it.
TARGETS = (
    ("twrc.optimizer", "solve", "optimizer.solve"),
    ("twrc.oracle", "grid_best", "oracle.grid_best"),
    ("twrc.oracle", "grid_region", "oracle.grid_region"),
    ("twrc.oracle", "regime_map", "oracle.regime_map"),
    ("twrc.oracle", "relay_power_profile", "oracle.relay_power_profile"),
    ("twrc.regimes", "classify", "regimes.classify"),
    ("twrc.regimes", "technique_lookup", "regimes.technique_lookup"),
    ("twrc.channel", "gains_from_geometry", "channel.gains_from_geometry"),
    ("twrc.rate_region", "compute_constraints", "rate_region.compute_constraints"),
    ("twrc.rate_region", "best_weighted_point", "rate_region.best_weighted_point"),
    ("twrc", "solve", "optimizer.solve"),
    ("twrc", "grid_best", "oracle.grid_best"),
    ("twrc", "grid_region", "oracle.grid_region"),
    ("twrc", "regime_map", "oracle.regime_map"),
    ("twrc", "relay_power_profile", "oracle.relay_power_profile"),
    ("twrc.oracle", "solve", "optimizer.solve"),
    ("twrc.oracle", "classify", "regimes.classify"),
    ("twrc.oracle", "technique_lookup", "regimes.technique_lookup"),
    ("twrc.oracle", "gains_from_geometry", "channel.gains_from_geometry"),
    ("twrc.optimizer", "classify", "regimes.classify"),
    ("twrc.optimizer", "compute_constraints", "rate_region.compute_constraints"),
    ("twrc.optimizer", "best_weighted_point", "rate_region.best_weighted_point"),
    ("twrc.optimizer", "minimize", "scipy.minimize"),
    ("twrc.optimizer", "lsq_linear", "scipy.lsq_linear"),
    ("scipy.optimize", "minimize", "scipy.minimize"),
    ("scipy.optimize", "lsq_linear", "scipy.lsq_linear"),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self.missing: set[str] = set()
        self.enabled = False

    def span(self, name: str):
        return _Span(self, name)

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if name == "optimizer.solve":
                tracer._count_closed_form(args, kwargs, result)
            return result

        return traced

    def _count_closed_form(self, args, kwargs, result) -> None:
        """A closed-form attempt is a solve the benchmark's own
        classification puts in (R2,T3)/(R2,T4) with mu > 1/2."""
        g, mu = args[0], args[1] if len(args) > 1 else kwargs["mu"]
        r, t, side = paper.cell(g.to_dict())
        if side and (r, t) in paper.CLOSED_FORM_CELLS and mu > 0.5:
            self.counts["optimizer.closed_form.attempts"] += 1
        if result.method == "closed-form-r2t34":
            self.counts["optimizer.closed_form.taken"] += 1

    def install(self) -> None:
        for module_name, attr, name in TARGETS:
            module = sys.modules.get(module_name)
            if module is None or not hasattr(module, attr):
                self.missing.add(f"{module_name}.{attr}")
                continue
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))
        self.enabled = True

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        self.enabled = False

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, total self time)."""
        child_time = defaultdict(float)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for idx, (name, start, end, _) in enumerate(self.spans):
            out[name][0] += 1
            out[name][1] += (end - start) - child_time[idx]
        return {k: (v[0], v[1]) for k, v in out.items()}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, fh)


class _Span:
    __slots__ = ("tracer", "name", "idx")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.idx = self.tracer._open(self.name) if self.tracer.enabled else None
        return self

    def __exit__(self, *exc):
        if self.idx is not None:
            self.tracer._close(self.idx)
        return False
