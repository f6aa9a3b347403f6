"""Time ``import twrc`` plus a workload's first call in a fresh interpreter.

Run by run.py as ``python3 bench/probe.py '<json spec>'`` with twrc's
src/ on PYTHONPATH. Only the standard library is imported before the
clock starts, so numpy and scipy load inside the timed region as they
would for a user. Prints one JSON object with the time, a calibration
sample from before and after it (see ``calib``) and where twrc was
imported from.
"""

import json
import sys
import time

import calib


def first_call(twrc, spec: dict) -> None:
    call = spec["call"]
    if call == "solve":
        twrc.solve(twrc.LinkGains(**spec["gains"]), spec["mu"])
    elif call == "grid_best":
        twrc.grid_best(twrc.LinkGains(**spec["gains"]), spec["mus"], step=spec["step"])
    elif call == "regime_map":
        geom = twrc.Geometry(gamma1=spec["gamma1"], gamma2=spec["gamma2"])
        twrc.regime_map(geom, resolution=spec["resolution"], mu=spec["mu"], p=spec["p"])
    else:
        raise SystemExit(f"unknown first call {call!r}")


def main() -> None:
    spec = json.loads(sys.argv[1])
    cal_before = calib.sample("python")
    t0 = time.perf_counter()
    import twrc

    first_call(twrc, spec)
    elapsed = time.perf_counter() - t0
    cal_after = calib.sample("python")
    print(json.dumps({"setup_s": elapsed, "cal_before_s": cal_before, "cal_after_s": cal_after,
                      "twrc": twrc.__file__}))


if __name__ == "__main__":
    main()
