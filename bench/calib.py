"""Fixed kernels that track the speed of the machine the benchmark runs on.

On a shared virtual machine the speed of a CPU drifts by a quarter or
more over seconds to minutes, and process CPU time drifts with wall
time, so neither can be compared between runs as it stands. Timed work
is therefore rescaled by a calibration sample taken next to it:

    scaled = measured * REF_S[kernel] / sample(kernel)

Two kernels cover two kinds of work, whose speeds do not always drift
together: ``python`` (interpreter-bound: the solver, the sweeps, a fresh
interpreter) and ``numpy`` (whole-array arithmetic on a few MB: the
lattice oracle). ``REF_S`` holds each kernel's median time on the
reference machine, so a scaled time reads in seconds at that machine's
speed. The ``python`` kernel uses only the standard library, so a fresh
interpreter can sample it before it imports numpy.
"""

import statistics
import time

# Median kernel times on the reference machine (2-CPU Intel Xeon virtual
# machine, 2.1 GHz, CPython 3.11.7, numpy 2.4.6, one BLAS thread).
REF_S = {"python": 0.0021, "numpy": 0.0020}
REPEATS = 3
_ARRAY = []


def python_kernel() -> None:
    s = 0
    for i in range(30000):
        s += i * i


def numpy_kernel() -> None:
    import numpy as np

    if not _ARRAY:
        _ARRAY.append(np.linspace(0.0, 1.0, 200_000))
    x = _ARRAY[0]
    np.log2(1.0 + 0.3 * x + np.sqrt(x))


KERNELS = {"python": python_kernel, "numpy": numpy_kernel}


def sample(kernel: str) -> float:
    """Median of ``REPEATS`` timed runs of one kernel, in seconds."""
    run = KERNELS[kernel]
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        run()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)
