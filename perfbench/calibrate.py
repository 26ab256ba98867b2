"""Host-speed calibration: a fixed kernel, timed between a run's CLI calls.

The benchmark's reference host is a 2-vCPU VM shared with other tenants.
Its speed for spnperf's code changes by 1.2 to 2 times between phases that
last from seconds to many minutes, longer than a run.  No statistic taken
over one run's calls removes a phase that covers the whole run, so
``run.py`` also times this kernel between the calls, each time in a fresh
forked child, and scales the run's times by
``REFERENCE_S / median(kernel seconds in the run)``: the times the run
would have read on the reference host at its usual speed.

The kernel is benchmark code and never changes with the program, so a
change to spnperf moves the scaled times exactly as it moves the raw ones.
It has two compute-bound parts of about 0.15 s each whose data stay in a
core's caches: an interpreter loop, as in the simulator's event loop and
the CLI, and dense matrix products through OpenBLAS, as in the GTH solver.
They follow the speed of the core.  A part that numbers many distinct
tuples in a large dict, as exploration does, was tried and dropped: it
also follows contention for memory, which slowed it by up to 2 times in
phases that slowed the ``simulate`` calls by 5 % (perfbench/README.md).
"""

from __future__ import annotations

import time

import numpy as np

#: median kernel time on the reference host, in seconds (perfbench/README.md)
REFERENCE_S = 0.29


def _interpreter_loop(n: int = 2_500_000) -> int:
    total = 0
    for i in range(n):
        total += i
    return total


def _dense(n: int = 300, products: int = 90) -> float:
    base = np.random.default_rng(0).random((n, n))
    a = base.copy()
    for _ in range(products):
        a = a @ base
        a /= a.sum()
    return float(a[0, 0])


PARTS = {
    "loop": _interpreter_loop,
    "dense": _dense,
}


def kernel_seconds() -> dict:
    """Wall time of one pass of each part of the kernel, in this process."""
    seconds = {}
    for name, part in PARTS.items():
        start = time.perf_counter()
        part()
        seconds[name] = time.perf_counter() - start
    return seconds
