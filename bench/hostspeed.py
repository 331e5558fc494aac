"""A fixed probe of the host's speed.

The benchmark runs on cores it shares with other machines, and their
load makes the same call on the same input take up to 1.5 times longer
in stretches of tens of seconds, often as long as a whole run.  A run's
median cannot average such a stretch away, so each timed call is scaled
by the speed of the host around it: this probe is timed right before
and right after the call, and the call's time is multiplied by
``NOMINAL_S`` over the mean of the two.  The probe is the benchmark's
own code and never calls momentmix, so no change to the package moves
it; it mixes the kinds of work the workloads do (dict lookups keyed by
index tuples in the interpreter, a matrix product, and an elementwise
pass over a large array).
"""

from __future__ import annotations

import time

import numpy as np

# The probe's time on a quiet 2-vCPU Xeon host; scaled times read as
# seconds on a host that runs the probe this fast.
NOMINAL_S = 0.037

_KEYS = [(i, i + 1, i + 2) for i in range(150_000)]
_TABLE = dict.fromkeys(_KEYS, 1.0)
_MATRIX = np.random.default_rng(0).standard_normal((400, 400))
_VECTOR = np.random.default_rng(1).standard_normal(1_000_000)


def probe() -> float:
    """Seconds taken by a fixed mix of interpreter, BLAS and array work."""
    start = time.perf_counter()
    total = 0.0
    for key in _KEYS:
        total += _TABLE[key]
    for _ in range(2):
        total += float((_MATRIX @ _MATRIX)[0, 0])
    total += float(np.exp(_VECTOR * 1e-3).sum())
    return time.perf_counter() - start
