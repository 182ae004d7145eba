"""A fixed reference computation that measures the machine's current speed.

The host this benchmark was written on (2 vCPUs) shares its cores with other
tenants.  A single thread's speed there drifts and jumps by up to 1.6x over
seconds to minutes, so medians of raw wall times of runs a minute apart
differed by up to 50 %.  ``pass_s`` times one pass of a computation that
never changes and imports nothing from the program.  It mixes the kinds of
work the program's hot paths do: a Python loop, many small-array numpy steps,
a dense eigensolve and JSON encoding.  The benchmark times a few passes next
to every stage and scales the stage's time by ``NOMINAL_S / pass time``.
On that host, the room simulator's raw run medians spread by 30 % over six
minutes, and its scaled medians by 7 %.
"""

from __future__ import annotations

import json
import time

import numpy as np

# One pass on the reference host in its usual state (Intel Xeon, 2 vCPUs,
# Python 3.11, numpy 2.4, one OpenBLAS thread).  Scaled times read as seconds
# on that host in that state.
NOMINAL_S = 0.125

_rng = np.random.default_rng(20200826)
_MATRIX = _rng.standard_normal((160, 160))
_FIELD = _rng.standard_normal((56, 28))
_RECORDS = [{"re": float(v), "im": float(-v)} for v in _rng.standard_normal(6000)]


def _work() -> int:
    total = 0
    for i in range(150_000):
        total += i * i
    field = _FIELD
    for _ in range(600):
        padded = np.pad(field, 1, mode="edge")
        field = field + 1e-3 * (padded[2:, 1:-1] + padded[:-2, 1:-1] - 2.0 * field)
    eig = np.linalg.eigvals(_MATRIX)
    text = json.dumps(_RECORDS, sort_keys=True, indent=2)
    return total + int(np.isfinite(field).all()) + int(np.isfinite(eig).all()) + len(text)


def pass_s() -> float:
    """Wall time of one pass of the reference computation."""
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start
