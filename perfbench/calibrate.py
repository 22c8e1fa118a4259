"""Host-speed calibration: a fixed computation timed next to every invocation.

The benchmark runs on a few vCPUs of a shared host whose speed drifts: on
the 2-vCPU Xeon VM the benchmark was defined on, the same computation took
up to 1.5 times as long from one half-minute to the next, on both vCPUs and
in CPU time as much as in wall time.  Runs of the same code then spread by
a third, more than any bound worth having, however long a run lasts.

So the benchmark times this calibration in its own process right before
and right after every CLI invocation; the mean of the two over
``REF_CAL_S`` is the host's slowdown.  ``run.py`` divides the import time
by it, and the rest of the invocation by the slowdown of the workload's
share of work that follows the host (``Workload.host_share``): the scaled
times are seconds of a host on which the calibration takes ``REF_CAL_S``.
The calibration is benchmark code that never calls ``senserate``, so a
change to the program moves the scaled times as it moves the raw ones at
a steady host speed.  The raw times are reported beside the scaled ones.

The calibration mixes the two kinds of work the CLI does: interpreted
Python on floats and strings (CSV encoding, scalar ``q_function``) and
numpy passes over an array larger than the L2 cache (Box-Muller, count
scans, Monte Carlo).  Either part alone followed the program's speed less
closely than the sum.
"""

from __future__ import annotations

import math
import time

import numpy as np

# about the calibration's median on that VM in a quiet spell
REF_CAL_S = 0.08

_ARRAY = np.arange(1 << 21, dtype=np.float64) * 1.000001


def _python_part() -> float:
    acc = 0.0
    seen = {}
    for i in range(60_000):
        x = i * 1.000001
        acc += math.sqrt(x)
        seen[i & 1023] = repr(x)
    return acc + len(seen)


def _numpy_part() -> float:
    acc = 0.0
    for _ in range(6):
        b = _ARRAY * 1.5 + 2.0
        acc += float(np.count_nonzero(b > 1e6))
        acc += float(np.sort(b[: 1 << 17])[7])
    return acc


def host_cal_s() -> float:
    """Seconds the calibration takes now."""
    t0 = time.perf_counter()
    _python_part()
    _numpy_part()
    return time.perf_counter() - t0
