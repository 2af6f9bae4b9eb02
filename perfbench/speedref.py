"""Machine-speed index: fixed reference work timed between operations.

The host's CPU speed drifts by tens of percent over seconds, and CPU time
tracks wall time while it does, so the drift is a slower processor and not
time spent waiting.  The benchmark therefore times reference work around
the operations it measures and scales every operation time by
NOMINAL / (reference time measured around it).  A scaled figure reads as
"milliseconds on a host where the reference takes NOMINAL"; the raw figures
are printed as well.

There are two references, because in-process work and a fresh interpreter
do not slow down alike:

* ``probe`` times ``reference_work`` in process.  The loop mixes the two
  kinds of work fracemden spends its time on: exact ``Fraction`` arithmetic
  (big-integer gcd and allocation) and interpreted float loops.  It scales
  the library workloads.
* ``child_probe`` times a fresh interpreter that imports numpy and runs
  ``reference_work`` twenty times: start-up, imports and a little compute,
  like a CLI command or a set-up measurement, which it scales.

Neither touches fracemden, so a change to the program cannot move them.
They must never change: new reference work makes old and new figures
incomparable.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from fractions import Fraction

# Typical reference times on the host the bounds were set on; every run
# prints the reference times it measured (see README.md).  Changing them
# rescales every figure, so runs before and after the change cannot be
# compared.
NOMINAL_MS = 1.25
NOMINAL_CHILD_MS = 180.0

_REPEATS = 5
_CHILD_LOOPS = 20


def reference_work() -> float:
    acc = Fraction(0)
    for k in range(1, 121):
        acc += Fraction(k, k + 1) / (Fraction(7, 3) + k)
    s = 0.0
    for i in range(6000):
        s = s * 0.999 + i * 0.5
    return float(acc) + s


def probe() -> float:
    """Median of five timings of the reference loop, in milliseconds."""
    times = []
    for _ in range(_REPEATS):
        t0 = time.perf_counter()
        reference_work()
        times.append(time.perf_counter() - t0)
    times.sort()
    return times[_REPEATS // 2] * 1e3


def child_probe() -> float:
    """Wall time of one reference interpreter, in milliseconds."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, os.path.abspath(__file__)], check=True)
    return (time.perf_counter() - t0) * 1e3


if __name__ == "__main__":
    import numpy  # noqa: F401

    for _ in range(_CHILD_LOOPS):
        reference_work()
