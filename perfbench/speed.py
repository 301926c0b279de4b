"""Machine-speed calibration for the benchmark's timings.

The 2-vCPU virtual machine this benchmark was tuned on alternates between
a fast and a slow state, for seconds to minutes at a time, and in the slow
one the library runs up to 1.7 times slower.  A fixed pure-Python loop of
dict updates and big-integer products (the kind of work LaurentPoly
arithmetic does) slows down with it: over a minute of alternating samples,
library time divided by loop time varied 7% between windows, against 70%
for the library time alone.  The loop uses nothing from skewrook, so a
change to the library cannot move it.

Every timed call is therefore scaled by NOMINAL_S over the loop time
measured just before and just after it.  Reported times are wall times at
the machine speed where the loop takes NOMINAL_S, close to this machine's
fast state; the raw wall times are printed beside them.
"""

from __future__ import annotations

import time

NOMINAL_S = 0.0005
_ITEMS = [(e, 3 * e + 1 << 40) for e in range(32)]


def _work() -> int:
    acc: dict[int, int] = {}
    for _ in range(4):
        for e1, c1 in _ITEMS:
            for e2, c2 in _ITEMS:
                e = e1 + e2
                acc[e] = acc.get(e, 0) + c1 * c2
    return len(acc)


def loop_seconds() -> float:
    """Best of three timings of the calibration loop, so that one
    interrupt does not count as a slow machine."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        _work()
        best = min(best, time.perf_counter() - t0)
    return best


def factor(before: float, after: float) -> float:
    """Scale from wall time to nominal-speed time for a call that ran
    between two loop timings."""
    return 2 * NOMINAL_S / (before + after)
