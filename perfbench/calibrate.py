"""The reference loop that every reported time is scaled by.

The machine this benchmark was written on is shared: the speed of one
core changes by up to 2x over tens of seconds, and run-to-run medians of
raw wall time spread by 30% or more.  Each child therefore times this
fixed pure-Python loop just after its set-up, before every check and
after the last check of each pass, and the benchmark reports every time
in reference seconds:

    reference seconds = wall seconds * REFERENCE_LOOP_S / loop seconds

where loop seconds is the median loop time over that phase.  On a
machine where the loop takes REFERENCE_LOOP_S, reference seconds are
wall seconds.  Timing the loop between the checks, in the same process,
tracked the machine's speed twice as well as timing it in the parent
around each child.

The loop is a frozen copy of the sparse dict-product loop of qbailey's
ring kernel at the commit the benchmark was defined on, over integer
coefficients; it shares no code with qbailey.  Do not edit it: any edit
rescales every reported time.
"""

from __future__ import annotations

import time

REFERENCE_LOOP_S = 0.010
REPEATS = 3

_A = {(q, t, 0, z): (q * 7 + t * 3 - z) * 1234567 + 1
      for q in range(10) for t in range(5) for z in (-1, 0)}
_B = {(q, t, 0, z): (q * 5 - t * 11 + z) * 7654321 + 3
      for q in range(15) for t in range(8) for z in (-1, 0)}


def _product(a: dict, b: dict, mq: int = 16, mt: int = 10, ms: int = 0) -> dict:
    acc: dict = {}
    big_items = list(b.items())
    for (q1, t1, s1, z1), c1 in a.items():
        for (q2, t2, s2, z2), c2 in big_items:
            eq = q1 + q2
            if eq > mq:
                continue
            et = t1 + t2
            if et > mt:
                continue
            es = s1 + s2
            if es > ms:
                continue
            key = (eq, et, es, z1 + z2)
            prev = acc.get(key)
            if prev is None:
                acc[key] = c1 * c2
            else:
                acc[key] = prev + c1 * c2
    return acc


def loop_samples() -> list[float]:
    """REPEATS wall times of the reference loop."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        _product(_A, _B)
        times.append(time.perf_counter() - start)
    return times
