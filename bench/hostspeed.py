"""Host speed, measured with a fixed pure-Python loop, and times scaled by it.

On a shared virtual machine the speed of a core drifts by a third or more
over minutes, so the same job list can take 8 s in one run and 13 s in the
next.  A pass therefore times this reference loop right before and right
after each job; the job's time, multiplied by REF_LOOP_S over the mean of
those two loop times, is its time at reference speed.  A change to
`recovsys` moves the job times and leaves the loop alone, so it moves the
scaled times by the same factor as the raw ones.
"""

from __future__ import annotations

import time

LOOP_ITERATIONS = 100_000
# Nominal loop time that defines reference speed; about what the loop took
# on the 2-CPU virtual machine the bounds were set on.
REF_LOOP_S = 0.01


def reference_loop_s() -> float:
    """Seconds the fixed loop takes now."""
    start = time.perf_counter()
    acc = 0
    for i in range(LOOP_ITERATIONS):
        acc += i * i % 7
    return time.perf_counter() - start


def at_reference_speed(seconds: float, *loop_s: float) -> float:
    """`seconds` measured while the loop took `loop_s`, scaled to reference speed."""
    return seconds * REF_LOOP_S * len(loop_s) / sum(loop_s)
