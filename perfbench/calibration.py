"""Reference seconds: wall time scaled by the machine's current speed.

Other tenants of a shared machine slow every process on it, by up to a
factor of two for tens of seconds at a time.  A fixed pure-Python loop,
timed right before and right after a measured interval, slows with it.
Scaling the interval by REFERENCE_S over the loop's time gives the time
the interval would have taken when the loop takes REFERENCE_S.

The loop has two halves of about equal time, because contention slows
kinds of work unequally: one builds tuples, strings and a dict and sorts,
like the graph and export code; the other adds big integers, like
count_increasing.  On a two-core machine shared with other tenants, over
four minutes each of verify-random and stats-mc, scaling by both halves cut
the coefficient of variation of 20-second throughput from 7% and 12% to
under 5% on both; either half alone helped one workload only.  The loop
calls nothing in the package, so no change to the package can move it.
"""

from __future__ import annotations

import random
import time

import reference

REFERENCE_S = 0.02
_TABLE_KEYS = 4000
_COUNT_PASSES = 70
_COUNT_PERM = random.Random(0).sample(range(1, 161), 160)


def loop_seconds() -> float:
    """Wall time of one pass of the fixed loop."""
    start = time.perf_counter()
    table = {}
    for i in range(_TABLE_KEYS):
        key = (i * 7919) % 6007
        table[(key, i & 7)] = (str(key), key >> 1)
    rows = sorted(table.items())
    {label: pair for pair, (label, _) in rows}
    for _ in range(_COUNT_PASSES):
        reference.count_increasing(_COUNT_PERM)
    return time.perf_counter() - start


def reference_seconds(wall_s: float, loop_before: float, loop_after: float) -> float:
    """wall_s in reference seconds, from the loop timed on either side."""
    return wall_s * 2 * REFERENCE_S / (loop_before + loop_after)
