"""Machine-speed normalisation for timings taken on a shared core.

On a shared core the speed of Python code drifts by tens of percent
within seconds, and two runs of the same requests a minute apart can
differ by 25%. Every timed step is therefore paired with a fixed piece
of interpreter-bound work timed next to it, and the step's time is
scaled to what it would take when that work runs in ``REF_NOMINAL_S``.
A change to ocmatch cannot change the reference work, so it moves the
scaled times exactly as it moves the raw ones on a steady machine.
"""

from __future__ import annotations

from time import perf_counter

REF_ITERATIONS = 40_000
# About what the loop takes on an uncontended core of a 2.1 GHz Xeon.
REF_NOMINAL_S = 0.006


def reference_work() -> float:
    """Seconds taken by the fixed reference work."""
    start = perf_counter()
    table: dict[int, int] = {}
    acc = 0
    for i in range(REF_ITERATIONS):
        key = i & 1023
        table[key] = table.get(key, 0) + i
        acc ^= len(table) + key
    return perf_counter() - start


def at_nominal_speed(seconds: float, ref_before: float, ref_after: float) -> float:
    """Scale a timing by the reference work timed just before and after it."""
    return seconds * REF_NOMINAL_S * 2 / (ref_before + ref_after)
