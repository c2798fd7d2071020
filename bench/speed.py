"""Times scaled to a reference speed by calibrations the program cannot move.

On a shared machine the speed of the same code swings by up to 2x, for
seconds or minutes at a time, as other tenants' load comes and goes; the
process's CPU time swings just as much, so it is the core that slows, not
the scheduler.  A calibration is a fixed piece of work that slows with the
machine.  A time measured between two calibrations is multiplied by the
calibration's reference time over their mean time, which turns it into the
time the same work takes on a machine where the calibration takes its
reference time.

Work inside one interpreter is scaled by ``calibrate``, a loop of exact
arithmetic like the program's own.  A new process is scaled by the start of
a bare interpreter (``python -c pass``): start-up is mostly the kernel
mapping and loading files, which the loop does not track.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter

# What ``calibrate`` and a bare interpreter start take on the reference
# machine (seconds).
CALIBRATION_S = 0.002
INTERPRETER_S = 0.075
LOOPS = 3


def calibrate() -> float:
    """Seconds a fixed Gauss-Jordan elimination over fractions takes now.

    The median of ``LOOPS`` runs, so that one run slowed by an interrupt
    does not skew the times it scales.
    """
    return statistics.median(_loop() for _ in range(LOOPS))


def _loop() -> float:
    start = perf_counter()
    n = 7
    rows = [
        [Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 4) for j in range(n + 1)]
        for i in range(n)
    ]
    for c in range(n):
        p = next(r for r in range(c, n) if rows[r][c])
        rows[c], rows[p] = rows[p], rows[c]
        for r in range(n):
            if r != c and rows[r][c]:
                f = rows[r][c] / rows[c][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    return perf_counter() - start


def scaled(seconds: float, before: float, after: float, reference: float = CALIBRATION_S) -> float:
    """``seconds`` at the reference speed, given the calibrations around it."""
    return seconds * 2 * reference / (before + after)
