"""Host-speed calibration: a fixed slice of pure-Python work.

The benchmark host changes speed in phases lasting seconds (a fixed loop
reads ~29 ms in one phase and ~45 ms in the next).  Every timed operation
therefore runs next to this slice, and its duration is divided by the
rolling median of the nearby slice times and multiplied by
``NOMINAL_SLICE_S``.  Corrected times read as time at one fixed reference
speed.

This module must import nothing from ``repro``: a change to the program
must never change the yardstick.  ``run.py --self-test`` checks that.
"""

import statistics
import time

#: The slice time that defines the reference speed (seconds).
NOMINAL_SLICE_S = 0.0015
#: Slices on each side of an operation that its correction factor uses.
WINDOW = 4


class _Pair:
    __slots__ = ("key", "weight")

    def __init__(self, key, weight):
        self.key = key
        self.weight = weight


def _combine(left, right):
    return left.key + right.weight


def calibration_slice():
    """About 1.5 ms of dict, list, tuple, attribute, call and sort work."""
    pairs = [_Pair(i, (i * 7919) % 1511) for i in range(1500)]
    total = 0
    for position in range(1, 1500):
        total += _combine(pairs[position - 1], pairs[position])
    pairs.sort(key=lambda pair: pair.weight)
    table = {}
    for pair in pairs:
        table[(pair.weight, pair.key & 7)] = pair.key
    ranked = sorted(table.items(), reverse=True)
    kept = tuple(key for key, __ in ranked[:500])
    return total + len(kept) + kept[0][0]


def timed_slice():
    """Run one slice and return its wall time in seconds."""
    started = time.perf_counter()
    calibration_slice()
    return time.perf_counter() - started


class Calibrator:
    """Slice times recorded beside a sequence of operations.

    Call :meth:`tick` before each operation; ``index`` is the slice that
    precedes it.  After the run, :meth:`factor` turns slice ``index`` into
    the multiplier for the operation that followed it.
    """

    def __init__(self):
        self.slices = []

    def tick(self):
        self.slices.append(timed_slice())
        return len(self.slices) - 1

    def factor(self, index):
        window = self.slices[max(0, index - WINDOW + 1): index + WINDOW + 1]
        return NOMINAL_SLICE_S / statistics.median(window)

    def summary(self):
        """Median and range of the slice times, in milliseconds."""
        if not self.slices:
            return {"median_ms": 0.0, "min_ms": 0.0, "max_ms": 0.0, "n": 0}
        return {
            "median_ms": statistics.median(self.slices) * 1e3,
            "min_ms": min(self.slices) * 1e3,
            "max_ms": max(self.slices) * 1e3,
            "n": len(self.slices),
        }
