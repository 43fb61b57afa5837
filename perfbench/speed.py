"""Machine-speed calibration for host timings on a shared machine.

The effective speed of a shared virtual machine drifts with its
neighbours' load: on the 2-vCPU box the baseline was recorded on, a fixed
pure-Python loop ran anywhere from 21 to 31 ms within two minutes, and the
same workload's median step moved by more than 50% between batches of
runs.  Raw wall-clock medians from two sets of runs an hour apart then
differ by more than any useful regression bound.

So every timed run also times :func:`kernel` -- a fixed mix of interpreter,
regex and numpy elementwise work that touches no ``repro`` code -- before
and after each repeat, and scales that repeat's timings by
``REFERENCE_S / kernel time``.
A program change cannot move the kernel, so it moves the scaled times
exactly as it moves the raw ones; a machine slowdown moves both and
cancels.  The reported figures are host milliseconds at the machine speed
of the recorded baseline; ``run.py`` prints the raw medians alongside.
"""

from __future__ import annotations

import re
import statistics
import time

import numpy as np

#: Median :func:`kernel` seconds on the baseline machine (see README.md);
#: scaled timings are host seconds at that machine speed.
REFERENCE_S = 0.007

_RE = re.compile(r"^\s*do\s+(\w+)\s*=\s*(\w+)\s*,\s*(\w+)", re.I)
_LINES = [
    f"      do k{i} = 1, n{i % 7}" if i % 3 else f"  x({i}) = y({i}) + z  ! note"
    for i in range(3000)
]
_RNG = np.random.default_rng(0)
#: One rank's ghosted field at the step-mid grid (32x24x48 on 2 ranks).
_A = _RNG.random((18, 26, 50))
_B = _RNG.random((18, 26, 50))
_I = (slice(1, -1), slice(1, -1), slice(1, -1))


class _Slot:
    __slots__ = ("total",)

    def __init__(self) -> None:
        self.total = 0

    def add(self, k: int) -> None:
        self.total += k


def kernel() -> float:
    """Run the fixed reference work; returns its host seconds."""
    t0 = time.perf_counter()
    counts: dict[int, int] = {}
    slot = _Slot()
    for i in range(12000):
        k = i & 127
        counts[k] = counts.get(k, 0) + 1
        slot.add(k)
    for line in _LINES:
        _RE.match(line)
    for _ in range(48):
        c = _A * _B + _A
        c[_I].sum()
    return time.perf_counter() - t0


def probe(repeats: int = 5) -> float:
    """Median seconds of ``repeats`` kernel runs."""
    return statistics.median(kernel() for _ in range(repeats))


def factor(*probes: float) -> float:
    """Scale for timings taken next to the given :func:`probe` readings."""
    return REFERENCE_S * len(probes) / sum(probes)
