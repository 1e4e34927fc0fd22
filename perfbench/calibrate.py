"""Calibration kernel: fixed work, independent of rpps, timed at replication
boundaries so that wall times can be given in reference seconds.

The machines this benchmark runs on share their cores with other tenants.
Their speed switches between a fast and a slow state (the kernel takes about
1.6x longer in the slow one), in states that last from a tenth of a second to
minutes, and the share of time spent slow drifts over minutes.  The switch
moves the kernel's time as it moves rpps's.  A stretch of rpps work of ``t``
wall seconds between kernel runs that took ``k1`` and ``k2`` seconds took
``t * REF_SECONDS / mean(k1, k2)`` reference seconds: the time it would take
on a machine where the kernel takes ``REF_SECONDS``.

The kernel is short (about 2 ms) so that it can run next to every
replication and sample the state that replication ran in; one kernel run
before and after a whole chunk of about a second samples it too coarsely.
It mixes the two kinds of work rpps does: least-squares fits on 12 x 3
arrays (interpreter-bound, like the MLE refits and the quadrature oracle)
and products over a 20,000 x 12 array (memory- and BLAS-bound, like the
batched Monte Carlo oracle).  Its inputs are fixed, so it does the same work
on every run; nothing in it depends on rpps, so a change to rpps cannot
move it.
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np

# The kernel's time on the reference machine: about its time on a 2-vCPU
# Intel Xeon VM (Python 3.11, numpy 2.4, one OpenBLAS thread) in its fast state.
REF_SECONDS = 0.0021

# A mark runs the kernel only when this long has passed since it last ran,
# which keeps its cost near 5% of the timed work where replications are short.
GAP_SECONDS = 0.04

_rng = np.random.default_rng(20150607)
_X = _rng.standard_normal((12, 3))
_Y = _rng.standard_normal(12)
_BIG = _rng.standard_normal((20_000, 12))
_V = _rng.standard_normal(12)

SMALL_FITS = 90
BIG_PRODUCTS = 6


def _work() -> float:
    total = 0.0
    for i in range(SMALL_FITS):
        beta, *_ = np.linalg.lstsq(_X, _Y, rcond=None)
        resid = _Y - _X @ beta
        total += float(resid @ resid) + math.log1p(i)
    for _ in range(BIG_PRODUCTS):
        z = _BIG @ _V
        total += float(np.exp(-0.5 * z * z).sum())
    return total


class Timeline:
    """Marks at the boundaries of a stretch of timed work.

    With ``sample``, a mark runs the kernel first when the timeline has just
    begun, when ``force`` is set, or when GAP_SECONDS have passed since the
    kernel last ran.  A gap runs from the end of one mark to the start of the
    next, so it holds no kernel time; its scale comes from the nearest kernel
    runs on either side.  Without ``sample`` no kernel runs and every scale
    is 1.
    """

    def __init__(self, sample: bool):
        self.sample = sample
        self.marks: list[tuple[float, float, float | None]] = []  # (start, end, kernel seconds)
        self._last = -math.inf

    def mark(self, force: bool = False) -> None:
        start = perf_counter()
        if self.sample and (force or start - self._last >= GAP_SECONDS):
            _work()
            self._last = end = perf_counter()
            self.marks.append((start, end, end - start))
        else:
            self.marks.append((start, start, None))

    def gaps(self) -> list[float]:
        """Wall seconds between consecutive marks."""
        return [b[0] - a[1] for a, b in zip(self.marks, self.marks[1:])]

    def scales(self) -> list[float]:
        """Reference seconds per wall second for each gap."""
        kernels = [k for _, _, k in self.marks]
        before = _carry(kernels)
        after = _carry(kernels[::-1])[::-1]
        return [
            2.0 * REF_SECONDS / (a + b) if a is not None and b is not None else 1.0
            for a, b in zip(before, after[1:])
        ]


def _carry(values: list) -> list:
    """Each value, or the last one before it that is not None."""
    out, last = [], None
    for v in values:
        last = v if v is not None else last
        out.append(last)
    return out


# Pay the first run's one-off costs (page faults, lazy set-up in numpy) at import.
_work()
