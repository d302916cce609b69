"""Calibration: express run time in nominal seconds of this machine.

The 2-CPU machine these figures come from changes speed by up to 1.9x
in phases that last from a second to over a minute (another tenant on
the same cores); CPU time swings with wall time.  Within one phase a
fixed reference kernel slows in step with the program: over 2-second
windows of a 40-second run, learn-step time varied with a coefficient
of variation of 0.22, the kernel's with 0.20, their ratio with 0.05
(correlation 0.97).  So the benchmark runs the kernel at most every
INTERVAL seconds in the measured thread, before calls into the program,
and rescales each stretch of time by ``NOMINAL_KERNEL_S / kernel time``
measured around it.  It is used where the measured work runs on one
thread: the training pipeline, and the set-up probes (timed once before
each spawn).  A nominal second is what a second is when the
kernel takes NOMINAL_KERNEL_S, its time in this machine's fast phase.
The kernel's own time is left out of the timeline.
"""

from __future__ import annotations

import bisect
import time

import numpy as np

INTERVAL = 0.2
#: Kernel time in the fast phase of the reference machine (2 CPUs,
#: Python 3.11, numpy 2.4); only scales the nominal unit.
NOMINAL_KERNEL_S = 0.5e-3
_A = np.random.default_rng(7).random((32, 32))


def kernel() -> float:
    """Fixed interpreter + small-matmul work, like the program's mix."""
    s = 0.0
    for _ in range(180):
        s += float((_A @ _A)[0, 0])
        s += sum(range(40))
    return s


class Calibrator:
    """Runs :func:`kernel` and keeps its timings for :class:`NominalClock`."""

    def __init__(self, interval: float = INTERVAL) -> None:
        self.interval = interval
        #: ``(start, end)`` of every kernel run.
        self.samples: list[tuple[float, float]] = []
        self._last = float("-inf")
        self._undo: list[tuple[object, str, object]] = []

    def due(self) -> bool:
        """Whether INTERVAL has passed since the last kernel run."""
        return time.perf_counter() - self._last >= self.interval

    def maybe(self) -> None:
        """Run the kernel once if INTERVAL has passed since the last run."""
        if self.due():
            self.run(1)

    def run(self, n: int) -> None:
        for _ in range(n):
            t0 = time.perf_counter()
            kernel()
            t1 = time.perf_counter()
            self.samples.append((t0, t1))
            self._last = t1

    def attach(self, owner, attr: str) -> None:
        """Calibrate (when due) just before each call of ``owner.attr``."""
        raw = owner.__dict__[attr] if isinstance(owner, type) and attr in owner.__dict__ \
            else getattr(owner, attr)
        maybe = self.maybe

        def wrapper(*args, **kwargs):
            maybe()
            return raw(*args, **kwargs)

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, raw))

    def remove(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def clock(self) -> "NominalClock":
        return NominalClock(self.samples)


class NominalClock:
    """Maps a ``perf_counter`` time to nominal seconds (differences only).

    Between kernel runs k and k+1 time advances at ``NOMINAL_KERNEL_S /
    c_k``, with c_k the median kernel time over runs k-2..k+2 (one run
    can be hit by an interrupt; phases last longer than five runs).
    Kernel runs themselves take no nominal time.  Without samples the
    clock is the wall clock.
    """

    def __init__(self, samples: list[tuple[float, float]]) -> None:
        samples = sorted(samples)
        self._a = [a for a, _ in samples]
        self._b = [b for _, b in samples]
        c = [b - a for a, b in samples]
        self._s = [
            NOMINAL_KERNEL_S / float(np.median(c[max(0, k - 2):k + 3]))
            for k in range(len(c))
        ]
        self._n = [0.0]
        for k in range(len(samples) - 1):
            self._n.append(self._n[-1] + (self._a[k + 1] - self._b[k]) * self._s[k])

    def __call__(self, t: float) -> float:
        if not self._a:
            return t
        k = bisect.bisect_right(self._a, t) - 1
        if k < 0:
            return (t - self._a[0]) * self._s[0]
        if t < self._b[k]:
            return self._n[k]
        return self._n[k] + (t - self._b[k]) * self._s[k]
