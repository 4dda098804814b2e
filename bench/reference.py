"""A speed probe: a fixed kernel timed all through the run.

On a shared host the CPU that runs the benchmark changes speed for seconds
at a time as neighbours come and go: on the 2-vCPU VM the bounds were set
on, the same replication ran 1.9x faster in quiet stretches than in busy
ones, and how much of a 30-second run fell in quiet stretches differed from
run to run far more than the program ever does. The speed is that of the
CPU the process runs on; a second process on the other vCPU does not see it.

So while the timed rounds run, a SIGALRM handler in the main thread runs a
small fixed kernel every ``INTERVAL_S`` of wall time and records the CPU
seconds it took. A round's seconds are then scaled to the nominal speed:
``seconds * NOMINAL_S * mean(1 / kernel seconds)`` over the samples taken
during the round (the mean of speeds, since the samples are evenly spread
in time). The kernel is frozen benchmark code, so a change to the program
moves the scaled rate as it moves the wall rate, while the host's speed
moves the round and the kernel alike and cancels out. When the main process
waits on worker processes, the handler runs on whichever vCPU is free first,
so its samples average the speed of both.

``setup_probe.py`` scales each set-up the same way, inside its fresh
interpreter.

The probe costs the kernel's time over ``INTERVAL_S`` (2-3%) of each
round, the same on every commit. Signals interrupt no call of the program: Python
retries interrupted system calls and lock waits after the handler runs.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.1
# About the CPU seconds of one kernel call in a quiet stretch on the VM the
# bounds were set on (1.7-1.8 ms; 2.8-3.1 ms in a contended one). Scaled
# rates read as the rates of a host that runs the kernel in NOMINAL_S.
NOMINAL_S = 0.002

_STARTS = np.array([0.0, 0.8])
_SHAPES = np.array([1.4, 0.9])
_SCALES = np.array([1.7, 2.6])
_EDGE = (_STARTS / _SCALES) ** _SHAPES
_OFFSETS = np.concatenate(
    ([0.0], np.cumsum(((np.append(_STARTS[1:], 0.0) / _SCALES) ** _SHAPES - _EDGE)[:-1])))
_DRAWS = [np.random.default_rng(20101005 + k).random(25) for k in range(2)]


def _cdf(t):
    seg = np.clip(np.searchsorted(_STARTS, t, side="right") - 1, 0, None)
    tt = np.clip(t, 0.0, None)
    return -np.expm1(-(_OFFSETS[seg] + (tt / _SCALES[seg]) ** _SHAPES[seg] - _EDGE[seg]))


def kernel():
    """Bisection inverse CDF of a two-piece Weibull over tiny numpy arrays:
    interpreter and numpy call overhead, the mix the program runs most."""
    for u in _DRAWS:
        lo, hi = np.zeros_like(u), np.full_like(u, 8.0)
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            below = _cdf(mid) < u
            lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
            if np.max(hi - lo) <= 1e-10:
                break


class SpeedProbe:
    """Context manager that samples the kernel's CPU seconds on a timer."""

    def __init__(self):
        self.samples: list[float] = []
        self._round: list[float] = []
        self._previous = None

    def _sample(self, signum, frame):
        t0 = time.thread_time()
        kernel()
        seconds = time.thread_time() - t0
        self.samples.append(seconds)
        self._round.append(seconds)

    def __enter__(self):
        kernel()  # the first call pays numpy's one-time lookups; not a sample
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def scale_round(self, seconds: float) -> float:
        """Scale a round that has just ended, by the samples taken since the
        previous call (or the last sample, if none fell in the round)."""
        taken, self._round = self._round, []
        taken = taken or self.samples[-1:]
        if not taken:
            return seconds
        return seconds * NOMINAL_S * statistics.fmean(1.0 / k for k in taken)
