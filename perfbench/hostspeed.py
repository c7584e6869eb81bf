"""Host speed, sampled while the benchmark measures.

On a shared host, identical work runs in a fast or a slow state.  The
state switches every few tens of milliseconds, and the share of slow time
drifts over minutes, from about 20% to nearly all of a 40-second run.
Neither the fastest nor the median of a run's iterations survives that:
over runs of one workload, the fastest moved by 30% and the median by 60%.

A :class:`Sampler` times a fixed probe of about 50 us, once when it opens,
every 5 ms from a SIGALRM handler while it is open, and once when it
closes.  REFERENCE_PROBE_S over a probe's time is the host speed at that
moment, relative to the fast state of the host this benchmark was defined
on.  :func:`at_reference` turns a measured time into the time the same work
takes at that reference speed.  The probe is the kind of work mola does:
small matrix products, dot products down the columns of a 336 x 97 matrix
(the access pattern of the Jacobi SVD) and Python float handling, so the
two slow down alike.  Code that slows down less than the probe, such as
large BLAS calls, is over-corrected in a slow run.
"""

from __future__ import annotations

import gc
import signal
from time import perf_counter

import numpy as np

INTERVAL_S = 0.005
# A fixed scale: about the fastest probe seen inside benchmark runs on the
# host the benchmark was defined on (2-core Xeon Skylake-X VM, numpy 2.4,
# OpenBLAS 0.3.31 on one thread), so that converted times are close to
# what that host measures when it is quiet.
REFERENCE_PROBE_S = 45e-6
# probes slower than this many reference probes count as the slow state
SLOW_STATE = 1.2


class Sampler:
    """Collects probe times while open: ``samples`` holds the probes taken
    while it was open plus one at each edge, and ``overhead`` the whole time
    the probes inside took, which the caller subtracts from what it timed."""

    def __init__(self):
        self._a = np.arange(1024.0).reshape(16, 64) / 1024.0
        self._m = np.arange(336.0 * 97).reshape(336, 97) / (336.0 * 97)
        self.samples: list[float] = []
        self.overhead = 0.0
        self._inside: list[float] = []
        self._previous = None

    def _probe(self) -> float:
        # The collector is held off so that a collection the surrounding
        # code has made due does not land in the probe, and three untimed
        # rounds bring the probe back into cache: the probe then sees the
        # core's speed, not the state of the heap or the caches.
        a, m = self._a, self._m
        collecting = gc.isenabled()
        gc.disable()
        try:
            s = 0.0
            for k in range(3):
                s += float((a @ a.T)[0, 0]) + float(m[:, k] @ m[:, k])
            t0 = perf_counter()
            for k in range(10):
                s += float((a @ a.T)[0, 0]) + float(m[:, k] @ m[:, k])
            return perf_counter() - t0
        finally:
            if collecting:
                gc.enable()

    def _on_alarm(self, signum, frame):
        t0 = perf_counter()
        self._inside.append(self._probe())
        self.overhead += perf_counter() - t0

    def __enter__(self):
        self._inside = []
        self.overhead = 0.0
        self.samples = [self._probe()]
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples += self._inside + [self._probe()]
        return False


def speed(samples) -> float:
    """Mean host speed over the probes, 1.0 being the reference fast state."""
    return sum(REFERENCE_PROBE_S / p for p in samples) / len(samples)


def at_reference(measured_s: float, sampler: Sampler) -> float:
    """Time of the measured work at the reference speed: the measured time,
    less the probes taken inside it, times the mean host speed."""
    return (measured_s - sampler.overhead) * speed(sampler.samples)


def slow_share(samples) -> float:
    return sum(p > SLOW_STATE * REFERENCE_PROBE_S for p in samples) / len(samples)
