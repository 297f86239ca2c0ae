"""Core-speed probe: rescale a job's wall time to a fixed reference speed.

The benchmark runs on a few cores of a shared host.  The speed of a core
drifts by 20 % and more over periods of seconds to minutes, with CPU time
equal to wall time and no steal time; the two cores drift independently.
Medians within a run cannot remove drift that lasts as long as the run.

So each job measures the speed of its own core while it runs.  A one-shot
interval timer interrupts the job every INTERVAL_S of wall time and runs a
fixed probe: a small sparse-polynomial product on dicts of tuples, the same
kind of interpreter work as the engine's.  The probe is benchmark code, so a
change to the engine does not change it.  A span of wall time W in which
probes took d_1..d_n, of total P, is reported as

    (W - P) * mean(REFERENCE_S / d_i)

that is, the engine's share of the wall time, rescaled from the speed each
probe saw to the speed at which one probe takes REFERENCE_S.  Probes are
evenly spaced in the engine's time, so the mean weights each stretch of
the span alike.  Over ten runs per workload this cut the spread of the
verdict time, as interquartile range over median, from 0.11-0.20 to
0.011-0.014 (see README.md).

The probe runs with the garbage collector off, so it never pays for a
collection of the engine's heap.  Probing costs about 3 % of the wall time;
the rescaled figure leaves that out.
"""

from __future__ import annotations

import gc
import signal
import time

INTERVAL_S = 0.01
# one probe on an idle core of the 2-core Xeon VM the bounds were set on
REFERENCE_S = 0.00032

_A = {(i, j): i * 31 + j for i in range(4) for j in range(4)}
_B = {(i, j): i * 17 - j for i in range(4) for j in range(3)}


def probe() -> dict:
    """Fixed work: six products of two small sparse bivariate polynomials."""
    for _ in range(6):
        out = {}
        for (a1, a2), ca in _A.items():
            for (b1, b2), cb in _B.items():
                key = (a1 + b1, a2 + b2)
                out[key] = out.get(key, 0) + ca * cb
    return out


class SpeedProbe:
    """Probes the core every INTERVAL_S of wall time between start and stop."""

    def __init__(self):
        self.durations = []
        self._running = False

    def _tick(self, signum, frame):
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        probe()
        self.durations.append(time.perf_counter() - t0)
        if enabled:
            gc.enable()
        if self._running:
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def start(self):
        probe()  # warm the probe's code and data before the first timed probe
        signal.signal(signal.SIGALRM, self._tick)
        self._running = True
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def stop(self):
        self._running = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_IGN)

    def take(self) -> list:
        """The probe durations since the last take."""
        out, self.durations = self.durations, []
        return out


def rescale(wall: float, durations: list) -> float:
    """Wall time without the probes, at the reference speed."""
    if not durations:
        raise ValueError("no probe ran in the span; it is shorter than INTERVAL_S")
    engine = wall - sum(durations)
    return engine * sum(REFERENCE_S / d for d in durations) / len(durations)
