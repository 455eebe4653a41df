"""Correction of CPU times for the machine's momentary speed.

On a shared machine the same work takes different CPU time from minute
to minute: other tenants on the sibling hardware thread, or frequency
changes, slow every instruction.  ``SpeedProbe`` samples that speed from
inside the worker.  A profiling timer fires after every ``INTERVAL_S``
of the process's CPU time, and its handler runs a fixed piece of
interpreter work (dict lookups on tuple keys, integer arithmetic) and
records the CPU time it took.  Samples are thus spread evenly over the
measured work, and the work's CPU time is corrected as

    corrected = (raw CPU - CPU spent in probes) * REFERENCE_S / mean probe time

i.e. expressed at the speed at which one probe takes ``REFERENCE_S``.
The signal handler runs in the main thread; no thread is started.  All
CPU times are read with ``time.thread_time``: while a process-wide CPU
timer is armed, Linux serves ``time.process_time`` from the scheduler
tick (4 ms steps here), while the thread clock stays exact.  The worker
is single-threaded, so its thread time is its process time.
"""

from __future__ import annotations

import gc
import signal
import time

INTERVAL_S = 0.05
# about one probe's CPU time on the 2.1 GHz Xeon of the reference figures
# (0.37-0.41 ms measured there)
REFERENCE_S = 0.0004

_KEYS = [(i & 7, i & 3, i) for i in range(1024)]
_TABLE = {k: k[2] * 7919 for k in _KEYS}


def _work() -> int:
    acc = 1
    for k in _KEYS:
        v = _TABLE[k]
        acc = (acc * 31 + v) % 1_000_000_007
        acc ^= v << 20
    return acc


class SpeedProbe:
    def __init__(self):
        self.samples: list[float] = []

    def probe(self, *_signal_args) -> None:
        enabled = gc.isenabled()
        gc.disable()  # a collection owed by the measured code stays there
        t0 = time.thread_time()
        _work()
        self.samples.append(time.thread_time() - t0)
        if enabled:
            gc.enable()

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self.probe)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)

    def mark(self) -> int:
        """Take a sample now and return its index."""
        self.probe()
        return len(self.samples) - 1

    def corrected(self, raw_cpu: float, first: int, last: int) -> float:
        """raw_cpu, measured from the end of sample ``first`` to the start
        of sample ``last``, less the probes in between and scaled by the
        mean of samples first..last."""
        window = self.samples[first : last + 1]
        spent = sum(self.samples[first + 1 : last])
        return (raw_cpu - spent) * REFERENCE_S * len(window) / sum(window)
