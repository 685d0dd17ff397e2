"""Machine-speed sampling during a pass, to rescale its time to a reference speed.

The shared VM the benchmark was tuned on (2 vCPUs, Xeon at 2.1 GHz)
changes speed by up to a factor of two within seconds, for interpreter,
numpy and BLAS code alike. A timer signal interrupts the pass every
INTERVAL_S and times a fixed ~2 ms kernel in the handler: six sparse
matrix-vector products at n=65,536, the size and kind of the workloads'
own operators. It uses no schrodloc code, so a change to the package
cannot move it. The pass time without the handlers, times
PROBE_NOMINAL_S / (median kernel time), reads as seconds at the reference
speed.

The kernel was chosen by timing candidates side by side in the handler
over 100-120 s of back-to-back passes. The sparse products tracked the
pass time with elasticity 1.03 (`block` + `pinvit`) and 0.96 (`gen`),
cutting the pass-to-pass spread from 14% to 5% and from 13% to 5%. A
Python loop with dense numpy work reached a similar spread but an
elasticity of 1.3-1.4, which leaves a slow stretch of the machine
under-corrected; random gathers reached 0.6. Timing the kernel only
between passes tracked the passes far less well.

Python runs a signal handler between bytecodes of the main thread, never
inside a C call, so numpy and scipy state is consistent when it runs.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np
import scipy.sparse as sp

PROBE_NOMINAL_S = 0.0025  # median in-pass kernel time on the reference VM
INTERVAL_S = 0.2


class SpeedSampler:
    """Times `kernel` from a SIGALRM handler while started.

    intervals holds (start, end) of every handler run, so the time they
    took can be removed from any measured interval.
    """

    def __init__(self):
        self.samples = []
        self.intervals = []
        self._previous = None
        n = 256 * 256
        self._op = (
            4.0 * sp.eye(n, format="csr")
            - sp.eye(n, k=1, format="csr")
            - sp.eye(n, k=-1, format="csr")
            - sp.eye(n, k=256, format="csr")
            - sp.eye(n, k=-256, format="csr")
        ).tocsr()
        self._v = np.ones(n)
        self.kernel()  # first-call costs stay out of the samples

    def kernel(self):
        """Fixed work: sparse matrix-vector products with a 2D 5-point stencil."""
        for _ in range(6):
            self._op @ self._v

    def _handler(self, signum, frame):
        t0 = time.perf_counter()
        self.kernel()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.intervals.append((t0, time.perf_counter()))

    def start(self):
        self.samples, self.intervals = [], []
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def handler_time(self, start, end):
        """Time spent in handlers between start and end."""
        return sum(min(b, end) - max(a, start) for a, b in self.intervals if b > start and a < end)

    def scale(self):
        """Factor from measured seconds to seconds at the reference speed."""
        if not self.samples:
            return 1.0
        return PROBE_NOMINAL_S / statistics.median(self.samples)
