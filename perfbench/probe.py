"""In-process speed probe: how fast the machine ran while a run ran.

On a shared machine (measured on a 2-vCPU Xeon VM) the speed drifts by
20-30% over seconds to minutes, as other tenants load the cores and
caches, so the wall time of one run says as much about the neighbours as
about the program. `SpeedProbe` measures the drift where the program
runs: every `INTERVAL_S` of wall time a SIGALRM handler times one call of
a small fixed kernel (a 16^3 complex FFT pair and cubic
`map_coordinates` at 2000 points, numpy and scipy only, about 2 ms).
Dividing the run's time by the mean kernel time gives its time in kernel
units, which a slow spell of the machine scales in both terms and so
cancels. The kernel never calls stablelab, so no change
to the program changes what one kernel call costs; its calls take about
2% of a run and are subtracted from the run's time.

The kernel uses `numpy.fft`, not the `scipy.fft` the program uses, so
that it leaves the program's FFT plan cache alone.
"""

from __future__ import annotations

import signal
import time

import numpy as np
from scipy import ndimage

INTERVAL_S = 0.1


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._u = rng.standard_normal((16, 16, 16)) + 0j
        self._f = rng.standard_normal((16, 16, 16))
        self._points = rng.uniform(0.0, 16.0, size=(3, 2000))
        self.samples = []

    def _kernel(self):
        np.fft.ifftn(np.fft.fftn(self._u) * 0.5)
        ndimage.map_coordinates(self._f, self._points, order=3,
                                mode="grid-wrap")

    def _on_alarm(self, signum, frame):
        t0 = time.perf_counter()
        self._kernel()
        self.samples.append(time.perf_counter() - t0)

    def start(self):
        # two untimed calls load the code and data
        self._kernel()
        self._kernel()
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> dict:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        n = len(self.samples)
        return {"n": n, "sum_s": sum(self.samples),
                "mean_s": sum(self.samples) / n if n else 0.0}
