"""Speed reference for a shared machine.

On a small shared box the speed of one core drifts with the load of
other tenants: the same request can take 1.8x longer for minutes at a
time, which swamps any change worth measuring. Each run therefore also
times a fixed NumPy-only kernel between requests (untimed for the
requests) and reports its times scaled to the speed at which that kernel
takes ``REFERENCE_MS``:

    reported = measured * REFERENCE_MS / median(nearby kernel times)

where "nearby" is the eleven samples around a request, so drift within a
run is followed as well. Each set-up probe process takes its own samples.

The kernel mixes the three kinds of work a request does: a memory-bound
max-times pass over a 500 x 2500 array, interpreter-bound scalar NumPy
calls, and small dense products. It calls nothing from the library, so
a change to the library cannot move it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_MS = 6.0


class SpeedReference:
    def __init__(self):
        gen = np.random.default_rng(0)
        self._Z = gen.random((500, 2500))
        self._b = gen.random(2500)
        self._grid = np.linspace(0.0, 1.0, 401)
        cdf = np.cumsum(gen.random(401))
        self._cdf = cdf / cdf[-1]
        self._M = gen.random((64, 64))
        self.samples: list[float] = []  # seconds

    def sample(self) -> None:
        t0 = time.perf_counter()
        (self._Z * self._b).max(axis=1)
        for k in range(300):
            u = float(np.interp(0.001 * k, self._grid, self._cdf))
            np.exp(-((u + 1.0) ** -1.0))
        for _ in range(30):
            self._M @ self._M
        self.samples.append(time.perf_counter() - t0)

    def local_factors(self, half_width: int = 5) -> list[float]:
        """Per-sample factor from the median of the samples within
        ``half_width`` places, so drift within a run is followed too."""
        n = len(self.samples)
        return [
            REFERENCE_MS
            / (1e3 * statistics.median(self.samples[max(0, i - half_width) : i + half_width + 1]))
            for i in range(n)
        ]

    @property
    def kernel_ms(self) -> float:
        return 1e3 * statistics.median(self.samples)

    @property
    def factor(self) -> float:
        """Multiply a measured time by this to get reference-speed time."""
        return REFERENCE_MS / self.kernel_ms
