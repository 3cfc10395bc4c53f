"""Calibration probe: a fixed numpy kernel that tracks the host's speed.

On a host whose cores are shared with other tenants, they slow whole
stretches of seconds to minutes by as much as 60%.  The probe makes the
same kinds of memory-bound numpy calls as a solver step (a cubic
bincount deposit, a real FFT, an einsum gather) on fixed synthetic data,
and uses no fslvlasov code, so no change to the program moves it.
Measured between simulations, ``PROBE_REF_MS / Probe.ms()`` rescales a
simulation's times to a host of fixed speed: in six processes whose
bump_on_tail steps read 20 to 30 ms, step time over probe time stayed
between 2.98 and 3.18 (with the allocator's trimming off).
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

#: probe time on an unloaded 2-vCPU Intel Xeon host with glibc's default
#: allocator (about 6 ms with its trimming off; the probe's temporaries
#: fault in as a step's do).  Rescaled times are milliseconds on a host
#: running at that speed.
PROBE_REF_MS = 9.0

_N = 16768   # particles, as in the 128x128 workloads
_G = 129     # grid nodes per dimension


class Probe:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.pos = rng.uniform(0.0, _G - 2.0, (2, _N))
        self.weights = rng.standard_normal(_N)
        self.grid = rng.standard_normal((_G, _G))

    def _kernel(self) -> float:
        i = np.floor(self.pos).astype(np.int64)
        t = self.pos - i
        wx = np.stack([(1 - t[0]) ** 3, t[0] ** 2, t[0], t[0] ** 3], axis=-1)
        wy = np.stack([(1 - t[1]) ** 3, t[1] ** 2, t[1], t[1] ** 3], axis=-1)
        ix = i[0][:, None] + np.arange(4)
        iy = i[1][:, None] + np.arange(4)
        flat = ix[:, :, None] * (_G + 2) + iy[:, None, :]
        w = self.weights[:, None, None] * wx[:, :, None] * wy[:, None, :]
        dep = np.bincount(flat.ravel(), weights=w.ravel(), minlength=(_G + 2) ** 2)
        g = np.fft.irfft(np.fft.rfft(self.grid, axis=0), n=_G, axis=0)
        block = g[ix[:, :, None] % _G, iy[:, None, :] % _G]
        vals = np.einsum("nij,ni,nj->n", block, wx, wy)
        return float(dep.sum() + vals.sum())

    def ms(self, reps: int = 20) -> float:
        """Median wall time of the kernel over ``reps`` calls, in ms."""
        times = []
        for _ in range(reps):
            t0 = perf_counter()
            self._kernel()
            times.append(perf_counter() - t0)
        return 1e3 * float(np.median(times))
