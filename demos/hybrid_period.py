"""Remap period of the hybrid scheme on nonlinear two-stream.

The hybrid scheme pushes the particles with frozen weights for T steps and
remaps only then.  Fewer remaps diffuse less, until the frozen weights of
a too long cycle break down: the remap trade-off of Denavit, JCP 9 (1972)
and Wang, Miller and Colella, SISC 33 (2011).  Each row runs two-stream on
a 64x64 grid at dt 0.5 to t_end 48 and prints the largest relative L2-norm
drift over all rows, the electric-energy error (largest |ee - ee_ref| over
the largest ee_ref) against a forward run at dt 0.125, and the wall time.
T = 1 is the forward scheme.  tests/test_solver.py::TestHybridPeriod gates
T = 4 against T = 1, with T = 8 as the witness that breaks down.

Run:  python demos/hybrid_period.py [T ...]
"""

import sys
import time

import numpy as np

from fslvlasov import cases, solver

periods = [int(a) for a in sys.argv[1:]] or [1, 2, 4, 8, 16]
base = cases.apply_overrides(cases.case_defaults("two_stream"),
                             {"nx": 64, "nv": 64, "t_end": 48.0})
ref = solver.run(cases.apply_overrides(base, {"dt": 0.125}))
ee_ref = ref.channel("electric_energy")[::4]  # the dt 0.5 instants

print(f"{'T':>3} | {'l2 drift':>9} {'ee error':>9} {'wall s':>7}")
for T in periods:
    scheme = "fsl" if T == 1 else "hybrid"
    t0 = time.perf_counter()
    res = solver.run(cases.apply_overrides(base, {"dt": 0.5, "scheme": scheme, "T": T}))
    wall = time.perf_counter() - t0
    l2, ee = res.channel("l2"), res.channel("electric_energy")
    drift = np.abs(l2 - l2[0]).max() / l2[0]
    err = np.abs(ee - ee_ref).max() / ee_ref.max()
    print(f"{T:3d} | {drift:9.3g} {err:9.3g} {wall:7.2f}")
