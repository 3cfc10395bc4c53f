"""Forward against backward semi-Lagrangian on Kelvin-Helmholtz at large dt.

The paper's central claim: the forward scheme stays stable at time steps
where the backward one does not.  For each dt, both schemes run the
default Kelvin-Helmholtz case on a 64x64 grid to t_end = 40 (the nearest
whole number of steps), and the table prints the final relative energy
drift |E(t_end) - E(0)| / E(0) and the largest x-mode-1 density amplitude
over its initial value.  FSL holds both at every dt; from dt = 3 on, BSL's
energy drifts and its mode 1 grows spuriously.
tests/test_solver.py::TestLargeTimeStep gates the dt = 4 row.

The rate columns run each scheme again on the linearly unstable box
Lx = 4 pi (kx = 0.5) at 32x32 to the whole number of steps nearest t = 18,
and print the slope of log pert1 fitted over t in [8, 18] against the
linear-theory rate 0.12411, the Rayleigh eigenvalue that
tests/test_solver.py::TestKelvinHelmholtzGrowth computes.  FSL keeps the
rate at large dt; BSL's moves away from it.

Run:  python demos/kh_large_dt.py [dt ...]
"""

import sys

import numpy as np

from fslvlasov import cases, solver

#: largest linear growth rate of the guiding-center model at kx = 0.5
RATE = 0.12411


def run(scheme, dt, t_end, **overrides):
    return solver.run(cases.apply_overrides(cases.case_defaults("kelvin_helmholtz"), {
        "dt": dt, "t_end": max(round(t_end / dt), 1) * dt, "scheme": scheme, **overrides}))


def growth_rate(res):
    """Slope of log pert1 over t in [8, 18]."""
    fit = (res.times >= 8.0 - 1e-9) & (res.times <= 18.0 + 1e-9)
    return np.polyfit(res.times[fit], np.log(res.channel("pert1")[fit]), 1)[0]


dts = [float(a) for a in sys.argv[1:]] or [0.5, 2.0, 3.0, 4.0]

print(f"{'dt':>4} {'t_end':>5} | {'FSL drift':>9} {'pert1 max/0':>11} {'rate':>14} | "
      f"{'BSL drift':>9} {'pert1 max/0':>11} {'rate':>14}   (rate vs {RATE})")
for dt in dts:
    cells = []
    for scheme in ("fsl", "bsl"):
        res = run(scheme, dt, 40.0, nx=64, nv=64)
        energy, pert1 = res.channel("energy"), res.channel("pert1")
        drift = abs(energy[-1] - energy[0]) / energy[0]
        rate = growth_rate(run(scheme, dt, 18.0, nx=32, nv=32, Lx=4.0 * np.pi))
        cells.append(f"{drift:9.2e} {pert1.max() / pert1[0]:11.4g} "
                     f"{rate:7.4f} {rate / RATE - 1.0:+6.1%}")
    print(f"{dt:4g} {res.times[-1]:5g} | {cells[0]} | {cells[1]}")
