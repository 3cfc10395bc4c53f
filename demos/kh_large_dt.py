"""Forward against backward semi-Lagrangian on Kelvin-Helmholtz at large dt.

The paper's central claim: the forward scheme stays stable at time steps
where the backward one does not.  For each dt, both schemes run the
default Kelvin-Helmholtz case on a 64x64 grid to t_end = 40 (the nearest
whole number of steps), and the table prints the final relative energy
drift |E(t_end) - E(0)| / E(0) and the largest x-mode-1 density amplitude
over its initial value.  FSL holds both at every dt; from dt = 3 on, BSL's
energy drifts and its mode 1 grows spuriously.
tests/test_solver.py::TestLargeTimeStep gates the dt = 4 row.

Run:  python demos/kh_large_dt.py [dt ...]
"""

import sys

from fslvlasov import cases, solver

dts = [float(a) for a in sys.argv[1:]] or [0.5, 2.0, 3.0, 4.0]

print(f"{'dt':>4} {'t_end':>5} | {'FSL drift':>9} {'pert1 max/0':>11} | "
      f"{'BSL drift':>9} {'pert1 max/0':>11}")
for dt in dts:
    t_end = max(round(40.0 / dt), 1) * dt
    cells = []
    for scheme in ("fsl", "bsl"):
        cfg = cases.apply_overrides(cases.case_defaults("kelvin_helmholtz"), {
            "nx": 64, "nv": 64, "dt": dt, "t_end": t_end, "scheme": scheme})
        res = solver.run(cfg)
        energy, pert1 = res.channel("energy"), res.channel("pert1")
        drift = abs(energy[-1] - energy[0]) / energy[0]
        cells.append(f"{drift:9.2e} {pert1.max() / pert1[0]:11.4g}")
    print(f"{dt:4g} {t_end:5g} | {cells[0]} | {cells[1]}")
