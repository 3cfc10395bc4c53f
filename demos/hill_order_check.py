"""Time- and space-order checks with an external periodic focusing force.

With force -a(t) x there is no field solve, and the matched Gaussian
initial state makes x_rms(t) = sqrt(2 pi) w(t) exactly, with w the
periodic envelope.  Summing |x_rms(2 k pi) - x_rms(0)| over ten periods
isolates the time-integration error; halving dt shows the scheme order
until the spatial remap floor takes over.

The spatial table compares f after one period (rk4, 25 steps) with the
exact solution of the discrete flow, f0(S^-1 z) / det S, where S is the
2x2 map of the same 25 pusher steps (the force is linear), read off by
pushing the unit vectors.  FSL's error falls with the grid at an order
near 3 to 2.8; the hybrid scheme that remaps once a period (T = 25)
stalls near 6e-3.

Run:  python demos/hill_order_check.py [grid_n]
"""

import sys

import numpy as np

from fslvlasov import cases, solver
from fslvlasov.deposition import ParticleSet
from fslvlasov.hill import matched_omega0
from fslvlasov.pushers import VP_PUSHERS

n = int(sys.argv[1]) if len(sys.argv) > 1 else 128


def one_period_error(n_grid, scheme, T):
    """L2 error over the nodes, sqrt(dx dv sum (f - f_exact)^2), after one period."""
    base = cases.case_defaults("hill")
    w0 = matched_omega0(cases.hill_coefficient(base))
    cfg = cases.apply_overrides(base, {
        "nx": n_grid, "nv": n_grid, "pusher": "rk4", "dt": 2 * np.pi / 25,
        "t_end": 2 * np.pi, "omega0": w0, "scheme": scheme, "T": T,
    })
    state = solver.init(cfg)
    unit = ParticleSet(np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.ones(2))
    for k in range(cfg.n_steps()):
        solver.step(state)
        unit = VP_PUSHERS[cfg.pusher](unit, state.provider, cfg.dt, k * cfg.dt)
    S = np.array([unit.pos1, unit.pos2])
    x, v = np.meshgrid(state.g1.nodes(), state.g2.nodes(), indexing="ij")
    x0, v0 = np.linalg.solve(S, np.stack([x.ravel(), v.ravel()])).reshape(2, *x.shape)
    exact = np.exp(-(x0**2) / (2 * w0**2) - w0**2 * v0**2 / 2) / np.linalg.det(S)
    return np.sqrt(state.cell * np.sum((state.f_nodes - exact) ** 2))


print("space: one period, rk4, 25 steps; L2 error against f0(S^-1 z) / det S")
for label, scheme, T, grid_ns in (("fsl", "fsl", 1, (32, 64, 128)),
                                  ("hybrid T = 25", "hybrid", 25, (64, 128))):
    print(label)
    prev = None
    for m in grid_ns:
        err = one_period_error(m, scheme, T)
        line = f"  n = {m:<4d} err = {err:.3e}"
        if prev:
            line += f"   local order = {np.log(prev[1] / err) / np.log(m / prev[0]):.2f}"
        print(line)
        prev = (m, err)


def err_for(pusher, m):
    cfg = cases.apply_overrides(
        cases.case_defaults("hill"),
        {"nx": n, "nv": n, "pusher": pusher, "dt": 2 * np.pi / m,
         "t_end": 20 * np.pi, "diag_every": m},
    )
    xr = solver.run(cfg).channel("xrms")
    return sum(abs(xr[k] - xr[0]) for k in range(1, 11))


print(f"time: grid {n}^2, ten periods of a(t) = 0.81 + 0.15 cos t")
results = {}
for pusher in ("rk2", "rk4"):
    print(pusher)
    errs = []
    for m in (8, 11, 16, 23, 32):
        errs.append(err_for(pusher, m))
        line = f"  dt = 2pi/{m:<3d} err = {errs[-1]:.3e}"
        if len(errs) > 1:
            line += f"   local slope = {np.log(errs[-2] / errs[-1]) / np.log(m / m_prev):.2f}"
        print(line)
        m_prev = m
    results[pusher] = errs

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    ms = np.array([8, 11, 16, 23, 32])
    dts = 2 * np.pi / ms
    for pusher, marker in (("rk2", "o"), ("rk4", "s")):
        plt.loglog(dts, results[pusher], marker + "-", label=pusher)
    plt.loglog(dts, 0.2 * dts**2, ":", label=r"$\Delta t^2$")
    plt.loglog(dts, 0.05 * dts**4, ":", label=r"$\Delta t^4$")
    plt.xlabel(r"$\Delta t$")
    plt.ylabel("err")
    plt.legend()
    plt.tight_layout()
    plt.savefig("hill_order.png", dpi=150)
    print("wrote hill_order.png")
except ImportError:
    print("matplotlib not installed; skipping the plot")
