"""Backward semi-Lagrangian (BSL) comparator for the VP and GC models.

The forward scheme pushes particles from the nodes; the backward one
traces the characteristics ending at the nodes back to their feet and
interpolates the previous solution there with cubic splines.  Vlasov-
Poisson uses Strang splitting: a half shift in x, a field solve, a kick
in v and another half shift in x, each a 1D spline interpolation per row
or column.  The guiding-center step finds implicit-midpoint feet by
fixed-point iteration, which loses stability at large time steps, where
the forward scheme stays stable: the paper's comparison.  Feet beyond the
natural walls read f at the wall, by the clip of ``splines._locate``, where
every spline read locates; feet across the periodic x seam wrap there too.

The comparator runs on the forward scheme's providers (``pushers``).
The guiding-center reads (four midpoint sweeps, the foot read of f) go
through the provider's one stage operator, filled at margin 0.
``bsl_step`` returns the new node values and the mass that left through
the walls; the solver remaps them as it does the forward scheme's (books
the loss, refits, reseeds, hands f to the provider) and advances the
clock.  The guiding-center step reads E^n as the provider's node field of
the remap, solved from f on first use and shared with the diagnostics
row, and keeps E^{n-1} in ``SimState.e_prev``; the Vlasov-Poisson rows
read the provider's node field too.  Non-finite values fail the checks of
the field solves or of the remap.
"""

from __future__ import annotations

import numpy as np

from .cases import GC, VP
from .field1d import solve_poisson_1d
from .grids import UniformGrid1D
from .splines import SplineCoeffs, eval_2d, solve_cyclic_banded, stencil, stencil_weights
from .splines import _locate, _solve_natural  # the v sweeps' locate and multi-RHS fit


def _advect_x_rows(f, gx: UniformGrid1D, shift):
    """Interpolate each v row of f at x_i - shift_j (periodic splines)."""
    nx = gx.n_nodes
    c = solve_cyclic_banded(f)
    idx, w = stencil(gx, gx.xmin - np.asarray(shift))  # node 0's feet, (4, nv)
    rows, cols = np.arange(nx)[:, None], np.arange(f.shape[1])
    out = np.zeros_like(f)
    for q in range(4):  # node i's feet lie i cells on
        out += w[q] * c[(rows + idx[q]) % nx, cols]
    return out


def _advect_v_cols(f, gv: UniformGrid1D, shift):
    """Interpolate each x column of f at v_j - shift_i (natural splines)."""
    c = _solve_natural(f.T, gv).T                  # (nx, nv + 2)
    i0, t = _locate(gv, gv.nodes()[None, :] - np.asarray(shift)[:, None])
    w = stencil_weights(t)                         # (4, nx, nv+1)
    rows = np.arange(f.shape[0])[:, None]
    out = np.zeros_like(f)
    for q, off in enumerate((-1, 0, 1, 2)):
        out += w[q] * c[rows, i0 + off + 1]
    return out


def _bsl_step_vp(state):
    """Time-splitting comparator: half x shift, field solve, v kick, half x.
    Returns the new node values and the mass that left through the v walls."""
    cfg = state.config
    gx, gv = state.g1, state.g2
    v = gv.nodes()
    f = state.f_nodes
    f = _advect_x_rows(f, gx, v * (0.5 * cfg.dt))
    rho = gv.delta * f.sum(axis=1)
    fs = solve_poisson_1d(rho, gx)
    state.provider.solves += 1
    pre = float(np.sum(f))
    f = _advect_v_cols(f, gv, cfg.dt * fs.E)
    lost = pre - float(np.sum(f))
    return _advect_x_rows(f, gx, v * (0.5 * cfg.dt)), lost


def _bsl_step_gc(state):
    """Backward comparator: implicit midpoint feet by fixed-point iteration.

    The trajectory ending at a node satisfies node - M = (dt/2) U(M, t+dt/2)
    for its midpoint M, solved by the classical fixed-point sweep with the
    midpoint field linearly extrapolated from the two previous solves
    (1.5 E^n - 0.5 E^{n-1}, with E^{n-1} = E^n at the first step); the
    foot is 2M - node.  The iteration's contraction degrades as dt grows,
    which is what makes this comparator lose stability at large time
    steps.  The splines read points beyond the y walls at the walls;
    returns the new node values and the mass lost.
    """
    cfg = state.config
    gx, gy = state.g1, state.g2
    fn = state.provider.node_field(state.particles)
    prev, state.e_prev = state.e_prev or fn, fn
    # splines are linear in their coefficients: extrapolate those once
    e_mid = SplineCoeffs(
        fn.E_spline.grids, 1.5 * fn.E_spline.coeffs - 0.5 * prev.E_spline.coeffs
    )

    op = state.provider.stage  # no stage pushes in a backward run: reads reuse it

    def u_mid(px, py):
        e = eval_2d(e_mid, px, py, op.fill((px, py), (gx, gy), 0))
        return e[:, 0], -e[:, 1]

    mx, my = np.meshgrid(gx.nodes(), gy.nodes(), indexing="ij")
    px, py = mx.ravel(), my.ravel()
    midx, midy = px, py
    for _ in range(4):
        ux, uy = u_mid(midx, midy)
        midx = px - 0.5 * cfg.dt * ux
        midy = py - 0.5 * cfg.dt * uy
    foot_x = px - cfg.dt * ux
    foot_y = py - cfg.dt * uy
    f_new = eval_2d(state.f_coeffs, foot_x, foot_y, op.fill((foot_x, foot_y), (gx, gy), 0))
    f_new = f_new.reshape(gx.n_nodes, gy.n_nodes)
    return f_new, float(np.sum(state.f_nodes)) - float(np.sum(f_new))


def bsl_step(state):
    """One backward step from ``state``: (f at the nodes, mass lost).

    The solver's remap takes both.  ``cases`` rejects the scheme for the
    Hill model, as a config error.
    """
    return {VP: _bsl_step_vp, GC: _bsl_step_gc}[state.config.model](state)
