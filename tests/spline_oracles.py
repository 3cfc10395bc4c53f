"""Plain cubic B-spline reads, the oracles of the spline, deposit, gather
and BSL tests: the basis by its piecewise formula, a 1D spline read
through ``splines.stencil`` block by block, with no stage operator, and
the periodic wrap of physical coordinates by ``np.mod``."""

import numpy as np

from fslvlasov.grids import UniformGrid1D
from fslvlasov.splines import SplineCoeffs, blocks, stencil


def wrap(grid: UniformGrid1D, x):
    """Wrap physical coordinates into [xmin, xmax) of a periodic grid."""
    return grid.xmin + np.mod(np.asarray(x, dtype=float) - grid.xmin, grid.length)


def basis_eval(u):
    """Evaluate the cubic B-spline S(u) in grid units (vectorized)."""
    u = np.abs(np.asarray(u, dtype=float))
    out = np.zeros_like(u)
    inner = u <= 1.0
    outer = (u > 1.0) & (u < 2.0)
    ui = u[inner]
    out[inner] = (4.0 - 6.0 * ui**2 + 3.0 * ui**3) / 6.0
    uo = u[outer]
    out[outer] = (2.0 - uo) ** 3 / 6.0
    return out if out.ndim else float(out)


def plain_eval_1d(c: SplineCoeffs, x):
    """Evaluate a 1D spline at x (scalar or array)."""
    (grid,) = c.grids
    xs = np.asarray(x, dtype=float)
    xr = xs.ravel()
    vals = np.empty(xr.size)
    for b in blocks(xr.size):
        idx, w = stencil(grid, xr[b])
        vals[b] = (c.coeffs[idx] * w).sum(axis=0)
    return float(vals[0]) if xs.ndim == 0 else vals.reshape(xs.shape)
