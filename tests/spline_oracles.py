"""Plain cubic B-spline reads, the oracles of the spline, deposit, gather
and BSL tests: the basis by its piecewise formula, 1D and 2D splines read
through ``splines.stencil`` block by block, with no stage operator, the
periodic wrap of physical coordinates by ``np.mod``, and a stacked 2D
spline fitted one component at a time."""

import numpy as np

from fslvlasov.grids import UniformGrid1D
from fslvlasov.splines import SplineCoeffs, blocks, fit_2d, stencil


def wrap(grid: UniformGrid1D, x):
    """Wrap physical coordinates into [xmin, xmax) of a periodic grid."""
    return grid.xmin + np.mod(np.asarray(x, dtype=float) - grid.xmin, grid.xmax - grid.xmin)


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


def plain_eval_2d(c: SplineCoeffs, x, y):
    """Evaluate a 2D tensor-product spline at paired points (x, y).

    Coefficients with a trailing component axis give values of shape
    x.shape + (m,); all components share one stencil.
    """
    gx, gy = c.grids
    xs = np.asarray(x, dtype=float)
    ys = np.asarray(y, dtype=float)
    if xs.shape != ys.shape:
        raise ValueError("x and y must have matching shapes")
    xr, yr = xs.ravel(), ys.ravel()
    ncx, ncy = c.coeffs.shape[:2]
    comps = c.coeffs.reshape(ncx, ncy, -1)
    flat_comps = [comps[..., k].ravel() for k in range(comps.shape[2])]
    vals = np.empty((xr.size, len(flat_comps)))
    for b in blocks(xr.size):
        ix, wx = stencil(gx, xr[b])
        iy, wy = stencil(gy, yr[b])
        flat = (ix * ncy)[:, None, :] + iy[None, :, :]           # (4, 4, block)
        w = wx[:, None, :] * wy[None, :, :]
        for k, ck in enumerate(flat_comps):
            vals[b, k] = np.einsum("ijn,ijn->n", np.take(ck, flat), w)
    vals = vals.reshape(xs.shape + c.coeffs.shape[2:])
    return float(vals) if vals.ndim == 0 else vals


def fit_stacked(samples, gx: UniformGrid1D, gy: UniformGrid1D) -> SplineCoeffs:
    """The 2D spline of (nx, ny, m) samples with a trailing component axis,
    as the field spline stacks (Ey, Ex): one ``fit_2d`` a component."""
    return SplineCoeffs((gx, gy), np.stack(
        [fit_2d(samples[..., k], gx, gy).coeffs for k in range(samples.shape[-1])], axis=-1))
