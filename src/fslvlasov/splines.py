"""Cubic B-spline fitting and evaluation on uniform grids.

The basis function is the centered cubic B-spline in grid units,

    6 S(u) = (2 - |u|)^3          for 1 <= |u| <= 2,
    6 S(u) = 4 - 6 u^2 + 3 |u|^3  for |u| <= 1,

with support |u| < 2 and partition of unity: sum_k S(u - k) = 1 for all u.
A fitted spline interpolates its samples at every grid node.  Periodic
grids lead to a cyclic tridiagonal system with stencil (1/6, 2/3, 1/6);
natural grids append two end-derivative conditions, which fold into two
ghost coefficients per side stored inline with the node coefficients.
The periodic system is circulant and is solved by a real FFT division.

Kernel layout: a stencil is a pair of (4, n) arrays, coefficient indices
and basis weights, with the stencil point on the leading axis so every
arithmetic pass runs over n contiguous points.  A 2D evaluation builds one
(4, 4, n) flat index into the coefficient block and one (4, 4, n) tensor
weight, then reads each component through a single ``np.take``.  2D
coefficients may carry a trailing component axis: the two field
components share one fit and one stencil.  The gathers here and the
deposits work through the points in blocks of BLOCK (see there).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from .grids import UniformGrid1D

#: stencil offsets covered by a point with fractional position t in cell i0,
#: as a column: stencil arrays hold the four points on their leading axis
STENCIL_OFFSETS = np.array([-1, 0, 1, 2])[:, None]

#: points per block in the gathers and deposits.  A block's (4, 4, BLOCK)
#: temporaries take 0.5 MB, which the allocator recycles; whole-set
#: temporaries (2 MB for 16.8k particles) were unmapped and faulted in
#: afresh on almost every call, 18k minor faults per 128x128 GC step.
BLOCK = 4096


def blocks(n: int):
    """Slices that cover range(n) in blocks of BLOCK."""
    return [slice(s, s + BLOCK) for s in range(0, n, BLOCK)]


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


def stencil_weights(t):
    """Basis values S(t+1), S(t), S(t-1), S(t-2) for fractional t in [0, 1].

    These weight the four coefficients at offsets (-1, 0, 1, 2) from the
    cell index.  The stencil point is the leading axis: shape (4,) + t.shape.
    """
    t = np.asarray(t, dtype=float)
    s = 1.0 - t
    t3 = t**3
    s3 = s**3
    w = np.empty((4,) + t.shape)
    w[0] = s3 / 6.0
    w[1] = (4.0 - 6.0 * t**2 + 3.0 * t3) / 6.0
    w[2] = (4.0 - 6.0 * s**2 + 3.0 * s3) / 6.0
    w[3] = t3 / 6.0
    return w


@dataclass(frozen=True)
class SplineCoeffs:
    """Cubic spline coefficients over one or two uniform grids.

    Per dimension the coefficient count is n_nodes for periodic grids and
    n_nodes + 2 for natural grids (one ghost on each side: index 0 holds
    the coefficient centered one cell left of the domain).  2D
    coefficients may carry a trailing component axis.
    """

    grids: tuple[UniformGrid1D, ...]
    coeffs: np.ndarray


# ---------------------------------------------------------------------------
# linear solves


def solve_cyclic_banded(rhs):
    """Solve the periodic spline system with stencil (1/6, 2/3, 1/6).

    The matrix is circulant, so the real FFT diagonalizes it: mode k has
    the eigenvalue 2/3 + cos(2 pi k / N) / 3, never below 1/3, and the
    solve is one forward transform, a division and the inverse transform.
    ``rhs`` may be (N,) or (N, nrhs); the solve runs on axis 0.
    """
    rhs = np.asarray(rhs, dtype=float)
    n = rhs.shape[0]
    lam = 2.0 / 3.0 + np.cos(2.0 * np.pi * np.arange(n // 2 + 1) / n) / 3.0
    lam = lam.reshape((-1,) + (1,) * (rhs.ndim - 1))
    return np.fft.irfft(np.fft.rfft(rhs, axis=0) / lam, n=n, axis=0)


def _solve_natural(samples, grid: UniformGrid1D):
    """Natural fit along axis 0: returns coefficients with ghosts, (n+2, ...)."""
    f = np.asarray(samples, dtype=float)
    squeeze = f.ndim == 1
    if squeeze:
        f = f[:, None]
    n = grid.n_nodes  # = n_cells + 1
    d = grid.delta
    ab = np.zeros((3, n))
    ab[0, 1:] = 1.0 / 6.0
    ab[2, :-1] = 1.0 / 6.0
    ab[1, :] = 2.0 / 3.0
    # end rows after eliminating the ghosts through the derivative conditions
    ab[0, 1] = 1.0 / 3.0
    ab[2, -2] = 1.0 / 3.0
    rhs = f.copy()
    rhs[0] += d * grid.deriv_lo / 3.0
    rhs[-1] -= d * grid.deriv_hi / 3.0
    core = solve_banded((1, 1), ab, rhs)
    out = np.empty((n + 2,) + f.shape[1:])
    out[1:-1] = core
    out[0] = core[1] - 2.0 * d * grid.deriv_lo
    out[-1] = core[-2] + 2.0 * d * grid.deriv_hi
    return out[:, 0] if squeeze else out


def _fit_axis0(samples, grid: UniformGrid1D):
    if grid.periodic:
        return solve_cyclic_banded(samples)
    return _solve_natural(samples, grid)


# ---------------------------------------------------------------------------
# fitting


def fit_1d(samples, grid: UniformGrid1D) -> SplineCoeffs:
    """Fit spline coefficients so the spline interpolates `samples` at nodes."""
    f = np.asarray(samples, dtype=float)
    if f.shape != (grid.n_nodes,):
        raise ValueError(f"expected {grid.n_nodes} samples, got shape {f.shape}")
    if not np.all(np.isfinite(f)):
        raise ValueError("non-finite samples")
    return SplineCoeffs((grid,), _fit_axis0(f, grid))


def fit_2d(samples, gx: UniformGrid1D, gy: UniformGrid1D) -> SplineCoeffs:
    """Tensor-product fit: 1D systems along x for each row, then along y.

    ``samples`` of shape (nx, ny, m) fit m components in the same two
    banded solves; the coefficients keep the trailing component axis.
    """
    f = np.asarray(samples, dtype=float)
    nx, ny = gx.n_nodes, gy.n_nodes
    if f.shape[:2] != (nx, ny) or f.ndim > 3:
        raise ValueError(f"expected shape {(nx, ny)} or {(nx, ny)} + (m,), got {f.shape}")
    if not np.all(np.isfinite(f)):
        raise ValueError("non-finite samples")
    m = f.shape[2] if f.ndim == 3 else 1
    cx = _fit_axis0(f.reshape(nx, ny * m), gx)                   # (ncx, ny*m)
    ncx = cx.shape[0]
    rows = cx.reshape(ncx, ny, m).transpose(1, 2, 0).reshape(ny, m * ncx)
    c = _fit_axis0(rows, gy).reshape(-1, m, ncx).transpose(2, 0, 1)  # (ncx, ncy, m)
    return SplineCoeffs((gx, gy), c if f.ndim == 3 else c[..., 0])


# ---------------------------------------------------------------------------
# evaluation


def _locate(grid: UniformGrid1D, x, clamp: bool = False):
    """Cell index and fractional offset for physical positions.

    Periodic grids wrap; natural grids raise on points outside the domain
    unless ``clamp`` is set (BSL feet use clamping with loss accounting).
    """
    u = grid.to_units(x)
    if grid.periodic:
        i0 = np.floor(u).astype(np.int64)
        return i0, u - i0
    n = grid.n_cells
    tol = 1e-9
    if clamp:
        u = np.clip(u, 0.0, float(n))
    elif np.any(u < -tol) or np.any(u > n + tol):
        raise ValueError("evaluation point outside natural-BC domain")
    else:
        u = np.clip(u, 0.0, float(n))
    i0 = np.minimum(np.floor(u), n - 1).astype(np.int64)
    return i0, u - i0


def stencil(grid: UniformGrid1D, x, clamp: bool = False):
    """Coefficient indices and weights of the 4-point stencils at x, (4, n)."""
    i0, t = _locate(grid, x, clamp=clamp)
    if grid.periodic:
        # i0 lies in [0, n): the table wraps the offsets without a modulo
        table = np.arange(-1, grid.n_cells + 2) % grid.n_cells
        idx = table[i0 + (STENCIL_OFFSETS + 1)]
    else:
        idx = i0 + (STENCIL_OFFSETS + 1)  # ghost at slot 0 shifts node k to slot k+1
    return idx, stencil_weights(t)


def eval_1d(c: SplineCoeffs, x, clamp: bool = False):
    """Evaluate a 1D spline at x (scalar or array)."""
    (grid,) = c.grids
    xs = np.asarray(x, dtype=float)
    xr = xs.ravel()
    vals = np.empty(xr.size)
    for b in blocks(xr.size):
        idx, w = stencil(grid, xr[b], clamp=clamp)
        vals[b] = (c.coeffs[idx] * w).sum(axis=0)
    return float(vals[0]) if xs.ndim == 0 else vals.reshape(xs.shape)


def eval_2d(c: SplineCoeffs, x, y, clamp: bool = False):
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
        ix, wx = stencil(gx, xr[b], clamp=clamp)
        iy, wy = stencil(gy, yr[b], clamp=clamp)
        flat = (ix * ncy)[:, None, :] + iy[None, :, :]           # (4, 4, block)
        w = wx[:, None, :] * wy[None, :, :]
        for k, ck in enumerate(flat_comps):
            vals[b, k] = np.einsum("ijn,ijn->n", np.take(ck, flat), w)
    vals = vals.reshape(xs.shape + c.coeffs.shape[2:])
    return float(vals) if vals.ndim == 0 else vals
