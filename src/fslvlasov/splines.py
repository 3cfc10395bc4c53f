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
A field stage deposits and gathers at the same points: the deposit keeps
their stencils in a ``Stencils`` buffer and the gather reads them back.
Only points at or beyond a natural wall, where the gather clips, are
located again, so the values are those of the plain call, bit for bit.
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


def stencil_weights(t, out=None):
    """Basis values S(t+1), S(t), S(t-1), S(t-2) for fractional t in [0, 1].

    These weight the four coefficients at offsets (-1, 0, 1, 2) from the
    cell index.  The stencil point is the leading axis: shape (4,) + t.shape,
    written to ``out`` if given.
    """
    t = np.asarray(t, dtype=float)
    s = 1.0 - t
    t3 = t**3
    s3 = s**3
    w = np.empty((4,) + t.shape) if out is None else out
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
    rhs = np.array(samples, dtype=float)
    n = grid.n_nodes  # = n_cells + 1
    d = grid.delta
    ab = np.zeros((3, n))
    ab[0, 1:] = 1.0 / 6.0
    ab[2, :-1] = 1.0 / 6.0
    ab[1, :] = 2.0 / 3.0
    # end rows after eliminating the ghosts through the derivative conditions
    ab[0, 1] = 1.0 / 3.0
    ab[2, -2] = 1.0 / 3.0
    rhs[0] += d * grid.deriv_lo / 3.0
    rhs[-1] -= d * grid.deriv_hi / 3.0
    core = solve_banded((1, 1), ab, rhs)
    out = np.empty((n + 2,) + rhs.shape[1:])
    out[1:-1] = core
    out[0] = core[1] - 2.0 * d * grid.deriv_lo
    out[-1] = core[-2] + 2.0 * d * grid.deriv_hi
    return out


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
    if not clamp and (np.any(u < -1e-9) or np.any(u > n + 1e-9)):
        raise ValueError("evaluation point outside natural-BC domain")
    u = np.clip(u, 0.0, float(n))
    i0 = np.minimum(np.floor(u), n - 1).astype(np.int64)
    return i0, u - i0


def stencil(grid: UniformGrid1D, x, clamp: bool = False, out=(None, None)):
    """Coefficient indices and weights of the 4-point stencils at x, (4, n),
    written to the ``out`` pair of arrays if given."""
    i0, t = _locate(grid, x, clamp=clamp)
    if grid.periodic:
        # i0 lies in [0, n): the table wraps the offsets without a modulo
        table = np.arange(-1, grid.n_cells + 2) % grid.n_cells
        idx = np.take(table, i0 + (STENCIL_OFFSETS + 1), out=out[0], mode="clip")
    else:  # ghost at slot 0 shifts node k to slot k+1
        idx = np.add(i0, STENCIL_OFFSETS + 1, out=out[0])
    return idx, stencil_weights(t, out=out[1])


class Stencils:
    """Dimension d's (4, n) stencil indices ``idx[d]`` and weights ``w[d]``
    of a point set, kept by a deposit for the gather at the same points:
    those of ``stencil`` on periodic grids, node indices of the unclipped
    points (off the grid included) on natural ones.  Allocated per size."""

    idx = w = None

    def reserve(self, ndim: int, n: int) -> "Stencils":
        if self.idx is None or self.idx.shape != (ndim, 4, n):
            self.idx, self.w = np.empty((ndim, 4, n), dtype=np.int64), np.empty((ndim, 4, n))
        return self

    def at(self, d: int, b: slice):
        return self.idx[d, :, b], self.w[d, :, b]


def _stencil_of(grid: UniformGrid1D, x, clamp, kept, d, b):
    """``stencil`` at x[b], read from dimension d of ``kept`` if given."""
    if kept is None:
        return stencil(grid, x[b], clamp=clamp)
    idx, w = kept.at(d, b)
    if grid.periodic:
        return idx, w
    redo = (idx[1] < 0) | (idx[1] >= grid.n_cells)  # at or beyond a wall
    idx, w = idx + 1, w.copy() if redo.any() else w  # ghost slot 0: node k at k+1
    idx[:, redo], w[:, redo] = stencil(grid, x[b][redo], clamp=clamp)
    return idx, w


def eval_1d(c: SplineCoeffs, x, clamp: bool = False, stencils: Stencils = None):
    """Evaluate a 1D spline at x (scalar or array); ``stencils``: see Stencils."""
    (grid,) = c.grids
    xs = np.asarray(x, dtype=float)
    xr = xs.ravel()
    vals = np.empty(xr.size)
    for b in blocks(xr.size):
        idx, w = _stencil_of(grid, xr, clamp, stencils, 0, b)
        vals[b] = (c.coeffs[idx] * w).sum(axis=0)
    return float(vals[0]) if xs.ndim == 0 else vals.reshape(xs.shape)


def eval_2d(c: SplineCoeffs, x, y, clamp: bool = False, stencils: Stencils = None):
    """Evaluate a 2D tensor-product spline at paired points (x, y).

    Coefficients with a trailing component axis give values of shape
    x.shape + (m,); all components share one stencil.  ``stencils``: those
    of a deposit at (x, y) before a clip to the walls (see Stencils).
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
        ix, wx = _stencil_of(gx, xr, clamp, stencils, 0, b)
        iy, wy = _stencil_of(gy, yr, clamp, stencils, 1, b)
        flat = (ix * ncy)[:, None, :] + iy[None, :, :]           # (4, 4, block)
        w = wx[:, None, :] * wy[None, :, :]
        for k, ck in enumerate(flat_comps):
            vals[b, k] = np.einsum("ijn,ijn->n", np.take(ck, flat), w)
    vals = vals.reshape(xs.shape + c.coeffs.shape[2:])
    return float(vals) if vals.ndim == 0 else vals
