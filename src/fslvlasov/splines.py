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
A field stage deposits and gathers at the same points through one
``StageOperator`` M, particle-major CSR with int32 columns in the
deposit's padded node layout.  The deposit writes (w wx) (x) wy and sums
M^T 1; the gather refills wx (x) wy, locates again the wall rows (cell
off a natural grid, where it clips) and computes M c per component, c
padded alike: each row sums in the plain gather's order, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded
from scipy.sparse import csr_array

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


#: deposit cells beyond each natural end: u in [-3, n + 2] puts nodes in [-4, n + 4]
PAD = 4


def _tensor(ws, out):
    """Particle-major tensor product of per-dimension (4, n) weights, into ``out``."""
    if len(ws) == 1:
        np.copyto(out.T, ws[0])
        return out
    return np.einsum("an,bn->nab", *ws, out=out)


class StageOperator:
    """The B-spline matrix M at a stage's points ``pts`` (see the module
    notes): CSR ``matrix`` (transpose ``matrix_t``) on int32 ``indices`` into
    the padded layout (``dims`` cells, coefficient 0 at ``starts``) and
    ``data``, (n,) + (4,) * d each; ``w``: per-dimension weights to refill."""

    w = cpad = dims = None
    pts = ()

    def reserve(self, pts, grids) -> "StageOperator":
        n, d = pts[0].size, len(grids)
        dims = tuple(g.n_nodes + (0 if g.periodic else 2 * PAD) for g in grids)
        if self.w is None or self.w.shape != (d, 4, n) or dims != self.dims:
            self.w, self.ones, self.dims = np.empty((d, 4, n)), np.ones(n), dims
            self.indices = np.empty((n,) + (4,) * d, dtype=np.int32)
            self.data = np.empty(self.indices.shape)
            indptr = np.arange(0, 4**d * n + 1, 4**d, dtype=np.int32)
            self.matrix = csr_array((self.data.ravel(), self.indices.ravel(), indptr),
                                    shape=(n, int(np.prod(dims))))  # views: filled in place
            self.matrix_t = self.matrix.T
        self.pts = pts
        self.starts = tuple(0 if g.periodic else PAD - 1 for g in grids)  # ghost slot 0
        return self

    def gather(self, c: SplineCoeffs, pts, clamp: bool):
        """(n, m) values of M c at ``pts``, the operator's points (natural
        ones clipped to the walls); other points raise."""
        g, x, d = c.grids[0], pts[0], len(pts)
        x0 = self.pts[0] if len(self.pts) == d else np.empty(0)
        if x.size != x0.size or x is not x0 and not np.array_equal(
                x, x0 if g.periodic else np.clip(x0, g.xmin, g.xmax)):
            raise ValueError("gather points differ from those of the stage operator")
        _tensor(self.w, self.data)
        rows = np.flatnonzero(np.logical_or.reduce([  # the deposit's cell off the grid
            (u < 0) | (u >= g.n_cells) for g, p in zip(c.grids, self.pts)
            if not g.periodic for u in (g.to_units(p),)]))
        if rows.size:
            st = [stencil(g, p.ravel()[rows], clamp=clamp) for g, p in zip(c.grids, pts)]
            cols = [(i + s).T for (i, _), s in zip(st, self.starts)]
            self.indices[rows] = cols[0] if d == 1 else (
                (cols[0] * self.dims[1])[:, :, None] + cols[1][:, None, :])
            self.data[rows] = _tensor([w for _, w in st], np.empty(self.indices[rows].shape))
        comps = np.moveaxis(c.coeffs.reshape(c.coeffs.shape[:d] + (-1,)), -1, 0)
        if self.cpad is None or self.cpad.shape != comps.shape[:1] + self.dims:
            self.cpad = np.zeros(comps.shape[:1] + self.dims)  # one layout a component
        ends = np.add(self.starts, comps.shape[1:])
        self.cpad[(slice(None), *map(slice, self.starts, ends))] = comps
        return np.stack([self.matrix @ ck.ravel() for ck in self.cpad], axis=-1)


def eval_1d(c: SplineCoeffs, x, clamp: bool = False, stage: StageOperator = None):
    """Evaluate a 1D spline at x (scalar or array); ``stage``: see StageOperator."""
    (grid,) = c.grids
    xs = np.asarray(x, dtype=float)
    if stage is not None:
        return stage.gather(c, (xs,), clamp).reshape(xs.shape)
    xr = xs.ravel()
    vals = np.empty(xr.size)
    for b in blocks(xr.size):
        idx, w = stencil(grid, xr[b], clamp=clamp)
        vals[b] = (c.coeffs[idx] * w).sum(axis=0)
    return float(vals[0]) if xs.ndim == 0 else vals.reshape(xs.shape)


def eval_2d(c: SplineCoeffs, x, y, clamp: bool = False, stage: StageOperator = None):
    """Evaluate a 2D tensor-product spline at paired points (x, y).

    Coefficients with a trailing component axis give values of shape
    x.shape + (m,); all components share one stencil.  ``stage``: the
    operator of a deposit at (x, y) before a clip to the walls.
    """
    gx, gy = c.grids
    xs = np.asarray(x, dtype=float)
    ys = np.asarray(y, dtype=float)
    if xs.shape != ys.shape:
        raise ValueError("x and y must have matching shapes")
    if stage is not None:
        return stage.gather(c, (xs, ys), clamp).reshape(xs.shape + c.coeffs.shape[2:])
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
