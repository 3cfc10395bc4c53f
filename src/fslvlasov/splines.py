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
Every read beyond a natural wall reads the spline at the wall: ``_locate``
clips the point in grid units, so callers pass their points unclipped.

Kernel layout: a stencil is a pair of (4, n) arrays, coefficient indices
and basis weights, with the stencil point on the leading axis so every
arithmetic pass runs over n contiguous points.  ``_locate`` and
``stencil`` alone map points to cells and indices: every read (margin 0),
deposit (margin PAD - 1) and BSL sweep locates there.  The weights are
products written in place into their rows, without ``pow``, and the
locate works in place on the fresh array of ``to_units``.  A 2D
evaluation builds one (4, 4, n) flat index into the coefficient block and
one (4, 4, n) tensor weight, then reads each component through a single
``np.take``.  2D coefficients may carry a trailing component axis: the
two field components share one fit and one stencil.  The gathers here and the
deposits work through the points in blocks of BLOCK (see there).
A field stage deposits and gathers at the same points through one
``StageOperator`` M, particle-major CSR with int32 columns in the
deposit's padded node layout.  The deposit writes the columns and the
weights (1D: also w wx, to sum M^T 1); the gather refills wx (x) wy,
locates again the wall rows (cell off a natural grid, where it clips) and
computes M c per component, c padded alike: each row sums in the plain
gather's order, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.fft import irfft
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


def stencil_weights(t, out=None):
    """Basis values S(t+1), S(t), S(t-1), S(t-2) for fractional t in [0, 1].

    These weight the four coefficients at offsets (-1, 0, 1, 2) from the
    cell index.  The stencil point is the leading axis: shape (4,) + t.shape,
    written to ``out`` if given.  With s = 1 - t the rows are s^3/6,
    2/3 - t^2 + t^3/2, 2/3 - s^2 + s^3/2 and t^3/6, by products in place.
    """
    t = np.asarray(t, dtype=float)
    w = np.empty((4,) + t.shape) if out is None else out
    s3, t2, s2, t3 = (w[k, ...] for k in range(4))  # the rows, as views
    s = np.subtract(1.0, t, out=np.empty(t.shape))
    np.multiply(np.multiply(t, t, out=t2), t, out=t3)
    np.multiply(np.multiply(s, s, out=s2), s, out=s3)
    np.add(np.subtract(2.0 / 3.0, t2, out=t2), np.multiply(t3, 0.5, out=s), out=t2)
    np.add(np.subtract(2.0 / 3.0, s2, out=s2), np.multiply(s3, 0.5, out=s), out=s2)
    np.divide(s3, 6.0, out=s3)
    np.divide(t3, 6.0, out=t3)
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

    The matrix is circulant, so the real FFT diagonalizes it (eigenvalues
    ``cyclic_eigenvalues``, never below 1/3): one forward transform, a
    division and the inverse transform.  ``rhs`` may be (N,) or (N, nrhs);
    the solve runs on axis 0.
    """
    rhs = np.asarray(rhs, dtype=float)
    n = rhs.shape[0]
    lam = cyclic_eigenvalues(n).reshape((-1,) + (1,) * (rhs.ndim - 1))
    return np.fft.irfft(np.fft.rfft(rhs, axis=0) / lam, n=n, axis=0)


def cyclic_eigenvalues(n: int):
    """2/3 + cos(2 pi k / n) / 3 of the periodic system's rfft modes k <= n // 2."""
    return 2.0 / 3.0 + np.cos(2.0 * np.pi * np.arange(n // 2 + 1) / n) / 3.0


def _solve_natural(samples, grid: UniformGrid1D, ends=None):
    """Natural fit along axis 0: returns coefficients with ghosts, (n+2, ...).
    ``ends``: (lo, hi) end derivatives over the trailing axes; the grid's if None."""
    rhs = np.array(samples, dtype=complex if np.iscomplexobj(samples) else float)
    n, d = grid.n_nodes, grid.delta  # n = n_cells + 1
    lo, hi = (grid.deriv_lo, grid.deriv_hi) if ends is None else ends
    ab = np.full((3, n), 1.0 / 6.0)
    ab[1] = 2.0 / 3.0
    # end rows after eliminating the ghosts through the derivative conditions
    ab[[0, 2], [1, -2]] = 1.0 / 3.0
    rhs[0] += d * lo / 3.0
    rhs[-1] -= d * hi / 3.0
    core = solve_banded((1, 1), ab, rhs, overwrite_b=True)
    out = np.empty_like(rhs, shape=(n + 2,) + rhs.shape[1:])
    out[1:-1] = core
    out[0] = core[1] - 2.0 * d * lo
    out[-1] = core[-2] + 2.0 * d * hi
    return out


def _fit_axis0(samples, grid: UniformGrid1D):
    return solve_cyclic_banded(samples) if grid.periodic else _solve_natural(samples, grid)


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


def fit_2d_rfft(spectra, gx: UniformGrid1D, gy: UniformGrid1D) -> SplineCoeffs:
    """``fit_2d`` of m samples given as their rfft along a periodic x,
    (m, nx // 2 + 1, ny): the x fit divides by the cyclic eigenvalues, the
    natural y fit solves with the x modes as columns (end derivatives in
    mode 0 alone), one irfft gives the (nx, ny + 2, m) coefficients."""
    (m, nk, ny), nx = spectra.shape, gx.n_nodes
    rows = (spectra / cyclic_eigenvalues(nx)[:, None]).reshape(m * nk, ny).T
    mode0 = nx * (np.arange(m * nk) % nk == 0)
    c_hat = _solve_natural(rows, gy, (gy.deriv_lo * mode0, gy.deriv_hi * mode0))
    c = irfft(c_hat.T.reshape(m, nk, ny + 2), n=nx, axis=1)
    if not np.all(np.isfinite(c)):
        raise ValueError("non-finite spline coefficients")
    return SplineCoeffs((gx, gy), c.transpose(1, 2, 0))


# ---------------------------------------------------------------------------
# evaluation


def _locate(grid: UniformGrid1D, x, margin=0):
    """Cell index and fractional offset for physical positions.

    Periodic grids wrap in ``to_units``, whatever the number of periods
    away.  A natural grid clips u to [-margin, n_cells + margin] in grid
    units, the one wall rule of every spline read (margin 0: a point
    beyond a wall reads the wall) and scatter (``PAD - 1``).
    """
    u = grid.to_units(x)  # a fresh array: the locate runs in place
    hi = grid.n_cells + margin
    if not grid.periodic:
        np.clip(u, -margin, hi, out=u)
    i0 = np.floor(u) if grid.periodic else np.minimum(np.floor(u), hi - 1)
    u -= i0
    return i0.astype(np.int64), u


def stencil(grid: UniformGrid1D, x, w=None, margin=0):
    """Coefficient indices and weights of the 4-point stencils at x, (4, n),
    the weights written to ``w`` if given.  Natural grids put node k at
    index k + 1 + margin: the ghost at slot margin, the scatter pad before."""
    i0, t = _locate(grid, x, margin)
    if grid.periodic:  # i0 lies in [0, n): the table wraps the offsets without a modulo
        idx = np.take(np.arange(-1, grid.n_cells + 2) % grid.n_cells,
                      i0 + (STENCIL_OFFSETS + 1), mode="clip")
    else:
        idx = i0 + (STENCIL_OFFSETS + 1 + margin)
    return idx, stencil_weights(t, out=w)


#: deposit cells beyond each natural end: the deposits locate with margin
#: PAD - 1, so u in [-3, n + 3] puts nodes in [-4, n + 4]
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
    ``data``, (n,) + (4,) * d each; ``w``: per-dimension weights to refill.
    The gather writes ``data``; ``matrix_t @ ones`` is the 1D deposit's."""

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

    def gather(self, c: SplineCoeffs, pts):
        """(n, m) values of M c at ``pts``, the operator's points; other
        points raise."""
        x, d = pts[0], len(pts)
        x0 = self.pts[0] if len(self.pts) == d else np.empty(0)
        if x.size != x0.size or x is not x0 and not np.array_equal(x, x0):
            raise ValueError("gather points differ from those of the stage operator")
        _tensor(self.w, self.data)
        rows = np.flatnonzero(np.logical_or.reduce([  # the deposit's cell off the grid
            (u < 0) | (u >= g.n_cells) for g, p in zip(c.grids, self.pts)
            if not g.periodic for u in (g.to_units(p),)]))
        if rows.size:
            st = [stencil(g, p.ravel()[rows]) for g, p in zip(c.grids, pts)]
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


def eval_1d(c: SplineCoeffs, x, stage: StageOperator):
    """Evaluate a 1D spline at x, the points of ``stage`` (see StageOperator)."""
    xs = np.asarray(x, dtype=float)
    return stage.gather(c, (xs,)).reshape(xs.shape)


def eval_2d(c: SplineCoeffs, x, y, stage: StageOperator = None):
    """Evaluate a 2D tensor-product spline at paired points (x, y).

    Coefficients with a trailing component axis give values of shape
    x.shape + (m,); all components share one stencil.  ``stage``: the
    operator of a deposit at (x, y).
    """
    gx, gy = c.grids
    xs = np.asarray(x, dtype=float)
    ys = np.asarray(y, dtype=float)
    if xs.shape != ys.shape:
        raise ValueError("x and y must have matching shapes")
    if stage is not None:
        return stage.gather(c, (xs, ys)).reshape(xs.shape + c.coeffs.shape[2:])
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
