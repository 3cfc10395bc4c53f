"""Cubic B-spline fitting and evaluation on uniform grids.

The basis function is the centered cubic B-spline in grid units,

    6 S(u) = (2 - |u|)^3          for 1 <= |u| <= 2,
    6 S(u) = 4 - 6 u^2 + 3 |u|^3  for |u| <= 1,

with support |u| < 2 and partition of unity: sum_k S(u - k) = 1 for all u.
A fitted spline interpolates its samples at every grid node.  Periodic
grids lead to a cyclic tridiagonal system with stencil (1/6, 2/3, 1/6);
natural grids append two end-derivative conditions, which fold into two
ghost coefficients per side stored inline with the node coefficients.
The periodic system is circulant and is solved by a real FFT division;
the natural one is tridiagonal, one LAPACK call (``solve_tridiagonal``).
Every read beyond a natural wall reads the spline at the wall: ``_locate``
clips the point in grid units, or wraps it on a periodic axis (the one
periodic wrap), so callers pass their points as they are; it checks them
first, as every point of a run becomes a cell index there.

Kernel layout: a stencil is a pair of (4, n) arrays, coefficient indices
and basis weights, with the stencil point on the leading axis so every
arithmetic pass runs over n contiguous points.  ``_locate`` and
``stencil`` alone map points to cells and indices: every read (margin 0),
deposit (margin PAD - 1) and BSL sweep locates there.  The weights are
products written in place into their rows, without ``pow``, and the locate
works in place on the fresh array of ``to_units``.  2D coefficients may
carry a trailing component axis: the two field components share one fit
(``fit_2d_rfft``; ``fit_2d`` fits one array) and one stencil.  Every read
at a set of points goes through one ``StageOperator``, the B-spline matrix
M of the points: COO over slot-major (4,) * d + (n,) int32 indices into the
one padded node layout (``padded``, which the deposits share) and weights
D = wx (x) wy, and M^T over the same arrays.  ``StageOperator.fill`` alone
writes them, in blocks of BLOCK (see there), from stencils located at its
margin and shifted into that layout.  A stage deposit
(``deposition.deposit_charge``) fills at PAD - 1 and sums M^T w; the gather
refills, at margin 0, the rows whose deposit cell lies off a natural grid,
where a read clips, and computes M c per component, c padded alike.  BSL's
reads fill at margin 0.  Each row sums slot by slot, x before y: the plain
gather's order, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.fft import irfft
from scipy.linalg import lapack
from scipy.sparse import coo_array

from .grids import UniformGrid1D

#: stencil offsets covered by a point with fractional position t in cell i0,
#: as a column: stencil arrays hold the four points on their leading axis
STENCIL_OFFSETS = np.array([-1, 0, 1, 2])[:, None]

#: points per block in the stage operator's fills and the remap deposit.  A
#: stage deposit writes a block's (4, 4, BLOCK) index and weights in place
#: and makes no temporary of that shape: 0 minor faults a call on the KH
#: set of 16,768 particles.  The remap deposit makes two a block, 0.5 MB
#: each: 712 minor faults a call on that set (``resource.getrusage``, 20 calls).
BLOCK = 4096


def blocks(n: int):
    """Slices that cover range(n) in blocks of BLOCK."""
    return [slice(s, s + BLOCK) for s in range(0, n, BLOCK)]


def check_finite(what: str, a):
    """Every non-finite check of the run path: FloatingPointError naming ``what``
    unless every value of ``a`` is finite (``solver.run`` aborts on it)."""
    if not np.all(np.isfinite(a)):
        raise FloatingPointError(f"non-finite {what}")


def stencil_weights(t):
    """Basis values S(t+1), S(t), S(t-1), S(t-2) for fractional t in [0, 1].

    These weight the four coefficients at offsets (-1, 0, 1, 2) from the
    cell index.  The stencil point is the leading axis: shape (4,) + t.shape.
    With s = 1 - t the rows are s^3/6, 2/3 - t^2 + t^3/2, 2/3 - s^2 + s^3/2
    and t^3/6, by products in place.
    """
    t = np.asarray(t, dtype=float)
    w = np.empty((4,) + t.shape)
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


def solve_tridiagonal(lower, diag, upper, rhs):
    """Solve the tridiagonal system (sub-, main and super-diagonal) for
    ``rhs`` of shape (n,) or (n, k), real or complex, by LAPACK ``?gtsv``.
    ``rhs`` is solved in place when it is Fortran-ordered of the solve's dtype."""
    dtype, gtsv = (complex, lapack.zgtsv) if np.iscomplexobj(rhs) else (float, lapack.dgtsv)
    b = np.asarray(rhs, dtype=dtype, order="F")
    *_, x, info = gtsv(lower, diag, upper, b, overwrite_b=True)
    if info:
        raise np.linalg.LinAlgError("singular tridiagonal matrix")
    return x


def _solve_natural(samples, grid: UniformGrid1D, ends=None):
    """Natural fit along axis 0: returns coefficients with ghosts, (n+2, ...).
    ``ends``: (lo, hi) end derivatives over the trailing axes; the grid's if None."""
    rhs = np.array(samples, dtype=complex if np.iscomplexobj(samples) else float)
    n, d = grid.n_nodes, grid.delta  # n = n_cells + 1
    lo, hi = (grid.deriv_lo, grid.deriv_hi) if ends is None else ends
    lower, upper = np.full(n - 1, 1.0 / 6.0), np.full(n - 1, 1.0 / 6.0)
    # end rows after eliminating the ghosts through the derivative conditions
    upper[0] = lower[-1] = 1.0 / 3.0
    rhs[0] += d * lo / 3.0
    rhs[-1] -= d * hi / 3.0
    core = solve_tridiagonal(lower, np.full(n, 2.0 / 3.0), upper, rhs)
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
    return SplineCoeffs((grid,), _fit_axis0(f, grid))


def fit_2d(samples, gx: UniformGrid1D, gy: UniformGrid1D) -> SplineCoeffs:
    """Tensor-product fit of (nx, ny) samples: 1D systems along x, then along y."""
    f = np.asarray(samples, dtype=float)
    if f.shape != (gx.n_nodes, gy.n_nodes):
        raise ValueError(f"expected shape {(gx.n_nodes, gy.n_nodes)}, got {f.shape}")
    return SplineCoeffs((gx, gy), _fit_axis0(_fit_axis0(f, gx).T, gy).T)


def fit_2d_rfft(spectra, gx: UniformGrid1D, gy: UniformGrid1D) -> SplineCoeffs:
    """``fit_2d`` of each of m samples given as their rfft along a periodic x,
    (m, nx // 2 + 1, ny): the x fit divides by the cyclic eigenvalues, the
    natural y fit solves with the x modes as columns (end derivatives in
    mode 0 alone), one irfft gives the (nx, ny + 2, m) coefficients."""
    (m, nk, ny), nx = spectra.shape, gx.n_nodes
    rows = (spectra / cyclic_eigenvalues(nx)[:, None]).reshape(m * nk, ny).T
    mode0 = nx * (np.arange(m * nk) % nk == 0)
    c_hat = _solve_natural(rows, gy, (gy.deriv_lo * mode0, gy.deriv_hi * mode0))
    c = irfft(c_hat.T.reshape(m, nk, ny + 2), n=nx, axis=1)
    return SplineCoeffs((gx, gy), c.transpose(1, 2, 0))


# ---------------------------------------------------------------------------
# evaluation


def _locate(grid: UniformGrid1D, x, margin=0):
    """Cell index and fractional offset for physical positions.

    A non-finite point raises.  A periodic grid wraps u into [0, n_cells),
    whatever the number of periods away: the package's one periodic wrap.
    A natural grid clips u to [-margin, n_cells + margin] in grid units,
    the one wall rule of every spline read (margin 0: a point beyond a
    wall reads the wall) and scatter (``PAD - 1``).
    """
    u = grid.to_units(x)  # a fresh array: the locate runs in place
    check_finite("positions", u)
    n, hi = grid.n_cells, grid.n_cells + margin
    if grid.periodic:  # into [0, n), kept half-open against round-off at the seam
        u -= n * np.floor(u / n)
        i0 = np.floor(np.subtract(u, n, out=u, where=u >= n))
    else:
        i0 = np.minimum(np.floor(np.clip(u, -margin, hi, out=u)), hi - 1)
    u -= i0
    return i0.astype(np.int64), u


def stencil(grid: UniformGrid1D, x, margin=0):
    """Coefficient indices and weights of the 4-point stencils at x, (4, n).
    Natural grids put node k at index k + 1 + margin: the ghost at slot
    margin, the scatter pad before."""
    i0, t = _locate(grid, x, margin)
    if grid.periodic:  # i0 lies in [0, n): the table wraps the offsets without a modulo
        idx = np.take(np.arange(-1, grid.n_cells + 2) % grid.n_cells,
                      i0 + (STENCIL_OFFSETS + 1), mode="clip")
    else:
        idx = i0 + (STENCIL_OFFSETS + 1 + margin)
    return idx, stencil_weights(t)


#: deposit cells beyond each natural end: the deposits locate with margin
#: PAD - 1, so u in [-3, n + 3] puts nodes in [-4, n + 4]
PAD = 4


def padded(grids):
    """The padded node layout of ``grids``: its dims, PAD extra cells at each
    end of a natural axis, and the slices of the nodes in it."""
    pads = [(g.n_nodes, 0 if g.periodic else PAD) for g in grids]
    return tuple(n + 2 * o for n, o in pads), tuple(slice(o, o + n) for n, o in pads)


class StageOperator:
    """The B-spline matrix M at the points ``pts`` (see the module notes):
    COO ``matrix`` over slot-major int32 ``index`` into the padded layout
    (``padded``: ``dims`` cells, the nodes at ``nodes``) and weights
    ``data``, (4,) * d + (n,) each, and its transpose ``matrix_t`` over the
    same arrays, from stencils located at ``margin``: PAD - 1 for a deposit,
    whose wall rows the gather refills at margin 0; 0 for a read alone."""

    index = dims = cpad = None
    pts = ()

    def fill(self, pts, grids, margin=PAD - 1) -> "StageOperator":
        """Write M at ``pts``; the arrays are made afresh only when n or the layout changes."""
        n, d = pts[0].size, len(grids)
        dims, self.nodes = padded(grids)
        if self.index is None or self.index.shape != (4,) * d + (n,) or dims != self.dims:
            self.dims = dims
            self.index = np.zeros((4,) * d + (n,), dtype=np.int32)  # coo_array checks it here
            self.data = np.empty(self.index.shape)
            rows = np.broadcast_to(np.arange(n, dtype=np.int32), self.index.shape).ravel()
            self.matrix = coo_array((self.data.ravel(), (rows, self.index.ravel())),
                                    shape=(n, int(np.prod(dims))))  # views: filled in place
            self.matrix_t = self.matrix.T  # over the same views, formed once
        self.pts, self.margin = pts, margin
        for b in blocks(n):
            self._write(b, grids, [p[b] for p in pts], margin)
        return self

    def _write(self, b, grids, pts, margin):
        """Write M's rows ``b``, a block or an index array, at their points
        ``pts`` located at ``margin``, with no (4, 4, block) temporary."""
        index, data = self.index[..., b], self.data[..., b]  # of an index array: copies
        stencils = [stencil(g, p, margin) for g, p in zip(grids, pts)]
        for i, _ in [s for g, s in zip(grids, stencils) if not g.periodic and margin < PAD - 1]:
            i += PAD - 1 - margin  # node k at k + PAD, whatever the margin
        if len(stencils) == 1:
            index[...], data[...] = stencils[0]
        else:  # x slot before y slot
            (ix, wx), (iy, wy) = stencils
            ix, iy = (ix * self.dims[1]).astype(np.int32), iy.astype(np.int32)  # int32 adds
            np.add(ix[:, None], iy[None], out=index)
            np.multiply(wx[:, None], wy[None], out=data)
        self.index[..., b], self.data[..., b] = index, data  # a block's views: no copy

    def gather(self, c: SplineCoeffs, pts):
        """(n, m) values of M c at ``pts``, the operator's points; other
        points raise."""
        d = len(pts)
        if d != len(self.pts) or any(p is not q and not np.array_equal(p, q)
                                     for p, q in zip(pts, self.pts)):
            raise ValueError("gather points differ from those of the stage operator")
        natural = [(g, p) for g, p in zip(c.grids, self.pts) if not g.periodic]
        if self.margin and natural:  # a deposit's cells off a natural grid read at the wall
            rows = np.flatnonzero(np.logical_or.reduce([
                (u < 0) | (u >= g.n_cells) for g, p in natural for u in (g.to_units(p),)]))
            self._write(rows, c.grids, [p.ravel()[rows] for p in pts], 0)
        comps = np.moveaxis(c.coeffs.reshape(c.coeffs.shape[:d] + (-1,)), -1, 0)
        if self.cpad is None or self.cpad.shape != comps.shape[:1] + self.dims:
            self.cpad = np.zeros(comps.shape[:1] + self.dims)  # one layout a component
        coeffs = (s if g.periodic else slice(s.start - 1, s.stop + 1)  # a ghost each side
                  for g, s in zip(c.grids, self.nodes))
        self.cpad[(slice(None), *coeffs)] = comps
        return np.stack([self.matrix @ ck.ravel() for ck in self.cpad], axis=-1)


def eval_1d(c: SplineCoeffs, x, stage: StageOperator):
    """Evaluate a 1D spline at x, the points of ``stage`` (see StageOperator)."""
    xs = np.asarray(x, dtype=float)
    return stage.gather(c, (xs,)).reshape(xs.shape)


def eval_2d(c: SplineCoeffs, x, y, stage: StageOperator):
    """Evaluate a 2D tensor-product spline at paired points (x, y), the points of
    ``stage`` (see StageOperator); coefficients with a trailing component axis
    give values of shape x.shape + (m,), all components from one stencil."""
    xs = np.asarray(x, dtype=float)
    return stage.gather(c, (xs, np.asarray(y, dtype=float))).reshape(xs.shape + c.coeffs.shape[2:])
