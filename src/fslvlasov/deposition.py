"""Scatter of weighted spline particles back onto grid nodes.

Each particle contributes to the <=4 covering nodes per dimension with
cubic B-spline weights.  Periodic directions wrap; in natural directions
stencil nodes falling off the grid are not accumulated, so the
contribution of a particle fades over the two-cell support skirt as it
leaves the domain (the mass bookkeeping in the solver reports the loss).
Dropping particles at the domain line instead would make the wall
remap iteration linearly unstable (measured growth 1.077 per remap),
and clamping them would pile mass at the wall.

Kernel layout: per dimension the stencil is a pair of (4, n) arrays
(node indices, weights); off-grid stencil nodes get index 0 and weight 0,
so no validity mask reaches the outer product.  The particle weights are
multiplied into the x weights first.  Particles go through in blocks of
``splines.BLOCK``; the (block, 4, 4) contributions are added with
``np.add.at``, which accumulates one by one in particle order, so the
sums do not depend on the blocking and are bit-reproducible run to run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import UniformGrid1D
from .splines import STENCIL_OFFSETS, SplineCoeffs, blocks, stencil, stencil_weights


@dataclass
class ParticleSet:
    """Lagrangian markers, one per spline coefficient of the last remap.

    ``weights`` are the coefficients frozen at the last remap; positions
    start at the basis centers (the grid nodes, plus one ghost center per
    side of each natural dimension) and are advanced by the pushers.
    """

    pos1: np.ndarray
    pos2: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        n = self.pos1.size
        if self.pos2.size != n or self.weights.size != n:
            raise ValueError("pos1, pos2 and weights must have equal length")

    def replace_positions(self, pos1, pos2) -> "ParticleSet":
        return ParticleSet(pos1, pos2, self.weights)


def basis_centers(grid: UniformGrid1D) -> np.ndarray:
    """Centers of the basis functions carrying coefficients along one dim."""
    if grid.periodic:
        return grid.nodes()
    return grid.xmin + grid.delta * (np.arange(grid.n_nodes + 2) - 1.0)


def seed_particles(coeffs: SplineCoeffs) -> ParticleSet:
    """Seed one particle per coefficient, positioned at its basis center."""
    g1, g2 = coeffs.grids
    x1, x2 = np.meshgrid(basis_centers(g1), basis_centers(g2), indexing="ij")
    return ParticleSet(x1.ravel(), x2.ravel(), coeffs.coeffs.flatten())


def _dim_stencil(grid: UniformGrid1D, pos):
    """Per-particle stencil (indices, weights) along one dimension, (4, n).

    Stencil nodes off a natural grid carry index 0 and weight 0.
    """
    if grid.periodic:
        return stencil(grid, pos)
    u = grid.to_units(pos)
    n = grid.n_cells
    # keep positions only where some stencil node can land on the grid;
    # this bounds the index arithmetic for far strays without changing
    # any contribution (their weights are zero on the grid anyway)
    u = np.clip(u, -3.0, n + 3.0)
    i0 = np.floor(u).astype(np.int64)
    w = stencil_weights(u - i0)
    idx = i0 + STENCIL_OFFSETS
    off = (idx < 0) | (idx > n)
    idx[off] = 0
    w[off] = 0.0
    return idx, w


def _check_finite(*arrays):
    if not all(np.all(np.isfinite(a)) for a in arrays):
        raise ValueError("non-finite particle data")


def deposit_phase_space(p: ParticleSet, gx: UniformGrid1D, gy: UniformGrid1D):
    """Deposit particle contributions onto the full 2D node grid."""
    _check_finite(p.pos1, p.pos2, p.weights)
    ny = gy.n_nodes
    out = np.zeros(gx.n_nodes * ny)
    for b in blocks(p.pos1.size):
        ix, wx = _dim_stencil(gx, p.pos1[b])
        iy, wy = _dim_stencil(gy, p.pos2[b])
        flat = np.repeat((ix * ny).T, 4, axis=1).reshape(-1, 4, 4)
        flat += iy.T[:, None, :]
        w = np.einsum("in,jn->nij", p.weights[b] * wx, wy)
        np.add.at(out, flat.ravel(), w.ravel())
    return out.reshape(gx.n_nodes, ny)


def deposit_charge(p: ParticleSet, gx: UniformGrid1D, dv: float, pos=None):
    """Spatial charge density rho(x_i) = dv * sum_k w_k S((x_i - X_k)/dx).

    The dv factor makes the x-quadrature of rho equal the phase-space mass
    carried by the particles.  ``pos`` overrides the particle x positions
    (used for stage-advanced positions inside the pushers).
    """
    if dv <= 0:
        raise ValueError("dv must be positive")
    x = p.pos1 if pos is None else pos
    _check_finite(x, p.weights)
    out = np.zeros(gx.n_nodes)
    for b in blocks(x.size):
        ix, wx = _dim_stencil(gx, x[b])
        np.add.at(out, ix.T.ravel(), (p.weights[b] * wx).T.ravel())
    return dv * out
