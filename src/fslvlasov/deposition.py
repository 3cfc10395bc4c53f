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
(node indices, weights); along a natural dimension the accumulator has PAD
extra cells at each end, which catch the stencil nodes off the grid and
are sliced off, so no validity mask reaches the outer product.  The
particle weights are multiplied into the x weights first.  Particles go
through in blocks of ``splines.BLOCK``; the (block, 4, 4) contributions
are added with ``np.add.at``, which accumulates one by one in particle
order, so the sums do not depend on the blocking and are bit-reproducible
run to run.  Given a ``splines.StageOperator`` M, the contributions are
its rows instead and M^T 1, summed once, adds in particle order too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import UniformGrid1D
from .splines import (PAD, STENCIL_OFFSETS, SplineCoeffs, StageOperator, blocks, stencil,
                      stencil_weights)


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


def _dim_stencil(grid: UniformGrid1D, pos, out=(None, None)):
    """Per-particle stencil (node indices, weights) along one dimension, (4, n),
    written to the ``out`` pair of views if given.  Off-grid nodes included."""
    if grid.periodic:
        return stencil(grid, pos, out=out)
    # a point outside u in [-2, n + 2) has no stencil node on the grid, so
    # the clip, which bounds the index arithmetic for far strays, changes
    # no contribution
    u = np.clip(grid.to_units(pos), -3.0, grid.n_cells + 2.0)
    i0 = np.floor(u).astype(np.int64)
    return np.add(i0, STENCIL_OFFSETS, out=out[0]), stencil_weights(u - i0, out=out[1])


def _check_finite(*arrays):
    if not all(np.all(np.isfinite(a)) for a in arrays):
        raise ValueError("non-finite particle data")


def deposit_phase_space(p: ParticleSet, gx: UniformGrid1D, gy: UniformGrid1D,
                        stage: StageOperator = None):
    """Deposit particle contributions onto the full 2D node grid."""
    _check_finite(p.pos1, p.pos2, p.weights)
    ox, oy = (0 if g.periodic else PAD for g in (gx, gy))
    nya = gy.n_nodes + 2 * oy
    op = stage.reserve((p.pos1, p.pos2), (gx, gy)) if stage else None
    out = None if op else np.zeros((gx.n_nodes + 2 * ox) * nya)
    for b in blocks(p.pos1.size):
        ix, wx = _dim_stencil(gx, p.pos1[b], (None, op.w[0, :, b]) if op else (None, None))
        iy, wy = _dim_stencil(gy, p.pos2[b], (None, op.w[1, :, b]) if op else (None, None))
        # particle-major rows written through transposes: long inner loops, no copy
        flat, w = (op.indices[b], op.data[b]) if op else (
            np.empty((ix.shape[1], 4, 4), dtype=np.int64), np.empty((ix.shape[1], 4, 4)))
        np.add((ix * nya + (ox * nya + oy))[:, None], iy[None], out=flat.transpose(1, 2, 0))
        np.multiply((p.weights[b] * wx)[:, None], wy[None], out=w.transpose(1, 2, 0))
        if not op:
            np.add.at(out, flat.ravel(), w.ravel())
    out = op.matrix_t @ op.ones if op else out  # both add in particle order
    # contiguous: a strided result changes the summation order of np.sum
    return np.ascontiguousarray(out.reshape(-1, nya)[ox:ox + gx.n_nodes, oy:oy + gy.n_nodes])


def deposit_charge(p: ParticleSet, gx: UniformGrid1D, dv: float,
                   stage: StageOperator = None):
    """Spatial charge density rho(x_i) = dv * sum_k w_k S((x_i - X_k)/dx).

    The dv factor makes the x-quadrature of rho equal the phase-space mass
    carried by the particles.
    """
    if dv <= 0:
        raise ValueError("dv must be positive")
    x = p.pos1
    _check_finite(x, p.weights)
    ox = 0 if gx.periodic else PAD
    op = stage.reserve((x,), (gx,)) if stage else None
    out = None if op else np.zeros(gx.n_nodes + 2 * ox)
    for b in blocks(x.size):
        ix, wx = _dim_stencil(gx, x[b], (None, op.w[0, :, b]) if op else (None, None))
        flat, w = (op.indices[b], op.data[b]) if op else (  # as above
            np.empty((ix.shape[1], 4), dtype=np.int64), np.empty((ix.shape[1], 4)))
        np.add(ix, ox, out=flat.T)
        np.multiply(p.weights[b], wx, out=w.T)
        if not op:
            np.add.at(out, flat.ravel(), w.ravel())
    out = op.matrix_t @ op.ones if op else out
    return dv * out[ox:ox + gx.n_nodes]


# ---------------------------------------------------------------------------
# deposits of a node-seeded set: every particle sits on a basis center, where
# the basis is (1/6, 2/3, 1/6) at the nodes -1, 0, +1 away, so the deposit is
# that 3-point stencil of the seeded weights and needs no particle loop


def _periodic_node_stencil(a):
    """(a[i-1] + 4 a[i] + a[i+1]) / 6 along a periodic axis 0."""
    return (np.roll(a, 1, axis=0) + 4.0 * a + np.roll(a, -1, axis=0)) / 6.0


def deposit_seeded_phase_space(weights, gx: UniformGrid1D, gy: UniformGrid1D):
    """``deposit_phase_space`` of ``seed_particles`` output, periodic x and
    natural y: the stencil runs over the y slots (ghosts included), then
    periodically in x."""
    w = weights.reshape(gx.n_nodes, gy.n_nodes + 2)
    return _periodic_node_stencil((w[:, :-2] + 4.0 * w[:, 1:-1] + w[:, 2:]) / 6.0)


def deposit_seeded_charge(weights, gx: UniformGrid1D, dv: float):
    """``deposit_charge`` of ``seed_particles`` output on a periodic x grid."""
    w = weights.reshape(gx.n_nodes, -1)
    return dv * _periodic_node_stencil(w.sum(axis=1))
