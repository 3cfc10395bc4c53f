"""Scatter of weighted spline particles back onto grid nodes.

Each particle contributes to the <=4 covering nodes per dimension with
cubic B-spline weights.  Periodic directions wrap; in natural directions
stencil nodes falling off the grid are not accumulated, so the
contribution of a particle fades over the two-cell support skirt as it
leaves the domain (the mass bookkeeping in the solver reports the loss).
Dropping particles at the domain line instead would make the wall
remap iteration linearly unstable (measured growth 1.077 per remap),
and clamping them would pile mass at the wall.

Kernel layout: per dimension the stencil is a pair of (4, n) arrays (node
indices, weights) from ``splines.stencil`` at margin PAD - 1: along a
natural dimension its indices land in the PAD extra cells at each end of
``splines.padded``, which catch the stencil nodes off the grid and are
sliced off, so no validity mask reaches the outer product.  Particles go
through in blocks of ``splines.BLOCK``.  The stage deposit
(``deposit_charge``, 1D or 2D) fills a ``splines.StageOperator`` M at the
stage's positions and sums M^T w: a node sums slot by slot, x slot before
y slot, then particle by particle, each entry (wx wy) w, whatever BLOCK
is.  It keeps every particle, whose row the gather reads.  The remap
deposit (``deposit_phase_space``) adds a block's slot-major (4, 4, block) flat
indices and weights (w wx) wy with one ``np.add.at``: a node sums block by
block, then slot (a, b) by slot, then particle by particle, so BLOCK also
fixes its bits.  It skips each |w| <= NEGLIGIBLE max |w|, half an ulp of
the largest.  The seed leaves those out when they fill a BLOCK, so this
skip serves only the sets that keep their whole lattice (``nodes`` None).
A node-seeded set's charge is a 3-point stencil of its weights
(``deposit_seeded_charge``, the Vlasov-Poisson node field); the guiding
center solves its node field from f itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import UniformGrid1D
from .splines import BLOCK, PAD, SplineCoeffs, StageOperator, blocks, check_finite, padded, stencil

NEGLIGIBLE = 2.0 ** -53  # |w| / max |w| at or below which the seed and the 2D deposit skip w


@dataclass
class ParticleSet:
    """Lagrangian markers, one per coefficient of the last remap that carries mass.

    ``weights`` are the coefficients frozen at the last remap, ``nodes``
    their flat lattice indices (None: the whole lattice, in order; else only
    what the seed kept, every |w| > NEGLIGIBLE max |w|); positions start at
    the basis centers (the grid nodes, plus one ghost center per side of
    each natural dimension) and are advanced by the pushers.
    """

    pos1: np.ndarray
    pos2: np.ndarray
    weights: np.ndarray
    nodes: np.ndarray = None

    def __post_init__(self):
        n = self.pos1.size
        if self.pos2.size != n or self.weights.size != n:
            raise ValueError("pos1, pos2 and weights must have equal length")

    def replace_positions(self, pos1, pos2) -> "ParticleSet":
        return ParticleSet(pos1, pos2, self.weights, self.nodes)

    def at_nodes(self, lattice_values: np.ndarray) -> np.ndarray:
        """The flat lattice array ``lattice_values`` at this set's particles."""
        return lattice_values if self.nodes is None else lattice_values[self.nodes]


def basis_centers(grid: UniformGrid1D) -> np.ndarray:
    """Centers of the basis functions carrying coefficients along one dim."""
    if grid.periodic:
        return grid.nodes()
    return grid.xmin + grid.delta * (np.arange(grid.n_nodes + 2) - 1.0)


def seed_particles(coeffs: SplineCoeffs) -> ParticleSet:
    """One particle per coefficient, at its basis center, or per |c| > NEGLIGIBLE
    max |c| if that skips a BLOCK or more.  A non-finite max |c| raises: every
    fit of f reaches here, and a non-finite f fits to non-finite c."""
    (c1, c2), c = map(basis_centers, coeffs.grids), coeffs.coeffs
    check_finite("spline coefficients", top := (a := np.abs(c)).max(initial=0.0))
    keep = a > NEGLIGIBLE * top
    if c.size - np.count_nonzero(keep) < BLOCK:
        return ParticleSet(np.repeat(c1, c2.size), np.tile(c2, c1.size), c.flatten())
    return ParticleSet(np.repeat(c1, np.count_nonzero(keep, axis=1)),
                       np.broadcast_to(c2, c.shape)[keep], c[keep], np.flatnonzero(keep))


def deposit_phase_space(p: ParticleSet, gx: UniformGrid1D, gy: UniformGrid1D):
    """Deposit onto the 2D node grid, skipping |w| <= NEGLIGIBLE max |w|."""
    if p.nodes is None:
        keep = (a := np.abs(p.weights)) > NEGLIGIBLE * a.max(initial=0.0)
        p = p if keep.all() else ParticleSet(p.pos1[keep], p.pos2[keep], p.weights[keep])
    (nxa, nya), nodes = padded((gx, gy))
    out = np.zeros(nxa * nya)
    for b in blocks(p.pos1.size):
        (ix, wx), (iy, wy) = (stencil(g, x[b], PAD - 1) for g, x in ((gx, p.pos1), (gy, p.pos2)))
        # slot-major (4, 4, block); named, it lives into the next block, so the heap is
        # not trimmed and regrown each block (712 against 1216 minor faults a KH call)
        flat = ((ix * nya)[:, None] + iy[None]).ravel()
        np.add.at(out, flat, ((p.weights[b] * wx)[:, None] * wy[None]).ravel())
    # contiguous: a strided result changes the summation order of np.sum
    return np.ascontiguousarray(out.reshape(nxa, nya)[nodes])


def deposit_charge(p: ParticleSet, grids: tuple[UniformGrid1D, ...], stage: StageOperator):
    """M^T w on the nodes of ``grids``, (gx,) or (gx, gy), for the stage operator
    M this fills at the positions of ``p``, every particle kept: the gather reads
    its row.  Over (gx,) it is the charge sum_k w_k S((x_i - X_k)/dx); times dv,
    as the Vlasov-Poisson callers take it, its x-quadrature is the particles' mass."""
    pts = (p.pos1, p.pos2)[:len(grids)]
    op = stage.fill(pts, grids)
    # contiguous: a strided result changes the summation order of np.sum
    return np.ascontiguousarray((op.matrix_t @ p.weights).reshape(op.dims)[op.nodes])


def deposit_seeded_charge(weights, gx: UniformGrid1D, dv: float):
    """dv times ``deposit_charge`` of ``seed_particles`` output on a periodic x grid.

    Every particle sits on a basis center, where the basis is (1/6, 2/3,
    1/6) at the nodes -1, 0, +1 away, so this is that stencil of the v sums
    of the weights, ghost coefficients included, and needs no particle loop.
    """
    a = weights.reshape(gx.n_nodes, -1).sum(axis=1)
    return dv * ((np.roll(a, 1) + 4.0 * a + np.roll(a, -1)) / 6.0)
