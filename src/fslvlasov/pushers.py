"""Forward integrators for the characteristics d(pos1, pos2)/dt = rhs(p, t).

Every provider has one protocol: ``rhs(p, t) -> (d1, d2)`` at the
positions of the ParticleSet ``p``, whose weights stay frozen between
remaps: (v, E(x)) for Vlasov-Poisson, E_perp = (Ey, -Ex) for the guiding
center, (v, -a(t) x) for the Hill harness; ``reseed(p, f)``, which takes
the node-seeded set of each remap and the node values f it was fitted
to; and ``solves``, the field solves so far, for tests that audit the
stage structure.  The self-consistent providers, which the diagnostics
rows and BSL read, add ``node_field(p)``, the field of the remap (None
for any other set).  Their rhs deposits the weights, solves the Poisson
problem and gathers the field through one sparse B-spline matrix M of
the stage's particles (``stage``, a ``splines.StageOperator``:
``deposit_charge`` has ``fill`` write M and sums M^T w, the gather
computes M c); a Vlasov-Poisson row between remaps deposits through it
too, and the next stage refills it.  BSL, which never pushes, reads
through it after a ``fill`` at margin 0.  The node-seeded set is the
exception: its field is solved on the grid once, on first use, and
shared by the diagnostics row and stage 1, which both read node values
only, since the particles sit where the field spline interpolates (the
field then fits no spline), read at ``ParticleSet.nodes`` for a seed
that skipped its negligible coefficients.  The guiding center solves it
from the remap's f.  Vlasov-Poisson solves it from the stencil deposit
of the weights, skipped ones 0 (``deposit_seeded_charge``), which also
holds the ghost coefficients' skirt beyond the v walls that dv sum_v f
leaves out (the node sum would move bump_on_tail's E1 by 9.4e-6).  The
integrators pass the seeded set itself to stage 1, so the identity test
of ``node_field`` is the only one.  The pushers neither wrap nor check x:
a position may lie any number of periods away, and every read and scatter
wraps and checks it as it locates (``splines._locate``).

``push_rk`` is the one explicit Runge-Kutta driver.  A tableau lists rows
(den, integer nums): stages 2..s, then the weights.  A row moves the start
positions by (dt/den) * sum_j nums[j] k_j, at t + (dt/den) * sum(nums),
zero terms skipped, unit factors left out, summed in textbook order.
Addition is not associative; this order keeps each pusher bit for bit
equal to its textbook form ((dt/2) k is 0.5 dt k, dt (-k1 + 2 k2) is
dt (2 k2 - k1)), so goldens and earlier series match exactly.  ``rk2`` is
the midpoint rule for the (x, v) models but Heun's trapezoidal rule for
the guiding center: two second-order methods, both pinned by the goldens.
``push_verlet`` is the symplectic pusher of the (x, v) models.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .deposition import (
    ParticleSet,
    basis_centers,
    deposit_charge,
    deposit_seeded_charge,
)
from .field1d import solve_poisson_1d
from .field2d import solve_fields
from .grids import UniformGrid1D
from .splines import StageOperator, eval_1d, eval_2d


class _NodeSeeded:
    """The node-seeded set and node f last handed over, their lazily solved
    field, and the stage operator of the other stages; x is periodic on ``gx``."""

    def __init__(self, gx: UniformGrid1D):
        self.gx = gx
        self.solves = 0
        self.seeded = self.f = None
        self._node_field = None
        self.stage = StageOperator()

    def reseed(self, p: ParticleSet, f):
        """Take a set fresh from ``seed_particles`` and the node values it
        was fitted to; their field is solved on first use."""
        self.seeded, self.f = p, f
        self._node_field = None

    def node_field(self, p: ParticleSet):
        """Field state of ``p`` if it is the set last handed over, else None."""
        if p is not self.seeded:
            return None
        if self._node_field is None:
            self._node_field = self._solve_seeded()
            self.solves += 1
        return self._node_field


class SelfConsistentField1D(_NodeSeeded):
    """(v, E(x)) from charge deposition and the periodic Poisson solve."""

    def __init__(self, grid_x: UniformGrid1D, grid_v: UniformGrid1D):
        super().__init__(grid_x)
        self.dv = grid_v.delta
        self.size = grid_x.n_nodes * basis_centers(grid_v).size  # of the coefficient lattice

    def _solve_seeded(self):
        """From the weights, read now: an in-place change before first use counts."""
        p = self.seeded  # a compressed seed's skipped coefficients are 0 on the lattice
        w = p.weights if p.nodes is None else np.bincount(p.nodes, p.weights, self.size)
        return solve_poisson_1d(deposit_seeded_charge(w, self.gx, self.dv), self.gx)

    def rhs(self, p: ParticleSet, t):
        state = self.node_field(p)
        if state is not None:
            # every v slot of a column sits at the same node x
            return p.pos2, p.at_nodes(np.repeat(state.E, self.size // self.gx.n_nodes))
        state = solve_poisson_1d(self.dv * deposit_charge(p, (self.gx,), self.stage), self.gx)
        self.solves += 1
        return p.pos2, eval_1d(state.E_spline, p.pos1, stage=self.stage)


class SelfConsistentField2D(_NodeSeeded):
    """Rotated field E_perp = (Ey, -Ex) at the particles (guiding center).

    The y walls are streamlines (Ex = 0 there), so the field seen by the
    ghost particles just outside is the constant-normal extension: the
    splines read a point beyond a wall at the wall (``splines._locate``),
    and the ghost slots of a node-seeded set take the wall node values.
    """

    def __init__(self, gx: UniformGrid1D, gy: UniformGrid1D):
        super().__init__(gx)
        self.gy = gy

    def _solve_seeded(self):
        return solve_fields(self.f, self.gx, self.gy)

    def rhs(self, p: ParticleSet, t):
        state = self.node_field(p)
        if state is not None:
            ny = self.gy.n_nodes
            cols = np.clip(np.arange(-1, ny + 1), 0, ny - 1)
            return p.at_nodes(state.Ey[:, cols].ravel()), -p.at_nodes(state.Ex[:, cols].ravel())
        rho = deposit_charge(p, (self.gx, self.gy), self.stage)
        state = solve_fields(rho, self.gx, self.gy)
        self.solves += 1
        e = eval_2d(state.E_spline, p.pos1, p.pos2, stage=self.stage)
        return e[:, 0], -e[:, 1]


class ExternalLinearForce:
    """(v, -a(t) x): the external force of the Hill harness, no field solve."""

    def __init__(self, a):
        self.a = a
        self.solves = 0

    def reseed(self, p: ParticleSet, f):
        pass  # the force does not depend on f

    def rhs(self, p: ParticleSet, t):
        return p.pos2, -self.a(t) * p.pos1


#: explicit Runge-Kutta tableaux, rows (den, nums): stages 2..s, then weights
EULER = ((1, (1,)),)
MIDPOINT = ((2, (1,)), (1, (0, 1)))
HEUN = ((1, (1,)), (2, (1, 1)))
KUTTA3 = ((2, (1,)), (1, (-1, 2)), (6, (1, 4, 1)))
RK4 = ((2, (1,)), (2, (0, 1)), (1, (0, 0, 1)), (6, (1, 2, 2, 1)))


def _move(h, nums, ks):
    """h * sum_j nums[j] * ks[j], zero terms skipped, in textbook order."""
    terms = [k if n == 1 else n * k for n, k in zip(nums, ks) if n]
    return h * sum(terms[1:], terms[0])  # ((t1 + t2) + t3) + ...


def push_rk(tableau, p: ParticleSet, fld, dt: float, t: float) -> ParticleSet:
    """One step of an explicit Runge-Kutta ``tableau``; stage 1 is ``p``."""
    ks, stage, t_stage = [], p, t
    for den, nums in tableau:
        ks.append(fld.rhs(stage, t_stage))
        h = dt / den
        stage = p.replace_positions(p.pos1 + _move(h, nums, [k[0] for k in ks]),
                                    p.pos2 + _move(h, nums, [k[1] for k in ks]))
        t_stage = t + h * sum(nums)
    return stage


def push_verlet(p: ParticleSet, fld, dt: float, t: float) -> ParticleSet:
    """Velocity half-kick, drift, field resolve at t+dt, half-kick."""
    vh = p.pos2 + 0.5 * dt * fld.rhs(p, t)[1]
    x1 = p.pos1 + dt * vh
    v1 = vh + 0.5 * dt * fld.rhs(p.replace_positions(x1, vh), t + dt)[1]
    return p.replace_positions(x1, v1)


#: pushers of the (x, v) models: Vlasov-Poisson and the Hill harness
VP_PUSHERS = {
    "verlet": push_verlet,
    "rk2": partial(push_rk, MIDPOINT),
    "rk4": partial(push_rk, RK4),
}

#: pushers of the guiding-center model
GC_PUSHERS = {
    "euler": partial(push_rk, EULER),
    "rk2": partial(push_rk, HEUN),
    "rk3": partial(push_rk, KUTTA3),
    "rk4": partial(push_rk, RK4),
}
