"""Forward integrators for the characteristic system dX/dt = U(X, t).

The advection velocity is supplied by a field provider, which deposits
the frozen particle weights at the (possibly stage-advanced) positions,
solves the Poisson problem, and interpolates the resulting field back to
the particles with cubic splines.  Every stage therefore costs one field
solve, with one exception: the solver hands each freshly node-seeded set
to its provider (``reseed``), and the field of that set is solved on the
grid, once, on first use (``node_field``).  The diagnostics row and stage
1 of the next step share it; since the particles sit on the basis
centers and the field spline interpolates at the nodes, stage 1 reads
the node values of the field and needs no deposit and no gather.
Providers count their solves so tests can audit the stage structure.
"""

from __future__ import annotations

import numpy as np

from .deposition import (
    ParticleSet,
    deposit_charge,
    deposit_phase_space,
    deposit_seeded_charge,
    deposit_seeded_phase_space,
)
from .field1d import solve_poisson_1d
from .field2d import solve_fields
from .grids import UniformGrid1D
from .splines import eval_1d, eval_2d


class _NodeSeeded:
    """The node-seeded set last handed over and its lazily solved field."""

    def __init__(self):
        self.solves = 0
        self.seeded = None
        self._node_field = None

    def reseed(self, p: ParticleSet):
        """Take a set fresh from ``seed_particles``; its field is solved on
        first use, so an in-place change of the weights before then counts."""
        self.seeded = p
        self._node_field = None

    def node_field(self, p: ParticleSet):
        """Field state of ``p`` if it is the set last handed over, else None."""
        if p is not self.seeded:
            return None
        if self._node_field is None:
            self._node_field = self._solve_seeded(p.weights)
            self.solves += 1
        return self._node_field

    def _is_seeded(self, pos1, weights):
        s = self.seeded
        return s is not None and pos1 is s.pos1 and weights is s.weights


class SelfConsistentField1D(_NodeSeeded):
    """E(x) at particle positions from charge deposition + periodic Poisson."""

    def __init__(self, grid_x: UniformGrid1D, dv: float):
        super().__init__()
        self.grid = grid_x
        self.dv = dv

    def _solve_seeded(self, weights):
        return solve_poisson_1d(deposit_seeded_charge(weights, self.grid, self.dv), self.grid)

    def field_at(self, pos, weights, t):
        if self._is_seeded(pos, weights):
            # every v slot of a column sits at the same node x
            return np.repeat(self.node_field(self.seeded).E, pos.size // self.grid.n_nodes)
        rho = deposit_charge(ParticleSet(pos, pos, weights), self.grid, self.dv)
        state = solve_poisson_1d(rho, self.grid)
        self.solves += 1
        return eval_1d(state.E_spline, pos)

    def wrap(self, pos):
        return self.grid.wrap(pos)


class ExternalLinearForce:
    """External force -a(t) x; no field solve (the Hill harness)."""

    def __init__(self, a):
        self.a = a
        self.solves = 0

    def field_at(self, pos, weights, t):
        return -self.a(t) * pos

    def wrap(self, pos):
        return pos  # natural domain: positions are not wrapped


class SelfConsistentField2D(_NodeSeeded):
    """Rotated field E_perp = (Ey, -Ex) at the particles (guiding center).

    The y walls are streamlines (Ex = 0 there), so the field seen by the
    ghost particles just outside is the constant-normal extension: splines
    are evaluated at the wall-clipped y, and the ghost slots of a
    node-seeded set take the wall node values.
    """

    def __init__(self, gx: UniformGrid1D, gy: UniformGrid1D):
        super().__init__()
        self.gx = gx
        self.gy = gy

    def _solve_seeded(self, weights):
        rho = deposit_seeded_phase_space(weights, self.gx, self.gy)
        return solve_fields(rho, self.gx, self.gy)

    def velocity_at(self, px, py, weights, t):
        if self._is_seeded(px, weights) and py is self.seeded.pos2:
            state = self.node_field(self.seeded)
            ny = self.gy.n_nodes
            cols = np.clip(np.arange(-1, ny + 1), 0, ny - 1)
            return state.Ey[:, cols].ravel(), -state.Ex[:, cols].ravel()
        rho = deposit_phase_space(ParticleSet(px, py, weights), self.gx, self.gy)
        state = solve_fields(rho, self.gx, self.gy)
        self.solves += 1
        py_in = np.clip(py, self.gy.xmin, self.gy.xmax)
        e = eval_2d(state.E_spline, px, py_in)
        return e[:, 0], -e[:, 1]

    def wrap_x(self, px):
        return self.gx.wrap(px)


def _check_finite(pos1, pos2):
    if not (np.all(np.isfinite(pos1)) and np.all(np.isfinite(pos2))):
        raise FloatingPointError("non-finite particle positions after push")


# ---------------------------------------------------------------------------
# Vlasov-Poisson pushers: state X = (x, v), dx/dt = v, dv/dt = E(x, t)


def push_verlet_vp(p: ParticleSet, fld, dt: float, t: float) -> ParticleSet:
    """Velocity half-kick, drift, field resolve at t+dt, half-kick."""
    e0 = fld.field_at(p.pos1, p.weights, t)
    vh = p.pos2 + 0.5 * dt * e0
    x1 = fld.wrap(p.pos1 + dt * vh)
    e1 = fld.field_at(x1, p.weights, t + dt)
    v1 = vh + 0.5 * dt * e1
    _check_finite(x1, v1)
    return p.replace_positions(x1, v1)


def push_rk2_vp(p: ParticleSet, fld, dt: float, t: float) -> ParticleSet:
    """Explicit midpoint rule with the stage field at t + dt/2."""
    k1v = p.pos2
    k1a = fld.field_at(p.pos1, p.weights, t)
    xm = fld.wrap(p.pos1 + 0.5 * dt * k1v)
    k2v = p.pos2 + 0.5 * dt * k1a
    k2a = fld.field_at(xm, p.weights, t + 0.5 * dt)
    x1 = fld.wrap(p.pos1 + dt * k2v)
    v1 = p.pos2 + dt * k2a
    _check_finite(x1, v1)
    return p.replace_positions(x1, v1)


def push_rk4_vp(p: ParticleSet, fld, dt: float, t: float) -> ParticleSet:
    """Classical RK4; the three intermediate fields are solved at the
    stage-advanced positions with the frozen weights."""
    x, v = p.pos1, p.pos2
    k1v = v
    k1a = fld.field_at(x, p.weights, t)
    xa = fld.wrap(x + 0.5 * dt * k1v)
    k2v = v + 0.5 * dt * k1a
    k2a = fld.field_at(xa, p.weights, t + 0.5 * dt)
    xb = fld.wrap(x + 0.5 * dt * k2v)
    k3v = v + 0.5 * dt * k2a
    k3a = fld.field_at(xb, p.weights, t + 0.5 * dt)
    xc = fld.wrap(x + dt * k3v)
    k4v = v + dt * k3a
    k4a = fld.field_at(xc, p.weights, t + dt)
    x1 = fld.wrap(x + dt / 6.0 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v))
    v1 = v + dt / 6.0 * (k1a + 2.0 * k2a + 2.0 * k3a + k4a)
    _check_finite(x1, v1)
    return p.replace_positions(x1, v1)


VP_PUSHERS = {
    "verlet": push_verlet_vp,
    "rk2": push_rk2_vp,
    "rk4": push_rk4_vp,
}


# ---------------------------------------------------------------------------
# guiding-center pushers: dX/dt = E_perp(X, t), X = (x, y)


def _gc_move(fld, p, px, py, dx, dy):
    return fld.wrap_x(px + dx), py + dy


def push_euler_gc(p: ParticleSet, fld, dt: float, t: float) -> ParticleSet:
    u, v = fld.velocity_at(p.pos1, p.pos2, p.weights, t)
    x1, y1 = _gc_move(fld, p, p.pos1, p.pos2, dt * u, dt * v)
    _check_finite(x1, y1)
    return p.replace_positions(x1, y1)


def push_rk2_gc(p: ParticleSet, fld, dt: float, t: float) -> ParticleSet:
    """Heun predictor-corrector: full predictor step, field resolve there,
    then the trapezoidal average of the two stage velocities."""
    u0, v0 = fld.velocity_at(p.pos1, p.pos2, p.weights, t)
    xp, yp = _gc_move(fld, p, p.pos1, p.pos2, dt * u0, dt * v0)
    u1, v1 = fld.velocity_at(xp, yp, p.weights, t + dt)
    x1, y1 = _gc_move(fld, p, p.pos1, p.pos2, 0.5 * dt * (u0 + u1), 0.5 * dt * (v0 + v1))
    _check_finite(x1, y1)
    return p.replace_positions(x1, y1)


def push_rk3_gc(p: ParticleSet, fld, dt: float, t: float) -> ParticleSet:
    """Classical Kutta third-order tableau (0, 1/2, 1; b = 1/6, 2/3, 1/6)."""
    x, y = p.pos1, p.pos2
    u1, v1 = fld.velocity_at(x, y, p.weights, t)
    xa, ya = _gc_move(fld, p, x, y, 0.5 * dt * u1, 0.5 * dt * v1)
    u2, v2 = fld.velocity_at(xa, ya, p.weights, t + 0.5 * dt)
    xb, yb = _gc_move(fld, p, x, y, dt * (2.0 * u2 - u1), dt * (2.0 * v2 - v1))
    u3, v3 = fld.velocity_at(xb, yb, p.weights, t + dt)
    x1, y1 = _gc_move(
        fld, p, x, y,
        dt / 6.0 * (u1 + 4.0 * u2 + u3),
        dt / 6.0 * (v1 + 4.0 * v2 + v3),
    )
    _check_finite(x1, y1)
    return p.replace_positions(x1, y1)


def push_rk4_gc(p: ParticleSet, fld, dt: float, t: float) -> ParticleSet:
    x, y = p.pos1, p.pos2
    u1, v1 = fld.velocity_at(x, y, p.weights, t)
    xa, ya = _gc_move(fld, p, x, y, 0.5 * dt * u1, 0.5 * dt * v1)
    u2, v2 = fld.velocity_at(xa, ya, p.weights, t + 0.5 * dt)
    xb, yb = _gc_move(fld, p, x, y, 0.5 * dt * u2, 0.5 * dt * v2)
    u3, v3 = fld.velocity_at(xb, yb, p.weights, t + 0.5 * dt)
    xc, yc = _gc_move(fld, p, x, y, dt * u3, dt * v3)
    u4, v4 = fld.velocity_at(xc, yc, p.weights, t + dt)
    x1, y1 = _gc_move(
        fld, p, x, y,
        dt / 6.0 * (u1 + 2.0 * u2 + 2.0 * u3 + u4),
        dt / 6.0 * (v1 + 2.0 * v2 + 2.0 * v3 + v4),
    )
    _check_finite(x1, y1)
    return p.replace_positions(x1, y1)


GC_PUSHERS = {
    "euler": push_euler_gc,
    "rk2": push_rk2_gc,
    "rk3": push_rk3_gc,
    "rk4": push_rk4_gc,
}
