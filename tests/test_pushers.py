import numpy as np
import pytest

from fslvlasov.cases import maxwellian
from fslvlasov.deposition import ParticleSet, seed_particles
from fslvlasov.grids import NATURAL, UniformGrid1D
from fslvlasov.pushers import (
    ExternalLinearForce,
    SelfConsistentField1D,
    SelfConsistentField2D,
    push_euler_gc,
    push_rk2_gc,
    push_rk2_vp,
    push_rk3_gc,
    push_rk4_gc,
    push_rk4_vp,
    push_verlet_vp,
)
from fslvlasov.splines import fit_2d


class FrozenField1D:
    """External field provider with a fixed spatial profile (test hook)."""

    def __init__(self, fn, grid=None):
        self.fn = fn
        self.grid = grid
        self.solves = 0

    def field_at(self, pos, weights, t):
        self.solves += 1
        return self.fn(pos, t)

    def wrap(self, pos):
        return self.grid.wrap(pos) if self.grid else pos


class FrozenField2D:
    def __init__(self, fn, gx):
        self.fn = fn
        self.gx = gx
        self.solves = 0

    def velocity_at(self, px, py, weights, t):
        self.solves += 1
        return self.fn(px, py, t)

    def wrap_x(self, px):
        return self.gx.wrap(px)


def landau_particles(nx=32, nv=32):
    gx = UniformGrid1D(0.0, 4.0 * np.pi, nx)
    gv = UniformGrid1D(-6.0, 6.0, nv, bc=NATURAL)
    f = maxwellian(gv.nodes()[None, :]) * (
        1.0 + 0.05 * np.cos(0.5 * gx.nodes()[:, None])
    )
    return gx, gv, seed_particles(fit_2d(f, gx, gv))


class TestFreeStreaming:
    @pytest.mark.parametrize("push", [push_verlet_vp, push_rk2_vp, push_rk4_vp])
    def test_zero_field_is_exact_drift(self, push):
        gx = UniformGrid1D(0.0, 8.0, 16)
        fld = FrozenField1D(lambda x, t: np.zeros_like(x), gx)
        rng = np.random.default_rng(0)
        p = ParticleSet(
            rng.uniform(0, 8, 40), rng.uniform(-2, 2, 40), np.ones(40),
        )
        dt = 0.37
        out = push(p, fld, dt, 0.0)
        np.testing.assert_allclose(out.pos1, gx.wrap(p.pos1 + dt * p.pos2), atol=1e-14)
        np.testing.assert_array_equal(out.pos2, p.pos2)

    def test_gc_immobile_with_zero_field(self):
        gx = UniformGrid1D(0.0, 8.0, 16)
        fld = FrozenField2D(
            lambda x, y, t: (np.zeros_like(x), np.zeros_like(y)), gx
        )
        rng = np.random.default_rng(1)
        p = ParticleSet(
            rng.uniform(0, 8, 30), rng.uniform(0, 6, 30), np.ones(30),
        )
        for push in (push_euler_gc, push_rk2_gc, push_rk3_gc, push_rk4_gc):
            out = push(p, fld, 0.5, 0.0)
            np.testing.assert_array_equal(out.pos1, p.pos1)
            np.testing.assert_array_equal(out.pos2, p.pos2)


class TestHarmonicOscillator:
    """Frozen external field E(x) = -x: the harmonic oscillator."""

    def oscillator_error(self, push, dt, t_end=2.0 * np.pi):
        fld = FrozenField1D(lambda x, t: -x)
        p = ParticleSet(np.array([1.0]), np.array([0.0]), np.ones(1))
        n = int(round(t_end / dt))
        t = 0.0
        for _ in range(n):
            p = push(p, fld, dt, t)
            t += dt
        return np.hypot(p.pos1[0] - np.cos(t), p.pos2[0] + np.sin(t))

    def test_verlet_single_step_matches_formula(self):
        fld = FrozenField1D(lambda x, t: -x)
        x0, v0, dt = 1.3, -0.4, 0.05
        p = ParticleSet(np.array([x0]), np.array([v0]), np.ones(1))
        out = push_verlet_vp(p, fld, dt, 0.0)
        vh = v0 - 0.5 * dt * x0
        x1 = x0 + dt * vh
        v1 = vh - 0.5 * dt * x1
        assert out.pos1[0] == pytest.approx(x1, abs=1e-15)
        assert out.pos2[0] == pytest.approx(v1, abs=1e-15)

    @pytest.mark.parametrize(
        "push,order,floor",
        [(push_verlet_vp, 2, 1.9), (push_rk2_vp, 2, 1.9), (push_rk4_vp, 4, 3.9)],
    )
    def test_global_order(self, push, order, floor):
        errs = [self.oscillator_error(push, dt) for dt in (0.2, 0.1, 0.05)]
        slopes = [np.log(errs[i] / errs[i + 1]) / np.log(2.0) for i in range(2)]
        assert min(slopes) >= floor


class TestSelfConsistentStages:
    def test_rk4_field_solve_audit(self):
        # three intermediate-time solves plus the shared t^n solve
        gx, gv, p = landau_particles()
        fld = SelfConsistentField1D(gx, gv.delta)
        push_rk4_vp(p, fld, 0.1, 0.0)
        assert fld.solves == 4
        push_rk4_vp(p, fld, 0.1, 0.0)
        assert fld.solves == 8

    def test_verlet_two_solves(self):
        gx, gv, p = landau_particles()
        fld = SelfConsistentField1D(gx, gv.delta)
        push_verlet_vp(p, fld, 0.1, 0.0)
        assert fld.solves == 2

    def test_single_step_matches_tiny_dt_rk4_reference(self):
        # step-doubling oracle: one Verlet step vs many small RK4 steps
        gx, gv, p = landau_particles()
        fld = SelfConsistentField1D(gx, gv.delta)
        dt = 0.2
        coarse = push_verlet_vp(p, fld, dt, 0.0)
        fine = p
        m = 64
        for i in range(m):
            fine = push_rk4_vp(fine, SelfConsistentField1D(gx, gv.delta), dt / m, 0.0)
        raw = np.abs(coarse.pos1 - fine.pos1)
        dx = np.minimum(raw, gx.length - raw).max()  # distance modulo L
        dv = np.abs(coarse.pos2 - fine.pos2).max()
        # local Verlet error is O(dt^3)
        assert max(dx, dv) < 5.0 * dt**3

    def test_purity_identical_inputs_identical_outputs(self):
        gx, gv, p = landau_particles()
        out1 = push_rk2_vp(p, SelfConsistentField1D(gx, gv.delta), 0.1, 0.0)
        out2 = push_rk2_vp(p, SelfConsistentField1D(gx, gv.delta), 0.1, 0.0)
        np.testing.assert_array_equal(out1.pos1, out2.pos1)
        np.testing.assert_array_equal(out1.pos2, out2.pos2)


class TestGuidingCenterPushers:
    def frozen_rotation(self):
        # U = (-y, x): rigid rotation about the domain center after shift
        gx = UniformGrid1D(0.0, 20.0, 16)

        def fn(px, py, t):
            return -(py - 10.0), (px - 10.0)

        return FrozenField2D(fn, gx)

    @pytest.mark.parametrize(
        "push,floor",
        [(push_euler_gc, 0.9), (push_rk2_gc, 1.9), (push_rk3_gc, 2.9),
         (push_rk4_gc, 3.9)],
    )
    def test_order_on_frozen_rotation(self, push, floor):
        fld = self.frozen_rotation()
        errs = []
        for dt in (0.2, 0.1, 0.05):
            p = ParticleSet(np.array([11.0]), np.array([10.0]), np.ones(1))
            n = int(round(2.0 / dt))
            t = 0.0
            for _ in range(n):
                p = push(p, fld, dt, t)
                t += dt
            exact = (10.0 + np.cos(t), 10.0 + np.sin(t))
            errs.append(np.hypot(p.pos1[0] - exact[0], p.pos2[0] - exact[1]))
        slopes = [np.log(errs[i] / errs[i + 1]) / np.log(2.0) for i in range(2)]
        assert min(slopes) >= floor

    def test_area_preservation_of_tracer_quad(self):
        # the rotated-gradient flow is divergence-free; a small marker
        # quadrilateral keeps its area to the scheme's order
        fld = self.frozen_rotation()
        h = 1e-3
        px = np.array([11.0, 11.0 + h, 11.0 + h, 11.0])
        py = np.array([10.0, 10.0, 10.0 + h, 10.0 + h])
        p = ParticleSet(px, py, np.ones(4))
        dt = 0.05
        t = 0.0
        for _ in range(40):
            p = push_rk4_gc(p, fld, dt, t)
            t += dt

        def area(xs, ys):
            return 0.5 * abs(
                np.dot(xs, np.roll(ys, -1)) - np.dot(ys, np.roll(xs, -1))
            )

        assert area(p.pos1, p.pos2) == pytest.approx(h * h, rel=1e-8)

    def test_kh_equilibrium_velocity_against_frozen_ode(self):
        # frozen sin(y) equilibrium: U = (-cos y, 0), pure x shear; compare a
        # self-consistent stage velocity to the analytic value
        gx = UniformGrid1D(0.0, 7.0, 64)
        gy = UniformGrid1D(0.0, 2.0 * np.pi, 64, bc=NATURAL)
        f = np.broadcast_to(np.sin(gy.nodes())[None, :], (64, 65)).copy()
        p = seed_particles(fit_2d(f, gx, gy))
        fld = SelfConsistentField2D(gx, gy)
        ux, uy = fld.velocity_at(p.pos1, p.pos2, p.weights, 0.0)
        inside = (p.pos2 >= 0.0) & (p.pos2 <= 2.0 * np.pi)
        np.testing.assert_allclose(
            ux[inside], -np.cos(p.pos2[inside]), atol=2e-5
        )
        np.testing.assert_allclose(uy, 0.0, atol=1e-10)

    def test_gc_rk2_stage_audit(self):
        gx = UniformGrid1D(0.0, 7.0, 32)
        gy = UniformGrid1D(0.0, 2.0 * np.pi, 32, bc=NATURAL)
        f = np.broadcast_to(np.sin(gy.nodes())[None, :], (32, 33)).copy()
        p = seed_particles(fit_2d(f, gx, gy))
        fld = SelfConsistentField2D(gx, gy)
        push_rk2_gc(p, fld, 0.1, 0.0)
        assert fld.solves == 2
        push_rk4_gc(p, fld, 0.1, 0.0)
        assert fld.solves == 6


class TestExternalForce:
    def test_hill_force_values(self):
        a = lambda t: 2.0 + np.cos(t)
        fld = ExternalLinearForce(a)
        x = np.array([0.5, -1.0])
        np.testing.assert_allclose(
            fld.field_at(x, None, 0.0), -3.0 * x, atol=1e-15
        )
        assert fld.solves == 0

    def test_rk_orders_with_time_dependent_coefficient(self):
        # a(t) = 1: exact solution cos(t); exercises the stage times
        fld = ExternalLinearForce(lambda t: 1.0)
        for push, floor in ((push_rk2_vp, 1.9), (push_rk4_vp, 3.9)):
            errs = []
            for dt in (0.2, 0.1):
                p = ParticleSet(np.array([1.0]), np.array([0.0]), np.ones(1))
                t = 0.0
                for _ in range(int(round(2.0 * np.pi / dt))):
                    p = push(p, fld, dt, t)
                    t += dt
                errs.append(abs(p.pos1[0] - np.cos(t)))
            assert np.log(errs[0] / errs[1]) / np.log(2.0) >= floor

    def test_non_finite_positions_abort(self):
        fld = FrozenField1D(lambda x, t: np.full_like(x, np.inf))
        p = ParticleSet(np.zeros(2), np.zeros(2), np.ones(2))
        with pytest.raises(FloatingPointError):
            push_verlet_vp(p, fld, 0.1, 0.0)
