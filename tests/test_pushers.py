import numpy as np
import pytest

from fslvlasov.cases import maxwellian
from fslvlasov.deposition import ParticleSet, seed_particles
from fslvlasov.grids import NATURAL, UniformGrid1D
from fslvlasov.pushers import (
    GC_PUSHERS,
    VP_PUSHERS,
    ExternalLinearForce,
    SelfConsistentField1D,
    SelfConsistentField2D,
)
from fslvlasov.splines import fit_2d

TABLES = {"vp": VP_PUSHERS, "gc": GC_PUSHERS}


def pushers_of(model, *rows):
    """pytest params (pusher, *rest) from rows (name, *rest), with the ids
    push_<name>_<model>[-rest...]."""
    return [pytest.param(TABLES[model][name], *rest,
                         id="-".join([f"push_{name}_{model}", *map(str, rest)]))
            for name, *rest in rows]


class FrozenField1D:
    """External field provider with a fixed spatial profile (test hook)."""

    def __init__(self, fn):
        self.fn = fn
        self.solves = 0

    def rhs(self, p, t):
        self.solves += 1
        return p.pos2, self.fn(p.pos1, t)


class FrozenField2D:
    def __init__(self, fn):
        self.fn = fn
        self.solves = 0

    def rhs(self, p, t):
        self.solves += 1
        return self.fn(p.pos1, p.pos2, t)


def landau_particles(nx=32, nv=32):
    gx = UniformGrid1D(0.0, 4.0 * np.pi, nx)
    gv = UniformGrid1D(-6.0, 6.0, nv, bc=NATURAL)
    f = maxwellian(gv.nodes()[None, :]) * (
        1.0 + 0.05 * np.cos(0.5 * gx.nodes()[:, None])
    )
    return gx, gv, seed_particles(fit_2d(f, gx, gv))


# Textbook single steps: E(x, t) is the field of the (x, v) models and
# U(x, y, t) the guiding-center velocity; x is never wrapped


def _verlet(E, x, v, dt, t):
    vh = v + 0.5 * dt * E(x, t)
    x1 = x + dt * vh
    return x1, vh + 0.5 * dt * E(x1, t + dt)


def _midpoint(E, x, v, dt, t):
    k2v = v + 0.5 * dt * E(x, t)
    k2a = E(x + 0.5 * dt * v, t + 0.5 * dt)
    return x + dt * k2v, v + dt * k2a


def _rk4_vp(E, x, v, dt, t):
    k1a = E(x, t)
    xa, k2v = x + 0.5 * dt * v, v + 0.5 * dt * k1a
    k2a = E(xa, t + 0.5 * dt)
    xb, k3v = x + 0.5 * dt * k2v, v + 0.5 * dt * k2a
    k3a = E(xb, t + 0.5 * dt)
    xc, k4v = x + dt * k3v, v + dt * k3a
    k4a = E(xc, t + dt)
    return (x + dt / 6.0 * (v + 2.0 * k2v + 2.0 * k3v + k4v),
            v + dt / 6.0 * (k1a + 2.0 * k2a + 2.0 * k3a + k4a))


def _euler(U, x, y, dt, t):
    u, v = U(x, y, t)
    return x + dt * u, y + dt * v


def _heun(U, x, y, dt, t):
    u0, v0 = U(x, y, t)
    u1, v1 = U(x + dt * u0, y + dt * v0, t + dt)
    return x + 0.5 * dt * (u0 + u1), y + 0.5 * dt * (v0 + v1)


def _kutta3(U, x, y, dt, t):
    u1, v1 = U(x, y, t)
    u2, v2 = U(x + 0.5 * dt * u1, y + 0.5 * dt * v1, t + 0.5 * dt)
    u3, v3 = U(x + dt * (2.0 * u2 - u1), y + dt * (2.0 * v2 - v1), t + dt)
    return x + dt / 6.0 * (u1 + 4.0 * u2 + u3), y + dt / 6.0 * (v1 + 4.0 * v2 + v3)


def _rk4_gc(U, x, y, dt, t):
    u1, v1 = U(x, y, t)
    u2, v2 = U(x + 0.5 * dt * u1, y + 0.5 * dt * v1, t + 0.5 * dt)
    u3, v3 = U(x + 0.5 * dt * u2, y + 0.5 * dt * v2, t + 0.5 * dt)
    u4, v4 = U(x + dt * u3, y + dt * v3, t + dt)
    return (x + dt / 6.0 * (u1 + 2.0 * u2 + 2.0 * u3 + u4),
            y + dt / 6.0 * (v1 + 2.0 * v2 + 2.0 * v3 + v4))


TEXTBOOK = {
    ("vp", "verlet"): _verlet, ("vp", "rk2"): _midpoint, ("vp", "rk4"): _rk4_vp,
    ("gc", "euler"): _euler, ("gc", "rk2"): _heun, ("gc", "rk3"): _kutta3,
    ("gc", "rk4"): _rk4_gc,
}


class TestFreeStreaming:
    @pytest.mark.parametrize("push", pushers_of("vp", ("verlet",), ("rk2",), ("rk4",)))
    def test_zero_field_is_exact_drift(self, push):
        # dt and v are dyadic, so every stage sum (rk4's (dt/6)(v + 2v + 2v + v)
        # too) is exact and the only rounding left is that of x + dt v
        fld = FrozenField1D(lambda x, t: np.zeros_like(x))
        rng = np.random.default_rng(0)
        p = ParticleSet(
            rng.uniform(0, 8, 40), rng.integers(-128, 129, 40) / 64.0, np.ones(40),
        )
        dt = 0.375
        out = push(p, fld, dt, 0.0)
        np.testing.assert_array_equal(out.pos1, p.pos1 + dt * p.pos2)
        np.testing.assert_array_equal(out.pos2, p.pos2)

    def test_gc_immobile_with_zero_field(self):
        fld = FrozenField2D(lambda x, y, t: (np.zeros_like(x), np.zeros_like(y)))
        rng = np.random.default_rng(1)
        p = ParticleSet(
            rng.uniform(0, 8, 30), rng.uniform(0, 6, 30), np.ones(30),
        )
        for push in GC_PUSHERS.values():
            out = push(p, fld, 0.5, 0.0)
            np.testing.assert_array_equal(out.pos1, p.pos1)
            np.testing.assert_array_equal(out.pos2, p.pos2)


class TestHarmonicOscillator:
    """Frozen external field E(x) = -x: the harmonic oscillator (with a
    time-dependent frequency in the single-step test)."""

    def oscillator_error(self, push, dt, t_end=2.0 * np.pi):
        fld = FrozenField1D(lambda x, t: -x)
        p = ParticleSet(np.array([1.0]), np.array([0.0]), np.ones(1))
        n = int(round(t_end / dt))
        t = 0.0
        for _ in range(n):
            p = push(p, fld, dt, t)
            t += dt
        return np.hypot(p.pos1[0] - np.cos(t), p.pos2[0] + np.sin(t))

    @pytest.mark.parametrize("model, name", list(TEXTBOOK))
    def test_single_step_matches_formula(self, model, name):
        # bit for bit: positions and velocities spread over four decades, so
        # that for some particles the step dominates and a last-bit change of
        # a stage sum (reordered terms) survives; a(t) makes the stage times count
        a = lambda t: 1.0 + 0.3 * np.cos(t)
        rng = np.random.default_rng(3)
        x0, v0 = rng.choice([-1.0, 1.0], (2, 64)) * 10.0 ** rng.uniform(-4.0, 0.2, (2, 64))
        dt, t = 0.3, 0.7
        if model == "vp":
            field = lambda x, t: -a(t) * x
            fld = FrozenField1D(field)
        else:
            field = lambda x, y, t: (-a(t) * y, a(t) * x)
            fld = FrozenField2D(field)
        out = TABLES[model][name](ParticleSet(x0, v0, np.ones(64)), fld, dt, t)
        x1, v1 = TEXTBOOK[model, name](field, x0, v0, dt, t)
        np.testing.assert_array_equal(out.pos1, x1)
        np.testing.assert_array_equal(out.pos2, v1)

    @pytest.mark.parametrize(
        "push,order,floor",
        pushers_of("vp", ("verlet", 2, 1.9), ("rk2", 2, 1.9), ("rk4", 4, 3.9)),
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
        VP_PUSHERS["rk4"](p, fld, 0.1, 0.0)
        assert fld.solves == 4
        VP_PUSHERS["rk4"](p, fld, 0.1, 0.0)
        assert fld.solves == 8

    def test_verlet_two_solves(self):
        gx, gv, p = landau_particles()
        fld = SelfConsistentField1D(gx, gv.delta)
        VP_PUSHERS["verlet"](p, fld, 0.1, 0.0)
        assert fld.solves == 2

    def test_single_step_matches_tiny_dt_rk4_reference(self):
        # step-doubling oracle: one Verlet step vs many small RK4 steps
        gx, gv, p = landau_particles()
        fld = SelfConsistentField1D(gx, gv.delta)
        dt = 0.2
        coarse = VP_PUSHERS["verlet"](p, fld, dt, 0.0)
        fine = p
        m = 64
        for i in range(m):
            fine = VP_PUSHERS["rk4"](fine, SelfConsistentField1D(gx, gv.delta), dt / m, 0.0)
        dx = np.abs(coarse.pos1 - fine.pos1).max()  # neither set is wrapped
        dv = np.abs(coarse.pos2 - fine.pos2).max()
        # local Verlet error is O(dt^3)
        assert max(dx, dv) < 5.0 * dt**3

    def test_purity_identical_inputs_identical_outputs(self):
        gx, gv, p = landau_particles()
        out1 = VP_PUSHERS["rk2"](p, SelfConsistentField1D(gx, gv.delta), 0.1, 0.0)
        out2 = VP_PUSHERS["rk2"](p, SelfConsistentField1D(gx, gv.delta), 0.1, 0.0)
        np.testing.assert_array_equal(out1.pos1, out2.pos1)
        np.testing.assert_array_equal(out1.pos2, out2.pos2)


class TestGuidingCenterPushers:
    def frozen_rotation(self):
        # U = (-y, x): rigid rotation about (10, 10)

        def fn(px, py, t):
            return -(py - 10.0), (px - 10.0)

        return FrozenField2D(fn)

    @pytest.mark.parametrize(
        "push,floor",
        pushers_of("gc", ("euler", 0.9), ("rk2", 1.9), ("rk3", 2.9), ("rk4", 3.9)),
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
            p = GC_PUSHERS["rk4"](p, fld, dt, t)
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
        ux, uy = fld.rhs(p, 0.0)
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
        GC_PUSHERS["rk2"](p, fld, 0.1, 0.0)
        assert fld.solves == 2
        GC_PUSHERS["rk4"](p, fld, 0.1, 0.0)
        assert fld.solves == 6


class TestExternalForce:
    def test_hill_force_values(self):
        a = lambda t: 2.0 + np.cos(t)
        fld = ExternalLinearForce(a)
        x = np.array([0.5, -1.0])
        v = np.array([0.2, 0.3])
        dx, dv = fld.rhs(ParticleSet(x, v, np.ones(2)), 0.0)
        assert dx is v
        np.testing.assert_allclose(dv, -3.0 * x, atol=1e-15)
        assert fld.solves == 0

    def test_rk_orders_with_time_dependent_coefficient(self):
        # a(t) = 1: exact solution cos(t); exercises the stage times
        fld = ExternalLinearForce(lambda t: 1.0)
        for push, floor in ((VP_PUSHERS["rk2"], 1.9), (VP_PUSHERS["rk4"], 3.9)):
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
            VP_PUSHERS["verlet"](p, fld, 0.1, 0.0)
