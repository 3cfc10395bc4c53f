import numpy as np
import pytest

from fslvlasov.cases import maxwellian
from fslvlasov.deposition import (
    ParticleSet,
    basis_centers,
    deposit_charge,
    deposit_phase_space,
    seed_particles,
)
from fslvlasov.grids import NATURAL, UniformGrid1D
from fslvlasov.splines import StageOperator, fit_2d
from spline_oracles import basis_eval


def brute_force_deposit(p, gx, gy):
    """Direct double-loop summation over particles and nodes."""
    out = np.zeros((gx.n_nodes, gy.n_nodes))
    xis = gx.nodes()
    yjs = gy.nodes()
    for x, y, w in zip(p.pos1, p.pos2, p.weights):
        for i, xi in enumerate(xis):
            dx = (xi - x) / gx.delta
            if gx.periodic:
                n = gx.n_cells
                dx = (dx + n / 2) % n - n / 2
            sx = basis_eval(dx)
            if sx == 0.0:
                continue
            for j, yj in enumerate(yjs):
                dy = (yj - y) / gy.delta
                if gy.periodic:
                    n = gy.n_cells
                    dy = (dy + n / 2) % n - n / 2
                out[i, j] += w * sx * basis_eval(dy)
    return out


def brute_force_charge(p, gx, dv):
    out = np.zeros(gx.n_nodes)
    n = gx.n_cells
    for x, w in zip(p.pos1, p.weights):
        for i, xi in enumerate(gx.nodes()):
            dx = ((xi - x) / gx.delta + n / 2) % n - n / 2
            out[i] += w * basis_eval(dx)
    return dv * out


@pytest.fixture
def grids_pn():
    gx = UniformGrid1D(0.0, 4.0 * np.pi, 16)
    gy = UniformGrid1D(-6.0, 6.0, 16, bc=NATURAL)
    return gx, gy


class TestDepositPhaseSpace:
    def test_single_interior_particle_at_node(self, grids_pn):
        gx, gy = grids_pn
        w = 0.7
        p = ParticleSet(
            np.array([gx.nodes()[5]]), np.array([gy.nodes()[8]]),
            np.array([w]),
        )
        out = deposit_phase_space(p, gx, gy)
        stencil = w * np.outer(
            [1 / 6, 2 / 3, 1 / 6], [1 / 6, 2 / 3, 1 / 6]
        )
        np.testing.assert_allclose(out[4:7, 7:10], stencil, atol=1e-15)
        total = out.sum()
        assert total == pytest.approx(w, abs=1e-15)

    def test_identity_motion_reproduces_f(self, grids_pn):
        gx, gy = grids_pn
        x = gx.nodes()[:, None]
        v = gy.nodes()[None, :]
        f = maxwellian(v) * (1.0 + 0.3 * np.cos(0.5 * x))
        p = seed_particles(fit_2d(f, gx, gy))
        np.testing.assert_allclose(deposit_phase_space(p, gx, gy), f, atol=1e-12)

    def test_matches_brute_force_on_random_inputs(self, grids_pn):
        gx, gy = grids_pn
        rng = np.random.default_rng(42)
        n = 200
        p = ParticleSet(
            rng.uniform(gx.xmin - 2, gx.xmax + 2, n),
            rng.uniform(gy.xmin - 1.0, gy.xmax + 1.0, n),
            rng.normal(size=n),
        )
        got = deposit_phase_space(p, gx, gy)
        np.testing.assert_allclose(got, brute_force_deposit(p, gx, gy), atol=1e-13)

    def test_mass_conservation_interior(self, grids_pn):
        gx, gy = grids_pn
        rng = np.random.default_rng(3)
        n = 500
        p = ParticleSet(
            rng.uniform(gx.xmin, gx.xmax, n),
            rng.uniform(gy.xmin + 2 * gy.delta, gy.xmax - 2 * gy.delta, n),
            rng.normal(size=n),
        )
        out = deposit_phase_space(p, gx, gy)
        assert abs(out.sum() - p.weights.sum()) < 1e-12 * np.abs(p.weights).sum()

    def test_linearity_in_weights(self, grids_pn):
        gx, gy = grids_pn
        rng = np.random.default_rng(5)
        n = 100
        pos1 = rng.uniform(gx.xmin, gx.xmax, n)
        pos2 = rng.uniform(gy.xmin, gy.xmax, n)
        w1 = rng.normal(size=n)
        w2 = rng.normal(size=n)
        a, b = 1.7, -0.4
        combined = deposit_phase_space(
            ParticleSet(pos1, pos2, a * w1 + b * w2), gx, gy
        )
        split = a * deposit_phase_space(
            ParticleSet(pos1, pos2, w1), gx, gy
        ) + b * deposit_phase_space(ParticleSet(pos1, pos2, w2), gx, gy)
        np.testing.assert_allclose(combined, split, atol=1e-13)

    def test_translation_equivariance_periodic(self):
        gx = UniformGrid1D(0.0, 16.0, 16)
        gy = UniformGrid1D(0.0, 16.0, 16)
        rng = np.random.default_rng(8)
        n = 64
        # positions exactly representable so the shift is lossless
        pos1 = rng.integers(0, 64, n) * 0.25
        pos2 = rng.integers(0, 64, n) * 0.25
        w = rng.normal(size=n)
        base = deposit_phase_space(ParticleSet(pos1, pos2, w), gx, gy)
        shifted = deposit_phase_space(
            ParticleSet(pos1 + 3.0, pos2, w), gx, gy
        )
        np.testing.assert_array_equal(shifted, np.roll(base, 3, axis=0))

    def test_shift_by_full_period_is_identical(self):
        gx = UniformGrid1D(0.0, 16.0, 16)
        gy = UniformGrid1D(0.0, 16.0, 16)
        rng = np.random.default_rng(9)
        n = 64
        pos1 = rng.integers(0, 64, n) * 0.25
        pos2 = rng.integers(0, 64, n) * 0.25
        w = rng.normal(size=n)
        base = deposit_phase_space(ParticleSet(pos1, pos2, w), gx, gy)
        wrapped = deposit_phase_space(
            ParticleSet(pos1 + 16.0, pos2, w), gx, gy
        )
        np.testing.assert_array_equal(wrapped, base)

    def test_non_finite_rejected(self, grids_pn):
        gx, gy = grids_pn
        p = ParticleSet(np.array([np.nan]), np.array([0.0]), np.array([1.0]))
        with pytest.raises(FloatingPointError, match="^non-finite positions$"):
            deposit_phase_space(p, gx, gy)

    def test_determinism_bitwise(self, grids_pn):
        gx, gy = grids_pn
        rng = np.random.default_rng(1)
        n = 300
        p = ParticleSet(
            rng.uniform(0, 10, n), rng.uniform(-5, 5, n), rng.normal(size=n),
        )
        a = deposit_phase_space(p, gx, gy)
        b = deposit_phase_space(p, gx, gy)
        np.testing.assert_array_equal(a, b)


class TestDepositCharge:
    def test_zero_weights(self, grids_pn):
        gx, gy = grids_pn
        p = ParticleSet(np.zeros(5), np.zeros(5), np.zeros(5))
        rho = deposit_charge(p, (gx,), StageOperator())
        np.testing.assert_array_equal(rho, np.zeros(gx.n_nodes))

    def test_landau_initial_density(self):
        # analytic oracle: the velocity integral of the Maxwellian is 1 and
        # the trapezoid truncation beyond |v| = 6 is below erfc(6/sqrt(2))
        gx = UniformGrid1D(0.0, 4.0 * np.pi, 64)
        gy = UniformGrid1D(-6.0, 6.0, 64, bc=NATURAL)
        x = gx.nodes()[:, None]
        v = gy.nodes()[None, :]
        f = maxwellian(v) * (1.0 + 0.001 * np.cos(0.5 * x))
        p = seed_particles(fit_2d(f, gx, gy))
        rho = gy.delta * deposit_charge(p, (gx,), StageOperator())
        expected = 1.0 + 0.001 * np.cos(0.5 * gx.nodes())
        assert np.abs(rho - expected).max() < 1e-6

    def test_matches_brute_force(self, grids_pn):
        gx, gy = grids_pn
        rng = np.random.default_rng(12)
        n = 200
        p = ParticleSet(
            rng.uniform(-5, 25, n), np.zeros(n), rng.normal(size=n),
        )
        np.testing.assert_allclose(
            0.3 * deposit_charge(p, (gx,), StageOperator()), brute_force_charge(p, gx, 0.3),
            atol=1e-13,
        )

    def test_discrete_mass_identity(self, grids_pn):
        gx, gy = grids_pn
        rng = np.random.default_rng(21)
        n = 150
        p = ParticleSet(
            rng.uniform(0, 12, n), np.zeros(n), rng.normal(size=n),
        )
        dv = 0.7
        rho = dv * deposit_charge(p, (gx,), StageOperator())
        assert gx.delta * rho.sum() == pytest.approx(
            gx.delta * dv * p.weights.sum(), rel=1e-13
        )


class TestSeeding:
    def test_seed_positions_are_basis_centers(self, grids_pn):
        gx, gy = grids_pn
        f = np.ones((gx.n_nodes, gy.n_nodes))
        p = seed_particles(fit_2d(f, gx, gy))
        assert p.pos1.size == gx.n_nodes * (gy.n_nodes + 2)
        assert p.pos2.min() == pytest.approx(gy.xmin - gy.delta)
        assert p.pos2.max() == pytest.approx(gy.xmax + gy.delta)
        np.testing.assert_allclose(
            np.unique(p.pos1), np.unique(basis_centers(gx))
        )
