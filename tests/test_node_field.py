"""The node field of a seeded set and the FFT periodic spline solve.

A node-seeded particle set deposits as the 3-point stencil of its weights
and, since the field spline interpolates at the nodes, sees the node
values of its field.  The providers use both facts for the first stage
after a remap, and the diagnostics row shares that one field.  Checked
here: the stencil deposits against the particle deposits, the stage-1
node velocities against the spline gather, the solve count of whole runs,
and the circulant FFT solve against a dense solve.
"""

import numpy as np
import pytest

from fslvlasov import pushers, solver
from fslvlasov.cases import apply_overrides, case_defaults
from fslvlasov.deposition import (
    ParticleSet,
    deposit_charge,
    deposit_phase_space,
    deposit_seeded_charge,
    deposit_seeded_phase_space,
    seed_particles,
)
from fslvlasov.field1d import solve_poisson_1d
from fslvlasov.field2d import solve_fields
from fslvlasov.grids import NATURAL, UniformGrid1D
from fslvlasov.pushers import SelfConsistentField1D, SelfConsistentField2D
from fslvlasov.splines import eval_2d, fit_2d, solve_cyclic_banded
from spline_oracles import plain_eval_1d, wrap

# non-square: periodic x, natural y (GC) or v (VP)
GX = UniformGrid1D(0.0, 7.0, 12)
GY = UniformGrid1D(0.0, 2.0 * np.pi, 9, bc=NATURAL)
GV = UniformGrid1D(-5.0, 5.0, 15, bc=NATURAL, deriv_lo=0.1, deriv_hi=-0.2)


def _seeded(gx, gy, seed):
    """A seeded set whose spline has a mean, noise and nonzero wall values."""
    rng = np.random.default_rng(seed)
    x, y = np.meshgrid(gx.nodes(), gy.nodes(), indexing="ij")
    f = 1.0 + np.sin(y) * np.cos(2.0 * np.pi * x / gx.length) + 0.3 * rng.random(x.shape)
    return seed_particles(fit_2d(f, gx, gy))


def _rel(got, ref):
    return np.max(np.abs(got - ref)) / np.max(np.abs(ref))


def _copy(p):
    """Same values in fresh arrays: no longer the seeded set."""
    return ParticleSet(p.pos1.copy(), p.pos2.copy(), p.weights.copy())


class TestSeededDeposit:
    def test_phase_space_equals_particle_deposit(self):
        p = _seeded(GX, GY, 1)
        ref = deposit_phase_space(p, GX, GY)
        assert _rel(deposit_seeded_phase_space(p.weights, GX, GY), ref) < 1e-13

    def test_charge_equals_particle_deposit(self):
        p = _seeded(GX, GV, 2)
        ref = deposit_charge(p, GX, GV.delta)
        assert _rel(deposit_seeded_charge(p.weights, GX, GV.delta), ref) < 1e-13


class TestStageOneNodeVelocities:
    def test_gc_equals_wall_clipped_gather(self):
        p = _seeded(GX, GY, 3)
        fld = SelfConsistentField2D(GX, GY)
        fld.reseed(p)
        u, v = fld.rhs(p, 0.0)
        e = eval_2d(fld.node_field(p).E_spline, p.pos1, np.clip(p.pos2, GY.xmin, GY.xmax))
        assert _rel(u, e[:, 0]) < 1e-13 and _rel(v, -e[:, 1]) < 1e-13
        # the full deposit -> solve -> gather path gives the same velocities
        q = _copy(p)
        uf, vf = fld.rhs(q, 0.0)
        assert _rel(u, uf) < 1e-13 and _rel(v, vf) < 1e-13
        assert fld.solves == 2

    def test_vp_equals_gather(self):
        p = _seeded(GX, GV, 4)
        fld = SelfConsistentField1D(GX, GV.delta)
        fld.reseed(p)
        _, e = fld.rhs(p, 0.0)
        assert _rel(e, plain_eval_1d(fld.node_field(p).E_spline, p.pos1)) < 1e-13
        q = _copy(p)
        assert _rel(e, fld.rhs(q, 0.0)[1]) < 1e-13
        assert fld.solves == 2

    def test_node_field_is_lazy_and_solved_once(self):
        p = _seeded(GX, GY, 5)
        fld = SelfConsistentField2D(GX, GY)
        fld.reseed(p)
        assert fld.solves == 0
        p.weights[:] *= 2.0  # an in-place change before first use counts
        ref = SelfConsistentField2D(GX, GY)
        q = _copy(p)
        ref.reseed(q)
        np.testing.assert_array_equal(fld.node_field(p).Ex, ref.node_field(q).Ex)
        fld.rhs(p, 0.0)
        assert fld.solves == 1
        assert fld.node_field(_copy(p)) is None


class TestLazyNodeValues:
    def test_stage_solve_builds_no_node_values(self, monkeypatch):
        solved = []

        def recording(*args):
            solved.append(solve_fields(*args))
            return solved[-1]

        monkeypatch.setattr(pushers, "solve_fields", recording)
        p = _seeded(GX, GY, 8)
        fld = SelfConsistentField2D(GX, GY)
        fld.reseed(p)
        fld.rhs(_copy(p), 0.0)  # a stage off the nodes: deposit, solve, gather
        assert len(solved) == 1 and not {"phi", "Ex", "Ey"} & set(vars(solved[0]))
        fld.rhs(p, 0.0)  # stage 1 of the seeded set reads the node values
        assert len(solved) == 2 and {"Ex", "Ey"} <= set(vars(solved[1]))


class TestStageThroughKeptStencils:
    """A stage off the nodes deposits, solves and gathers at its positions,
    the gather reading the deposit's kept stencils: the same bits as the
    three plain calls on copied arrays, ghosts beyond the walls included."""

    def test_gc_velocity_equals_plain_stage(self):
        p = _seeded(GX, GY, 6)
        rng = np.random.default_rng(6)
        px = wrap(GX, p.pos1 + rng.uniform(-0.4, 0.4, p.pos1.size))
        py = p.pos2 + rng.uniform(-0.4, 0.4, p.pos2.size)
        fld = SelfConsistentField2D(GX, GY)
        u, v = fld.rhs(p.replace_positions(px, py), 0.0)
        q = ParticleSet(px.copy(), py.copy(), p.weights.copy())
        e = eval_2d(solve_fields(deposit_phase_space(q, GX, GY), GX, GY).E_spline,
                    q.pos1, np.clip(q.pos2, GY.xmin, GY.xmax))
        assert (py < GY.xmin).any() and (py > GY.xmax).any()
        np.testing.assert_array_equal(u, e[:, 0])
        np.testing.assert_array_equal(v, -e[:, 1])

    def test_vp_field_equals_plain_stage(self):
        p = _seeded(GX, GV, 7)
        x = wrap(GX, p.pos1 + np.random.default_rng(7).uniform(-2.0, 2.0, p.pos1.size))
        fld = SelfConsistentField1D(GX, GV.delta)
        _, got = fld.rhs(p.replace_positions(x, p.pos2), 0.0)
        q = ParticleSet(x.copy(), x.copy(), p.weights.copy())
        state = solve_poisson_1d(deposit_charge(q, GX, GV.delta), GX)
        np.testing.assert_array_equal(got, plain_eval_1d(state.E_spline, q.pos1))

    def test_buffer_is_allocated_once(self):
        p = _seeded(GX, GY, 8)
        fld = SelfConsistentField2D(GX, GY)
        fld.rhs(p.replace_positions(p.pos1 + 0.1, p.pos2), 0.0)
        names = ("indices", "data", "w", "ones", "cpad", "matrix", "matrix_t")
        kept = [getattr(fld.stage, k) for k in names]
        fld.rhs(p.replace_positions(p.pos1 - 0.1, p.pos2 + 0.05), 0.0)
        for k, a in zip(names, kept):
            assert getattr(fld.stage, k) is a, k


def _counting(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def wrapped(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapped)
    return calls


def _small(case, **kw):
    return apply_overrides(case_defaults(case), {"nx": 16, "nv": 16, **kw})


class TestSolveCount:
    @pytest.mark.parametrize("case, solve, deposit, gather", [
        ("kelvin_helmholtz", "solve_fields", "deposit_phase_space", "eval_2d"),
        ("bump_on_tail", "solve_poisson_1d", "deposit_charge", "eval_1d"),
    ])
    def test_fsl_rk4_makes_four_solves_a_step_plus_one(
        self, monkeypatch, case, solve, deposit, gather
    ):
        n = 5
        cfg = _small(case, t_end=n * case_defaults(case).dt, diag_every=1)
        diag_solves = _counting(monkeypatch, solver, solve)
        diag_deposits = _counting(monkeypatch, solver, "deposit_charge")
        stage_deposits = _counting(monkeypatch, pushers, deposit)
        gathers = _counting(monkeypatch, pushers, gather)
        res = solver.run(cfg)
        assert res.state.provider.solves == 4 * n + 1
        assert diag_solves == [] and diag_deposits == []
        assert len(stage_deposits) == 3 * n and len(gathers) == 3 * n

    def test_hybrid_solves_every_stage_between_remaps(self, monkeypatch):
        cfg = _small("kelvin_helmholtz", scheme="hybrid", T=3, t_end=3.0)
        diag_solves = _counting(monkeypatch, solver, "solve_fields")
        state = solver.init(cfg)
        solver.diag_row(state)
        per_step, diag_per_step = [], []
        for _ in range(cfg.n_steps()):
            before, diag_before = state.provider.solves, len(diag_solves)
            solver.step(state)
            solver.diag_row(state)
            per_step.append(state.provider.solves - before)
            diag_per_step.append(len(diag_solves) - diag_before)
        # after a remap stage 1 reads the node field; mid-cycle steps make
        # all four solves and the diagnostics solve on their own
        assert per_step == [3, 4, 5, 3, 4, 5]
        assert diag_per_step == [1, 1, 0, 1, 1, 0]


def _dense_cyclic(n):
    m = np.zeros((n, n))
    for i in range(n):
        m[i, i] += 2.0 / 3.0
        m[i, (i - 1) % n] += 1.0 / 6.0
        m[i, (i + 1) % n] += 1.0 / 6.0
    return m


class TestCyclicFft:
    @pytest.mark.parametrize("n", [4, 5, 7, 24, 129])
    @pytest.mark.parametrize("shape", [(), (3,)])
    def test_matches_dense_odd_and_even(self, n, shape):
        rhs = np.random.default_rng(n).normal(size=(n,) + shape)
        got = solve_cyclic_banded(rhs)
        assert got.shape == rhs.shape
        ref = np.linalg.solve(_dense_cyclic(n), rhs)
        assert np.max(np.abs(got - ref)) < 1e-13 * np.max(np.abs(ref))
