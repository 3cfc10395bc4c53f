"""The node field of a remap and the FFT periodic spline solve.

Each remap hands the provider its node-seeded set and the node values f
the set was fitted to.  Since the field spline interpolates at the nodes,
the seeded particles see the node values of the remap's field: the
guiding center solves it from f, Vlasov-Poisson from the 3-point stencil
deposit of the weights.  The providers use that field for the first stage
after a remap, and the diagnostics row shares it.  Checked here: the
stencil deposit against the particle deposit, the guiding-center node
field against the solve of f, the stage-1 node velocities against the
spline gather, a seed that skips its negligible coefficients against the
whole-lattice seed, the lazy field splines, the solve and fit counts of
whole runs, and the circulant FFT solve against a dense solve.
"""

import numpy as np
import pytest

from fslvlasov import deposition, diagnostics, field1d, field2d, pushers, solver
from fslvlasov.cases import apply_overrides, case_defaults
from fslvlasov.deposition import (
    NEGLIGIBLE,
    ParticleSet,
    deposit_charge,
    deposit_seeded_charge,
    seed_particles,
)
from fslvlasov.field1d import solve_poisson_1d
from fslvlasov.field2d import solve_fields
from fslvlasov.grids import NATURAL, UniformGrid1D
from fslvlasov.pushers import SelfConsistentField1D, SelfConsistentField2D
from fslvlasov.splines import (
    StageOperator,
    fit_1d,
    fit_2d,
    fit_2d_rfft,
    solve_cyclic_banded,
)
from spline_oracles import plain_eval_1d, plain_eval_2d, wrap

# non-square: periodic x, natural y (GC) or v (VP)
GX = UniformGrid1D(0.0, 7.0, 12)
GY = UniformGrid1D(0.0, 2.0 * np.pi, 9, bc=NATURAL)
GV = UniformGrid1D(-5.0, 5.0, 15, bc=NATURAL, deriv_lo=0.1, deriv_hi=-0.2)


def _node_f(gx, gy, seed):
    """Node values with a mean, noise and nonzero wall values."""
    rng = np.random.default_rng(seed)
    x, y = np.meshgrid(gx.nodes(), gy.nodes(), indexing="ij")
    length = gx.xmax - gx.xmin
    return 1.0 + np.sin(y) * np.cos(2.0 * np.pi * x / length) + 0.3 * rng.random(x.shape)


def _seeded(gx, gy, seed):
    """The set seeded from the spline of ``_node_f``."""
    return seed_particles(fit_2d(_node_f(gx, gy, seed), gx, gy))


def _handed(fld, gx, gy, seed):
    """``_seeded``, handed to ``fld`` with its node values as a remap does."""
    f = _node_f(gx, gy, seed)
    p = seed_particles(fit_2d(f, gx, gy))
    fld.reseed(p, f)
    return p


def _rel(got, ref):
    return np.max(np.abs(got - ref)) / np.max(np.abs(ref))


def _copy(p):
    """Same values in fresh arrays: no longer the seeded set."""
    return ParticleSet(p.pos1.copy(), p.pos2.copy(), p.weights.copy())


class TestSeededDeposit:
    def test_charge_equals_particle_deposit(self):
        p = _seeded(GX, GV, 2)
        ref = GV.delta * deposit_charge(p, (GX,), StageOperator())
        assert _rel(deposit_seeded_charge(p.weights, GX, GV.delta), ref) < 1e-13


class TestStageOneNodeVelocities:
    def test_gc_equals_wall_clipped_gather(self):
        fld = SelfConsistentField2D(GX, GY)
        p = _handed(fld, GX, GY, 3)
        u, v = fld.rhs(p, 0.0)
        e = plain_eval_2d(fld.node_field(p).E_spline, p.pos1, np.clip(p.pos2, GY.xmin, GY.xmax))
        assert _rel(u, e[:, 0]) < 1e-13 and _rel(v, -e[:, 1]) < 1e-13
        # the full deposit -> solve -> gather path gives the same velocities
        q = _copy(p)
        uf, vf = fld.rhs(q, 0.0)
        assert _rel(u, uf) < 1e-13 and _rel(v, vf) < 1e-13
        assert fld.solves == 2

    def test_vp_equals_gather(self):
        fld = SelfConsistentField1D(GX, GV)
        p = _handed(fld, GX, GV, 4)
        _, e = fld.rhs(p, 0.0)
        assert _rel(e, plain_eval_1d(fld.node_field(p).E_spline, p.pos1)) < 1e-13
        q = _copy(p)
        assert _rel(e, fld.rhs(q, 0.0)[1]) < 1e-13
        assert fld.solves == 2

    def test_node_field_is_lazy_and_solved_once(self):
        fld = SelfConsistentField1D(GX, GV)
        p = _handed(fld, GX, GV, 5)
        assert fld.solves == 0
        p.weights[:] *= 2.0  # VP reads the weights at first use: an in-place change counts
        ref = SelfConsistentField1D(GX, GV)
        q = _copy(p)
        ref.reseed(q, None)
        np.testing.assert_array_equal(fld.node_field(p).E, ref.node_field(q).E)
        fld.rhs(p, 0.0)
        assert fld.solves == 1
        assert fld.node_field(_copy(p)) is None

    def test_gc_node_field_is_the_solve_of_f(self):
        fld = SelfConsistentField2D(GX, GY)
        p = _handed(fld, GX, GY, 10)
        assert fld.solves == 0
        p.weights[:] *= 2.0  # the guiding center reads f, not the weights
        ref = solve_fields(_node_f(GX, GY, 10), GX, GY)
        state = fld.node_field(p)
        np.testing.assert_array_equal(state.Ex, ref.Ex)
        np.testing.assert_array_equal(state.Ey, ref.Ey)
        fld.rhs(p, 0.0)
        assert fld.solves == 1
        assert fld.node_field(_copy(p)) is None


def _compressed(fld, gx, gy, seed, monkeypatch):
    """``_node_f``'s spline with every third coefficient made negligible,
    seeded whole and then compressed (``deposition.BLOCK`` patched to 1, so
    the seed skips them); the compressed set is handed to ``fld``.  Returns
    f, the whole-lattice set, the compressed set and the mask of the kept."""
    f = _node_f(gx, gy, seed)
    coeffs = fit_2d(f, gx, gy)
    flat = coeffs.coeffs.reshape(-1)
    flat[1::3] = 0.5 * NEGLIGIBLE * np.abs(flat).max()
    kept = np.ones(flat.size, dtype=bool)
    kept[1::3] = False
    full = seed_particles(coeffs)
    monkeypatch.setattr(deposition, "BLOCK", 1)
    p = seed_particles(coeffs)
    assert full.nodes is None
    np.testing.assert_array_equal(p.nodes, np.flatnonzero(kept))
    fld.reseed(p, f)
    return f, full, p, kept


class TestCompressedSeedNodeField:
    """A seed that skips its negligible coefficients reads the node field at
    its lattice indices: stage 1 gives the whole-lattice seed's velocities at
    the kept particles, and the Vlasov-Poisson charge is the stencil of the
    whole lattice's weights with the skipped ones zeroed."""

    def test_gc_stage_one_is_the_full_seeds_at_the_kept(self, monkeypatch):
        fld, ref = SelfConsistentField2D(GX, GY), SelfConsistentField2D(GX, GY)
        f, full, p, kept = _compressed(fld, GX, GY, 11, monkeypatch)
        ref.reseed(full, f)
        for got, want in zip(fld.rhs(p, 0.0), ref.rhs(full, 0.0)):
            np.testing.assert_array_equal(got, want[kept])
        assert fld.solves == ref.solves == 1

    def test_vp_charge_zeroes_the_skipped_weights(self, monkeypatch):
        fld, ref = SelfConsistentField1D(GX, GV), SelfConsistentField1D(GX, GV)
        _, full, p, kept = _compressed(fld, GX, GV, 12, monkeypatch)
        zeroed = ParticleSet(full.pos1, full.pos2, np.where(kept, full.weights, 0.0))
        ref.reseed(zeroed, None)
        rho = deposit_seeded_charge(zeroed.weights, GX, GV.delta)
        np.testing.assert_array_equal(fld.node_field(p).E, solve_poisson_1d(rho, GX).E)
        for got, want in zip(fld.rhs(p, 0.0), ref.rhs(zeroed, 0.0)):
            np.testing.assert_array_equal(got, want[kept])
        assert fld.solves == ref.solves == 1


class TestLazyNodeValues:
    def test_stage_solve_builds_no_node_values(self, monkeypatch):
        solved = []

        def recording(*args):
            solved.append(solve_fields(*args))
            return solved[-1]

        monkeypatch.setattr(pushers, "solve_fields", recording)
        fld = SelfConsistentField2D(GX, GY)
        p = _handed(fld, GX, GY, 8)
        fld.rhs(_copy(p), 0.0)  # a stage off the nodes: deposit, solve, gather
        assert len(solved) == 1 and not {"phi", "Ex", "Ey"} & set(vars(solved[0]))
        assert "E_spline" in vars(solved[0])
        fld.rhs(p, 0.0)  # stage 1 of the seeded set reads the node values
        assert len(solved) == 2 and {"Ex", "Ey"} <= set(vars(solved[1]))
        assert "E_spline" not in vars(solved[1])

    def test_seeded_spline_read_late_equals_eager_fit(self):
        fld = SelfConsistentField2D(GX, GY)
        p = _handed(fld, GX, GY, 9)
        fld.rhs(p, 0.0)
        state = fld.node_field(p)
        eager = fit_2d_rfft(np.stack([state.Ey_hat, state.Ex_hat]), GX, GY)
        np.testing.assert_array_equal(state.E_spline.coeffs, eager.coeffs)

    def test_vp_stage_solve_alone_fits_the_spline(self, monkeypatch):
        solved = []

        def recording(*args):
            solved.append(solve_poisson_1d(*args))
            return solved[-1]

        monkeypatch.setattr(pushers, "solve_poisson_1d", recording)
        fld = SelfConsistentField1D(GX, GV)
        p = _handed(fld, GX, GV, 10)
        fld.rhs(_copy(p), 0.0)  # a stage off the nodes: deposit, solve, gather
        assert len(solved) == 1 and "E_spline" in vars(solved[0])
        fld.rhs(p, 0.0)  # stage 1 of the seeded set reads the node values
        assert len(solved) == 2 and "E_spline" not in vars(solved[1])

    def test_vp_row_and_stage_one_fit_no_spline(self):
        state = solver.init(_small("landau"))
        solver.diag_row(state)
        state.provider.rhs(state.particles, 0.0)
        assert "E_spline" not in vars(state.provider.node_field(state.particles))

    def test_vp_seeded_spline_read_late_equals_eager_fit(self):
        fld = SelfConsistentField1D(GX, GV)
        p = _handed(fld, GX, GV, 11)
        fld.rhs(p, 0.0)
        state = fld.node_field(p)
        np.testing.assert_array_equal(state.E_spline.coeffs, fit_1d(state.E, GX).coeffs)


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
        rho = deposit_charge(q, (GX, GY), StageOperator())
        e = plain_eval_2d(solve_fields(rho, GX, GY).E_spline,
                          q.pos1, np.clip(q.pos2, GY.xmin, GY.xmax))
        assert (py < GY.xmin).any() and (py > GY.xmax).any()
        np.testing.assert_array_equal(u, e[:, 0])
        np.testing.assert_array_equal(v, -e[:, 1])

    def test_vp_field_equals_plain_stage(self):
        p = _seeded(GX, GV, 7)
        x = wrap(GX, p.pos1 + np.random.default_rng(7).uniform(-2.0, 2.0, p.pos1.size))
        fld = SelfConsistentField1D(GX, GV)
        _, got = fld.rhs(p.replace_positions(x, p.pos2), 0.0)
        q = ParticleSet(x.copy(), x.copy(), p.weights.copy())
        state = solve_poisson_1d(GV.delta * deposit_charge(q, (GX,), StageOperator()), GX)
        np.testing.assert_array_equal(got, plain_eval_1d(state.E_spline, q.pos1))

    def test_buffer_is_allocated_once(self):
        p = _seeded(GX, GY, 8)
        fld = SelfConsistentField2D(GX, GY)
        fld.rhs(p.replace_positions(p.pos1 + 0.1, p.pos2), 0.0)
        names = ("index", "data", "cpad", "matrix", "matrix_t")
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
        ("kelvin_helmholtz", "solve_fields", "deposit_charge", "eval_2d"),
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

    def test_kh_fsl_rk4_fits_only_the_stage_splines(self, monkeypatch):
        # the node-seeded field (stage 1 and every row) reads node values only
        n = 5
        cfg = _small("kelvin_helmholtz", t_end=n * case_defaults("kelvin_helmholtz").dt,
                     diag_every=1)
        fits = _counting(monkeypatch, field2d, "fit_2d_rfft")
        solver.run(cfg)
        assert len(fits) == 3 * n

    @pytest.mark.parametrize("case, overrides, fits", [
        ("bump_on_tail", {}, 18), ("landau", {}, 6), ("landau", {"scheme": "bsl"}, 0),
        ("landau", {"scheme": "hybrid", "T": 3}, 10)],
        ids=["bump_on_tail_rk4", "landau_verlet", "landau_bsl", "landau_hybrid_T3"])
    def test_vp_fits_only_the_stage_splines(self, monkeypatch, case, overrides, fits):
        # 6 steps: rk4 fits 3 a step, verlet 1, a hybrid cycle of 3 steps 1 + 2 + 2;
        # the node-seeded field, every row and BSL's half step read node values only
        n = 6
        cfg = _small(case, t_end=n * case_defaults(case).dt, diag_every=1, **overrides)
        calls = _counting(monkeypatch, field1d, "fit_1d")
        solver.run(cfg)
        assert len(calls) == fits

    def test_hybrid_solves_every_stage_between_remaps(self, monkeypatch):
        cfg = _small("kelvin_helmholtz", scheme="hybrid", T=3, t_end=3.0)
        diag_solves = _counting(monkeypatch, solver, "solve_fields")
        fits = _counting(monkeypatch, field2d, "fit_2d_rfft")
        state = solver.init(cfg)
        solver.diag_row(state)
        assert fits == []  # no diagnostics solve fits a spline, here or below
        per_step, diag_per_step, fits_per_step = [], [], []
        for _ in range(cfg.n_steps()):
            before, diag_before = state.provider.solves, len(diag_solves)
            fits.clear()
            solver.step(state)
            fits_per_step.append(len(fits))
            solver.diag_row(state)
            assert len(fits) == fits_per_step[-1]
            per_step.append(state.provider.solves - before)
            diag_per_step.append(len(diag_solves) - diag_before)
        # after a remap stage 1 reads the node field; mid-cycle steps make
        # all four solves and the diagnostics solve on their own
        assert per_step == [3, 4, 5, 3, 4, 5]
        assert diag_per_step == [1, 1, 0, 1, 1, 0]
        assert fits_per_step == [3, 4, 4, 3, 4, 4]


class TestRowReadsItsOwnF:
    """A guiding-center row's field is the solve of the f it reports:
    the remap's f on remap rows (the provider's node field), the pushed
    set's deposit between hybrid remaps (the row's own solve)."""

    @pytest.mark.parametrize("overrides, compress", [
        ({"scheme": "fsl"}, False), ({"scheme": "hybrid", "T": 3}, False),
        ({"scheme": "bsl"}, False), ({"scheme": "fsl"}, True),
        ({"scheme": "hybrid", "T": 3}, True)],
        ids=["fsl", "hybrid_T3", "bsl", "fsl_compressed", "hybrid_T3_compressed"])
    def test_energy_is_the_solve_of_the_snapshot(self, overrides, compress, monkeypatch):
        if compress:  # every seed skips its |c| <= max |c| / 4 (KH's f changes sign)
            monkeypatch.setattr(deposition, "NEGLIGIBLE", 0.25)
            monkeypatch.setattr(deposition, "BLOCK", 1)
        cfg = _small("kelvin_helmholtz", t_end=3.0, snapshot_every=1, **overrides)
        res = solver.run(cfg)
        assert (res.state.particles.nodes is not None) == compress
        gpair = (res.state.g1, res.state.g2)
        assert len(res.snapshots) == res.times.size == 7
        for (t, f), energy in zip(res.snapshots, res.channel("energy")):
            flds = solve_fields(f, *gpair)
            assert energy == diagnostics.energy_2d(flds.Ex, flds.Ey, gpair), t


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
