import numpy as np
import pytest

from fslvlasov import cases, landau, solver
from fslvlasov.cases import apply_overrides, case_defaults, maxwellian
from fslvlasov.diagnostics import fit_damping


def landau_cfg(**kw):
    return apply_overrides(case_defaults("landau"), kw)


class TestInit:
    def test_landau_node_values_exact(self):
        st = solver.init(case_defaults("landau"))
        x = st.g1.nodes()[:, None]
        v = st.g2.nodes()[None, :]
        expected = maxwellian(v) * (1.0 + 0.001 * np.cos(0.5 * x))
        np.testing.assert_array_equal(st.f_nodes, expected)

    def test_two_stream_node_values(self):
        st = solver.init(case_defaults("two_stream"))
        x = st.g1.nodes()[:, None]
        v = st.g2.nodes()[None, :]
        expected = maxwellian(v) * v**2 * (1.0 - 0.05 * np.cos(0.5 * x))
        np.testing.assert_array_equal(st.f_nodes, expected)

    def test_kh_node_values(self):
        st = solver.init(case_defaults("kelvin_helmholtz"))
        x = st.g1.nodes()[:, None]
        y = st.g2.nodes()[None, :]
        expected = np.sin(y) + 0.015 * np.sin(y / 2.0) * np.cos(2 * np.pi / 7.0 * x)
        np.testing.assert_allclose(st.f_nodes, expected, atol=1e-15)

    def test_particles_seeded_at_centers_with_coeff_weights(self):
        st = solver.init(case_defaults("landau"))
        np.testing.assert_array_equal(
            st.particles.weights, st.f_coeffs.coeffs.ravel()
        )
        assert st.particles.pos1.size == st.f_coeffs.coeffs.size

    def test_unknown_case(self):
        with pytest.raises(cases.ConfigError):
            case_defaults("landau_damping")


class TestFslStep:
    def test_compact_free_streaming_mass_roundoff(self):
        # v-symmetric f supported away from the walls, uniform in x:
        # E vanishes to round-off, nothing reaches the velocity walls
        cfg = landau_cfg(nx=16, nv=128, alpha=1e-12, dt=0.1)
        st = solver.init(cfg)
        v = st.g2.nodes()[None, :]
        bump = np.where(np.abs(v) < 2.0, np.cos(np.pi * v / 4.0) ** 2, 0.0)
        f0 = np.broadcast_to(bump, (st.g1.n_nodes, st.g2.n_nodes)).copy()
        from fslvlasov.splines import fit_2d
        from fslvlasov.deposition import seed_particles

        st.f_coeffs = fit_2d(f0, st.g1, st.g2)
        st.particles = seed_particles(st.f_coeffs)
        st.f_nodes = f0
        m0 = st.cell * f0.sum()
        for _ in range(100):
            solver.fsl_step(st)
        m1 = st.cell * st.f_nodes.sum()
        assert abs(m1 - m0) / m0 < 1e-13
        assert abs(st.mass_lost) / m0 < 1e-13

    def test_small_dt_leaves_f_nearly_unchanged(self):
        cfg = landau_cfg(dt=1e-4)
        st = solver.init(cfg)
        f0 = st.f_nodes.copy()
        solver.fsl_step(st)
        assert np.abs(st.f_nodes - f0).max() < 1e-5

    def test_t_tracks_step_index(self):
        st = solver.init(landau_cfg(dt=0.1))
        for _ in range(7):
            solver.fsl_step(st)
        assert st.t == 7 * 0.1
        assert st.step_index == 7

    def test_fsl_positions_reseeded_at_centers(self):
        st = solver.init(landau_cfg())
        p0 = st.particles.pos1.copy()
        solver.fsl_step(st)
        np.testing.assert_array_equal(st.particles.pos1, p0)


class TestHybrid:
    def test_T1_bitwise_equals_fsl(self):
        cfg_f = landau_cfg(t_end=2.0)
        cfg_h = apply_overrides(cfg_f, {"scheme": "hybrid", "T": 1})
        rf = solver.run(cfg_f)
        rh = solver.run(cfg_h)
        np.testing.assert_array_equal(
            rf.channel("electric_energy"), rh.channel("electric_energy")
        )
        np.testing.assert_array_equal(rf.state.f_nodes, rh.state.f_nodes)

    def test_remap_cadence(self):
        cfg = landau_cfg(scheme="hybrid", T=4)
        st = solver.init(cfg)
        seen = []
        for _ in range(8):
            solver.hybrid_step(st)
            seen.append(st.f_nodes is not None)
        assert seen == [False, False, False, True] * 2

    def test_positions_frozen_weights_between_remaps(self):
        cfg = landau_cfg(scheme="hybrid", T=8)
        st = solver.init(cfg)
        w0 = st.particles.weights.copy()
        solver.hybrid_step(st)
        np.testing.assert_array_equal(st.particles.weights, w0)
        assert st.f_nodes is None

    def test_hybrid_damping_tracks_fsl(self):
        # T=2 keeps the early-time damping slope within 10 percent
        cfg_f = landau_cfg(t_end=25.0)
        cfg_h = apply_overrides(cfg_f, {"scheme": "hybrid", "T": 2})
        rf = solver.run(cfg_f)
        g_f, _ = fit_damping(rf.times, rf.channel("electric_energy"), t_min=2.0, t_max=25.0)
        rh = solver.run(cfg_h)
        g_h, _ = fit_damping(rh.times, rh.channel("electric_energy"),
                             t_min=2.0, t_max=25.0)
        assert abs(g_h - g_f) <= 0.1 * abs(g_f)


class TestFsl:
    def test_landau_damping_rate_fsl(self):
        # the paper's linear Landau check: the kinetic dispersion root at k = 0.5
        res = solver.run(landau_cfg(t_end=40.0))
        g, w = fit_damping(res.times, res.channel("electric_energy"),
                           t_min=2.0, t_max=40.0)
        root = landau.solve_dominant_root(0.5)
        assert g == pytest.approx(root.omega_i, rel=0.05)
        assert w == pytest.approx(root.omega_r, rel=0.02)


class TestBsl:
    def test_zero_field_free_streaming_matches_fsl_one_step(self):
        # with alpha ~ 0 the field vanishes and both schemes are exact shifts
        cfg_f = landau_cfg(alpha=1e-14, dt=0.1, nx=32, nv=32)
        cfg_b = apply_overrides(cfg_f, {"scheme": "bsl"})
        sf = solver.init(cfg_f)
        sb = solver.init(cfg_b)
        solver.fsl_step(sf)
        solver.bsl_step(sb)
        assert np.abs(sf.f_nodes - sb.f_nodes).max() < 1e-6

    def test_landau_damping_rate_bsl(self):
        cfg = landau_cfg(scheme="bsl", t_end=40.0)
        res = solver.run(cfg)
        g, w = fit_damping(res.times, res.channel("electric_energy"),
                           t_min=2.0, t_max=40.0)
        assert g == pytest.approx(-0.1533, rel=0.05)
        assert w == pytest.approx(1.4156, rel=0.02)

    def test_bsl_gc_preserves_equilibrium(self):
        cfg = apply_overrides(
            case_defaults("kelvin_helmholtz"),
            {"scheme": "bsl", "eps": 1e-30, "t_end": 5.0, "nx": 32, "nv": 32},
        )
        res = solver.run(cfg)
        e = res.channel("energy")
        assert np.abs(e - e[0]).max() / e[0] < 1e-4

    def test_bsl_rejected_for_hill(self):
        with pytest.raises(cases.ConfigError):
            apply_overrides(case_defaults("hill"), {"scheme": "bsl"})


class TestLargeTimeStep:
    """The paper's central claim: on Kelvin-Helmholtz, at a time step where
    the backward comparator goes unstable, the forward scheme stays stable.
    KH defaults at 64x64, t_end 40, dt 4 (10 steps; demos/kh_large_dt.py
    prints the whole dt table)."""

    @staticmethod
    def drift_and_growth(scheme):
        cfg = apply_overrides(case_defaults("kelvin_helmholtz"), {
            "nx": 64, "nv": 64, "t_end": 40.0, "dt": 4.0, "scheme": scheme})
        res = solver.run(cfg)
        energy, pert1 = res.channel("energy"), res.channel("pert1")
        return abs(energy[-1] - energy[0]) / energy[0], pert1.max() / pert1[0]

    def test_fsl_stable_where_bsl_is_not(self):
        fsl_drift, fsl_growth = self.drift_and_growth("fsl")
        bsl_drift, bsl_growth = self.drift_and_growth("bsl")
        # the gate, on the forward scheme (measured: 4.8e-4 and 1.0016)
        assert fsl_drift <= 1e-3
        assert fsl_growth <= 1.01
        # the witness that dt = 4 is large: the backward comparator drifts
        # and its spurious mode-1 growth sets in (measured: 7.5e-2 and 63)
        assert bsl_drift > 10.0 * fsl_drift
        assert bsl_growth > 10.0


class TestRun:
    def test_reproducible_bitwise(self):
        cfg = landau_cfg(t_end=1.0)
        r1 = solver.run(cfg)
        r2 = solver.run(cfg)
        for name in r1.channels:
            np.testing.assert_array_equal(r1.channel(name), r2.channel(name))

    def test_snapshot_cadence_and_times(self):
        cfg = landau_cfg(t_end=2.0, snapshot_every=10)
        res = solver.run(cfg)
        assert [t for t, _ in res.snapshots] == [0.0, 1.0, 2.0]

    def test_abort_flushes_partial_outputs(self, tmp_path, monkeypatch):
        cfg = landau_cfg(t_end=1.0)
        real_init = solver.init

        def poisoned(config):
            st = real_init(config)
            st.particles.weights[:] *= 1e120  # energy blows past the bound
            return st

        monkeypatch.setattr(solver, "init", poisoned)
        out = tmp_path / "run"
        with pytest.raises(solver.NumericsAbort) as err:
            solver.run(cfg, outdir=str(out))
        assert isinstance(err.value.partial, solver.RunResult)
        assert (out / "config.echo").exists()
        assert (out / "series.csv").read_text().startswith("t,")

    def test_non_finite_push_aborts_with_partial_rows(self, tmp_path, nan_field):
        # verlet asks for two fields a step: call 7 is the first of step 4
        nan_field(7)
        out = tmp_path / "run"
        with pytest.raises(solver.NumericsAbort, match="step 4") as err:
            solver.run(landau_cfg(t_end=1.0), outdir=str(out))
        assert isinstance(err.value.__cause__, FloatingPointError)
        partial = err.value.partial
        np.testing.assert_allclose(partial.times, [0.0, 0.1, 0.2, 0.3])
        assert np.all(np.isfinite(partial.channel("mass")))
        assert len((out / "series.csv").read_text().splitlines()) == 5

    def test_non_finite_deposit_aborts_with_partial_rows(self, nan_field):
        # one NaN field moves every particle to NaN; the next deposit rejects it
        nan_field(5, once=True)
        with pytest.raises(solver.NumericsAbort, match="step 3") as err:
            solver.run(landau_cfg(t_end=1.0))
        assert isinstance(err.value.__cause__, ValueError)
        assert "non-finite particle data" in str(err.value)
        assert err.value.partial.times.size == 3

    def test_forward_energy_channels_always_present_in_hybrid(self):
        cfg = landau_cfg(scheme="hybrid", T=4, t_end=1.0)
        res = solver.run(cfg)
        assert np.all(np.isfinite(res.channel("electric_energy")))
        assert np.all(np.isfinite(res.channel("mass")))
        # f-grid channels are only defined on remap steps
        l2 = res.channel("l2")
        assert np.isnan(l2[1]) and np.isfinite(l2[4])
