import csv
import dataclasses

import numpy as np
import pytest

from fslvlasov import bsl, cases, deposition, landau, pushers, solver
from fslvlasov.cases import apply_overrides, case_defaults, maxwellian
from fslvlasov.deposition import deposit_phase_space
from fslvlasov.diagnostics import fit_damping
from fslvlasov.splines import stencil
from spline_oracles import plain_eval_2d


def landau_cfg(**kw):
    return apply_overrides(case_defaults("landau"), kw)


def read_series(out):
    """series.csv under ``out`` as one column per header name, in order."""
    with open(out / "series.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    return {name: np.array([float(r[k]) for r in rows]) for k, name in enumerate(header)}


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
            solver.step(st)
        m1 = st.cell * st.f_nodes.sum()
        assert abs(m1 - m0) / m0 < 1e-13
        assert abs(st.mass_lost) / m0 < 1e-13

    def test_small_dt_leaves_f_nearly_unchanged(self):
        cfg = landau_cfg(dt=1e-4)
        st = solver.init(cfg)
        f0 = st.f_nodes.copy()
        solver.step(st)
        assert np.abs(st.f_nodes - f0).max() < 1e-5

    def test_t_tracks_step_index(self):
        st = solver.init(landau_cfg(dt=0.1))
        for _ in range(7):
            solver.step(st)
        assert st.t == 7 * 0.1
        assert st.step_index == 7

    def test_fsl_positions_reseeded_at_centers(self):
        st = solver.init(landau_cfg())
        p0 = st.particles.pos1.copy()
        solver.step(st)
        np.testing.assert_array_equal(st.particles.pos1, p0)


class TestRemapDepositReach:
    """The seed skips the coefficients of negligible weight
    (``deposition.NEGLIGIBLE``) once that drops a ``splines.BLOCK`` or more.
    Hill's matched beam fills a small part of its box, so the default-grid
    hill seed holds under 45% of the 259 x 259 lattice (measured 39%), and
    one step pushes and scatters only that set; a refactor that loses the
    skip fails here, not only as a slower benchmark.  Landau has no
    negligible weight: it seeds, pushes and scatters the whole lattice."""

    @staticmethod
    def reach(case, monkeypatch):
        """The seed's size, the positions of each stage handed to the
        provider's rhs, and the particles of the step's 2D deposits."""
        state = solver.init(case_defaults(case))
        pushed, scattered, rhs = [], [], state.provider.rhs

        def counting(grid, x, *args):
            if grid is state.g2:  # the 2D deposit's second axis; deposit_charge has none
                scattered.append(np.size(x))
            return stencil(grid, x, *args)

        def counting_rhs(p, t):
            pushed.append(p.pos1.size)
            return rhs(p, t)

        monkeypatch.setattr(deposition, "stencil", counting)
        monkeypatch.setattr(state.provider, "rhs", counting_rhs)
        size = state.particles.pos1.size
        solver.step(state)
        return size, pushed, sum(scattered)

    def test_hill_scatters_only_what_carries_mass(self, monkeypatch):
        size, pushed, scattered = self.reach("hill", monkeypatch)
        assert 0 < size < 0.45 * 259 ** 2
        assert pushed == [size, size] and scattered == size  # rk2: two stages

    def test_landau_scatters_every_particle(self, monkeypatch):
        size = 64 * 67  # 64 periodic x nodes, 65 v nodes + 2 ghosts
        assert self.reach("landau", monkeypatch) == (size, [size, size], size)  # verlet


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
            solver.step(st)
            seen.append(st.f_nodes is not None)
        assert seen == [False, False, False, True] * 2

    def test_positions_frozen_weights_between_remaps(self):
        cfg = landau_cfg(scheme="hybrid", T=8)
        st = solver.init(cfg)
        w0 = st.particles.weights.copy()
        solver.step(st)
        np.testing.assert_array_equal(st.particles.weights, w0)
        assert st.f_nodes is None

    def test_mass_reads_node_values_between_remaps(self):
        # mid-cycle rows once booked the particle weight sum (ghost
        # coefficients included): a 10% sawtooth, 9.1047 -> 10.0713 -> 9.1046
        cfg = apply_overrides(case_defaults("two_stream"), {
            "nx": 8, "nv": 8, "t_end": 4.0, "scheme": "hybrid", "T": 4})
        mass = solver.run(cfg).channel("mass")
        assert np.ptp(mass) <= 1e-3 * mass[0]  # measured 4.7e-5

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


class TestHybridPeriod:
    """The remap trade-off (Denavit, JCP 9 (1972); Wang, Miller and
    Colella, SISC 33 (2011)): fewer remaps diffuse less, until the frozen
    weights of a too long cycle break down.  Nonlinear two-stream 64x64,
    dt 0.5, t_end 48, against forward runs at dt 0.125; demos/hybrid_period.py
    prints the whole sweep."""

    @staticmethod
    def errors(runs, T):
        ref = runs["ref"].channel("electric_energy")[::4]  # the dt 0.5 instants
        res = runs[T]
        l2, ee = res.channel("l2"), res.channel("electric_energy")
        return (np.abs(l2 - l2[0]).max() / l2[0],
                np.abs(ee - ref).max() / ref.max())

    def test_remap_every_fourth_step_beats_every_step(self):
        base = apply_overrides(case_defaults("two_stream"), {"nx": 64, "nv": 64, "t_end": 48.0})
        runs = {"ref": solver.run(apply_overrides(base, {"dt": 0.125}))}
        for T in (1, 4, 8):
            scheme = "fsl" if T == 1 else "hybrid"
            runs[T] = solver.run(apply_overrides(base, {"dt": 0.5, "scheme": scheme, "T": T}))
        drift1, err1 = self.errors(runs, 1)   # measured 0.0272, 0.147
        drift4, err4 = self.errors(runs, 4)   # measured 0.0190, 0.130
        assert drift4 <= drift1
        assert err4 <= 1.2 * err1
        # the witness that the gate discriminates: T = 8 fails both
        # (measured 0.238, 0.542)
        drift8, err8 = self.errors(runs, 8)
        assert drift8 > drift1
        assert err8 > 1.2 * err1


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
        solver.step(sf)
        solver.step(sb)
        assert np.abs(sf.f_nodes - sb.f_nodes).max() < 1e-6

    def test_bsl_step_returns_f_and_loss_and_the_solver_remaps(self):
        cfg = apply_overrides(case_defaults("two_stream"), {
            "nx": 8, "nv": 8, "scheme": "bsl"})
        st = solver.init(cfg)
        f0, p0 = st.f_nodes, st.particles
        f, lost = solver.bsl_step(st)
        assert f.shape == f0.shape and lost != 0.0
        assert st.f_nodes is f0 and st.particles is p0
        assert (st.step_index, st.t, st.mass_lost) == (0, 0.0, 0.0)
        solver.step(st)  # the same backward step, remapped
        np.testing.assert_array_equal(st.f_nodes, f)
        assert st.particles is not p0
        assert (st.step_index, st.t, st.mass_lost) == (1, cfg.dt, st.cell * lost)

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

    def test_bsl_provider_keeps_the_field_history(self, monkeypatch):
        # the forward provider solves each remap's field once, t = 0 included,
        # as fsl's 4n + 1 counts it; the rows read it, the state keeps E^{n-1}
        n = 6
        calls = []
        real = solver.solve_fields
        monkeypatch.setattr(solver, "solve_fields",
                            lambda *a: calls.append(1) or real(*a))
        cfg = apply_overrides(case_defaults("kelvin_helmholtz"), {
            "nx": 16, "nv": 16, "t_end": n * 0.5, "scheme": "bsl"})
        res = solver.run(cfg)
        st = res.state
        assert st.provider.solves == n + 1
        assert calls == []
        assert st.e_prev is not None
        assert st.e_prev is not st.provider.node_field(st.particles)
        assert res.times.size == n + 1

    @staticmethod
    def _kh_bsl(diag_every):
        cfg = apply_overrides(case_defaults("kelvin_helmholtz"), {
            "nx": 16, "nv": 16, "t_end": 3.0, "scheme": "bsl", "diag_every": diag_every})
        return solver.run(cfg)

    def test_bsl_rows_do_not_depend_on_diag_every(self):
        # a step with no row before it solves the node field itself
        every, sparse = self._kh_bsl(1), self._kh_bsl(3)
        np.testing.assert_array_equal(sparse.times, every.times[::3])
        for name, series in sparse.channels.items():
            np.testing.assert_array_equal(series, every.channel(name)[::3], err_msg=name)
        assert every.state.provider.solves == sparse.state.provider.solves == 7

    def test_gc_step_reads_equal_the_plain_read_at_the_feet(self, monkeypatch):
        # every midpoint and foot read, bit for bit, through the provider's
        # one operator; feet past the y walls and across the x seam included
        cfg = apply_overrides(case_defaults("kelvin_helmholtz"), {
            "nx": 16, "nv": 16, "dt": 2.0, "t_end": 4.0, "scheme": "bsl", "eps": 3.0})
        reads, real = [], bsl.eval_2d

        def recorded(c, x, y, stage):
            reads.append((c, x, y, stage, real(c, x, y, stage)))
            return reads[-1][-1]

        monkeypatch.setattr(bsl, "eval_2d", recorded)
        st, names = solver.init(cfg), ("index", "data", "matrix", "matrix_t")
        for step in range(2):
            solver.step(st)
            assert len(reads) == 5 * (step + 1)  # four midpoint reads, then the foot's
            op = st.provider.stage
            if step == 0:
                kept = [getattr(op, k) for k in names]
        assert all(getattr(op, k) is a for k, a in zip(names, kept))
        for c, x, y, stage, got in reads:
            assert stage is op
            np.testing.assert_array_equal(got, plain_eval_2d(c, x, y))
        (_, foot_x, foot_y, *_), g = reads[-1], st.g2
        assert (foot_y < g.xmin).any() and (foot_y > g.xmax).any()
        assert (foot_x < st.g1.xmin).any() and (foot_x > st.g1.xmax).any()

    def test_landau_bsl_deposits_no_particles(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("deposit_charge called")

        monkeypatch.setattr(solver, "deposit_charge", refuse)
        res = solver.run(landau_cfg(scheme="bsl", nx=16, nv=16, t_end=0.5))
        assert res.times.size == 6

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


def rayleigh_rate(kx, n=300):
    """Largest growth rate of the guiding-center model linearised about
    rho0 = sin y (base flow u = -cos y, walls at y = 0 and 2 pi): the
    Rayleigh problem s rho = -i kx (u rho + cos y phi), (-d_yy + kx^2) phi
    = rho, phi = 0 at the walls, in second-order differences on n points."""
    y = np.linspace(0.0, 2.0 * np.pi, n + 2)[1:-1]
    h = y[1] - y[0]
    off = np.ones(n - 1)
    lap = (2.0 * np.eye(n) - np.diag(off, 1) - np.diag(off, -1)) / h**2
    green = np.linalg.inv(lap + kx**2 * np.eye(n))
    mat = -1j * kx * (np.diag(-np.cos(y)) + np.cos(y)[:, None] * green)
    return float(np.linalg.eigvals(mat).real.max())


class TestKelvinHelmholtzGrowth:
    """On a box of length 4 pi (kx = 0.5) the KH perturbation grows at the
    linear-theory rate; the default box (kx = 2 pi / 7) is past the cutoff.
    32x32, t_end 18, log pert1 fitted over t in [8, 18]."""

    RATE = rayleigh_rate(0.5)

    @staticmethod
    def rate(scheme, dt):
        cfg = apply_overrides(case_defaults("kelvin_helmholtz"), {
            "nx": 32, "nv": 32, "Lx": 4.0 * np.pi, "t_end": 18.0, "dt": dt, "scheme": scheme})
        res = solver.run(cfg)
        late = res.times >= 8.0 - 1e-9
        return np.polyfit(res.times[late], np.log(res.channel("pert1")[late]), 1)[0]

    def test_eigenvalue(self):
        # 0.1241; the same to 5e-6 on 200 and on 400 points
        assert self.RATE == pytest.approx(0.1241, abs=1e-4)
        assert rayleigh_rate(0.5, 200) == pytest.approx(self.RATE, abs=1e-5)

    def test_fsl_growth_rate(self):
        # measured +0.95% at the default dt 0.5
        assert self.rate("fsl", 0.5) == pytest.approx(self.RATE, rel=0.03)

    def test_fsl_keeps_the_rate_at_a_large_step(self):
        # measured: FSL +0.3% at dt 2; the witness that dt 2 is large is
        # the backward comparator, +27.6%
        assert self.rate("fsl", 2.0) == pytest.approx(self.RATE, rel=0.03)
        assert abs(self.rate("bsl", 2.0) / self.RATE - 1.0) > 0.15


def kinetic_root(df0, k, guess):
    """Root near ``guess`` of the kinetic dispersion relation eps(k, omega)
    = 1 - k^-2 int f0'(v) / (v - omega / k) dv, by secant steps.  For a
    growing root (Im omega > 0) the real-line integral needs no analytic
    continuation; trapezoid rule on [-12, 12], 4801 points."""
    v = np.linspace(-12.0, 12.0, 4801)

    def eps(omega):
        return 1.0 - np.trapezoid(df0(v) / (v - omega / k), v) / k**2

    w0, w1 = guess, guess * (1.0 + 1e-3)
    for _ in range(50):
        e0, e1 = eps(w0), eps(w1)
        w0, w1 = w1, w1 - e1 * (w1 - w0) / (e1 - e0)
        if abs(w1 - w0) < 1e-12:
            break
    return w1


def _maxwellian_sum_slope(v, parts):
    """f0'(v) of a sum of Maxwellians given as (density, drift, v_t)."""
    return sum(-n * (v - u) / vt**2 * maxwellian((v - u) / vt) / vt for n, u, vt in parts)


#: bump_on_tail's f0: bulk density 0.9 at rest, beam 0.1 at 4.5 with v_t 0.5
BUMP_F0 = ((0.9, 0.0, 1.0), (0.1, 4.5, 0.5))


class TestVlasovPoissonGrowth:
    """two_stream (f0 = v^2 M(v), k = 0.5) and bump_on_tail (mode 3 of
    Lx = 20 pi, k = 0.3) grow at Im omega of the kinetic root.  The slope of
    log E1 (two_stream, 32x128, alpha 1e-6, over t in [14, 24]) and of log
    E3 (bump_on_tail, 64x128, alpha 1e-4, over [15, 35]); an earlier window
    reads the start-up transient.  Measured (rate / Im omega - 1):
    two_stream rk4 +0.8% at dt 0.5 and -0.3% at dt 2, verlet +2.2% and
    +39.0%; bump_on_tail rk4 -1.0% at dt 0.5 and -2.1% at dt 1.  At a large
    dt the accuracy comes from the pusher's order, so the gate does not
    compare FSL with the backward comparator."""

    TWO_STREAM = kinetic_root(lambda v: (2.0 * v - v**3) * maxwellian(v), 0.5, 0.3j)
    BUMP_ON_TAIL = kinetic_root(lambda v: _maxwellian_sum_slope(v, BUMP_F0), 0.3, 1.0 + 0.2j)

    @staticmethod
    def rate(case, nx, alpha, window, channel, pusher, dt):
        cfg = apply_overrides(case_defaults(case), {
            "nx": nx, "nv": 128, "alpha": alpha, "t_end": window[1], "dt": dt,
            "pusher": pusher})
        res = solver.run(cfg)
        fit = res.times >= window[0] - 1e-9
        return np.polyfit(res.times[fit], np.log(res.channel(channel)[fit]), 1)[0]

    def test_roots(self):
        assert self.TWO_STREAM == pytest.approx(0.25925j, abs=1e-5)
        assert self.BUMP_ON_TAIL == pytest.approx(1.00122 + 0.19810j, abs=1e-5)
        # the closed form: each Maxwellian adds -n Z'(zeta) / (2 k^2 v_t^2)
        k, w = 0.3, self.BUMP_ON_TAIL
        eps = 1.0 - sum(n * landau.plasma_Z_prime((w / k - u) / (np.sqrt(2.0) * vt))
                        / (2.0 * k**2 * vt**2) for n, u, vt in BUMP_F0)
        assert abs(eps) < 1e-9

    @pytest.mark.parametrize("pusher, dt, rel", [
        ("rk4", 0.5, 0.02), ("rk4", 2.0, 0.02), ("verlet", 0.5, 0.04)])
    def test_two_stream_rate(self, pusher, dt, rel):
        rate = self.rate("two_stream", 32, 1e-6, (14.0, 24.0), "E1", pusher, dt)
        assert rate == pytest.approx(self.TWO_STREAM.imag, rel=rel)

    def test_two_stream_step_two_is_large(self):
        # the witness that dt 2 is large: a second-order pusher misses
        rate = self.rate("two_stream", 32, 1e-6, (14.0, 24.0), "E1", "verlet", 2.0)
        assert abs(rate / self.TWO_STREAM.imag - 1.0) > 0.2

    @pytest.mark.parametrize("dt", [0.5, 1.0])
    def test_bump_on_tail_rate(self, dt):
        rate = self.rate("bump_on_tail", 64, 1e-4, (15.0, 35.0), "E3", "rk4", dt)
        assert rate == pytest.approx(self.BUMP_ON_TAIL.imag, rel=0.03)


class TestSelfConsistentTimeOrder:
    """End-to-end time order of every self-consistent pusher.  Under plain
    FSL each remap adds an interpolation error, so the error goes like
    C1 dt^p + C2 h^4 / dt and self-convergence at a fixed grid hides p.  The
    hybrid scheme with T dt = 1 keeps the remaps fixed in physical time and
    leaves the integrator's error, stages' deposits, solves and gathers
    included.  32^2, t_end 8; the error is max |f - f(dt = 1/16)| at the
    nodes.  Measured orders over the 1 -> 1/2, 1/2 -> 1/4, 1/4 -> 1/8
    halvings: KH (Lx = 4 pi) rk4 3.94, 3.99, 4.02; rk3 2.97, 3.00, 3.16;
    rk2 1.95, 2.05, 2.31; landau rk4 3.97, 4.09, 4.15; verlet 2.22, 2.12,
    2.33; rk2 2.50, 2.15, 2.35.  The gate reads the last two."""

    @pytest.mark.parametrize("case, pusher, order", [
        ("kelvin_helmholtz", "rk4", 4), ("kelvin_helmholtz", "rk3", 3),
        ("kelvin_helmholtz", "rk2", 2), ("landau", "rk4", 4),
        ("landau", "verlet", 2), ("landau", "rk2", 2),
    ])
    def test_hybrid_order_is_nominal(self, case, pusher, order):
        box = {"Lx": 4.0 * np.pi} if case == "kelvin_helmholtz" else {}
        f = {}
        for T in (2, 4, 8, 16):
            cfg = apply_overrides(case_defaults(case), {
                "nx": 32, "nv": 32, "t_end": 8.0, "scheme": "hybrid", "T": T,
                "dt": 1.0 / T, "pusher": pusher, "diag_every": 1000,
                "snapshot_every": 1000, **box})
            f[T] = solver.run(cfg).state.f_nodes
        err = [np.abs(f[T] - f[16]).max() for T in (2, 4, 8)]
        orders = np.log2(np.divide(err[:-1], err[1:]))
        assert np.all(np.abs(orders - order) <= 0.4), orders


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

    def test_hybrid_snapshots_between_remaps(self, tmp_path):
        # steps 10 and 30 fall between remaps; their snapshots were skipped
        cfg = landau_cfg(scheme="hybrid", T=4, t_end=3.0, snapshot_every=10)
        out = tmp_path / "run"
        res = solver.run(cfg, outdir=str(out))
        assert [t for t, _ in res.snapshots] == pytest.approx([0.0, 1.0, 2.0, 3.0])
        st = res.state
        assert st.step_index % 4 != 0  # the run ends mid-cycle
        f_end = deposit_phase_space(st.particles, st.g1, st.g2)
        np.testing.assert_array_equal(res.snapshots[-1][1], f_end)
        files = sorted(p.name for p in (out / "snapshots").glob("*.bin"))
        assert files == [f"snap_{n:06d}.bin" for n in (0, 10, 20, 30)]
        np.testing.assert_array_equal(
            solver.read_snapshot(str(out / "snapshots" / "snap_000030.bin")), f_end)

    def test_mid_cycle_snapshot_shares_the_row_deposit(self, monkeypatch):
        # 7 remaps and 23 mid-cycle steps, each deposited once; the
        # snapshots at steps 10 and 30 once deposited a second time
        calls = []
        real = solver.deposit_phase_space
        monkeypatch.setattr(solver, "deposit_phase_space",
                            lambda *a: calls.append(1) or real(*a))
        solver.run(landau_cfg(scheme="hybrid", T=4, t_end=3.0, snapshot_every=10))
        assert len(calls) == 30

    @pytest.mark.parametrize("case, kw", [
        ("landau", {"t_end": 1.0, "nx": 16, "nv": 16, "snapshot_every": 5}),
        ("kelvin_helmholtz", {"t_end": 2.0, "nx": 8, "nv": 8, "snapshot_every": 2,
                              "snapshot_format": "csv"}),
        # snapshots between remaps read the pushed set's deposit
        ("hill", {"scheme": "hybrid", "T": 2, "t_end": 5 * 2.0 * np.pi / 25.0,
                  "nx": 16, "nv": 16, "snapshot_every": 1}),
        ("two_stream", {"t_end": 1.0, "nx": 5, "nv": 5}),  # E3 reads NaN
    ], ids=["landau", "kh-csv", "hill-hybrid", "two-stream-nan"])
    def test_files_hold_the_returned_record(self, tmp_path, case, kw):
        cfg = apply_overrides(case_defaults(case), kw)
        res = solver.run(cfg, outdir=str(tmp_path))
        series = read_series(tmp_path)
        assert list(series) == ["t"] + solver.CHANNELS[cfg.model]
        np.testing.assert_array_equal(series.pop("t"), res.times, strict=True)
        for name, column in series.items():
            np.testing.assert_array_equal(column, res.channel(name), strict=True)
        assert (tmp_path / "config.echo").read_text() == cases.format_config(cfg)
        ext = cfg.snapshot_format
        files = sorted((tmp_path / "snapshots").glob(f"snap_*.{ext}"))
        assert len(files) == len(res.snapshots)
        for path, (_, f) in zip(files, res.snapshots):
            on_disk = (solver.read_snapshot(str(path)) if ext == "bin"
                       else np.loadtxt(path, delimiter=",", ndmin=2))
            np.testing.assert_array_equal(on_disk, f, strict=True)
        if case == "two_stream":
            assert np.isnan(series["E3"]).any()

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
        assert (out / "config.echo").exists()
        assert (out / "series.csv").read_text().startswith("t,")

    def test_write_failure_mid_run_is_an_output_error(self, tmp_path, monkeypatch):
        def full_disk(*args):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(solver, "write_snapshot", full_disk)
        out = tmp_path / "run"
        with pytest.raises(solver.OutputError, match="No space left"):
            solver.run(landau_cfg(t_end=1.0, nx=8, nv=8), outdir=str(out))
        assert (out / "series.csv").read_text().count("\n") == 2  # header and t = 0, flushed

    def test_close_failure_is_an_output_error(self, tmp_path, monkeypatch):
        # closing flushes the rows still buffered, so a full disk can fail there
        class FailingClose:
            def __init__(self, fh):
                self.fh = fh

            def __getattr__(self, name):
                return getattr(self.fh, name)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.close()

            def close(self):
                self.fh.close()
                raise OSError(28, "No space left on device")

        def fake(path, *args, **kw):
            fh = open(path, *args, **kw)
            return FailingClose(fh) if str(path).endswith("series.csv") else fh

        monkeypatch.setattr(solver, "open", fake, raising=False)
        out = tmp_path / "run"
        with pytest.raises(solver.OutputError, match="No space left"):
            solver.run(landau_cfg(t_end=1.0, nx=8, nv=8), outdir=str(out))
        assert len((out / "series.csv").read_text().splitlines()) == 12  # header, 11 rows

    def test_non_finite_push_aborts_with_partial_rows(self, tmp_path, nan_field):
        # verlet asks for two fields a step: call 7 is the first of step 4
        nan_field(7)
        out = tmp_path / "run"
        with pytest.raises(solver.NumericsAbort, match="step 4") as err:
            solver.run(landau_cfg(t_end=1.0), outdir=str(out))
        assert isinstance(err.value.__cause__, FloatingPointError)
        series = read_series(out)
        np.testing.assert_allclose(series["t"], [0.0, 0.1, 0.2, 0.3])
        assert np.all(np.isfinite(series["mass"]))
        assert len((out / "series.csv").read_text().splitlines()) == 5

    def test_non_finite_deposit_aborts_with_partial_rows(self, tmp_path, nan_field):
        # one NaN field moves every particle to NaN; the next deposit locates it
        nan_field(5, once=True)
        with pytest.raises(solver.NumericsAbort, match="step 3") as err:
            solver.run(landau_cfg(t_end=1.0), outdir=str(tmp_path))
        assert isinstance(err.value.__cause__, FloatingPointError)
        assert "non-finite positions" in str(err.value)
        assert read_series(tmp_path)["t"].size == 3

    def test_row_failure_is_labelled_with_its_step(self, tmp_path, monkeypatch):
        # rk4 on KH solves for the t = 0 row (call 1), for stages 2-4 of
        # step 1 (calls 2-4), then for the row after step 1 (call 5)
        real, calls = pushers.solve_fields, []

        def fifth_fails(rho, gx, gy):
            calls.append(rho)
            if len(calls) == 5:
                raise FloatingPointError("non-finite rho")
            return real(rho, gx, gy)

        monkeypatch.setattr(pushers, "solve_fields", fifth_fails)
        cfg = apply_overrides(case_defaults("kelvin_helmholtz"), {"nx": 8, "nv": 8, "t_end": 2.0})
        with pytest.raises(solver.NumericsAbort, match="^non-finite rho at step 1$"):
            solver.run(cfg, outdir=str(tmp_path))
        assert read_series(tmp_path)["t"].tolist() == [0.0]

    def test_a_value_error_is_not_a_numeric_abort(self, tmp_path, monkeypatch):
        # a caller's mistake (shape, grid kind, gather points) propagates as itself
        def wrong_shape(rho, gx, gy):
            raise ValueError("rho: expected shape (9, 9), got (9, 8)")

        monkeypatch.setattr(pushers, "solve_fields", wrong_shape)
        cfg = apply_overrides(case_defaults("kelvin_helmholtz"), {"nx": 8, "nv": 8, "t_end": 2.0})
        with pytest.raises(ValueError, match="^rho: expected shape"):  # not a NumericsAbort
            solver.run(cfg, outdir=str(tmp_path))
        assert (tmp_path / "series.csv").read_text().startswith("t,")  # closed all the same

    def test_non_finite_backward_step_aborts_at_its_step(self, tmp_path, monkeypatch):
        real_init = solver.init

        def poisoned(config):
            st = real_init(config)
            st.f_nodes = st.f_nodes.copy()
            st.f_nodes[0, 0] = np.nan  # the backward step interpolates these
            return st

        # the NaN reaches the charge, so E, so the feet of the v kick
        monkeypatch.setattr(solver, "init", poisoned)
        with pytest.raises(solver.NumericsAbort, match="^non-finite positions at step 1$"):
            solver.run(landau_cfg(scheme="bsl", t_end=1.0, nx=8, nv=8), outdir=str(tmp_path))
        assert read_series(tmp_path)["t"].tolist() == [0.0]

    def test_non_finite_backward_field_aborts_at_its_step(self, tmp_path, monkeypatch):
        # a NaN E moves the feet of the v kick to NaN: they are located, not
        # cast to an index
        real = bsl.solve_poisson_1d

        def nan_e(rho, gx):
            fs = real(rho, gx)
            return dataclasses.replace(fs, E=np.full_like(fs.E, np.nan))

        monkeypatch.setattr(bsl, "solve_poisson_1d", nan_e)
        with pytest.raises(solver.NumericsAbort, match="^non-finite positions at step 1$"):
            solver.run(landau_cfg(scheme="bsl", t_end=1.0, nx=8, nv=8), outdir=str(tmp_path))
        assert read_series(tmp_path)["t"].tolist() == [0.0]

    def test_forward_energy_channels_always_present_in_hybrid(self):
        cfg = landau_cfg(scheme="hybrid", T=4, t_end=1.0)
        res = solver.run(cfg)
        assert np.all(np.isfinite(res.channel("electric_energy")))
        assert np.all(np.isfinite(res.channel("mass")))
        # between remaps the f-grid channels read the deposit of the pushed set
        for name, series in res.channels.items():
            assert np.all(np.isfinite(series)), name
