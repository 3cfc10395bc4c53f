import numpy as np
import pytest

from fslvlasov import cases, solver
from fslvlasov.diagnostics import (
    electric_energy_1d,
    enstrophy,
    fit_damping,
    fourier_mode_amps,
    integrated_fv,
    kinetic_energy_vp,
    lp_norm,
    mass,
    momentum,
    series_peaks,
    xrms,
)
from fslvlasov.grids import NATURAL, UniformGrid1D


@pytest.fixture
def vp_grids():
    gx = UniformGrid1D(0.0, 4.0 * np.pi, 64)
    gv = UniformGrid1D(-6.0, 6.0, 64, bc=NATURAL)
    return gx, gv


class TestQuadratures:
    def test_zero_f(self, vp_grids):
        f = np.zeros((64, 65))
        assert mass(f, vp_grids) == 0.0
        assert lp_norm(f, vp_grids, 2) == 0.0
        assert momentum(f, vp_grids) == 0.0
        assert xrms(f, vp_grids) == 0.0

    def test_landau_mass_is_domain_length(self, vp_grids):
        gx, gv = vp_grids
        f = cases.maxwellian(gv.nodes()[None, :]) * (
            1.0 + 0.001 * np.cos(0.5 * gx.nodes()[:, None])
        )
        assert mass(f, vp_grids) == pytest.approx(4.0 * np.pi, rel=1e-6)

    def test_momentum_of_even_f_vanishes(self, vp_grids):
        gx, gv = vp_grids
        f = cases.maxwellian(gv.nodes()[None, :]) * np.ones((64, 1))
        assert abs(momentum(f, vp_grids)) < 1e-14

    def test_p_below_one_rejected(self, vp_grids):
        with pytest.raises(ValueError):
            lp_norm(np.zeros((64, 65)), vp_grids, 0.5)

    def test_linearity_and_positivity(self, vp_grids):
        rng = np.random.default_rng(0)
        f = rng.normal(size=(64, 65))
        assert mass(2.0 * f, vp_grids) == pytest.approx(2.0 * mass(f, vp_grids))
        assert lp_norm(f, vp_grids, 2) > 0


class TestEnergies:
    def test_electric_energy_single_mode(self):
        # 1/2 int E^2 over two periods of sin(0.5 x): 1/2 A^2 L/2
        gx = UniformGrid1D(0.0, 4.0 * np.pi, 64)
        e = 0.002 * np.sin(0.5 * gx.nodes())
        expected = 0.5 * 0.002**2 * 2.0 * np.pi
        assert electric_energy_1d(e, gx) == pytest.approx(expected, rel=1e-12)

    def test_vp_row_total_energy_is_kinetic_plus_twice_electric(self):
        # the row sums its own channels, int v^2 f + int E^2, on node-field
        # rows and on the hybrid rows between remaps alike
        cfg = cases.apply_overrides(cases.case_defaults("landau"), {
            "nx": 16, "nv": 16, "t_end": 1.0, "scheme": "hybrid", "T": 3})
        res = solver.run(cfg)
        ke, ee = res.channel("kinetic_energy"), res.channel("electric_energy")
        assert ke.size == 11 and (ee > 0).all()
        np.testing.assert_array_equal(res.channel("total_energy"), ke + 2.0 * ee)
        state = solver.init(cfg)  # and bit for bit the integrals themselves
        gx, e = state.g1, state.provider.node_field(state.particles).E
        assert solver.diag_row(state)["total_energy"] == (
            kinetic_energy_vp(state.f_nodes, (gx, state.g2)) + gx.delta * float(np.sum(e**2)))

    def test_enstrophy_quadrature(self):
        gx = UniformGrid1D(0.0, 7.0, 32)
        gy = UniformGrid1D(0.0, 2.0 * np.pi, 32, bc=NATURAL)
        rho = np.broadcast_to(np.sin(gy.nodes())[None, :], (32, 33))
        # int sin^2(y) dy over [0, 2pi] = pi (rectangle rule; wall nodes
        # duplicate y=0 and y=2pi where sin vanishes)
        assert enstrophy(rho, (gx, gy)) == pytest.approx(7.0 * np.pi, rel=1e-6)


class TestModeAmps:
    def test_single_sine_mode(self):
        gx = UniformGrid1D(0.0, 4.0 * np.pi, 64)
        e = 0.4 * np.sin(0.5 * gx.nodes())
        a1, a2, a3 = fourier_mode_amps(e, gx)
        assert a1 == pytest.approx(0.2, rel=1e-12)
        assert a2 < 1e-15 and a3 < 1e-15

    def test_harmonics_land_in_slots(self):
        gx = UniformGrid1D(0.0, 4.0 * np.pi, 64)
        x = gx.nodes()
        e = 0.2 * np.sin(1.0 * x) + 0.1 * np.cos(1.5 * x)
        a1, a2, a3 = fourier_mode_amps(e, gx)
        assert a1 < 1e-15
        assert a2 == pytest.approx(0.1, rel=1e-12)
        assert a3 == pytest.approx(0.05, rel=1e-12)

    def test_harmonic_above_last_bin_is_nan(self):
        gx = UniformGrid1D(0.0, 2.0 * np.pi, 5)  # rfft bins 0, 1, 2
        a1, a2, a3 = fourier_mode_amps(0.4 * np.sin(gx.nodes()), gx)
        assert a1 == pytest.approx(0.2, rel=1e-12)
        assert a2 < 1e-15 and np.isnan(a3)

    def test_requires_periodic(self):
        gv = UniformGrid1D(-1.0, 1.0, 8, bc=NATURAL)
        with pytest.raises(ValueError):
            fourier_mode_amps(np.zeros(9), gv)


class TestProfiles:
    def test_hill_xrms_value(self):
        g = UniformGrid1D(-12.0, 12.0, 256, bc=NATURAL)
        w0 = 0.9
        f = np.exp(
            -g.nodes()[:, None] ** 2 / (2 * w0**2)
            - w0**2 * g.nodes()[None, :] ** 2 / 2.0
        )
        assert xrms(f, (g, g)) == pytest.approx(w0 * np.sqrt(2 * np.pi), rel=1e-10)

    def test_negative_second_moment_reads_nan(self, vp_grids):
        f = np.zeros((64, 65))
        f[5, 30] = -1.0
        assert np.isnan(xrms(f, vp_grids))

    def test_under_resolved_hill_step_reads_nan_not_zero(self):
        # at 8x8 the first remap's f dips below zero enough that m2 < 0
        cfg = cases.apply_overrides(cases.case_defaults("hill"), {"nx": 8, "nv": 8})
        res = solver.run(cases.apply_overrides(cfg, {"t_end": cfg.dt}))
        x = res.channel("xrms")
        assert x[0] > 0 and np.isnan(x[1])

    def test_bump_on_tail_profile_peaks_near_beam(self):
        cfg = cases.case_defaults("bump_on_tail")
        g1, g2 = cases.build_grids(cfg)
        f = cases.initial_f(cfg, g1, g2)
        prof = integrated_fv(f, (g1, g2))
        v = g2.nodes()
        beam = (v > 3.0) & (v < 6.0)
        v_peak = v[beam][np.argmax(prof[beam])]
        assert v_peak == pytest.approx(4.5, abs=0.15)
        # it is a genuine local max of the full profile
        i = np.argmin(np.abs(v - v_peak))
        assert prof[i] > prof[i - 3] and prof[i] > prof[i + 3]


class TestFitDamping:
    def synthetic(self, gamma, omega, phi=0.4, t_end=40.0, dt=0.05):
        t = np.arange(0.0, t_end, dt)
        return t, np.exp(2 * gamma * t) * np.cos(omega * t - phi) ** 2

    def test_recovers_synthetic_rates(self):
        gamma, omega = -0.1533, 1.4156
        t, ee = self.synthetic(gamma, omega)
        g, w = fit_damping(t, ee, t_min=1.0)
        assert g == pytest.approx(gamma, rel=5e-3)
        assert w == pytest.approx(omega, rel=5e-3)

    def test_pure_exponential_has_too_few_peaks(self):
        t = np.linspace(0, 10, 300)
        with pytest.raises(ValueError, match="too few peaks"):
            fit_damping(t, np.exp(-0.3 * t))

    def test_amplitude_rescaling_invariance(self):
        t, ee = self.synthetic(-0.2, 2.0)
        g1, w1 = fit_damping(t, ee)
        g2, w2 = fit_damping(t, 1e6 * ee)
        assert g1 == pytest.approx(g2, rel=1e-12)
        assert w1 == pytest.approx(w2, rel=1e-12)

    def test_window_filters_peaks(self):
        t, ee = self.synthetic(-0.1, 1.5, t_end=60.0)
        tp, _ = series_peaks(t, np.log(ee), t_min=10.0, t_max=30.0)
        assert tp.min() >= 10.0 and tp.max() <= 30.0
