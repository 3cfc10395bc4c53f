import numpy as np
import pytest

from fslvlasov import cases, solver
from fslvlasov.hill import (
    hill_envelope,
    hill_reference_xrms,
    matched_omega0,
)

TWO_PI = 2.0 * np.pi


def a_default(t):
    return 0.81 + 0.3 * np.cos(t)


class TestEnvelope:
    def test_constant_coefficient_fixed_point(self):
        # a = 1, w0 = 1: w'' = -a w + 1/w^3 = 0 identically, psi = t
        times = np.linspace(0.0, 5.0, 11)
        env = hill_envelope(lambda t: 1.0, times, omega0=1.0)
        np.testing.assert_allclose(env.omega, 1.0, atol=1e-12)
        np.testing.assert_allclose(env.psi, times, atol=1e-10)

    def test_matched_omega0_gives_periodic_envelope(self):
        w0 = matched_omega0(a_default)
        times = TWO_PI * np.arange(4)
        env = hill_envelope(a_default, times, omega0=w0)
        assert np.abs(env.omega - w0).max() < 1e-8

    def test_period_return_consistent_at_two_resolutions(self):
        w0 = matched_omega0(a_default)
        r1 = hill_envelope(a_default, [0.0, TWO_PI], omega0=w0, dt_ref=1e-3)
        r2 = hill_envelope(a_default, [0.0, TWO_PI], omega0=w0, dt_ref=5e-4)
        assert abs(r1.omega[-1] - r2.omega[-1]) < 1e-10
        assert abs(r1.omega[-1] - w0) < 1e-8

    def test_psi_strictly_increasing_omega_positive(self):
        env = hill_envelope(a_default, np.linspace(0, 3 * TWO_PI, 200))
        assert np.all(env.omega > 0)
        assert np.all(np.diff(env.psi) > 0)

    def test_unstable_zone_rejected(self):
        # the 2:1 parametric resonance tongue at mean 1
        with pytest.raises(ValueError):
            matched_omega0(lambda t: 1.0 + 0.2 * np.cos(t))

    def test_bad_omega0_rejected(self):
        with pytest.raises(ValueError):
            hill_envelope(a_default, [0.0, 1.0], omega0=-2.0)


class TestReferenceXrms:
    def test_initial_value_matches_gaussian_moments(self):
        # int x^2 f = 2 pi w0^2 and int f = 2 pi for the unnormalized
        # Gaussian, so x_rms(0) = w0 sqrt(2 pi); domain truncation at
        # [-12, 12] changes this below 1e-12 for w0 near 1
        w0 = matched_omega0(a_default)
        env = hill_envelope(a_default, [0.0], omega0=w0)
        ref = hill_reference_xrms(env)
        assert ref[0] == pytest.approx(w0 * np.sqrt(TWO_PI), rel=1e-12)

        xs = np.linspace(-12, 12, 2001)
        vs = np.linspace(-12, 12, 2001)
        f = np.exp(
            -xs[:, None] ** 2 / (2 * w0**2) - w0**2 * vs[None, :] ** 2 / 2.0
        )
        m2 = np.trapezoid(np.trapezoid(f * xs[:, None] ** 2, vs), xs)
        assert np.sqrt(m2) == pytest.approx(ref[0], rel=1e-10)

    def test_reference_is_periodic(self):
        env = hill_envelope(a_default, TWO_PI * np.arange(11))
        ref = hill_reference_xrms(env)
        np.testing.assert_allclose(ref, ref[0], atol=1e-7)


class TestEndToEndOrder:
    """The time order of the whole FSL scheme on the Hill case, as in
    demos/hill_order_check.py: the matched Gaussian returns to its initial
    x_rms after every period of a(t), so the summed return misfit over 4
    periods measures the integration error (48x48 grid)."""

    def test_rk2_is_second_order_and_rk4_more_accurate(self):
        base = cases.apply_overrides(cases.case_defaults("hill"), {"nx": 48, "nv": 48})
        w0 = matched_omega0(cases.hill_coefficient(base))  # shared: the costly part

        def err(pusher, m):
            cfg = cases.apply_overrides(base, {
                "pusher": pusher, "dt": TWO_PI / m, "t_end": 4 * TWO_PI,
                "diag_every": m, "omega0": w0,
            })
            xr = solver.run(cfg).channel("xrms")
            assert len(xr) == 5
            return sum(abs(xr[k] - xr[0]) for k in range(1, 5))

        rk2_16, rk2_32, rk4_16 = err("rk2", 16), err("rk2", 32), err("rk4", 16)
        # measured: 0.708, 0.109 (order 2.70) and rk4 0.0268
        assert np.log2(rk2_16 / rk2_32) >= 1.8
        assert rk4_16 < rk2_16
