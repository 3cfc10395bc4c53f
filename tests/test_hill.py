import numpy as np
import pytest
from scipy.integrate import solve_ivp

from fslvlasov import cases, hill, solver
from fslvlasov.deposition import ParticleSet
from fslvlasov.hill import (
    hill_envelope,
    hill_reference_xrms,
    matched_omega0,
)
from fslvlasov.pushers import VP_PUSHERS

TWO_PI = 2.0 * np.pi


def a_default(t):
    return 0.81 + 0.3 * np.cos(t)


#: the case's own coefficient, 0.81 + 0.15 cos t
a_case = cases.hill_coefficient(cases.case_defaults("hill"))


class TestEnvelope:
    def test_constant_coefficient_fixed_point(self):
        # a = 1, w0 = 1: w'' = -a w + 1/w^3 = 0 identically
        w = hill_envelope(lambda t: 1.0, np.linspace(0.0, 5.0, 11), omega0=1.0)
        np.testing.assert_allclose(w, 1.0, atol=1e-12)

    def test_matched_omega0_gives_periodic_envelope(self):
        w0 = matched_omega0(a_default)
        times = TWO_PI * np.arange(4)
        w = hill_envelope(a_default, times, omega0=w0)
        assert np.abs(w - w0).max() < 1e-8

    def test_period_return_consistent_at_two_resolutions(self, monkeypatch):
        w0 = matched_omega0(a_default)
        monkeypatch.setattr(hill, "DT_REF", 1e-3)
        r1 = hill_envelope(a_default, [0.0, TWO_PI], omega0=w0)
        monkeypatch.setattr(hill, "DT_REF", 5e-4)
        r2 = hill_envelope(a_default, [0.0, TWO_PI], omega0=w0)
        assert abs(r1[-1] - r2[-1]) < 1e-10
        assert abs(r1[-1] - w0) < 1e-8

    def test_envelope_positive(self):
        w = hill_envelope(a_default, np.linspace(0, 3 * TWO_PI, 200))
        assert np.all(w > 0)

    def test_unstable_zone_rejected(self):
        # the 2:1 parametric resonance tongue at mean 1
        with pytest.raises(ValueError):
            matched_omega0(lambda t: 1.0 + 0.2 * np.cos(t))

    def test_bad_omega0_rejected(self):
        with pytest.raises(ValueError):
            hill_envelope(a_default, [0.0, 1.0], omega0=-2.0)


class TestIndependentOracles:
    """Checks that share no code with the step-matrix products."""

    def test_constant_coefficient_closed_form(self):
        # a = omega^2: the matched envelope is w = omega^-1/2
        omega = 0.9
        times = np.linspace(0.0, 3 * TWO_PI, 37)
        w0 = matched_omega0(lambda t: omega**2)
        w = hill_envelope(lambda t: omega**2, times, omega0=w0)
        assert abs(w0 - omega**-0.5) < 1e-10
        np.testing.assert_allclose(w, omega**-0.5, rtol=0, atol=1e-10)

    def test_case_coefficient_against_solve_ivp(self):
        # the monodromy of x'' + a x = 0, then the nonlinear envelope
        # system w'' = -a w + 1/w^3 from (w0, 0), both by DOP853
        tol = dict(method="DOP853", rtol=1e-12, atol=1e-12)
        m = solve_ivp(lambda t, y: np.concatenate([y[2:], -a_case(t) * y[:2]]),
                      (0.0, TWO_PI), [1.0, 0.0, 0.0, 1.0], **tol).y[:, -1]
        A, B, C, D = m
        w0 = np.sqrt(abs(B / np.sqrt(1.0 - ((A + D) / 2.0) ** 2)))
        assert abs(matched_omega0(a_case) - w0) < 1e-9

        times = np.linspace(0.0, 3 * TWO_PI, 61)
        w = solve_ivp(lambda t, y: [y[1], -a_case(t) * y[0] + y[0] ** -3],
                      (0.0, times[-1]), [w0, 0.0], t_eval=times, **tol).y[0]
        np.testing.assert_allclose(hill_envelope(a_case, times, omega0=w0), w,
                                   rtol=0, atol=1e-9)

    def test_case_coefficient_pinned(self):
        # the value of the RK4 reference at DT_REF = 2 pi 1e-4
        assert matched_omega0(a_case) == pytest.approx(0.9684935648916215, rel=1e-12)


class TestReferenceXrms:
    def test_initial_value_matches_gaussian_moments(self):
        # int x^2 f = 2 pi w0^2 and int f = 2 pi for the unnormalized
        # Gaussian, so x_rms(0) = w0 sqrt(2 pi); domain truncation at
        # [-12, 12] changes this below 1e-12 for w0 near 1
        w0 = matched_omega0(a_default)
        ref = hill_reference_xrms(hill_envelope(a_default, [0.0], omega0=w0))
        assert ref[0] == pytest.approx(w0 * np.sqrt(TWO_PI), rel=1e-12)

        xs = np.linspace(-12, 12, 2001)
        vs = np.linspace(-12, 12, 2001)
        f = np.exp(
            -xs[:, None] ** 2 / (2 * w0**2) - w0**2 * vs[None, :] ** 2 / 2.0
        )
        m2 = np.trapezoid(np.trapezoid(f * xs[:, None] ** 2, vs), xs)
        assert np.sqrt(m2) == pytest.approx(ref[0], rel=1e-10)

    def test_reference_is_periodic(self):
        ref = hill_reference_xrms(hill_envelope(a_default, TWO_PI * np.arange(11)))
        np.testing.assert_allclose(ref, ref[0], atol=1e-7)


class TestEndToEndOrder:
    """The time order of the whole FSL scheme on the Hill case, as in
    demos/hill_order_check.py: the matched Gaussian returns to its initial
    x_rms after every period of a(t), so the summed return misfit over 4
    periods measures the integration error (48x48 grid)."""

    def test_rk2_is_second_order_and_rk4_more_accurate(self):
        base = cases.apply_overrides(cases.case_defaults("hill"), {"nx": 48, "nv": 48})
        w0 = matched_omega0(cases.hill_coefficient(base))  # once, not once a run

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


def _one_period_error(n, scheme="fsl", T=1):
    """L2 error, sqrt(dx dv sum (f - f_exact)^2) over the nodes, of f after
    one period of 25 rk4 steps on an n x n grid, f_exact = f0(S^-1 z) / det S
    with S the map of the same 25 pusher steps."""
    w0 = matched_omega0(a_case)
    cfg = cases.apply_overrides(cases.case_defaults("hill"), {
        "nx": n, "nv": n, "pusher": "rk4", "dt": TWO_PI / 25, "t_end": TWO_PI,
        "omega0": w0, "scheme": scheme, "T": T,
    })
    state = solver.init(cfg)
    unit = ParticleSet(np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.ones(2))
    for k in range(cfg.n_steps()):
        solver.step(state)
        unit = VP_PUSHERS[cfg.pusher](unit, state.provider, cfg.dt, k * cfg.dt)
    S = np.array([unit.pos1, unit.pos2])  # columns: the images of the unit vectors
    x, v = np.meshgrid(state.g1.nodes(), state.g2.nodes(), indexing="ij")
    x0, v0 = np.linalg.solve(S, np.stack([x.ravel(), v.ravel()])).reshape(2, *x.shape)
    exact = np.exp(-(x0**2) / (2 * w0**2) - w0**2 * v0**2 / 2) / np.linalg.det(S)
    return np.sqrt(state.cell * np.sum((state.f_nodes - exact) ** 2))


class TestExactReference:
    """Spatial accuracy of the transported f against an exact reference.

    Hill's force is linear, so the pusher's steps over one period compose
    to one 2x2 map S; pushing the unit vectors through the configured
    pusher reads it off.  The forward scheme moves mass, not values (the
    deposit counts particles per cell), so the exact solution of the
    discrete flow is f0(S^-1 z) / det S.  With the factor rk2 and rk4
    converge alike; without it rk2 (det S - 1 = 0.0168 a period, rk4
    -4.9e-5) stalls at an L2 error of 0.0294 from n = 128 on.

    h and dt dependence, fsl rk4, L2 error after one period, nx = nv = n:

        steps a period   n = 32    64       128      (256, not run here)
        25               5.7e-2    6.9e-3   1.0e-3   2.9e-4
        50               3.9e-2    6.4e-3   1.0e-3
        100              2.7e-2    5.1e-3   1.0e-3

    The time term alone, f0 through the exact map against f0 through the
    pusher's, is 6.3e-5, 2.1e-6 and 7.5e-8 at 25, 50 and 100 steps, on
    every n here: the remap's spatial error dominates the whole table, and
    the observed order in h falls from 3.05 (32 -> 64) to 2.77 (64 -> 128)
    and 1.82 (128 -> 256).  At fixed n the error does not grow as dt falls
    (n = 32 and 64 improve, n = 128 holds), so no remap term of the form
    h^4 / dt shows.  The hybrid scheme at T = 25 deposits once a period
    from the lattice that the flow has sheared for 25 steps, with
    undeformed kernels; its error sits near 6e-3 and does not fall with h
    (7.4e-3 at n = 64, 6.0e-3 at 128), which makes it the witness that the
    gate tells the schemes apart.

    The pins hold the measured values to 1e-9 relative: far above
    round-off, which is all that the remap deposit's skip of negligible
    weights moved them by (at most 3.3e-13), and far below any change of
    the scheme, so they also bound that skip in Hill's tails.  All five
    runs together take about 0.2 s on a 2-core host.
    """

    @pytest.fixture(scope="class")
    def fsl(self):
        return [_one_period_error(n) for n in (32, 64, 128)]

    def test_fsl_error_falls_at_the_pinned_order(self, fsl):
        assert fsl == pytest.approx([5.70925099870806e-2, 6.90344615627993e-3,
                                     1.01202692382597e-3], rel=1e-9)
        orders = np.log2(np.divide(fsl[:-1], fsl[1:]))
        assert orders[0] > 3.0 and orders[1] > 2.7  # measured 3.05 and 2.77

    def test_hybrid_floor_does_not_fall_with_h(self, fsl):
        hybrid = [_one_period_error(n, "hybrid", 25) for n in (64, 128)]
        assert hybrid == pytest.approx([7.38933018409083e-3, 6.02383284544039e-3], rel=1e-9)
        assert np.log2(hybrid[0] / hybrid[1]) < 0.5  # measured 0.29
        assert hybrid[1] > 5 * fsl[2]
