import numpy as np
import pytest
from scipy.linalg import solve_banded

from fslvlasov import field1d, splines
from fslvlasov.grids import NATURAL, UniformGrid1D
from fslvlasov.splines import (
    SplineCoeffs,
    check_finite,
    fit_1d,
    fit_2d,
    solve_cyclic_banded,
    solve_tridiagonal,
    stencil_weights,
)
from spline_oracles import basis_eval, plain_eval_1d, plain_eval_2d


def dense_fit_periodic(samples, grid):
    """Dense-matrix oracle: assemble S((x_i - x_k)/d) with wrap and solve."""
    n = grid.n_nodes
    m = np.zeros((n, n))
    for i in range(n):
        for k in range(n):
            d = (i - k) % n
            d = min(d, n - d)
            m[i, k] = basis_eval(float(d))
    return np.linalg.solve(m, samples)


def dense_fit_natural(samples, grid):
    """Dense oracle with two derivative rows and ghost columns."""
    n = grid.n_nodes
    m = np.zeros((n + 2, n + 2))
    rhs = np.zeros(n + 2)
    # derivative rows: S'(1) = -1/2, S'(0) = 0, S'(-1) = 1/2 (grid units)
    m[0, 0], m[0, 2] = -0.5, 0.5
    rhs[0] = grid.delta * grid.deriv_lo
    m[-1, -3], m[-1, -1] = -0.5, 0.5
    rhs[-1] = grid.delta * grid.deriv_hi
    for i in range(n):
        for k in range(-1, n + 1):
            m[i + 1, k + 1] = basis_eval(float(i - k))
    rhs[1:-1] = samples
    return np.linalg.solve(m, rhs)


class TestBasis:
    def test_nominal_values(self):
        assert basis_eval(0.0) == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert basis_eval(1.0) == pytest.approx(1.0 / 6.0, abs=1e-15)
        assert basis_eval(2.0) == 0.0
        assert basis_eval(2.5) == 0.0

    def test_even(self):
        u = np.linspace(0, 2.5, 60)
        np.testing.assert_allclose(basis_eval(u), basis_eval(-u), atol=0.0)

    def test_partition_of_unity_specific(self):
        u = 0.37
        total = sum(basis_eval(u - k) for k in (-2, -1, 0, 1, 2))
        assert abs(total - 1.0) < 1e-15

    def test_partition_of_unity_random(self):
        rng = np.random.default_rng(7)
        u = rng.uniform(-0.5, 0.5, 10_000)
        total = sum(basis_eval(u - k) for k in range(-2, 3))
        assert np.abs(total - 1.0).max() < 1e-14


class TestStencilWeights:
    """The pow-free stencil weights: each row against the basis, the rows'
    sum, and the mirror w[k](t) = w[3 - k](1 - t), exact where 1 - t is."""

    T = np.concatenate([np.random.default_rng(8).uniform(0.0, 1.0, 100_000), [0.0, 0.5, 1.0]])

    def test_rows_match_the_basis(self):
        w = stencil_weights(self.T)
        for k in range(4):  # the coefficient at offset k - 1 sits t + 1 - k away
            assert np.abs(w[k] - basis_eval(self.T + 1.0 - k)).max() <= 4.5e-16

    def test_rows_sum_to_one(self):
        assert np.abs(stencil_weights(self.T).sum(axis=0) - 1.0).max() <= 4.5e-16

    def test_mirror_on_dyadic_t(self):
        t = np.arange(1025) / 1024.0
        np.testing.assert_array_equal(stencil_weights(t), stencil_weights(1.0 - t)[::-1])

    def test_takes_a_scalar(self):
        w = stencil_weights(np.array([0.0, 0.25, 1.0]))
        np.testing.assert_array_equal(w[:, 1], stencil_weights(0.25))
        np.testing.assert_allclose(w[:, 0], [1 / 6, 2 / 3, 1 / 6, 0.0], rtol=0, atol=4.5e-16)


class TestFit1D:
    @pytest.mark.parametrize("n", [8, 33, 128])
    @pytest.mark.parametrize("bc", ["periodic", NATURAL])
    def test_roundtrip_at_nodes(self, n, bc):
        grid = UniformGrid1D(0.0, 2.0, n, bc=bc)
        rng = np.random.default_rng(n)
        f = rng.normal(size=grid.n_nodes)
        c = fit_1d(f, grid)
        got = plain_eval_1d(c, grid.nodes())
        np.testing.assert_allclose(got, f, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("bc", ["periodic", NATURAL])
    def test_constant_gives_constant_coeffs(self, bc):
        grid = UniformGrid1D(-1.0, 3.0, 16, bc=bc)
        c = fit_1d(np.full(grid.n_nodes, 1.0), grid)
        np.testing.assert_allclose(c.coeffs, 1.0, atol=1e-14)

    def test_delta_matches_dense_oracle_periodic(self):
        grid = UniformGrid1D(0.0, 1.0, 8)
        f = np.zeros(8)
        f[3] = 1.0
        expected = dense_fit_periodic(f, grid)
        np.testing.assert_allclose(fit_1d(f, grid).coeffs, expected, atol=1e-12)

    @pytest.mark.parametrize("n", [8, 16, 64])
    def test_dense_oracle_periodic_random(self, n):
        grid = UniformGrid1D(0.0, 4.0, n)
        rng = np.random.default_rng(n + 1)
        f = rng.normal(size=n)
        np.testing.assert_allclose(
            fit_1d(f, grid).coeffs, dense_fit_periodic(f, grid), atol=1e-12
        )

    @pytest.mark.parametrize("n", [8, 16, 64])
    def test_dense_oracle_natural_random(self, n):
        grid = UniformGrid1D(0.0, 4.0, n, bc=NATURAL, deriv_lo=0.3, deriv_hi=-1.1)
        rng = np.random.default_rng(2 * n)
        f = rng.normal(size=grid.n_nodes)
        np.testing.assert_allclose(
            fit_1d(f, grid).coeffs, dense_fit_natural(f, grid), atol=1e-12
        )

    def test_sin_midcell_accuracy_and_order(self):
        errs = {}
        for n in (16, 32, 64, 128):
            grid = UniformGrid1D(0.0, 2.0 * np.pi, n)
            c = fit_1d(np.sin(grid.nodes()), grid)
            mid = grid.nodes() + grid.delta / 2.0
            errs[n] = np.abs(plain_eval_1d(c, mid) - np.sin(mid)).max()
        assert errs[32] < 1e-4
        slopes = [
            np.log(errs[a] / errs[2 * a]) / np.log(2.0) for a in (16, 32, 64)
        ]
        assert min(slopes) >= 3.7

    def test_mismatched_length_raises(self):
        grid = UniformGrid1D(0.0, 1.0, 8)
        with pytest.raises(ValueError):
            fit_1d(np.zeros(9), grid)

    def test_non_finite_raises(self, taint, cli_abort):
        # the fit scans nothing: a NaN sample of E fits to NaN coefficients,
        # and step 1's second kick reads them, so the remap locates NaN velocities
        taint(field1d, "fit_1d", np.nan)
        assert cli_abort("--case", "landau") == "numeric abort: non-finite positions at step 1\n"


class TestFit2D:
    def test_constant(self):
        gx = UniformGrid1D(0.0, 1.0, 8)
        gy = UniformGrid1D(0.0, 1.0, 8, bc=NATURAL)
        c = fit_2d(np.ones((8, 9)), gx, gy)
        np.testing.assert_allclose(c.coeffs, 1.0, atol=1e-14)

    def test_separable_outer_product(self):
        gx = UniformGrid1D(0.0, 2.0 * np.pi, 16)
        gy = UniformGrid1D(-1.0, 1.0, 12, bc=NATURAL)
        fx = np.sin(gx.nodes())
        fy = np.exp(-gy.nodes() ** 2)
        c2 = fit_2d(np.outer(fx, fy), gx, gy)
        cx = fit_1d(fx, gx)
        cy = fit_1d(fy, gy)
        np.testing.assert_allclose(
            c2.coeffs, np.outer(cx.coeffs, cy.coeffs), atol=1e-12
        )

    def test_sin_cos_roundtrip_and_midcell(self):
        gx = UniformGrid1D(0.0, 2.0 * np.pi, 64)
        gy = UniformGrid1D(0.0, 2.0 * np.pi, 64)
        x = gx.nodes()[:, None]
        y = gy.nodes()[None, :]
        f = np.sin(x) * np.cos(y)
        c = fit_2d(f, gx, gy)
        mx, my = np.meshgrid(gx.nodes(), gy.nodes(), indexing="ij")
        np.testing.assert_allclose(plain_eval_2d(c, mx, my), f, atol=1e-12)
        mid_x = mx + gx.delta / 2
        mid_y = my + gy.delta / 2
        err = np.abs(
            plain_eval_2d(c, mid_x, mid_y) - np.sin(mid_x) * np.cos(mid_y)
        ).max()
        assert err < 5.0 * (gx.delta**4)

    def test_shape_mismatch(self):
        gx = UniformGrid1D(0.0, 1.0, 8)
        gy = UniformGrid1D(0.0, 1.0, 8)
        with pytest.raises(ValueError):
            fit_2d(np.zeros((8, 9)), gx, gy)


class TestEval:
    def test_constant_anywhere(self):
        grid = UniformGrid1D(0.0, 1.0, 8)
        c = SplineCoeffs((grid,), np.ones(8))
        assert plain_eval_1d(c, 0.123) == pytest.approx(1.0, abs=1e-14)

    def test_periodic_wrap(self):
        grid = UniformGrid1D(0.0, 2.0 * np.pi, 32)
        c = fit_1d(np.sin(grid.nodes()), grid)
        assert plain_eval_1d(c, 0.3) == pytest.approx(
            plain_eval_1d(c, 0.3 + 2.0 * np.pi), abs=1e-14
        )
        # exactly representable period: bitwise identical
        g2 = UniformGrid1D(0.0, 16.0, 32)
        c2 = fit_1d(np.sin(g2.nodes()), g2)
        assert plain_eval_1d(c2, 0.25) == plain_eval_1d(c2, 16.25)

    def test_natural_outside_reads_the_wall(self):
        grid = UniformGrid1D(0.0, 1.0, 8, bc=NATURAL)
        f = np.random.default_rng(3).normal(size=9)
        c = fit_1d(f, grid)
        assert plain_eval_1d(c, 1.5) == plain_eval_1d(c, 1.0)
        assert plain_eval_1d(c, -0.25) == plain_eval_1d(c, 0.0)
        np.testing.assert_allclose(plain_eval_1d(c, [-0.25, 1.5]), f[[0, -1]], rtol=0, atol=1e-14)

    def test_natural_derivative_condition_honored(self):
        # fitting sin with its true end slopes restores near-wall accuracy;
        # the default zero-slope closure leaves an O(delta^2) boundary layer
        L = 1.5
        grid_true = UniformGrid1D(0.0, L, 16, bc=NATURAL, deriv_lo=1.0,
                                  deriv_hi=float(np.cos(L)))
        grid_zero = UniformGrid1D(0.0, L, 16, bc=NATURAL)
        f = np.sin(grid_true.nodes())
        probe = np.array([grid_true.delta / 2.0, L - grid_true.delta / 2.0])
        err_true = np.abs(plain_eval_1d(fit_1d(f, grid_true), probe) - np.sin(probe)).max()
        err_zero = np.abs(plain_eval_1d(fit_1d(f, grid_zero), probe) - np.sin(probe)).max()
        assert err_true < err_zero / 20.0
        assert err_true < 5.0 * grid_true.delta**4


class TestCyclicSolver:
    def test_matches_dense(self):
        n = 24
        m = np.zeros((n, n))
        for i in range(n):
            m[i, i] = 2.0 / 3.0
            m[i, (i - 1) % n] = 1.0 / 6.0
            m[i, (i + 1) % n] = 1.0 / 6.0
        rng = np.random.default_rng(11)
        rhs = rng.normal(size=(n, 3))
        got = solve_cyclic_banded(rhs)
        np.testing.assert_allclose(got, np.linalg.solve(m, rhs), atol=1e-12)


def _natural_rows(n):
    """The natural fit's rows: (1/6, 2/3, 1/6), end off-diagonals 1/3."""
    lower, diag, upper = np.full(n - 1, 1.0 / 6.0), np.full(n, 2.0 / 3.0), np.full(n - 1, 1.0 / 6.0)
    upper[0] = lower[-1] = 1.0 / 3.0
    return lower, diag, upper


def _wall_rows(n):
    """``compute_Ey``'s rows: Simpson inside, 0.5 wall rows."""
    lower, diag, upper = np.full(n - 1, 1.0 / 6.0), np.full(n, 2.0 / 3.0), np.full(n - 1, 1.0 / 6.0)
    diag[[0, -1]] = upper[0] = lower[-1] = 0.5
    return lower, diag, upper


class TestCheckFinite:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.inf)])
    def test_any_array_names_its_noun(self, bad):
        for good in (np.ones(3), np.ones(3, dtype=complex), 2.0):
            check_finite("samples", good)
        tainted = np.ones(4, dtype=complex if isinstance(bad, complex) else float)
        tainted[3] = bad
        with pytest.raises(FloatingPointError, match="^non-finite samples$"):
            check_finite("samples", tainted)


class TestTridiagonalSolver:
    @pytest.mark.parametrize("rows", [_natural_rows, _wall_rows])
    @pytest.mark.parametrize("n", [5, 129])
    @pytest.mark.parametrize("shape", [(), (7,)])
    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_matches_dense_and_solve_banded(self, rows, n, shape, dtype, order):
        lower, diag, upper = rows(n)
        rng = np.random.default_rng(n)
        rhs = rng.normal(size=(n,) + shape)
        if dtype is complex:
            rhs = rhs + 1j * rng.normal(size=rhs.shape)
        rhs = np.asarray(rhs, order=order)
        dense = np.diag(diag) + np.diag(lower, -1) + np.diag(upper, 1)
        ref = np.linalg.solve(dense, rhs)
        banded = solve_banded((1, 1), np.array([np.r_[0.0, upper], diag, np.r_[lower, 0.0]]),
                              rhs.copy())
        got = solve_tridiagonal(lower, diag, upper, rhs.copy(order="K"))
        assert got.shape == rhs.shape and got.dtype == rhs.dtype
        assert np.max(np.abs(got - ref)) < 1e-13 * np.max(np.abs(ref))
        np.testing.assert_array_equal(got, banded)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rhs_raises(self, bad, taint, cli_abort):
        # the solve scans nothing: the natural v fit of f0 solves to
        # non-finite coefficients, which the seed of the particles reports
        taint(splines, "solve_tridiagonal", bad, arg=3)
        assert cli_abort("--case", "landau") == \
            "numeric abort: non-finite spline coefficients at setup\n"
