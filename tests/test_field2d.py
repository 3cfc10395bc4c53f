import numpy as np
import pytest
from scipy.fft import irfft

from fslvlasov.field2d import (
    compute_Ex,
    compute_Ey,
    solve_fields,
    solve_potential,
)
from fslvlasov.grids import NATURAL, UniformGrid1D
from fslvlasov.splines import fit_2d, fit_2d_rfft

LY = 2.0 * np.pi


def make_grids(nx, ny, lx=7.0):
    gx = UniformGrid1D(0.0, lx, nx)
    gy = UniformGrid1D(0.0, LY, ny, bc=NATURAL)
    return gx, gy


def mesh(gx, gy):
    return np.meshgrid(gx.nodes(), gy.nodes(), indexing="ij")


# the stages work on x rfft spectra: node values go in through rfft and
# come out through irfft
def rfft_x(a):
    return np.fft.rfft(a, axis=0)


def irfft_x(a, gx):
    return np.fft.irfft(a, n=gx.n_nodes, axis=0)


def potential(rho, gx, gy):
    return irfft_x(solve_potential(rho, gx, gy), gx)


def field_x(phi, gx):
    return irfft_x(compute_Ex(rfft_x(phi), gx), gx)


def field_y(phi, rho, gx, gy):
    return irfft_x(compute_Ey(rfft_x(phi), rho, gx, gy), gx)


def dense_potential_oracle(rho, gx, gy):
    """Dense per-mode solve of the same Numerov relation."""
    ny = gy.n_nodes
    dy = gy.delta
    rho_hat = np.fft.fft(rho, axis=0)
    xi = 2.0 * np.pi * np.fft.fftfreq(gx.n_nodes, d=gx.delta)
    phi_hat = np.zeros_like(rho_hat)
    k = ny - 2
    for m in range(gx.n_nodes):
        off = 1.0 - xi[m] ** 2 * dy**2 / 12.0
        dia = -2.0 - 10.0 * xi[m] ** 2 * dy**2 / 12.0
        mat = np.zeros((k, k), dtype=complex)
        for j in range(k):
            mat[j, j] = dia
            if j > 0:
                mat[j, j - 1] = off
            if j < k - 1:
                mat[j, j + 1] = off
        rhs = -(dy**2 / 12.0) * (
            rho_hat[m, 2:] + 10.0 * rho_hat[m, 1:-1] + rho_hat[m, :-2]
        )
        phi_hat[m, 1:-1] = np.linalg.solve(mat, rhs)
    return np.real(np.fft.ifft(phi_hat, axis=0))


def dense_ey_oracle(phi, rho, gx, gy):
    """Dense solve of the Simpson/corrected-midpoint system per column."""
    ny = gy.n_nodes
    dy = gy.delta
    xi = 2.0 * np.pi * np.fft.fftfreq(gx.n_nodes, d=gx.delta)

    def dxx(g):
        return np.real(np.fft.ifft(-(xi**2) * np.fft.fft(g)))

    mat = np.zeros((ny, ny))
    mat[0, 0] = mat[0, 1] = 0.5
    mat[-1, -1] = mat[-1, -2] = 0.5
    for j in range(1, ny - 1):
        mat[j, j - 1] = 1.0 / 6.0
        mat[j, j] = 2.0 / 3.0
        mat[j, j + 1] = 1.0 / 6.0
    rhs = np.zeros((gx.n_nodes, ny))
    rhs[:, 1:-1] = (phi[:, :-2] - phi[:, 2:]) / (2.0 * dy)
    rhs[:, 0] = (
        (phi[:, 0] - phi[:, 1]) / dy
        + dy / 12.0 * (rho[:, 1] - rho[:, 0])
        + dy / 12.0 * dxx(phi[:, 1] - phi[:, 0])
    )
    rhs[:, -1] = (
        (phi[:, -2] - phi[:, -1]) / dy
        + dy / 12.0 * (rho[:, -1] - rho[:, -2])
        + dy / 12.0 * dxx(phi[:, -1] - phi[:, -2])
    )
    return np.linalg.solve(mat, rhs.T).T


class TestPotential:
    def test_zero_rho(self):
        gx, gy = make_grids(8, 16)
        np.testing.assert_array_equal(
            potential(np.zeros((8, 17)), gx, gy), np.zeros((8, 17))
        )

    def test_sin_y_eigenfunction(self):
        # -phi'' = sin(y) with zero Dirichlet trace -> phi = sin(y)
        errs = {}
        for ny in (16, 32, 64):
            gx, gy = make_grids(8, ny)
            _, y = mesh(gx, gy)
            phi = potential(np.sin(y), gx, gy)
            errs[ny] = np.abs(phi - np.sin(y)).max()
        assert errs[64] < 1e-6
        slope = np.log(errs[16] / errs[64]) / np.log(4.0)
        assert slope >= 3.7

    def test_separable_mode_analytic(self):
        gx, gy = make_grids(16, 64)
        x, y = mesh(gx, gy)
        k = 2.0 * np.pi / gx.length
        rho = np.sin(k * x) * np.sin(y)
        phi = potential(rho, gx, gy)
        np.testing.assert_allclose(
            phi, rho / (k**2 + 1.0), atol=5.0 * gy.delta**4
        )

    def test_matches_dense_oracle_16x16(self):
        gx, gy = make_grids(16, 16)
        rng = np.random.default_rng(1)
        rho = rng.normal(size=(16, 17))
        np.testing.assert_allclose(
            potential(rho, gx, gy), dense_potential_oracle(rho, gx, gy),
            atol=1e-12,
        )

    def test_dirichlet_walls(self):
        gx, gy = make_grids(8, 32)
        rng = np.random.default_rng(2)
        phi = potential(rng.normal(size=(8, 33)), gx, gy)
        np.testing.assert_array_equal(phi[:, 0], 0.0)
        np.testing.assert_array_equal(phi[:, -1], 0.0)


class TestEx:
    def test_constant_in_x(self):
        gx, gy = make_grids(16, 16)
        _, y = mesh(gx, gy)
        np.testing.assert_allclose(field_x(np.sin(y), gx), 0.0, atol=1e-14)

    def test_cos_mode_derivative_with_order(self):
        errs = {}
        for nx in (8, 16, 32):
            gx, gy = make_grids(nx, 8)
            x, y = mesh(gx, gy)
            k = 2.0 * np.pi / gx.length
            ex = field_x(np.cos(k * x), gx)
            errs[nx] = np.abs(ex - k * np.sin(k * x)).max()
        slope = np.log(errs[8] / errs[32]) / np.log(4.0)
        assert slope >= 2.7

    def test_simpson_relation_residual(self):
        gx, gy = make_grids(32, 8)
        rng = np.random.default_rng(3)
        phi = rng.normal(size=(32, 9))
        ex = field_x(phi, gx)
        lhs = 2.0 * gx.delta * (
            np.roll(ex, 1, axis=0) / 6.0 + 2.0 * ex / 3.0 + np.roll(ex, -1, axis=0) / 6.0
        )
        rhs = np.roll(phi, 1, axis=0) - np.roll(phi, -1, axis=0)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


class TestEy:
    def test_sin_y_field_with_order(self):
        errs = {}
        for ny in (32, 64, 128, 256):
            gx, gy = make_grids(8, ny)
            _, y = mesh(gx, gy)
            rho = np.sin(y)
            phi = potential(rho, gx, gy)
            ey = field_y(phi, rho, gx, gy)
            errs[ny] = np.abs(ey + np.cos(y)).max()
        slopes = [
            np.log(errs[n] / errs[2 * n]) / np.log(2.0) for n in (32, 64, 128)
        ]
        assert min(slopes) >= 2.7

    def test_constant_in_y(self):
        gx, gy = make_grids(16, 16)
        x, _ = mesh(gx, gy)
        phi = np.cos(2.0 * np.pi * x / gx.length)
        ey = field_y(phi, np.zeros_like(phi), gx, gy)
        np.testing.assert_allclose(ey, 0.0, atol=1e-13)

    def test_matches_dense_oracle_16x16(self):
        gx, gy = make_grids(16, 16)
        rng = np.random.default_rng(5)
        phi = rng.normal(size=(16, 17))
        rho = rng.normal(size=(16, 17))
        np.testing.assert_allclose(
            field_y(phi, rho, gx, gy), dense_ey_oracle(phi, rho, gx, gy),
            atol=1e-12,
        )


class TestFullPipeline:
    def test_sin_y_fields(self):
        gx, gy = make_grids(8, 64)
        _, y = mesh(gx, gy)
        flds = solve_fields(np.sin(y), gx, gy)
        np.testing.assert_allclose(flds.Ex, 0.0, atol=1e-13)
        np.testing.assert_allclose(flds.Ey, -np.cos(y), atol=2e-6)

    def test_zero_rho(self):
        gx, gy = make_grids(8, 16)
        flds = solve_fields(np.zeros((8, 17)), gx, gy)
        np.testing.assert_allclose(flds.Ex, 0.0, atol=0.0)
        np.testing.assert_allclose(flds.Ey, 0.0, atol=0.0)

    def test_kh_equilibrium_has_no_x_field(self):
        gx, gy = make_grids(64, 64, lx=7.0)
        _, y = mesh(gx, gy)
        flds = solve_fields(np.sin(y), gx, gy)
        assert np.abs(flds.Ex).max() < 1e-10

    def test_linearity(self):
        gx, gy = make_grids(8, 16)
        rng = np.random.default_rng(6)
        r1 = rng.normal(size=(8, 17))
        r2 = rng.normal(size=(8, 17))
        f1 = solve_fields(r1, gx, gy)
        f2 = solve_fields(r2, gx, gy)
        fs = solve_fields(r1 + 0.5 * r2, gx, gy)
        np.testing.assert_allclose(fs.Ey, f1.Ey + 0.5 * f2.Ey, atol=1e-12)
        np.testing.assert_allclose(fs.Ex, f1.Ex + 0.5 * f2.Ex, atol=1e-12)


class TestSpectralSolve:
    """The solve fits the field spline in x rfft space: the same
    coefficients as ``fit_2d`` of its own node values."""

    @pytest.mark.parametrize("nx,ny", [(8, 8), (9, 9), (15, 15), (16, 16), (128, 128),
                                       (9, 20), (16, 5), (15, 40), (128, 33)])
    def test_coefficients_equal_fit_of_node_values(self, nx, ny):
        gx, gy = make_grids(nx, ny)
        x, y = mesh(gx, gy)
        rng = np.random.default_rng(nx + 1000 * ny)
        rho = np.sin(y) * (1.0 + 0.1 * np.cos(2.0 * np.pi * x / gx.length))
        fs = solve_fields(rho + 0.01 * rng.normal(size=x.shape), gx, gy)
        ref = fit_2d(np.stack([fs.Ey, fs.Ex], axis=-1), gx, gy).coeffs
        got = fs.E_spline.coeffs
        assert got.shape == ref.shape == (nx, ny + 3, 2)
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize("nx", [12, 13])
    def test_end_derivatives_enter_mode_zero(self, nx):
        gx = UniformGrid1D(0.0, 7.0, nx)
        gy = UniformGrid1D(0.0, LY, 9, bc=NATURAL, deriv_lo=0.3, deriv_hi=-0.7)
        f = np.random.default_rng(nx).normal(size=(nx, 10, 2))
        got = fit_2d_rfft(np.moveaxis(rfft_x(f), -1, 0), gx, gy).coeffs
        ref = fit_2d(f, gx, gy).coeffs
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_node_values_built_once_on_first_read(self):
        gx, gy = make_grids(16, 16)
        rho = np.random.default_rng(7).normal(size=(16, 17))
        fs = solve_fields(rho, gx, gy)
        assert not {"Ex", "Ey"} & set(vars(fs))
        assert fs.Ex is fs.Ex and "Ey" not in vars(fs)
        np.testing.assert_array_equal(irfft(fs.phi_hat, n=gx.n_nodes, axis=0),
                                      potential(rho, gx, gy))
