import numpy as np
import pytest

from fslvlasov import pushers
from fslvlasov.field1d import solve_poisson_1d
from fslvlasov.grids import NATURAL, UniformGrid1D
from spline_oracles import plain_eval_1d


@pytest.fixture
def grid():
    return UniformGrid1D(0.0, 4.0 * np.pi, 64)


class TestPoisson1D:
    def test_constant_rho_gives_zero_field(self, grid):
        fs = solve_poisson_1d(np.full(grid.n_nodes, 3.7), grid)
        np.testing.assert_allclose(fs.E, 0.0, atol=1e-14)

    def test_single_mode_analytic(self, grid):
        # analytic antiderivative oracle: rho = 1 + a cos(kx) -> E = (a/k) sin(kx)
        k, a = 0.5, 0.001
        x = grid.nodes()
        fs = solve_poisson_1d(1.0 + a * np.cos(k * x), grid)
        np.testing.assert_allclose(fs.E, (a / k) * np.sin(k * x), atol=1e-14)

    def test_two_modes_analytic(self, grid):
        k = 0.5
        x = grid.nodes()
        rho = 1.0 + np.cos(k * x) + 0.3 * np.cos(2 * k * x)
        expected = (1.0 / k) * np.sin(k * x) + (0.15 / k) * np.sin(2 * k * x)
        fs = solve_poisson_1d(rho, grid)
        np.testing.assert_allclose(fs.E, expected, atol=1e-13)

    def test_zero_mean_holds(self, grid):
        rng = np.random.default_rng(0)
        fs = solve_poisson_1d(rng.normal(size=grid.n_nodes), grid)
        norm = np.abs(fs.E).max()
        assert abs(fs.E.sum() * grid.delta) < 1e-12 * max(norm, 1.0)

    def test_solve_of_derivative_is_identity(self, grid):
        # band-limited zero-mean E; differentiate spectrally, then solve back
        x = grid.nodes()
        e = np.sin(0.5 * x) + 0.2 * np.cos(1.5 * x)
        k = 2.0 * np.pi * np.fft.rfftfreq(grid.n_nodes, d=grid.delta)
        rho = np.fft.irfft(1j * k * np.fft.rfft(e), n=grid.n_nodes) + 1.0
        fs = solve_poisson_1d(rho, grid)
        np.testing.assert_allclose(fs.E, e, atol=1e-12)

    def test_linearity(self, grid):
        rng = np.random.default_rng(4)
        r1 = rng.normal(size=grid.n_nodes)
        r2 = rng.normal(size=grid.n_nodes)
        e_sum = solve_poisson_1d(r1 + 2.0 * r2, grid).E
        e_split = solve_poisson_1d(r1, grid).E + 2.0 * solve_poisson_1d(r2, grid).E
        np.testing.assert_allclose(e_sum, e_split, atol=1e-13)

    def test_spline_roundtrips_field(self, grid):
        x = grid.nodes()
        fs = solve_poisson_1d(1.0 + 0.3 * np.cos(0.5 * x), grid)
        np.testing.assert_allclose(plain_eval_1d(fs.E_spline, x), fs.E, atol=1e-13)

    def test_rejects_natural_grid(self):
        g = UniformGrid1D(0.0, 1.0, 8, bc=NATURAL)
        with pytest.raises(ValueError):
            solve_poisson_1d(np.zeros(9), g)

    def test_rejects_non_finite(self, taint, cli_abort):
        # the solve scans nothing: from step 1's second kick on (call 2; call 1
        # is the t = 0 field) an inf charge solves to a NaN E, whose kick
        # moves the particles to velocities the remap locates
        taint(pushers, "solve_poisson_1d", np.inf, start=2)
        assert cli_abort("--case", "landau") == "numeric abort: non-finite positions at step 1\n"
