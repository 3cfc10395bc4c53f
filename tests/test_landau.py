import numpy as np
import pytest

from fslvlasov.landau import (
    dispersion_D,
    dispersion_D_omega,
    dispersion_N,
    dispersion_table,
    landau_reference_E,
    plasma_Z,
    plasma_Z_prime,
    solve_dominant_root,
)

# frozen regression values from this solver, cross-checked |D| < 1e-10
# (phase convention: r e^{i phi} = i N / dD at the root)
K04_ROOT = (1.2850569697, -0.0661279587, 0.4497841346, 0.3357725239)


class TestPlasmaZ:
    def test_z_at_zero(self):
        assert plasma_Z(0.0) == pytest.approx(1j * np.sqrt(np.pi), abs=1e-12)

    def test_derivative_identity_by_finite_differences(self):
        rng = np.random.default_rng(17)
        eta = rng.uniform(-3, 3, 100) + 1j * rng.uniform(-2, 2, 100)
        h = 1e-6
        fd = (plasma_Z(eta + h) - plasma_Z(eta - h)) / (2 * h)
        zp = plasma_Z_prime(eta)
        assert np.abs((fd - zp) / zp).max() < 1e-7

    def test_large_real_argument_asymptotic(self):
        # leading asymptotic term Z ~ -1/eta on the real axis
        eta = 50.0
        assert abs(plasma_Z(eta) + 1.0 / eta) < 1e-3 * abs(1.0 / eta)

    def test_outside_strip_raises(self):
        with pytest.raises(ValueError):
            plasma_Z(0.5 + 11.0j)


class TestDispersion:
    def test_four_digit_root_nearly_annihilates_D(self):
        assert abs(dispersion_D(0.5, 1.4156 - 0.1533j)) < 1e-3

    def test_conjugation_symmetry(self):
        w = 1.3 - 0.2j
        for k in (0.3, 0.5):
            assert dispersion_D(k, -np.conj(w)) == pytest.approx(
                np.conj(dispersion_D(k, w)), abs=1e-13
            )

    def test_residue_modulus_at_k_half(self):
        root = solve_dominant_root(0.5)
        w = complex(root.omega_r, root.omega_i)
        res = dispersion_N(0.5, w) / dispersion_D_omega(0.5, w)
        assert abs(res) == pytest.approx(0.3677, abs=1e-4)

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            dispersion_D(-0.5, 1.0 + 0.0j)


class TestDominantRoot:
    def test_k_half_quoted_digits(self):
        root = solve_dominant_root(0.5)
        assert root.omega_r == pytest.approx(1.4156, abs=1e-4)
        assert root.omega_i == pytest.approx(-0.1533, abs=1e-4)
        assert root.r == pytest.approx(0.3677, abs=1e-4)
        # the published phase 0.5326245 transposes the digits of the value
        # this formula actually produces; see the phase note in the README
        assert root.phi == pytest.approx(0.5362450, abs=1e-7)

    def test_k_04_frozen_regression(self):
        root = solve_dominant_root(0.4)
        wr, wi, r, phi = K04_ROOT
        assert root.omega_r == pytest.approx(wr, abs=1e-9)
        assert root.omega_i == pytest.approx(wi, abs=1e-9)
        assert root.r == pytest.approx(r, abs=1e-9)
        assert root.phi == pytest.approx(phi, abs=1e-9)
        assert abs(dispersion_D(0.4, complex(root.omega_r, root.omega_i))) < 1e-10

    def test_weaker_damping_at_smaller_k(self):
        assert abs(solve_dominant_root(0.4).omega_i) < abs(
            solve_dominant_root(0.5).omega_i
        )

    def test_root_residual_small(self):
        for k in (0.2, 0.3, 0.4, 0.5, 0.6, 0.8, 1.0):
            root = solve_dominant_root(k)
            assert abs(dispersion_D(k, complex(root.omega_r, root.omega_i))) < 1e-10
            assert root.omega_r > 0
            assert root.r > 0

    def test_k_one_root(self):
        # the Newton iterate from the Bohm-Gross guess leaves plasma_Z's
        # strip here; the scan's reseed finds the root
        root = solve_dominant_root(1.0)
        assert root.omega_r == pytest.approx(2.045905, abs=1e-6)
        assert root.omega_i == pytest.approx(-0.851330, abs=1e-6)

    def test_conjugate_pair_member(self):
        # the mirrored root -w_r + i w_i also annihilates D
        root = solve_dominant_root(0.5)
        mirrored = complex(-root.omega_r, root.omega_i)
        assert abs(dispersion_D(0.5, mirrored)) < 1e-10

    def test_k_out_of_validated_range(self):
        with pytest.raises(ValueError):
            solve_dominant_root(1.5)


class TestReferenceField:
    def test_value_at_quarter_wavelength_t0(self):
        # 4 * 0.001 * 0.3677 * cos(-phi) with the self-consistent phase
        root = solve_dominant_root(0.5)
        e = landau_reference_E(np.pi / 2 / 0.5, 0.0, 0.5, 0.001, root)
        expected = 4 * 0.001 * root.r * np.cos(root.phi)
        assert e == pytest.approx(expected, abs=1e-12)
        assert e == pytest.approx(0.0012646, abs=1e-6)

    def test_zero_at_x_zero(self):
        for t in (0.0, 1.0, 7.3):
            assert landau_reference_E(0.0, t, 0.5, 0.001) == 0.0

    def test_odd_in_x_about_zero_and_pi_over_k(self):
        root = solve_dominant_root(0.5)
        k = 0.5
        x = np.linspace(0.1, 2.0, 7)
        ref = landau_reference_E(x, 1.0, k, 0.001, root)
        np.testing.assert_allclose(
            landau_reference_E(-x, 1.0, k, 0.001, root), -ref, atol=1e-15
        )
        np.testing.assert_allclose(
            landau_reference_E(2 * np.pi / k - x, 1.0, k, 0.001, root),
            -ref, atol=1e-15,
        )

    def test_envelope_halving_time(self):
        root = solve_dominant_root(0.5)
        assert np.log(2.0) / abs(root.omega_i) == pytest.approx(4.52, abs=0.01)


class TestTable:
    def test_rows_and_monotone_damping(self):
        rows = dispersion_table()
        assert [r[0] for r in rows] == [0.2, 0.3, 0.4, 0.5, 0.6]
        damp = [abs(r[2]) for r in rows]
        assert damp == sorted(damp)
        assert rows[3][1] == pytest.approx(1.4156, abs=1e-4)
        assert rows[3][2] == pytest.approx(-0.1533, abs=1e-4)
