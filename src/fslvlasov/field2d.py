"""2D Poisson solve of the guiding-center model, spectral in x.

-laplace(phi) = rho on a box periodic in x and Dirichlet (phi = 0) in y.
x stays in rfft space from rho to the field's spline coefficients: the
potential by a DST-I in y, Ex by the circulant Simpson relation, Ey by
the Simpson rows in y closed by corrected-midpoint wall rows, then the
stacked (Ey, Ex) fit and the one irfft (``splines.fit_2d_rfft``).  Node
values of Ex and Ey are each built by an irfft when first read: by the
node-seeded set's field (diagnostics row and stage 1) and the other
diagnostics rows; a push's other stage solves read none.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.fft import dst, idst, irfft
from scipy.linalg import solve_banded

from .grids import UniformGrid1D
from .splines import SplineCoeffs, cyclic_eigenvalues, fit_2d_rfft
from .splines import fit_2d  # noqa: F401  perfbench's fit_field span until ROADMAP item 1


@dataclass(frozen=True)
class FieldState2D:
    """x rfft spectra (nx // 2 + 1, ny) of phi, Ex and Ey, the field's spline,
    and node values ``Ex``, ``Ey``, each built by an irfft on first read."""

    gx: UniformGrid1D
    gy: UniformGrid1D
    phi_hat: np.ndarray
    Ex_hat: np.ndarray
    Ey_hat: np.ndarray
    E_spline: SplineCoeffs  # components (Ey, Ex) on the trailing axis

    Ex = cached_property(lambda self: irfft(self.Ex_hat, n=self.gx.n_nodes, axis=0))
    Ey = cached_property(lambda self: irfft(self.Ey_hat, n=self.gx.n_nodes, axis=0))


def _xi2(gx: UniformGrid1D):
    """Squared x wavenumbers of the rfft modes."""
    return (2.0 * np.pi * np.fft.rfftfreq(gx.n_nodes, d=gx.delta)) ** 2


def solve_potential(rho, gx: UniformGrid1D, gy: UniformGrid1D):
    """x rfft of the potential, (nx // 2 + 1, ny): -laplace(phi) = rho,
    periodic in x, phi = 0 at the y walls.

    Per x mode xi the Numerov relation

      phihat_{j+1} (1 - xi^2 dy^2/12) + phihat_j (-2 - 10 xi^2 dy^2/12)
        + phihat_{j-1} (1 - xi^2 dy^2/12)
        = -(dy^2/12) (rhohat_{j+1} + 10 rhohat_j + rhohat_{j-1})

    is solved for the interior nodes; the xi = 0 mode uses the same
    stencil.  Fourth-order accurate in dy.  Each mode's matrix
    tridiag(off, diag, off) of size K = ny - 2 has the sine vectors
    sin(pi j k / (K + 1)) as eigenvectors, with eigenvalues
    diag + 2 off cos(pi k / (K + 1)), so a DST-I in y, a division, and the
    inverse DST-I solve all modes at once.
    """
    rho = np.asarray(rho, dtype=float)
    if rho.shape != (gx.n_nodes, gy.n_nodes):
        raise ValueError(f"rho: expected shape {(gx.n_nodes, gy.n_nodes)}, got {rho.shape}")
    if not gx.periodic or gy.periodic:
        raise ValueError("x grid must be periodic, y grid natural (Dirichlet walls)")
    if not np.all(np.isfinite(rho)):
        raise ValueError("non-finite rho")
    dy, k = gy.delta, gy.n_nodes - 2
    rhs = -(dy**2 / 12.0) * (rho[:, 2:] + 10.0 * rho[:, 1:-1] + rho[:, :-2])
    rhs_hat = np.fft.rfft(dst(rhs, type=1, axis=1), axis=0)
    xi2 = _xi2(gx)
    off = 1.0 - xi2 * dy**2 / 12.0
    diag = -2.0 - 10.0 * xi2 * dy**2 / 12.0
    lam = diag[:, None] + 2.0 * off[:, None] * np.cos(np.pi * np.arange(1, k + 1) / (k + 1))
    phi_hat = np.zeros((xi2.size, gy.n_nodes), dtype=complex)
    phi_hat[:, 1:-1] = idst(rhs_hat / lam, type=1, axis=1)
    return phi_hat


def compute_Ex(phi_hat, gx: UniformGrid1D):
    """x rfft of Ex from the per-row Simpson relation (periodic compact system)

      2 dx [ (1/6) Ex_{i-1} + (2/3) Ex_i + (1/6) Ex_{i+1} ] = phi_{i-1} - phi_{i+1},

    circulant: mode k is phihat_k (-i sin theta_k / dx) / lambda_k with
    theta_k = 2 pi k / nx and lambda_k = 2/3 + cos(theta_k) / 3.
    """
    n = gx.n_nodes
    theta = 2.0 * np.pi * np.arange(n // 2 + 1) / n
    return phi_hat * (-1j * np.sin(theta) / (gx.delta * cyclic_eigenvalues(n)))[:, None]


def compute_Ey(phi_hat, rho, gx: UniformGrid1D, gy: UniformGrid1D):
    """x rfft of Ey: interior Simpson rows plus corrected-midpoint wall rows.

    The wall rows integrate E over the first (last) cell by the midpoint
    rule corrected with the density jump and an x-curvature term,

      (dy/2)(E_0 + E_1) = phi_0 - phi_1 + (dy^2/12)(rho_1 - rho_0)
                          + (dy^2/12) dxx(phi_1 - phi_0),

    where dxx is -xi^2 on each x mode; the last row is the mirror image.
    Third order or better at the walls, fourth order inside.  ``rho``
    holds node values; only its wall rows are transformed.
    """
    ny, dy = gy.n_nodes, gy.delta
    ab = np.full((3, ny), 1.0 / 6.0)
    ab[1] = 2.0 / 3.0
    ab[[0, 1, 1, 2], [1, 0, -1, -2]] = 0.5  # the wall rows
    rho = np.asarray(rho, dtype=float)
    jump = np.fft.rfft(rho[:, [1, -2]] - rho[:, [0, -1]], axis=0)  # inner - wall
    step = phi_hat[:, [1, -2]] - phi_hat[:, [0, -1]]
    rhs = np.empty_like(phi_hat)
    rhs[:, 1:-1] = (phi_hat[:, :-2] - phi_hat[:, 2:]) / (2.0 * dy)
    rhs[:, [0, -1]] = ((dy / 12.0) * (jump - _xi2(gx)[:, None] * step) - step / dy) * [1, -1]
    return solve_banded((1, 1), ab, rhs.T, overwrite_b=True).T  # y on the leading axis


def solve_fields(rho, gx: UniformGrid1D, gy: UniformGrid1D) -> FieldState2D:
    """Potential, field and its spline in x rfft space; node values when read."""
    phi_hat = solve_potential(rho, gx, gy)
    ex_hat, ey_hat = compute_Ex(phi_hat, gx), compute_Ey(phi_hat, rho, gx, gy)
    return FieldState2D(gx, gy, phi_hat, ex_hat, ey_hat,
                        fit_2d_rfft(np.stack([ey_hat, ex_hat]), gx, gy))
