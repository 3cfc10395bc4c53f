"""2D Poisson solver for the guiding-center model.

-laplace(phi) = rho on a box periodic in x and Dirichlet (phi = 0) in y.
The potential is obtained mode by mode from a real FFT in x and the
fourth-order compact (Numerov) relation in y, whose per-mode matrix is
symmetric Toeplitz with Dirichlet ends and is therefore diagonalized by a
type-1 discrete sine transform in y.  The field
E = -grad(phi) is then recovered by quadrature-based compact systems:
a Simpson relation in the periodic x direction, and in y the same
interior relation closed by corrected-midpoint rows at the two walls,
whose curvature terms restore third-order accuracy there.  Both field
components share one spline fit, stacked as (Ey, Ex) on a trailing axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.fft import dst, idst
from scipy.linalg import solve_banded

from .grids import UniformGrid1D
from .splines import SplineCoeffs, fit_2d, solve_cyclic_banded


@dataclass(frozen=True)
class FieldState2D:
    gx: UniformGrid1D
    gy: UniformGrid1D
    phi: np.ndarray
    Ex: np.ndarray
    Ey: np.ndarray
    E_spline: SplineCoeffs  # components (Ey, Ex) on the trailing axis


def _check_shape(arr, gx, gy, name):
    arr = np.asarray(arr, dtype=float)
    if arr.shape != (gx.n_nodes, gy.n_nodes):
        raise ValueError(
            f"{name}: expected shape {(gx.n_nodes, gy.n_nodes)}, got {arr.shape}"
        )
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"non-finite {name}")
    return arr


def solve_potential(rho, gx: UniformGrid1D, gy: UniformGrid1D):
    """Potential of -laplace(phi) = rho, periodic in x, phi = 0 at the y walls.

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
    rho = _check_shape(rho, gx, gy, "rho")
    if gy.periodic:
        raise ValueError("y grid must be natural (Dirichlet walls)")
    dy = gy.delta
    k = gy.n_nodes - 2
    rhs = -(dy**2 / 12.0) * (rho[:, 2:] + 10.0 * rho[:, 1:-1] + rho[:, :-2])
    rhs_hat = np.fft.rfft(dst(rhs, type=1, axis=1), axis=0)
    xi2 = (2.0 * np.pi * np.fft.rfftfreq(gx.n_nodes, d=gx.delta)) ** 2
    off = 1.0 - xi2 * dy**2 / 12.0
    diag = -2.0 - 10.0 * xi2 * dy**2 / 12.0
    lam = diag[:, None] + 2.0 * off[:, None] * np.cos(np.pi * np.arange(1, k + 1) / (k + 1))
    phi = np.zeros_like(rho)
    phi[:, 1:-1] = idst(np.fft.irfft(rhs_hat / lam, n=gx.n_nodes, axis=0), type=1, axis=1)
    return phi


def compute_Ex(phi, gx: UniformGrid1D, gy: UniformGrid1D):
    """x field from the per-row Simpson relation (periodic compact system)

      2 dx [ (1/6) Ex_{i-1} + (2/3) Ex_i + (1/6) Ex_{i+1} ] = phi_{i-1} - phi_{i+1}
    """
    phi = _check_shape(phi, gx, gy, "phi")
    rhs = (np.roll(phi, 1, axis=0) - np.roll(phi, -1, axis=0)) / (2.0 * gx.delta)
    return solve_cyclic_banded(rhs)


def compute_Ey(phi, rho, gx: UniformGrid1D, gy: UniformGrid1D):
    """y field: interior Simpson rows plus corrected-midpoint wall rows.

    The wall rows integrate E over the first (last) cell by the midpoint
    rule corrected with the density jump and an x-curvature term,

      (dy/2)(E_0 + E_1) = phi_0 - phi_1 + (dy^2/12)(rho_1 - rho_0)
                          + (dy^2/12) dxx(phi_1 - phi_0),

    with the x second derivative evaluated spectrally.  Third order or
    better at the walls, fourth order inside.
    """
    phi = _check_shape(phi, gx, gy, "phi")
    rho = _check_shape(rho, gx, gy, "rho")
    ny = gy.n_nodes
    dy = gy.delta
    ab = np.zeros((3, ny))
    ab[0, 1:] = 1.0 / 6.0
    ab[2, :-1] = 1.0 / 6.0
    ab[1, :] = 2.0 / 3.0
    ab[0, 1] = 0.5
    ab[1, 0] = 0.5
    ab[2, -2] = 0.5
    ab[1, -1] = 0.5

    xi2 = (2.0 * np.pi * np.fft.fftfreq(gx.n_nodes, d=gx.delta)) ** 2  # x wavenumbers

    def dxx(g):
        return np.real(np.fft.ifft(-xi2 * np.fft.fft(g)))

    rhs = np.zeros((ny, gx.n_nodes))
    rhs[1:-1, :] = ((phi[:, :-2] - phi[:, 2:]) / (2.0 * dy)).T
    rhs[0, :] = (
        (phi[:, 0] - phi[:, 1]) / dy
        + (dy / 12.0) * (rho[:, 1] - rho[:, 0])
        + (dy / 12.0) * dxx(phi[:, 1] - phi[:, 0])
    )
    rhs[-1, :] = (
        (phi[:, -2] - phi[:, -1]) / dy
        + (dy / 12.0) * (rho[:, -1] - rho[:, -2])
        + (dy / 12.0) * dxx(phi[:, -1] - phi[:, -2])
    )
    return solve_banded((1, 1), ab, rhs).T


def solve_fields(rho, gx: UniformGrid1D, gy: UniformGrid1D) -> FieldState2D:
    """Full pipeline: potential, both field components, and their splines."""
    phi = solve_potential(rho, gx, gy)
    ex = compute_Ex(phi, gx, gy)
    ey = compute_Ey(phi, rho, gx, gy)
    return FieldState2D(gx, gy, phi, ex, ey, fit_2d(np.stack([ey, ex], axis=-1), gx, gy))
