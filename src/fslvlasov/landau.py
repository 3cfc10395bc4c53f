"""Kinetic dispersion relation of the Maxwellian plasma and its dominant root.

The electric-field response of the linearized system factors through

    D(k, w) = 1 - Z'(w / (sqrt(2) k)) / (2 k^2),
    N(k, w) = i Z(w / (sqrt(2) k)) / (2 sqrt(2) k^2),

with Z the plasma dispersion function.  The dominant root of D = 0 (the
least-damped pair +/- w_r + i w_i) and the residue N / dD/dw at it give
the closed-form reference field used to benchmark Landau-damping runs:

    E(x, t) = 4 alpha r exp(w_i t) sin(k x) cos(w_r t - phi),

where r exp(i phi) = i N / dD/dw at the root with w_r > 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import wofz

SQRT_PI = np.sqrt(np.pi)
SQRT2 = np.sqrt(2.0)

#: validated strip for plasma_Z (|Im eta| beyond this risks overflow)
IM_STRIP = 10.0


@dataclass(frozen=True)
class DispersionRoot:
    k: float
    omega_r: float
    omega_i: float
    r: float
    phi: float


def plasma_Z(eta):
    """Plasma dispersion function Z(eta) = i sqrt(pi) w(eta).

    Evaluated through the Faddeeva function (scaled complementary error
    function), which handles the analytic continuation into the lower
    half-plane explicitly.  Validated for |Im eta| <= 10; raises instead
    of silently returning non-finite values outside that strip.
    """
    eta = np.asarray(eta, dtype=complex)
    if np.any(np.abs(eta.imag) > IM_STRIP):
        raise ValueError(f"plasma_Z validated only for |Im eta| <= {IM_STRIP}")
    out = 1j * SQRT_PI * wofz(eta)
    if not np.all(np.isfinite(out)):
        raise FloatingPointError("plasma_Z overflow")
    return complex(out) if out.ndim == 0 else out


def plasma_Z_prime(eta):
    """Z'(eta) = -2 (1 + eta Z(eta))."""
    return -2.0 * (1.0 + np.asarray(eta, dtype=complex) * plasma_Z(eta))


def _plasma_Z_second(eta):
    return -2.0 * (plasma_Z(eta) + np.asarray(eta, dtype=complex) * plasma_Z_prime(eta))


def _check_k(k):
    if not k > 0:
        raise ValueError("k must be positive")


def dispersion_D(k: float, omega):
    _check_k(k)
    return 1.0 - plasma_Z_prime(omega / (SQRT2 * k)) / (2.0 * k**2)


def dispersion_N(k: float, omega):
    _check_k(k)
    return 1j * plasma_Z(omega / (SQRT2 * k)) / (2.0 * SQRT2 * k**2)


def dispersion_D_omega(k: float, omega):
    """Partial derivative of D with respect to omega."""
    _check_k(k)
    return -_plasma_Z_second(omega / (SQRT2 * k)) / (2.0 * k**2 * SQRT2 * k)


def _newton(k, w0):
    w = complex(w0)
    for _ in range(100):
        step = dispersion_D(k, w) / dispersion_D_omega(k, w)
        w -= step
        if abs(step) < 1e-13:
            return w
    raise RuntimeError(
        f"dispersion root search did not converge for k={k}: "
        f"last w={w}, |D|={abs(dispersion_D(k, w)):.3e}"
    )


def solve_dominant_root(k: float) -> DispersionRoot:
    """Least-damped dispersion root (w_r > 0 member) and its residue.

    Newton iteration seeded by the Bohm-Gross estimate w^2 = 1 + 3 k^2;
    if that stalls or leaves plasma_Z's strip (k = 1 does), a coarse scan
    of |D| over a box in omega reseeds it.
    """
    _check_k(k)
    if k > 1.0:
        raise ValueError("dominant-root solver validated for 0 < k <= 1")
    guess = np.sqrt(1.0 + 3.0 * k**2) - 0.01j
    try:
        w = _newton(k, guess)
    except (RuntimeError, ValueError):  # a stall, or plasma_Z's strip error
        wr = np.linspace(0.5, 2.5, 81)
        wi = np.linspace(-1.0, 0.0, 41)
        grid = wr[:, None] + 1j * wi[None, :]
        vals = np.abs(dispersion_D(k, grid.ravel())).reshape(grid.shape)
        w = _newton(k, grid[np.unravel_index(np.argmin(vals), vals.shape)])
    if w.real < 0:
        w = complex(-w.real, w.imag)
    if abs(dispersion_D(k, w)) > 1e-10:
        raise RuntimeError(f"root residual too large for k={k}")
    residue = 1j * dispersion_N(k, w) / dispersion_D_omega(k, w)
    return DispersionRoot(k, w.real, w.imag, abs(residue), float(np.angle(residue)))


def landau_reference_E(x, t, k: float, alpha: float, root: DispersionRoot | None = None):
    """Dominant-mode field E(x, t) = 4 alpha r e^{w_i t} sin(kx) cos(w_r t - phi).

    Approximate for roughly the first wave period, excellent afterwards
    (the subdominant roots decay much faster).
    """
    if root is None:
        root = solve_dominant_root(k)
    return (
        4.0
        * alpha
        * root.r
        * np.exp(root.omega_i * np.asarray(t, dtype=float))
        * np.sin(k * np.asarray(x, dtype=float))
        * np.cos(root.omega_r * np.asarray(t, dtype=float) - root.phi)
    )


def dispersion_table():
    """Rows (k, w_r, w_i, r, phi) at k = 0.2, 0.3, ..., 0.6 for the demo table."""
    roots = (solve_dominant_root(k) for k in (0.2, 0.3, 0.4, 0.5, 0.6))
    return [(root.k, root.omega_r, root.omega_i, root.r, root.phi) for root in roots]
