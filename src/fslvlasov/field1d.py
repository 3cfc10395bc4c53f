"""Periodic 1D Poisson solve: dE/dx = rho - <rho>, zero-mean E, whose
spline is fitted on first read (``FieldState1D``)."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grids import UniformGrid1D
from .splines import fit_1d


@dataclass(frozen=True)
class FieldState1D:
    """Node values ``E`` on ``grid`` and their spline ``E_spline``, fitted on first
    read: the remap's node field, BSL's half step and the hybrid rows fit none."""

    grid: UniformGrid1D
    E: np.ndarray
    E_spline = cached_property(lambda self: fit_1d(self.E, self.grid))


def solve_poisson_1d(rho, grid: UniformGrid1D) -> FieldState1D:
    """Solve dE/dx = rho - rho_i spectrally with zero-mean E.

    rho_i is the instantaneous mean of rho, which guarantees solvability
    even when deposition lost a little mass at the velocity walls.  The
    k=0 (and Nyquist) modes of E are set to zero.
    """
    if not grid.periodic:
        raise ValueError("1D Poisson solve requires a periodic grid")
    rho = np.asarray(rho, dtype=float)
    if rho.shape != (grid.n_nodes,):
        raise ValueError(f"expected {grid.n_nodes} samples, got {rho.shape}")
    n = grid.n_nodes
    rho_i = float(rho.mean())
    rho_hat = np.fft.rfft(rho - rho_i)
    kappa = 2.0 * np.pi * np.fft.rfftfreq(n, d=grid.delta)
    e_hat = np.zeros_like(rho_hat)
    e_hat[1:] = rho_hat[1:] / (1j * kappa[1:])
    if n % 2 == 0:
        e_hat[-1] = 0.0  # unpaired Nyquist mode has no real antiderivative
    return FieldState1D(grid, np.fft.irfft(e_hat, n=n))
