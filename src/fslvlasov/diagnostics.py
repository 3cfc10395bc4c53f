"""Scalar and profile observables, plus damping-rate fitting.

All grid functionals use the rectangle rule (delta-weighted node sums
over every owned node), which keeps the deposition mass identity an
exact statement rather than a quadrature approximation.
"""

from __future__ import annotations

import numpy as np

from .grids import UniformGrid1D


def _cell_area(grids) -> float:
    a = 1.0
    for g in grids:
        a *= g.delta
    return a


def mass(f_nodes, grids) -> float:
    return _cell_area(grids) * float(np.sum(f_nodes))


def lp_norm(f_nodes, grids, p: float) -> float:
    if p < 1:
        raise ValueError("p must be >= 1")
    return float(
        (_cell_area(grids) * np.sum(np.abs(f_nodes) ** p)) ** (1.0 / p)
    )


def momentum(f_nodes, grids) -> float:
    """Integral of v f over phase space (second grid is the velocity one)."""
    gv = grids[1]
    return _cell_area(grids) * float(np.sum(f_nodes * gv.nodes()[None, :]))


def kinetic_energy_vp(f_nodes, grids) -> float:
    """Integral of v^2 f (no 1/2: the conserved combination is v^2 f + E^2)."""
    gv = grids[1]
    return _cell_area(grids) * float(np.sum(f_nodes * gv.nodes()[None, :] ** 2))


def electric_energy_1d(E, grid: UniformGrid1D) -> float:
    """One half of the squared L2 norm of E."""
    return 0.5 * grid.delta * float(np.sum(np.asarray(E) ** 2))


def fourier_mode_amps(values, grid: UniformGrid1D):
    """|FFT| amplitudes of the x harmonics 1, 2 and 3, normalized by N.

    For values = A sin(2 pi m x / L) the mode-m amplitude is A/2.  A
    harmonic above the last rfft bin (N // 2) is not resolved and reads NaN.
    """
    if not grid.periodic:
        raise ValueError("mode amplitudes need a periodic grid")
    v = np.asarray(values, dtype=float)
    spec = np.abs(np.fft.rfft(v)) / grid.n_nodes
    return tuple(float(spec[m]) if m < spec.size else np.nan for m in (1, 2, 3))


def xrms(f_nodes, grids) -> float:
    """sqrt of the x^2 moment of f (the envelope observable).  A negative
    moment, from an under-resolved f that dips below zero, reads NaN."""
    gx = grids[0]
    m2 = _cell_area(grids) * float(np.sum(f_nodes * gx.nodes()[:, None] ** 2))
    return float(np.sqrt(m2)) if m2 >= 0.0 else np.nan


def integrated_fv(f_nodes, grids) -> np.ndarray:
    """Spatially integrated profile F(v) = dx * sum_i f(x_i, v)."""
    return grids[0].delta * np.sum(np.asarray(f_nodes), axis=0)


def energy_2d(ex, ey, grids) -> float:
    """Integral of |E|^2 over the 2D box."""
    return _cell_area(grids) * float(np.sum(np.asarray(ex) ** 2 + np.asarray(ey) ** 2))


def enstrophy(rho, grids) -> float:
    """Integral of rho^2 over the 2D box."""
    return _cell_area(grids) * float(np.sum(np.asarray(rho) ** 2))


# ---------------------------------------------------------------------------
# damping-rate and frequency extraction


def series_peaks(t, y, t_min=None, t_max=None):
    """Local maxima of y(t) with parabolic sub-sample refinement.

    Returns (peak_times, peak_values).  Refinement is done on the values
    as given; pass log-values for exponentially decaying series.
    """
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    keep = np.ones(t.size, dtype=bool)
    if t_min is not None:
        keep &= t >= t_min
    if t_max is not None:
        keep &= t <= t_max
    t, y = t[keep], y[keep]
    if t.size < 3:
        return np.array([]), np.array([])
    idx = np.nonzero((y[1:-1] > y[:-2]) & (y[1:-1] >= y[2:]))[0] + 1
    times, vals = [], []
    for i in idx:
        denom = y[i - 1] - 2.0 * y[i] + y[i + 1]
        if denom < 0.0:
            delta = 0.5 * (y[i - 1] - y[i + 1]) / denom
            dt_loc = 0.5 * (t[i + 1] - t[i - 1])
            times.append(t[i] + delta * dt_loc)
            vals.append(y[i] - 0.25 * (y[i - 1] - y[i + 1]) * delta)
        else:
            times.append(t[i])
            vals.append(y[i])
    return np.array(times), np.array(vals)


def fit_damping(t, ee, t_min=None, t_max=None):
    """Damping rate and frequency from a (t, 0.5*||E||^2) series.

    gamma is half the least-squares slope of log(peak values) against the
    peak times (the squared norm decays at 2*gamma); omega = pi / (mean
    peak spacing), since the squared norm oscillates at twice the wave
    frequency.  Raises ValueError when fewer than 5 peaks are found.
    """
    ee = np.asarray(ee, dtype=float)
    safe = np.where(ee > 0.0, ee, np.nan)
    log_ee = np.log(safe)
    good = np.isfinite(log_ee)
    tp, vp = series_peaks(np.asarray(t)[good], log_ee[good], t_min, t_max)
    if tp.size < 5:
        raise ValueError(f"too few peaks ({tp.size}) to fit damping")
    slope = np.polyfit(tp, vp, 1)[0]
    gamma = 0.5 * float(slope)
    omega = float(np.pi / np.mean(np.diff(tp)))
    return gamma, omega
