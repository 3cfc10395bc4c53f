"""Envelope reference for the externally driven oscillator x'' + a(t) x = 0.

With a periodic coefficient a(t) in a stable zone, the amplitude
envelope w(t) obeys

    w'' + a(t) w - 1/w^3 = 0,    psi' = 1/w^2,

and u = w exp(i psi) solves the oscillator.  For the matched initial
amplitude (the one whose phase-space ellipse is invariant under the
one-period monodromy map), w is periodic with a's period, and the
Gaussian initial state exp(-x^2/(2 w0^2) - w0^2 v^2 / 2) keeps

    x_rms(t) = sqrt(2 pi) w(t)

exactly, which is the oracle the order sweeps compare against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class HillEnvelope:
    times: np.ndarray
    omega: np.ndarray
    psi: np.ndarray
    dt_ref: float


def _rk4_path(f, y0, times, dt_ref):
    """RK4 reference integration recording the state at the given times."""
    y = np.array(y0, dtype=float)
    t = float(times[0])
    out = [y.copy()]
    for t_next in times[1:]:
        span = t_next - t
        n = max(1, int(np.ceil(span / dt_ref)))
        h = span / n
        for _ in range(n):
            k1 = f(t, y)
            k2 = f(t + 0.5 * h, y + 0.5 * h * k1)
            k3 = f(t + 0.5 * h, y + 0.5 * h * k2)
            k4 = f(t + h, y + h * k3)
            y = y + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            t += h
        t = float(t_next)
        out.append(y.copy())
    return np.array(out)


def matched_omega0(a, period: float = TWO_PI, dt_ref: float = 1e-4 * TWO_PI) -> float:
    """Initial envelope amplitude whose ellipse the monodromy map preserves.

    Integrates the two fundamental solutions of x'' + a x = 0 over one
    period, as the columns of the monodromy matrix [[A, B], [C, D]]; for
    an even coefficient the invariant ellipse is axis-aligned and
    w0 = sqrt(B / sin theta), cos theta = (A + D)/2.  Raises outside the
    stable zone.
    """

    def rhs(t, y):
        return np.array([y[1], -a(t) * y[0]])

    (A, B), (C, D) = _rk4_path(rhs, np.eye(2), np.array([0.0, period]), dt_ref)[-1]
    tr = A + D
    if abs(tr) >= 2.0:
        raise ValueError(f"a(t) is not in a stable zone (|tr M| = {abs(tr):.4f})")
    sin_theta = np.sqrt(1.0 - (tr / 2.0) ** 2)
    if abs(A - D) > 1e-6:
        raise ValueError("monodromy ellipse is not axis-aligned; a(t) must be even")
    beta = B / sin_theta
    if beta <= 0:
        beta = -beta  # sign of sin(theta) flips with the rotation direction
    return float(np.sqrt(beta))


def hill_envelope(a, times, omega0: float | None = None,
                  dt_ref: float = 1e-4 * TWO_PI) -> HillEnvelope:
    """Integrate the envelope system from (w0, w' = 0, psi = 0).

    ``times`` are the output instants (first entry is the start time).
    When omega0 is None the matched amplitude is computed first.
    """
    times = np.asarray(times, dtype=float)
    if omega0 is None:
        omega0 = matched_omega0(a, dt_ref=dt_ref)
    if omega0 <= 0:
        raise ValueError("omega0 must be positive")

    def rhs(t, y):
        w = y[0]
        if w <= 0.0:
            raise FloatingPointError("envelope amplitude reached zero")
        return np.array([y[1], -a(t) * w + 1.0 / w**3, 1.0 / w**2])

    path = _rk4_path(rhs, [omega0, 0.0, 0.0], times, dt_ref)
    env = HillEnvelope(times, path[:, 0], path[:, 2], dt_ref)
    if np.any(env.omega <= 0.0):
        raise ValueError("envelope left the valid regime (omega <= 0)")
    return env


def hill_reference_xrms(env: HillEnvelope, amplitude: float = np.sqrt(TWO_PI)):
    """Reference x_rms series: amplitude * w(t) (amplitude = sqrt(2 pi)
    for the unnormalized Gaussian initial state)."""
    return amplitude * env.omega
