"""Envelope reference for the externally driven oscillator x'' + a(t) x = 0.

With a 2 pi-periodic coefficient a(t) in a stable zone, the amplitude
envelope w(t) obeys

    w'' + a(t) w - 1/w^3 = 0,

and is the modulus of a complex solution u of the oscillator.  For the
matched initial amplitude (the one whose phase-space ellipse is invariant
under the one-period monodromy map), w is periodic with a's period, and the
Gaussian initial state exp(-x^2/(2 w0^2) - w0^2 v^2 / 2) keeps

    x_rms(t) = sqrt(2 pi) w(t)

exactly, which is the oracle the order sweeps compare against.

The oscillator is linear, so each RK4 step of (x, x') is a 2x2 matrix,
all built at once from a on the step times.  Their ordered product,
reduced by pairs, is the monodromy matrix; their inclusive prefix product
is the fundamental matrix S at every step, and from u(0) = w0,
u'(0) = i / w0, u = S_00 w0 + i S_01 / w0 and w = |u| (Courant and
Snyder, Ann. Phys. 3 (1958) 1).
"""

from __future__ import annotations

import numpy as np

TWO_PI = 2.0 * np.pi
_EYE = np.eye(2)
DT_REF = 1e-4 * TWO_PI


def _step_matrices(a, times):
    """The RK4 step matrices P = I + h/6 (A1 + 2 A2 + 2 A3 + A4) in time order,
    with A1 = K(t) and A_i+1 = K(t + c h)(I + c h A_i), and the step count up
    to each of ``times``; an interval takes max(1, ceil(span / DT_REF)) steps."""
    span = np.diff(times)
    counts = np.maximum(1, np.ceil(span / DT_REF).astype(int))
    ends = np.concatenate([[0], np.cumsum(counts)])
    h = np.repeat(span / counts, counts)
    t = np.repeat(times[:-1], counts) + (np.arange(ends[-1]) - np.repeat(ends[:-1], counts)) * h

    def K(s):  # [[0, 1], [-a(s), 0]]
        k = np.zeros(s.shape + (2, 2))
        k[:, 0, 1], k[:, 1, 0] = 1.0, -np.broadcast_to(a(s), s.shape)
        return k

    p = K(t)  # the sum, built in place: few (n, 2, 2) arrays are alive at once
    k = p.copy()
    for c, w in ((0.5, 2.0), (0.5, 2.0), (1.0, 1.0)):
        k = K(t + c * h) @ (_EYE + (c * h)[:, None, None] * k)
        p += w * k
    return _EYE + (h / 6.0)[:, None, None] * p, ends


def matched_omega0(a) -> float:
    """Initial envelope amplitude whose ellipse the monodromy map preserves.

    For an even coefficient the invariant ellipse of the monodromy matrix
    [[A, B], [C, D]] is axis-aligned and w0 = sqrt(B / sin theta),
    cos theta = (A + D)/2.  Raises outside the stable zone.
    """
    m, _ = _step_matrices(a, np.array([0.0, TWO_PI]))
    while len(m) > 1:
        if len(m) % 2:
            m = np.concatenate([m, _EYE[None]])
        m = m[1::2] @ m[0::2]
    (A, B), (C, D) = m[0]
    tr = A + D
    if abs(tr) >= 2.0:
        raise ValueError(f"a(t) is not in a stable zone (|tr M| = {abs(tr):.4f})")
    sin_theta = np.sqrt(1.0 - (tr / 2.0) ** 2)
    if abs(A - D) > 1e-6:
        raise ValueError("monodromy ellipse is not axis-aligned; a(t) must be even")
    return float(np.sqrt(abs(B / sin_theta)))  # the sign of sin theta follows the rotation


def hill_envelope(a, times, omega0: float | None = None) -> np.ndarray:
    """The envelope w from (w0, w' = 0) at the output instants
    ``times`` (first entry is the start time); the prefix product is a
    Hillis-Steele scan of log2 n batched products.  When omega0 is None
    the matched amplitude is computed first."""
    times = np.asarray(times, dtype=float)
    if omega0 is None:
        omega0 = matched_omega0(a)
    if omega0 <= 0:
        raise ValueError("omega0 must be positive")
    s, ends = _step_matrices(a, times)
    d = 1
    while d < len(s):
        s[d:] = s[d:] @ s[:-d]
        d *= 2
    u = np.concatenate([[omega0], s[:, 0, 0] * omega0 + 1j * s[:, 0, 1] / omega0])
    return np.abs(u)[ends]


def hill_reference_xrms(w):
    """Reference x_rms series sqrt(2 pi) w(t) of the unnormalized Gaussian
    initial state."""
    return np.sqrt(TWO_PI) * w
