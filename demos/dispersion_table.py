"""Dominant kinetic dispersion roots for a range of wavenumbers.

For each k the least-damped root of D(k, omega) = 0 gives the wave
frequency and Landau damping rate; the residue of N/D there gives the
amplitude and phase of the dominant-mode field used as the benchmark
reference.
"""

import numpy as np

from fslvlasov.landau import dispersion_table, landau_reference_E, solve_dominant_root

print(f"{'k':>4} {'omega_r':>12} {'omega_i':>12} {'r':>12} {'phi':>12}")
for k, wr, wi, r, phi in dispersion_table():
    print(f"{k:4.1f} {wr:12.7f} {wi:12.7f} {r:12.7f} {phi:12.7f}")

root = solve_dominant_root(0.5)
print("\ndominant-mode field for k = 0.5, alpha = 0.001 at x = pi/k/2:")
for t in (0.0, 5.0, 10.0, 20.0):
    e = landau_reference_E(np.pi, t, 0.5, 0.001, root)
    print(f"  t = {t:5.1f}: E = {e:+.3e}")
