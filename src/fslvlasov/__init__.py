"""Forward semi-Lagrangian phase-space solver for kinetic plasma models.

Grid-seeded spline particles are pushed forward along the characteristics
and scattered back onto the phase-space grid with cubic B-spline weights.
Covers the 1Dx1V Vlasov-Poisson system, the 2D guiding-center model, an
external-force order-checking harness, a hybrid variant remapping every T
steps, and a backward semi-Lagrangian comparator, together with the
analytic references (kinetic dispersion roots, envelope equation) used to
benchmark them.
"""

__version__ = "0.1.0"
