"""Forward semi-Lagrangian phase-space solver for kinetic plasma models.

Grid-seeded spline particles are pushed forward along the characteristics
and scattered back onto the phase-space grid with cubic B-spline weights.
Covers the 1Dx1V Vlasov-Poisson system, the 2D guiding-center model, an
external-force order-checking harness, a hybrid variant remapping every T
steps, and a backward semi-Lagrangian comparator, together with the
analytic references (kinetic dispersion roots, envelope equation) used to
benchmark them.
"""

from .bsl import bsl_step
from .cases import CaseConfig, ConfigError, case_defaults, parse_config
from .deposition import (
    ParticleSet,
    deposit_charge,
    deposit_phase_space,
    seed_particles,
)
from .field1d import FieldState1D, solve_poisson_1d
from .field2d import (
    FieldState2D,
    compute_Ex,
    compute_Ey,
    solve_fields,
    solve_potential,
)
from .grids import NATURAL, PERIODIC, UniformGrid1D
from .hill import HillEnvelope, hill_envelope, hill_reference_xrms, matched_omega0
from .landau import (
    DispersionRoot,
    dispersion_D,
    dispersion_N,
    dispersion_table,
    landau_reference_E,
    plasma_Z,
    plasma_Z_prime,
    solve_dominant_root,
)
from .solver import (
    NumericsAbort,
    RunResult,
    SimState,
    init,
    read_snapshot,
    run,
    step,
)
from .splines import SplineCoeffs, basis_eval, eval_1d, eval_2d, fit_1d, fit_2d, fit_2d_rfft

__version__ = "0.1.0"
