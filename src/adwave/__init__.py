"""Numerical laboratory for fractional wave dynamics in adhesive layers.

Simulates u_tt + (-Delta)^s u + grad W(u) = 0 on a bounded region with an
exterior zero condition, for adhesive-layer potentials W whose gradient may
jump on a critical set of states. Provides spectrally accurate operators and
norms, energy-structure-preserving time integration, regularized potential
families with numerical certification, and scripted experiments measuring
the energy inequality, the regularization limit and its obstruction for flat
states, small-data confinement, and free-wave dispersion.
"""

from .spectral import (
    EXTERIOR_DIRICHLET,
    NEUMANN_1D,
    PERIODIC,
    Domain,
    DomainError,
    GridMismatchError,
    ParameterError,
    SpectralOperator,
    apply_fractional_laplacian,
    build_operator,
    embedding_constant,
    hs_norm,
    l2_inner,
    l2_norm,
    seminorm_s,
)
from .potentials import (
    Potential,
    RegularizedFamily,
    ball_potential,
    certify_family,
    clipped_quadratic,
    constant_family,
    linear_taper_family,
    mollified_family,
    zero_potential,
)
from .dynamics import (
    BlowUpError,
    EnergyBreakdown,
    FieldState,
    SimConfig,
    SimConfigError,
    Trajectory,
    apriori_l2_bound,
    bump_field,
    energies,
    energy,
    simulate,
    step,
    sup_bound_from_energy,
    weak_residual,
)
from .experiments import (
    run_dispersion_check,
    run_energy_inequality,
    run_epsilon_convergence,
    run_limit_obstruction,
    run_small_data,
)
from .reporting import Check, ExperimentReport

__version__ = "0.1.0"
