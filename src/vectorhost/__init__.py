"""Numerical toolkit for a spatial vector-host epidemic model.

Assembles the reaction-diffusion system on a 1D interval, computes the
principal eigenvalues and steady states that govern its long-time
behavior, integrates the parabolic dynamics, and packages threshold
experiments behind a CLI.
"""

from .dynamics import (
    ComparisonReport,
    State,
    StepperConfig,
    compare_trajectories,
    integrate,
    integrate_aux_pair,
    integrate_scalar_logistic,
    stability_dt_max,
    step,
)
from .eigen import (
    ScalarEigenpair,
    SystemEigenpair,
    principal_eigen_scalar,
    principal_eigen_system,
)
from .errors import (
    AdmissibilityError,
    BlowUpError,
    ConfigError,
    ConvergenceError,
    MeshMismatchError,
    MonotonicityError,
    SingularSystemError,
    StabilityError,
    UniquenessViolation,
    ValidationError,
    VectorHostError,
)
from .grid import (
    BoundarySpec,
    CoefficientSet,
    Mesh1D,
    ScalarField,
    build_mesh,
    field_from_constant,
    positive_part,
    sup_distance,
    sup_norm,
)
from .operators import EllipticOperator, ShiftedSolve, assemble, solve
from .steady import (
    EndemicAbsent,
    EndemicEquilibrium,
    EndemicProblem,
    LogisticSteady,
    monotone_iterate,
    solve_endemic,
    solve_logistic,
    upper_solution_h,
)
from .verify import (
    AbsenceReport,
    EnvelopeReport,
    Scenario,
    ThresholdReport,
    check_endemic_absence,
    check_envelope_dirichlet,
    random_coefficients,
    random_initial,
    random_scenario,
    run_threshold_experiment,
)

__version__ = "0.1.0"
