"""Positivity-preserving Lie-Trotter splitting for nonlinear stochastic
heat equations driven by a scalar Brownian motion, with classical
comparator integrators and Monte Carlo experiment drivers."""

__version__ = "0.1.0"

from .mesh import Grid, GridField, min_value, sample_initial, sine_initial, sup_norm
from .heat_operator import HeatOperator, PositivityDiagnosticsError
from .noise_paths import coarsen_increments, sample_path
from .nonlinearity import (
    Nonlinearity,
    NonlinearityKind,
    eval_f,
    eval_g,
    from_name,
    linear,
    log1p,
    rational,
    sine_plus,
    zero,
)
from .integrators import (
    IntegratorKind,
    PathRecord,
    StepContext,
    exact_linear_solution,
    run_path,
    step,
)
from .experiments import (
    CensusConfig,
    ConvergenceConfig,
    ExperimentReport,
    mean_square_error_study,
    mesh_independence_study,
    moment_bound_study,
    positivity_census,
    write_report,
)

__all__ = [
    "Grid",
    "GridField",
    "sample_initial",
    "sine_initial",
    "sup_norm",
    "min_value",
    "HeatOperator",
    "PositivityDiagnosticsError",
    "sample_path",
    "coarsen_increments",
    "Nonlinearity",
    "NonlinearityKind",
    "linear",
    "rational",
    "sine_plus",
    "log1p",
    "zero",
    "from_name",
    "eval_f",
    "eval_g",
    "IntegratorKind",
    "StepContext",
    "PathRecord",
    "run_path",
    "step",
    "exact_linear_solution",
    "CensusConfig",
    "ConvergenceConfig",
    "ExperimentReport",
    "positivity_census",
    "mean_square_error_study",
    "mesh_independence_study",
    "moment_bound_study",
    "write_report",
    "__version__",
]
