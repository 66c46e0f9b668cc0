"""Positivity-preserving Lie-Trotter splitting for nonlinear stochastic
heat equations driven by a scalar Brownian motion, with classical
comparator integrators and Monte Carlo experiment drivers."""

__version__ = "0.1.0"

from .mesh import Grid, sample_initial, sine_initial
from .heat_operator import HeatFlow, HeatOperator, PositivityDiagnosticsError
from .noise_paths import coarsen_increments, sample_path
from .nonlinearity import Nonlinearity, from_name
from .integrators import IntegratorKind, PathRecord, StepContext, run_path
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
    "sample_initial",
    "sine_initial",
    "HeatOperator",
    "HeatFlow",
    "PositivityDiagnosticsError",
    "sample_path",
    "coarsen_increments",
    "Nonlinearity",
    "from_name",
    "IntegratorKind",
    "StepContext",
    "PathRecord",
    "run_path",
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
