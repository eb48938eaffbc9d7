"""Numerics for a stochastic diffusion with logarithmic flux on an interval.

The package simulates d X = div grad Phi_eps(X) dt + dW_Q pathwise on a
Dirichlet grid, where Phi_eps is a smoothed signed-logarithm flux, and
provides the quantitative checks (energy bound, flux integral, solution
inequality, regularization convergence) used to validate the runs.
"""

from .config import ConfigError, ExperimentConfig, parse_config
from .grid import (
    EigenSystem,
    Field,
    GridSpec,
    eigensystem,
    neg_laplacian_inverse,
    norm_hminus1,
    norm_l2,
)
from .noise import (
    ExplicitGammas,
    NoisePath,
    NoiseSpec,
    OscillationError,
    PowerLawGammas,
    restrict,
    synthesize,
    validate_decay,
)
from .nonlinearity import (
    moreau_envelope,
    potential,
    resolvent,
    signed_log,
    yosida,
    yosida_derivative,
    yosida_shifted,
)
from .solver import (
    SolverConfig,
    StepFailureError,
    Trajectory,
    epsilon_sweep,
    run_ensemble,
    solve_explicit,
    solve_path,
    solve_rows,
)
from .verifier import (
    Report,
    build_test_process,
    flux_l1_integral,
    hminus1_sup,
    mean_square_bound,
    total_variation,
    uniqueness_distance,
    variational_residual,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "EigenSystem",
    "ExperimentConfig",
    "ExplicitGammas",
    "Field",
    "GridSpec",
    "NoisePath",
    "NoiseSpec",
    "OscillationError",
    "PowerLawGammas",
    "Report",
    "SolverConfig",
    "StepFailureError",
    "Trajectory",
    "build_test_process",
    "eigensystem",
    "epsilon_sweep",
    "flux_l1_integral",
    "hminus1_sup",
    "mean_square_bound",
    "moreau_envelope",
    "neg_laplacian_inverse",
    "norm_hminus1",
    "norm_l2",
    "parse_config",
    "potential",
    "resolvent",
    "restrict",
    "run_ensemble",
    "signed_log",
    "solve_explicit",
    "solve_path",
    "solve_rows",
    "synthesize",
    "total_variation",
    "uniqueness_distance",
    "validate_decay",
    "variational_residual",
    "yosida",
    "yosida_derivative",
    "yosida_shifted",
]
