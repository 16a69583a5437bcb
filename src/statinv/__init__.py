"""statinv: statistical regularization of ill-posed linear inverse problems.

The package provides discrete compact operators on L2[0, 1], regularization
filters with their defining property checks, noise models in the
sequence-space and regression settings, a first-difference noise-level
estimator with a fixed-point refinement loop, Lepskii-type balancing
parameter choices (known and estimated noise level), and a Monte Carlo
harness for convergence studies -- including the construction of a purely
data-driven convergent method for an ill-posed problem.
"""

from .choice import (
    DiscrepancyResult,
    LepskiiConfig,
    LepskiiResult,
    LevelSolverCache,
    OracleResult,
    data_driven_choose,
    discrepancy_principle,
    geometric_grid,
    lepskii_choose,
    oracle_choice,
)
from .discretization import (
    LevelData,
    LevelSchedule,
    embed_vector,
    n_of,
    nested_level,
    project,
    project_operator,
    project_vector,
)
from .errors import ConfigError, DataUnavailableError, WhiteNoiseError
from .filters import (
    Filter,
    FilterPropertyReport,
    RegularizedSolution,
    bias_value,
    convergence_to_pseudoinverse,
    filter_value,
    monte_carlo_variance,
    regularize_normal_equations,
    regularize_svd,
    spectral_cutoff,
    spectral_series,
    tikhonov,
    variance_bound,
    verify_filter_properties,
)
from .grid import Grid, L2Vector
from .harness import (
    BiasVarianceReport,
    Choice,
    ExperimentConfig,
    MseRow,
    VetoRow,
    choose,
    parse_config,
    run_bias_variance_check,
    run_mse_study,
    run_study,
    run_veto_study,
    write_mse_csv,
    write_veto_csv,
)
from .noise import (
    NoiseSpec,
    Observation,
    draw_noise,
    observation_to_csv,
    observe,
    pointwise_values,
)
from .noise_level import (
    ConcentrationReport,
    EstimatorConfig,
    NoiseEstimate,
    estimate_delta_sq,
    omega_plus_rate,
    refine_delta_hat,
)
from .operators import (
    DiscreteOperator,
    IntegrationOperator,
    SourceCondition,
    apply,
    build_holder_kernel_operator,
    build_integration_operator,
    discretization_defect,
    generalized_inverse_apply,
)
from .signals import dirac_direction, make_signal

__version__ = "0.1.0"
