"""Estimate average treatment effects on long-term outcomes from surrogates.

The package combines an experimental sample (treatment + surrogate
outcomes) with an observational sample (surrogates + long-term outcome) to
estimate the average treatment effect on the outcome that the experiment
never observed.  It provides the surrogate-index, surrogate-score,
linear-shortcut, and matching estimators, bias-bound and efficiency-bound
diagnostics, exact finite-population verifiers for the identifying
identities, and a reproducible Monte Carlo study harness.
"""

from ._version import __version__
from .data import (
    ExperimentalSample,
    ObservationalSample,
    PooledDataset,
    Schema,
    SingleSample,
    load_experimental,
    load_observational,
    load_single,
    pool,
    write_experimental,
    write_observational,
    write_single,
)
from .diagnostics import (
    BiasBound,
    BiasIdentityReport,
    DiscretePopulation,
    EfficiencyBounds,
    IdentificationReport,
    bias_bound,
    efficiency_bound_two_sample,
    efficiency_bounds_single_sample,
    efficiency_gain_homoskedastic,
    random_population,
    two_sample_bound_value,
    v_ns_covariate_form,
    verify_bias_identity,
    verify_identification,
)
from .errors import (
    CalibrationError,
    ConfigurationError,
    ConvergenceError,
    DegenerateArmError,
    DegenerateLabelsError,
    EstimationError,
    FitError,
    OverlapError,
    PoolingError,
    SchemaError,
    SeparationError,
    SingularDesignError,
    StudyError,
    SurrogateError,
    UnstableBootstrapError,
    UnsupportedConfigurationError,
    ValidationError,
)
from .estimators import (
    EstimateReport,
    MatchOptions,
    TauSurrogates,
    WeightSummary,
    bootstrap_se,
    estimate_index,
    estimate_linear_shortcut,
    estimate_matching,
    estimate_score,
    estimate_single_sample,
    estimate_tau_surrogates,
)
from .nuisance import (
    ConstantScore,
    LinearModel,
    LogisticModel,
    NuisanceFits,
    NuisanceOptions,
    bernoulli_loglik,
    bernoulli_loglik_gradient,
    build_design,
    fit_all,
    fit_least_squares,
    fit_logistic,
    predict_index,
    predict_score,
)
from .simulation import (
    DEFAULT_GRIDS,
    DgpSpec,
    EstimatorStats,
    McResult,
    calibrate_tau,
    draw_dataset,
    make_spec,
    run_monte_carlo,
    run_study,
    true_tau,
    true_tau_mc,
)

__all__ = [
    "__version__",
    # data
    "ExperimentalSample", "ObservationalSample", "SingleSample", "PooledDataset",
    "Schema", "load_experimental", "load_observational", "load_single", "pool",
    "write_experimental", "write_observational", "write_single",
    # nuisance
    "LinearModel", "LogisticModel", "ConstantScore", "NuisanceFits", "NuisanceOptions",
    "fit_least_squares", "fit_logistic", "fit_all", "predict_score", "predict_index",
    "build_design", "bernoulli_loglik", "bernoulli_loglik_gradient",
    # estimators
    "EstimateReport", "TauSurrogates", "WeightSummary", "MatchOptions",
    "estimate_index", "estimate_score", "estimate_tau_surrogates",
    "estimate_linear_shortcut", "estimate_matching", "estimate_single_sample",
    "bootstrap_se",
    # diagnostics
    "BiasBound", "EfficiencyBounds", "DiscretePopulation", "IdentificationReport",
    "BiasIdentityReport", "bias_bound", "verify_identification", "verify_bias_identity",
    "random_population", "efficiency_bounds_single_sample", "efficiency_gain_homoskedastic",
    "efficiency_bound_two_sample", "two_sample_bound_value", "v_ns_covariate_form",
    # simulation
    "DgpSpec", "McResult", "EstimatorStats", "DEFAULT_GRIDS", "make_spec",
    "draw_dataset", "true_tau", "true_tau_mc", "calibrate_tau",
    "run_monte_carlo", "run_study",
    # errors
    "SurrogateError", "ConfigurationError", "SchemaError", "ValidationError",
    "PoolingError", "UnsupportedConfigurationError", "FitError",
    "DegenerateLabelsError", "SeparationError", "SingularDesignError", "ConvergenceError",
    "EstimationError", "OverlapError", "DegenerateArmError",
    "UnstableBootstrapError", "CalibrationError", "StudyError",
]
