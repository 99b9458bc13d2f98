"""Estimate average treatment effects on long-term outcomes from surrogates.

The package combines an experimental sample (treatment + surrogate
outcomes) with an observational sample (surrogates + long-term outcome) to
estimate the average treatment effect on the outcome that the experiment
never observed.  It provides the surrogate-index, surrogate-score,
linear-shortcut, and matching estimators, bias-bound and efficiency-bound
diagnostics, exact finite-population verifiers for the identifying
identities, and a reproducible Monte Carlo study harness.
"""

from types import ModuleType as _ModuleType

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
    WorkerError,
)
from .estimators import (
    EstimateReport,
    MatchOptions,
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

# every public name imported above, the submodules left out
__all__ = ["__version__", *(n for n, v in globals().items() if n[0] != "_" and not isinstance(v, _ModuleType))]
