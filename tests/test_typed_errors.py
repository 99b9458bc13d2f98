"""Every typed error the rest of the suite leaves unraised, raised once, with its type and message.

Each row of ``CASES`` names a call, the exact :class:`SurrogateError`
subclass it raises and the exact message.  The rows cover the ``raise``
statements of ``data``, ``nuisance``, ``estimators``, ``diagnostics`` and
``simulation`` that no other test reaches, plus the checks on
``true_tau_mc``'s ``n_draws``, on ``calibrate_tau``'s ``direction``, on
the option flags and on probability vectors whose finite entries overflow
their sum.  No call may let numpy print a ``RuntimeWarning`` first.
"""

from unittest import mock

import numpy as np
import pytest

from surrogate_ate import (
    CalibrationError,
    ConfigurationError,
    ConstantScore,
    DiscretePopulation,
    EstimationError,
    ExperimentalSample,
    LinearModel,
    MatchOptions,
    NuisanceOptions,
    OverlapError,
    Schema,
    SchemaError,
    SeparationError,
    SingleSample,
    UnsupportedConfigurationError,
    ValidationError,
    calibrate_tau,
    efficiency_bounds_single_sample,
    efficiency_gain_homoskedastic,
    estimate_single_sample,
    fit_least_squares,
    fit_logistic,
    make_spec,
    run_monte_carlo,
    true_tau_mc,
    two_sample_bound_value,
    v_ns_covariate_form,
)
from surrogate_ate import simulation
from surrogate_ate.estimators import _resample
from surrogate_ate.nuisance import _penalized_solve
from surrogate_ate.simulation import DgpSpec

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

# a valid two-level population: surrogate levels 0 and 1, one covariate level, e(x) = 1/2
_POPULATION = dict(
    s_levels=[[0.0], [1.0]],
    x_levels=[[0.0]],
    prob=[[[0.2, 0.3]], [[0.3, 0.2]]],
    mu=np.zeros((2, 1, 2)),
    var=np.ones((2, 1, 2)),
    h_obs=np.zeros((2, 1)),
)


def _population(**changes):
    return DiscretePopulation(**{**_POPULATION, **changes})


def _single():
    # two covariate levels with both arms at each; the level x = 1 holds one treated unit
    w = np.array([0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0])
    x = np.array([[0.0]] * 6 + [[1.0]] * 4)
    s = np.linspace(-1.0, 1.0, 10)[:, None] + 0.5 * w[:, None]
    y = np.array([0.3, -0.2, 1.1, 0.9, 0.1, 1.4, -0.5, 0.4, 0.2, 1.0])
    return SingleSample(w=w, y=y, s=s, x=x)


def _spec(**changes):
    fields = dict(study="check", m_surrogates=2, n_exp=5, n_obs=5, alpha=[1.0, 0.0], gamma=[1.0, 0.0])
    return DgpSpec(**{**fields, **changes})


CASES = {
    # data
    "a sample whose columns have different row counts": (
        lambda: ExperimentalSample(w=[0.0, 1.0, 0.0], s=[[1.0], [2.0]]),
        ValidationError, "row counts differ: w=3, s=2, x=3"),
    "a schema that finds no surrogate column": (
        lambda: Schema().resolve(["w", "x1"], need_treatment=True, need_outcome=False),
        SchemaError, "no surrogate columns found (expected s1..sM or an explicit list)"),
    "a header that names a column twice": (
        lambda: Schema().resolve(["w", "w", "s1"], need_treatment=True, need_outcome=False),
        SchemaError, "column(s) named more than once in the header: w"),
    # nuisance
    "a prediction that overflows": (
        lambda: LinearModel(intercept=0.0, coef_s=np.array([1e308]), coef_x=np.empty(0)).predict([[10.0]]),
        EstimationError, "a prediction is not finite: an input or a coefficient is too large in magnitude"),
    "least-squares targets too large to fit": (
        lambda: fit_least_squares(np.arange(4.0).reshape(4, 1), [1e308, 1e308, -1e308, -1e308]),
        ValidationError, "the target column is too large in magnitude to fit"),
    "a constant score of 1": (
        lambda: ConstantScore(1.0), ValidationError, "constant score must lie in (0, 1), got 1.0"),
    "logistic labels other than 0 and 1": (
        lambda: fit_logistic(np.arange(4.0).reshape(4, 1), [0.0, 2.0, 0.0, 1.0]),
        ValidationError, "labels must be 0 or 1"),
    "a singular unpenalized logistic Hessian": (
        lambda: _penalized_solve(np.zeros((2, 2)), 0.0, np.ones(2), separation=True),
        SeparationError,
        "logistic likelihood is flat at the boundary; data may be separated, consider a positive ridge penalty"),
    "a flag that is a string": (
        lambda: NuisanceOptions(interactions="no"), ValidationError, "interactions must be a bool, got 'no'"),
    "a flag that is an integer": (
        lambda: NuisanceOptions(constant_sampling_score=1),
        ValidationError, "constant_sampling_score must be a bool, got 1"),
    # estimators
    "an unknown single-sample mode": (
        lambda: estimate_single_sample(_single(), mode="median"),
        UnsupportedConfigurationError, "unknown mode 'median'"),
    "resampling an object that is not a sample": (
        lambda: _resample(object(), np.random.default_rng(0)),
        UnsupportedConfigurationError, "cannot resample object of type object"),
    "a matching flag that is a string": (
        lambda: MatchOptions(both_directions="no"), ValidationError, "both_directions must be a bool, got 'no'"),
    # diagnostics: the population's validators
    "cell probabilities of the wrong shape": (
        lambda: _population(prob=np.full((2, 2), 0.25)), ValidationError, "prob must have shape (n_s, n_x, 2)"),
    "a cell probability that is not finite": (
        lambda: _population(prob=[[[0.2, np.nan]], [[0.3, 0.2]]]), ValidationError, "prob contains non-finite values"),
    "cell probabilities that do not sum to 1": (
        lambda: _population(prob=[[[0.4, 0.6]], [[0.6, 0.4]]]),
        ValidationError, "cell probabilities must be non-negative and sum to 1"),
    "cell probabilities whose sum overflows": (
        lambda: _population(prob=[[[1e308, 1e308]], [[0.3, 0.2]]]),
        ValidationError, "cell probabilities must be non-negative and sum to 1"),
    "a surrogate level that is not finite": (
        lambda: _population(s_levels=[[np.inf], [1.0]]), ValidationError, "s_levels contains non-finite values"),
    "too few surrogate levels": (
        lambda: _population(s_levels=[[0.0]]),
        ValidationError, "s_levels must have 2 levels along its first axis, got shape (1, 1)"),
    "outcome means of the wrong shape": (
        lambda: _population(mu=np.zeros((2, 1))), ValidationError, "mu must have shape (2, 1, 2), got (2, 1)"),
    "an outcome variance that is not finite": (
        lambda: _population(var=np.full((2, 1, 2), np.inf)), ValidationError, "var contains non-finite values"),
    "a covariate level with no treated unit": (
        lambda: _population(prob=[[[0.5, 0.0]], [[0.5, 0.0]]]),
        ValidationError, "propensity must be strictly inside (0, 1) at every covariate level"),
    "observational probabilities that do not sum to 1": (
        lambda: _population(obs_prob=[[0.5], [0.6]]), ValidationError, "obs_prob must be non-negative and sum to 1"),
    "observational probabilities whose sum overflows": (
        lambda: _population(obs_prob=[[1e308], [1e308]]),
        ValidationError, "obs_prob must be non-negative and sum to 1"),
    "an observational support that misses a cell": (
        lambda: _population(obs_prob=[[1.0], [0.0]]),
        ValidationError, "observational support must cover the experimental support"),
    # diagnostics: the representations and the bounds
    "a weighting form at q = 1": (
        lambda: _population().tau_weighting_form(1.0), ValidationError, "q must lie in (0, 1), got 1.0"),
    "a sampling score that rounds to 1": (
        lambda: _population(obs_prob=[[1.0], [1e-300]]).tau_weighting_form(0.5),
        OverlapError, "sampling score reaches 1 on the observational support"),
    "an unknown variance mode": (
        lambda: efficiency_bounds_single_sample(_single(), variance_mode="robust"),
        UnsupportedConfigurationError, "unknown variance mode 'robust'"),
    "a covariate stratum with one treated unit": (
        lambda: v_ns_covariate_form(_single(), variance_mode="per_stratum"),
        ValidationError, "a covariate stratum holds fewer than 2 observations in one arm"),
    "a surrogate-score value above 1": (
        lambda: efficiency_gain_homoskedastic(0.5, 1.0, [1.5], [1.0]),
        ValidationError, "surrogate-score values must lie in [0, 1]"),
    "surrogate-score probabilities whose sum overflows": (
        lambda: efficiency_gain_homoskedastic(0.5, 0.0, [0.0, 0.0], [1e308, 1e308]),
        ValidationError, "invalid probability vector"),
    "a gain that overflows": (
        lambda: efficiency_gain_homoskedastic(0.5, 1e308, [0.5], [1.0]),
        EstimationError, "the gain is not finite: sigma2 is too large in magnitude"),
    "a bound plug-in that is NaN": (
        lambda: two_sample_bound_value(1.0, [0.5], [np.nan], 0.0, 0.0, 0.5, 0.5),
        EstimationError, "a bound term is not a number: a plug-in is NaN, infinite or too large in magnitude"),
    # simulation
    "k_used beyond the surrogate count": (
        lambda: _spec(k_used=3), ConfigurationError, "k_used must be an integer in [1, m_surrogates]"),
    "a zero calibration direction": (
        lambda: calibrate_tau(0.5, [0.0, 0.0]), CalibrationError, "direction must be a non-zero vector"),
    "an infinite calibration direction": (
        lambda: calibrate_tau(0.5, [np.inf, 1.0]),
        CalibrationError, "direction must have finite entries and a finite squared norm, got norm inf"),
    "a NaN calibration direction": (
        lambda: calibrate_tau(0.5, [np.nan, 1.0]),
        CalibrationError, "direction must have finite entries and a finite squared norm, got norm nan"),
    "a calibration direction whose squared norm overflows": (
        lambda: calibrate_tau(0.5, [1e308, 1e308]),
        CalibrationError, "direction must have finite entries and a finite squared norm, got norm inf"),
    # the quadrature reads exactly 1.0 from scale 1024 on, whatever the direction, so only an
    # effect curve that stays low can leave a target below 1 out of reach
    "an effect curve that stays below the target": (
        lambda: _with_effect_curve(lambda *args: 0.25, lambda: calibrate_tau(0.5, [1.0, 2.0])),
        CalibrationError, "target 0.5 unattainable; achieved supremum ~ 0.250000"),
    "a bisection tolerance below the rounding of the effect": (
        lambda: calibrate_tau(0.3, [1.0, 2.0], tolerance=1e-300),
        CalibrationError, "bisection failed to reach target 0.3 within tolerance 1e-300"),
    "a sample_size q outside (0, 1)": (
        lambda: make_spec("sample_size", seed=0, q=1.5), ConfigurationError, "sample_size study needs q in (0, 1)"),
    "a sample_size q that leaves one row": (
        lambda: make_spec("sample_size", seed=0, q=0.001),
        ConfigurationError, "q=0.001 leaves a sample with fewer than 2 rows"),
    "a replication of one experimental row": (
        lambda: run_monte_carlo(_spec(n_exp=1), 1, 0),
        ConfigurationError, "replications need 2 rows in each sample, got n_exp=1, n_obs=5"),
    "no Monte Carlo draws": (
        lambda: true_tau_mc(make_spec("dimension", seed=0, m=3), n_draws=0),
        ValidationError, "n_draws must be at least 1, got 0"),
    "a negative number of Monte Carlo draws": (
        lambda: true_tau_mc(make_spec("dimension", seed=0, m=3), n_draws=-5),
        ValidationError, "n_draws must be at least 1, got -5"),
    "a fractional number of Monte Carlo draws": (
        lambda: true_tau_mc(make_spec("dimension", seed=0, m=3), n_draws=1.5),
        ValidationError, "n_draws must be an integer, got 1.5"),
    "Monte Carlo draws that leave the control arm empty": (
        lambda: true_tau_mc(make_spec("dimension", seed=0, m=3), n_draws=1),
        EstimationError, "the draws left an arm empty: 1 treated and 0 control"),
}


def _with_effect_curve(curve, call):
    with mock.patch.object(simulation, "_true_tau", curve):
        return call()


@pytest.mark.parametrize("name", CASES)
def test_each_typed_error_is_raised_with_its_message(name):
    call, error, message = CASES[name]
    with pytest.raises(error) as caught:
        call()
    assert type(caught.value) is error
    assert str(caught.value) == message


@pytest.mark.parametrize("flag", [True, False, np.True_, np.False_])
def test_bools_and_numpy_bools_are_flags(flag):
    assert MatchOptions(both_directions=flag).both_directions is flag
    options = NuisanceOptions(constant_sampling_score=flag, interactions=flag)
    assert options.constant_sampling_score is flag and options.interactions is flag
