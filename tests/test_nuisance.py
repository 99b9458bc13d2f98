import hashlib
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from surrogate_ate import (
    ConstantScore,
    DegenerateLabelsError,
    EstimationError,
    ExperimentalSample,
    LinearModel,
    LogisticModel,
    NuisanceFits,
    NuisanceOptions,
    ObservationalSample,
    SeparationError,
    SingleSample,
    SingularDesignError,
    ValidationError,
    bernoulli_loglik,
    bernoulli_loglik_gradient,
    build_design,
    draw_dataset,
    efficiency_bounds_single_sample,
    estimate_single_sample,
    fit_all,
    fit_least_squares,
    fit_logistic,
    make_spec,
    pool,
)
from surrogate_ate.nuisance import _check_rank, _standardize
from surrogate_ate.nuisance import expit as own_expit


# ---------------------------------------------------------------------------
# least squares

def test_ols_exact_line():
    s = np.array([[0.0], [1.0], [2.0], [3.0], [4.0]])
    y = 1.0 + 2.0 * s[:, 0]
    model = fit_least_squares(s, y, ridge=0.0)
    assert model.intercept == pytest.approx(1.0, abs=1e-12)
    assert model.coef_s[0] == pytest.approx(2.0, abs=1e-12)
    assert model.residual_variance == pytest.approx(0.0, abs=1e-24)


def test_ols_constant_target():
    s = np.array([[0.0, 1.0], [1.0, -1.0], [2.0, 0.5], [3.0, 2.0]])
    model = fit_least_squares(s, np.full(4, 7.5))
    assert np.allclose(model.coef, 0.0, atol=1e-12)
    assert model.intercept == pytest.approx(7.5)


def _solve_by_elimination(a, b):
    """Independent Gauss-Jordan elimination with partial pivoting (no numpy.linalg)."""
    a = [list(map(float, row)) + [float(bi)] for row, bi in zip(a, b)]
    n = len(a)
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(a[r][col]))
        a[col], a[pivot] = a[pivot], a[col]
        div = a[col][col]
        a[col] = [v / div for v in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0.0:
                factor = a[r][col]
                a[r] = [vr - factor * vc for vr, vc in zip(a[r], a[col])]
    return [row[-1] for row in a]


def test_ols_matches_normal_equations_oracle():
    features = np.array(
        [[0.2, 1.0], [1.5, -0.5], [-0.7, 0.3], [2.2, 1.8], [0.9, -1.2], [-1.1, 0.6]]
    )
    y = np.array([1.0, 0.2, -0.5, 3.1, 0.7, -1.4])
    model = fit_least_squares(features, y, ridge=0.0)

    design = np.hstack([np.ones((6, 1)), features])
    ata = design.T @ design
    atb = design.T @ y
    oracle = _solve_by_elimination(ata.tolist(), atb.tolist())
    fitted = [model.intercept, *model.coef]
    assert np.allclose(fitted, oracle, atol=1e-10)


def test_ols_singular_design_advises_ridge():
    features = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0], [4.0, 8.0]])  # collinear
    with pytest.raises(SingularDesignError, match="ridge"):
        fit_least_squares(features, np.arange(4.0), ridge=0.0)
    model = fit_least_squares(features, np.arange(4.0), ridge=1e-4)
    assert np.isfinite(model.coef).all()


def test_ols_residual_orthogonality(rng):
    features = rng.normal(size=(40, 3))
    y = rng.normal(size=40)
    model = fit_least_squares(features, y)
    resid = y - (model.intercept + features @ model.coef)
    scale = max(1.0, float(np.abs(features.T @ y).max()))
    assert np.abs(features.T @ resid).max() < 1e-8 * scale
    assert abs(resid.sum()) < 1e-8 * scale


def test_ridge_monotone_shrinkage(rng):
    features = rng.normal(size=(30, 4))
    y = rng.normal(size=30)
    norms = []
    for ridge in (0.0, 0.1, 1.0, 10.0, 100.0):
        model = fit_least_squares(features, y, ridge=ridge)
        norms.append(np.linalg.norm(model.coef))
    assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))


# ---------------------------------------------------------------------------
# logistic

def test_logistic_intercept_only():
    model = fit_logistic(np.empty((10, 0)), np.array([1] * 5 + [0] * 5))
    assert model.intercept == pytest.approx(0.0, abs=1e-9)
    assert model.predict(np.empty((1, 0)))[0] == pytest.approx(0.5, abs=1e-9)
    assert not hasattr(model, "converged")  # a returned model has always converged


def _grid_search_mle(s, y):
    """2-d grid search plus local refinement on the exact log-likelihood."""
    best = (0.0, 0.0)
    width = 4.0
    center = (0.0, 0.0)
    for _ in range(12):
        b0s = np.linspace(center[0] - width, center[0] + width, 41)
        b1s = np.linspace(center[1] - width, center[1] + width, 41)
        values = [
            (bernoulli_loglik(b0, np.array([b1]), s.reshape(-1, 1), y), (b0, b1))
            for b0 in b0s
            for b1 in b1s
        ]
        _, best = max(values, key=lambda t: t[0])
        center = best
        width /= 4.0
    return best


def test_logistic_matches_grid_oracle():
    s = np.array([-1.0, -1.0, -1.0, 1.0, 1.0, 1.0])
    y = np.array([0.0, 0.0, 1.0, 0.0, 1.0, 1.0])
    model = fit_logistic(s.reshape(-1, 1), y, ridge=0.0)
    b0, b1 = _grid_search_mle(s, y)
    assert model.intercept == pytest.approx(b0, abs=1e-4)
    assert model.coef_s[0] == pytest.approx(b1, abs=1e-4)
    # saturated two-cell fit: fitted probabilities are the cell frequencies
    assert model.predict(np.array([[1.0]]))[0] == pytest.approx(2.0 / 3.0, abs=1e-8)


def test_logistic_separation_detected():
    s = np.array([-2.0, -1.5, -1.0, 1.0, 1.5, 2.0]).reshape(-1, 1)
    y = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
    with pytest.raises(SeparationError, match="ridge"):
        fit_logistic(s, y, ridge=0.0)
    model = fit_logistic(s, y, ridge=1e-3)
    assert np.isfinite(model.coef).all()


def test_logistic_single_class_rejected():
    with pytest.raises(DegenerateLabelsError):
        fit_logistic(np.zeros((4, 1)), np.ones(4))


def test_logistic_gradient_matches_finite_differences(rng):
    for _ in range(50):
        n = int(rng.integers(20, 60))
        d = int(rng.integers(1, 4))
        features = rng.normal(size=(n, d))
        beta_true = rng.normal(size=d)
        y = (rng.random(n) < expit(features @ beta_true)).astype(float)
        if y.sum() in (0, len(y)):
            continue
        model = fit_logistic(features, y, ridge=1e-8)
        theta = np.array([model.intercept, *model.coef])

        # at the solution and at a nearby random point
        for point in (theta, theta + rng.normal(scale=0.3, size=len(theta))):
            analytic = bernoulli_loglik_gradient(point[0], point[1:], features, y)
            fd = np.empty_like(analytic)
            h = 1e-6
            for j in range(len(point)):
                up, dn = point.copy(), point.copy()
                up[j] += h
                dn[j] -= h
                fd[j] = (
                    bernoulli_loglik(up[0], up[1:], features, y)
                    - bernoulli_loglik(dn[0], dn[1:], features, y)
                ) / (2 * h)
            scale = max(1.0, float(np.abs(fd).max()))
            assert np.abs(analytic - fd).max() < 1e-5 * scale


def test_logistic_loglik_no_worse_than_zero_vector(rng):
    for _ in range(10):
        features = rng.normal(size=(30, 2))
        y = (rng.random(30) < 0.4).astype(float)
        if y.sum() in (0, len(y)):
            continue
        model = fit_logistic(features, y, ridge=0.5)
        at_solution = bernoulli_loglik(model.intercept, model.coef, features, y) - 0.25 * np.sum(model.coef**2)
        at_zero = bernoulli_loglik(0.0, np.zeros(2), features, y)
        assert at_solution >= at_zero - 1e-10


def test_logistic_ridge_monotone_shrinkage(rng):
    features = rng.normal(size=(50, 3))
    y = (rng.random(50) < expit(features @ np.array([1.0, -2.0, 0.5]))).astype(float)
    norms = [
        np.linalg.norm(fit_logistic(features, y, ridge=ridge).coef)
        for ridge in (0.0, 0.01, 0.1, 1.0, 10.0)
    ]
    assert all(a >= b - 1e-10 for a, b in zip(norms, norms[1:]))


def test_fit_determinism(rng):
    features = rng.normal(size=(40, 2))
    y = (rng.random(40) < 0.5).astype(float)
    if y.sum() in (0, len(y)):
        y[0] = 1.0 - y[0]
    m1 = fit_logistic(features, y, ridge=0.1)
    m2 = fit_logistic(features, y, ridge=0.1)
    assert m1.intercept == m2.intercept
    assert np.array_equal(m1.coef, m2.coef)
    l1 = fit_least_squares(features, rng.normal(size=40) * 0 + features @ np.ones(2), ridge=0.3)
    l2 = fit_least_squares(features, features @ np.ones(2), ridge=0.3)
    assert l1.intercept == l2.intercept
    assert np.array_equal(l1.coef, l2.coef)


# ---------------------------------------------------------------------------
# prediction surface

def test_predict_score_and_index_trivial():
    score = fit_logistic(np.zeros((4, 1)), np.array([0.0, 1.0, 0.0, 1.0]), ridge=1.0)
    # zero coefficients, zero intercept
    score = type(score)(intercept=0.0, coef_s=np.zeros(1), coef_x=np.zeros(0))
    assert score.predict([[0.0]])[0] == pytest.approx(0.5)
    index = fit_least_squares(np.zeros((2, 1)), np.zeros(2), ridge=1.0)
    index = type(index)(intercept=0.0, coef_s=np.zeros(1), coef_x=np.zeros(0), residual_variance=0.0)
    assert index.predict([[123.0]])[0] == pytest.approx(0.0)


def test_predict_direct_evaluation():
    from surrogate_ate import LinearModel, LogisticModel

    score = LogisticModel(intercept=1.0, coef_s=np.array([2.0]), coef_x=np.zeros(0))
    assert score.predict([[0.5]])[0] == pytest.approx(expit(2.0), abs=1e-12)
    assert score.predict([[0.5]])[0] == pytest.approx(0.8807970779778823, abs=1e-9)
    index = LinearModel(intercept=1.0, coef_s=np.array([2.0]), coef_x=np.zeros(0))
    assert index.predict([[0.5]])[0] == pytest.approx(2.0, abs=1e-12)


def test_predict_wrong_length_raises():
    from surrogate_ate import LogisticModel

    score = LogisticModel(intercept=0.0, coef_s=np.array([1.0]), coef_x=np.zeros(0))
    with pytest.raises(ValidationError, match=r"feature dimensions \(s=2, x=0\) do not match model"):
        score.predict(np.zeros((3, 2)))


def test_predictions_strictly_inside_unit_interval():
    from surrogate_ate import LogisticModel

    model = LogisticModel(intercept=0.0, coef_s=np.array([1000.0]), coef_x=np.zeros(0))
    p = model.predict(np.array([[5.0], [-5.0]]))
    assert 0.0 < p[1] and p[0] < 1.0


# ---------------------------------------------------------------------------
# fit_all

def test_fit_all_randomized_design():
    spec = make_spec("dimension", seed=5, m=3)
    exp, obs = draw_dataset(spec, np.random.SeedSequence((5, 2, 0, 0)))
    pooled = pool(exp, obs)
    fits = fit_all(pooled, NuisanceOptions(constant_sampling_score=True))
    assert isinstance(fits.e_model, ConstantScore)
    assert fits.e_model.p == exp.w.mean()
    assert isinstance(fits.t_model, ConstantScore)
    assert fits.t_model.p == pooled.q
    assert fits.r_model.coef_s.shape == (3,)
    assert fits.h_model.coef_s.shape == (3,)


def test_fit_all_constant_outcome_gives_zero_slopes():
    exp = ExperimentalSample(w=[0, 1, 0, 1], s=[[0.1], [0.5], [0.9], [0.2]])
    obs = ObservationalSample(y=np.full(5, 3.0), s=[[0.3], [0.1], [0.8], [0.5], [0.9]])
    fits = fit_all(pool(exp, obs), NuisanceOptions(constant_sampling_score=True))
    assert np.allclose(fits.h_model.coef, 0.0, atol=1e-12)
    assert fits.h_model.intercept == pytest.approx(3.0)


def test_fit_all_recovers_dgp_slope():
    spec = make_spec("dimension", seed=11, m=1)
    big = type(spec)(
        study=spec.study, m_surrogates=1, n_exp=100_000, n_obs=10,
        alpha=spec.alpha, gamma=spec.gamma, seed=spec.seed,
    )
    exp, obs = draw_dataset(big, np.random.SeedSequence((11, 2, 0, 0)))
    obs_ok = ObservationalSample(y=np.arange(10, dtype=float), s=obs.s)
    fits = fit_all(pool(exp, obs_ok), NuisanceOptions(constant_sampling_score=True))
    # asymptotic standard error from the observed information of the fit
    s = exp.s
    p = fits.r_model.predict(s)
    design = np.hstack([np.ones((len(p), 1)), s])
    info = (design * (p * (1 - p))[:, None]).T @ design
    se = np.sqrt(np.linalg.inv(info)[1, 1])
    assert abs(fits.r_model.coef_s[0] - spec.alpha[0]) < 3 * se


def test_interactions_design_and_fit():
    s = np.array([[1.0, 2.0], [3.0, 4.0]])
    x = np.array([[10.0], [20.0]])
    features, n_s, n_x, n_sx = build_design(s, x, interactions=True)
    assert (n_s, n_x, n_sx) == (2, 1, 2)
    assert features[0].tolist() == [1.0, 2.0, 10.0, 10.0, 20.0]

    gen = np.random.default_rng(42)
    exp = ExperimentalSample(
        w=[0, 1, 0, 1, 1, 0, 1, 0],
        s=gen.normal(size=(8, 1)),
        x=gen.normal(size=(8, 1)),
    )
    obs = ObservationalSample(y=gen.normal(size=9), s=gen.normal(size=(9, 1)), x=gen.normal(size=(9, 1)))
    fits = fit_all(pool(exp, obs), NuisanceOptions(interactions=True, ridge_surrogate_score=0.1,
                                                   ridge_sampling_score=0.1, ridge_propensity=0.1))
    assert fits.h_model.coef_sx.shape == (1,)
    # prediction assembles the same interaction columns
    pred = fits.h_model.predict(obs.s[:2], obs.x[:2])
    manual = (
        fits.h_model.intercept
        + obs.s[:2, 0] * fits.h_model.coef_s[0]
        + obs.x[:2, 0] * fits.h_model.coef_x[0]
        + obs.s[:2, 0] * obs.x[:2, 0] * fits.h_model.coef_sx[0]
    )
    assert np.allclose(pred, manual, atol=1e-12)


def test_fit_errors_are_tagged():
    exp = ExperimentalSample(w=[0, 1, 0, 1], s=[[-2.0], [1.0], [-1.0], [2.0]])
    obs = ObservationalSample(y=[0.0, 1.0], s=[[0.1], [0.2]])
    with pytest.raises(SeparationError, match="surrogate score"):
        fit_all(pool(exp, obs), NuisanceOptions(constant_sampling_score=True))
    # every other fit path names its role as well
    y = [0.1, 0.2, 0.3, 0.4]
    with pytest.raises(SeparationError, match="^surrogate score: "):
        efficiency_bounds_single_sample(SingleSample(w=exp.w, y=y, s=exp.s))
    with pytest.raises(SeparationError, match="^propensity score: "):
        efficiency_bounds_single_sample(SingleSample(w=exp.w, y=y, s=[[0.5], [0.1], [0.7], [0.2]], x=exp.s))
    collinear = SingleSample(w=[0, 1], y=[0.0, 1.0], s=[[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(SingularDesignError, match="^surrogate index: "):
        estimate_single_sample(collinear, mode="surrogate_index")
    # the covariate is constant within the treated arm, but not separable from the controls
    constant_in_treated = SingleSample(w=[1, 1, 1, 1, 0, 0, 0, 0], y=np.arange(8.0), s=np.arange(8.0)[:, None] % 3,
                                       x=[[1.0]] * 4 + [[0.3], [-0.5], [2.0], [1.1]])
    with pytest.raises(SingularDesignError, match="^treated arm regression: "):
        efficiency_bounds_single_sample(constant_in_treated)


def test_fits_json_roundtrip():
    spec = make_spec("dimension", seed=5, m=2)
    exp, obs = draw_dataset(spec, np.random.SeedSequence((5, 2, 0, 1)))
    fits = fit_all(pool(exp, obs), NuisanceOptions(constant_sampling_score=True, ridge_surrogate_score=1e-6))
    text = fits.to_json()
    back = NuisanceFits.from_json(text)
    assert back.to_json() == text
    assert np.array_equal(back.r_model.coef, fits.r_model.coef)
    assert back.t_model.p == fits.t_model.p
    payload = json.loads(text)
    assert payload["h_model"]["type"] == "linear"


# A payload in the serialized format, kept literal so that any change to the
# format, to a model's fields or to the options fails here.  It was written
# when a logistic model still carried the field "converged".
SAVED_FITS = (
    '{"e_model": {"p": 0.5, "type": "constant"}, '
    '"h_model": {"coef_s": [0.5, 3.0], "coef_sx": [0.0625, 1e-300], "coef_x": [-1.0], "intercept": 2.0, '
    '"residual_variance": 0.3, "type": "linear"}, '
    '"options": {"constant_propensity": 0.5, "constant_sampling_score": false, "interactions": true, '
    '"ridge_index": 1e-06, "ridge_propensity": 0.1, "ridge_sampling_score": 0.0, "ridge_surrogate_score": 0.0}, '
    '"r_model": {"coef_s": [1.5, -0.125], "coef_sx": [], "coef_x": [0.75], "converged": false, '
    '"intercept": -0.25, "iterations": 100, "type": "logistic"}, '
    '"t_model": null}'
)


def test_fits_json_reads_saved_payload():
    fits = NuisanceFits.from_json(SAVED_FITS)
    assert fits.e_model == ConstantScore(0.5)
    assert isinstance(fits.r_model, LogisticModel)
    assert fits.r_model.iterations == 100 and not hasattr(fits.r_model, "converged")
    assert isinstance(fits.h_model, LinearModel)
    assert fits.h_model.uses_interactions and fits.h_model.residual_variance == 0.3
    assert fits.t_model is None
    assert fits.options.interactions and fits.options.constant_propensity == 0.5
    # the field "converged" of earlier versions is read and dropped
    assert fits.to_json() == SAVED_FITS.replace('"converged": false, ', "")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_fits_json_refuses_a_number_that_is_not_finite():
    # outcomes near 1e160 square to infinity in the index's residual variance
    rng = np.random.default_rng(0)
    exp = ExperimentalSample(w=np.tile([0.0, 1.0], 100), s=rng.normal(size=(200, 2)))
    obs = ObservationalSample(y=rng.normal(size=200) * 1e160, s=rng.normal(size=(200, 2)))
    fits = fit_all(pool(exp, obs))
    assert fits.h_model.residual_variance == np.inf
    with pytest.raises(EstimationError, match="not finite"):
        fits.to_json()


@pytest.mark.parametrize("ridge", [float("nan"), float("inf"), -1.0])
@pytest.mark.parametrize("fit", [fit_least_squares, fit_logistic])
def test_ridge_must_be_finite_and_non_negative(fit, ridge):
    s = np.array([[0.0], [1.0], [2.0], [3.0], [0.5], [2.5]])
    labels = np.array([0.0, 1.0, 0.0, 1.0, 1.0, 0.0])
    with pytest.raises(ValidationError, match="ridge penalty must be finite and non-negative"):
        fit(s, labels, ridge=ridge)


def test_logistic_iteration_limit_is_a_convergence_error():
    from surrogate_ate import ConvergenceError

    rng = np.random.default_rng(3)
    s = rng.normal(size=(40, 2))
    labels = (rng.random(40) < expit(s @ [1.0, -0.5])).astype(float)
    with pytest.raises(ConvergenceError, match="in 1 iterations"):
        fit_logistic(s, labels, max_iter=1)
    assert fit_logistic(s, labels).iterations > 1


@pytest.mark.parametrize("ridge", [0.0, 1e-3])
@pytest.mark.parametrize("fit", [fit_least_squares, fit_logistic])
def test_column_whose_spread_overflows_is_rejected(fit, ridge):
    # the column mean stays finite, but its standard deviation overflows to inf
    rng = np.random.default_rng(4)
    features = np.hstack([rng.normal(size=(40, 1)) * 1e307, rng.normal(size=(40, 1))])
    labels = np.tile([0.0, 1.0], 20)
    with pytest.raises(ValidationError, match="too large in magnitude to standardize"):
        fit(features, labels, ridge=ridge)


@pytest.mark.parametrize("fit", [fit_least_squares, fit_logistic])
def test_singular_system_under_a_tiny_ridge_is_typed(fit):
    # a duplicated column: a ridge far below the Gram's rounding leaves it singular
    rng = np.random.default_rng(5)
    column = rng.normal(size=(50, 1))
    labels = (rng.random(50) < 0.5).astype(float)
    with pytest.raises(SingularDesignError, match="penalized normal equations are singular"):
        fit(np.hstack([column, column]), labels, ridge=1e-20)


def test_fit_all_tags_a_convergence_error(monkeypatch):
    from functools import partial

    from surrogate_ate import ConvergenceError, nuisance

    monkeypatch.setattr(nuisance, "fit_logistic", partial(fit_logistic, max_iter=1))
    rng = np.random.default_rng(6)
    exp = ExperimentalSample(w=np.tile([0.0, 1.0], 30), s=rng.normal(size=(60, 2)))
    obs = ObservationalSample(y=rng.normal(size=50), s=rng.normal(size=(50, 2)))
    with pytest.raises(ConvergenceError, match="^surrogate score: IRLS did not reach"):
        fit_all(pool(exp, obs))


# ---------------------------------------------------------------------------
# the IRLS kernel against the GEMM-Hessian kernel it replaced

def _gemm_kernel_fit(features, labels, ridge=0.0, tol=1e-8, max_iter=100):
    """The former IRLS body: GEMM Hessian, ``eta`` recomputed, scipy's expit.

    Returns ``(intercept, coef, iterations)``; raises what the kernel raised.
    """
    from surrogate_ate.errors import ConvergenceError

    features, y, z, mean, sd = _frozen_prepare(features, labels, ridge)
    n, d = features.shape
    z1 = np.hstack([np.ones((n, 1)), z])
    penalty = np.concatenate([[0.0], ridge / sd**2])

    def objective(beta):
        eta = z1 @ beta
        return float(np.sum(y * eta - np.logaddexp(0.0, eta))) - 0.5 * float(penalty @ beta**2)

    beta = np.zeros(d + 1)
    obj = objective(beta)
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        eta = z1 @ beta
        p = expit(np.clip(eta, -36.0, 36.0))
        grad = z1.T @ (y - p) - penalty * beta
        if np.max(np.abs(grad)) < tol:
            converged = True
            iterations -= 1
            break
        hessian = (z1 * (p * (1.0 - p))[:, None]).T @ z1
        hessian[np.diag_indices(d + 1)] += penalty
        try:
            step = np.linalg.solve(hessian, grad)
        except np.linalg.LinAlgError:
            raise (SeparationError if ridge == 0.0 else SingularDesignError)("singular") from None
        scale = 1.0
        candidate = beta + step
        cand_obj = objective(candidate)
        halvings = 0
        floor = obj - 1e-12 * (1.0 + abs(obj))
        while cand_obj < floor and halvings < 30:
            scale *= 0.5
            candidate = beta + scale * step
            cand_obj = objective(candidate)
            halvings += 1
        beta, obj = candidate, cand_obj
        if ridge == 0.0 and np.linalg.norm(beta[1:]) > 30.0:
            raise SeparationError("diverged")
    if ridge == 0.0 and d > 0 and obj > -1e-6:
        raise SeparationError("separated")
    if not converged:
        raise ConvergenceError("not converged")
    return float(beta[0] - np.sum(beta[1:] * mean / sd)), beta[1:] / sd, iterations


def _harness_draw(study, **grid):
    exp, obs = draw_dataset(make_spec(study, seed=0, **grid), 3)
    return exp.s, exp.w, obs.s, obs.y


def _kernel_cases():
    rng = np.random.default_rng(8)
    for study, grid in (("misspecification", {"k_used": 250}), ("dimension", {"m": 200}),
                        ("sample_size", {"q": 0.05})):
        s_e, w, s_o, y = _harness_draw(study, **grid)
        yield f"{study}-score", s_e, w, 1e-6
        yield f"{study}-index", s_o, y, 1e-6
    s = rng.normal(size=(300, 3))
    x = rng.normal(size=(300, 2))
    features, *_ = build_design(s, x, interactions=True)
    labels = (rng.random(300) < expit(features @ rng.normal(scale=0.3, size=features.shape[1]))).astype(float)
    yield "covariates-interactions-ridge0", features, labels, 0.0


@pytest.mark.parametrize("case", list(_kernel_cases()), ids=lambda case: case[0])
def test_logistic_kernel_matches_the_gemm_kernel(case):
    _, features, labels, ridge = case
    intercept, coef, iterations = _gemm_kernel_fit(features, labels, ridge)
    model = fit_logistic(features, labels, ridge=ridge)
    assert model.iterations == iterations
    theta = np.array([intercept, *coef])
    fitted = np.array([model.intercept, *model.coef])
    assert np.abs(fitted - theta).max() <= 1e-9 * np.abs(theta).max()
    predicted = expit(np.clip(intercept + features @ coef, -36.0, 36.0))
    assert np.abs(model.predict(features) - predicted).max() <= 1e-9


def _failing_cases():
    s = np.array([-2.0, -1.5, -1.0, 1.0, 1.5, 2.0]).reshape(-1, 1)
    yield "separation", s, np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0]), {}
    column = np.random.default_rng(5).normal(size=(50, 1))
    labels = (np.random.default_rng(6).random(50) < 0.5).astype(float)
    yield "singular-design", np.hstack([column, column]), labels, {}
    yield "singular-tiny-ridge", np.hstack([column, column]), labels, {"ridge": 1e-20}
    yield "single-class", np.zeros((4, 1)), np.ones(4), {}
    rng = np.random.default_rng(3)
    s = rng.normal(size=(40, 2))
    yield "max-iter-1", s, (rng.random(40) < expit(s @ [1.0, -0.5])).astype(float), {"max_iter": 1}


@pytest.mark.parametrize("case", list(_failing_cases()), ids=lambda case: case[0])
def test_logistic_kernel_fails_like_the_gemm_kernel(case):
    _, features, labels, kwargs = case
    with pytest.raises(Exception) as expected:
        _gemm_kernel_fit(features, labels, **kwargs)
    with pytest.raises(Exception) as raised:
        fit_logistic(features, labels, **kwargs)
    assert type(raised.value) is type(expected.value)


# ---------------------------------------------------------------------------
# the IRLS kernel's bits, pinned against a frozen copy of an earlier kernel

def _frozen_prepare(features, labels, ridge):
    """Checks and standardized design of the earlier kernel, frozen: ``(features, y, z, mean, sd)``."""
    features = np.atleast_2d(np.asarray(features, dtype=float))
    y = np.asarray(labels, dtype=float).ravel()
    if features.shape[0] != len(y):
        raise ValidationError("features and labels have different row counts")
    if not (np.isfinite(features).all() and np.isfinite(y).all()):
        raise ValidationError("non-finite values in the training data")
    if not np.isin(y, (0.0, 1.0)).all():
        raise ValidationError("labels must be 0 or 1")
    if not 0.0 <= ridge < np.inf:
        raise ValidationError(f"ridge penalty must be finite and non-negative, got {ridge}")
    if y.sum() == 0 or y.sum() == len(y):
        raise DegenerateLabelsError("labels contain a single class; no model can be fit")
    if len(y) == 0:
        raise ValidationError("cannot fit on an empty sample")
    with np.errstate(over="ignore", invalid="ignore"):
        mean = features.mean(axis=0) if features.size else np.zeros(features.shape[1])
        centered = features - mean
        sd = np.sqrt((centered * centered).mean(axis=0)) if features.size else np.ones(features.shape[1])
    if not (np.isfinite(mean).all() and np.isfinite(sd).all()):
        raise ValidationError("a surrogate or covariate column is too large in magnitude to standardize")
    sd = np.where(sd == 0.0, 1.0, sd)
    z = centered / sd
    n, d = z.shape
    if ridge == 0.0:
        if n < d + 1:
            raise SingularDesignError(
                f"{n} rows cannot identify {d + 1} coefficients; add rows or use a positive ridge"
            )
        if d > 0:
            design = np.hstack([np.ones((n, 1)), z])
            eig = np.linalg.eigvalsh(design.T @ design)
            if not eig[0] > 1e-6 * eig[-1]:
                sv = np.linalg.svd(design, compute_uv=False)
                if sv[-1] <= sv[0] * 1e-10:
                    raise SingularDesignError(
                        "design matrix is rank deficient; a positive ridge penalty makes the fit well defined"
                    )
    return features, y, z, mean, sd


def _frozen_kernel_fit(features, labels, ridge=0.0, tol=1e-8, max_iter=100):
    """The earlier IRLS kernel, frozen: ``(intercept, coef, iterations)``, or its exception.

    One allocation per temporary: ``hstack`` design, ``logaddexp``
    objective, ``expit`` of the clipped predictor, and the Hessian as
    ``zw' zw`` of a row-major scaled copy.
    """
    from surrogate_ate.errors import ConvergenceError

    features, y, z, mean, sd = _frozen_prepare(features, labels, ridge)
    n, d = features.shape
    z1 = np.hstack([np.ones((n, 1)), z])
    penalty = np.concatenate([[0.0], ridge / sd**2])

    def objective(beta):
        eta = z1 @ beta
        return float((y * eta - np.logaddexp(0.0, eta)).sum()) - 0.5 * float(penalty @ beta**2), eta

    beta = np.zeros(d + 1)
    obj, eta = objective(beta)
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        p = 1.0 / (1.0 + np.exp(-np.maximum(np.minimum(np.maximum(eta, -36.0), 36.0), -708.0)))
        grad = z1.T @ (y - p) - penalty * beta
        if np.abs(grad).max() < tol:
            converged = True
            iterations -= 1
            break
        zw = z1 * np.sqrt(p * (1.0 - p))[:, None]
        hessian = zw.T @ zw
        hessian.flat[:: d + 2] += penalty
        try:
            step = np.linalg.solve(hessian, grad)
        except np.linalg.LinAlgError:
            if ridge == 0.0:
                raise SeparationError(
                    "logistic likelihood is flat at the boundary; data may be separated, "
                    "consider a positive ridge penalty"
                ) from None
            raise SingularDesignError(
                "the penalized normal equations are singular; use a larger ridge penalty"
            ) from None
        scale = 1.0
        candidate = beta + step
        cand_obj, cand_eta = objective(candidate)
        halvings = 0
        floor = obj - 1e-12 * (1.0 + abs(obj))
        while cand_obj < floor and halvings < 30:
            scale *= 0.5
            candidate = beta + scale * step
            cand_obj, cand_eta = objective(candidate)
            halvings += 1
        beta, obj, eta = candidate, cand_obj, cand_eta
        if ridge == 0.0 and np.linalg.norm(beta[1:]) > 30.0:
            raise SeparationError(
                "coefficient norm diverged: data are (quasi-)separated and the "
                "unpenalized MLE does not exist; use a positive ridge penalty"
            )
    if ridge == 0.0 and d > 0 and obj > -1e-6:
        raise SeparationError(
            "data are perfectly separated and the unpenalized MLE does not exist; "
            "use a positive ridge penalty"
        )
    if not converged:
        raise ConvergenceError(
            f"IRLS did not reach a score max-norm below {tol:g} in {max_iter} iterations; "
            "a larger ridge penalty may help"
        )
    return float(beta[0] - np.sum(beta[1:] * mean / sd)), beta[1:] / sd, iterations


def _bench_shaped(seed, n=500):
    """Rows shaped like the CLI benchmark's: 10 surrogates, 3 covariates, logistic treatment and outcome."""
    gen = np.random.default_rng(seed)
    x = gen.standard_normal((n, 3))
    w = (gen.random(n) < expit(x @ np.array([0.4, 0.0, -0.4]))).astype(float)
    loading = 0.3 * np.cos(np.add.outer(np.arange(3), np.arange(10)))
    s = w[:, None] * np.linspace(0.6, 0.1, 10) + x @ loading + gen.standard_normal((n, 10))
    return w, s, x


def _pinned_cases():
    """``(name, features, labels, ridge)`` of each fit whose bits are pinned."""
    for study, grid in (("sample_size", {"q": 0.05}), ("sample_size", {"q": 0.95}),
                        ("explanatory", {"design_row": 4})):
        s_e, w, s_o, y = _harness_draw(study, **grid)
        tag = "-".join(f"{study}-{value}" for value in grid.values())
        yield f"{tag}-score", s_e, w, 1e-6
        yield f"{tag}-index", s_o, y, 1e-6
    s_e, w, _, _ = _harness_draw("dimension", m=200)
    yield "dimension-200-score", s_e, w, 1e-6
    s_e, w, _, _ = _harness_draw("misspecification", k_used=250)
    yield "misspecification-250-score", s_e, w, 1e-6
    w, s, x = _bench_shaped(0)
    yield "bench-e", x, w, 0.0
    yield "bench-r", np.hstack([s, x]), w, 0.0
    _, s_obs, x_obs = _bench_shaped(1)
    membership = np.repeat([1.0, 0.0], [len(s), len(s_obs)])
    yield "bench-t", np.vstack([np.hstack([s, x]), np.hstack([s_obs, x_obs])]), membership, 0.0
    features, *_ = build_design(s[:, :3], x, interactions=True)
    yield "interactions", features, w, 0.0
    # heavy-tailed columns: the first Newton step overshoots and is halved once
    gen = np.random.default_rng(166)
    n, d = int(gen.integers(8, 40)), int(gen.integers(1, 4))
    s = gen.standard_cauchy(size=(n, d))
    yield "halved-step", s, (gen.random(n) < expit(s @ gen.normal(scale=3, size=d))).astype(float), 1e-3


def _bits(intercept, coef):
    """``float.hex`` of the intercept and of each coefficient; a digest of the hex when there are many."""
    hexes = [float(c).hex() for c in coef]
    if len(hexes) > 20:
        return float(intercept).hex(), hashlib.sha256(" ".join(hexes).encode()).hexdigest()
    return float(intercept).hex(), tuple(hexes)


PINNED_BITS = {
    "sample_size-0.05-score": ("0x1.1d2429481e2e6p-4", (
        "-0x1.c850d1730ffe6p-4", "-0x1.af68b3d9ff1e1p-1", "0x1.f54b4f01c61ddp-5", "-0x1.a8d5138a7a4cep-1",
        "-0x1.7cd20dfb3c81ep+0", "0x1.304d2fda0bae6p+0", "0x1.c41db8da6acd8p-3", "-0x1.f0844d1a4aafcp-2",
        "-0x1.4daed295281cap+1", "0x1.bb32ee6769dcbp+0",
    ), 7),
    "sample_size-0.05-index": ("0x1.05541a4930026p-3", (
        "-0x1.034c1a92e02dbp-4", "-0x1.2c9db1a7e48e3p-1", "-0x1.416e02a1316f1p-1", "-0x1.32498fcd25f2dp-1",
        "-0x1.c932751e3b02bp-2", "0x1.7143cba43f5bep+0", "0x1.4dd46c1ae88f6p-2", "-0x1.04706c1961ad7p-3",
        "-0x1.b876a3bf293a5p+0", "0x1.3e97874edb8fdp+0",
    ), 7),
    "sample_size-0.95-score": ("-0x1.009c8e75fd0eap-3", (
        "0x1.197a1800cee17p-4", "-0x1.3cd717755b4f0p-1", "-0x1.7f418c3b3f279p-2", "-0x1.5256b19c4beeep-1",
        "-0x1.a10bc5c75f4d7p-2", "0x1.5fc4972c54d4fp+0", "0x1.c3b4b3046bf64p-2", "-0x1.d454996d10c2fp-4",
        "-0x1.b91f0a18512d8p+0", "0x1.29c9432b39bccp+0",
    ), 6),
    "sample_size-0.95-index": ("-0x1.433bc5c5522e4p+2", (
        "0x1.1f03b267ff566p+2", "-0x1.7ab11329a9534p+0", "-0x1.78a78e39bf2e9p+2", "-0x1.64c236de7a315p-1",
        "-0x1.fcbe9f9c87b2dp-1", "0x1.b0bcbef4f563ap+3", "-0x1.9c2386118537cp+2", "-0x1.1aab6c5fbfae6p+1",
        "-0x1.064c880b5c6aap+3", "0x1.a22707595b20cp+3",
    ), 11),
    "explanatory-4-score": ("0x1.d22942d03819ep-4", (
        "0x1.2437cf92483e3p-5", "-0x1.faf91d5643655p-2", "-0x1.5dc6df453efdap-2", "-0x1.67ee6290d6505p-1",
        "-0x1.8aaaf0df7c2d3p-2", "0x1.6a80bfcbe92dcp+0", "0x1.061d202e4ad55p-2", "0x1.14d710d11837fp-3",
        "-0x1.82a2a477c3178p+0", "0x1.5ea0fd7737ca7p+0",
    ), 6),
    "explanatory-4-index": ("0x1.386c6dfdfbc23p-4", (
        "-0x1.098c0f0ee841dp-6", "-0x1.c8ef19fb0af74p-1", "-0x1.418923a3822e8p-1", "-0x1.e83a6e55e055bp-1",
        "-0x1.1ab23c890d4e9p-1", "0x1.407c3f9d0a261p+0", "0x1.1b4a5d2a2f15ap-3", "0x1.2f27cebd31daep-4",
        "-0x1.06e1807a4754bp+1", "0x1.8cb660fcca673p+0",
    ), 7),
    "dimension-200-score": ("-0x1.02640f6f1c785p-1", "26658d3b7c7ea206f806bd373d173508e1ef894865cf25ce38fd0d18f9fe9cd2", 9),
    "misspecification-250-score": ("0x1.5ec061e7fca84p+0", "79930912aee44759ad955637184ac510820341e4c68ea943d29a4e26b15421e8", 24),
    "bench-e": ("0x1.942bfd168f86fp-3", (
        "0x1.bc221c90f8b04p-2", "-0x1.aaf2ca5a9454ap-5", "-0x1.7bdce15aeaafcp-2",
    ), 4),
    "bench-r": ("-0x1.49fbd75ca5501p-1", (
        "0x1.4d3fa924805c4p-1", "0x1.fccab303c821bp-2", "0x1.f69818b56b237p-2", "0x1.f56eb76b565abp-2",
        "0x1.7870cf97a2464p-2", "0x1.7e189725b524cp-2", "0x1.41ee7673af978p-2", "0x1.39366730808dap-3",
        "0x1.00eca0cc98fb2p-2", "0x1.48eb6ccdc2ce1p-3", "0x1.003db7463fd38p-2", "-0x1.1c2c46f3cab21p-5",
        "-0x1.e8cae73540750p-3",
    ), 5),
    "bench-t": ("-0x1.5ace3b51970a1p-5", (
        "-0x1.1f93a2ef6d73ap-5", "0x1.4150e623b50bep-5", "0x1.0ecb20ca181a0p-5", "0x1.8b07e70b98126p-5",
        "-0x1.637021e12ba8fp-5", "0x1.0b864af6537e7p-4", "0x1.6c6ef842c6ce0p-3", "-0x1.5c23cd6063565p-4",
        "0x1.183597eb7a0a0p-5", "-0x1.20f761b302376p-6", "-0x1.5d6be68c6883ap-3", "0x1.1646aae02bfaap-4",
        "0x1.e530a1a5e6806p-4",
    ), 3),
    "interactions": ("-0x1.e240d8b98be9cp-3", (
        "0x1.3265afa9a31b2p-1", "0x1.fd399912f505fp-2", "0x1.0f52965ebc766p-1", "0x1.91f614740d1dbp-3",
        "0x1.0db4dfb6205efp-4", "-0x1.ff7160fd4395bp-4", "-0x1.138b63c758adbp-3", "-0x1.05cde4fa89b6ap-4",
        "-0x1.64c0a9ffb5fd3p-6", "0x1.37cd18c84a9d4p-11", "0x1.31043a8f7de5ep-6", "0x1.5887caf6f73a4p-5",
        "-0x1.f3a7e1b9e82f3p-4", "-0x1.7459bebeecbafp-5", "0x1.28d4f30d08a72p-5",
    ), 5),
    "halved-step": ("0x1.2ff97a680cd80p+1", (
        "-0x1.a1da3e6796e81p+2", "0x1.dc05332fc05dbp-4", "0x1.ced058aa51105p+3",
    ), 17),
}


@pytest.mark.parametrize("case", list(_pinned_cases()), ids=lambda case: case[0])
def test_logistic_kernel_bits_are_pinned(case):
    name, features, labels, ridge = case
    model = fit_logistic(features, labels, ridge=ridge)
    assert (*_bits(model.intercept, model.coef), model.iterations) == PINNED_BITS[name]
    intercept, coef, iterations = _frozen_kernel_fit(features, labels, ridge)
    assert (*_bits(intercept, coef), iterations) == PINNED_BITS[name]


@st.composite
def _small_fits(draw):
    """A small logistic design: Gaussian or heavy-tailed columns, sometimes a duplicate column."""
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(3, 60))
    d = draw(st.integers(0, 4))
    gen = np.random.default_rng(seed)
    features = gen.standard_cauchy((n, d)) if draw(st.booleans()) else gen.normal(size=(n, d))
    if d > 1 and draw(st.booleans()):
        features[:, -1] = features[:, 0]
    slope = draw(st.sampled_from([0.0, 1.0, 5.0]))
    labels = (gen.random(n) < expit(slope * features.sum(axis=1) + gen.normal())).astype(float)
    return features, labels, draw(st.sampled_from([0.0, 1e-6, 0.1]))


@settings(max_examples=300, deadline=None)
@given(_small_fits())
def test_logistic_kernel_matches_the_frozen_kernel_bit_for_bit(case):
    features, labels, ridge = case
    try:
        expected = _frozen_kernel_fit(features, labels, ridge)
    except Exception as exc:  # the kernel must fail the same way
        with pytest.raises(type(exc)) as raised:
            fit_logistic(features, labels, ridge=ridge)
        assert type(raised.value) is type(exc) and str(raised.value) == str(exc)
        return
    model = fit_logistic(features, labels, ridge=ridge)
    intercept, coef, iterations = expected
    assert model.intercept == intercept and model.iterations == iterations
    assert np.array_equal(model.coef, coef)


# ---------------------------------------------------------------------------
# the package's own expit

def test_expit_within_two_ulp_of_scipy():
    x = np.random.default_rng(9).normal(scale=5.0, size=1_000_000)
    ours, theirs = own_expit(x), expit(x)
    assert (np.abs(ours - theirs) <= 2 * np.spacing(theirs)).all()
    assert own_expit(0.0) == 0.5


@pytest.mark.parametrize("x", [40.0, 745.0, 1e308])
def test_expit_saturates_like_scipy(x):
    # 1 / (1 + exp(-40)) rounds to exactly 1; its mirror 4.2e-18 is not yet
    # saturated, so there the two exps may differ in the last bits
    assert own_expit(x) == expit(x) == 1.0
    assert abs(own_expit(-x) - expit(-x)) <= max(1e-300, 2 * np.spacing(expit(-x)))


def test_expit_warns_on_no_finite_input():
    finfo = np.finfo(float)
    x = np.array([-finfo.max, -1e308, -745.0, -709.8, -708.0, -40.0, -finfo.tiny, 0.0,
                  finfo.tiny, 40.0, 709.8, 745.0, 1e308, finfo.max])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p = own_expit(x)
        for value in x:
            own_expit(float(value))
    assert ((p >= 0.0) & (p <= 1.0)).all() and np.all(np.diff(p) >= 0.0)


def test_expit_of_a_float_is_a_scalar():
    value = own_expit(0.25)
    assert np.ndim(value) == 0 and isinstance(value, float)
    assert value == pytest.approx(expit(0.25), rel=1e-15)


def test_package_and_cli_import_no_scipy():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import surrogate_ate

    src = str(Path(surrogate_ate.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, surrogate_ate, surrogate_ate.cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"


# the package's public names
PUBLIC_NAMES = """
    __version__
    ExperimentalSample ObservationalSample SingleSample PooledDataset Schema load_experimental load_observational
    load_single pool write_experimental write_observational write_single
    LinearModel LogisticModel ConstantScore NuisanceFits NuisanceOptions fit_least_squares fit_logistic fit_all
    build_design bernoulli_loglik bernoulli_loglik_gradient
    EstimateReport WeightSummary MatchOptions estimate_index estimate_score estimate_tau_surrogates
    estimate_linear_shortcut estimate_matching estimate_single_sample bootstrap_se
    BiasBound EfficiencyBounds DiscretePopulation IdentificationReport BiasIdentityReport bias_bound
    verify_identification verify_bias_identity random_population efficiency_bounds_single_sample
    efficiency_gain_homoskedastic efficiency_bound_two_sample two_sample_bound_value v_ns_covariate_form
    DgpSpec McResult EstimatorStats DEFAULT_GRIDS make_spec draw_dataset true_tau true_tau_mc calibrate_tau
    run_monte_carlo run_study
    SurrogateError ConfigurationError SchemaError ValidationError PoolingError UnsupportedConfigurationError FitError
    DegenerateLabelsError SeparationError SingularDesignError ConvergenceError EstimationError OverlapError
    DegenerateArmError UnstableBootstrapError CalibrationError StudyError WorkerError
""".split()


def test_package_exports_its_public_names():
    import surrogate_ate

    assert len(PUBLIC_NAMES) == 77
    assert sorted(surrogate_ate.__all__) == sorted(PUBLIC_NAMES)
    assert all(hasattr(surrogate_ate, name) for name in PUBLIC_NAMES)


@pytest.mark.parametrize("shape", [(1000, 14), (500, 251), (7, 3), (1, 1), (5, 0), (0, 3)])
def test_standardize_is_bit_identical_to_the_two_pass_form(shape):
    gen = np.random.default_rng(shape[0] + shape[1])
    features = gen.normal(size=shape) * gen.uniform(0.1, 1e3, size=shape[1]) + 100 * gen.normal(size=shape[1])
    if shape[0] > 1 and shape[1] > 1:
        features[:, 1] = 2.5  # a constant column keeps its unit scale
    z1, mean, sd = _standardize(features)
    ref_mean = features.mean(axis=0) if features.size else np.zeros(shape[1])
    ref_sd = features.std(axis=0) if features.size else np.ones(shape[1])
    ref_sd = np.where(ref_sd == 0.0, 1.0, ref_sd)
    assert np.array_equal(mean, ref_mean) and np.array_equal(sd, ref_sd)
    assert (z1[:, 0] == 1.0).all() and np.array_equal(z1[:, 1:], (features - ref_mean) / ref_sd)


# ---------------------------------------------------------------------------
# rank check: the Gram-eigenvalue certificate and the SVD behind it

RANK_DEFICIENT = "design matrix is rank deficient; a positive ridge penalty makes the fit well defined"


def _design_with_ratio(ratio, n=200, seed=0):
    """The design ``[1 | u | u + 2 * ratio * v]``, whose sigma_min / sigma_max is close to ``ratio``.

    ``u`` and ``v`` are orthogonal to each other and to the intercept, each of
    norm sqrt(n), so the singular values are sqrt(2n), sqrt(n) and about
    ratio * sqrt(2n).
    """
    gen = np.random.default_rng(seed)
    q, _ = np.linalg.qr(np.column_stack([np.ones(n), gen.normal(size=(n, 2))]))
    u, v = q[:, 1] * np.sqrt(n), q[:, 2] * np.sqrt(n)
    return np.column_stack([np.ones(n), u, u + 2.0 * ratio * v])


def _svd_ratio(z1):
    sv = np.linalg.svd(z1, compute_uv=False)
    return sv[-1] / sv[0]


@pytest.mark.parametrize("factor", [0.999, 1.001])
def test_rank_check_cut_at_1e_10_is_unchanged(factor):
    z = _design_with_ratio(1e-10 * factor)
    deficient = _svd_ratio(z) <= 1e-10
    assert deficient == (factor < 1.0)  # the design lands on the intended side of the cut
    if deficient:
        with pytest.raises(SingularDesignError) as err:
            _check_rank(z)
        assert str(err.value) == RANK_DEFICIENT
    else:
        _check_rank(z)


def _count_svd_calls(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counting(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return calls


@pytest.mark.parametrize("ratio", [1e-9, 1e-6, 1e-4, 5e-4])
def test_rank_check_between_the_cut_and_the_certificate_takes_the_svd(monkeypatch, ratio):
    z = _design_with_ratio(ratio)
    calls = _count_svd_calls(monkeypatch)
    _check_rank(z)
    assert len(calls) == 1


def test_rank_check_certifies_well_conditioned_designs_without_an_svd(monkeypatch, rng):
    designs = [_design_with_ratio(1e-2), _standardize(rng.normal(size=(1000, 13)))[0],
               _standardize(rng.normal(size=(30, 1)))[0]]
    calls = _count_svd_calls(monkeypatch)
    for z in designs:
        _check_rank(z)
    fit_least_squares(rng.normal(size=(500, 4)), rng.normal(size=500))
    assert calls == []


def test_rank_check_exactly_deficient_design_reaches_the_svd_and_raises(monkeypatch, rng):
    z = _standardize(rng.normal(size=(50, 3)))[0]
    z = np.column_stack([z, z[:, 1]])
    calls = _count_svd_calls(monkeypatch)
    with pytest.raises(SingularDesignError) as err:
        _check_rank(z)
    assert str(err.value) == RANK_DEFICIENT and len(calls) == 1


# ---------------------------------------------------------------------------
# the ridge-free logistic fit certifies its rank from its first Newton Hessian

def _rank_deficient_logistic_cases():
    rng = np.random.default_rng(21)
    s = rng.normal(size=(40, 2))
    labels = (rng.random(40) < expit(s @ [1.0, -0.5])).astype(float)
    yield "duplicated-column", np.hstack([s, s[:, :1]]), labels, RANK_DEFICIENT
    yield "constant-column", np.hstack([s, np.full((40, 1), 3.0)]), labels, RANK_DEFICIENT
    yield ("too-few-rows", s[:2], np.array([0.0, 1.0]),
           "2 rows cannot identify 3 coefficients; add rows or use a positive ridge")
    # every row once with each label: the score at beta = 0 is zero, so the fit forms no Hessian
    rows = np.hstack([s[:10], s[:10, :1]])
    yield "every-row-with-both-labels", np.vstack([rows, rows]), np.repeat([0.0, 1.0], 10), RANK_DEFICIENT


def _recording(monkeypatch, name):
    """Replace ``nuisance.<name>`` with a wrapper that records each call's arguments."""
    from surrogate_ate import nuisance

    calls, original = [], getattr(nuisance, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(nuisance, name, wrapper)
    return calls


@pytest.mark.parametrize("case", list(_rank_deficient_logistic_cases()), ids=lambda case: case[0])
@pytest.mark.parametrize("max_iter", [100, 1, 0])
def test_a_ridge_free_logistic_fit_raises_the_rank_error_before_any_other(monkeypatch, case, max_iter):
    name, features, labels, message = case
    checks = _recording(monkeypatch, "_check_rank")
    for trusted in (False, True):
        with pytest.raises(SingularDesignError) as err:
            fit_logistic(features, labels, max_iter=max_iter, _trusted=trusted)
        assert str(err.value) == message
    if name == "every-row-with-both-labels" or max_iter == 0:
        # no Newton step solved a Hessian, so the design itself was checked
        score = _standardize(features)[0].T @ (labels - 0.5)
        assert max_iter == 0 or np.abs(score).max() < 1e-8
        assert all(len(args) == 1 for args in checks)


def test_a_ridge_free_logistic_fit_checks_its_rank_on_its_first_hessian(monkeypatch, rng):
    s = rng.normal(size=(300, 4))
    labels = (rng.random(300) < expit(s @ [1.0, -0.5, 0.25, 0.0])).astype(float)
    want = fit_logistic(s, labels)
    checks = _recording(monkeypatch, "_check_rank")
    solved = _recording(monkeypatch, "_penalized_solve")
    eigenvalue_inputs = []
    eigvalsh = np.linalg.eigvalsh

    def recording_eigvalsh(matrix, *args, **kwargs):
        eigenvalue_inputs.append(matrix)
        return eigvalsh(matrix, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording_eigvalsh)
    got = fit_logistic(s, labels)
    assert _bits(got.intercept, got.coef) == _bits(want.intercept, want.coef) and got.iterations > 1
    # one check, on the Hessian that the first Newton step solves, and no Gram of its own
    [(z1, hessian)] = checks
    assert hessian is solved[0][0] and len(solved) == got.iterations
    assert len(eigenvalue_inputs) == 1 and eigenvalue_inputs[0] is hessian
    # at beta = 0 every weight is 1/4
    assert np.allclose(4.0 * hessian, z1.T @ z1, rtol=1e-13, atol=1e-10)
    # a positive ridge checks no rank, and least squares checks its own design
    fit_logistic(s, labels, ridge=1e-3)
    fit_least_squares(s, labels)
    assert len(checks) == 2 and len(checks[1]) == 1


# ---------------------------------------------------------------------------
# fit_all on the pooled dataset's shared designs


def _fit_all_pooled(covariates):
    w, s, x = _bench_shaped(2, n=400)
    _, s_obs, x_obs = _bench_shaped(3, n=600)
    gen = np.random.default_rng(4)
    y = s_obs @ np.linspace(0.5, -0.2, 10) + x_obs @ np.array([-0.3, 0.0, 0.3]) + gen.standard_normal(600)
    exp = ExperimentalSample(w=w, s=s, x=x if covariates else None)
    return pool(exp, ObservationalSample(y=y, s=s_obs, x=x_obs if covariates else None))


def _fits_digest(fits):
    """sha256 of the ``float.hex`` of every fitted number of the four models, with each logistic fit's iterations."""
    parts = []
    for slot in ("e_model", "r_model", "t_model", "h_model"):
        model = getattr(fits, slot)
        if isinstance(model, ConstantScore):
            parts.append(float(model.p).hex())
            continue
        numbers = (model.intercept, *model.coef, getattr(model, "residual_variance", 0.0))
        parts += [float(v).hex() for v in numbers] + [str(getattr(model, "iterations", ""))]
    return hashlib.sha256(" ".join(parts).encode()).hexdigest()


# the digests of the models fit_all returned when every fit stacked and standardized its own design
FIT_ALL_BITS = {
    "covariates": (True, {}, "e24951f9a6dac16cdea815599313aaf2e4d6bc84e50af6043c72ece377ee050d"),
    "no covariates": (False, {}, "286a88d27fa381a083a937ac9ea50eb805e8303192d3a406b4562d507bc8a223"),
    "interactions": (True, {"interactions": True},
                     "70ee410e5d5d120a1bf62f1f8db30192dde54c254a9aaf10d905a18f94e7365f"),
    "constant sampling score": (True, {"constant_sampling_score": True},
                                "9e10b6978d8cadec5f944fc73a3b95f99a4d3fb9295aae64934207ba7797aefe"),
    "constant propensity": (True, {"constant_propensity": 0.4},
                            "c9e7b23bd59259f48de2759bdfe0de29c29b2a383bd44165306963b2893aed93"),
    "ridge": (True, {"ridge_propensity": 0.3, "ridge_surrogate_score": 0.1, "ridge_sampling_score": 0.2,
                     "ridge_index": 0.5}, "c602f6ed81b287f7820c33148fd5fc6293fc4f65c156d6526b15de14046e59d6"),
}


@pytest.mark.parametrize("case", sorted(FIT_ALL_BITS))
def test_fit_all_on_the_shared_designs_keeps_its_bits(case):
    covariates, options, digest = FIT_ALL_BITS[case]
    pooled = _fit_all_pooled(covariates)
    assert _fits_digest(fit_all(pooled, NuisanceOptions(**options))) == digest
    # a second fit reads the designs the first one built
    assert _fits_digest(fit_all(pooled, NuisanceOptions(**options))) == digest


# ---------------------------------------------------------------------------
# validated once: fits on the columns of a validated sample skip the input rescans

@pytest.mark.parametrize("fit, binary", [(fit_logistic, True), (fit_least_squares, False)])
@pytest.mark.parametrize("ridge", [0.0, 0.3])
def test_a_trusted_fit_equals_the_checked_fit_bit_for_bit(fit, binary, ridge):
    exp, obs = draw_dataset(make_spec("sample_size", seed=3, q=0.5), 7)
    features, target = (exp.s, exp.w) if binary else (obs.s, obs.s @ np.linspace(1.0, -1.0, 10))
    checked, trusted = fit(features, target, ridge=ridge), fit(features, target, ridge=ridge, _trusted=True)
    assert checked.intercept.hex() == trusted.intercept.hex()
    assert [v.hex() for v in checked.coef] == [v.hex() for v in trusted.coef]


@pytest.mark.parametrize("fit", [fit_logistic, fit_least_squares])
def test_a_trusted_fit_keeps_every_check_on_the_data(fit):
    rng = np.random.default_rng(2)
    s = rng.normal(size=(40, 2))
    cases = [
        ((s, np.ones(40), {"ridge": -1.0}), ValidationError, "ridge penalty must be finite"),
        ((np.hstack([s, s[:, :1]]), (s[:, 0] > 0).astype(float), {}), SingularDesignError, "rank deficient"),
    ]
    if fit is fit_logistic:
        cases += [
            ((np.empty((0, 2)), np.empty(0), {}), DegenerateLabelsError, "single class"),
            ((s, np.ones(40), {}), DegenerateLabelsError, "single class"),
            ((s, (s[:, 0] > 0).astype(float), {}), SeparationError, "separated"),
        ]
    else:
        cases.append(((np.empty((0, 2)), np.empty(0), {}), ValidationError, "empty sample"))
    for (features, target, kwargs), error, text in cases:
        for trusted in (False, True):
            with pytest.raises(error, match=text):
                fit(features, target, _trusted=trusted, **kwargs)


def test_fit_all_checks_an_overflowing_interaction_design_as_user_input():
    # finite columns whose products overflow: the interaction design is not trusted
    rng = np.random.default_rng(4)
    exp = ExperimentalSample(w=np.tile([0.0, 1.0], 30), s=rng.normal(size=(60, 2)) * 1e300,
                             x=rng.normal(size=(60, 1)) * 1e10)
    obs = ObservationalSample(y=rng.normal(size=50), s=rng.normal(size=(50, 2)), x=rng.normal(size=(50, 1)))
    with np.errstate(over="ignore"):
        with pytest.raises(ValidationError, match="^surrogate score: non-finite values in the training data$"):
            fit_all(pool(exp, obs), NuisanceOptions(interactions=True))
    with pytest.raises(ValidationError, match="^surrogate score: a surrogate or covariate column is too large"):
        fit_all(pool(exp, obs))


def _design_oracle(s, x, interactions):
    """``[s | x | s (x) x]`` stacked in one ``hstack``, the products surrogate-major."""
    blocks = [s, x] + ([(s[:, :, None] * x[:, None, :]).reshape(len(s), -1)] if interactions else [])
    return np.hstack(blocks)


def _predict_oracle(model, s, x):
    """A model's prediction written out: the stacked design times the coefficients, then the link."""
    if isinstance(model, ConstantScore):
        return np.full(len(s), model.p)
    eta = model.intercept + _design_oracle(s, x, model.uses_interactions) @ model.coef
    if isinstance(model, LogisticModel):
        return 1.0 / (1.0 + np.exp(-np.clip(eta, -36.0, 36.0)))
    return eta


def _hexes(values):
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("options", [{}, {"interactions": True}])
def test_predictions_from_the_pooled_rows_equal_predict(options):
    rng = np.random.default_rng(8)
    exp = ExperimentalSample(w=np.tile([0.0, 1.0], 40), s=rng.normal(size=(80, 3)), x=rng.normal(size=(80, 2)))
    obs = ObservationalSample(y=rng.normal(size=90), s=rng.normal(size=(90, 3)), x=rng.normal(size=(90, 2)))
    pooled = pool(exp, obs)
    fits = fit_all(pooled, NuisanceOptions(**options))
    for model, sample, rows in ((fits.r_model, obs, pooled.sx[exp.n:]), (fits.t_model, obs, pooled.sx[exp.n:]),
                                (fits.h_model, exp, pooled.sx[: exp.n]), (ConstantScore(0.3), exp, pooled.sx[: exp.n])):
        want = _hexes(_predict_oracle(model, sample.s, sample.x))
        assert _hexes(model._predict_sx(rows)) == want
        assert _hexes(model.predict(sample.s, sample.x)) == want


@pytest.mark.parametrize("cls", [LinearModel, LogisticModel])
@pytest.mark.parametrize("n_x, interactions", [(0, False), (2, False), (2, True)])
def test_predict_and_the_stored_rows_path_pin_the_stacked_design_bits(cls, n_x, interactions):
    rng = np.random.default_rng(31)
    n, n_s = 50, 3
    # wide enough that some logistic predictors reach the +-36 clip
    s, x = rng.normal(size=(n, n_s)) * 20.0, rng.normal(size=(n, n_x)) * 3.0
    model = cls(intercept=0.7, coef_s=rng.normal(size=n_s), coef_x=rng.normal(size=n_x),
                coef_sx=rng.normal(size=n_s * n_x if interactions else 0))
    assert model.uses_interactions == interactions
    want = _hexes(_predict_oracle(model, s, x))
    assert _hexes(model.predict(s, x)) == want
    assert _hexes(model._predict_sx(np.hstack([s, x]))) == want
    if n_x == 0:
        assert _hexes(model.predict(s)) == want
    if cls is LogisticModel:
        eta = model.intercept + _design_oracle(s, x, interactions) @ model.coef
        assert np.abs(eta).max() > 36.0


@pytest.mark.parametrize("n_s, n_x, interactions", [
    (3, 0, False), (3, 0, True), (0, 2, False), (0, 2, True), (3, 2, False), (3, 2, True),
])
def test_build_design_for_each_block_layout(n_s, n_x, interactions):
    rng = np.random.default_rng(6)
    s, x = rng.normal(size=(7, n_s)), rng.normal(size=(7, n_x))
    features, got_s, got_x, n_sx = build_design(s, x, interactions)
    want_sx = n_s * n_x if interactions else 0
    assert (got_s, got_x, n_sx) == (n_s, n_x, want_sx)
    assert features.shape == (7, n_s + n_x + want_sx) and features.flags.c_contiguous
    assert features.tobytes() == _design_oracle(s, x, interactions).tobytes()
    if n_s and n_x:
        assert not np.shares_memory(features, s) and not np.shares_memory(features, x)
        return
    # a lone block is returned as it is when C-contiguous, else as a C-contiguous copy
    lone = s if n_s else x
    assert np.shares_memory(features, lone)
    strided = np.asfortranarray(lone)
    copied = build_design(*((strided, x) if n_s else (s, strided)), interactions)[0]
    assert copied.flags.c_contiguous and not np.shares_memory(copied, strided)
    assert copied.tobytes() == features.tobytes()


_MODEL_SX = LinearModel(intercept=0.0, coef_s=np.ones(2), coef_x=np.ones(1))


@pytest.mark.parametrize("call", [build_design, _MODEL_SX.predict, ConstantScore(0.3).predict],
                         ids=["build_design", "predict", "constant-predict"])
@pytest.mark.parametrize("s, x, text", [
    (np.ones((3, 2)), np.ones((4, 1)), "row counts differ: s=3, x=4"),
    (np.ones((3, 2, 1)), np.ones((3, 1)), "s must be a 2-d array, got ndim=3"),
    (np.ones((3, 2)), np.ones((3, 1, 1)), "x must be a 2-d array, got ndim=3"),
    (np.array([[1.0, np.nan]] * 3), np.ones((3, 1)), "non-finite value in design column 2 at row 1"),
])
def test_build_design_and_predict_refuse_blocks_that_do_not_make_a_design(call, s, x, text):
    # numpy's hstack raised ValueError on mismatched rows, predict evaluated a NaN cell to NaN,
    # and a constant score answered every one of these with its probability
    with pytest.raises(ValidationError, match=text):
        call(s, x)


@pytest.mark.parametrize("kwargs, text", [
    ({"max_iter": -1}, "max_iter must be a non-negative integer, got -1"),
    ({"max_iter": 1.5}, "max_iter must be a non-negative integer, got 1.5"),
    ({"tol": float("nan")}, "tol must be finite and positive, got nan"),
    ({"tol": 0.0}, "tol must be finite and positive, got 0.0"),
])
def test_fit_logistic_refuses_a_bad_setting_before_any_fit(kwargs, text):
    # these were ConvergenceError ("in -1 iterations", "below nan") or, for 1.5, a raw TypeError
    s = np.array([[0.0], [1.0], [2.0], [3.0], [0.5], [2.5]])
    with pytest.raises(ValidationError, match=text):
        fit_logistic(s, [0.0, 1.0, 0.0, 1.0, 1.0, 0.0], **kwargs)


@pytest.mark.parametrize("fit", [fit_least_squares, fit_logistic])
def test_a_kernel_refuses_features_that_are_not_2d(fit):
    with pytest.raises(ValidationError, match="features must be a 2-d array, got ndim=3"):
        fit(np.ones((4, 1, 1)), [0.0, 1.0, 0.0, 1.0])


@pytest.mark.parametrize("text, message", [
    ("{", "JSONDecodeError"),
    ("{}", "KeyError: 'e_model'"),
    ("[]", "TypeError"),
    (SAVED_FITS.replace('"linear"', '"cubic"'), "KeyError: 'cubic'"),
    (SAVED_FITS.replace('"intercept": 2.0', '"intercept": "2.0"'), "fields of a LinearModel must be finite numbers"),
    (SAVED_FITS.replace('"intercept": 2.0', '"intercept": NaN'), "number out of range: NaN"),
    (SAVED_FITS.replace('"coef_sx": [0.0625, 1e-300]', '"coef_sx": [0.0625]'), "one interaction term per"),
])
def test_fits_json_refuses_a_malformed_payload(text, message):
    with pytest.raises(ValidationError, match=message):
        NuisanceFits.from_json(text)


@pytest.mark.parametrize("n_x", [0, 2])
@pytest.mark.parametrize("ridge", [0.0, 0.1])
def test_the_single_sample_propensity_is_fit_all_s_on_the_same_rows(n_x, ridge):
    from surrogate_ate.diagnostics import _covariate_plugins

    rng = np.random.default_rng(12)
    n = 120
    x = rng.normal(size=(n, n_x))
    w = (rng.random(n) < expit(0.5 * x.sum(axis=1))).astype(float)
    s = rng.normal(size=(n, 2)) + w[:, None]
    covariates = x if n_x else None
    sample = SingleSample(w=w, y=rng.normal(size=n), s=s, x=covariates)
    exp = ExperimentalSample(w=w, s=s, x=covariates)
    obs = ObservationalSample(y=rng.normal(size=80), s=rng.normal(size=(80, 2)),
                              x=rng.normal(size=(80, n_x)) if n_x else None)
    fits = fit_all(pool(exp, obs), NuisanceOptions(ridge_propensity=ridge))
    assert isinstance(fits.e_model, LogisticModel if n_x else ConstantScore)
    e = _covariate_plugins(sample, "homoskedastic", ridge)[0]
    assert _hexes(e) == _hexes(fits.e_model._predict_sx(exp.x))
