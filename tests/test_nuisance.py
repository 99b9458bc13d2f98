import json
import warnings

import numpy as np
import pytest
from scipy.special import expit

from surrogate_ate import (
    ConstantScore,
    DegenerateLabelsError,
    ExperimentalSample,
    LinearModel,
    LogisticModel,
    NuisanceFits,
    NuisanceOptions,
    ObservationalSample,
    SeparationError,
    SingularDesignError,
    ValidationError,
    bernoulli_loglik,
    bernoulli_loglik_gradient,
    build_design,
    draw_dataset,
    fit_all,
    fit_least_squares,
    fit_logistic,
    make_spec,
    pool,
    predict_score,
)
from surrogate_ate.nuisance import _standardize
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
    assert model.converged


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
    assert predict_score(score, [0.0]) == pytest.approx(0.5)
    index = fit_least_squares(np.zeros((2, 1)), np.zeros(2), ridge=1.0)
    index = type(index)(intercept=0.0, coef_s=np.zeros(1), coef_x=np.zeros(0), residual_variance=0.0)
    assert predict_score(index, [123.0]) == pytest.approx(0.0)


def test_predict_direct_evaluation():
    from surrogate_ate import LinearModel, LogisticModel

    score = LogisticModel(intercept=1.0, coef_s=np.array([2.0]), coef_x=np.zeros(0))
    assert predict_score(score, [0.5]) == pytest.approx(expit(2.0), abs=1e-12)
    assert predict_score(score, [0.5]) == pytest.approx(0.8807970779778823, abs=1e-9)
    index = LinearModel(intercept=1.0, coef_s=np.array([2.0]), coef_x=np.zeros(0))
    assert predict_score(index, [0.5]) == pytest.approx(2.0, abs=1e-12)


def test_predict_wrong_length_raises():
    from surrogate_ate import LogisticModel

    score = LogisticModel(intercept=0.0, coef_s=np.array([1.0]), coef_x=np.zeros(0))
    with pytest.raises(ValueError):
        predict_score(score, [1.0, 2.0])


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
    pred = fits.surrogate_index(obs.s[:2], obs.x[:2])
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
# format, to a model's fields or to the options fails here.
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
    assert (fits.r_model.converged, fits.r_model.iterations) == (False, 100)
    assert isinstance(fits.h_model, LinearModel)
    assert fits.h_model.uses_interactions and fits.h_model.residual_variance == 0.3
    assert fits.t_model is None
    assert fits.options.interactions and fits.options.constant_propensity == 0.5
    assert fits.to_json() == SAVED_FITS


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
    assert fit_logistic(s, labels).converged


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
    from surrogate_ate.nuisance import _prepare

    features, y, z, mean, sd = _prepare(features, labels, ridge, binary=True)
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


@pytest.mark.parametrize("shape", [(1000, 14), (500, 251), (7, 3), (1, 1), (5, 0), (0, 3)])
def test_standardize_is_bit_identical_to_the_two_pass_form(shape):
    gen = np.random.default_rng(shape[0] + shape[1])
    features = gen.normal(size=shape) * gen.uniform(0.1, 1e3, size=shape[1]) + 100 * gen.normal(size=shape[1])
    if shape[0] > 1 and shape[1] > 1:
        features[:, 1] = 2.5  # a constant column keeps its unit scale
    z, mean, sd = _standardize(features)
    ref_mean = features.mean(axis=0) if features.size else np.zeros(shape[1])
    ref_sd = features.std(axis=0) if features.size else np.ones(shape[1])
    ref_sd = np.where(ref_sd == 0.0, 1.0, ref_sd)
    assert np.array_equal(mean, ref_mean) and np.array_equal(sd, ref_sd)
    assert np.array_equal(z, (features - ref_mean) / ref_sd)
