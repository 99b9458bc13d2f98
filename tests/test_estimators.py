import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from conftest import FixedIndex, FixedScore
from surrogate_ate import (
    ConstantScore,
    DegenerateArmError,
    ExperimentalSample,
    LinearModel,
    NuisanceFits,
    NuisanceOptions,
    ObservationalSample,
    OverlapError,
    SingleSample,
    SurrogateError,
    UnstableBootstrapError,
    UnsupportedConfigurationError,
    ValidationError,
    bootstrap_se,
    draw_dataset,
    estimate_index,
    estimate_linear_shortcut,
    estimate_matching,
    estimate_score,
    estimate_single_sample,
    estimate_tau_surrogates,
    fit_all,
    make_spec,
    pool,
)
from surrogate_ate.estimators import (
    MatchOptions,
    _index_tau,
    _ipw_weights,
    _linear_tau,
    _score_tau,
    _surrogate_contrasts,
)


def _fits(e=None, r=None, t=None, h=None):
    return NuisanceFits(e_model=e, r_model=r, t_model=t, h_model=h)


# ---------------------------------------------------------------------------
# surrogate index estimator

def test_index_constant_h_gives_zero(small_exp):
    fits = _fits(e=ConstantScore(0.4), h=FixedIndex(np.full(small_exp.n, 3.3)))
    report = estimate_index(small_exp, fits)
    assert report.tau_hat == pytest.approx(0.0, abs=1e-15)
    assert report.method == "index"


def test_index_constant_e_collapses_to_arm_means():
    exp = ExperimentalSample(w=[1, 0, 1, 0, 1], s=[[2.0], [1.0], [4.0], [3.0], [6.0]])
    fits = _fits(e=ConstantScore(0.6), h=FixedIndex(exp.s[:, 0]))
    report = estimate_index(exp, fits)
    expected = exp.s[exp.w == 1, 0].mean() - exp.s[exp.w == 0, 0].mean()
    assert report.tau_hat == pytest.approx(expected, abs=1e-12)


def test_index_matches_direct_formula_oracle():
    w = np.array([1.0, 0.0, 1.0, 0.0, 1.0, 0.0])
    h = np.array([1.2, 0.7, 2.5, -0.3, 0.9, 1.8])
    e = np.array([0.3, 0.5, 0.7, 0.2, 0.6, 0.4])
    exp = ExperimentalSample(w=w, s=h.reshape(-1, 1))
    report = estimate_index(exp, _fits(e=FixedScore(e), h=FixedIndex(h)))

    w1 = w / e
    w0 = (1 - w) / (1 - e)
    oracle = (h * w1).sum() / w1.sum() - (h * w0).sum() / w0.sum()
    assert report.tau_hat == pytest.approx(oracle, abs=1e-12)

    summary = report.weight_summary
    assert summary.treated.ess <= exp.n_treated
    assert summary.treated.min > 0 and summary.treated.max < 1
    assert report.n_used == {"treated": 3, "control": 3}


def test_index_overlap_error_without_trim(small_exp):
    e = np.array([0.5, 0.5, 1.0, 0.5, 0.5, 0.5])
    fits = _fits(e=FixedScore(e), h=FixedIndex(np.zeros(6)))
    with pytest.raises(OverlapError):
        estimate_index(small_exp, fits, trim=None)
    # trimming is the documented remedy
    report = estimate_index(small_exp, fits, trim=1e-6)
    assert np.isfinite(report.tau_hat)
    assert report.weight_summary.n_trimmed == 1


@pytest.mark.parametrize("trim", [-0.1, 0.5, 0.7, float("nan")])
def test_trim_outside_zero_to_half_is_rejected(small_exp, trim):
    fits = _fits(e=ConstantScore(0.4), h=FixedIndex(np.zeros(small_exp.n)))
    with pytest.raises(ValidationError, match="trim"):
        estimate_index(small_exp, fits, trim=trim)


# ---------------------------------------------------------------------------
# surrogate score estimator

def test_score_constant_scores_give_zero(small_obs):
    n = small_obs.n
    fits = _fits(e=ConstantScore(0.37), r=FixedScore(np.full(n, 0.37)), t=ConstantScore(0.5))
    report = estimate_score(small_obs, fits, q=0.5)
    assert report.tau_hat == pytest.approx(0.0, abs=1e-12)


def test_score_matches_direct_formula_oracle():
    y = np.array([1.0, 2.0, 3.0, 4.0])
    r = np.array([0.3, 0.6, 0.2, 0.8])
    e = np.array([0.5, 0.4, 0.6, 0.5])
    t = np.array([0.4, 0.5, 0.3, 0.6])
    q = 0.35
    obs = ObservationalSample(y=y, s=np.arange(4.0).reshape(-1, 1))
    report = estimate_score(obs, _fits(e=FixedScore(e), r=FixedScore(r), t=FixedScore(t)), q=q)

    w1 = r * t * (1 - q) / (e * (1 - t) * q)
    w0 = (1 - r) * t * (1 - q) / ((1 - e) * (1 - t) * q)
    oracle = (y * w1).sum() / w1.sum() - (y * w0).sum() / w0.sum()
    assert report.tau_hat == pytest.approx(oracle, abs=1e-12)


def test_score_degenerate_control_arm(small_obs):
    n = small_obs.n
    fits = _fits(e=ConstantScore(0.5), r=FixedScore(np.ones(n)), t=ConstantScore(0.5))
    with pytest.raises(DegenerateArmError, match="control"):
        estimate_score(small_obs, fits, q=0.5, trim=None)


def test_score_sampling_overlap_error(small_obs):
    n = small_obs.n
    t = np.full(n, 1.0 - 1e-14)
    fits = _fits(e=ConstantScore(0.5), r=FixedScore(np.full(n, 0.5)), t=FixedScore(t))
    with pytest.raises(OverlapError, match="sampling"):
        estimate_score(small_obs, fits, q=0.5, trim=None)


# ---------------------------------------------------------------------------
# per-surrogate effects and the linear shortcut

def test_tau_surrogates_constant_column_is_zero():
    exp = ExperimentalSample(w=[1, 0, 1, 0], s=np.column_stack([np.full(4, 2.0), [1.0, 2.0, 3.0, 4.0]]))
    taus = estimate_tau_surrogates(exp, _fits(e=ConstantScore(0.5)))
    assert taus[0] == pytest.approx(0.0, abs=1e-15)


def test_tau_surrogates_constant_e_gives_mean_contrasts():
    exp = ExperimentalSample(w=[1, 0, 1, 0, 1], s=np.arange(10.0).reshape(5, 2))
    taus = estimate_tau_surrogates(exp, _fits(e=ConstantScore(0.3)))
    for j in range(2):
        expected = exp.s[exp.w == 1, j].mean() - exp.s[exp.w == 0, j].mean()
        assert taus[j] == pytest.approx(expected, abs=1e-12)


def test_tau_surrogates_matches_dgp_shift():
    spec = make_spec("dimension", seed=21, m=2)
    big = type(spec)(study="dimension", m_surrogates=2, n_exp=100_000, n_obs=10,
                     alpha=spec.alpha, gamma=spec.gamma, seed=21)
    exp, _ = draw_dataset(big, np.random.SeedSequence((21, 2, 0, 0)))
    taus = estimate_tau_surrogates(exp, _fits(e=ConstantScore(float(exp.w.mean()))))

    # quadrature oracle for the true per-surrogate shift
    nodes, weights = np.polynomial.hermite_e.hermegauss(128)
    weights = weights / np.sqrt(2 * np.pi)
    norm = np.linalg.norm(spec.alpha)
    u = norm * nodes
    r = expit(u)
    p = weights @ r
    e_ur = weights @ (u * r)
    shift = (spec.alpha / norm**2) * e_ur * (1 / p + 1 / (1 - p))
    se = np.sqrt(1.0 / (big.n_exp * p * (1 - p)))  # conservative scale for a mean contrast
    assert np.abs(taus - shift).max() < 3 * se


def test_linear_shortcut_zero_coefficients(small_exp):
    h = LinearModel(intercept=2.0, coef_s=np.zeros(1), coef_x=np.zeros(1))
    report = estimate_linear_shortcut(small_exp, _fits(e=ConstantScore(0.5), h=h))
    assert report.tau_hat == 0.0
    assert report.method == "linear_shortcut"


def test_linear_shortcut_equals_index_without_covariates():
    exp = ExperimentalSample(w=[1, 0, 1, 0, 1, 0], s=np.arange(12.0).reshape(6, 2) ** 1.3)
    h = LinearModel(intercept=0.7, coef_s=np.array([1.5, -2.0]), coef_x=np.zeros(0))
    fits = _fits(e=ConstantScore(0.5), h=h)
    shortcut = estimate_linear_shortcut(exp, fits)
    index = estimate_index(exp, fits)
    assert shortcut.tau_hat == pytest.approx(index.tau_hat, abs=1e-12)


def test_linear_shortcut_matches_direct_oracle():
    exp = ExperimentalSample(
        w=[1.0, 0.0, 1.0, 0.0, 1.0],
        s=np.array([[0.1, 1.0], [0.4, 2.0], [0.3, 0.5], [0.9, 1.5], [0.6, 0.2]]),
    )
    e = np.array([0.4, 0.3, 0.5, 0.7, 0.6])
    h = LinearModel(intercept=0.0, coef_s=np.array([2.0, -1.0]), coef_x=np.zeros(0))
    fits = _fits(e=FixedScore(e), h=h)
    taus = estimate_tau_surrogates(exp, fits)
    report = estimate_linear_shortcut(exp, fits)
    assert report.tau_hat == pytest.approx(2.0 * taus[0] - 1.0 * taus[1], abs=1e-12)


def _surrogate_contrasts_column_by_column(exp, w1, w0):
    """The former per-column loop: each column's arms checked and normalized on their own."""
    taus = []
    for column in exp.s.T:
        means = []
        for weights, arm in ((w1, "treated"), (w0, "control")):
            total = weights.sum()
            if not np.isfinite(total) or not np.isfinite(column @ weights):
                raise OverlapError(f"{arm} arm weights are not finite; a score reached its boundary")
            if total <= 0.0:
                raise DegenerateArmError(f"{arm} arm has zero total weight")
            means.append(float(column @ (weights / total)))
        taus.append(means[0] - means[1])
    return np.array(taus)


@pytest.mark.parametrize("trim", [None, 0.05])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_surrogate_contrasts_equal_the_column_by_column_loop(trim, seed):
    rng = np.random.default_rng(seed)
    n, m, k = 400, 6, 2
    exp = ExperimentalSample(
        w=(rng.random(n) < 0.4).astype(float), s=rng.normal(size=(n, m)) * [1, 10, 1e-3, 1, 5, 1],
        x=rng.normal(size=(n, k)),
    )
    # scores this close to 0 and 1 make the 0.05 trim clip a share of the rows
    e = rng.uniform(0.01, 0.99, n)
    h = LinearModel(intercept=0.3, coef_s=rng.normal(size=m), coef_x=rng.normal(size=k))
    fits = _fits(e=FixedScore(e), h=h)
    w1, w0, n_trimmed = _ipw_weights(exp, fits, trim)
    assert (n_trimmed > 0) == (trim is not None)
    oracle = _surrogate_contrasts_column_by_column(exp, w1, w0)
    assert np.array_equal(_surrogate_contrasts(exp, w1, w0), oracle)
    assert np.array_equal(estimate_tau_surrogates(exp, fits, trim), oracle)
    assert estimate_linear_shortcut(exp, fits, trim).tau_hat == float(h.coef_s @ oracle)


@pytest.mark.parametrize("zero_arm", [0, 1])
def test_surrogate_contrasts_zero_total_arm_is_degenerate(small_exp, zero_arm):
    w1, w0 = small_exp.w * 2.0, (1.0 - small_exp.w) * 3.0
    weights = (np.zeros(small_exp.n), w0) if zero_arm == 0 else (w1, np.zeros(small_exp.n))
    arm = ("treated", "control")[zero_arm]
    for contrasts in (_surrogate_contrasts_column_by_column, _surrogate_contrasts):
        with pytest.raises(DegenerateArmError, match=f"^{arm} arm has zero total weight$"):
            contrasts(small_exp, *weights)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
@pytest.mark.parametrize("bad_arm", [0, 1])
def test_surrogate_contrasts_non_finite_weights_are_an_overlap_error(small_exp, bad, bad_arm):
    weights = [small_exp.w * 2.0, (1.0 - small_exp.w) * 3.0]
    weights[bad_arm][bad_arm] = bad  # row 0 is treated, row 1 a control
    arm = ("treated", "control")[bad_arm]
    message = f"^{arm} arm weights are not finite; a score reached its boundary$"
    for contrasts in (_surrogate_contrasts_column_by_column, _surrogate_contrasts):
        with pytest.raises(OverlapError, match=message):
            contrasts(small_exp, *weights)


def test_linear_shortcut_rejects_nonlinear_index(small_exp):
    fits = _fits(e=ConstantScore(0.5), h=FixedIndex(np.zeros(6)))
    with pytest.raises(UnsupportedConfigurationError):
        estimate_linear_shortcut(small_exp, fits)


# ---------------------------------------------------------------------------
# matching

def test_matching_exact_copy_reproduces_within_sample_contrast():
    w = np.array([1.0, 0.0, 1.0, 0.0])
    s = np.array([[1.0], [1.1], [3.0], [2.8]])
    x = np.array([[0.0], [0.1], [1.0], [0.9]])
    exp = ExperimentalSample(w=w, s=s, x=x)
    obs = ObservationalSample(y=s[:, 0], s=s, x=x)  # identical rows, y = s
    report = estimate_matching(exp, obs)
    # unit 0 matches control 1, unit 2 matches control 3; obs matches are exact copies
    expected = np.mean([s[0, 0] - s[1, 0], s[2, 0] - s[3, 0]])
    assert report.tau_hat == pytest.approx(expected, abs=1e-12)


def _brute_force_matching(exp, obs, both_directions=False):
    x_mean, x_sd = exp.x.mean(axis=0), exp.x.std(axis=0)
    x_sd = np.where(x_sd == 0, 1.0, x_sd)
    sx_exp = np.hstack([exp.s, exp.x])
    sx_obs = np.hstack([obs.s, obs.x])
    pool_sx = np.vstack([sx_exp, sx_obs])
    sx_mean, sx_sd = pool_sx.mean(axis=0), pool_sx.std(axis=0)
    sx_sd = np.where(sx_sd == 0, 1.0, sx_sd)

    def nearest_obs(i):
        target = (sx_exp[i] - sx_mean) / sx_sd
        dists = [np.sum((target - (sx_obs[j] - sx_mean) / sx_sd) ** 2) for j in range(obs.n)]
        return int(np.argmin(dists))

    def nearest_opposite(i, opposite):
        target = (exp.x[i] - x_mean) / x_sd
        dists = [np.sum((target - (exp.x[j] - x_mean) / x_sd) ** 2) for j in opposite]
        return opposite[int(np.argmin(dists))]

    treated = [i for i in range(exp.n) if exp.w[i] == 1]
    control = [i for i in range(exp.n) if exp.w[i] == 0]
    effects = []
    for i in treated:
        j = nearest_opposite(i, control)
        effects.append(obs.y[nearest_obs(i)] - obs.y[nearest_obs(j)])
    if both_directions:
        for j in control:
            i = nearest_opposite(j, treated)
            effects.append(obs.y[nearest_obs(i)] - obs.y[nearest_obs(j)])
    return float(np.mean(effects))


def test_matching_matches_brute_force(rng):
    exp = ExperimentalSample(
        w=[1, 1, 1, 0, 0, 0],
        s=rng.normal(size=(6, 2)),
        x=rng.normal(size=(6, 1)),
    )
    obs = ObservationalSample(y=rng.normal(size=6), s=rng.normal(size=(6, 2)), x=rng.normal(size=(6, 1)))
    assert estimate_matching(exp, obs).tau_hat == pytest.approx(_brute_force_matching(exp, obs), abs=1e-12)
    both = estimate_matching(exp, obs, MatchOptions(both_directions=True))
    assert both.tau_hat == pytest.approx(_brute_force_matching(exp, obs, True), abs=1e-12)


def test_matching_single_pair_no_choice():
    exp = ExperimentalSample(w=[1, 0], s=[[0.0], [5.0]], x=None)
    obs = ObservationalSample(y=[10.0, 20.0], s=[[0.1], [4.9]], x=None)
    report = estimate_matching(exp, obs)
    assert report.tau_hat == pytest.approx(10.0 - 20.0)


# ---------------------------------------------------------------------------
# single-sample estimators

def test_single_sample_identical_y_both_modes_zero():
    sample = SingleSample(w=[1, 0, 1, 0], y=[2.0, 2.0, 2.0, 2.0], s=[[0.1], [0.4], [0.8], [0.3]])
    assert estimate_single_sample(sample, "difference_in_means").tau_hat == pytest.approx(0.0)
    assert estimate_single_sample(sample, "surrogate_index").tau_hat == pytest.approx(0.0, abs=1e-12)


def test_single_sample_identity_index_agrees():
    s = np.array([[0.3], [1.0], [2.4], [0.7], [1.9], [0.1]])
    sample = SingleSample(w=[1, 0, 1, 0, 1, 0], y=s[:, 0], s=s)
    dim = estimate_single_sample(sample, "difference_in_means")
    idx = estimate_single_sample(sample, "surrogate_index")
    assert idx.tau_hat == pytest.approx(dim.tau_hat, abs=1e-12)
    assert dim.method == "single_sample_dim"
    assert idx.method == "single_sample_index"


def test_single_sample_eight_rows_hand_arithmetic(small_single):
    dim = estimate_single_sample(small_single, "difference_in_means")
    assert dim.tau_hat == pytest.approx(4.0 - 1.5, abs=1e-12)

    # two-stage oracle: fit pooled regression, then contrast fitted values
    from surrogate_ate import fit_least_squares

    model = fit_least_squares(small_single.s, small_single.y)
    fitted = model.intercept + small_single.s[:, 0] * model.coef_s[0]
    oracle = fitted[small_single.w == 1].mean() - fitted[small_single.w == 0].mean()
    idx = estimate_single_sample(small_single, "surrogate_index")
    assert idx.tau_hat == pytest.approx(oracle, abs=1e-12)


# ---------------------------------------------------------------------------
# bootstrap

def test_bootstrap_constant_estimator_zero_se(small_exp, small_obs):
    se = bootstrap_se(lambda e, o: 1.23, (small_exp, small_obs), reps=50, seed=1)
    assert se == 0.0


def test_bootstrap_deterministic(small_exp, small_obs):
    def estimator(e, o):
        return float(o.y.mean() - e.s.mean())

    a = bootstrap_se(estimator, (small_exp, small_obs), reps=100, seed=9)
    b = bootstrap_se(estimator, (small_exp, small_obs), reps=100, seed=9)
    assert a == b
    c = bootstrap_se(estimator, (small_exp, small_obs), reps=100, seed=10)
    assert a != c


def test_bootstrap_deterministic_across_thread_counts(small_exp, small_obs, process_pools, monkeypatch):
    def estimator(e, o):
        return float(o.y.mean() - e.s.mean())

    monkeypatch.setenv("SURROGATE_THREADS", "1")
    a = bootstrap_se(estimator, (small_exp, small_obs), reps=64, seed=3)
    monkeypatch.setenv("SURROGATE_THREADS", "8")
    b = bootstrap_se(estimator, (small_exp, small_obs), reps=64, seed=3)
    monkeypatch.delenv("SURROGATE_THREADS")
    c = bootstrap_se(estimator, (small_exp, small_obs), reps=64, seed=3)
    assert process_pools == [3, 3]
    assert a == b == c


def test_bootstrap_matches_exhaustive_enumeration():
    # single sample, within-arm resampling: treated outcomes {0, 1}, one control at 0.
    # treated resample compositions: (0,0),(0,1),(1,0),(1,1) each with prob 1/4,
    # giving estimates {0, .5, .5, 1}; exhaustive sd = sqrt(1/8).
    sample = SingleSample(w=[1, 1, 0], y=[0.0, 1.0, 0.0], s=[[0.0], [1.0], [0.0]])
    estimates = [0.0, 0.5, 0.5, 1.0]
    exact_sd = float(np.std(estimates, ddof=0))

    se = bootstrap_se(
        lambda s: estimate_single_sample(s, "difference_in_means").tau_hat,
        (sample,),
        reps=10_000,
        seed=4,
    )
    assert abs(se - exact_sd) / exact_sd < 0.10


def test_bootstrap_two_point_sample_is_degenerate():
    # one treated, one control: within-arm resampling reproduces the sample
    sample = SingleSample(w=[1, 0], y=[3.0, 1.0], s=[[0.0], [1.0]])
    se = bootstrap_se(
        lambda s: estimate_single_sample(s, "difference_in_means").tau_hat, (sample,), reps=200, seed=5
    )
    assert se == 0.0


@pytest.mark.usefixtures("serial_maps")
def test_bootstrap_failure_threshold(small_single):
    calls = {"n": 0}

    def flaky(s):
        # single-sample resampling is stratified within arms, so the sample
        # itself never fails to rebuild and the failure count is exact
        calls["n"] += 1
        if calls["n"] % 2 == 0:
            raise DegenerateArmError("boom")
        return 1.0

    with pytest.raises(UnstableBootstrapError) as exc:
        bootstrap_se(flaky, (small_single,), reps=100, seed=0)
    assert exc.value.failures == 50
    assert "50 of 100" in str(exc.value)


def test_bootstrap_all_replicates_failing_is_unstable(small_single):
    def always_fails(s):
        raise DegenerateArmError("boom")

    with pytest.raises(UnstableBootstrapError) as exc:
        bootstrap_se(always_fails, (small_single,), reps=10, seed=0, max_failure_rate=1.0)
    assert exc.value.failures == 10


@pytest.mark.parametrize("rate", [float("nan"), -0.1, 1.5, float("inf"), -float("inf")])
def test_bootstrap_rejects_a_failure_rate_outside_the_unit_interval(small_single, rate):
    calls = itertools.count()

    def counted(s):
        next(calls)
        return float(s.y.mean())

    # nan used to switch the failure check off; -0.1 used to report "0 of 10 failed"
    with pytest.raises(ValidationError, match="max_failure_rate must lie in"):
        bootstrap_se(counted, (small_single,), reps=10, seed=0, max_failure_rate=rate)
    assert next(calls) == 0


@pytest.mark.parametrize("rate", [0.0, 1.0])
def test_bootstrap_accepts_the_failure_rate_end_points(small_single, rate):
    se = bootstrap_se(lambda s: float(s.y.mean()), (small_single,), reps=10, seed=0, max_failure_rate=rate)
    assert np.isfinite(se)


@pytest.mark.usefixtures("serial_maps")
def test_bootstrap_single_survivor_is_unstable(small_single):
    calls = itertools.count()

    def first_only(s):
        if next(calls) == 0:
            return 1.0
        raise DegenerateArmError("boom")

    # one value has no spread to estimate, which is not a standard error of 0
    with pytest.raises(UnstableBootstrapError) as exc:
        bootstrap_se(first_only, (small_single,), reps=10, seed=0, max_failure_rate=1.0)
    assert exc.value.failures == 9


@pytest.mark.usefixtures("serial_maps")
def test_bootstrap_tuple_none_fails_only_its_own_statistic(small_single):
    calls, alone_calls = itertools.count(), itertools.count()
    dropped = {3, 17, 40, 41, 99}

    def pair(s):
        k = next(calls)
        return float(s.y.mean()), None if k in dropped else float(s.y @ s.w)

    def second_alone(s):
        if next(alone_calls) in dropped:
            raise DegenerateArmError("dropped")
        return float(s.y @ s.w)

    ses = bootstrap_se(pair, (small_single,), reps=100, seed=6)
    assert isinstance(ses, tuple) and len(ses) == 2
    # the same resamples as two scalar bootstraps, one of which loses the dropped replicates
    assert ses[0] == bootstrap_se(lambda s: float(s.y.mean()), (small_single,), reps=100, seed=6)
    assert ses[1] == bootstrap_se(second_alone, (small_single,), reps=100, seed=6)


@pytest.mark.usefixtures("serial_maps")
def test_bootstrap_tuple_first_unstable_statistic_raises(small_single):
    calls = itertools.count()

    def triple(s):
        k = next(calls)
        return 1.0, None if k % 4 == 0 else float(k), None if k % 2 == 0 else float(k)

    # statistics 1 and 2 lose 25 and 50 of 100 replicates; the first over the limit reports
    with pytest.raises(UnstableBootstrapError) as exc:
        bootstrap_se(triple, (small_single,), reps=100, seed=0)
    assert (exc.value.failures, exc.value.reps) == (25, 100)
    assert "25 of 100" in str(exc.value)


@pytest.mark.usefixtures("serial_maps")
def test_bootstrap_tuple_raising_fails_every_statistic(small_single):
    calls = itertools.count()

    def pair(s):
        k = next(calls)
        if k % 10 == 0:
            raise DegenerateArmError("boom")
        return float(k), None if k % 10 == 1 else float(k)

    # 10 whole failures fit under the limit for the first statistic; with the
    # 10 None entries the second statistic has 20, which fit exactly at 0.2
    first, second = bootstrap_se(pair, (small_single,), reps=100, seed=0)
    assert first == float(np.std([k for k in range(100) if k % 10], ddof=1))
    assert second == float(np.std([k for k in range(100) if k % 10 > 1], ddof=1))
    with pytest.raises(UnstableBootstrapError) as exc:
        bootstrap_se(pair, (small_single,), reps=100, seed=0, max_failure_rate=0.15)
    assert (exc.value.failures, exc.value.reps) == (20, 100)


# ---------------------------------------------------------------------------
# cross-cutting properties

def _pipeline_estimates(exp, obs):
    pooled = pool(exp, obs)
    fits = fit_all(pooled, NuisanceOptions(constant_sampling_score=True, ridge_surrogate_score=1e-6))
    return (
        estimate_index(exp, fits).tau_hat,
        estimate_score(obs, fits, pooled.q).tau_hat,
        estimate_linear_shortcut(exp, fits).tau_hat,
        estimate_matching(exp, obs).tau_hat,
    )


def test_scale_and_shift_equivariance(rng):
    exp = ExperimentalSample(w=rng.integers(0, 2, 60), s=rng.normal(size=(60, 2)))
    if exp.w.sum() in (0, 60):
        pytest.skip("degenerate draw")
    obs = ObservationalSample(y=rng.normal(size=80), s=rng.normal(size=(80, 2)))
    base = _pipeline_estimates(exp, obs)

    scaled = ObservationalSample(y=2.5 * obs.y, s=obs.s)
    for got, want in zip(_pipeline_estimates(exp, scaled), base):
        assert got == pytest.approx(2.5 * want, rel=1e-9, abs=1e-12)

    shifted = ObservationalSample(y=obs.y + 7.0, s=obs.s)
    for got, want in zip(_pipeline_estimates(exp, shifted), base):
        assert got == pytest.approx(want, rel=1e-9, abs=1e-9)


def test_index_and_score_agree_on_large_samples():
    spec = make_spec("dimension", seed=33, m=3)
    big = type(spec)(study="dimension", m_surrogates=3, n_exp=100_000, n_obs=100_000,
                     alpha=spec.alpha, gamma=spec.gamma, seed=33)
    exp, obs = draw_dataset(big, np.random.SeedSequence((33, 2, 0, 0)))
    pooled = pool(exp, obs)
    fits = fit_all(pooled, NuisanceOptions(constant_sampling_score=True, ridge_surrogate_score=1e-6))
    tau_e = estimate_index(exp, fits).tau_hat
    tau_o = estimate_score(obs, fits, pooled.q).tau_hat

    def both_gap(e, o):
        p = pool(e, o)
        f = fit_all(p, NuisanceOptions(constant_sampling_score=True, ridge_surrogate_score=1e-6))
        return estimate_index(e, f).tau_hat - estimate_score(o, f, p.q).tau_hat

    se_gap = bootstrap_se(both_gap, (exp, obs), reps=12, seed=7)
    assert abs(tau_e - tau_o) < 4 * max(se_gap, 1e-4)


def test_weight_summary_normalization(small_exp):
    e = np.array([0.2, 0.4, 0.6, 0.8, 0.3, 0.7])
    fits = _fits(e=FixedScore(e), h=FixedIndex(np.arange(6.0)))
    report = estimate_index(small_exp, fits)
    s = report.weight_summary
    for arm, n_arm in ((s.treated, 3), (s.control, 3)):
        assert arm.n == n_arm
        assert 0 < arm.ess <= small_exp.n
        assert 0 < arm.min <= arm.max < 1
    # reconstruct normalized weights and check they sum to one
    w1 = small_exp.w / e
    assert abs((w1 / w1.sum()).sum() - 1.0) < 1e-12


@st.composite
def _weighting_instance(draw):
    n = draw(st.integers(min_value=3, max_value=12))
    unit = st.floats(min_value=0.05, max_value=0.95)
    finite = st.floats(min_value=-50, max_value=50, allow_nan=False)
    y = draw(st.lists(finite, min_size=n, max_size=n))
    r = draw(st.lists(unit, min_size=n, max_size=n))
    e = draw(st.lists(unit, min_size=n, max_size=n))
    t = draw(st.lists(unit, min_size=n, max_size=n))
    q = draw(st.floats(min_value=0.05, max_value=0.95))
    return np.array(y), np.array(r), np.array(e), np.array(t), q


@settings(max_examples=60, deadline=None)
@given(_weighting_instance())
def test_score_estimator_fuzz_against_direct_formula(instance):
    y, r, e, t, q = instance
    obs = ObservationalSample(y=y, s=np.arange(float(len(y))).reshape(-1, 1))
    report = estimate_score(obs, _fits(e=FixedScore(e), r=FixedScore(r), t=FixedScore(t)), q=q)
    w1 = r * t * (1 - q) / (e * (1 - t) * q)
    w0 = (1 - r) * t * (1 - q) / ((1 - e) * (1 - t) * q)
    oracle = (y * w1).sum() / w1.sum() - (y * w0).sum() / w0.sum()
    assert report.tau_hat == pytest.approx(oracle, rel=1e-10, abs=1e-10)


@st.composite
def _index_instance(draw):
    n = draw(st.integers(min_value=4, max_value=12))
    w = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n).filter(lambda v: 0 < sum(v) < len(v)))
    h = draw(st.lists(st.floats(min_value=-50, max_value=50, allow_nan=False), min_size=n, max_size=n))
    e = draw(st.lists(st.floats(min_value=0.05, max_value=0.95), min_size=n, max_size=n))
    return np.array(w, dtype=float), np.array(h), np.array(e)


@settings(max_examples=60, deadline=None)
@given(_index_instance())
def test_index_estimator_fuzz_against_direct_formula(instance):
    w, h, e = instance
    exp = ExperimentalSample(w=w, s=np.arange(float(len(w))).reshape(-1, 1))
    report = estimate_index(exp, _fits(e=FixedScore(e), h=FixedIndex(h)))
    w1 = w / e
    w0 = (1 - w) / (1 - e)
    oracle = (h * w1).sum() / w1.sum() - (h * w0).sum() / w0.sum()
    assert report.tau_hat == pytest.approx(oracle, rel=1e-10, abs=1e-10)


def test_matching_matches_brute_force_random_sweep():
    gen = np.random.default_rng(777)
    for trial in range(10):
        n_exp = int(gen.integers(4, 12))
        n_obs = int(gen.integers(2, 12))
        k = int(gen.integers(0, 3))
        w = gen.integers(0, 2, n_exp).astype(float)
        w[0], w[1] = 1.0, 0.0
        exp = ExperimentalSample(
            w=w,
            s=gen.normal(size=(n_exp, 2)),
            x=gen.normal(size=(n_exp, k)) if k else None,
        )
        obs = ObservationalSample(
            y=gen.normal(size=n_obs),
            s=gen.normal(size=(n_obs, 2)),
            x=gen.normal(size=(n_obs, k)) if k else None,
        )
        got = estimate_matching(exp, obs).tau_hat
        want = _brute_force_matching(exp, obs)
        assert got == pytest.approx(want, abs=1e-12), f"trial {trial}"
        both = estimate_matching(exp, obs, MatchOptions(both_directions=True)).tau_hat
        assert both == pytest.approx(_brute_force_matching(exp, obs, True), abs=1e-12)


def test_single_sample_scale_and_shift_equivariance(small_single):
    base_dim = estimate_single_sample(small_single, "difference_in_means").tau_hat
    base_idx = estimate_single_sample(small_single, "surrogate_index").tau_hat
    scaled = SingleSample(w=small_single.w, y=3.0 * small_single.y, s=small_single.s)
    assert estimate_single_sample(scaled, "difference_in_means").tau_hat == pytest.approx(3 * base_dim, rel=1e-12)
    assert estimate_single_sample(scaled, "surrogate_index").tau_hat == pytest.approx(3 * base_idx, rel=1e-9)
    shifted = SingleSample(w=small_single.w, y=small_single.y - 11.0, s=small_single.s)
    assert estimate_single_sample(shifted, "difference_in_means").tau_hat == pytest.approx(base_dim, rel=1e-12)
    assert estimate_single_sample(shifted, "surrogate_index").tau_hat == pytest.approx(base_idx, rel=1e-9, abs=1e-9)


def test_bootstrap_negative_seed_is_rejected(small_exp):
    with pytest.raises(ValidationError, match="seed must be non-negative"):
        bootstrap_se(lambda e: float(e.w.mean()), (small_exp,), reps=2, seed=-1)


def _constructed(sample, idx):
    """``sample``'s rows ``idx`` through the validating constructor."""
    return type(sample)(**{c: getattr(sample, c)[idx] for c in (*sample.unit_columns, "s", "x")})


@pytest.mark.parametrize("which", ["exp", "obs", "exp without covariates"])
def test_resample_takes_each_column_by_index(small_exp, small_obs, which):
    from surrogate_ate.estimators import _resample

    samples = {"exp": small_exp, "obs": small_obs}
    samples["exp without covariates"] = ExperimentalSample(w=small_exp.w, s=small_exp.s)
    sample = samples[which]
    taken = _resample(sample, np.random.default_rng(8))
    idx = np.random.default_rng(8).integers(0, sample.n, sample.n)
    want = _constructed(sample, idx)
    assert type(taken) is type(sample)
    for c in (*sample.unit_columns, "s", "x"):
        col, ref = getattr(taken, c), getattr(want, c)
        assert np.array_equal(col, getattr(sample, c)[idx])
        assert (col.dtype, col.shape, col.flags.writeable) == (ref.dtype, ref.shape, False)
        assert col.flags.c_contiguous == ref.flags.c_contiguous
        with pytest.raises(ValueError):
            col[...] = 0.0


def test_a_resample_that_loses_an_arm_raises_the_constructors_error():
    exp = ExperimentalSample(w=[1.0, 0.0, 0.0, 0.0], s=[[0.1], [0.2], [0.3], [0.4]])
    idx = np.array([1, 2, 2, 3])
    with pytest.raises(ValidationError) as constructed:
        _constructed(exp, idx)
    with pytest.raises(ValidationError) as taken:
        exp._take(idx)
    message = "experimental sample needs at least one treated and one control unit"
    assert str(taken.value) == str(constructed.value) == message
    with pytest.raises(ValidationError, match="^single sample needs at least one treated"):
        SingleSample(w=[1.0, 0.0], y=[1.0, 2.0], s=[[0.0], [1.0]])._take(np.array([0, 0]))


def test_bootstrap_drops_the_replicates_whose_resample_lost_an_arm():
    from surrogate_ate.parallel import seed_sequence

    exp = ExperimentalSample(w=[1.0, 0.0, 0.0, 0.0, 0.0], s=[[0.1], [0.2], [0.3], [0.4], [0.5]])
    reps, seed, kept = 40, 6, []
    for rep in range(reps):
        w = exp.w[np.random.default_rng(seed_sequence(seed, rep)).integers(0, exp.n, exp.n)]
        if 0.0 < w.sum() < exp.n:
            kept.append(w.mean())
    assert 0 < reps - len(kept) <= 0.5 * reps  # some replicates lose the treated unit
    se = bootstrap_se(lambda e: float(e.w.mean()), (exp,), reps=reps, seed=seed, max_failure_rate=0.5)
    assert se == float(np.std(kept, ddof=1))


def test_single_sample_resamples_keep_their_arm_sizes(small_single):
    from surrogate_ate.estimators import _resample

    rng = np.random.default_rng(9)
    sample = small_single
    for _ in range(5):
        sample = _resample(sample, rng)  # a resample of a resample, too
        assert (sample.n, sample.w.sum()) == (small_single.n, small_single.w.sum())
        assert np.all(sample.w[: 4] == 1.0) and np.all(sample.w[4:] == 0.0)
        assert not any(getattr(sample, c).flags.writeable for c in ("w", "y", "s", "x"))


# ---------------------------------------------------------------------------
# tau-only cores: the public estimates and errors, without the reports

def _outcome(call):
    """The float hex of what ``call`` returns (a report's ``tau_hat``), or the type and message it raises."""
    try:
        value = call()
    except SurrogateError as err:
        return type(err), str(err)
    return float(getattr(value, "tau_hat", value)).hex()


def _pooled(seed, n_covariates):
    rng = np.random.default_rng(seed)
    n_exp, n_obs, m = 70 + 5 * seed, 90, 3
    x = rng.normal(size=(n_exp, n_covariates))
    w = (rng.random(n_exp) < expit(0.4 * x.sum(axis=1))).astype(float)
    exp = ExperimentalSample(w=w, s=rng.normal(size=(n_exp, m)) + 0.4 * w[:, None] + 0.2 * x.sum(axis=1)[:, None],
                             x=x)
    x = rng.normal(size=(n_obs, n_covariates))
    s = rng.normal(size=(n_obs, m)) + 0.2 * x.sum(axis=1)[:, None]
    obs = ObservationalSample(y=s.sum(axis=1) + rng.normal(size=n_obs), s=s, x=x)
    return pool(exp, obs)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("n_covariates", [0, 2])
@pytest.mark.parametrize("options", [
    NuisanceOptions(),
    NuisanceOptions(interactions=True),
    NuisanceOptions(constant_sampling_score=True, ridge_index=0.5, ridge_surrogate_score=0.1),
])
@pytest.mark.parametrize("trim", [None, 1e-6, 0.05])
def test_cores_equal_the_public_estimates_bit_for_bit(seed, n_covariates, options, trim):
    pooled = _pooled(seed, n_covariates)
    fits = fit_all(pooled, options)
    exp, obs = pooled.exp, pooled.obs
    sx_exp, sx_obs = pooled.sx[: exp.n], pooled.sx[exp.n :]
    index = estimate_index(exp, fits, trim).tau_hat.hex()
    assert _index_tau(exp, fits, trim).hex() == _index_tau(exp, fits, trim, sx_exp).hex() == index
    score = estimate_score(obs, fits, pooled.q, trim).tau_hat.hex()
    assert _score_tau(obs, fits, pooled.q, trim).hex() == _score_tau(obs, fits, pooled.q, trim, sx_obs).hex() == score
    assert _outcome(lambda: _linear_tau(exp, fits, trim)) == _outcome(lambda: estimate_linear_shortcut(exp, fits, trim))


def _index_case(exp, obs, e=None, h=None, trim=None):
    fits = _fits(e=FixedScore(e) if e is not None else ConstantScore(0.5), h=h)
    return lambda: _index_tau(exp, fits, trim), lambda: estimate_index(exp, fits, trim)


def _score_case(exp, obs, e=None, r=None, t=None, q=0.5, trim=None):
    n = obs.n
    fits = _fits(e=FixedScore(e) if e is not None else ConstantScore(0.5),
                 r=FixedScore(r if r is not None else np.full(n, 0.5)), t=FixedScore(t) if t is not None else None)
    return lambda: _score_tau(obs, fits, q, trim), lambda: estimate_score(obs, fits, q, trim)


def _linear_case(exp, obs, e=None, h="linear", trim=None):
    m = exp.n_surrogates
    models = {
        "linear": LinearModel(intercept=0.1, coef_s=np.full(m, 0.5), coef_x=np.zeros(exp.n_covariates)),
        "interactions": LinearModel(intercept=0.1, coef_s=np.full(m, 0.5), coef_x=np.zeros(exp.n_covariates),
                                    coef_sx=np.ones(m * exp.n_covariates)),
        "fixed": FixedIndex(np.zeros(exp.n)),
    }
    fits = _fits(e=FixedScore(e) if e is not None else ConstantScore(0.5), h=models[h])
    return lambda: _linear_tau(exp, fits, trim), lambda: estimate_linear_shortcut(exp, fits, trim)


_TINY = 5e-324  # w / e overflows to inf
_E_EXP = np.array([0.5, 0.4, 0.6, 0.5, 0.3, 0.7])  # small_exp's rows: treated, control, ...
_R_OBS = np.linspace(0.2, 0.8, 8)


@pytest.mark.parametrize("case, kwargs, error", [
    (_index_case, {"h": FixedIndex(np.arange(6.0))}, None),
    (_index_case, {"h": FixedIndex(np.arange(6.0)), "e": np.where(np.arange(6) == 2, 1.0, 0.5)}, OverlapError),
    (_index_case, {"h": FixedIndex(np.arange(6.0)), "e": np.where(np.arange(6) == 3, 0.0, 0.5)}, OverlapError),
    (_index_case, {"h": FixedIndex(np.arange(6.0)), "e": np.where(np.arange(6) == 0, _TINY, 0.5)}, OverlapError),
    (_index_case, {"h": FixedIndex(np.arange(6.0)), "e": _E_EXP, "trim": 0.7}, ValidationError),
    (_index_case, {"h": FixedIndex(np.arange(6.0)), "e": _E_EXP, "trim": 0.2}, None),
    (_index_case, {}, ValidationError),  # no index model
    (_score_case, {"t": np.full(8, 0.4)}, None),
    (_score_case, {"t": np.full(8, 0.4), "r": np.ones(8)}, DegenerateArmError),
    (_score_case, {"t": np.full(8, 0.4), "r": np.zeros(8)}, DegenerateArmError),
    (_score_case, {"t": np.full(8, 1.0 - 1e-13), "r": _R_OBS}, OverlapError),
    (_score_case, {"t": np.full(8, 0.4), "e": np.where(np.arange(8) == 5, 1.0, 0.5)}, OverlapError),
    (_score_case, {"t": np.full(8, 0.4), "e": np.where(np.arange(8) == 1, _TINY, 0.5)}, OverlapError),
    (_score_case, {"t": np.full(8, 0.4), "q": 1.0}, ValidationError),
    (_score_case, {"t": np.full(8, 0.4), "r": _R_OBS, "trim": 0.5}, ValidationError),
    (_score_case, {"t": np.full(8, 0.4), "r": _R_OBS, "trim": 0.3}, None),
    (_score_case, {}, ValidationError),  # no sampling score model
    (_linear_case, {}, None),
    (_linear_case, {"e": _E_EXP, "trim": 0.2}, None),
    (_linear_case, {"h": "fixed"}, UnsupportedConfigurationError),
    (_linear_case, {"h": "interactions"}, UnsupportedConfigurationError),
    (_linear_case, {"e": np.where(np.arange(6) == 4, 0.0, 0.5)}, OverlapError),
    (_linear_case, {"e": np.where(np.arange(6) == 2, _TINY, 0.5)}, OverlapError),
    (_linear_case, {"trim": -0.1}, ValidationError),
])
def test_cores_raise_exactly_where_the_public_estimators_raise(small_exp, small_obs, case, kwargs, error):
    core, public = case(small_exp, small_obs, **kwargs)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        got, want = _outcome(core), _outcome(public)
    assert got == want
    assert (want[0] if isinstance(want, tuple) else None) is error
