import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FixedScore
from surrogate_ate import (
    ConstantScore,
    DiscretePopulation,
    ExperimentalSample,
    NuisanceFits,
    NuisanceOptions,
    ObservationalSample,
    SingleSample,
    UnsupportedConfigurationError,
    ValidationError,
    bias_bound,
    efficiency_bound_two_sample,
    efficiency_bounds_single_sample,
    efficiency_gain_homoskedastic,
    fit_all,
    pool,
    random_population,
    two_sample_bound_value,
    v_ns_covariate_form,
    verify_bias_identity,
    verify_identification,
)


def _fits(e=None, r=None, t=None, h=None):
    return NuisanceFits(e_model=e, r_model=r, t_model=t, h_model=h)


# ---------------------------------------------------------------------------
# bias bound

def test_bias_bound_zero_deltas(small_exp):
    fits = _fits(e=ConstantScore(0.5), r=FixedScore(np.linspace(0.2, 0.8, 6)))
    bound = bias_bound(small_exp, fits, delta_s=0.0, delta_c=0.0)
    assert bound.total_bound == 0.0


def test_bias_bound_comparability_vanishes_when_r_equals_e(small_exp):
    fits = _fits(e=ConstantScore(0.4), r=FixedScore(np.full(6, 0.4)))
    bound = bias_bound(small_exp, fits, delta_s=1.0, delta_c=1.0)
    assert bound.comparability_multiplier == pytest.approx(0.0, abs=1e-15)
    assert bound.total_bound == pytest.approx(bound.surrogacy_multiplier)


def test_bias_bound_two_row_worked_instance():
    exp = ExperimentalSample(w=[1, 0], s=[[0.0], [1.0]])
    fits = _fits(e=ConstantScore(0.5), r=FixedScore([0.8, 0.2]))
    bound = bias_bound(exp, fits, delta_s=1.0, delta_c=1.0)
    assert bound.surrogacy_multiplier == pytest.approx(0.64, abs=1e-12)
    assert bound.comparability_multiplier == pytest.approx(1.2, abs=1e-12)
    assert bound.total_bound == pytest.approx(0.64 + 1.2, abs=1e-12)


def test_bias_bound_row_permutation_invariant_and_linear(rng):
    n = 10
    w = np.array([1, 0] * 5, dtype=float)
    s = rng.normal(size=(n, 1))
    r_vals = rng.uniform(0.1, 0.9, n)
    exp = ExperimentalSample(w=w, s=s)
    fits = _fits(e=ConstantScore(0.45), r=FixedScore(r_vals))
    base = bias_bound(exp, fits, delta_s=0.7, delta_c=0.3)

    perm = rng.permutation(n)
    exp_p = ExperimentalSample(w=w[perm], s=s[perm])
    fits_p = _fits(e=ConstantScore(0.45), r=FixedScore(r_vals[perm]))
    permuted = bias_bound(exp_p, fits_p, delta_s=0.7, delta_c=0.3)
    assert permuted.total_bound == pytest.approx(base.total_bound, rel=1e-12)

    doubled = bias_bound(exp, fits, delta_s=1.4, delta_c=0.6)
    assert doubled.total_bound == pytest.approx(2 * base.total_bound, rel=1e-12)


def test_bias_bound_rejects_negative_deltas(small_exp):
    fits = _fits(e=ConstantScore(0.5), r=FixedScore(np.full(6, 0.5)))
    with pytest.raises(ValidationError):
        bias_bound(small_exp, fits, delta_s=-1.0, delta_c=0.0)


# ---------------------------------------------------------------------------
# exact enumeration verifiers

def test_identification_holds_on_compliant_populations(rng):
    for k in range(100):
        pop = random_population(rng, n_surrogate_levels=int(rng.integers(2, 5)),
                                n_covariate_levels=int(rng.integers(1, 4)))
        q = float(rng.uniform(0.1, 0.9))
        report = verify_identification(pop, q)
        assert report.compliant
        assert report.max_abs_gap < 1e-10


def test_identification_symmetric_population_zero_tau():
    # mirrored conditionals with even cell means: the contrast cancels to 0
    pi_treated = np.array([0.5, 0.3, 0.2])
    pi_control = pi_treated[::-1]
    prob = 0.5 * np.stack([pi_control, pi_treated], axis=1)[:, None, :]  # e = 0.5
    means = np.array([1.0, 0.7, 1.0])  # even in s
    mu = np.stack([means, means], axis=1)[:, None, :]
    var = np.full((3, 1, 2), 0.5)
    pop = DiscretePopulation(
        s_levels=np.array([[-1.0], [0.0], [1.0]]), x_levels=np.zeros((1, 1)),
        prob=prob, mu=mu, var=var, h_obs=means[:, None],
    )
    report = verify_identification(pop, q=0.5)
    assert report.compliant
    assert report.tau == pytest.approx(0.0, abs=1e-12)
    assert report.tau_index_form == pytest.approx(0.0, abs=1e-12)
    assert report.tau_weighting_form == pytest.approx(0.0, abs=1e-12)


def test_identification_flags_violations(rng):
    pop = random_population(rng, surrogacy_violation=0.8)
    report = verify_identification(pop, q=0.4)
    assert not report.compliant
    # the two representations still agree with each other
    assert abs(report.tau_index_form - report.tau_weighting_form) < 1e-10


def test_identification_report_json_round_trips():
    pop = random_population(np.random.default_rng(0))
    report = verify_identification(pop, 0.5)
    payload = json.loads(report.to_json())
    assert payload["compliant"] is report.compliant is True
    assert payload["max_abs_gap"] == report.max_abs_gap


@pytest.mark.parametrize("field, cut", [
    ("h_obs", lambda a: a[:, :1]),  # (n_s, 1) would broadcast over covariate levels
    ("mu", lambda a: a[:, :, 0]),
    ("var", lambda a: a[:, :1, :]),
    ("obs_prob", lambda a: a.ravel()),
])
def test_population_rejects_misshapen_arrays(field, cut):
    pop = random_population(np.random.default_rng(0))
    with pytest.raises(ValidationError, match=f"{field} must have shape"):
        replace(pop, **{field: cut(getattr(pop, field))})


def test_bias_identity_compliant_population(rng):
    pop = random_population(rng)
    report = verify_bias_identity(pop)
    assert report.lhs == pytest.approx(0.0, abs=1e-12)
    assert report.rhs == pytest.approx(0.0, abs=1e-12)


def test_bias_identity_comparability_term_vanishes(rng):
    pop = random_population(rng, surrogacy_violation=0.7, comparability_violation=0.0)
    report = verify_bias_identity(pop)
    assert report.comparability_term == pytest.approx(0.0, abs=1e-12)
    assert report.gap < 1e-10


def test_bias_identity_random_violating_populations(rng):
    for _ in range(100):
        pop = random_population(
            rng,
            n_surrogate_levels=int(rng.integers(2, 5)),
            n_covariate_levels=int(rng.integers(1, 3)),
            surrogacy_violation=float(rng.uniform(0, 1)),
            comparability_violation=float(rng.uniform(0, 1)),
        )
        assert verify_bias_identity(pop).gap < 1e-10


# ---------------------------------------------------------------------------
# homoskedastic gain formula

def test_gain_constant_score_is_two_sigma2():
    for p in (0.2, 0.5, 0.8):
        gain = efficiency_gain_homoskedastic(p, sigma2=1.7, r_values=[p], probs=[1.0])
        assert gain == pytest.approx(2 * 1.7, abs=1e-12)


def test_gain_binary_score_is_zero():
    p = 0.3
    gain = efficiency_gain_homoskedastic(p, sigma2=2.0, r_values=[0.0, 1.0], probs=[1 - p, p])
    assert gain == pytest.approx(0.0, abs=1e-12)


def test_gain_worked_instance_168():
    gain = efficiency_gain_homoskedastic(0.5, 1.0, r_values=[0.3, 0.7], probs=[0.5, 0.5])
    assert gain == pytest.approx(1.68, abs=1e-12)


def test_gain_invalid_probability_vector():
    with pytest.raises(ValidationError, match="probability"):
        efficiency_gain_homoskedastic(0.5, 1.0, r_values=[0.3, 0.7], probs=[0.6, 0.6])


@settings(max_examples=100, deadline=None)
@given(
    st.floats(min_value=0.05, max_value=0.95),
    st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=6),
    st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=2, max_size=6),
)
def test_gain_maximized_by_constant_score(p, r_values, raw_probs):
    k = min(len(r_values), len(raw_probs))
    r = np.asarray(r_values[:k])
    probs = np.asarray(raw_probs[:k])
    probs = probs / probs.sum()
    # recentre the score distribution so its mean is p while staying in [0, 1]
    mean = float(probs @ r)
    r = np.clip(r + (p - mean), 0.0, 1.0)
    shifted_mean = float(probs @ r)
    gain = efficiency_gain_homoskedastic(shifted_mean, 1.0, r, probs) if 0 < shifted_mean < 1 else 0.0
    best = efficiency_gain_homoskedastic(shifted_mean, 1.0, [shifted_mean], [1.0]) if 0 < shifted_mean < 1 else 0.0
    assert gain <= best + 1e-10


# ---------------------------------------------------------------------------
# single-sample bounds

def _discrete_single_sample():
    """Two surrogate cells (s = -1, +1), 20 rows each, score 0.3 / 0.7, p = 0.5.

    Outcomes are the cell mean +/- 1 with a balanced multiset inside every
    (cell, arm) block, so the empirical conditional variance is exactly 1 in
    every cell and the outcome-given-surrogate relation is arm-free.
    """
    rows = []
    for s_val, n_treated, mean in ((-1.0, 6, 0.0), (1.0, 14, 2.0)):
        arms = [1.0] * n_treated + [0.0] * (20 - n_treated)
        for i, arm in enumerate(arms):
            sign = 1.0 if i % 2 == 0 else -1.0
            rows.append((arm, mean + sign, s_val))
    w = np.array([r[0] for r in rows])
    y = np.array([r[1] for r in rows])
    s = np.array([[r[2]] for r in rows])
    return SingleSample(w=w, y=y, s=s)


def test_single_sample_bounds_perfect_fit_zero_gain():
    s = np.linspace(-1, 1, 12).reshape(-1, 1)
    y = 2.0 + 3.0 * s[:, 0]  # outcome is an exact function of the surrogate
    sample = SingleSample(w=[1, 0] * 6, y=y, s=s)
    bounds = efficiency_bounds_single_sample(sample, ridge=1e-8)
    assert bounds.components["conditional_variance_no_surrogacy"] == pytest.approx(0.0, abs=1e-12)
    assert bounds.components["conditional_variance_surrogacy"] == pytest.approx(0.0, abs=1e-12)
    assert bounds.gain == pytest.approx(0.0, abs=1e-12)


def test_single_sample_bounds_worked_instance():
    sample = _discrete_single_sample()
    bounds = efficiency_bounds_single_sample(sample, variance_mode="per_stratum")
    assert not bounds.per_stratum_fallback
    # saturated two-cell logistic: fitted scores are exactly the cell shares,
    # so the gain is the worked homoskedastic value 8 * (0.25 - 0.04) = 1.68
    oracle = efficiency_gain_homoskedastic(0.5, 1.0, [0.3, 0.7], [0.5, 0.5])
    assert oracle == pytest.approx(1.68, abs=1e-12)
    assert bounds.gain == pytest.approx(oracle, abs=1e-6)
    assert bounds.v_no_surrogacy >= bounds.v_surrogacy


def test_single_sample_bounds_covariate_form_agrees_on_discrete_data():
    sample = _discrete_single_sample()
    bounds = efficiency_bounds_single_sample(sample, variance_mode="per_stratum")
    # with no covariates the covariate-only representation uses arm variances
    other = v_ns_covariate_form(sample, variance_mode="per_stratum")
    assert other == pytest.approx(bounds.v_no_surrogacy, abs=1e-6)


def test_single_sample_bounds_ordering_random(rng):
    for _ in range(20):
        n = 40
        w = (rng.random(n) < 0.5).astype(float)
        if w.sum() in (0, n):
            continue
        s = rng.normal(size=(n, 2))
        x = rng.normal(size=(n, 1))
        y = rng.normal(size=n) + s[:, 0] * 0.5 + x[:, 0]
        sample = SingleSample(w=w, y=y, s=s, x=x)
        bounds = efficiency_bounds_single_sample(sample, ridge=1e-6)
        scale = max(1.0, abs(bounds.v_no_surrogacy))
        assert bounds.v_no_surrogacy >= bounds.v_surrogacy - 1e-10 * scale
        assert bounds.gain >= -1e-10 * scale
        for name in ("between_strata_treated", "between_strata_control", "covariate_heterogeneity"):
            assert bounds.components[name] >= 0.0


def _continuous_single_sample():
    rng = np.random.default_rng(2016)
    n = 120
    x = rng.normal(size=(n, 2))
    w = (rng.random(n) < 0.3 + 0.4 * (x[:, 0] > 0)).astype(float)
    s = rng.normal(size=(n, 2)) + 0.8 * w[:, None] + 0.3 * x[:, :1]
    y = s @ np.array([1.0, -0.5]) + x @ np.array([0.4, 0.2]) + rng.normal(size=n)
    return SingleSample(w=w, y=y, s=s, x=x)


def test_single_sample_bounds_pinned_homoskedastic():
    # regression literals: sharing the plug-in fits between the two bounds must not move them
    sample = _continuous_single_sample()
    bounds = efficiency_bounds_single_sample(sample)
    expected = {
        "between_strata_control": 2.6650530962464867,
        "between_strata_treated": 2.779046461593541,
        "conditional_variance_no_surrogacy": 4.366057481486265,
        "conditional_variance_surrogacy": 2.354517018644908,
        "covariate_heterogeneity": 0.05028307045677961,
    }
    assert bounds.components.keys() == expected.keys()
    for name, value in expected.items():
        assert bounds.components[name] == pytest.approx(value, rel=0, abs=1e-12), name
    assert bounds.v_no_surrogacy == pytest.approx(9.860440109783072, rel=0, abs=1e-12)
    assert bounds.v_surrogacy == pytest.approx(7.848899646941715, rel=0, abs=1e-12)
    assert bounds.gain == pytest.approx(2.0115404628413573, rel=0, abs=1e-12)
    assert v_ns_covariate_form(sample) == pytest.approx(9.98768567639139, rel=0, abs=1e-12)


def _tied_discrete_single(with_x):
    """240 rows on a grid of (s, x) strata, each stratum holding several rows, with signed zeros among the copies."""
    rng = np.random.default_rng(2022)
    n = 240
    x = rng.integers(0, 2, (n, 1)).astype(float)
    w = (rng.random(n) < 0.35 + 0.3 * x[:, 0]).astype(float)
    s = rng.integers(-1, 2, (n, 2)) * 1.5
    s[:, 0] += rng.random(n) < 0.25 + 0.4 * w
    s[(s == 0.0) & (rng.random((n, 2)) < 0.5)] = -0.0  # equal rows with different bits
    y = s @ np.array([1.0, -0.5]) + 0.7 * x[:, 0] + rng.normal(size=n)
    return SingleSample(w=w, y=y, s=s, x=x if with_x else None)


# float.hex of the per-stratum bounds, recorded when the strata came from np.unique(axis=0)
_PER_STRATUM_PINS = {
    True: {
        "between_strata_control": "0x1.f07f7100e9136p+1",
        "between_strata_treated": "0x1.0cda957b9999fp+2",
        "conditional_variance_no_surrogacy": "0x1.cd7ddc0e580b5p+1",
        "conditional_variance_surrogacy": "0x1.b2684e3e91a81p+0",
        "covariate_heterogeneity": "0x1.3d4adf6a83d0cp-4",
        "v_no_surrogacy": "0x1.786733c0721c4p+3",
        "v_surrogacy": "0x1.3b54c684ae4e7p+3",
        "gain": "0x1.e89369de1e6e8p+0",
        "v_ns_covariate_form": "0x1.7924096c62906p+3",
    },
    False: {
        "between_strata_control": "0x1.d6ae56e722466p+1",
        "between_strata_treated": "0x1.e94830af17c35p+1",
        "conditional_variance_no_surrogacy": "0x1.21cadb22bba27p+2",
        "conditional_variance_surrogacy": "0x1.240781f6d7fc6p+1",
        "covariate_heterogeneity": "0x0.0p+0",
        "v_no_surrogacy": "0x1.80e30f76ec53ap+3",
        "v_surrogacy": "0x1.38ff826344818p+3",
        "gain": "0x1.1f8e344e9f488p+1",
        "v_ns_covariate_form": "0x1.832f97542ace6p+3",
    },
}


@pytest.mark.parametrize("with_x", [True, False])
def test_per_stratum_bounds_pinned_on_tied_discrete_rows(with_x):
    sample = _tied_discrete_single(with_x)
    bounds = efficiency_bounds_single_sample(sample, variance_mode="per_stratum")
    assert not bounds.per_stratum_fallback
    got = {**bounds.components, "v_no_surrogacy": bounds.v_no_surrogacy, "v_surrogacy": bounds.v_surrogacy,
           "gain": bounds.gain, "v_ns_covariate_form": v_ns_covariate_form(sample, variance_mode="per_stratum")}
    assert {name: value.hex() for name, value in got.items()} == _PER_STRATUM_PINS[with_x]
    # the strata are the sample's own classes of identical rows, found once
    assert set(sample._row_classes) == {"sx", "x"}


def test_single_sample_bounds_per_stratum_fallback_warns():
    sample = SingleSample(
        w=[1, 0, 1, 0], y=[0.1, 0.2, 0.3, 0.4],
        s=[[0.0], [1.0], [2.0], [3.0]],  # every stratum is a singleton
    )
    with pytest.warns(UserWarning, match="single observation"):
        bounds = efficiency_bounds_single_sample(sample, variance_mode="per_stratum", ridge=1e-6)
    assert bounds.per_stratum_fallback


# ---------------------------------------------------------------------------
# two-sample bound

def _two_sample_inputs(rng, n=200, sigma=0.0):
    s_exp = rng.normal(size=(n, 1))
    w = (rng.random(n) < 0.5).astype(float)
    w[0], w[1] = 1.0, 0.0
    exp = ExperimentalSample(w=w, s=s_exp)
    s_obs = rng.normal(size=(n, 1))
    y = 1.0 + 0.8 * s_obs[:, 0] + sigma * rng.normal(size=n)
    obs = ObservationalSample(y=y, s=s_obs)
    pooled = pool(exp, obs)
    fits = fit_all(pooled, NuisanceOptions(constant_sampling_score=True, ridge_surrogate_score=1e-6))
    return pooled, fits


def test_two_sample_bound_zero_sigma_reduces_to_between_strata(rng):
    pooled, fits = _two_sample_inputs(rng, sigma=0.0)
    bounds = efficiency_bound_two_sample(pooled, fits)
    assert bounds.components["sigma2"] == pytest.approx(0.0, abs=1e-20)
    assert bounds.components["conditional_variance_term"] == pytest.approx(0.0, abs=1e-18)
    assert bounds.v_two_sample == pytest.approx(bounds.components["between_strata_term"])


def test_two_sample_bound_grows_as_q_approaches_one(rng):
    gen = np.random.default_rng(7)
    r = gen.uniform(0.2, 0.8, 50)
    mu = gen.normal(size=50)
    values = []
    for q in (0.5, 0.9, 0.99, 0.999):
        first, second = two_sample_bound_value(1.0, r, mu, 0.3, -0.2, 0.5, q)
        values.append(first + second)
    assert values[0] < values[1] < values[2] < values[3]
    # the conditional-variance term carries the 1/(1-q) blowup
    f1, _ = two_sample_bound_value(1.0, r, mu, 0.3, -0.2, 0.5, 0.999)
    f0, _ = two_sample_bound_value(1.0, r, mu, 0.3, -0.2, 0.5, 0.5)
    assert f1 / f0 == pytest.approx((1 - 0.5) / (1 - 0.999), rel=1e-9)


def test_two_sample_bound_matches_enumeration_oracle(rng):
    pooled, fits = _two_sample_inputs(rng, sigma=0.4)
    bounds = efficiency_bound_two_sample(pooled, fits)

    # direct summation oracle over the pooled rows
    exp, obs, q = pooled.exp, pooled.obs, pooled.q
    p = float(exp.w.mean())
    resid = obs.y - fits.h_model.predict(obs.s, obs.x)
    sigma2 = float(np.mean(resid**2))
    s_all = np.vstack([exp.s, obs.s])
    r = fits.r_model.predict(s_all, np.empty((len(s_all), 0)))
    mu = fits.h_model.predict(s_all, np.empty((len(s_all), 0)))
    h_exp = fits.h_model.predict(exp.s, exp.x)
    mu1 = float(h_exp[exp.w == 1].mean())
    mu0 = float(h_exp[exp.w == 0].mean())
    total = 0.0
    for i in range(len(s_all)):
        # the two algebraically equal spellings of the conditional-variance factor
        spelled_out = r[i] / p**2 + (1 - r[i]) / (1 - p) ** 2 - r[i] * (1 - r[i]) / (p**2 * (1 - p) ** 2)
        assert spelled_out == pytest.approx((r[i] - p) ** 2 / (p**2 * (1 - p) ** 2), rel=1e-9)
        total += sigma2 / (1 - q) * spelled_out
        total += (1 / q) * (r[i] / p * (mu[i] - mu1) ** 2 + (1 - r[i]) / (1 - p) * (mu[i] - mu0) ** 2)
    oracle = total / len(s_all)
    assert bounds.v_two_sample == pytest.approx(oracle, abs=1e-10)


def test_two_sample_bound_rejects_covariates(rng):
    exp = ExperimentalSample(w=[1, 0, 1, 0], s=rng.normal(size=(4, 1)), x=rng.normal(size=(4, 1)))
    obs = ObservationalSample(y=rng.normal(size=4), s=rng.normal(size=(4, 1)), x=rng.normal(size=(4, 1)))
    pooled = pool(exp, obs)
    fits = fit_all(pooled, NuisanceOptions(constant_sampling_score=True, ridge_surrogate_score=0.1,
                                           ridge_propensity=0.1, ridge_index=0.1))
    with pytest.raises(UnsupportedConfigurationError, match="covariate"):
        efficiency_bound_two_sample(pooled, fits)


def test_two_sample_bound_requires_constant_sampling_score(rng):
    pooled, _ = _two_sample_inputs(rng)
    fits = fit_all(pooled, NuisanceOptions(ridge_surrogate_score=1e-6, ridge_sampling_score=1e-6))
    with pytest.raises(UnsupportedConfigurationError, match="constant sampling score"):
        efficiency_bound_two_sample(pooled, fits)


@pytest.mark.parametrize("deltas", [(float("nan"), 1.0), (1.0, float("inf")), (-1.0, 0.0)])
def test_bias_bound_rejects_non_finite_or_negative_deltas(small_exp, deltas):
    fits = _fits(e=ConstantScore(0.5), r=ConstantScore(0.5))
    with pytest.raises(ValidationError, match="deltas must be finite and non-negative"):
        bias_bound(small_exp, fits, *deltas)


def test_population_from_nested_lists_matches_arrays():
    pop = random_population(np.random.default_rng(0))
    listed = DiscretePopulation(
        s_levels=pop.s_levels.tolist(), x_levels=pop.x_levels.tolist(), prob=pop.prob.tolist(),
        mu=pop.mu.tolist(), var=pop.var.tolist(), h_obs=pop.h_obs.tolist(), obs_prob=pop.obs_prob.tolist(),
    )
    assert verify_identification(listed, 0.4) == verify_identification(pop, 0.4)
    assert verify_bias_identity(listed) == verify_bias_identity(pop)
    assert isinstance(listed.prob, np.ndarray) and not listed.prob.flags.writeable
