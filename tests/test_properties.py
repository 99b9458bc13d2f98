"""Invariances of the two-sample point estimates.

Row order and row duplication leave them unchanged, an affine map of the
outcome scales them by its slope, and relabelling the arms flips the sign
of the index, score and linear-shortcut estimates.  Permuting the surrogate
columns and the covariate columns the same way in both samples leaves every
estimate unchanged, and so does a positive affine map of each surrogate and
covariate column, the same in both samples: the fits standardize their
designs, and matching reads the standardized rows.  That holds at ridge 0,
where these tests fit; a positive ridge penalizes the coefficients on the
original scale, so rescaling a column changes its penalty and the estimates.

Each draw is continuous, so no two units tie in any matching distance.
Without covariates, though, matching pairs every treated unit with the first
control in row order, so the permutation property checks matching only when
covariates are present.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from surrogate_ate import (
    ExperimentalSample,
    ObservationalSample,
    estimate_index,
    estimate_linear_shortcut,
    estimate_matching,
    estimate_score,
    fit_all,
    pool,
)

TOL = 1e-8
# The column maps and the relabelling change every fit's rounding, and a relabelled logistic fit may
# stop one Newton step apart.  Worst differences measured over 300 such designs (40-400 rows):
# 1.3e-15 for a column permutation, 4.9e-14 for an affine column map and 1.8e-12 for a relabelling.
PERMUTATION_TOL = 1e-13
AFFINE_TOL = 1e-11
RELABEL_TOL = 1e-10

designs = st.tuples(
    st.integers(0, 2**32 - 1),  # data seed
    st.integers(40, 120),  # experimental rows
    st.integers(40, 120),  # observational rows
    st.integers(1, 3),  # surrogates
    st.integers(0, 2),  # covariates
)


def _samples(seed, n_exp, n_obs, m, k):
    rng = np.random.default_rng(seed)
    x_exp, x_obs = rng.normal(size=(n_exp, k)), rng.normal(size=(n_obs, k))
    w = (rng.random(n_exp) < expit(0.4 * x_exp.sum(axis=1))).astype(float)
    w[:2] = (0.0, 1.0)  # both arms
    s_exp = 0.5 * w[:, None] + rng.normal(size=(n_exp, m))
    s_obs = rng.normal(0.2, 1.0, size=(n_obs, m))
    y = s_obs.sum(axis=1) + 0.3 * x_obs.sum(axis=1) + rng.normal(size=n_obs)
    return ExperimentalSample(w=w, s=s_exp, x=x_exp), ObservationalSample(y=y, s=s_obs, x=x_obs)


def _rows(sample, idx):
    return type(sample)(**{c: getattr(sample, c)[idx] for c in (*sample.unit_columns, "s", "x")})


def _estimates(exp, obs, matching=True):
    pooled = pool(exp, obs)
    fits = fit_all(pooled)
    out = {
        "index": estimate_index(exp, fits).tau_hat,
        "score": estimate_score(obs, fits, pooled.q).tau_hat,
        "linear": estimate_linear_shortcut(exp, fits).tau_hat,
    }
    if matching:
        out["matching"] = estimate_matching(exp, obs).tau_hat
    return out


@settings(max_examples=60, deadline=None)
@given(designs, st.integers(0, 2**32 - 1))
def test_row_permutation_leaves_estimates_unchanged(design, perm_seed):
    exp, obs = _samples(*design)
    rng = np.random.default_rng(perm_seed)
    matching = exp.n_covariates > 0
    before = _estimates(exp, obs, matching)
    after = _estimates(_rows(exp, rng.permutation(exp.n)), _rows(obs, rng.permutation(obs.n)), matching)
    assert after == pytest.approx(before, rel=0, abs=TOL)


@settings(max_examples=60, deadline=None)
@given(designs)
def test_duplicating_every_row_leaves_estimates_unchanged(design):
    exp, obs = _samples(*design)
    twice = [_rows(sample, np.tile(np.arange(sample.n), 2)) for sample in (exp, obs)]
    assert _estimates(*twice) == pytest.approx(_estimates(exp, obs), rel=0, abs=TOL)


@settings(max_examples=40, deadline=None)
@given(designs, st.floats(0.1, 10.0), st.sampled_from([1.0, -1.0]), st.floats(-10.0, 10.0))
def test_affine_outcome_map_scales_every_estimate(design, magnitude, sign, shift):
    exp, obs = _samples(*design)
    a = sign * magnitude
    moved = ObservationalSample(y=a * obs.y + shift, s=obs.s, x=obs.x)
    before = _estimates(exp, obs)
    expected = {name: a * value for name, value in before.items()}
    assert _estimates(exp, moved) == pytest.approx(expected, rel=0, abs=TOL)


@settings(max_examples=40, deadline=None)
@given(designs)
def test_relabelling_the_arms_flips_the_index_estimate(design):
    exp, obs = _samples(*design)
    relabelled = ExperimentalSample(w=1.0 - exp.w, s=exp.s, x=exp.x)
    before = estimate_index(exp, fit_all(pool(exp, obs))).tau_hat
    after = estimate_index(relabelled, fit_all(pool(relabelled, obs))).tau_hat
    assert after == pytest.approx(-before, rel=0, abs=TOL)


def _with_columns(sample, s, x):
    return type(sample)(s=s, x=x, **{c: getattr(sample, c) for c in sample.unit_columns})


@settings(max_examples=40, deadline=None)
@given(designs, st.integers(0, 2**32 - 1))
def test_permuting_surrogate_and_covariate_columns_leaves_estimates_unchanged(design, perm_seed):
    exp, obs = _samples(*design)
    rng = np.random.default_rng(perm_seed)
    perm_s, perm_x = rng.permutation(exp.n_surrogates), rng.permutation(exp.n_covariates)
    moved = [_with_columns(sample, sample.s[:, perm_s], sample.x[:, perm_x]) for sample in (exp, obs)]
    assert _estimates(*moved) == pytest.approx(_estimates(exp, obs), rel=0, abs=PERMUTATION_TOL)


@settings(max_examples=40, deadline=None)
@given(designs, st.integers(0, 2**32 - 1))
def test_a_positive_affine_map_of_each_column_leaves_estimates_unchanged(design, map_seed):
    exp, obs = _samples(*design)
    rng = np.random.default_rng(map_seed)
    m, k = exp.n_surrogates, exp.n_covariates
    scale_s, scale_x = np.exp(rng.uniform(-3.0, 3.0, m)), np.exp(rng.uniform(-3.0, 3.0, k))
    shift_s, shift_x = rng.uniform(-10.0, 10.0, m), rng.uniform(-10.0, 10.0, k)
    moved = [_with_columns(sample, sample.s * scale_s + shift_s, sample.x * scale_x + shift_x) for sample in (exp, obs)]
    assert _estimates(*moved) == pytest.approx(_estimates(exp, obs), rel=0, abs=AFFINE_TOL)


@settings(max_examples=40, deadline=None)
@given(designs)
def test_relabelling_the_arms_flips_the_score_and_linear_estimates(design):
    exp, obs = _samples(*design)
    relabelled = ExperimentalSample(w=1.0 - exp.w, s=exp.s, x=exp.x)
    before, after = _estimates(exp, obs, matching=False), _estimates(relabelled, obs, matching=False)
    flipped = {method: -before[method] for method in ("score", "linear")}
    assert {method: after[method] for method in flipped} == pytest.approx(flipped, rel=0, abs=RELABEL_TOL)
