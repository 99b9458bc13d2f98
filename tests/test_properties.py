"""Invariances of the two-sample point estimates.

Row order and row duplication leave them unchanged, an affine map of the
outcome scales them by its slope, and relabelling the arms flips the sign
of the index estimate.

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
