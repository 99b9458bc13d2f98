"""The library's contract at its public boundary, on generated inputs.

Hypothesis draws arrays of 0 to 3 dimensions, blocks of mismatched row
counts, cells that are NaN, infinite, subnormal (``5e-324``) or near the
top of float64 (``1e308``), out-of-range ``ridge``, ``tol``, ``max_iter``
and ``reps``, truncated or mistyped JSON, and simulation settings (study
grid values, seeds, sample sizes and coefficients) that are negative,
fractional or not finite.  Whatever the input, a call
returns finite values or raises a :class:`SurrogateError`.  Two results
may be infinite where the package documents it, and never NaN: the
least-squares ``residual_variance`` when the squared residuals overflow
(``to_json`` then refuses the fits), and a term of
``two_sample_bound_value`` when ``sigma2`` is infinite or a square
overflows.

A string or ``None`` where a number or an array of numbers belongs is
outside that contract: it raises Python's own ``TypeError`` (numpy's
``ValueError`` when it cannot convert a string inside an array), never a
:class:`SurrogateError`.  :func:`test_a_string_where_a_number_belongs_is_a_type_error`
pins that rule.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from surrogate_ate import (
    ConfigurationError,
    ConstantScore,
    ExperimentalSample,
    LinearModel,
    LogisticModel,
    NuisanceFits,
    SurrogateError,
    ValidationError,
    bootstrap_se,
    build_design,
    efficiency_gain_homoskedastic,
    fit_least_squares,
    fit_logistic,
    two_sample_bound_value,
)
from surrogate_ate.simulation import STUDIES, DgpSpec, draw_dataset, make_spec, run_monte_carlo, true_tau

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

_SPECIAL = [math.nan, math.inf, -math.inf, 5e-324, -5e-324, 1e308, -1e308, 0.0, -0.0]
_CELLS = st.one_of(st.floats(-3.0, 3.0), st.sampled_from(_SPECIAL))


def _mostly(usual, unusual):
    """A draw from ``usual``, or about once in four from ``unusual``."""
    return st.sampled_from([False, False, False, True]).flatmap(
        lambda odd: unusual if odd else usual
    )


def _array(rows=st.integers(0, 5), cols=st.integers(0, 3), ndim=st.integers(0, 3), cells=_CELLS):
    """A float array of 0 to 3 dimensions; a 2-d one has ``rows`` rows and ``cols`` columns."""

    def shape(draw_ndim):
        if draw_ndim == 2:
            return st.tuples(rows, cols)
        return st.lists(st.integers(0, 4), min_size=draw_ndim, max_size=draw_ndim).map(tuple)

    return ndim.flatmap(shape).flatmap(lambda sh: hnp.arrays(float, sh, elements=cells))


_MATRICES = _mostly(_array(ndim=st.just(2), cells=st.floats(-3.0, 3.0)), _array())
_SETTINGS = settings(max_examples=60, deadline=None)


def _finite(*values):
    return all(np.isfinite(np.asarray(v, dtype=float)).all() for v in values)


@_SETTINGS
@given(_MATRICES, _MATRICES, st.booleans())
def test_build_design_returns_a_finite_design_or_a_typed_error(s, x, interactions):
    try:
        features, n_s, n_x, n_sx = build_design(s, x, interactions)
    except SurrogateError:
        return
    assert features.ndim == 2 and features.shape[1] == n_s + n_x + n_sx and _finite(features)


_MODELS = [
    LinearModel(intercept=0.5, coef_s=np.array([1.0, -2.0]), coef_x=np.array([0.25])),
    LinearModel(intercept=0.5, coef_s=np.array([1.0, -2.0]), coef_x=np.array([0.25]), coef_sx=np.array([3.0, 1e-3])),
    LogisticModel(intercept=-1.0, coef_s=np.array([1.0, 2.0]), coef_x=np.array([-0.5]), iterations=4),
    LogisticModel(intercept=-1.0, coef_s=np.array([1.0, 2.0]), coef_x=np.empty(0)),
    ConstantScore(0.3),
]


@_SETTINGS
@given(st.sampled_from(_MODELS), _MATRICES, _mostly(_MATRICES, st.none()))
def test_predict_returns_finite_values_or_a_typed_error(model, s, x):
    try:
        values = model.predict(s, x)
    except SurrogateError:
        return
    assert values.ndim == 1 and _finite(values)


def _labels(n):
    return hnp.arrays(float, n, elements=_mostly(st.sampled_from([0.0, 1.0]), st.sampled_from(_SPECIAL + [0.5])))


@st.composite
def _training_data(draw):
    """Features and targets, mostly of one row count."""
    features = draw(_MATRICES)
    n = features.shape[0] if features.ndim else 1
    n = draw(_mostly(st.just(n), st.integers(0, 6)))
    return features, draw(_labels(n))


_RIDGES = _mostly(st.sampled_from([0.0, 1e-3, 1.0]), st.sampled_from([-1.0, math.nan, math.inf, 1e308, 5e-324]))
_TOLS = st.sampled_from([1e-8, 0.0, -1.0, math.nan, math.inf, 5e-324, 1e308])
_MAX_ITERS = st.sampled_from([100, 1, -1, 0, 1.5, 3.0, np.int64(20)])


@_SETTINGS
@given(_training_data(), _RIDGES, _TOLS, _MAX_ITERS)
def test_fit_logistic_returns_a_finite_model_or_a_typed_error(data, ridge, tol, max_iter):
    features, labels = data
    # a bad setting is refused before any fit, not reported as a fit that failed
    bad_setting = not (0.0 < tol < math.inf and isinstance(max_iter, (int, np.integer)) and max_iter >= 0)
    try:
        model = fit_logistic(features, labels, ridge=ridge, tol=tol, max_iter=max_iter)
    except SurrogateError as exc:
        assert isinstance(exc, ValidationError) or not bad_setting
        return
    assert not bad_setting
    assert _finite(model.intercept, model.coef) and model.iterations <= max_iter
    assert _finite(model.predict(np.atleast_2d(features)))


@_SETTINGS
@given(_training_data(), _RIDGES)
def test_fit_least_squares_returns_a_finite_model_or_a_typed_error(data, ridge):
    features, targets = data
    # outcomes, not only labels: 0 -> -1 and 1 -> 1.5, with no arithmetic on the other cells
    targets = np.where(targets == 1.0, 1.5, np.where(targets == 0.0, -1.0, targets))
    try:
        model = fit_least_squares(features, targets, ridge=ridge)
    except SurrogateError:
        return
    assert _finite(model.intercept, model.coef)
    # the squared residuals may overflow (documented); the variance is then +inf, never NaN
    assert model.residual_variance >= 0.0


def test_a_column_whose_standardized_penalty_overflows_is_held_near_zero():
    rng = np.random.default_rng(0)
    y = (rng.random(40) < 0.5).astype(float)
    informative, tiny = rng.normal(size=40) + y, rng.normal(size=40) * 1e-160
    alone = fit_logistic(informative[:, None], y, ridge=1.0)
    both = fit_logistic(np.column_stack([informative, tiny]), y, ridge=1.0)
    assert both.coef[0] == pytest.approx(alone.coef[0], rel=1e-12)
    assert both.intercept == pytest.approx(alone.intercept, rel=1e-12) and abs(both.coef[1]) < 1e-100


_SAVED = NuisanceFits(
    e_model=ConstantScore(0.5),
    r_model=_MODELS[2],
    t_model=None,
    h_model=_MODELS[1],
).to_json()

_JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 10**400), st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(["", "0.5", "linear", "logistic", "constant", "NaN"]),
)
_JSON_VALUES = st.recursive(_JSON_LEAVES, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
    st.sampled_from(["type", "p", "coef_s", "intercept", "x"]), inner, max_size=3), max_leaves=6)


def _paths(value, path=()):
    """Every path to a node of a JSON value."""
    yield path
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield from _paths(child, (*path, key))


@st.composite
def _payloads(draw):
    """A saved fits payload, truncated, or with one node replaced, dropped or given a sibling."""
    text = _SAVED
    kind = draw(st.sampled_from(["replace", "drop", "add", "truncate", "special"]))
    if kind == "truncate":
        return text[: draw(st.integers(0, len(text) - 1))]
    if kind == "special":
        return draw(st.sampled_from(["", "{", "{}", "[]", "null", "5", '"fits"', "NaN",
                                     text.replace("0.5", "NaN", 1), text.replace("0.5", "1e999", 1)]))
    payload = json.loads(text)
    path = draw(st.sampled_from(list(_paths(payload))[1:]))
    parent = payload
    for key in path[:-1]:
        parent = parent[key]
    if kind == "replace":
        parent[path[-1]] = draw(_JSON_VALUES)
    elif kind == "drop":
        del parent[path[-1]]
    elif isinstance(parent, dict):
        parent[draw(st.sampled_from(["converged", "extra", "type"]))] = draw(_JSON_VALUES)
    else:
        parent.append(draw(_JSON_VALUES))
    return json.dumps(payload)


@settings(max_examples=150, deadline=None)
@given(_payloads())
def test_from_json_reads_a_payload_or_raises_a_typed_error(text):
    try:
        fits = NuisanceFits.from_json(text)
    except SurrogateError:
        return
    # what loads predicts finite values at finite rows of its widths, and is saved again
    for model in (fits.e_model, fits.r_model, fits.t_model, fits.h_model):
        if isinstance(model, ConstantScore):
            assert 0.0 < model.p < 1.0
        elif model is not None:
            rows = np.linspace(-1.0, 1.0, 3 * len(model.coef_s)).reshape(3, -1)
            values = model.predict(rows, np.ones((3, len(model.coef_x))))
            assert _finite(values)
    fits.to_json()


_PROBS = _mostly(st.floats(0.05, 0.95), st.sampled_from([0.0, 1.0, -0.5, 2.0] + _SPECIAL))
_VARIANCES = _mostly(st.floats(0.0, 10.0), st.sampled_from([-1.0] + _SPECIAL))
_SCORES = _mostly(st.floats(0.0, 1.0), _CELLS)


@st.composite
def _plug_ins(draw):
    """Per-row scores ``r`` and index values ``mu``, mostly 1-d and of one length."""
    n = draw(st.integers(0, 5))
    r = draw(_mostly(hnp.arrays(float, n, elements=_SCORES), _array(ndim=st.integers(0, 2))))
    return r, draw(_mostly(hnp.arrays(float, n, elements=_CELLS), _array(ndim=st.integers(0, 2))))


@_SETTINGS
@given(_VARIANCES, _plug_ins(), _CELLS, _CELLS, _PROBS, _PROBS)
def test_two_sample_bound_value_returns_finite_terms_or_a_typed_error(sigma2, plug_ins, mu1, mu0, p, q):
    try:
        terms = two_sample_bound_value(sigma2, *plug_ins, mu1, mu0, p, q)
    except SurrogateError:
        return
    # an infinite sigma2, or a square that overflows, gives an infinite term (documented); never NaN
    assert not np.isnan(terms).any() and all(t >= 0.0 for t in terms)


@_SETTINGS
@given(_PROBS, _VARIANCES, _array(ndim=st.integers(0, 2)), _array(ndim=st.integers(0, 2)))
def test_efficiency_gain_returns_a_finite_gain_or_a_typed_error(p, sigma2, r_values, probs):
    try:
        gain = efficiency_gain_homoskedastic(p, sigma2, r_values, probs)
    except SurrogateError:
        return
    assert _finite(gain)


_EXP = ExperimentalSample(w=np.tile([0.0, 1.0], 4), s=np.arange(8.0).reshape(8, 1))
_COUNTS = st.sampled_from([-1, 0, 1, 2, 3, np.int64(2), 1.5, 2.0, math.nan, math.inf])
_SEEDS = _mostly(st.integers(0, 2**32 - 1), _COUNTS)


def _is_count(value, low=0):
    return isinstance(value, (int, np.integer)) and value >= low


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(STUDIES)), _SEEDS, _SEEDS, st.data())
def test_make_spec_and_draw_dataset_return_a_spec_and_samples_or_raise_a_typed_error(study, seed, rep_seed, data):
    keyword, _, grid = STUDIES[study]
    value = data.draw(_mostly(st.sampled_from(grid), st.one_of(_COUNTS, st.sampled_from([5e-324, 1e-4, 0.9999, 1e308]))))
    try:
        spec = make_spec(study, seed=seed, **{keyword: value})
    except SurrogateError:
        return
    assert _is_count(seed) and _finite(true_tau(spec))
    try:
        exp, obs = draw_dataset(spec, rep_seed)
    except SurrogateError:
        assert not _is_count(rep_seed)
        return
    assert _is_count(rep_seed) and (exp.n, obs.n) == (spec.n_exp, spec.n_obs)


def test_true_tau_at_extreme_coefficients_is_finite_or_a_typed_error():
    def spec(**keywords):
        return DgpSpec(**{"study": "dimension", "m_surrogates": 1, "n_exp": 2, "n_obs": 2, "alpha": [1.0],
                          "gamma": [1.0], **keywords})

    # the square of a norm this small is subnormal, so its covariance matrix is not positive definite
    assert true_tau(spec(gamma=[9.09062611e-160])) == 0.0
    with pytest.raises(ConfigurationError, match="treated share"):
        true_tau(spec(alpha0=40.0))


@st.composite
def _specs(draw):
    """The keywords of a ``DgpSpec``: a surrogate count, sample sizes, coefficients and intercepts."""
    m = draw(_mostly(st.integers(1, 2), _COUNTS))
    length = draw(_mostly(st.just(int(m) if _is_count(m) else 1), st.integers(0, 3)))
    coefs = [draw(hnp.arrays(float, length, elements=_mostly(st.floats(-2.0, 2.0), st.sampled_from(_SPECIAL))))
             for _ in range(2)]
    sizes = [draw(_mostly(st.integers(2, 12), _COUNTS)) for _ in range(2)]
    intercepts = [draw(_mostly(st.floats(-2.0, 2.0), st.sampled_from(_SPECIAL + [40.0, -800.0]))) for _ in range(2)]
    return dict(study="dimension", m_surrogates=m, n_exp=sizes[0], n_obs=sizes[1], alpha=coefs[0], gamma=coefs[1],
                alpha0=intercepts[0], gamma0=intercepts[1])


@settings(max_examples=40, deadline=None)
@given(_specs(), _mostly(st.integers(1, 3), _COUNTS), _SEEDS, _mostly(st.just(0), _COUNTS))
def test_run_monte_carlo_returns_finite_summaries_or_raises_a_typed_error(keywords, reps, seed, grid_index):
    try:
        spec = DgpSpec(**keywords)
        assert _finite(true_tau(spec))
        result = run_monte_carlo(spec, reps, seed, grid_index)
    except SurrogateError:
        return
    assert _is_count(reps, 1) and _is_count(seed) and _is_count(grid_index)
    assert min(spec.n_exp, spec.n_obs) >= 2
    for stats in (result.score, result.index):
        assert _finite(stats.abs_bias, stats.sd, stats.mean_estimate, stats.true_tau) and stats.reps == reps


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([-1, 0, 1, 2, 3, np.int64(3), 2.5, 3.0, math.nan, math.inf, -math.inf]))
def test_bootstrap_se_counts_replicates_with_an_integer_or_raises_a_typed_error(reps):
    try:
        se = bootstrap_se(lambda exp: float(exp.s.mean()), [_EXP], reps, seed=0)
    except SurrogateError:
        assert not (isinstance(reps, (int, np.integer)) and reps >= 2)
        return
    assert isinstance(reps, (int, np.integer)) and _finite(se)


@pytest.mark.parametrize("call", [
    lambda: ConstantScore("0.5"),
    lambda: bootstrap_se(lambda exp: 0.0, [_EXP], "3", seed=0),
    lambda: fit_logistic(np.ones((4, 1)), [0.0, 1.0, 0.0, 1.0], tol="1e-8"),
    lambda: fit_logistic(np.ones((4, 1)), [0.0, 1.0, 0.0, 1.0], max_iter="5"),
    lambda: fit_least_squares(np.ones((4, 1)), np.ones(4), ridge="0"),
    lambda: fit_least_squares([["a"], ["b"]], [1.0, 2.0]),
    lambda: build_design([["1", "x"]], [[1.0]]),
    lambda: two_sample_bound_value(1.0, [0.5], [0.0], 0.0, 0.0, "0.5", 0.5),
    lambda: efficiency_gain_homoskedastic(0.5, None, [0.5], [1.0]),
    lambda: make_spec("dimension", seed="0", m=3),
    lambda: draw_dataset(make_spec("dimension", seed=0, m=3), None),
    lambda: run_monte_carlo(make_spec("dimension", seed=0, m=3), "2", 0),
    lambda: DgpSpec(study="dimension", m_surrogates=1, n_exp="5", n_obs=5, alpha=[1.0], gamma=[1.0]),
], ids=["constant-score", "bootstrap-reps", "tol", "max-iter", "ridge", "features", "design-cell",
        "bound-p", "gain-sigma2", "spec-seed", "draw-seed", "monte-carlo-reps", "spec-size"])
def test_a_string_where_a_number_belongs_is_a_type_error(call):
    with pytest.raises((TypeError, ValueError)) as info:
        call()
    assert not isinstance(info.value, SurrogateError)
