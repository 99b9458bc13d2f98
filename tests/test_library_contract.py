"""The library's contract at its public boundary, on generated inputs.

Hypothesis draws arrays of 0 to 3 dimensions, blocks of mismatched row
counts, cells that are NaN, infinite, subnormal (``5e-324``) or near the
top of float64 (``1e308``), out-of-range ``ridge``, ``tol``, ``max_iter``
and ``reps``, and truncated or mistyped JSON.  Whatever the input, a call
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

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

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
    targets = np.where(np.isin(targets, [0.0, 1.0]), targets * 2.5 - 1.0, targets)  # outcomes, not only labels
    try:
        model = fit_least_squares(features, targets, ridge=ridge)
    except SurrogateError:
        return
    assert _finite(model.intercept, model.coef)
    # the squared residuals may overflow (documented); the variance is then +inf, never NaN
    assert model.residual_variance >= 0.0


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
], ids=["constant-score", "bootstrap-reps", "tol", "max-iter", "ridge", "features", "design-cell",
        "bound-p", "gain-sigma2"])
def test_a_string_where_a_number_belongs_is_a_type_error(call):
    with pytest.raises((TypeError, ValueError)) as info:
        call()
    assert not isinstance(info.value, SurrogateError)
