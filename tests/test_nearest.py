"""Exactness and memory of the blocked nearest-neighbour search behind matching."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from surrogate_ate import ExperimentalSample, ObservationalSample, ValidationError, estimate_matching
from surrogate_ate import estimators
from surrogate_ate.estimators import _nearest


def _nearest_broadcast(queries, pool_rows):
    """The full (n_query, n_pool, d) distance array; ties go to the lowest index."""
    if queries.shape[1] == 0:
        return np.zeros(len(queries), dtype=int)
    d2 = ((queries[:, None, :] - pool_rows[None, :, :]) ** 2).sum(axis=2)
    return np.argmin(d2, axis=1)


def _assert_same_matches(queries, pool_rows):
    got = _nearest(queries, pool_rows)
    assert np.array_equal(got, _nearest_broadcast(queries, pool_rows))


def _block_budget(rows, d, n_pool):
    """A budget that holds ``rows`` worst-case query rows per block."""
    return rows * 8 * (2 * d + 7) * n_pool


def test_nearest_continuous():
    rng = np.random.default_rng(1)
    _assert_same_matches(rng.normal(size=(300, 13)), rng.normal(size=(500, 13)))


def test_nearest_bootstrap_duplicates_tie_exactly():
    rng = np.random.default_rng(2)
    base = rng.normal(size=(40, 4))
    queries = base[rng.integers(0, 40, 200)]
    pool_rows = np.vstack([base[rng.integers(0, 40, 300)], base])
    got = _nearest(queries, pool_rows)
    assert np.array_equal(got, _nearest_broadcast(queries, pool_rows))
    # every query has exact copies in the pool, and the first copy wins
    assert [int(g) for g in got] == [int(np.flatnonzero((pool_rows == q).all(axis=1))[0]) for q in queries]


@pytest.mark.parametrize("d", [1, 3, 13])
def test_nearest_discrete_grid_ties(d):
    rng = np.random.default_rng(3)
    grid = np.array([0.0, 0.7, 1.4])
    _assert_same_matches(rng.choice(grid, size=(250, d)), rng.choice(grid, size=(400, d)))


def test_nearest_one_dimension():
    rng = np.random.default_rng(4)
    _assert_same_matches(rng.normal(size=(200, 1)), rng.normal(size=(150, 1)))


def test_nearest_single_pool_row():
    rng = np.random.default_rng(5)
    got = _nearest(rng.normal(size=(30, 3)), rng.normal(size=(1, 3)))
    assert np.array_equal(got, np.zeros(30, dtype=int))


def test_nearest_column_offset_by_a_million():
    rng = np.random.default_rng(6)
    queries, pool_rows = rng.normal(size=(200, 5)), rng.normal(size=(300, 5))
    queries[:, 2] += 1e6
    pool_rows[:, 2] += 1e6
    _assert_same_matches(queries, pool_rows)


@pytest.mark.parametrize("n_query", [1, 6, 7, 8, 14, 15, 50])
@pytest.mark.parametrize("discrete", [False, True])
def test_nearest_across_block_boundaries(monkeypatch, n_query, discrete):
    d, n_pool = 4, 60
    monkeypatch.setattr(estimators, "_NEAREST_BLOCK_BYTES", _block_budget(7, d, n_pool))
    rng = np.random.default_rng(n_query)

    def draw(n):
        return rng.choice([0.0, 0.7, 1.4], size=(n, d)) if discrete else rng.normal(size=(n, d))

    _assert_same_matches(draw(n_query), draw(n_pool))


@st.composite
def _discrete_instance(draw):
    d = draw(st.integers(1, 4))
    values = st.sampled_from([0.0, 0.7, 1.4, -2.1])
    queries = draw(arrays(float, (draw(st.integers(1, 12)), d), elements=values))
    pool_rows = draw(arrays(float, (draw(st.integers(1, 12)), d), elements=values))
    return queries, pool_rows, draw(st.integers(1, 5))


@settings(max_examples=150, deadline=None)
@given(_discrete_instance())
def test_nearest_matches_broadcast_on_small_discrete_inputs(instance):
    queries, pool_rows, block_rows = instance
    with pytest.MonkeyPatch.context() as mp:
        budget = _block_budget(block_rows, queries.shape[1], len(pool_rows))
        mp.setattr(estimators, "_NEAREST_BLOCK_BYTES", budget)
        _assert_same_matches(queries, pool_rows)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_matching_rejects_columns_too_large_to_standardize():
    # the column mean overflows, so the standardized distances would be NaN
    exp = ExperimentalSample(w=[1, 0, 1, 0], s=[[1e308], [1e308], [0.0], [1.0]])
    obs = ObservationalSample(y=[1.0, 2.0, 3.0], s=[[1e308], [0.5], [1e308]])
    with pytest.raises(ValidationError):
        estimate_matching(exp, obs)


def _traced_peak_mb(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_matching_memory_is_bounded():
    # the full distance array would be 4000 * 4000 * 13 * 8 bytes, about 1.6 GB
    rng = np.random.default_rng(7)
    n, m, k = 4000, 10, 3
    exp = ExperimentalSample(w=rng.integers(0, 2, n), s=rng.normal(size=(n, m)), x=rng.normal(size=(n, k)))
    obs = ObservationalSample(y=rng.normal(size=n), s=rng.normal(size=(n, m)), x=rng.normal(size=(n, k)))
    assert _traced_peak_mb(estimate_matching, exp, obs) < 64


def test_nearest_memory_is_bounded_when_every_row_ties():
    # every pool row survives the screen; the full array would be about 230 MB
    rows = np.zeros((1500, 13))
    assert _traced_peak_mb(_nearest, rows, rows) < 32
