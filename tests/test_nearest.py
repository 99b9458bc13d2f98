"""Exactness and memory of the blocked nearest-neighbour search behind matching."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from surrogate_ate import (
    ExperimentalSample,
    MatchOptions,
    ObservationalSample,
    ValidationError,
    estimate_matching,
    fit_all,
    pool,
)
from surrogate_ate import data, estimators
from surrogate_ate.data import _by_class, _group_rows
from surrogate_ate.estimators import _nearest, _nearest_scan


def _nearest_broadcast(queries, pool_rows):
    """The full (n_query, n_pool, d) distance array; ties go to the lowest index."""
    if queries.shape[1] == 0:
        return np.zeros(len(queries), dtype=int)
    d2 = ((queries[:, None, :] - pool_rows[None, :, :]) ** 2).sum(axis=2)
    return np.argmin(d2, axis=1)


def _search(queries, pool_rows):
    """:func:`_nearest` over the classes of identical rows that a sample would find."""
    return _nearest(queries, pool_rows, _group_rows(queries), _group_rows(pool_rows))


def _first_equal_row(rows):
    """For each row, the index of the first row equal to it: the oracle of an exact grouping."""
    return np.array([int(np.flatnonzero((rows == row).all(axis=1))[0]) for row in rows], dtype=int)


def _assert_exact_classes(classes, rows):
    """``classes`` join two rows exactly when they are equal."""
    first, group = _by_class(classes)
    assert np.array_equal(first[group], _first_equal_row(rows))


def _assert_same_matches(queries, pool_rows):
    want = _nearest_broadcast(queries, pool_rows)
    assert np.array_equal(_search(queries, pool_rows), want)
    assert np.array_equal(_nearest_scan(queries, pool_rows), want)


def _block_budget(rows, d, n_pool):
    """A budget that holds ``rows`` worst-case query rows per block, with their screen coefficients."""
    return rows * 8 * ((2 * d + 7) * n_pool + d + 1)


def test_nearest_continuous():
    rng = np.random.default_rng(1)
    _assert_same_matches(rng.normal(size=(300, 13)), rng.normal(size=(500, 13)))


def test_nearest_bootstrap_duplicates_tie_exactly():
    rng = np.random.default_rng(2)
    base = rng.normal(size=(40, 4))
    queries = base[rng.integers(0, 40, 200)]
    pool_rows = np.vstack([base[rng.integers(0, 40, 300)], base])
    got = _search(queries, pool_rows)
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
    got = _search(rng.normal(size=(30, 3)), rng.normal(size=(1, 3)))
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


@pytest.mark.parametrize("block_rows", [1, 7, 64])
def test_nearest_bootstrap_resample_at_workload_shape(monkeypatch, block_rows):
    # a bootstrap resample of 1000 rows with d = 13 (M = 10, K = 3): pool rows
    # repeat, so most queries tie exactly, and small blocks start their tied
    # segments in many different blocks
    rng = np.random.default_rng(13)
    base = rng.normal(size=(1000, 13))
    queries, pool_rows = base[rng.integers(0, 1000, 1000)], base[rng.integers(0, 1000, 1000)]
    monkeypatch.setattr(estimators, "_NEAREST_BLOCK_BYTES", _block_budget(block_rows, 13, 1000))
    got = _search(queries, pool_rows)
    # the oracle in chunks of queries, to keep its distance array small
    want = np.concatenate([_nearest_broadcast(queries[i : i + 50], pool_rows) for i in range(0, 1000, 50)])
    assert np.array_equal(got, want)
    copies = [(pool_rows == pool_rows[j]).all(axis=1).sum() for j in got]
    assert sum(c > 1 for c in copies) > 200


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


def _nearest_brute_force(queries, pool_rows):
    """Per query, the lowest pool index at the smallest exact squared distance."""
    d2 = np.array([((pool_rows - q) ** 2).sum(axis=1) for q in queries]).reshape(len(queries), len(pool_rows))
    return np.array([int(np.flatnonzero(row == row.min())[0]) for row in d2], dtype=int)


def _bench_shaped(seed, n=1000, d=13):
    """Two bootstrap resamples of standardized continuous rows, as matching sees them."""
    rng = np.random.default_rng(seed)
    base_q, base_p = rng.normal(size=(n, d)), rng.normal(size=(n, d))
    return base_q[rng.integers(0, n, n)], base_p[rng.integers(0, n, n)]


DISTINCT_CASES = {
    "bootstrap resamples": lambda rng: _bench_shaped(int(rng.integers(1000)), n=400),
    "discrete grid": lambda rng: (rng.choice([0.0, 0.7, 1.4], size=(300, 3)),
                                  rng.choice([0.0, 0.7, 1.4], size=(350, 3))),
    "all rows identical": lambda rng: (np.full((40, 5), 0.25), np.full((60, 5), 0.25)),
    "identical pool, continuous queries": lambda rng: (rng.normal(size=(30, 2)), np.ones((25, 2))),
    "no duplicates": lambda rng: (rng.normal(size=(120, 6)), rng.normal(size=(150, 6))),
}


@pytest.mark.parametrize("case", sorted(DISTINCT_CASES))
def test_distinct_row_search_matches_brute_force(case):
    queries, pool_rows = DISTINCT_CASES[case](np.random.default_rng(21))
    assert np.array_equal(_search(queries, pool_rows), _nearest_brute_force(queries, pool_rows))


def test_group_rows_joins_copies_in_first_occurrence_order():
    rows = np.array([[2.0, 0.0], [1.0, 1.0], [2.0, 0.0], [0.0, 3.0], [1.0, 1.0], [-0.0, 3.0]])
    first, group = _by_class(_group_rows(rows))
    assert first.tolist() == [0, 1, 3]
    assert group.tolist() == [0, 1, 0, 2, 1, 2]
    queries, pool_rows = _bench_shaped(22)
    for rows in (queries, pool_rows):
        classes = _group_rows(rows)
        _assert_exact_classes(classes, rows)
        assert len(np.unique(classes)) < 0.7 * len(rows)  # a resample repeats about a third of its rows


@pytest.mark.parametrize("d", [1, 13, 22])
def test_group_rows_joins_every_copy_of_a_row(d):
    # a BLAS matrix-vector product can round copies of one row differently,
    # which would split a stratum; the key is summed column by column instead
    rng = np.random.default_rng(d)
    rows = np.tile(rng.normal(size=d) * 1e3, (1891, 1))
    classes = _group_rows(rows)
    assert np.all(classes == classes[0])


def test_distinct_row_search_at_bench_shape_matches_brute_force():
    queries, pool_rows = _bench_shaped(23)
    want = np.concatenate([_nearest_broadcast(queries[i : i + 50], pool_rows) for i in range(0, 1000, 50)])
    assert np.array_equal(_search(queries, pool_rows), want)


def test_key_collision_falls_back_to_exact_grouping(monkeypatch):
    # a key shared by different rows must not merge them, and copies still share a class
    monkeypatch.setattr(data, "_row_key", lambda rows: np.zeros(len(rows)))
    rng = np.random.default_rng(24)
    base = rng.normal(size=(30, 3))
    queries, pool_rows = base[rng.integers(0, 30, 50)], base[rng.integers(0, 30, 60)]
    classes = _group_rows(pool_rows)
    _assert_exact_classes(classes, pool_rows)
    assert len(np.unique(classes)) < 30
    assert np.array_equal(_search(queries, pool_rows), _nearest_brute_force(queries, pool_rows))


@st.composite
def _integer_instance_with_copies(draw):
    d = draw(st.integers(1, 3))
    values = st.integers(-2, 2).map(float)
    base = draw(arrays(float, (draw(st.integers(1, 6)), d), elements=values))
    picks = st.lists(st.integers(0, len(base) - 1), min_size=1, max_size=15)
    return base[draw(picks)], base[draw(picks)]


@settings(max_examples=150, deadline=None)
@given(_integer_instance_with_copies())
def test_distinct_row_search_on_small_integer_inputs_with_copies(instance):
    queries, pool_rows = instance
    assert np.array_equal(_search(queries, pool_rows), _nearest_brute_force(queries, pool_rows))


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
    assert _traced_peak_mb(_search, rows, rows) < 32


def test_nearest_scan_memory_is_bounded_when_every_row_ties():
    # _nearest groups the copies away, so the blocked scan gets the tied rows itself
    rows = np.zeros((1500, 13))
    assert _traced_peak_mb(_nearest_scan, rows, rows) < 32


def test_matching_rejects_a_column_whose_spread_overflows():
    # the column mean stays finite but its standard deviation overflows, so
    # every standardized value of the column would be exactly zero
    rng = np.random.default_rng(12)
    exp = ExperimentalSample(w=np.tile([0.0, 1.0], 20), s=rng.normal(size=(40, 1)), x=rng.normal(size=(40, 1)) * 1e307)
    obs = ObservationalSample(y=rng.normal(size=30), s=rng.normal(size=(30, 1)), x=rng.normal(size=(30, 1)))
    with pytest.raises(ValidationError, match="too large in magnitude to standardize"):
        estimate_matching(exp, obs)


@st.composite
def _scan_instance(draw):
    """Queries and pool rows: on a discrete grid, continuous with exact copies, continuous, or near ties.

    Each side is then scaled and shifted, so that some cases have ``|p|^2``
    far above ``|q|^2``, some the reverse, and the screen's rounding is
    large against the gaps between distances.  ``near ties`` puts pool rows
    a few ulps from each other and from the queries.
    """
    kind = draw(st.sampled_from(["discrete", "tied", "continuous", "near ties"]))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d, n_query, n_pool = draw(st.integers(1, 6)), draw(st.integers(1, 40)), draw(st.integers(1, 40))
    if kind == "discrete":
        queries, pool_rows = (gen.choice([0.0, 0.7, 1.4], size=(n, d)) for n in (n_query, n_pool))
    elif kind == "tied":
        # every query has copies among the pool rows, and pool rows repeat
        base = gen.normal(size=(draw(st.integers(1, 8)), d))
        queries, pool_rows = base[gen.integers(0, len(base), n_query)], base[gen.integers(0, len(base), n_pool)]
        pool_rows = np.vstack([pool_rows, base])
    elif kind == "near ties":
        base = gen.normal(size=(draw(st.integers(1, 4)), d))
        queries = base[gen.integers(0, len(base), n_query)]
        pool_rows = base[gen.integers(0, len(base), n_pool)]
        steps = gen.integers(-3, 4, size=pool_rows.shape)
        for _ in range(3):  # up to three ulps either way, column by column
            pool_rows = np.where(steps > 0, np.nextafter(pool_rows, np.inf), pool_rows)
            pool_rows = np.where(steps < 0, np.nextafter(pool_rows, -np.inf), pool_rows)
            steps = steps - np.sign(steps)
        pool_rows = np.vstack([pool_rows, base])
    else:
        queries, pool_rows = gen.normal(size=(n_query, d)), gen.normal(size=(n_pool, d))
    magnitudes = st.sampled_from([0.0, 1.0, 1e3, 1e6, -1e8])
    scale = draw(st.sampled_from([1.0, 1e-4, 1e4]))
    query_shift, pool_shift = draw(magnitudes), draw(magnitudes)
    queries = queries * scale + query_shift
    pool_rows = pool_rows * scale + pool_shift
    return queries, pool_rows, draw(st.integers(1, 7))


@settings(max_examples=200, deadline=None)
@given(_scan_instance())
def test_scan_matches_broadcast_with_single_and_several_candidates(instance):
    queries, pool_rows, block_rows = instance
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(estimators, "_NEAREST_BLOCK_BYTES", _block_budget(block_rows, queries.shape[1], len(pool_rows)))
        assert np.array_equal(_nearest_scan(queries, pool_rows), _nearest_broadcast(queries, pool_rows))


def test_matching_on_the_pooled_designs_equals_estimate_matching():
    rng = np.random.default_rng(31)
    n_e, n_o = 300, 350
    exp = ExperimentalSample(w=np.tile([0.0, 1.0], n_e // 2), s=rng.normal(size=(n_e, 4)), x=rng.normal(size=(n_e, 2)))
    obs = ObservationalSample(y=rng.normal(size=n_o), s=rng.normal(size=(n_o, 4)), x=rng.normal(size=(n_o, 2)))
    for options in (None, MatchOptions(both_directions=True)):
        want = estimate_matching(exp, obs, options)
        fresh = pool(exp, obs)
        assert estimators._match(fresh, options) == want
        # after fit_all, matching reads the standardized designs the fits built
        fitted = pool(exp, obs)
        fit_all(fitted)
        assert estimators._match(fitted, options) == want


@st.composite
def _integer_sample_with_copies(draw):
    """An experimental sample of integer rows with copies and signed zeros, and two resample indices.

    The second index is into the first resample.  The last draw says
    whether every row key collides, which sends the grouping to its exact
    fallback.
    """
    n, m, k = draw(st.integers(2, 14)), draw(st.integers(1, 2)), draw(st.integers(0, 2))
    base_n = draw(st.integers(1, 5))
    values = st.sampled_from([-1.0, -0.0, 0.0, 1.0])
    base = draw(arrays(float, (base_n, m + k), elements=values))
    rows = base[draw(st.lists(st.integers(0, base_n - 1), min_size=n, max_size=n))]
    x = rows[:, m:]
    if k:  # one discrete 0/1 covariate gives the within-arm search heavy ties
        x[:, 0] = np.abs(x[:, 0])
    w = np.array(draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=n, max_size=n)))
    w[:2] = [0.0, 1.0]
    index = st.lists(st.integers(0, n - 1), min_size=n, max_size=n).map(np.array)
    return ExperimentalSample(w=w, s=rows[:, :m], x=x), draw(index), draw(index), draw(st.booleans())


@settings(max_examples=150, deadline=None)
@given(_integer_sample_with_copies())
def test_sample_classes_join_exactly_the_identical_rows_and_keep_every_match(instance):
    sample, idx, idx_again, collide = instance
    with pytest.MonkeyPatch.context() as mp:
        if collide:
            mp.setattr(data, "_row_key", lambda rows: np.zeros(len(rows)))
        for part in ("sx", "x"):
            sample._classes(part)
    generations = [sample]
    for index in (idx, idx_again):
        try:
            generations.append(generations[-1]._take(index))
        except ValidationError:  # the resample lost an arm
            break
    for taken in generations:
        for part, rows in (("sx", np.hstack([taken.s, taken.x])), ("x", taken.x)):
            classes = taken._row_classes[part]  # found on the validated sample, inherited by its resamples
            assert classes is taken._classes(part)
            _assert_exact_classes(classes, rows)
            # the search over inherited classes is the search over freshly found ones, and the oracle
            queries, pool_rows = rows[: len(rows) // 2 + 1], rows[len(rows) // 2 :]
            want = _nearest_broadcast(queries, pool_rows)
            got = _nearest(queries, pool_rows, classes[: len(rows) // 2 + 1], classes[len(rows) // 2 :])
            assert np.array_equal(got, want)
            assert np.array_equal(_search(queries, pool_rows), want)
        # the within-arm search of matching, on the resample's own arms
        treated, control = np.flatnonzero(taken.w == 1.0), np.flatnonzero(taken.w == 0.0)
        x_classes = taken._row_classes["x"]
        for own, opposite in ((treated, control), (control, treated)):
            want = _nearest_broadcast(taken.x[own], taken.x[opposite])
            assert np.array_equal(_nearest(taken.x[own], taken.x[opposite], x_classes[own], x_classes[opposite]), want)
            assert np.array_equal(_search(taken.x[own], taken.x[opposite]), want)


def test_exact_classes_after_a_key_collision_compose_through_an_index(monkeypatch):
    # after a key collision the grouping is still exact, and a resample's classes are its parent's through the index
    monkeypatch.setattr(data, "_row_key", lambda rows: np.zeros(len(rows)))
    rng = np.random.default_rng(25)
    base = rng.normal(size=(12, 3))
    sample = ExperimentalSample(w=np.tile([0.0, 1.0], 20), s=base[rng.integers(0, 12, 40)])
    parent_classes = sample._classes("sx")
    _assert_exact_classes(parent_classes, sample.s)
    idx, idx_again = rng.integers(0, 40, 40), rng.integers(0, 40, 40)
    taken = sample._take(idx)._take(idx_again)
    classes = taken._row_classes["sx"]
    assert np.array_equal(classes, parent_classes[idx[idx_again]])
    _assert_exact_classes(classes, taken.s)
    queries, pool_rows = taken.s[:25], taken.s[15:]
    got = _nearest(queries, pool_rows, classes[:25], classes[15:])
    assert np.array_equal(got, _nearest_broadcast(queries, pool_rows))


def test_matching_a_resample_with_inherited_classes_equals_matching_a_fresh_copy():
    rng = np.random.default_rng(32)
    base = rng.integers(0, 2, size=(30, 3)).astype(float)
    rows = base[rng.integers(0, 30, 80)]
    exp = ExperimentalSample(w=np.tile([0.0, 1.0], 40), s=rows[:, :2], x=rows[:, 2:])
    obs = ObservationalSample(y=rng.normal(size=90), s=rng.normal(size=(90, 2)).round(), x=rng.integers(0, 2, (90, 1)))
    estimators._match(pool(exp, obs), MatchOptions(both_directions=True))  # finds the parents' classes
    for seed in range(5):
        gen = np.random.default_rng(seed)
        e, o = exp._take(gen.integers(0, 80, 80)), obs._take(gen.integers(0, 90, 90))
        assert set(e._row_classes) == {"sx", "x"} and set(o._row_classes) == {"sx"}
        fresh_e = ExperimentalSample(w=e.w, s=e.s, x=e.x)
        fresh_o = ObservationalSample(y=o.y, s=o.s, x=o.x)
        for options in (None, MatchOptions(both_directions=True)):
            assert estimators._match(pool(e, o), options) == estimate_matching(fresh_e, fresh_o, options)


def _match_searching_every_experimental_row(pooled, options):
    """Matching's tau_hat with an observational neighbour searched for every experimental row.

    The estimator searches only the rows its contrasts read; this is the
    search it narrows, kept as the oracle.
    """
    exp, obs = pooled.exp, pooled.obs
    treated_idx, control_idx = np.flatnonzero(exp.w == 1.0), np.flatnonzero(exp.w == 0.0)
    x_std = pooled.standardized_x[0][:, 1:]
    sx_std = pooled.standardized_sx[0][:, 1:]
    x_classes = exp._classes("x")
    obs_match = _nearest(sx_std[: exp.n], sx_std[exp.n :], exp._classes("sx"), obs._classes("sx"))

    def _contrasts(own_idx, opposite_idx):
        within = _nearest(x_std[own_idx], x_std[opposite_idx], x_classes[own_idx], x_classes[opposite_idx])
        partner = opposite_idx[within]
        return obs.y[obs_match[own_idx]] - obs.y[obs_match[partner]]

    effects = _contrasts(treated_idx, control_idx)
    if options.both_directions:
        effects = np.concatenate([effects, -_contrasts(control_idx, treated_idx)])
    return float(effects.mean())


def _find_classes(exp, obs):
    """Find the classes that matching reads, so that resamples taken next inherit them through their index."""
    for sample, parts in ((exp, ("sx", "x")), (obs, ("sx",))):
        for part in parts:
            sample._classes(part)


def _matching_pair(gen, n_e, n_o, m, k, tied):
    """An experimental and an observational sample: continuous rows, or a 0/1 covariate and rounded surrogates."""

    def rows(n):
        if not tied:
            return gen.normal(size=(n, m)), gen.normal(size=(n, k))
        return gen.normal(size=(n, m)).round(), gen.integers(0, 2, (n, k)).astype(float)

    w = gen.integers(0, 2, n_e).astype(float)
    w[:2] = [0.0, 1.0]
    s_e, x_e = rows(n_e)
    s_o, x_o = rows(n_o)
    return ExperimentalSample(w=w, s=s_e, x=x_e), ObservationalSample(y=gen.normal(size=n_o), s=s_o, x=x_o)


@st.composite
def _matching_instance(draw):
    """A sample pair and how many generations of resamples to take from it (each inherits its parent's classes)."""
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sizes = (draw(st.integers(2, 40)), draw(st.integers(1, 40)), draw(st.integers(1, 3)), draw(st.integers(0, 2)))
    return _matching_pair(gen, *sizes, tied=draw(st.booleans())), draw(st.integers(0, 2)), gen


@settings(max_examples=120, deadline=None)
@given(_matching_instance())
def test_matching_searches_only_the_rows_its_contrasts_read_and_keeps_every_match(instance):
    (exp, obs), generations, gen = instance
    for _ in range(generations):
        _find_classes(exp, obs)
        try:
            exp, obs = exp._take(gen.integers(0, exp.n, exp.n)), obs._take(gen.integers(0, obs.n, obs.n))
        except ValidationError:  # the resample lost an arm
            return
    for options in (MatchOptions(), MatchOptions(both_directions=True)):
        want = _match_searching_every_experimental_row(pool(exp, obs), options)
        assert estimators._match(pool(exp, obs), options).tau_hat == want


@pytest.mark.parametrize("tied", [False, True])
def test_matching_a_bench_shaped_resample_reads_fewer_rows_and_keeps_every_match(monkeypatch, tied):
    gen = np.random.default_rng(33)
    exp, obs = _matching_pair(gen, 1000, 1000, 10, 3, tied)
    _find_classes(exp, obs)
    exp, obs = exp._take(gen.integers(0, 1000, 1000)), obs._take(gen.integers(0, 1000, 1000))
    searched = []
    nearest = estimators._nearest

    def recording(queries, pool_rows, query_classes, pool_classes):
        searched.append(len(np.unique(query_classes)))
        return nearest(queries, pool_rows, query_classes, pool_classes)

    monkeypatch.setattr(estimators, "_nearest", recording)
    got = estimators._match(pool(exp, obs)).tau_hat
    # the within-arm search, then the observational one over fewer classes than the resample has
    assert searched[-1] < len(np.unique(exp._classes("sx")))
    monkeypatch.setattr(estimators, "_nearest", nearest)
    assert got == _match_searching_every_experimental_row(pool(exp, obs), MatchOptions())
