"""Treatment-effect estimators for the two-sample and single-sample designs.

Two complementary strategies estimate the average treatment effect on the
unobserved long-term outcome:

* the **surrogate index estimator** imputes each experimental unit's
  outcome with the fitted index ``h(s, x)`` and takes the normalized
  inverse-propensity contrast between arms;
* the **surrogate score estimator** reweights the observational outcomes,
  with weights built from the surrogate score ``r(s, x)``, the propensity
  ``e(x)``, and the sampling score ``t(s, x)``:
  ``w=1``:  ``r * t * (1-q) / (e * (1-t) * q)`` and
  ``w=0``:  ``(1-r) * t * (1-q) / ((1-e) * (1-t) * q)``.

Weights are always normalized to sum to one within each arm, which markedly
improves finite-sample behavior over unnormalized weighting.  A nearest
neighbor matching estimator and two single-sample baselines round out the
menu, plus a within-sample bootstrap for standard errors.

The index, score and linear-shortcut estimators are each one private
step (:func:`_index_step`, :func:`_score_step`, :func:`_linear_step`) that
runs every check and returns ``(tau_hat, w1, w0, n_trimmed)``: the
estimate, from the normalized arm contrast :func:`_tau`, and the raw
weights of each arm.  The fitted models are read on the rows ``[s | x]``
that each sample stores (``sample.sx``), and the propensity on
``sample.x``, all through :func:`_predicted`.  A public estimator is
:func:`_report` of its step, which adds the weight summaries; Monte Carlo
replications and bootstrap replicates read the step's ``tau_hat`` alone.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Callable, Sequence

import numpy as np

from .data import ExperimentalSample, ObservationalSample, PooledDataset, SingleSample, _by_class, _strict_json
from .errors import (
    DegenerateArmError,
    OverlapError,
    SurrogateError,
    UnstableBootstrapError,
    UnsupportedConfigurationError,
    ValidationError,
)
from .nuisance import ConstantScore, LinearModel, NuisanceFits, _fit, _LinearPredictor, fit_least_squares
from .parallel import ordered_map, seed_sequence

DEFAULT_TRIM = 1e-6


class _JsonRecord:
    """``to_json`` for the frozen result records: their fields as strict sorted-key JSON (:func:`_strict_json`)."""

    def to_json(self) -> str:
        return _strict_json(asdict(self))


@dataclass(frozen=True)
class ArmWeights:
    """Diagnostics for one arm's normalized weights."""

    n: int
    min: float
    max: float
    ess: float


@dataclass(frozen=True)
class WeightSummary:
    """Per-arm weight diagnostics plus the applied score trim."""

    treated: ArmWeights
    control: ArmWeights
    trim_epsilon: float | None = None
    n_trimmed: int = 0


@dataclass(frozen=True)
class EstimateReport(_JsonRecord):
    """A point estimate with its method tag and weight diagnostics."""

    tau_hat: float
    method: str
    weight_summary: WeightSummary | None = None
    se_bootstrap: float | None = None
    n_used: dict = field(default_factory=dict)


def _trim_scores(p: np.ndarray, eps: float | None):
    """Clamp scores to [eps, 1-eps]; returns the clipped array and the clip count."""
    if eps is None or eps == 0.0:
        return p, 0
    if not 0.0 < eps < 0.5:
        raise ValidationError(f"trim must lie in [0, 0.5), got {eps}")
    clipped = np.clip(p, eps, 1.0 - eps)
    return clipped, int(np.sum(clipped != p))


def _normalized(weights: np.ndarray, values: np.ndarray, arm: str) -> np.ndarray:
    """One arm's weights scaled to sum to one.

    ``values`` holds the arm's outcome column, or one column per outcome;
    the arm is rejected when its total or a weighted sum of ``values`` is
    not finite, or when its total is not positive.
    """
    total = weights.sum()
    if not np.isfinite(total) or not np.isfinite(weights @ values).all():
        raise OverlapError(f"{arm} arm weights are not finite; a score reached its boundary")
    if total <= 0.0:
        raise DegenerateArmError(f"{arm} arm has zero total weight")
    return weights / total


def _arm_mean(values: np.ndarray, weights: np.ndarray, arm: str) -> float:
    """The mean of ``values`` under one arm's weights, normalized by :func:`_normalized`."""
    return float(values @ _normalized(weights, values, arm))


def _tau(arm1, arm0) -> float:
    """The normalized contrast between the ``(values, weights)`` of the treated and the control arm."""
    return _arm_mean(*arm1, "treated") - _arm_mean(*arm0, "control")


def _summary(weights: np.ndarray) -> ArmWeights:
    """The diagnostics of one arm's weights, which :func:`_normalized` has accepted."""
    normalized = weights / weights.sum()
    positive = normalized[normalized > 0]
    return ArmWeights(
        n=int((weights > 0).sum()),
        min=float(positive.min()) if positive.size else 0.0,
        max=float(normalized.max()),
        ess=float(1.0 / np.sum(normalized**2)),
    )


def _report(method: str, tau_hat: float, weights1, weights0, n_trimmed: int, trim: float | None) -> EstimateReport:
    """The report of ``tau_hat``, with the summary of each arm's accepted weights."""
    treated, control = _summary(weights1), _summary(weights0)
    return EstimateReport(tau_hat=tau_hat, method=method,
                          weight_summary=WeightSummary(treated, control, trim, n_trimmed),
                          n_used={"treated": treated.n, "control": control.n})


def _propensity(fits: NuisanceFits, sample, trim: float | None):
    """Trimmed ``e(x)`` on ``sample``'s rows, checked to lie inside (0, 1); returns ``(e, n_trimmed)``."""
    e, n_trimmed = _trim_scores(_predicted(fits, "e_model", sample), trim)
    if np.any(e <= 0.0) or np.any(e >= 1.0):
        raise OverlapError("fitted propensity score left the open interval (0, 1); trimming is the usual remedy")
    return e, n_trimmed


def _predicted(fits: NuisanceFits, slot: str, sample) -> np.ndarray:
    """The ``slot`` model of ``fits`` on ``sample``'s stored rows: ``sample.sx``, or ``sample.x`` for ``e_model``.

    A user's model that has only ``predict(s, x)`` is given the columns,
    with no surrogate columns for the propensity.
    """
    model = fits._require(slot)
    s, rows = (np.empty((sample.n, 0)), sample.x) if slot == "e_model" else (sample.s, sample.sx)
    if isinstance(model, _LinearPredictor):
        model._check_widths(s.shape[1], sample.n_covariates)
    elif not isinstance(model, ConstantScore):
        return model.predict(s, sample.x)
    return model._predict_sx(rows)


def _ipw_weights(exp: ExperimentalSample, fits: NuisanceFits, trim: float | None):
    """Inverse-propensity weights of the experimental rows: ``(w / e, (1 - w) / (1 - e), n_trimmed)``."""
    e, n_trimmed = _propensity(fits, exp, trim)
    return exp.w / e, (1.0 - exp.w) / (1.0 - e), n_trimmed


def _surrogate_contrasts(exp: ExperimentalSample, w1: np.ndarray, w0: np.ndarray) -> np.ndarray:
    """The normalized contrast of each surrogate column between the arms."""
    n1 = _normalized(w1, exp.s, "treated")
    n0 = _normalized(w0, exp.s, "control")
    return np.array([float(s @ n1) - float(s @ n0) for s in exp.s.T])


def _index_step(exp: ExperimentalSample, fits: NuisanceFits, trim: float | None):
    """``(tau_hat, w1, w0, n_trimmed)`` of the index estimator."""
    w1, w0, n_trimmed = _ipw_weights(exp, fits, trim)
    h = _predicted(fits, "h_model", exp)
    return _tau((h, w1), (h, w0)), w1, w0, n_trimmed


def estimate_index(
    exp: ExperimentalSample, fits: NuisanceFits, trim: float | None = DEFAULT_TRIM
) -> EstimateReport:
    """Surrogate index estimator: normalized IPW contrast of the fitted index.

    Treated units carry raw weight ``w / e(x)`` and controls
    ``(1 - w) / (1 - e(x))``; each arm's weights are normalized to sum to
    one before averaging the imputed index values.  The report adds each
    arm's weight summary to the estimate of :func:`_index_step`.
    """
    return _report("index", *_index_step(exp, fits, trim), trim)


def estimate_tau_surrogates(
    exp: ExperimentalSample, fits: NuisanceFits, trim: float | None = DEFAULT_TRIM
) -> np.ndarray:
    """Per-surrogate normalized IPW contrasts, one component per column of ``s``."""
    w1, w0, _ = _ipw_weights(exp, fits, trim)
    return _surrogate_contrasts(exp, w1, w0)


def _linear_step(exp: ExperimentalSample, fits: NuisanceFits, trim: float | None):
    """``(tau_hat, w1, w0, n_trimmed)`` of the linear shortcut, after its checks on the index model."""
    h = fits.h_model
    if not isinstance(h, LinearModel):
        raise UnsupportedConfigurationError("the linear shortcut needs a linear (least squares) index model")
    if h.uses_interactions:
        raise UnsupportedConfigurationError(
            "the linear shortcut needs an index that is linear in (s, x) without interactions"
        )
    w1, w0, n_trimmed = _ipw_weights(exp, fits, trim)
    return float(h.coef_s @ _surrogate_contrasts(exp, w1, w0)), w1, w0, n_trimmed


def estimate_linear_shortcut(
    exp: ExperimentalSample, fits: NuisanceFits, trim: float | None = DEFAULT_TRIM
) -> EstimateReport:
    """Shortcut for a linear index: surrogate coefficients dotted with per-surrogate effects.

    Requires an index that is linear in ``(s, x)`` with no interaction
    terms.  Without covariates this reproduces the index estimator exactly;
    with covariates the two differ by the weighted covariate contrast,
    which the shortcut drops.  The report adds each arm's weight summary
    to the estimate of :func:`_linear_step`.
    """
    return _report("linear_shortcut", *_linear_step(exp, fits, trim), trim)


def _score_step(obs: ObservationalSample, fits: NuisanceFits, q: float, trim: float | None):
    """``(tau_hat, w1, w0, n_trimmed)`` of the score estimator."""
    if not 0.0 < q < 1.0:
        raise ValidationError(f"q must lie in (0, 1), got {q}")
    r, n_tr = _trim_scores(_predicted(fits, "r_model", obs), trim)
    e, n_te = _propensity(fits, obs, trim)
    t, n_tt = _trim_scores(_predicted(fits, "t_model", obs), trim)
    if np.any(t >= 1.0 - 1e-12):
        raise OverlapError("sampling score reached 1 on an observational row; no weight is defined")
    base = t * (1.0 - q) / ((1.0 - t) * q)
    w1 = r / e * base
    w0 = (1.0 - r) / (1.0 - e) * base
    return _tau((obs.y, w1), (obs.y, w0)), w1, w0, n_tr + n_te + n_tt


def estimate_score(
    obs: ObservationalSample,
    fits: NuisanceFits,
    q: float,
    trim: float | None = DEFAULT_TRIM,
) -> EstimateReport:
    """Surrogate score estimator: normalized weighted contrast of observational outcomes.

    The report adds each arm's weight summary to the estimate of
    :func:`_score_step`.
    """
    return _report("score", *_score_step(obs, fits, q, trim), trim)


@dataclass(frozen=True)
class MatchOptions:
    """Options for the matching estimator.

    ``both_directions`` also builds matched contrasts for control units
    (nearest treated neighbor plays the role of the opposite-arm match)
    and averages over the whole experimental sample.
    """

    both_directions: bool = False


# Working memory of one query block in `_nearest_scan`, sized for the worst case
# in which every pool row survives the screen (exact ties on discrete data).
_NEAREST_BLOCK_BYTES = 16 * 2**20


def _nearest(queries: np.ndarray, pool_rows: np.ndarray, query_classes, pool_classes) -> np.ndarray:
    """Index of the closest pool row for each query; ties go to the lowest index.

    The result is exactly ``argmin(((q - p) ** 2).sum(axis=-1))`` over the
    pool for each query ``q``.  Identical rows (a bootstrap resample repeats
    about a third of its rows) are searched once: :func:`_nearest_scan` runs
    over the first row of each class of queries and of pool rows, so time is
    O(u_query * u_pool * d) for u classes, and a pool row stands for its class
    at its own, lowest index.  ``query_classes`` and ``pool_classes`` give
    each row an integer class in which every row is identical; matching
    passes the exact classes its samples found
    (:meth:`~surrogate_ate.data._Sample._classes`).  The answer does not
    depend on which identical rows share a class.
    """
    if queries.shape[1] == 0:
        return np.zeros(len(queries), dtype=int)
    query_first, query_group = _by_class(query_classes)
    pool_first, _ = _by_class(pool_classes)
    return pool_first[_nearest_scan(queries.take(query_first, axis=0), pool_rows.take(pool_first, axis=0))][query_group]


def _nearest_scan(queries: np.ndarray, pool_rows: np.ndarray) -> np.ndarray:
    """:func:`_nearest` over every row, without the ``(n_query, n_pool, d)`` array.

    Queries are taken in blocks.  One GEMM per block screens every pool row
    by ``|p|^2 - 2 q.p``, as ``[-2q | 1] @ [p | |p|^2]^T`` against a
    ``(d + 1, n_pool)`` matrix built once per call; a row stays a candidate
    when its screened value lies within twice a rounding bound of the block
    row's minimum, which provably keeps every exact minimizer.  The
    candidates are read off the block's mask in one scan of its flat,
    row-major index, so they come out grouped by query row in ascending
    order.  A row with one candidate gets it, since the screen kept every
    exact minimizer; only the candidates of rows with several are recomputed
    with the exact expression, so the GEMM's rounding (and hence the BLAS
    thread count) never decides a match.  Time is O(n_query * n_pool * d).
    Memory stays within about ``_NEAREST_BLOCK_BYTES`` whatever ``n_query``
    is; only a pool too large for one query's worst case within that budget
    grows it, as O(n_pool * d).
    """
    n_query, d = queries.shape
    n_pool = len(pool_rows)
    screen_pool = np.empty((d + 1, n_pool))
    screen_pool[:d] = pool_rows.T
    pool_sq = (pool_rows**2).sum(axis=1, out=screen_pool[d])
    # Rounding, with u = eps / 2 and P = max |p|^2.  The screen is a dot
    # product of d + 1 terms, within gamma_{d+1} = (d + 1) u of the sum of
    # their magnitudes, 2 |q.p| + |p|^2 <= |q|^2 + 2 |p|^2, and its last term
    # |p|^2 is itself summed within d u |p|^2: so the screened value (plus
    # |q|^2) lies within (1.5 d + 1) eps (|q|^2 + P) of the true squared
    # distance.  The exact expression sums d non-negative terms, each within
    # 3 u of its true value, so it lies within (d + 2) u of the distance,
    # itself at most 2 (|q|^2 + P): within (d + 2) eps (|q|^2 + P).
    # `tol` covers the sum of both, (2.5 d + 3) eps (|q|^2 + P), with margin
    # for second-order terms; so an exact minimizer screens within 2 * tol
    # of its block row's minimum (one row's errors against another's).
    tol = 3.0 * (d + 2) * np.finfo(float).eps * ((queries**2).sum(axis=1) + pool_sq.max())
    # bytes per query row: (query, candidate) pairs of two gathered rows and a
    # handful of scalars, plus the row's d + 1 screen coefficients
    block = max(1, _NEAREST_BLOCK_BYTES // (8 * ((2 * d + 7) * n_pool + d + 1)))
    screen_query = np.empty((min(block, n_query), d + 1))
    screen_query[:, d] = 1.0
    out = np.empty(n_query, dtype=np.intp)
    for lo in range(0, n_query, block):
        q = queries[lo : lo + block]
        coef = screen_query[: len(q)]
        np.multiply(q, -2.0, out=coef[:, :d])  # scaling by -2 is exact
        screened = coef @ screen_pool
        best = screened.argmin(axis=1)
        out[lo : lo + block] = best
        candidates = screened <= (screened[np.arange(len(q)), best] + 2.0 * tol[lo : lo + block])[:, None]
        del screened
        if np.count_nonzero(candidates) == len(q):  # every row has a candidate, so each has exactly one
            continue
        rows, cols = np.divmod(np.flatnonzero(candidates), n_pool)
        several = np.bincount(rows, minlength=len(q))[rows] > 1
        rows, cols = rows[several], cols[several]
        # rows ascend, so each row's candidates form one segment, starting where rows change
        starts = np.diff(rows, prepend=-1) != 0
        exact = ((q[rows] - pool_rows[cols]) ** 2).sum(axis=-1)
        row_min = np.minimum.reduceat(exact, np.flatnonzero(starts))
        hits = np.flatnonzero(exact == row_min[np.cumsum(starts) - 1])
        first = hits[np.diff(rows[hits], prepend=-1) != 0]
        out[lo + rows[first]] = cols[first]
    return out


def estimate_matching(
    exp: ExperimentalSample,
    obs: ObservationalSample,
    options: MatchOptions | None = None,
) -> EstimateReport:
    """Nearest neighbor matching across the two samples.

    For each treated unit: find the nearest opposite-arm unit within the
    experimental sample by covariate distance, then give both units their
    nearest observational neighbor by (surrogate, covariate) distance; the
    difference of those two observational outcomes is the unit-level effect,
    and the estimate averages it over treated units.  Distances are
    Euclidean on per-column standardized values: ``x`` standardized over the
    experimental sample and ``[s | x]`` over the pooled sample, as
    :class:`PooledDataset` builds them.  All matching is with replacement,
    and ties go to the lowest row index.  With no covariates the
    within-experimental match is degenerate: every opposite-arm unit ties
    at distance zero and the first one is used.

    Only the experimental rows that a contrast reads get an observational
    neighbor: the treated units and their partners, plus, with
    ``both_directions``, the controls and theirs.  The search is exact and
    runs over distinct rows, taking
    O(u_E * u_O * (M + K)) time for u_E and u_O distinct rows; its memory is
    bounded by a fixed block budget instead of growing with n_E * n_O.  Each
    sample finds the classes of identical raw ``[s | x]`` and ``x`` rows
    once (:meth:`~surrogate_ate.data._Sample._classes`); a bootstrap
    resample inherits them through its index (see :func:`_resample`), and
    one matrix product per block of queries screens the pool.  Samples of
    different widths raise :class:`PoolingError`, as :func:`pool` does.
    """
    return _match(PooledDataset(exp, obs), options)


def _match(pooled: PooledDataset, options: MatchOptions | None = None) -> EstimateReport:
    """:func:`estimate_matching` on ``pooled``'s standardized designs, which its fits may have built already.

    The within-arm partners are found first.  Then one :func:`_nearest`
    over the observational pool searches only the experimental rows that
    the contrasts read, the own units and partners of each direction,
    with those rows' classes; since the search is exact per query, with
    ties to the lowest pool index, each of these rows gets the neighbor a
    search of every experimental row would give it.  The searches run over
    each sample's classes of identical raw rows
    (:meth:`~surrogate_ate.data._Sample._classes`), the classes that the
    per-stratum efficiency bounds read as strata.
    """
    options = options or MatchOptions()
    exp, obs = pooled.exp, pooled.obs
    treated_idx = np.flatnonzero(exp.w == 1.0)
    control_idx = np.flatnonzero(exp.w == 0.0)
    if len(treated_idx) == 0 or len(control_idx) == 0 or obs.n == 0:
        raise DegenerateArmError("matching needs both experimental arms and a non-empty observational sample")

    x_std = pooled.standardized_x[0][:, 1:]
    sx_std = pooled.standardized_sx[0][:, 1:]
    # rows identical before standardizing stay identical after it
    x_classes = exp._classes("x")

    def _partners(own_idx, opposite_idx):
        return opposite_idx[_nearest(x_std[own_idx], x_std[opposite_idx], x_classes[own_idx], x_classes[opposite_idx])]

    # (own units, their within-arm partners), one pair per contrast direction
    pairs = [(treated_idx, _partners(treated_idx, control_idx))]
    if options.both_directions:
        pairs.append((control_idx, _partners(control_idx, treated_idx)))
    # i -> i' for the experimental units the contrasts read; no other entry of obs_match is read
    read = np.zeros(exp.n, dtype=bool)
    for own_idx, partner_idx in pairs:
        read[own_idx] = read[partner_idx] = True
    read = np.flatnonzero(read)
    obs_match = np.empty(exp.n, dtype=np.intp)
    obs_match[read] = _nearest(sx_std[read], sx_std[exp.n :], exp._classes("sx")[read], obs._classes("sx"))
    effects = np.concatenate([sign * (obs.y[obs_match[own_idx]] - obs.y[obs_match[partner_idx]])
                              for sign, (own_idx, partner_idx) in zip((1.0, -1.0), pairs)])
    return EstimateReport(
        tau_hat=float(effects.mean()),
        method="matching",
        weight_summary=None,
        n_used={"treated": len(treated_idx), "control": len(control_idx)},
    )


def estimate_single_sample(
    sample: SingleSample, mode: str = "difference_in_means", ridge: float = 0.0
) -> EstimateReport:
    """Single-sample baselines.

    ``difference_in_means`` contrasts raw arm means of the outcome.
    ``surrogate_index`` first regresses the outcome on ``(s, x)`` using all
    rows pooled across arms, then contrasts arm means of the fitted values;
    pooling is what the surrogacy condition buys, since the outcome-given-
    surrogates relationship does not depend on the arm.
    """
    treated = sample.w == 1.0
    if mode == "difference_in_means":
        values = sample.y
        method = "single_sample_dim"
    elif mode == "surrogate_index":
        model = _fit("surrogate index", fit_least_squares, sample.sx, sample.y, ridge, sample.n_surrogates)
        values = model._predict_sx(sample.sx)
        method = "single_sample_index"
    else:
        raise UnsupportedConfigurationError(f"unknown mode {mode!r}")
    ones = np.ones(sample.n)
    arm1, arm0 = (values[treated], ones[treated]), (values[~treated], ones[~treated])
    return _report(method, _tau(arm1, arm0), arm1[1], arm0[1], 0, None)


def _resample(sample, rng: np.random.Generator):
    """Draw a bootstrap copy of one sample, preserving its size.

    Experimental and observational samples are resampled as plain i.i.d.
    rows.  Single samples are resampled within each treatment arm so the
    arm sizes (and hence the validity of arm contrasts) are preserved.  The
    copy is built by index from the validated rows (``sample._take``): only
    the both-arms check runs again, and the classes of identical rows that
    ``sample`` has found carry over through the index.
    """
    if isinstance(sample, SingleSample):
        treated = np.flatnonzero(sample.w == 1.0)
        control = np.flatnonzero(sample.w == 0.0)
        idx = np.concatenate([
            treated[rng.integers(0, len(treated), len(treated))],
            control[rng.integers(0, len(control), len(control))],
        ])
    elif isinstance(sample, (ExperimentalSample, ObservationalSample)):
        idx = rng.integers(0, sample.n, sample.n)
    else:
        raise UnsupportedConfigurationError(f"cannot resample object of type {type(sample).__name__}")
    return sample._take(idx)


def bootstrap_se(
    estimator: Callable[..., float | tuple],
    data: Sequence,
    reps: int,
    seed: int,
    max_failure_rate: float = 0.2,
) -> float | tuple:
    """Bootstrap standard error with within-sample resampling.

    ``data`` is a sequence of samples resampled independently (sizes
    preserved); ``estimator(*resampled)`` returns a float, or a tuple with
    one entry per statistic, in which case a tuple of standard errors comes
    back.  Several statistics read off one estimator call share every
    resample and whatever the estimator fits on it: the CLI's ``estimate
    --method all`` bootstraps every method this way, with one ``fit_all``
    per resample.  Replicate ``k`` uses the seed stream ``(seed, k)``, so
    results are deterministic for any worker count.  A ``None`` entry of a
    tuple drops that replicate for its own statistic only; an estimator that
    raises a package error drops the replicate for every statistic.  Each
    statistic, in tuple order, with more than ``max_failure_rate`` of its
    replicates dropped, or fewer than 2 left, aborts with
    :class:`UnstableBootstrapError`; ``max_failure_rate`` must lie in [0, 1].
    """
    if reps < 2:
        raise ValidationError("bootstrap needs at least 2 replicates")
    if not 0.0 <= max_failure_rate <= 1.0:
        raise ValidationError(f"max_failure_rate must lie in [0, 1], got {max_failure_rate}")
    data = tuple(data)

    def one(rep: int):
        rng = np.random.default_rng(seed_sequence(seed, rep))
        try:
            resampled = [_resample(s, rng) for s in data]
            result = estimator(*resampled)
        except SurrogateError:
            # a resample that cannot even be constructed (e.g. one arm lost)
            # counts as a failed replicate, same as an estimator failure
            return None
        if isinstance(result, tuple):
            return tuple(None if v is None else float(v) for v in result)
        return float(result)

    results = [r for r in ordered_map(one, range(reps)) if r is not None]
    scalar = not any(isinstance(r, tuple) for r in results)
    rows = [(r,) for r in results] if scalar else results
    ses = []
    for column in zip(*rows) if rows else [()]:
        values = np.array([v for v in column if v is not None])
        failures = reps - len(values)
        if failures > max_failure_rate * reps or len(values) < 2:
            raise UnstableBootstrapError(
                f"{failures} of {reps} bootstrap replicates failed", failures=failures, reps=reps
            )
        # an exactly constant statistic gets 0, free of the mean's round-off noise
        ses.append(0.0 if np.ptp(values) == 0.0 else float(np.std(values, ddof=1)))
    return ses[0] if scalar else tuple(ses)
