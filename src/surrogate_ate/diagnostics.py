"""Bias diagnostics, exact finite-population verifiers, and efficiency bounds.

The estimators in this package identify the average treatment effect only
under surrogacy (treatment independent of outcome given surrogates and
covariates) and comparability (the outcome-given-surrogates relationship is
the same in both samples).  When those conditions fail, what is estimated is
the average effect on the observational index ``h(S, X)``, and the gap to
the true effect decomposes into two weighted expectations:

* a surrogacy term, ``{mu(s,x,1) - mu(s,x,0)} * r(1-r) / (e(1-e))``, and
* a comparability term, ``{h_exp - h_obs} * (r-e) / (e(1-e))``,

where ``mu(s,x,w)`` is the outcome mean given treatment and ``h_exp`` its
treatment-marginalized version in the experimental population.  Neither
factor in braces is identified from two-sample data, so production code only
reports a *bound*: user-supplied caps on those factors multiplied by the
estimable weight terms.  The exact decomposition, along with the equality of
the index-based and weighting-based representations of the effect, is
checked by brute-force enumeration over finite discrete populations.

The module also evaluates asymptotic variance lower bounds for the
single-sample design, with and without exploiting surrogacy, and the
corresponding bound for the two-sample design with a constant sampling
score and no covariates.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from .data import ExperimentalSample, PooledDataset, SingleSample, _freeze
from .errors import OverlapError, UnsupportedConfigurationError, ValidationError
from .estimators import DEFAULT_TRIM, _arm_mean, _ipw_weights, _JsonRecord, _predicted, _propensity, _trim_scores
from .nuisance import ConstantScore, NuisanceFits, _fit, _fit_propensity, fit_least_squares, fit_logistic

# ---------------------------------------------------------------------------
# Bias bound

@dataclass(frozen=True)
class BiasBound(_JsonRecord):
    """Bound on the identification bias from assumption violations.

    ``total_bound = delta_surrogacy * surrogacy_multiplier
    + delta_comparability * comparability_multiplier`` where the deltas are
    user-declared caps on the unidentified factors.  For outcomes bounded in
    [0, 1], ``delta = 1`` is always valid for both.
    """

    surrogacy_multiplier: float
    comparability_multiplier: float
    delta_surrogacy: float
    delta_comparability: float
    total_bound: float


def bias_bound(
    exp: ExperimentalSample,
    fits: NuisanceFits,
    delta_s: float,
    delta_c: float,
    trim: float | None = DEFAULT_TRIM,
) -> BiasBound:
    """Evaluate the bias bound on the experimental sample.

    The multipliers are sample means of ``r(1-r) / (e(1-e))`` and
    ``|r-e| / (e(1-e))`` over the experimental rows.
    """
    if not (0.0 <= delta_s < np.inf and 0.0 <= delta_c < np.inf):
        raise ValidationError(f"bias-bound deltas must be finite and non-negative, got {delta_s} and {delta_c}")
    e, _ = _propensity(fits, exp, trim)
    r, _ = _trim_scores(_predicted(fits, "r_model", exp), trim)
    denom = e * (1.0 - e)
    sm = float(np.mean(r * (1.0 - r) / denom))
    cm = float(np.mean(np.abs(r - e) / denom))
    return BiasBound(
        surrogacy_multiplier=sm,
        comparability_multiplier=cm,
        delta_surrogacy=delta_s,
        delta_comparability=delta_c,
        total_bound=delta_s * sm + delta_c * cm,
    )


# ---------------------------------------------------------------------------
# Discrete populations and exact verifiers

@dataclass(frozen=True)
class DiscretePopulation:
    """A finite-support population for exact, quadrature-free verification.

    ``prob[i, j, w]`` is the joint probability that an experimental-population
    unit has surrogate level ``i``, covariate level ``j``, and treatment ``w``,
    the levels being the rows ``s_levels[i]`` and ``x_levels[j]`` (finite,
    one per index of ``prob``'s first and second axes); ``mu[i, j, w]`` and
    ``var[i, j, w]`` are the outcome mean and variance in that cell.
    ``h_obs[i, j]`` gives the observational outcome means and
    ``obs_prob[i, j]`` the observational distribution over ``(s, x)``
    (defaults to the experimental marginal).  Every experimental cell keeps
    ``0 < e(x) < 1``, and the observational distribution must cover the
    experimental support so the pooled sampling score stays below one.
    """

    s_levels: np.ndarray
    x_levels: np.ndarray
    prob: np.ndarray
    mu: np.ndarray
    var: np.ndarray
    h_obs: np.ndarray
    obs_prob: Optional[np.ndarray] = None

    def __post_init__(self):
        # store frozen float copies, so every derived quantity can use array methods
        for f in fields(self):
            if getattr(self, f.name) is not None:  # only obs_prob is optional
                object.__setattr__(self, f.name, _freeze(getattr(self, f.name)))
        prob = self.prob
        if prob.ndim != 3 or prob.shape[2] != 2:
            raise ValidationError("prob must have shape (n_s, n_x, 2)")
        if not np.isfinite(prob).all():
            raise ValidationError("prob contains non-finite values")
        if np.any(prob < 0) or abs(prob.sum() - 1.0) > 1e-9:
            raise ValidationError("cell probabilities must be non-negative and sum to 1")
        for name, n_levels in (("s_levels", prob.shape[0]), ("x_levels", prob.shape[1])):
            levels = getattr(self, name)
            if not np.isfinite(levels).all():
                raise ValidationError(f"{name} contains non-finite values")
            if levels.shape[:1] != (n_levels,):
                raise ValidationError(f"{name} must have {n_levels} levels along its first axis, got shape {levels.shape}")
        shapes = {"mu": prob.shape, "var": prob.shape, "h_obs": prob.shape[:2], "obs_prob": prob.shape[:2]}
        for name, shape in shapes.items():
            arr = getattr(self, name)
            if arr is None:
                continue
            if arr.shape != shape:
                raise ValidationError(f"{name} must have shape {shape}, got {arr.shape}")
            if not np.isfinite(arr).all():
                raise ValidationError(f"{name} contains non-finite values")
        e = self.propensity[self.x_marginal > 0]
        if np.any(e <= 0.0) or np.any(e >= 1.0):
            raise ValidationError("propensity must be strictly inside (0, 1) at every covariate level")
        if self.obs_prob is not None:
            op = self.obs_prob
            if np.any(op < 0) or abs(op.sum() - 1.0) > 1e-9:
                raise ValidationError("obs_prob must be non-negative and sum to 1")
            if np.any((self.exp_marginal > 0) & (op == 0)):
                raise ValidationError("observational support must cover the experimental support")

    # -- derived quantities -------------------------------------------------

    @property
    def exp_marginal(self) -> np.ndarray:
        """Experimental joint distribution over (s, x)."""
        return self.prob.sum(axis=2)

    @property
    def obs_marginal(self) -> np.ndarray:
        return self.exp_marginal if self.obs_prob is None else self.obs_prob

    @property
    def x_marginal(self) -> np.ndarray:
        return self.prob.sum(axis=(0, 2))

    @property
    def propensity(self) -> np.ndarray:
        """e(x) per covariate level."""
        marg = self.x_marginal
        return np.divide(
            self.prob[:, :, 1].sum(axis=0), marg, out=np.full_like(marg, 0.5), where=marg > 0
        )

    @property
    def surrogate_score(self) -> np.ndarray:
        """r(s, x) per cell (0.5 placeholder on empty cells)."""
        marg = self.exp_marginal
        return np.divide(self.prob[:, :, 1], marg, out=np.full_like(marg, 0.5), where=marg > 0)

    @property
    def h_exp(self) -> np.ndarray:
        """Outcome mean given (s, x) in the experimental population."""
        r = self.surrogate_score
        return r * self.mu[:, :, 1] + (1.0 - r) * self.mu[:, :, 0]

    def sampling_score(self, q: float) -> np.ndarray:
        """t(s, x) implied by pooling with experimental fraction q."""
        pe = self.exp_marginal
        po = self.obs_marginal
        denom = q * pe + (1.0 - q) * po
        return np.divide(q * pe, denom, out=np.zeros_like(pe), where=denom > 0)

    def _arm_weights(self) -> tuple[np.ndarray, np.ndarray]:
        """Conditional cell distributions pi(s | x, w) scaled by pi(x), per arm."""
        e = self.propensity[None, :]  # strictly inside (0, 1) at active levels
        return self.prob[:, :, 1] / e, self.prob[:, :, 0] / (1.0 - e)

    def tau(self) -> float:
        """True average treatment effect by exact enumeration."""
        treated, control = self._arm_weights()
        return float(np.sum(treated * self.mu[:, :, 1]) - np.sum(control * self.mu[:, :, 0]))

    def tau_mediated(self) -> float:
        """Average effect on the observational index h(S, X), by enumeration."""
        treated, control = self._arm_weights()
        return float(np.sum((treated - control) * self.h_obs))

    def tau_index_form(self) -> float:
        """Index representation: propensity-weighted contrast of h over the experimental population."""
        treated, control = self._arm_weights()
        return float(np.sum(self.h_obs * treated) - np.sum(self.h_obs * control))

    def tau_weighting_form(self, q: float) -> float:
        """Weighting representation: score-weighted contrast of outcomes over the observational population."""
        if not 0.0 < q < 1.0:
            raise ValidationError(f"q must lie in (0, 1), got {q}")
        po = self.obs_marginal
        t = self.sampling_score(q)
        if np.any((po > 0) & (t >= 1.0)):
            raise OverlapError("sampling score reaches 1 on the observational support")
        r = self.surrogate_score
        e = self.propensity[None, :]
        base = np.divide(t * (1.0 - q), (1.0 - t) * q, out=np.zeros_like(t), where=t < 1.0)
        w1 = r / e * base
        w0 = (1.0 - r) / (1.0 - e) * base
        return float(np.sum(po * self.h_obs * (w1 - w0)))

    def bias_terms(self) -> tuple[float, float]:
        """The two exact bias terms (surrogacy, comparability) by enumeration."""
        pe = self.exp_marginal
        r = self.surrogate_score
        e = self.propensity[None, :]
        denom = e * (1.0 - e)
        surro = np.sum(pe * (self.mu[:, :, 1] - self.mu[:, :, 0]) * r * (1.0 - r) / denom)
        compa = np.sum(pe * (self.h_exp - self.h_obs) * (r - e) / denom)
        return float(surro), float(compa)

    def is_compliant(self, tol: float = 1e-12) -> bool:
        """Whether surrogacy and comparability hold exactly on the support."""
        active = self.exp_marginal > 0
        surro = np.abs(self.mu[:, :, 1] - self.mu[:, :, 0])[active].max(initial=0.0)
        compa = np.abs(self.h_exp - self.h_obs)[active].max(initial=0.0)
        return bool(surro <= tol and compa <= tol)


def random_population(
    rng: np.random.Generator,
    n_surrogate_levels: int = 3,
    n_covariate_levels: int = 2,
    surrogacy_violation: float = 0.0,
    comparability_violation: float = 0.0,
    separate_obs_margin: bool = True,
) -> DiscretePopulation:
    """Draw a random discrete population, optionally violating the assumptions.

    With both violation scales at zero the population satisfies surrogacy
    and comparability exactly; positive scales perturb the treated-arm cell
    means and the observational index independently.
    """
    ns, nx = n_surrogate_levels, n_covariate_levels
    s_levels = np.sort(rng.normal(size=(ns, 1)), axis=0)
    x_levels = np.sort(rng.normal(size=(nx, 1)), axis=0)
    prob = rng.gamma(1.0, size=(ns, nx, 2)) + 0.05
    prob /= prob.sum()
    mu0 = rng.normal(size=(ns, nx))
    mu1 = mu0 + surrogacy_violation * rng.normal(size=(ns, nx))
    mu = np.stack([mu0, mu1], axis=2)
    var = rng.uniform(0.1, 1.0, size=(ns, nx, 2))
    marg = prob.sum(axis=2)
    r = prob[:, :, 1] / marg
    h_exp = r * mu1 + (1.0 - r) * mu0
    h_obs = h_exp + comparability_violation * rng.normal(size=(ns, nx))
    obs_prob = None
    if separate_obs_margin:
        obs_prob = rng.gamma(1.0, size=(ns, nx)) + 0.05
        obs_prob /= obs_prob.sum()
    return DiscretePopulation(
        s_levels=s_levels, x_levels=x_levels, prob=prob, mu=mu, var=var,
        h_obs=h_obs, obs_prob=obs_prob,
    )


@dataclass(frozen=True)
class IdentificationReport(_JsonRecord):
    """Exact comparison of the direct effect with its two representations."""

    tau: float
    tau_index_form: float
    tau_weighting_form: float
    max_abs_gap: float
    compliant: bool


def verify_identification(pop: DiscretePopulation, q: float) -> IdentificationReport:
    """Enumerate tau and both representations; on compliant populations all three agree.

    Non-compliant populations are flagged, not rejected: the two
    representations still agree with each other, but not with tau.
    """
    tau = pop.tau()
    tau_e = pop.tau_index_form()
    tau_o = pop.tau_weighting_form(q)
    gaps = [abs(tau - tau_e), abs(tau - tau_o), abs(tau_e - tau_o)]
    return IdentificationReport(
        tau=tau,
        tau_index_form=tau_e,
        tau_weighting_form=tau_o,
        max_abs_gap=float(max(gaps)),
        compliant=pop.is_compliant(),
    )


@dataclass(frozen=True)
class BiasIdentityReport(_JsonRecord):
    """Exact check that the identification gap equals the two-term decomposition."""

    lhs: float
    surrogacy_term: float
    comparability_term: float
    rhs: float
    gap: float


def verify_bias_identity(pop: DiscretePopulation) -> BiasIdentityReport:
    """Enumerate ``tau - tau_mediated`` and the two bias terms; the gap is numerically zero."""
    lhs = pop.tau() - pop.tau_mediated()
    surro, compa = pop.bias_terms()
    rhs = surro + compa
    return BiasIdentityReport(
        lhs=lhs, surrogacy_term=surro, comparability_term=compa, rhs=rhs, gap=abs(lhs - rhs)
    )


# ---------------------------------------------------------------------------
# Efficiency bounds

@dataclass(frozen=True)
class EfficiencyBounds(_JsonRecord):
    """Variance lower bounds, with and without exploiting surrogacy.

    ``gain = v_no_surrogacy - v_surrogacy`` is the precision value of the
    surrogates; it is non-negative up to floating point because the two
    bounds share every term except the conditional-variance one.  For the
    two-sample design only ``v_two_sample`` is populated.
    """

    v_no_surrogacy: Optional[float] = None
    v_surrogacy: Optional[float] = None
    gain: Optional[float] = None
    v_two_sample: Optional[float] = None
    components: dict = field(default_factory=dict)
    per_stratum_fallback: bool = False


_PER_STRATUM_FALLBACK = (
    "a (s, x) stratum holds a single observation; falling back to the homoskedastic variance plug-in"
)


def _per_cell_variance(values: np.ndarray, cells: np.ndarray, rows: np.ndarray | None = None):
    """Population-style (ddof=0) variance of ``values`` within each cell, mapped back per row.

    ``cells`` are the sample's classes of identical rows
    (``_Sample._classes``, which joins two rows exactly when they are
    equal), so each cell is one stratum, its rows taken in sample order;
    the labels do not matter.  With a boolean ``rows`` mask, each cell's
    variance is taken over its selected rows only and mapped back to every
    row of the cell.  Returns ``None`` if any cell holds fewer than two
    (selected) observations.  One stable sort by cell visits each row once
    and keeps every cell's rows in sample order.
    """
    out = np.empty_like(values)
    order = np.argsort(cells, kind="stable")
    for in_cell in np.split(order, np.flatnonzero(np.diff(cells[order])) + 1):
        used = in_cell if rows is None else in_cell[rows[in_cell]]
        if len(used) < 2:
            return None
        out[in_cell] = values[used].var(ddof=0)
    return out


def _covariate_plugins(sample: SingleSample, variance_mode: str, ridge: float):
    """Propensity ``e(x)`` and the arm regressions of ``y`` on ``x``, shared by both bound forms.

    Returns ``(e, models, mu1, mu0)``: per-row propensities from the
    package's one propensity rule (``nuisance._fit_propensity``, as
    ``fit_all`` fits ``e``), the least-squares fit of each arm keyed by
    treatment value, and ``mu_1(x)`` and ``mu_0(x)`` on every row.
    ``SingleSample`` guarantees both arms are non-empty.
    """
    if variance_mode not in ("homoskedastic", "per_stratum"):
        raise UnsupportedConfigurationError(f"unknown variance mode {variance_mode!r}")
    e = _fit_propensity(sample, ridge)._predict_sx(sample.x)
    models = {}
    for arm, name in ((1, "treated"), (0, "control")):
        rows = sample.w == arm
        models[arm] = _fit(f"{name} arm regression", fit_least_squares, sample.x[rows], sample.y[rows], ridge, 0)
    return e, models, models[1]._predict_sx(sample.x), models[0]._predict_sx(sample.x)


def efficiency_bounds_single_sample(
    sample: SingleSample,
    variance_mode: str = "homoskedastic",
    ridge: float = 0.0,
) -> EfficiencyBounds:
    """Plug-in variance bounds for the single-sample design.

    The surrogate score is fit by logistic regression of treatment on
    ``(s, x)``, the index by least squares of the outcome on ``(s, x)``
    pooled over arms, and arm-wise outcome regressions on ``x`` supply
    ``mu_w(x)``.  The conditional outcome variance plugs in the pooled
    regression's residual variance (``homoskedastic``) or within-cell
    variances on discrete data (``per_stratum``); a per-stratum cell with a
    single observation forces a fallback to the homoskedastic plug-in,
    recorded on the result.
    """
    e, _, mu1, mu0 = _covariate_plugins(sample, variance_mode, ridge)
    r = _fit("surrogate score", fit_logistic, sample.sx, sample.w, ridge, sample.n_surrogates)._predict_sx(sample.sx)
    h_model = _fit("surrogate index", fit_least_squares, sample.sx, sample.y, ridge, sample.n_surrogates)
    h = h_model._predict_sx(sample.sx)
    tau_hat = float(np.mean(mu1 - mu0))

    fallback = False
    sigma2 = np.full(sample.n, h_model.residual_variance)
    if variance_mode == "per_stratum":
        per_cell = _per_cell_variance(sample.y, sample._classes("sx"))
        if per_cell is None:
            warnings.warn(_PER_STRATUM_FALLBACK, stacklevel=2)
            fallback = True
        else:
            sigma2 = per_cell

    e2 = e**2
    one_e2 = (1.0 - e) ** 2
    a_ns = float(np.mean(sigma2 * (r / e2 + (1.0 - r) / one_e2)))
    a_s = float(np.mean(sigma2 * (r**2 / e2 + (1.0 - r) ** 2 / one_e2)))
    b1 = float(np.mean(r / e2 * (h - mu1) ** 2))
    b0 = float(np.mean((1.0 - r) / one_e2 * (h - mu0) ** 2))
    c = float(np.mean((mu1 - mu0 - tau_hat) ** 2))
    v_ns = a_ns + b1 + b0 + c
    v_s = a_s + b1 + b0 + c
    return EfficiencyBounds(
        v_no_surrogacy=v_ns,
        v_surrogacy=v_s,
        gain=v_ns - v_s,
        components={
            "conditional_variance_no_surrogacy": a_ns,
            "conditional_variance_surrogacy": a_s,
            "between_strata_treated": b1,
            "between_strata_control": b0,
            "covariate_heterogeneity": c,
        },
        per_stratum_fallback=fallback,
    )


def v_ns_covariate_form(
    sample: SingleSample, variance_mode: str = "homoskedastic", ridge: float = 0.0
) -> float:
    """No-surrogacy bound in its covariate-only representation.

    ``E[sigma_1^2(x)/e + sigma_0^2(x)/(1-e) + (mu_1(x) - mu_0(x) - tau)^2]``;
    algebraically equal to the conditional representation whenever the
    plug-ins satisfy the within-stratum variance decomposition, which holds
    on discrete data with saturated fits.
    """
    e, models, mu1, mu0 = _covariate_plugins(sample, variance_mode, ridge)
    if variance_mode == "per_stratum":
        sig2 = {arm: _per_cell_variance(sample.y, sample._classes("x"), sample.w == arm) for arm in models}
        if any(v is None for v in sig2.values()):
            raise ValidationError("a covariate stratum holds fewer than 2 observations in one arm")
    else:
        sig2 = {arm: np.full(sample.n, model.residual_variance) for arm, model in models.items()}
    tau_hat = float(np.mean(mu1 - mu0))
    return float(np.mean(sig2[1] / e + sig2[0] / (1.0 - e) + (mu1 - mu0 - tau_hat) ** 2))


def efficiency_gain_homoskedastic(
    p: float, sigma2: float, r_values, probs
) -> float:
    """Precision gain from surrogacy under homoskedastic outcomes, no covariates.

    ``sum_k probs[k] * (2 sigma^2 / (p(1-p))) * (p(1-p) - (r_k - p)^2)``
    over a discrete distribution of surrogate-score values.  The gain is
    ``2 sigma^2`` when the score is constant at ``p`` and zero when the
    score is binary with mean ``p``.
    """
    if not 0.0 < p < 1.0:
        raise ValidationError(f"p must lie in (0, 1), got {p}")
    if not 0.0 <= sigma2 < np.inf:
        raise ValidationError(f"sigma2 must be finite and non-negative, got {sigma2}")
    r = np.asarray(r_values, dtype=float).ravel()
    pr = np.asarray(probs, dtype=float).ravel()
    if len(r) != len(pr):
        raise ValidationError("r_values and probs must have equal length")
    if not (np.isfinite(r).all() and np.isfinite(pr).all()):
        raise ValidationError("r_values and probs must be finite")
    if np.any(pr < 0) or abs(pr.sum() - 1.0) > 1e-9:
        raise ValidationError("invalid probability vector")
    if np.any(r < 0) or np.any(r > 1):
        raise ValidationError("surrogate-score values must lie in [0, 1]")
    pq = p * (1.0 - p)
    return float(np.sum(pr * (2.0 * sigma2 / pq) * (pq - (r - p) ** 2)))


def two_sample_bound_value(
    sigma2: float,
    r: np.ndarray,
    mu: np.ndarray,
    mu1: float,
    mu0: float,
    p: float,
    q: float,
) -> tuple[float, float]:
    """Evaluate the two-sample bound's two terms given plug-in values.

    The conditional-variance term is
    ``sigma^2 / (1-q) * (r - p)^2 / (p^2 (1-p)^2)`` per row, algebraically
    equal to ``sigma^2 / (1-q) * (r/p^2 + (1-r)/(1-p)^2 - r(1-r)/(p^2(1-p)^2))``
    and non-negative by construction; the between-strata term is
    ``(1/q) * (r/p (mu - mu1)^2 + (1-r)/(1-p) (mu - mu0)^2)``.  Returns the
    two terms as means over the supplied rows; the bound is their sum.

    ``p`` and ``q`` outside (0, 1), a negative or NaN ``sigma2``, ``r`` and
    ``mu`` of different lengths and ``r`` outside [0, 1] raise
    :class:`ValidationError`; an infinite ``sigma2`` gives an infinite term.
    """
    r = np.asarray(r, dtype=float)
    mu = np.asarray(mu, dtype=float)
    if not (0.0 < p < 1.0 and 0.0 < q < 1.0):
        raise ValidationError(f"p and q must lie in (0, 1), got p={p}, q={q}")
    if not sigma2 >= 0.0:
        raise ValidationError(f"sigma2 must be non-negative, got {sigma2}")
    if r.shape != mu.shape:
        raise ValidationError("r and mu must have equal length")
    if not ((r >= 0.0) & (r <= 1.0)).all():
        raise ValidationError("surrogate-score values must lie in [0, 1]")
    pq2 = (p * (1.0 - p)) ** 2
    first = sigma2 / (1.0 - q) * (r - p) ** 2 / pq2
    second = (1.0 / q) * (r / p * (mu - mu1) ** 2 + (1.0 - r) / (1.0 - p) * (mu - mu0) ** 2)
    return float(np.mean(first)), float(np.mean(second))


def efficiency_bound_two_sample(pooled: PooledDataset, fits: NuisanceFits) -> EfficiencyBounds:
    """Plug-in variance bound for the two-sample design.

    Defined only for the constant-sampling-score, no-covariate case: the
    index is learned from the observational fraction ``1-q`` of the data
    and the arm proportions from the experimental fraction ``q``, which is
    where the two ``1/(1-q)`` and ``1/q`` inflation factors come from.
    Expectations run over the pooled empirical surrogate distribution.
    """
    if pooled.exp.n_covariates != 0:
        raise UnsupportedConfigurationError(
            "the two-sample efficiency bound is defined only without covariates"
        )
    if not isinstance(fits.t_model, ConstantScore):
        raise UnsupportedConfigurationError(
            "the two-sample efficiency bound requires a constant sampling score"
        )
    exp, obs, q = pooled.exp, pooled.obs, pooled.q
    p = float(exp.w.mean())
    resid = obs.y - _predicted(fits, "h_model", obs)
    sigma2 = float(np.mean(resid**2))

    # without covariates the pooled rows are the pooled surrogates
    r = fits._require("r_model").predict(pooled.sx)
    mu = fits._require("h_model").predict(pooled.sx)

    w1, w0, _ = _ipw_weights(exp, fits, None)
    h = _predicted(fits, "h_model", exp)
    mu1, mu0 = _arm_mean(h, w1, "treated"), _arm_mean(h, w0, "control")

    first, second = two_sample_bound_value(sigma2, r, mu, mu1, mu0, p, q)
    return EfficiencyBounds(
        v_two_sample=first + second,
        components={
            "conditional_variance_term": first,
            "between_strata_term": second,
            "sigma2": sigma2,
            "p": p,
            "q": q,
            "mu1": mu1,
            "mu0": mu0,
        },
    )
