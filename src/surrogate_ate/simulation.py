"""Monte Carlo study harness for the two-sample estimators.

Four study designs stress the estimators on synthetic data.  All of them
draw surrogates as independent standard normals in both samples, assign
treatment with probability ``expit(a0 + alpha's)`` in the experimental
sample, and draw a binary outcome with probability ``expit(g0 + gamma's)``
in the observational sample, so surrogacy and comparability hold by
construction:

* ``dimension``: surrogate count M sweeps 1..200 with coefficients drawn
  once from N(0, 1/M) and shared between the two models.
* ``misspecification``: 250 surrogates with fixed coefficients
  ``(1/3) k^{-1/2}``; the analyst uses only the first K of them.
* ``sample_size``: M = 10 with the shared coefficient direction rescaled so
  the true effect is 0.5, sweeping the experimental fraction q at N = 1000.
* ``explanatory``: M = 10 with a shared draw z ~ N(0, 1/M); the treatment
  and outcome coefficient vectors are z scaled by 1 or 2 (variance 1/M or
  4/M), one design row per combination.

Each replication fits the surrogate score by ridge-stabilized logistic
regression of treatment on the analyst's surrogates and the surrogate index
by logistic regression of the binary outcome on the same surrogates, then
computes the normalized score-weighted and index-imputation estimates with
constant propensity and sampling scores.  A standing ridge of 1e-6 keeps
the replication fits defined under (quasi-)separation, which small
experimental samples and wide designs produce routinely; fits that still
fail are counted, never imputed.

Seed contract: coefficients for a study seeded ``s`` are drawn from the
stream ``(s, 1, tag)`` (tag = M for the dimension study, 0 otherwise), and
replication ``k`` of grid point ``i`` draws from ``(s, 2, i, k)``.  Studies
are therefore bit-reproducible for any worker count and any execution
order.
"""

from __future__ import annotations

import csv
import functools
import json
from dataclasses import asdict, dataclass

import numpy as np

from ._version import __version__ as _version
from .data import ExperimentalSample, ObservationalSample, _check_output, _freeze, _open_output
from .errors import CalibrationError, ConfigurationError, StudyError, SurrogateError
from .estimators import DEFAULT_TRIM, _index_step, _score_step
from .nuisance import ConstantScore, NuisanceFits, _fit, _fit_propensity, expit, fit_logistic
from .parallel import ordered_map, seed_sequence

HARNESS_RIDGE = 1e-6

# Each study: the make_spec keyword its grid values feed, their type, and its default grid.
STUDIES = {
    "dimension": ("m", int, (1, 10, 50, 100, 200)),
    "misspecification": ("k_used", int, (1, 5, 25, 100, 250)),
    "sample_size": ("q", float, (0.05, 0.25, 0.5, 0.75, 0.95)),
    "explanatory": ("design_row", int, (1, 2, 3, 4)),
}
STUDY_NAMES = tuple(STUDIES)
DEFAULT_GRIDS = {name: grid for name, (_, _, grid) in STUDIES.items()}

_EXPLANATORY_MULTIPLIERS = {1: (1.0, 1.0), 2: (2.0, 1.0), 3: (1.0, 2.0), 4: (2.0, 2.0)}

_HERMITE_NODES = 128

# the sample_size study: total rows split by q, and the calibrated true effect
_SAMPLE_SIZE_TOTAL = 1000
_SAMPLE_SIZE_TAU = 0.5

_CSV_FIELDS = ("grid_value", "estimator", "abs_bias_x100", "sd_x100", "reps", "failures", "true_tau")


@dataclass(frozen=True)
class DgpSpec:
    """A fully-specified data-generating process for one grid point."""

    study: str
    m_surrogates: int
    n_exp: int
    n_obs: int
    alpha: np.ndarray
    gamma: np.ndarray
    alpha0: float = 0.0
    gamma0: float = 0.0
    coef_rule: str = ""
    k_used: int | None = None
    seed: int = 0

    def __post_init__(self):
        alpha, gamma = _freeze(self.alpha).ravel(), _freeze(self.gamma).ravel()
        if len(alpha) != self.m_surrogates or len(gamma) != self.m_surrogates:
            raise ConfigurationError("coefficient lengths must equal the number of surrogates")
        if self.k_used is not None and not 1 <= self.k_used <= self.m_surrogates:
            raise ConfigurationError("k_used must lie in [1, m_surrogates]")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "gamma", gamma)

    def to_dict(self) -> dict:
        return {**asdict(self), "alpha": self.alpha.tolist(), "gamma": self.gamma.tolist()}


@functools.cache
def _hermite():
    """The probabilists' Gauss-Hermite rule, weights normalized to sum to one; built on first use."""
    nodes, weights = np.polynomial.hermite_e.hermegauss(_HERMITE_NODES)
    return nodes, weights / np.sqrt(2.0 * np.pi)


def _tau_from_moments(e_r: float, e_h: float, e_rh: float) -> float:
    return e_rh / e_r - (e_h - e_rh) / (1.0 - e_r)


def true_tau(spec: DgpSpec) -> float:
    """True effect targeted by the estimators, by Gauss-Hermite quadrature.

    The estimand is ``E[h(S) | W=1] - E[h(S) | W=0]`` with
    ``h(s) = expit(g0 + gamma's)``.  Both scores depend on the surrogates
    only through the Gaussian pair ``(alpha'S, gamma'S)``, so the integral
    collapses to one dimension when the coefficient vectors are parallel
    and to two dimensions otherwise.
    """
    a, g = spec.alpha, spec.gamma
    na, ng = float(np.linalg.norm(a)), float(np.linalg.norm(g))
    if ng == 0.0:
        return 0.0  # constant index: identical arm means
    if na == 0.0:
        return 0.0  # constant score: arms are identical tilts
    cross = float(a @ g)
    nodes, weights = _hermite()
    if abs(abs(cross) - na * ng) <= 1e-12 * na * ng:
        u = na * nodes
        r = expit(spec.alpha0 + u)
        h = expit(spec.gamma0 + (cross / na**2) * u)
        e_r = float(weights @ r)
        e_h = float(weights @ h)
        e_rh = float(weights @ (r * h))
        return _tau_from_moments(e_r, e_h, e_rh)
    cov = np.array([[na**2, cross], [cross, ng**2]])
    chol = np.linalg.cholesky(cov)
    z1 = nodes[:, None]
    z2 = nodes[None, :]
    u = chol[0, 0] * z1 + 0.0 * z2
    v = chol[1, 0] * z1 + chol[1, 1] * z2
    wgrid = weights[:, None] * weights[None, :]
    r = expit(spec.alpha0 + u)
    h = expit(spec.gamma0 + v)
    e_r = float(np.sum(wgrid * r))
    e_h = float(np.sum(wgrid * h))
    e_rh = float(np.sum(wgrid * r * h))
    return _tau_from_moments(e_r, e_h, e_rh)


def true_tau_mc(spec: DgpSpec, n_draws: int = 1_000_000, seed: int = 0) -> tuple[float, float]:
    """Monte Carlo version of :func:`true_tau`; returns (estimate, standard error).

    Simulates the actual assignment mechanism, so it is an independent
    check on the quadrature path.
    """
    rng = np.random.default_rng(seed_sequence(seed, 3))
    chunk = 250_000
    n1 = n0 = 0
    sum1 = sum0 = sumsq1 = sumsq0 = 0.0
    remaining = n_draws
    while remaining > 0:
        size = min(chunk, remaining)
        remaining -= size
        s = rng.standard_normal((size, spec.m_surrogates))
        w = rng.random(size) < expit(spec.alpha0 + s @ spec.alpha)
        h = expit(spec.gamma0 + s @ spec.gamma)
        h1, h0 = h[w], h[~w]
        n1 += len(h1)
        n0 += len(h0)
        sum1 += float(h1.sum())
        sum0 += float(h0.sum())
        sumsq1 += float((h1**2).sum())
        sumsq0 += float((h0**2).sum())
    m1, m0 = sum1 / n1, sum0 / n0
    v1 = sumsq1 / n1 - m1**2
    v0 = sumsq0 / n0 - m0**2
    return m1 - m0, float(np.sqrt(v1 / n1 + v0 / n0))


def calibrate_tau(
    target: float,
    direction: np.ndarray,
    tolerance: float = 1e-3,
) -> float:
    """Scale a shared coefficient direction so the true effect hits ``target``.

    Bisection on the common scale ``c`` with ``alpha = gamma = c * direction``
    and intercepts fixed at zero; the effect is zero at ``c = 0`` and
    increases toward its supremum as ``c`` grows.  Raises
    :class:`CalibrationError` when the target is out of reach, reporting the
    achieved supremum.
    """
    if not abs(target) < 1.0:
        raise CalibrationError(f"targets must satisfy |target| < 1 for binary outcomes, got {target}")
    direction = np.asarray(direction, dtype=float).ravel()
    norm = float(np.linalg.norm(direction))
    if norm == 0.0:
        raise CalibrationError("direction must be a non-zero vector")
    unit = direction / norm
    if target == 0.0:
        return 0.0

    def tau_of(scale: float) -> float:
        spec = DgpSpec(
            study="calibration", m_surrogates=len(unit), n_exp=1, n_obs=1,
            alpha=scale * unit, gamma=scale * unit,
        )
        return true_tau(spec)

    sign = 1.0 if target > 0 else -1.0
    goal = abs(target)
    hi = 1.0
    while tau_of(hi) < goal:
        hi *= 2.0
        if hi > 2.0**20:
            raise CalibrationError(
                f"target {target} unattainable; achieved supremum ~ {tau_of(2.0**20):.6f}"
            )
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        value = tau_of(mid)
        if abs(value - goal) < tolerance:
            return sign * mid
        if value < goal:
            lo = mid
        else:
            hi = mid
    raise CalibrationError(f"bisection failed to reach target {target} within tolerance {tolerance}")


def make_spec(
    study: str,
    seed: int,
    m: int | None = None,
    k_used: int | None = None,
    q: float | None = None,
    design_row: int | None = None,
) -> DgpSpec:
    """Build the generating process for one grid point of a named study."""
    n_exp = n_obs = 500
    if study == "dimension":
        if m is None or not 1 <= m <= 200:
            raise ConfigurationError("dimension study needs m in [1, 200]")
        rng = np.random.default_rng(seed_sequence(seed, 1, m))
        alpha = gamma = rng.normal(0.0, np.sqrt(1.0 / m), m)
        rule = "alpha ~ N(0, 1/M) drawn once; gamma = alpha"
    elif study == "misspecification":
        m = 250
        if k_used is None or not 1 <= k_used <= m:
            raise ConfigurationError("misspecification study needs k_used in [1, 250]")
        k = np.arange(1, m + 1, dtype=float)
        alpha = gamma = (1.0 / 3.0) * k**-0.5
        rule = "alpha_k = gamma_k = (1/3) k^(-1/2); analyst uses first K columns"
    elif study == "sample_size":
        if q is None or not 0.0 < q < 1.0:
            raise ConfigurationError("sample_size study needs q in (0, 1)")
        n_exp = round(q * _SAMPLE_SIZE_TOTAL)
        n_obs = _SAMPLE_SIZE_TOTAL - n_exp
        if n_exp < 2 or n_obs < 2:
            raise ConfigurationError(f"q={q} leaves a sample with fewer than 2 rows")
        m = 10
        rng = np.random.default_rng(seed_sequence(seed, 1, 0))
        direction = rng.normal(0.0, np.sqrt(1.0 / m), m)
        alpha = gamma = calibrate_tau(_SAMPLE_SIZE_TAU, direction) * (direction / np.linalg.norm(direction))
        rule = f"shared direction drawn once, rescaled so the true effect is {_SAMPLE_SIZE_TAU}"
    elif study == "explanatory":
        if design_row not in _EXPLANATORY_MULTIPLIERS:
            raise ConfigurationError("explanatory study needs design_row in {1, 2, 3, 4}")
        m = 10
        rng = np.random.default_rng(seed_sequence(seed, 1, 0))
        z = rng.normal(0.0, np.sqrt(1.0 / m), m)
        am, gm = _EXPLANATORY_MULTIPLIERS[design_row]
        alpha, gamma = am * z, gm * z
        rule = f"shared z ~ N(0, 1/M); alpha = {am} z (var {am**2}/M), gamma = {gm} z (var {gm**2}/M)"
    else:
        raise ConfigurationError(f"unknown study {study!r}; expected one of {STUDY_NAMES}")
    return DgpSpec(
        study=study, m_surrogates=m, n_exp=n_exp, n_obs=n_obs, alpha=alpha, gamma=gamma, coef_rule=rule,
        k_used=k_used if study == "misspecification" else None, seed=seed,
    )


def draw_dataset(spec: DgpSpec, rep_seed) -> tuple[ExperimentalSample, ObservationalSample]:
    """Draw one replication's dataset; deterministic in ``(spec, rep_seed)``.

    An int ``rep_seed`` must be non-negative.  The generator stream is
    consumed in a fixed order: experimental surrogates, treatments,
    observational surrogates, outcomes.  The draws are fresh float64
    arrays, finite and 0/1 where they are treatments or outcomes, so the
    samples are built by the trusted constructor (``_Sample._trusted``):
    the arrays become read-only without a copy, and only the empty-sample
    and both-arms checks run, raising the validating constructor's
    ``ValidationError``.
    """
    if isinstance(rep_seed, (int, np.integer)):
        rep_seed = seed_sequence(rep_seed)
    rng = np.random.default_rng(rep_seed)
    s_exp = rng.standard_normal((spec.n_exp, spec.m_surrogates))
    w = (rng.random(spec.n_exp) < expit(spec.alpha0 + s_exp @ spec.alpha)).astype(float)
    s_obs = rng.standard_normal((spec.n_obs, spec.m_surrogates))
    y = (rng.random(spec.n_obs) < expit(spec.gamma0 + s_obs @ spec.gamma)).astype(float)
    return ExperimentalSample._trusted(w=w, s=s_exp), ObservationalSample._trusted(y=y, s=s_obs)


@dataclass(frozen=True)
class EstimatorStats:
    """Monte Carlo summary for one estimator."""

    abs_bias: float
    sd: float
    reps: int
    true_tau: float
    mean_estimate: float
    failures: int


@dataclass(frozen=True)
class McResult:
    """Per-estimator Monte Carlo summaries for one grid point."""

    score: EstimatorStats
    index: EstimatorStats


def _first_columns(sample, k: int):
    """``sample`` with only its first ``k`` surrogate columns: the analyst's view in the misspecification study.

    The columns are a C-contiguous copy, built by the trusted constructor.
    """
    units = {c: getattr(sample, c) for c in sample.unit_columns}
    return type(sample)._trusted(s=sample.s[:, :k].copy(), x=sample.x, **units)


def _replicate(spec: DgpSpec, rep_seed) -> tuple[float | None, float | None]:
    """One replication: returns (score estimate, index estimate), None on failure.

    The samples are validated once, when drawn (see :func:`draw_dataset`
    and :func:`_first_columns`); the fits skip the rescans of their
    columns, and each estimate is the ``tau_hat`` of its estimator's step,
    without the weight summaries of a report.
    """
    try:
        exp, obs = draw_dataset(spec, rep_seed)
    except SurrogateError:
        return None, None
    k = spec.k_used
    if k is not None and k < spec.m_surrogates:
        exp, obs = _first_columns(exp, k), _first_columns(obs, k)
    q = spec.n_exp / (spec.n_exp + spec.n_obs)
    e_model = _fit_propensity(exp, HARNESS_RIDGE)  # the treated fraction: the samples have no covariates
    t_model = ConstantScore(q)

    try:
        r_model = _fit("surrogate score", fit_logistic, exp.s, exp.w, HARNESS_RIDGE, exp.n_surrogates)
        fits = NuisanceFits(e_model=e_model, r_model=r_model, t_model=t_model, h_model=None)
        tau_o = _score_step(obs, fits, q, DEFAULT_TRIM)[0]
    except SurrogateError:
        tau_o = None
    try:
        # the outcomes are binary, so the index is itself a logistic mean
        h_model = _fit("surrogate index", fit_logistic, obs.s, obs.y, HARNESS_RIDGE, obs.n_surrogates)
        fits = NuisanceFits(e_model=e_model, r_model=None, t_model=t_model, h_model=h_model)
        tau_e = _index_step(exp, fits, DEFAULT_TRIM)[0]
    except SurrogateError:
        tau_e = None
    return tau_o, tau_e


def _stats(values: list[float | None], reps: int, tt: float) -> EstimatorStats:
    ok = np.array([v for v in values if v is not None], dtype=float)
    failures = reps - len(ok)
    if len(ok) == 0:
        raise StudyError("every replication failed")
    return EstimatorStats(
        abs_bias=float(abs(ok.mean() - tt)),
        sd=float(ok.std(ddof=1)) if len(ok) > 1 else 0.0,
        reps=reps,
        true_tau=tt,
        mean_estimate=float(ok.mean()),
        failures=failures,
    )


def run_monte_carlo(spec: DgpSpec, reps: int, seed: int, grid_index: int = 0) -> McResult:
    """Run ``reps`` replications of one grid point.

    Replication ``k`` uses the seed stream ``(seed, 2, grid_index, k)``;
    results are aggregated in replication order, so the outcome is
    independent of worker count and execution order.
    """
    if reps < 1:
        raise ConfigurationError("reps must be at least 1")
    tt = true_tau(spec)

    def one(rep: int):
        return _replicate(spec, seed_sequence(seed, 2, grid_index, rep))

    outcomes = ordered_map(one, range(reps))
    return McResult(
        score=_stats([o[0] for o in outcomes], reps, tt),
        index=_stats([o[1] for o in outcomes], reps, tt),
    )


def run_study(
    study: str,
    reps: int,
    seed: int,
    out_path=None,
    grid=None,
) -> list[dict]:
    """Run a full study over its grid and optionally write CSV plus manifest.

    The CSV carries one row per (grid point, estimator) with bias and
    standard deviation multiplied by 100 for readability; the manifest
    records every generating process, the seed contract, and the package
    version.  An ``out_path`` whose CSV or manifest cannot be written (an
    existing directory, a path under a regular file or one in a
    symbolic-link loop) raises :class:`ConfigurationError` before any
    replication runs.
    """
    if study not in STUDIES:
        raise ConfigurationError(f"unknown study {study!r}; expected one of {STUDY_NAMES}")
    if seed < 0:
        raise ConfigurationError(f"seed must be non-negative, got {seed}")
    keyword, cast, default_grid = STUDIES[study]
    if grid is None:
        grid = default_grid
    else:
        grid = tuple(grid)
        try:
            cast_grid = tuple(cast(value) for value in grid)
        except (TypeError, ValueError):
            cast_grid = ()
        if not cast_grid or cast_grid != grid:
            raise ConfigurationError(
                f"the {study} grid must be a non-empty list of {cast.__name__} values, got {list(grid)!r}"
            )
        grid = cast_grid
    if out_path is not None:
        out_path = _check_output(out_path)
        manifest_path = _check_output(out_path.with_suffix(out_path.suffix + ".manifest.json"))

    rows: list[dict] = []
    specs: list[DgpSpec] = []
    for i, value in enumerate(grid):
        spec = make_spec(study, seed=seed, **{keyword: value})
        specs.append(spec)
        result = run_monte_carlo(spec, reps=reps, seed=seed, grid_index=i)
        for name, stats in (("score", result.score), ("index", result.index)):
            rows.append(
                {
                    "grid_value": value,
                    "estimator": name,
                    "abs_bias_x100": stats.abs_bias * 100.0,
                    "sd_x100": stats.sd * 100.0,
                    "reps": stats.reps,
                    "failures": stats.failures,
                    "true_tau": stats.true_tau,
                }
            )

    if out_path is not None:
        with _open_output(out_path, newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(_CSV_FIELDS)
            writer.writerows([row[f] for f in _CSV_FIELDS] for row in rows)
        manifest = {
            "study": study,
            "grid": list(grid),
            "reps": reps,
            "seed": seed,
            "seed_contract": "coefficients: (seed, 1, tag); replication k of grid point i: (seed, 2, i, k)",
            "harness_ridge": HARNESS_RIDGE,
            "specs": [s.to_dict() for s in specs],
            "version": _version,
        }
        with _open_output(manifest_path) as fh:
            json.dump(manifest, fh, sort_keys=True, indent=2)
            fh.write("\n")
    return rows
