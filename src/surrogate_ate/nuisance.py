"""Nuisance-function fitting: least squares and logistic maximum likelihood.

Four conditional expectations drive every estimator in this package:

* the propensity score ``e(x)``, the probability of treatment given
  covariates, fit on the experimental sample;
* the surrogate score ``r(s, x)``, the probability of having received the
  treatment given surrogates and covariates, fit on the experimental sample;
* the sampling score ``t(s, x)``, the probability of belonging to the
  experimental sample, fit on the pooled sample;
* the surrogate index ``h(s, x)``, the expected outcome given surrogates
  and covariates, fit on the observational sample.

Linear models are solved by ridge-regularized normal equations and logistic
models by iteratively reweighted least squares (IRLS) with step-halving.
Design columns are centered and scaled internally for conditioning; the
ridge penalty applies to the coefficients on the original scale and the
intercept is never penalized.  Fitting is deterministic: identical inputs
produce bit-identical models.

Every fit is set up in one pass: the checks on the inputs, then the
standardized columns written straight into a preallocated design
``z1 = [1 | z]``, which least squares, the logistic fit and the rank check
all start from.

Every nuisance fit in the package goes through one site, :func:`_fit`,
which names its role: ``propensity score``, ``surrogate score``,
``sampling score`` and ``surrogate index`` in :func:`fit_all`, in the
Monte Carlo replications and in the single-sample bounds and estimate,
plus the ``treated arm regression`` and ``control arm regression`` of
the single-sample bounds.  It lets the validated columns of a sample skip
the rescans of their inputs, and puts the role before the message of a fit
that fails.  :func:`fit_all` fits ``r`` and ``h`` on the rows ``[s | x]``
that each sample stores (``sx``), and takes ``z1`` for the propensity and
the sampling score from the :class:`PooledDataset`, which standardizes the
experimental ``x`` and the pooled ``sx`` once each (``data._standardize``)
and hands the same arrays to matching's distances; the other fits
standardize their own designs.  The propensity has one rule,
:func:`_fit_propensity`.

A model's design is the stored rows ``[s | x]``, or with interaction terms
``[s | x | s*x]``, which one helper builds from those rows,
:func:`_with_interactions`: for the fit in :func:`_fit`, for prediction in
:meth:`_LinearPredictor._predict_sx` and for :func:`build_design`.
``_predict_sx`` evaluates ``link(intercept + design @ coef)`` on a
sample's stored rows; ``predict(s, x)`` is the checked boundary over it,
which coerces its inputs and checks their widths against the model's.

The IRLS kernel is numpy alone and allocates its working arrays once per
fit.  Each Newton step writes the probability, residual, weights and
objective terms into reused n-vectors; the probability comes from the one
logistic link, :func:`_probability`, which fitted models also predict with.
The step builds the weighted Hessian ``z1' diag(p(1-p)) z1`` as the
symmetric product ``zwt zwt'``, where ``zwt`` is a contiguous
``(d + 1) x n`` transposed copy of the design scaled row by row by
``sqrt(p(1-p))``; BLAS computes it as a rank-k update at half the flops of
a general product.  The penalized system is solved by LU
(``np.linalg.solve``).  The line-search candidate's linear predictor is
written into a second buffer and swapped in when the candidate is accepted.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from typing import ClassVar, Union

import numpy as np

from .data import PooledDataset, _standardize, _strict_json
from .errors import (
    ConvergenceError,
    DegenerateLabelsError,
    FitError,
    SeparationError,
    SingularDesignError,
    ValidationError,
)

# expit rounds to exactly 1.0 beyond eta ~ 37; clipping the linear predictor
# to +-36 keeps every predicted probability strictly inside (0, 1).
_ETA_MAX = 36.0

# exp(708) is finite and 1 / (1 + exp(708)) is a normal double, so expit needs
# no floating-point error context for any finite input.
_EXP_ARG_MAX = 708.0

_GRAD_TOL = 1e-8
_MAX_ITER = 100
_SEPARATION_NORM = 30.0


def expit(x):
    """The logistic function ``1 / (1 + exp(-x))``, elementwise.

    Raises no floating-point warning for any finite input: large ``x``
    gives exactly 1, and ``x`` below ``-708`` gives about ``3e-308``.  A
    scalar gives a scalar.
    """
    return 1.0 / (1.0 + np.exp(-np.maximum(x, -_EXP_ARG_MAX)))


def _probability(eta: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The logistic link: ``expit`` of the linear predictor clipped to ``+-_ETA_MAX``, strictly inside (0, 1).

    Every step writes into one buffer, ``out`` when given (it may be
    ``eta`` itself), else a new array.  On the clipped predictor
    :func:`expit`'s ``-708`` floor is a no-op, so it is left out.
    """
    p = np.maximum(eta, -_ETA_MAX, out=out)
    np.minimum(p, _ETA_MAX, out=p)
    np.negative(p, out=p)
    np.exp(p, out=p)
    p += 1.0
    return np.divide(1.0, p, out=p)


def _with_interactions(sx: np.ndarray, n_s: int) -> np.ndarray:
    """``[s | x | s*x]`` from a sample's stored rows ``sx = [s | x]``, whose first ``n_s`` columns are surrogates.

    The products come in surrogate-major order (``s_1 x_1, s_1 x_2, ...``).
    This is the one place the interaction design is built: for fitting
    (:func:`_fit`), for prediction (:meth:`_LinearPredictor._predict_sx`)
    and for :func:`build_design`.
    """
    n, n_x = len(sx), sx.shape[1] - n_s
    return np.hstack([sx, (sx[:, :n_s, None] * sx[:, None, n_s:]).reshape(n, n_s * n_x)])


def build_design(s: np.ndarray, x: np.ndarray, interactions: bool = False):
    """Assemble ``[s | x | s*x]`` and return the block widths.

    The products are those of :func:`_with_interactions`.  When only one
    block has columns, ``features`` is that block, as a C-contiguous array
    that may share memory with the argument.

    Returns
    -------
    (features, n_s, n_x, n_sx)
    """
    s = np.atleast_2d(np.asarray(s, dtype=float))
    x = np.atleast_2d(np.asarray(x, dtype=float))
    n_s, n_x = s.shape[1], x.shape[1]
    if not (n_s and n_x):
        return np.ascontiguousarray(s if n_s else x), n_s, n_x, 0
    features = np.hstack([s, x])
    return (_with_interactions(features, n_s), n_s, n_x, n_s * n_x) if interactions else (features, n_s, n_x, 0)


@dataclass(frozen=True)
class _LinearPredictor:
    """``link(intercept + coef_s's + coef_x'x [+ coef_sx'(s*x)])``; subclasses set the link."""

    _json_type: ClassVar[str] = ""

    intercept: float
    coef_s: np.ndarray
    coef_x: np.ndarray
    coef_sx: np.ndarray = field(default_factory=lambda: np.empty(0))

    @classmethod
    def _from_coef(cls, intercept: float, b: np.ndarray, n_surrogates: int | None, n_interactions: int, **fit):
        """Split ``b`` into its ``s``, ``x`` and ``s*x`` blocks; ``n_surrogates=None`` means all of ``b``."""
        n_s = len(b) if n_surrogates is None else n_surrogates
        sx_start = len(b) - n_interactions
        return cls(intercept=intercept, coef_s=b[:n_s], coef_x=b[n_s:sx_start], coef_sx=b[sx_start:], **fit)

    @property
    def coef(self) -> np.ndarray:
        return np.concatenate([self.coef_s, self.coef_x, self.coef_sx])

    @property
    def uses_interactions(self) -> bool:
        return self.coef_sx.size > 0

    @staticmethod
    def _link(eta: np.ndarray) -> np.ndarray:
        return eta

    def _check_widths(self, n_s: int, n_x: int) -> None:
        if n_s != len(self.coef_s) or n_x != len(self.coef_x):
            raise ValidationError(
                f"feature dimensions (s={n_s}, x={n_x}) do not match model "
                f"(s={len(self.coef_s)}, x={len(self.coef_x)})"
            )

    def predict(self, s, x=None) -> np.ndarray:
        """The model at the rows of ``s`` and ``x`` (no covariates when ``None``): the checked boundary.

        The inputs are coerced to 2-d float arrays and their widths checked
        against the model's; the rows ``[s | x]`` then go to
        :meth:`_predict_sx`.
        """
        s = np.atleast_2d(np.asarray(s, dtype=float))
        rows, n_s, n_x, _ = build_design(s, np.empty((len(s), 0)) if x is None else x)
        self._check_widths(n_s, n_x)
        return self._predict_sx(rows)

    def _predict_sx(self, sx: np.ndarray) -> np.ndarray:
        """The model at a sample's stored rows ``[s | x]`` (``sample.sx``), unchecked.

        ``link(intercept + design @ coef)``, where the design is the rows
        themselves, or with interaction terms the rows and their products
        (:func:`_with_interactions`).  The caller checks the sample's
        widths against the fit's (:meth:`_check_widths`); :meth:`predict`
        does so for arbitrary inputs.
        """
        if self.uses_interactions:
            sx = _with_interactions(sx, len(self.coef_s))
        return self._link(self.intercept + sx @ self.coef)

    def to_dict(self) -> dict:
        payload = {f.name: getattr(self, f.name) for f in fields(self)}
        payload.update(type=self._json_type, coef_s=self.coef_s.tolist(), coef_x=self.coef_x.tolist(),
                       coef_sx=self.coef_sx.tolist())
        return payload


@dataclass(frozen=True)
class LinearModel(_LinearPredictor):
    """Linear surrogate index ``h(s, x) = intercept + coef_s's + coef_x'x [+ coef_sx'(s*x)]``.

    ``residual_variance`` is the mean squared training residual, used as the
    homoskedastic plug-in for conditional outcome variance.
    """

    _json_type: ClassVar[str] = "linear"

    residual_variance: float = 0.0


@dataclass(frozen=True)
class LogisticModel(_LinearPredictor):
    """Logistic score ``p(s, x) = expit(intercept + coef_s's + coef_x'x [+ coef_sx'(s*x)])``.

    Predictions are strictly inside (0, 1) for all finite inputs.  A fitted
    model has always converged (:func:`fit_logistic` raises
    :class:`ConvergenceError` otherwise); ``iterations`` counts its Newton steps.
    """

    _json_type: ClassVar[str] = "logistic"

    iterations: int = 0

    _link = staticmethod(_probability)


@dataclass(frozen=True)
class ConstantScore:
    """A score that is the same known probability for every unit."""

    p: float

    def __post_init__(self):
        if not 0.0 < self.p < 1.0:
            raise ValidationError(f"constant score must lie in (0, 1), got {self.p}")

    def predict(self, s, x=None) -> np.ndarray:
        s = np.atleast_2d(np.asarray(s, dtype=float))
        return np.full(s.shape[0], self.p)

    def _predict_sx(self, sx: np.ndarray) -> np.ndarray:
        return np.full(len(sx), self.p)

    def to_dict(self) -> dict:
        return {"type": "constant", "p": self.p}


ScoreModel = Union[LogisticModel, ConstantScore]
IndexModel = Union[LinearModel, LogisticModel]


def _check_rank(z1: np.ndarray, gram: np.ndarray | None = None) -> None:
    """Rank check for the standardized design ``A = z1 = [1 | z]`` of a fit (ridge = 0 path).

    ``A`` is rank deficient when its SVD finds ``sigma_min <= 1e-10 * sigma_max``.
    The eigenvalues of the Gram matrix ``A'A`` are tried first: rounding moves
    them by at most about ``n * (d + 1) * eps * lambda_max``, under
    ``1e-7 * lambda_max`` while ``A`` has fewer than 10**8 cells, so
    ``lambda_min > 1e-6 * lambda_max`` proves ``sigma_min / sigma_max > ~1e-3``
    and the SVD is skipped.  Every other design goes to the SVD, as before.
    ``gram`` is a Gram that the caller has formed already, up to a positive
    factor, which the eigenvalue ratio does not see: the ridge-free logistic
    fit passes its first Newton Hessian, ``A'A / 4`` at ``beta = 0``.
    Without it the Gram is formed here, as least squares does.
    """
    n_rows, d = z1.shape[0], z1.shape[1] - 1
    if n_rows < d + 1:
        raise SingularDesignError(
            f"{n_rows} rows cannot identify {d + 1} coefficients; add rows or use a positive ridge"
        )
    if d == 0:
        return
    if n_rows * (d + 1) < 10**8:
        eig = np.linalg.eigvalsh(z1.T @ z1 if gram is None else gram)
        if eig[0] > 1e-6 * eig[-1]:
            return
    sv = np.linalg.svd(z1, compute_uv=False)
    if sv[-1] <= sv[0] * 1e-10:
        raise SingularDesignError(
            "design matrix is rank deficient; a positive ridge penalty makes the fit well defined"
        )


def _penalized_solve(matrix: np.ndarray, penalty, rhs: np.ndarray, separation: bool = False) -> np.ndarray:
    """Solve ``(matrix + diag(penalty)) x = rhs``, adding ``penalty`` to the diagonal in place.

    ``matrix`` must be C-contiguous, as a fresh matrix product is, so that
    ``ravel()`` is a view of it.

    A singular system raises :class:`SingularDesignError`, or
    :class:`SeparationError` when ``separation`` says that a singular matrix
    is an unpenalized logistic Hessian, flat at the boundary.
    """
    matrix.ravel()[:: len(matrix) + 1] += penalty
    try:
        return np.linalg.solve(matrix, rhs)
    except np.linalg.LinAlgError:
        if separation:
            raise SeparationError(
                "logistic likelihood is flat at the boundary; data may be separated, "
                "consider a positive ridge penalty"
            ) from None
        raise SingularDesignError("the penalized normal equations are singular; use a larger ridge penalty") from None


def _check_ridge(ridge: float) -> None:
    """Every fit's check on its ridge penalty, which the CLI also runs on ``--ridge`` before any input is read."""
    if not 0.0 <= ridge < np.inf:
        raise ValidationError(f"ridge penalty must be finite and non-negative, got {ridge}")


def _prepare(features, targets, ridge: float, binary: bool, standardized=None, trusted=False):
    """Coerce and check one fit's inputs, then standardize the design.

    Returns ``(features, targets, z1, mean, sd)`` with ``z1 = [1 | z]`` from
    :func:`_standardize`, or from ``standardized()``, which returns the
    same triple for ``features`` that a :class:`PooledDataset` has built
    already.  ``binary`` fits also need 0/1 labels of both classes.  The
    rank of a ridge-free design is left to the fit (:func:`_check_rank`):
    least squares checks ``z1`` next, and the logistic fit its first Newton
    Hessian, so that no second Gram is formed.  ``trusted`` inputs are
    columns of one validated sample (a 2-d float design, a 1-d float target
    of its row count, finite, 0/1 where they are labels), so coercion and
    those rescans are skipped; every check that depends on the data and the
    ridge still runs.
    """
    y = targets
    if not trusted:
        features = np.atleast_2d(np.asarray(features, dtype=float))
        y = np.asarray(targets, dtype=float).ravel()
        if features.shape[0] != len(y):
            raise ValidationError(f"features and {'labels' if binary else 'targets'} have different row counts")
        if not (np.isfinite(features).all() and np.isfinite(y).all()):
            raise ValidationError("non-finite values in the training data")
        if binary and not ((y == 0.0) | (y == 1.0)).all():
            raise ValidationError("labels must be 0 or 1")
    _check_ridge(ridge)
    if binary:
        n_positive = y.sum()
        if n_positive == 0 or n_positive == len(y):
            raise DegenerateLabelsError("labels contain a single class; no model can be fit")
    if len(y) == 0:
        raise ValidationError("cannot fit on an empty sample")
    z1, mean, sd = _standardize(features) if standardized is None else standardized()
    return features, y, z1, mean, sd


def fit_least_squares(
    features: np.ndarray,
    targets: np.ndarray,
    ridge: float = 0.0,
    n_surrogates: int | None = None,
    n_interactions: int = 0,
    _standardized=None,
    _trusted=False,
) -> LinearModel:
    """Least squares with an unpenalized intercept and optional ridge penalty.

    Minimizes ``sum((y - intercept - features @ b)^2) + ridge * ||b||^2``.
    ``n_surrogates`` gives the number of leading feature columns that are
    surrogates (defaults to all of them); remaining columns are covariates,
    with the final ``n_interactions`` columns treated as interaction terms.
    Inputs are coerced to float arrays and checked for matching row counts
    and finite values; :func:`_fit` skips those checks for the columns
    of a validated sample (see :func:`_prepare`).

    Raises
    ------
    SingularDesignError
        If ``ridge == 0`` and the design is rank deficient, or if the
        penalized normal equations are singular.
    """
    features, y, z1, mean, sd = _prepare(features, targets, ridge, False, _standardized, _trusted)
    if ridge == 0.0:
        _check_rank(z1)
    # a contiguous copy: numpy's matrix-vector product of a strided view can round differently
    z = np.ascontiguousarray(z1[:, 1:])
    y_bar = y.mean()
    # ridge * S^-2 in standardized space == ridge * I on the original scale
    b = _penalized_solve(z.T @ z, ridge / sd**2, z.T @ (y - y_bar)) / sd
    intercept = float(y_bar - mean @ b)
    resid = y - intercept - features @ b
    return LinearModel._from_coef(
        intercept, b, n_surrogates, n_interactions, residual_variance=float(np.mean(resid**2))
    )


def bernoulli_loglik(intercept: float, coef: np.ndarray, features: np.ndarray, labels: np.ndarray) -> float:
    """Log-likelihood of a logistic model, stable for large linear predictors."""
    eta = intercept + features @ np.asarray(coef, dtype=float)
    return float(np.sum(labels * eta - np.logaddexp(0.0, eta)))


def bernoulli_loglik_gradient(
    intercept: float, coef: np.ndarray, features: np.ndarray, labels: np.ndarray
) -> np.ndarray:
    """Gradient of :func:`bernoulli_loglik` in ``(intercept, coef)``."""
    eta = intercept + features @ np.asarray(coef, dtype=float)
    resid = labels - expit(eta)
    return np.concatenate([[resid.sum()], features.T @ resid])


def fit_logistic(
    features: np.ndarray,
    labels: np.ndarray,
    ridge: float = 0.0,
    n_surrogates: int | None = None,
    n_interactions: int = 0,
    tol: float = _GRAD_TOL,
    max_iter: int = _MAX_ITER,
    _standardized=None,
    _trusted=False,
) -> LogisticModel:
    """Penalized Bernoulli maximum likelihood by IRLS with step-halving.

    The fit maximizes ``loglik - (ridge / 2) * ||b||^2`` (intercept
    unpenalized, penalty on original-scale coefficients) and stops when the
    max-norm of the penalized score falls below ``tol``.  A returned model
    has always converged.

    This is the public boundary of the fit: inputs are coerced to float
    arrays and checked for matching row counts, finite values and 0/1
    labels.  :func:`_fit`, the package's one caller, passes the columns
    of a validated sample, which skip those rescans (see
    :func:`_prepare`); the checks on the data itself (single class, empty
    sample, rank, separation, convergence) and on ``ridge`` always run.

    Each Newton step works in buffers allocated once per fit: n-vectors for
    the linear predictor, the line-search candidate's predictor (swapped in
    when the candidate is accepted), the probability (:func:`_probability`,
    the link the model predicts with), the residual and weights, and the
    objective's terms; and a contiguous ``(d + 1) x n`` transposed copy of
    the design, scaled by the square-root weights into a second buffer of
    that shape so that the Hessian is the symmetric product ``zwt zwt'``
    (BLAS ``syrk``).  The linear predictor and the gradient are products
    with the row-major design.  The log-likelihood term ``logaddexp(0, eta)``
    is evaluated as ``max(eta, 0) + log1p(exp(-|eta|))``; the objective
    decides only step-halving and the final separation check.  The tests
    pin coefficients, intercept and iteration count against a reference
    kernel that makes one temporary per operation.

    At ``ridge == 0`` the rank certificate of :func:`_check_rank` reads
    the first Newton Hessian, which at ``beta = 0`` is ``z1'z1 / 4``
    (every weight is exactly ``1/4``), before that Hessian is solved; a
    fit that forms no Hessian (the score at ``beta = 0`` is already below
    ``tol``) has its design checked before it returns.  Either way a rank
    deficient design raises :class:`SingularDesignError` before any other
    check on the fit, and no second Gram is formed.

    Raises
    ------
    DegenerateLabelsError
        If the labels contain a single class.
    SeparationError
        If ``ridge == 0`` and the coefficient norm diverges, the signature
        of complete separation; a positive ridge makes the optimum finite.
    SingularDesignError
        If ``ridge == 0`` and the design is rank deficient, or if the
        penalized Hessian is singular.
    ConvergenceError
        If the score is still above ``tol`` after ``max_iter`` Newton steps.
    """
    features, y, z1, mean, sd = _prepare(features, labels, ridge, True, _standardized, _trusted)
    n, d = features.shape
    penalty = np.concatenate([[0.0], ridge / sd**2])
    zt = np.ascontiguousarray(z1.T)
    zwt = np.empty_like(zt)
    # r holds the residual, then the square-root weights; u and v hold the objective's terms
    eta, cand_eta, p, r, u, v = (np.empty(n) for _ in range(6))

    def objective(beta, eta):
        """The penalized log-likelihood at ``beta``; writes ``z1 @ beta`` into ``eta``."""
        np.matmul(z1, beta, out=eta)
        np.abs(eta, out=u)
        np.negative(u, out=u)
        np.exp(u, out=u)
        np.log1p(u, out=u)
        np.maximum(eta, 0.0, out=v)
        np.add(u, v, out=u)  # logaddexp(0, eta)
        np.multiply(y, eta, out=v)
        np.subtract(v, u, out=v)
        return float(v.sum()) - 0.5 * float(penalty @ beta**2)

    beta = np.zeros(d + 1)
    obj = objective(beta, eta)
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        _probability(eta, out=p)
        np.subtract(y, p, out=r)
        grad = z1.T @ r - penalty * beta
        if np.abs(grad).max() < tol:
            converged = True
            iterations -= 1
            break
        np.subtract(1.0, p, out=r)
        r *= p
        np.sqrt(r, out=r)
        np.multiply(zt, r, out=zwt)
        hessian = zwt @ zwt.T
        if ridge == 0.0 and iterations == 1:
            _check_rank(z1, hessian)
        step = _penalized_solve(hessian, penalty, grad, separation=ridge == 0.0)
        scale = 1.0
        candidate = beta + step
        cand_obj = objective(candidate, cand_eta)
        halvings = 0
        # accept float-noise ties; only genuine decreases trigger halving
        floor = obj - 1e-12 * (1.0 + abs(obj))
        while cand_obj < floor and halvings < 30:
            scale *= 0.5
            candidate = beta + scale * step
            cand_obj = objective(candidate, cand_eta)
            halvings += 1
        beta, obj = candidate, cand_obj
        eta, cand_eta = cand_eta, eta
        if ridge == 0.0 and np.linalg.norm(beta[1:]) > _SEPARATION_NORM:
            raise SeparationError(
                "coefficient norm diverged: data are (quasi-)separated and the "
                "unpenalized MLE does not exist; use a positive ridge penalty"
            )

    if ridge == 0.0 and iterations == 0:  # no Hessian was formed to check the rank with
        _check_rank(z1)
    # a perfect fit (log-likelihood at its supremum of 0) is only possible
    # under complete separation, even if the gradient plateaued before the
    # coefficient norm tripped the divergence threshold
    if ridge == 0.0 and d > 0 and obj > -1e-6:
        raise SeparationError(
            "data are perfectly separated and the unpenalized MLE does not exist; "
            "use a positive ridge penalty"
        )
    if not converged:
        raise ConvergenceError(
            f"IRLS did not reach a score max-norm below {tol:g} in {max_iter} iterations; "
            "a larger ridge penalty may help"
        )

    b = beta[1:] / sd
    intercept = float(beta[0] - np.sum(beta[1:] * mean / sd))
    return LogisticModel._from_coef(
        intercept, b, n_surrogates, n_interactions, iterations=iterations
    )


@dataclass(frozen=True)
class NuisanceOptions:
    """Fitting configuration for :func:`fit_all`.

    ``constant_propensity`` fixes ``e(x)`` to a known randomization
    probability instead of fitting it.  ``constant_sampling_score`` fixes
    ``t(s, x)`` to the realized experimental fraction ``q``, the right
    choice when pooled membership carries no information beyond sample
    sizes.  ``interactions`` augments the ``(s, x)`` designs with all
    pairwise surrogate-by-covariate products.
    """

    ridge_propensity: float = 0.0
    ridge_surrogate_score: float = 0.0
    ridge_sampling_score: float = 0.0
    ridge_index: float = 0.0
    constant_propensity: float | None = None
    constant_sampling_score: bool = False
    interactions: bool = False


_MODEL_SLOTS = ("e_model", "r_model", "t_model", "h_model")


@dataclass(frozen=True)
class NuisanceFits:
    """The four fitted nuisance functions plus the options that produced them.

    :func:`fit_all` always populates all four models; callers assembling a
    fits object by hand may leave slots they do not use as ``None``, and
    :meth:`_require` refuses to predict from them.  A model predicts with
    its own ``predict(s, x)``.
    """

    e_model: ScoreModel | None
    r_model: ScoreModel | None
    t_model: ScoreModel | None
    h_model: IndexModel | None
    options: NuisanceOptions = field(default_factory=NuisanceOptions)

    def _require(self, name: str):
        model = getattr(self, name)
        if model is None:
            raise ValidationError(f"no {name} was fitted")
        return model

    def to_json(self) -> str:
        """The options and the four models as strict sorted-key JSON (``data._strict_json``)."""
        payload = {"options": asdict(self.options)}
        for slot in _MODEL_SLOTS:
            model = getattr(self, slot)
            payload[slot] = model.to_dict() if model is not None else None
        return _strict_json(payload)

    @staticmethod
    def from_json(text: str) -> "NuisanceFits":
        payload = json.loads(text)

        def _model(d):
            if d is None:
                return None
            d = dict(d)
            tag = d.pop("type")
            if tag == "constant":
                return ConstantScore(**d)
            d.pop("converged", None)  # written on logistic models by earlier versions; a fitted model has converged
            cls = LinearModel if tag == "linear" else LogisticModel
            return cls(**{k: np.asarray(v, dtype=float) if k.startswith("coef") else v for k, v in d.items()})

        models = {slot: _model(payload[slot]) for slot in _MODEL_SLOTS}
        return NuisanceFits(**models, options=NuisanceOptions(**payload["options"]))


def _fit(role: str, fitter, rows, target, ridge: float, n_s: int, standardized=None, interactions=False):
    """Fit one nuisance: the one place the package calls :func:`fit_logistic` or :func:`fit_least_squares`.

    ``rows`` are the columns ``[s | x]`` of a validated sample, of which
    the first ``n_s`` are surrogates, and ``target`` is its label or
    outcome column; such columns skip the rescans of their inputs (see
    :func:`_prepare`).  ``standardized`` is a :class:`PooledDataset`'s
    builder of their standardized design, if it has one.  With
    ``interactions``, surrogates and covariates, the design is built here
    by :func:`_with_interactions`; its surrogate-by-covariate products are
    checked as user input is (products of finite columns may overflow) and
    standardized by the fit.  ``fitter`` comes from the caller's own
    module, so that a test or a tracer that replaces it there sees the
    call.  A :class:`ValidationError` or :class:`FitError` is raised
    again, of the same type, with ``role`` before its message.
    """
    n_sx = n_s * (rows.shape[1] - n_s) if interactions else 0
    if n_sx:
        rows, standardized = _with_interactions(rows, n_s), None
    try:
        return fitter(rows, target, ridge=ridge, n_surrogates=n_s, n_interactions=n_sx,
                      _standardized=standardized, _trusted=n_sx == 0)
    except (ValidationError, FitError) as exc:
        raise type(exc)(f"{role}: {exc}") from exc


def _fit_propensity(sample, ridge: float, standardized=None) -> ScoreModel:
    """The propensity ``e(x)`` of a sample with a treatment column ``w``: the package's one rule for it.

    With no covariates it is the treated fraction, an exact
    :class:`ConstantScore`; otherwise the logistic fit of ``w`` on ``x``
    (:func:`_fit`, with ``standardized`` as there).  :func:`_fit_scores`,
    the single-sample bounds (``diagnostics._covariate_plugins``) and the
    Monte Carlo replications call it.
    """
    if sample.n_covariates == 0:
        return ConstantScore(float(sample.w.mean()))
    return _fit("propensity score", fit_logistic, sample.x, sample.w, ridge, 0, standardized)


def _fit_scores(pooled: PooledDataset, options: NuisanceOptions) -> tuple:
    """``(e_model, r_model)``: the propensity and the surrogate score, fitted as :func:`fit_all` fits them.

    The propensity is ``options.constant_propensity`` when given, else
    :func:`_fit_propensity` on ``pooled``'s standardized experimental
    ``x``.  The surrogate score is fitted on the experimental ``sx``.
    :func:`fit_all` calls this first, and ``diagnose`` calls it alone,
    since the bias bound reads these two models only.
    """
    exp = pooled.exp
    if options.constant_propensity is not None:
        e_model: ScoreModel = ConstantScore(options.constant_propensity)
    else:
        e_model = _fit_propensity(exp, options.ridge_propensity, lambda: pooled.standardized_x)
    r_model = _fit("surrogate score", fit_logistic, exp.sx, exp.w, options.ridge_surrogate_score,
                   exp.n_surrogates, interactions=options.interactions)
    return e_model, r_model


def fit_all(pooled: PooledDataset, options: NuisanceOptions | None = None) -> NuisanceFits:
    """Fit propensity, surrogate score, sampling score, and surrogate index.

    The propensity and the surrogate score come from :func:`_fit_scores`.
    The other fits read the rows the samples store: ``h`` the
    observational ``sx``, and the sampling score ``pooled``'s standardized
    ``sx`` (with ``interactions``, it standardizes its own wider design).
    Each fit goes through :func:`_fit` and is tagged with its role.
    """
    options = options or NuisanceOptions()
    obs, n_s, interactions = pooled.obs, pooled.exp.n_surrogates, options.interactions
    e_model, r_model = _fit_scores(pooled, options)

    if options.constant_sampling_score:
        t_model: ScoreModel = ConstantScore(pooled.q)
    else:
        t_model = _fit("sampling score", fit_logistic, pooled.sx, pooled.is_experimental.astype(float),
                       options.ridge_sampling_score, n_s, lambda: pooled.standardized_sx, interactions)

    h_model = _fit("surrogate index", fit_least_squares, obs.sx, obs.y, options.ridge_index, n_s,
                   interactions=interactions)

    return NuisanceFits(e_model=e_model, r_model=r_model, t_model=t_model, h_model=h_model, options=options)
