"""Command line interface.

Subcommands
-----------
estimate
    Point estimates (and optional bootstrap standard errors) from an
    experimental and an observational CSV file.
diagnose
    Bias bound for user-declared caps on the surrogacy and comparability
    violations; it fits only the propensity and the surrogate score, which
    the bound reads.
bounds
    Efficiency bounds: single-sample variance bounds with and without
    surrogacy, or the two-sample bound (no covariates, constant sampling
    score).
simulate
    Monte Carlo study tables as CSV plus a JSON manifest; ``--study`` takes
    a name from ``simulation.STUDIES`` or the short ``misspec``/``samplesize``.

``estimate --method all`` with ``--interactions`` leaves out the linear
shortcut, which needs an index without interaction terms.  With
``--bootstrap B``, ``--method all`` bootstraps every method on the same B
resamples, with one ``fit_all`` per resample shared by the index, score and
linear-shortcut estimates; a resample whose fit fails is dropped for those
three methods only, and one on which a method fails for that method only.

The exit codes, the one-line ``error:`` and ``warning:`` messages on
stderr and the worker processes (``SURROGATE_THREADS``, checked by every
command before any input is read) are described in the README's "Command
line" section.  Each command runs with numpy's
floating-point warnings off, and its JSON output is strict: a number that
is not finite ends the command with an ``EstimationError`` (exit 3) before
any ``--out`` file is written.
"""

from __future__ import annotations

import argparse
import functools
import sys
import warnings
from dataclasses import asdict, replace

import numpy as np

from ._version import __version__
from .data import _check_output, _open_output, _strict_json, load_experimental, load_observational, load_single, pool
from .diagnostics import (
    _PER_STRATUM_FALLBACK,
    bias_bound,
    efficiency_bound_two_sample,
    efficiency_bounds_single_sample,
)
from .errors import ConfigurationError, SurrogateError
from .estimators import (DEFAULT_TRIM, _attempt, _index_step, _linear_step, _match, _score_step, bootstrap_se,
                         estimate_index, estimate_linear_shortcut, estimate_score)
from .nuisance import NuisanceFits, NuisanceOptions, _check_ridge, _fit_scores, fit_all
from .parallel import worker_count
from .simulation import STUDIES, run_study

# each method's report and its bootstrap estimate, both on (pooled, fits, trim), in the order of
# --method all: a bootstrap replicate reads only tau_hat, the first entry of the method's step;
# matching reads only the standardized designs of the pooled dataset, not the fits
_METHOD_TABLE = {
    "index": (lambda p, f, trim: estimate_index(p.exp, f, trim), lambda p, f, trim: _index_step(p.exp, f, trim)[0]),
    "score": (lambda p, f, trim: estimate_score(p.obs, f, p.q, trim),
              lambda p, f, trim: _score_step(p.obs, f, p.q, trim)[0]),
    "linear": (lambda p, f, trim: estimate_linear_shortcut(p.exp, f, trim),
               lambda p, f, trim: _linear_step(p.exp, f, trim)[0]),
    "match": (lambda p, f, trim: _match(p), lambda p, f, trim: _match(p).tau_hat),
}
_METHODS = (*_METHOD_TABLE, "all")
# every study by its own name, plus two short spellings
_STUDY_ALIASES = {**{name: name for name in STUDIES}, "misspec": "misspecification", "samplesize": "sample_size"}


def _add_fit_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--ridge", type=float, default=0.0, help="ridge penalty for every nuisance fit")
    parser.add_argument("--trim", type=float, default=DEFAULT_TRIM,
                        help="clamp fitted scores to [eps, 1-eps]; 0 disables")
    parser.add_argument("--constant-t", action="store_true", help="fix the sampling score at q instead of fitting it")
    parser.add_argument("--interactions", action="store_true", help="add surrogate-by-covariate interaction columns")


def _options(args) -> NuisanceOptions:
    """``--ridge`` for all four fits, ``--constant-t`` and ``--interactions``."""
    ridges = dict.fromkeys(("ridge_propensity", "ridge_surrogate_score", "ridge_sampling_score", "ridge_index"),
                           args.ridge)
    return NuisanceOptions(**ridges, constant_sampling_score=args.constant_t, interactions=args.interactions)


def _emit(payload: dict, out: str | None) -> None:
    """``payload`` as sorted-key JSON on ``out`` or stdout; a number that is not finite raises before any write."""
    text = _strict_json(payload)
    if out is None:
        sys.stdout.write(text + "\n")
    else:
        with _open_output(out) as fh:
            fh.write(text + "\n")


def _trim_value(args) -> float | None:
    """``--trim`` as the estimators take it; ``--ridge`` and ``--trim`` are checked first, before any input is read."""
    _check_ridge(args.ridge)
    if not 0.0 <= args.trim < 0.5:
        raise ConfigurationError(f"--trim must lie in [0, 0.5), got {args.trim}")
    return None if args.trim == 0.0 else args.trim


def run_estimate(args) -> int:
    if args.bootstrap < 0 or args.bootstrap == 1:
        raise ConfigurationError(f"--bootstrap must be 0 or at least 2, got {args.bootstrap}")
    if args.seed < 0:
        raise ConfigurationError(f"--seed must be non-negative, got {args.seed}")
    trim = _trim_value(args)
    if args.method != "all":
        methods = (args.method,)
    else:
        methods = tuple(m for m in _METHOD_TABLE if not (args.interactions and m == "linear"))
    pooled = pool(load_experimental(args.exp), load_observational(args.obs))
    options = _options(args)
    needs_fits = methods != ("match",)
    fits = fit_all(pooled, options) if needs_fits else None
    reports = [_METHOD_TABLE[m][0](pooled, fits, trim) for m in methods]

    if args.bootstrap > 0:

        def replicate(e, o):
            # one pool and one fit_all per resample serve every method; when
            # the fit fails, only the methods that read it lose the replicate
            p = pool(e, o)
            f = _attempt(fit_all, p, options) if needs_fits else None
            return tuple(_attempt(_METHOD_TABLE[m][1], p, f, trim) if m == "match" or f is not None else None
                         for m in methods)

        ses = bootstrap_se(replicate, (pooled.exp, pooled.obs), reps=args.bootstrap, seed=args.seed)
        reports = [replace(r, se_bootstrap=se) for r, se in zip(reports, ses)]
    payload = {r.method: asdict(r) for r in reports}
    if len(payload) == 1:
        payload = next(iter(payload.values()))
    _emit(payload, args.out)
    return 0


def run_diagnose(args) -> int:
    trim = _trim_value(args)
    pooled, options = pool(load_experimental(args.exp), load_observational(args.obs)), _options(args)
    # the bound reads only e and r, so the sampling score and the index are not fitted
    fits = NuisanceFits(*_fit_scores(pooled, options), t_model=None, h_model=None, options=options)
    bound = bias_bound(pooled.exp, fits, delta_s=args.delta_s, delta_c=args.delta_c, trim=trim)
    _emit(asdict(bound), args.out)
    return 0


def run_bounds(args) -> int:
    _check_ridge(args.ridge)
    if args.single is not None:
        sample = load_single(args.single)
        mode = args.variance_mode.replace("-", "_")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            bounds = efficiency_bounds_single_sample(sample, variance_mode=mode, ridge=args.ridge)
    else:
        if args.exp is None or args.obs is None:
            raise ConfigurationError("two-sample bounds need both --exp and --obs (or use --single)")
        pooled = pool(load_experimental(args.exp), load_observational(args.obs))
        if pooled.exp.n_covariates != 0:
            raise ConfigurationError(
                "the two-sample efficiency bound is defined only without covariate columns"
            )
        options = NuisanceOptions(
            ridge_surrogate_score=args.ridge, ridge_index=args.ridge, constant_sampling_score=True
        )
        fits = fit_all(pooled, options)
        bounds = efficiency_bound_two_sample(pooled, fits)
    _emit(asdict(bounds), args.out)
    if bounds.per_stratum_fallback:  # after the output, so that a result that is not finite leaves one error line
        sys.stderr.write(f"warning: {_PER_STRATUM_FALLBACK}\n")
    return 0


def run_simulate(args) -> int:
    study = _STUDY_ALIASES[args.study]
    grid = None
    if args.grid is not None:
        _, cast, _ = STUDIES[study]
        try:
            grid = [cast(g) for g in args.grid.split(",") if g]
        except ValueError:
            raise ConfigurationError(
                f"--grid values for the {study} study must be of type {cast.__name__}, got {args.grid!r}"
            ) from None
    run_study(study, reps=args.reps, seed=args.seed, out_path=args.out, grid=grid)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by later ones (parsing leaves it unchanged)."""
    parser = argparse.ArgumentParser(
        prog="surrogate-ate",
        description="Estimate long-term treatment effects from short-term surrogate outcomes.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_est = sub.add_parser("estimate", help="two-sample treatment effect estimates")
    p_est.add_argument("--exp", required=True, help="experimental CSV (w, s1..sM[, x1..xK])")
    p_est.add_argument("--obs", required=True, help="observational CSV (y, s1..sM[, x1..xK])")
    p_est.add_argument("--method", choices=_METHODS, default="all")
    _add_fit_flags(p_est)
    p_est.add_argument("--bootstrap", type=int, default=0, help="bootstrap replicates for a standard error")
    p_est.add_argument("--seed", type=int, default=0)
    p_est.add_argument("--out", default=None, help="output JSON path (default: stdout)")
    p_est.set_defaults(func=run_estimate)

    p_diag = sub.add_parser("diagnose", help="bias bound under declared violation caps")
    p_diag.add_argument("--exp", required=True)
    p_diag.add_argument("--obs", required=True)
    p_diag.add_argument("--delta-s", type=float, required=True, dest="delta_s",
                        help="cap on the treatment effect on outcomes given surrogates")
    p_diag.add_argument("--delta-c", type=float, required=True, dest="delta_c",
                        help="cap on the difference between the two samples' indices")
    _add_fit_flags(p_diag)
    p_diag.add_argument("--out", default=None)
    p_diag.set_defaults(func=run_diagnose)

    p_bounds = sub.add_parser("bounds", help="efficiency bounds")
    p_bounds.add_argument("--single", default=None, help="single-sample CSV (w, y, s1..sM[, x1..xK])")
    p_bounds.add_argument("--exp", default=None)
    p_bounds.add_argument("--obs", default=None)
    p_bounds.add_argument("--variance-mode", choices=("homoskedastic", "per-stratum"),
                          default="homoskedastic", dest="variance_mode")
    p_bounds.add_argument("--ridge", type=float, default=0.0)
    p_bounds.add_argument("--out", default=None)
    p_bounds.set_defaults(func=run_bounds)

    p_sim = sub.add_parser("simulate", help="Monte Carlo study tables")
    p_sim.add_argument("--study", choices=sorted(_STUDY_ALIASES), required=True)
    p_sim.add_argument("--reps", type=int, required=True)
    p_sim.add_argument("--seed", type=int, required=True)
    p_sim.add_argument("--out", required=True, help="output CSV path; a .manifest.json is written alongside")
    p_sim.add_argument("--grid", default=None, help="comma-separated grid values overriding the default sweep")
    p_sim.set_defaults(func=run_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # an --out that cannot be written fails before any input is read or any work runs
        if args.out is not None:
            _check_output(args.out)
        worker_count()  # so does a SURROGATE_THREADS that is not a worker count, for every command
        # overflow shows as a typed error (a result that is not finite), never as a numpy warning;
        # forked workers inherit the state
        with np.errstate(all="ignore"):
            return args.func(args)
    except SurrogateError as err:
        sys.stderr.write(f"error: {type(err).__name__}: {err}\n")
        return 2 if isinstance(err, ConfigurationError) else 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
