"""Command line interface.

Subcommands
-----------
estimate
    Point estimates (and optional bootstrap standard errors) from an
    experimental and an observational CSV file.
diagnose
    Bias bound for user-declared caps on the surrogacy and comparability
    violations.
bounds
    Efficiency bounds: single-sample variance bounds with and without
    surrogacy, or the two-sample bound (no covariates, constant sampling
    score).
simulate
    Monte Carlo study tables as CSV plus a JSON manifest.

``estimate --method all`` with ``--interactions`` leaves out the linear
shortcut, which needs an index without interaction terms.

Exit codes: 0 success, 2 invalid input or configuration (including a
``--trim`` outside [0, 0.5) and a ``--bootstrap`` other than 0 or at least
2, both rejected before any file is read, and a ``--grid`` value of the
wrong type), 3 estimation failure (overlap, degenerate arm, separation,
...).  Errors are written as
a single machine-parseable line on stderr.  The ``SURROGATE_THREADS``
environment variable caps worker parallelism; output is byte-identical for
any value.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from ._version import __version__
from .data import load_experimental, load_observational, load_single, pool
from .diagnostics import bias_bound, efficiency_bound_two_sample, efficiency_bounds_single_sample
from .errors import ConfigurationError, SurrogateError
from .estimators import (
    bootstrap_se,
    estimate_index,
    estimate_linear_shortcut,
    estimate_matching,
    estimate_score,
)
from .nuisance import NuisanceOptions, fit_all
from .simulation import GRID_PARAMETERS, run_study

_METHODS = ("index", "score", "linear", "match", "all")
_STUDY_ALIASES = {
    "dimension": "dimension",
    "misspec": "misspecification",
    "misspecification": "misspecification",
    "samplesize": "sample_size",
    "sample_size": "sample_size",
    "explanatory": "explanatory",
}


def _add_fit_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--ridge", type=float, default=0.0, help="ridge penalty for every nuisance fit")
    parser.add_argument("--trim", type=float, default=1e-6, help="clamp fitted scores to [eps, 1-eps]; 0 disables")
    parser.add_argument("--constant-t", action="store_true", help="fix the sampling score at q instead of fitting it")
    parser.add_argument("--interactions", action="store_true", help="add surrogate-by-covariate interaction columns")


def _options(args) -> NuisanceOptions:
    return NuisanceOptions(
        ridge_propensity=args.ridge,
        ridge_surrogate_score=args.ridge,
        ridge_sampling_score=args.ridge,
        ridge_index=args.ridge,
        constant_sampling_score=args.constant_t,
        interactions=args.interactions,
    )


def _emit(payload: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(payload + "\n")
    else:
        Path(out).parent.mkdir(parents=True, exist_ok=True)
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")


def _trim_value(args) -> float | None:
    if not 0.0 <= args.trim < 0.5:
        raise ConfigurationError(f"--trim must lie in [0, 0.5), got {args.trim}")
    return None if args.trim == 0.0 else args.trim


def run_estimate(args) -> int:
    if args.bootstrap < 0 or args.bootstrap == 1:
        raise ConfigurationError(f"--bootstrap must be 0 or at least 2, got {args.bootstrap}")
    trim = _trim_value(args)
    if args.method != "all":
        methods = (args.method,)
    elif args.interactions:
        methods = ("index", "score", "match")
    else:
        methods = ("index", "score", "linear", "match")
    exp = load_experimental(args.exp)
    obs = load_observational(args.obs)
    pooled = pool(exp, obs)
    options = _options(args)
    needs_fits = any(m in ("index", "score", "linear") for m in methods)
    fits = fit_all(pooled, options) if needs_fits else None

    def compute(method, e, o, f):
        if method == "index":
            return estimate_index(e, f, trim)
        if method == "score":
            return estimate_score(o, f, pool(e, o).q, trim)
        if method == "linear":
            return estimate_linear_shortcut(e, f, trim)
        return estimate_matching(e, o)

    reports = {}
    for method in methods:
        report = compute(method, exp, obs, fits)
        if args.bootstrap > 0:

            def closure(e, o, _method=method):
                f = fit_all(pool(e, o), options) if _method in ("index", "score", "linear") else None
                return compute(_method, e, o, f).tau_hat

            se = bootstrap_se(closure, (exp, obs), reps=args.bootstrap, seed=args.seed)
            report = replace(report, se_bootstrap=se)
        reports[report.method] = json.loads(report.to_json())

    if len(reports) == 1:
        payload = json.dumps(next(iter(reports.values())), sort_keys=True)
    else:
        payload = json.dumps(reports, sort_keys=True)
    _emit(payload, args.out)
    return 0


def run_diagnose(args) -> int:
    trim = _trim_value(args)
    exp = load_experimental(args.exp)
    obs = load_observational(args.obs)
    fits = fit_all(pool(exp, obs), _options(args))
    bound = bias_bound(exp, fits, delta_s=args.delta_s, delta_c=args.delta_c, trim=trim)
    _emit(bound.to_json(), args.out)
    return 0


def run_bounds(args) -> int:
    if args.single is not None:
        sample = load_single(args.single)
        mode = args.variance_mode.replace("-", "_")
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
    _emit(bounds.to_json(), args.out)
    return 0


def run_simulate(args) -> int:
    if args.reps < 1:
        raise ConfigurationError("--reps must be at least 1")
    study = _STUDY_ALIASES[args.study]
    grid = None
    if args.grid:
        _, cast = GRID_PARAMETERS[study]
        try:
            grid = [cast(g) for g in args.grid.split(",") if g]
        except ValueError:
            raise ConfigurationError(
                f"--grid values for the {study} study must be of type {cast.__name__}, got {args.grid!r}"
            ) from None
    run_study(study, reps=args.reps, seed=args.seed, out_path=args.out, grid=grid)
    return 0


def build_parser() -> argparse.ArgumentParser:
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
        return args.func(args)
    except ConfigurationError as err:
        sys.stderr.write(f"error: {type(err).__name__}: {err}\n")
        return 2
    except SurrogateError as err:
        sys.stderr.write(f"error: {type(err).__name__}: {err}\n")
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
