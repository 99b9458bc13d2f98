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
    Monte Carlo study tables as CSV plus a JSON manifest; ``--study`` takes
    a name from ``simulation.STUDIES`` or the short ``misspec``/``samplesize``.

``estimate --method all`` with ``--interactions`` leaves out the linear
shortcut, which needs an index without interaction terms.  With
``--bootstrap B``, ``--method all`` bootstraps every method on the same B
resamples, with one ``fit_all`` per resample shared by the index, score and
linear-shortcut estimates; a resample whose fit fails is dropped for those
three methods only, and one on which a method fails for that method only.

Exit codes: 0 success, 2 invalid input or configuration (including a
``--trim`` outside [0, 0.5), a ``--bootstrap`` other than 0 or at least 2
and a negative ``--seed``, all rejected before any file is read, a
``--ridge`` or ``--delta-*`` that is negative or not finite, an empty
``--grid`` or one with a value of the wrong type, an ``--out`` that names a
directory, lies under a regular file or runs into a symbolic-link loop once
``..`` and symbolic links are resolved (``nope/..`` included), checked
before any file is read, an input CSV that is not a readable UTF-8 file,
and a ``--reps`` or ``--bootstrap`` whose result slots alone exceed the
memory free on the machine, refused before any replicate runs), 3 estimation failure
(overlap, degenerate arm, separation, ...) or a lost worker process (a
``WorkerError``: a worker that died, as under the out-of-memory killer, or
a result it could not pickle).  Errors are written as
a single machine-parseable line on stderr; so is the ``warning:`` line of
``bounds --variance-mode per-stratum`` when a stratum holds a single
observation.  Bootstrap replicates and study replications run in worker
processes; the ``SURROGATE_THREADS`` environment variable sets how many
(default: the CPUs available to the process), capped by the work items and
those CPUs.  Where the ``fork`` start method is unavailable they run
serially.  Importing the package sets OpenBLAS to one thread for the whole
process, workers included, so output is byte-identical for any value and
any CPU count.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import warnings
from dataclasses import replace

from ._version import __version__
from .data import _check_output, _open_output, load_experimental, load_observational, load_single, pool
from .diagnostics import (
    _PER_STRATUM_FALLBACK,
    bias_bound,
    efficiency_bound_two_sample,
    efficiency_bounds_single_sample,
)
from .errors import ConfigurationError, SurrogateError
from .estimators import (DEFAULT_TRIM, _index_tau, _linear_tau, _match, _score_tau, bootstrap_se, estimate_index,
                         estimate_linear_shortcut, estimate_score)
from .nuisance import NuisanceOptions, fit_all
from .simulation import STUDIES, run_study

_METHODS = ("index", "score", "linear", "match", "all")
_FITTED = ("index", "score", "linear")  # the methods that read the nuisance fits
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


def _emit(payload: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(payload + "\n")
    else:
        with _open_output(out) as fh:
            fh.write(payload + "\n")


def _trim_value(args) -> float | None:
    if not 0.0 <= args.trim < 0.5:
        raise ConfigurationError(f"--trim must lie in [0, 0.5), got {args.trim}")
    return None if args.trim == 0.0 else args.trim


def _estimate(method, pooled, fits, trim):
    if method == "index":
        return estimate_index(pooled.exp, fits, trim)
    if method == "score":
        return estimate_score(pooled.obs, fits, pooled.q, trim)
    if method == "linear":
        return estimate_linear_shortcut(pooled.exp, fits, trim)
    # matching reads the standardized designs that fit_all built on the same pooled dataset
    return _match(pooled)


def _replicate_tau(method, pooled, fits, trim) -> float:
    """One method's estimate on a bootstrap resample: the estimators' tau-only cores, on ``pooled``'s ``[s | x]`` rows."""
    n_exp = pooled.exp.n
    if method == "index":
        return _index_tau(pooled.exp, fits, trim, pooled.sx[:n_exp])
    if method == "score":
        return _score_tau(pooled.obs, fits, pooled.q, trim, pooled.sx[n_exp:])
    if method == "linear":
        return _linear_tau(pooled.exp, fits, trim)
    return _match(pooled).tau_hat


def run_estimate(args) -> int:
    if args.bootstrap < 0 or args.bootstrap == 1:
        raise ConfigurationError(f"--bootstrap must be 0 or at least 2, got {args.bootstrap}")
    if args.seed < 0:
        raise ConfigurationError(f"--seed must be non-negative, got {args.seed}")
    trim = _trim_value(args)
    if args.method != "all":
        methods = (args.method,)
    elif args.interactions:
        methods = ("index", "score", "match")
    else:
        methods = ("index", "score", "linear", "match")
    pooled = pool(load_experimental(args.exp), load_observational(args.obs))
    options = _options(args)
    needs_fits = any(m in _FITTED for m in methods)
    fits = fit_all(pooled, options) if needs_fits else None
    reports = [_estimate(m, pooled, fits, trim) for m in methods]

    if args.bootstrap > 0:

        def replicate(e, o):
            # one pool and one fit_all per resample serve every method; when
            # the fit fails, only the methods that read it lose the replicate
            p, f = pool(e, o), None
            if needs_fits:
                try:
                    f = fit_all(p, options)
                except SurrogateError:
                    pass
            taus = []
            for method in methods:
                tau = None
                if method not in _FITTED or f is not None:
                    try:
                        tau = _replicate_tau(method, p, f, trim)
                    except SurrogateError:
                        pass
                taus.append(tau)
            return tuple(taus)

        ses = bootstrap_se(replicate, (pooled.exp, pooled.obs), reps=args.bootstrap, seed=args.seed)
        reports = [replace(r, se_bootstrap=se) for r, se in zip(reports, ses)]
    payload = {r.method: json.loads(r.to_json()) for r in reports}
    if len(payload) == 1:
        payload = next(iter(payload.values()))
    _emit(json.dumps(payload, sort_keys=True), args.out)
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
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            bounds = efficiency_bounds_single_sample(sample, variance_mode=mode, ridge=args.ridge)
        if bounds.per_stratum_fallback:
            sys.stderr.write(f"warning: {_PER_STRATUM_FALLBACK}\n")
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
