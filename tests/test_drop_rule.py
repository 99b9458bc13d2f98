"""Only a package error drops a replicate.

A Monte Carlo replication, a bootstrap replicate and the CLI's
per-resample fit follow one rule (``estimators._attempt``): a
:class:`SurrogateError` drops the replicate, which is counted and never
imputed, and any other exception reaches the caller with its type.  Each
case runs serially and in two forked workers.
"""

import numpy as np
import pytest

from surrogate_ate import (
    SeparationError,
    UnstableBootstrapError,
    bootstrap_se,
    draw_dataset,
    make_spec,
    nuisance,
    run_monte_carlo,
    write_experimental,
    write_observational,
)
from surrogate_ate import cli
from surrogate_ate.parallel import seed_sequence

THREADS = pytest.mark.parametrize("threads", ["1", "2"])


@THREADS
def test_a_replication_drops_a_package_error_and_raises_any_other(monkeypatch, threads):
    monkeypatch.setenv("SURROGATE_THREADS", threads)
    spec = make_spec("sample_size", seed=0, q=0.25)  # 250 experimental and 750 observational rows
    reps, real = 8, nuisance.fit_logistic

    def failing(error):
        def fit_logistic(features, labels, *args, **kwargs):
            # the index fit, on the observational rows, fails where the first outcome is 1
            if len(labels) == spec.n_obs and labels[0] == 1.0:
                raise error("injected")
            return real(features, labels, *args, **kwargs)

        return fit_logistic

    expected = sum(draw_dataset(spec, seed_sequence(0, 2, 0, k))[1].y[0] == 1.0 for k in range(reps))
    assert 0 < expected < reps
    monkeypatch.setattr(nuisance, "fit_logistic", failing(SeparationError))
    result = run_monte_carlo(spec, reps, 0)
    assert (result.score.failures, result.index.failures) == (0, expected)
    monkeypatch.setattr(nuisance, "fit_logistic", failing(RuntimeError))
    with pytest.raises(RuntimeError, match="injected"):
        run_monte_carlo(spec, reps, 0)


@THREADS
def test_a_bootstrap_replicate_drops_a_package_error_and_raises_any_other(monkeypatch, threads, small_exp):
    monkeypatch.setenv("SURROGATE_THREADS", threads)

    def lost(exp):  # about half the resamples
        return exp.s[0, 0] > 0.4

    def raising(error):
        def estimator(exp):
            if lost(exp):
                raise error("injected")
            return float(exp.s.mean())

        return estimator

    # a replicate whose estimator raises a package error is dropped as a None entry is
    dropped = bootstrap_se(lambda exp: (None if lost(exp) else float(exp.s.mean()),), [small_exp], 40, seed=3,
                           max_failure_rate=1.0)
    assert bootstrap_se(raising(SeparationError), [small_exp], 40, seed=3, max_failure_rate=1.0) == dropped[0]
    with pytest.raises(UnstableBootstrapError) as info:
        bootstrap_se(raising(SeparationError), [small_exp], 40, seed=3)
    assert 8 < info.value.failures < 40 and info.value.reps == 40
    with pytest.raises(RuntimeError, match="injected"):
        bootstrap_se(raising(RuntimeError), [small_exp], 40, seed=3, max_failure_rate=1.0)


@THREADS
@pytest.mark.parametrize("error", [SeparationError, RuntimeError])
def test_the_cli_drops_a_resample_whose_fit_raises_a_package_error(monkeypatch, tmp_path, capsys, threads, error):
    monkeypatch.setenv("SURROGATE_THREADS", threads)
    spec = make_spec("dimension", seed=17, m=2)
    small = type(spec)(study="dimension", m_surrogates=2, n_exp=60, n_obs=80, alpha=spec.alpha, gamma=spec.gamma)
    exp, obs = draw_dataset(small, np.random.SeedSequence((17, 2, 0, 0)))
    pe, po = tmp_path / "e.csv", tmp_path / "o.csv"
    write_experimental(exp, pe)
    write_observational(obs, po)
    real, fitted = cli.fit_all, []

    def fit_all(pooled, options=None):
        if fitted:  # every resample's fit, after the full sample's
            raise error("injected")
        fitted.append(pooled)
        return real(pooled, options)

    monkeypatch.setattr(cli, "fit_all", fit_all)
    argv = ["estimate", "--exp", str(pe), "--obs", str(po), "--method", "index", "--bootstrap", "5"]
    if error is RuntimeError:
        with pytest.raises(RuntimeError, match="injected"):
            cli.main(argv)
        return
    assert cli.main(argv) == 3
    assert capsys.readouterr().err == "error: UnstableBootstrapError: 5 of 5 bootstrap replicates failed\n"
