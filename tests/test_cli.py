import itertools
import json
import subprocess
import sys
from dataclasses import asdict

import numpy as np
import pytest

from surrogate_ate import (
    EstimationError,
    ExperimentalSample,
    NuisanceOptions,
    ObservationalSample,
    SeparationError,
    SingleSample,
    bias_bound,
    bootstrap_se,
    draw_dataset,
    efficiency_bounds_single_sample,
    estimate_index,
    estimate_linear_shortcut,
    estimate_matching,
    estimate_score,
    fit_all,
    load_experimental,
    load_observational,
    load_single,
    make_spec,
    pool,
    write_experimental,
    write_observational,
    write_single,
)
from surrogate_ate import cli
from surrogate_ate.cli import main


@pytest.fixture
def fixture_files(tmp_path):
    spec = make_spec("dimension", seed=17, m=2)
    small = type(spec)(study="dimension", m_surrogates=2, n_exp=60, n_obs=80,
                       alpha=spec.alpha, gamma=spec.gamma, seed=17)
    exp, obs = draw_dataset(small, np.random.SeedSequence((17, 2, 0, 0)))
    pe, po = tmp_path / "e.csv", tmp_path / "o.csv"
    write_experimental(exp, pe)
    write_observational(obs, po)
    return pe, po


@pytest.fixture
def covariate_files(tmp_path):
    rng = np.random.default_rng(11)
    exp = ExperimentalSample(
        w=(rng.random(300) < 0.5).astype(float), s=rng.normal(size=(300, 2)), x=rng.normal(size=(300, 2))
    )
    obs = ObservationalSample(
        y=rng.normal(size=400), s=rng.normal(size=(400, 2)), x=rng.normal(size=(400, 2))
    )
    pe, po = tmp_path / "ce.csv", tmp_path / "co.csv"
    write_experimental(exp, pe)
    write_observational(obs, po)
    return pe, po


def _run(argv):
    return main([str(a) for a in argv])


def test_estimate_all_matches_library(fixture_files, tmp_path, capsys):
    pe, po = fixture_files
    out = tmp_path / "report.json"
    code = _run(["estimate", "--exp", pe, "--obs", po, "--method", "all", "--out", out])
    assert code == 0
    payload = json.loads(out.read_text())
    assert set(payload) == {"index", "score", "linear_shortcut", "matching"}

    exp = load_experimental(pe)
    obs = load_observational(po)
    pooled = pool(exp, obs)
    fits = fit_all(pooled, NuisanceOptions())
    assert payload["index"]["tau_hat"] == estimate_index(exp, fits).tau_hat
    assert payload["score"]["tau_hat"] == estimate_score(obs, fits, pooled.q).tau_hat
    assert payload["matching"]["tau_hat"] == estimate_matching(exp, obs).tau_hat
    assert payload["linear_shortcut"]["tau_hat"] == estimate_linear_shortcut(exp, fits).tau_hat

    # single-method output is byte-identical to the library serialization
    single_out = tmp_path / "single.json"
    assert _run(["estimate", "--exp", pe, "--obs", po, "--method", "index", "--out", single_out]) == 0
    assert single_out.read_text().rstrip("\n") == estimate_index(exp, fits).to_json()


def test_estimate_all_with_interactions_leaves_out_linear(covariate_files, tmp_path, capsys):
    pe, po = covariate_files
    out = tmp_path / "report.json"
    code = _run(["estimate", "--exp", pe, "--obs", po, "--method", "all", "--interactions", "--out", out])
    assert code == 0
    payload = json.loads(out.read_text())
    assert set(payload) == {"index", "score", "matching"}

    exp = load_experimental(pe)
    obs = load_observational(po)
    pooled = pool(exp, obs)
    fits = fit_all(pooled, NuisanceOptions(interactions=True))
    assert payload["index"]["tau_hat"] == estimate_index(exp, fits).tau_hat
    assert payload["score"]["tau_hat"] == estimate_score(obs, fits, pooled.q).tau_hat
    assert payload["matching"]["tau_hat"] == estimate_matching(exp, obs).tau_hat

    # asked for by name, the shortcut still refuses an index with interactions
    linear_out = tmp_path / "linear.json"
    code = _run(["estimate", "--exp", pe, "--obs", po, "--method", "linear", "--interactions",
                 "--out", linear_out])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: UnsupportedConfigurationError:")
    assert not linear_out.exists()


def test_estimate_missing_obs_is_usage_error(fixture_files, capsys):
    pe, _ = fixture_files
    with pytest.raises(SystemExit) as exc:
        _run(["estimate", "--exp", pe, "--method", "score"])
    assert exc.value.code == 2


def test_estimate_bootstrap_deterministic_bytes(fixture_files, tmp_path):
    pe, po = fixture_files
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for out in (out1, out2):
        code = _run(["estimate", "--exp", pe, "--obs", po, "--method", "index",
                     "--bootstrap", "50", "--seed", "7", "--out", out])
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    payload = json.loads(out1.read_text())
    assert payload["se_bootstrap"] > 0


def test_estimate_error_paths_exit_3(tmp_path, capsys):
    # separated experimental sample at ridge 0 -> estimation failure
    pe = tmp_path / "e.csv"
    pe.write_text("w,s1\n0,-2.0\n0,-1.0\n1,1.0\n1,2.0\n", encoding="utf-8")
    po = tmp_path / "o.csv"
    po.write_text("y,s1\n0.5,0.1\n0.2,-0.3\n0.9,0.7\n", encoding="utf-8")
    code = _run(["estimate", "--exp", pe, "--obs", po, "--method", "score"])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: SeparationError:")
    assert err.count("\n") == 1


def test_estimate_bad_file_exits_2(tmp_path, capsys):
    pe = tmp_path / "e.csv"
    pe.write_text("w,s1\n2,0.0\n1,1.0\n", encoding="utf-8")
    po = tmp_path / "o.csv"
    po.write_text("y,s1\n0.5,0.1\n", encoding="utf-8")
    code = _run(["estimate", "--exp", pe, "--obs", po, "--method", "match"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ValidationError:")


def test_estimate_duplicate_header_exits_2(fixture_files, tmp_path, capsys):
    _, po = fixture_files
    pe = tmp_path / "dup.csv"
    pe.write_text("w,s1,s1\n0,0.1,9.0\n1,0.2,8.0\n0,0.3,7.0\n1,0.4,6.0\n", encoding="utf-8")
    code = _run(["estimate", "--exp", pe, "--obs", po, "--method", "match"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: SchemaError:")


@pytest.mark.parametrize("flags", [["--bootstrap", "-1"], ["--trim", "0.7"], ["--trim", "-0.1"]])
def test_estimate_bad_bootstrap_or_trim_exits_2(fixture_files, tmp_path, capsys, flags):
    pe, po = fixture_files
    out = tmp_path / "r.json"
    code = _run(["estimate", "--exp", pe, "--obs", po, "--method", "index", *flags, "--out", out])
    assert code == 2
    assert capsys.readouterr().err.startswith(("error: ConfigurationError:", "error: ValidationError:"))
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["estimate", "--method", "match", "--trim", "0.7"],
    ["estimate", "--method", "all", "--trim", "-0.1"],
    ["estimate", "--method", "index", "--bootstrap", "1"],
    ["diagnose", "--delta-s", "1", "--delta-c", "1", "--trim", "0.5"],
])
def test_bad_trim_or_bootstrap_rejected_before_loading_or_fitting(
    fixture_files, tmp_path, capsys, monkeypatch, argv
):
    def reached(*args, **kwargs):
        raise AssertionError("flags must be checked before any file is loaded or model fit")

    for name in ("load_experimental", "load_observational", "fit_all"):
        monkeypatch.setattr(cli, name, reached)
    pe, po = fixture_files
    out = tmp_path / "r.json"
    code = _run([*argv, "--exp", pe, "--obs", po, "--out", out])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ConfigurationError:")
    assert not out.exists()


_COMMANDS_WITH_OUT = {
    "estimate": lambda pe, po: ["estimate", "--exp", pe, "--obs", po, "--method", "index"],
    "diagnose": lambda pe, po: ["diagnose", "--exp", pe, "--obs", po, "--delta-s", "1", "--delta-c", "1"],
    "bounds": lambda pe, po: ["bounds", "--exp", pe, "--obs", po],
    "simulate": lambda pe, po: ["simulate", "--study", "samplesize", "--reps", "2", "--seed", "0", "--grid", "0.5"],
}


@pytest.mark.parametrize("target", ["directory", "under_a_file"])
@pytest.mark.parametrize("command", sorted(_COMMANDS_WITH_OUT))
def test_unwritable_out_exits_2_before_any_work(fixture_files, tmp_path, capsys, monkeypatch, command, target):
    def reached(*args, **kwargs):
        raise AssertionError("--out must be checked before any file is loaded or any work runs")

    for name in ("load_experimental", "load_observational", "load_single", "fit_all", "run_study"):
        monkeypatch.setattr(cli, name, reached)
    if target == "directory":
        out = tmp_path / "taken"
        out.mkdir()
    else:
        (tmp_path / "plain").write_text("", encoding="utf-8")
        out = tmp_path / "plain" / "r.json"
    assert _run([*_COMMANDS_WITH_OUT[command](*fixture_files), "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ConfigurationError: output path")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["estimate", "simulate"])
def test_dot_dot_out_exits_2_before_any_work(fixture_files, tmp_path, capsys, monkeypatch, command):
    def reached(*args, **kwargs):
        raise AssertionError("--out must be judged as the path it names before any work runs")

    for name in ("load_experimental", "load_observational", "fit_all", "run_study"):
        monkeypatch.setattr(cli, name, reached)
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    assert _run([*_COMMANDS_WITH_OUT[command](*fixture_files), "--out", "nope/.."]) == 2
    assert capsys.readouterr().err == "error: ConfigurationError: output path nope/.. is a directory\n"
    assert list(work.iterdir()) == []


def test_out_under_a_symbolic_link_loop_exits_2_before_any_replication(tmp_path, capsys, monkeypatch):
    from surrogate_ate import simulation

    def reached(*args, **kwargs):
        raise AssertionError("--out must be checked before any replication runs")

    monkeypatch.setattr(simulation, "run_monte_carlo", reached)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "loop").symlink_to("loop")
    argv = ["simulate", "--study", "samplesize", "--reps", "3", "--seed", "0", "--grid", "0.5", "--out", "loop/x.csv"]
    assert _run(argv) == 2
    assert capsys.readouterr().err == (
        "error: ConfigurationError: output path loop/x.csv runs into a symbolic-link loop\n"
    )


@pytest.mark.parametrize("spelling, study", [
    ("dimension", "dimension"),
    ("misspec", "misspecification"),
    ("misspecification", "misspecification"),
    ("samplesize", "sample_size"),
    ("sample_size", "sample_size"),
    ("explanatory", "explanatory"),
])
def test_every_study_spelling_names_a_study_in_the_table(spelling, study):
    from surrogate_ate import simulation

    args = cli.build_parser().parse_args(["simulate", "--study", spelling, "--reps", "1", "--seed", "0", "--out", "x"])
    assert cli._STUDY_ALIASES[args.study] == study
    assert study in simulation.STUDIES
    assert len(cli._STUDY_ALIASES) == 6


@pytest.mark.parametrize("case", ["directory", "not_utf8"])
def test_unreadable_input_csv_exits_2(fixture_files, tmp_path, capsys, case):
    pe, po = fixture_files
    if case == "directory":
        bad = tmp_path / "inputs"
        bad.mkdir()
    else:
        bad = tmp_path / "latin1.csv"
        bad.write_bytes(pe.read_bytes().replace(b"\n1,", b"\n1,\xff", 1))
    assert _run(["estimate", "--exp", bad, "--obs", po, "--method", "match"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: SchemaError:")
    assert err.count("\n") == 1


def test_diagnose_zero_deltas(fixture_files, tmp_path):
    pe, po = fixture_files
    out = tmp_path / "diag.json"
    code = _run(["diagnose", "--exp", pe, "--obs", po, "--delta-s", "0", "--delta-c", "0", "--out", out])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["total_bound"] == 0.0
    assert payload["surrogacy_multiplier"] > 0

    exp = load_experimental(pe)
    obs = load_observational(po)
    fits = fit_all(pool(exp, obs), NuisanceOptions())
    lib = bias_bound(exp, fits, 0.0, 0.0)
    assert payload["surrogacy_multiplier"] == lib.surrogacy_multiplier


def test_bounds_single_matches_library(tmp_path):
    rng = np.random.default_rng(3)
    from surrogate_ate import SingleSample

    sample = SingleSample(
        w=(rng.random(50) < 0.5).astype(float) if True else None,
        y=rng.normal(size=50),
        s=rng.normal(size=(50, 2)),
    )
    if sample.w.sum() in (0, 50):
        pytest.skip("degenerate draw")
    path = tmp_path / "ss.csv"
    write_single(sample, path)
    out = tmp_path / "bounds.json"
    code = _run(["bounds", "--single", path, "--out", out])
    assert code == 0
    payload = json.loads(out.read_text())
    lib = efficiency_bounds_single_sample(load_single(path))
    assert payload["v_no_surrogacy"] == lib.v_no_surrogacy
    assert payload["v_surrogacy"] == lib.v_surrogacy
    assert payload["gain"] == lib.gain


def test_bounds_two_sample_rejects_covariates(tmp_path, capsys):
    pe = tmp_path / "e.csv"
    pe.write_text("w,s1,x1\n0,0.1,1.0\n1,0.5,2.0\n0,0.3,1.5\n1,0.6,1.2\n", encoding="utf-8")
    po = tmp_path / "o.csv"
    po.write_text("y,s1,x1\n0.1,0.2,1.1\n0.5,0.4,1.8\n0.3,0.1,1.3\n0.9,0.8,0.9\n", encoding="utf-8")
    code = _run(["bounds", "--exp", pe, "--obs", po])
    assert code == 2
    assert "covariate" in capsys.readouterr().err


def test_bounds_needs_an_input(capsys):
    code = _run(["bounds"])
    assert code == 2


def test_simulate_writes_study(tmp_path):
    out = tmp_path / "t.csv"
    code = _run(["simulate", "--study", "samplesize", "--reps", "3", "--seed", "1",
                 "--out", out, "--grid", "0.25,0.5"])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 5  # header + 2 grid points x 2 estimators
    assert (tmp_path / "t.csv.manifest.json").exists()


def test_simulate_zero_reps_exits_2(tmp_path, capsys):
    code = _run(["simulate", "--study", "samplesize", "--reps", "0", "--seed", "1",
                 "--out", tmp_path / "x.csv"])
    assert code == 2


@pytest.mark.parametrize("study, grid", [
    ("samplesize", "abc"),
    ("dimension", "0.5"),
    ("explanatory", "1,x"),
])
def test_simulate_bad_grid_value_exits_2(tmp_path, capsys, study, grid):
    code = _run(["simulate", "--study", study, "--reps", "1", "--seed", "1",
                 "--out", tmp_path / "x.csv", "--grid", grid])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ConfigurationError:") and "--grid" in err
    assert not (tmp_path / "x.csv").exists()


def test_simulate_byte_identical_repeats(tmp_path):
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        code = _run(["simulate", "--study", "explanatory", "--reps", "3", "--seed", "5",
                     "--out", out, "--grid", "1,2"])
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_cli_entrypoint_subprocess(fixture_files):
    pe, po = fixture_files
    proc = subprocess.run(
        [sys.executable, "-m", "surrogate_ate.cli", "estimate", "--exp", str(pe),
         "--obs", str(po), "--method", "index"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["method"] == "index"


@pytest.mark.parametrize("argv", [
    ["estimate", "--method", "index", "--bootstrap", "2", "--seed", "-1"],
    ["estimate", "--method", "match", "--seed", "-1"],
])
def test_negative_seed_rejected_before_loading(fixture_files, tmp_path, capsys, monkeypatch, argv):
    def reached(*args, **kwargs):
        raise AssertionError("the seed must be checked before any file is loaded or model fit")

    for name in ("load_experimental", "load_observational", "fit_all"):
        monkeypatch.setattr(cli, name, reached)
    pe, po = fixture_files
    out = tmp_path / "r.json"
    assert _run([*argv, "--exp", pe, "--obs", po, "--out", out]) == 2
    assert capsys.readouterr().err.startswith("error: ConfigurationError: --seed must be non-negative")
    assert not out.exists()


def test_simulate_negative_seed_exits_2(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert _run(["simulate", "--study", "samplesize", "--reps", "2", "--seed", "-1", "--out", out]) == 2
    assert capsys.readouterr().err.startswith("error: ConfigurationError: seed must be non-negative")
    assert not out.exists()


@pytest.mark.parametrize("grid", [",", ""])
def test_simulate_empty_grid_exits_2(tmp_path, capsys, grid):
    out = tmp_path / "x.csv"
    assert _run(["simulate", "--study", "dimension", "--reps", "2", "--seed", "1", "--grid", grid,
                 "--out", out]) == 2
    assert capsys.readouterr().err.startswith("error: ConfigurationError:")
    assert not out.exists()


@pytest.mark.parametrize("files, flags", [
    ("covariate_files", ["diagnose", "--delta-s", "nan", "--delta-c", "1"]),
    ("covariate_files", ["diagnose", "--delta-s", "1", "--delta-c", "inf"]),
    ("covariate_files", ["estimate", "--ridge", "nan"]),
    ("covariate_files", ["estimate", "--ridge", "inf"]),
    ("fixture_files", ["bounds", "--ridge", "nan"]),
])
def test_non_finite_delta_or_ridge_exits_2(request, tmp_path, capsys, files, flags):
    pe, po = request.getfixturevalue(files)
    out = tmp_path / "r.json"
    assert _run([*flags, "--exp", pe, "--obs", po, "--out", out]) == 2
    assert capsys.readouterr().err.startswith("error: ValidationError:")
    assert not out.exists()


def test_bounds_single_non_finite_ridge_exits_2(tmp_path, capsys):
    from surrogate_ate import SingleSample

    rng = np.random.default_rng(3)
    path = tmp_path / "single.csv"
    write_single(SingleSample(w=np.tile([0.0, 1.0], 50), y=rng.normal(size=100), s=rng.normal(size=(100, 2)),
                              x=rng.normal(size=(100, 1))), path)
    out = tmp_path / "b.json"
    assert _run(["bounds", "--single", path, "--ridge", "nan", "--out", out]) == 2
    assert "ridge penalty must be finite and non-negative" in capsys.readouterr().err
    assert not out.exists()


def _write_pair(tmp_path, x_exp, x_obs, seed=8):
    rng = np.random.default_rng(seed)
    n_exp, n_obs = len(x_exp), len(x_obs)
    exp = ExperimentalSample(w=np.tile([0.0, 1.0], n_exp // 2), s=rng.normal(size=(n_exp, 2)), x=x_exp)
    obs = ObservationalSample(y=rng.normal(size=n_obs), s=rng.normal(size=(n_obs, 2)), x=x_obs)
    pe, po = tmp_path / "pe.csv", tmp_path / "po.csv"
    write_experimental(exp, pe)
    write_observational(obs, po)
    return pe, po


@pytest.mark.parametrize("flags", [["--ridge", "0"], ["--ridge", "0.001"], ["--method", "match"]])
def test_covariate_too_large_to_standardize_exits_2(tmp_path, capsys, flags):
    rng = np.random.default_rng(9)
    x_exp = rng.normal(size=(60, 2)) * [1e307, 1.0]
    pe, po = _write_pair(tmp_path, x_exp, rng.normal(size=(70, 2)))
    out = tmp_path / "r.json"
    assert _run(["estimate", "--exp", pe, "--obs", po, *flags, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ValidationError:") and "too large in magnitude to standardize" in err
    assert err.count("\n") == 1
    assert not out.exists()


def test_duplicated_covariate_under_a_tiny_ridge_exits_3(tmp_path, capsys):
    rng = np.random.default_rng(10)
    x_exp, x_obs = rng.normal(size=(60, 1)), rng.normal(size=(70, 1))
    pe, po = _write_pair(tmp_path, np.hstack([x_exp, x_exp]), np.hstack([x_obs, x_obs]))
    assert _run(["estimate", "--exp", pe, "--obs", po, "--ridge", "1e-20"]) == 3
    assert capsys.readouterr().err.startswith("error: SingularDesignError: propensity score:")


def test_fit_that_does_not_converge_exits_3(fixture_files, tmp_path, monkeypatch, capsys):
    from functools import partial

    from surrogate_ate import nuisance

    monkeypatch.setattr(nuisance, "fit_logistic", partial(nuisance.fit_logistic, max_iter=1))
    pe, po = fixture_files
    out = tmp_path / "r.json"
    assert _run(["estimate", "--exp", pe, "--obs", po, "--method", "index", "--out", out]) == 3
    assert capsys.readouterr().err.startswith("error: ConvergenceError: surrogate score:")
    assert not out.exists()


@pytest.fixture
def thousand_row_files(tmp_path):
    rng = np.random.default_rng(23)
    n = 1000
    x_exp, x_obs = rng.normal(size=(n, 2)), rng.normal(size=(n, 2))
    w = (rng.random(n) < 0.5).astype(float)
    exp = ExperimentalSample(w=w, s=0.5 * w[:, None] + x_exp @ [[0.3, 0.1, 0.0], [0.0, 0.2, 0.4]]
                             + rng.normal(size=(n, 3)), x=x_exp)
    s_obs = x_obs @ [[0.3, 0.1, 0.0], [0.0, 0.2, 0.4]] + rng.normal(size=(n, 3))
    obs = ObservationalSample(y=s_obs @ [0.6, -0.3, 0.2] + 0.1 * x_obs[:, 0] + rng.normal(size=n),
                              s=s_obs, x=x_obs)
    pe, po = tmp_path / "te.csv", tmp_path / "to.csv"
    write_experimental(exp, pe)
    write_observational(obs, po)
    return pe, po


def _oracle_se(pe, po, reps, seed, make_fit=lambda: fit_all):
    """One bootstrap per method, each refitting on every resample: the shared bootstrap's oracle.

    Each method's bootstrap fits with its own ``make_fit()``.
    """
    exp, obs = load_experimental(pe), load_observational(po)
    options = NuisanceOptions()
    fitted = {
        "index": lambda e, o, f, q: estimate_index(e, f),
        "score": lambda e, o, f, q: estimate_score(o, f, q),
        "linear_shortcut": lambda e, o, f, q: estimate_linear_shortcut(e, f),
    }
    ses = {}
    for name, estimate in fitted.items():
        def closure(e, o, estimate=estimate, fit=make_fit()):
            p = pool(e, o)
            return estimate(e, o, fit(p, options), p.q).tau_hat

        ses[name] = bootstrap_se(closure, (exp, obs), reps=reps, seed=seed)
    ses["matching"] = bootstrap_se(lambda e, o: estimate_matching(e, o).tau_hat, (exp, obs), reps=reps, seed=seed)
    return ses


def _failing_fit_all(fail_on, first):
    """``fit_all`` that raises ``SeparationError`` on the calls numbered in ``fail_on``, counting from ``first``."""
    calls = itertools.count(first)

    def fake(pooled, options):
        if next(calls) in fail_on:
            raise SeparationError("chosen replicate")
        return fit_all(pooled, options)

    return fake


def _bootstrap_ses(pe, po, tmp_path, reps, seed):
    out = tmp_path / "shared.json"
    assert _run(["estimate", "--exp", pe, "--obs", po, "--method", "all", "--bootstrap", reps,
                 "--seed", seed, "--out", out]) == 0
    return {name: report["se_bootstrap"] for name, report in json.loads(out.read_text()).items()}


def test_shared_bootstrap_matches_one_bootstrap_per_method(thousand_row_files, tmp_path):
    pe, po = thousand_row_files
    assert _bootstrap_ses(pe, po, tmp_path, 20, 5) == _oracle_se(pe, po, 20, 5)


@pytest.mark.usefixtures("serial_maps")
def test_failed_fit_drops_the_replicate_for_fitted_methods_only(thousand_row_files, tmp_path, monkeypatch):
    pe, po = thousand_row_files
    fail_on = {2, 7}
    intact = _oracle_se(pe, po, 20, 5)
    # a fresh count per method's bootstrap, so its call k is replicate k
    oracle = _oracle_se(pe, po, 20, 5, make_fit=lambda: _failing_fit_all(fail_on, 0))
    # the command's first fit is the point estimate's, so replicate k is call k + 1
    monkeypatch.setattr(cli, "fit_all", _failing_fit_all(fail_on, -1))
    assert _bootstrap_ses(pe, po, tmp_path, 20, 5) == oracle
    assert oracle["matching"] == intact["matching"]
    assert all(oracle[name] != intact[name] for name in ("index", "score", "linear_shortcut"))


@pytest.mark.usefixtures("serial_maps")
def test_estimate_all_fits_once_per_resample(fixture_files, tmp_path, monkeypatch):
    calls = []

    def counted(pooled, options):
        calls.append(1)
        return fit_all(pooled, options)

    monkeypatch.setattr(cli, "fit_all", counted)
    pe, po = fixture_files
    assert _run(["estimate", "--exp", pe, "--obs", po, "--method", "all", "--bootstrap", "5",
                 "--out", tmp_path / "r.json"]) == 0
    assert len(calls) == 6


def test_shared_bootstrap_bytes_do_not_depend_on_threads(thousand_row_files, tmp_path, monkeypatch, process_pools):
    pe, po = thousand_row_files
    outputs = []
    for threads in ("1", "2"):
        monkeypatch.setenv("SURROGATE_THREADS", threads)
        out = tmp_path / f"t{threads}.json"
        assert _run(["estimate", "--exp", pe, "--obs", po, "--method", "all", "--bootstrap", "12",
                     "--seed", "3", "--out", out]) == 0
        outputs.append(out.read_bytes())
    assert process_pools == [2]
    assert outputs[0] == outputs[1]


def test_bounds_per_stratum_fallback_is_one_warning_line(tmp_path):
    from surrogate_ate import SingleSample

    path = tmp_path / "singletons.csv"
    write_single(SingleSample(w=[1, 0, 1, 0], y=[0.1, 0.2, 0.3, 0.4], s=[[0.0], [1.0], [2.0], [3.0]]), path)
    out = tmp_path / "b.json"
    proc = subprocess.run(
        [sys.executable, "-m", "surrogate_ate.cli", "bounds", "--single", str(path),
         "--variance-mode", "per-stratum", "--ridge", "1e-6", "--out", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stderr.startswith("warning: ") and proc.stderr.count("\n") == 1
    assert json.loads(out.read_text())["per_stratum_fallback"] is True


@pytest.fixture
def huge_outcome_files(tmp_path):
    # finite outcomes near 1e160, whose squares overflow in the variance terms
    rng = np.random.default_rng(5)
    w, s = np.tile([0.0, 1.0], 50), rng.normal(size=(100, 2))
    paths = {name: tmp_path / f"huge_{name}.csv" for name in ("single", "exp", "obs")}
    write_single(SingleSample(w=w, y=rng.normal(size=100) * 1e160, s=s), paths["single"])
    write_experimental(ExperimentalSample(w=w, s=s + 0.3 * w[:, None]), paths["exp"])
    write_observational(ObservationalSample(y=rng.normal(size=100) * 1e160, s=rng.normal(size=(100, 2))), paths["obs"])
    return paths


def _cli_process(argv):
    return subprocess.run([sys.executable, "-m", "surrogate_ate.cli", *map(str, argv)], capture_output=True, text=True)


@pytest.mark.parametrize("case", ["bounds_single", "bounds_per_stratum", "bounds_two_sample", "diagnose_caps",
                                  "estimate_bootstrap"])
def test_a_result_that_is_not_finite_is_one_error_line_and_no_file(huge_outcome_files, fixture_files, tmp_path, case):
    single, pe, po = huge_outcome_files["single"], huge_outcome_files["exp"], huge_outcome_files["obs"]
    argv = {
        "bounds_single": ["bounds", "--single", single],
        # every stratum holds one row: the fallback warning is not written when the result fails
        "bounds_per_stratum": ["bounds", "--single", single, "--variance-mode", "per-stratum"],
        "bounds_two_sample": ["bounds", "--exp", pe, "--obs", po],
        "diagnose_caps": ["diagnose", "--exp", fixture_files[0], "--obs", fixture_files[1],
                          "--delta-s", "1.7e308", "--delta-c", "1.7e308"],
        "estimate_bootstrap": ["estimate", "--exp", pe, "--obs", po, "--method", "index", "--bootstrap", "5"],
    }[case]
    out = tmp_path / "r.json"
    proc = _cli_process([*argv, "--out", out])
    assert proc.returncode == 3
    assert proc.stderr.startswith("error: EstimationError: a result is not finite") and proc.stderr.count("\n") == 1
    assert not out.exists()
    proc = _cli_process(argv)
    assert (proc.returncode, proc.stdout, proc.stderr.count("\n")) == (3, "", 1)


def test_an_overflowing_interaction_design_is_one_error_line(tmp_path):
    rng = np.random.default_rng(4)
    pe, po = _write_pair(tmp_path, rng.normal(size=(100, 1)) * 1e10, rng.normal(size=(100, 1)))
    exp = load_experimental(pe)
    write_experimental(ExperimentalSample(w=exp.w, s=exp.s * 1e300, x=exp.x), pe)
    proc = _cli_process(["estimate", "--exp", pe, "--obs", po, "--interactions"])
    assert proc.returncode == 2
    assert proc.stderr == "error: ValidationError: surrogate score: non-finite values in the training data\n"


_COMMANDS_SCRIPT = """
import contextlib, io, json, sys
from surrogate_ate import cli
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exit:
            code = exit.code
    results.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(results))
"""


def _commands_in_one_process(argvs):
    proc = subprocess.run([sys.executable, "-c", _COMMANDS_SCRIPT, json.dumps(argvs)],
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def test_commands_in_one_process_equal_fresh_processes(fixture_files, tmp_path):
    # the parser is built once per process; later commands must parse as a fresh process does
    pe, po = map(str, fixture_files)
    single = tmp_path / "single.csv"
    rng = np.random.default_rng(3)
    write_single(SingleSample(w=np.tile([0.0, 1.0], 30), y=rng.normal(size=60), s=rng.normal(size=(60, 2))), single)
    argvs = [
        ["estimate", "--exp", pe, "--obs", po, "--method", "all", "--bootstrap", "4"],
        ["diagnose", "--exp", pe, "--obs", po, "--delta-s", "1", "--delta-c", "0.5"],
        ["bounds", "--single", str(single)],
        ["estimate", "--exp", pe, "--obs", po, "--method", "bogus"],
        ["bounds", "--single", str(single), "--variance-mode", "per-stratum"],
        ["--version"],
    ]
    together = _commands_in_one_process(argvs)
    fresh = [_commands_in_one_process([argv])[0] for argv in argvs]
    assert together == fresh
    assert [code for code, _, _ in together] == [0, 0, 0, 2, 0, 0]
    assert "invalid choice: 'bogus'" in together[3][2]


def test_a_record_that_is_not_finite_does_not_serialize(covariate_files):
    pe, po = covariate_files
    exp = load_experimental(pe)
    fits = fit_all(pool(exp, load_observational(po)))
    with pytest.raises(EstimationError, match="^a result is not finite: an input or a cap is too large in magnitude$"):
        bias_bound(exp, fits, 1.7e308, 1.7e308).to_json()
    finite = bias_bound(exp, fits, 1.0, 1.0)
    assert finite.to_json() == json.dumps(asdict(finite), sort_keys=True)


def test_the_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


@pytest.mark.parametrize("interactions", [False, True])
@pytest.mark.parametrize("trim", [None, 1e-6, 0.2])
def test_a_bootstrap_replicate_reads_the_public_estimates_from_the_cores(covariate_files, interactions, trim):
    from surrogate_ate.errors import SurrogateError
    from surrogate_ate.estimators import _resample

    def outcome(call):
        try:
            return float(call()).hex()
        except SurrogateError as err:
            return type(err), str(err)

    pe, po = covariate_files
    exp, obs = load_experimental(pe), load_observational(po)
    rng = np.random.default_rng(3)
    options = NuisanceOptions(interactions=interactions, ridge_index=0.1)
    for _ in range(4):
        pooled = pool(_resample(exp, rng), _resample(obs, rng))
        fits = fit_all(pooled, options)
        for method, (report, core) in cli._METHOD_TABLE.items():
            want = outcome(lambda: report(pooled, fits, trim).tau_hat)
            assert outcome(lambda: core(pooled, fits, trim)) == want
            assert isinstance(want, str) != (method == "linear" and interactions)
