import json
import subprocess
import sys

import numpy as np
import pytest

from surrogate_ate import (
    ExperimentalSample,
    NuisanceOptions,
    ObservationalSample,
    bias_bound,
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
