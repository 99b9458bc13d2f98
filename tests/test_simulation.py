import hashlib
import inspect
import json
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from surrogate_ate import (
    CalibrationError,
    ConfigurationError,
    DgpSpec,
    ValidationError,
    calibrate_tau,
    draw_dataset,
    make_spec,
    run_monte_carlo,
    run_study,
    true_tau,
    true_tau_mc,
)
from surrogate_ate import simulation


# ---------------------------------------------------------------------------
# data generation

def test_draw_null_model_is_fair_coin():
    spec = DgpSpec(study="dimension", m_surrogates=2, n_exp=100_000, n_obs=100_000,
                   alpha=np.zeros(2), gamma=np.zeros(2))
    exp, obs = draw_dataset(spec, 123)
    se = 0.5 / np.sqrt(100_000)
    assert abs(exp.w.mean() - 0.5) < 3 * se
    assert abs(obs.y.mean() - 0.5) < 3 * se
    # independence of the surrogates: correlation with w is noise-level
    corr = np.corrcoef(exp.w, exp.s[:, 0])[0, 1]
    assert abs(corr) < 3 / np.sqrt(100_000)


def test_draw_is_deterministic():
    spec = make_spec("dimension", seed=4, m=3)
    a = draw_dataset(spec, np.random.SeedSequence((4, 2, 0, 7)))
    b = draw_dataset(spec, np.random.SeedSequence((4, 2, 0, 7)))
    assert np.array_equal(a[0].w, b[0].w)
    assert np.array_equal(a[0].s, b[0].s)
    assert np.array_equal(a[1].y, b[1].y)
    assert np.array_equal(a[1].s, b[1].s)
    c = draw_dataset(spec, np.random.SeedSequence((4, 2, 0, 8)))
    assert not np.array_equal(a[0].w, c[0].w)


def test_draw_correlation_matches_quadrature_oracle():
    spec = DgpSpec(study="dimension", m_surrogates=1, n_exp=1_000_000, n_obs=1_000_000,
                   alpha=np.ones(1), gamma=np.ones(1))
    exp, obs = draw_dataset(spec, 99)
    # the experimental sample also carries implicit outcomes in this model;
    # check corr(w, y) on a joint redraw against exact 1-d integration
    rng = np.random.default_rng(99)
    s = rng.standard_normal(1_000_000)
    w = (rng.random(1_000_000) < expit(s)).astype(float)
    y = (rng.random(1_000_000) < expit(s)).astype(float)

    nodes, weights = np.polynomial.hermite_e.hermegauss(128)
    weights = weights / np.sqrt(2 * np.pi)
    r = expit(nodes)
    e_w = weights @ r
    e_wy = weights @ (r * r)  # same logistic for both models
    rho = (e_wy - e_w**2) / (e_w * (1 - e_w))
    emp = np.corrcoef(w, y)[0, 1]
    assert abs(emp - rho) < 3 / np.sqrt(1_000_000) * 2


# ---------------------------------------------------------------------------
# specs

def test_make_spec_dimension():
    spec = make_spec("dimension", seed=9, m=200)
    assert spec.m_surrogates == 200
    assert spec.n_exp == spec.n_obs == 500
    assert np.array_equal(spec.alpha, spec.gamma)
    # coefficients fixed across calls with the same seed
    again = make_spec("dimension", seed=9, m=200)
    assert np.array_equal(spec.alpha, again.alpha)
    assert not np.array_equal(spec.alpha, make_spec("dimension", seed=10, m=200).alpha)


def test_make_spec_misspecification():
    spec = make_spec("misspecification", seed=0, k_used=10)
    assert spec.m_surrogates == 250
    assert spec.k_used == 10
    k = np.arange(1, 251)
    assert np.allclose(spec.alpha, (1 / 3) * k**-0.5)
    assert np.array_equal(spec.alpha, spec.gamma)


def test_make_spec_sample_size():
    spec = make_spec("sample_size", seed=6, q=0.05)
    assert spec.n_exp == 50
    assert spec.n_obs == 950
    assert spec.m_surrogates == 10


def test_make_spec_out_of_range():
    with pytest.raises(ConfigurationError):
        make_spec("dimension", seed=0, m=500)
    with pytest.raises(ConfigurationError):
        make_spec("misspecification", seed=0, k_used=0)
    with pytest.raises(ConfigurationError):
        make_spec("explanatory", seed=0, design_row=5)
    with pytest.raises(ConfigurationError):
        make_spec("nope", seed=0)


def test_explanatory_rows_share_direction():
    specs = [make_spec("explanatory", seed=3, design_row=row) for row in (1, 2, 3, 4)]
    z = specs[0].alpha
    assert np.allclose(specs[1].alpha, 2 * z)
    assert np.allclose(specs[1].gamma, z)
    assert np.allclose(specs[2].gamma, 2 * z)
    assert np.allclose(specs[3].alpha, 2 * z)


# ---------------------------------------------------------------------------
# true effect oracle

def test_true_tau_zero_gamma():
    spec = DgpSpec(study="dimension", m_surrogates=3, n_exp=10, n_obs=10,
                   alpha=np.array([1.0, 0.5, 0.0]), gamma=np.zeros(3))
    assert true_tau(spec) == 0.0


def test_true_tau_quadrature_vs_monte_carlo():
    spec = DgpSpec(study="dimension", m_surrogates=1, n_exp=10, n_obs=10,
                   alpha=np.ones(1), gamma=np.ones(1))
    quad = true_tau(spec)
    mc, se = true_tau_mc(spec, n_draws=2_000_000, seed=5)
    assert abs(quad - mc) < 3 * se


def test_true_tau_nonparallel_vs_monte_carlo():
    spec = DgpSpec(study="explanatory", m_surrogates=2, n_exp=10, n_obs=10,
                   alpha=np.array([1.0, 0.2]), gamma=np.array([-0.3, 0.9]))
    quad = true_tau(spec)
    mc, se = true_tau_mc(spec, n_draws=2_000_000, seed=6)
    assert abs(quad - mc) < 3 * se


def test_true_tau_calibrated_spec_hits_target():
    spec = make_spec("sample_size", seed=6, q=0.5)
    assert abs(true_tau(spec) - 0.5) < 1e-3


def test_true_tau_invariant_to_joint_permutation():
    rng = np.random.default_rng(2)
    alpha = rng.normal(size=4)
    gamma = 0.7 * alpha
    perm = rng.permutation(4)
    a = true_tau(DgpSpec(study="dimension", m_surrogates=4, n_exp=1, n_obs=1, alpha=alpha, gamma=gamma))
    b = true_tau(DgpSpec(study="dimension", m_surrogates=4, n_exp=1, n_obs=1,
                         alpha=alpha[perm], gamma=gamma[perm]))
    assert a == pytest.approx(b, abs=1e-14)


# ---------------------------------------------------------------------------
# calibration

def test_calibrate_zero_target():
    scale = calibrate_tau(0.0, np.ones(5))
    assert scale == 0.0


def test_calibrate_reaches_half():
    direction = np.random.default_rng(1).normal(size=10)
    scale = calibrate_tau(0.5, direction, tolerance=1e-3)
    unit = direction / np.linalg.norm(direction)
    spec = DgpSpec(study="dimension", m_surrogates=10, n_exp=1, n_obs=1,
                   alpha=scale * unit, gamma=scale * unit)
    assert abs(true_tau(spec) - 0.5) < 1e-3


def test_calibrate_is_monotone_in_scale():
    unit = np.ones(3) / np.sqrt(3)
    taus = [
        true_tau(DgpSpec(study="dimension", m_surrogates=3, n_exp=1, n_obs=1,
                         alpha=c * unit, gamma=c * unit))
        for c in (0.0, 0.5, 1.0, 2.0, 4.0, 8.0)
    ]
    assert all(a < b for a, b in zip(taus, taus[1:]))


def test_calibrate_extreme_target():
    direction = np.ones(4)
    try:
        scale = calibrate_tau(0.999, direction, tolerance=1e-3)
    except CalibrationError as err:
        assert "supremum" in str(err)
    else:
        unit = direction / 2.0
        spec = DgpSpec(study="dimension", m_surrogates=4, n_exp=1, n_obs=1,
                       alpha=scale * unit, gamma=scale * unit)
        assert abs(true_tau(spec) - 0.999) < 2e-3


def test_calibrate_rejects_impossible_target():
    with pytest.raises(CalibrationError):
        calibrate_tau(1.5, np.ones(3))


# ---------------------------------------------------------------------------
# Monte Carlo harness

def test_run_monte_carlo_deterministic():
    spec = make_spec("dimension", seed=8, m=2)
    a = run_monte_carlo(spec, reps=3, seed=8)
    b = run_monte_carlo(spec, reps=3, seed=8)
    assert a == b
    assert a.score.reps == 3
    assert a.score.failures == 0


def test_run_monte_carlo_thread_invariant(process_pools, monkeypatch):
    spec = make_spec("dimension", seed=8, m=2)
    monkeypatch.setenv("SURROGATE_THREADS", "1")
    a = run_monte_carlo(spec, reps=8, seed=8)
    monkeypatch.setenv("SURROGATE_THREADS", "2")
    b = run_monte_carlo(spec, reps=8, seed=8)
    monkeypatch.delenv("SURROGATE_THREADS")
    c = run_monte_carlo(spec, reps=8, seed=8)
    assert process_pools == [2, 3]
    assert a == b == c


def test_run_monte_carlo_null_calibration():
    spec = DgpSpec(study="dimension", m_surrogates=2, n_exp=400, n_obs=400,
                   alpha=np.zeros(2), gamma=np.zeros(2))
    result = run_monte_carlo(spec, reps=60, seed=14)
    for stats in (result.score, result.index):
        assert stats.true_tau == 0.0
        assert stats.abs_bias < 4 * stats.sd / np.sqrt(stats.reps - stats.failures)


def test_run_study_writes_csv_and_manifest(tmp_path):
    out = tmp_path / "study.csv"
    rows = run_study("sample_size", reps=4, seed=2, out_path=out, grid=[0.5])
    assert len(rows) == 2
    assert {r["estimator"] for r in rows} == {"score", "index"}
    text = out.read_text().splitlines()
    assert text[0] == "grid_value,estimator,abs_bias_x100,sd_x100,reps,failures,true_tau"
    assert len(text) == 3
    manifest = json.loads((tmp_path / "study.csv.manifest.json").read_text())
    assert manifest["reps"] == 4
    assert manifest["study"] == "sample_size"
    assert len(manifest["specs"]) == 1
    assert manifest["specs"][0]["n_exp"] == 500


def test_run_study_rejects_bad_input(tmp_path):
    with pytest.raises(ConfigurationError):
        run_study("sample_size", reps=0, seed=1)
    with pytest.raises(ConfigurationError):
        run_study("unknown", reps=1, seed=1)


@pytest.mark.parametrize("target", ["out", "manifest", "under_a_file"])
def test_run_study_rejects_an_unwritable_out_path_before_any_replication(tmp_path, monkeypatch, target):
    def reached(*args, **kwargs):
        raise AssertionError("the output path must be checked before any replication runs")

    monkeypatch.setattr(simulation, "run_monte_carlo", reached)
    out = tmp_path / "study.csv"
    if target == "out":
        out.mkdir()
    elif target == "manifest":
        (tmp_path / "study.csv.manifest.json").mkdir()
    else:
        (tmp_path / "plain").write_text("", encoding="utf-8")
        out = tmp_path / "plain" / "study.csv"
    with pytest.raises(ConfigurationError, match="output path"):
        run_study("sample_size", reps=2, seed=0, out_path=out, grid=[0.5])


def test_run_monte_carlo_counts_failures_per_estimator():
    # tiny observational sample with a strong outcome model: some draws give
    # single-class outcomes, which fail only the index fit
    spec = DgpSpec(study="dimension", m_surrogates=1, n_exp=40, n_obs=4,
                   alpha=np.array([0.5]), gamma=np.array([0.5]), gamma0=2.0)
    result = run_monte_carlo(spec, reps=60, seed=3)
    assert result.index.failures > 0
    assert result.index.reps == 60
    assert result.score.failures == 0


def test_run_monte_carlo_all_failures_is_study_error():
    from surrogate_ate import StudyError

    # an outcome intercept this large makes every outcome 1: the index fit
    # can never succeed while the score path still works
    spec = DgpSpec(study="dimension", m_surrogates=1, n_exp=40, n_obs=40,
                   alpha=np.array([0.5]), gamma=np.array([0.0]), gamma0=40.0)
    with pytest.raises(StudyError):
        run_monte_carlo(spec, reps=5, seed=1)


def test_run_study_negative_seed_is_rejected():
    with pytest.raises(ConfigurationError, match="seed must be non-negative"):
        run_study("sample_size", reps=2, seed=-1, grid=[0.5])


@pytest.mark.parametrize("study, grid", [
    ("dimension", []),
    ("dimension", [2.7]),
    ("explanatory", ["1"]),
    ("sample_size", [0.5, None]),
])
def test_run_study_rejects_empty_or_recast_grid(tmp_path, study, grid):
    out = tmp_path / "study.csv"
    with pytest.raises(ConfigurationError, match="grid must be a non-empty list"):
        run_study(study, reps=2, seed=1, out_path=out, grid=grid)
    assert not out.exists()


@pytest.mark.parametrize("study, grid, text", [
    ("sample_size", np.array([0.5]), "0.5"),
    ("explanatory", np.array([1]), "1"),
])
def test_run_study_writes_numpy_grid_values_as_numbers(tmp_path, study, grid, text):
    out = tmp_path / "study.csv"
    rows = run_study(study, reps=2, seed=2, out_path=out, grid=grid)
    assert [line.split(",")[0] for line in out.read_text().splitlines()[1:]] == [text, text]
    assert [type(r["grid_value"]) for r in rows] == [type(grid.tolist()[0])] * 2
    manifest = json.loads((tmp_path / "study.csv.manifest.json").read_text())
    assert manifest["grid"] == grid.tolist()


@pytest.mark.parametrize("call", [
    lambda: make_spec("dimension", seed=-1, m=3),
    lambda: make_spec("sample_size", seed=-1, q=0.5),
    lambda: draw_dataset(make_spec("dimension", seed=1, m=3), -1),
    lambda: run_monte_carlo(make_spec("dimension", seed=1, m=3), reps=2, seed=-1),
    lambda: true_tau_mc(make_spec("dimension", seed=1, m=3), n_draws=100, seed=-1),
], ids=["make_spec", "make_spec_sample_size", "draw_dataset", "run_monte_carlo", "true_tau_mc"])
def test_seeded_entry_points_reject_a_negative_seed(call):
    from surrogate_ate import ValidationError

    with pytest.raises(ValidationError, match="seed must be non-negative, got -1"):
        call()


def test_draw_dataset_int_seed_is_the_one_element_stream():
    spec = make_spec("dimension", seed=1, m=3)
    a, b = draw_dataset(spec, 42), draw_dataset(spec, np.random.SeedSequence((42,)))
    assert np.array_equal(a[0].s, b[0].s) and np.array_equal(a[1].y, b[1].y)


def test_replication_counts_a_non_converged_fit_as_a_failure(monkeypatch):
    from functools import partial

    from surrogate_ate import nuisance, simulation

    spec = make_spec("sample_size", seed=2, q=0.5)
    seed = np.random.SeedSequence((2, 2, 0, 0))
    assert None not in simulation._replicate(spec, seed)
    monkeypatch.setattr(nuisance, "fit_logistic", partial(nuisance.fit_logistic, max_iter=1))
    assert simulation._replicate(spec, seed) == (None, None)


# sha256 of json.dumps(make_spec(study, seed=6, ...).to_dict(), sort_keys=True) for every
# default grid point, recorded before the studies were described by one table
_SEED6_SPEC_DIGESTS = {
    ("dimension", 1): "e874d160822c82afbbe38ab9e65b1419f46af1bfd8c2b6bfb7cb1ae71d8c096d",
    ("dimension", 10): "784a16720cd22b4d9c8716d33f0ab3647538e58b4c7c095b45b576641d2ef35b",
    ("dimension", 50): "fe63bbc0bec7d3009ce2c4e3eac66536d11ba35dff06262420f78edbe98368d4",
    ("dimension", 100): "a26f81eb2faf2e1e7abbc784a49d9ec591afd9d71f3dc89386278c4602eafdea",
    ("dimension", 200): "1901fce85eabe58c54ea6492e0446618f2a47e185b0a6a8c6067d45693010b6d",
    ("misspecification", 1): "d709968575e94da0091bf50020a226bcacfa5507868ec846f0cebe323bc7f767",
    ("misspecification", 5): "1f6f4f84156c729f354a2f82e617247d0eff16deac69647a3683804ef4e91492",
    ("misspecification", 25): "d74aa4bfc9068a9c901f584f8576c7c19aa5f600d1432cb314b8c0665f5c1015",
    ("misspecification", 100): "1e48660eb0a0f870a1bb3bd23d37e777eaed129084033724e12bb805428ba03e",
    ("misspecification", 250): "4963666b270c85113943b44282b8a9b3f210b200e8daac600ac09eb3a2266ac5",
    ("sample_size", 0.05): "27eb1e3a31b381e1f95c60d4714903bfabe71ee07cb1c324aac25223f2dacbcb",
    ("sample_size", 0.25): "42b2f52cca4037a80b46413c14dedab4d4e614d2fee7e111220483e3eae9efef",
    ("sample_size", 0.5): "381816c5b7ba2de62fd1b5386d01ab4214a7f4ff404234e86953fc58a2ddfe51",
    ("sample_size", 0.75): "6206a0e493b41b937b9ba5045c4352fa14031462cfa3d939480ada3fb81cb35d",
    ("sample_size", 0.95): "e31fdabb5d68809ce9aa1c7e2de210b522a54f9cf47f0534c5dd711a2cd7fff9",
    ("explanatory", 1): "bc3537444e82d13f5d396b1e37a5347dfbafd6bef3d3e1c290c30dc22221bf5d",
    ("explanatory", 2): "675276624e5b37f8d54c09a2774b62cd5741a1205f83a58b874f7e60214a19f8",
    ("explanatory", 3): "846a561b383086394642616aa6d1ef902d2619db1affbc6954812ccd46b5b47d",
    ("explanatory", 4): "72112e18b23b1a6c530198699bff1522b735931a00c317653b0599c181ec89b9",
}


_SPEC_KEYWORDS = {"dimension": "m", "misspecification": "k_used", "sample_size": "q", "explanatory": "design_row"}


@pytest.mark.parametrize("study, value", sorted(_SEED6_SPEC_DIGESTS, key=str))
def test_default_grid_point_spec_is_pinned(study, value):
    spec = make_spec(study, seed=6, **{_SPEC_KEYWORDS[study]: value})
    digest = hashlib.sha256(json.dumps(spec.to_dict(), sort_keys=True).encode()).hexdigest()
    assert digest == _SEED6_SPEC_DIGESTS[study, value]


def test_study_table_gives_names_and_default_grids():
    from surrogate_ate import DEFAULT_GRIDS

    assert simulation.STUDY_NAMES == tuple(simulation.STUDIES)
    assert DEFAULT_GRIDS is simulation.DEFAULT_GRIDS
    assert {(s, v) for s, grid in DEFAULT_GRIDS.items() for v in grid} == set(_SEED6_SPEC_DIGESTS)
    for study, (keyword, cast, grid) in simulation.STUDIES.items():
        assert DEFAULT_GRIDS[study] == grid
        assert all(type(v) is cast for v in grid), study
        assert keyword == _SPEC_KEYWORDS[study] and keyword in inspect.signature(make_spec).parameters


def test_run_study_zero_reps_is_rejected_before_any_output(tmp_path):
    out = tmp_path / "study.csv"
    with pytest.raises(ConfigurationError, match="reps must be at least 1"):
        run_study("explanatory", reps=0, seed=1, out_path=out, grid=[1])
    assert not out.exists()


def test_run_study_judges_a_dot_dot_out_path_before_any_work(tmp_path, monkeypatch):
    def reached(*args, **kwargs):
        raise AssertionError("the output path must be checked before any work runs")

    monkeypatch.setattr(simulation, "make_spec", reached)
    monkeypatch.setattr(simulation, "run_monte_carlo", reached)
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ConfigurationError, match=r"output path nope/\.\. is a directory"):
        run_study("sample_size", reps=2, seed=0, out_path="nope/..", grid=[0.5])
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("out", ["loop", "loop/x.csv", "missing/../loop/x.csv"])
def test_run_study_rejects_an_out_path_in_a_symbolic_link_loop_before_any_work(tmp_path, monkeypatch, out):
    def reached(*args, **kwargs):
        raise AssertionError("the output path must be checked before any work runs")

    monkeypatch.setattr(simulation, "make_spec", reached)
    monkeypatch.setattr(simulation, "run_monte_carlo", reached)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "loop").symlink_to("loop")
    with pytest.raises(ConfigurationError, match="runs into a symbolic-link loop"):
        run_study("sample_size", reps=2, seed=0, out_path=out, grid=[0.5])
    assert list(tmp_path.iterdir()) == [tmp_path / "loop"]


def test_import_computes_no_quadrature_rule():
    # the Gauss-Hermite rule is built on first use: importing the CLI must not call hermegauss,
    # and the first true_tau must (so the stand-in below would have caught an import-time call)
    code = (
        "import numpy.polynomial.hermite_e as he\n"
        "def refuse(*args):\n"
        "    raise RuntimeError('hermegauss called')\n"
        "he.hermegauss = refuse\n"
        "import surrogate_ate.cli\n"
        "from surrogate_ate import make_spec, true_tau\n"
        "try:\n"
        "    true_tau(make_spec('dimension', seed=0, m=2))\n"
        "except RuntimeError:\n"
        "    print('lazy')\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "lazy\n"


def test_hermite_rule_is_built_once():
    nodes, weights = np.polynomial.hermite_e.hermegauss(128)
    first = simulation._hermite()
    assert first is simulation._hermite()
    assert np.array_equal(first[0], nodes) and np.array_equal(first[1], weights / np.sqrt(2.0 * np.pi))


# ---------------------------------------------------------------------------
# the replication path, validated once: pinned bits, trusted samples, estimate steps

# float.hex of (abs_bias_x100, sd_x100) and true_tau of run_study(study, reps=6, seed=3, grid=grid),
# recorded when every replication still rebuilt its samples through the validating
# constructor and read tau_hat off the public estimators' reports
_RUN_STUDY_PINS = {
    ("sample_size", (0.05, 0.95)): [
        (0.05, "score", "0x1.6f92e7cf28d56p+0", "0x1.13129d919d466p+2", 0, "0x1.ffad9e68ecb18p-2"),
        (0.05, "index", "0x1.f5f34e1d7655ep+1", "0x1.81291d072fca1p+2", 0, "0x1.ffad9e68ecb18p-2"),
        (0.95, "score", "0x1.7d7bad6045cc4p-2", "0x1.0400c9eb48987p+3", 0, "0x1.ffad9e68ecb18p-2"),
        (0.95, "index", "0x1.a42020ab36d4ep+0", "0x1.dbb23ad15e8a8p+2", 0, "0x1.ffad9e68ecb18p-2"),
    ],
    ("explanatory", (4,)): [
        (4, "score", "0x1.124e509f955a0p-5", "0x1.f9e7bdcbd3a15p+0", 0, "0x1.7f9cb0f4eca88p-2"),
        (4, "index", "0x1.2a545c3296dfdp+0", "0x1.29dce95049bdap+1", 0, "0x1.7f9cb0f4eca88p-2"),
    ],
    # K=5 of 250 columns: the sliced-columns path
    ("misspecification", (5,)): [
        (5, "score", "0x1.05db3d53e7176p+3", "0x1.5ce6ea3eb65dep+0", 0, "0x1.0964be67a2690p-3"),
        (5, "index", "0x1.03df0a503049fp+3", "0x1.7a164a178a0f8p+0", 0, "0x1.0964be67a2690p-3"),
    ],
    ("dimension", (10,)): [
        (10, "score", "0x1.a0390ae1caec2p+0", "0x1.c35b157883b1dp+0", 0, "0x1.3e9147dd90220p-3"),
        (10, "index", "0x1.a8b5e70a54e2cp+0", "0x1.f2929ab8a9a4bp+0", 0, "0x1.3e9147dd90220p-3"),
    ],
}


@pytest.mark.parametrize("study, grid", sorted(_RUN_STUDY_PINS))
def test_run_study_rows_are_pinned_bit_for_bit(study, grid):
    rows = run_study(study, reps=6, seed=3, grid=list(grid))
    got = [(r["grid_value"], r["estimator"], r["abs_bias_x100"].hex(), r["sd_x100"].hex(), r["failures"],
            r["true_tau"].hex()) for r in rows]
    assert got == _RUN_STUDY_PINS[study, grid]


def _replicate_through_the_public_api(spec, rep_seed):
    """``_replicate`` as the validating constructor, the public fit and the public estimators compute it."""
    from surrogate_ate import (
        ConstantScore, ExperimentalSample, NuisanceFits, ObservationalSample, estimate_index, estimate_score,
        fit_logistic,
    )

    exp, obs = draw_dataset(spec, rep_seed)
    k = spec.k_used or spec.m_surrogates
    exp = ExperimentalSample(w=np.array(exp.w), s=np.array(exp.s[:, :k]))
    obs = ObservationalSample(y=np.array(obs.y), s=np.array(obs.s[:, :k]))
    q = spec.n_exp / (spec.n_exp + spec.n_obs)
    e_model, t_model = ConstantScore(float(exp.w.mean())), ConstantScore(q)
    r_model = fit_logistic(exp.s, exp.w, ridge=simulation.HARNESS_RIDGE)
    tau_o = estimate_score(obs, NuisanceFits(e_model, r_model, t_model, None), q).tau_hat
    h_model = fit_logistic(obs.s, obs.y, ridge=simulation.HARNESS_RIDGE)
    tau_e = estimate_index(exp, NuisanceFits(e_model, None, t_model, h_model)).tau_hat
    return tau_o, tau_e


@pytest.mark.parametrize("study, value", [("sample_size", 0.05), ("sample_size", 0.95), ("explanatory", 4),
                                          ("misspecification", 5), ("misspecification", 1), ("dimension", 10)])
def test_replication_equals_the_public_estimators_bit_for_bit(study, value):
    keyword, _, _ = simulation.STUDIES[study]
    spec = make_spec(study, seed=5, **{keyword: value})
    for rep in range(3):
        rep_seed = np.random.SeedSequence((5, 2, 0, rep))
        got = simulation._replicate(spec, rep_seed)
        want = _replicate_through_the_public_api(spec, rep_seed)
        assert [v.hex() for v in got] == [v.hex() for v in want]


def _assert_as_constructed(sample):
    """``sample``'s columns are what the validating constructor makes of the same values."""
    columns = (*sample.unit_columns, "s", "x")
    constructed = type(sample)(**{c: getattr(sample, c) for c in columns})
    for c in columns:
        col, want = getattr(sample, c), getattr(constructed, c)
        assert np.array_equal(col, want)
        assert (col.dtype, col.shape) == (want.dtype, want.shape)
        assert col.dtype == np.float64 and col.flags.c_contiguous and want.flags.c_contiguous
        assert not col.flags.writeable and not want.flags.writeable


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 30), st.integers(1, 30), st.integers(1, 6), st.data())
def test_trusted_samples_equal_the_validating_constructors(seed, n_exp, n_obs, m, data):
    rng = np.random.default_rng(seed)
    spec = DgpSpec(study="dimension", m_surrogates=m, n_exp=n_exp, n_obs=n_obs,
                   alpha=rng.normal(size=m), gamma=rng.normal(size=m))
    try:
        drawn = draw_dataset(spec, seed)
    except ValidationError:
        return  # a draw with one arm: test_a_one_arm_draw_raises_the_constructors_error
    k = data.draw(st.integers(1, m))
    for sample in drawn:
        _assert_as_constructed(sample)
        sliced = simulation._first_columns(sample, k)
        _assert_as_constructed(sliced)
        assert np.array_equal(sliced.s, sample.s[:, :k])
        assert np.array_equal(sliced.x, sample.x) and sliced.x.shape == (sample.n, 0)
        for parent in (sample, sliced):
            idx = np.array(data.draw(st.lists(st.integers(0, sample.n - 1), min_size=sample.n, max_size=sample.n)))
            try:
                taken = parent._take(idx)
            except ValidationError:
                continue  # a resample with one arm: tests/test_estimators.py
            _assert_as_constructed(taken)
            for c in (*sample.unit_columns, "s", "x"):
                assert np.array_equal(getattr(taken, c), getattr(parent, c)[idx])


def test_a_one_arm_draw_raises_the_constructors_error():
    from surrogate_ate import ExperimentalSample

    spec = DgpSpec(study="dimension", m_surrogates=2, n_exp=20, n_obs=20, alpha=np.ones(2), gamma=np.ones(2),
                   alpha0=-60.0)  # no unit is treated
    with pytest.raises(ValidationError) as drawn:
        draw_dataset(spec, 4)
    with pytest.raises(ValidationError) as constructed:
        ExperimentalSample(w=np.zeros(20), s=np.zeros((20, 2)))
    message = "experimental sample needs at least one treated and one control unit"
    assert str(drawn.value) == str(constructed.value) == message
    assert simulation._replicate(spec, np.random.SeedSequence(4)) == (None, None)


@pytest.mark.parametrize("n_exp, n_obs, kind", [(0, 50, "experimental"), (50, 0, "observational")])
def test_an_empty_draw_raises_the_constructors_error(n_exp, n_obs, kind):
    spec = DgpSpec(study="dimension", m_surrogates=1, n_exp=n_exp, n_obs=n_obs, alpha=np.ones(1), gamma=np.ones(1))
    with pytest.raises(ValidationError, match=f"^{kind} sample must contain at least one row$"):
        draw_dataset(spec, 0)
