"""Acceptance suite: one test per release criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The Monte Carlo
criteria run full 1000-replication studies and take a few minutes; the
study seed is fixed at 6 (orderings hold for any seed, magnitudes are
checked against their published reference values under the documented
tolerances).
"""

import os
import subprocess
import sys
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.special import expit
from scipy.stats import spearmanr

from surrogate_ate import (
    SingleSample,
    bernoulli_loglik,
    bernoulli_loglik_gradient,
    efficiency_bounds_single_sample,
    efficiency_gain_homoskedastic,
    fit_least_squares,
    fit_logistic,
    random_population,
    run_study,
    verify_bias_identity,
    verify_identification,
)

STUDY_SEED = 6
REPS = 1000


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"[FAIL] {name}")
        raise
    print(f"[PASS] {name}")


def _by_estimator(rows, field):
    out = {"score": {}, "index": {}}
    for row in rows:
        out[row["estimator"]][row["grid_value"]] = row[field]
    return out


def _print_table(name, rows):
    print(f"\n{name} (x100):")
    print(f"  {'grid':>6} {'estimator':>9} {'bias':>8} {'sd':>8} {'failures':>8}")
    for row in rows:
        print(
            f"  {row['grid_value']:>6} {row['estimator']:>9} "
            f"{row['abs_bias_x100']:>8.3f} {row['sd_x100']:>8.3f} {row['failures']:>8}"
        )


@pytest.fixture(scope="module")
def sample_size_study():
    rows = run_study("sample_size", reps=REPS, seed=STUDY_SEED)
    _print_table("sample-size study", rows)
    return rows


@pytest.fixture(scope="module")
def explanatory_study():
    rows = run_study("explanatory", reps=REPS, seed=STUDY_SEED)
    _print_table("explanatory-power study", rows)
    return rows


def test_sample_size_table_center_cell(sample_size_study):
    with criterion("equal-split study, q=0.5: |bias|x100 < 0.3 and sd x100 in [2.2, 3.5] for both estimators"):
        bias = _by_estimator(sample_size_study, "abs_bias_x100")
        sd = _by_estimator(sample_size_study, "sd_x100")
        for est in ("score", "index"):
            assert bias[est][0.5] < 0.3, f"{est} bias x100 = {bias[est][0.5]:.3f}"
            assert 2.2 <= sd[est][0.5] <= 3.5, f"{est} sd x100 = {sd[est][0.5]:.3f}"


# published reference cells (x100) for the q sweep at N = 1000, effect 0.5
_REFERENCE_SD = {
    "score": {0.05: 6.357, 0.25: 3.018, 0.5: 2.801, 0.75: 3.482, 0.95: 7.420},
    "index": {0.05: 7.490, 0.25: 3.508, 0.5: 2.850, 0.75: 3.004, 0.95: 6.434},
}
_REFERENCE_PEAK_BIAS = {"score": (0.05, 2.011), "index": (0.95, 2.747)}


def test_sample_size_table_shape(sample_size_study):
    with criterion(
        "q sweep: sd bowl with its minimum at q=0.5; score bias peaks at q=0.05 and "
        "index bias at q=0.95; magnitudes within +/-50% of the reference table"
    ):
        bias = _by_estimator(sample_size_study, "abs_bias_x100")
        sd = _by_estimator(sample_size_study, "sd_x100")
        grid = sorted(bias["score"])
        for est in ("score", "index"):
            assert min(sd[est], key=sd[est].get) == 0.5, f"{est} sd not minimized at q=0.5"
        assert max(bias["score"], key=bias["score"].get) == 0.05
        assert max(bias["index"], key=bias["index"].get) == 0.95
        for est in ("score", "index"):
            for q in grid:
                ref = _REFERENCE_SD[est][q]
                assert 0.5 * ref <= sd[est][q] <= 1.5 * ref, (
                    f"{est} sd x100 at q={q}: {sd[est][q]:.3f} vs reference {ref}"
                )
            q_peak, ref_peak = _REFERENCE_PEAK_BIAS[est]
            assert 0.5 * ref_peak <= bias[est][q_peak] <= 1.5 * ref_peak, (
                f"{est} peak bias x100 at q={q_peak}: {bias[est][q_peak]:.3f} vs reference {ref_peak}"
            )


def test_explanatory_power_table(explanatory_study):
    with criterion(
        "explanatory-power study: baseline row sd x100 in [1.7, 2.7] and every "
        "higher-variance row strictly noisier than the baseline"
    ):
        sd = _by_estimator(explanatory_study, "sd_x100")
        for est in ("score", "index"):
            assert 1.7 <= sd[est][1] <= 2.7, f"{est} baseline sd x100 = {sd[est][1]:.3f}"
            for row in (2, 3, 4):
                assert sd[est][row] > sd[est][1], (
                    f"{est} row {row} sd {sd[est][row]:.3f} not above baseline {sd[est][1]:.3f}"
                )


def test_dimension_sweep_trend():
    with criterion("surrogate-count sweep: sd non-decreasing in M (rank correlation > 0.8)"):
        rows = run_study("dimension", reps=REPS, seed=STUDY_SEED)
        _print_table("surrogate-dimension study", rows)
        sd = _by_estimator(rows, "sd_x100")
        for est in ("score", "index"):
            grid = sorted(sd[est])
            rho = spearmanr(grid, [sd[est][m] for m in grid]).statistic
            assert rho > 0.8, f"{est} rank correlation {rho:.3f}"


def test_misspecification_sweep_trend():
    with criterion(
        "truncated-surrogate sweep: some interior K beats both K=1 and K=250 on bias"
    ):
        rows = run_study("misspecification", reps=REPS, seed=STUDY_SEED)
        _print_table("truncated-surrogate study", rows)
        bias = _by_estimator(rows, "abs_bias_x100")
        for est in ("score", "index"):
            interior = min(bias[est][k] for k in (5, 25, 100))
            assert interior < bias[est][1], f"{est}: interior {interior:.2f} vs K=1 {bias[est][1]:.2f}"
            assert interior < bias[est][250], f"{est}: interior {interior:.2f} vs K=250 {bias[est][250]:.2f}"


def test_identification_enumeration():
    with criterion("identification: both representations equal the direct effect to 1e-10 "
                   "on 100 random compliant populations"):
        rng = np.random.default_rng(101)
        for _ in range(100):
            pop = random_population(
                rng,
                n_surrogate_levels=int(rng.integers(2, 6)),
                n_covariate_levels=int(rng.integers(1, 4)),
            )
            q = float(rng.uniform(0.05, 0.95))
            report = verify_identification(pop, q)
            assert report.max_abs_gap < 1e-10
            assert report.compliant


def test_bias_decomposition_enumeration():
    with criterion("bias decomposition: enumerated gap equals the two-term sum to 1e-10 "
                   "on 100 random populations including violations"):
        rng = np.random.default_rng(202)
        for _ in range(100):
            pop = random_population(
                rng,
                n_surrogate_levels=int(rng.integers(2, 6)),
                n_covariate_levels=int(rng.integers(1, 4)),
                surrogacy_violation=float(rng.uniform(0, 1.5)),
                comparability_violation=float(rng.uniform(0, 1.5)),
            )
            assert verify_bias_identity(pop).gap < 1e-10


def _worked_gain_sample():
    rows = []
    for s_val, n_treated, mean in ((-1.0, 6, 0.0), (1.0, 14, 2.0)):
        arms = [1.0] * n_treated + [0.0] * (20 - n_treated)
        for i, arm in enumerate(arms):
            rows.append((arm, mean + (1.0 if i % 2 == 0 else -1.0), s_val))
    return SingleSample(
        w=[r[0] for r in rows], y=[r[1] for r in rows], s=[[r[2]] for r in rows]
    )


def test_efficiency_bound_properties():
    with criterion(
        "efficiency bounds: no-surrogacy bound dominates, gain is 2*sigma^2 at a constant "
        "score and 0 at a binary score, and the 1.68 worked instance reproduces"
    ):
        # closed-form gain identities
        for p in (0.2, 0.5, 0.8):
            assert efficiency_gain_homoskedastic(p, 1.3, [p], [1.0]) == pytest.approx(2.6, abs=1e-10)
            assert efficiency_gain_homoskedastic(
                p, 1.3, [0.0, 1.0], [1 - p, p]
            ) == pytest.approx(0.0, abs=1e-10)
        assert efficiency_gain_homoskedastic(0.5, 1.0, [0.3, 0.7], [0.5, 0.5]) == pytest.approx(
            1.68, abs=1e-12
        )

        # the worked instance also comes out of the plug-in bound difference
        bounds = efficiency_bounds_single_sample(_worked_gain_sample(), variance_mode="per_stratum")
        assert bounds.gain == pytest.approx(1.68, abs=1e-6)

        # dominance on random inputs
        rng = np.random.default_rng(303)
        for _ in range(25):
            n = 60
            w = (rng.random(n) < rng.uniform(0.3, 0.7)).astype(float)
            if w.sum() in (0, n):
                continue
            s = rng.normal(size=(n, 2))
            x = rng.normal(size=(n, 1))
            y = s @ rng.normal(size=2) + x[:, 0] * rng.normal() + rng.normal(size=n)
            b = efficiency_bounds_single_sample(SingleSample(w=w, y=y, s=s, x=x), ridge=1e-6)
            scale = max(1.0, abs(b.v_no_surrogacy))
            assert b.v_no_surrogacy >= b.v_surrogacy - 1e-10 * scale


def test_nuisance_solver_correctness():
    with criterion(
        "nuisance solvers: logistic MLE matches a grid-search oracle to 1e-4, analytic and "
        "finite-difference gradients agree to 1e-5 on 50 random datasets, and least squares "
        "matches an elimination oracle to 1e-10"
    ):
        # logistic vs 2-d grid oracle on the 6-point fixture
        s = np.array([-1.0, -1.0, -1.0, 1.0, 1.0, 1.0])
        y = np.array([0.0, 0.0, 1.0, 0.0, 1.0, 1.0])
        model = fit_logistic(s.reshape(-1, 1), y)
        best, width, center = (0.0, 0.0), 4.0, (0.0, 0.0)
        for _ in range(12):
            grid0 = np.linspace(center[0] - width, center[0] + width, 41)
            grid1 = np.linspace(center[1] - width, center[1] + width, 41)
            scored = [
                (bernoulli_loglik(b0, np.array([b1]), s.reshape(-1, 1), y), (b0, b1))
                for b0 in grid0
                for b1 in grid1
            ]
            _, best = max(scored, key=lambda t: t[0])
            center, width = best, width / 4.0
        assert abs(model.intercept - best[0]) < 1e-4
        assert abs(model.coef_s[0] - best[1]) < 1e-4

        # analytic vs central finite-difference gradients
        rng = np.random.default_rng(404)
        for _ in range(50):
            n, d = int(rng.integers(20, 50)), int(rng.integers(1, 4))
            features = rng.normal(size=(n, d))
            labels = (rng.random(n) < expit(features @ rng.normal(size=d))).astype(float)
            if labels.sum() in (0, n):
                continue
            theta = rng.normal(scale=0.5, size=d + 1)
            analytic = bernoulli_loglik_gradient(theta[0], theta[1:], features, labels)
            fd = np.empty_like(analytic)
            h = 1e-6
            for j in range(d + 1):
                up, dn = theta.copy(), theta.copy()
                up[j] += h
                dn[j] -= h
                fd[j] = (
                    bernoulli_loglik(up[0], up[1:], features, labels)
                    - bernoulli_loglik(dn[0], dn[1:], features, labels)
                ) / (2 * h)
            assert np.abs(analytic - fd).max() < 1e-5 * max(1.0, float(np.abs(fd).max()))

        # least squares vs an independent elimination oracle
        features = rng.normal(size=(30, 3))
        targets = rng.normal(size=30)
        model = fit_least_squares(features, targets)
        design = np.hstack([np.ones((30, 1)), features])
        ata = (design.T @ design).tolist()
        atb = list(design.T @ targets)
        m = len(ata)
        aug = [row + [b] for row, b in zip(ata, atb)]
        for col in range(m):
            piv = max(range(col, m), key=lambda r: abs(aug[r][col]))
            aug[col], aug[piv] = aug[piv], aug[col]
            div = aug[col][col]
            aug[col] = [v / div for v in aug[col]]
            for r in range(m):
                if r != col:
                    f = aug[r][col]
                    aug[r] = [vr - f * vc for vr, vc in zip(aug[r], aug[col])]
        oracle = [row[-1] for row in aug]
        assert np.abs(np.array([model.intercept, *model.coef]) - oracle).max() < 1e-10


# Runs the CLI as ``python -c _CLI_WITH_CPUS <cpus> <argv...>``: the process sees
# ``cpus`` CPUs available whatever the machine has, and the last stderr line
# lists the worker count of each map that forked workers, counted as in the
# ``process_pools`` fixture.
_CLI_WITH_CPUS = """
import json, os, sys
cpus = int(sys.argv[1])
os.sched_getaffinity = lambda pid: set(range(cpus))
sizes, unreaped = [], set()
fork, waitpid = os.fork, os.waitpid
def recording_fork():
    pid = fork()
    if pid:
        if not unreaped:
            sizes.append(0)
        unreaped.add(pid)
        sizes[-1] += 1
    return pid
def recording_waitpid(pid, options):
    unreaped.discard(pid)
    return waitpid(pid, options)
os.fork, os.waitpid = recording_fork, recording_waitpid
from surrogate_ate.cli import main
code = main(sys.argv[2:])
print("pools " + json.dumps(sizes), file=sys.stderr)
sys.exit(code)
"""


def test_seeded_entry_points_are_byte_deterministic(tmp_path):
    with criterion(
        "determinism: seeded CLI runs are byte-identical across repeats and across "
        "1, 2 (the default on two CPUs) and 3 worker processes"
    ):
        exp_csv = tmp_path / "e.csv"
        obs_csv = tmp_path / "o.csv"
        gen = np.random.default_rng(7)
        s_e = gen.normal(size=(40, 2))
        w = (gen.random(40) < expit(s_e @ np.array([0.8, -0.5]))).astype(int)
        w[0], w[1] = 0, 1
        s_o = gen.normal(size=(60, 2))
        y_o = (gen.random(60) < expit(s_o @ np.array([0.8, -0.5]))).astype(int)
        exp_csv.write_text(
            "w,s1,s2\n"
            + "\n".join(f"{w[i]},{float(s_e[i, 0])!r},{float(s_e[i, 1])!r}" for i in range(40))
            + "\n"
        )
        obs_csv.write_text(
            "y,s1,s2\n"
            + "\n".join(f"{y_o[i]},{float(s_o[i, 0])!r},{float(s_o[i, 1])!r}" for i in range(60))
            + "\n"
        )

        def run(threads, cpus, tag, pools):
            env = dict(os.environ)
            env.pop("SURROGATE_THREADS", None)
            if threads is not None:
                env["SURROGATE_THREADS"] = threads
            est_out = tmp_path / f"est_{tag}.json"
            sim_out = tmp_path / f"sim_{tag}.csv"
            for argv in (
                ["estimate", "--exp", str(exp_csv), "--obs", str(obs_csv), "--method", "index",
                 "--bootstrap", "64", "--seed", "9", "--out", str(est_out)],
                ["simulate", "--study", "samplesize", "--reps", "6", "--seed", "3",
                 "--grid", "0.5", "--out", str(sim_out)],
            ):
                proc = subprocess.run(
                    [sys.executable, "-c", _CLI_WITH_CPUS, str(cpus), *argv],
                    capture_output=True, text=True, env=env,
                )
                assert proc.returncode == 0, proc.stderr
                # the worker count the command actually ran with
                assert proc.stderr.splitlines()[-1] == f"pools {pools}", proc.stderr
            return est_out.read_bytes(), sim_out.read_bytes(), (
                tmp_path / f"sim_{tag}.csv.manifest.json"
            ).read_bytes()

        first = run("1", 3, "a", [])
        again = run("1", 3, "b", [])
        default = run(None, 2, "c", [2])
        threaded = run("8", 3, "d", [3])
        assert first == again
        assert first == default
        assert first == threaded
