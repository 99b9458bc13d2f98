"""The benchmark's workloads: seeded inputs, one op each, and the op's output checks.

Each workload cycles through a fixed rotation of ops.  An op is one call
into the package's public entry points: ``surrogate_ate.simulation.run_study``
for the Monte Carlo workloads and ``surrogate_ate.cli.main`` for the
command-line ones.  Inputs are a pure function of the benchmark seed and the
op index, and repeat with a fixed period, so the stored reference outputs of
the default seed cover every op of a run.  Why each workload exists is
written in ``WORKLOADS.md`` beside this file.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import expit

import surrogate_ate.cli as cli
import surrogate_ate.simulation as simulation
from surrogate_ate import (
    ExperimentalSample,
    ObservationalSample,
    SingleSample,
    write_experimental,
    write_observational,
    write_single,
)

DEFAULT_SEED = 0

# Reference outputs are compared to this absolute tolerance; counts exactly.
REFERENCE_TOLERANCE = 1e-8

# Output fields that carry an estimate; counts (n_used) are compared exactly.
_ESTIMATE_KEYS = frozenset({
    "tau_hat", "se_bootstrap", "surrogacy_multiplier", "comparability_multiplier", "total_bound",
    "v_no_surrogacy", "v_surrogacy", "gain",
})

SIZES = {
    "full": {"wide_reps": 4, "narrow_reps": 100, "boot_rows": 1000, "boot_reps": 50, "large_rows": 20000},
    # the self-check's size: every code path, a few seconds per workload
    "tiny": {"wide_reps": 1, "narrow_reps": 5, "boot_rows": 300, "boot_reps": 3, "large_rows": 500},
}

N_SURROGATES = 10
N_COVARIATES = 3


@dataclass
class OpOutcome:
    """What one op attempted, how much of it failed, and whether its outputs passed the checks."""

    attempted: int
    failed: int
    ok: bool
    replications: int = 0
    summary: dict | None = None
    problem: str = ""


def draw_cli_rows(rng: np.random.Generator, n: int):
    """One seeded sample with covariates: ``(w, y, s, x)``.

    x ~ N(0, I_3); treatment is logistic in x; each surrogate is shifted by
    treatment and by x; the binary outcome is logistic in (s, x).  Every
    coefficient is small, so no ridge-free logistic fit on these rows
    separates.
    """
    x = rng.standard_normal((n, N_COVARIATES))
    w = (rng.random(n) < expit(x @ np.array([0.4, 0.0, -0.4]))).astype(float)
    shift = np.linspace(0.6, 0.1, N_SURROGATES)
    loading = 0.3 * np.cos(np.add.outer(np.arange(N_COVARIATES), np.arange(N_SURROGATES)))
    s = w[:, None] * shift + x @ loading + rng.standard_normal((n, N_SURROGATES))
    gamma = np.linspace(0.5, -0.2, N_SURROGATES) / math.sqrt(N_SURROGATES)
    y = (rng.random(n) < expit(s @ gamma + x @ np.array([-0.3, 0.0, 0.3]))).astype(float)
    return w, y, s, x


def _write_inputs(rng, n: int, stem: Path) -> tuple[str, str, str]:
    """Experimental, observational and single-sample CSVs of ``n`` rows each."""
    paths = tuple(f"{stem}_{part}.csv" for part in ("exp", "obs", "single"))
    w, _, s, x = draw_cli_rows(rng, n)
    write_experimental(ExperimentalSample(w=w, s=s, x=x), paths[0])
    _, y, s, x = draw_cli_rows(rng, n)
    write_observational(ObservationalSample(y=y, s=s, x=x), paths[1])
    w, y, s, x = draw_cli_rows(rng, n)
    write_single(SingleSample(w=w, y=y, s=s, x=x), paths[2])
    return paths


def _leaves(payload, prefix=""):
    if isinstance(payload, dict):
        for key, value in payload.items():
            yield from _leaves(value, f"{prefix}{key}.")
    else:
        yield prefix[:-1], payload


def _compare(summary: dict, reference: dict) -> str:
    """Empty when ``summary`` matches ``reference``; otherwise the first difference."""
    if summary.keys() != reference.keys():
        return f"fields differ from the reference: {sorted(summary.keys() ^ reference.keys())}"
    for key, want in reference.items():
        got = summary[key]
        if isinstance(want, float) or isinstance(got, float):
            if got is None or want is None or abs(got - want) > REFERENCE_TOLERANCE:
                return f"{key}: {got!r} differs from the reference {want!r}"
        elif got != want:
            return f"{key}: {got!r} differs from the reference {want!r}"
    return ""


class Workload:
    """A rotation of ops over inputs prepared (untimed) from the seed."""

    name = ""
    kind = ""  # "mc" or "cmd"
    cycle = 1  # ops per rotation
    period = 1  # ops after which the inputs repeat

    def __init__(self, seed: int, size: dict, workdir: Path, reference: dict | None):
        self.seed = seed
        self.size = size
        self.workdir = workdir
        self.reference = reference

    def prepare(self) -> None:
        """Build the inputs; not timed."""

    def call(self, k: int):
        """Run op ``k``; the only timed part of an op."""
        raise NotImplementedError

    def summarize(self, k: int, raw) -> tuple[int, int, dict, str]:
        """``(attempted, failed, summary, problem)`` for op ``k`` on any seed.

        ``failed`` counts failures the output reports (estimator-replications
        of a study); a ``problem`` adds one more in :meth:`check`.
        """
        raise NotImplementedError

    def check(self, k: int, raw) -> OpOutcome:
        attempted, failed, summary, problem = self.summarize(k, raw)
        if not problem and self.reference is not None:
            problem = _compare(summary, self.reference[str(k % self.period)])
        ok = not problem
        replications = attempted // 2 if self.kind == "mc" else 0
        # an op that fails its check counts once more in the failures
        return OpOutcome(attempted, failed + (0 if ok else 1), ok, replications, summary, problem)


class _MonteCarlo(Workload):
    """``run_study`` over one grid point per op, rotating through ``points``."""

    kind = "mc"
    points: tuple = ()
    reps_key = ""
    seeds_per_point = 4

    def __init__(self, *args):
        super().__init__(*args)
        self.cycle = len(self.points)
        self.period = self.cycle * self.seeds_per_point
        self.reps = self.size[self.reps_key]

    def study_seed(self, k: int) -> int:
        return self.seed * 100 + (k // self.cycle) % self.seeds_per_point

    def call(self, k: int):
        study, value = self.points[k % self.cycle]
        return simulation.run_study(study, reps=self.reps, seed=self.study_seed(k), grid=[value])

    def summarize(self, k, rows):
        summary, failures, problem = {}, 0, ""
        if len(rows) != 2:
            return 2 * self.reps, 0, summary, f"expected 2 rows, got {len(rows)}"
        for row in rows:
            name = row["estimator"]
            for key in ("abs_bias_x100", "sd_x100", "true_tau"):
                value = float(row[key])
                summary[f"{name}.{key}"] = value
                if not math.isfinite(value):
                    problem = problem or f"{name}.{key} is not finite"
            summary[f"{name}.failures"] = int(row["failures"])
            failures += int(row["failures"])
            if row["reps"] != self.reps or not 0 <= row["failures"] < self.reps:
                problem = problem or f"{name}: reps={row['reps']} failures={row['failures']}"
        return 2 * self.reps, failures, summary, problem


class McWide(_MonteCarlo):
    name = "mc-wide"
    points = (("misspecification", 250), ("dimension", 200))
    reps_key = "wide_reps"


class McNarrow(_MonteCarlo):
    name = "mc-narrow"
    points = (("sample_size", 0.05), ("sample_size", 0.5), ("sample_size", 0.95),
              ("explanatory", 1), ("explanatory", 4))
    reps_key = "narrow_reps"


class _Commands(Workload):
    """``cli.main`` commands, one per op, writing JSON with ``--out``."""

    kind = "cmd"
    bootstrap = False
    stream = 0  # seed-stream tag of the inputs
    rows_key = ""
    latency_positions = None  # rotation positions cmd_p50_s times; None: all

    def prepare(self):
        rng = np.random.default_rng(np.random.SeedSequence((self.seed, self.stream)))
        self.exp, self.obs, self.single = _write_inputs(rng, self.size[self.rows_key], self.workdir / self.name)

    def argv(self, k: int) -> list[str]:
        raise NotImplementedError

    def diagnostics_argv(self) -> list[list[str]]:
        return [
            ["diagnose", "--exp", self.exp, "--obs", self.obs, "--delta-s", "1", "--delta-c", "1"],
            ["bounds", "--single", self.single, "--variance-mode", "homoskedastic"],
        ]

    def out_path(self, k: int) -> str:
        return str(self.workdir / f"out-{k % self.period}.json")

    def call(self, k: int):
        return cli.main(self.argv(k) + ["--out", self.out_path(k)])

    def summarize(self, k, code):
        if code != 0:
            return 1, 0, {}, f"exit code {code}"
        try:
            with open(self.out_path(k), encoding="utf-8") as fh:
                payload = json.load(fh)
        except (OSError, ValueError) as err:
            return 1, 0, {}, f"--out file unreadable: {err}"
        summary, problem = {}, ""
        for key, value in _leaves(payload):
            leaf = key.rsplit(".", 1)[-1]
            if isinstance(value, float) and not math.isfinite(value):
                problem = problem or f"{key} is not finite"
            if leaf == "se_bootstrap" and not self.bootstrap:
                continue
            if leaf in _ESTIMATE_KEYS:
                if not isinstance(value, float):
                    problem = problem or f"{key} is {value!r}, not a number"
                summary[key] = value
            elif ".n_used." in f".{key}":
                summary[key] = value
        if not summary:
            problem = problem or "no estimate in the output"
        return 1, 0, summary, problem


class EstimateBootstrap(_Commands):
    """The bootstrap estimate, then ``diagnose`` and ``bounds`` on the same rows.

    The two short commands (about 2% of a rotation) bring the diagnostics
    layer and the single-sample arm regressions into a gated workload;
    ``cmd_p50_s`` times the ``estimate`` commands alone.
    """

    name = "estimate-bootstrap"
    cycle = 3
    period = 12  # four bootstrap seeds
    bootstrap = True
    stream, rows_key = 3, "boot_rows"
    latency_positions = (0,)

    def argv(self, k):
        if k % self.cycle:
            return self.diagnostics_argv()[k % self.cycle - 1]
        return ["estimate", "--exp", self.exp, "--obs", self.obs, "--method", "all",
                "--bootstrap", str(self.size["boot_reps"]), "--seed", str(k // self.cycle % 4)]


class CliLarge(_Commands):
    name = "cli-large"
    cycle = period = 5
    stream, rows_key = 4, "large_rows"

    def argv(self, k):
        pair = ["--exp", self.exp, "--obs", self.obs]
        return (
            ["estimate", *pair, "--method", "index"],
            ["estimate", *pair, "--method", "score"],
            ["estimate", *pair, "--method", "linear"],
            *self.diagnostics_argv(),
        )[k % self.cycle]


WORKLOADS = {w.name: w for w in (McWide, McNarrow, EstimateBootstrap, CliLarge)}
