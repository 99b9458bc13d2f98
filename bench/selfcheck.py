"""Tiny-size self-check of the benchmark; not part of the test suite.

Usage (from the repository root)::

    python3 bench/selfcheck.py

Runs every workload for a few ops at the ``tiny`` size, traced and
untraced, and checks that each prints every metric with its unit, that the
last line is the result object ``BENCHMARK.json`` describes, and that the
benchmark refuses to run without the package sources.  Takes about a
minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
TIMEOUT_S = 180

# The end-to-end metrics each workload reports, with their units.
REPORTED = {
    "mc-wide": {"mc_reps_per_s": "1/s", "failed_frac": "frac", "peak_rss_mb": "MB", "setup_s": "s"},
    "mc-narrow": {"mc_reps_per_s": "1/s", "failed_frac": "frac", "peak_rss_mb": "MB", "setup_s": "s"},
    "estimate-bootstrap": {"cmd_p50_s": "s", "failed_frac": "frac", "peak_rss_mb": "MB", "setup_s": "s"},
    "cli-large": {"cmd_p50_s": "s", "cmd_tail_s": "s", "failed_frac": "frac", "peak_rss_mb": "MB",
                  "setup_s": "s"},
}
ENV_KEYS = {"python", "numpy", "scipy", "blas", "nproc", "SURROGATE_THREADS", "OPENBLAS_NUM_THREADS",
            "OMP_NUM_THREADS", "git_sha", "seed"}


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    cmd = [sys.executable if arg == "python3" else arg for arg in spec["command"]]
    cmd += ["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def printed_metrics(stdout: str) -> dict[str, str]:
    """Metric name -> unit, from the report lines."""
    found = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) >= 4 and parts[0] == "metric":
            found[parts[1]] = parts[3]
    return found


def check_run(workload: str, trace: int, spec: dict) -> list[str]:
    proc = run(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}\n{proc.stderr}"]
    lines = proc.stdout.strip().splitlines()
    errors = []
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("attempted", 0) < 1:
        errors.append(f"{where}: correct={result.get('correct')} attempted={result.get('attempted')}")
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        errors.append(f"{where}: result metrics differ from BENCHMARK.json: {sorted(set(got.items()) ^ set(want.items()))}")
    env = json.loads(next(line[4:] for line in lines if line.startswith("env ")))
    if not ENV_KEYS <= env.keys():
        errors.append(f"{where}: environment lacks {sorted(ENV_KEYS - env.keys())}")
    expected = dict(want)
    if not trace:
        expected.update(REPORTED[workload])
    printed = printed_metrics(proc.stdout)
    for name, unit in expected.items():
        if printed.get(name) != unit:
            errors.append(f"{where}: metric {name} [{unit}] printed as {printed.get(name)!r}")
    return errors


def check_without_sources() -> list[str]:
    """In a directory holding only BENCHMARK.json and the benchmark, it must fail without a result."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bare = ROOT / ".bench_run" / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, spec["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    if proc.returncode == 0 or last[0].startswith("{"):
        return [f"without sources: exit {proc.returncode}, last line {last[0]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    for workload in REPORTED:  # every workload, also those BENCHMARK.json does not gate
        for trace in (0, 1):
            errors += check_run(workload, trace, spec)
            print(f"{workload} --trace {trace}: {'ok' if not errors else 'FAILED'}", flush=True)
    errors += check_without_sources()
    for error in errors:
        print(error)
    print("selfcheck " + ("FAILED" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
