"""Benchmark of the surrogate-ate package, end to end and layer by layer.

Usage (from the repository root)::

    python3 bench/run_bench.py --workload mc-wide --seed 0 --seconds 20 --trace 0

One client runs a closed loop in this process: each op (a ``run_study``
call or a ``cli.main`` command) starts only after the previous one ended.
Ops run in whole rotations of the workload's op mix until ``--seconds``
have passed.  BLAS and OpenMP pools are pinned to one thread and
``SURROGATE_THREADS`` is removed, so the package runs its default worker
count.

``--trace 0`` measures the end-to-end metrics with no wrappers installed.
``--trace 1`` runs each rotation twice, untraced and then with the span
wrappers (``tracing.py``) installed; it reports the per-layer metrics of
the traced rotations and their slowdown against the untraced ones.  Report
lines go to standard output and the last line is one JSON object with the
metrics named in ``BENCHMARK.json``.  Exit code 0 means every op ran; outputs that fail
their checks are reported with ``"correct": false``.
"""

from __future__ import annotations

import os
import sys

# Pin native thread pools before numpy is imported; measure the package's
# default worker count.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
_SURROGATE_THREADS = os.environ.pop("SURROGATE_THREADS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# The gated end-to-end metrics (BENCHMARK.json), present on every workload.
END_TO_END = [("cycle_p50_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s")]

# Every reported end-to-end metric and the workload kinds or names it applies to.
REPORTED = {
    "mc_reps_per_s": ("1/s", {"mc"}),
    "cmd_p50_s": ("s", {"cmd"}),
    "cmd_tail_s": ("s", {"cli-large"}),
    "failed_frac": ("frac", {"mc", "cmd"}),
    "peak_rss_mb": ("MB", {"mc", "cmd"}),
    "setup_s": ("s", {"mc", "cmd"}),
    "cycle_p50_s": ("s", {"mc", "cmd"}),
}

SETUP_IMPORTS = 5
SETUP_TIMEOUT_S = 60


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input size; 'tiny' is the self-check's, with no reference comparison")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def git_sha() -> str | None:
    """Commit of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "SURROGATE_THREADS": _SURROGATE_THREADS,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "MKL_NUM_THREADS": os.environ.get("MKL_NUM_THREADS"),
        "git_sha": git_sha(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
    }


def measure_setup() -> float:
    """Median wall time for a fresh interpreter to import the package and its CLI."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "import surrogate_ate, surrogate_ate.cli"]
    times = []
    for i in range(SETUP_IMPORTS + 1):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, check=True, timeout=SETUP_TIMEOUT_S, cwd=ROOT)
        if i:  # the first import may write bytecode caches
            times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Run:
    """Op times and check outcomes of one pass over a workload."""

    def __init__(self):
        self.op_times: list[float] = []
        self.cycle_times: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.replications = 0
        self.problems: list[str] = []
        self.peak_rss_mb = 0.0  # over the first rotation, so it does not grow with speed

    @property
    def correct(self) -> bool:
        return not self.problems


def run_rotation(workload, run: Run, first: int, tracer=None) -> None:
    """Run ops ``first`` .. ``first + cycle - 1`` and record them in ``run``."""
    cycle_time = 0.0
    for k in range(first, first + workload.cycle):
        span = tracer.span("op", op=k) if tracer else nullcontext()
        raw, error = None, None
        with span:
            t0 = time.perf_counter()
            try:
                raw = workload.call(k)
            except Exception:  # the op failed; count it and keep running
                error = traceback.format_exc(limit=3)
            dt = time.perf_counter() - t0
        run.op_times.append(dt)
        cycle_time += dt
        if error is None:
            outcome = workload.check(k, raw)
            run.attempted += outcome.attempted
            run.failed += outcome.failed
            run.replications += outcome.replications
            if not outcome.ok:
                run.problems.append(f"op {k}: {outcome.problem}")
        else:
            units = 2 * workload.reps if workload.kind == "mc" else 1
            run.attempted += units
            run.failed += units
            run.problems.append(f"op {k} raised: {error}")
    run.cycle_times.append(cycle_time)
    if len(run.cycle_times) == 1:
        run.peak_rss_mb = peak_rss_mb()


def run_pass(workload, seconds: float) -> Run:
    """Untraced whole rotations until ``seconds`` have passed."""
    run = Run()
    started = time.perf_counter()
    while True:
        run_rotation(workload, run, len(run.cycle_times) * workload.cycle)
        if time.perf_counter() - started >= seconds:
            return run


def run_traced(workload, seconds: float, tracer) -> tuple[Run, Run]:
    """Each rotation untraced, then traced, until ``seconds`` have passed.

    Both runs do the same ops in the same order, so drift in the host's
    speed falls on both alike.  Returns ``(untraced, traced)``.
    """
    plain, traced = Run(), Run()
    started = time.perf_counter()
    while True:
        first = len(plain.cycle_times) * workload.cycle
        run_rotation(workload, plain, first)
        uninstall = tracing.install(tracer)
        try:
            run_rotation(workload, traced, first, tracer)
        finally:
            uninstall()
        if time.perf_counter() - started >= seconds:
            return plain, traced


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def report(name: str, value, unit: str, note: str = "") -> None:
    shown = "n/a" if value is None else f"{value:.6g}"
    print(f"metric {name:<40} {shown:>14} {unit}{'  ' + note if note else ''}")


def end_to_end(workload, run: Run, setup_s: float) -> dict:
    values = {
        "cycle_p50_s": statistics.median(run.cycle_times),
        "peak_rss_mb": run.peak_rss_mb,
        "setup_s": setup_s,
        "failed_frac": run.failed / run.attempted,
    }
    if workload.kind == "mc":
        values["mc_reps_per_s"] = run.replications / sum(run.op_times)
    else:
        positions = workload.latency_positions
        commands = [t for k, t in enumerate(run.op_times)
                    if positions is None or k % workload.cycle in positions]
        values["cmd_p50_s"] = statistics.median(commands)
    for name, (unit, applies) in REPORTED.items():
        if workload.kind not in applies and workload.name not in applies:
            continue
        if name == "cmd_tail_s":
            found = tracing.tail(commands)
            note = (f"p{found[1]:.1f} of n={found[2]} commands" if found
                    else f"n={len(commands)} commands; needs 11")
            report(name, found[0] if found else None, unit, note)
        elif name == "cycle_p50_s":
            report(name, values[name], unit, f"median of n={len(run.cycle_times)} rotations")
        else:
            report(name, values[name], unit)
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "surrogate_ate" / "__init__.py").is_file():
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    print("env " + json.dumps(environment(args), sort_keys=True))
    reference = None
    if args.size == "full" and args.seed == workloads.DEFAULT_SEED:
        with open(BENCH_DIR / "reference.json", encoding="utf-8") as fh:
            reference = json.load(fh)[args.workload]

    work_root = ROOT / ".bench_run"
    workdir = work_root / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](
            args.seed, workloads.SIZES[args.size], workdir, reference)
        workload.prepare()
        if args.trace == 0:
            setup_s = measure_setup()
            run = run_pass(workload, args.seconds)
            metrics = end_to_end(workload, run, setup_s)
        else:
            tracer = tracing.Tracer()
            plain, run = run_traced(workload, args.seconds, tracer)
            tracer.write(work_root / f"spans-{args.workload}-seed{args.seed}.jsonl")
            run.problems += plain.problems
            run.attempted += plain.attempted
            run.failed += plain.failed
            overhead = sum(run.op_times) / sum(plain.op_times) - 1.0
            layer = tracing.layer_metrics(tracer.spans, overhead)
            for name, unit in tracing.LAYER_METRICS:
                report(name, layer[name], unit)
            report("failed_frac", run.failed / run.attempted, "frac")
            metrics = {name: {"value": layer[name], "unit": unit} for name, unit in tracing.LAYER_METRICS}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in run.problems:
        print(f"check failed: {problem}")
    print(json.dumps({"correct": run.correct, "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
