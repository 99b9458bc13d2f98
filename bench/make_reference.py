"""Write ``reference.json``: the outputs of every op of every workload on the default seed.

Usage (from the repository root)::

    python3 bench/make_reference.py

Run it only when the package's outputs are meant to change, and say why in
the change that commits the new file: the benchmark compares each op of a
default-seed run against these values.
"""

from __future__ import annotations

import json
import shutil
import sys

import run_bench  # pins thread pools before numpy loads

sys.path.insert(0, str(run_bench.SRC))

import workloads  # noqa: E402


def main() -> int:
    reference = {}
    workdir = run_bench.ROOT / ".bench_run" / "reference"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for name, cls in workloads.WORKLOADS.items():
            workload = cls(workloads.DEFAULT_SEED, workloads.SIZES["full"], workdir, None)
            workload.prepare()
            ops = {}
            for k in range(workload.period):
                outcome = workload.check(k, workload.call(k))
                if not outcome.ok:
                    print(f"error: {name} op {k}: {outcome.problem}", file=sys.stderr)
                    return 1
                ops[str(k)] = outcome.summary
            reference[name] = ops
            print(f"{name}: {len(ops)} ops")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(run_bench.BENCH_DIR / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
