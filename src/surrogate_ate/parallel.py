"""Deterministic worker-pool and seed-stream helpers.

Bootstrap replicates and Monte Carlo replications run in worker processes.
The ``SURROGATE_THREADS`` environment variable sets how many; unset, it
means the CPUs available to the process.  A map never uses more workers
than it has items or than there are CPUs available, whatever the value.
Each work item is a pure function of its own seed stream
(:func:`seed_sequence`), and results come back in item order, so output is
byte-identical for any value.

Workers are started with the ``fork`` method, so they inherit the imported
package and the map's function and items instead of importing and
unpickling them again; only chunk bounds go out and result lists come back.
Where ``fork`` is unavailable, and inside a worker, a map runs serially.

Importing this module, which every import of the package does, sets
OpenBLAS to one thread for the whole process, and forked workers inherit
that setting.  BLAS results can depend on its thread count, so this keeps
every result independent of the machine's CPU count, and a BLAS pool per
worker would oversubscribe the CPUs.  A library user's own numpy work in
the same process also runs at one BLAS thread.
"""

from __future__ import annotations

import ctypes
import os
import signal
from typing import Callable, Iterable, TypeVar

import numpy as np

from .errors import ValidationError

T = TypeVar("T")
R = TypeVar("R")

# ``(fn, items)`` of the map being run; forked workers inherit it.
_WORK: tuple[Callable, list] | None = None
# True in a worker process, whose maps run serially.
_IN_WORKER = False

_PR_SET_PDEATHSIG = 1  # from <linux/prctl.h>


def seed_sequence(seed: int, *stream: int) -> np.random.SeedSequence:
    """The seed stream ``(seed, *stream)``; a negative ``seed`` is a ``ValidationError``."""
    if seed < 0:
        raise ValidationError(f"seed must be non-negative, got {seed}")
    return np.random.SeedSequence((seed, *stream))


def worker_count() -> int:
    """``SURROGATE_THREADS`` (default: the CPUs available to the process), at least 1 and at most those CPUs."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    try:
        n = int(os.environ.get("SURROGATE_THREADS", cpus))
    except ValueError:
        return 1
    return max(1, min(n, cpus))


def _openblas_libraries() -> list[str]:
    """Paths of the OpenBLAS libraries mapped into this process; empty where that cannot be read."""
    try:
        with open("/proc/self/maps", encoding="utf-8", errors="replace") as maps:
            return sorted({line.split(maxsplit=5)[5].strip() for line in maps if "openblas" in line})
    except OSError:
        return []


def _openblas_threads():
    """``(get, set)`` for the loaded OpenBLAS's thread count, or ``None`` where none is found.

    OpenBLAS builds may prefix and suffix the symbols (numpy's wheels ship
    ``scipy_openblas_set_num_threads64_``), so each known spelling is tried.
    """
    for path in _openblas_libraries():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("", "scipy_"):
            for suffix in ("", "64_"):
                get = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
                set_ = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}", None)
                if get is not None and set_ is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    set_.argtypes, set_.restype = [ctypes.c_int], None
                    return get, set_
    return None


def _pin_one_blas_thread() -> None:
    """Set the loaded OpenBLAS to one thread, where an OpenBLAS is found."""
    found = _openblas_threads()
    if found is not None:
        _, set_threads = found
        set_threads(1)


_pin_one_blas_thread()


def _fork_context():
    """The ``fork`` start method's context, or ``None`` where the platform has none."""
    from multiprocessing import get_context

    try:
        return get_context("fork")
    except ValueError:
        return None


def _start_worker(parent: int) -> None:
    global _IN_WORKER
    _IN_WORKER = True
    # A worker whose parent is killed would wait for work forever, since it
    # holds the work queue open itself; on Linux, ask for SIGTERM instead.
    try:
        ctypes.CDLL(None).prctl(_PR_SET_PDEATHSIG, ctypes.c_ulong(signal.SIGTERM))
    except (AttributeError, OSError):
        pass
    if os.getppid() != parent:  # the parent died before prctl took effect
        os._exit(1)


def _run_chunk(start: int, stop: int) -> list:
    fn, items = _WORK
    return [fn(item) for item in items[start:stop]]


def ordered_map(fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
    """Apply ``fn`` to ``items`` in worker processes, one contiguous chunk each; results in item order.

    An exception raised by ``fn`` reaches the caller with its type and
    message; a worker that dies raises ``BrokenProcessPool``.
    """
    global _WORK
    items = list(items)
    workers = min(worker_count(), len(items))
    context = _fork_context() if workers > 1 and not _IN_WORKER else None
    if context is None:
        return [fn(item) for item in items]
    from concurrent.futures import ProcessPoolExecutor

    bounds = [len(items) * k // workers for k in range(workers + 1)]
    _WORK = (fn, items)
    try:
        with ProcessPoolExecutor(workers, mp_context=context, initializer=_start_worker,
                                 initargs=(os.getpid(),)) as pool:
            chunks = [pool.submit(_run_chunk, a, b) for a, b in zip(bounds, bounds[1:])]
            return [result for chunk in chunks for result in chunk.result()]
    finally:
        _WORK = None
