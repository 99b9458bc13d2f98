"""Deterministic worker-pool and seed-stream helpers.

The ``SURROGATE_THREADS`` environment variable caps worker parallelism for
bootstrap replicates and Monte Carlo replications.  A map never uses more
worker threads than it has items or than there are CPUs available to the
process, whatever the value.  Each work item is a pure
function of its own seed stream (:func:`seed_sequence`), and results are
collected in submission order, so output is bit-identical for any thread
count.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, TypeVar

import numpy as np

from .errors import ValidationError

T = TypeVar("T")
R = TypeVar("R")


def seed_sequence(seed: int, *stream: int) -> np.random.SeedSequence:
    """The seed stream ``(seed, *stream)``; a negative ``seed`` is a ``ValidationError``."""
    if seed < 0:
        raise ValidationError(f"seed must be non-negative, got {seed}")
    return np.random.SeedSequence((seed, *stream))


def worker_count() -> int:
    """``SURROGATE_THREADS`` (default 1), at least 1 and at most the CPUs available to the process."""
    try:
        n = int(os.environ.get("SURROGATE_THREADS", "1"))
    except ValueError:
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return max(1, min(n, cpus))


def ordered_map(fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
    """Apply ``fn`` to ``items``, preserving order regardless of worker count."""
    items = list(items)
    workers = min(worker_count(), len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
