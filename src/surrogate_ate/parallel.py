"""Deterministic worker-pool and seed-stream helpers.

The ``SURROGATE_THREADS`` environment variable caps worker parallelism for
bootstrap replicates and Monte Carlo replications.  Each work item is a pure
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
    raw = os.environ.get("SURROGATE_THREADS", "1")
    try:
        n = int(raw)
    except ValueError:
        return 1
    return max(1, n)


def ordered_map(fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
    """Apply ``fn`` to ``items``, preserving order regardless of worker count."""
    items = list(items)
    workers = worker_count()
    if workers == 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
