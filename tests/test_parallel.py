import os

import pytest

from surrogate_ate import parallel


class _RecordingExecutor:
    """Stands in for ThreadPoolExecutor: records the pool size and maps in the calling thread."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.fixture
def recorder(monkeypatch):
    _RecordingExecutor.sizes = []
    monkeypatch.setattr(parallel, "ThreadPoolExecutor", _RecordingExecutor)
    return _RecordingExecutor.sizes


def _cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


@pytest.mark.parametrize("threads, cpus, items, size", [
    ("100000", 4, 16, 4),
    ("100000", 64, 16, 16),
    ("2000", 2, 2000, 2),
    ("3", 64, 16, 3),
    ("100000", 4, 3, 3),
])
def test_pool_never_exceeds_items_or_cpus(monkeypatch, recorder, threads, cpus, items, size):
    monkeypatch.setenv("SURROGATE_THREADS", threads)
    _cpus(monkeypatch, cpus)
    assert parallel.ordered_map(lambda i: i * i, range(items)) == [i * i for i in range(items)]
    assert recorder == [size]


@pytest.mark.parametrize("threads, cpus, items", [
    ("100000", 1, 16),
    ("100000", 8, 1),
    ("1", 8, 16),
    ("0", 8, 16),
    ("-4", 8, 16),
    ("many", 8, 16),
])
def test_one_worker_maps_without_a_pool(monkeypatch, recorder, threads, cpus, items):
    monkeypatch.setenv("SURROGATE_THREADS", threads)
    _cpus(monkeypatch, cpus)
    assert parallel.ordered_map(str, range(items)) == [str(i) for i in range(items)]
    assert recorder == []


@pytest.mark.parametrize("threads, cpus, expected", [
    ("100000", 2, 2), ("2", 8, 2), ("1", 8, 1), ("0", 8, 1), ("x", 8, 1), (None, 8, 1),
])
def test_worker_count_is_capped_by_the_cpus(monkeypatch, threads, cpus, expected):
    if threads is None:
        monkeypatch.delenv("SURROGATE_THREADS", raising=False)
    else:
        monkeypatch.setenv("SURROGATE_THREADS", threads)
    _cpus(monkeypatch, cpus)
    assert parallel.worker_count() == expected
