import os

import numpy as np
import pytest

from surrogate_ate import ExperimentalSample, ObservationalSample, SingleSample


class FixedScore:
    """Test stub: a 'fitted score' that returns prescribed per-row values."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    def predict(self, s, x=None):
        n = np.atleast_2d(np.asarray(s)).shape[0]
        assert n == len(self.values)
        return self.values.copy()

    def to_dict(self):
        return {"type": "fixed", "values": self.values.tolist()}


class FixedIndex(FixedScore):
    pass


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def small_exp():
    return ExperimentalSample(
        w=[1, 0, 1, 0, 1, 0],
        s=[[0.5], [-0.2], [1.1], [0.3], [-0.4], [0.9]],
        x=[[1.0], [0.0], [0.5], [1.5], [-0.5], [0.2]],
    )


@pytest.fixture
def small_obs():
    return ObservationalSample(
        y=[1.0, 0.0, 2.0, 1.5, -0.5, 0.7, 1.2, 0.1],
        s=[[0.4], [-0.1], [1.2], [0.8], [-0.6], [0.5], [1.0], [0.0]],
        x=[[0.9], [0.1], [0.6], [1.2], [-0.3], [0.4], [0.8], [1.1]],
    )


@pytest.fixture
def small_single():
    return SingleSample(
        w=[1, 1, 1, 1, 0, 0, 0, 0],
        y=[3.0, 4.0, 5.0, 4.0, 1.0, 2.0, 1.0, 2.0],
        s=[[1.0], [1.2], [1.4], [1.1], [0.2], [0.4], [0.1], [0.3]],
        x=None,
    )


@pytest.fixture
def serial_maps(monkeypatch):
    """Every ``ordered_map`` runs in this process, in item order.

    For tests that number replicates by counting calls: a counter in a
    worker process counts only that worker's chunk.
    """
    monkeypatch.setenv("SURROGATE_THREADS", "1")


@pytest.fixture
def process_pools(monkeypatch):
    """Worker counts of the maps that forked workers during the test, with three CPUs available.

    Three CPUs are reported whatever the machine has, so a determinism test
    compares real worker processes with a serial run even on one CPU.  A
    worker is counted here when ``os.fork`` returns its pid; since a map
    reaps all its workers before it returns, a fork while no counted child
    is left unreaped starts the next map.
    """
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

    monkeypatch.setattr(os, "fork", recording_fork)
    monkeypatch.setattr(os, "waitpid", recording_waitpid)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(3)), raising=False)
    return sizes
