"""Deterministic worker-process and seed-stream helpers.

Bootstrap replicates and Monte Carlo replications run in worker processes.
The ``SURROGATE_THREADS`` environment variable sets how many, as a
positive decimal integer; unset or empty, it means the CPUs available to
the process, and any other value raises :class:`ConfigurationError`
(:func:`worker_count`).  Every command-line command checks it before any
input is read, whether or not it runs a map, and a map checks it when it
starts, before any item runs.  A map never uses more workers
than it has items or than there are CPUs available, whatever the value.
Each work item is a pure function of its own seed stream
(:func:`seed_sequence`), and results come back in item order, so output is
byte-identical for any value.

Workers are plain ``os.fork`` children, so they inherit the imported
package and the map's function and items instead of importing and
unpickling them again.  There is no executor: each worker claims ranges of
items from a pipe that the parent filled before forking, runs them and
sends its results back once; the parent runs no item.  Where ``os.fork``
is unavailable, and inside a worker, a map runs serially.

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
import pickle
import signal
import sys
from collections.abc import Sequence
from typing import Callable, Iterable, NoReturn, TypeVar

import numpy as np

from .errors import ConfigurationError, ValidationError, WorkerError

T = TypeVar("T")
R = TypeVar("R")

# True in a worker process, whose maps run serially.
_IN_WORKER = False

_PR_SET_PDEATHSIG = 1  # from <linux/prctl.h>

# A claim is the 4-byte start index of a range of items.  At most 1024 of
# them fill one 4 KiB page, the least a Linux pipe holds, so the parent's
# single write of every claim never blocks.
_CLAIM_BYTES = 4
_MAX_CLAIMS = 1024


def seed_sequence(seed: int, *stream: int) -> np.random.SeedSequence:
    """The seed stream ``(seed, *stream)``; a negative ``seed`` is a ``ValidationError``."""
    if seed < 0:
        raise ValidationError(f"seed must be non-negative, got {seed}")
    return np.random.SeedSequence((seed, *stream))


def worker_count() -> int:
    """``SURROGATE_THREADS``, at most the CPUs available to the process; unset or empty, those CPUs.

    A value that is not a positive decimal integer raises :class:`ConfigurationError`.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    value = os.environ.get("SURROGATE_THREADS", "")
    if not value:
        return cpus
    if not (value.isascii() and value.isdigit()) or int(value) == 0:
        raise ConfigurationError(f"SURROGATE_THREADS must be a positive decimal integer, got {value!r}")
    return min(int(value), cpus)


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


class _RemoteTraceback(Exception):
    """The cause attached to an exception raised in a worker: the worker's formatted traceback."""


def _result_slots(n: int) -> list:
    """``n`` empty result slots: the one allocation of a map that grows with its item count.

    Raises ``MemoryError`` before allocating when the slots alone would
    need more memory than the machine has free, or more items than a
    claim's 4-byte start index can name.
    """
    try:
        free = os.sysconf("SC_AVPHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):  # no such sysconf name here: let the allocation decide
        free = None
    if n >= 1 << 8 * _CLAIM_BYTES or (free is not None and 8 * n > free):
        raise MemoryError
    return [None] * n


def _work(parent: int, fn: Callable, items: Sequence, step: int, claims: int, out: int) -> NoReturn:
    """A forked worker: run claims until the claim pipe is empty, send the results on ``out``, exit."""
    global _IN_WORKER
    _IN_WORKER = True
    code = 0
    try:
        # The parent ends its workers itself on an interrupt or an error.
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        # A worker whose parent is killed would run its claims for no one;
        # on Linux, ask for SIGTERM instead.
        try:
            ctypes.CDLL(None).prctl(_PR_SET_PDEATHSIG, ctypes.c_ulong(signal.SIGTERM))
        except (AttributeError, OSError):
            pass
        if os.getppid() != parent:  # the parent died before prctl took effect
            code = 1
            return
        index, done = -1, []
        try:
            while claim := os.read(claims, _CLAIM_BYTES):
                start = int.from_bytes(claim, "little")
                for index in range(start, min(start + step, len(items))):
                    done.append((index, fn(items[index])))
        except BaseException as error:
            # Take every claim left: the other workers stop after their
            # current claim, and the parent raises the lowest failing item.
            while os.read(claims, 4096):
                pass
            import traceback

            done = (index, error, "".join(traceback.format_exception(error)))
        try:
            payload = pickle.dumps(done)
        except Exception as error:  # a result or an error that pickle cannot send
            error = WorkerError(f"a worker process cannot send its results: {type(error).__name__}: {error}")
            payload = pickle.dumps((done[0] if isinstance(done, tuple) else done[0][0], error, ""))
        with open(out, "wb") as stream:
            stream.write(payload)
    except BaseException:
        # The parent reports the exit status; say why here.
        code = 1
        import traceback

        traceback.print_exc()
    finally:
        for stream in (sys.stdout, sys.stderr):
            try:
                stream.flush()
            except (AttributeError, OSError, ValueError):
                pass
        os._exit(code)


def ordered_map(fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
    """Apply ``fn`` to ``items`` in forked worker processes; results in item order.

    A sequence of items (a ``range``, say) is indexed as it is, never
    listed; other iterables are listed first.  The results' slots are
    allocated before any item runs: a count whose slots the machine's free
    memory cannot hold raises :class:`ConfigurationError` at once, so a
    huge ``--reps`` or ``--bootstrap`` ends as a typed error rather than a
    ``MemoryError``.

    There is no executor.  The items are cut into at most 1024 claims,
    contiguous ranges of equal length, which the parent writes into a pipe
    as 4-byte start indices before it forks the workers.  Each worker reads
    one claim at a time until the pipe is empty, so a worker that is free
    takes the next range, and sends all its results back once, over its own
    pipe.  The parent runs no item: it places the results by index as the
    pipes become readable and reaps every worker before it returns.

    An exception raised by ``fn`` reaches the caller with its type and
    message, and the worker's traceback as its cause; when several items
    raise, the one of lowest index is raised, as in a serial map.  A worker
    that dies (as under the kernel's out-of-memory killer), or a result that
    pickle cannot send, raises :class:`WorkerError` at once, and the other
    workers are ended.  When ``os.fork`` fails (``EAGAIN``, say), the
    workers started already run every item, and with none the map runs
    serially; the results are the same either way.
    """
    if not isinstance(items, Sequence):
        items = list(items)
    try:
        results = _result_slots(len(items))
    except MemoryError:
        raise ConfigurationError(
            f"{len(items)} work items need more memory for their results than this machine has free; use fewer"
        ) from None
    workers = min(worker_count(), len(items))
    if workers < 2 or _IN_WORKER or not hasattr(os, "fork"):
        return _serial(fn, items, results)
    import select

    step = -(-len(items) // _MAX_CLAIMS)
    claims, claims_in = os.pipe()
    try:
        # at most 4 KiB: one write that a pipe takes whole, before any reader starts
        os.write(claims_in, b"".join(i.to_bytes(_CLAIM_BYTES, "little") for i in range(0, len(items), step)))
    finally:
        os.close(claims_in)
    # A child flushes its copy of these buffers when it exits; empty them first.
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            stream.flush()
    # pids and received are keyed by each worker's result pipe
    parent, pids, received, failures = os.getpid(), {}, {}, []
    finished = False
    try:
        for _ in range(workers):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # EAGAIN, say: the workers started already take every claim
                for fd in (read, write):
                    os.close(fd)
                break
            if pid == 0:
                for fd in (*received, read):
                    os.close(fd)
                _work(parent, fn, items, step, claims, write)
            os.close(write)
            received[read], pids[read] = [], pid
        if not pids:
            return _serial(fn, items, results)
        poller = select.poll()
        for fd in received:
            poller.register(fd, select.POLLIN)
        while received:
            for fd, _ in poller.poll():
                chunk = os.read(fd, 1 << 16)
                if chunk:
                    received[fd].append(chunk)
                    continue
                poller.unregister(fd)
                os.close(fd)
                try:
                    sent = pickle.loads(b"".join(received.pop(fd)))
                except (EOFError, pickle.UnpicklingError):  # the worker died before it sent all its results
                    pid = pids.pop(fd)
                    message = f"worker process {pid} ended without sending its results: {_ended(pid)}"
                    raise WorkerError(message) from None
                if isinstance(sent, list):
                    for index, result in sent:
                        results[index] = result
                else:
                    failures.append(sent)
        if failures:
            _, error, text = min(failures, key=lambda failure: failure[0])
            raise error from _RemoteTraceback(f'\n"""\n{text}"""')
        finished = True
        return results
    finally:
        for fd in received:
            os.close(fd)
        os.close(claims)
        for pid in pids.values():
            try:
                if not finished:
                    os.kill(pid, signal.SIGTERM)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):  # reaped already, as under SIGCHLD=SIG_IGN
                pass


def _serial(fn: Callable, items: Sequence, results: list) -> list:
    """Run every item in this process, in order, into ``results``."""
    for index, item in enumerate(items):
        results[index] = fn(item)
    return results


def _ended(pid: int) -> str:
    """How the worker ``pid`` ended, from the status that reaping it returns."""
    try:
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    except ChildProcessError:  # reaped already, as under SIGCHLD=SIG_IGN
        return "its exit status is lost"
    oom = ", which usually means the machine ran out of memory" if code == -signal.SIGKILL else ""
    return f"it exited with status {code}" if code >= 0 else f"it was killed by {signal.Signals(-code).name}{oom}"
