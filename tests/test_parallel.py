import ctypes.util
import errno
import inspect
import json
import os
import re
import subprocess
import sys
import time

import pytest

from surrogate_ate import cli, draw_dataset, errors, make_spec, parallel, write_experimental, write_observational


def _cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


@pytest.mark.parametrize("threads, cpus, items, size", [
    ("100000", 4, 16, 4),
    ("100000", 64, 16, 16),
    ("2000", 2, 2000, 2),
    ("3", 64, 16, 3),
    ("100000", 4, 3, 3),
])
def test_pool_never_exceeds_items_or_cpus(monkeypatch, process_pools, threads, cpus, items, size):
    monkeypatch.setenv("SURROGATE_THREADS", threads)
    _cpus(monkeypatch, cpus)
    results = parallel.ordered_map(lambda i: (i * i, os.getpid()), range(items))
    assert [square for square, _ in results] == [i * i for i in range(items)]
    assert process_pools == [size]
    pids = [pid for _, pid in results]
    assert os.getpid() not in pids
    # a claim is a contiguous range of ceil(items / 1024) items, run by one worker
    step = -(-items // 1024)
    assert all(len(set(pids[start:start + step])) == 1 for start in range(0, items, step))


@pytest.mark.parametrize("threads, cpus, items", [
    ("100000", 1, 16),
    ("100000", 8, 1),
    ("1", 8, 16),
])
def test_one_worker_maps_without_a_pool(monkeypatch, process_pools, threads, cpus, items):
    monkeypatch.setenv("SURROGATE_THREADS", threads)
    _cpus(monkeypatch, cpus)
    assert parallel.ordered_map(str, range(items)) == [str(i) for i in range(items)]
    assert process_pools == []


def test_without_fork_the_map_runs_serially(monkeypatch, process_pools):
    monkeypatch.delenv("SURROGATE_THREADS", raising=False)
    _cpus(monkeypatch, 4)
    monkeypatch.delattr(os, "fork")
    assert parallel.ordered_map(lambda i: (i, os.getpid()), range(8)) == [(i, os.getpid()) for i in range(8)]
    assert process_pools == []


@pytest.mark.parametrize("threads, cpus, expected", [
    ("100000", 2, 2), ("2", 8, 2), ("1", 8, 1), ("007", 8, 7), (None, 8, 8), ("", 8, 8),
])
def test_worker_count_is_capped_by_the_cpus(monkeypatch, threads, cpus, expected):
    if threads is None:
        monkeypatch.delenv("SURROGATE_THREADS", raising=False)
    else:
        monkeypatch.setenv("SURROGATE_THREADS", threads)
    _cpus(monkeypatch, cpus)
    assert parallel.worker_count() == expected


@pytest.mark.parametrize("threads", ["0", "x", "-3", "2.5", "-4", "many", " 2", "+2", "\u0663"])
def test_a_thread_count_that_is_not_a_positive_integer_is_refused(monkeypatch, process_pools, threads):
    monkeypatch.setenv("SURROGATE_THREADS", threads)
    _cpus(monkeypatch, 8)
    message = f"^SURROGATE_THREADS must be a positive decimal integer, got {re.escape(repr(threads))}$"
    with pytest.raises(errors.ConfigurationError, match=message):
        parallel.worker_count()
    # a map refuses it before any item runs
    ran = []
    with pytest.raises(errors.ConfigurationError, match=message):
        parallel.ordered_map(ran.append, range(16))
    assert ran == []
    assert process_pools == []


@pytest.fixture
def two_workers(monkeypatch):
    """The default worker count, with two CPUs available whatever the machine has."""
    monkeypatch.delenv("SURROGATE_THREADS", raising=False)
    _cpus(monkeypatch, 2)


def _slow_pid(i):
    time.sleep(0.2)  # long enough that both workers claim items
    return i, os.getpid()


@pytest.mark.usefixtures("two_workers")
def test_items_run_in_forked_workers_and_return_in_item_order():
    unpicklable = lambda i: _slow_pid(i)  # noqa: E731 -- workers inherit it through fork
    results = parallel.ordered_map(unpicklable, range(4))
    assert [i for i, _ in results] == [0, 1, 2, 3]
    pids = {pid for _, pid in results}
    assert len(pids) == 2 and os.getpid() not in pids


@pytest.mark.usefixtures("two_workers")
def test_a_free_worker_claims_the_next_item():
    def item(i):
        time.sleep(0.5 if i == 0 else 0.05)
        return os.getpid()

    pids = parallel.ordered_map(item, range(6))
    # one fixed chunk per worker would give item 0's worker items 0-2
    assert pids.count(pids[0]) <= 2


@pytest.mark.usefixtures("two_workers")
def test_a_map_inside_a_worker_runs_serially():
    def inner(i):
        return os.getpid(), parallel.ordered_map(lambda j: os.getpid(), range(4))

    for pid, inner_pids in parallel.ordered_map(inner, range(2)):
        assert inner_pids == [pid] * 4


_SURROGATE_ERRORS = sorted(
    (cls for _, cls in inspect.getmembers(errors, inspect.isclass) if issubclass(cls, errors.SurrogateError)),
    key=lambda cls: cls.__name__,
)


@pytest.mark.usefixtures("two_workers")
@pytest.mark.parametrize("error", _SURROGATE_ERRORS, ids=lambda cls: cls.__name__)
def test_an_error_in_a_worker_reaches_the_caller_unchanged(error):
    def item(i):
        if i == 1:
            raise error(f"item {i} failed")
        return i

    with pytest.raises(error) as info:
        parallel.ordered_map(item, range(2))
    assert type(info.value) is error
    assert str(info.value) == "item 1 failed"
    # raised in a worker, not in this process
    assert type(info.value.__cause__).__name__ == "_RemoteTraceback"


@pytest.mark.usefixtures("two_workers")
def test_the_failing_item_of_lowest_index_is_raised():
    def item(i):
        if i == 1:
            time.sleep(0.3)  # item 3 fails first, in the other worker
        if i in (1, 3):
            raise ValueError(f"item {i} failed")
        return i

    with pytest.raises(ValueError, match="item 1 failed"):
        parallel.ordered_map(item, range(6))


@pytest.mark.usefixtures("two_workers")
def test_an_unstable_bootstrap_error_keeps_its_counts_across_processes():
    def item(i):
        if i == 1:
            raise errors.UnstableBootstrapError("7 of 20 bootstrap replicates failed", failures=7, reps=20)
        return i

    with pytest.raises(errors.UnstableBootstrapError) as info:
        parallel.ordered_map(item, range(2))
    assert (str(info.value), info.value.failures, info.value.reps) == ("7 of 20 bootstrap replicates failed", 7, 20)


# Prelude of the fresh interpreters below: two CPUs whatever the machine has,
# and ``no_children()``, true when this process has no child left, running or
# unreaped.
_TWO_CPUS = """
import json, os, signal, sys, time
os.sched_getaffinity = lambda pid: set(range(2))
from surrogate_ate.errors import WorkerError
from surrogate_ate.parallel import ordered_map
def no_children():
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False
"""


def _run_with_two_cpus(code):
    """Run ``_TWO_CPUS + code`` in a fresh interpreter with stdout to a block-buffered pipe; its stdout."""
    env = dict(os.environ)
    env.pop("SURROGATE_THREADS", None)
    env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.run([sys.executable, "-c", _TWO_CPUS + code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


_DYING_WORKER = """
def item(i):
    if i == 1:
        os._exit(7)
    time.sleep(20)
started = time.monotonic()
try:
    ordered_map(item, range(2))
except WorkerError as error:
    print(json.dumps({"seconds": time.monotonic() - started, "no_children": no_children(), "error": str(error)}))
"""


def test_a_worker_that_dies_makes_the_map_raise_promptly():
    report = json.loads(_run_with_two_cpus(_DYING_WORKER))
    assert report["seconds"] < 5
    assert report["no_children"]
    assert re.fullmatch(r"worker process \d+ ended without sending its results: it exited with status 7",
                        report["error"])


_SIGCHLD_IGNORED = """
signal.signal(signal.SIGCHLD, signal.SIG_IGN)  # children are reaped by the kernel, with their status
report = {"returns": ordered_map(abs, range(4)) == [0, 1, 2, 3]}
def item(i):
    if i == 1:
        os._exit(7)
    time.sleep(20)
try:
    ordered_map(item, range(2))
except WorkerError as error:
    report["error"] = str(error)
print(json.dumps(report))
"""


def test_maps_run_with_sigchld_ignored():
    report = json.loads(_run_with_two_cpus(_SIGCHLD_IGNORED))
    assert report["returns"]
    assert re.fullmatch(r"worker process \d+ ended without sending its results: its exit status is lost",
                        report["error"])


@pytest.mark.usefixtures("two_workers")
def test_a_result_that_cannot_be_pickled_is_a_worker_error():
    with pytest.raises(errors.WorkerError, match="a worker process cannot send its results: .*lambda"):
        parallel.ordered_map(lambda i: lambda: i, range(2))


def _failing_fork(monkeypatch, call):
    """Make the ``call``-th ``os.fork`` raise ``EAGAIN``; returns the list of pids forked."""
    fork, forked = os.fork, []

    def flaky_fork():
        if len(forked) + 1 == call:
            forked.append(None)
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", flaky_fork)
    return forked


@pytest.mark.parametrize("call, workers", [(1, 0), (2, 1)])
def test_a_failed_fork_still_gives_the_serial_bytes(monkeypatch, tmp_path, call, workers):
    exp, obs = draw_dataset(make_spec("sample_size", seed=1, q=0.5), 0)
    write_experimental(exp, tmp_path / "e.csv")
    write_observational(obs, tmp_path / "o.csv")
    argv = ["estimate", "--exp", str(tmp_path / "e.csv"), "--obs", str(tmp_path / "o.csv"), "--bootstrap", "6"]
    monkeypatch.setenv("SURROGATE_THREADS", "1")
    assert cli.main(argv + ["--out", str(tmp_path / "serial.json")]) == 0
    monkeypatch.delenv("SURROGATE_THREADS")
    _cpus(monkeypatch, 2)
    forked = _failing_fork(monkeypatch, call)
    assert cli.main(argv + ["--out", str(tmp_path / "forked.json")]) == 0
    assert (tmp_path / "forked.json").read_bytes() == (tmp_path / "serial.json").read_bytes()
    assert len([pid for pid in forked if pid]) == workers


# An estimate whose bootstrap loses a worker: fit_all, run in the workers,
# kills its own process or raises an error that pickle cannot send.
_LOST_WORKER = """
import surrogate_ate.cli as cli
from surrogate_ate import parallel
fit_all = cli.fit_all
def failing_fit_all(pooled, options):
    if parallel._IN_WORKER:
        if sys.argv[1] == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        error = RuntimeError("no pickle")
        error.hook = lambda: None
        raise error
    return fit_all(pooled, options)
cli.fit_all = failing_fit_all
code = cli.main(sys.argv[2:])
print(json.dumps({"code": code, "no_children": no_children()}))
"""


@pytest.mark.parametrize("how, message", [
    ("kill", r"worker process \d+ ended without sending its results: it was killed by SIGKILL, "
             r"which usually means the machine ran out of memory"),
    ("unpicklable", r"a worker process cannot send its results: \w+Error: .*"),
], ids=["killed", "unpicklable"])
def test_a_lost_worker_ends_the_cli_with_one_error_line_and_exit_3(tmp_path, how, message):
    exp, obs = draw_dataset(make_spec("sample_size", seed=1, q=0.5), 0)
    write_experimental(exp, tmp_path / "e.csv")
    write_observational(obs, tmp_path / "o.csv")
    env = dict(os.environ)
    env.pop("SURROGATE_THREADS", None)
    argv = [how, "estimate", "--exp", str(tmp_path / "e.csv"), "--obs", str(tmp_path / "o.csv"), "--bootstrap", "4"]
    proc = subprocess.run([sys.executable, "-c", _TWO_CPUS + _LOST_WORKER, *argv], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"code": 3, "no_children": True}
    (line,) = proc.stderr.splitlines()
    assert re.fullmatch(r"error: WorkerError: " + message, line)


_THREE_MAPS = """
def fails(i):
    if i == 1:
        raise ValueError("item 1 failed")
    return i
def sleeps(i):
    time.sleep(20)
signal.signal(signal.SIGALRM, lambda signum, frame: os.kill(os.getpid(), signal.SIGINT))
report = {"returns": ordered_map(abs, range(4)) == [0, 1, 2, 3] and no_children()}
try:
    ordered_map(fails, range(4))
except ValueError:
    report["raises"] = no_children()
signal.setitimer(signal.ITIMER_REAL, 0.5)  # not inherited by the workers
started = time.monotonic()
try:
    ordered_map(sleeps, range(2))
except KeyboardInterrupt:
    report["interrupted"] = no_children()
    report["seconds"] = time.monotonic() - started
print(json.dumps(report))
"""


def test_no_worker_outlives_a_map():
    report = json.loads(_run_with_two_cpus(_THREE_MAPS))
    assert report == {"returns": True, "raises": True, "interrupted": True, "seconds": report["seconds"]}
    assert report["seconds"] < 5


_UNFLUSHED_LINE = """
print("before the map")  # stdout is a pipe, so this waits in the buffer
ordered_map(abs, range(4))
"""


def test_output_buffered_before_a_map_is_written_once():
    assert _run_with_two_cpus(_UNFLUSHED_LINE) == "before the map\n"


# Runs first in a fresh interpreter.  ``blas_threads()`` reads the OpenBLAS
# thread count with the package's own lookup, whose source is run here without
# the module's import-time pin, so the count can be read before the package is
# imported; it is None where no OpenBLAS is found.
_BLAS_PROBE = """
import ast, ctypes, importlib.util, os, sys
import numpy  # loads OpenBLAS
_source = os.path.join(importlib.util.find_spec("surrogate_ate").submodule_search_locations[0], "parallel.py")
_lookup = [node for node in ast.parse(open(_source).read()).body
           if isinstance(node, ast.FunctionDef) and node.name in ("_openblas_libraries", "_openblas_threads")]
_namespace = {"ctypes": ctypes}
exec(compile(ast.Module(_lookup, []), _source, "exec"), _namespace)
def blas_threads():
    found = _namespace["_openblas_threads"]()
    return None if found is None else found[0]()
"""


def _run_at_two_blas_threads(code, *argv):
    """Run ``_BLAS_PROBE + code`` in a fresh interpreter started at ``OPENBLAS_NUM_THREADS=2``.

    The child prints the count before ``import surrogate_ate`` as its first
    stdout line; this skips where that count is not 2, since then the machine
    cannot show what one thread changes.
    """
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2")
    proc = subprocess.run([sys.executable, "-c", _BLAS_PROBE + "print(blas_threads())\n" + code, *argv],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    before, *rest = proc.stdout.splitlines()
    if before != "2":
        pytest.skip(f"OpenBLAS reads {before} threads at OPENBLAS_NUM_THREADS=2 on this machine")
    return rest


_ITEMS_AFTER_IMPORT = """
import json, time
os.sched_getaffinity = lambda pid: set(range(2))
from surrogate_ate import parallel
after = blas_threads()
def item(i):
    time.sleep(0.2)  # long enough that both workers claim an item
    return os.getpid(), blas_threads()
items = parallel.ordered_map(item, range(2))
print(json.dumps({"pid": os.getpid(), "after": after, "items": items}))
"""


@pytest.mark.parametrize("threads", ["1", "2"], ids=["serial", "workers"])
def test_items_run_at_one_openblas_thread(monkeypatch, threads):
    # set for the child, which starts at two OpenBLAS threads and pins to one on import
    monkeypatch.setenv("SURROGATE_THREADS", threads)
    (line,) = _run_at_two_blas_threads(_ITEMS_AFTER_IMPORT)
    report = json.loads(line)
    assert report["after"] == 1
    assert [count for _, count in report["items"]] == [1, 1]
    pids = {pid for pid, _ in report["items"]}
    if threads == "1":
        assert pids == {report["pid"]}
    else:
        assert len(pids) == 2 and report["pid"] not in pids


_ESTIMATE_AFTER_IMPORT = """
import surrogate_ate
print(blas_threads())
from surrogate_ate.cli import main
sys.exit(main(sys.argv[1:]))
"""


def test_estimates_do_not_depend_on_the_openblas_thread_count(tmp_path):
    # 250 wide surrogates: a ridge score fit whose last digits move with the BLAS thread count
    exp, obs = draw_dataset(make_spec("misspecification", seed=0, k_used=250), 3)
    write_experimental(exp, tmp_path / "e.csv")
    write_observational(obs, tmp_path / "o.csv")
    argv = ["estimate", "--exp", str(tmp_path / "e.csv"), "--obs", str(tmp_path / "o.csv"),
            "--method", "score", "--ridge", "1e-3", "--out"]
    after, = _run_at_two_blas_threads(_ESTIMATE_AFTER_IMPORT, *argv, str(tmp_path / "two.json"))
    assert after == "1"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    subprocess.run([sys.executable, "-m", "surrogate_ate.cli", *argv, str(tmp_path / "one.json")],
                   check=True, env=env, timeout=300)
    assert (tmp_path / "two.json").read_bytes() == (tmp_path / "one.json").read_bytes()


@pytest.mark.parametrize("libraries", [
    [],
    ["/nonexistent/libopenblas.so"],
    [ctypes.util.find_library("c")],
], ids=["none-loaded", "unloadable", "no-symbol"])
def test_without_openblas_the_pin_is_skipped(monkeypatch, libraries):
    monkeypatch.setattr(parallel, "_openblas_libraries", lambda: libraries)
    assert parallel._openblas_threads() is None
    assert parallel._pin_one_blas_thread() is None


_KILLED_PARENT = """
import os, sys, time
os.sched_getaffinity = lambda pid: set(range(2))
from surrogate_ate.parallel import ordered_map
def item(i):
    os.write(1, f"{os.getpid()}\\n".encode())  # one write: the two workers share the pipe
    time.sleep(60)
ordered_map(item, range(2))
"""


def _running(pid):
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads process states from /proc")
def test_workers_exit_when_their_parent_is_killed():
    env = dict(os.environ)
    env.pop("SURROGATE_THREADS", None)
    proc = subprocess.Popen([sys.executable, "-c", _KILLED_PARENT], stdout=subprocess.PIPE, text=True, env=env)
    try:
        workers = [int(proc.stdout.readline()) for _ in range(2)]
    finally:
        proc.kill()
        proc.wait(timeout=30)
    deadline = time.monotonic() + 30
    while any(_running(pid) for pid in workers) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not any(_running(pid) for pid in workers)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_a_map_too_large_for_memory_is_a_configuration_error(monkeypatch, threads):
    monkeypatch.setenv("SURROGATE_THREADS", threads)
    ran = []
    # 10**13 result slots need 80 TB: refused before anything is listed, allocated or run
    with pytest.raises(errors.ConfigurationError, match="^10000000000000 work items need more memory"):
        parallel.ordered_map(ran.append, range(10**13))

    def no_memory(n):
        raise MemoryError

    monkeypatch.setattr(parallel, "_result_slots", no_memory)
    with pytest.raises(errors.ConfigurationError, match="^5 work items need more memory for their results"):
        parallel.ordered_map(ran.append, range(5))
    assert ran == []


def test_the_result_slots_are_refused_beyond_free_memory(monkeypatch):
    monkeypatch.setattr(os, "sysconf", lambda name: 4)  # 4 pages of 4 bytes: 16 bytes free
    assert parallel._result_slots(2) == [None, None]
    with pytest.raises(MemoryError):
        parallel._result_slots(3)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_a_range_is_indexed_without_being_listed(monkeypatch, threads):
    monkeypatch.setenv("SURROGATE_THREADS", threads)
    _cpus(monkeypatch, 2)
    real_work, real_serial = parallel._work, parallel._serial

    def work(parent, fn, items, *args):  # in a worker: each result carries the type of the items it was given
        real_work(parent, lambda item: (fn(item), type(items).__name__), items, *args)

    def serial(fn, items, results):
        return real_serial(lambda item: (fn(item), type(items).__name__), items, results)

    monkeypatch.setattr(parallel, "_work", work)
    monkeypatch.setattr(parallel, "_serial", serial)
    items = range(3, 40, 3)
    assert parallel.ordered_map(lambda i: i * i, items) == [(i * i, "range") for i in items]
    assert parallel.ordered_map(lambda i: -i, iter([4, 5])) == [(-4, "list"), (-5, "list")]


@pytest.mark.parametrize("argv", [
    ["simulate", "--study", "samplesize", "--grid", "0.5", "--reps", "3", "--seed", "0"],
    ["estimate", "--method", "index", "--bootstrap", "3"],
])
def test_reps_too_large_for_memory_end_the_cli_with_one_error_line_and_exit_2(tmp_path, monkeypatch, capsys, argv):
    exp, obs = draw_dataset(make_spec("sample_size", seed=0, q=0.5), 0)
    write_experimental(exp, tmp_path / "e.csv")
    write_observational(obs, tmp_path / "o.csv")
    if argv[0] == "estimate":
        argv = [*argv, "--exp", str(tmp_path / "e.csv"), "--obs", str(tmp_path / "o.csv")]

    def no_memory(n):
        raise MemoryError

    monkeypatch.setattr(parallel, "_result_slots", no_memory)
    out = tmp_path / "out.csv"
    assert cli.main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: ConfigurationError: 3 work items need more memory for their results[^\n]*\n", err)
    assert not out.exists()
