"""Spans around the package's layer boundaries, and the per-layer metrics built from them.

The traced run wraps the public functions of each module under
``src/surrogate_ate/`` and records one span per call: its name, start, end,
parent span and the benchmark op that caused it.  A module that imported a
function by name (``from .nuisance import fit_logistic``) calls its own
attribute, so every module attribute bound to the original function is
replaced, not only the one in the defining module.  Spans stay in memory
until :meth:`Tracer.write` is called at the end of the run.

The untraced run never calls :func:`install`.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import sys
import threading
import time
import tracemalloc
from contextlib import contextmanager

NUISANCE_ROLES = ("e", "r", "t", "h", "mu")

# Passes over the n x (d+1) float64 design in one IRLS Newton step of
# fit_logistic: the linear predictor, the gradient, the weighted copy (read
# and write), the Hessian product (two operands) and one objective evaluation.
IRLS_PASSES_PER_STEP = 7

# Spans that only schedule work; self time looks through them to the work.
_TRANSPARENT = frozenset({"parallel.ordered_map", "parallel.item"})

_REPLICATION_WORK = ("simulation.draw_dataset", "nuisance.fit_logistic", "nuisance.fit_least_squares",
                     "estimators.index", "estimators.score")

# Every per-layer metric, in report order, with its unit.
LAYER_METRICS: list[tuple[str, str]] = [
    ("data.load.calls", "count"),
    ("data.load.busy_s", "s"),
    ("data.load.rows_per_s", "rows/s"),
    ("data.load.cells", "count"),
    ("data.pool.busy_s", "s"),
    ("nuisance.fit_all.calls", "count"),
    ("nuisance.fit_all.self_s", "s"),
    *[
        (f"nuisance.fit_{role}.{field}", unit)
        for role in NUISANCE_ROLES
        for field, unit in (("calls", "count"), ("busy_s", "s"), ("iters", "count"),
                            ("nonconverged", "count"), ("failed", "count"))
    ],
    ("nuisance.irls.iters_p50", "count"),
    ("nuisance.irls.gflop", "GFLOP"),
    ("nuisance.irls.gbytes", "GB"),
    ("nuisance.irls.gflop_per_s", "GFLOP/s"),
    *[
        (f"estimators.{name}.{field}", unit)
        for name in ("index", "score", "linear")
        for field, unit in (("calls", "count"), ("busy_s", "s"))
    ],
    ("estimators.matching.calls", "count"),
    ("estimators.matching.busy_s", "s"),
    ("estimators.matching.distance_evals", "count"),
    ("estimators.matching.peak_mb", "MB"),
    ("estimators.bootstrap.calls", "count"),
    ("estimators.bootstrap.busy_s", "s"),
    ("estimators.bootstrap.self_s", "s"),
    ("estimators.bootstrap.replicates", "count"),
    ("estimators.bootstrap.failed", "count"),
    ("simulation.run_monte_carlo.calls", "count"),
    ("simulation.run_monte_carlo.busy_s", "s"),
    ("simulation.draw_dataset.calls", "count"),
    ("simulation.draw_dataset.busy_s", "s"),
    ("simulation.true_tau.busy_s", "s"),
    ("simulation.make_spec.busy_s", "s"),
    ("simulation.replication.self_s", "s"),
    ("simulation.failed.score", "count"),
    ("simulation.failed.index", "count"),
    ("parallel.ordered_map.calls", "count"),
    ("parallel.ordered_map.items", "count"),
    ("parallel.ordered_map.workers", "count"),
    ("parallel.ordered_map.item_p50_ms", "ms"),
    ("parallel.ordered_map.item_tail_ms", "ms"),
    ("parallel.ordered_map.overhead_s", "s"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("cli.main.nonzero_exits", "count"),
    ("diagnostics.bias_bound.calls", "count"),
    ("diagnostics.bias_bound.busy_s", "s"),
    ("diagnostics.efficiency_bounds.calls", "count"),
    ("diagnostics.efficiency_bounds.busy_s", "s"),
    ("trace.overhead_frac", "frac"),
]


def tail(values):
    """Highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile, n)``, or ``None`` with fewer than eleven
    samples.
    """
    xs = sorted(values)
    n = len(xs)
    if n < 11:
        return None
    k = n - 11
    return xs[k], 100.0 * (k + 1) / n, n


class Span:
    __slots__ = ("id", "name", "parent", "op", "start", "end", "error", "attrs")

    def __init__(self, span_id, name, parent, op):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.op = op
        self.start = self.end = 0.0
        self.error = None
        self.attrs = {}

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; each thread keeps its own stack of open spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Span | None:
        stack = self._stack()
        return stack[-1] if stack else None

    @contextmanager
    def span(self, name, parent=None, op=None):
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        if op is None and parent is not None:
            op = parent.op
        sp = Span(next(self._ids), name, parent, op)
        self.spans.append(sp)
        stack.append(sp)
        sp.start = time.perf_counter()
        try:
            yield sp
        except BaseException as err:
            sp.error = type(err).__name__
            raise
        finally:
            sp.end = time.perf_counter()
            stack.pop()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sp in self.spans:
                record = {
                    "id": sp.id, "name": sp.name, "parent": sp.parent.id if sp.parent else None,
                    "op": sp.op, "start": sp.start, "end": sp.end,
                }
                if sp.error:
                    record["error"] = sp.error
                fh.write(json.dumps(record) + "\n")


# ---------------------------------------------------------------------------
# Wrappers


def _role_scope(sp: Span | None) -> Span | None:
    """Nearest enclosing call that decides nuisance roles by call order."""
    while sp is not None:
        if sp.name in ("nuisance.fit_all", "diagnostics.efficiency_bounds"):
            return sp
        if sp.name == "parallel.item" and _has_ancestor(sp, "simulation.run_monte_carlo"):
            return sp
        sp = sp.parent
    return None


def _has_ancestor(sp: Span, name: str) -> bool:
    sp = sp.parent
    while sp is not None:
        if sp.name == name:
            return True
        sp = sp.parent
    return False


def _assign_role(scope: Span | None, kind: str, n_surrogates) -> str | None:
    """Role of a fit from its enclosing call and its position among that call's fits.

    ``fit_all`` fits the propensity on covariates alone (``n_surrogates=0``),
    then the surrogate score, then the sampling score, by logistic
    regression, and the index by least squares.  The single-sample bound
    fits the propensity and the surrogate score, then the index and the two
    arm regressions by least squares.  A Monte Carlo replication fits the
    surrogate score and then the index, both logistic.
    """
    if scope is None:
        return None
    position = scope.attrs.setdefault(kind, 0)
    if kind == "logistic" and n_surrogates == 0 and scope.name != "parallel.item":
        return "e"
    scope.attrs[kind] = position + 1
    if scope.name == "nuisance.fit_all":
        return "h" if kind == "lsq" else ("r", "t")[min(position, 1)]
    if scope.name == "diagnostics.efficiency_bounds":
        return ("h" if position == 0 else "mu") if kind == "lsq" else "r"
    return ("r", "h")[min(position, 1)] if kind == "logistic" else None


def _traced(tracer: Tracer, name: str):
    def factory(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(name):
                return fn(*args, **kwargs)

        return wrapper

    return factory


def _traced_load(tracer: Tracer, name: str, extra_columns: int):
    def factory(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(name) as sp:
                sample = fn(*args, **kwargs)
                sp.attrs["rows"] = sample.n
                sp.attrs["cells"] = sample.n * (extra_columns + sample.n_surrogates + sample.n_covariates)
                return sample

        return wrapper

    return factory


def _traced_fit(tracer: Tracer, kind: str):
    name = "nuisance.fit_logistic" if kind == "logistic" else "nuisance.fit_least_squares"

    def factory(fn):
        @functools.wraps(fn)
        def wrapper(features, *args, **kwargs):
            role = _assign_role(_role_scope(tracer.current()), kind, kwargs.get("n_surrogates"))
            with tracer.span(name) as sp:
                shape = getattr(features, "shape", ())
                sp.attrs["role"] = role
                sp.attrs["n"] = shape[0] if len(shape) == 2 else 0
                sp.attrs["d"] = shape[1] if len(shape) == 2 else 0
                model = fn(features, *args, **kwargs)
                sp.attrs["iters"] = getattr(model, "iterations", 0)
                sp.attrs["converged"] = getattr(model, "converged", True)
                return model

        return wrapper

    return factory


def _traced_matching(tracer: Tracer):
    def factory(fn):
        @functools.wraps(fn)
        def wrapper(exp, obs, options=None, *args, **kwargs):
            n_treated = exp.n_treated
            within = n_treated * exp.n_control
            if options is not None and options.both_directions:
                within *= 2
            with tracer.span("estimators.matching") as sp:
                sp.attrs["distance_evals"] = exp.n * obs.n + within
                owns_tracemalloc = not tracemalloc.is_tracing()
                if owns_tracemalloc:
                    tracemalloc.start()
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                try:
                    return fn(exp, obs, options, *args, **kwargs)
                finally:
                    sp.attrs["peak_bytes"] = tracemalloc.get_traced_memory()[1] - base
                    if owns_tracemalloc:
                        tracemalloc.stop()

        return wrapper

    return factory


def _traced_bootstrap(tracer: Tracer, surrogate_error):
    def factory(fn):
        @functools.wraps(fn)
        def wrapper(estimator, data, reps, *args, **kwargs):
            failures: list[str] = []

            def counted(*samples):
                try:
                    return estimator(*samples)
                except surrogate_error as err:
                    failures.append(type(err).__name__)  # list.append is atomic across threads
                    raise

            with tracer.span("estimators.bootstrap") as sp:
                sp.attrs["replicates"] = reps
                try:
                    return fn(counted, data, reps, *args, **kwargs)
                finally:
                    sp.attrs["failed"] = len(failures)

        return wrapper

    return factory


def _traced_ordered_map(tracer: Tracer, worker_count):
    def factory(fn):
        @functools.wraps(fn)
        def wrapper(item_fn, items):
            items = list(items)
            with tracer.span("parallel.ordered_map") as sp:
                sp.attrs["items"] = len(items)
                sp.attrs["workers"] = worker_count()

                def timed(item):
                    # worker threads start with an empty stack: hand the parent over
                    with tracer.span("parallel.item", parent=sp):
                        return item_fn(item)

                return fn(timed, items)

        return wrapper

    return factory


def _traced_monte_carlo(tracer: Tracer):
    def factory(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span("simulation.run_monte_carlo") as sp:
                result = fn(*args, **kwargs)
                sp.attrs["failed_score"] = result.score.failures
                sp.attrs["failed_index"] = result.index.failures
                return result

        return wrapper

    return factory


def _traced_main(tracer: Tracer):
    def factory(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span("cli.main") as sp:
                code = fn(*args, **kwargs)
                sp.attrs["exit"] = code
                return code

        return wrapper

    return factory


def install(tracer: Tracer):
    """Wrap every traced function at each package module attribute bound to it.

    Returns a function that restores the original attributes.
    """
    import surrogate_ate.cli as cli
    import surrogate_ate.data as data
    import surrogate_ate.diagnostics as diagnostics
    import surrogate_ate.errors as errors
    import surrogate_ate.estimators as estimators
    import surrogate_ate.nuisance as nuisance
    import surrogate_ate.parallel as parallel
    import surrogate_ate.simulation as simulation

    targets = [
        (data.load_experimental, _traced_load(tracer, "data.load", 1)),
        (data.load_observational, _traced_load(tracer, "data.load", 1)),
        (data.load_single, _traced_load(tracer, "data.load", 2)),
        (data.pool, _traced(tracer, "data.pool")),
        (nuisance.fit_all, _traced(tracer, "nuisance.fit_all")),
        (nuisance.fit_logistic, _traced_fit(tracer, "logistic")),
        (nuisance.fit_least_squares, _traced_fit(tracer, "lsq")),
        (estimators.estimate_index, _traced(tracer, "estimators.index")),
        (estimators.estimate_score, _traced(tracer, "estimators.score")),
        (estimators.estimate_linear_shortcut, _traced(tracer, "estimators.linear")),
        (estimators.estimate_matching, _traced_matching(tracer)),
        (estimators.bootstrap_se, _traced_bootstrap(tracer, errors.SurrogateError)),
        (simulation.run_monte_carlo, _traced_monte_carlo(tracer)),
        (simulation.draw_dataset, _traced(tracer, "simulation.draw_dataset")),
        (simulation.true_tau, _traced(tracer, "simulation.true_tau")),
        (simulation.make_spec, _traced(tracer, "simulation.make_spec")),
        (parallel.ordered_map, _traced_ordered_map(tracer, parallel.worker_count)),
        (cli.main, _traced_main(tracer)),
        (diagnostics.bias_bound, _traced(tracer, "diagnostics.bias_bound")),
        (diagnostics.efficiency_bounds_single_sample, _traced(tracer, "diagnostics.efficiency_bounds")),
        (diagnostics.efficiency_bound_two_sample, _traced(tracer, "diagnostics.efficiency_bounds")),
    ]
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "surrogate_ate" or name.startswith("surrogate_ate."))]
    replaced = []
    for original, factory in targets:
        wrapped = factory(original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)
                    replaced.append((module, attr, original))

    def uninstall():
        for module, attr, original in replaced:
            setattr(module, attr, original)

    return uninstall


# ---------------------------------------------------------------------------
# Aggregation


def _union_length(intervals) -> float:
    total, end = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


class _Index:
    def __init__(self, spans):
        self.spans = spans
        self.by_name: dict[str, list[Span]] = {}
        self.children: dict[int, list[Span]] = {}
        for sp in spans:
            self.by_name.setdefault(sp.name, []).append(sp)
            if sp.parent is not None:
                self.children.setdefault(sp.parent.id, []).append(sp)

    def named(self, name) -> list[Span]:
        return self.by_name.get(name, [])

    def busy(self, name) -> float:
        return _union_length((sp.start, sp.end) for sp in self.named(name))

    def _work_below(self, sp: Span, only=None):
        for child in self.children.get(sp.id, []):
            if child.name in _TRANSPARENT or (only is not None and child.name not in only):
                yield from self._work_below(child, only)
            else:
                yield child

    def self_time(self, name, only=None) -> float:
        """Span time minus the part covered by the work below it.

        Scheduling spans are looked through; with ``only``, every span not
        named in it is looked through as well.
        """
        total = 0.0
        for sp in self.named(name):
            covered = _union_length((c.start, c.end) for c in self._work_below(sp, only))
            total += sp.duration - covered
        return total

    def attr_sum(self, name, key) -> float:
        return sum(sp.attrs.get(key, 0) for sp in self.named(name))


def layer_metrics(spans: list[Span], overhead_frac: float) -> dict[str, float]:
    """Every metric in :data:`LAYER_METRICS`, computed from the recorded spans."""
    ix = _Index(spans)
    out: dict[str, float] = {}

    load_busy = ix.busy("data.load")
    rows = ix.attr_sum("data.load", "rows")
    out["data.load.calls"] = len(ix.named("data.load"))
    out["data.load.busy_s"] = load_busy
    out["data.load.rows_per_s"] = rows / load_busy if load_busy > 0 else 0.0
    out["data.load.cells"] = ix.attr_sum("data.load", "cells")
    out["data.pool.busy_s"] = ix.busy("data.pool")

    out["nuisance.fit_all.calls"] = len(ix.named("nuisance.fit_all"))
    out["nuisance.fit_all.self_s"] = ix.self_time("nuisance.fit_all")
    fits = ix.named("nuisance.fit_logistic") + ix.named("nuisance.fit_least_squares")
    for role in NUISANCE_ROLES:
        mine = [sp for sp in fits if sp.attrs.get("role") == role]
        out[f"nuisance.fit_{role}.calls"] = len(mine)
        out[f"nuisance.fit_{role}.busy_s"] = _union_length((sp.start, sp.end) for sp in mine)
        out[f"nuisance.fit_{role}.iters"] = sum(sp.attrs.get("iters", 0) for sp in mine)
        out[f"nuisance.fit_{role}.nonconverged"] = sum(
            1 for sp in mine if sp.error is None and not sp.attrs.get("converged", True))
        out[f"nuisance.fit_{role}.failed"] = sum(1 for sp in mine if sp.error is not None)

    irls = [sp for sp in ix.named("nuisance.fit_logistic") if sp.error is None]
    gflop = gbytes = 0.0
    for sp in irls:
        n, p, iters = sp.attrs["n"], sp.attrs["d"] + 1, sp.attrs["iters"]
        gflop += iters * (2.0 * n * p * p + p**3 / 3.0) / 1e9
        gbytes += iters * IRLS_PASSES_PER_STEP * n * p * 8 / 1e9
    irls_busy = ix.busy("nuisance.fit_logistic")
    out["nuisance.irls.iters_p50"] = statistics.median(sp.attrs["iters"] for sp in irls) if irls else 0
    out["nuisance.irls.gflop"] = gflop
    out["nuisance.irls.gbytes"] = gbytes
    out["nuisance.irls.gflop_per_s"] = gflop / irls_busy if irls_busy > 0 else 0.0

    for short in ("index", "score", "linear"):
        out[f"estimators.{short}.calls"] = len(ix.named(f"estimators.{short}"))
        out[f"estimators.{short}.busy_s"] = ix.busy(f"estimators.{short}")
    matching = ix.named("estimators.matching")
    out["estimators.matching.calls"] = len(matching)
    out["estimators.matching.busy_s"] = ix.busy("estimators.matching")
    out["estimators.matching.distance_evals"] = ix.attr_sum("estimators.matching", "distance_evals")
    out["estimators.matching.peak_mb"] = max((sp.attrs.get("peak_bytes", 0) for sp in matching), default=0) / 2**20
    out["estimators.bootstrap.calls"] = len(ix.named("estimators.bootstrap"))
    out["estimators.bootstrap.busy_s"] = ix.busy("estimators.bootstrap")
    out["estimators.bootstrap.self_s"] = ix.self_time("estimators.bootstrap")
    out["estimators.bootstrap.replicates"] = ix.attr_sum("estimators.bootstrap", "replicates")
    out["estimators.bootstrap.failed"] = ix.attr_sum("estimators.bootstrap", "failed")

    out["simulation.run_monte_carlo.calls"] = len(ix.named("simulation.run_monte_carlo"))
    out["simulation.run_monte_carlo.busy_s"] = ix.busy("simulation.run_monte_carlo")
    out["simulation.draw_dataset.calls"] = len(ix.named("simulation.draw_dataset"))
    out["simulation.draw_dataset.busy_s"] = ix.busy("simulation.draw_dataset")
    out["simulation.true_tau.busy_s"] = ix.busy("simulation.true_tau")
    out["simulation.make_spec.busy_s"] = ix.busy("simulation.make_spec")
    out["simulation.replication.self_s"] = ix.self_time("simulation.run_monte_carlo", only=_REPLICATION_WORK)
    out["simulation.failed.score"] = ix.attr_sum("simulation.run_monte_carlo", "failed_score")
    out["simulation.failed.index"] = ix.attr_sum("simulation.run_monte_carlo", "failed_index")

    maps = ix.named("parallel.ordered_map")
    items = [sp.duration for sp in ix.named("parallel.item")]
    item_tail = tail(items)
    overhead = 0.0
    for sp in maps:
        item_time = sum(c.duration for c in ix.children.get(sp.id, []))
        overhead += sp.duration - item_time / sp.attrs["workers"]
    out["parallel.ordered_map.calls"] = len(maps)
    out["parallel.ordered_map.items"] = ix.attr_sum("parallel.ordered_map", "items")
    out["parallel.ordered_map.workers"] = max((sp.attrs["workers"] for sp in maps), default=0)
    out["parallel.ordered_map.item_p50_ms"] = statistics.median(items) * 1e3 if items else 0.0
    out["parallel.ordered_map.item_tail_ms"] = (item_tail[0] if item_tail else max(items, default=0.0)) * 1e3
    out["parallel.ordered_map.overhead_s"] = overhead

    mains = ix.named("cli.main")
    out["cli.main.calls"] = len(mains)
    out["cli.main.self_s"] = ix.self_time("cli.main")
    out["cli.main.nonzero_exits"] = sum(1 for sp in mains if sp.attrs.get("exit") != 0)

    for short in ("bias_bound", "efficiency_bounds"):
        out[f"diagnostics.{short}.calls"] = len(ix.named(f"diagnostics.{short}"))
        out[f"diagnostics.{short}.busy_s"] = ix.busy(f"diagnostics.{short}")

    out["trace.overhead_frac"] = overhead_frac
    return out
