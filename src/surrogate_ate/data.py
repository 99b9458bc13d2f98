"""Sample containers, validation, and CSV ingestion.

Two-sample analyses combine an experimental sample, which records a binary
treatment and short-term surrogate outcomes, with an observational sample,
which records the same surrogates together with the long-term outcome.  A
single-sample design observes treatment, surrogates, and outcome on every
unit.  All containers are immutable after construction and safe to share
across threads.

The three layouts differ only in their per-unit columns besides the
surrogates ``s`` and covariates ``x``, listed once per class in
``unit_columns``: ``("w",)`` experimental, ``("y",)`` observational and
``("w", "y")`` single-sample.  That tuple drives validation, the CSV
readers and writers, and bootstrap resampling.  Each sample also stores
its rows ``[s | x]`` once (``sx``, which is ``s`` itself without
covariates); the fits, the predictions, matching and the CSV writer read
them there, and :class:`PooledDataset` stacks the two samples' rows.

CSV layout (header required, UTF-8, ``.`` decimal point): the
``unit_columns`` in order, then ``s1..sM``, then optional ``x1..xK``:

* experimental:  ``w,s1..sM[,x1..xK]``
* observational: ``y,s1..sM[,x1..xK]``
* single-sample: ``w,y,s1..sM[,x1..xK]``

Column names are resolved through a :class:`Schema`; by default surrogate
and covariate columns are auto-detected from the ``s<digit>`` / ``x<digit>``
naming convention.
"""

from __future__ import annotations

import csv
import errno
import io
import os
import re
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import ClassVar, Sequence

import numpy as np

from .errors import ConfigurationError, PoolingError, SchemaError, ValidationError

_SURROGATE_RE = re.compile(r"^s(\d+)$")
_COVARIATE_RE = re.compile(r"^x(\d+)$")


def _as_matrix(a, name: str) -> np.ndarray:
    arr = np.asarray(a, dtype=float)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise ValidationError(f"{name} must be a 2-d array, got ndim={arr.ndim}")
    return arr


def _check_finite(arr: np.ndarray, name: str) -> None:
    finite = np.isfinite(arr)
    if finite.all():
        return
    row, *col = (int(i) + 1 for i in np.argwhere(~finite)[0])
    where = f"{name} column {col[0]}" if col else name
    raise ValidationError(f"non-finite value in {where} at row {row}")


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _freeze(arr: np.ndarray) -> np.ndarray:
    return _read_only(np.array(arr, dtype=float, copy=True))


def _standardize(features: np.ndarray):
    """``(z1, mean, sd)``: the design ``z1 = [1 | z]`` of the centered and scaled columns ``z``.

    ``z1[:, 1:]`` is ``(features - mean) / sd``, written straight into the
    preallocated design.  A column whose mean or spread overflows is a
    ``ValidationError``; a constant column keeps unit scale.
    """
    n, d = features.shape
    with np.errstate(over="ignore", invalid="ignore"):  # reported below as one typed error, not as warnings
        mean = features.mean(axis=0) if features.size else np.zeros(d)
        # contiguous, not in z1: a ufunc over a strided view loops row by row
        centered = features - mean
        # the steps of ndarray.std on the centered columns: bit-identical to features.std(axis=0)
        sd = np.sqrt((centered * centered).mean(axis=0)) if features.size else np.ones(d)
    if not (np.isfinite(mean).all() and np.isfinite(sd).all()):
        raise ValidationError("a surrogate or covariate column is too large in magnitude to standardize")
    sd[sd == 0.0] = 1.0
    z1 = np.empty((n, d + 1))
    z1[:, 0] = 1.0
    np.divide(centered, sd, out=z1[:, 1:])
    return z1, mean, sd


class _Sample:
    """Validation, freezing and sizes shared by the three sample layouts."""

    unit_columns: ClassVar[tuple[str, ...]] = ()
    _kind: ClassVar[str] = ""

    def __post_init__(self):
        cols = {c: np.asarray(getattr(self, c), dtype=float).ravel() for c in self.unit_columns}
        n = len(cols[self.unit_columns[0]])
        cols["s"] = _as_matrix(self.s, "s")
        cols["x"] = _as_matrix(self.x, "x") if self.x is not None else np.empty((n, 0))
        self._check_rows(n)
        if any(len(arr) != n for arr in cols.values()):
            raise ValidationError(
                "row counts differ: " + ", ".join(f"{c}={len(arr)}" for c, arr in cols.items())
            )
        for c, arr in cols.items():
            _check_finite(arr, c)
        w = cols.get("w")
        if w is not None:
            binary = (w == 0.0) | (w == 1.0)
            if not binary.all():
                bad = int(np.argmin(binary))
                raise ValidationError(f"treatment must be 0 or 1; row {bad + 1} has w={w[bad]}")
            self._check_both_arms(w)
        for c, arr in cols.items():
            object.__setattr__(self, c, _freeze(arr))

    def _check_rows(self, n: int) -> None:
        if n == 0:
            raise ValidationError(f"{self._kind} sample must contain at least one row")

    def _check_both_arms(self, w: np.ndarray) -> None:
        if w.sum() in (0, len(w)):
            raise ValidationError(f"{self._kind} sample needs at least one treated and one control unit")

    @classmethod
    def _trusted(cls, s: np.ndarray, x: np.ndarray | None = None, **units: np.ndarray):
        """A sample of columns that the package built itself, taken as they are.

        The columns must already be what the validating constructor would
        make of them: float64 and C-contiguous, ``s`` and ``x`` 2-d and the
        unit columns 1-d, of one row count, finite, and ``w`` 0 or 1.  A
        bootstrap resample (:meth:`_take`), a Monte Carlo draw
        (``simulation.draw_dataset``) and the harness's first-K-columns copy
        are built this way.  The arrays are marked read-only in place, not
        copied, and only the checks such columns can fail run, with the
        constructor's errors: at least one row, and both treatment arms
        present.  ``x=None`` means no covariates.
        """
        sample = object.__new__(cls)
        x = np.empty((len(s), 0)) if x is None else x
        for c, arr in (*units.items(), ("s", s), ("x", x)):
            object.__setattr__(sample, c, _read_only(arr))
        sample._check_rows(len(s))
        if "w" in units:
            sample._check_both_arms(sample.w)
        return sample

    def _take(self, idx: np.ndarray):
        """The sample of rows ``idx`` of this one, as a bootstrap resample draws them.

        Each column is a fresh copy of ``col[idx]``, handed to
        :meth:`_trusted`, and the row classes this sample knows (see
        :attr:`_row_classes`) carry over as ``classes[idx]``.
        """
        # take copies whole rows, about 3x faster than fancy indexing a matrix
        taken = self._trusted(**{c: getattr(self, c).take(idx, axis=0) for c in (*self.unit_columns, "s", "x")})
        taken.__dict__["_row_classes"] = {part: classes[idx] for part, classes in self._row_classes.items()}
        return taken

    @cached_property
    def sx(self) -> np.ndarray:
        """The rows ``[s | x]``, built once and read-only; ``s`` itself without covariates."""
        return self.s if self.x.shape[1] == 0 else _read_only(np.hstack([self.s, self.x]))

    @cached_property
    def _row_classes(self) -> dict:
        """Integer classes of the raw rows, by part (``"sx"`` for ``[s | x]``, ``"x"``), as matching computed them.

        Rows in one class are identical.  A sample built by :meth:`_take`
        starts with its parent's classes taken through the index.
        """
        return {}

    @property
    def n(self) -> int:
        return self.s.shape[0]

    @property
    def n_surrogates(self) -> int:
        return self.s.shape[1]

    @property
    def n_covariates(self) -> int:
        return self.x.shape[1]


@dataclass(frozen=True)
class ExperimentalSample(_Sample):
    """Treatment indicators and surrogates (no outcome observed).

    Attributes
    ----------
    w : ndarray, shape (n,)
        Binary treatment indicators; both arms must be non-empty.
    s : ndarray, shape (n, M)
        Surrogate outcomes.
    x : ndarray, shape (n, K)
        Pre-treatment covariates; K may be zero.
    """

    unit_columns: ClassVar[tuple[str, ...]] = ("w",)
    _kind: ClassVar[str] = "experimental"

    w: np.ndarray
    s: np.ndarray
    x: np.ndarray = None  # type: ignore[assignment]

    @property
    def n_treated(self) -> int:
        return int(self.w.sum())

    @property
    def n_control(self) -> int:
        return self.n - self.n_treated


@dataclass(frozen=True)
class ObservationalSample(_Sample):
    """Outcomes and surrogates (no treatment observed)."""

    unit_columns: ClassVar[tuple[str, ...]] = ("y",)
    _kind: ClassVar[str] = "observational"

    y: np.ndarray
    s: np.ndarray
    x: np.ndarray = None  # type: ignore[assignment]


@dataclass(frozen=True)
class SingleSample(_Sample):
    """Treatment, outcome, surrogates, and covariates observed jointly."""

    unit_columns: ClassVar[tuple[str, ...]] = ("w", "y")
    _kind: ClassVar[str] = "single"

    w: np.ndarray
    y: np.ndarray
    s: np.ndarray
    x: np.ndarray = None  # type: ignore[assignment]


@dataclass(frozen=True)
class PooledDataset:
    """The two samples viewed as one dataset with a sample indicator.

    ``q`` is always the realized experimental fraction N_E / (N_E + N_O);
    it is never user-supplied.  Pooled rows put the experimental sample
    first; ``is_experimental`` marks those rows.  The dataset owns the
    designs that the sampling score, the propensity and matching share: the
    stacked ``sx`` of the two samples and the standardized
    ``(z1, mean, sd)`` of ``sx`` and of the experimental ``x``, each built
    once.
    """

    exp: ExperimentalSample
    obs: ObservationalSample
    q: float = field(init=False)

    def __post_init__(self):
        if self.exp.n_surrogates != self.obs.n_surrogates:
            raise PoolingError(
                f"surrogate dimension mismatch: experimental has {self.exp.n_surrogates}, "
                f"observational has {self.obs.n_surrogates}"
            )
        if self.exp.n_covariates != self.obs.n_covariates:
            raise PoolingError(
                f"covariate dimension mismatch: experimental has {self.exp.n_covariates}, "
                f"observational has {self.obs.n_covariates}"
            )
        object.__setattr__(self, "q", self.exp.n / (self.exp.n + self.obs.n))

    @property
    def n_total(self) -> int:
        return self.exp.n + self.obs.n

    @property
    def is_experimental(self) -> np.ndarray:
        return np.arange(self.n_total) < self.exp.n

    @cached_property
    def sx(self) -> np.ndarray:
        """The two samples' ``sx`` stacked, experimental rows first; built once, read-only."""
        return _read_only(np.vstack([self.exp.sx, self.obs.sx]))

    @cached_property
    def standardized_sx(self) -> tuple:
        """``(z1, mean, sd)`` of :attr:`sx` (:func:`_standardize`), for the sampling score and matching; read-only."""
        return tuple(map(_read_only, _standardize(self.sx)))

    @cached_property
    def standardized_x(self) -> tuple:
        """``(z1, mean, sd)`` of the experimental ``x``, for the propensity and matching; read-only."""
        return tuple(map(_read_only, _standardize(self.exp.x)))


def pool(exp: ExperimentalSample, obs: ObservationalSample) -> PooledDataset:
    """Combine the two samples; raises :class:`PoolingError` on dimension mismatch."""
    return PooledDataset(exp, obs)


@dataclass(frozen=True)
class Schema:
    """Column mapping for CSV files.

    ``surrogates`` / ``covariates`` may list explicit column names; when
    ``None`` they are auto-detected as ``s1..sM`` / ``x1..xK`` ordered by
    their numeric suffix.
    """

    treatment: str = "w"
    outcome: str = "y"
    surrogates: Sequence[str] | None = None
    covariates: Sequence[str] | None = None

    def resolve(self, header: Sequence[str], *, need_treatment: bool, need_outcome: bool):
        cols = list(header)

        def _detect(pattern):
            found = []
            for name in cols:
                m = pattern.match(name)
                if m:
                    found.append((int(m.group(1)), name))
            return [name for _, name in sorted(found)]

        surrogates = list(self.surrogates) if self.surrogates is not None else _detect(_SURROGATE_RE)
        covariates = list(self.covariates) if self.covariates is not None else _detect(_COVARIATE_RE)
        if not surrogates:
            raise SchemaError("no surrogate columns found (expected s1..sM or an explicit list)")
        required = list(surrogates) + list(covariates)
        if need_treatment:
            required.append(self.treatment)
        if need_outcome:
            required.append(self.outcome)
        repeated = sorted({c for c in required if required.count(c) > 1})
        if repeated:
            raise SchemaError(f"column(s) the schema reads more than once: {', '.join(repeated)}")
        missing = [c for c in required if c not in cols]
        if missing:
            raise SchemaError(f"missing column(s): {', '.join(missing)}")
        duplicated = sorted({c for c in required if cols.count(c) > 1})
        if duplicated:
            raise SchemaError(f"column(s) named more than once in the header: {', '.join(duplicated)}")
        return surrogates, covariates


def _read_rows(path):
    path = Path(path)
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            rows = list(reader)
    except FileNotFoundError:
        raise SchemaError(f"file not found: {path}") from None
    except UnicodeDecodeError as err:
        raise SchemaError(f"{path} is not UTF-8 text: it holds the byte {err.object[err.start]:#04x}") from None
    except csv.Error as err:
        raise SchemaError(f"{path} is not a readable CSV file: {err}") from None
    except OSError as err:
        raise SchemaError(f"cannot read {path}: {err.strerror}") from None
    if header is None:
        raise SchemaError(f"empty file: {path}")
    return header, rows


def _parse(rows, header, names):
    """The ``names`` columns of ``rows`` as one float array of shape ``(len(rows), len(names))``.

    Only conversion happens here; the samples check finiteness and values.
    A missing or unparsable cell is located by rescanning the rows.
    """
    take = [header.index(c) for c in names]
    try:
        return np.array([[row[j] for j in take] for row in rows], dtype=float).reshape(len(rows), len(names))
    except (IndexError, ValueError):
        for i, row in enumerate(rows, start=1):
            for name, j in zip(names, take):
                cell = row[j] if j < len(row) else ""
                try:
                    float(cell)
                except ValueError:
                    problem = "missing value" if cell == "" else f"cannot parse {cell!r}"
                    raise ValidationError(f"row {i}, column {name}: {problem}") from None
        raise


def _plain_body(path):
    """``(header, text)`` of a CSV file whose body numpy's C reader reads as ``csv`` does, else ``None``.

    ``text`` holds the file's bytes, LF or CRLF line ends alike: the C reader
    ends a line at either, as ``csv`` does.  The file must decode as UTF-8
    and hold at least one data row.  ``None`` also answers for the features
    on which ``np.loadtxt`` and ``csv`` part: a blank line (a row of no cells
    to ``csv``, skipped by ``loadtxt``), a carriage return that does not end
    a line, a quote in the header line and, in a file longer than
    ``csv.field_size_limit()``, a line longer than the limit or a quote
    anywhere (a quoted field may span lines).
    """
    try:
        text = Path(path).read_bytes()
        text.decode("utf-8")
    except (OSError, UnicodeDecodeError):
        return None
    if b"\r" in text:
        # the lines without their CRLF ends; splitlines also ends one at a lone carriage return
        lines = text.splitlines()
        if len(lines) != text.count(b"\n") + (not text.endswith(b"\n")) or text.endswith(b"\r"):
            return None
    else:
        lines = text.split(b"\n")
        if lines[-1] == b"":
            lines.pop()
    if len(lines) < 2 or b"" in lines[1:] or b'"' in lines[0]:
        return None
    limit = csv.field_size_limit()
    if len(text) > limit and (b'"' in text or max(map(len, lines)) > limit):
        return None
    return next(csv.reader([lines[0].decode("utf-8")])), text


def _loadtxt(header, text, names):
    """The ``names`` columns of :func:`_plain_body`'s rows, read by numpy's C reader; ``None`` if it raises."""
    try:
        return np.loadtxt(io.BytesIO(text), delimiter=",", skiprows=1, usecols=[header.index(c) for c in names],
                          comments=None, quotechar='"', ndmin=2, encoding="utf-8")
    except ValueError:
        return None


def _load(cls, path, schema: Schema | None):
    schema = schema or Schema()
    plain = _plain_body(path)
    header, rows = (plain[0], None) if plain else _read_rows(path)
    need = cls.unit_columns
    surrogates, covariates = schema.resolve(header, need_treatment="w" in need, need_outcome="y" in need)
    units = [{"w": schema.treatment, "y": schema.outcome}[c] for c in need]
    names = units + surrogates + covariates
    table = _loadtxt(header, plain[1], names) if plain else None
    if table is None:
        table = _parse(_read_rows(path)[1] if rows is None else rows, header, names)
    k, m = len(units), len(surrogates)
    return cls(**{c: table[:, i] for i, c in enumerate(need)}, s=table[:, k : k + m], x=table[:, k + m :])


def load_experimental(path, schema: Schema | None = None) -> ExperimentalSample:
    """Load an experimental sample (``w``, surrogates, optional covariates) from CSV."""
    return _load(ExperimentalSample, path, schema)


def load_observational(path, schema: Schema | None = None) -> ObservationalSample:
    """Load an observational sample (``y``, surrogates, optional covariates) from CSV."""
    return _load(ObservationalSample, path, schema)


def load_single(path, schema: Schema | None = None) -> SingleSample:
    """Load a single-sample design (``w``, ``y``, surrogates, covariates) from CSV."""
    return _load(SingleSample, path, schema)


def _check_output(path) -> Path:
    """``path`` as a ``Path``, checked to name a file that can be created.

    Raises :class:`ConfigurationError` when it is an existing directory or
    lies under an existing path that is not a directory, or when resolving it
    runs into a symbolic-link loop.  The path is judged with ``..`` and
    symbolic links resolved, so ``nope/..`` is the directory it names, but
    messages quote it as given.  Missing parent directories are fine;
    :func:`_open_output` creates them.
    """
    path = Path(path)
    resolved = Path(os.path.realpath(path))
    try:
        # the lenient realpath leaves a loop unresolved; the strict one raises on it
        os.path.realpath(resolved, strict=True)
    except OSError as err:
        if err.errno == errno.ELOOP:
            raise ConfigurationError(f"output path {path} runs into a symbolic-link loop") from None
    if resolved.is_dir():
        raise ConfigurationError(f"output path {path} is a directory")
    ancestor = next((p for p in resolved.parents if p.exists()), None)
    if ancestor is not None and not ancestor.is_dir():
        raise ConfigurationError(f"output path {path} lies under {ancestor}, which is not a directory")
    return path


def _open_output(path, newline=None):
    """Open ``path`` for writing UTF-8 text, creating its parent directories.

    A path that cannot be written raises :class:`ConfigurationError`.
    """
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        return open(path, "w", newline=newline, encoding="utf-8")
    except OSError as err:
        raise ConfigurationError(f"cannot write {path}: {err.strerror}") from None


def _fmt(v: float) -> str:
    # repr round-trips float64 exactly, which makes write/load an identity
    return repr(float(v))


def _write(sample: _Sample, path) -> None:
    header = list(sample.unit_columns) + [f"s{j + 1}" for j in range(sample.n_surrogates)]
    header += [f"x{j + 1}" for j in range(sample.n_covariates)]
    cols = [[str(int(v)) if c == "w" else _fmt(v) for v in getattr(sample, c)] for c in sample.unit_columns]
    cols += [[_fmt(v) for v in col] for col in sample.sx.T]
    with _open_output(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in zip(*cols):
            writer.writerow(row)


def write_experimental(sample: ExperimentalSample, path) -> None:
    _write(sample, path)


def write_observational(sample: ObservationalSample, path) -> None:
    _write(sample, path)


def write_single(sample: SingleSample, path) -> None:
    _write(sample, path)
