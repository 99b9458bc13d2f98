import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surrogate_ate import data
from surrogate_ate import (
    ConfigurationError,
    ExperimentalSample,
    ObservationalSample,
    PoolingError,
    Schema,
    SchemaError,
    SingleSample,
    SurrogateError,
    ValidationError,
    load_experimental,
    load_observational,
    load_single,
    make_spec,
    draw_dataset,
    pool,
    write_experimental,
    write_observational,
    write_single,
)


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def test_load_experimental_small(tmp_path):
    p = _write(tmp_path / "e.csv", "w,s1\n0,0.1\n1,0.2\n0,0.3\n1,0.4\n")
    sample = load_experimental(p)
    assert sample.n == 4
    assert sample.n_surrogates == 1
    assert sample.n_covariates == 0
    assert list(sample.w) == [0, 1, 0, 1]


def test_load_experimental_rejects_nonbinary_w(tmp_path):
    p = _write(tmp_path / "e.csv", "w,s1\n0,0.1\n2,0.2\n1,0.3\n")
    with pytest.raises(ValidationError, match="row 2"):
        load_experimental(p)


def test_load_experimental_rejects_nonfinite(tmp_path):
    p = _write(tmp_path / "e.csv", "w,s1\n0,0.1\n1,nan\n1,0.3\n")
    with pytest.raises(ValidationError, match="row 2"):
        load_experimental(p)


def test_load_rejects_missing_cell(tmp_path):
    p = _write(tmp_path / "e.csv", "w,s1\n0,0.1\n1,\n")
    with pytest.raises(ValidationError, match="missing value"):
        load_experimental(p)


def test_load_observational_small(tmp_path):
    p = _write(tmp_path / "o.csv", "y,s1,s2\n0,0.1,1.0\n1,0.2,2.0\n1,0.3,3.0\n")
    sample = load_observational(p)
    assert sample.n == 3
    assert sample.n_surrogates == 2
    assert list(sample.y) == [0, 1, 1]


def test_schema_mismatch_is_an_error(tmp_path):
    p = _write(tmp_path / "o.csv", "y,s1,s2\n0,0.1,1.0\n1,0.2,2.0\n")
    schema = Schema(surrogates=["s1", "s2", "s3"])
    with pytest.raises(SchemaError, match="s3"):
        load_observational(p, schema)


def test_missing_file_is_schema_error(tmp_path):
    with pytest.raises(SchemaError, match="not found"):
        load_experimental(tmp_path / "nope.csv")


@pytest.mark.parametrize("case, message", [
    ("directory", "cannot read .*: Is a directory"),
    ("under_a_file", "cannot read .*: Not a directory"),
    ("not_utf8", "is not UTF-8 text: it holds the byte 0xff"),
    ("huge_field", "is not a readable CSV file: field larger than field limit"),
])
def test_unreadable_file_is_schema_error(tmp_path, case, message):
    path = tmp_path / "e.csv"
    if case == "directory":
        path.mkdir()
    elif case == "under_a_file":
        _write(tmp_path / "plain", "w,s1\n")
        path = tmp_path / "plain" / "e.csv"
    elif case == "not_utf8":
        path.write_bytes(b"w,s1\n0,0.5\n1,\xff\n")
    else:
        _write(path, "w,s1\n0," + "1" * 200_000 + "\n1,0.5\n")
    with pytest.raises(SchemaError, match=message):
        load_experimental(path)


def test_covariates_detected_and_ordered(tmp_path):
    p = _write(tmp_path / "e.csv", "w,s2,s1,x1\n0,9.0,0.1,5.0\n1,8.0,0.2,6.0\n")
    sample = load_experimental(p)
    # columns are ordered by numeric suffix, not file order
    assert sample.s[0, 0] == 0.1 and sample.s[0, 1] == 9.0
    assert sample.x[0, 0] == 5.0


def test_dgp_roundtrip_bit_exact(tmp_path):
    base = make_spec("dimension", seed=3, m=4)
    spec = type(base)(study="dimension", m_surrogates=4, n_exp=1000, n_obs=1000,
                      alpha=base.alpha, gamma=base.gamma, seed=3)
    exp, obs = draw_dataset(spec, np.random.SeedSequence((3, 2, 0, 0)))
    pe, po = tmp_path / "e.csv", tmp_path / "o.csv"
    write_experimental(exp, pe)
    write_observational(obs, po)
    exp2 = load_experimental(pe)
    obs2 = load_observational(po)
    assert np.array_equal(exp.w, exp2.w)
    assert np.array_equal(exp.s, exp2.s)
    assert np.array_equal(obs.y, obs2.y)
    assert np.array_equal(obs.s, obs2.s)


def test_single_sample_roundtrip(tmp_path):
    sample = SingleSample(
        w=[1, 0, 1], y=[0.25, -1.5, 3e-17], s=[[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]], x=[[7.0], [8.0], [9.0]]
    )
    p = tmp_path / "ss.csv"
    write_single(sample, p)
    back = load_single(p)
    assert np.array_equal(sample.w, back.w)
    assert np.array_equal(sample.y, back.y)
    assert np.array_equal(sample.s, back.s)
    assert np.array_equal(sample.x, back.x)


def test_experimental_needs_both_arms():
    with pytest.raises(ValidationError, match="treated and one control"):
        ExperimentalSample(w=[1, 1, 1], s=[[0.0], [1.0], [2.0]])


def test_pool_q_from_sizes(rng):
    exp = ExperimentalSample(w=rng.integers(0, 2, 500), s=rng.normal(size=(500, 2)))
    # force both arms
    w = np.array(exp.w, copy=True)
    w[0], w[1] = 0, 1
    exp = ExperimentalSample(w=w, s=exp.s)
    obs = ObservationalSample(y=rng.normal(size=500), s=rng.normal(size=(500, 2)))
    pooled = pool(exp, obs)
    assert pooled.q == 0.5
    assert pooled.n_total == 1000
    assert pooled.is_experimental.dtype == bool
    assert pooled.is_experimental[:500].all()
    assert not pooled.is_experimental[500:].any()


def test_pool_q_quarter():
    exp = ExperimentalSample(w=[0, 1] * 125, s=np.zeros((250, 1)))
    obs = ObservationalSample(y=np.zeros(750), s=np.zeros((750, 1)))
    assert pool(exp, obs).q == 0.25


def test_pool_dimension_mismatch():
    exp = ExperimentalSample(w=[0, 1], s=np.zeros((2, 2)))
    obs = ObservationalSample(y=np.zeros(3), s=np.zeros((3, 3)))
    with pytest.raises(PoolingError, match="surrogate dimension"):
        pool(exp, obs)


def test_pool_does_not_mutate_inputs():
    exp = ExperimentalSample(w=[0, 1], s=[[1.0], [2.0]])
    obs = ObservationalSample(y=[0.5], s=[[3.0]])
    s_before = exp.s.copy()
    pooled = pool(exp, obs)
    assert 0.0 < pooled.q < 1.0
    assert np.array_equal(exp.s, s_before)
    assert not exp.s.flags.writeable  # immutable after construction


def test_pooled_designs_are_built_once_and_read_only(rng):
    exp = ExperimentalSample(w=np.tile([0.0, 1.0], 20), s=rng.normal(size=(40, 3)), x=rng.normal(size=(40, 2)))
    obs = ObservationalSample(y=rng.normal(size=30), s=rng.normal(size=(30, 3)), x=rng.normal(size=(30, 2)))
    pooled = pool(exp, obs)
    stacked = np.hstack([np.vstack([exp.s, obs.s]), np.vstack([exp.x, obs.x])])
    assert np.array_equal(pooled.sx, stacked) and pooled.sx.flags.c_contiguous
    for name, features in (("standardized_sx", stacked), ("standardized_x", exp.x)):
        designs = getattr(pooled, name)
        assert getattr(pooled, name) is designs  # built on first use, then cached
        for got, want in zip(designs, data._standardize(features)):
            assert got.tobytes() == want.tobytes()
    for array in (pooled.sx, *pooled.standardized_sx, *pooled.standardized_x):
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0


def test_crlf_bytes_reach_the_c_reader_unchanged(tmp_path):
    raw = b"w,s1,x1\r\n0,0.1,5\r\n1,0.2,6\r\n"
    path = tmp_path / "e.csv"
    path.write_bytes(raw)
    assert data._plain_body(path) == (["w", "s1", "x1"], raw)
    lf = tmp_path / "lf.csv"
    lf.write_bytes(raw.replace(b"\r\n", b"\n"))
    for c in "wsx":
        assert getattr(load_experimental(path), c).tobytes() == getattr(load_experimental(lf), c).tobytes()


# each layout with its per-unit columns, writer and loader
LAYOUTS = (
    (ExperimentalSample, ("w",), write_experimental, load_experimental),
    (ObservationalSample, ("y",), write_observational, load_observational),
    (SingleSample, ("w", "y"), write_single, load_single),
)


@st.composite
def sample_columns(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    m = draw(st.integers(min_value=1, max_value=3))
    k = draw(st.integers(min_value=0, max_value=2))
    finite = st.floats(min_value=-1e12, max_value=1e12, allow_nan=False, allow_infinity=False)
    w = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n).filter(lambda v: 0 < sum(v) < len(v)))
    y = draw(st.lists(finite, min_size=n, max_size=n))
    s = draw(st.lists(st.lists(finite, min_size=m, max_size=m), min_size=n, max_size=n))
    x = draw(st.lists(st.lists(finite, min_size=k, max_size=k), min_size=n, max_size=n)) if k else None
    return {"w": w, "y": y, "s": s, "x": x}


@settings(max_examples=50, deadline=None)
@given(sample_columns())
def test_write_then_load_is_identity(tmp_path_factory, columns):
    for cls, unit_columns, write, load in LAYOUTS:
        names = (*unit_columns, "s", "x")
        sample = cls(**{c: columns[c] for c in names})
        path = tmp_path_factory.mktemp("rt") / "sample.csv"
        write(sample, path)
        back = load(path)
        assert type(back) is cls
        for c in names:
            assert np.array_equal(getattr(sample, c), getattr(back, c)), (cls.__name__, c)


@pytest.mark.parametrize("cls, unit_columns, write, load", LAYOUTS)
def test_writers_create_missing_parents_and_reject_a_directory(tmp_path, cls, unit_columns, write, load):
    columns = {"w": [0, 1], "y": [0.5, 1.5], "s": [[1.0], [2.0]]}
    sample = cls(**{c: columns[c] for c in (*unit_columns, "s")})
    path = tmp_path / "new" / "dir" / "sample.csv"
    write(sample, path)
    assert np.array_equal(load(path).s, sample.s)
    with pytest.raises(ConfigurationError, match="cannot write"):
        write(sample, tmp_path / "new")
    (tmp_path / "plain").write_text("", encoding="utf-8")
    with pytest.raises(ConfigurationError, match="cannot write"):
        write(sample, tmp_path / "plain" / "sample.csv")


def test_duplicate_header_column_is_schema_error(tmp_path):
    p = _write(tmp_path / "e.csv", "w,s1,s1\n0,0.1,9.0\n1,0.2,8.0\n")
    with pytest.raises(SchemaError, match="more than once.*s1"):
        load_experimental(p)
    p = _write(tmp_path / "o.csv", "y,s1,x1,x1\n0,0.1,1.0,2.0\n1,0.2,3.0,4.0\n")
    with pytest.raises(SchemaError, match="more than once.*x1"):
        load_observational(p)


# a bad cell on data row 3 of a six-row file, for each layout
BAD_ROWS = {
    "short row": (lambda cells: cells[:-1], r"row 3, column x1: missing value"),
    "blank line": (lambda cells: [], r"row 3, column (w|y): missing value"),
    "unparsable x": (lambda cells: cells[:-1] + ["abc"], r"row 3, column x1: cannot parse 'abc'"),
    "quoted number": (lambda cells: cells[:-3] + ['"0.5"'] + cells[-2:], None),
    "overflow": (lambda cells: cells[:-2] + ["1e400"] + cells[-1:], r"non-finite value in s column 2 at row 3"),
}


@pytest.mark.parametrize("case", sorted(BAD_ROWS))
@pytest.mark.parametrize("layout", LAYOUTS, ids=lambda layout: layout[0].__name__)
def test_load_names_the_bad_row(tmp_path, layout, case):
    cls, unit_columns, _, load = layout
    edit, message = BAD_ROWS[case]
    lines = [",".join([*unit_columns, "s1", "s2", "x1"])]
    for i in range(6):
        cells = [str(i % 2) if c == "w" else f"{i}.25" for c in unit_columns]
        cells += [f"{0.1 * i!r}", f"{-0.2 * i!r}", f"{i}.5"]
        lines.append(",".join(edit(cells) if i == 2 else cells))
    path = _write(tmp_path / "sample.csv", "\n".join(lines) + "\n")
    if message is None:
        sample = load(path)
        assert type(sample) is cls and sample.n == 6 and sample.s[2, 0] == 0.5
    else:
        with pytest.raises(ValidationError, match=message):
            load(path)


@pytest.mark.parametrize("schema", [
    Schema(surrogates=["s1", "s1"]),
    Schema(surrogates=["s1"], covariates=["s1"]),
    Schema(surrogates=["s1", "s2"], treatment="s2"),
])
def test_schema_reading_a_column_twice_is_schema_error(tmp_path, schema):
    p = _write(tmp_path / "e.csv", "w,s1,s2\n0,0.1,0.5\n1,0.2,0.7\n")
    with pytest.raises(SchemaError, match="reads more than once: s"):
        load_experimental(p, schema)


# ingest behaviours of an experimental file, whichever reader parses its body:
# (file bytes, the loaded (w, s) or the error type and its whole message)
INGEST = {
    "hash inside a field": (b"w,s1\n0,0.1\n1,0.2#c\n", ValidationError, "row 2, column s1: cannot parse '0.2#c'"),
    "spaces around values": (b"w,s1\n 0 , 0.1\n1,\t0.2 \n", [0.0, 1.0], [0.1, 0.2]),
    "UTF-8 byte-order mark": (b"\xef\xbb\xbfw,s1\n0,0.1\n1,0.2\n", SchemaError, "missing column(s): w"),
    "CRLF line ends": (b"w,s1\r\n0,0.1\r\n1,0.2\r\n", [0.0, 1.0], [0.1, 0.2]),
    "CR line ends": (b"w,s1\r0,0.1\r1,0.2\r", [0.0, 1.0], [0.1, 0.2]),
    "mixed line ends": (b"w,s1\r0,0.1\n1,0.2\r\n", [0.0, 1.0], [0.1, 0.2]),
    "no final line end": (b"w,s1\n0,0.1\n1,0.2", [0.0, 1.0], [0.1, 0.2]),
    "trailing blank line": (b"w,s1\n0,0.1\n1,0.2\n\n", ValidationError, "row 3, column w: missing value"),
    "trailing blank CRLF line": (b"w,s1\r\n0,0.1\r\n1,0.2\r\n\r\n", ValidationError, "row 3, column w: missing value"),
    "line of spaces": (b"w,s1\n0,0.1\n  \n1,0.2\n", ValidationError, "row 2, column w: cannot parse '  '"),
    "header only": (b"w,s1\n", ValidationError, "experimental sample must contain at least one row"),
    "empty file": (b"", SchemaError, "empty file: {path}"),
    "underscore in a number": (b"w,s1\n0,1_000\n1,0.2\n", [0.0, 1.0], [1000.0, 0.2]),
    "leading plus": (b"w,s1\n0,+1.5\n1,0.2\n", [0.0, 1.0], [1.5, 0.2]),
    "quoted cells": (b'w,s1\n"0","0.1"\n1," 0.2"\n', [0.0, 1.0], [0.1, 0.2]),
    "unbalanced quote": (b'w,s1\n0,"0.1\n1,0.2\n', ValidationError, "row 1, column s1: cannot parse '0.1\\n1,0.2\\n'"),
    "extra cells": (b"w,s1\n0,0.1,7\n1,0.2,,\n", [0.0, 1.0], [0.1, 0.2]),
    "non-ASCII digit": (b"w,s1\n0,\xd9\xa1\n1,0.2\n", [0.0, 1.0], [1.0, 0.2]),
    # a file the csv module cannot read is reported before a header the schema rejects
    "non-UTF-8 body under a bad header": (b"w,t1\n0,\xff\n", SchemaError, "{path} is not UTF-8 text: it holds the byte 0xff"),
    "oversized field under a bad header": (b"w,t1\n0," + b"1" * 140_000 + b"\n", SchemaError,
                                           "{path} is not a readable CSV file: field larger than field limit (131072)"),
}


@pytest.mark.parametrize("case", sorted(INGEST))
def test_ingest_behaviour_is_pinned(tmp_path, case):
    raw, *expected = INGEST[case]
    path = tmp_path / "e.csv"
    path.write_bytes(raw)
    if isinstance(expected[0], type):
        with pytest.raises(expected[0]) as err:
            load_experimental(path)
        assert str(err.value) == expected[1].format(path=path)
    else:
        sample = load_experimental(path)
        assert sample.w.tolist() == expected[0] and sample.s[:, 0].tolist() == expected[1]


@pytest.mark.parametrize("spelling", ["nan", "NaN", "+nan", "-NAN", "inf", "-inf", "+Infinity", "iNfInItY"])
def test_nan_and_inf_spellings_are_non_finite_values(tmp_path, spelling):
    path = _write(tmp_path / "e.csv", f"w,s1\n0,0.1\n1,{spelling}\n")
    with pytest.raises(ValidationError) as err:
        load_experimental(path)
    assert str(err.value) == "non-finite value in s column 1 at row 2"
    path = _write(tmp_path / "e.csv", f"w,s1\n{spelling},0.1\n1,0.2\n")
    with pytest.raises(ValidationError) as err:
        load_experimental(path)
    assert str(err.value) == "non-finite value in w at row 1"


def test_plain_file_is_read_by_numpys_c_reader(tmp_path, monkeypatch):
    path = _write(tmp_path / "e.csv", "w,s1,x1\r\n0,0.1,5\r\n1,\"0.2\",6\r\n")
    monkeypatch.setattr(data, "_read_rows", None)  # the csv rescan must not run
    sample = load_experimental(path)
    assert sample.s[:, 0].tolist() == [0.1, 0.2] and sample.x[:, 0].tolist() == [5.0, 6.0]


@pytest.mark.parametrize("text", [
    "w,s1\n0,0.1\n\n1,0.2\n",          # blank line
    "w,s1\n\n0,0.1\n1,0.2\n",          # blank first data line
    "w,s1\r0,0.1\r1,0.2\r",             # carriage returns alone
    "w,s1\r0,0.1\n1,0.2\n",             # one carriage return alone, in the header line
    "w,s1\r\n0,0.1\r1,0.2\r\n",         # one carriage return alone, among CRLF line ends
    "w,s1\r\n0,0.1\r\n1,0.2\r",         # a final carriage return alone
    "w,s1\r\n0,0.1\r\n\r\n1,0.2\r\n",   # blank CRLF line
    '"w",s1\n0,0.1\n1,0.2\n',           # quote in the header line
    "w,s1\n",                           # no data row
    "w,s1\n0," + "1" * 140_000 + "\n",   # a line over the csv field limit
    "w,s1\n" + "0,0.5\n" * 30_000 + '1,"0.2"\n',  # a quote in a file over the limit
])
def test_features_the_readers_part_on_take_the_csv_rescan(tmp_path, text):
    assert data._plain_body(_write(tmp_path / "e.csv", text)) is None


_CELLS = ["0", "1", "0.5", "-2.5e-3", "+1", "1_0", "nan", "", " 1 ", '"1"', '" 2 "', '"1"2', '1"', '""',
          "abc", "1#", "\x00", "\xa01", "1e400", "0x1"]


@st.composite
def _csv_text(draw):
    header = draw(st.sampled_from(["w,s1,x1", "w,s1", "s1,w,x1", "w,s1,x1,"]))
    ncols = header.count(",") + 1
    row = st.lists(st.sampled_from(_CELLS), min_size=ncols - 1, max_size=ncols + 1).map(",".join)
    ends = st.sampled_from(["\n", "\n", "\n", "\r\n", "\r", "\n\n"])
    lines = draw(st.lists(st.tuples(row, ends), max_size=5))
    return header + "\n" + "".join(line + end for line, end in lines)


def _outcome(path):
    try:
        sample = load_experimental(path)
    except SurrogateError as err:
        return type(err), str(err)
    return tuple(getattr(sample, c).tobytes() + bytes(str(getattr(sample, c).shape), "ascii") for c in "wsx")


@settings(max_examples=200, deadline=None)
@given(_csv_text())
def test_c_reader_loads_what_the_csv_rescan_loads(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("csv") / "e.csv"
    path.write_text(text, encoding="utf-8", newline="")
    fast = _outcome(path)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(data, "_plain_body", lambda path: None)
        assert _outcome(path) == fast
