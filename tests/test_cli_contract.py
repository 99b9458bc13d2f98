"""The command-line contract on generated inputs.

Hypothesis draws small CSV bodies (ties, constant columns, one-arm files,
huge and tiny magnitudes, a UTF-8 byte order mark) and flag values for
``estimate``, ``diagnose`` and ``bounds``, and runs each case through
``cli.main`` in this process with ``SURROGATE_THREADS=1``.  Whatever the
input, a command exits 0, 2 or 3, writes at most one line on stderr and
raises no Python warning, prints strict JSON, and leaves no ``--out``
file behind when it fails.
"""

import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from surrogate_ate import cli

# cell values by kind: ties and signed zeros, moderate floats, and magnitudes near the ends of float64
_CELLS = {
    "ties": st.sampled_from(["0", "1", "-1", "0.5", "-0.0"]),
    "moderate": st.floats(-3.0, 3.0, allow_nan=False).map(repr),
    "huge": st.sampled_from(["1e308", "-1.7e308", "3e160", "-2e200"]),
    "tiny": st.sampled_from(["5e-324", "-1e-320", "1e-310", "0"]),
}


def _rare(n):
    """``True`` about once in ``n`` draws (hypothesis leans to the first entry, so ``True`` comes last)."""
    return st.sampled_from([False] * (n - 1) + [True])


def _mostly(usual, unusual):
    """One of ``usual``, or about once in ten draws one of ``unusual``; so most cases get past the checks."""
    return _rare(10).flatmap(lambda odd: st.sampled_from(unusual if odd else usual))


_RIDGES = _mostly(["0", "0.001", "1e-320"], ["1e308", "nan", "inf", "-1"])
_TRIMS = _mostly(["0", "1e-6", "0.2"], ["0.4999999999", "0.7", "-0.1"])


@st.composite
def _csv_text(draw, units, m, k):
    """A CSV body with the ``units`` columns, ``s1..sm`` and ``x1..xk``."""
    n = draw(_mostly([16, 10, 24], [1, 2, 3]))
    header = [*units, *(f"s{j + 1}" for j in range(m)), *(f"x{j + 1}" for j in range(k))]
    values = st.one_of(_CELLS[draw(_mostly(["ties", "moderate"], ["huge", "tiny"]))], _CELLS["moderate"])
    one_arm = draw(_rare(10))
    binary = st.sampled_from(["0", "1"])
    rows = [[("1" if one_arm else draw(binary)) if c == "w" else draw(binary | values) if c == "y" else draw(values)
             for c in header] for _ in range(n)]
    if "w" in units and n > 1 and not one_arm:
        rows[0][0], rows[1][0] = "0", "1"
    if draw(_rare(3)):  # a constant surrogate or covariate
        j = draw(st.integers(len(units), len(header) - 1))
        for row in rows:
            row[j] = rows[0][j]
    text = "\n".join(",".join(r) for r in [header, *rows]) + "\n"
    return ("\ufeff" if draw(_rare(20)) else "") + text


@st.composite
def _case(draw):
    """``(command, files, flags)``: the CSV texts by flag, and the other flags."""
    command = draw(st.sampled_from(["estimate", "diagnose", "bounds", "bounds-two-sample"]))
    m, k = draw(st.integers(1, 2)), draw(st.integers(0, 1))
    ridge = ["--ridge", draw(_RIDGES)]
    if command == "bounds":
        mode = draw(st.sampled_from(["homoskedastic", "per-stratum"]))
        return "bounds", {"--single": draw(_csv_text(("w", "y"), m, k))}, ["--variance-mode", mode, *ridge]
    # the two samples usually agree on their columns
    k_obs = k if command == "bounds-two-sample" or not draw(_rare(10)) else 1 - k
    files = {"--exp": draw(_csv_text(("w",), m, k)), "--obs": draw(_csv_text(("y",), m, k_obs))}
    if command == "bounds-two-sample":
        return "bounds", files, ridge
    flags = [*ridge, "--trim", draw(_TRIMS)]
    flags += [flag for flag in ("--constant-t", "--interactions") if draw(st.booleans())]
    if command == "diagnose":
        caps = _mostly(["0", "1", "0.5"], ["inf", "nan", "-1"])
        return command, files, [*flags, "--delta-s", draw(caps), "--delta-c", draw(caps)]
    method = draw(st.sampled_from(["all", "index", "score", "linear", "match"]))
    bootstrap = draw(_mostly(["0", "2", "3"], ["-1", "1"]))
    seed = draw(st.sampled_from(["0", "7", "12345678901234567890123"]))
    return command, files, [*flags, "--method", method, "--bootstrap", bootstrap, "--seed", seed]


def _strict(text):
    """``text`` parsed as JSON that holds no NaN or infinity."""
    def refuse(constant):
        raise AssertionError(f"not strict JSON: {constant}")

    return json.loads(text, parse_constant=refuse)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_case(), st.booleans())
def test_every_command_keeps_the_contract(case, to_file):
    command, files, flags = case
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setenv("SURROGATE_THREADS", "1")
        argv = [command]
        for flag, text in files.items():
            path = Path(tmp) / f"{flag[2:]}.csv"
            path.write_text(text, encoding="utf-8")
            argv += [flag, str(path)]
        out = Path(tmp) / "result.json"
        argv += flags + (["--out", str(out)] if to_file else [])
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(argv)
        assert code in (0, 2, 3), argv
        event(f"{argv[0]} exit {code}")
        assert [str(w.message) for w in caught] == []
        assert len(stderr.getvalue().splitlines()) <= 1, stderr.getvalue()
        if code == 0:
            _strict(out.read_text(encoding="utf-8") if to_file else stdout.getvalue())
        else:
            assert stderr.getvalue().startswith("error: ")
            assert not out.exists()
        if to_file:
            assert stdout.getvalue() == ""
