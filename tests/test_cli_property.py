"""Property tests of the CLI's input contract: bad `verify-norms` and `report`
rows and out-of-range `verify-geometry` numbers exit 1 with one line, never a
traceback, and `verify-norms` accepts exactly the rows that the per-value rule
accepts."""
import contextlib
import io
import json
import os
import sys
import tempfile
import warnings

import pytest

from poissonlab import cli
from poissonlab.cli import main

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


# any JSON value a row entry could be, nested a little
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner,
                                                                max_size=2),
    max_leaves=4)
_numbers = st.integers(-10**6, 10**6) | st.floats(allow_nan=True, allow_infinity=True)


def _run_on_rows(command, rows):
    """Run ``command --input`` on ``rows``: exit 0, 1 or 2, and exit 1 is one error line."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "rows.json")
        with open(path, "w") as fh:
            json.dump(rows, fh)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([command, "--input", path])
    assert code in (0, 1, 2)
    if code == 1:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "Traceback" not in err.getvalue()


class TestVerifyNormsProperty:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.one_of(st.lists(_numbers, min_size=2, max_size=2),
                              st.lists(_numbers, min_size=4, max_size=4),
                              st.lists(_json_values, max_size=5), _json_values),
                    max_size=6))
    def test_any_rows_exit_cleanly(self, rows):
        _run_on_rows("verify-norms", rows)


def _rows_valid(rows) -> bool:
    """The per-value rule of `verify-norms --input` rows: a nonempty array of
    rows all of width 2 or all of width 4, each entry an int or a float (no
    bool) of absolute value at most the largest double."""
    def finite_number(x):
        return type(x) in (int, float) and abs(x) <= sys.float_info.max

    return (isinstance(rows, list) and bool(rows)
            and {len(r) if isinstance(r, list) else -1 for r in rows} in ({2}, {4})
            and all(finite_number(x) for r in rows for x in r))


_BIG = int(sys.float_info.max)
# entries at the edges of the rule: ints either side of the largest double
# (some round to it), ints past the double range, bools, NaN, infinities and
# the largest doubles themselves
_entries = (st.floats(allow_nan=True, allow_infinity=True)
            | st.sampled_from([sys.float_info.max, -sys.float_info.max, _BIG + 1, -_BIG - 1,
                               True, False, None, "1"])
            | st.integers(-10**6, 10**6) | st.integers(_BIG - 2**971, _BIG + 2**971)
            | st.integers(-_BIG - 2**971, -_BIG + 2**971) | st.integers(-10**400, 10**400))


class TestVerifyNormsRule:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(_entries, min_size=2, max_size=2), min_size=1, max_size=5)
           | st.lists(st.lists(_entries, min_size=4, max_size=4), min_size=1, max_size=5)
           | st.lists(st.lists(_entries, min_size=1, max_size=4) | _entries, max_size=4))
    def test_loader_agrees_with_per_value_rule(self, rows):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "rows.json")
            with open(path, "w") as fh:
                json.dump(rows, fh)
            try:
                with contextlib.suppress(ValueError):  # WeightedSamples' checks come after
                    cli._load_samples(path)
                accepted = True
            except cli.InputError:
                accepted = False
        assert accepted == _rows_valid(rows)


# a well-formed verdict row with stray keys, then the same with one field
# replaced by any JSON value
_good_rows = st.fixed_dictionaries(
    {"name": st.text(max_size=3), "lhs": _numbers, "rhs": _numbers},
    optional={"tol": _numbers, "case": st.text(max_size=3), "ratio": _json_values,
              "pass": _json_values})
_verdict_rows = _good_rows | st.builds(lambda row, key, value: {**row, key: value}, _good_rows,
                                       st.sampled_from(["name", "lhs", "rhs", "tol", "case"]),
                                       _json_values)


class TestReportProperty:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(_verdict_rows | _json_values, max_size=4))
    def test_any_verdict_rows_exit_cleanly(self, rows):
        _run_on_rows("report", rows)


_positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


def _run_geometry(argv):
    """Exit code, stdout and stderr of ``verify-geometry argv``, and its warnings."""
    out, err = io.StringIO(), io.StringIO()
    with (contextlib.redirect_stdout(out), contextlib.redirect_stderr(err),
          warnings.catch_warnings(record=True) as caught):
        warnings.simplefilter("always")  # a warning would print a second line
        code = main(["verify-geometry", *argv])
    return code, out.getvalue(), err.getvalue(), caught


class TestVerifyGeometryProperty:
    @settings(max_examples=50, deadline=None)
    @given(st.sampled_from(["flat", "sphere", "hyperbolic", "perturbed:0.05"]), _positive,
           _positive)
    def test_any_finite_positive_A_and_p_exit_cleanly(self, metric, A, p):
        code, _, err, caught = _run_geometry(["--metric", metric, "--A", repr(A), "--p", repr(p)])
        assert code in (0, 1, 2) and not caught
        if code == 1:
            lines = err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: ")

    def test_curvature_norm_one_line(self):
        # the sphere's L^p norm of K at p = 0.001 is past the double range ...
        code, _, err, caught = _run_geometry(["--metric", "sphere", "--A", "8", "--p", "0.001"])
        assert code == 1 and len(err.splitlines()) == 1 and err.startswith("error: ")
        assert not caught
        # ... but on perturbed:0.9 at p = 200 only |K|^p overflows: the norm is about 50
        code, out, _, caught = _run_geometry(["--metric", "perturbed:0.9", "--A", "1",
                                              "--p", "200"])
        assert code in (0, 2) and "A_curv=50.1293" in out and not caught
