"""Property tests of the CLI's input contract: bad `verify-norms` and `report`
rows exit 1 with one line, never a traceback."""
import contextlib
import io
import json
import os
import tempfile

import pytest

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
