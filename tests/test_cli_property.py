"""Property test of the CLI's input contract: bad `verify-norms` rows exit 1
with one line, never a traceback."""
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


class TestVerifyNormsProperty:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.one_of(st.lists(_numbers, min_size=2, max_size=2),
                              st.lists(_numbers, min_size=4, max_size=4),
                              st.lists(_json_values, max_size=5), _json_values),
                    max_size=6))
    def test_any_rows_exit_cleanly(self, rows):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "field.json")
            with open(path, "w") as fh:
                json.dump(rows, fh)
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(["verify-norms", "--input", path])
        assert code in (0, 1, 2)
        if code == 1:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: ")
            assert "Traceback" not in err.getvalue()
