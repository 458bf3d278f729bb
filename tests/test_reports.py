"""Report table rendering in text, CSV, and JSON."""
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from truecount.reports import FORMATS, ReportTable, _json_text


@pytest.fixture
def table():
    return ReportTable(
        title="demo",
        row_labels=["alpha", "beta"],
        col_labels=["1", "2"],
        cells=[[0.5, 1.25], [2.0, 3.5]],
        precision=2,
        cell_markers={(1, 1): "*"},
        notes=["* footnote"],
    )


class TestValidation:
    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError):
            ReportTable("t", ["a"], ["1", "2"], [[1.0]])

    def test_label_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ReportTable("t", ["a", "b"], ["1"], [[1.0]])


class TestText:
    def test_alignment_and_marker(self, table):
        text = table.to_text()
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "alpha" in lines[2] and "0.50" in lines[2]
        assert "3.50*" in lines[3]
        assert lines[-1] == "* footnote"

    def test_precision(self, table):
        table.precision = 4
        assert "1.2500" in table.to_text()

    def test_string_cells_pass_through(self):
        t = ReportTable("t", ["r"], ["c"], [["5/936"]])
        assert "5/936" in t.to_text()


class TestCsv:
    def test_crlf_and_values(self, table):
        text = table.to_csv()
        assert "\r\n" in text
        rows = [r.split(",") for r in text.strip().split("\r\n")]
        assert rows[1][1:] == ["1", "2"]
        assert rows[2][0] == "alpha"
        assert rows[3][2] == "3.50*"


class TestJson:
    def test_roundtrip(self, table):
        data = json.loads(table.to_json())
        assert data["title"] == "demo"
        assert data["rows"][0]["cells"] == [0.5, 1.25]
        assert data["rows"][1]["markers"] == {"1": "*"}
        assert data["notes"] == ["* footnote"]


#: Floats whose JSON text has a rule of its own, and a float subclass.
EDGE_FLOATS = (math.nan, math.inf, -math.inf, -0.0, 5e-324, np.float64(0.1))

#: Text with non-ASCII, control and quote characters, and lone surrogates.
TEXT = st.text(st.characters() | st.sampled_from('"\\\x00\x1f\x7f\u2028\ud800é€😀'))

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | TEXT | st.floats() | st.sampled_from(EDGE_FLOATS)
    | st.integers() | st.integers(-(2**200), 2**200),
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(TEXT, inner, max_size=4),
    max_leaves=20,
)


class TestJsonText:
    """The report writer gives ``json.dumps(v, sort_keys=True, indent=2)``."""

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(value=JSON_VALUES)
    def test_matches_json_dumps(self, value):
        assert _json_text(value) == json.dumps(value, sort_keys=True, indent=2)

    @pytest.mark.parametrize("value", [
        {}, [], (), {"": {}}, [[], {}], {"b": [1, {"a": None}], "a": (True, False)},
        2**64, -(2**64) - 1, *EDGE_FLOATS,
    ])
    def test_edge_values(self, value):
        assert _json_text(value) == json.dumps(value, sort_keys=True, indent=2)

    @pytest.mark.parametrize("value", [
        Fraction(1, 3), {1, 2}, {1: "a"}, [{"a": {None: 1}}], np.int64(1), np.bool_(True),
    ])
    def test_refuses_what_no_report_holds(self, value):
        with pytest.raises(TypeError):
            _json_text(value)


class TestRender:
    def test_all_formats(self, table):
        for fmt in FORMATS:
            assert table.render(fmt)

    def test_unknown_format(self, table):
        with pytest.raises(ValueError):
            table.render("xml")
