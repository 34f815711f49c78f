import importlib.util
import json
import math
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "compare_outputs.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("compare_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestSummarizeChange:
    PARENT = (
        "r,v_max_tot,sigma_min,discarded_rank,tag\n"
        "0.5,1,0.10000000000000001,0,a\n"
        "1,2,nan,0,b\n"
        "1.5,4,0.25,2,c\n"
    )

    def test_csv_columns(self, tool):
        change = (
            "r,v_max_tot,sigma_min,discarded_rank,tag\n"
            "0.5,1,0.1,0,a\n"
            "1,2.000002,nan,2,b\n"
            "1.5,3.9999996,0.25,0,d\n"
        )
        lines = tool.summarize_change("report.csv", self.PARENT.encode(), change.encode())
        # r is unchanged; the %.16g text of 0.1 parses to the same float
        assert lines[0].startswith("v_max_tot: largest relative change ")
        assert float(lines[0].rsplit(" ", 1)[1]) == pytest.approx(1e-6, rel=1e-2)
        assert lines[1:] == [
            "sigma_min: same values, different text",
            "discarded_rank: exact, 2 entries differ (first at 1)",
            "tag: non-numeric entries differ",
        ]

    def test_csv_shape_changes(self, tool):
        change = "r,v_max_tot,extra\n0.5,1,7\n1,2,7\n1.5,4,7\n"
        lines = tool.summarize_change("peaks.csv", self.PARENT.encode(), change.encode())
        assert lines == [
            "sigma_min: parent side only",
            "discarded_rank: parent side only",
            "tag: parent side only",
            "extra: change side only",
        ]
        shorter = "r,v_max_tot\n0.5,1\n"
        assert tool.summarize_change("a.csv", self.PARENT.encode(), shorter.encode())[0] == (
            "r: 3 entries != 1"
        )

    def test_report_json_leaves(self, tool):
        parent = {
            "metadata": {"experiment": "hn", "pearson": math.nan, "marked": {"v_max_tot": 8.0}},
            "columns": {"v_max_tot": [1.0, 2.0], "discarded_rank": [0, 0]},
        }
        change = {
            "metadata": {"experiment": "hn", "pearson": math.nan, "marked": {"v_max_tot": 8.0}},
            "columns": {"v_max_tot": [1.0, 2.5], "discarded_rank": [1, 0]},
        }
        lines = tool.summarize_change(
            "report.json", json.dumps(parent).encode(), json.dumps(change).encode()
        )
        # NaN against NaN is no change
        assert lines == [
            "columns.v_max_tot: largest relative change 0.2",
            "columns.discarded_rank: exact, 1 entries differ (first at 0)",
        ]

    def test_relative_change(self, tool):
        assert tool._relative_change(2.0, 2.0) == 0.0
        assert tool._relative_change(math.nan, math.nan) == 0.0
        assert tool._relative_change(1.0, math.nan) == math.inf
        assert tool._relative_change(-1.0, 1.0) == 2.0

    def test_other_files_get_no_summary(self, tool):
        assert tool.summarize_change("notes.txt", b"a", b"b") == []
