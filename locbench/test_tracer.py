"""The recorder leaves CLI outputs unchanged and its span arithmetic holds.

    python3 -m pytest locbench/test_tracer.py -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import tracer

ROOT = Path(__file__).resolve().parent.parent


def test_self_and_inclusive_time():
    # a(0..10) > b(1..4) > c(2..3); a > d(5..9); names "x.a" etc.
    spans = [
        ["x.a", 0.0, 10.0, -1, None],
        ["y.b", 1.0, 4.0, 0, {"bytes": 5}],
        ["y.c", 2.0, 3.0, 1, {"bytes": 7}],
        ["z.d", 5.0, 9.0, 0, None],
    ]
    t = tracer.SpanTable([{"spans": spans, "counts": {}}])
    assert t.self_time("x.a") == 10.0 - 3.0 - 4.0
    assert t.self_time("y.") == (3.0 - 1.0) + 1.0
    assert t.inclusive("y.") == 3.0  # y.c nests in y.b and is counted once
    assert t.inclusive("y.c", "z.d") == 1.0 + 4.0
    assert t.calls("y.") == 2
    assert t.attr_sum("bytes", "y.") == 12


def test_traced_run_matches_untraced(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    args = ["hn", "--set", "n_sites=30", "--set", "r_count=5", "--workers", "1"]
    plain = subprocess.run(
        [sys.executable, "-m", "locland.cli", *args, "--out", str(tmp_path / "plain")], env=env
    )
    spans = tmp_path / "spans.json"
    traced = subprocess.run(
        [sys.executable, str(ROOT / "locbench" / "tracer.py"), str(spans), *args,
         "--out", str(tmp_path / "traced")],
        env=env,
    )
    assert plain.returncode == traced.returncode == 0
    for name in ("report.csv", "profile_r0.70.csv", "profile_r1.30.csv"):
        assert (tmp_path / "plain" / name).read_bytes() == (tmp_path / "traced" / name).read_bytes()
    metrics = tracer.layer_metrics([json.loads(spans.read_text())])
    assert set(metrics) | {"trace.overhead_s"} == {name for name, _, _ in tracer.LAYER_METRICS}
    assert metrics["landscape.solve_calls"] == 5
    assert metrics["linalg.eig_general_calls"] == 5
    assert metrics["models.calls"] == 5
    assert metrics["experiments.grid_points"] == 5
    assert metrics["io.bytes_written"] > 0
