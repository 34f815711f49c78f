"""Check that two source trees write byte-identical outputs on the benchmark workloads.

    python3 tools/compare_outputs.py PARENT_SRC CHANGE_SRC --seed 1 --seed 7

PARENT_SRC and CHANGE_SRC are source checkouts (a directory holding
src/locland, or the src directory itself).  Every CLI invocation of every
workload in locbench/workloads.py runs once per seed against each tree, one
process at a time, into a temporary directory; so, once, does each of
EXTRA_INVOCATIONS.  Every file the two runs
write is compared byte for byte, except manifest.json (it records wall time
and peak RSS).  Files that differ, exist on one side only, or come from
runs with different exit codes are printed; the exit code is 1 if there is
any, else 0.  Under each differing CSV file or report.json, one line per
column or numeric leaf that changed gives the size of the change: the
largest relative change |a - b| / max(|a|, |b|) of its entries, or, for
discarded_rank (an integer count), the entries that differ.
"""

from __future__ import annotations

import argparse
import csv
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXCLUDED = {"manifest.json"}

#: fixed runs on the routes no workload reaches: the SVD branch of
#: factorize and eig_general (odd and t_left t_right < 0 hn chains, the
#: bounds models), a three-point cdt-mono sweep, a cdt-duo plane whose
#: second tone is the slower one, an aah lift whose cutoff drops a
#: direction (discarded_rank 1 at omega = 2.8), so soft_com follows near_null,
#: a cdt-duo plane whose cutoff drops a +-lambda pair of the half-size
#: route (discarded_rank 2 at three of its nine points), and three exit
#: paths: a zero frequency (rejected at resolve time, exit 2), an RK4 step
#: that overflows to NaN (the monodromy unitarity gate, exit 3) and a
#: coupling whose sigma_min^2 underflows to 0 (exit 0, sigma_min 1e-200)
EXTRA_INVOCATIONS = {
    "hn-odd": ["hn", "--set", "n_sites=41", "--set", "r_count=5"],
    "hn-negative-r": [
        "hn", "--set", "n_sites=40", "--set", "r_min=-1.3", "--set", "r_max=-0.7",
        "--set", "r_count=5",
    ],
    "bounds-hn": ["bounds", "--set", "model=hn", "--set", "n_sites=40"],
    "bounds-diag": ["bounds", "--set", "model=diag", "--set", "epsilon=1e-7"],
    "cdt-mono-small": ["cdt-mono", "--set", "amp_count=3", "--set", "truncation=2"],
    "cdt-duo-slow-second-tone": [
        "cdt-duo", "--set", "omega2_ratio=0.5", "--set", "a_count=3", "--set", "b_count=3",
        "--set", "truncation1=2", "--set", "truncation2=2", "--set", "n_periods=2",
    ],
    "aah-cutoff": ["aah", "--set", "theta=0.005", "--set", "omega_count=6"],
    "cdt-duo-cutoff": [
        "cdt-duo", "--set", "a_count=3", "--set", "b_count=3", "--set", "truncation1=2",
        "--set", "truncation2=2", "--set", "n_periods=2", "--set", "rcond=1e-6",
    ],
    "cdt-duo-zero-frequency": ["cdt-duo", "--set", "omega1=0"],
    "cdt-mono-unstable-dt": ["cdt-mono", "--set", "omega=0.001", "--set", "amp_count=3"],
    "cdt-mono-tiny-coupling": ["cdt-mono", "--set", "j_coupling=1e-200", "--set", "amp_count=3"],
}


def load_workloads() -> dict:
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "locbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve the module's annotations through sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module.WORKLOADS


def source_dir(tree: str) -> Path:
    path = Path(tree).resolve()
    for candidate in (path / "src", path):
        if (candidate / "locland" / "cli.py").is_file():
            return candidate
    raise SystemExit(f"{tree}: no locland package under it or under its src/")


def run(src: Path, argv: list) -> int:
    env = {**os.environ, "PYTHONPATH": str(src)}
    cmd = [sys.executable, "-m", "locland.cli", *argv]
    return subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def outputs(out_dir: Path) -> dict:
    if not out_dir.is_dir():
        return {}
    return {p.name: p.read_bytes() for p in out_dir.iterdir() if p.name not in EXCLUDED}


def _relative_change(a: float, b: float) -> float:
    """|a - b| / max(|a|, |b|): 0 when equal (NaN to NaN too), inf across inf or NaN."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def _csv_columns(data: bytes) -> dict:
    """Header name -> list of cell texts."""
    header, *rows = csv.reader(io.StringIO(data.decode()))
    return {name: [row[k] for row in rows] for k, name in enumerate(header)}


def _json_leaves(node, path: str = "", out: dict | None = None) -> dict:
    """Dotted path -> list of the leaves under it; the entries of a list share its path."""
    out = {} if out is None else out
    if isinstance(node, dict):
        for key, value in node.items():
            _json_leaves(value, f"{path}.{key}" if path else key, out)
    elif isinstance(node, list):
        for item in node:
            _json_leaves(item, path, out)
    else:
        out.setdefault(path, []).append(node)
    return out


def summarize_change(name: str, parent: bytes, change: bytes) -> list:
    """One line per CSV column, or report.json leaf, whose entries differ; [] for other files."""
    if name.endswith(".csv"):
        before, after = _csv_columns(parent), _csv_columns(change)
    elif name == "report.json":
        before, after = _json_leaves(json.loads(parent)), _json_leaves(json.loads(change))
    else:
        return []
    lines = []
    for key in [*before, *(k for k in after if k not in before)]:
        a, b = before.get(key), after.get(key)
        if a is None or b is None:
            lines.append(f"{key}: {'parent' if b is None else 'change'} side only")
        elif len(a) != len(b):
            lines.append(f"{key}: {len(a)} entries != {len(b)}")
        elif a != b:
            try:
                pairs = [(float(x), float(y)) for x, y in zip(a, b)]
            except (TypeError, ValueError):
                lines.append(f"{key}: non-numeric entries differ")
                continue
            if key.rsplit(".", 1)[-1] == "discarded_rank":
                rows = [k for k, (x, y) in enumerate(pairs) if x != y]
                lines.append(f"{key}: exact, {len(rows)} entries differ (first at {rows[0]})")
                continue
            worst = max(_relative_change(x, y) for x, y in pairs)
            if worst > 0.0:
                lines.append(f"{key}: largest relative change {worst:.3g}")
            elif name.endswith(".csv"):
                lines.append(f"{key}: same values, different text")
    return lines


def invocations(seeds: list):
    """(label, argv for an output directory) of every run the comparison makes."""
    for seed in seeds:
        for name, make in load_workloads().items():
            for inv in make(seed).invocations:
                yield f"seed {seed} {name}/{inv.tag}", inv.argv
    for tag, args in EXTRA_INVOCATIONS.items():
        yield f"extra {tag}", lambda out_dir, args=args: [*args, "--out", str(out_dir)]


def compare(parent: Path, change: Path, seeds: list, scratch: Path) -> list:
    """(label, file, reason, summary lines) for every output that differs between the two trees."""
    differences = []
    for k, (label, argv) in enumerate(invocations(seeds)):
        codes, files = [], []
        for side, src in (("parent", parent), ("change", change)):
            out_dir = scratch / f"{k}-{side}"
            codes.append(run(src, argv(out_dir)))
            files.append(outputs(out_dir))
        if codes[0] != codes[1]:
            differences.append((label, "-", f"exact, exit code {codes[0]} != {codes[1]}", []))
        for file in sorted(files[0].keys() | files[1].keys()):
            if file not in files[0] or file not in files[1]:
                side = "parent" if file in files[0] else "change"
                differences.append((label, file, f"written by the {side} tree only", []))
            elif files[0][file] != files[1][file]:
                summary = summarize_change(file, files[0][file], files[1][file])
                differences.append((label, file, "contents differ", summary))
        print(f"{label}: {len(files[1])} files, exit {codes[1]}", file=sys.stderr)
    return differences


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("parent_src", help="source tree of the reference side")
    parser.add_argument("change_src", help="source tree of the changed side")
    parser.add_argument("--seed", type=int, action="append", help="workload seed (repeatable; default 1)")
    args = parser.parse_args(argv)
    parent, change = source_dir(args.parent_src), source_dir(args.change_src)
    with tempfile.TemporaryDirectory(prefix="compare_outputs-") as scratch:
        differences = compare(parent, change, args.seed or [1], Path(scratch))
    for label, file, reason, summary in differences:
        print(f"DIFFERS {label} {file}: {reason}")
        for line in summary:
            print(f"    {line}")
    print(f"{len(differences)} differing outputs")
    return 1 if differences else 0


if __name__ == "__main__":
    raise SystemExit(main())
