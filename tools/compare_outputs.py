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
any, else 0.
"""

from __future__ import annotations

import argparse
import importlib.util
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
#: and a cdt-duo plane whose cutoff drops a +-lambda pair of the half-size
#: route (discarded_rank 2 at three of its nine points)
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


def invocations(seeds: list):
    """(label, argv for an output directory) of every run the comparison makes."""
    for seed in seeds:
        for name, make in load_workloads().items():
            for inv in make(seed).invocations:
                yield f"seed {seed} {name}/{inv.tag}", inv.argv
    for tag, args in EXTRA_INVOCATIONS.items():
        yield f"extra {tag}", lambda out_dir, args=args: [*args, "--out", str(out_dir)]


def compare(parent: Path, change: Path, seeds: list, scratch: Path) -> list:
    """(label, file, reason) for every output that differs between the two trees."""
    differences = []
    for k, (label, argv) in enumerate(invocations(seeds)):
        codes, files = [], []
        for side, src in (("parent", parent), ("change", change)):
            out_dir = scratch / f"{k}-{side}"
            codes.append(run(src, argv(out_dir)))
            files.append(outputs(out_dir))
        if codes[0] != codes[1]:
            differences.append((label, "-", f"exit code {codes[0]} != {codes[1]}"))
        for file in sorted(files[0].keys() | files[1].keys()):
            if file not in files[0] or file not in files[1]:
                side = "parent" if file in files[0] else "change"
                differences.append((label, file, f"written by the {side} tree only"))
            elif files[0][file] != files[1][file]:
                differences.append((label, file, "contents differ"))
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
    for label, file, reason in differences:
        print(f"DIFFERS {label} {file}: {reason}")
    print(f"{len(differences)} differing outputs")
    return 1 if differences else 0


if __name__ == "__main__":
    raise SystemExit(main())
