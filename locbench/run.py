"""locland benchmark: run one workload through the CLI, check its outputs, print metrics.

    python3 locbench/run.py --workload aah-lift --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; locland is imported from ./src.
Each round launches the workload's CLI invocations one after another as
separate processes (`--workers 1`, BLAS threading left at its default),
then checks every output against a computation made apart from locland.
Rounds repeat until their summed CLI wall time reaches --seconds.

--trace 0 reports the end-to-end metrics:
  setup_s       fresh interpreter: import locland.cli, resolve the workload's
                configs (median of SETUP_REPEATS launches)
  wall_s        launch-to-exit wall time of each invocation, median over
                rounds, summed over the round's invocations
  cpu_s         user + sys CPU seconds of each invocation's process, median
                over rounds, summed likewise
  peak_rss_mib  largest resident set of any invocation
Taking the median per invocation before summing keeps one slow process (the
host's CPU speed drifts by 10-20% from one process to the next) from moving
the figure.
--trace 1 alternates untraced and traced rounds (see tracer.py) and reports
the per-layer metrics of the traced ones plus trace.overhead_s.

An operation is one invocation (failed on a nonzero exit) or one output
check (failed when it does not hold).  The last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}; `correct` is false
when an operation fails that is not a known fault of the workload.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
RUNS_DIR = ROOT / ".locbench_runs"
SETUP_REPEATS = 9
#: a CLI process still running after this long is killed and counts as failed
PROCESS_TIMEOUT_S = 150.0

SETUP_CODE = (
    "import json, sys\n"
    "from locland import cli\n"
    "parser = cli.build_parser()\n"
    "for argv in json.loads(sys.argv[1]):\n"
    "    args = parser.parse_args(argv)\n"
    "    cli.resolve_config(args.experiment, args)\n"
)


@dataclass
class Round:
    wall_s: dict = field(default_factory=dict)  # invocation tag -> seconds
    cpu_s: dict = field(default_factory=dict)
    peak_rss_mib: float = 0.0
    attempted: int = 0
    failed: int = 0
    unexpected: list = field(default_factory=list)
    traces: list = field(default_factory=list)


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def launch(cmd: list, env: dict, log_path: Path):
    """Run cmd to completion; (exit code, wall s, cpu s, max rss MiB)."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT)
        watchdog = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def measure_setup(workload, env: dict, scratch: Path) -> float:
    """Median launch-to-exit time of an interpreter that only resolves the configs."""
    argvs = json.dumps([inv.argv(scratch / inv.tag) for inv in workload.invocations])
    cmd = [sys.executable, "-c", SETUP_CODE, argvs]
    times = []
    for k in range(SETUP_REPEATS + 1):  # the first launch warms caches and is dropped
        code, wall, _, _ = launch(cmd, env, scratch / "setup.log")
        if code != 0:
            raise RuntimeError(f"config resolution failed:\n{(scratch / 'setup.log').read_text()}")
        if k:
            times.append(wall)
    return statistics.median(times)


def run_checks(workload, round_dir: Path, env: dict) -> list:
    """[tag, name, ok, detail] for every check of the round, from a separate process."""
    jobs = [
        {"tag": inv.tag, "check": inv.check, "out_dir": str(round_dir / inv.tag), "params": inv.params}
        for inv in workload.invocations
    ]
    proc = subprocess.run(
        [sys.executable, str(ROOT / "locbench" / "checks.py")],
        input=json.dumps(jobs), capture_output=True, text=True, env=env, cwd=ROOT,
        timeout=PROCESS_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"output checks crashed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def run_round(workload, round_dir: Path, env: dict, traced: bool) -> Round:
    rnd = Round()
    results = []
    for inv in workload.invocations:
        out_dir = round_dir / inv.tag
        spans = round_dir / f"{inv.tag}.spans.json"
        if traced:
            prefix = [sys.executable, str(ROOT / "locbench" / "tracer.py"), str(spans)]
        else:
            prefix = [sys.executable, "-m", "locland.cli"]
        log = round_dir / f"{inv.tag}.log"
        code, wall, cpu, rss = launch(prefix + inv.argv(out_dir), env, log)
        rnd.wall_s[inv.tag] = wall
        rnd.cpu_s[inv.tag] = cpu
        rnd.peak_rss_mib = max(rnd.peak_rss_mib, rss)
        results.append([inv.tag, "exit_code", code == 0, f"exit {code}"])
        if code != 0:
            sys.stderr.write(f"{inv.tag}: exit {code}\n{log.read_text()[-2000:]}\n")
        if traced and spans.is_file():
            rnd.traces.append(json.loads(spans.read_text()))
    for tag, name, ok, detail in results + run_checks(workload, round_dir, env):
        rnd.attempted += 1
        if not ok:
            rnd.failed += 1
            if (tag, name) not in workload.known_failures:
                rnd.unexpected.append(f"{tag}: {name}: {detail}")
    return rnd


def summed_median(rounds: list, key: str) -> float:
    """Sum over invocations of the per-invocation median across rounds."""
    per_tag = [getattr(r, key) for r in rounds]
    return sum(statistics.median(times[tag] for times in per_tag) for tag in per_tag[0])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "locland" / "cli.py").is_file():
        print(f"locland sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload](args.seed)
    env = child_env()
    run_dir = RUNS_DIR / f"{workload.name}-seed{args.seed}-pid{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        setup_s = None if args.trace else measure_setup(workload, env, run_dir)
        plain, traced = [], []
        measured = 0.0
        while True:
            as_traced = bool(args.trace) and len(plain) > len(traced)
            round_dir = run_dir / f"round{len(plain) + len(traced)}"
            round_dir.mkdir()
            rnd = run_round(workload, round_dir, env, as_traced)
            shutil.rmtree(round_dir)
            (traced if as_traced else plain).append(rnd)
            measured += sum(rnd.wall_s.values())
            if measured >= args.seconds and (not args.trace or len(traced) == len(plain)):
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    rounds = plain + traced
    unexpected = [msg for rnd in rounds for msg in rnd.unexpected]
    for msg in sorted(set(unexpected)):
        print(f"FAILED {msg}", file=sys.stderr)
    if args.trace:
        per_round = [tracer.layer_metrics(rnd.traces) for rnd in traced]
        values = {name: statistics.median(r[name] for r in per_round) for name in per_round[0]}
        values["trace.overhead_s"] = summed_median(traced, "wall_s") - summed_median(plain, "wall_s")
        units = {name: unit for name, unit, _ in tracer.LAYER_METRICS}
    else:
        values = {
            "setup_s": setup_s,
            "wall_s": summed_median(plain, "wall_s"),
            "cpu_s": summed_median(plain, "cpu_s"),
            "peak_rss_mib": max(r.peak_rss_mib for r in plain),
        }
        units = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mib": "MiB"}
    result = {
        "correct": not unexpected,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
