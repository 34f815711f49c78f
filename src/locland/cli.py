"""Command-line front end: one subcommand per experiment.

Configuration comes from a flat `key = value` text file (or the JSON
manifest of a previous run), with repeatable --set key=value overrides that
win over the file.  Every run writes report.csv, report.json and a
manifest.json carrying the fully resolved configuration, library versions,
host setup (cores, BLAS thread variables), wall time and peak RSS;
re-running from the manifest, which also records the seed, reproduces every
output but the manifest byte for byte.

Exit codes: 0 success, 2 configuration error (unknown key, unparsable or
out-of-range value), 3 numerical-contract violation, 4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .diagnostics import write_json
from .errors import AccuracyError, ConfigError
from .experiments import RUNNERS, SCHEMAS, RunConfig


def _cast_value(key: str, raw, caster):
    if isinstance(raw, str):
        text = raw.strip()
        try:
            return caster(text)
        except ValueError as exc:
            raise ConfigError(f"key {key!r}: cannot parse {raw!r} as {caster.__name__}") from exc
    if caster is int and isinstance(raw, float) and not raw.is_integer():
        raise ConfigError(f"key {key!r}: {raw!r} is not an integer")
    return caster(raw)


def _parse_flat_config(path: Path) -> dict:
    """Read `key = value` lines; # starts a comment."""
    out = {}
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected `key = value`, got {line!r}")
        key, _, value = stripped.partition("=")
        out[key.strip()] = value.strip()
    return out


def load_config_file(path: Path) -> tuple[dict, int]:
    """(values, seed) of a flat key=value file or a JSON dict (optionally a run manifest).

    The seed is the one a manifest records, and 0 for any other file.
    """
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    text = path.read_text().strip()
    if text.startswith("{"):
        payload = json.loads(text)
        if not isinstance(payload, dict):
            raise ConfigError(f"{path}: JSON config must be an object")
        if "params" in payload:
            return payload["params"], _cast_value("seed", payload.get("seed", 0), int)
        return payload, 0
    return _parse_flat_config(path), 0


def resolve_config(experiment: str, args) -> RunConfig:
    schema = SCHEMAS[experiment]
    params = {key: entry.default for key, entry in schema.items()}
    file_values, file_seed = load_config_file(Path(args.config)) if args.config else ({}, 0)
    overrides = {}
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        overrides[key.strip()] = value.strip()
    for source in (file_values, overrides):
        for key, raw in source.items():
            if key not in schema:
                raise ConfigError(
                    f"unknown key {key!r} for experiment {experiment!r}; "
                    f"valid keys: {', '.join(sorted(schema))}"
                )
            params[key] = _cast_value(key, raw, type(schema[key].default))
    for key, entry in schema.items():
        value = params[key]
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"key {key!r} must be finite, got {value}")
        if entry.minimum is not None and value < entry.minimum:
            raise ConfigError(f"key {key!r} must be at least {entry.minimum}, got {value}")
        interval = entry.open_interval
        if interval is not None and not interval[0] < value < interval[1]:
            raise ConfigError(f"key {key!r} must lie in {interval}, got {value}")
    if args.workers < 1:
        raise ConfigError(f"--workers must be at least 1, got {args.workers}")
    return RunConfig(
        experiment=experiment,
        params=params,
        out_dir=Path(args.out),
        workers=args.workers,
        # an explicit --seed wins over the one a manifest recorded
        seed=file_seed if args.seed is None else args.seed,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="locland",
        description="Landscape diagnostics for non-Hermitian, driven and topological lattice models",
    )
    parser.add_argument("--version", action="version", version=f"locland {__version__}")
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in RUNNERS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", help="flat key=value file or manifest.json of a previous run")
        p.add_argument("--out", default=".", help="output directory (default: current)")
        p.add_argument(
            "--workers", type=int, default=1, help="accepted and ignored: grids run serially"
        )
        p.add_argument(
            "--set",
            action="append",
            metavar="KEY=VALUE",
            help="override one config key (repeatable, wins over --config)",
        )
        p.add_argument("--seed", type=int, help="random-matrix seed (default: the manifest's, or 0)")
    return parser


def _write_manifest(config: RunConfig, wall_time: float, outputs: list) -> None:
    manifest = {
        "experiment": config.experiment,
        "params": config.params,
        "workers": config.workers,
        "seed": config.seed,
        "versions": {
            "locland": __version__,
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
        "host": {
            "cpu_count": os.cpu_count(),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        },
        "wall_time_s": wall_time,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "outputs": sorted(outputs),
    }
    write_json(config.out_dir / "manifest.json", manifest)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = resolve_config(args.experiment, args)
        config.out_dir.mkdir(parents=True, exist_ok=True)
        # outputs are the entries this run created or rewrote, so a rerun
        # into the same directory records them too
        before = {p.name: p.stat().st_mtime_ns for p in config.out_dir.iterdir()}
        start = time.perf_counter()
        report = RUNNERS[config.experiment](config)
        report.to_csv(config.out_dir / "report.csv")
        report.to_json(config.out_dir / "report.json")
        wall = time.perf_counter() - start
        outputs = [
            p.name for p in config.out_dir.iterdir() if before.get(p.name) != p.stat().st_mtime_ns
        ]
        _write_manifest(config, wall, outputs)
        if report.metadata.get("all_checks_pass") is False:
            print("numerical checks failed:", file=sys.stderr)
            for name, ok in report.metadata.get("checks", {}).items():
                print(f"  {name}: {'pass' if ok else 'FAIL'}", file=sys.stderr)
            return 3
        return 0
    except ValueError as exc:
        # ConfigError and every input error of the models and solvers
        # (DimensionError, out-of-range rcond or truncation, ...) derive
        # from ValueError
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except AccuracyError as exc:
        print(f"numerical contract violation: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


def entry_point() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry_point()
