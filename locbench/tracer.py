"""Span and count recorder for one traced locland CLI run, and the per-layer
metrics computed from what it records.

Run as

    python3 locbench/tracer.py SPANS.json <locland cli arguments>

with locland importable (PYTHONPATH=src).  Before the CLI starts, the public
functions that locland.experiments and locland.cli call, the report writers
and the numpy.linalg factorizations are replaced by wrappers that record a
span (name, start, end, parent span, attributes) per call.  The RK4 step and
the grid dispatcher get plain counters instead, since a span per RK4 step
would cost more than the step.  Spans stay in memory and are written to
SPANS.json when the CLI returns; the exit code is the CLI's.

Layer names follow the locland modules: models, sambe, landscape, linalg,
lapack (numpy.linalg), diagnostics, dynamics, experiments, cli, io.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import sys
import time
from pathlib import Path


class Recorder:
    """Spans and counters of one process, kept in memory until dump()."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, attrs or None]
        self.counts = {"rk4_steps": 0, "rk4_row_steps": 0, "grid_points": 0}
        self._stack = []

    def wrap(self, name: str, fn, attrs=None):
        """fn recorded as span `name`; attrs(result, args, kwargs) runs after the span closes."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entry = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
            self._stack.append(len(self.spans))
            self.spans.append(entry)
            entry[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                entry[2] = time.perf_counter()
                self._stack.pop()
            if attrs is not None:
                entry[4] = attrs(result, args, kwargs)
            return result

        return traced

    def dump(self, path: Path) -> None:
        Path(path).write_text(json.dumps({"spans": self.spans, "counts": self.counts}))


# ---------------------------------------------------------------------------
# attribute hooks
# ---------------------------------------------------------------------------


def _factorization_attrs(result, args, kwargs):
    """Computed work sum d^3 over the stack, and a digest of the input matrix."""
    import numpy as np

    a = np.ascontiguousarray(args[0])
    d = a.shape[-1]
    stack = a.size // (d * d) if d else 0
    digest = hashlib.blake2b(repr((a.shape, a.dtype.str)).encode(), digest_size=16)
    digest.update(a.data)
    return {"d3": stack * d**3, "digest": digest.hexdigest()}


def _sambe_attrs(result, args, kwargs):
    return {"bytes": 16 * result.matrix.dim**2}


def _file_attrs(path_of):
    def attrs(result, args, kwargs):
        path = Path(path_of(args))
        return {"bytes": path.stat().st_size if path.is_file() else 0}

    return attrs


# ---------------------------------------------------------------------------
# installation
# ---------------------------------------------------------------------------


def _rebind(modules, original, replacement) -> None:
    """Point every module-level name bound to `original` at `replacement`."""
    for module in modules:
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)


def _public_functions(module, prefix=""):
    return [
        name
        for name, fn in vars(module).items()
        if inspect.isfunction(fn)
        and fn.__module__ == module.__name__
        and not name.startswith("_")
        and name.startswith(prefix)
    ]


def install(rec: Recorder) -> None:
    import numpy.linalg

    from locland import cli, diagnostics, dynamics, experiments, landscape, linalg, models, sambe

    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "locland"]
    spans = []  # (module, attribute, span name, attrs hook)
    spans += [(models, n, f"models.{n}", None) for n in _public_functions(models)]
    spans += [(sambe, n, f"sambe.{n}", _sambe_attrs) for n in _public_functions(sambe, "build_sambe")]
    spans += [
        (landscape, "solve_landscape", "landscape.solve_landscape", None),
        (landscape, "near_null_profile", "landscape.near_null_profile", None),
        (linalg, "eig_hermitian", "linalg.eig_hermitian", None),
        (linalg, "eig_general", "linalg.eig_general", None),
        (linalg, "pseudo_solve", "linalg.pseudo_solve", None),
        (diagnostics, "average_right_density", "diagnostics.average_right_density", None),
        (diagnostics, "midgap_report", "diagnostics.midgap_report", None),
        (diagnostics, "floquet_dos", "diagnostics.floquet_dos", None),
        (diagnostics, "detect_peaks", "diagnostics.detect_peaks", None),
        (diagnostics, "pearson", "diagnostics.pearson", None),
        (diagnostics, "spearman", "diagnostics.spearman", None),
        (dynamics, "propagate", "dynamics.propagate", None),
        (dynamics, "min_left_population_grid", "dynamics.min_left_population_grid", None),
        (dynamics, "monodromy_quasienergies", "dynamics.monodromy_quasienergies", None),
        (dynamics, "monodromy_quasienergies_sweep", "dynamics.monodromy_quasienergies_sweep", None),
        (cli, "resolve_config", "cli.resolve_config", None),
        (experiments, "_write_profile_csv", "io.write_profile_csv", _file_attrs(lambda a: a[0])),
        (cli, "_write_manifest", "io.write_manifest",
         _file_attrs(lambda a: Path(a[0].out_dir) / "manifest.json")),
    ]
    for module, attr, name, attrs in spans:
        if hasattr(module, attr):
            original = getattr(module, attr)
            _rebind(modules, original, rec.wrap(name, original, attrs))

    for method in ("to_csv", "to_json"):
        original = getattr(diagnostics.SweepReport, method)
        setattr(diagnostics.SweepReport, method,
                rec.wrap(f"io.{method}", original, _file_attrs(lambda a: a[1])))

    for key, runner in list(experiments.RUNNERS.items()):
        traced = rec.wrap(f"experiments.{runner.__name__}", runner)
        experiments.RUNNERS[key] = traced
        _rebind(modules, runner, traced)

    for name in ("svd", "eigh", "eigvalsh", "eig", "eigvals"):
        setattr(numpy.linalg, name,
                rec.wrap(f"lapack.{name}", getattr(numpy.linalg, name), _factorization_attrs))

    if hasattr(dynamics, "_rk4_step"):
        step = dynamics._rk4_step

        def counted_step(t, psi, *args, **kwargs):
            rec.counts["rk4_steps"] += 1
            rec.counts["rk4_row_steps"] += psi.shape[0]
            return step(t, psi, *args, **kwargs)

        dynamics._rk4_step = counted_step

    if hasattr(experiments, "_grid_map"):
        grid_map = experiments._grid_map

        def counted_grid_map(fn, items, *args, **kwargs):
            rec.counts["grid_points"] += len(items)
            return grid_map(fn, items, *args, **kwargs)

        experiments._grid_map = counted_grid_map


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

#: (metric, unit, better) in the order BENCHMARK.json lists them
LAYER_METRICS = [
    ("models.s", "s", "lower"),
    ("models.calls", "count", "lower"),
    ("sambe.build_s", "s", "lower"),
    ("sambe.build_calls", "count", "lower"),
    ("sambe.build_bytes", "B", "lower"),
    ("landscape.solve_s", "s", "lower"),
    ("landscape.solve_calls", "count", "lower"),
    ("landscape.near_null_s", "s", "lower"),
    ("landscape.near_null_calls", "count", "lower"),
    ("linalg.eig_hermitian_s", "s", "lower"),
    ("linalg.eig_hermitian_calls", "count", "lower"),
    ("linalg.eig_general_s", "s", "lower"),
    ("linalg.eig_general_calls", "count", "lower"),
    ("linalg.pseudo_solve_s", "s", "lower"),
    ("lapack.svd_calls", "count", "lower"),
    ("lapack.eigh_calls", "count", "lower"),
    ("lapack.eig_calls", "count", "lower"),
    ("lapack.s", "s", "lower"),
    ("lapack.work_d3", "count", "lower"),
    ("lapack.d3_per_s", "1/s", "higher"),
    ("lapack.distinct_per_factorization", "ratio", "higher"),
    ("diagnostics.density_s", "s", "lower"),
    ("diagnostics.midgap_s", "s", "lower"),
    ("diagnostics.dos_s", "s", "lower"),
    ("diagnostics.peaks_s", "s", "lower"),
    ("diagnostics.stats_s", "s", "lower"),
    ("dynamics.propagate_s", "s", "lower"),
    ("dynamics.grid_s", "s", "lower"),
    ("dynamics.monodromy_s", "s", "lower"),
    ("dynamics.steps", "count", "lower"),
    ("dynamics.row_steps", "count", "lower"),
    ("dynamics.ns_per_row_step", "ns", "lower"),
    ("experiments.grid_points", "count", "lower"),
    ("experiments.self_s", "s", "lower"),
    ("cli.resolve_s", "s", "lower"),
    ("io.write_s", "s", "lower"),
    ("io.bytes_written", "B", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


class SpanTable:
    """Spans of one or more processes with inclusive and self time queries."""

    def __init__(self, traces: list):
        self.rows = []  # (name, duration, self time, attrs, names of its ancestors)
        for trace in traces:
            spans = trace["spans"]
            child_time = [0.0] * len(spans)
            for name, start, end, parent, _ in spans:
                if parent >= 0:
                    child_time[parent] += end - start
            for k, (name, start, end, parent, attrs) in enumerate(spans):
                ancestors = set()
                while parent >= 0:
                    ancestors.add(spans[parent][0])
                    parent = spans[parent][3]
                self.rows.append((name, end - start, end - start - child_time[k], attrs or {}, ancestors))

    @staticmethod
    def _match(name, names):
        return any(name == n or (n.endswith(".") and name.startswith(n)) for n in names)

    def select(self, *names):
        return [row for row in self.rows if self._match(row[0], names)]

    def inclusive(self, *names) -> float:
        """Wall time inside any span of `names`, nested spans of the same set counted once."""
        return sum(
            row[1] for row in self.select(*names)
            if not any(self._match(a, names) for a in row[4])
        )

    def self_time(self, *names) -> float:
        return sum(row[2] for row in self.select(*names))

    def calls(self, *names) -> int:
        return len(self.select(*names))

    def attr_sum(self, key, *names) -> int:
        return sum(row[3].get(key, 0) for row in self.select(*names))


def layer_metrics(traces: list) -> dict:
    """Per-layer metrics of one round from the span dumps of its processes.

    Times named after a layer function are inclusive (they contain the
    factorizations it reaches); diagnostics.* and experiments.self_s are
    self times, so no second layer counts the same interval.
    """
    t = SpanTable(traces)
    counts = {key: sum(tr["counts"].get(key, 0) for tr in traces) for key in traces[0]["counts"]}
    lapack = ("lapack.",)
    lapack_calls = t.calls(*lapack)
    lapack_s = t.inclusive(*lapack)
    work = t.attr_sum("d3", *lapack)
    digests = {row[3]["digest"] for row in t.select(*lapack)}
    dyn_s = t.inclusive("dynamics.propagate", "dynamics.min_left_population_grid",
                        "dynamics.monodromy_quasienergies", "dynamics.monodromy_quasienergies_sweep")
    return {
        "models.s": t.self_time("models."),
        "models.calls": t.calls("models."),
        "sambe.build_s": t.inclusive("sambe."),
        "sambe.build_calls": t.calls("sambe."),
        "sambe.build_bytes": t.attr_sum("bytes", "sambe."),
        "landscape.solve_s": t.inclusive("landscape.solve_landscape"),
        "landscape.solve_calls": t.calls("landscape.solve_landscape"),
        "landscape.near_null_s": t.inclusive("landscape.near_null_profile"),
        "landscape.near_null_calls": t.calls("landscape.near_null_profile"),
        "linalg.eig_hermitian_s": t.inclusive("linalg.eig_hermitian"),
        "linalg.eig_hermitian_calls": t.calls("linalg.eig_hermitian"),
        "linalg.eig_general_s": t.inclusive("linalg.eig_general"),
        "linalg.eig_general_calls": t.calls("linalg.eig_general"),
        "linalg.pseudo_solve_s": t.inclusive("linalg.pseudo_solve"),
        "lapack.svd_calls": t.calls("lapack.svd"),
        "lapack.eigh_calls": t.calls("lapack.eigh", "lapack.eigvalsh"),
        "lapack.eig_calls": t.calls("lapack.eig", "lapack.eigvals"),
        "lapack.s": lapack_s,
        "lapack.work_d3": work,
        "lapack.d3_per_s": work / lapack_s if lapack_s > 0 else 0.0,
        "lapack.distinct_per_factorization": len(digests) / lapack_calls if lapack_calls else 0.0,
        "diagnostics.density_s": t.self_time("diagnostics.average_right_density"),
        "diagnostics.midgap_s": t.self_time("diagnostics.midgap_report"),
        "diagnostics.dos_s": t.self_time("diagnostics.floquet_dos"),
        "diagnostics.peaks_s": t.self_time("diagnostics.detect_peaks"),
        "diagnostics.stats_s": t.self_time("diagnostics.pearson", "diagnostics.spearman"),
        "dynamics.propagate_s": t.inclusive("dynamics.propagate"),
        "dynamics.grid_s": t.inclusive("dynamics.min_left_population_grid"),
        "dynamics.monodromy_s": t.inclusive("dynamics.monodromy_quasienergies",
                                            "dynamics.monodromy_quasienergies_sweep"),
        "dynamics.steps": counts["rk4_steps"],
        "dynamics.row_steps": counts["rk4_row_steps"],
        "dynamics.ns_per_row_step": (
            1e9 * dyn_s / counts["rk4_row_steps"] if counts["rk4_row_steps"] else 0.0
        ),
        "experiments.grid_points": counts["grid_points"],
        "experiments.self_s": t.self_time("experiments."),
        "cli.resolve_s": t.inclusive("cli.resolve_config"),
        "io.write_s": t.inclusive("io."),
        "io.bytes_written": t.attr_sum("bytes", "io."),
    }


def main(argv: list) -> int:
    from locland import cli

    rec = Recorder()
    install(rec)
    try:
        return rec.wrap("cli.main", cli.main)(argv[1:])
    finally:
        rec.dump(Path(argv[0]))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
