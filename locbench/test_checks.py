"""Every output check passes on genuine CLI output and fails on a perturbed copy.

    python3 -m pytest locbench/test_checks.py -q

The outputs come from the locland CLI at reduced sizes, run in-process.
"""

from __future__ import annotations

import csv
import json
import shutil
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
from workloads import GOLDEN_RATIO_CONJUGATE, Invocation  # noqa: E402

from locland import cli  # noqa: E402

SMALL = {
    "aah": Invocation("aah", "aah", {
        "n_sites": 34, "hopping": 1.0, "lambda0": 2.8, "amplitude": 3.7,
        "alpha": GOLDEN_RATIO_CONJUGATE, "theta": 0.3, "omega_min": 1.0, "omega_max": 10.0,
        "omega_count": 6, "truncation": 3, "rcond": 1e-12,
    }, "check_aah"),
    "cdt-duo": Invocation("cdt-duo", "cdt-duo", {
        "j_coupling": 1.0, "omega1": 10.0, "omega2_ratio": 2.0**0.5, "amp_min": 0.0,
        "amp_max": 10.0, "a_count": 5, "b_count": 5, "truncation1": 3, "truncation2": 3,
        "n_periods": 6, "steps_per_period": 2000,
    }, "check_cdt_duo"),
    "hn": Invocation("hn", "hn", {
        "n_sites": 40, "t_left": 1.0, "r_min": 0.7, "r_max": 1.3, "r_count": 7, "rcond": 1e-24,
    }, "check_hn"),
    "cdt-mono": Invocation("cdt-mono", "cdt-mono", {"truncation": 6, "amp_count": 300}, "check_cdt_mono"),
    "ssh": Invocation("ssh", "ssh", {}, "check_builtin"),
    "bounds": Invocation("bounds", "bounds", {}, "check_builtin", seed=3),
}


@pytest.fixture(scope="module")
def genuine(tmp_path_factory):
    root = tmp_path_factory.mktemp("genuine")
    for tag, inv in SMALL.items():
        assert cli.main(inv.argv(root / tag)) == 0, tag
    return root


def run_checks(tag: str, out_dir: Path) -> dict:
    inv = SMALL[tag]
    return {c.name: c for c in checks.CHECKS[inv.check](out_dir, inv.params)}


def edit_csv(path: Path, column: str, fn, row: int | None = None) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    k = rows[0].index(column)
    for i in range(1, len(rows)):
        if row is None or i - 1 == row:
            rows[i][k] = repr(fn(float(rows[i][k])))
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def edit_metadata(out_dir: Path, fn) -> None:
    path = out_dir / "report.json"
    payload = json.loads(path.read_text())
    fn(payload["metadata"])
    path.write_text(json.dumps(payload))


def _set_marked(meta, tag, value):
    meta["marked_points"][tag]["min_PL"] = value


# (invocation, check name that must fail, perturbation of the output directory)
PERTURBATIONS = [
    ("aah", "dos_integral[omega=1]",
     lambda d: edit_csv(d / "dos_grid.csv", "omega=1", lambda x: 1.001 * x)),
    ("aah", "sigma_min[omega=4.6]",
     lambda d: edit_csv(d / "report.csv", "sigma_min", lambda x: x * (1 + 1e-6), row=2)),
    ("aah", "v_max[omega=10]",
     lambda d: edit_csv(d / "report.csv", "v_max_tot", lambda x: x * (1 + 1e-6), row=5)),
    ("aah", "ipr_range[omega=6.4]",
     lambda d: edit_csv(d / "report.csv", "ipr_max", lambda x: 1.5, row=3)),
    ("aah", "variance_ratio",
     lambda d: edit_metadata(d, lambda m: m.update(variance_ratio=2.0 * m["variance_ratio"]))),
    ("cdt-duo", "b0_reduction",
     lambda d: edit_metadata(d, lambda m: m.update(b0_reduction_max_rel_diff_m2_0=1e-6))),
    ("cdt-duo", "population_range[report.csv]",
     lambda d: edit_csv(d / "report.csv", "min_PL", lambda x: 1.01, row=0)),
    ("cdt-duo", "population_range[trajectory_delocalized_partial.csv]",
     lambda d: edit_csv(d / "trajectory_delocalized_partial.csv", "p_left", lambda x: -0.01, row=3)),
    ("cdt-duo", "min_PL_vs_solve_ivp[localized]",
     lambda d: edit_metadata(d, lambda m: _set_marked(m, "localized",
                                                      m["marked_points"]["localized"]["min_PL"] + 1e-5))),
    ("cdt-duo", "localized_minus_delocalized",
     lambda d: edit_metadata(d, lambda m: _set_marked(m, "delocalized",
                                                      m["marked_points"]["localized"]["min_PL"] - 0.2))),
    ("hn", "edge[r=0.800]",
     lambda d: edit_csv(d / "report.csv", "soft_com", lambda x: 20.5, row=1)),
    ("cdt-mono", "peak_at_j0_zero[5.5201]",
     lambda d: edit_metadata(d, lambda m: m.update(
         peak_positions=[x * 1.03 if 5.0 < x < 6.0 else x for x in m["peak_positions"]]))),
    ("ssh", "builtin_checks",
     lambda d: edit_metadata(d, lambda m: m["checks"].update(trivial_mode_count_is_0=False))),
    ("bounds", "builtin_checks",
     lambda d: edit_metadata(d, lambda m: m["results"]["eigenmode_bound"].update(passed=False))),
]


@pytest.mark.parametrize("tag", sorted(SMALL))
def test_genuine_output_passes(genuine, tag):
    results = run_checks(tag, genuine / tag)
    assert results
    assert all(c.ok for c in results.values()), [c for c in results.values() if not c.ok]


@pytest.mark.parametrize("tag,name,perturb", PERTURBATIONS, ids=[f"{t}:{n}" for t, n, _ in PERTURBATIONS])
def test_perturbed_output_fails(genuine, tmp_path, tag, name, perturb):
    out_dir = tmp_path / tag
    shutil.copytree(genuine / tag, out_dir)
    assert run_checks(tag, out_dir)[name].ok
    perturb(out_dir)
    assert not run_checks(tag, out_dir)[name].ok


def test_every_check_family_is_perturbed(genuine):
    """Each family of checks the genuine outputs produce has a perturbation above."""
    perturbed = {(tag, name.split("[")[0]) for tag, name, _ in PERTURBATIONS}
    produced = {(tag, name.split("[")[0]) for tag in SMALL for name in run_checks(tag, genuine / tag)}
    assert produced == perturbed


def test_missing_output_fails(tmp_path):
    for tag in SMALL:
        results = run_checks(tag, tmp_path / "absent")
        assert results and not any(c.ok for c in results.values()), tag
