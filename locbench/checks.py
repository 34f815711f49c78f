"""Output checks that recompute each claim apart from locland.

Every check reads what one CLI invocation wrote (report.csv, report.json,
side files) and compares it with a computation made here from the physics:
operators built from Kronecker products, scipy eigensolvers and integrators,
scipy Bessel zeros.  Nothing in this module imports locland.

A check function takes the invocation's output directory and the parameters
the benchmark passed to it, and returns a list of Check results.  A missing
or unreadable output file makes the check fail, it does not raise.

Run as a script, it reads a JSON list of {"tag", "check", "out_dir",
"params"} from stdin and prints a JSON list of [tag, name, ok, detail].
"""

from __future__ import annotations

import csv
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.integrate
import scipy.linalg
import scipy.special


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str = ""


def read_columns(path: Path) -> dict:
    """CSV file as {header: float array}."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    return {name: np.array([float(row[k]) for row in body]) for k, name in enumerate(header)}


def read_metadata(out_dir: Path) -> dict:
    return json.loads((Path(out_dir) / "report.json").read_text())["metadata"]


def _guarded(name: str, fn) -> list:
    """Run one check family; a missing or malformed output fails it."""
    try:
        return fn()
    except (OSError, KeyError, ValueError, IndexError, TypeError, json.JSONDecodeError) as exc:
        return [Check(name, False, f"unreadable output: {exc!r}")]


# ---------------------------------------------------------------------------
# aah-lift
# ---------------------------------------------------------------------------


def aah_sambe_matrix(p: dict, omega: float) -> np.ndarray:
    """I_S (x) H0 + diag(m omega) (x) I_N + T (x) B for the driven AAH chain.

    H0 = -J (nearest-neighbour hopping) + lambda0 cos(2 pi alpha n + theta),
    B = (A/2) diag(cos(2 pi alpha n + theta)) on the +-1 harmonics, T the
    harmonic shift; sites run fastest, n = 1..N.
    """
    n, m = p["n_sites"], p["truncation"]
    c = np.cos(2.0 * np.pi * p["alpha"] * np.arange(1, n + 1) + p["theta"])
    h0 = np.diag(p["lambda0"] * c) - p["hopping"] * (np.eye(n, k=1) + np.eye(n, k=-1))
    drive = np.diag(0.5 * p["amplitude"] * c)
    s = 2 * m + 1
    shift = np.eye(s, k=1) + np.eye(s, k=-1)
    return (
        np.kron(np.eye(s), h0)
        + np.kron(np.diag(np.arange(-m, m + 1) * omega), np.eye(n))
        + np.kron(shift, drive)
    )


def check_aah(out_dir: Path, p: dict) -> list:
    out_dir = Path(out_dir)

    def dos():
        cols = read_columns(out_dir / "dos_grid.csv")
        x = cols.pop("x")
        dx = float(x[1] - x[0])
        out = []
        for name, density in cols.items():
            dev = abs(float(density.sum()) * dx - 1.0)
            out.append(Check(f"dos_integral[{name}]", dev <= 1e-12, f"|int - 1| = {dev:.1e}"))
        if len(cols) != p["omega_count"]:
            out.append(Check("dos_columns", False, f"{len(cols)} columns"))
        return out

    def spectrum():
        report = read_columns(out_dir / "report.csv")
        d = p["n_sites"] * (2 * p["truncation"] + 1)
        out = []
        for k, omega in enumerate(report["omega"]):
            h = aah_sambe_matrix(p, float(omega))
            lam = np.abs(scipy.linalg.eigvalsh(h))
            s_min, s_max = float(lam.min()), float(lam.max())
            err = abs(float(report["sigma_min"][k]) - s_min)
            out.append(
                Check(f"sigma_min[omega={omega:.6g}]", err <= 1e-12 * s_max, f"|diff| = {err:.1e}")
            )
            # the cutoff keeps every direction with margin: the pseudoinverse
            # is the inverse, so v = H^-1 H^-1 1 for Hermitian H
            if s_min**2 > 10.0 * p["rcond"] * s_max**2:
                v = np.linalg.solve(h, np.linalg.solve(h, np.ones(d, dtype=complex)))
                ref = float(np.abs(v).max())
                rel = abs(float(report["v_max_tot"][k]) - ref) / ref
                out.append(Check(f"v_max[omega={omega:.6g}]", rel <= 1e-8, f"rel diff {rel:.1e}"))
            ipr = (float(report["ipr_mean"][k]), float(report["ipr_max"][k]))
            inside = all(1.0 / d - 1e-12 <= x <= 1.0 + 1e-12 for x in ipr)
            out.append(Check(f"ipr_range[omega={omega:.6g}]", inside, f"ipr {ipr}"))
        return out

    def variance():
        report = read_columns(out_dir / "report.csv")
        omega, vmax = report["omega"], report["v_max_tot"]
        ratio = float(vmax[omega <= 4.0].var() / vmax[omega >= 8.0].var())
        reported = float(read_metadata(out_dir)["variance_ratio"])
        ok = ratio >= 10.0 and abs(reported - ratio) <= 1e-9 * ratio
        return [Check("variance_ratio", ok, f"recomputed {ratio:.3e}, reported {reported:.3e}")]

    return _guarded("dos", dos) + _guarded("spectrum", spectrum) + _guarded("variance", variance)


# ---------------------------------------------------------------------------
# cdt-duo-plane
# ---------------------------------------------------------------------------


def rk4_time_grid(p: dict) -> np.ndarray:
    """Time points the CLI's RK4 visits: steps of T2/steps_per_period to n_periods T1."""
    omega1 = p["omega1"]
    dt = 2.0 * math.pi / (p["omega2_ratio"] * omega1) / p["steps_per_period"]
    t_end = p["n_periods"] * 2.0 * math.pi / omega1
    n_full = int(math.floor(t_end / dt + 1e-9))
    times = np.arange(n_full + 1) * dt
    if t_end - n_full * dt >= 1e-12 * dt:
        times = np.append(times, t_end)
    return times


def reference_min_pl(p: dict, a_amp: float, b_amp: float) -> float:
    """min_t |<L|psi>|^2 from DOP853 for i psi' = [-J sx + s(t) sz / 2] psi, psi(0) = |L>."""
    j, w1 = p["j_coupling"], p["omega1"]
    w2 = p["omega2_ratio"] * w1

    def rhs(t, y):
        s = a_amp * math.cos(w1 * t) + b_amp * math.cos(w2 * t)
        left, right = complex(y[0], y[1]), complex(y[2], y[3])
        d_left = -1j * (-j * right + 0.5 * s * left)
        d_right = -1j * (-j * left - 0.5 * s * right)
        return [d_left.real, d_left.imag, d_right.real, d_right.imag]

    times = rk4_time_grid(p)
    sol = scipy.integrate.solve_ivp(
        rhs, (0.0, times[-1]), [1.0, 0.0, 0.0, 0.0], method="DOP853",
        t_eval=times, rtol=1e-12, atol=1e-12,
    )
    if not sol.success:
        raise ValueError(f"reference integration failed: {sol.message}")
    return float((sol.y[0] ** 2 + sol.y[1] ** 2).min())


#: populations may leave [0, 1] by the RK4 norm drift the program allows
POPULATION_SLACK = 1e-7


def check_cdt_duo(out_dir: Path, p: dict) -> list:
    out_dir = Path(out_dir)

    def reduction():
        diff = float(read_metadata(out_dir)["b0_reduction_max_rel_diff_m2_0"])
        return [Check("b0_reduction", diff <= 1e-8, f"{diff:.1e}")]

    def populations():
        out = []
        files = ["report.csv"] + [
            f"trajectory_{tag}_{state}.csv"
            for tag in ("localized", "delocalized")
            for state in ("left", "partial")
        ]
        for name in files:
            cols = read_columns(out_dir / name)
            pop = cols["min_PL" if name == "report.csv" else "p_left"]
            lo, hi = float(pop.min()), float(pop.max())
            ok = pop.size > 0 and -POPULATION_SLACK <= lo and hi <= 1.0 + POPULATION_SLACK
            out.append(Check(f"population_range[{name}]", ok, f"[{lo:.3g}, {hi:.3g}]"))
        return out

    def marked():
        points = read_metadata(out_dir)["marked_points"]
        out = []
        for tag in ("localized", "delocalized"):
            pt = points[tag]
            ref = reference_min_pl(
                p, pt["a_over_omega1"] * p["omega1"], pt["b_over_omega1"] * p["omega1"]
            )
            diff = abs(float(pt["min_PL"]) - ref)
            out.append(Check(f"min_PL_vs_solve_ivp[{tag}]", diff <= 1e-7, f"|diff| = {diff:.1e}"))
        gap = float(points["localized"]["min_PL"]) - float(points["delocalized"]["min_PL"])
        out.append(Check("localized_minus_delocalized", gap > 0.3, f"{gap:.3f}"))
        return out

    return (
        _guarded("b0_reduction", reduction)
        + _guarded("populations", populations)
        + _guarded("marked", marked)
    )


# ---------------------------------------------------------------------------
# small-sweeps
# ---------------------------------------------------------------------------


def density_edge(r: float, n_sites: int, t_left: float) -> str:
    """Edge where the mean right-eigenstate density of the HN chain peaks.

    "none" when the density is flat (the reciprocal chain, r = 1).
    """
    m = np.zeros((n_sites, n_sites))
    idx = np.arange(n_sites - 1)
    m[idx, idx + 1] = t_left
    m[idx + 1, idx] = r * t_left
    vectors = scipy.linalg.eig(m)[1]
    weights = np.abs(vectors) ** 2
    density = (weights / weights.sum(axis=0)).mean(axis=1)
    if density.max() - density.min() <= 1e-9 * density.max():
        return "none"
    return "left" if np.argmax(density) < n_sites / 2 else "right"


def centre_edge(center: float, n_sites: int) -> str:
    """Edge a 1-based center of mass leans to; "none" within a site of the middle."""
    offset = center - 0.5 * (n_sites + 1)
    if abs(offset) <= 1.0:
        return "none"
    return "left" if offset < 0 else "right"


def check_hn(out_dir: Path, p: dict) -> list:
    """Landscape peak edge (soft center of mass per r) against the density peak edge."""

    def edges():
        report = read_columns(Path(out_dir) / "report.csv")
        n = p["n_sites"]
        out = []
        for r, soft in zip(report["r"], report["soft_com"]):
            want = density_edge(float(r), n, p["t_left"])
            got = centre_edge(float(soft), n)
            out.append(Check(f"edge[r={r:.3f}]", got == want, f"landscape {got}, density {want}"))
        if len(out) != p["r_count"]:
            out.append(Check("edge_rows", False, f"{len(out)} rows"))
        return out

    return _guarded("edge", edges)


def check_cdt_mono(out_dir: Path, p: dict) -> list:
    """At M >= 6: a peak within 2% of each of the first three J0 zeros and of a gap minimum."""

    def peaks():
        meta = read_metadata(out_dir)
        found = [float(x) for x in meta["peak_positions"]]
        minima = [float(x) for x in meta["gap_minimum_positions"]]
        out = []
        for root in scipy.special.jn_zeros(0, 3):
            if not found or not minima:
                out.append(Check(f"peak_at_j0_zero[{root:.4f}]", False, "no peaks or gap minima"))
                continue
            pos = min(found, key=lambda x: abs(x - root))
            gap = min(minima, key=lambda x: abs(x - pos))
            off_root, off_gap = abs(pos - root) / root, abs(pos - gap) / gap
            out.append(
                Check(
                    f"peak_at_j0_zero[{root:.4f}]",
                    off_root <= 0.02 and off_gap <= 0.02,
                    f"peak {pos:.4f}: {off_root:.2%} from zero, {off_gap:.2%} from gap minimum",
                )
            )
        return out

    return _guarded("peaks", peaks) if p["truncation"] >= 6 else []


def check_builtin(out_dir: Path, p: dict) -> list:
    """ssh, bbh: every built-in check passed; bounds: no check result is False."""

    def builtin():
        meta = read_metadata(out_dir)
        if "results" in meta:
            verdicts = {k: v["passed"] for k, v in meta["results"].items()}
            ok = all(v is not False for v in verdicts.values()) and any(verdicts.values())
        else:
            verdicts = meta["checks"]
            ok = bool(verdicts) and all(verdicts.values()) and meta["all_checks_pass"] is True
        return [Check("builtin_checks", ok, json.dumps(verdicts))]

    return _guarded("builtin_checks", builtin)


CHECKS = {
    "check_aah": check_aah,
    "check_cdt_duo": check_cdt_duo,
    "check_hn": check_hn,
    "check_cdt_mono": check_cdt_mono,
    "check_builtin": check_builtin,
}


def main() -> int:
    results = []
    for job in json.load(sys.stdin):
        for c in CHECKS[job["check"]](Path(job["out_dir"]), job["params"]):
            results.append([job["tag"], c.name, bool(c.ok), c.detail])
    json.dump(results, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
