"""Named experiment drivers behind the command-line front end.

Each run_* function consumes a resolved RunConfig, returns the SweepReport
that becomes report.csv / report.json, and writes its experiment-specific
side files (profiles, peak tables, DOS grids, trajectories) into the output
directory.  Grid points run one after another in grid order, so reruns are
bit-exact; the two-level Sambe sweeps solve their points in stacks
(_sambe_point), each point as it would be solved on its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .diagnostics import (
    SweepReport,
    average_right_density,
    detect_peaks,
    floquet_dos,
    midgap_report,
    peak_site,
    pearson,
    spearman,
    write_csv,
)
from .dynamics import (
    MIN_STEPS_PER_PERIOD,
    DriveSignal,
    min_left_population_grid,
    monodromy_quasienergies_sweep,
    propagate,
    quasienergy_gap,
)
from .errors import AccuracyError, ConfigError
from .landscape import eigenmode_bound_report, solve_landscape
from .linalg import Operator, batch_value, normal_operator, pseudo_solve, weighted_mean_site
from .models import (
    SshConfig,
    aah_drive,
    aah_static,
    bbh,
    bbh_site_coords,
    domain_wall_site,
    hatano_nelson,
    ssh,
    two_level_drive_duo,
    two_level_drive_mono,
    two_level_static,
)
from .sambe import build_sambe

GOLDEN_RATIO_CONJUGATE = (math.sqrt(5.0) - 1.0) / 2.0
SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class Field:
    """A config key's default and the range its value must lie in.

    Text given for the key is parsed as type(default).  minimum is an
    inclusive floor and open_interval an exclusive (low, high) range; a key
    may have either, both or neither.  resolve_config checks both, and
    rejects every non-finite float, before the output directory is made or
    any work starts, so a value the run would reject later fails at once.
    """

    default: object
    minimum: int | float | None = None
    open_interval: tuple | None = None


@dataclass
class RunConfig:
    """Fully resolved run: experiment name, parameter dict, output handling.

    workers is accepted and ignored: grids run serially in one process,
    whose BLAS threading already uses the cores.
    """

    experiment: str
    params: dict
    out_dir: Path
    workers: int = 1
    seed: int = 0


# one schema per experiment; unknown keys are rejected during resolution
SCHEMAS = {
    "hn": {
        "n_sites": Field(120, minimum=2),
        "t_left": Field(1.0),
        "r_min": Field(0.7),
        "r_max": Field(1.3),
        "r_count": Field(25, minimum=2),
        # unused on the gauge route (even n_sites), which is exact; odd
        # chains take the cutoff route, where the skin-effect singular
        # values must stay in the solve (they carry the boundary physics)
        "rcond": Field(1e-24, open_interval=(0.0, 1.0)),
    },
    "cdt-mono": {
        "j_coupling": Field(1.0, open_interval=(0.0, math.inf)),
        "omega": Field(10.0, open_interval=(0.0, math.inf)),
        "amp_min": Field(0.0, minimum=0.0),  # amplitudes in units of A / (hbar omega)
        "amp_max": Field(10.0, minimum=0.0),
        "amp_count": Field(500, minimum=3),
        "truncation": Field(6, minimum=0),
        "rcond": Field(1e-12, open_interval=(0.0, 1.0)),
        "prominence": Field(0.1, open_interval=(0.0, 1.0)),
        "steps_per_period": Field(2000, minimum=MIN_STEPS_PER_PERIOD),
    },
    "cdt-duo": {
        "j_coupling": Field(1.0, open_interval=(0.0, math.inf)),
        "omega1": Field(10.0, open_interval=(0.0, math.inf)),
        "omega2_ratio": Field(SQRT2, open_interval=(0.0, math.inf)),
        "amp_min": Field(0.0, minimum=0.0),
        "amp_max": Field(10.0, minimum=0.0),
        "a_count": Field(21, minimum=2),
        "b_count": Field(21, minimum=2),
        "truncation1": Field(6, minimum=0),
        "truncation2": Field(6, minimum=0),
        "n_periods": Field(100, minimum=1),
        "rcond": Field(1e-12, open_interval=(0.0, 1.0)),
        "steps_per_period": Field(2000, minimum=MIN_STEPS_PER_PERIOD),
        "traj_stride": Field(100, minimum=1),
    },
    "aah": {
        "n_sites": Field(80, minimum=2),
        "hopping": Field(1.0),
        "lambda0": Field(2.8),
        "amplitude": Field(3.7),
        "alpha": Field(GOLDEN_RATIO_CONJUGATE),
        "theta": Field(0.0),
        "omega_min": Field(1.0, open_interval=(0.0, math.inf)),
        "omega_max": Field(10.0, open_interval=(0.0, math.inf)),
        "omega_count": Field(60, minimum=2),
        "truncation": Field(6, minimum=0),
        "bin_width": Field(0.01, open_interval=(0.0, 1.0)),
        "rcond": Field(1e-12, open_interval=(0.0, 1.0)),
    },
    "ssh": {
        "n_cells": Field(20, minimum=2),
        "t_weak": Field(0.5),
        "t_strong": Field(1.0),
        # near-zero singular directions are the topology signal; the tiny
        # cutoff keeps deep midgap modes while exact kernels still drop to
        # the near-null branch of the colocalization check
        "rcond": Field(1e-24, open_interval=(0.0, 1.0)),
        "window": Field(0.0, minimum=0.0),  # 0 -> automatic midgap window
    },
    "bbh": {
        "n_x": Field(6, minimum=2),
        "n_y": Field(6, minimum=2),
        "gamma": Field(0.5),
        "lam": Field(1.0),
        "rcond": Field(1e-12, open_interval=(0.0, 1.0)),
        "window": Field(0.0, minimum=0.0),
    },
    "bounds": {
        "model": Field("hermitian_pd"),  # hermitian_pd | hn | diag
        "dimension": Field(30, minimum=1),
        "epsilon": Field(1e-3),
        "n_sites": Field(120, minimum=2),
        "t_left": Field(1.0),
        "r": Field(0.9),
        "rcond": Field(1e-12, open_interval=(0.0, 1.0)),
    },
}


def _grid_map(fn, items) -> dict:
    """Map fn over grid points in grid order and stack the point dicts.

    The table holds one array per key of the point dicts, its first axis
    running over the grid points.
    """
    points = [fn(item) for item in items]
    return {key: np.array([pt[key] for pt in points]) for key in points[0]}


def _report_columns(table: dict, *names) -> dict:
    """Report columns of a swept experiment, picked by name from its grid table.

    v_max_tot, its log10 and sigma_min lead, the named columns follow, and
    the row's numerical health closes: discarded_rank, then
    edge_sector_weight where the table has it (Sambe lifts).
    """
    vmax = table["v_max_tot"]
    head = {"v_max_tot": vmax, "log10_vmax": np.log10(vmax), "sigma_min": table["sigma_min"]}
    health = [n for n in ("discarded_rank", "edge_sector_weight") if n in table]
    return {**head, **{n: table[n] for n in (*names, *health)}}


# ---------------------------------------------------------------------------
# Hatano-Nelson
# ---------------------------------------------------------------------------


def _hn_point(r: float, p: dict) -> dict:
    op = hatano_nelson(p["n_sites"], p["t_left"], r * p["t_left"])
    res = solve_landscape(op, p["rcond"])
    density = average_right_density(op, res.gauge_eig)
    return {
        "v_max_tot": res.v_max,
        "sigma_min": res.sigma_min,
        "soft_com": res.soft_com,
        "x_cm": weighted_mean_site(density),
        "discarded_rank": res.discarded_rank,
        "density": density,
        "amplitude": res.amplitude,
    }


def run_hn(config: RunConfig) -> SweepReport:
    p = config.params
    rs = np.linspace(p["r_min"], p["r_max"], p["r_count"])
    table = _grid_map(lambda r: _hn_point(r, p), rs)
    sites = np.arange(1, p["n_sites"] + 1)
    for k in (0, -1):
        r, dens, amp = rs[k], table["density"][k], table["amplitude"][k]
        write_csv(
            config.out_dir / f"profile_r{r:.2f}.csv",
            ["site", "avg_density", "avg_density_norm", "landscape_amp", "landscape_norm"],
            [sites, dens, dens / dens.max(), amp, amp / amp.max()],
        )
    soft, xcm = table["soft_com"], table["x_cm"]
    return SweepReport(
        axes={"r": rs},
        columns=_report_columns(table, "soft_com", "x_cm"),
        metadata={
            "experiment": "hn",
            "pearson_soft_com_x_cm": pearson(soft, xcm),
            "spearman_soft_com_x_cm": spearman(soft, xcm),
        },
    )


# ---------------------------------------------------------------------------
# Driven two-level system, one tone
# ---------------------------------------------------------------------------


#: lift entries per stacked Sambe solve: a sweep of d x d lifts is solved
#: max(1, _STACK_ENTRIES // d^2) points per call, so lifts past d = 181
#: (every cdt-duo and aah default) are still solved one per call
_STACK_ENTRIES = 1 << 15


def _solve_sambe(h0, drive, omegas, truncations, rcond) -> tuple:
    """Build and solve one Sambe lift, or one stack of them: the columns every
    lifted point reports, read per point, and the solve.

    The lift is dropped on return, so a caller never holds two at once.
    """
    lifted = build_sambe(h0, drive, omegas, truncations)
    res = solve_landscape(lifted.matrix, rcond)
    # soft_com is a mean site, so the harmonics are summed out first
    site_mean = weighted_mean_site(lifted.index_map.site_sum(res.peak_profile))
    return {
        "v_max_tot": res.v_max,
        "sigma_min": res.sigma_min,
        "soft_com": batch_value(np.where(res.degenerate, math.nan, site_mean)),
        "discarded_rank": res.discarded_rank,
        "edge_sector_weight": lifted.index_map.edge_sector_weight(res.amplitude),
    }, res


def _sambe_point(h0, drive_at, grid, omegas, truncations, rcond) -> dict:
    """Build and solve the Sambe lifts of a sweep: the columns every lifted point reports.

    grid is a tuple of equal-length arrays, one per swept drive parameter,
    and drive_at(*values) gives the drive at those values, its blocks
    stacked over them.  The lifts are solved in stacks of at most
    _STACK_ENTRIES matrix entries, and each column holds one value per grid
    point.  A grid of scalars is one point, solved on its own, with scalar
    columns.
    """
    size = max(1, _STACK_ENTRIES // (h0.dim * math.prod(2 * m + 1 for m in truncations)) ** 2)
    count = np.size(grid[0])
    parts = []
    for k in range(0, count, size):
        values = [x[k : k + size] for x in grid] if np.ndim(grid[0]) else grid
        parts.append(_solve_sambe(h0, drive_at(*values), omegas, truncations, rcond)[0])
    if not np.ndim(grid[0]):
        return parts[0]
    return {key: np.concatenate([part[key] for part in parts]) for key in parts[0]}


def _cdt_mono_point(u, p: dict) -> dict:
    """The lifted columns at amplitude u = A / omega, or at every entry of an array u."""
    h0, omega = two_level_static(p["j_coupling"]), p["omega"]
    return _sambe_point(
        h0, lambda x: two_level_drive_mono(x * omega), (u,), (omega,), (p["truncation"],), p["rcond"]
    )


def run_cdt_mono(config: RunConfig) -> SweepReport:
    p = config.params
    us = np.linspace(p["amp_min"], p["amp_max"], p["amp_count"])
    omega = p["omega"]
    table = _cdt_mono_point(us, p)
    dt = 2.0 * math.pi / omega / p["steps_per_period"]
    eps, unitarity_defect = monodromy_quasienergies_sweep(
        p["j_coupling"], us * omega, omega, dt, with_defect=True
    )
    gap = table["quasienergy_gap"] = np.array([quasienergy_gap(pair, omega) for pair in eps])
    # the lift's smallest |eigenvalue| is the smallest folded |quasienergy| once
    # the harmonic truncation has converged: this reports how far it is from that
    truncation_error = float(np.abs(table["sigma_min"] - np.abs(eps).min(axis=1)).max())
    columns = _report_columns(table, "quasienergy_gap")
    log_vmax = columns["log10_vmax"]

    peaks = detect_peaks(log_vmax, us, p["prominence"])
    # gap minima are the prominent peaks of the negated gap
    gap_minima = [pos for pos, _ in detect_peaks(-gap, us, p["prominence"])]
    peak_rows = []
    for pos, height in peaks:
        if gap_minima:
            nearest = min(gap_minima, key=lambda m: abs(m - pos))
            offset = abs(pos - nearest) / nearest if nearest != 0 else float("inf")
            peak_rows.append((pos, height, nearest, offset))
        else:
            peak_rows.append((pos, height, float("nan"), float("nan")))
    write_csv(
        config.out_dir / "peaks.csv",
        ["peak_position", "peak_height_log10", "gap_minimum_position", "rel_offset"],
        list(zip(*peak_rows)),
    )
    return SweepReport(
        axes={"a_over_omega": us},
        columns=columns,
        metadata={
            "experiment": "cdt-mono",
            "omega": omega,
            "truncation": p["truncation"],
            "peak_positions": [pos for pos, _ in peaks],
            "gap_minimum_positions": gap_minima,
            "max_monodromy_unitarity_defect": unitarity_defect,
            "max_abs_sigma_min_minus_min_folded_eps": truncation_error,
        },
    )


# ---------------------------------------------------------------------------
# Driven two-level system, two incommensurate tones
# ---------------------------------------------------------------------------


def _cdt_duo_point(pair, p: dict) -> dict:
    """The lifted columns at amplitudes pair = (A / omega1, B / omega1), scalars or equal arrays."""
    h0, omega1 = two_level_static(p["j_coupling"]), p["omega1"]
    omegas = (omega1, p["omega2_ratio"] * omega1)
    return _sambe_point(
        h0,
        lambda a, b: two_level_drive_duo(a * omega1, b * omega1),
        tuple(pair),
        omegas,
        (p["truncation1"], p["truncation2"]),
        p["rcond"],
    )


#: partially left-localized initial state used in the trajectory panels
PARTIAL_LEFT_STATE = np.array([math.sqrt(3.0) / 2.0, 0.5], dtype=complex)

#: largest RK4 norm drift allowed on the min_PL grid and the marked
#: trajectories (exit 3 above, and on NaN: each gate tests `not x <= limit`)
NORM_DRIFT_LIMIT = 1e-7

#: largest relative v_max difference allowed between the B = 0 sweep at
#: truncation2 = 0 and the one-tone sweep, which are the same lift (exit 3, NaN too)
REDUCTION_LIMIT = 1e-8


def run_cdt_duo(config: RunConfig) -> SweepReport:
    p = config.params
    omega1 = p["omega1"]
    omega2 = p["omega2_ratio"] * omega1
    a_us = np.linspace(p["amp_min"], p["amp_max"], p["a_count"])
    b_us = np.linspace(p["amp_min"], p["amp_max"], p["b_count"])
    grid_pairs = [(a, b) for a in a_us for b in b_us]

    # the drift-gated min_PL grid runs first, so a too coarse dt fails
    # before the Sambe grid
    dt = 2.0 * math.pi / max(omega1, omega2) / p["steps_per_period"]
    t_end = p["n_periods"] * 2.0 * math.pi / omega1
    amp_pairs = np.array(grid_pairs) * omega1
    psi_left = np.array([1.0, 0.0], dtype=complex)
    grid_drive = DriveSignal(p["j_coupling"], amp_pairs, (omega1, omega2))
    min_pl, grid_drift = min_left_population_grid(grid_drive, psi_left, t_end, dt)
    if not grid_drift <= NORM_DRIFT_LIMIT:
        raise AccuracyError(f"min_PL grid drifts from unit norm by {grid_drift:.2e}; reduce dt")
    table = _cdt_duo_point(np.array(grid_pairs).T, p)
    table["min_PL"] = min_pl
    vmax = table["v_max_tot"]
    columns = _report_columns(table, "min_PL")
    log_vmax = columns["log10_vmax"]

    # exact reduction: the B = 0 sweep with no second harmonic sector is the
    # monochromatic operator re-indexed, so v_max must match to roundoff
    mono_p = {**p, "omega": omega1, "truncation": p["truncation1"]}
    mono = _cdt_mono_point(a_us, mono_p)["v_max_tot"]
    b0_p = {**p, "truncation2": 0}
    duo_b0 = _cdt_duo_point((a_us, np.zeros_like(a_us)), b0_p)["v_max_tot"]
    reduction_diff = float(np.abs(duo_b0 - mono).max() / np.abs(mono).max())
    if not reduction_diff <= REDUCTION_LIMIT:
        raise AccuracyError(f"B = 0 sweep differs from the one-tone sweep by {reduction_diff:.2e}")
    b0_row = vmax.reshape(p["a_count"], p["b_count"])[:, 0]
    full_row_diff = float(np.abs(b0_row - mono).max() / np.abs(mono).max())

    # marked points: the most frozen grid point sits on a landscape ridge,
    # the flattest-landscape point is the delocalized control; both start
    # states at both points run as one four-row batch
    marked_idx = {"localized": int(np.argmax(min_pl)), "delocalized": int(np.argmin(vmax))}
    starts = {"left": psi_left, "partial": PARTIAL_LEFT_STATE}
    runs = [(tag, state) for tag in marked_idx for state in starts]
    drive = DriveSignal(
        p["j_coupling"], amp_pairs[[marked_idx[tag] for tag, _ in runs]], (omega1, omega2)
    )
    psi0 = np.array([starts[state] for _, state in runs])
    # only the written rows are stored; the drift gate still sees every step
    traj = propagate(drive, psi0, t_end, dt, stride=p["traj_stride"])
    drift = traj.max_norm_drift
    if not drift <= NORM_DRIFT_LIMIT:
        raise AccuracyError(f"marked trajectories drift from unit norm by {drift:.2e}; reduce dt")
    for k, (tag, state) in enumerate(runs):
        write_csv(
            config.out_dir / f"trajectory_{tag}_{state}.csv",
            ["time", "p_left"],
            [traj.times, traj.p_left[:, k]],
        )
    marked = {}
    for tag, idx in marked_idx.items():
        a_u, b_u = grid_pairs[idx]
        marked[tag] = {
            "a_over_omega1": a_u,
            "b_over_omega1": b_u,
            "min_PL": float(min_pl[idx]),
            "v_max_tot": float(vmax[idx]),
            "v_max_percentile": float((vmax < vmax[idx]).mean()),
        }

    return SweepReport(
        axes={"a_over_omega1": a_us, "b_over_omega1": b_us},
        columns=columns,
        metadata={
            "experiment": "cdt-duo",
            "omega1": omega1,
            "omega2": omega2,
            # raw v_max is heavy-tailed (spikes of 1e6 against an O(1)
            # background), so the linear correlation is quoted against
            # log10 v_max; spearman is scale-free either way
            "pearson_log10_vmax_min_PL": pearson(log_vmax, min_pl),
            "pearson_raw_vmax_min_PL": pearson(vmax, min_pl),
            "spearman_vmax_min_PL": spearman(vmax, min_pl),
            "b0_reduction_max_rel_diff_m2_0": reduction_diff,
            "b0_row_max_rel_diff_full_truncation": full_row_diff,
            "marked_points": marked,
            "max_norm_drift": drift,
            "grid_max_norm_drift": grid_drift,
        },
    )


# ---------------------------------------------------------------------------
# Driven Aubry-Andre-Harper chain
# ---------------------------------------------------------------------------


#: largest deviation of a Floquet DOS column from integrating to 1 (exit 3 above or NaN)
DOS_NORM_LIMIT = 1e-12


def _aah_point(omega: float, p: dict) -> dict:
    n, alpha, theta = p["n_sites"], p["alpha"], p["theta"]
    h0 = aah_static(n, p["hopping"], p["lambda0"], alpha, theta)
    drive = aah_drive(n, p["amplitude"], alpha, theta)
    columns, res = _solve_sambe(h0, drive, (omega,), (p["truncation"],), p["rcond"])
    ipr = (np.abs(res.spectrum.right) ** 4).sum(axis=0)
    centers, density = floquet_dos(res.spectrum.energies, omega, p["bin_width"])
    return {
        **columns,
        "ipr_mean": float(ipr.mean()),
        "ipr_max": float(ipr.max()),
        "dos_centers": centers,
        "dos_density": density,
    }


def run_aah(config: RunConfig) -> SweepReport:
    p = config.params
    omegas = np.linspace(p["omega_min"], p["omega_max"], p["omega_count"])
    table = _grid_map(lambda omega: _aah_point(omega, p), omegas)
    centers, dos = table["dos_centers"][0], table["dos_density"]
    header = ["x"] + [f"omega={w:.6g}" for w in omegas]
    write_csv(config.out_dir / "dos_grid.csv", header, [centers, *dos])
    # uniform bins tile [-1/2, 1/2), so each bin is 1 / n_bins wide
    dos_error = float(np.abs(dos.sum(axis=1) / centers.size - 1.0).max())
    if not dos_error <= DOS_NORM_LIMIT:
        raise AccuracyError(f"a Floquet DOS column integrates to 1 only within {dos_error:.2e}")
    vmax = table["v_max_tot"]
    low = vmax[omegas <= 4.0]
    high = vmax[omegas >= 8.0]
    return SweepReport(
        axes={"omega": omegas},
        columns=_report_columns(table, "soft_com", "ipr_mean", "ipr_max"),
        metadata={
            "experiment": "aah",
            "max_dos_norm_error": dos_error,
            "variance_vmax_low_omega": float(low.var()) if low.size else float("nan"),
            "variance_vmax_high_omega": float(high.var()) if high.size else float("nan"),
            "variance_ratio": (
                float(low.var() / high.var())
                if low.size and high.size and high.var() > 0.0
                else float("nan")
            ),
        },
    )


# ---------------------------------------------------------------------------
# Topology: SSH and BBH midgap colocalization
# ---------------------------------------------------------------------------


def run_ssh(config: RunConfig) -> SweepReport:
    p = config.params
    window = p["window"] or None
    variants = ("topological", "trivial", "domain_wall")
    landscapes, modes, peaks = {}, {}, {}
    for variant in variants:
        if variant == "trivial":
            cfg = SshConfig(variant, p["n_cells"], t_intra=p["t_strong"], t_inter=p["t_weak"])
        else:
            cfg = SshConfig(variant, p["n_cells"], t_intra=p["t_weak"], t_inter=p["t_strong"])
        op = ssh(cfg)
        res = landscapes[variant] = solve_landscape(op, p["rcond"])
        modes[variant] = midgap_report(res.spectrum, window)
        peaks[variant] = peak_site(res.peak_profile)
        # exact kernels (domain wall) are dropped by the pseudoinverse; the
        # diverging landscape direction they carry is reported separately
        sites = np.arange(1, op.dim + 1)
        cols = [sites, res.amplitude, res.amplitude / res.amplitude.max(), res.near_null]
        header = ["site", "landscape_amp", "landscape_norm", "near_null_amp"]
        for k, mode in enumerate(modes[variant]):
            header.append(f"midgap_weight_{k}")
            cols.append(mode.weight)
        write_csv(config.out_dir / f"profile_{variant}.csv", header, cols)

    top, top_modes, dw_modes = landscapes["topological"], modes["topological"], modes["domain_wall"]
    sigma_ratio = landscapes["trivial"].sigma_min / top.sigma_min
    wall = domain_wall_site(p["n_cells"])
    checks = {
        "topological_mode_count_is_2": len(top_modes) == 2,
        "trivial_mode_count_is_0": len(modes["trivial"]) == 0,
        "domain_wall_mode_count_is_1": len(dw_modes) == 1,
        "sigma_ratio_at_least_100": bool(sigma_ratio >= 100.0),
    }
    # colocalized: the landscape reaches half its maximum within 3 sites of
    # every topological mode, and peaks within 3 sites of one of them
    profile = top.peak_profile
    checks["topological_colocalized"] = bool(
        all(
            profile[max(0, m.argmax_site - 4) : m.argmax_site + 3].max() >= 0.5 * profile.max()
            for m in top_modes
        )
        and any(abs(peaks["topological"] - m.argmax_site) <= 3 for m in top_modes)
    )
    checks["domain_wall_mode_at_wall"] = bool(dw_modes and abs(dw_modes[0].argmax_site - wall) <= 1)
    checks["domain_wall_landscape_at_wall"] = bool(abs(peaks["domain_wall"] - wall) <= 3)
    rows = list(landscapes.values())
    return SweepReport(
        axes={"variant_index": np.arange(float(len(rows)))},
        columns={
            "n_midgap": np.array([len(m) for m in modes.values()], dtype=float),
            "sigma_min": np.array([res.sigma_min for res in rows]),
            "v_max_tot": np.array([res.v_max for res in rows]),
            "landscape_argmax_site": np.array([float(peak) for peak in peaks.values()]),
            "discarded_rank": np.array([res.discarded_rank for res in rows]),
        },
        metadata={
            "experiment": "ssh",
            "variants": list(variants),
            "wall_site": wall,
            "sigma_ratio_trivial_over_topological": float(sigma_ratio),
            "checks": checks,
            "all_checks_pass": bool(all(checks.values())),
        },
    )


def run_bbh(config: RunConfig) -> SweepReport:
    p = config.params
    window = p["window"] or None
    n_x, n_y = p["n_x"], p["n_y"]
    op = bbh(n_x, n_y, p["gamma"], p["lam"])
    res = solve_landscape(op, p["rcond"])
    modes = midgap_report(res.spectrum, window)
    site_x, site_y = bbh_site_coords(np.arange(op.dim), n_x)
    write_csv(
        config.out_dir / "landscape_grid.csv",
        ["site_x", "site_y", "landscape_amp", "landscape_norm"],
        [site_x, site_y, res.amplitude, res.amplitude / res.amplitude.max()],
    )
    # each 2x2 block of sites is one cell; corners in the order
    # (1, 1), (2 n_x, 1), (1, 2 n_y), (2 n_x, 2 n_y)
    cell_x, cell_y = (site_x - 1) // 2, (site_y - 1) // 2
    corner_cells = [(0, 0), (n_x - 1, 0), (0, n_y - 1), (n_x - 1, n_y - 1)]
    in_corner = [(cell_x == cx) & (cell_y == cy) for cx, cy in corner_cells]
    # cell (Chebyshev) distance from each site to the nearest corner cell
    corner_distance = np.min(
        [np.maximum(abs(cell_x - cx), abs(cell_y - cy)) for cx, cy in corner_cells], axis=0
    )
    # the midgap projector's diagonal: no basis of a degenerate pair changes it
    midgap_weight = sum((m.weight for m in modes), np.zeros(op.dim))
    land = peak_site(res.peak_profile) - 1
    checks = {
        "midgap_count_is_4": len(modes) == 4,
        "modes_at_corners": bool(
            modes and all(corner_distance[m.argmax_site - 1] <= 1 for m in modes)
        ),
        "landscape_peak_every_corner": bool(
            min(res.amplitude[cell].max() for cell in in_corner) >= 0.5 * res.amplitude.max()
        ),
        "landscape_argmax_at_corner": bool(corner_distance[land] <= 1),
    }
    return SweepReport(
        axes={"gamma": np.array([p["gamma"]])},
        columns={
            "n_midgap": np.array([float(len(modes))]),
            "sigma_min": np.array([res.sigma_min]),
            "v_max_tot": np.array([res.v_max]),
            "discarded_rank": np.array([res.discarded_rank]),
        },
        metadata={
            "experiment": "bbh",
            "midgap_energies": [complex(m.energy).real for m in modes],
            "corner_midgap_weight": [float(midgap_weight[cell].sum()) for cell in in_corner],
            "landscape_argmax_coords": [int(site_x[land]), int(site_y[land])],
            "checks": checks,
            "all_checks_pass": bool(all(checks.values())),
        },
    )


# ---------------------------------------------------------------------------
# Bound checks
# ---------------------------------------------------------------------------


def _bounds_model(config: RunConfig) -> Operator:
    """The operator of a bounds run.

    The hn chain drops its imaginary gauge and stays on the generic (SVD)
    route: eigenmode_bound_report needs the right singular vectors of H,
    which the gauge route does not compute.
    """
    p = config.params
    name = p["model"]
    if name == "hermitian_pd":
        # diagonally dominant chain with negative hopping: an M-matrix, so
        # H^-2 is entrywise nonnegative and the eigenmode bound provably
        # holds (a generic dense PD matrix violates it)
        rng = np.random.default_rng(config.seed)
        d = p["dimension"]
        m = np.diag(rng.uniform(1.5, 3.5, size=d))
        hop = -0.5 * np.ones(d - 1)
        m[np.arange(d - 1), np.arange(1, d)] = hop
        m[np.arange(1, d), np.arange(d - 1)] = hop
        return Operator(m)
    if name == "hn":
        chain = hatano_nelson(p["n_sites"], p["t_left"], p["r"] * p["t_left"])
        return Operator(chain.entries)
    if name == "diag":
        d = p["dimension"]
        return Operator(np.diag([p["epsilon"]] + [1.0] * (d - 1)))
    raise ConfigError(f"unknown bounds model {name!r}; choose hermitian_pd, hn or diag")


def run_bounds(config: RunConfig) -> SweepReport:
    p = config.params
    op = _bounds_model(config)
    rcond = p["rcond"]
    res = solve_landscape(op, rcond)
    d = op.dim
    results = {"norm_bound_chain": {"passed": res.norm_bound_chain, "value": res.norm2}}

    energies = res.spectrum.energies
    pd = energies is not None and float(energies.min()) > 0.0
    if pd:
        u = np.linalg.solve(op.entries, np.ones(d, dtype=complex))
        v_ref = np.linalg.solve(op.entries, u)
        err = float(np.abs(res.v_complex - v_ref).max() / np.abs(v_ref).max())
        results["hermitian_reduction"] = {"passed": bool(err <= 1e-9), "value": err}
    else:
        results["hermitian_reduction"] = {"passed": None, "value": None}

    eig_route = pseudo_solve(normal_operator(op), np.ones(d, dtype=complex), rcond)
    err_consistency = float(np.abs(eig_route.x - res.v_complex).max() / np.abs(res.v_complex).max())
    # the eigendecomposition route squares the condition number, so the two
    # routes can only be compared where sigma_min^2 is resolvable in doubles
    comparable = res.sigma_min**2 >= 1e-10 * float(res.spectrum.sigma.max()) ** 2
    results["pseudoinverse_consistency"] = {
        "passed": bool(err_consistency <= 1e-8) if comparable else None,
        "value": err_consistency,
    }

    # the bound is read off every singular direction of H, so it does not
    # apply once the cutoff discards one
    applies = res.discarded_rank == 0
    max_ratio = max(ratio for _, ratio in eigenmode_bound_report(res)) if applies else None
    results["eigenmode_bound"] = {
        "passed": bool(max_ratio <= 1.0 + 1e-8) if pd and applies else None,
        "value": max_ratio,
    }

    if p["model"] == "diag":
        sat = float(res.v_max * res.sigma_min**2)
        results["diag_saturation"] = {"passed": bool(abs(sat - 1.0) <= 1e-6), "value": sat}

    names = list(results)
    return SweepReport(
        axes={"check_index": np.arange(float(len(names)))},
        columns={
            "passed": np.array(
                [1.0 if results[n]["passed"] else 0.0 if results[n]["passed"] is False else float("nan") for n in names]
            ),
            "degenerate": np.array([results[n]["passed"] is None for n in names]),
        },
        metadata={"experiment": "bounds", "model": p["model"], "results": results},
    )


RUNNERS = {
    "hn": run_hn,
    "cdt-mono": run_cdt_mono,
    "cdt-duo": run_cdt_duo,
    "aah": run_aah,
    "ssh": run_ssh,
    "bbh": run_bbh,
    "bounds": run_bounds,
}
