"""Reference observables the landscape is validated against.

Eigenstate densities, folded quasienergy histograms, rank/linear
correlation statistics, peak detection for sweep curves, and the midgap
modes the topology experiments read off the spectrum of a solved
landscape.  This module reads factorizations and never solves a
landscape; experiments does.  SweepReport is the common container every
experiment serializes; write_csv and write_json are the one writer of
each file format.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateInputError, DimensionError, HermiticityError
from .linalg import EigResult, Operator, Spectrum, eig_general, gauge_eigh


def average_right_density(op: Operator, gauge_eig: EigResult | None = None) -> np.ndarray:
    """Mean density of all normalized right eigenstates; sums to 1 over sites.

    An operator with an imaginary gauge, H = D T D^-1, has the exact right
    eigenvectors D phi_k, with phi_k from the eigh of T: pass the
    landscape's gauge_eig to reuse it, or it is computed here.  D is
    rescaled by its maximum first; each column is normalized, so the
    density is unchanged and no entry can overflow.  Any other operator
    goes through eig_general.
    """
    if op.log_gauge is None:
        vectors = eig_general(op).vectors
    else:
        eig = gauge_eig if gauge_eig is not None else gauge_eigh(op)
        vectors = np.exp(op.log_gauge - op.log_gauge.max())[:, None] * eig.vectors
    weights = np.abs(vectors) ** 2
    weights /= weights.sum(axis=0)
    return weights.mean(axis=1)


def pearson(x: np.ndarray, y: np.ndarray) -> float:
    """Sample linear correlation coefficient; NaN when either input is
    exactly constant (np.ptp == 0), whatever the rounding of its mean."""
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if xa.shape != ya.shape or xa.ndim != 1 or xa.size < 2:
        raise DimensionError("pearson needs two equal-length vectors of size >= 2")
    if np.ptp(xa) == 0.0 or np.ptp(ya) == 0.0:
        return float("nan")
    xc = xa - xa.mean()
    yc = ya - ya.mean()
    return float(xc @ yc / np.sqrt((xc @ xc) * (yc @ yc)))


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """Ranks 1..N with ties replaced by the mean rank of the tied group."""
    _, group, counts = np.unique(values, return_inverse=True, return_counts=True)
    # a group of c equal values ending at rank e holds ranks e - c + 1 .. e
    return (np.cumsum(counts) - 0.5 * (counts - 1))[group]


def spearman(x: np.ndarray, y: np.ndarray) -> float:
    """Rank correlation: pearson of average-tie ranks (NaN for a constant input)."""
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if xa.shape != ya.shape or xa.ndim != 1 or xa.size < 2:
        raise DimensionError("spearman needs two equal-length vectors of size >= 2")
    return pearson(_average_ranks(xa), _average_ranks(ya))


def fold_quasienergy(energy, omega: float):
    """Fold an energy into [-omega/2, omega/2); accepts scalars or arrays.

    Half-integer multiples of omega resolve downward so the result stays in
    the half-open interval.
    """
    if omega <= 0.0:
        raise ValueError("omega must be positive")
    e = np.asarray(energy, dtype=float)
    folded = e - omega * np.floor(e / omega + 0.5)
    # guard the upper edge against roundoff in the division
    folded = np.where(folded >= 0.5 * omega, folded - omega, folded)
    folded = np.where(folded < -0.5 * omega, folded + omega, folded)
    if np.isscalar(energy) or np.ndim(energy) == 0:
        return float(folded)
    return folded


def floquet_dos(energies: np.ndarray, omega: float, bin_width: float = 0.01):
    """Normalized histogram of folded, omega-rescaled quasienergies.

    Returns (bin centers, density) on uniform bins covering [-1/2, 1/2);
    the density integrates to one.
    """
    if omega <= 0.0:
        raise ValueError("omega must be positive")
    if not 0.0 < bin_width < 1.0:
        raise ValueError("bin_width must lie in (0, 1)")
    e = np.asarray(energies, dtype=float)
    if e.size == 0:
        raise DegenerateInputError("cannot histogram an empty energy list")
    x = fold_quasienergy(e, omega) / omega
    n_bins = max(1, int(round(1.0 / bin_width)))
    edges = np.linspace(-0.5, 0.5, n_bins + 1)
    density, _ = np.histogram(x, bins=edges, density=True)
    centers = 0.5 * (edges[:-1] + edges[1:])
    return centers, density


def _parabolic_vertex(xs, ys):
    """Vertex of the parabola through three samples; middle sample if flat."""
    coeffs = np.polyfit(xs, ys, 2)
    a, b, c = coeffs
    if a >= 0.0:  # not concave; interpolation would not refine a maximum
        return float(xs[1]), float(ys[1])
    x_star = -0.5 * b / a
    if not xs[0] <= x_star <= xs[2]:
        return float(xs[1]), float(ys[1])
    return float(x_star), float(c - 0.25 * b * b / a)


def detect_peaks(series: np.ndarray, grid: np.ndarray, min_prominence_ratio: float = 0.1) -> list:
    """Prominent strict local maxima of a sampled curve.

    A peak's prominence is its height above the higher of the two flanking
    valley bottoms; peaks below min_prominence_ratio times the range
    max - min of the series are dropped, so adding a constant to the series
    keeps the same peaks.  Positions and heights are refined by a
    three-point parabola.  Returns a list of (position, height) in grid
    order.
    """
    s = np.asarray(series, dtype=float)
    g = np.asarray(grid, dtype=float)
    if s.shape != g.shape or s.ndim != 1 or s.size < 3:
        raise DimensionError("detect_peaks needs equal-length 1d series/grid of size >= 3")
    if not 0.0 < min_prominence_ratio < 1.0:
        raise ValueError("min_prominence_ratio must lie in (0, 1)")
    threshold = min_prominence_ratio * float(s.max() - s.min())
    peaks = []
    for i in range(1, s.size - 1):
        if not (s[i] > s[i - 1] and s[i] > s[i + 1]):
            continue
        left = i
        while left > 0 and s[left - 1] <= s[left]:
            left -= 1
        right = i
        while right < s.size - 1 and s[right + 1] <= s[right]:
            right += 1
        prominence = s[i] - max(s[left], s[right])
        if prominence > threshold:
            peaks.append(_parabolic_vertex(g[i - 1 : i + 2], s[i - 1 : i + 2]))
    return peaks


@dataclass(frozen=True, eq=False)
class MidgapMode:
    """One in-gap eigenpair with its spatial footprint."""

    energy: complex
    weight: np.ndarray  # |psi_j|^2, sums to 1
    argmax_site: int  # 1-based peak_site of weight


#: sites within this relative distance of a profile's maximum tie for its peak
PEAK_TIE_RTOL = 1e-12


def peak_site(profile: np.ndarray) -> int:
    """1-based lowest site of a nonnegative profile within PEAK_TIE_RTOL of its maximum.

    Mirror-symmetric chains peak equally at both ends to roundoff; the tie
    rule keeps the reported site from depending on which end the
    factorization's last bits favour.
    """
    return int(np.flatnonzero(profile >= (1.0 - PEAK_TIE_RTOL) * profile.max())[0]) + 1


def estimate_midgap_window(eigenvalues: np.ndarray) -> float:
    """Default midgap window: 10% of the largest gap in the sorted spectrum."""
    e = np.sort(np.asarray(eigenvalues).real)
    if e.size < 2:
        return 0.0
    return 0.1 * float(np.diff(e).max())


def midgap_report(spectrum: Spectrum | None, energy_window: float | None = None) -> list:
    """MidgapModes of the eigenpairs of a Hermitian H with |E| inside the midgap window.

    spectrum is the factorization a landscape solve of H holds
    (LandscapeResult.spectrum), so the modes and that landscape come from
    one factorization.  The window defaults to 10% of the largest spectral
    gap.  A spectrum without energies (non-Hermitian H), or none (a
    gauge-route solve), raises HermiticityError.
    """
    if spectrum is None or spectrum.energies is None:
        raise HermiticityError(
            "midgap modes need the energies of a Hermitian H; solve Operator(op.entries) instead"
        )
    energies = spectrum.energies
    if energy_window is None:
        energy_window = estimate_midgap_window(energies)
    if energy_window < 0.0:
        raise ValueError("energy_window must be positive")
    modes = []
    for k in np.flatnonzero(np.abs(energies) < energy_window):
        weight = np.abs(spectrum.right[:, k]) ** 2
        weight = weight / weight.sum()
        modes.append(MidgapMode(complex(energies[k]), weight, peak_site(weight)))
    return modes


# ---------------------------------------------------------------------------
# Sweep reports
# ---------------------------------------------------------------------------


@dataclass
class SweepReport:
    """Parameter grid plus per-point observable columns.

    axes maps axis name to its 1d grid (one axis for a line sweep, two for a
    plane; the second axis varies fastest in flattened row order).  Every
    column has one entry per grid point.  NaN entries are only allowed where
    a boolean "degenerate" column marks the row.
    """

    axes: dict
    columns: dict
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if not 1 <= len(self.axes) <= 2:
            raise ValueError("SweepReport supports 1d and 2d grids")
        size = self.grid_size
        for name, col in self.columns.items():
            if np.asarray(col).shape != (size,):
                raise ValueError(f"column {name!r} does not match the grid size {size}")
        degenerate = np.asarray(self.columns.get("degenerate", np.zeros(size, dtype=bool)))
        for name, col in self.columns.items():
            bad = np.isnan(np.asarray(col, dtype=float)) & ~degenerate.astype(bool)
            if bad.any():
                raise ValueError(f"column {name!r} has NaN at non-degenerate rows")

    @property
    def grid_size(self) -> int:
        size = 1
        for ax in self.axes.values():
            size *= len(ax)
        return size

    def to_csv(self, path) -> None:
        # one row per grid point, the last axis fastest
        axes = (np.asarray(a, dtype=float) for a in self.axes.values())
        grids = np.meshgrid(*axes, indexing="ij")
        columns = [g.ravel() for g in grids] + [np.asarray(c) for c in self.columns.values()]
        write_csv(path, [*self.axes, *self.columns], columns)

    def to_json(self, path) -> None:
        write_json(path, {
            "metadata": self.metadata,
            "axes": {k: list(map(float, v)) for k, v in self.axes.items()},
            "columns": {k: np.asarray(v).tolist() for k, v in self.columns.items()},
        })


def write_csv(path, header, columns) -> None:
    """A header line, then one row of format_number cells per index of the columns.

    Columns of unequal length raise ValueError rather than lose rows.
    """
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in zip(*columns, strict=True):
            fh.write(",".join(map(format_number, row)) + "\n")


def write_json(path, payload) -> None:
    """payload as indented JSON plus a trailing newline; numpy scalars become floats."""
    with open(path, "w", newline="\n") as fh:
        json.dump(payload, fh, indent=2, default=float)
        fh.write("\n")


def format_number(value) -> str:
    """Full-precision CSV cell: %.17g-style for floats, plain text otherwise."""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)
