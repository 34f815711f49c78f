"""Pseudoinverse landscape solver and its geometric indicators.

The landscape v solves H^dag H v = 1 (all-ones right-hand side) through a
cutoff pseudoinverse.  Its amplitude profile |v| bounds eigenmode amplitudes
and blows up like sigma_min(H)^-2 whenever H develops a near-zero singular
value, which is what makes v_max a gap-closing and localization diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AccuracyError, DegenerateInputError, DimensionError
from .linalg import (
    DEFAULT_RCOND,
    Operator,
    eig_hermitian,
    normal_operator,
    weighted_mean_site,
)
from .sambe import SambeIndexMap

#: slack allowed when validating the norm-bound chain on every solve
_BOUND_RTOL = 1e-8


@dataclass(frozen=True, eq=False)
class LandscapeResult:
    """Solution of one landscape solve.

    amplitude is |v| over the full space; soft_com is the amplitude-weighted
    mean site (harmonics marginalized out first for extended-space solves).
    Construction validates v_max = max amplitude and, for nondegenerate
    solves with sigma_min > 0, the chain
    v_max <= ||v||_2 <= sqrt(d) / sigma_min^2.
    """

    amplitude: np.ndarray
    v_complex: np.ndarray
    v_max: float
    soft_com: float
    sigma_min: float
    rcond_used: float
    discarded_rank: int
    degenerate: bool = False

    def __post_init__(self):
        if self.amplitude.shape != self.v_complex.shape:
            raise DimensionError("amplitude and v_complex must have equal length")
        if self.amplitude.size and self.v_max != float(self.amplitude.max()):
            raise AccuracyError("v_max does not equal max |v_j|")
        if not self.degenerate and self.sigma_min > 0.0:
            l2 = float(np.linalg.norm(self.v_complex))
            if self.v_max > l2 * (1.0 + _BOUND_RTOL):
                raise AccuracyError("norm bound violated: v_max > ||v||_2")
            cap = np.sqrt(self.amplitude.size) / self.sigma_min**2
            if l2 > cap * (1.0 + _BOUND_RTOL):
                raise AccuracyError("norm bound violated: ||v||_2 > sqrt(d)/sigma_min^2")

    @property
    def norm2(self) -> float:
        return float(np.linalg.norm(self.v_complex))


def solve_landscape(
    op: Operator,
    rcond: float = DEFAULT_RCOND,
    index_map: SambeIndexMap | None = None,
) -> LandscapeResult:
    """Solve H^dag H v = 1 with a spectral cutoff at rcond * sigma_max^2.

    The solve runs on the SVD of H itself, v = V diag(s^-2) V^dag 1 over
    singular values with s^2 > rcond * s_max^2.  Algebraically this is the
    cutoff pseudoinverse of H^dag H, but factorizing H before squaring
    keeps the small singular directions of strongly non-normal operators
    (skin-effect chains, deep midgap modes) at full relative accuracy,
    where an eigendecomposition of H^dag H would drown them in roundoff.
    Agreement with the pseudo_solve route on well-conditioned input is a
    tested invariant.

    For extended-space operators pass the index map so the soft center of
    mass is taken over sites after summing |v| across harmonic sectors.
    A fully degenerate H (all singular values below the cutoff) yields the
    zero vector with the degenerate flag set.
    """
    if not 0.0 < rcond < 1.0:
        raise ValueError(f"rcond must lie in (0, 1), got {rcond}")
    sigma, vh = np.linalg.svd(op.entries)[1:]
    sigma_min = float(sigma[-1])
    keep = sigma**2 > rcond * sigma[0] ** 2
    kept = int(np.count_nonzero(keep))
    if kept == 0:
        zero = np.zeros(op.dim, dtype=complex)
        return LandscapeResult(
            amplitude=np.abs(zero),
            v_complex=zero,
            v_max=0.0,
            soft_com=float("nan"),
            sigma_min=sigma_min,
            rcond_used=rcond,
            discarded_rank=op.dim,
            degenerate=True,
        )
    right = vh.conj().T[:, keep]
    v = right @ ((right.conj().T @ np.ones(op.dim, dtype=complex)) / sigma[keep] ** 2)
    amplitude = np.abs(v)
    site_weights = amplitude if index_map is None else index_map.site_sum(amplitude)
    return LandscapeResult(
        amplitude=amplitude,
        v_complex=v,
        v_max=float(amplitude.max()),
        soft_com=weighted_mean_site(site_weights),
        sigma_min=sigma_min,
        rcond_used=rcond,
        discarded_rank=op.dim - kept,
    )


def near_null_profile(op: Operator, rcond: float = DEFAULT_RCOND) -> np.ndarray:
    """Limiting landscape direction carried by sub-cutoff singular values.

    Along an exact (or numerically exact) kernel the landscape amplitude
    diverges and its cutoff pseudoinverse drops the direction entirely; the
    normalized landscape of the regularized problem (H^dag H + mu) 1
    converges for mu -> 0 to the kernel component of the all-ones vector.
    This returns |P 1| with P the projector on the discarded right-singular
    subspace: the shape the diverging landscape peak would have.  All zeros
    when no direction falls below the cutoff.
    """
    if not 0.0 < rcond < 1.0:
        raise ValueError(f"rcond must lie in (0, 1), got {rcond}")
    sigma, vh = np.linalg.svd(op.entries)[1:]
    drop = sigma**2 <= rcond * sigma[0] ** 2
    if not drop.any():
        return np.zeros(op.dim)
    right = vh.conj().T[:, drop]
    return np.abs(right @ (right.conj().T @ np.ones(op.dim, dtype=complex)))


def eigenmode_bound_report(op: Operator, rcond: float = DEFAULT_RCOND) -> list:
    """Measure the eigenmode confinement ratio for every mode of H^dag H.

    For each eigenpair (lam, phi) of H^dag H this reports
    max_j |phi_j| / (lam ||phi||_inf |v_j|).  A value <= 1 confirms the
    landscape bound for that mode.  Ratios above 1 are reported, not
    suppressed: away from the Hermitian elliptic setting the bound is an
    empirical question, and this report is the measurement.
    """
    result = solve_landscape(op, rcond)
    if result.degenerate or result.discarded_rank > 0:
        raise DegenerateInputError(
            "eigenmode bound needs sigma_min above the pseudoinverse cutoff"
        )
    eig = eig_hermitian(normal_operator(op))
    report = []
    for k in range(eig.values.size):
        lam = float(eig.values[k])
        phi = np.abs(eig.vectors[:, k])
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = phi / (lam * phi.max() * result.amplitude)
        report.append((k, float(np.nanmax(ratios))))
    return report
