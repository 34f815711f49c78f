"""Pseudoinverse landscape solver and its geometric indicators.

The landscape v solves H^dag H v = 1 (all-ones right-hand side) through a
cutoff pseudoinverse, or exactly through the imaginary gauge when H carries
one.  Its amplitude profile |v| bounds eigenmode amplitudes and blows up
like sigma_min(H)^-2 whenever H develops a near-zero singular value, which
is what makes v_max a gap-closing and localization diagnostic.

A stack of operators (linalg.Operator of shape (..., d, d)) is solved by one
stacked factorization, and every observable is read per matrix: the cutoff
is a per-row keep mask over the singular values, so matrices of one stack
may discard different ranks.  A single operator is the stack of shape ().
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import AccuracyError, DegenerateInputError, DimensionError
from .linalg import (
    DEFAULT_RCOND,
    Operator,
    Spectrum,
    batch_value,
    factorize,
    gauge_eigh,
    weighted_mean_site,
)

#: slack allowed when validating the norm-bound chain on every solve
_BOUND_RTOL = 1e-8

#: natural log of the largest float64
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)


@dataclass(frozen=True, eq=False)
class LandscapeResult:
    """Solution of one landscape solve, with the factorization it came from.

    v_complex is v in the dtype of the factorization, so it is real for a
    real H; amplitude is |v| over the full space; near_null is |P 1| with P
    the projector on the directions the cutoff discarded (zeros if none);
    soft_com is the peak_profile-weighted mean index of the operator.
    spectrum is the factorization of H on the generic route; a gauge-route
    solve has spectrum None and carries the factorization of the gauge
    partner T, never of H, in gauge_eig.  Construction validates v_max =
    max amplitude and norm_bound_chain.

    A stacked solve holds one of each per matrix: the vectors are (..., d)
    and v_max, soft_com, sigma_min and discarded_rank arrays over the
    stack's leading axes (Python scalars for a single operator).
    """

    amplitude: np.ndarray
    v_complex: np.ndarray
    v_max: float
    soft_com: float
    sigma_min: float
    rcond_used: float
    discarded_rank: int
    spectrum: Spectrum | None = None
    near_null: np.ndarray = field(default_factory=lambda: np.zeros(0))
    gauge_eig: Spectrum | None = None

    def __post_init__(self):
        if self.amplitude.shape != self.v_complex.shape:
            raise DimensionError("amplitude and v_complex must have equal length")
        if self.amplitude.size and np.any(self.v_max != self.amplitude.max(axis=-1)):
            raise AccuracyError("v_max does not equal max |v_j|")
        says, holds = self._bound_chain()
        if np.any(says & ~holds):
            raise AccuracyError("norm bound chain v_max <= ||v||_2 <= sqrt(d)/sigma_min^2 violated")

    @property
    def degenerate(self):
        """Whether the cutoff discarded every direction, leaving v = 0."""
        return self.discarded_rank == self.amplitude.shape[-1]

    @property
    def peak_profile(self) -> np.ndarray:
        """near_null when the discarded directions carry 1, amplitude otherwise."""
        return _peak_profile(self.near_null, self.amplitude)

    @property
    def norm2(self):
        """||v||_2, one per matrix of a stack."""
        v = self.v_complex
        return float(np.linalg.norm(v)) if v.ndim == 1 else np.linalg.norm(v, axis=-1)

    @property
    def norm_bound_chain(self):
        """Whether v_max <= ||v||_2 <= sqrt(d) / sigma_min^2 holds, to _BOUND_RTOL.

        None where the chain says nothing: a degenerate solve or sigma_min = 0.
        The right-hand side is checked multiplied out, so a sigma_min^2 that
        underflows to 0 leaves that bound +inf instead of dividing by zero.
        A stack gives an object array of these, one per matrix.
        """
        return batch_value(np.where(*self._bound_chain(), None))

    def _bound_chain(self) -> tuple:
        """(whether the chain says anything, whether it holds), per matrix."""
        sigma_min = np.asarray(self.sigma_min)
        slack = 1.0 + _BOUND_RTOL
        l2 = self.norm2
        holds = (self.v_max <= l2 * slack) & (
            l2 * sigma_min**2 <= math.sqrt(self.amplitude.shape[-1]) * slack
        )
        return ~np.asarray(self.degenerate) & (sigma_min > 0.0), holds


def _peak_profile(near_null: np.ndarray, amplitude: np.ndarray) -> np.ndarray:
    """Per vector: near_null where it is nonzero anywhere, amplitude otherwise."""
    return np.where(near_null.any(axis=-1, keepdims=True), near_null, amplitude)


def solve_landscape(op: Operator, rcond: float = DEFAULT_RCOND) -> LandscapeResult:
    """Solve H^dag H v = 1 with a spectral cutoff at rcond * sigma_max^2.

    An operator that carries an imaginary gauge (Operator.log_gauge) is
    solved exactly instead, with nothing discarded and rcond unused: see
    _solve_gauged.  Every other operator takes the cutoff route below.

    The solve runs on one factorization of H itself (linalg.factorize),
    v = V diag(s^-2) V^dag 1 over singular values with s^2 > rcond *
    s_max^2.  Algebraically this is the cutoff pseudoinverse of H^dag H,
    but factorizing H before squaring keeps the small singular directions
    of strongly non-normal operators (skin-effect chains, deep midgap
    modes) at full relative accuracy, where an eigendecomposition of
    H^dag H would drown them in roundoff.  Agreement with the pseudo_solve
    route on well-conditioned input is a tested invariant.

    The discarded directions are not lost: along an exact (or numerically
    exact) kernel the landscape of the regularized problem
    (H^dag H + mu) v = 1 converges for mu -> 0 to the kernel component of
    1, which is what near_null records and what peak_profile and soft_com
    then follow.

    A fully degenerate H (all singular values below the cutoff) yields the
    zero vector, degenerate set and soft_com NaN.

    A stack of operators takes one stacked factorization, and the cutoff
    applies to each matrix against its own s_max: the dropped directions
    are a per-row mask (zero weights in the sums over directions), so each
    matrix of the stack is solved as it would be on its own, to roundoff.
    """
    if not 0.0 < rcond < 1.0:
        raise ValueError(f"rcond must lie in (0, 1), got {rcond}")
    spectrum = eig = None
    if op.log_gauge is not None:
        eig = gauge_eigh(op)
        v, sigma_min = _solve_gauged(op, eig)
        keep, near_null = np.ones(op.dim, dtype=bool), np.zeros(op.dim)
    else:
        spectrum = factorize(op)
        sigma = spectrum.sigma
        keep = sigma**2 > rcond * sigma.max(axis=-1, keepdims=True) ** 2
        # V^T with contiguous rows: the layout in which the sums over
        # directions below have always been taken, so they round as before
        rows = np.ascontiguousarray(spectrum.right.swapaxes(-1, -2))
        overlap = rows.conj() @ np.ones(op.dim)  # V^dag 1
        near_null = np.abs(_combine(rows, np.where(keep, 0.0, overlap)))
        weights = np.divide(overlap, sigma**2, out=np.zeros_like(overlap), where=keep)
        v = _combine(rows, weights)
        sigma_min = batch_value(sigma.min(axis=-1))
    kept = np.count_nonzero(keep, axis=-1)
    amplitude = np.abs(v)
    # a matrix with nothing kept has v = 0 but near_null = |1|, so no profile is all zero
    soft_com = np.where(kept > 0, weighted_mean_site(_peak_profile(near_null, amplitude)), math.nan)
    return LandscapeResult(
        amplitude=amplitude,
        v_complex=v,
        v_max=batch_value(amplitude.max(axis=-1)),
        soft_com=batch_value(soft_com),
        sigma_min=sigma_min,
        rcond_used=rcond,
        discarded_rank=batch_value(op.dim - kept),
        spectrum=spectrum,
        near_null=near_null,
        gauge_eig=eig,
    )


def _combine(rows: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_k weights[k] rows[k], per matrix of a stack (one gemv each)."""
    return (rows.swapaxes(-1, -2) @ weights[..., None])[..., 0]


def _solve_gauged(op: Operator, eig: Spectrum) -> tuple:
    """(v, sigma_min) of H = D T D^-1 from eig, the factorization of the symmetric T.

    With T = Phi Lambda Phi^T, H^-1 = D T^-1 D^-1 is formed explicitly and
    A = H^-1 H^-T = (H^dag H)^-1, so v = A 1 is the row sums of A and
    1 / sigma_min^2 is the largest eigenvalue of A (eigvalsh, values only).
    Both come from well conditioned steps however small sigma_min is, and
    nothing is discarded.  The gauge is centred first (v and sigma_min do
    not depend on a constant shift of it), which gives
    ||v||_2^2 <= d ||T^-1||^4 exp(4 span) with span = max - min of the
    gauge.  When that bound leaves the float64 range, or T is numerically
    singular, the solve raises AccuracyError rather than return inf or
    noise.
    """
    lam_min = float(eig.sigma.min())  # 1 / ||T^-1||
    if lam_min <= op.dim * np.finfo(float).eps * eig.sigma.max():
        raise AccuracyError(
            "the gauge partner T is numerically singular; solve Operator(op.entries) instead"
        )
    g = op.log_gauge - 0.5 * (op.log_gauge.max() + op.log_gauge.min())
    span = float(g.max() - g.min())
    if math.log(op.dim) + 4.0 * (span - math.log(lam_min)) >= _LOG_FLOAT_MAX:
        raise AccuracyError(
            f"gauge span {span:.1f} with min |eig T| = {lam_min:.3g} takes the landscape "
            "of this operator past the float64 range"
        )
    t_inv = (eig.right / eig.energies) @ eig.right.T
    h_inv = t_inv * np.exp(g[:, None] - g[None, :])
    a = h_inv @ h_inv.T
    return a.sum(axis=1), 1.0 / math.sqrt(float(np.linalg.eigvalsh(a)[-1]))


def eigenmode_bound_report(result: LandscapeResult) -> list:
    """Measure the eigenmode confinement ratio for every mode of H^dag H.

    The eigenpairs of H^dag H are (sigma^2, right) of the factorization the
    landscape was solved from; mode k is the k-th smallest eigenvalue.  For
    each (lam, phi) this reports max_j |phi_j| / (lam ||phi||_inf |v_j|).
    A value <= 1 confirms the landscape bound for that mode.  Ratios above
    1 are reported, not suppressed: away from the Hermitian elliptic
    setting the bound is an empirical question, and this report is the
    measurement.  It needs the right singular vectors of H, which only the
    generic route has: solve a gauge-carrying operator as
    Operator(op.entries) to report on it.  It reads one operator's solve,
    not a stack's.
    """
    if result.discarded_rank > 0:
        raise DegenerateInputError(
            "eigenmode bound needs sigma_min above the pseudoinverse cutoff"
        )
    if result.spectrum is None:
        raise DegenerateInputError(
            "eigenmode bound needs the singular vectors of H; a gauge-route solve has none"
        )
    spectrum = result.spectrum
    order = np.argsort(spectrum.sigma, kind="stable")
    lam = np.float_power(spectrum.sigma[order], 2)
    phi = np.abs(spectrum.right[:, order])
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = phi / (lam * phi.max(axis=0) * result.amplitude[:, None])
    return list(enumerate(np.nanmax(ratios, axis=0).tolist()))
