"""Dense linear algebra kernel, real where the operator is real.

An Operator stores float64 entries when every entry is exactly real and
complex128 otherwise, and the factorizations run in that dtype, so every
real model goes through real LAPACK.  Everything downstream works with
small dense matrices (d <~ 10^4), so the kernel stays deliberately simple:
the one factorization of H that every landscape observable is read from,
the eigendecomposition of the symmetric gauge partner of an operator that
carries an imaginary gauge, right eigenpairs of a general matrix, the
normal operator H^dag H, a pseudoinverse solve with an explicit spectral
cutoff (the independent oracle route), and the weighted mean site shared
by the center of mass indicators.  All functions are pure; results never share mutable state
with the inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, DimensionError, HermiticityError

#: Default relative spectral cutoff for pseudoinverse solves.  Eigenvalues of
#: H^dag H below DEFAULT_RCOND * lambda_max are treated as numerical zeros.
DEFAULT_RCOND = 1e-12

#: Relative tolerance used when checking that a matrix is Hermitian.
HERMITICITY_RTOL = 1e-10


@dataclass(frozen=True, eq=False)
class Operator:
    """Square matrix with an optional imaginary gauge.

    Entries are copied to a read-only array that is float64 when every
    entry is exactly real (ints, bools and complex input with an all-zero
    imaginary part included) and complex128 otherwise; non-square or
    non-finite input is rejected at construction time.

    log_gauge, when set, is the log of the diagonal of a gauge D for which
    T = D^-1 H D is real symmetric, so H = D T D^-1 (Hatano-Nelson chains
    carry one).  solve_landscape and average_right_density then read H off
    one eigh of T (gauge_eigh) instead of the SVD and eig_general of H.
    Only a real H can carry a gauge; Operator(op.entries) drops it.
    """

    entries: np.ndarray
    log_gauge: np.ndarray | None = None

    def __post_init__(self):
        m = np.asarray(self.entries)
        if np.iscomplexobj(m) and not m.imag.any():
            m = m.real
        m = np.array(m, dtype=complex if np.iscomplexobj(m) else float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionError(f"operator must be a square matrix, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("operator entries must be finite")
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)
        if self.log_gauge is not None:
            g = np.array(self.log_gauge, dtype=float)
            if g.shape != (m.shape[0],):
                raise DimensionError(f"log_gauge has shape {g.shape}, expected ({m.shape[0]},)")
            if not np.all(np.isfinite(g)) or np.iscomplexobj(m):
                raise ValueError("log_gauge must be finite and needs real entries")
            g.setflags(write=False)
            object.__setattr__(self, "log_gauge", g)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True, eq=False)
class EigResult:
    """Eigendecomposition; column k of ``vectors`` pairs with ``values[k]``."""

    values: np.ndarray
    vectors: np.ndarray


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Singular values of H, right singular vectors (column k pairs with
    sigma[k]) and, for exactly Hermitian H only, the matching eigenvalues."""

    sigma: np.ndarray
    right: np.ndarray
    energies: np.ndarray | None = None


@dataclass(frozen=True, eq=False)
class PseudoSolveResult:
    """Solution of a cutoff pseudoinverse solve plus rank bookkeeping."""

    x: np.ndarray
    discarded_rank: int
    degenerate: bool


def hermiticity_defect(matrix: np.ndarray) -> float:
    """max |A - A^dag| relative to the Frobenius norm of A (0 for A = 0)."""
    scale = np.linalg.norm(matrix)
    if scale == 0.0:
        return 0.0
    return float(np.max(np.abs(matrix - matrix.conj().T)) / scale)


def normal_operator(op: Operator) -> Operator:
    """Return H^dag H, symmetrized so it is Hermitian to the last bit."""
    m = op.entries
    out = m.conj().T @ m
    out = 0.5 * (out + out.conj().T)
    return Operator(out)


def factorize(op: Operator) -> Spectrum:
    """The one factorization of H that the landscape and its observables share.

    Exactly Hermitian H goes through eigh, since its right singular vectors
    are its eigenvectors: sigma = |lambda|, in eigh order (ascending
    lambda).  Any other H goes through the SVD, with energies None.  The
    factorization runs in the dtype of H, so a real H has real vectors.
    """
    if hermiticity_defect(op.entries) == 0.0:
        energies, right = np.linalg.eigh(op.entries)
        return Spectrum(sigma=np.abs(energies), right=right, energies=energies)
    sigma, vh = np.linalg.svd(op.entries)[1:]
    return Spectrum(sigma=sigma, right=vh.conj().T)


def gauge_eigh(op: Operator) -> EigResult:
    """Eigenpairs of the real symmetric gauge partner T = D^-1 H D of H.

    D = diag(exp(log_gauge)).  T_ij = H_ij exp(g_j - g_i) is formed on the
    nonzero entries of H only, so no exponential of the whole gauge span is
    taken, and symmetrized; a gauge that leaves T asymmetric beyond
    HERMITICITY_RTOL raises HermiticityError.  Values ascend, the vectors
    phi_k are real and orthonormal, and the right eigenvectors of H are
    D phi_k with the same eigenvalues.
    """
    g = op.log_gauge
    if g is None:
        raise ValueError("operator carries no gauge")
    rows, cols = np.nonzero(op.entries)
    t = np.zeros_like(op.entries)
    t[rows, cols] = op.entries[rows, cols] * np.exp(g[cols] - g[rows])
    if hermiticity_defect(t) > HERMITICITY_RTOL:
        raise HermiticityError("log_gauge does not symmetrize the operator")
    values, vectors = np.linalg.eigh(0.5 * (t + t.T))
    return EigResult(values=values, vectors=vectors)


def eig_general(op: Operator) -> EigResult:
    """Right eigenpairs of a general square matrix.

    Values and vectors are complex128 for real input too.  Pairs are sorted
    by (Re, Im) of the eigenvalue and each eigenvector is 2-norm
    normalized.  Near-defective inputs are not rejected (the residual
    contract ||H psi - E psi|| <= 1e-8 ||H||_F still holds on a best-effort
    basis).  This is the route of every operator without a gauge; a
    gauge-carrying one has exact eigenvectors from gauge_eigh, which
    average_right_density uses instead.
    """
    values, vectors = np.linalg.eig(op.entries)
    values, vectors = values.astype(complex, copy=False), vectors.astype(complex, copy=False)
    order = np.lexsort((values.imag, values.real))
    values = values[order]
    vectors = vectors[:, order]
    norms = np.linalg.norm(vectors, axis=0)
    norms[norms == 0.0] = 1.0
    return EigResult(values=values, vectors=vectors / norms)


def pseudo_solve(op: Operator, b: np.ndarray, rcond: float = DEFAULT_RCOND) -> PseudoSolveResult:
    """Solve A x = b for Hermitian PSD A through its eigendecomposition.

    Only eigenvalues above rcond * lambda_max are inverted; the solution is
    orthogonal to the discarded eigenspace.  If every eigenvalue falls below
    the cutoff the result is the zero vector with ``degenerate`` set.
    """
    if not 0.0 < rcond < 1.0:
        raise ValueError(f"rcond must lie in (0, 1), got {rcond}")
    rhs = np.asarray(b, dtype=complex)
    if rhs.shape != (op.dim,):
        raise DimensionError(f"right-hand side has shape {rhs.shape}, expected ({op.dim},)")
    if hermiticity_defect(op.entries) > HERMITICITY_RTOL:
        raise HermiticityError("pseudo_solve requires a Hermitian matrix")
    w, vecs = np.linalg.eigh(op.entries)
    lam_max = float(w[-1]) if w.size else 0.0
    if lam_max > 0.0 and float(w[0]) < -HERMITICITY_RTOL * lam_max:
        raise ValueError("pseudo_solve requires a positive semidefinite matrix")
    keep = w > rcond * lam_max
    kept = int(np.count_nonzero(keep))
    if kept == 0:
        return PseudoSolveResult(
            x=np.zeros(op.dim, dtype=complex),
            discarded_rank=op.dim,
            degenerate=True,
        )
    vk = vecs[:, keep]
    x = vk @ ((vk.conj().T @ rhs) / w[keep])
    return PseudoSolveResult(x=x, discarded_rank=op.dim - kept, degenerate=False)


def weighted_mean_site(weights: np.ndarray) -> float:
    """Weighted average of 1-based site indices: sum_j j w_j / sum_j w_j.

    Shared by the soft landscape indicator and the eigenstate center of mass.
    """
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise DimensionError("weights must be a nonempty 1d vector")
    if np.any(w < 0.0):
        raise ValueError("weights must be nonnegative")
    total = w.sum()
    if total == 0.0:
        raise DegenerateInputError("all-zero weight vector has no center of mass")
    sites = np.arange(1, w.size + 1, dtype=float)
    return float(sites @ w / total)
