"""Dense linear algebra kernel, real where the operator is real.

An Operator stores float64 entries when every entry is exactly real and
complex128 otherwise, and the factorizations run in that dtype, so every
real model goes through real LAPACK.  Everything downstream works with
small dense matrices (d <~ 10^4), so the kernel stays deliberately simple:
the one factorization of H that every landscape observable is read from
(through half-size blocks when H carries a parity and a chiral pairing),
the same factorization of the symmetric gauge partner of an operator that
carries an imaginary gauge, the normal operator H^dag H, a pseudoinverse
solve with an explicit spectral cutoff (the independent oracle route), and
the weighted mean site shared by the center of mass indicators.  All
functions are pure; results never share mutable state with the inputs.

An Operator may also hold a stack (..., d, d) of equal-size matrices, such
as the lifts of one parameter sweep.  factorize then runs one stacked LAPACK
call (numpy loops over the stack in C) and every result carries the stack's
leading axes; a single matrix is the stack of shape ().  Each matrix of a
stack is factorized by the same LAPACK routine as on its own, so its values
are bitwise those of the single call.  The gauge and pseudo_solve take
single operators only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, DimensionError, HermiticityError

#: Default relative spectral cutoff for pseudoinverse solves.  Eigenvalues of
#: H^dag H below DEFAULT_RCOND * lambda_max are treated as numerical zeros.
DEFAULT_RCOND = 1e-12

#: Relative tolerance used when checking that a matrix is Hermitian.
HERMITICITY_RTOL = 1e-10


@dataclass(frozen=True, eq=False)
class SignedPermutation:
    """The orthogonal map x -> sign * x[index], applied to the rows of a matrix.

    index must be a fixed-point-free involution of 0..d-1 (it swaps
    indices in pairs) and every sign +-1; both are copied read-only.
    """

    index: np.ndarray
    sign: np.ndarray

    def __post_init__(self):
        index, sign = np.array(self.index, dtype=np.intp), np.array(self.sign, dtype=float)
        if index.ndim != 1 or sign.shape != index.shape:
            raise DimensionError(f"index {index.shape} and sign {sign.shape} must be equal vectors")
        flat = np.arange(index.size)
        in_range = np.all((index >= 0) & (index < index.size) & (index != flat))
        if not (in_range and np.array_equal(index[index], flat) and np.all(np.abs(sign) == 1.0)):
            raise ValueError("index must be a fixed-point-free involution and every sign +-1")
        index.setflags(write=False)
        sign.setflags(write=False)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "sign", sign)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.sign[:, None] * x[self.index]


def _is_parity_pairing(m: np.ndarray, parity: SignedPermutation, pairing: SignedPermutation) -> bool:
    """Whether (P, S) = (parity, pairing) are exact symmetries of H = m, of
    every matrix of a stack m: P H P^T = H and S H S^T = -H, as factorize's
    paired route relies on.

    Maps that are malformed on their own raise: both must act on
    d = dim(H) indices, P must square to one and S must anticommute with
    it (S P = -P S).
    """
    d = m.shape[-1]
    if parity.index.size != d or pairing.index.size != d:
        raise DimensionError(f"parity and pairing must act on {d} indices")
    if not np.all(parity.sign * parity.sign[parity.index] == 1.0):
        raise ValueError("parity must square to the identity")
    if not (np.array_equal(parity.index[pairing.index], pairing.index[parity.index])
            and np.array_equal(pairing.sign * parity.sign[pairing.index],
                               -parity.sign * pairing.sign[parity.index])):
        raise ValueError("pairing must anticommute with parity")
    # M H M^T = +-H, entry (i, j) being sign_i sign_j H[index_i, index_j]; checking
    # the nonzero entries suffices, since a map that sends every one of them onto
    # a nonzero entry permutes them, and so sends the zeros onto zeros.  A stack
    # is checked on the entries nonzero in any of its matrices, which covers the
    # nonzero entries of each (np.flatnonzero of a mask is about 10x faster
    # than np.nonzero(m))
    rows, cols = divmod(np.flatnonzero((m != 0).reshape(-1, d * d).any(axis=0)), d)
    return all(
        np.array_equal(p.sign[rows] * p.sign[cols] * m[..., p.index[rows], p.index[cols]],
                       factor * m[..., rows, cols])
        for p, factor in ((parity, 1.0), (pairing, -1.0))
    )


@dataclass(frozen=True, eq=False)
class Operator:
    """Square matrix, or stack (..., d, d) of them, with an optional
    imaginary gauge or parity and pairing.

    Entries are copied to a read-only array that is float64 when every
    entry of the stack is exactly real (ints, bools and complex input with
    an all-zero imaginary part included) and complex128 otherwise;
    non-square or non-finite input is rejected at construction time.

    log_gauge, when set, is the log of the diagonal of a gauge D for which
    T = D^-1 H D is real symmetric, so H = D T D^-1 (Hatano-Nelson chains
    carry one).  solve_landscape and average_right_density then read H off
    one eigh of T (gauge_eigh) instead of the SVD and eig of H.
    Only a single real H can carry a gauge; Operator(op.entries) drops it.

    parity_pairing, when given, is a pair (P, S) of SignedPermutation maps
    with P^2 = 1 and S P = -P S; other maps raise.  It is kept only where
    P H P^T = H and S H S^T = -H hold exactly, for every matrix of a stack
    (_is_parity_pairing), and is None otherwise.  factorize then reads an
    exactly Hermitian H off one eigh of its P = +1 block, half the size of
    H.  Every two-site Sambe lift is offered one; Operator(op.entries)
    drops it.
    """

    entries: np.ndarray
    log_gauge: np.ndarray | None = None
    parity_pairing: tuple | None = None

    def __post_init__(self):
        m = np.asarray(self.entries)
        if np.iscomplexobj(m) and not m.imag.any():
            m = m.real
        m = np.array(m, dtype=complex if np.iscomplexobj(m) else float)
        if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
            raise DimensionError(f"operator must be a square matrix or a stack, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("operator entries must be finite")
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)
        if self.log_gauge is not None:
            g = np.array(self.log_gauge, dtype=float)
            if g.shape != m.shape[:1] or m.ndim != 2:
                raise DimensionError(f"log_gauge has shape {g.shape}, expected one operator's (d,)")
            if not np.all(np.isfinite(g)) or np.iscomplexobj(m):
                raise ValueError("log_gauge must be finite and needs real entries")
            g.setflags(write=False)
            object.__setattr__(self, "log_gauge", g)
        if self.parity_pairing is not None and not _is_parity_pairing(m, *self.parity_pairing):
            object.__setattr__(self, "parity_pairing", None)

    @property
    def dim(self) -> int:
        """d, the size of the matrix (of each matrix of a stack)."""
        return self.entries.shape[-1]


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Singular values of H, right singular vectors (column k pairs with
    sigma[k]) and, for exactly Hermitian H only, the matching eigenvalues.

    A stack of H has one such record per matrix along the leading axes."""

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
    """Return H^dag H, of each matrix of a stack, symmetrized so it is
    Hermitian to the last bit."""
    m = op.entries
    out = m.conj().swapaxes(-1, -2) @ m
    out = 0.5 * (out + out.conj().swapaxes(-1, -2))
    return Operator(out)


def factorize(op: Operator) -> Spectrum:
    """The one factorization of H that the landscape and its observables share.

    Exactly Hermitian H goes through eigh, since its right singular vectors
    are its eigenvectors: sigma = |lambda|, in eigh order (ascending
    lambda).  When it also carries a parity and pairing, that eigh is of a
    half-size block (_paired_eigh).  Any other H goes through the SVD, with
    energies None.  The factorization runs in the dtype of H, so a real H
    has real vectors.  A stack is factorized by one stacked call, on the
    eigh route when every matrix of it is exactly Hermitian.
    """
    m = op.entries
    if np.array_equal(m, m.conj().swapaxes(-1, -2)):
        if op.parity_pairing is not None:
            energies, right = _paired_eigh(m, *op.parity_pairing)
        else:
            energies, right = np.linalg.eigh(m)
        return Spectrum(sigma=np.abs(energies), right=right, energies=energies)
    sigma, vh = np.linalg.svd(m)[1:]
    return Spectrum(sigma=sigma, right=vh.conj().swapaxes(-1, -2))


def _paired_eigh(m: np.ndarray, parity: SignedPermutation, pairing: SignedPermutation) -> tuple:
    """Eigenpairs of Hermitian m, ascending, from one eigh of its P = +1 block
    (of every matrix of a stack m, by one stacked eigh).

    P pairs index a with b = P(a) and sign s_a, so (e_a + s_a e_b) / sqrt 2
    spans the P = +1 eigenspace, where m acts as m[a, a] + m[a, b] s (the
    other two quarters repeat these by P symmetry).  S anticommutes with
    both m and P, so it maps each eigenpair (w, u) there onto (-w, S u) in
    the P = -1 eigenspace; the two halves are orthogonal.
    """
    d, h = m.shape[-1], m.shape[-1] // 2
    a = np.flatnonzero(parity.index > np.arange(d))
    b, s = parity.index[a], parity.sign[a]
    rows = m[..., a, :]
    w, u = np.linalg.eigh(rows[..., a] + rows[..., b] * s)
    # the eigenvectors are built as rows (vecs = right^T), so that sorting
    # them is one gather of whole rows over the flattened stack
    u = u.swapaxes(-1, -2) / math.sqrt(2.0)
    vecs = np.empty(u.shape[:-2] + (d, d), dtype=u.dtype)
    vecs[..., :h, a], vecs[..., :h, b] = u, u * s
    vecs[..., h:, :] = vecs[..., :h, pairing.index] * pairing.sign
    energies = np.concatenate([w, -w], axis=-1)
    order = np.argsort(energies, axis=-1, kind="stable")
    first_row = d * np.arange(order.size // d).reshape(order.shape[:-1] + (1,))
    pick = (order + first_row).ravel()
    return (energies.ravel()[pick].reshape(energies.shape),
            vecs.reshape(-1, d)[pick].reshape(vecs.shape).swapaxes(-1, -2))


def gauge_eigh(op: Operator) -> Spectrum:
    """The factorization of the real symmetric gauge partner T = D^-1 H D of H.

    D = diag(exp(log_gauge)).  T_ij = H_ij exp(g_j - g_i) is formed on the
    nonzero entries of H only, so no exponential of the whole gauge span is
    taken, and symmetrized; a gauge that leaves T asymmetric beyond
    HERMITICITY_RTOL raises HermiticityError.  The symmetrized T is exactly
    symmetric, so factorize takes its eigh: energies ascend, the vectors
    phi_k in right are real and orthonormal, and the right eigenvectors of
    H are D phi_k with the same eigenvalues.
    """
    g = op.log_gauge
    if g is None:
        raise ValueError("operator carries no gauge")
    rows, cols = np.nonzero(op.entries)
    t = np.zeros_like(op.entries)
    t[rows, cols] = op.entries[rows, cols] * np.exp(g[cols] - g[rows])
    if hermiticity_defect(t) > HERMITICITY_RTOL:
        raise HermiticityError("log_gauge does not symmetrize the operator")
    return factorize(Operator(0.5 * (t + t.T)))


def pseudo_solve(op: Operator, b: np.ndarray, rcond: float = DEFAULT_RCOND) -> PseudoSolveResult:
    """Solve A x = b for Hermitian PSD A through its eigendecomposition.

    Only eigenvalues above rcond * lambda_max are inverted; the solution is
    orthogonal to the discarded eigenspace.  If every eigenvalue falls below
    the cutoff the result is the zero vector with ``degenerate`` set.
    """
    if not 0.0 < rcond < 1.0:
        raise ValueError(f"rcond must lie in (0, 1), got {rcond}")
    if op.entries.ndim != 2:
        raise DimensionError("pseudo_solve takes one operator, not a stack")
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


def weighted_mean_site(weights: np.ndarray):
    """Weighted average of 1-based site indices: sum_j j w_j / sum_j w_j.

    Shared by the soft landscape indicator and the eigenstate center of
    mass.  A stack (..., d) of weight vectors gives one mean per vector.
    """
    w = np.asarray(weights, dtype=float)
    if w.ndim == 0 or w.shape[-1] == 0:
        raise DimensionError("weights must be nonempty vectors")
    if np.any(w < 0.0):
        raise ValueError("weights must be nonnegative")
    total = w.sum(axis=-1)
    if np.any(total == 0.0):
        raise DegenerateInputError("all-zero weight vector has no center of mass")
    sites = np.arange(1, w.shape[-1] + 1, dtype=float)
    # one dot product per vector, as sites @ w takes for a single one
    return batch_value(np.matmul(w[..., None, :], sites[:, None])[..., 0, 0] / total)


def batch_value(x):
    """x, one value per matrix: a Python scalar for one operator, an array for a stack."""
    x = np.asarray(x)
    return x.item() if x.ndim == 0 else x
