"""Independent oracles used to derive expected values in the tests.

Every routine here deliberately avoids the code path it is used to check:
determinants come from LU instead of eigensolvers, linear solves from
hand-rolled Gaussian elimination, Bessel zeros from the defining series,
spectra from closed-form formulas, and extended-space matrices entry by
entry from the Sambe formula, and two-level dynamics from the classic
k1 ... k4 Runge-Kutta stages applied one step at a time.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def triple_loop_adjoint_product(matrix: np.ndarray) -> np.ndarray:
    """Element-by-element H^dag H, no BLAS."""
    n = matrix.shape[0]
    out = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            acc = 0.0 + 0.0j
            for k in range(n):
                acc += np.conj(matrix[k, i]) * matrix[k, j]
            out[i, j] = acc
    return out


def _det_shifted(matrix: np.ndarray, x: float) -> float:
    """sign(det(A - x I)) * exp-scaled magnitude via LU (no eigensolver)."""
    sign, logdet = np.linalg.slogdet(matrix - x * np.eye(matrix.shape[0]))
    return float(sign.real)


def hermitian_eigs_bisection(matrix: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix by sign bisection of det(A - xI).

    Scans a fine grid for sign changes of the (LU-computed) determinant and
    bisects each bracket.  Assumes simple eigenvalues, which holds for the
    random matrices it is applied to.
    """
    n = matrix.shape[0]
    bound = float(np.linalg.norm(matrix, ord="fro")) + 1.0
    grid = np.linspace(-bound, bound, 4001)
    signs = np.array([_det_shifted(matrix, x) for x in grid])
    roots = []
    for i in range(len(grid) - 1):
        if signs[i] == 0.0:
            roots.append(grid[i])
            continue
        if signs[i] * signs[i + 1] < 0.0:
            lo, hi = grid[i], grid[i + 1]
            s_lo = signs[i]
            while hi - lo > tol:
                mid = 0.5 * (lo + hi)
                s_mid = _det_shifted(matrix, mid)
                if s_mid == 0.0:
                    lo = hi = mid
                    break
                if s_lo * s_mid < 0.0:
                    hi = mid
                else:
                    lo, s_lo = mid, s_mid
            roots.append(0.5 * (lo + hi))
    assert len(roots) == n, f"bisection found {len(roots)} of {n} eigenvalues"
    return np.array(sorted(roots))


def gaussian_elimination_solve(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Partial-pivot Gaussian elimination, written out longhand."""
    a = matrix.astype(complex).copy()
    b = rhs.astype(complex).copy()
    n = a.shape[0]
    for col in range(n):
        pivot = col + int(np.argmax(np.abs(a[col:, col])))
        if pivot != col:
            a[[col, pivot]] = a[[pivot, col]]
            b[[col, pivot]] = b[[pivot, col]]
        for row in range(col + 1, n):
            factor = a[row, col] / a[col, col]
            a[row, col:] -= factor * a[col, col:]
            b[row] -= factor * b[col]
    x = np.zeros(n, dtype=complex)
    for row in range(n - 1, -1, -1):
        x[row] = (b[row] - a[row, row + 1 :] @ x[row + 1 :]) / a[row, row]
    return x


def j0_series(x: float, terms: int = 40) -> float:
    """Power-series definition of J0, fixed term count."""
    q = 0.25 * x * x
    term, total = 1.0, 1.0
    for k in range(1, terms):
        term *= -q / (k * k)
        total += term
    return total


def j0_zero_bisection(bracket_lo: float, bracket_hi: float, tol: float = 1e-12) -> float:
    """Root of the J0 power series inside a sign-changing bracket."""
    lo, hi = bracket_lo, bracket_hi
    f_lo = j0_series(lo)
    assert f_lo * j0_series(hi) < 0.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        f_mid = j0_series(mid)
        if f_lo * f_mid <= 0.0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)


def average_ranks_loop(values: np.ndarray) -> np.ndarray:
    """Ranks 1..N, each run of equal sorted values given the mean of its ranks."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(values.size, dtype=float)
    i = 0
    while i < values.size:
        j = i
        while j + 1 < values.size and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def bbh_matrix_loop(n_x: int, n_y: int, gamma: float, lam: float) -> np.ndarray:
    """The bbh matrix bond by bond: a loop over (column i, row j), both 1-based."""
    lx, ly = 2 * n_x, 2 * n_y
    m = np.zeros((lx * ly, lx * ly))

    def flat(i, j):
        return (j - 1) * lx + (i - 1)

    for j in range(1, ly + 1):
        for i in range(1, lx + 1):
            p = flat(i, j)
            if i < lx:  # x bond, sign -1 on even rows
                t = (gamma if i % 2 == 1 else lam) * (1.0 if j % 2 == 1 else -1.0)
                m[p, flat(i + 1, j)] = m[flat(i + 1, j), p] = t
            if j < ly:  # y bond
                t = gamma if j % 2 == 1 else lam
                m[p, flat(i, j + 1)] = m[flat(i, j + 1), p] = t
    return m


def open_chain_spectrum(n_sites: int, hopping: float) -> np.ndarray:
    """Eigenvalues 2 t cos(k pi / (N+1)) of the uniform open chain."""
    k = np.arange(1, n_sites + 1)
    return np.sort(2.0 * hopping * np.cos(k * math.pi / (n_sites + 1)))


def _hn_mp_solve(t_left, t_right, rhs: list) -> list:
    """x with H x = rhs for the even open chain with zero diagonal, in O(N).

    Row i reads t_right x_{i-1} + t_left x_{i+1} = rhs_i, so rows 0, 2, ...
    fix the odd entries of x from the left end and rows N-1, N-3, ... fix
    the even entries from the right end.
    """
    n = len(rhs)
    x = [0] * n
    x[1] = rhs[0] / t_left
    for i in range(2, n - 1, 2):
        x[i + 1] = (rhs[i] - t_right * x[i - 1]) / t_left
    x[n - 2] = rhs[n - 1] / t_right
    for i in range(n - 3, 0, -2):
        x[i - 1] = (rhs[i] - t_left * x[i + 1]) / t_right
    return x


def hatano_nelson_mp_reference(n_sites: int, t_left: float, t_right: float, dps: int = 60):
    """(v_max, sigma_min) of the Hatano-Nelson chain from dps-digit solves.

    v = H^-1 H^-T 1 takes two solves; H^-1 takes one solve per column and is
    rounded to float64, whose largest singular value (relatively accurate)
    gives sigma_min = 1 / ||H^-1||_2.
    """
    import mpmath

    if n_sites % 2:
        raise ValueError("the recursion needs an even chain")
    with mpmath.workdps(dps):
        tl, tr = mpmath.mpf(t_left), mpmath.mpf(t_right)
        zero, one = mpmath.mpf(0), mpmath.mpf(1)
        v = _hn_mp_solve(tl, tr, _hn_mp_solve(tr, tl, [one] * n_sites))
        v_max = float(max(abs(x) for x in v))
        h_inv = np.empty((n_sites, n_sites))
        for j in range(n_sites):
            unit = [zero] * n_sites
            unit[j] = one
            h_inv[:, j] = [float(x) for x in _hn_mp_solve(tl, tr, unit)]
    return v_max, 1.0 / float(np.linalg.norm(h_inv, 2))


def sambe_entry_oracle(h0: np.ndarray, blocks: dict, omegas, truncations) -> np.ndarray:
    """Extended-space matrix written out entry by entry.

    H[(i, m), (j, m')] = h0[i, j] delta_mm' + (m . omega) delta_ij delta_mm'
    + B_{m - m'}[i, j], with flat index sector * n + i and sectors counted
    with m1 fastest.  ``blocks`` maps harmonic keys (int for one tone) to
    plain arrays.
    """
    n = h0.shape[0]
    ranges = [range(-m, m + 1) for m in reversed(truncations)]
    sectors = [tuple(reversed(h)) for h in itertools.product(*ranges)]
    keyed = {(k,) if isinstance(k, int) else tuple(k): b for k, b in blocks.items()}
    out = np.zeros((n * len(sectors), n * len(sectors)), dtype=complex)
    for a, m in enumerate(sectors):
        shift = sum(mi * w for mi, w in zip(m, omegas))
        for b, mp in enumerate(sectors):
            block = keyed.get(tuple(x - y for x, y in zip(m, mp)))
            for i in range(n):
                for j in range(n):
                    entry = h0[i, j] if a == b else 0.0
                    if a == b and i == j:
                        entry = entry + shift
                    if block is not None:
                        entry = entry + block[i, j]
                    out[a * n + i, b * n + j] = entry
    return out


def parity_pairing_relations_hold(h0: np.ndarray, blocks: dict) -> bool:
    """The four 2x2 relations that carry P and S of a two-site base over to its lift.

    sigma_x h0 sigma_x = h0, sigma_x B_k sigma_x = (-1)^(sum k) B_k,
    J h0 J^T = -h0 and J B_k J^T = -B_(-k), with J = [[0, 1], [-1, 0]] and a
    missing B_(-k) read as zero; each relation exact, written out entry by
    entry.  ``blocks`` maps harmonic tuples (no zero key) to 2x2 arrays.
    """

    def parity(a):  # sigma_x a sigma_x
        return np.array([[a[1, 1], a[1, 0]], [a[0, 1], a[0, 0]]])

    def pairing(a):  # J a J^T
        return np.array([[a[1, 1], -a[1, 0]], [-a[0, 1], a[0, 0]]])

    holds = np.array_equal(parity(h0), h0) and np.array_equal(pairing(h0), -h0)
    for k, b in blocks.items():
        partner = blocks.get(tuple(-x for x in k), np.zeros((2, 2)))
        holds = holds and np.array_equal(parity(b), (-1) ** sum(k) * b)
        holds = holds and np.array_equal(pairing(b), -partner)
    return holds


def _two_level_rhs(t, psi, j_coupling, amps, freqs):
    # i psi' = [alpha(t) sigma_z - J sigma_x] psi, alpha = s(t) / 2; psi (B, 2), amps (B, K)
    s_t = amps @ np.cos(freqs * t)
    hpsi = -j_coupling * psi[:, ::-1] + (0.5 * s_t)[:, None] * (psi * np.array([1.0, -1.0]))
    return -1j * hpsi


def rk4_step_oracle(t, psi, dt, j_coupling, amps, freqs):
    """One classic RK4 step of the driven two-level batch, stage by stage."""
    k1 = _two_level_rhs(t, psi, j_coupling, amps, freqs)
    k2 = _two_level_rhs(t + 0.5 * dt, psi + (0.5 * dt) * k1, j_coupling, amps, freqs)
    k3 = _two_level_rhs(t + 0.5 * dt, psi + (0.5 * dt) * k2, j_coupling, amps, freqs)
    k4 = _two_level_rhs(t + dt, psi + dt * k3, j_coupling, amps, freqs)
    return psi + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def rk4_trajectory_oracle(psi, n_full, last, dt, j_coupling, amps, freqs):
    """States (n, B, 2) at t = 0, dt, ..., n_full dt and, if last > 0, n_full dt + last."""
    states = [psi]
    for k in range(n_full + (last > 0.0)):
        psi = rk4_step_oracle(k * dt, psi, dt if k < n_full else last, j_coupling, amps, freqs)
        states.append(psi)
    return np.array(states)
