"""Time-domain ground truth for the driven two-level system.

Fixed-step 4th-order Runge-Kutta integration of i d/dt psi = H(t) psi,
H(t) = alpha(t) sigma_z - J sigma_x with alpha = s(t) / 2 and
s(t) = sum_i A_i cos(w_i t).  The state norm is never renormalized; its
drift is the accuracy diagnostic.

The system is linear, so one classic RK4 step (stages k1 ... k4) is a 2x2
matrix per state, M = I + (h/6)(K1 + 2 K2 + 2 K3 + K4) with K1 = A1,
K2 = A2 (I + h K1 / 2), K3 = A2 (I + h K2 / 2), K4 = A4 (I + h K3) and
A = -iH at t, t + h/2 and t + h.  Because H^2 = (alpha^2 + J^2) I, M
collapses to four real Pauli coefficients (see _step_maps), short
expressions in the three alphas, J and h.  Every observable runs on one
stepper, _evolve: it advances a (B, 2) batch of states (each row with its
own amplitudes) through one step plan, builds the maps elementwise for a
block of _block_steps(B) steps (about _BLOCK_ENTRIES maps, 16 to 1024
steps; measured best between B = 4 and B = 1000), applies them one step
at a time and yields the block.  propagate and the min_t P_L grid take
one DriveSignal and t_end; the first keeps every stride-th row, the second
a running minimum, both with the norm drift of every block.  The monodromy
sweep keeps the last state and checks its unitarity.

Every step map has the form (1 + r) I + i (x sigma_x + y sigma_y + z sigma_z)
with real r, x, y, z, so it commutes with the antiunitary
Theta = i sigma_y K (K complex conjugation), and so does their product U.
The monodromy sweep therefore evolves only U|L> = (a, b) and reads
U|R> = -Theta U|L> = (-b*, a*).  Complex multiplication and addition round
the same under conjugation, so this second column is bitwise the one the
stepper would give.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diagnostics import fold_quasienergy
from .errors import AccuracyError, NormalizationError

#: default number of integration steps per period of the fastest drive tone
STEPS_PER_PERIOD = 2000

#: fewest steps per period of the fastest drive tone, the coarsest dt allowed
MIN_STEPS_PER_PERIOD = 200

#: step maps (steps x rows) built per block of _evolve
_BLOCK_ENTRIES = 1 << 14


@dataclass(frozen=True, eq=False)
class DriveSignal:
    """Two-level model parameters: bias s(t) = sum_i amplitudes[i] cos(frequencies[i] t).

    amplitudes holds one value per tone (K,) or one such row per state of a
    batch (B, K); frequencies (K,) lie in (0, inf); amplitudes and
    j_coupling are finite.  They are checked here, once, and the arrays
    stored as read-only float arrays.
    """

    j_coupling: float
    amplitudes: np.ndarray
    frequencies: np.ndarray

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=float)
        freqs = np.array(self.frequencies, dtype=float)
        if amps.ndim not in (1, 2) or amps.shape[-1:] != freqs.shape or not freqs.size:
            raise ValueError("amplitudes and frequencies disagree on tone count")
        if not np.all((0.0 < freqs) & (freqs < math.inf)):  # NaN fails too
            raise ValueError(f"drive frequencies must be positive and finite, got {freqs}")
        if not (np.all(np.isfinite(amps)) and math.isfinite(self.j_coupling)):
            raise ValueError("drive amplitudes and j_coupling must be finite")
        amps.setflags(write=False)
        freqs.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "frequencies", freqs)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Stored time evolution: states and the left-site population.

    states is (n_times, 2) and p_left (n_times,) for one state, and
    (n_times, B, 2) and (n_times, B) for a batch of B.  max_norm_drift is
    the largest | ||psi|| - 1 | over every step, stored or not.
    """

    times: np.ndarray
    states: np.ndarray
    p_left: np.ndarray  # |<L|psi(t)>|^2
    max_norm_drift: float


def _norm_drift(states: np.ndarray) -> float:
    """Largest | ||psi|| - 1 | over the states; inf once any state is not finite,
    so a blown-up block cannot hide behind max()."""
    drift = float(np.abs(np.linalg.norm(states, axis=-1) - 1.0).max())
    return drift if math.isfinite(drift) else math.inf


def _batch(drive: DriveSignal, psi0, dt):
    """Checked stepper inputs: (amps (B, K), freqs (K,), psi (B, 2), dt).

    One amplitude row of drive or one state is broadcast against a batch of
    the other.  dt defaults to the shortest drive period over STEPS_PER_PERIOD
    and may not exceed that period over MIN_STEPS_PER_PERIOD.
    """
    amps, freqs = drive.amplitudes, drive.frequencies
    period = 2.0 * math.pi / freqs.max()
    dt = period / STEPS_PER_PERIOD if dt is None else dt
    if not dt > 0.0:  # NaN fails too
        raise ValueError(f"dt must be positive, got {dt}")
    limit = period / MIN_STEPS_PER_PERIOD
    if dt > limit * (1.0 + 1e-12):
        raise ValueError(
            f"dt={dt} too coarse; need dt <= (shortest period)/{MIN_STEPS_PER_PERIOD} = {limit:.3e}"
        )
    psi = np.asarray(psi0, dtype=complex)
    if psi.ndim not in (1, 2) or psi.shape[-1] != 2:
        raise ValueError("psi0 must be a 2-vector or a (B, 2) batch")
    if not np.abs(np.linalg.norm(psi, axis=-1) - 1.0).max() <= 1e-8:  # NaN fails too
        raise NormalizationError("psi0 must be normalized to 1e-8")
    rows = np.broadcast_shapes(amps.shape[:-1], psi.shape[:-1]) or (1,)
    amps = np.array(np.broadcast_to(amps, rows + amps.shape[-1:]))
    return amps, freqs, np.array(np.broadcast_to(psi, rows + (2,))), dt


def _step_plan(t_end: float, dt: float):
    """Number of full dt steps plus a final partial step reaching t_end."""
    if not 0.0 < t_end < math.inf:  # NaN fails too
        raise ValueError(f"t_end must be positive and finite, got {t_end}")
    n_full = int(math.floor(t_end / dt + 1e-9))
    last = t_end - n_full * dt
    if last < 1e-12 * dt:
        last = 0.0
    return n_full, last


def _block_steps(rows: int) -> int:
    """Steps per block for a batch of rows: about _BLOCK_ENTRIES maps, 16 to 1024 steps."""
    return min(1024, max(16, _BLOCK_ENTRIES // rows))


def _step_maps(t, h, j_coupling, amps, freqs):
    """RK4 step maps, less the identity, for steps starting at t (L,) of sizes h (L,).

    Returns (diag, off), each (L, 2, B) complex: diag holds (m00 - 1,
    m11 - 1) and off (m01, m10), so one step of a (2, B) state is
    psi' = psi + diag * psi + off * psi[::-1].  The identity stays out
    because a stored m00 = 1 + r would round the same way on every step of
    a constant drive, an error that grows linearly with the step count;
    psi plus a small increment rounds like the classic stage form.

    With H = alpha sigma_z - J sigma_x at t, t + h/2, t + h (alphas a1, a2,
    a4), the classic k1 ... k4 polynomial collapses to
    M = (1 + r) I + i (x sigma_x + y sigma_y + z sigma_z), where
    g = h^2 (a2^2 + J^2) and
      r = -(h^2/6) [a2 (a1 + a4) + a2^2 + 3 J^2 - (g/4)(a1 a4 + J^2)]
      z = -(h/6) [(a1 + a4)(1 - g/2) + 4 a2]
      x = (h/6) J (6 - g)
      y = (h^2/6) J (a4 - a1)(1 - g/4)
    """
    times = np.concatenate([t, t + 0.5 * h, t + h])
    a1, a2, a4 = np.split(np.cos(np.multiply.outer(times, freqs)) @ (0.5 * amps.T), 3)
    h = h[:, None]
    c = h / 6.0
    j2 = j_coupling * j_coupling
    q = a2 * a2 + j2
    g = q * (h * h)
    s = a1 + a4
    r = (-c * h) * (a2 * s + q + 2.0 * j2 - 0.25 * g * (a1 * a4 + j2))
    z = -c * (s * (1.0 - 0.5 * g) + 4.0 * a2)
    x = (c * j_coupling) * (6.0 - g)
    y = (c * (h * j_coupling)) * (a4 - a1) * (1.0 - 0.25 * g)
    diag = np.empty((len(t), 2, amps.shape[0]), dtype=complex)
    off = np.empty_like(diag)
    diag.real[:, 0] = diag.real[:, 1] = r
    diag.imag[:, 0] = z
    diag.imag[:, 1] = -z
    off.real[:, 0] = y
    off.real[:, 1] = -y
    off.imag[:, 0] = off.imag[:, 1] = x
    return diag, off


def _evolve(psi, t_end, dt, j_coupling, amps, freqs):
    """Yield (times (L,), states (L, B, 2)) blocks over t = 0, dt, 2 dt, ... and t_end.

    The first block is the (B, 2) initial state alone at t = 0; each later
    block holds the next _block_steps(B) steps of _step_plan, the final
    partial step with its own map.
    """
    n_full, last = _step_plan(t_end, dt)
    n_steps = n_full + (last > 0.0)
    yield np.zeros(1), psi[None]
    state = psi.T
    block = _block_steps(len(psi))
    for k0 in range(0, n_steps, block):
        k = np.arange(k0, min(k0 + block, n_steps))
        full = k < n_full
        diag, off = _step_maps(k * dt, np.where(full, dt, last), j_coupling, amps, freqs)
        out = np.empty_like(diag)
        for m_diag, m_off, new in zip(diag, off, out):
            np.multiply(m_diag, state, out=new)
            new += m_off * state[::-1]
            new += state
            state = new
        yield np.where(full, (k + 1) * dt, t_end), out.transpose(0, 2, 1)


def propagate(
    drive: DriveSignal, psi0: np.ndarray, t_end: float, dt: float | None = None, stride: int = 1
) -> Trajectory:
    """Integrate the driven two-level Schrodinger equation and store every stride-th step.

    psi0 is one 2-vector or a (B, 2) batch; with amplitude rows in drive, row
    b of the batch evolves under row b of the amplitudes.  The stored steps
    are those a full run would hold at [::stride], t = 0 first.  The state
    is never renormalized, so Trajectory.max_norm_drift, taken over every
    step, directly measures the integration error.  Halving dt changes the
    final state at the 4th-order rate (see the step-halving contract in the
    tests).
    """
    if stride < 1:
        raise ValueError("stride must be >= 1")
    amps, freqs, psi, dt = _batch(drive, psi0, dt)
    k = 0  # step index of the block's first row
    times, states = [], []
    drift = 0.0
    for t, block in _evolve(psi, t_end, dt, drive.j_coupling, amps, freqs):
        # copies, so a kept view does not hold its whole block alive
        times.append(t[-k % stride :: stride].copy())
        states.append(block[-k % stride :: stride].copy())
        drift = max(drift, _norm_drift(block))
        k += len(t)
    times, states = np.concatenate(times), np.concatenate(states)
    if np.ndim(psi0) == 1 and np.ndim(drive.amplitudes) == 1:
        states = states[:, 0]
    p_left = np.abs(states[..., 0]) ** 2
    return Trajectory(times=times, states=states, p_left=p_left, max_norm_drift=drift)


def min_left_population_grid(
    drive: DriveSignal, psi0: np.ndarray, t_end: float, dt: float | None = None
):
    """Batched min_t P_L over the amplitude rows of drive (one per grid point), and its drift.

    Runs to t_end on the same steps as propagate() with the same arguments,
    keeping a running minimum instead of the trajectories.  Returns (min_t
    P_L per row, the largest | ||psi|| - 1 | over every step of every row);
    element k of the first equals the per-point result to roundoff.
    """
    amps, freqs, psi, dt = _batch(drive, psi0, dt)
    p_min = np.full(len(psi), np.inf)
    drift = 0.0
    for _, block in _evolve(psi, t_end, dt, drive.j_coupling, amps, freqs):
        np.minimum(p_min, (np.abs(block[..., 0]) ** 2).min(axis=0), out=p_min)
        drift = max(drift, _norm_drift(block))
    return p_min, drift


def monodromy_quasienergies_sweep(
    j_coupling: float,
    amplitudes: np.ndarray,
    omega: float,
    dt: float | None = None,
    *,
    with_defect: bool = False,
):
    """Folded quasienergy pairs for a family of monochromatic amplitudes.

    U(T) is integrated with the same RK4 stepper as propagate(), one row
    U|L> per amplitude, its second column read as -Theta U|L> (see the module
    docstring); its unitarity is checked to 1e-8 and an AccuracyError flags
    a too-coarse dt.
    Eigenphases fold into [-omega/2, omega/2); returns an (n, 2) array with
    rows sorted ascending.  Row k does not depend on the other amplitudes.
    with_defect also returns the largest unitarity defect max |U^dag U - I|.
    """
    amps = np.asarray(amplitudes, dtype=float)
    if amps.ndim != 1:
        raise ValueError("the sweep takes one amplitude per point (one tone)")
    drive = DriveSignal(j_coupling, amps[:, None], (omega,))
    rows, freqs, psi, dt = _batch(drive, np.array([1.0, 0.0]), dt)
    period = 2.0 * math.pi / omega
    for _, block in _evolve(psi, period, dt, j_coupling, rows, freqs):
        pass
    # U|L> = (a, b) and U|R> = (-b*, a*), stacked as the rows of U^T blocks
    a, b = block[-1].T
    u = np.stack([block[-1], np.stack([-b.conj(), a.conj()], axis=-1)], axis=1).transpose(0, 2, 1)
    defect = float(np.abs(u.conj().transpose(0, 2, 1) @ u - np.eye(2)).max())
    if not defect <= 1e-8:  # NaN fails too
        raise AccuracyError(f"monodromy propagator non-unitary at {defect:.2e}; reduce dt")
    eps = np.sort(fold_quasienergy(-np.angle(np.linalg.eigvals(u)) / period, omega), axis=1)
    return (eps, defect) if with_defect else eps


def quasienergy_gap(pair, omega: float) -> float:
    """Distance between two folded quasienergies on the circle of size omega."""
    raw = abs(float(pair[1]) - float(pair[0]))
    return float(min(raw, omega - raw))
