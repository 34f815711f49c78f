"""Time-domain ground truth for the driven two-level system.

Fixed-step 4th-order Runge-Kutta integration of
i d/dt psi = [-J sigma_x + s(t) sigma_z / 2] psi with
s(t) = sum_i A_i cos(w_i t).  The state norm is never renormalized; its
drift is the accuracy diagnostic.  Every observable runs on one stepper,
_evolve, which advances a (B, 2) batch of states (each row with its own
amplitudes) through one step plan: propagate stores every step, the
min_t P_L grid keeps a running minimum and the monodromy sweep keeps the
last state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diagnostics import fold_quasienergy
from .errors import AccuracyError, NormalizationError

_SZ = np.array([1.0, -1.0])

#: default number of integration steps per period of the fastest drive tone
STEPS_PER_PERIOD = 2000

#: steps propagate() buffers between two norm-drift reductions
_DRIFT_BLOCK = 1024


@dataclass(frozen=True)
class DriveSignal:
    """Two-level model parameters: bias s(t) = sum_i amplitudes[i] cos(frequencies[i] t).

    amplitudes holds one value per tone, or one such row per state of a
    batched propagate().
    """

    j_coupling: float
    amplitudes: tuple
    frequencies: tuple

    def __post_init__(self):
        _drive_arrays(self.amplitudes, self.frequencies)


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
    return float(np.abs(np.linalg.norm(states, axis=-1) - 1.0).max())


def _drive_arrays(amplitudes, frequencies):
    """Amplitudes (K,) or (B, K) and frequencies (K,) as checked float arrays."""
    amps = np.asarray(amplitudes, dtype=float)
    freqs = np.asarray(frequencies, dtype=float)
    if freqs.ndim != 1 or not freqs.size or amps.ndim not in (1, 2) or amps.shape[-1] != freqs.size:
        raise ValueError("amplitudes and frequencies disagree on tone count")
    if np.any(freqs <= 0.0):
        raise ValueError("drive frequencies must be positive")
    return amps, freqs


def _batch(amplitudes, frequencies, psi0, dt):
    """Checked stepper inputs: (amps (B, K), freqs (K,), psi (B, 2), dt).

    One amplitude row or one state is broadcast against a batch of the
    other.  dt defaults to the shortest drive period over STEPS_PER_PERIOD
    and may not exceed that period over 200.
    """
    amps, freqs = _drive_arrays(amplitudes, frequencies)
    period = 2.0 * math.pi / freqs.max()
    dt = period / STEPS_PER_PERIOD if dt is None else dt
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    limit = period / 200.0
    if dt > limit * (1.0 + 1e-12):
        raise ValueError(f"dt={dt} too coarse; need dt <= (shortest period)/200 = {limit:.3e}")
    psi = np.asarray(psi0, dtype=complex)
    if psi.ndim not in (1, 2) or psi.shape[-1] != 2:
        raise ValueError("psi0 must be a 2-vector or a (B, 2) batch")
    if np.abs(np.linalg.norm(psi, axis=-1) - 1.0).max() > 1e-8:
        raise NormalizationError("psi0 must be normalized to 1e-8")
    rows = np.broadcast_shapes(amps.shape[:-1], psi.shape[:-1]) or (1,)
    amps = np.array(np.broadcast_to(amps, rows + amps.shape[-1:]))
    return amps, freqs, np.array(np.broadcast_to(psi, rows + (2,))), dt


def _step_plan(t_end: float, dt: float):
    """Number of full dt steps plus a final partial step reaching t_end."""
    if t_end <= 0.0:
        raise ValueError("t_end must be positive")
    n_full = int(math.floor(t_end / dt + 1e-9))
    last = t_end - n_full * dt
    if last < 1e-12 * dt:
        last = 0.0
    return n_full, last


def _rhs(t, psi, j_coupling, amps, freqs):
    # psi: (B, 2); amps: (B, K); freqs: (K,)
    s_t = amps @ np.cos(freqs * t)
    hpsi = -j_coupling * psi[:, ::-1] + (0.5 * s_t)[:, None] * (psi * _SZ)
    return -1j * hpsi


def _rk4_step(t, psi, dt, j_coupling, amps, freqs):
    k1 = _rhs(t, psi, j_coupling, amps, freqs)
    k2 = _rhs(t + 0.5 * dt, psi + (0.5 * dt) * k1, j_coupling, amps, freqs)
    k3 = _rhs(t + 0.5 * dt, psi + (0.5 * dt) * k2, j_coupling, amps, freqs)
    k4 = _rhs(t + dt, psi + dt * k3, j_coupling, amps, freqs)
    return psi + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _evolve(psi, t_end, dt, j_coupling, amps, freqs):
    """Yield (t, psi) at t = 0, dt, 2 dt, ... and t_end for a (B, 2) batch of states."""
    n_full, last = _step_plan(t_end, dt)
    yield 0.0, psi
    for k in range(n_full + (last > 0.0)):
        psi = _rk4_step(k * dt, psi, dt if k < n_full else last, j_coupling, amps, freqs)
        yield (k + 1) * dt if k < n_full else t_end, psi


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
    amps, freqs, psi, dt = _batch(drive.amplitudes, drive.frequencies, psi0, dt)
    n_full, last = _step_plan(t_end, dt)
    n_steps = n_full + 1 + (last > 0.0)
    times = np.empty(-(-n_steps // stride))
    states = np.empty(times.shape + psi.shape, dtype=complex)
    recent = np.empty((min(n_steps, _DRIFT_BLOCK),) + psi.shape, dtype=complex)
    drift = 0.0
    for k, (t, psi) in enumerate(_evolve(psi, t_end, dt, drive.j_coupling, amps, freqs)):
        if k % stride == 0:
            times[k // stride] = t
            states[k // stride] = psi
        i = k % len(recent)
        recent[i] = psi
        if i == len(recent) - 1 or k == n_steps - 1:
            drift = max(drift, _norm_drift(recent[: i + 1]))
    if np.ndim(psi0) == 1 and np.ndim(drive.amplitudes) == 1:
        states = states[:, 0]
    p_left = np.abs(states[..., 0]) ** 2
    return Trajectory(times=times, states=states, p_left=p_left, max_norm_drift=drift)


def min_left_population_grid(
    j_coupling: float,
    amplitude_pairs: np.ndarray,
    frequencies,
    psi0: np.ndarray,
    n_periods: int,
    dt: float | None = None,
) -> np.ndarray:
    """Batched min_t P_L over a list of amplitude rows (one per grid point).

    Runs n_periods periods of the first tone on the same steps as
    propagate(), keeping a running minimum instead of the trajectories.
    Element k equals the per-point result to roundoff.
    """
    amps, freqs, psi, dt = _batch(np.atleast_2d(amplitude_pairs), frequencies, psi0, dt)
    if n_periods < 1:
        raise ValueError("n_periods must be >= 1")
    steps = _evolve(psi, n_periods * 2.0 * math.pi / freqs[0], dt, j_coupling, amps, freqs)
    p_min = np.abs(next(steps)[1][:, 0]) ** 2
    for _, psi in steps:
        np.minimum(p_min, np.abs(psi[:, 0]) ** 2, out=p_min)
    return p_min


def monodromy_quasienergies_sweep(
    j_coupling: float, amplitudes: np.ndarray, omega: float, dt: float | None = None
) -> np.ndarray:
    """Folded quasienergy pairs for a family of monochromatic amplitudes.

    U(T) is integrated with the same RK4 stepper as propagate(); its
    unitarity is checked to 1e-8 and an AccuracyError flags a too-coarse dt.
    Eigenphases fold into [-omega/2, omega/2); returns an (n, 2) array with
    rows sorted ascending.  Row k does not depend on the other amplitudes.
    """
    amps = np.asarray(amplitudes, dtype=float)
    if amps.ndim != 1:
        raise ValueError("the sweep takes one amplitude per point (one tone)")
    # the two basis columns of U evolve as independent rows of the batch
    basis = np.tile(np.eye(2, dtype=complex), (amps.size, 1))
    rows, freqs, psi, dt = _batch(np.repeat(amps, 2)[:, None], (omega,), basis, dt)
    period = 2.0 * math.pi / omega
    for _, psi in _evolve(psi, period, dt, j_coupling, rows, freqs):
        pass
    # stacked rows are U^T blocks: undo the transpose
    u = psi.reshape(amps.size, 2, 2).transpose(0, 2, 1)
    defect = np.abs(u.conj().transpose(0, 2, 1) @ u - np.eye(2)).max()
    if defect > 1e-8:
        raise AccuracyError(f"monodromy propagator non-unitary at {defect:.2e}; reduce dt")
    eps = fold_quasienergy(-np.angle(np.linalg.eigvals(u)) / period, omega)
    return np.sort(eps, axis=1)


def quasienergy_gap(pair, omega: float) -> float:
    """Distance between two folded quasienergies on the circle of size omega."""
    raw = abs(float(pair[1]) - float(pair[0]))
    return float(min(raw, omega - raw))
