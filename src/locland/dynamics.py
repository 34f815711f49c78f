"""Time-domain ground truth for the driven two-level system.

Fixed-step 4th-order Runge-Kutta integration of
i d/dt psi = [-J sigma_x + s(t) sigma_z / 2] psi with
s(t) = sum_i A_i cos(w_i t).  The state norm is never renormalized; its
drift is the accuracy diagnostic.  Batched variants propagate a whole
amplitude grid in one pass, which is what keeps the bichromatic maps cheap.
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


@dataclass(frozen=True)
class DriveSignal:
    """Two-level model parameters: bias s(t) = sum_i amplitudes[i] cos(frequencies[i] t)."""

    j_coupling: float
    amplitudes: tuple
    frequencies: tuple

    def __post_init__(self):
        if len(self.amplitudes) != len(self.frequencies) or not self.frequencies:
            raise ValueError("amplitudes and frequencies must have equal nonzero length")
        if any(w <= 0.0 for w in self.frequencies):
            raise ValueError("drive frequencies must be positive")


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Stored time evolution: unit states and the left-site population."""

    times: np.ndarray
    states: np.ndarray  # (n_times, 2)
    p_left: np.ndarray  # |<L|psi(t)>|^2

    @property
    def max_norm_drift(self) -> float:
        return float(np.abs(np.linalg.norm(self.states, axis=1) - 1.0).max())


def default_time_step(drive: DriveSignal) -> float:
    """Shortest drive period divided by STEPS_PER_PERIOD."""
    return 2.0 * math.pi / max(drive.frequencies) / STEPS_PER_PERIOD


def _check_time_step(dt: float, frequencies) -> None:
    limit = 2.0 * math.pi / max(frequencies) / 200.0
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if dt > limit * (1.0 + 1e-12):
        raise ValueError(f"dt={dt} too coarse; need dt <= (shortest period)/200 = {limit:.3e}")


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
    # psi: (B, 2); amps: (B, K) or (K,); freqs: (K,)
    s_t = amps @ np.cos(freqs * t)
    hpsi = -j_coupling * psi[:, ::-1] + (0.5 * np.atleast_1d(s_t))[:, None] * (psi * _SZ)
    return -1j * hpsi


def _rk4_step(t, psi, dt, j_coupling, amps, freqs):
    k1 = _rhs(t, psi, j_coupling, amps, freqs)
    k2 = _rhs(t + 0.5 * dt, psi + (0.5 * dt) * k1, j_coupling, amps, freqs)
    k3 = _rhs(t + 0.5 * dt, psi + (0.5 * dt) * k2, j_coupling, amps, freqs)
    k4 = _rhs(t + dt, psi + dt * k3, j_coupling, amps, freqs)
    return psi + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def propagate(drive: DriveSignal, psi0: np.ndarray, t_end: float, dt: float | None = None) -> Trajectory:
    """Integrate the driven two-level Schrodinger equation and store every step.

    The state is never renormalized, so Trajectory.max_norm_drift directly
    measures the integration error.  Halving dt changes the final state at
    the 4th-order rate (see the step-halving contract in the tests).
    """
    freqs = np.asarray(drive.frequencies, dtype=float)
    if dt is None:
        dt = default_time_step(drive)
    _check_time_step(dt, drive.frequencies)
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != (2,):
        raise ValueError("psi0 must be a 2-vector")
    if abs(np.linalg.norm(psi0) - 1.0) > 1e-8:
        raise NormalizationError("psi0 must be normalized to 1e-8")
    amps = np.asarray(drive.amplitudes, dtype=float)
    n_full, last = _step_plan(t_end, dt)
    n_times = n_full + 1 + (1 if last else 0)
    times = np.empty(n_times)
    states = np.empty((n_times, 2), dtype=complex)
    psi = psi0[None, :].copy()
    times[0] = 0.0
    states[0] = psi[0]
    for k in range(n_full):
        psi = _rk4_step(k * dt, psi, dt, drive.j_coupling, amps, freqs)
        times[k + 1] = (k + 1) * dt
        states[k + 1] = psi[0]
    if last:
        psi = _rk4_step(n_full * dt, psi, last, drive.j_coupling, amps, freqs)
        times[-1] = t_end
        states[-1] = psi[0]
    return Trajectory(times=times, states=states, p_left=np.abs(states[:, 0]) ** 2)


def min_left_population_grid(
    j_coupling: float,
    amplitude_pairs: np.ndarray,
    frequencies,
    psi0: np.ndarray,
    n_periods: int,
    dt: float | None = None,
) -> np.ndarray:
    """Batched min_t P_L over a list of (A, B) amplitude pairs.

    Propagates every grid point simultaneously with the same step sequence
    as propagate(), tracking the running minimum instead of the full
    trajectories.  Element k equals the per-point result to roundoff.
    """
    amps = np.atleast_2d(np.asarray(amplitude_pairs, dtype=float))
    freqs = np.asarray(frequencies, dtype=float)
    if amps.shape[1] != freqs.size:
        raise ValueError("amplitude pairs and frequencies disagree on tone count")
    probe = DriveSignal(j_coupling, tuple(amps[0]), tuple(freqs))
    if dt is None:
        dt = default_time_step(probe)
    _check_time_step(dt, freqs)
    if n_periods < 1:
        raise ValueError("n_periods must be >= 1")
    psi0 = np.asarray(psi0, dtype=complex)
    if abs(np.linalg.norm(psi0) - 1.0) > 1e-8:
        raise NormalizationError("psi0 must be normalized to 1e-8")
    t_end = n_periods * 2.0 * math.pi / freqs[0]
    n_full, last = _step_plan(t_end, dt)
    psi = np.tile(psi0, (amps.shape[0], 1))
    p_min = np.abs(psi[:, 0]) ** 2
    for k in range(n_full):
        psi = _rk4_step(k * dt, psi, dt, j_coupling, amps, freqs)
        np.minimum(p_min, np.abs(psi[:, 0]) ** 2, out=p_min)
    if last:
        psi = _rk4_step(n_full * dt, psi, last, j_coupling, amps, freqs)
        np.minimum(p_min, np.abs(psi[:, 0]) ** 2, out=p_min)
    return p_min


def _propagate_monodromy(j_coupling, amps, freqs, dt):
    """One-period propagators for a batch of monochromatic amplitudes."""
    omega = float(freqs[0])
    period = 2.0 * math.pi / omega
    n_full, last = _step_plan(period, dt)
    n_batch = amps.shape[0]
    # rows are states; basis columns of U evolve as independent states
    psi = np.tile(np.eye(2, dtype=complex), (n_batch, 1))
    amps_rows = np.repeat(amps, 2, axis=0)
    for k in range(n_full):
        psi = _rk4_step(k * dt, psi, dt, j_coupling, amps_rows, freqs)
    if last:
        psi = _rk4_step(n_full * dt, psi, last, j_coupling, amps_rows, freqs)
    # stacked rows are U^T blocks: undo the transpose
    return psi.reshape(n_batch, 2, 2).transpose(0, 2, 1)


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
    freqs = np.array([float(omega)])
    if dt is None:
        dt = 2.0 * math.pi / omega / STEPS_PER_PERIOD
    _check_time_step(dt, freqs)
    u = _propagate_monodromy(j_coupling, amps[:, None], freqs, dt)
    defect = np.abs(u.conj().transpose(0, 2, 1) @ u - np.eye(2)).max()
    if defect > 1e-8:
        raise AccuracyError(f"monodromy propagator non-unitary at {defect:.2e}; reduce dt")
    period = 2.0 * math.pi / omega
    eps = fold_quasienergy(-np.angle(np.linalg.eigvals(u)) / period, omega)
    return np.sort(eps, axis=1)


def quasienergy_gap(pair, omega: float) -> float:
    """Distance between two folded quasienergies on the circle of size omega."""
    raw = abs(float(pair[1]) - float(pair[0]))
    return float(min(raw, omega - raw))
