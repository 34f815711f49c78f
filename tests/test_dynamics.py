import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locland import (
    AccuracyError,
    DriveSignal,
    NormalizationError,
    build_sambe_mono,
    fold_quasienergy,
    min_left_population_grid,
    monodromy_quasienergies_sweep,
    propagate,
    quasienergy_gap,
    two_level_drive_mono,
    two_level_static,
)
from locland import dynamics

from oracles import j0_zero_bisection, rk4_trajectory_oracle

LEFT = np.array([1.0, 0.0], dtype=complex)
PARTIAL = np.array([math.sqrt(3.0) / 2.0, 0.5], dtype=complex)


def min_left_population(drive, psi0, n_periods, dt=None):
    """One-row call of the batched grid."""
    grid, _ = min_left_population_grid(
        drive.j_coupling, [drive.amplitudes], drive.frequencies, psi0, n_periods, dt
    )
    return grid[0]


def monodromy_quasienergies(amplitude, omega, dt=None):
    """One-row call of the batched sweep, J = 1."""
    return monodromy_quasienergies_sweep(1.0, [amplitude], omega, dt)[0]


class TestDriveSignal:
    def test_validation(self):
        with pytest.raises(ValueError):
            DriveSignal(1.0, (1.0,), (0.0,))
        with pytest.raises(ValueError):
            DriveSignal(1.0, (1.0, 2.0), (1.0,))
        with pytest.raises(ValueError):
            DriveSignal(1.0, ((1.0, 2.0), (3.0, 4.0)), (1.0,))


class TestPropagate:
    def test_rabi_oscillation(self):
        # undriven: P_L(t) = cos^2(J t)
        drive = DriveSignal(1.0, (0.0,), (10.0,))
        traj = propagate(drive, LEFT, 20.0 * 2.0 * math.pi / 10.0)
        assert np.abs(traj.p_left - np.cos(traj.times) ** 2).max() < 1e-10

    def test_pure_bias_freezes(self):
        # J = 0: sigma_z commutes with the projector on |L>
        drive = DriveSignal(0.0, (5.0,), (10.0,))
        traj = propagate(drive, LEFT, 10.0)
        assert np.abs(traj.p_left - 1.0).max() < 1e-12

    def test_tunneling_suppression_high_frequency(self):
        # at the first root of J0 the effective coupling J J0(A/omega)
        # vanishes; deep in the high-frequency regime the left population
        # stays pinned over 100 periods
        omega = 40.0
        a_star = j0_zero_bisection(2.0, 3.0) * omega
        drive = DriveSignal(1.0, (a_star,), (omega,))
        period = 2.0 * math.pi / omega
        value = min_left_population(drive, LEFT, 100, dt=period / 250.0)
        assert value >= 0.9

    def test_norm_drift_small(self):
        drive = DriveSignal(1.0, (24.0,), (10.0,))
        traj = propagate(drive, LEFT, 100.0 * 2.0 * math.pi / 10.0)
        assert traj.max_norm_drift <= 1e-7

    def test_time_step_precondition(self):
        drive = DriveSignal(1.0, (1.0,), (10.0,))
        with pytest.raises(ValueError):
            propagate(drive, LEFT, 1.0, dt=2.0 * math.pi / 10.0 / 100.0)

    def test_state_validation(self):
        drive = DriveSignal(1.0, (1.0,), (10.0,))
        with pytest.raises(NormalizationError):
            propagate(drive, np.array([1.0, 1.0]), 1.0)
        with pytest.raises(ValueError):
            propagate(drive, np.array([1.0, 0.0, 0.0]), 1.0)

    def test_step_halving_fourth_order(self):
        drive = DriveSignal(1.0, (15.0,), (10.0,))
        period = 2.0 * math.pi / 10.0
        t_end = 5.0 * period
        base = period / 200.0
        reference = propagate(drive, LEFT, t_end, base / 8.0).states[-1]
        err_full = np.linalg.norm(propagate(drive, LEFT, t_end, base).states[-1] - reference)
        err_half = np.linalg.norm(propagate(drive, LEFT, t_end, base / 2.0).states[-1] - reference)
        assert 12.0 <= err_full / err_half <= 20.0

    def test_batch_matches_one_row_calls(self):
        freqs = (10.0, 10.0 * math.sqrt(2.0))
        amps = [(24.0, 8.0), (0.0, 50.0), (13.0, 77.0)]
        starts = [LEFT, PARTIAL, PARTIAL]
        t_end = 3 * 2.0 * math.pi / freqs[0]
        batch = propagate(DriveSignal(1.0, tuple(amps), freqs), np.array(starts), t_end)
        assert batch.states.shape == (batch.times.size, 3, 2)
        assert batch.p_left.shape == (batch.times.size, 3)
        for k in range(3):
            single = propagate(DriveSignal(1.0, amps[k], freqs), starts[k], t_end)
            assert single.states.shape == (single.times.size, 2)
            assert np.array_equal(single.times, batch.times)
            assert np.abs(batch.states[:, k] - single.states).max() <= 1e-13
            assert np.abs(batch.p_left[:, k] - single.p_left).max() <= 1e-13

    def test_one_amplitude_row_broadcasts_over_states(self):
        drive = DriveSignal(1.0, (24.0,), (10.0,))
        batch = propagate(drive, np.array([LEFT, PARTIAL]), 1.0)
        for k, psi0 in enumerate((LEFT, PARTIAL)):
            assert np.abs(batch.states[:, k] - propagate(drive, psi0, 1.0).states).max() <= 1e-13

    @pytest.mark.parametrize("stride", [1, 7, 100, 5000])
    def test_stride_keeps_every_stride_th_step(self, stride):
        # 2,501 steps span three step-map blocks; at the coarsest allowed dt
        # the drift grows with time, so its maximum sits in the last, partial block
        drive = DriveSignal(1.0, ((100.0,), (30.0,)), (10.0,))
        dt = 2.0 * math.pi / 10.0 / 200.0
        t_end = 2500.5 * dt
        full = propagate(drive, np.array([LEFT, PARTIAL]), t_end, dt)
        kept = propagate(drive, np.array([LEFT, PARTIAL]), t_end, dt, stride=stride)
        assert full.times.size == 2502
        assert np.array_equal(kept.times, full.times[::stride])
        assert np.array_equal(kept.states, full.states[::stride])
        assert np.array_equal(kept.p_left, full.p_left[::stride])
        drift = np.abs(np.linalg.norm(full.states, axis=-1) - 1.0).max()
        assert kept.max_norm_drift == full.max_norm_drift == drift

    @pytest.mark.parametrize("stride", [3, 1000])
    def test_stride_rows_across_block_boundaries_match_oracle(self, stride):
        amps, freqs = np.array([[24.0], [7.0]]), np.array([10.0])
        psi0 = np.array([LEFT, PARTIAL])
        dt = 2.0 * math.pi / 10.0 / 400.0
        t_end = (2 * dynamics._block_steps(2) + 5.5) * dt
        kept = propagate(DriveSignal(1.0, tuple(map(tuple, amps)), (10.0,)), psi0, t_end, dt, stride=stride)
        n_full, last = dynamics._step_plan(t_end, dt)
        expected = rk4_trajectory_oracle(psi0, n_full, last, dt, 1.0, amps, freqs)
        times = np.append(np.arange(n_full + 1) * dt, t_end)
        assert np.array_equal(kept.times, times[::stride])
        assert kept.states.shape == expected[::stride].shape
        assert np.abs(kept.states - expected[::stride]).max() <= 1e-13

    def test_stride_validation(self):
        with pytest.raises(ValueError):
            propagate(DriveSignal(1.0, (1.0,), (10.0,)), LEFT, 1.0, stride=0)

    def test_batch_row_count_mismatch(self):
        drive = DriveSignal(1.0, ((1.0,), (2.0,), (3.0,)), (10.0,))
        with pytest.raises(ValueError):
            propagate(drive, np.array([LEFT, PARTIAL]), 1.0)


class TestStepMaps:
    """_evolve's blocked 2x2 step maps against the classic k1 ... k4 RK4 oracle."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_blocks_match_rk4_oracle(self, data):
        tones = data.draw(st.integers(1, 2), label="tones")
        rows = data.draw(st.integers(1, 64), label="rows")
        j_coupling = data.draw(st.floats(-3.0, 3.0), label="j_coupling")
        freqs = np.array(
            data.draw(st.lists(st.floats(1.0, 20.0), min_size=tones, max_size=tones), label="freqs")
        )
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        amps = rng.uniform(-12.0, 12.0, (rows, tones)) * freqs.min()
        psi0 = rng.normal(size=(rows, 2)) + 1j * rng.normal(size=(rows, 2))
        psi0 /= np.linalg.norm(psi0, axis=1, keepdims=True)
        dt = 2.0 * math.pi / freqs.max() / data.draw(st.integers(200, 400), label="steps_per_period")
        # step counts on both sides of one and two block lengths, with and
        # without a final partial step
        block = dynamics._block_steps(rows)
        n_full = data.draw(st.sampled_from([block - 1, block, block + 1, 2 * block + 3]), label="n")
        t_end = (n_full + data.draw(st.sampled_from([0.0, 0.25, 0.999]), label="last")) * dt
        blocks = list(dynamics._evolve(psi0, t_end, dt, j_coupling, amps, freqs))
        plan = dynamics._step_plan(t_end, dt)
        expected = rk4_trajectory_oracle(psi0, *plan, dt, j_coupling, amps, freqs)
        assert [len(t) for t, _ in blocks[1:-1]] == [block] * (len(blocks) - 2)
        states = np.concatenate([s for _, s in blocks])
        assert states.shape == expected.shape
        assert np.concatenate([t for t, _ in blocks])[-1] == t_end
        assert np.abs(states - expected).max() <= 1e-13

    def test_constant_drive_rounding_does_not_accumulate(self):
        # the same map on 20,000 steps: rounding 1 + r once per step would
        # drift from the oracle by about 1e-12
        psi0 = np.array([LEFT, PARTIAL])
        amps, freqs = np.zeros((2, 1)), np.array([10.0])
        dt = 2.0 * math.pi / 10.0 / 2000.0
        blocks = dynamics._evolve(psi0, 20000 * dt, dt, 1.0, amps, freqs)
        states = np.concatenate([s for _, s in blocks])
        expected = rk4_trajectory_oracle(psi0, 20000, 0.0, dt, 1.0, amps, freqs)
        assert np.abs(states - expected).max() <= 1e-13


class TestMinLeftPopulation:
    def test_full_transfer_undriven(self):
        drive = DriveSignal(1.0, (0.0,), (10.0,))
        # 5 drive periods pass t = pi/2 where P_L first reaches zero
        assert min_left_population(drive, LEFT, 5) == pytest.approx(0.0, abs=1e-9)

    def test_zero_coupling(self):
        drive = DriveSignal(0.0, (3.0,), (10.0,))
        assert min_left_population(drive, LEFT, 3) == pytest.approx(1.0, abs=1e-12)

    def test_partial_initial_state(self):
        drive = DriveSignal(1.0, (7.0,), (10.0,))
        value = min_left_population(drive, PARTIAL, 20)
        assert abs(np.linalg.norm(PARTIAL) - 1.0) < 1e-12
        assert value <= 0.75 + 1e-12  # starts at P_L = 3/4

    def test_period_count_validation(self):
        with pytest.raises(ValueError):
            min_left_population(DriveSignal(1.0, (1.0,), (1.0,)), LEFT, 0)


class TestMinLeftPopulationGrid:
    def test_matches_pointwise(self):
        freqs = (10.0, 10.0 * math.sqrt(2.0))
        pairs = np.array([[24.0, 8.0], [0.0, 50.0], [13.0, 77.0], [55.0, 0.0]])
        grid, _ = min_left_population_grid(1.0, pairs, freqs, LEFT, 7)
        for k, (a, b) in enumerate(pairs):
            traj = propagate(DriveSignal(1.0, (a, b), freqs), LEFT, 7 * 2.0 * math.pi / freqs[0])
            assert grid[k] == pytest.approx(traj.p_left.min(), abs=1e-12)

    def test_drift_covers_every_row(self):
        freqs = (10.0, 10.0 * math.sqrt(2.0))
        pairs = np.array([[24.0, 8.0], [0.0, 50.0], [130.0, 77.0]])
        _, drift = min_left_population_grid(1.0, pairs, freqs, LEFT, 3)
        t_end = 3 * 2.0 * math.pi / freqs[0]
        rows = [propagate(DriveSignal(1.0, tuple(p), freqs), LEFT, t_end) for p in pairs]
        assert drift == pytest.approx(max(row.max_norm_drift for row in rows), rel=1e-6)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            min_left_population_grid(1.0, np.zeros((3, 1)), (1.0, 2.0), LEFT, 1)


class TestMonodromy:
    def test_static_limit(self):
        eps = monodromy_quasienergies(0.0, 10.0)
        assert eps[0] == pytest.approx(fold_quasienergy(-1.0, 10.0), abs=1e-10)
        assert eps[1] == pytest.approx(fold_quasienergy(1.0, 10.0), abs=1e-10)

    def test_gap_nearly_closes_at_suppression_point(self):
        omega = 10.0
        a_star = j0_zero_bisection(2.0, 3.0) * omega
        eps = monodromy_quasienergies(a_star, omega)
        assert quasienergy_gap(eps, omega) <= 0.02

    def test_requires_monochromatic(self):
        with pytest.raises(ValueError):
            monodromy_quasienergies_sweep(1.0, np.ones((3, 2)), 1.0)

    def test_accuracy_error_on_coarse_step(self):
        omega = 10.0
        with pytest.raises(AccuracyError):
            monodromy_quasienergies(400.0, omega, dt=2.0 * math.pi / omega / 200.0)

    def test_sweep_matches_scalar(self):
        omega = 10.0
        amps = np.array([0.0, 11.0, 24.0, 60.0])
        sweep, defect = monodromy_quasienergies_sweep(1.0, amps, omega, with_defect=True)
        assert 0.0 < defect <= 1e-8
        for k, amp in enumerate(amps):
            single = monodromy_quasienergies(amp, omega)
            assert np.abs(sweep[k] - single).max() < 1e-12

    def test_matches_extended_space_spectrum_moderate_drive(self):
        # at A / omega = 2 the truncated extended-space operator at M = 6 is
        # converged well past the integrator error
        omega = 10.0
        amp = 2.0 * omega
        eps = monodromy_quasienergies(amp, omega)
        lifted = build_sambe_mono(two_level_static(1.0), two_level_drive_mono(amp), omega, 6)
        sambe_min = np.abs(np.linalg.eigvalsh(lifted.matrix.entries)).min()
        assert min(abs(eps[0]), abs(eps[1])) == pytest.approx(sambe_min, abs=1e-6)


class TestBlowUp:
    """RK4 at J dt = 31 overflows to NaN within 200 steps; every gate must see it."""

    OMEGA = 1e-3
    PERIOD = 2.0 * math.pi / OMEGA

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_batch_drift_is_not_finite(self):
        dt = self.PERIOD / 200
        traj = propagate(DriveSignal(1.0, (0.0,), (self.OMEGA,)), LEFT, self.PERIOD, dt=dt)
        assert not np.isfinite(traj.states[-1]).all()
        assert not math.isfinite(traj.max_norm_drift)
        _, drift = min_left_population_grid(1.0, [[0.0]], (self.OMEGA,), LEFT, 1, dt)
        assert not math.isfinite(drift)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_sweep_raises_accuracy_error(self):
        with pytest.raises(AccuracyError, match="non-unitary"):
            monodromy_quasienergies_sweep(1.0, [0.0], self.OMEGA, self.PERIOD / 200)


class TestQuasienergyGap:
    def test_plain_distance(self):
        assert quasienergy_gap((-0.2, 0.3), 10.0) == pytest.approx(0.5)

    def test_wraps_around_zone_edge(self):
        assert quasienergy_gap((-4.9, 4.9), 10.0) == pytest.approx(0.2)
