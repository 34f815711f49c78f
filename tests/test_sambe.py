import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locland import (
    DimensionError,
    FourierDrive,
    Operator,
    SambeIndexMap,
    build_sambe,
    build_sambe_duo,
    build_sambe_mono,
    two_level_drive_duo,
    two_level_drive_mono,
    two_level_static,
)

from oracles import sambe_entry_oracle

SZ = np.diag([1.0 + 0.0j, -1.0 + 0.0j])


class TestIndexMap:
    def test_flat_dim_mono(self):
        # d = N (2M + 1)
        index_map = SambeIndexMap(base_dim=7, truncations=(3,))
        assert index_map.flat_dim == 7 * 7

    def test_flat_dim_duo(self):
        index_map = SambeIndexMap(base_dim=2, truncations=(2, 3))
        assert index_map.flat_dim == 2 * 5 * 7

    def test_bijection_mono(self):
        index_map = SambeIndexMap(base_dim=3, truncations=(2,))
        table = index_map.harmonics
        assert table.tolist() == [[m] for m in range(-2, 3)]
        assert np.array_equal(index_map.sectors(table), np.arange(5))

    def test_bijection_duo_site_fastest(self):
        index_map = SambeIndexMap(base_dim=2, truncations=(1, 2))
        table = index_map.harmonics
        assert table.shape == (15, 2)
        for m2 in range(-2, 3):
            for m1 in range(-1, 2):
                sector = (m2 + 2) * 3 + (m1 + 1)
                assert tuple(table[sector]) == (m1, m2)
                assert index_map.sectors([m1, m2]) == sector
        assert np.array_equal(index_map.sectors(table), np.arange(15))

    def test_out_of_range(self):
        index_map = SambeIndexMap(base_dim=2, truncations=(1,))
        with pytest.raises(ValueError):
            index_map.sectors([[2]])
        with pytest.raises(ValueError):
            index_map.sectors([[-2]])
        with pytest.raises(ValueError):
            SambeIndexMap(base_dim=2, truncations=(1, -1))
        with pytest.raises(ValueError):
            index_map.sectors([[0, 0]])


class TestBuildMono:
    def test_replica_ladder_single_site(self):
        eps0 = 0.37
        h0 = Operator([[eps0]])
        drive = FourierDrive(blocks={}, base_dim=1)
        lifted = build_sambe_mono(h0, drive, 1.0, 1)
        assert np.allclose(lifted.matrix.entries, np.diag([eps0 - 1.0, eps0, eps0 + 1.0]))

    def test_undriven_two_level_spectrum(self):
        lifted = build_sambe_mono(two_level_static(1.0), two_level_drive_mono(0.0), 3.0, 2)
        eigs = np.sort(np.linalg.eigvalsh(lifted.matrix.entries))
        expected = np.sort([s + m * 3.0 for s in (-1.0, 1.0) for m in range(-2, 3)])
        assert np.abs(eigs - expected).max() < 1e-10

    def test_hand_assembled_m1(self):
        j_coupling, amp, omega = 1.0, 3.2, 10.0
        lifted = build_sambe_mono(
            two_level_static(j_coupling), two_level_drive_mono(amp), omega, 1
        )
        h0 = np.array([[0, -j_coupling], [-j_coupling, 0]], dtype=complex)
        block = 0.25 * amp * SZ
        zero = np.zeros((2, 2))
        expected = np.block(
            [
                [h0 - omega * np.eye(2), block, zero],
                [block, h0, block],
                [zero, block, h0 + omega * np.eye(2)],
            ]
        )
        assert np.array_equal(lifted.matrix.entries, expected)

    def test_hermitian_for_cosine_drives(self):
        lifted = build_sambe_mono(two_level_static(1.0), two_level_drive_mono(7.7), 10.0, 4)
        m = lifted.matrix.entries
        assert np.abs(m - m.conj().T).max() == 0.0

    def test_out_of_window_harmonics_truncated_with_note(self):
        far_block = Operator(0.5 * SZ)
        drive = FourierDrive(blocks={5: far_block, -5: far_block}, base_dim=2)
        lifted = build_sambe_mono(two_level_static(1.0), drive, 10.0, 1)
        reference = build_sambe_mono(
            two_level_static(1.0), FourierDrive(blocks={}, base_dim=2), 10.0, 1
        )
        assert np.array_equal(lifted.matrix.entries, reference.matrix.entries)
        assert "truncated" in lifted.matrix.label

    def test_validation(self):
        with pytest.raises(ValueError):
            build_sambe_mono(two_level_static(1.0), two_level_drive_mono(1.0), -1.0, 2)
        with pytest.raises(ValueError):
            build_sambe_mono(two_level_static(1.0), two_level_drive_mono(1.0), 1.0, -1)
        with pytest.raises(DimensionError):
            build_sambe_mono(Operator(np.eye(3)), two_level_drive_mono(1.0), 1.0, 2)

    def test_truncation_convergence_of_central_quasienergy(self):
        # central eigenvalue is truncation-stable at moderate drive
        vals = {}
        for truncation in (6, 8):
            lifted = build_sambe_mono(
                two_level_static(1.0), two_level_drive_mono(10.0), 10.0, truncation
            )
            vals[truncation] = np.abs(np.linalg.eigvalsh(lifted.matrix.entries)).min()
        assert abs(vals[6] - vals[8]) < 1e-10


class TestBuildDuo:
    def test_reduces_to_mono_without_second_tone(self):
        # B = 0 with no second harmonic sector is the monochromatic matrix,
        # index for index
        mono = build_sambe_mono(two_level_static(1.0), two_level_drive_mono(8.0), 10.0, 4)
        duo = build_sambe_duo(
            two_level_static(1.0), two_level_drive_duo(8.0, 0.0), 10.0, 14.14, 4, 0
        )
        assert np.array_equal(duo.matrix.entries, mono.matrix.entries)

    def test_pure_shift_spectrum(self):
        h0 = Operator([[0.0]])
        drive = FourierDrive(blocks={}, base_dim=1)
        lifted = build_sambe_duo(h0, drive, 1.0, math.sqrt(2.0), 1, 1)
        eigs = np.sort(np.linalg.eigvalsh(lifted.matrix.entries))
        expected = np.sort(
            [m1 * 1.0 + m2 * math.sqrt(2.0) for m1 in (-1, 0, 1) for m2 in (-1, 0, 1)]
        )
        assert np.abs(eigs - expected).max() < 1e-12

    def test_incommensurate_shifts_distinct(self):
        omega1 = 1.0
        omega2 = math.sqrt(2.0)
        shifts = sorted(
            m1 * omega1 + m2 * omega2
            for m1, m2 in itertools.product(range(-3, 4), repeat=2)
        )
        assert min(np.diff(shifts)) > 1e-3

    def test_coupling_block_placement(self):
        lifted = build_sambe_duo(
            two_level_static(1.0), two_level_drive_duo(4.0, 8.0), 10.0, 14.0, 1, 1
        )
        index_map = lifted.index_map

        def sector(m1, m2):
            return (m2 + 1) * 3 + (m1 + 1)

        m = lifted.matrix.entries
        r = 2 * sector(1, 0)
        c = 2 * sector(0, 0)
        assert np.array_equal(m[r : r + 2, c : c + 2], SZ)  # (A/4) sz with A = 4
        r = 2 * sector(0, 1)
        assert np.array_equal(m[r : r + 2, c : c + 2], 2.0 * SZ)  # (B/4) sz with B = 8
        # no direct (m1, m2) -> (m1 - 1, m2 - 1) coupling for two cosine tones
        r = 2 * sector(1, 1)
        assert np.abs(m[r : r + 2, c : c + 2]).max() == 0.0
        assert index_map.flat_dim == 2 * 3 * 3
        assert np.abs(m - m.conj().T).max() == 0.0  # cosine drives stay Hermitian


class TestWeightProfile:
    def test_basis_vector(self):
        index_map = SambeIndexMap(base_dim=5, truncations=(2,))
        vec = np.zeros(index_map.flat_dim, dtype=complex)
        vec[index_map.sectors([0]) * 5 + 2] = 1.0
        profile = index_map.site_sum(np.abs(vec) ** 2)
        assert np.array_equal(profile, np.eye(5)[2])

    def test_uniform_vector(self):
        index_map = SambeIndexMap(base_dim=4, truncations=(1,))
        vec = np.full(index_map.flat_dim, 0.5 + 0.0j)
        profile = index_map.site_sum(np.abs(vec) ** 2)
        norm_sq = np.linalg.norm(vec) ** 2
        assert np.allclose(profile, 3.0 / index_map.flat_dim * norm_sq)

    def test_total_mass(self, rng):
        index_map = SambeIndexMap(base_dim=6, truncations=(2, 1))
        vec = rng.normal(size=index_map.flat_dim) + 1j * rng.normal(size=index_map.flat_dim)
        profile = index_map.site_sum(np.abs(vec) ** 2)
        assert abs(profile.sum() - np.linalg.norm(vec) ** 2) < 1e-12 * np.linalg.norm(vec) ** 2

    def test_length_mismatch(self):
        index_map = SambeIndexMap(base_dim=2, truncations=(1,))
        with pytest.raises(DimensionError):
            index_map.site_sum(np.zeros(5))


class TestBuildSambe:
    def test_rejects_keys_with_wrong_tone_count(self):
        with pytest.raises(DimensionError):
            build_sambe_mono(two_level_static(1.0), two_level_drive_duo(4.0, 8.0), 10.0, 1)
        with pytest.raises(DimensionError):
            build_sambe_duo(two_level_static(1.0), two_level_drive_mono(4.0), 10.0, 14.0, 1, 1)
        with pytest.raises(DimensionError):
            build_sambe(two_level_static(1.0), two_level_drive_mono(4.0), (10.0,), (1, 1))

    def test_three_tone_pure_shift_spectrum(self):
        omegas = (1.0, math.sqrt(2.0), math.sqrt(5.0))
        lifted = build_sambe(Operator([[0.0]]), FourierDrive(blocks={}, base_dim=1), omegas, (1, 2, 1))
        eigs = np.sort(np.linalg.eigvalsh(lifted.matrix.entries))
        expected = np.sort(
            [
                m1 * omegas[0] + m2 * omegas[1] + m3 * omegas[2]
                for m1 in range(-1, 2)
                for m2 in range(-2, 3)
                for m3 in range(-1, 2)
            ]
        )
        assert lifted.index_map.flat_dim == 45
        assert np.abs(eigs - expected).max() < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_entry_oracle(self, data):
        tones = data.draw(st.integers(1, 3), label="tones")
        truncations = tuple(data.draw(st.lists(st.integers(0, 3), min_size=tones, max_size=tones)))
        omegas = tuple(
            data.draw(st.lists(st.floats(0.1, 10.0), min_size=tones, max_size=tones), label="omegas")
        )
        n = data.draw(st.integers(1, 3), label="n")
        # keys reach one step past the coupling window 2M so some are dropped
        key = st.tuples(*[st.integers(-2 * m - 1, 2 * m + 1) for m in truncations])
        keys = data.draw(st.lists(key, max_size=4, unique=True), label="keys")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))

        def random_matrix():
            return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))

        h0 = random_matrix()
        blocks = {k[0] if tones == 1 else k: random_matrix() for k in keys}
        drive = FourierDrive(blocks={k: Operator(b) for k, b in blocks.items()}, base_dim=n)
        lifted = build_sambe(Operator(h0), drive, omegas, truncations)
        expected = sambe_entry_oracle(h0, blocks, omegas, truncations)
        assert np.array_equal(lifted.matrix.entries, expected)
