import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locland import (
    DimensionError,
    Operator,
    SambeIndexMap,
    SshConfig,
    aah_drive,
    aah_static,
    bbh,
    build_sambe,
    build_sambe_duo,
    build_sambe_mono,
    factorize,
    hatano_nelson,
    solve_landscape,
    ssh,
    two_level_drive_duo,
    two_level_drive_mono,
    two_level_static,
)
from locland.experiments import SCHEMAS, RunConfig, _bounds_model
from locland.sambe import _two_level_maps

from oracles import parity_pairing_relations_hold, sambe_entry_oracle

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
        drive = {}
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
        drive = {5: far_block, -5: far_block}
        lifted = build_sambe_mono(two_level_static(1.0), drive, 10.0, 1)
        reference = build_sambe_mono(two_level_static(1.0), {}, 10.0, 1)
        assert np.array_equal(lifted.matrix.entries, reference.matrix.entries)

    def test_validation(self):
        with pytest.raises(ValueError):
            build_sambe_mono(two_level_static(1.0), two_level_drive_mono(1.0), -1.0, 2)
        with pytest.raises(ValueError, match="positive"):
            build_sambe_mono(two_level_static(1.0), two_level_drive_mono(1.0), math.nan, 2)
        with pytest.raises(ValueError, match="positive"):
            build_sambe_mono(two_level_static(1.0), two_level_drive_mono(1.0), math.inf, 2)
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
        drive = {}
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


class TestEdgeSectorWeight:
    def test_counts_only_edges_of_truncated_tones(self):
        # the second tone has M2 = 0: its one harmonic is never an edge
        index_map = SambeIndexMap(base_dim=2, truncations=(2, 0))
        for m1, expected in ((-2, 1.0), (-1, 0.0), (0, 0.0), (2, 1.0)):
            vec = np.zeros(index_map.flat_dim)
            vec[index_map.sectors([m1, 0]) * 2 + 1] = -3.0
            assert index_map.edge_sector_weight(vec) == expected

    def test_uniform_vector(self):
        for base_dim, truncations, expected in ((3, (1,), 2 / 3), (1, (1, 1), 8 / 9), (2, (0,), 0.0)):
            index_map = SambeIndexMap(base_dim=base_dim, truncations=truncations)
            weight = index_map.edge_sector_weight(np.ones(index_map.flat_dim))
            assert weight == pytest.approx(expected, abs=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            SambeIndexMap(base_dim=2, truncations=(1,)).edge_sector_weight(np.ones(5))

    def test_falls_with_truncation_at_strong_drive(self):
        # at A / omega = 10, M = 6 leaves about 6e-2 of |v| on the edge and M = 14 about 4e-6
        weights = {}
        for m in (6, 14):
            lifted = build_sambe_mono(two_level_static(1.0), two_level_drive_mono(100.0), 10.0, m)
            res = solve_landscape(lifted.matrix)
            weights[m] = lifted.index_map.edge_sector_weight(res.amplitude)
        assert weights[6] > 100.0 * weights[14]


class TestDtypeContract:
    """Every model and every Sambe lift of real inputs is real."""

    def test_models_are_float64(self):
        ops = [
            hatano_nelson(6, 1.0, 0.5),
            aah_static(6, 1.0, 2.8, 0.618, 0.3),
            two_level_static(1.0),
            bbh(2, 2, 0.5, 1.0),
            *(ssh(SshConfig(v, 4, 0.5, 1.0)) for v in ("topological", "domain_wall")),
            ssh(SshConfig("trivial", 4, 1.0, 0.5)),
        ]
        drives = (aah_drive(6, 3.7, 0.618, 0.3), two_level_drive_mono(4.0), two_level_drive_duo(4.0, 8.0))
        for drive in drives:
            ops += list(drive.values())
        for model in ("hermitian_pd", "hn", "diag"):
            params = {key: entry.default for key, entry in SCHEMAS["bounds"].items()}
            params.update(model=model, n_sites=10, dimension=5)
            ops.append(_bounds_model(RunConfig("bounds", params, out_dir=".", seed=3)))
        for op in ops:
            assert op.entries.dtype == np.float64

    def test_lifts_of_real_inputs_are_float64(self):
        lifts = [
            build_sambe_mono(two_level_static(1.0), two_level_drive_mono(24.0), 10.0, 3),
            build_sambe_duo(two_level_static(1.0), two_level_drive_duo(24.0, 8.0), 10.0, 14.1, 2, 1),
            build_sambe_mono(aah_static(5, 1.0, 2.8, 0.618), aah_drive(5, 3.7, 0.618), 2.5, 2),
        ]
        for lifted in lifts:
            assert lifted.matrix.entries.dtype == np.float64

    def test_complex_drive_block_keeps_lift_complex(self):
        h0 = np.array([[0.3, -1.0], [-1.0, -0.2]])
        blocks = {1: np.array([[0.5, 0.25j], [0.0, -0.5]]), -1: np.array([[0.5, 0.0], [-0.25j, -0.5]])}
        drive = {k: Operator(b) for k, b in blocks.items()}
        lifted = build_sambe_mono(Operator(h0), drive, 10.0, 2)
        assert lifted.matrix.entries.dtype == np.complex128
        assert np.array_equal(lifted.matrix.entries, sambe_entry_oracle(h0, blocks, (10.0,), (2,)))


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
        lifted = build_sambe(Operator([[0.0]]), {}, omegas, (1, 2, 1))
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
        drive = {k: Operator(b) for k, b in blocks.items()}
        lifted = build_sambe(Operator(h0), drive, omegas, truncations)
        expected = sambe_entry_oracle(h0, blocks, omegas, truncations)
        assert np.array_equal(lifted.matrix.entries, expected)


class TestParityPairing:
    """Two-site lifts keep P and S exactly where their 2x2 relations hold."""

    @pytest.mark.parametrize("tones", [1, 2])
    @pytest.mark.parametrize(
        "a, b, m1, m2", [(24.0, 8.0, 2, 1), (0.0, 0.0, 0, 0), (55.0, 0.0, 3, 0), (7.5, 61.0, 4, 4)]
    )
    def test_maps_are_bitwise_symmetries(self, tones, a, b, m1, m2):
        h0 = two_level_static(1.0)
        if tones == 1:
            lifted = build_sambe_mono(h0, two_level_drive_mono(a), 10.0, m1)
        else:
            lifted = build_sambe_duo(h0, two_level_drive_duo(a, b), 10.0, 10.0 * math.sqrt(2.0), m1, m2)
        op = lifted.matrix
        parity, pairing = op.parity_pairing
        # as dense matrices, every product below is exact
        p, s, m = parity(np.eye(op.dim)), pairing(np.eye(op.dim)), op.entries
        assert np.array_equal(p @ m @ p.T, m)
        assert np.array_equal(s @ m @ s.T, -m)
        assert np.array_equal(p @ p, np.eye(op.dim))
        assert np.array_equal(s @ p, -(p @ s))

    def test_maps_in_flat_order(self):
        # sectors m = -1, 0, 1 of one tone, two sites each
        parity, pairing = _two_level_maps((1,))
        assert parity.index.tolist() == [1, 0, 3, 2, 5, 4]
        assert parity.sign.tolist() == [-1.0, -1.0, 1.0, 1.0, -1.0, -1.0]
        assert pairing.index.tolist() == [5, 4, 3, 2, 1, 0]
        assert pairing.sign.tolist() == [1.0, -1.0, 1.0, -1.0, 1.0, -1.0]

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_maps_kept_iff_two_level_relations_hold(self, data):
        tones = data.draw(st.integers(1, 2), label="tones")
        truncations = tuple(data.draw(st.integers(0, 3), label=f"truncation{i}") for i in range(tones))
        omegas = tuple(data.draw(st.floats(0.5, 5.0), label=f"omega{i}") for i in range(tones))
        # nonzero keys that couple at least one pair of retained sectors
        key = st.tuples(*[st.integers(-2 * m, 2 * m) for m in truncations]).filter(any)
        keys = data.draw(st.lists(key, max_size=4, unique=True), label="keys")
        value = st.sampled_from([-2.0, -1.0, 0.0, 0.5, 1.0])
        scale = data.draw(st.sampled_from([1.0, 1j, 0.5 - 2j]), label="scale")
        # B_k and B_(-k) share (c, d); shaped so every relation holds when
        # both are present, so missing partners and flaws are what break them
        shared = {}
        for k in keys:
            canon = max(k, tuple(-x for x in k))
            if canon not in shared:
                shared[canon] = data.draw(st.tuples(value, value), label=f"c, d of {canon}")
        blocks = {}
        for k in keys:
            canon = max(k, tuple(-x for x in k))
            (c, d), own = shared[canon], k == canon
            if sum(k) % 2:
                b = [[c, d], [-d, -c]] if own else [[c, -d], [d, -c]]
            else:
                b = [[c, d], [d, c]] if own else [[-c, d], [d, -c]]
            blocks[k] = scale * np.array(b)
        h0 = scale * data.draw(value, label="b") * np.array([[0.0, 1.0], [1.0, 0.0]])
        flaw = data.draw(st.none() | st.tuples(st.integers(0, len(keys)), st.integers(0, 1),
                                               st.integers(0, 1), value), label="flaw")
        if flaw is not None:
            which, i, j, shift = flaw
            (h0 if which == 0 else blocks[keys[which - 1]])[i, j] += shift

        drive = {k[0] if tones == 1 else k: Operator(b) for k, b in blocks.items()}
        lifted = build_sambe(Operator(h0), drive, omegas, truncations)
        kept = lifted.matrix.parity_pairing is not None
        assert kept == parity_pairing_relations_hold(h0, blocks)

    def test_broken_relation_keeps_the_full_eigh(self, monkeypatch):
        biased = Operator(two_level_static(1.0).entries + 0.3 * np.diag([1.0, -1.0]))
        lifts = [
            build_sambe_mono(biased, two_level_drive_mono(24.0), 10.0, 3),
            build_sambe_mono(aah_static(2, 1.0, 2.8, 0.618, 0.3), aah_drive(2, 3.7, 0.618, 0.3), 2.5, 3),
            build_sambe_mono(aah_static(4, 1.0, 2.8, 0.618), aah_drive(4, 3.7, 0.618), 2.5, 1),
        ]
        shapes = []
        eigh = np.linalg.eigh

        def recorded(matrix, *args, **kwargs):
            shapes.append(np.shape(matrix))
            return eigh(matrix, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", recorded)
        for lifted in lifts:
            assert lifted.matrix.parity_pairing is None
            factorize(lifted.matrix)
        assert shapes == [(14, 14), (14, 14), (12, 12)]
