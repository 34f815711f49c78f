import math

import numpy as np
import pytest

from locland import (
    ConfigError,
    DimensionError,
    SshConfig,
    aah_drive,
    aah_static,
    bbh,
    bbh_site_coords,
    domain_wall_site,
    gauge_eigh,
    hatano_nelson,
    ssh,
    two_level_drive_duo,
    two_level_drive_mono,
    two_level_static,
)

from oracles import bbh_matrix_loop, open_chain_spectrum

SZ = np.diag([1.0, -1.0])


class TestHatanoNelson:
    def test_three_site_matrix(self):
        m = hatano_nelson(3, 1.0, 0.5).entries
        assert np.array_equal(m, np.array([[0, 1, 0], [0.5, 0, 1], [0, 0.5, 0]], dtype=complex))

    def test_reciprocal_is_hermitian_with_chain_spectrum(self):
        op = hatano_nelson(5, 1.0, 1.0)
        assert np.array_equal(op.entries, op.entries.conj().T)
        eigs = np.sort(np.linalg.eigvalsh(op.entries))
        assert np.abs(eigs - open_chain_spectrum(5, 1.0)).max() < 1e-12

    def test_adjoint_swaps_hoppings(self):
        left = hatano_nelson(7, 1.3, 0.4)
        right = hatano_nelson(7, 0.4, 1.3)
        assert np.array_equal(left.entries.conj().T, right.entries)

    def test_similarity_spectrum(self):
        # non-reciprocal chain is isospectral to the hermitian chain with
        # hopping sqrt(t_L t_R) under open boundaries
        for t_left, t_right in ((1.0, 0.9), (1.0, 0.25), (0.7, 1.2)):
            eigs = np.linalg.eigvals(hatano_nelson(12, t_left, t_right).entries)
            expected = open_chain_spectrum(12, math.sqrt(t_left * t_right))
            assert np.abs(np.sort(eigs.real) - expected).max() < 1e-8
            assert np.abs(eigs.imag).max() < 1e-8

    def test_hatano_nelson_similarity_spectrum(self):
        # open-boundary asymmetric chain shares its spectrum with the
        # symmetrized chain of hopping sqrt(t_L t_R) = 0.5
        values = np.linalg.eigvals(hatano_nelson(4, 1.0, 0.25).entries)
        expected = np.sort(2.0 * 0.5 * np.cos(np.arange(1, 5) * math.pi / 5.0))
        assert np.abs(values.imag).max() < 1e-10
        assert np.abs(np.sort(values.real) - expected).max() < 1e-10

    @pytest.mark.parametrize("t_left, t_right", [(1.0, 0.9), (1.0, 0.25), (-0.7, -1.2)])
    def test_gauge_partner_is_the_symmetric_chain(self, t_left, t_right):
        # D^-1 H D with D = diag(exp(log_gauge)) is the chain with hopping
        # sqrt(t_L t_R), and the gauge is centred: log_gauge reverses to -log_gauge
        op = hatano_nelson(12, t_left, t_right)
        d = np.exp(op.log_gauge)
        partner = op.entries * d[None, :] / d[:, None]
        assert np.abs(partner - partner.T).max() < 1e-14
        hopping = math.copysign(math.sqrt(t_left * t_right), t_left)
        assert np.abs(partner[0, 1] - hopping) < 1e-14
        assert np.array_equal(op.log_gauge[::-1], -op.log_gauge)
        expected = open_chain_spectrum(12, math.sqrt(t_left * t_right))
        assert np.abs(gauge_eigh(op).energies - expected).max() < 1e-13

    @pytest.mark.parametrize("n_sites, t_right", [(13, 0.9), (12, -0.9), (12, 0.0)])
    def test_no_gauge_for_odd_or_sign_changing_chains(self, n_sites, t_right):
        assert hatano_nelson(n_sites, 1.0, t_right).log_gauge is None

    def test_fig1_parameters_construct(self):
        op = hatano_nelson(120, 1.0, 0.9)
        assert op.dim == 120
        assert op.entries[1, 0] == 0.9 and op.entries[0, 1] == 1.0

    def test_too_small(self):
        with pytest.raises(DimensionError):
            hatano_nelson(1, 1.0, 1.0)


class TestAahStatic:
    def test_two_site_no_potential(self):
        m = aah_static(2, 1.0, 0.0, 0.618).entries
        assert np.array_equal(m, np.array([[0, -1], [-1, 0]], dtype=complex))

    def test_uniform_limit_spectrum(self):
        # alpha = 0 gives a constant onsite shift of the open chain
        lam0 = 0.7
        m = aah_static(9, 1.0, lam0, 0.0).entries
        eigs = np.sort(np.linalg.eigvalsh(m))
        assert np.abs(eigs - (lam0 - open_chain_spectrum(9, 1.0)[::-1])).max() < 1e-12

    def test_one_based_site_phase(self):
        alpha, theta = 0.37, 0.2
        m = aah_static(4, 1.0, 2.8, alpha, theta).entries
        onsite = np.real(np.diag(m))
        expected = 2.8 * np.cos(2.0 * np.pi * alpha * np.arange(1, 5) + theta)
        assert np.abs(onsite - expected).max() < 1e-14

    def test_fig3_parameters_construct(self):
        op = aah_static(80, 1.0, 2.8, (math.sqrt(5.0) - 1.0) / 2.0)
        assert op.dim == 80


class TestAahDrive:
    def test_zero_amplitude(self):
        drive = aah_drive(4, 0.0, 0.618)
        assert np.abs(drive[1].entries).max() == 0.0
        assert np.abs(drive[-1].entries).max() == 0.0

    def test_single_site_block(self):
        drive = aah_drive(1, 2.0, 0.0, 0.0)
        assert np.array_equal(drive[1].entries, np.array([[1.0 + 0.0j]]))

    def test_block_frobenius_norm(self):
        n, amp, alpha, theta = 80, 3.7, 0.618, 0.11
        drive = aah_drive(n, amp, alpha, theta)
        direct = 0.0
        for site in range(1, n + 1):
            direct += math.cos(2.0 * math.pi * alpha * site + theta) ** 2
        expected = 0.5 * amp * math.sqrt(direct)
        assert np.linalg.norm(drive[1].entries) == pytest.approx(expected, rel=1e-12)

    def test_conjugate_pair_exact(self):
        drive = aah_drive(6, 1.1, 0.618, 0.3)
        assert np.array_equal(drive[-1].entries, drive[1].entries.conj().T)


class TestTwoLevel:
    def test_static_matrix(self):
        assert np.array_equal(
            two_level_static(1.0).entries, np.array([[0, -1], [-1, 0]], dtype=complex)
        )

    def test_static_eigensystem(self):
        vals, vecs = np.linalg.eigh(two_level_static(1.0).entries)
        assert np.allclose(vals, [-1.0, 1.0])
        # ground state is the symmetric combination for -J sigma_x
        assert abs(abs(vecs[:, 0] @ np.array([1.0, 1.0]) / math.sqrt(2)) - 1.0) < 1e-12

    def test_static_spectrum_scales(self):
        assert np.allclose(np.linalg.eigvalsh(two_level_static(2.0).entries), [-2.0, 2.0])

    def test_static_requires_positive_coupling(self):
        with pytest.raises(ValueError):
            two_level_static(0.0)

    def test_mono_blocks(self):
        drive = two_level_drive_mono(4.0)
        assert np.array_equal(drive[1].entries, SZ.astype(complex))
        assert np.array_equal(drive[-1].entries, SZ.astype(complex))
        zero = two_level_drive_mono(0.0)
        assert np.abs(zero[1].entries).max() == 0.0

    def test_duo_blocks(self):
        drive = two_level_drive_duo(4.0, 8.0)
        assert np.array_equal(drive[(0, 1)].entries, 2.0 * SZ.astype(complex))
        assert np.array_equal(drive[(1, 0)].entries, SZ.astype(complex))
        assert (2, 0) not in drive

    def test_drive_conjugate_pairs(self):
        drive = two_level_drive_duo(1.7, 0.3)
        for key in ((1, 0), (0, 1)):
            mirrored = tuple(-k for k in key)
            assert np.array_equal(
                drive[mirrored].entries, drive[key].entries.conj().T
            )


def chiral_defect(matrix):
    sign = np.diag([(-1.0) ** k for k in range(matrix.shape[0])])
    return np.abs(sign @ matrix @ sign + matrix).max()


class TestSsh:
    def test_trivial_small_matrix_and_gap(self):
        op = ssh(SshConfig("trivial", 2, t_intra=1.0, t_inter=0.5))
        expected = np.zeros((4, 4))
        expected[0, 1] = expected[1, 0] = -1.0
        expected[1, 2] = expected[2, 1] = -0.5
        expected[2, 3] = expected[3, 2] = -1.0
        assert np.array_equal(op.entries, expected.astype(complex))
        min_abs = np.abs(np.linalg.eigvalsh(op.entries)).min()
        assert min_abs == pytest.approx(0.7807764064044151, abs=1e-12)  # frozen oracle
        assert min_abs >= 0.4

    def test_topological_midgap_pair_edge_localized(self):
        op = ssh(SshConfig("topological", 20, t_intra=0.5, t_inter=1.0))
        vals, vecs = np.linalg.eigh(op.entries)
        idx = np.argsort(np.abs(vals))[:2]
        assert np.abs(vals[idx]).max() < 1e-3
        for k in idx:
            weight = np.abs(vecs[:, k]) ** 2
            edge = weight[:4].sum() + weight[-4:].sum()
            assert edge > 0.8

    def test_chiral_symmetry_exact(self):
        for variant, ti, te in (
            ("topological", 0.5, 1.0),
            ("trivial", 1.0, 0.5),
            ("domain_wall", 0.5, 1.0),
        ):
            op = ssh(SshConfig(variant, 8, t_intra=ti, t_inter=te))
            assert chiral_defect(op.entries) == 0.0

    def test_domain_wall_single_zero_mode_at_wall(self):
        n_cells = 20
        op = ssh(SshConfig("domain_wall", n_cells, t_intra=0.5, t_inter=1.0))
        assert op.dim == 2 * n_cells - 1  # shared-site wall
        vals, vecs = np.linalg.eigh(op.entries)
        near_zero = np.flatnonzero(np.abs(vals) < 1e-8)
        assert near_zero.size == 1
        mode = np.abs(vecs[:, near_zero[0]]) ** 2
        assert int(np.argmax(mode)) + 1 == domain_wall_site(n_cells)
        # chain ends terminate on strong bonds: no competing edge mode
        assert np.sort(np.abs(vals))[1] > 0.3

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            SshConfig("ring", 4, 0.5, 1.0)
        with pytest.raises(ConfigError):
            SshConfig("topological", 4, 1.0, 0.5)
        with pytest.raises(ConfigError):
            SshConfig("trivial", 4, 0.5, 1.0)
        with pytest.raises(ConfigError):
            SshConfig("topological", 1, 0.5, 1.0)
        with pytest.raises(ConfigError):
            SshConfig("domain_wall", 4, 1.0, 1.0)


class TestBbh:
    def test_gap_closes_at_equal_hoppings(self):
        # finite open lattices close the critical gap like 1/L; the 6x6
        # value is frozen from the diagonalization oracle
        min_abs = {
            size: np.abs(np.linalg.eigvalsh(bbh(size, size, 1.0, 1.0).entries)).min()
            for size in (4, 6, 8)
        }
        assert min_abs[6] == pytest.approx(0.3409292159610, abs=1e-10)
        assert min_abs[4] > min_abs[6] > min_abs[8]
        gapped_bulk_edge = 0.6509720596991  # fifth-smallest |E| at gamma=0.5
        assert min_abs[6] < 0.6 * gapped_bulk_edge

    def test_quadrupole_phase_corner_modes(self):
        op = bbh(6, 6, 0.5, 1.0)
        vals, vecs = np.linalg.eigh(op.entries)
        order = np.argsort(np.abs(vals))
        # four near-zero modes, hybridization-split at the (gamma/lam)^L scale
        assert np.abs(vals[order[:4]]).max() == pytest.approx(0.016590058375, abs=1e-9)
        assert np.abs(vals[order[4]]) > 0.6
        # the midgap subspace carries one state per corner: its projector
        # weight concentrates on the four 4x4 corner patches
        weight = np.zeros(op.dim)
        for k in order[:4]:
            weight += np.abs(vecs[:, k]) ** 2
        w2 = weight.reshape(12, 12)
        corner_sum = (
            w2[:4, :4].sum() + w2[:4, -4:].sum() + w2[-4:, :4].sum() + w2[-4:, -4:].sum()
        )
        assert corner_sum > 3.5

    def test_decoupled_cells_spectrum(self):
        # pi flux through the isolated 4-site cell: eigenvalues +-sqrt(2) gamma
        gamma = 0.7
        vals = np.linalg.eigvalsh(bbh(2, 2, gamma, 0.0).entries)
        expected = math.sqrt(2.0) * gamma
        assert np.abs(np.sort(np.unique(np.round(vals, 10))) - [-expected, expected]).max() < 1e-10

    def test_spectrum_symmetric(self):
        vals = np.sort(np.linalg.eigvalsh(bbh(3, 4, 0.6, 1.1).entries))
        assert np.abs(vals + vals[::-1]).max() < 1e-10

    def test_pi_flux_every_plaquette(self):
        op = bbh(3, 3, 0.5, 1.0).entries
        lx = 6

        def flat(i, j):
            return (j - 1) * lx + (i - 1)

        for j in range(1, 6):
            for i in range(1, 6):
                product = (
                    op[flat(i, j), flat(i + 1, j)]
                    * op[flat(i + 1, j), flat(i + 1, j + 1)]
                    * op[flat(i + 1, j + 1), flat(i, j + 1)]
                    * op[flat(i, j + 1), flat(i, j)]
                )
                assert product.real < 0.0  # sign product -1: pi flux

    @pytest.mark.parametrize(
        "n_x, n_y, gamma, lam", [(2, 2, 0.7, 0.0), (3, 4, 0.6, 1.1), (6, 6, 0.5, 1.0)]
    )
    def test_matches_bond_loop(self, n_x, n_y, gamma, lam):
        expected = bbh_matrix_loop(n_x, n_y, gamma, lam)
        assert np.array_equal(bbh(n_x, n_y, gamma, lam).entries, expected)

    def test_site_coords_roundtrip(self):
        assert bbh_site_coords(0, 6) == (1, 1)
        assert bbh_site_coords(11, 6) == (12, 1)
        assert bbh_site_coords(12, 6) == (1, 2)

    def test_site_coords_elementwise(self):
        cols, rows = bbh_site_coords(np.arange(24 * 6), 12)
        assert [(int(c), int(r)) for c, r in zip(cols, rows)] == [
            bbh_site_coords(k, 12) for k in range(24 * 6)
        ]

    def test_too_small(self):
        with pytest.raises(DimensionError):
            bbh(1, 6, 0.5, 1.0)
