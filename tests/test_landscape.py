import math

import numpy as np
import pytest

from locland import (
    AccuracyError,
    DegenerateInputError,
    LandscapeResult,
    Operator,
    SambeIndexMap,
    SshConfig,
    average_right_density,
    domain_wall_site,
    eigenmode_bound_report,
    hatano_nelson,
    normal_operator,
    pseudo_solve,
    solve_landscape,
    ssh,
)
from locland.linalg import weighted_mean_site

from conftest import random_complex, random_hermitian_pd


def anderson_type_chain(rng, n_sites, hopping=0.5):
    """Diagonally dominant chain: PD M-matrix, so H^-2 >= 0 entrywise."""
    m = np.diag(rng.uniform(1.5, 3.5, size=n_sites)).astype(complex)
    m[np.arange(n_sites - 1), np.arange(1, n_sites)] = -hopping
    m[np.arange(1, n_sites), np.arange(n_sites - 1)] = -hopping
    return m


class TestSolveLandscape:
    def test_hermitian_diagonal_reduction(self):
        # v = H^-2 1 = H^-1 u with H u = 1
        res = solve_landscape(Operator(np.diag([1.0, 2.0])))
        assert np.allclose(res.v_complex, [1.0, 0.25])
        assert res.v_max == pytest.approx(1.0)
        assert res.discarded_rank == 0

    def test_identity(self):
        res = solve_landscape(Operator(np.eye(6)))
        assert np.allclose(res.v_complex, np.ones(6))
        assert res.v_max == pytest.approx(1.0)
        assert res.sigma_min == pytest.approx(1.0)

    def test_skin_chain_peaks_at_left_edge(self):
        res = solve_landscape(hatano_nelson(120, 1.0, 0.9), rcond=1e-24)
        assert int(np.argmax(res.amplitude)) + 1 <= 5

    def test_degenerate_zero_operator(self):
        res = solve_landscape(Operator(np.zeros((4, 4))))
        assert res.degenerate
        assert res.v_max == 0.0
        assert np.isnan(res.soft_com)
        assert res.discarded_rank == 4

    def test_rcond_validation(self):
        with pytest.raises(ValueError):
            solve_landscape(Operator(np.eye(2)), rcond=0.0)

    @pytest.mark.parametrize("r", [0.7, 1.3])
    def test_discarded_skin_direction_keeps_center_at_edge(self, r):
        # at N = 200 the skin singular value falls under rcond = 1e-24 and is
        # discarded; the center follows the discarded direction, not mid-chain
        op = hatano_nelson(200, 1.0, r)
        res = solve_landscape(op, rcond=1e-24)
        assert res.discarded_rank >= 1
        edge = int(np.argmax(average_right_density(op))) + 1
        assert edge in (1, 200)
        assert abs(res.soft_com - edge) <= 10.0

    def test_site_marginalized_soft_com(self, rng):
        index_map = SambeIndexMap(base_dim=4, truncations=(1,))
        m = random_hermitian_pd(rng, index_map.flat_dim)
        res = solve_landscape(Operator(m), index_map=index_map)
        weights = res.amplitude.reshape(3, 4).sum(axis=0)
        expected = (np.arange(1, 5) @ weights) / weights.sum()
        assert res.soft_com == pytest.approx(expected, rel=1e-12)


class TestNearNullProfile:
    def test_zero_when_full_rank(self):
        profile = solve_landscape(Operator(np.eye(4))).near_null
        assert np.array_equal(profile, np.zeros(4))

    def test_matches_kernel_component_of_ones(self):
        # one exact kernel direction: profile = |<k, 1>| |k|
        kernel = np.array([2.0, -1.0, 0.0]) / np.sqrt(5.0)
        basis = np.linalg.qr(np.column_stack([kernel, np.eye(3)[:, :2]]))[0]
        m = basis @ np.diag([0.0, 1.0, 2.0]) @ basis.conj().T
        profile = solve_landscape(Operator(m)).near_null
        expected = np.abs(kernel * (kernel @ np.ones(3)))
        assert np.abs(profile - expected).max() < 1e-12

    def test_domain_wall_kernel_peaks_at_wall(self):
        op = ssh(SshConfig("domain_wall", 12, t_intra=0.5, t_inter=1.0))
        profile = solve_landscape(op, rcond=1e-24).near_null
        assert profile.max() > 0.0
        assert int(np.argmax(profile)) + 1 == domain_wall_site(12)


class TestSoftCenterOfMass:
    def test_point_mass(self):
        # a deep well at site 1 carries all but ~1e-8 of the landscape
        res = solve_landscape(Operator(np.diag([1.0] + [1e4] * 9)))
        assert res.soft_com == pytest.approx(1.0, abs=1e-6)

    def test_uniform_midpoint(self):
        assert solve_landscape(Operator(np.eye(11))).soft_com == pytest.approx(6.0)

    def test_weighted_pair(self):
        # v = (3, 1) for H = diag(1/sqrt(3), 1)
        res = solve_landscape(Operator(np.diag([1.0 / math.sqrt(3.0), 1.0])))
        assert res.soft_com == pytest.approx(1.25)

    def test_degenerate_and_negative(self):
        res = solve_landscape(Operator(np.zeros((4, 4))))
        assert res.degenerate and math.isnan(res.soft_com)
        with pytest.raises(DegenerateInputError):
            weighted_mean_site(np.zeros(4))
        with pytest.raises(ValueError):
            weighted_mean_site(np.array([1.0, -1.0]))


class TestLandscapeMaxTotal:
    def test_identity(self):
        assert solve_landscape(Operator(np.eye(3))).v_max == pytest.approx(1.0)

    def test_blowup_near_singularity(self):
        eps = 1e-3
        vmax = solve_landscape(Operator(np.diag([eps, 1.0]))).v_max
        assert vmax == pytest.approx(1.0 / eps**2, rel=1e-12)


class TestEigenmodeBoundReport:
    def test_diagonal_ratios_are_one(self):
        report = eigenmode_bound_report(solve_landscape(Operator(np.diag([1.0, 2.0, 3.0]))))
        assert len(report) == 3
        for _, ratio in report:
            assert ratio == pytest.approx(1.0, abs=1e-12)

    def test_anderson_type_chain_bound_holds(self, rng):
        m = anderson_type_chain(rng, 40)
        report = eigenmode_bound_report(solve_landscape(Operator(m)))
        # independent recomputation of the worst ratio from a fresh
        # diagonalization, element by element
        lam, phi = np.linalg.eigh(m.conj().T @ m)
        v = np.abs(np.linalg.solve(m, np.linalg.solve(m, np.ones(40, dtype=complex))))
        for k, (idx, ratio) in enumerate(report):
            direct = max(
                abs(phi[j, k]) / (lam[k] * np.abs(phi[:, k]).max() * v[j]) for j in range(40)
            )
            assert ratio == pytest.approx(direct, rel=1e-8)
            assert ratio <= 1.0 + 1e-8

    def test_skin_chain_report_generated(self):
        report = eigenmode_bound_report(solve_landscape(hatano_nelson(60, 1.0, 0.8), rcond=1e-30))
        assert len(report) == 60
        ratios = np.array([r for _, r in report])
        assert np.all(np.isfinite(ratios)) and np.all(ratios > 0.0)

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateInputError):
            eigenmode_bound_report(solve_landscape(Operator(np.diag([1.0, 0.0]))))


class TestLandscapeInvariants:
    def test_hermitian_reduction_random(self, rng):
        # ||v - H^-1 u||_inf <= 1e-9 ||v||_inf with H u = 1
        for n in (5, 20, 50):
            m = random_hermitian_pd(rng, n)
            res = solve_landscape(Operator(m))
            u = np.linalg.solve(m, np.ones(n, dtype=complex))
            v_ref = np.linalg.solve(m, u)
            assert np.abs(res.v_complex - v_ref).max() <= 1e-9 * np.abs(v_ref).max()

    def test_norm_chain_on_solves(self, rng):
        for op in (
            Operator(random_complex(rng, 12)),
            hatano_nelson(40, 1.0, 0.8),
            Operator(np.diag([1e-3] + [1.0] * 9)),
        ):
            res = solve_landscape(op, rcond=1e-20)
            l2 = res.norm2
            assert res.v_max <= l2 * (1.0 + 1e-12)
            assert l2 <= np.sqrt(op.dim) / res.sigma_min**2 * (1.0 + 1e-8)

    def test_norm_chain_enforced_at_construction(self):
        with pytest.raises(AccuracyError):
            LandscapeResult(
                amplitude=np.array([3.0]),
                v_complex=np.array([3.0 + 0.0j]),
                v_max=3.0,
                soft_com=1.0,
                sigma_min=10.0,  # sqrt(d)/sigma^2 = 0.01 < ||v||
                rcond_used=1e-12,
                discarded_rank=0,
            )

    def test_pseudoinverse_route_consistency(self, rng):
        # svd-of-H solve against the eigendecomposition-of-H^dag-H solve
        for n in (4, 9, 16):
            op = Operator(random_complex(rng, n))
            res = solve_landscape(op)
            alt = pseudo_solve(normal_operator(op), np.ones(n, dtype=complex))
            assert np.abs(res.v_complex - alt.x).max() <= 1e-8 * np.abs(res.v_complex).max()

    def test_scaling_covariance(self, rng):
        op = Operator(random_complex(rng, 8))
        base = solve_landscape(op)
        scaled = solve_landscape(Operator(2.5 * op.entries))
        assert np.abs(scaled.v_complex - base.v_complex / 2.5**2).max() < 1e-12 * base.v_max
        assert np.argmax(scaled.amplitude) == np.argmax(base.amplitude)
        assert scaled.soft_com == pytest.approx(base.soft_com, rel=1e-12)

    def test_sigma_min_blowup_saturation(self):
        for eps in (1e-2, 1e-3, 1e-4):
            res = solve_landscape(Operator(np.diag([eps] + [1.0] * 7)))
            assert res.v_max * eps**2 == pytest.approx(1.0, rel=1e-9)
