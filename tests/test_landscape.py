import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from locland import (
    AccuracyError,
    DegenerateInputError,
    DimensionError,
    HermiticityError,
    LandscapeResult,
    Operator,
    SshConfig,
    aah_drive,
    aah_static,
    average_right_density,
    build_sambe,
    domain_wall_site,
    eigenmode_bound_report,
    hatano_nelson,
    midgap_report,
    normal_operator,
    pseudo_solve,
    solve_landscape,
    ssh,
    two_level_drive_duo,
    two_level_drive_mono,
    two_level_static,
)
from locland.experiments import _solve_sambe
from locland.linalg import weighted_mean_site

from conftest import random_complex, random_hermitian_pd
from oracles import hatano_nelson_mp_reference, j0_zero_bisection


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
        # on the generic route at N = 200 the skin singular value falls under
        # rcond = 1e-24 and is discarded; the center follows the discarded
        # direction, not mid-chain
        op = Operator(hatano_nelson(200, 1.0, r).entries)
        res = solve_landscape(op, rcond=1e-24)
        assert res.discarded_rank >= 1
        edge = int(np.argmax(average_right_density(op))) + 1
        assert edge in (1, 200)
        assert abs(res.soft_com - edge) <= 10.0

    def test_site_marginalized_soft_com(self):
        # a lifted point's soft_com is the mean site after the harmonic sum
        h0 = aah_static(5, 1.0, 2.8, 0.618)
        columns, res = _solve_sambe(h0, aah_drive(5, 3.7, 0.618), (2.5,), (1,), 1e-12)
        assert res.discarded_rank == 0
        weights = res.amplitude.reshape(3, 5).sum(axis=0)
        expected = (np.arange(1, 6) @ weights) / weights.sum()
        assert columns["soft_com"] == pytest.approx(expected, rel=1e-12)


class TestNearNullProfile:
    def test_zero_when_full_rank(self):
        # a cutoff solve that keeps every direction, and a gauge-route solve
        for op in (Operator(np.eye(4)), hatano_nelson(20, 1.0, 0.8)):
            res = solve_landscape(op)
            assert np.array_equal(res.near_null, np.zeros(op.dim)) and not res.degenerate
            assert np.array_equal(res.peak_profile, res.amplitude)

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
        chain = Operator(hatano_nelson(60, 1.0, 0.8).entries)
        report = eigenmode_bound_report(solve_landscape(chain, rcond=1e-30))
        assert len(report) == 60
        ratios = np.array([r for _, r in report])
        assert np.all(np.isfinite(ratios)) and np.all(ratios > 0.0)

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateInputError):
            eigenmode_bound_report(solve_landscape(Operator(np.diag([1.0, 0.0]))))

    def test_gauge_route_has_no_singular_vectors(self):
        with pytest.raises(DegenerateInputError, match="singular vectors"):
            eigenmode_bound_report(solve_landscape(hatano_nelson(20, 1.0, 0.8)))


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

    def test_norm_chain_none_without_upper_end(self):
        # the cutoff drops the exact zero of diag(0, 1, 1): sigma_min = 0
        res = solve_landscape(Operator(np.diag([0.0, 1.0, 1.0])))
        assert res.sigma_min == 0.0 and res.discarded_rank == 1
        assert res.norm_bound_chain is None
        assert solve_landscape(Operator(np.diag([1e-3, 1.0, 1.0]))).norm_bound_chain is True

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

    def test_norm_chain_when_sigma_min_squared_underflows(self):
        # sigma_min^2 = 0 in float64, so sqrt(d) / sigma_min^2 is +inf
        res = LandscapeResult(
            amplitude=np.array([3.0, 1.0]),
            v_complex=np.array([3.0, -1.0]),
            v_max=3.0,
            soft_com=1.25,
            sigma_min=1e-200,
            rcond_used=1e-12,
            discarded_rank=1,
        )
        assert res.norm_bound_chain is True

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


@pytest.fixture(scope="module")
def mp_references():
    pytest.importorskip("mpmath")
    points = ((120, 1.3), (200, 1.3), (200, 0.7))
    return {point: hatano_nelson_mp_reference(point[0], 1.0, point[1]) for point in points}


class TestGaugeRoute:
    """Hatano-Nelson chains with a gauge are solved exactly from one eigh of T."""

    @pytest.mark.parametrize("n_sites, r", [(120, 1.3), (200, 1.3), (200, 0.7)])
    def test_matches_extended_precision(self, mp_references, n_sites, r):
        # sigma_min / sigma_max reaches 3.4e-8, 9.3e-13 and 9.7e-17 here
        v_max, sigma_min = mp_references[n_sites, r]
        res = solve_landscape(hatano_nelson(n_sites, 1.0, r), rcond=1e-24)
        assert res.discarded_rank == 0 and res.spectrum is None
        assert res.v_max == pytest.approx(v_max, rel=1e-12)
        assert res.sigma_min == pytest.approx(sigma_min, rel=1e-12)

    @pytest.mark.parametrize("r", [0.8, 0.9, 1.1])
    def test_agrees_with_generic_route(self, r):
        chain = hatano_nelson(40, 1.0, r)
        plain = Operator(chain.entries)
        assert chain.log_gauge is not None and plain.log_gauge is None
        gauged, generic = solve_landscape(chain), solve_landscape(plain)
        assert generic.discarded_rank == 0
        assert np.abs(gauged.v_complex - generic.v_complex).max() <= 1e-10 * generic.v_max
        assert gauged.sigma_min == pytest.approx(generic.sigma_min, rel=1e-10)
        dens, dens_ref = average_right_density(chain), average_right_density(plain)
        assert np.abs(dens - dens_ref).max() <= 1e-10 * dens_ref.max()

    @pytest.mark.parametrize(
        "n_sites, t_left, t_right", [(21, 1.0, 0.8), (20, 1.0, -0.5), (20, 1.0, 0.0)]
    )
    def test_chains_without_gauge_take_generic_route(self, n_sites, t_left, t_right):
        # odd N leaves T exactly singular; t_L t_R <= 0 has no real gauge
        chain = hatano_nelson(n_sites, t_left, t_right)
        assert chain.log_gauge is None
        res = solve_landscape(chain, rcond=1e-24)
        ref = solve_landscape(Operator(chain.entries), rcond=1e-24)
        assert np.array_equal(res.v_complex, ref.v_complex)
        assert res.sigma_min == ref.sigma_min and res.spectrum is not None

    def test_gauge_span_past_float64_raises(self):
        # N |ln r| = 1842: v_max would be about exp(1842)
        with pytest.raises(AccuracyError, match="float64"):
            solve_landscape(hatano_nelson(200, 1.0, 1e4))

    def test_singular_gauge_partner_raises(self):
        # an odd chain's partner T has an exact zero eigenvalue
        m = hatano_nelson(5, 1.0, 0.5).entries
        gauge = 0.5 * math.log(0.5) * np.arange(5)
        with pytest.raises(AccuracyError, match="singular"):
            solve_landscape(Operator(m, log_gauge=gauge))

    def test_gauge_must_symmetrize(self):
        m = hatano_nelson(6, 1.0, 0.5).entries
        with pytest.raises(HermiticityError):
            solve_landscape(Operator(m, log_gauge=np.zeros(6)))
        with pytest.raises(ValueError):
            Operator(m, log_gauge=np.zeros(5))
        with pytest.raises(ValueError):
            Operator(m + 1j * np.eye(6), log_gauge=np.zeros(6))


class TestNormChainProperty:
    """v_max <= ||v||_2 <= sqrt(d) / sigma_min^2 on both routes."""

    @staticmethod
    def assert_chain(res, d):
        l2 = float(np.linalg.norm(res.v_complex))
        assert res.v_max <= l2 * (1.0 + 1e-12)
        assert l2 <= math.sqrt(d) / res.sigma_min**2 * (1.0 + 1e-10)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_random_general_operators(self, data):
        d = data.draw(st.integers(1, 30), label="d")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        m = rng.normal(size=(d, d))
        if data.draw(st.booleans(), label="complex"):
            m = m + 1j * rng.normal(size=(d, d))
        self.assert_chain(solve_landscape(Operator(m), rcond=1e-24), d)

    @settings(max_examples=60, deadline=None)
    @given(
        half=st.integers(1, 60),
        t_left=st.floats(0.2, 3.0),
        r=st.floats(0.5, 2.0),
        sign=st.sampled_from([1.0, -1.0]),
    )
    def test_gauge_carrying_chains(self, half, t_left, r, sign):
        chain = hatano_nelson(2 * half, sign * t_left, sign * r * t_left)
        assert chain.log_gauge is not None
        res = solve_landscape(chain)
        assert res.discarded_rank == 0
        self.assert_chain(res, chain.dim)


class TestStackedSolve:
    """A solve of a stack of operators is the solves of its operators, one by one."""

    @staticmethod
    def assert_items_match(stack, singles, rcond):
        res = solve_landscape(stack, rcond)
        for k, op in enumerate(singles):
            one = solve_landscape(op, rcond)
            assert res.sigma_min[k] == one.sigma_min, k
            assert res.discarded_rank[k] == one.discarded_rank, k
            scale = np.abs(one.v_complex).max()
            assert np.abs(res.v_complex[k] - one.v_complex).max() <= 1e-12 * scale, k
        return res

    @staticmethod
    def straddling_rcond(singles) -> float:
        """A cutoff between the smallest and largest (sigma_min / sigma_max)^2 of the family."""
        ratios = []
        for op in singles:
            sigma = solve_landscape(op).spectrum.sigma
            ratios.append((sigma.min() / sigma.max()) ** 2)
        lo, hi = min(ratios), max(ratios)
        assume(0.0 < lo < hi < 1.0)
        return math.sqrt(lo * hi)

    @settings(max_examples=25, deadline=None)
    @given(
        offsets=st.lists(st.floats(-0.02, 0.02), min_size=2, max_size=6, unique=True),
        truncation=st.integers(1, 6),
    )
    def test_one_tone_family_across_the_cutoff(self, offsets, truncation):
        # amplitudes around the first zero of J0, where the lift's sigma_min closes
        omega, h0 = 10.0, two_level_static(1.0)
        amps = (j0_zero_bisection(2.0, 3.0) + np.array(offsets)) * omega
        lift = lambda a: build_sambe(h0, two_level_drive_mono(a), (omega,), (truncation,)).matrix
        singles = [lift(a) for a in amps]
        stack = lift(amps)
        assert stack.parity_pairing is not None and stack.entries.shape[0] == len(amps)
        res = self.assert_items_match(stack, singles, self.straddling_rcond(singles))
        assert len(set(res.discarded_rank.tolist())) > 1

    @settings(max_examples=15, deadline=None)
    @given(
        offsets=st.lists(st.floats(-0.05, 0.05), min_size=2, max_size=5, unique=True),
        b_amp=st.floats(0.0, 10.0),
    )
    def test_two_tone_family_across_the_cutoff(self, offsets, b_amp):
        omegas, h0 = (10.0, 10.0 * math.sqrt(2.0)), two_level_static(1.0)
        a_amps = (j0_zero_bisection(2.0, 3.0) + np.array(offsets)) * omegas[0]
        b_amps = np.full_like(a_amps, b_amp)
        lift = lambda a, b: build_sambe(h0, two_level_drive_duo(a, b), omegas, (2, 2)).matrix
        singles = [lift(a, b) for a, b in zip(a_amps, b_amps)]
        stack = lift(a_amps, b_amps)
        assert stack.parity_pairing is not None
        res = self.assert_items_match(stack, singles, self.straddling_rcond(singles))
        assert len(set(res.discarded_rank.tolist())) > 1

    @settings(max_examples=40, deadline=None)
    @given(
        count=st.integers(1, 5),
        d=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
        hermitian=st.booleans(),
        is_complex=st.booleans(),
        rcond=st.sampled_from([1e-12, 1e-3, 0.1, 0.5]),
    )
    def test_random_stacks(self, count, d, seed, hermitian, is_complex, rcond):
        # an exactly Hermitian stack takes the eigh route, any other the SVD
        rng = np.random.default_rng(seed)
        m = rng.normal(size=(count, d, d))
        if is_complex:
            m = m + 1j * rng.normal(size=(count, d, d))
        if hermitian:
            m = 0.5 * (m + m.conj().swapaxes(-1, -2))
        stack = Operator(m)
        res = self.assert_items_match(stack, [Operator(x) for x in m], rcond)
        assert (res.spectrum.energies is not None) == (hermitian or d == 1 and not is_complex)

    def test_per_matrix_helpers(self, rng):
        m = rng.normal(size=(3, 6, 6)) + 1j * rng.normal(size=(3, 6, 6))
        stack = Operator(m)
        normal = normal_operator(stack).entries
        density = average_right_density(stack)
        for k in range(3):
            assert np.array_equal(normal[k], normal_operator(Operator(m[k])).entries)
            assert np.array_equal(density[k], average_right_density(Operator(m[k])))
        with pytest.raises(DimensionError):
            pseudo_solve(normal_operator(stack), np.ones(6))
        with pytest.raises(DimensionError):
            midgap_report(solve_landscape(normal_operator(stack)).spectrum)
