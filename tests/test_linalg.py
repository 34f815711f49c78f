import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locland import (
    AccuracyError,
    DimensionError,
    HermiticityError,
    Operator,
    SignedPermutation,
    build_sambe_duo,
    build_sambe_mono,
    eig_general,
    factorize,
    midgap_report,
    normal_operator,
    pseudo_solve,
    solve_landscape,
    two_level_drive_duo,
    two_level_drive_mono,
    two_level_static,
)
from locland.models import hatano_nelson

from conftest import random_complex, random_hermitian_pd
from oracles import (
    gaussian_elimination_solve,
    hermitian_eigs_bisection,
    j0_series,
    j0_zero_bisection,
    triple_loop_adjoint_product,
)


class TestOperator:
    def test_rejects_non_square(self):
        with pytest.raises(DimensionError):
            Operator(np.zeros((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Operator(np.array([[0.0, np.nan], [0.0, 0.0]]))

    def test_entries_read_only(self):
        op = Operator(np.eye(2))
        with pytest.raises(ValueError):
            op.entries[0, 0] = 5.0

    def test_dim(self):
        assert Operator(np.eye(4)).dim == 4

    def test_exactly_real_entries_are_float64(self):
        for entries in ([[1, 2], [3, 4]], np.eye(2, dtype=bool), np.eye(2, dtype=np.float32),
                        np.array([[1.0, -0.0j], [2.0, 3.0]])):
            op = Operator(entries)
            assert op.entries.dtype == np.float64
            assert np.array_equal(op.entries, np.asarray(entries))

    def test_any_imaginary_part_keeps_complex128(self):
        entries = np.array([[1.0, 1e-300j], [0.0, 1.0]])
        op = Operator(entries)
        assert op.entries.dtype == np.complex128
        assert np.array_equal(op.entries, entries)

    def test_entries_are_a_private_copy(self):
        for entries in (np.eye(2), np.eye(2, dtype=complex)):
            op = Operator(entries)
            entries[0, 0] = 5.0
            assert op.entries[0, 0] == 1.0


class TestNormalOperator:
    def test_nilpotent(self):
        out = normal_operator(Operator([[0, 1], [0, 0]]))
        assert np.array_equal(out.entries, np.array([[0, 0], [0, 1]], dtype=complex))

    def test_identity(self):
        out = normal_operator(Operator(np.eye(3)))
        assert np.array_equal(out.entries, np.eye(3, dtype=complex))

    def test_matches_triple_loop_oracle(self, rng):
        m = random_complex(rng, 6)
        out = normal_operator(Operator(m)).entries
        assert np.abs(out - triple_loop_adjoint_product(m)).max() < 1e-12

    def test_result_hermitian_psd(self, rng):
        out = normal_operator(Operator(random_complex(rng, 5))).entries
        assert np.array_equal(out, out.conj().T)
        assert np.linalg.eigvalsh(out).min() > -1e-12


class TestEigHermitian:
    def test_diagonal_sorted(self):
        res = factorize(Operator(np.diag([3.0, 1.0, 2.0])))
        assert np.allclose(res.energies, [1.0, 2.0, 3.0])
        assert np.array_equal(res.sigma, np.abs(res.energies))

    def test_pauli_x(self):
        res = factorize(Operator([[0, 1], [1, 0]]))
        assert np.allclose(res.energies, [-1.0, 1.0])
        minus = np.array([1.0, -1.0]) / math.sqrt(2.0)
        plus = np.array([1.0, 1.0]) / math.sqrt(2.0)
        assert abs(abs(minus @ res.right[:, 0]) - 1.0) < 1e-12
        assert abs(abs(plus @ res.right[:, 1]) - 1.0) < 1e-12

    def test_matches_bisection_oracle(self, rng):
        m = random_hermitian_pd(rng, 8, lo=-2.0, hi=2.0)
        res = factorize(Operator(m))
        assert np.abs(res.energies - hermitian_eigs_bisection(m)).max() < 1e-8

    def test_orthonormal_vectors(self, rng):
        m = random_hermitian_pd(rng, 12)
        res = factorize(Operator(m))
        gram = res.right.conj().T @ res.right
        assert np.abs(gram - np.eye(12)).max() < 1e-10

    def test_rejects_non_hermitian(self):
        # a non-Hermitian H takes the SVD route and has no energies to read
        res = factorize(Operator([[0, 1], [0, 0]]))
        assert res.energies is None
        assert np.allclose(np.sort(res.sigma), [0.0, 1.0])
        with pytest.raises(HermiticityError):
            midgap_report(res)


class TestFactorize:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_eigh_route_matches_svd_route(self, data):
        d = data.draw(st.integers(2, 40), label="d")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        lam = rng.uniform(0.5, 3.0, size=d) * rng.choice([-1.0, 1.0], size=d)
        # some draws plant a near-kernel direction, on either side of the cutoff
        exponent = data.draw(st.one_of(st.none(), st.floats(-14.0, 0.0)), label="planted")
        if exponent is not None:
            lam[0] = 10.0**exponent
        q = np.linalg.qr(random_complex(rng, d))[0]
        m = (q * lam) @ q.conj().T
        op = Operator(0.5 * (m + m.conj().T))
        rcond = 1e-12

        spectrum = factorize(op)
        assert spectrum.energies is not None
        s_ref, vh = np.linalg.svd(op.entries)[1:]
        cutoff = rcond * s_ref[0] ** 2
        assert np.abs(np.sort(spectrum.sigma)[::-1] - s_ref).max() <= 1e-12 * s_ref[0]

        res = solve_landscape(op, rcond)
        keep = s_ref**2 > cutoff
        if not np.any((s_ref**2 > 0.1 * cutoff) & (s_ref**2 < 10.0 * cutoff)):
            assert res.discarded_rank == d - np.count_nonzero(keep)
        if s_ref[-1] ** 2 > 10.0 * cutoff:
            right = vh.conj().T[:, keep]
            v_ref = right @ ((right.conj().T @ np.ones(d)) / s_ref[keep] ** 2)
            assert np.abs(res.v_complex - v_ref).max() <= 1e-9 * np.abs(v_ref).max()


class TestPairedRoute:
    """Two-level lifts factorized through their parity and pairing match a full eigh."""

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_matches_full_eigh(self, data):
        tones = data.draw(st.sampled_from([1, 2]), label="tones")
        truncations = [data.draw(st.integers(0, 4), label=f"truncation{k}") for k in range(tones)]
        omega1 = data.draw(st.floats(2.0, 12.0), label="omega1")
        ratio = data.draw(st.one_of(st.floats(0.3, 0.95), st.floats(1.05, 3.0)), label="omega2_ratio")
        amplitude = st.one_of(st.just(0.0), st.floats(0.0, 12.0))
        amps = [omega1 * data.draw(amplitude, label=f"amp{k}") for k in range(tones)]
        h0 = two_level_static(data.draw(st.floats(0.2, 2.0), label="j"))
        if tones == 1:
            lifted = build_sambe_mono(h0, two_level_drive_mono(amps[0]), omega1, truncations[0])
        else:
            drive = two_level_drive_duo(*amps)
            lifted = build_sambe_duo(h0, drive, omega1, ratio * omega1, *truncations)
        op, plain = lifted.matrix, Operator(lifted.matrix.entries)
        assert op.parity_pairing is not None and plain.parity_pairing is None

        spectrum, ref = factorize(op), factorize(plain)
        assert np.all(np.diff(spectrum.energies) >= 0.0)
        assert np.array_equal(spectrum.sigma, np.abs(spectrum.energies))
        norm1 = np.abs(op.entries).sum(axis=0).max()
        assert np.abs(spectrum.energies - ref.energies).max() <= 1e-12 * norm1
        assert np.abs(spectrum.right.T @ spectrum.right - np.eye(op.dim)).max() < 1e-12

        # rcond lands on either side of sigma_min^2 / sigma_max^2, within the
        # range where float64 resolves v to 1e-9
        s2 = np.sort(ref.sigma) ** 2
        shift = data.draw(st.floats(-3.0, 3.0), label="log10 rcond / ratio")
        rcond = 10.0 ** min(max(math.log10(max(s2[0], 1e-300) / s2[-1]) + shift, -12.0), -0.5)
        res, res_ref = solve_landscape(op, rcond), solve_landscape(plain, rcond)
        assert res.discarded_rank % 2 == 0
        cutoff = rcond * s2[-1]
        if not np.any((s2 > 0.1 * cutoff) & (s2 < 10.0 * cutoff)):
            assert res.discarded_rank == res_ref.discarded_rank
        if s2[0] > 10.0 * cutoff:
            v_ref = res_ref.v_complex
            assert np.abs(res.v_complex - v_ref).max() <= 1e-9 * np.abs(v_ref).max()


class TestParityPairingContract:
    """Operator rejects malformed maps and keeps well-formed ones only where they hold exactly."""

    @staticmethod
    def lifted():
        h0, drive = two_level_static(1.0), two_level_drive_duo(24.0, 8.0)
        return build_sambe_duo(h0, drive, 10.0, 14.1, 2, 1).matrix

    @pytest.mark.parametrize(
        "index, sign",
        [
            ([1, 2, 3, 0], [1.0, 1.0, 1.0, 1.0]),  # a 4-cycle, not an involution
            ([0, 1, 3, 2], [1.0, 1.0, 1.0, 1.0]),  # fixed points
            ([1, 0, 3, 2], [1.0, 2.0, 1.0, 1.0]),  # a sign other than +-1
            ([1, 0, 3, 4], [1.0, 1.0, 1.0, 1.0]),  # an index out of range
        ],
    )
    def test_rejects_maps_that_are_not_paired_involutions(self, index, sign):
        with pytest.raises(ValueError):
            SignedPermutation(index, sign)

    def test_rejects_maps_that_are_not_symmetries(self):
        # maps malformed on their own raise, whatever the operator
        op = self.lifted()
        parity, pairing = op.parity_pairing
        assert Operator(op.entries, parity_pairing=(parity, pairing)).parity_pairing is not None
        with pytest.raises(ValueError, match="square"):
            # S squares to -1, so it cannot serve as the parity
            Operator(op.entries, parity_pairing=(pairing, parity))
        with pytest.raises(ValueError, match="anticommute"):
            Operator(op.entries, parity_pairing=(parity, parity))
        with pytest.raises(DimensionError):
            Operator(op.entries[:4, :4], parity_pairing=op.parity_pairing)

    def test_drops_maps_that_are_not_symmetries(self, monkeypatch):
        op = self.lifted()
        shapes = []
        eigh = np.linalg.eigh

        def recorded(matrix, *args, **kwargs):
            shapes.append(np.shape(matrix))
            return eigh(matrix, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", recorded)
        # flat index 0 is site 0 of the first sector; P sends it to index 1, S to
        # index d - 1 (site 1 of the last sector).  The first shift breaks only
        # S H S^T = -H, the second only P H P^T = H.
        for shifts in ({0: 0.5, 1: 0.5}, {0: 0.5, -1: -0.5}):
            m = op.entries.copy()
            for k, shift in shifts.items():
                m[k, k] += shift
            broken = Operator(m, parity_pairing=op.parity_pairing)
            assert broken.parity_pairing is None
            shapes.clear()
            factorize(broken)
            assert shapes == [(op.dim, op.dim)]

    def test_plain_copy_drops_the_maps(self):
        op = self.lifted()
        assert op.parity_pairing is not None
        assert Operator(op.entries).parity_pairing is None


class TestRealDtype:
    """Real operators factorized by real LAPACK agree with the complex routines."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_real_routes_match_complex_cast(self, data):
        d = data.draw(st.integers(2, 40), label="d")
        symmetric = data.draw(st.booleans(), label="symmetric")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        s = rng.uniform(0.5, 3.0, size=d)
        # some draws plant a small singular value, on either side of the v check
        exponent = data.draw(st.one_of(st.none(), st.floats(-8.0, 0.0)), label="planted")
        if exponent is not None:
            s[0] = 10.0**exponent
        q = np.linalg.qr(rng.normal(size=(d, d)))[0]
        if symmetric:
            m = (q * (s * rng.choice([-1.0, 1.0], size=d))) @ q.T
            m = 0.5 * (m + m.T)
        else:
            m = (q * s) @ np.linalg.qr(rng.normal(size=(d, d)))[0].T
        op = Operator(m)
        assert op.entries.dtype == np.float64
        cast = m.astype(complex)

        spectrum = factorize(op)
        assert spectrum.right.dtype == np.float64
        u_ref, s_ref, vh_ref = np.linalg.svd(cast)
        assert np.abs(np.sort(spectrum.sigma)[::-1] - s_ref).max() <= 1e-12 * s_ref[0]

        res = solve_landscape(op)
        assert res.v_complex.dtype == np.float64
        if s_ref[-1] ** 2 > 1e-10 * s_ref[0] ** 2:
            v_ref = vh_ref.conj().T @ ((vh_ref @ np.ones(d)) / s_ref**2)
            assert np.abs(res.v_complex - v_ref).max() <= 1e-9 * np.abs(v_ref).max()

        # conjugate pairs may come out in either order, so each eigenvalue
        # is matched to its nearest partner both ways
        values = eig_general(op).values
        assert values.dtype == np.complex128
        ref = np.linalg.eig(cast)[0]
        gap = np.abs(values[:, None] - ref[None, :])
        assert max(gap.min(axis=0).max(), gap.min(axis=1).max()) <= 1e-10 * np.linalg.norm(m, 2)


class TestEigGeneral:
    def test_jordan_block_flagged_defective(self):
        res = eig_general(Operator([[0, 1], [0, 0]]))
        assert np.allclose(res.values, [0.0, 0.0])

    def test_hatano_nelson_similarity_spectrum(self):
        # open-boundary asymmetric chain shares its spectrum with the
        # symmetrized chain of hopping sqrt(t_L t_R) = 0.5
        res = eig_general(hatano_nelson(4, 1.0, 0.25))
        expected = np.sort(2.0 * 0.5 * np.cos(np.arange(1, 5) * math.pi / 5.0))
        assert np.abs(res.values.imag).max() < 1e-10
        assert np.abs(np.sort(res.values.real) - expected).max() < 1e-10

    def test_diagonal_imaginary(self):
        res = eig_general(Operator(np.diag([1j, -1j])))
        assert np.allclose(res.values, [-1j, 1j])

    def test_residual_contract(self, rng):
        m = random_complex(rng, 9)
        res = eig_general(Operator(m))
        scale = np.linalg.norm(m)
        for k in range(9):
            resid = np.linalg.norm(m @ res.vectors[:, k] - res.values[k] * res.vectors[:, k])
            assert resid <= 1e-8 * scale


class TestSmallestSingularValue:
    def test_identity(self):
        assert solve_landscape(Operator(np.eye(5))).sigma_min == pytest.approx(1.0)

    def test_singular(self):
        assert solve_landscape(Operator([[1, 1], [1, 1]])).sigma_min == pytest.approx(0.0, abs=1e-14)

    def test_variational_upper_bound(self, rng):
        op = Operator(random_complex(rng, 10))
        smin = solve_landscape(op).sigma_min
        for _ in range(100):
            x = rng.normal(size=10) + 1j * rng.normal(size=10)
            x /= np.linalg.norm(x)
            assert np.linalg.norm(op.entries @ x) >= smin - 1e-12

    def test_bounded_by_quasienergy_at_tunneling_suppression(self):
        # near-null direction of the extended-space operator at a
        # suppression point: sigma_min <= |smallest folded quasienergy|
        from locland import (
            build_sambe_mono,
            monodromy_quasienergies_sweep,
            two_level_drive_mono,
            two_level_static,
        )

        omega = 10.0
        a_star = j0_zero_bisection(2.0, 3.0) * omega
        lifted = build_sambe_mono(
            two_level_static(1.0), two_level_drive_mono(a_star), omega, 6
        )
        smin = solve_landscape(lifted.matrix).sigma_min
        eps = monodromy_quasienergies_sweep(1.0, [a_star], omega, dt=2.0 * math.pi / omega / 8000)[0]
        assert smin <= min(abs(eps[0]), abs(eps[1])) + 1e-9


class TestPseudoSolve:
    def test_diagonal_inverse(self):
        res = pseudo_solve(Operator(np.diag([1.0, 4.0])), np.array([1.0, 1.0]))
        assert np.allclose(res.x, [1.0, 0.25])
        assert res.discarded_rank == 0

    def test_singular_direction_dropped(self):
        res = pseudo_solve(Operator(np.diag([1.0, 0.0])), np.array([1.0, 1.0]), rcond=1e-12)
        assert np.allclose(res.x, [1.0, 0.0])
        assert res.discarded_rank == 1 and not res.degenerate

    def test_matches_gaussian_elimination_oracle(self, rng):
        m = random_hermitian_pd(rng, 6)
        b = rng.normal(size=6) + 1j * rng.normal(size=6)
        res = pseudo_solve(Operator(m), b)
        expected = gaussian_elimination_solve(m, b)
        assert np.abs(res.x - expected).max() < 1e-9 * np.abs(expected).max()

    def test_degenerate_zero_matrix(self):
        res = pseudo_solve(Operator(np.zeros((3, 3))), np.ones(3))
        assert res.degenerate and np.array_equal(res.x, np.zeros(3))

    def test_solution_orthogonal_to_discarded_space(self, rng):
        q = np.linalg.qr(random_complex(rng, 5))[0]
        lam = np.array([0.0, 0.0, 1.0, 2.0, 3.0])
        m = (q * lam) @ q.conj().T
        res = pseudo_solve(Operator(0.5 * (m + m.conj().T)), np.ones(5))
        for k in range(2):
            assert abs(q[:, k].conj() @ res.x) < 1e-10

    def test_input_validation(self):
        with pytest.raises(ValueError):
            pseudo_solve(Operator(np.eye(2)), np.ones(2), rcond=2.0)
        with pytest.raises(DimensionError):
            pseudo_solve(Operator(np.eye(2)), np.ones(3))
        with pytest.raises(HermiticityError):
            pseudo_solve(Operator([[0, 1], [0, 0]]), np.ones(2))
        with pytest.raises(ValueError):
            pseudo_solve(Operator(np.diag([1.0, -1.0])), np.ones(2))


class TestBesselJ0:
    def test_first_zero_from_series_bisection(self):
        root = j0_zero_bisection(2.0, 3.0)
        assert abs(root - 2.404825557695773) < 1e-11

    def test_series_oracle_at_one(self):
        assert j0_series(1.0) == pytest.approx(0.7651976865579666, abs=1e-15)


class TestKernelInvariants:
    def test_singular_values_vs_normal_spectrum(self, rng):
        for n in (3, 6, 11):
            op = Operator(random_complex(rng, n))
            smin = solve_landscape(op).sigma_min
            lam = factorize(normal_operator(op)).energies
            assert abs(smin - np.sqrt(max(lam[0], 0.0))) < 1e-10

    def test_pseudo_solve_full_rank_equals_direct(self, rng):
        m = random_hermitian_pd(rng, 8)
        b = rng.normal(size=8)
        x = pseudo_solve(Operator(m), b).x
        direct = np.linalg.solve(m, b.astype(complex))
        assert np.abs(x - direct).max() < 1e-9 * np.abs(direct).max()

    def test_eig_general_residuals_frobenius(self, rng):
        m = random_complex(rng, 14)
        res = eig_general(Operator(m))
        fro = np.linalg.norm(m)
        resid = np.linalg.norm(m @ res.vectors - res.vectors * res.values, axis=0)
        assert resid.max() <= 1e-8 * fro
