import csv
import json
import math

import numpy as np
import pytest
import scipy.stats

from locland import (
    DegenerateInputError,
    DimensionError,
    HermiticityError,
    Operator,
    SshConfig,
    SweepReport,
    average_right_density,
    bbh,
    bbh_site_coords,
    detect_peaks,
    floquet_dos,
    fold_quasienergy,
    gauge_eigh,
    hatano_nelson,
    midgap_report,
    pearson,
    solve_landscape,
    spearman,
    ssh,
)
from locland.diagnostics import _average_ranks, estimate_midgap_window, peak_site, write_csv
from locland.linalg import weighted_mean_site

from conftest import random_complex
from oracles import average_ranks_loop


class TestAverageRightDensity:
    def test_diagonal_gives_uniform(self):
        dens = average_right_density(Operator(np.diag([0.3, 1.7, -2.2, 0.9])))
        assert np.allclose(dens, 0.25)

    def test_hermitian_chain_is_symmetric(self):
        dens = average_right_density(hatano_nelson(21, 1.0, 1.0))
        assert np.abs(dens - dens[::-1]).max() < 1e-10

    def test_skin_chain_left_edge(self):
        dens = average_right_density(hatano_nelson(120, 1.0, 0.9))
        assert int(np.argmax(dens)) + 1 <= 5

    def test_normalization(self, rng):
        dens = average_right_density(Operator(random_complex(rng, 17)))
        assert abs(dens.sum() - 1.0) < 1e-12

    def test_gauge_density_cannot_overflow(self):
        # D^2 spans exp(916) here, past float64; rescaled by its maximum D
        # cannot overflow, and the skin modes pile up on the right edge
        dens = average_right_density(hatano_nelson(200, 1.0, 1e4))
        assert np.all(np.isfinite(dens)) and abs(dens.sum() - 1.0) < 1e-12
        assert int(np.argmax(dens)) + 1 == 200

    def test_gauge_eigenvectors_are_right_eigenvectors(self):
        chain = hatano_nelson(12, 1.0, 0.6)
        eig = gauge_eigh(chain)
        psi = np.exp(chain.log_gauge)[:, None] * eig.vectors
        residual = chain.entries @ psi - psi * eig.values
        assert np.abs(residual).max() <= 1e-13 * np.abs(psi).max()
        assert np.array_equal(average_right_density(chain), average_right_density(chain, eig))


class TestCenters:
    def test_point_mass(self):
        d = np.zeros(10)
        d[0] = 1.0
        assert weighted_mean_site(d) == 1.0

    def test_uniform(self):
        assert weighted_mean_site(np.ones(11)) == pytest.approx(6.0)

    def test_weighted_pair(self):
        assert weighted_mean_site(np.array([3.0, 1.0])) == pytest.approx(1.25)

    def test_degenerate(self):
        with pytest.raises(DegenerateInputError):
            weighted_mean_site(np.zeros(3))


class TestPearson:
    def test_affine(self):
        x = np.array([0.0, 1.0, 2.0, 5.0])
        assert pearson(x, 2.0 * x + 1.0) == pytest.approx(1.0)

    def test_anticorrelated(self):
        x = np.array([1.0, 2.0, 3.0])
        assert pearson(x, -x) == pytest.approx(-1.0)

    def test_hand_value(self):
        # centered products: sum xy = 4, sum x^2 = sum y^2 = 5
        assert pearson(np.array([1.0, 2, 3, 4]), np.array([1.0, 3, 2, 4])) == pytest.approx(0.8)

    def test_symmetric_and_affine_invariant(self, rng):
        x = rng.normal(size=30)
        y = rng.normal(size=30)
        assert pearson(x, y) == pytest.approx(pearson(y, x), rel=1e-12)
        assert pearson(3.0 * x + 2.0, y) == pytest.approx(pearson(x, y), rel=1e-12)

    def test_degenerate(self):
        # a constant input has no correlation: NaN, as for aah's variance_ratio
        assert math.isnan(pearson(np.ones(5), np.arange(5.0)))
        assert math.isnan(pearson(np.ones(5), np.ones(5)))
        with pytest.raises(DimensionError):
            pearson(np.ones(3), np.ones(4))

    def test_constant_input_whose_mean_rounds(self):
        # the float64 mean of 25 copies of 0.1 is 0.10000000000000002, so the
        # centered column is rounding noise, not zero; constancy is still exact
        x = np.full(25, 0.1)
        assert x.mean() != 0.1
        assert math.isnan(pearson(x, np.arange(25.0)))
        assert math.isnan(pearson(x, 2.0 * x))


class TestSpearman:
    def test_monotone(self):
        x = np.array([0.1, 0.5, 2.0, 30.0])
        assert spearman(x, np.exp(x)) == pytest.approx(1.0)

    def test_reversed(self):
        x = np.arange(6.0)
        assert spearman(x, x[::-1]) == pytest.approx(-1.0)

    def test_ties_average_ranks(self):
        x = np.array([1.0, 2.0, 3.0])
        y = np.array([1.0, 1.0, 2.0])
        # ranks of y are (1.5, 1.5, 3); value from the rank-then-pearson oracle
        expected = pearson(np.array([1.0, 2.0, 3.0]), np.array([1.5, 1.5, 3.0]))
        assert spearman(x, y) == pytest.approx(expected, rel=1e-12)
        assert spearman(x, y) == pytest.approx(scipy.stats.spearmanr(x, y).statistic, rel=1e-12)

    def test_average_ranks_match_loop(self, rng):
        # ranks are integers or half-integers, so both routes are exact
        for values in (rng.integers(0, 6, size=40).astype(float), rng.normal(size=30), np.ones(5)):
            assert np.array_equal(_average_ranks(values), average_ranks_loop(values))

    def test_against_scipy(self, rng):
        x = rng.normal(size=40)
        y = rng.normal(size=40)
        assert spearman(x, y) == pytest.approx(scipy.stats.spearmanr(x, y).statistic, rel=1e-10)

    def test_monotone_map_invariance(self, rng):
        x = rng.normal(size=25)
        y = rng.normal(size=25)
        assert spearman(np.exp(x), y) == pytest.approx(spearman(x, y), rel=1e-12)

    def test_all_equal_degenerate(self):
        assert math.isnan(spearman(np.ones(4), np.arange(4.0)))


class TestFoldQuasienergy:
    def test_simple(self):
        assert fold_quasienergy(0.6, 1.0) == pytest.approx(-0.4)

    def test_half_open_edge(self):
        assert fold_quasienergy(0.5, 1.0) == -0.5
        assert fold_quasienergy(-0.5, 1.0) == -0.5

    def test_repeated_shift_oracle(self):
        value = -2.3
        shifted = value
        while shifted < -0.5:
            shifted += 1.0
        while shifted >= 0.5:
            shifted -= 1.0
        assert fold_quasienergy(-2.3, 1.0) == pytest.approx(shifted)
        assert fold_quasienergy(-2.3, 1.0) == pytest.approx(-0.3)

    def test_periodicity(self, rng):
        for _ in range(50):
            e = rng.normal() * 5.0
            omega = rng.uniform(0.5, 3.0)
            k = rng.integers(-3, 4)
            assert fold_quasienergy(e + k * omega, omega) == pytest.approx(
                fold_quasienergy(e, omega), abs=1e-12
            )

    def test_in_interval(self, rng):
        for _ in range(200):
            folded = fold_quasienergy(rng.normal() * 20.0, 2.0)
            assert -1.0 <= folded < 1.0


class TestFloquetDos:
    def test_single_energy_central_bin(self):
        centers, density = floquet_dos(np.array([0.0]), 1.0, 0.01)
        nonzero = np.flatnonzero(density)
        assert nonzero.size == 1
        assert abs(centers[nonzero[0]]) <= 0.01  # x = 0 sits on a bin edge

    def test_replica_ladder_folds_to_zero(self):
        energies = np.arange(-5, 6) * 2.0
        centers, density = floquet_dos(energies, 2.0, 0.01)
        nonzero = np.flatnonzero(density)
        assert nonzero.size == 1
        assert abs(centers[nonzero[0]]) < 0.01

    def test_uniform_grid_flat_density(self):
        # equally many samples strictly inside every bin: density exactly 1
        omega = 2.0
        x = -0.5 + (np.arange(400) + 0.5) / 400.0
        _, density = floquet_dos(omega * x, omega, 0.01)
        assert np.abs(density - 1.0).max() < 1e-12

    def test_integral_one(self, rng):
        energies = rng.normal(size=300) * 4.0
        centers, density = floquet_dos(energies, 1.7, 0.02)
        dx = centers[1] - centers[0]
        assert abs(density.sum() * dx - 1.0) < 1e-12
        assert np.all(density >= 0.0)

    def test_validation(self):
        with pytest.raises(DegenerateInputError):
            floquet_dos(np.array([]), 1.0)
        with pytest.raises(ValueError):
            floquet_dos(np.array([0.0]), 1.0, bin_width=1.5)


class TestDetectPeaks:
    def test_single_triangle(self):
        peaks = detect_peaks(np.array([0.0, 1.0, 0.0]), np.array([0.0, 1.0, 2.0]))
        assert len(peaks) == 1
        assert peaks[0][0] == pytest.approx(1.0)
        assert peaks[0][1] == pytest.approx(1.0)

    def test_monotone_empty(self):
        assert detect_peaks(np.arange(10.0), np.arange(10.0)) == []

    def test_sine_squared_maxima(self):
        grid = np.arange(0.0, 2.0 + 1e-12, 0.01)
        series = np.sin(np.pi * grid) ** 2
        peaks = detect_peaks(series, grid)
        assert len(peaks) == 2
        assert abs(peaks[0][0] - 0.5) < 0.01
        assert abs(peaks[1][0] - 1.5) < 0.01

    def test_prominence_filter(self):
        grid = np.arange(7.0)
        series = np.array([0.0, 10.0, 0.2, 0.5, 0.2, 8.0, 0.0])
        # the bump at grid 3 rises 0.3 above its flanking valleys, below
        # 0.1 * (max - min); the two real peaks rise far above theirs
        assert [round(p) for p, _ in detect_peaks(series, grid, 0.1)] == [1, 5]
        assert len(detect_peaks(series, grid, 0.001)) == 3

    def test_shift_invariant(self):
        # a 0.02 bump on a flat series: the threshold scales with max - min,
        # not with where the series sits relative to zero
        grid = np.linspace(0.0, 1.0, 41)
        series = -1.0 + 0.02 * np.exp(-(((grid - 0.5) / 0.05) ** 2))
        low = detect_peaks(series, grid)
        high = detect_peaks(series + 10.0, grid)
        assert len(low) == 1
        assert [p for p, _ in high] == pytest.approx([p for p, _ in low], abs=1e-12)
        assert [h - 10.0 for _, h in high] == pytest.approx([h for _, h in low], abs=1e-12)

    def test_validation(self):
        with pytest.raises(DimensionError):
            detect_peaks(np.ones(2), np.ones(2))
        with pytest.raises(ValueError):
            detect_peaks(np.ones(5), np.ones(5), 0.0)


class TestMidgapReport:
    def test_trivial_chain_empty(self):
        res = solve_landscape(ssh(SshConfig("trivial", 20, t_intra=1.0, t_inter=0.5)))
        modes = midgap_report(res.spectrum)
        assert modes == []
        assert estimate_midgap_window(res.spectrum.energies) > 0.0

    def test_topological_chain_two_edge_modes(self):
        res = solve_landscape(ssh(SshConfig("topological", 20, t_intra=0.5, t_inter=1.0)), 1e-30)
        modes = midgap_report(res.spectrum)
        assert len(modes) == 2
        ends = {1, 40}
        for mode in modes:
            assert min(abs(mode.argmax_site - e) for e in ends) <= 3
            assert abs(mode.energy) < 1e-3
        assert min(abs(peak_site(res.peak_profile) - e) for e in ends) <= 3

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    @pytest.mark.parametrize("n_cells", [20, 31])
    def test_mirror_symmetric_chain_reports_first_end(self, n_cells, dtype):
        # both ends of the topological chain peak equally to roundoff; the
        # complex cast bypasses the Operator dtype rule to reach complex LAPACK
        op = ssh(SshConfig("topological", n_cells, t_intra=0.5, t_inter=1.0))
        object.__setattr__(op, "entries", op.entries.astype(dtype))
        res = solve_landscape(op, 1e-24)
        modes = midgap_report(res.spectrum)
        assert res.spectrum.right.dtype == dtype
        assert peak_site(res.peak_profile) == 1
        assert [mode.argmax_site for mode in modes] == [1, 1]

    def test_bbh_four_corner_modes(self):
        modes = midgap_report(solve_landscape(bbh(6, 6, 0.5, 1.0)).spectrum)
        assert len(modes) == 4
        corners = [(1, 1), (12, 1), (1, 12), (12, 12)]
        for mode in modes:
            coords = bbh_site_coords(mode.argmax_site - 1, 6)
            assert min(max(abs(coords[0] - c[0]), abs(coords[1] - c[1])) for c in corners) <= 1

    def test_gauge_route_needs_operator_entries(self):
        # an even Hatano-Nelson chain carries an imaginary gauge, so its solve
        # has no spectrum of H; r = 1 is Hermitian once the gauge is dropped
        op = hatano_nelson(20, 1.0, 1.0)
        with pytest.raises(HermiticityError, match=r"Operator\(op.entries\)"):
            midgap_report(solve_landscape(op).spectrum)
        # the uniform even chain has no level near E = 0
        assert midgap_report(solve_landscape(Operator(op.entries)).spectrum) == []
        skewed = solve_landscape(Operator(hatano_nelson(20, 1.0, 1.3).entries))
        with pytest.raises(HermiticityError):
            midgap_report(skewed.spectrum)

    def test_explicit_window(self):
        res = solve_landscape(Operator(np.diag([0.05, -0.2, 1.0])))
        modes = midgap_report(res.spectrum, energy_window=0.1)
        assert len(modes) == 1
        assert modes[0].energy == pytest.approx(0.05)


class TestPeakSite:
    def test_lowest_of_tied_sites(self):
        assert peak_site(np.array([1.0 - 1e-13, 0.5, 1.0])) == 1

    def test_clear_maximum_wins(self):
        assert peak_site(np.array([1.0 - 1e-11, 0.5, 1.0])) == 3


class TestSweepReport:
    def _simple(self):
        return SweepReport(
            axes={"x": np.array([0.5, 1.5])},
            columns={"value": np.array([1.0, 1.0 / 3.0])},
            metadata={"name": "demo"},
        )

    def test_column_length_validation(self):
        with pytest.raises(ValueError):
            SweepReport(axes={"x": np.arange(3.0)}, columns={"v": np.arange(2.0)})

    def test_nan_needs_degenerate_flag(self):
        with pytest.raises(ValueError):
            SweepReport(axes={"x": np.arange(2.0)}, columns={"v": np.array([1.0, np.nan])})
        SweepReport(
            axes={"x": np.arange(2.0)},
            columns={
                "v": np.array([1.0, np.nan]),
                "degenerate": np.array([False, True]),
            },
        )

    def test_csv_full_precision_roundtrip(self, tmp_path):
        report = self._simple()
        path = tmp_path / "report.csv"
        report.to_csv(path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["x", "value"]
        assert float(rows[2][1]) == 1.0 / 3.0  # %.17g round-trips doubles

    def test_csv_lf_endings(self, tmp_path):
        path = tmp_path / "report.csv"
        self._simple().to_csv(path)
        raw = path.read_bytes()
        assert b"\r" not in raw

    def test_two_axis_row_order(self, tmp_path):
        report = SweepReport(
            axes={"a": np.array([0.0, 1.0]), "b": np.array([10.0, 20.0, 30.0])},
            columns={"v": np.arange(6.0)},
        )
        path = tmp_path / "grid.csv"
        report.to_csv(path)
        rows = list(csv.reader(open(path)))
        assert rows[1][:2] == ["0", "10"]
        assert rows[2][:2] == ["0", "20"]
        assert rows[4][:2] == ["1", "10"]

    def test_write_csv_rejects_unequal_columns(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv(tmp_path / "t.csv", ["a", "b"], [np.arange(3.0), np.arange(2.0)])
        with pytest.raises(ValueError):
            write_csv(tmp_path / "t.csv", ["a", "b"], [np.arange(2.0), np.arange(3.0)])

    def test_write_csv_header_alone_for_empty_columns(self, tmp_path):
        path = tmp_path / "peaks.csv"
        write_csv(path, ["position", "height"], [np.array([]), np.array([])])
        assert path.read_bytes() == b"position,height\n"

    def test_json_structure(self, tmp_path):
        path = tmp_path / "report.json"
        self._simple().to_json(path)
        payload = json.loads(path.read_text())
        assert payload["metadata"] == {"name": "demo"}
        assert payload["axes"]["x"] == [0.5, 1.5]
        assert payload["columns"]["value"][0] == 1.0
