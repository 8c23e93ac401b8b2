"""Correlation extraction, decay-bound and fitting tests."""

import warnings

import mpmath
import numpy as np
import pytest

import gausstopo as gt
from gausstopo import correlations as corr
from gausstopo import engine
from gausstopo.errors import FitFailedError, UnsupportedStateError, ValidationError


class TestDMSBound:
    def test_unit_squeezing_closed_form(self):
        bound = corr.dms_bound(1.0)
        assert bound.a_spec == pytest.approx(1.0)
        assert bound.b_spec == pytest.approx(9.0)
        assert bound.q_ratio == pytest.approx(0.5)
        assert bound.xi == pytest.approx(2 / np.log(2))
        assert bound.c_const == pytest.approx(4 / 9)

    def test_length_grows_with_squeezing(self):
        xis = [corr.dms_bound(np.exp(ls)).xi for ls in (0.0, 1.0, 3.0)]
        assert xis[0] < xis[1] < xis[2]

    @pytest.mark.parametrize("log_s", [-4.0, -8.0, -9.0, -10.0, 0.0, 3.0])
    def test_length_against_mpmath(self, log_s):
        # root - 1 cancels for 8 s^4 below eps; the bound takes it as
        # 8 s^4 / (root + 1)
        s = float(np.exp(log_s))
        with mpmath.workdps(50):
            root = mpmath.sqrt(8 * mpmath.mpf(s) ** 4 + 1)
            exact = 2 / mpmath.log((root + 1) / (root - 1))
            assert abs(corr.dms_bound(s).xi - exact) <= 1e-13 * exact

    def test_rejects_non_positive(self):
        with pytest.raises(ValidationError):
            corr.dms_bound(-1.0)


class TestCorrelationEntries:
    def test_cross_block_zero(self, surface_state):
        _, cov = surface_state(8, 8, 1.0)
        assert np.abs(cov.qp_block).max() == 0.0

    def test_p_block_entries(self, surface_state):
        spec, cov = surface_state(8, 8, 1.0)
        s = spec.s
        adj = gt.surface_code_adjacency(spec)
        i = 0
        j = int(np.flatnonzero(adj[0])[0])
        far = int(np.flatnonzero(adj[0] == 0)[-1])
        assert corr.pp_correlation(cov, i, i) == pytest.approx(0.5 * (2 * s ** 2 + s ** -2))
        assert corr.pp_correlation(cov, i, j) == pytest.approx(0.5 * s ** 2)
        assert corr.pp_correlation(cov, i, far) == 0.0

    def test_pp_reads_u_entries_without_the_block(self):
        # a U-native state reads kappa/2 U[i, j] from the stored entries of
        # U's column j and builds no N x N p block
        spec = gt.LatticeSpec(64, 64, "torus", 1.0)
        graph = gt.surface_code_graph_analytic(spec)
        cov = engine.covariance_from_graph(graph)
        u = graph.u_part
        i = 5 * spec.cols + 7
        neighbour = int(np.flatnonzero(u[i])[-1])
        far = int(np.flatnonzero(u[i] == 0)[-1])
        for kappa in (1.0, 10.0):
            state = engine.thermal_scale(cov, kappa)
            for j in (i, neighbour, far, -1):
                assert corr.pp_correlation(state, i, j) == 0.5 * kappa * u[i, j]
            with pytest.raises(IndexError):
                corr.pp_correlation(state, i, spec.n_nodes)
            assert state._p is None
        assert cov._p is None

    def test_q_diagonal_spectral_bound(self, surface_state):
        spec, cov = surface_state(8, 8, 1.0)
        bound = corr.dms_bound(spec.s)
        for kappa in (1.0, 4.0):
            scaled = engine.thermal_scale(cov, kappa) if kappa > 1 else cov
            diag = max(corr.qq_correlation(scaled, i, i) for i in range(64))
            assert diag <= kappa / (2 * bound.a_spec) + 1e-12

    def test_determinism(self, surface_state):
        spec, _ = surface_state(12, 12, 3.2)
        a = engine.covariance_from_graph(gt.surface_code_graph_analytic(spec))
        b = engine.covariance_from_graph(gt.surface_code_graph_analytic(spec))
        i = spec.n_nodes // 2
        assert corr.qq_correlation(a, i, i) == corr.qq_correlation(b, i, i)

    def test_requires_block_diagonal(self, cluster_state):
        _, cov = cluster_state(4, 4, 0.0)
        with pytest.raises(UnsupportedStateError):
            corr.qq_correlation(cov, 0, 1)


class TestGraphDistance:
    def test_examples(self):
        spec = gt.LatticeSpec(16, 16, "planar", 0.0)
        assert corr.graph_distance(spec, 5, 5) == 0
        assert corr.graph_distance(spec, 0, 2 * 16 + 1) == 2

    def test_torus_wrap(self):
        spec = gt.LatticeSpec(16, 16, "torus", 0.0)
        assert corr.graph_distance(spec, 0, 15) == 1
        assert corr.graph_distance(spec, 0, 15 * 16) == 1

    def test_euclidean_sandwich(self):
        spec = gt.LatticeSpec(20, 20, "torus", 0.0)
        rng = np.random.default_rng(13)
        for _ in range(100):
            i, j = rng.integers(spec.n_nodes, size=2)
            d = corr.graph_distance(spec, int(i), int(j))
            ed = corr.euclidean_distance(spec, int(i), int(j))
            assert ed / np.sqrt(2) - 1e-12 <= d <= ed + 1e-12


class TestVerifyBound:
    def test_zero_violations(self, surface_state):
        spec, cov = surface_state(16, 16, 1.0)
        report = corr.verify_bound(cov, spec)
        assert report["n_violations"] == 0
        assert report["max_violation"] == 0.0
        assert 0 < report["max_ratio"] < 1

    def test_pair_count_excludes_short_range(self, surface_state):
        spec, cov = surface_state(16, 16, 1.0)
        report = corr.verify_bound(cov, spec)
        expected = sum(
            1 for i in range(spec.n_nodes) for j in range(i + 1, spec.n_nodes)
            if corr.graph_distance(spec, i, j) >= 3)
        assert report["n_pairs"] == expected

    @pytest.mark.parametrize("log_s", [-3.0, -4.0, -8.0])
    def test_rounding_noise_is_no_violation(self, surface_state, log_s):
        # the envelope falls below the rounding of the far U^-1 entries
        spec, cov = surface_state(12, 12, log_s)
        report = corr.verify_bound(cov, spec)
        assert report["n_violations"] == 0 and report["max_violation"] == 0.0
        assert report["noise_floor"] == pytest.approx(
            8 * np.finfo(float).eps * (1 + 8 * spec.s ** 4) * np.abs(cov.q_block).max() * 2)

    def test_halved_envelope_is_violated(self, surface_state, monkeypatch):
        # the noise floor hides no real excess.  The DMS envelope sits above
        # every pair by a factor of about 15 here, so scale it down to the
        # tightest envelope the correlations meet, then halve that
        spec, cov = surface_state(12, 12, 1.0)
        bound = corr.dms_bound(spec.s)
        tightest = corr.verify_bound(cov, spec)["max_ratio"]
        assert 0 < tightest < 1
        halved = corr.CorrelationBound(0.5 * tightest * bound.c_const, bound.xi,
                                       bound.a_spec, bound.b_spec)
        monkeypatch.setattr(corr, "dms_bound", lambda s: halved)
        report = corr.verify_bound(cov, spec)
        assert report["n_violations"] > 0
        assert report["max_violation"] > 1e6 * report["noise_floor"]

    def test_thermal_scaling(self, surface_state):
        spec, cov = surface_state(12, 12, 1.0)
        report = corr.verify_bound(engine.thermal_scale(cov, 5.0), spec)
        assert report["n_violations"] == 0

    @pytest.mark.parametrize("kappa", [1.0, 5.0])
    @pytest.mark.parametrize("log_s", [-8.0, -4.0, -3.0, 0.5, 2.0, 3.25, 5.0])
    @pytest.mark.parametrize("rows,cols", [(4, 4), (8, 12), (12, 12), (16, 6), (10, 20),
                                           (20, 20)])
    def test_translation_classes_match_all_pairs(self, surface_state, rows, cols, log_s,
                                                 kappa):
        # an even torus reads the two cell columns; a dense hand-built copy
        # of the same state reads all N x N pairs
        spec, cov = surface_state(rows, cols, log_s)
        cov = engine.thermal_scale(cov, kappa)
        report = corr.verify_bound(cov, spec)
        assert report == corr.verify_bound(engine.CovMatrix(cov.gamma, kappa=cov.kappa), spec)

    @pytest.mark.parametrize("rows,cols", [(12, 12), (8, 16)])
    def test_translation_classes_count_violations(self, surface_state, monkeypatch, rows,
                                                  cols):
        spec, cov = surface_state(rows, cols, 1.0)
        cov = engine.thermal_scale(cov, 1.0)
        bound = corr.dms_bound(spec.s)
        tight = corr.CorrelationBound(0.01 * bound.c_const, bound.xi,
                                      bound.a_spec, bound.b_spec)
        monkeypatch.setattr(corr, "dms_bound", lambda s: tight)
        report = corr.verify_bound(cov, spec)
        assert 0 < report["n_violations"] < report["n_pairs"]
        assert report == corr.verify_bound(engine.CovMatrix(cov.gamma, kappa=cov.kappa), spec)

    def test_even_torus_builds_no_block(self, surface_state):
        spec, cov = surface_state(16, 16, 1.0)
        cov = engine.thermal_scale(cov, 2.0)  # a copy with no block built
        corr.verify_bound(cov, spec)
        assert cov._cell is not None
        assert cov._q is None and cov._gamma is None and cov._p is None


class TestAxisSamples:
    def test_planar_truncates_at_boundary(self, surface_state):
        spec, cov = surface_state(12, 12, 1.0, "planar")
        seps, vals = corr.axis_samples(cov, spec, max_separation=30, axis="row")
        assert seps[-1] < 30
        assert seps.size == vals.size
        assert (vals >= 0).all()

    def test_invalid_axis(self, surface_state):
        spec, cov = surface_state(12, 12, 1.0)
        with pytest.raises(ValidationError):
            corr.axis_samples(cov, spec, axis="spiral")

    @pytest.mark.parametrize("rows,cols", [(1, 20), (20, 1), (1, 1)])
    @pytest.mark.parametrize("axis", ["row", "col", "diagonal", "antidiagonal"])
    def test_one_wide_lattice_has_no_center(self, surface_state, rows, cols, axis):
        # the center (n//2 - 1, m//2 - 1) would be a negative, wrapping index
        spec, cov = surface_state(rows, cols, 1.0, "planar")
        with pytest.raises(ValidationError, match="at least 2 wide"):
            corr.axis_samples(cov, spec, axis=axis)

    @pytest.mark.parametrize("shape", [(12, 12), (12, 30), (20, 21)])
    def test_grid_must_match_the_state(self, surface_state, shape):
        # a 20 x 20 state read through another grid: its center and steps
        # land on other modes, or outside the state
        _, cov = surface_state(20, 20, 1.0, "planar")
        with pytest.raises(ValidationError, match="does not match the mode grid"):
            corr.axis_samples(cov, gt.LatticeSpec(*shape, "planar", 1.0))


def fit_oracle(d, y):
    """(xi_a, xi_b, residual) of scipy's least_squares on the variable
    projection residual in raw xi, from the same start."""
    from scipy.optimize import least_squares

    def resid(xi):
        basis = np.column_stack([np.exp(-d / xi[0]), np.exp(-d / xi[1])])
        coef, *_ = np.linalg.lstsq(basis, y, rcond=None)
        return np.log(np.clip(basis @ coef, 1e-300, None)) - np.log(y)

    sol = least_squares(resid, [0.5, 3.0], max_nfev=500)
    assert sol.success
    return (*sorted(sol.x), float(np.sqrt(np.mean(sol.fun ** 2))))


def fit_samples(rows, cols, boundary, log_s, max_separation=None):
    spec = gt.LatticeSpec(rows, cols, boundary, log_s)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the planar closed form warns
        cov = engine.covariance_from_graph(gt.surface_code_graph_analytic(spec))
    return corr.axis_samples(cov, spec, max_separation=max_separation)


class TestFit:
    def test_synthetic_round_trip(self):
        d = np.arange(1.0, 13.0)
        y = 0.8 * np.exp(-d / 0.4) + 0.05 * np.exp(-d / 2.5)
        a, xi_a, b, xi_b, residual = corr.fit_correlation_length(d, y)
        assert (a, xi_a, b, xi_b) == pytest.approx((0.8, 0.4, 0.05, 2.5), abs=1e-6)
        assert residual < 1e-8

    def test_deterministic(self):
        d = np.arange(1.0, 12.0)
        y = 0.5 * np.exp(-d / 0.7) + 0.02 * np.exp(-d / 3.0)
        first = corr.fit_correlation_length(d, y)
        second = corr.fit_correlation_length(d, y)
        assert first == second

    def test_needs_eight_points(self):
        d = np.arange(1.0, 6.0)
        with pytest.raises(ValidationError):
            corr.fit_correlation_length(d, np.exp(-d))

    def test_fitted_length_below_analytic(self, surface_state):
        spec, cov = surface_state(20, 20, 1.0)
        seps, vals = corr.axis_samples(cov, spec)
        _, _, _, xi_b, _ = corr.fit_correlation_length(seps, vals)
        assert xi_b <= corr.dms_bound(spec.s).xi

    @pytest.mark.parametrize("data", ["synthetic", "criterion-7", "torus-20"])
    def test_matches_least_squares(self, data):
        if data == "synthetic":
            d = np.arange(1.0, 13.0)
            samples = d, 0.8 * np.exp(-d / 0.4) + 0.05 * np.exp(-d / 2.5)
        elif data == "criterion-7":
            samples = fit_samples(36, 36, "planar", 3.2, max_separation=13)
        else:
            samples = fit_samples(20, 20, "torus", 1.0)
        _, xi_a, _, xi_b, residual = corr.fit_correlation_length(*samples)
        oracle = fit_oracle(*samples)
        assert (xi_a, xi_b) == pytest.approx(oracle[:2], rel=1e-7, abs=0)
        assert residual == pytest.approx(oracle[2], rel=1e-7, abs=1e-10)

    @pytest.mark.parametrize("log_s", [3.15, 3.2, 3.25])
    def test_degenerate_data_stops_on_the_diagonal(self, log_s):
        # the 20 x 20 planar samples have no two-length fit: both fits stop
        # with xi_a ~ xi_b at the same misfit, and this one stays positive
        samples = fit_samples(20, 20, "planar", log_s, max_separation=13)
        fit = corr.fit_correlation_length(*samples)
        assert np.all(np.isfinite(fit))
        xi_a, xi_b, residual = fit_oracle(*samples)
        assert 0 < fit[1] <= fit[3]
        assert (fit[1], fit[3]) == pytest.approx((xi_a, xi_b), rel=1e-4)
        assert fit[4] == pytest.approx(residual, rel=1e-9)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("which", [0, 1])
    def test_non_finite_samples_refused(self, capfd, bad, which):
        # they escaped as LinAlgError("SVD did not converge"), with LAPACK
        # noise on stderr
        samples = [np.arange(1.0, 13.0), np.exp(-np.arange(1.0, 13.0))]
        samples[which][5] = bad
        with pytest.raises(ValidationError, match="must be finite"):
            corr.fit_correlation_length(*samples)
        assert capfd.readouterr().err == ""

    @pytest.mark.parametrize("shape", [(12, 1), (1, 12), (3, 4)])
    def test_samples_must_be_1d(self, shape):
        # they escaped as a matmul ValueError
        d = np.arange(1.0, 13.0).reshape(shape)
        with pytest.raises(ValidationError, match="must be 1-d"):
            corr.fit_correlation_length(d, np.exp(-d))
        with pytest.raises(ValidationError, match="must be 1-d"):
            corr.fit_correlation_length(np.arange(1.0, 13.0), np.exp(-d))

    def test_budget_exhausted_raises(self, monkeypatch):
        samples = fit_samples(36, 36, "planar", 3.2, max_separation=13)
        assert corr._FIT_EVALUATIONS == 500
        monkeypatch.setattr(corr, "_FIT_EVALUATIONS", 10)
        with pytest.raises(FitFailedError, match="10 evaluations") as failed:
            corr.fit_correlation_length(*samples)
        assert failed.value.residuals.shape == samples[0].shape


class TestAreaLaw:
    def test_positive_slope(self, surface_state):
        spec, cov = surface_state(16, 16, 1.0)
        alpha, gamma = corr.area_law_fit(cov, spec, sizes=range(2, 6))
        assert alpha > 0

    def test_region_must_fit(self, surface_state):
        spec, cov = surface_state(12, 12, 1.0)
        with pytest.raises(ValidationError, match="square of side 14 does not fit"):
            corr.area_law_fit(cov, spec, sizes=[2, 14], offset=(0, 0))

    @pytest.mark.parametrize("offset", [(2, -1), (-1, 2)])
    def test_negative_offset_refused(self, surface_state, offset):
        # (2, -1) would wrap each square's first column onto the previous
        # row's last mode, and (-1, 2) would start before mode 0
        spec, cov = surface_state(12, 12, 1.0, "planar")
        with pytest.raises(ValidationError, match="square of side 2 does not fit"):
            corr.area_law_fit(cov, spec, offset=offset)

    @pytest.mark.parametrize("sizes", [[], [3], [2, 2], (4, 4, 4)])
    def test_fewer_than_two_sizes_refused(self, surface_state, sizes):
        # one perimeter fits no line: before, [2, 2] returned a line through
        # one point and [] escaped from max() as a bare ValueError
        spec, cov = surface_state(12, 12, 1.0, "planar")
        with pytest.raises(ValidationError, match="two distinct square sizes"):
            corr.area_law_fit(cov, spec, sizes=sizes)

    @pytest.mark.parametrize("shape", [(12, 12), (12, 30), (21, 20)])
    def test_grid_must_match_the_state(self, surface_state, shape):
        # a 20 x 20 state read through another grid, whose squares would be
        # other sets of modes, or leave the state
        _, cov = surface_state(20, 20, 1.0, "planar")
        with pytest.raises(ValidationError, match="does not match the mode grid"):
            corr.area_law_fit(cov, gt.LatticeSpec(*shape, "planar", 1.0), sizes=range(2, 6))


class TestFactoredReads:
    def test_columns_from_one_solve_per_call(self, monkeypatch, request):
        # a V = 0 state serves the axis samples and the nested squares from
        # one solve each and builds neither gamma nor the q block
        spec = gt.LatticeSpec(20, 20, "planar", 2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the planar closed form warns
            graph = gt.surface_code_graph_analytic(spec)
        dense = engine.CovMatrix(engine.covariance_from_graph(graph).gamma)
        seps_ref, vals_ref = corr.axis_samples(dense, spec)
        fit_ref = corr.area_law_fit(dense, spec)

        counts = request.getfixturevalue("factor_counts")
        cov = engine.covariance_from_graph(graph)

        def no_block(cov):
            raise AssertionError("a U-native state reads columns, not blocks")

        for name in ("gamma", "q_block"):
            monkeypatch.setattr(engine.CovMatrix, name, property(no_block))
        seps, vals = corr.axis_samples(cov, spec)
        assert counts == {"factor": 1, "solve": 1, "p_nodes": 1}
        fit = corr.area_law_fit(cov, spec)
        assert counts == {"factor": 1, "solve": 2, "p_nodes": 1}
        assert np.array_equal(seps, seps_ref)
        assert vals == pytest.approx(vals_ref, rel=1e-10)
        assert fit == pytest.approx(fit_ref, abs=1e-8)
