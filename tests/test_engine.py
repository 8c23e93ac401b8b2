"""Gaussian-engine unit tests: graph calculus, spectra, entropies."""

import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gausstopo import correlations, engine, lattice
from gausstopo.errors import (
    IllConditionedGraphError,
    SingularPivotError,
    UnsupportedStateError,
    ValidationError,
)

from conftest import clear_lattice_memos, dense_cut, random_graph, star_pipeline_graph


def two_mode_cluster(s):
    return engine.GaussGraph([[0.0, 1.0], [1.0, 0.0]], s ** -2 * np.eye(2))


def phase_shift_blocks(n_modes, nodes):
    """Blocks of a pi/2 phase shift (q -> p, p -> -q) on the given modes."""
    diag = np.zeros(n_modes)
    diag[list(nodes)] = 1.0
    return np.diag(1.0 - diag), np.diag(diag), np.diag(-diag), np.diag(1.0 - diag)


class TestGaussGraph:
    def test_validation(self):
        with pytest.raises(ValidationError):
            engine.GaussGraph(None, [[1.0, 0.5], [0.4, 1.0]])  # asymmetric U
        with pytest.raises(ValidationError):
            engine.GaussGraph(None, [[1.0, 2.0], [2.0, 1.0]])  # U not pd
        with pytest.raises(ValidationError):
            engine.GaussGraph(np.eye(3), np.eye(2))  # shape mismatch

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("part", ["u", "v"])
    def test_rejects_non_finite(self, bad, part):
        m = np.eye(2)
        m[0, 0] = bad
        with pytest.raises(ValidationError, match="must be finite"):
            engine.GaussGraph(None, m) if part == "u" else engine.GaussGraph(m, np.eye(2))

    def test_rounding_loss_of_definiteness(self):
        # a smallest eigenvalue within n eps w_max of zero is a numerical
        # failure; a clearly indefinite or zero U is invalid input
        eps = np.finfo(float).eps
        with pytest.raises(IllConditionedGraphError):
            engine.GaussGraph(None, np.diag([1.0, -eps]))
        with pytest.raises(ValidationError):
            engine.GaussGraph(None, np.diag([1.0, -4 * eps]))
        with pytest.raises(ValidationError):
            engine.GaussGraph(None, np.zeros((2, 2)))

    def test_v_defaults_to_zero(self):
        g = engine.GaussGraph(None, np.eye(2))
        assert g.is_v_zero()
        assert np.array_equal(g.z_matrix, 1j * np.eye(2))

    def test_immutable(self):
        g = two_mode_cluster(1.0)
        with pytest.raises(ValueError):
            g.u_part[0, 0] = 5.0

    def test_json_round_trip_exact(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            g = random_graph(rng)
            g2 = engine.GaussGraph.from_json(g.to_json())
            assert np.array_equal(g.v_part, g2.v_part)
            assert np.array_equal(g.u_part, g2.u_part)

    def test_json_record_fields(self):
        g = engine.GaussGraph(None, np.eye(2))
        record = json.loads(g.to_json())
        assert record["version"] == 1
        assert record["n_modes"] == 2
        assert record["ordering"] == "qqpp"
        assert record["kappa"] == 1.0
        assert record["v"] is None
        assert record["u"] == [1.0, 0.0, 0.0, 1.0]

    def test_json_rejects_unknown_ordering(self):
        bad = json.dumps({"version": 1, "n_modes": 1, "ordering": "qpqp",
                          "kappa": 1.0, "v": None, "u": [1.0]})
        with pytest.raises(ValidationError):
            engine.GaussGraph.from_json(bad)

    @pytest.mark.parametrize("version", [2, 0, None, "1"])
    def test_json_rejects_other_versions(self, version):
        record = json.loads(engine.GaussGraph(None, np.eye(2)).to_json())
        record["version"] = version
        with pytest.raises(ValidationError, match="version"):
            engine.GaussGraph.from_json(json.dumps(record))

    @pytest.mark.parametrize("part", ["u", "v"])
    def test_json_rejects_size_mismatch(self, part):
        record = {"version": 1, "n_modes": 5, "ordering": "qqpp", "kappa": 1.0,
                  "v": None, "u": np.eye(5).ravel().tolist()}
        record[part] = np.eye(16).ravel().tolist()
        with pytest.raises(ValidationError, match="n_modes"):
            engine.GaussGraph.from_json(json.dumps(record))

    @pytest.mark.parametrize("text", [
        '{"version": 1}',
        '{"version": 1, "n_modes": 1}',
        "not a state record",
        "[1, 2]",
        '{"version": 1, "n_modes": "x", "u": [1.0]}',
    ])
    def test_json_rejects_malformed_records(self, text):
        with pytest.raises(ValidationError):
            engine.GaussGraph.from_json(text)


class TestCovarianceFromGraph:
    def test_vacuum(self):
        cov = engine.covariance_from_graph(engine.GaussGraph(None, [[1.0]]))
        assert np.allclose(cov.gamma, 0.5 * np.eye(2))
        assert cov.kappa == 1.0

    def test_scalar_squeezed(self):
        # U = s^-2 at s = 2: Gamma = diag(2, 1/8)
        cov = engine.covariance_from_graph(engine.GaussGraph(None, [[0.25]]))
        assert np.allclose(cov.gamma, np.diag([2.0, 0.125]))

    def test_nonzero_v(self):
        # V = 1, U = 1: Gamma = 1/2 [[1, 1], [1, 2]]
        cov = engine.covariance_from_graph(engine.GaussGraph([[1.0]], [[1.0]]))
        assert np.allclose(cov.gamma, 0.5 * np.array([[1.0, 1.0], [1.0, 2.0]]))
        assert not cov.block_diagonal

    def test_block_diagonal_when_v_zero(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((4, 4))
        u = m @ m.T + np.eye(4)
        cov = engine.covariance_from_graph(engine.GaussGraph(None, u))
        assert cov.block_diagonal
        assert np.allclose(cov.q_block, 0.5 * np.linalg.inv(u))
        assert np.allclose(cov.p_block, 0.5 * u)

    def test_marks_pure_state(self, monkeypatch):
        parents = []
        for v_part in (None, [[0.0, 1.0], [1.0, 0.0]]):
            cov = engine.covariance_from_graph(engine.GaussGraph(v_part, np.eye(2)))
            hand_built = engine.CovMatrix(cov.gamma)
            assert cov._scaled_pure
            assert not hand_built._scaled_pure
            assert cov.block_diagonal == hand_built.block_diagonal == (v_part is None)
            parents += [cov, hand_built]

        def no_init(*args, **kwargs):
            raise AssertionError("thermal_scale must copy, not re-validate")

        monkeypatch.setattr(engine.CovMatrix, "__init__", no_init)
        for parent in parents:
            scaled = engine.thermal_scale(engine.thermal_scale(parent, 3.0), 2.0)
            assert scaled._scaled_pure == parent._scaled_pure
            assert scaled.block_diagonal == parent.block_diagonal
            assert scaled.kappa == 6.0
            assert np.array_equal(scaled.gamma, 2.0 * (3.0 * parent.gamma))

    def test_ill_conditioned(self):
        with pytest.raises(IllConditionedGraphError):
            engine.covariance_from_graph(
                engine.GaussGraph(None, np.diag([1.0, 1e-15])))

    def test_cond_threshold_uses_two_norm_cond(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            g = random_graph(rng)
            cond = np.linalg.cond(g.u_part)
            assert g._cond == pytest.approx(cond, rel=1e-9)
            engine.covariance_from_graph(g, cond_threshold=cond * (1 + 1e-6))
            with pytest.raises(IllConditionedGraphError):
                engine.covariance_from_graph(g, cond_threshold=cond * (1 - 1e-6))


class TestCovMatrix:
    def test_does_not_alias_input(self):
        gamma = 0.5 * np.eye(4)
        cov = engine.CovMatrix(gamma)
        assert gamma.flags.writeable
        gamma[0, 0] = 7.0
        assert cov.gamma[0, 0] == 0.5

    def test_symmetrizes_within_tolerance(self):
        gamma = 0.5 * np.eye(4)
        gamma[0, 1] = 1e-12
        cov = engine.CovMatrix(gamma)
        assert np.array_equal(cov.gamma, cov.gamma.T)
        assert cov.gamma[0, 1] == 5e-13
        gamma[0, 1] = 1e-9
        with pytest.raises(ValidationError):
            engine.CovMatrix(gamma)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        gamma = 0.5 * np.eye(2)
        gamma[0, 0] = bad
        with pytest.raises(ValidationError, match="must be finite"):
            engine.CovMatrix(gamma)

    @pytest.mark.parametrize("kappa", [0.5, np.nan, np.inf])
    def test_rejects_bad_kappa(self, kappa):
        with pytest.raises(ValidationError, match="kappa"):
            engine.CovMatrix(0.5 * np.eye(2), kappa=kappa)

    @pytest.mark.parametrize("diag", [0.5, 3.0])
    @pytest.mark.parametrize("rel", [0.0, 0.5e-12, 2e-12])
    def test_block_diagonal_matches_per_call_rule(self, diag, rel):
        # the rule the flag records: max|gamma_qp| <= 1e-12 max(1, max|gamma|)
        gamma = diag * np.eye(4)
        gamma[0, 2] = gamma[2, 0] = rel * max(1.0, diag)
        cov = engine.CovMatrix(gamma)
        scale = max(1.0, np.abs(gamma).max())
        assert cov.block_diagonal == (np.abs(gamma[:2, 2:]).max() <= 1e-12 * scale)
        assert cov.block_diagonal == (rel < 1e-12)

    def test_empty_state_block_diagonal(self):
        assert engine.CovMatrix(np.zeros((0, 0))).block_diagonal


class TestSymplecticSpectrum:
    def test_vacuum_half(self):
        cov = engine.CovMatrix(0.5 * np.eye(2))
        spec = engine.symplectic_spectrum(cov, [0])
        assert spec.values == pytest.approx([0.5])

    def test_thermal_scaling(self):
        cov = engine.thermal_scale(engine.CovMatrix(0.5 * np.eye(2)), 3.0)
        spec = engine.symplectic_spectrum(cov, [0])
        assert spec.values == pytest.approx([1.5])

    def test_reference_network_eigenvalue(self):
        # one mode of the 3-mode star-pipeline network at s = 1
        cov = engine.covariance_from_graph(star_pipeline_graph(1.0))
        spec = engine.symplectic_spectrum(cov, [0])
        assert spec.values[0] == pytest.approx(0.5 * np.sqrt(1.5), abs=1e-12)

    def test_fast_path_matches_general(self, surface_state):
        _, cov = surface_state(8, 8, 1.0)
        region = [0, 1, 5, 9, 17, 30]
        fast = engine.symplectic_spectrum(cov, region).values
        slow = engine.symplectic_spectrum(cov, region, force_general=True).values
        assert fast == pytest.approx(slow, abs=1e-9)

    def test_kappa_linearity(self, surface_state):
        _, cov = surface_state(8, 8, 1.0)
        region = list(range(10))
        base = engine.symplectic_spectrum(cov, region).values
        for kappa in (2.0, 10.0):
            scaled = engine.symplectic_spectrum(
                engine.thermal_scale(cov, kappa), region).values
            assert scaled == pytest.approx(kappa * base, abs=1e-10 * kappa)

    def test_empty_region_rejected(self):
        cov = engine.CovMatrix(0.5 * np.eye(2))
        with pytest.raises(ValidationError):
            engine.symplectic_spectrum(cov, [])
        with pytest.raises(ValidationError):
            engine.symplectic_spectrum(cov, [5])

    def test_below_half_rejected(self):
        with pytest.raises(ValidationError):
            engine.SymplecticSpectrum([0.3])

    def test_counts_and_scaled(self):
        spec = engine.SymplecticSpectrum([0.5, 1.2, 0.5 + 1e-12])
        assert spec.n_above == 1
        assert spec.n_half == 2
        assert spec.scaled(2.0).values == pytest.approx([2.4, 1.0, 1.0])
        # modes classified as 1/2 scale to exactly kappa/2
        assert spec.scaled(3.0).values.tolist()[1:] == [1.5, 1.5]
        assert spec.values[0] == 1.2  # sorted descending


class TestEntropyPurity:
    def test_pure_mode_zero_entropy(self):
        assert engine.von_neumann_entropy(engine.SymplecticSpectrum([0.5])) == 0.0

    def test_thermal_entropy_two_bits(self):
        spec = engine.SymplecticSpectrum([1.5])
        assert engine.von_neumann_entropy(spec) == pytest.approx(2.0, abs=1e-14)

    def test_reference_entropy(self):
        sigma = 0.5 * np.sqrt(1.5)
        value = engine.von_neumann_entropy(engine.SymplecticSpectrum([sigma]))
        assert value == pytest.approx(0.525, abs=2e-3)

    def test_entropy_matches_mpmath(self):
        # (s+1/2)log2(s+1/2) - (s-1/2)log2(s-1/2) cancels for large sigma;
        # every mode keeps its relative precision from just above 1/2 + tol_half
        mp = pytest.importorskip("mpmath")
        sigmas = np.concatenate([0.5 + np.logspace(np.log10(1.01e-9), 0, 40),
                                 np.logspace(0.1, 17, 80), [2.0 ** 53, 1e17]])
        with mp.workdps(40):
            for sigma in sigmas:
                hi, lo = mp.mpf(sigma) + mp.mpf(0.5), mp.mpf(sigma) - mp.mpf(0.5)
                ref = float((hi * mp.log(hi) - lo * mp.log(lo)) / mp.log(2))
                value = engine.von_neumann_entropy(engine.SymplecticSpectrum([sigma]))
                assert value == pytest.approx(ref, rel=2e-15, abs=0), sigma

    def test_purity(self):
        assert engine.purity(engine.SymplecticSpectrum([0.5])) == 1.0
        assert engine.purity(engine.SymplecticSpectrum([0.5, 0.5])) == 1.0
        assert engine.purity(engine.SymplecticSpectrum([1.5])) == pytest.approx(1 / 3)

    def test_full_state_purity_random_graphs(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            g = random_graph(rng)
            cov = engine.covariance_from_graph(g)
            spec = engine.symplectic_spectrum(cov, range(g.n_modes))
            assert spec.values == pytest.approx(np.full(g.n_modes, 0.5), abs=1e-9)

    def test_entropy_symmetry(self, surface_state):
        _, cov = surface_state(8, 8, 1.0)
        rng = np.random.default_rng(5)
        region = sorted(rng.choice(cov.n_modes, size=20, replace=False).tolist())
        comp = sorted(set(range(cov.n_modes)) - set(region))
        s_a = engine.von_neumann_entropy(engine.symplectic_spectrum(cov, region))
        s_b = engine.von_neumann_entropy(engine.symplectic_spectrum(cov, comp))
        assert s_a == pytest.approx(s_b, abs=1e-8)


class TestUncertainty:
    def test_gamma_plus_omega_psd(self):
        rng = np.random.default_rng(23)
        for kappa in (1.0, 3.0):
            g = random_graph(rng, n=6)
            cov = engine.thermal_scale(engine.covariance_from_graph(g), kappa)
            herm = cov.gamma + 0.5j * engine.symplectic_form(cov.n_modes)
            assert np.linalg.eigvalsh(herm).min() >= -1e-9


class TestLogNegativity:
    def test_product_state_zero(self):
        cov = engine.CovMatrix(0.5 * np.eye(8))
        assert engine.log_negativity(cov, [0, 2]) == 0.0

    def test_full_region_zero(self, surface_state):
        _, cov = surface_state(8, 8, 1.0)
        assert engine.log_negativity(cov, range(cov.n_modes)) == 0.0

    @staticmethod
    def partial_transpose_negativity(cov, region):
        """Brute force: flip p on the region, then -sum log2 min(1, 2 nu)
        over the symplectic eigenvalues nu of the transposed state."""
        flip = np.ones(2 * cov.n_modes)
        flip[cov.n_modes + np.asarray(region)] = -1.0
        gamma_pt = flip[:, None] * cov.gamma * flip[None, :]
        ev = np.linalg.eigvals(1j * gamma_pt @ engine.symplectic_form(cov.n_modes)).real
        nu = ev[ev > 0]
        return float(-np.sum(np.log2(np.minimum(1.0, 2 * nu))))

    def test_two_mode_fragment_vs_partial_transpose(self):
        s = np.e
        u = s ** 2 * np.array([[0.0, 1.0], [1.0, 0.0]]) \
            + (s ** -2 + 2 * s ** 2) * np.eye(2)
        cov = engine.covariance_from_graph(engine.GaussGraph(None, u))
        value = engine.log_negativity(cov, [0])
        # brute force: flip p_0, take symplectic eigenvalues of the transpose
        flip = np.diag([1.0, 1.0, -1.0, 1.0])
        gamma_pt = flip @ cov.gamma @ flip
        ev = np.linalg.eigvals(1j * gamma_pt @ engine.symplectic_form(2)).real
        nu = np.sort(ev[ev > 0])
        expected = float(-np.sum(np.log2(2 * nu[2 * nu < 1.0])))
        assert value == pytest.approx(expected, abs=1e-9)
        assert value > 0

    @pytest.mark.parametrize("kappa", [1.0, 2.0, 10.0])
    def test_two_mode_kappa_vs_partial_transpose(self, kappa):
        s = np.e
        u = s ** 2 * np.array([[0.0, 1.0], [1.0, 0.0]]) \
            + (s ** -2 + 2 * s ** 2) * np.eye(2)
        pure = engine.covariance_from_graph(engine.GaussGraph(None, u))
        cov = engine.thermal_scale(pure, kappa)
        expected = self.partial_transpose_negativity(cov, [0])
        # the marked state scales the pure-state eigenvalues by kappa^2;
        # its unmarked copy uses both covariance blocks
        for state in (cov, engine.CovMatrix(cov.gamma, kappa=kappa)):
            assert engine.log_negativity(state, [0]) == pytest.approx(expected, abs=1e-9)
        assert (expected > 0) == (kappa == 1.0)

    @pytest.mark.parametrize("kappa", [1.0, 2.0, 10.0])
    def test_lattice_region_vs_partial_transpose(self, surface_state, kappa):
        _, pure = surface_state(8, 8, 1.0)
        cov = engine.thermal_scale(pure, kappa)
        region = [0, 1, 2, 8, 9, 10, 16, 17, 18]
        expected = self.partial_transpose_negativity(cov, region)
        for state in (cov, engine.CovMatrix(cov.gamma, kappa=kappa)):
            assert engine.log_negativity(state, region) == pytest.approx(expected, abs=1e-9)

    @settings(max_examples=200)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 9),
           kappa=st.floats(1.0, 20.0))
    def test_marked_vs_partial_transpose_and_oracle(self, seed, n, kappa):
        # closed form over the pure spectrum against the brute-force
        # transpose and the generalized eigensolve of the unmarked copy
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((n, n))
        pure = engine.covariance_from_graph(engine.GaussGraph(None, m @ m.T + 0.5 * np.eye(n)))
        cov = engine.thermal_scale(pure, kappa)
        region = np.flatnonzero(rng.random(n) < 0.5).tolist() or [int(rng.integers(n))]
        value = engine.log_negativity(cov, region)
        assert value == pytest.approx(self.partial_transpose_negativity(cov, region), abs=1e-10)
        plain = engine.CovMatrix(cov.gamma, kappa=kappa)
        assert value == pytest.approx(engine.log_negativity(plain, region), abs=1e-10)

    @settings(max_examples=50)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 9), kappa=st.floats(1.0, 20.0))
    def test_unmarked_matches_generalized_eigensolve(self, seed, n, kappa):
        # the Cholesky form of the unmarked oracle against scipy's
        # generalized symmetric eigensolve of (M 2Q M, M), M = mu 2P mu
        import scipy.linalg as sla

        rng = np.random.default_rng(seed)
        m = rng.standard_normal((n, n))
        pure = engine.covariance_from_graph(engine.GaussGraph(None, m @ m.T + 0.5 * np.eye(n)))
        plain = engine.CovMatrix(engine.thermal_scale(pure, kappa).gamma, kappa=kappa)
        region = np.flatnonzero(rng.random(n) < 0.5).tolist() or [int(rng.integers(n))]
        if len(region) == n:
            region = region[1:]
        mu = np.ones(n)
        mu[region] = -1.0
        mpm = mu[:, None] * (2.0 * plain.p_block) * mu[None, :]
        lam = sla.eigvalsh(mpm @ (2.0 * plain.q_block) @ mpm, mpm)
        expected = float(-0.5 * np.sum(np.log2(np.clip(lam[lam < 1.0], 1e-300, 1.0))))
        assert engine.log_negativity(plain, region) == pytest.approx(expected, abs=1e-10)

    def test_thermal_product_state_zero(self):
        cov = engine.thermal_scale(engine.CovMatrix(0.5 * np.eye(8)), 2.0)
        assert engine.log_negativity(cov, [0, 2]) == 0.0

    def test_pure_state_symmetry(self, surface_state):
        _, cov = surface_state(8, 8, 1.0)
        region = [0, 3, 7, 12, 20]
        comp = sorted(set(range(cov.n_modes)) - set(region))
        assert engine.log_negativity(cov, region) == pytest.approx(
            engine.log_negativity(cov, comp), abs=1e-9)

    def test_requires_block_diagonal(self):
        cov = engine.covariance_from_graph(two_mode_cluster(1.0))
        with pytest.raises(UnsupportedStateError):
            engine.log_negativity(cov, [0])


class TestThermalScale:
    def test_identity(self):
        cov = engine.CovMatrix(0.5 * np.eye(4))
        assert np.array_equal(engine.thermal_scale(cov, 1.0).gamma, cov.gamma)

    def test_vacuum_scale(self):
        cov = engine.thermal_scale(engine.CovMatrix(0.5 * np.eye(2)), 3.0)
        assert np.allclose(np.diag(cov.gamma), 1.5)
        assert cov.kappa == 3.0

    def test_composition(self):
        cov = engine.CovMatrix(0.5 * np.eye(2))
        twice = engine.thermal_scale(engine.thermal_scale(cov, 2.0), 2.0)
        once = engine.thermal_scale(cov, 4.0)
        assert np.array_equal(twice.gamma, once.gamma)
        assert twice.kappa == once.kappa == 4.0

    def test_rejects_sub_unity(self):
        for kappa in (0.5, np.nan, np.inf):
            with pytest.raises(ValidationError):
                engine.thermal_scale(engine.CovMatrix(0.5 * np.eye(2)), kappa)

    def test_read_only_copy(self, surface_state):
        _, cov = surface_state(8, 8, 1.0)
        scaled = engine.thermal_scale(cov, 2.0)
        assert not scaled.gamma.flags.writeable
        assert not np.shares_memory(scaled.gamma, cov.gamma)
        assert cov.kappa == 1.0 and scaled.kappa == 2.0
        with pytest.raises(ValueError):
            scaled.gamma[0, 0] = 0.0


    def test_factored_copy_shares_memo_not_gamma(self, factor_counts):
        cov = engine.covariance_from_graph(
            lattice.surface_code_graph_analytic(lattice.LatticeSpec(8, 8, "torus", 1.0)))
        region = [0, 1, 2, 8, 9, 10]
        pure = engine.symplectic_spectrum(cov, region)
        gamma = cov.gamma  # built and kept by the parent
        scaled = engine.thermal_scale(cov, 2.0)
        assert scaled._memo is cov._memo and scaled._cell is cov._cell
        before = dict(factor_counts)
        assert np.array_equal(engine.symplectic_spectrum(scaled, region).values,
                              2.0 * pure.values)
        assert factor_counts == before, "a memoised spectrum needs no solve"
        # an even torus gathers the region's block and the q block from one
        # cell build, with no factor and no solve
        assert before == {"factor": 0, "solve": 0, "cell": 1}
        assert not np.shares_memory(scaled.gamma, gamma)
        assert np.array_equal(scaled.gamma, 2.0 * gamma)
        assert cov.gamma is gamma


class TestFactoredState:
    """A V = 0 covariance holds U and its block Cholesky factor, not gamma."""

    @pytest.mark.parametrize("kappa", [1.0, 3.0])
    def test_blocks_built_on_first_read(self, kappa):
        rng = np.random.default_rng(31)
        m = rng.standard_normal((5, 5))
        u = m @ m.T + np.eye(5)
        cov = engine.thermal_scale(engine.covariance_from_graph(engine.GaussGraph(None, u)),
                                   kappa)
        assert cov._gamma is None
        assert np.allclose(cov.q_block, 0.5 * kappa * np.linalg.inv(u), rtol=1e-12, atol=0)
        assert np.array_equal(cov.p_block, 0.5 * kappa * u)
        assert np.allclose(cov.q_columns([3, 1]), cov.q_block[:, [3, 1]], rtol=1e-12, atol=0)
        gamma = cov.gamma
        assert cov.gamma is gamma and cov.q_block is cov.q_block
        assert np.array_equal(gamma[:5, :5], cov.q_block)
        assert np.array_equal(gamma[5:, 5:], cov.p_block)
        assert not gamma[:5, 5:].any()
        assert not gamma.flags.writeable

    @pytest.mark.parametrize("n_rows,n_cols", [(5, 40), (40, 5), (None, 7)])
    def test_u_inv_solves_smaller_side(self, monkeypatch, factor_counts, n_rows, n_cols):
        # U = U^T, so U^-1[rows, cols] is one solve for the smaller side
        graph, _ = lattice.map_cluster_to_surface(lattice.LatticeSpec(8, 12, "torus", 1.5))
        cov = engine.covariance_from_graph(graph)
        widths = []
        solve = cov._factor.solve

        def recorded(rhs, rows=None):
            widths.append(rhs.shape[1])
            return solve(rhs, rows)

        monkeypatch.setattr(cov._factor, "solve", recorded)
        n = graph.n_modes
        rng = np.random.default_rng(n_cols)
        rows = slice(None) if n_rows is None else rng.choice(n, n_rows, replace=False)
        cols = rng.choice(n, n_cols, replace=False)
        u = graph.u_part
        inverse = np.linalg.inv(u)
        tol = 16 * np.finfo(float).eps * np.linalg.cond(u) * np.abs(inverse).max()
        assert np.abs(cov._u_inv(rows, cols) - inverse[rows][:, cols]).max() <= tol
        assert factor_counts == {"factor": 1, "solve": 1}
        assert widths == [min(n if n_rows is None else n_rows, n_cols)]

    def test_full_region_is_half(self, surface_state):
        _, cov = surface_state(8, 8, 1.0)
        assert np.array_equal(engine.symplectic_spectrum(cov, range(64)).values,
                              np.full(64, 0.5))

    @pytest.mark.parametrize("boundary", ["torus", "planar"])
    def test_q_columns_follow_numpy_index_rules(self, boundary):
        # a column id outside [-N, N) raises IndexError, as on the dense
        # state, also on a torus, whose gather would wrap it modulo N
        (graph,), _ = surface_graphs(8, 8, boundary, (1.0,))
        cov = engine.covariance_from_graph(graph)
        dense = engine.CovMatrix(cov.gamma)
        n, u = graph.n_modes, graph.u_part
        inverse = np.linalg.inv(u)
        tol = 16 * np.finfo(float).eps * np.linalg.cond(u) * np.abs(inverse).max()
        for j in (n, n + 5, -1, -n, -n - 1):
            try:
                want = dense.q_columns([j])
            except IndexError:
                with pytest.raises(IndexError):
                    cov.q_columns([j])
            else:
                assert np.abs(cov.q_columns([j]) - want).max() <= tol
        with pytest.raises(IndexError):
            correlations.qq_correlation(cov, 0, n)

    def test_failed_factorization_is_numerical(self, monkeypatch):
        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        monkeypatch.setattr(np.linalg, "cholesky", singular)
        with pytest.raises(IllConditionedGraphError):
            engine.covariance_from_graph(engine.GaussGraph(None, np.eye(2)))


class TestTorusCells:
    """An even torus serves U^-1 from two cell columns, with no factor."""

    @settings(max_examples=40)
    @given(rows=st.sampled_from(range(4, 21, 2)), cols=st.sampled_from(range(4, 21, 2)),
           log_s=st.floats(-2.0, 3.25), seed=st.integers(0, 2 ** 32 - 1))
    def test_gather_matches_dense_inverse(self, rows, cols, log_s, seed):
        graph = lattice.surface_code_graph_analytic(
            lattice.LatticeSpec(rows, cols, "torus", log_s))
        cov = engine.covariance_from_graph(graph)
        u = graph.u_part
        inverse = np.linalg.inv(u)
        n = graph.n_modes
        rng = np.random.default_rng(seed)
        sets = [rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
                for _ in range(2)]
        tol = 16 * np.finfo(float).eps * np.linalg.cond(u) * np.abs(inverse).max()
        assert np.abs(cov._u_inv(*sets) - inverse[np.ix_(*sets)]).max() <= tol
        assert np.abs(cov.q_block - 0.5 * inverse).max() <= 0.5 * tol

    def test_json_round_trip_takes_factor_route(self, factor_counts):
        # the route comes from the torus the builder recorded, not from U
        graph = lattice.surface_code_graph_analytic(lattice.LatticeSpec(8, 12, "torus", 2.0))
        loaded = engine.GaussGraph.from_json(graph.to_json())
        torus, factored = engine.covariance_from_graph(graph), engine.covariance_from_graph(loaded)
        assert torus._cell is not None and torus._factor is None
        assert factored._cell is None and factored._factor is not None
        region = [0, 1, 2, 12, 13, 14, 25]
        block = torus._u_inv(region, np.arange(96))
        tol = 16 * np.finfo(float).eps * graph._cond * np.abs(block).max()
        assert np.abs(block - factored._u_inv(region, np.arange(96))).max() <= tol
        assert np.allclose(engine.symplectic_spectrum(torus, region).values,
                           engine.symplectic_spectrum(factored, region).values,
                           rtol=1e-9, atol=0)
        assert factor_counts == {"factor": 1, "solve": 2, "cell": 1}

    def test_cond_threshold_before_fft(self, factor_counts):
        graph = lattice.surface_code_graph_analytic(lattice.LatticeSpec(8, 8, "torus", 8.0))
        with pytest.raises(IllConditionedGraphError):
            engine.covariance_from_graph(graph)
        assert factor_counts == {"factor": 0, "solve": 0}

    def test_singular_symbol_is_numerical(self):
        # a stencil of zeros: U vanishes on every pair of momenta k, k + Q
        u = lattice.surface_code_graph_analytic(lattice.LatticeSpec(8, 8, "torus", 1.0))._u_sparse
        with pytest.raises(IllConditionedGraphError):
            engine._cell_columns(u.with_data(np.zeros(u.data.size)))

    @pytest.mark.parametrize("rows,cols,log_s", [(40, 64, 3.25), (64, 40, -3.0), (26, 90, 2.0)])
    def test_wide_cell_columns_match_factor(self, rows, cols, log_s):
        # tori wider than the hypothesis cases, against the block Cholesky
        # solve of the dense U; cond(U) = 1 + 8 s^4 is exact on a torus
        graph = lattice.surface_code_graph_analytic(
            lattice.LatticeSpec(rows, cols, "torus", log_s))
        factor = engine.BlockCholesky(engine.Csc.from_dense(graph.u_part))
        oracle = factor.solve(np.eye(graph.n_modes)[:, :2])
        tol = 16 * np.finfo(float).eps * graph._cond * np.abs(oracle).max()
        assert np.abs(engine._cell_columns(graph._u_sparse) - oracle).max() <= tol


# even tori 4..24, rectangular ones too, at log s in [-3, 3.25]
EVEN_TORI = dict(rows=st.sampled_from(range(4, 25, 2)), cols=st.sampled_from(range(4, 25, 2)),
                 log_s=st.floats(-3.0, 3.25))


def torus_graph(rows, cols, log_s):
    return lattice.surface_code_graph_analytic(lattice.LatticeSpec(rows, cols, "torus", log_s))


def batch_cuts(u, regions):
    """The cuts (dS, d'S, U[dS, d'S]) of `regions`, planned as one batch on the
    stored entries `u`."""
    return [cut[:2] + (engine._coupling(u, cut),)
            for cut in engine._batch_plan(u, tuple(map(tuple, regions)))[-1]]


class TestCellStencil:
    """An even torus holds U as its two-site cell stencil: every entry, cut,
    covariance block and the cell columns of U^-1 against the dense U."""

    @settings(max_examples=40)
    @given(**EVEN_TORI)
    def test_u_part_is_the_closed_form(self, rows, cols, log_s):
        graph = torus_graph(rows, cols, log_s)
        assert isinstance(graph._u_sparse, engine.CellStencil)
        spec = lattice.LatticeSpec(rows, cols, "torus", log_s)
        s, eye = spec.s, np.eye(rows * cols)
        closed = s ** 2 * lattice.surface_code_adjacency(spec) + (s ** -2 + 2 * s ** 2) * eye
        assert np.array_equal(graph.u_part, closed)

    @settings(max_examples=40)
    @given(**EVEN_TORI, seed=st.integers(0, 2 ** 32 - 1))
    def test_cuts_equal_dense_cuts(self, rows, cols, log_s, seed):
        graph = torus_graph(rows, cols, log_s)
        regions = TestCut.random_regions(np.random.default_rng(seed), rows * cols, cols)
        u = graph.u_part
        for region, cut in zip(regions, batch_cuts(graph._u_sparse, regions)):
            for read, oracle in zip(cut, dense_cut(u, region)):
                assert read.shape == oracle.shape and np.array_equal(read, oracle)

    @settings(max_examples=30)
    @given(**EVEN_TORI, kappa=st.sampled_from([1.0, 10.0]), seed=st.integers(0, 2 ** 32 - 1))
    def test_blocks_and_entries_equal_dense_state(self, rows, cols, log_s, kappa, seed):
        cov = engine.thermal_scale(engine.covariance_from_graph(torus_graph(rows, cols, log_s)),
                                   kappa)
        dense = engine.CovMatrix(cov.gamma, kappa=cov.kappa)
        n = rows * cols
        rng = np.random.default_rng(seed)
        ids = rng.choice(2 * n, size=int(rng.integers(1, 2 * n + 1)), replace=False)
        assert np.array_equal(cov.gamma_block(ids), dense.gamma_block(ids))
        for i, j in rng.integers(n, size=(20, 2)).tolist() + [[0, 1], [0, cols], [5, 5]]:
            assert cov.p_entry(i, j) == dense.p_entry(i, j)

    @settings(max_examples=40)
    @given(**EVEN_TORI)
    def test_cell_columns_match_dense_inverse(self, rows, cols, log_s):
        graph = torus_graph(rows, cols, log_s)
        u = graph.u_part
        inverse = np.linalg.inv(u)
        tol = 16 * np.finfo(float).eps * np.linalg.cond(u) * np.abs(inverse).max()
        columns = engine._cell_columns(graph._u_sparse)
        assert np.abs(columns - inverse[:, [0, 1]]).max() <= tol

    def test_stencil_holds_14_entries(self):
        # the columns of the two cell sites, 7 entries each, whatever the torus
        for rows, cols in [(4, 4), (36, 36), (8, 24)]:
            u = torus_graph(rows, cols, 1.0)._u_sparse
            assert u.torus == (rows, cols) and u.shape == (rows * cols,) * 2
            assert u.data.size == 14 and u.steps().shape == (2, 3, 3)


def planar_p_nodes(rows, cols):
    """The p-nodes of the planar closed form on a rows x cols grid: the even
    plaquettes clipped to it, whose lower-left corners (x, y) range over
    [-1, rows) x [-1, cols) with x + y even, each holding a mode."""
    return sum(1 for x in range(-1, rows) for y in range(-1, cols) if (x + y) % 2 == 0)


def factor_kind(kind, rows, cols):
    """The factor class a V = 0 graph of `factored_u` is served by: the
    planar closed form with fewer p-nodes than modes factors its p-node
    system, any other graph U."""
    if kind == "planar" and planar_p_nodes(rows, cols) < rows * cols:
        return engine.PNodeFactor
    return engine.BlockCholesky


def factored_u(kind, rows, cols, log_s):
    """A V = 0 graph of the given kind that takes a factor route
    (`factor_kind`)."""
    if kind == "planar":
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the planar closed form warns
            return lattice.surface_code_graph_analytic(
                lattice.LatticeSpec(rows, cols, "planar", log_s))
    if kind == "pipeline-planar":
        return lattice.map_cluster_to_surface(lattice.LatticeSpec(rows, cols, "planar", log_s))[0]
    if kind == "pipeline-torus":
        spec = lattice.LatticeSpec(2 * (rows // 2 + 2), 2 * (cols // 2 + 2), "torus", log_s)
        return lattice.map_cluster_to_surface(spec)[0]
    if kind == "json-torus":
        spec = lattice.LatticeSpec(2 * (rows // 2 + 2), 2 * (cols // 2 + 2), "torus", log_s)
        return engine.GaussGraph.from_json(lattice.surface_code_graph_analytic(spec).to_json())
    # diagonal: every mode its own connected component
    return engine.GaussGraph(None, np.diag(np.exp(np.linspace(-abs(log_s), abs(log_s), rows * cols))))


def loop_block_order(u):
    """Per-mode loop form of `engine._block_order`, kept as its oracle: both
    complete orders of the pattern of `u`, natural order cut every bandwidth
    modes and the breadth-first level sets from the lowest mode not yet
    reached, and the level sets only when their sum of cubed sizes is
    strictly the smaller."""
    pattern = u.toarray() != 0
    n = len(pattern)
    width = max([abs(int(i) - int(j)) for i, j in zip(*np.nonzero(pattern))] + [1])
    cut = [width] * (n // width) + [n % width] * (n % width > 0)
    seen, levels = set(), []
    for start in range(n):
        if start in seen:
            continue
        frontier = [start]
        seen.add(start)
        while frontier:
            levels.append(frontier)
            frontier = sorted({int(j) for i in frontier for j in np.flatnonzero(pattern[i])}
                              - seen)
            seen.update(frontier)
    if sum(len(level) ** 3 for level in levels) < sum(size ** 3 for size in cut):
        return [mode for level in levels for mode in level], [len(level) for level in levels]
    return list(range(n)), cut


class TestBlockCholesky:
    """Every V = 0 state off an even torus serves U^-1 from one numpy block
    Cholesky factor: of U, or of the p-node system of a planar closed form
    (`engine.PNodeFactor`)."""

    @settings(max_examples=60)
    @given(kind=st.sampled_from(["planar", "pipeline-planar", "pipeline-torus", "json-torus",
                                 "diagonal"]),
           rows=st.integers(1, 12), cols=st.integers(1, 12), log_s=st.floats(-2.0, 3.25),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_dense_inverse(self, kind, rows, cols, log_s, seed):
        graph = factored_u(kind, rows, cols, log_s)
        n = graph.n_modes
        if n == 0:
            return  # a 1 x 1 planar pipeline keeps no mode
        cov = engine.covariance_from_graph(graph)
        assert type(cov._factor) is factor_kind(kind, rows, cols)
        u = graph.u_part
        inverse = np.linalg.inv(u)
        tol = 16 * np.finfo(float).eps * np.linalg.cond(u) * np.abs(inverse).max()
        rng = np.random.default_rng(seed)
        sets = [rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False) for _ in range(2)]
        assert np.abs(cov._u_inv(*sets) - inverse[np.ix_(*sets)]).max() <= tol
        assert np.abs(cov._factor.solve(np.eye(n)) - inverse).max() <= tol

    @pytest.mark.parametrize("rows,cols,natural", [
        (36, 36, True), (12, 12, True), (12, 5, False), (5, 12, False), (1, 9, True)])
    def test_order_is_the_cheaper_one(self, rows, cols, natural):
        # natural order cut every bandwidth modes (cols + 1 on a planar grid
        # of two rows or more) or the level sets, by the sum of cubed sizes
        u = factored_u("planar", rows, cols, 1.0)._u_sparse
        n = rows * cols
        width = cols + 1 if rows > 1 else 1
        cut = [width] * (n // width) + [n % width] * (n % width > 0)
        levels = [level.size for level in engine._level_sets(u)]
        perm, sizes = engine._block_order(u)
        cost = (np.array(cut) ** 3).sum(), (np.array(levels) ** 3).sum()
        assert (cost[0] <= cost[1]) == natural
        assert sizes.tolist() == (cut if natural else levels)
        assert np.array_equal(perm, np.arange(n)) or not natural
        assert np.array_equal(np.sort(perm), np.arange(n))
        assert (perm.tolist(), sizes.tolist()) == loop_block_order(u)

    @settings(max_examples=60)
    @given(kind=st.sampled_from(["pipeline-planar", "pipeline-torus", "any-pipeline-torus",
                                 "json-torus", "random"]),
           rows=st.integers(1, 12), cols=st.integers(1, 12),
           density=st.floats(0.0, 0.3), split=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    def test_order_is_the_cheaper_one_on_every_kind(self, kind, rows, cols, density, split,
                                                    seed):
        # the pipeline's and JSON patterns, and symmetric patterns drawn at
        # random, disconnected ones included, take the order of the oracle
        if kind == "random":
            rng = np.random.default_rng(seed)
            n = rows * cols
            mat = np.triu(rng.random((n, n)) < density, 1).astype(float)
            if split:  # two components, their modes interleaved
                mat[:n // 2, n // 2:] = 0.0
                shuffle = rng.permutation(n)
                mat = mat[np.ix_(shuffle, shuffle)]
            u = engine.Csc.from_dense(mat + mat.T + n * np.eye(n))
        else:
            if kind == "any-pipeline-torus":  # odd sides solved dense
                spec = lattice.LatticeSpec(rows + 2, cols + 2, "torus", 1.0)
                graph = lattice.map_cluster_to_surface(spec)[0]
            else:
                graph = factored_u(kind, rows, cols, 1.0)
            u = graph._u_sparse
            u = engine.Csc.from_dense(graph.u_part) if u is None else u
        perm, sizes = engine._block_order(u)
        assert (perm.tolist(), sizes.tolist()) == loop_block_order(u)

    def test_json_torus_takes_level_sets(self, factor_counts):
        # a 36 x 36 torus read back from JSON has bandwidth N - 1, but 19
        # level sets of at most 136 modes; no N x N block is built
        graph = lattice.surface_code_graph_analytic(lattice.LatticeSpec(36, 36, "torus", 2.0))
        loaded = engine.GaussGraph.from_json(graph.to_json())
        u = loaded._u_sparse
        u = engine.Csc.from_dense(loaded.u_part) if u is None else u
        assert np.abs(u.indices - u.columns()).max() == 1295
        perm, sizes = engine._block_order(u)
        assert sizes.size == 19 and sizes.max() == 136
        assert np.array_equal(np.sort(perm), np.arange(1296))
        torus, factored = engine.covariance_from_graph(graph), engine.covariance_from_graph(loaded)
        assert max(block.shape[0] for block in factored._factor._inv) == 136
        region = [0, 1, 2, 36, 37, 38, 73, 700]
        block = torus._u_inv(region, np.arange(1296))
        tol = 16 * np.finfo(float).eps * graph._cond * np.abs(block).max()
        assert np.abs(block - factored._u_inv(region, np.arange(1296))).max() <= tol
        assert factor_counts == {"factor": 1, "solve": 1, "cell": 1}

    def test_disconnected_u_restarts_levels(self):
        # two components, each a path, joined in no order: the level sets
        # restart at the lowest mode not yet reached
        u = np.eye(6) * 4.0
        for i, j in [(0, 4), (4, 2), (1, 5), (5, 3)]:
            u[i, j] = u[j, i] = 1.0
        csc = engine.Csc.from_dense(u)
        levels = engine._level_sets(csc)
        assert [level.tolist() for level in levels] == [[0], [4], [2], [1], [5], [3]]
        cov = engine.covariance_from_graph(engine.GaussGraph(None, u))
        assert np.allclose(cov._factor.solve(np.eye(6)), np.linalg.inv(u), rtol=0, atol=1e-15)

    @staticmethod
    def sweep_all_blocks(factor, rhs):
        """U^-1 rhs from forward and backward sweeps over every block."""
        x = rhs[factor._perm]
        blocks = [slice(a, b) for a, b in zip(factor._bounds[:-1], factor._bounds[1:])]
        for k, rows in enumerate(blocks):
            if k:
                x[rows] -= factor._sub[k - 1] @ x[blocks[k - 1]]
            x[rows] = factor._inv[k] @ x[rows]
        for k in range(len(blocks) - 1, -1, -1):
            if k + 1 < len(blocks):
                x[blocks[k]] -= factor._sub[k].T @ x[blocks[k + 1]]
            x[blocks[k]] = factor._inv[k].T @ x[blocks[k]]
        out = np.empty_like(x)
        out[factor._perm] = x
        return out

    @settings(max_examples=40)
    @given(kind=st.sampled_from(["planar", "pipeline-planar", "json-torus"]),
           rows=st.integers(1, 12), cols=st.integers(1, 12), log_s=st.floats(-2.0, 3.25),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_trimmed_sweeps_are_exact(self, kind, rows, cols, log_s, seed):
        # zero leading rows of rhs (in the factor's order) and a subset of
        # the output rows: the skipped blocks change no row that is read; a
        # p-node factor trims the sweeps of its factor of K^-1
        graph = factored_u(kind, rows, cols, log_s)
        if graph.n_modes == 0:
            return
        factor = engine.covariance_from_graph(graph)._factor
        if isinstance(factor, engine.PNodeFactor):
            factor = factor._k
        n = factor._perm.size
        rng = np.random.default_rng(seed)
        rhs = rng.normal(size=(n, 3))
        rhs[factor._perm[:int(rng.integers(0, n + 1))]] = 0.0
        wanted = rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False)
        full = self.sweep_all_blocks(factor, rhs)
        assert np.array_equal(factor.solve(rhs), full)
        assert np.array_equal(factor.solve(rhs, wanted), full[wanted])

    def test_indefinite_block_is_numerical(self):
        # a U whose builder claimed a wrong spectrum: the block Cholesky
        # fails, and that is a numerical failure
        u = engine.Csc.from_dense(np.array([[1.0, 2.0], [2.0, 1.0]]))
        graph = engine.GaussGraph._with_extremes(u, 1.0, 3.0)
        with pytest.raises(IllConditionedGraphError, match="block Cholesky"):
            engine.covariance_from_graph(graph)


class DenseInverse:
    """A factor that serves U^-1 from np.linalg.inv: an oracle with the
    contract of `BlockCholesky.solve`."""

    def __init__(self, inverse):
        self.inverse = inverse

    def solve(self, rhs, rows=None):
        solved = self.inverse @ rhs
        return solved if rows is None else solved[rows]


class TestPNodeFactor:
    """The planar closed form U = D + s^2 B^T B serves U^-1 through the
    block Cholesky factor of its p-node system K^-1 = s^-2 I + B D^-1 B^T
    and the Woodbury identity; the factor of U is the oracle."""

    @settings(max_examples=60)
    @given(rows=st.integers(1, 12), cols=st.integers(1, 12), log_s=st.floats(-2.0, 3.25),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_mode_factor_and_inverse(self, rows, cols, log_s, seed):
        graph = factored_u("planar", rows, cols, log_s)
        cov = engine.covariance_from_graph(graph)
        assert type(cov._factor) is factor_kind("planar", rows, cols)
        u, n = graph._u_sparse, graph.n_modes
        inverse = np.linalg.inv(graph.u_part)
        eps_cond = 16 * np.finfo(float).eps * np.linalg.cond(graph.u_part)
        tol = eps_cond * np.abs(inverse).max()
        oracles = [engine.CovMatrix._u_native(u, factor=engine.BlockCholesky(u)),
                   engine.CovMatrix._u_native(u, factor=DenseInverse(inverse))]
        rng = np.random.default_rng(seed)
        sets = [rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False) for _ in range(2)]
        for oracle in oracles:
            assert np.abs(cov._u_inv(*sets) - oracle._u_inv(*sets)).max() <= tol
            assert np.abs(cov.q_block - oracle.q_block).max() <= 0.5 * tol
        if min(rows, cols) >= 2:
            sizes = range(1, min(rows, cols) + 1)
            fit = correlations.area_law_fit(cov, lattice.LatticeSpec(rows, cols, "planar"),
                                            sizes=sizes)
            for oracle in oracles:
                want = correlations.area_law_fit(oracle, lattice.LatticeSpec(rows, cols, "planar"),
                                                 sizes=sizes)
                assert np.abs(np.subtract(fit, want)).max() <= eps_cond * max(1.0, *map(abs, want))

    @pytest.mark.parametrize("rows,cols", [(36, 36), (9, 7), (3, 3), (2, 5), (2, 4), (2, 3),
                                           (2, 2), (1, 9), (12, 1), (1, 1)])
    def test_system_of_fewer_p_nodes_than_modes(self, rows, cols):
        # K^-1 has one row per clipped even plaquette; a grid with no fewer
        # p-nodes than modes keeps the factor of U
        graph = factored_u("planar", rows, cols, 3.2)
        factor = engine.covariance_from_graph(graph)._factor
        plan = graph._u_sparse.plans["p_nodes"]
        if planar_p_nodes(rows, cols) >= rows * cols:
            assert plan is None and isinstance(factor, engine.BlockCholesky)
            return
        k_inv = plan[-1]
        assert k_inv.shape[0] == planar_p_nodes(rows, cols)
        assert factor._k._bounds[-1] == k_inv.shape[0]
        if (rows, cols) == (36, 36):
            sizes = np.diff(factor._k._bounds)
            assert k_inv.shape[0] == 685 and sizes.size == 37 and sizes.max() == 19
        # U - D = s^2 B^T B with D = diag(U) - 2 s^2, for a dense B read off
        # the incidence
        s2 = np.exp(2 * 3.2)
        d = np.diag(graph.u_part) - 2 * s2
        b = np.zeros((k_inv.shape[0], rows * cols))
        b[factor._ends.T, np.arange(rows * cols)] = 1.0
        assert (b.sum(axis=0) == 2).all()
        assert np.array_equal(graph.u_part - np.diag(d), s2 * (b.T @ b))
        # K^-1 = s^-2 I + B D^-1 B^T stores its nonzero entries
        stored = k_inv.with_data(np.ones(k_inv.data.size)).toarray() != 0
        assert np.array_equal(stored, (np.eye(k_inv.shape[0]) / s2 + b @ np.diag(1 / d) @ b.T) != 0)

    def test_json_round_trip_keeps_mode_factor(self, factor_counts):
        # a JSON record carries no incidence: the loaded state factors U, as
        # a state of the same dense U factored in mode space does, bit for bit
        graph = factored_u("planar", 9, 7, 2.5)
        loaded = engine.GaussGraph.from_json(graph.to_json())
        assert np.array_equal(loaded.u_part, graph.u_part)
        cov, factored = engine.covariance_from_graph(loaded), engine.covariance_from_graph(graph)
        assert isinstance(cov._factor, engine.BlockCholesky)
        assert factor_counts == {"factor": 2, "solve": 0, "p_nodes": 1}
        u = engine.Csc.from_dense(graph.u_part)
        mode = engine.CovMatrix._u_native(u, factor=engine.BlockCholesky(u))
        regions = [[0, 1, 7, 8], list(range(14, 35)), [30], list(range(63))]
        for got, want, fast in zip(*(engine.symplectic_spectra(state, regions)
                                     for state in (cov, mode, factored))):
            assert np.array_equal(got.values, want.values)
            assert np.allclose(fast.values, want.values, rtol=1e-9, atol=0)

    def test_indefinite_p_node_system_is_numerical(self):
        # a positive D with a scale the values do not have: K^-1 = c^-1 I +
        # B D^-1 B^T with c < 0 is indefinite, and its factor fails
        graph = factored_u("planar", 6, 6, 1.0)
        u = graph._u_sparse
        bad = u.with_data(u.data.copy(), -u.incidence_scale)
        with pytest.raises(IllConditionedGraphError, match="block Cholesky"):
            engine.covariance_from_graph(engine.GaussGraph._with_extremes(bad, 1.0, 3.0))


class TestCut:
    """The cuts of regions read in one batch from U's CSC arrays against the
    dense U."""

    @staticmethod
    def random_regions(rng, n, cols):
        """Random regions, unsorted and with repeated ids, then a single mode,
        a 1 x k strip, the complement of a single mode and the whole lattice
        (dS and d'S empty); the random ones overlap each other and the rest."""
        regions = [rng.integers(n, size=int(rng.integers(1, 2 * n + 1))) for _ in range(3)]
        mode = int(rng.integers(n))
        regions += [[mode], list(range(int(rng.integers(1, cols + 1)))),
                    [i for i in range(n) if i != mode], list(range(n))]
        return list(filter(len, regions))

    def assert_cuts_match(self, graph, cols, seed):
        u_csc = engine.covariance_from_graph(graph)._u
        u = graph.u_part
        rng = np.random.default_rng(seed)
        regions = self.random_regions(rng, graph.n_modes, cols)
        # one batch, which also holds a region twice
        regions.append(regions[int(rng.integers(len(regions)))])
        cuts = batch_cuts(u_csc, regions)
        assert len(cuts) == len(regions)
        for region, cut in zip(regions, cuts):
            for read, oracle in zip(cut, dense_cut(u, region)):
                assert read.shape == oracle.shape
                assert np.array_equal(read, oracle)

    @settings(max_examples=40)
    @given(shape=st.one_of(
               st.tuples(st.sampled_from(range(4, 21, 2)), st.sampled_from(range(4, 21, 2)),
                         st.just("torus")),
               st.tuples(st.integers(1, 12), st.integers(1, 12), st.just("planar"))),
           log_s=st.floats(-2.0, 3.25), seed=st.integers(0, 2 ** 32 - 1))
    def test_analytic_cuts_match_dense(self, shape, log_s, seed):
        rows, cols, boundary = shape
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the planar closed form warns
            graph = lattice.surface_code_graph_analytic(
                lattice.LatticeSpec(rows, cols, boundary, log_s))
        self.assert_cuts_match(graph, cols, seed)

    @settings(max_examples=10)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_pipeline_cuts_match_dense(self, seed):
        graph, _ = lattice.map_cluster_to_surface(lattice.LatticeSpec(8, 12, "torus", 0.5))
        self.assert_cuts_match(graph, 6, seed)

    @settings(max_examples=20)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_random_values_cuts_match_dense(self, seed):
        # the surface-code U has one value on every coupling of a cut, so
        # only values that all differ show an entry placed in the wrong spot
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 40))
        m = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.1)
        self.assert_cuts_match(engine.GaussGraph(None, m @ m.T + np.eye(n)), n, seed)

    @settings(max_examples=20)
    @given(shape=st.one_of(
               st.tuples(st.sampled_from(range(4, 17, 2)), st.sampled_from(range(4, 17, 2)),
                         st.just("torus")),
               st.tuples(st.integers(1, 10), st.integers(1, 10), st.just("planar"))),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_memo_hits_mixed_with_misses(self, shape, seed):
        # only the regions not yet memoised, by their own tuples, are planned,
        # in one batch; a hit returns the memoised spectrum, and a spectrum
        # has one value per distinct mode
        rows, cols, boundary = shape
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the planar closed form warns
            graph = lattice.surface_code_graph_analytic(
                lattice.LatticeSpec(rows, cols, boundary, 1.5))
        cov = engine.covariance_from_graph(graph)
        u = graph.u_part
        rng = np.random.default_rng(seed)
        regions = self.random_regions(rng, graph.n_modes, cols)
        known = [regions[i] for i in rng.permutation(len(regions))[:len(regions) // 2]]
        first = engine._factor_spectra(cov, known)
        mixed = known + regions + [regions[0]]
        with pytest.MonkeyPatch.context() as patch:
            batches = counted(patch, engine, "_batch_plan")
            spectra = engine._factor_spectra(cov, mixed)
        keys = [tuple(region) for region in mixed]
        misses = tuple(dict.fromkeys(key for key in keys[len(known):]
                                     if key not in keys[:len(known)]))
        assert [batch for _, batch in batches] == ([misses] if misses else [])
        assert all(a is b for a, b in zip(spectra, first))
        for key, spec in zip(keys, spectra):
            modes = sorted(set(map(int, key)))
            edge, rim, _ = dense_cut(u, modes)
            assert (spec.boundary, spec.rim, len(spec)) == (edge.size, rim.size, len(modes))
            assert spec is spectra[keys.index(key)]


def surface_graphs(rows, cols, boundary, log_s):
    """Graphs of the closed-form U at each of `log_s`, all filled into the
    pattern of their lattice, and the pattern."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the planar closed form warns
        return ([lattice.surface_code_graph_analytic(lattice.LatticeSpec(rows, cols, boundary,
                                                                         value))
                 for value in log_s],
                lattice._surface_code_pattern(lattice.LatticeSpec(rows, cols, boundary)))


def counted(monkeypatch, module, name):
    """Record the positional arguments of every call of module.name."""
    calls, original = [], getattr(module, name)

    def recorded(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, recorded)
    return calls


class TestPatternPlans:
    """What a batch of spectra and `BlockCholesky` read from U's pattern alone
    is planned once and served to every matrix of that pattern."""

    def test_arrays_read_only(self):
        csc = engine.Csc.from_dense(np.array([[2.0, 1.0], [1.0, 2.0]]))
        for array in (csc.indptr, csc.indices, csc.data):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0

    def test_with_data_shares_pattern_and_plans(self):
        csc = engine.Csc.from_dense(np.array([[2.0, 1.0], [1.0, 2.0]]))
        twin = csc.with_data(np.array([3.0, 0.5, 0.5, 3.0]))
        assert twin.indptr is csc.indptr and twin.indices is csc.indices
        assert twin.plans is csc.plans
        assert np.array_equal(twin.toarray(), [[3.0, 0.5], [0.5, 3.0]])
        assert not twin.data.flags.writeable
        assert np.array_equal(csc.data, [2.0, 1.0, 1.0, 2.0])
        for bad in (np.ones(3), np.ones(5), np.ones((2, 2))):
            with pytest.raises(ValidationError, match="for a pattern of 4 entries"):
                csc.with_data(bad)

    @settings(max_examples=40)
    @given(shape=st.one_of(
               st.tuples(st.sampled_from(range(4, 25, 2)), st.sampled_from(range(4, 25, 2)),
                         st.just("torus")),
               st.tuples(st.integers(1, 12), st.integers(1, 12), st.just("planar"))),
           log_s=st.tuples(st.floats(-3.0, 3.25), st.floats(-3.0, 3.25)),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_planned_cuts_equal_fresh_cuts(self, shape, log_s, seed):
        # cuts planned at one log s and served at another: the same arrays as
        # a fresh cut of a freshly built U and as the dense oracle
        rows, cols, boundary = shape
        clear_lattice_memos()  # each example plans on a fresh pattern
        (first, second), pattern = surface_graphs(rows, cols, boundary, log_s)
        n = first.n_modes
        rng = np.random.default_rng(seed)
        batch = tuple(tuple(map(int, region)) for region in TestCut.random_regions(rng, n, cols))
        engine._batch_plan(first._u_sparse, batch)
        assert list(pattern.plans) == ["batches"] and list(pattern.plans["batches"]) == [batch]
        clear_lattice_memos()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fresh = lattice.surface_code_graph_analytic(
                lattice.LatticeSpec(rows, cols, boundary, log_s[1]))
        with pytest.MonkeyPatch.context() as patch:
            checks = counted(patch, engine, "_region_ids")
            served = batch_cuts(second._u_sparse, batch)
        assert checks == []
        u = second.u_part
        for region, cut, new in zip(batch, served, batch_cuts(fresh._u_sparse, batch)):
            for read, again, oracle in zip(cut, new, dense_cut(u, list(region))):
                assert read.shape == again.shape == oracle.shape
                assert np.array_equal(read, again) and np.array_equal(read, oracle)

    def test_planned_keys_skip_the_region_check(self, monkeypatch):
        # a batch planned on the pattern was checked then, and a memoised
        # region needs no plan; a new batch is checked once, as a whole, and
        # one that holds an empty region or an id out of range is refused
        (first, second), _ = surface_graphs(8, 8, "torus", (1.0, 2.0))
        keys = [tuple(range(10)), (3, 4, 11, 12)]
        engine.symplectic_spectra(engine.covariance_from_graph(first), keys)
        checks = counted(monkeypatch, engine, "_region_ids")
        cov = engine.covariance_from_graph(second)
        engine.symplectic_spectra(cov, keys)
        assert checks == []
        engine.symplectic_spectra(cov, keys + [[5, 2]])
        assert checks == [(((5, 2),), 64)]
        for bad in ([], [64], [-1, 3]):
            with pytest.raises(ValidationError):
                engine.symplectic_spectra(engine.covariance_from_graph(second), keys + [bad])

    def test_repeated_modes_count_once(self):
        # a region with a repeated mode is planned under its own tuple: its
        # cut is that of its distinct modes and its spectrum has one value per
        # distinct mode, the values of any other form of the region
        (graph,), _ = surface_graphs(8, 8, "torus", (1.0,))
        region = (3, 3, 4)
        for cut, oracle in zip(batch_cuts(graph._u_sparse, [region])[0],
                               dense_cut(graph.u_part, [3, 4])):
            assert np.array_equal(cut, oracle)
        assert engine._batch_plan(graph._u_sparse, (region,))[4] == [2]
        cov = engine.covariance_from_graph(graph)
        spectrum = engine.symplectic_spectrum(cov, region)
        assert len(spectrum) == 2
        assert np.array_equal(spectrum.values, engine.symplectic_spectrum(cov, (4, 3)).values)

    @pytest.mark.parametrize("state", ["torus", "planar", "dense"])
    def test_region_forms_give_equal_values(self, state):
        # each form of one region is converted on a fresh pattern, so none is
        # served by the plan or the spectrum of another form
        base = list(range(5, 17))
        forms = [base, tuple(base), range(5, 17), np.array(base, dtype=np.int32),
                 np.array(base, dtype=np.int64),
                 np.random.default_rng(3).permutation(base + base[:4]),
                 [float(i) for i in base]]
        values = []
        for form in forms:
            clear_lattice_memos()
            (graph,), _ = surface_graphs(8, 8, "planar" if state == "planar" else "torus", (1.5,))
            cov = engine.covariance_from_graph(graph)
            if state == "dense":
                cov = engine.CovMatrix(cov.gamma)
            values.append(engine.symplectic_spectrum(cov, form).values)
        assert values[0].size == len(base)
        for got in values[1:]:
            assert np.array_equal(got, values[0])

    @pytest.mark.parametrize("boundary", ["torus", "planar"])
    @pytest.mark.parametrize("bad", [[], [-1, 3], [64], [1.5, 2.7], np.arange(64) < 2,
                                     [float("nan")], ["a"]],
                             ids=["empty", "negative", "N", "fraction", "mask", "nan", "string"])
    def test_failed_check_leaves_nothing_behind(self, boundary, bad):
        # a batch with a bad region raises before any plan or spectrum is
        # kept, on a fresh pattern and on one with plans; without the bad
        # region the batch then succeeds
        (graph,), pattern = surface_graphs(8, 8, boundary, (1.5,))
        cov = engine.covariance_from_graph(graph)
        batch = [list(range(10)), (3, 4, 11), bad, range(20, 30)]
        for known in ([], [(40, 41)]):
            engine.symplectic_spectra(cov, known)
            plans, memo = dict(pattern.plans.get("batches", {})), dict(cov._memo)
            message = ("non-empty" if len(bad) == 0 else "out of range"
                       if isinstance(bad[0], int) else "must be integers")
            with pytest.raises(ValidationError, match=message):
                engine.symplectic_spectra(cov, batch + known)
            assert pattern.plans.get("batches", {}) == plans and cov._memo == memo
            assert set(pattern.plans) == ({"batches"} if known else set()) | (
                {"p_nodes"} if boundary == "planar" else set())
            if boundary == "planar":  # the block order of K^-1, on its own pattern
                assert set(pattern.plans["p_nodes"][-1].plans) == {"blocks"}
        good = engine.symplectic_spectra(cov, batch[:2] + batch[3:])
        assert [len(spec) for spec in good] == [10, 3, 10]

    @pytest.mark.parametrize("bad", [[1.5, 2.7], np.arange(64) < 2, [float("nan")],
                                     [float("inf")], ["a"], [1, None]],
                             ids=["fraction", "mask", "nan", "inf", "string", "object"])
    def test_ids_that_are_not_integers_refused_on_a_dense_state(self, bad):
        (graph,), _ = surface_graphs(8, 8, "torus", (1.5,))
        cov = engine.CovMatrix(engine.covariance_from_graph(graph).gamma)
        with pytest.raises(ValidationError, match="must be integers"):
            engine.symplectic_spectrum(cov, bad)

    @pytest.mark.parametrize("boundary", ["torus", "planar"])
    def test_batch_planned_once(self, monkeypatch, boundary):
        # the unions of rims and edges of a batch, the index pair of each
        # block and, on a torus, the offsets of the U^-1 gather are planned at
        # the first log s; the spectra at the next equal a fresh build's
        (first, second), pattern = surface_graphs(12, 12, boundary, (1.0, 2.8))
        regions = [tuple(range(k, k + 20)) for k in (0, 30, 60)] + [(5, 17, 29)]
        engine._factor_spectra(engine.covariance_from_graph(first), regions)
        assert list(pattern.plans["batches"]) == [tuple(regions)]
        distinct = counted(monkeypatch, engine, "_sorted_distinct")
        gathers = counted(monkeypatch, engine, "_gather")
        served = engine._factor_spectra(engine.covariance_from_graph(second), regions)
        assert distinct == [] and gathers == []
        clear_lattice_memos()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the planar closed form warns
            fresh = lattice.surface_code_graph_analytic(
                lattice.LatticeSpec(12, 12, boundary, 2.8))
        for got, want in zip(served, engine._factor_spectra(engine.covariance_from_graph(fresh),
                                                            regions)):
            assert np.array_equal(got.values, want.values)

    def test_planar_factors_order_blocks_once(self, monkeypatch):
        # the p-node system, its block order and the scatter of K^-1 into the
        # blocks come from U's pattern, and a factor served from them equals
        # a fresh one; U itself is never ordered
        orders = counted(monkeypatch, engine, "_block_order")
        plans = counted(monkeypatch, engine, "_p_node_plan")
        graphs, pattern = surface_graphs(9, 7, "planar", (0.5, 2.0, 3.0))
        factors = [engine.covariance_from_graph(graph)._factor for graph in graphs]
        assert len(orders) == 1 and len(plans) == 3
        assert set(pattern.plans) == {"p_nodes"}
        assert all(isinstance(factor, engine.PNodeFactor) for factor in factors)
        clear_lattice_memos()
        fresh = engine.covariance_from_graph(surface_graphs(9, 7, "planar", (3.0,))[0][0])._factor
        assert len(orders) == 2
        assert np.array_equal(factors[-1]._d_inv, fresh._d_inv)
        assert np.array_equal(factors[-1]._ends, fresh._ends)
        for got, want in zip(factors[-1]._k._inv + factors[-1]._k._sub,
                             fresh._k._inv + fresh._k._sub):
            assert np.array_equal(got, want)


class TestMeasurements:
    def test_measure_q_two_mode(self):
        g = engine.measure_q(two_mode_cluster(2.0), 1)
        assert g.n_modes == 1
        assert g.z_matrix[0, 0] == pytest.approx(0.25j)

    def test_measure_q_to_empty(self):
        g = engine.measure_q(engine.GaussGraph(None, [[1.0]]), 0)
        assert g.n_modes == 0

    def test_measure_q_chain_middle_disconnects(self):
        adj = np.array([[0.0, 1, 0], [1, 0, 1], [0, 1, 0]])
        g = engine.GaussGraph(adj, np.eye(3))
        out = engine.measure_q(g, 1)
        assert np.array_equal(out.v_part, np.zeros((2, 2)))
        assert np.array_equal(out.u_part, np.eye(2))

    def test_measure_p_two_mode(self):
        s = 1.7
        out = engine.measure_p(two_mode_cluster(s), 1)
        assert out.z_matrix[0, 0] == pytest.approx(1j * (s ** 2 + s ** -2))

    def test_measure_p_isolated_mode(self):
        rng = np.random.default_rng(2)
        g = random_graph(rng, n=3)
        v = np.zeros((4, 4))
        u = np.eye(4)
        v[:3, :3] = g.v_part
        u[:3, :3] = g.u_part
        out = engine.measure_p(engine.GaussGraph(v, u), 3)
        assert np.allclose(out.v_part, g.v_part, atol=1e-12)
        assert np.allclose(out.u_part, g.u_part, atol=1e-12)

    def test_measure_p_singular_pivot(self):
        g = engine.GaussGraph(None, 1e-13 * np.eye(2))
        with pytest.raises(SingularPivotError):
            engine.measure_p(g, 0)

    def test_oracle_equivalence(self):
        # measure_p == pi/2 phase shift followed by measure_q
        rng = np.random.default_rng(42)
        for _ in range(200):
            g = random_graph(rng)
            node = int(rng.integers(g.n_modes))
            direct = engine.measure_p(g, node)
            blocks = phase_shift_blocks(g.n_modes, [node])
            rotated = engine.apply_symplectic(g, *blocks)
            oracle = engine.measure_q(rotated, node)
            assert np.allclose(direct.z_matrix, oracle.z_matrix, atol=1e-9)

    def test_order_independence(self):
        rng = np.random.default_rng(9)
        for op in (engine.measure_q, engine.measure_p):
            g = random_graph(rng, n=6)
            i, j = 1, 4
            a = op(op(g, j), i)          # high node first: indices stable
            b = op(op(g, i), j - 1)      # low node first: high index shifts
            assert np.allclose(a.z_matrix, b.z_matrix, atol=1e-10)


class TestApplySymplectic:
    def test_identity(self):
        g = two_mode_cluster(1.3)
        eye = np.eye(2)
        zero = np.zeros((2, 2))
        out = engine.apply_symplectic(g, eye, zero, zero, eye)
        assert np.allclose(out.z_matrix, g.z_matrix, atol=1e-14)

    def test_fourier_squared_is_parity(self):
        rng = np.random.default_rng(17)
        g = random_graph(rng, n=1)
        blocks = phase_shift_blocks(1, [0])
        out = engine.apply_symplectic(
            engine.apply_symplectic(g, *blocks), *blocks)
        assert np.allclose(out.z_matrix, g.z_matrix, atol=1e-10)

    def test_rejects_non_symplectic(self):
        g = two_mode_cluster(1.0)
        eye = np.eye(2)
        zero = np.zeros((2, 2))
        with pytest.raises(ValidationError):
            engine.apply_symplectic(g, 2 * eye, zero, zero, eye)
