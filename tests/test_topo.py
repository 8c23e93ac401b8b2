"""Region construction and topological diagnostics tests."""

import copy
import os
import subprocess
import sys
import warnings
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gausstopo as gt
from gausstopo import engine, topo
from gausstopo.errors import ValidationError

from conftest import dense_cut, loop_straddling


def product_cov(n_modes, kappa=1.0):
    return engine.thermal_scale(engine.CovMatrix(0.5 * np.eye(2 * n_modes)), kappa)


def fourteen_union_lower_bound(cov, kp, kappa=1.0):
    """TMI lower bound summed over all fourteen unions of {A, B, C, D},
    from the spectra of `cov` divided by `kappa`."""
    named = dict(kp.regions)
    named["D"] = sorted(set(range(cov.n_modes)) - set(kp.union("A", "B", "C")))
    total = 0.0
    for size in (1, 2, 3):
        zeta = -1 if size == 2 else 1
        for combo in combinations("ABCD", size):
            region = sorted(set().union(*[named[c] for c in combo]))
            vals = engine.symplectic_spectrum(cov, region).values / kappa
            vals = np.clip(vals, 0.5, None)
            total += -0.5 * zeta * float(np.sum(np.log2(2.0 * vals)))
    return total


def oracle_slack(graph, kappa):
    """First-order error of the dense oracle at this state.

    The oracle recomputes all N modes of the large regions, including the
    trivial ones at kappa/2, from U^-1, whose relative error is up to
    eps * cond(U).  A relative error r of sigma = x moves log2(2 x) by
    r / ln 2 and the entropy by r * x * h'(x), h'(x) = log2((x+1/2)/(x-1/2)).
    """
    rel = graph.n_modes * np.finfo(float).eps * np.linalg.cond(graph.u_part)
    x = 0.5 * kappa
    gain = 1.0 / np.log(2.0)
    if x > 0.5 + 1e-9:
        gain += x * np.log2((x + 0.5) / (x - 0.5))
    return rel * gain


# frozen regression values for the 16x16 torus at log s = 1 (default KP
# disk radius 19/6, LW inner 6 / width 3)
REF_16 = {
    "tee": 1.3836981144362426,
    "tee_lw": 0.6717320752341891,
    "tln": 1.6213184308849833,
    "tmi10": 1.1012790975672715,
    "lower": 1.0995760195335098,
}

# TLN of the kappa-scaled 12x12 torus state (default KP disk), keyed by
# log s, for kappa = 1, 2, 10.  Computed in mpmath at 40 digits, with U built
# at exact s = e^{log s}, from the cut identity
# (1 - lambda)/2 = eig((U^-1)_BB C_BB), C the U entries on edges crossing the
# cut and B their endpoints, which shares no step with the spectral path;
# rounded to 12 decimals.  The same computation from the float64 U moves
# the values by up to 3.7e-11 (at log s 3.25, cond(U) = 1 + 8 s^4).
REF_12_TLN = {
    2.4: (6.217757814820, 5.436006490577, 3.114078395690),
    2.8: (7.371789888477, 6.590035088870, 4.268106993983),
    3.25: (8.670189247870, 7.888433714293, 5.566505619405),
}


def loop_kp_regions(spec, center=None, radius=None):
    """Per-site loop form of kp_regions, kept as its oracle."""
    n, m = spec.rows, spec.cols
    if center is None:
        center = ((n - 1) / 2.0, (m - 1) / 2.0)
    if radius is None:
        radius = min(n, m) / 6.0 + 0.5
    topo._check_margin(spec, center, radius, radius / 2.0)
    cx, cy = center
    parts = {"A": [], "B": [], "C": []}
    for x in range(n):
        for y in range(m):
            dx, dy = x - cx, y - cy
            if dx * dx + dy * dy <= radius * radius:
                ang = np.degrees(np.arctan2(dy, dx)) % 360.0
                name = "A" if ang < 120 else ("B" if ang < 240 else "C")
                parts[name].append(x * m + y)
    if any(not v for v in parts.values()):
        raise ValidationError("radius %g spans an empty sector" % radius)
    return topo.RegionSet("KP", parts, {"center": tuple(center), "radius": float(radius),
                                        "rows": n, "cols": m})


def loop_lw_regions(spec, center=None, inner=6, width=3):
    """Per-site loop form of lw_regions, kept as its oracle."""
    if not width > 0:
        raise ValidationError("width must be positive")
    n, m = spec.rows, spec.cols
    if center is None:
        center = ((n - 1) / 2.0, (m - 1) / 2.0)
    h = inner / 2.0
    topo._check_margin(spec, center, h + width, 0.0)
    cx, cy = center
    parts = {"A": [], "B": [], "C": [], "D": []}
    for x in range(n):
        for y in range(m):
            dx, dy = x - cx, y - cy
            cheb = max(abs(dx), abs(dy))
            if not h < cheb <= h + width:
                continue
            i = x * m + y
            top = dx < -h
            bot = dx > h
            parts["A"].append(i)
            if not top:
                parts["B"].append(i)
            if not bot:
                parts["C"].append(i)
            if not top and not bot:
                parts["D"].append(i)
    sizes = {k: len(v) for k, v in parts.items()}
    if sizes["A"] - sizes["B"] != sizes["C"] - sizes["D"]:
        raise ValidationError("annulus strips are unbalanced: %s" % sizes)
    if not all(sizes.values()):
        raise ValidationError("annulus has an empty part: %s" % sizes)
    return topo.RegionSet("LW", parts, {"center": tuple(center), "inner": float(inner),
                                        "width": float(width), "rows": n, "cols": m})


def outcome(build, *args, **kwargs):
    """(regions with key order, geometry) of a region builder, or its
    ValidationError message."""
    try:
        regions = build(*args, **kwargs)
    except ValidationError as exc:
        return str(exc)
    return list(regions.regions.items()), regions.geometry


class TestRegionsMatchLoops:
    """The index-array region builders against their per-site loops: mode ids,
    order, geometry and errors, on tori and planar grids with default, integer
    (exact ties) and random centres and radii."""

    SHAPES = [(n, n, "torus") for n in (6, 7, 12, 16, 23, 36, 40)] + [
        (9, 14, "planar"), (20, 11, "torus"), (16, 16, "planar")]

    @staticmethod
    def centres(rng, n, m):
        yield None
        yield (n // 2, m // 2)
        yield (n // 2, m // 2 + np.sqrt(3))  # a site at exactly 240 degrees
        yield ((n - 1) / 2.0 + 0.5, (m - 1) / 2.0)
        yield tuple(rng.uniform(0, [n - 1, m - 1]))
        for _ in range(4):
            yield tuple(rng.uniform([0.3 * n, 0.3 * m], [0.7 * n, 0.7 * m]))

    def test_kp(self):
        rng = np.random.default_rng(7)
        for n, m, boundary in self.SHAPES:
            spec = gt.LatticeSpec(n, m, boundary, 0.0)
            for center in self.centres(rng, n, m):
                for radius in (None, 0.4, 1, 2.5, 5, min(n, m) / 4.0,
                               rng.uniform(0.5, min(n, m) / 3.0)):
                    assert outcome(topo.kp_regions, spec, center, radius) \
                        == outcome(loop_kp_regions, spec, center, radius)

    def test_lw(self):
        rng = np.random.default_rng(11)
        for n, m, boundary in self.SHAPES:
            spec = gt.LatticeSpec(n, m, boundary, 0.0)
            for center in self.centres(rng, n, m):
                for inner, width in ((6, 3), (4, 2), (2, 1), (5, 2.5), (3, 0), (-3, 2), (0, 2),
                                     (float("nan"), 2), (2, float("nan")),
                                     (rng.uniform(0, n / 3.0), rng.uniform(0.5, n / 4.0))):
                    assert outcome(topo.lw_regions, spec, center, inner, width) \
                        == outcome(loop_lw_regions, spec, center, inner, width)


class TestKPRegions:
    @pytest.mark.parametrize("radius", [0.4, 0, -1, -100, float("nan")])
    def test_empty_disk_rejected(self, radius):
        # a radius that is not positive squares to a disk over the whole torus
        spec = gt.LatticeSpec(16, 16, "torus", 0.0)
        with pytest.raises(ValidationError):
            topo.kp_regions(spec, radius=radius)

    def test_benchmark_sector_sizes(self):
        spec = gt.LatticeSpec(36, 36, "torus", 0.0)
        regions = topo.kp_regions(spec, radius=6.5)
        sizes = sorted(len(v) for v in regions.regions.values())
        assert sizes == [41, 41, 42]
        assert max(sizes) - min(sizes) <= 2

    def test_partition(self):
        spec = gt.LatticeSpec(16, 16, "torus", 0.0)
        regions = topo.kp_regions(spec)
        a, b, c = (set(regions.regions[k]) for k in "ABC")
        assert not (a & b or b & c or a & c)
        assert len(a | b | c) < spec.n_nodes
        # disjoint union tiles the disk
        cx, cy = regions.geometry["center"]
        radius = regions.geometry["radius"]
        disk = {x * 16 + y for x in range(16) for y in range(16)
                if (x - cx) ** 2 + (y - cy) ** 2 <= radius ** 2}
        assert a | b | c == disk

    def test_margin_enforced(self):
        spec = gt.LatticeSpec(16, 16, "torus", 0.0)
        with pytest.raises(ValidationError):
            topo.kp_regions(spec, center=(2.0, 8.0), radius=3.0)


class TestLWRegions:
    def test_benchmark_sizes(self):
        spec = gt.LatticeSpec(36, 36, "torus", 0.0)
        regions = topo.lw_regions(spec)
        sizes = {k: len(v) for k, v in regions.regions.items()}
        assert sizes == {"A": 108, "B": 72, "C": 72, "D": 36}

    def test_balance(self):
        spec = gt.LatticeSpec(24, 24, "torus", 0.0)
        regions = topo.lw_regions(spec, inner=4, width=2)
        sizes = {k: len(v) for k, v in regions.regions.items()}
        assert sizes["A"] - sizes["B"] == sizes["C"] - sizes["D"]

    def test_nesting(self):
        spec = gt.LatticeSpec(36, 36, "torus", 0.0)
        regions = topo.lw_regions(spec)
        a = set(regions.regions["A"])
        assert set(regions.regions["B"]) < a
        assert set(regions.regions["C"]) < a
        assert set(regions.regions["D"]) == set(regions.regions["B"]) \
            & set(regions.regions["C"])

    def test_zero_width_rejected(self):
        spec = gt.LatticeSpec(36, 36, "torus", 0.0)
        for width in (0, -1, float("nan")):
            with pytest.raises(ValidationError, match="width must be positive"):
                topo.lw_regions(spec, width=width)


class TestTEE:
    def test_product_state_zero(self):
        spec = gt.LatticeSpec(16, 16, "torus", 0.0)
        cov = product_cov(spec.n_nodes)
        assert topo.tee_kp(cov, topo.kp_regions(spec)) == 0.0
        assert topo.tee_lw(cov, topo.lw_regions(spec)) == 0.0

    def test_cluster_state_null(self, cluster_state):
        spec, cov = cluster_state(16, 16, 1.0)
        assert abs(topo.tee_kp(cov, topo.kp_regions(spec))) < 1e-6
        assert abs(topo.tee_lw(cov, topo.lw_regions(spec))) < 1e-6

    def test_surface_code_regression(self, surface_state):
        spec, cov = surface_state(16, 16, 1.0)
        assert topo.tee_kp(cov, topo.kp_regions(spec)) == pytest.approx(
            REF_16["tee"], abs=1e-7)
        assert topo.tee_lw(cov, topo.lw_regions(spec)) == pytest.approx(
            REF_16["tee_lw"], abs=1e-7)

    def test_wrong_region_kind(self, surface_state):
        spec, cov = surface_state(16, 16, 1.0)
        with pytest.raises(ValidationError):
            topo.tee_kp(cov, topo.lw_regions(spec))
        with pytest.raises(ValidationError):
            topo.tee_lw(cov, topo.kp_regions(spec))


class TestTLN:
    def test_product_state_zero(self):
        spec = gt.LatticeSpec(16, 16, "torus", 0.0)
        assert topo.tln_kp(product_cov(spec.n_nodes), topo.kp_regions(spec)) == 0.0

    def test_upper_bounds_tee(self, surface_state):
        for log_s in (0.5, 1.0, 2.0):
            spec, cov = surface_state(16, 16, log_s)
            kp = topo.kp_regions(spec)
            assert topo.tee_kp(cov, kp) <= topo.tln_kp(cov, kp) + 1e-6

    def test_regression(self, surface_state):
        spec, cov = surface_state(16, 16, 1.0)
        assert topo.tln_kp(cov, topo.kp_regions(spec)) == pytest.approx(
            REF_16["tln"], abs=1e-7)

    @pytest.mark.parametrize("log_s", sorted(REF_12_TLN))
    def test_high_precision_reference(self, surface_state, log_s):
        spec, cov = surface_state(12, 12, log_s)
        kp = topo.kp_regions(spec)
        for kappa, expected in zip((1.0, 2.0, 10.0), REF_12_TLN[log_s]):
            assert topo.tln_kp(engine.thermal_scale(cov, kappa), kp) == pytest.approx(
                expected, abs=1e-9)


class TestMutualInformation:
    def test_pure_state_doubles_entropy(self, surface_state):
        spec, cov = surface_state(16, 16, 1.0)
        region = topo.kp_regions(spec).regions["A"]
        s_a = topo.region_entropy(cov, region)
        assert topo.mutual_information(cov, region) == pytest.approx(
            2 * s_a, abs=1e-8)

    def test_thermal_product_zero(self):
        cov = product_cov(8, kappa=5.0)
        assert topo.mutual_information(cov, [0, 3]) == pytest.approx(0.0, abs=1e-9)

    def test_thermal_surface_positive(self, surface_state):
        spec, cov = surface_state(12, 12, 1.0)
        thermal = engine.thermal_scale(cov, 3.0)
        region = topo.kp_regions(spec).regions["A"]
        assert topo.mutual_information(thermal, region) > 0.1


class TestTMI:
    def test_pure_equals_tee(self, surface_state):
        spec, cov = surface_state(16, 16, 1.0)
        kp = topo.kp_regions(spec)
        # on a marked pure state both are the same reduction of the same spectra
        assert topo.tmi(cov, kp) == topo.tee_kp(cov, kp)

    def test_product_any_kappa_zero(self):
        spec = gt.LatticeSpec(16, 16, "torus", 0.0)
        kp = topo.kp_regions(spec)
        for kappa in (1.0, 7.0):
            assert topo.tmi(product_cov(spec.n_nodes, kappa), kp) == pytest.approx(
                0.0, abs=1e-9)

    def test_ordering_chain(self, surface_state):
        spec, cov = surface_state(16, 16, 1.0)
        kp = topo.kp_regions(spec)
        lower = topo.tmi_lower_bound(cov, kp)
        values = [topo.tmi(engine.thermal_scale(cov, k), kp) if k > 1
                  else topo.tmi(cov, kp) for k in (1.0, 2.0, 10.0)]
        for value in values:
            assert lower <= value + 1e-9
        assert values[2] <= values[1] + 1e-6 <= values[0] + 2e-6

    def test_regression(self, surface_state):
        spec, cov = surface_state(16, 16, 1.0)
        kp = topo.kp_regions(spec)
        assert topo.tmi(engine.thermal_scale(cov, 10.0), kp) == pytest.approx(
            REF_16["tmi10"], abs=1e-7)
        assert topo.tmi_lower_bound(cov, kp) == pytest.approx(
            REF_16["lower"], abs=1e-7)


class TestKPReduction:
    """The one-pass KP sums against the per-spectrum reference sums."""

    TOL = engine.SymplecticSpectrum.tol_half
    # exactly 1/2, within tol_half of it (below 1/2 clips to 1/2), its edge,
    # just above it, and entangled values
    VALUE = st.one_of(
        st.sampled_from([0.5, 0.5 + TOL, 0.5 - 0.5 * TOL, 0.5 + 2 * TOL]),
        st.floats(0.5, 0.5 + 2 * TOL), st.floats(0.5, 60.0))

    @settings(max_examples=150)
    @given(values=st.lists(st.lists(VALUE, min_size=1, max_size=12), min_size=7, max_size=7),
           kappa=st.sampled_from([1.0, 10.0, 1e6]))
    def test_matches_per_spectrum_sums(self, values, kappa):
        spectra = [engine.SymplecticSpectrum(v) for v in values]
        # per-union references: entropy of the kappa-scaled state,
        # log-negativity, sum of log2(2 sigma)
        entropies = [engine.von_neumann_entropy(spec.scaled(kappa)) for spec in spectra]
        negativities = [engine.pure_log_negativity(spec, kappa) for spec in spectra]
        log_sums = [float(np.sum(np.log2(2.0 * spec.values))) for spec in spectra]
        with pytest.MonkeyPatch.context() as patch:  # _kp_values of these seven spectra
            patch.setattr(engine, "_pure_spectra", lambda cov, unions: spectra)
            kp_values = topo._kp_values(product_cov(1),
                                        topo.RegionSet("KP", dict.fromkeys("ABC", [0])))
        assert np.abs(topo._kp_entropies(kp_values, kappa) - entropies).max() <= (
            1e-12 * max(1.0, sum(entropies)))
        for fast, per_union in [(topo._kp_entropy(kp_values, kappa), entropies),
                                (topo._kp_log_negativity(kp_values, kappa), negativities),
                                (topo._kp_log_sum(kp_values), log_sums)]:
            # sums taken in another order: rounding relative to their terms
            reference = topo._kp_sum(lambda term: term, per_union)
            assert abs(fast - reference) <= 1e-12 * max(1.0, sum(per_union))


class TestKPValuesMemo:
    """The concatenated pure values of the seven KP spectra are built once
    per state and serve every KP diagnostic, at every kappa."""

    def test_one_concatenation_per_state(self, monkeypatch):
        spec = gt.LatticeSpec(16, 16, "torus", 2.0)
        cov = engine.covariance_from_graph(gt.surface_code_graph_analytic(spec))
        kp, small = topo.kp_regions(spec), topo.kp_regions(spec, radius=4.5)
        calls, pure_spectra = [], engine._pure_spectra

        def counted(state, unions):
            calls.append(unions)
            return pure_spectra(state, unions)

        monkeypatch.setattr(engine, "_pure_spectra", counted)
        hot = engine.thermal_scale(cov, 10.0)
        values = [topo.tee_kp(cov, kp), topo.tln_kp(cov, kp), topo.tmi(cov, kp),
                  topo.tmi(hot, kp), topo.tln_kp(hot, kp), topo.tmi_lower_bound(cov, kp)]
        assert calls == [kp.kp_unions]
        # each region set keeps its own values
        other = topo.tee_kp(hot, small)
        assert calls == [kp.kp_unions, small.kp_unions]
        # the reductions of a fresh concatenation of the memoised spectra
        del cov._memo["kp"]
        fresh = topo._kp_values(cov, kp)
        assert values == [topo._kp_entropy(fresh, 1.0), topo._kp_log_negativity(fresh, 1.0),
                          topo._kp_entropy(fresh, 1.0), topo._kp_entropy(fresh, 10.0),
                          topo._kp_log_negativity(fresh, 10.0), topo._kp_log_sum(fresh)]
        assert other == topo._kp_entropy(topo._kp_values(cov, small), 10.0)


class TestTMILowerBound:
    def test_product_state_zero(self):
        spec = gt.LatticeSpec(16, 16, "torus", 0.0)
        kp = topo.kp_regions(spec)
        assert topo.tmi_lower_bound(product_cov(spec.n_nodes), kp) == 0.0

    def test_requires_pure_state(self, surface_state):
        spec, cov = surface_state(16, 16, 1.0)
        kp = topo.kp_regions(spec)
        with pytest.raises(ValidationError):
            topo.tmi_lower_bound(engine.thermal_scale(cov, 2.0), kp)

    def test_zeta_sum_rule(self, surface_state):
        # invariant under recomputation from kappa-scaled spectra divided
        # by kappa: the kappa contributions cancel across the 14 unions
        spec, cov = surface_state(12, 12, 1.0)
        kp = topo.kp_regions(spec)
        base = topo.tmi_lower_bound(cov, kp)
        kappa = 7.0
        thermal = engine.thermal_scale(cov, kappa)
        total = fourteen_union_lower_bound(thermal, kp, kappa)
        assert total == pytest.approx(base, abs=1e-9)


class TestSpectraSetOracle:
    """The seven-spectra forms of a marked state against the general paths."""

    @settings(max_examples=25)
    @given(log_s=st.floats(0.3, 3.0), kappa=st.floats(1.0, 20.0))
    def test_marked_matches_general(self, log_s, kappa):
        spec = gt.LatticeSpec(12, 12, "torus", log_s)
        graph = gt.surface_code_graph_analytic(spec)
        cov = engine.thermal_scale(engine.covariance_from_graph(graph), kappa)
        kp = topo.kp_regions(spec)
        # an unmarked copy takes the block-diagonal fallback and the
        # mutual-information sum
        plain = engine.CovMatrix(cov.gamma, kappa=cov.kappa)
        general = -0.5 * sum(sign * topo.mutual_information(plain, kp.union(*names))
                             for names, sign in zip(topo.KP_SUBSETS, topo.KP_SIGNS))
        assert topo.tmi(plain, kp) == general
        tol = 1e-9 + oracle_slack(graph, kappa)
        assert abs(topo.tmi(cov, kp) - general) <= tol
        pure = engine.covariance_from_graph(graph)
        oracle = fourteen_union_lower_bound(engine.CovMatrix(pure.gamma), kp)
        assert abs(topo.tmi_lower_bound(pure, kp) - oracle) <= 1e-9 + oracle_slack(graph, 1.0)


    @settings(max_examples=30)
    @given(rows=st.sampled_from(range(4, 13, 2)), cols=st.sampled_from(range(4, 13, 2)),
           log_s=st.floats(0.3, 3.0), kappa=st.floats(1.0, 20.0),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_factor_path_matches_dense_oracles(self, rows, cols, log_s, kappa, seed):
        graph = gt.surface_code_graph_analytic(gt.LatticeSpec(rows, cols, "torus", log_s))
        assert_spectra_match_dense_oracles(graph, cols, kappa, seed)

    @settings(max_examples=30)
    @given(rows=st.integers(2, 12), cols=st.integers(2, 12), pipeline=st.booleans(),
           log_s=st.floats(0.3, 3.0), kappa=st.floats(1.0, 20.0),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_factor_route_matches_dense_oracles(self, rows, cols, pipeline, log_s, kappa, seed):
        # planar analytic grids and the measurement pipeline on an even torus
        # take the block Cholesky route
        if pipeline:
            spec = gt.LatticeSpec(2 * (rows // 2 + 1), 2 * (cols // 2 + 1), "torus", log_s)
            graph, _ = gt.map_cluster_to_surface(spec)
        else:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # the planar closed form warns
                graph = gt.surface_code_graph_analytic(
                    gt.LatticeSpec(rows, cols, "planar", log_s))
        assert engine.covariance_from_graph(graph)._factor is not None
        assert_spectra_match_dense_oracles(graph, cols, kappa, seed)


def assert_spectra_match_dense_oracles(graph, cols, kappa, seed):
    """Spectra of random regions and cut-boundary edge cases of the U-native
    state of `graph` at `kappa` against the general path and the unmarked
    dense covariance."""
    cov = engine.thermal_scale(engine.covariance_from_graph(graph), kappa)
    n = graph.n_modes
    rng = np.random.default_rng(seed)
    # a region below N/2, one above and one of any size up to all modes
    sizes = (rng.integers(1, n // 2 + 1), rng.integers(n // 2 + 1, n + 1),
             rng.integers(1, n + 1))
    regions = [sorted(rng.choice(n, size=k, replace=False).tolist()) for k in sizes]
    # cut-boundary edge cases: a single mode and a 1 x k strip (both with
    # |dS| > |S|), the complement of a single mode, and the whole lattice
    # (dS empty, every sigma 1/2)
    mode = int(rng.integers(n))
    regions += [[mode], list(range(int(rng.integers(1, cols + 1)))),
                [i for i in range(n) if i != mode], list(range(n))]
    plain = engine.CovMatrix(cov.gamma, kappa=kappa)
    tol = 1e-9 + oracle_slack(graph, kappa)
    for region, fast in zip(regions, engine.symplectic_spectra(cov, regions)):
        for oracle in (engine.symplectic_spectrum(cov, region, force_general=True),
                       engine.symplectic_spectrum(plain, region)):
            assert len(oracle) == len(fast) == len(region)
            assert abs(engine.von_neumann_entropy(fast)
                       - engine.von_neumann_entropy(oracle)) <= tol
            assert abs(np.sum(np.log2(2 * fast.values / kappa))
                       - np.sum(np.log2(2 * oracle.values / kappa))) <= tol


# an even torus builds its two cell columns once and solves nothing; any
# other U-native state factors once and solves once: a planar closed form
# factors its p-node system
TORUS_COUNTS = {"factor": 0, "solve": 0, "cell": 1}
FACTOR_COUNTS = {"factor": 1, "solve": 1, "p_nodes": 1}


def refuse_dense(monkeypatch):
    """Make every dense N x N array and eigvalsh raise."""
    def refuse(*args, **kwargs):
        raise AssertionError("a KP pass on an analytic surface code needs no dense "
                             "N x N array and no eigvalsh")

    for cls, names in ((engine.GaussGraph, ("u_part", "v_part")),
                       (engine.CovMatrix, ("gamma", "q_block", "p_block"))):
        for name in names:
            monkeypatch.setattr(cls, name, property(refuse))
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)


def kp_pass(spec):
    """TEE, TLN, TMI at kappa 1 and 10, TLN at kappa 10 and the TMI lower
    bound of the analytic surface code of `spec`."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the planar closed form warns
        cov = engine.covariance_from_graph(gt.surface_code_graph_analytic(spec))
    kp = topo.kp_regions(spec)
    hot = engine.thermal_scale(cov, 10.0)
    return (topo.tee_kp(cov, kp), topo.tln_kp(cov, kp), topo.tmi(cov, kp),
            topo.tmi(hot, kp), topo.tln_kp(hot, kp), topo.tmi_lower_bound(cov, kp))


class TestFactoredKPPass:
    def test_one_factor_one_solve_no_gamma(self, monkeypatch, factor_counts):
        def no_gamma(cov):
            raise AssertionError("the KP diagnostics of a marked V = 0 state build no gamma")

        monkeypatch.setattr(engine.CovMatrix, "gamma", property(no_gamma))
        tee, tln, tmi1, tmi10, _, lower = kp_pass(gt.LatticeSpec(12, 12, "torus", 2.8))
        assert factor_counts == TORUS_COUNTS
        assert tee == tmi1
        assert lower <= tmi10 <= tmi1 <= tln

    @pytest.mark.parametrize("rows,cols", [(12, 12), (16, 12), (24, 24)])
    def test_pass_builds_no_dense_matrix(self, monkeypatch, factor_counts, rows, cols):
        refuse_dense(monkeypatch)
        tee, tln, tmi1, tmi10, _, lower = kp_pass(gt.LatticeSpec(rows, cols, "torus", 2.8))
        assert factor_counts == TORUS_COUNTS
        assert lower <= tmi10 <= tmi1 == tee <= tln

    def test_planar_pass_keeps_factor_route(self, monkeypatch, factor_counts):
        refuse_dense(monkeypatch)
        tee, tln, tmi1, tmi10, _, lower = kp_pass(gt.LatticeSpec(16, 12, "planar", 2.8))
        assert factor_counts == FACTOR_COUNTS
        assert lower <= tmi10 <= tmi1 == tee <= tln

    @pytest.mark.parametrize("rows,cols,boundary", [(16, 16, "torus"), (16, 12, "planar")])
    def test_eigensolves_take_the_smaller_cut_side(self, monkeypatch, rows, cols, boundary):
        spec = gt.LatticeSpec(rows, cols, boundary, 2.8)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the planar closed form warns
            u = gt.surface_code_graph_analytic(spec).u_part
        kp = topo.kp_regions(spec)
        cuts = [dense_cut(u, kp.union(*names)) for names in topo.KP_SUBSETS]

        eigvals = np.linalg.eigvals
        shapes = []

        def recorded(a):
            shapes.append(a.shape)
            return eigvals(a)

        straddling = [loop_straddling(spec, kp.union(*names)) for names in topo.KP_SUBSETS]

        monkeypatch.setattr(np.linalg, "eigvals", recorded)
        kp_pass(spec)
        # one eigensolve per KP union, of size min(|P|, |dS|, |d'S|), |P| the
        # p-nodes with a mode on each side of the cut
        assert shapes == [(min(p, edge.size, rim.size),) * 2
                          for p, (edge, rim, _) in zip(straddling, cuts)]
        assert any(p < min(edge.size, rim.size) for p, (edge, rim, _) in zip(straddling, cuts))

    def test_each_union_checked_once(self, monkeypatch):
        # the seven unions are checked once, as one batch, when it is planned
        checked = engine._region_ids
        calls = []

        def counted(regions, n):
            calls.append([len(region) for region in regions])
            return checked(regions, n)

        monkeypatch.setattr(engine, "_region_ids", counted)
        spec = gt.LatticeSpec(12, 12, "torus", 2.8)
        cov = engine.covariance_from_graph(gt.surface_code_graph_analytic(spec))
        kp = topo.kp_regions(spec)
        for state in (cov, engine.thermal_scale(cov, 10.0)):
            topo.tee_kp(state, kp), topo.tln_kp(state, kp), topo.tmi(state, kp)
        topo.tmi_lower_bound(cov, kp)
        assert calls == [[len(kp.union(*names)) for names in topo.KP_SUBSETS]]

    def test_memo_hit_matches_checked_region(self):
        spec = gt.LatticeSpec(12, 12, "torus", 2.0)
        cov = engine.covariance_from_graph(gt.surface_code_graph_analytic(spec))
        region = topo.kp_regions(spec).regions["A"]
        first = engine.symplectic_spectrum(cov, region)
        shuffled = np.array(region[::-1] + region[:3])
        assert np.array_equal(engine.symplectic_spectrum(cov, shuffled).values, first.values)
        for bad in ([], [-1] + region, region + [spec.n_nodes]):
            with pytest.raises(ValidationError):
                engine.symplectic_spectrum(cov, bad)

    def test_values_identical_across_blas_threads(self):
        # the cell FFT, the gather and the small boundary products of these
        # even tori give the same bits under any BLAS thread count
        script = "\n".join([
            "from gausstopo import engine, lattice, topo",
            "for log_s in (1.0, 2.4, 2.8, 3.2):",
            "    spec = lattice.LatticeSpec(16, 16, 'torus', log_s)",
            "    cov = engine.covariance_from_graph(lattice.surface_code_graph_analytic(spec))",
            "    kp = topo.kp_regions(spec)",
            "    print(repr([topo.tee_kp(cov, kp), topo.tln_kp(cov, kp), topo.tmi(cov, kp),",
            "                topo.tmi(engine.thermal_scale(cov, 10.0), kp),",
            "                topo.tmi_lower_bound(cov, kp)]))",
        ])
        src = os.path.dirname(os.path.dirname(os.path.abspath(gt.__file__)))
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join([src] + sys.path))
            outputs.append(subprocess.run([sys.executable, "-c", script], env=env, check=True,
                                          capture_output=True, text=True, timeout=300).stdout)
        assert len(outputs[0].splitlines()) == 4
        assert outputs[0] == outputs[1]

    def test_36_values_identical_across_blas_threads(self):
        # the KP values of the 36 x 36 torus (cell route) and planar grid
        # (factor route) at log s 2.8, and area_law_fit's alpha at 3.2, from
        # two fresh interpreters at 1 and 2 OpenBLAS threads
        script = "\n".join([
            "import warnings",
            "from gausstopo import correlations, engine, lattice, topo",
            "warnings.simplefilter('ignore')",
            "values = []",
            "for boundary in ('torus', 'planar'):",
            "    spec = lattice.LatticeSpec(36, 36, boundary, 2.8)",
            "    cov = engine.covariance_from_graph(lattice.surface_code_graph_analytic(spec))",
            "    kp = topo.kp_regions(spec)",
            "    values += [topo.tee_kp(cov, kp), topo.tln_kp(cov, kp), topo.tmi(cov, kp),",
            "               topo.tmi(engine.thermal_scale(cov, 10.0), kp),",
            "               topo.tmi_lower_bound(cov, kp)]",
            "spec = lattice.LatticeSpec(36, 36, 'planar', 3.2)",
            "cov = engine.covariance_from_graph(lattice.surface_code_graph_analytic(spec))",
            "values.append(correlations.area_law_fit(cov, spec)[0])",
            "print(repr(values))",
        ])
        src = os.path.dirname(os.path.dirname(os.path.abspath(gt.__file__)))
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join([src] + sys.path))
            outputs.append(subprocess.run([sys.executable, "-c", script], env=env, check=True,
                                          capture_output=True, text=True, timeout=300).stdout)
        assert len(eval(outputs[0])) == 11
        assert outputs[0] == outputs[1]

    def test_lw_entropies_from_one_solve(self, factor_counts):
        spec = gt.LatticeSpec(24, 24, "torus", 2.0)
        graph = gt.surface_code_graph_analytic(spec)
        lw = topo.lw_regions(spec)
        cov = engine.covariance_from_graph(graph)
        value = topo.tee_lw(cov, lw)
        assert factor_counts == {"factor": 0, "solve": 0, "cell": 1}
        # one fresh state, and so one cell build, per region
        single = {name: topo.region_entropy(engine.covariance_from_graph(graph),
                                            lw.regions[name]) for name in "ABCD"}
        assert factor_counts == {"factor": 0, "solve": 0, "cell": 5}
        assert abs(value + 0.5 * ((single["A"] - single["B"])
                                  - (single["C"] - single["D"]))) <= 1e-12
        for name in "ABCD":
            assert abs(topo.region_entropy(cov, lw.regions[name]) - single[name]) <= 1e-12
        fresh = engine.covariance_from_graph(graph)
        topo.mutual_information(fresh, lw.regions["A"])
        bound = topo.sandwich_regions(lw)
        topo.bipartite_mutual_information(fresh, bound["E"], bound["F"])
        assert factor_counts == {"factor": 0, "solve": 0, "cell": 6}


def cut_path_graph(graph):
    """`graph` with its U's values but no incidence scale recorded, so its
    cuts take the product of U^-1[d'S, dS] and U[dS, d'S]."""
    plain = copy.copy(graph)
    u = graph._u_sparse
    plain._u_sparse = u.with_data(u.data)
    return plain


def mixed_regions(rng, spec):
    """Random regions, compact ones (a rectangle, wrapping on a torus and
    clipped on a planar grid), a single mode (|P| > |d'S| = 1), the
    complement of a single mode and the whole lattice."""
    rows, cols = spec.rows, spec.cols
    n = rows * cols
    regions = [sorted(rng.choice(n, size=int(k), replace=False).tolist())
               for k in rng.integers(1, n + 1, size=2)]
    for _ in range(2):
        xs = np.arange(rng.integers(rows), rows + rng.integers(rows))[:rng.integers(1, rows + 1)]
        ys = np.arange(rng.integers(cols), cols + rng.integers(cols))[:rng.integers(1, cols + 1)]
        if spec.boundary == "torus":
            xs, ys = xs % rows, ys % cols
        xs, ys = xs[xs < rows], ys[ys < cols]
        if xs.size and ys.size:
            regions.append(sorted((xs[:, None] * cols + ys).ravel().tolist()))
    mode = int(rng.integers(n))
    regions += [[mode], [i for i in range(n) if i != mode], list(range(n))]
    return list(filter(len, regions))


class TestPNodeCuts:
    """Where U records its p-node incidence, each cut is solved in the space
    of the p-nodes it cuts, against the product of U^-1[d'S, dS] and
    U[dS, d'S] and against the general path."""

    @settings(max_examples=40)
    @given(shape=st.one_of(
               st.tuples(st.sampled_from(range(4, 13, 2)), st.sampled_from(range(4, 13, 2)),
                         st.just("torus")),
               st.tuples(st.integers(1, 12), st.integers(1, 12), st.just("planar"))),
           log_s=st.floats(0.3, 3.25), kappa=st.sampled_from([1.0, 10.0]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_p_node_path_matches_cut_path_and_general(self, shape, log_s, kappa, seed):
        # the general path works on the dense gamma, whose error outgrows
        # oracle_slack above log s 2 on compact regions (1.6e-7 bits on a
        # 41-mode rectangle of the 6 x 8 torus at log s 3, against a slack of
        # 2e-8, where the two cut paths agree within 1e-10); there only the
        # cut path is the oracle
        rows, cols, boundary = shape
        spec = gt.LatticeSpec(rows, cols, boundary, log_s)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the planar closed form warns
            graph = gt.surface_code_graph_analytic(spec)
        regions = mixed_regions(np.random.default_rng(seed), spec)
        pure = engine.covariance_from_graph(graph)
        cov = engine.thermal_scale(pure, kappa)
        cut = engine.thermal_scale(engine.covariance_from_graph(cut_path_graph(graph)), kappa)
        tol = 1e-9 + oracle_slack(graph, kappa)
        for region, fast, slow, known in zip(regions, engine.symplectic_spectra(cov, regions),
                                             engine.symplectic_spectra(cut, regions),
                                             engine._pure_spectra(pure, regions)):
            assert known.p_nodes == loop_straddling(spec, region)
            assert known.n_above <= known.p_nodes
            oracles = [slow]
            if log_s <= 2.0:
                oracles.append(engine.symplectic_spectrum(cov, region, force_general=True))
            for oracle in oracles:
                assert len(oracle) == len(fast) == len(region)
                assert abs(engine.von_neumann_entropy(fast)
                           - engine.von_neumann_entropy(oracle)) <= tol
                assert abs(np.sum(np.log2(2 * fast.values / kappa))
                           - np.sum(np.log2(2 * oracle.values / kappa))) <= tol

    def test_single_mode_keeps_the_cut_product(self, monkeypatch):
        # a mode has |P| = 2 > |d'S| = 1: its eigensolve is 1 x 1
        spec = gt.LatticeSpec(8, 8, "torus", 2.0)
        cov = engine.covariance_from_graph(gt.surface_code_graph_analytic(spec))
        eigvals, shapes = np.linalg.eigvals, []
        monkeypatch.setattr(np.linalg, "eigvals", lambda a: shapes.append(a.shape) or eigvals(a))
        (spectrum,) = engine._pure_spectra(cov, [[9]])
        assert shapes == [(1, 1)] and (spectrum.rim, spectrum.p_nodes) == (1, 2)

    @pytest.mark.parametrize("size", [12, 36])
    def test_kp_unions_have_one_pair_per_p_node(self, size):
        # n_above is the rank of U[dS, d'S], at most |P|, and equals |P| on
        # every KP union but the 12 x 12 sector B: its modes {52..55, 65, 66}
        # cut 6 p-nodes through a coupling of rank 5
        for log_s in (1.0, 1.6, 2.2, 2.8, 3.2):
            spec = gt.LatticeSpec(size, size, "torus", log_s)
            graph = gt.surface_code_graph_analytic(spec)
            kp = topo.kp_regions(spec)
            spectra = engine._pure_spectra(engine.covariance_from_graph(graph), kp.kp_unions)
            for names, union, spectrum in zip(topo.KP_SUBSETS, kp.kp_unions, spectra):
                _, _, coupling = dense_cut(graph.u_part, list(union))
                assert spectrum.p_nodes == loop_straddling(spec, union)
                assert spectrum.n_above == np.linalg.matrix_rank(coupling) <= spectrum.p_nodes
                if (size, names) != (12, ("B",)):
                    assert spectrum.n_above == spectrum.p_nodes


class TestSandwichBounds:
    def test_product_state(self):
        spec = gt.LatticeSpec(16, 16, "torus", 0.0)
        lw = topo.lw_regions(spec)
        assert topo.tmi_sandwich_bounds(product_cov(spec.n_nodes), lw) == (0.0, 0.0)

    def test_region_structure(self):
        spec = gt.LatticeSpec(36, 36, "torus", 0.0)
        lw = topo.lw_regions(spec)
        reg = topo.sandwich_regions(lw)
        assert not set(reg["E"]) & set(reg["F"])
        assert set(reg["F"]) == set(reg["F1"]) | set(reg["F2"])
        # E = A \ B and F1 = A \ C cover A \ D; F2 = D fills the rest
        assert set(reg["E"]) | set(reg["F1"]) == \
            set(lw.regions["A"]) - set(lw.regions["D"])
        assert set(reg["E"]) | set(reg["F"]) == set(lw.regions["A"])

    def test_bounds_sandwich_tee(self, surface_state):
        spec, cov = surface_state(16, 16, 1.0)
        lower, upper = topo.tmi_sandwich_bounds(cov, topo.lw_regions(spec))
        assert lower <= upper
        tee = topo.tee_kp(cov, topo.kp_regions(spec))
        assert lower - 1e-9 <= tee <= upper + 1e-9

    def test_overlap_rejected(self, surface_state):
        spec, cov = surface_state(16, 16, 1.0)
        with pytest.raises(ValidationError):
            topo.bipartite_mutual_information(cov, [0, 1], [1, 2])


class TestUpperBound:
    def test_unit_squeezing(self):
        assert topo.sigma_one(1.0) == pytest.approx(0.5 * np.sqrt(1.5))
        assert topo.tee_upper_bound(1.0) == pytest.approx(0.525, abs=2e-3)

    def test_matches_network_entropy(self):
        from conftest import star_pipeline_graph
        for s in (0.9, 1.0, np.e):
            cov = engine.covariance_from_graph(star_pipeline_graph(s))
            entropy = engine.von_neumann_entropy(
                engine.symplectic_spectrum(cov, [0]))
            assert topo.tee_upper_bound(s) == pytest.approx(entropy, abs=1e-10)

    def test_asymptotic_slope(self):
        slope = topo.tee_upper_bound(np.exp(6.0)) - topo.tee_upper_bound(np.exp(5.0))
        assert slope == pytest.approx(2 / np.log(2), abs=1e-4)

    def test_dominates_tee(self, surface_state):
        spec, cov = surface_state(16, 16, 1.0)
        tee = topo.tee_kp(cov, topo.kp_regions(spec))
        assert topo.tee_upper_bound(spec.s) >= tee - 1e-9

    def test_rejects_non_positive(self):
        with pytest.raises(ValidationError):
            topo.tee_upper_bound(0.0)

    @pytest.mark.parametrize("log_s", [-176.9, -20.0, 0.0, 3.0, 20.0, 90.0, 176.9])
    def test_matches_mpmath(self, log_s):
        # s^8 overflows from log s ~ 88.7, and the entropy difference cancels
        # completely from sigma ~ 2^53 (log s ~ 18.8); the reference keeps 40
        # digits beyond the ~154 that sigma = O(s^2) takes at log s 176.9
        mp = pytest.importorskip("mpmath")
        s = np.exp(log_s)
        with mp.workdps(240):
            s4 = mp.mpf(s) ** 4
            sigma = mp.sqrt((1 + 3 * s4 + 2 * s4 ** 2) / (1 + 3 * s4)) / 2
            assert topo.sigma_one(s) == pytest.approx(float(sigma), rel=1e-15)
            if sigma <= 0.5 + engine.SymplecticSpectrum.tol_half:
                ref = 0.0  # a mode within tol_half of 1/2 adds exactly 0
            else:
                ref = float(((sigma + 0.5) * mp.log(sigma + 0.5)
                             - (sigma - 0.5) * mp.log(sigma - 0.5)) / mp.log(2))
        assert topo.tee_upper_bound(s) == pytest.approx(ref, rel=1e-14, abs=0)


class TestTopoReport:
    def test_to_dict_keys(self):
        report = topo.TopoReport(log_s=1.0, tee_kp=2.0, tln_kp=3.0)
        record = report.to_dict()
        assert record["log_s"] == 1.0
        assert record["tln"] == 3.0
        assert set(record) >= {"tee_kp", "tee_lw", "tmi", "tmi_lower",
                               "tee_upper", "kappa", "geometry"}
