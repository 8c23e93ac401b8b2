"""Lattice, cluster/surface-code graphs, nullifier tests."""

import hashlib
import warnings
from functools import partial

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

import gausstopo as gt
from gausstopo import engine, lattice
from gausstopo.errors import IllConditionedGraphError, SingularPivotError, ValidationError

from conftest import clear_lattice_memos, loop_plaquettes, star_pipeline_graph


def sequential_pipeline(spec):
    """Reference pipeline: one measure_p / measure_q per node, in
    descending node order so that lower node ids keep their index."""
    graph = gt.cluster_graph(spec)
    q_nodes, p_nodes, kept = gt.measurement_pattern(spec)
    kind = {i: engine.measure_p for i in p_nodes}
    kind.update({i: engine.measure_q for i in q_nodes})
    for node in sorted(kind, reverse=True):
        graph = kind[node](graph, node)
    return graph, [(k // spec.cols + 1, k % spec.cols + 1) for k in kept]


def dense_schur_pipeline(spec):
    """Reference (V, U) of the pipeline: the block Schur complement of the
    dense cluster graph Z = A_d + i s^-2 I, solved dense."""
    _, p_nodes, kept = gt.measurement_pattern(spec)
    adj = gt.cluster_adjacency(spec)
    eps = spec.s ** -2
    z_pk = adj[np.ix_(p_nodes, kept)]
    z_pp = adj[np.ix_(p_nodes, p_nodes)] + 1j * eps * np.eye(len(p_nodes))
    z_new = (adj[np.ix_(kept, kept)] + 1j * eps * np.eye(len(kept))
             - z_pk.T @ np.linalg.solve(z_pp, z_pk))
    z_new = 0.5 * (z_new + z_new.T)
    return z_new.real, z_new.imag


def sparse_pipeline_specs():
    """Planar grids 1..12 x 1..12 and even tori 2..16 x 2..16, the lattices
    on which no two p-nodes are adjacent, at seven log s in [-2, 3]; at
    -1.5, 0.7, 1.6 and 2.4, s**2 and 1 / s**-2 round differently."""
    shapes = [(rows, cols, "planar") for rows in range(1, 13) for cols in range(1, 13)]
    shapes += [(rows, cols, "torus") for rows in range(2, 17, 2) for cols in range(2, 17, 2)]
    return [gt.LatticeSpec(rows, cols, boundary, log_s)
            for rows, cols, boundary in shapes for log_s in (-2, -1.5, 0, 0.7, 1.6, 2.4, 3)]


def loop_measurement_pattern(spec):
    """Reference pattern: one parity test per 1-based (row, col) site."""
    q_nodes, p_nodes, kept = [], [], []
    for row in range(1, spec.rows + 1):
        for col in range(1, spec.cols + 1):
            i = (row - 1) * spec.cols + (col - 1)
            if row % 2 == 1 and col % 2 == 1:
                p_nodes.append(i)
            elif row % 2 == 0 and col % 2 == 0:
                q_nodes.append(i)
            else:
                kept.append(i)
    return q_nodes, p_nodes, kept


def loop_surface_code_adjacency(spec, diagonals=True):
    """Reference adjacency: per-site square links and, when `diagonals`,
    both diagonals of every plaquette with corner x + y even."""
    n, m = spec.rows, spec.cols
    torus = spec.boundary == "torus"
    adj = np.zeros((n * m, n * m))

    def link(xa, ya, xb, yb):
        i, j = (xa % n) * m + ya % m, (xb % n) * m + yb % m
        if i != j:
            adj[i, j] = adj[j, i] = 1.0

    for x in range(n):
        for y in range(m):
            for dx, dy in ((0, 1), (1, 0)):
                if torus or (x + dx < n and y + dy < m):
                    link(x, y, x + dx, y + dy)
            if diagonals and (x + y) % 2 == 0 and (torus or (x + 1 < n and y + 1 < m)):
                link(x, y, x + 1, y + 1)
                link(x + 1, y, x, y + 1)
    return adj


def loop_kept_mode_adjacency(spec):
    """Reference: join every pair of kept neighbors of each p-node."""
    adj_cluster = loop_surface_code_adjacency(spec, diagonals=False)
    _, p_nodes, kept = loop_measurement_pattern(spec)
    pos = {k: i for i, k in enumerate(kept)}
    adj = np.zeros((len(kept), len(kept)))
    for pk in p_nodes:
        nbrs = [pos[j] for j in np.flatnonzero(adj_cluster[pk]) if j in pos]
        for a in nbrs:
            for b in nbrs:
                if a != b:
                    adj[a, b] = 1.0
    return adj


def loop_surface_incidence(spec):
    """Reference (edge_endpoints, vertex_edges, vertex_neighbors) from the
    four lattice neighbors of each kept site."""
    q_nodes, p_nodes, kept = loop_measurement_pattern(spec)
    rows, cols = spec.rows, spec.cols
    vertex_pos = {k: i for i, k in enumerate(p_nodes)}
    edge_endpoints = []
    for k in kept:
        ends = set()
        for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)):
            r0, c0 = k // cols + dr, k % cols + dc
            if spec.boundary == "torus":
                r0, c0 = r0 % rows, c0 % cols
            if 0 <= r0 < rows and 0 <= c0 < cols and r0 * cols + c0 in vertex_pos:
                ends.add(vertex_pos[r0 * cols + c0])
        edge_endpoints.append(tuple(sorted(ends)))
    vertex_edges = [[] for _ in p_nodes]
    vertex_neighbors = [set() for _ in p_nodes]
    for e, ends in enumerate(edge_endpoints):
        for v in ends:
            vertex_edges[v].append(e)
        if len(ends) == 2:
            vertex_neighbors[ends[0]].add(ends[1])
            vertex_neighbors[ends[1]].add(ends[0])
    return edge_endpoints, vertex_edges, vertex_neighbors


def loop_face_boundaries(spec):
    """Reference face boundaries: the N, S, W, E kept neighbors of each
    q-site, signed +1 on N/S and -1 on E/W."""
    q_nodes, _, kept = loop_measurement_pattern(spec)
    rows, cols = spec.rows, spec.cols
    kept_at = {divmod(k, cols): i for i, k in enumerate(kept)}
    face_boundaries = []
    for k in q_nodes:
        r0, c0 = divmod(k, cols)
        boundary = []
        for dr, dc, sign in ((-1, 0, 1.0), (1, 0, 1.0), (0, -1, -1.0), (0, 1, -1.0)):
            r1, c1 = r0 + dr, c0 + dc
            if spec.boundary == "torus":
                r1, c1 = r1 % rows, c1 % cols
            if (r1, c1) in kept_at:
                boundary.append((kept_at[r1, c1], sign))
        face_boundaries.append(boundary)
    return face_boundaries


def loop_nullifier_vectors(sg, s):
    """Reference (vertex, face) nullifier vectors: one loop per vertex and
    per face over the incidence lists."""
    n = sg.n_modes
    vertex_nullifiers = []
    for v in sg.vertices:
        val = sg.valence(v)
        s_v = np.sqrt(val * s ** 2 + s ** -2)
        with np.errstate(divide="ignore"):  # unused when v has no edge
            pref = s_v / np.sqrt(2 * val * (1 + (s / s_v) ** 2))
        vec = np.zeros(2 * n, dtype=complex)
        for e in sg.vertex_edges[v]:
            vec[e] += pref
            vec[n + e] += pref * 1j / s_v ** 2
        for v2 in sg.vertex_neighbors[v]:
            for e in sg.vertex_edges[v2]:
                vec[e] += pref * s ** 2 / s_v ** 2
        vertex_nullifiers.append(vec)
    face_nullifiers = []
    for fb in sg.face_boundaries:
        pref = s / np.sqrt(2 * len(fb))
        vec = np.zeros(2 * n, dtype=complex)
        for e, sign in fb:
            vec[n + e] += pref * sign
            vec[e] += -1j * pref * sign / s ** 2
        face_nullifiers.append(vec)
    return vertex_nullifiers, face_nullifiers


def valid_specs(boundary, sizes=range(1, 11)):
    low = 2 if boundary == "torus" else 1
    return [gt.LatticeSpec(r, c, boundary, 0.0) for r in sizes for c in sizes
            if r >= low and c >= low]


def surface_graph_specs(boundary, sizes=range(1, 11)):
    """The specs of `valid_specs` that SurfaceGraph accepts: planar grids and
    even tori with both sides >= 4."""
    return [spec for spec in valid_specs(boundary, sizes) if boundary == "planar"
            or (spec.even_parity and min(spec.rows, spec.cols) >= 4)]


class TestLatticeSpec:
    def test_validation(self):
        with pytest.raises(ValidationError):
            gt.LatticeSpec(1, 4, "torus", 0.0)
        with pytest.raises(ValidationError):
            gt.LatticeSpec(4, 4, "klein", 0.0)
        assert gt.LatticeSpec(1, 2, "planar", 0.0).n_nodes == 2

    def test_properties(self):
        spec = gt.LatticeSpec(4, 6, "torus", 1.0)
        assert spec.s == pytest.approx(np.e)
        assert spec.even_parity
        assert not gt.LatticeSpec(3, 4, "torus", 0.0).even_parity
        assert spec.node_id(1, 1) == 0
        assert spec.node_id(2, 3) == 8
        assert spec.node_id(5, 7) == 0  # torus wrap

    def test_planar_node_id_bounds(self):
        spec = gt.LatticeSpec(3, 3, "planar", 0.0)
        with pytest.raises(ValidationError):
            spec.node_id(4, 1)

    @pytest.mark.parametrize("side", [6.0, np.float64(6.0), 6.5, True, np.True_, "6", None])
    def test_sides_must_be_integers(self, side):
        for rows, cols in ((side, 6), (6, side)):
            with pytest.raises(ValidationError, match="must be integers"):
                gt.LatticeSpec(rows, cols, "planar")

    def test_numpy_integer_sides_taken(self):
        spec = gt.LatticeSpec(np.int64(6), np.int32(6), "torus", 1.0)
        assert np.array_equal(gt.surface_code_graph_analytic(spec).u_part,
                              gt.surface_code_graph_analytic(gt.LatticeSpec(6, 6, "torus", 1.0))
                              .u_part)

    @pytest.mark.parametrize("boundary,side", [("torus", 6), ("planar", 5)])
    def test_refused_spec_leaves_its_lattice_intact(self, boundary, side):
        # a float side equals an int one as a memo key, so a spec that took
        # it would build its lattice for every later spec of that lattice
        with pytest.raises(ValidationError):
            spec = gt.LatticeSpec(float(side), side, boundary, 1.0)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # the planar closed form warns
                gt.surface_code_graph_analytic(spec)
        spec = gt.LatticeSpec(side, side, boundary, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            gt.surface_code_graph_analytic(spec)
        gt.map_cluster_to_surface(spec)
        assert gt.cluster_adjacency(spec).shape == (side * side,) * 2


class TestClusterAdjacency:
    def test_torus_regular(self):
        adj = gt.cluster_adjacency(gt.LatticeSpec(4, 6, "torus", 0.0))
        assert np.array_equal(adj, adj.T)
        assert (adj.sum(axis=0) == 4).all()

    def test_wrap_saturates(self):
        # dims of 2 wrap both directions onto the same neighbor
        adj = gt.cluster_adjacency(gt.LatticeSpec(2, 2, "torus", 0.0))
        assert adj.max() == 1.0
        assert (adj.sum(axis=0) == 2).all()

    def test_planar_degrees(self):
        adj = gt.cluster_adjacency(gt.LatticeSpec(3, 3, "planar", 0.0))
        deg = adj.sum(axis=0)
        assert deg[0] == 2  # corner
        assert deg[4] == 4  # center

    def test_single_edge(self):
        adj = gt.cluster_adjacency(gt.LatticeSpec(1, 2, "planar", 0.0))
        assert np.array_equal(adj, [[0.0, 1.0], [1.0, 0.0]])


@pytest.mark.parametrize("boundary", lattice.BOUNDARIES)
class TestGeometryMatchesLoops:
    """The stencil and incidence builders against per-site loops on every
    valid 1..10 x 1..10 spec, including the 2-wide wraps where links
    saturate and the 1-wide planar strips."""

    def test_adjacencies(self, boundary):
        for spec in valid_specs(boundary):
            assert np.array_equal(gt.cluster_adjacency(spec),
                                  loop_surface_code_adjacency(spec, diagonals=False))
            assert np.array_equal(gt.surface_code_adjacency(spec),
                                  loop_surface_code_adjacency(spec))
            assert np.array_equal(gt.kept_mode_adjacency(spec), loop_kept_mode_adjacency(spec))
            assert gt.measurement_pattern(spec) == loop_measurement_pattern(spec)

    def test_surface_graph_incidence(self, boundary):
        for spec in surface_graph_specs(boundary):
            sg = lattice.SurfaceGraph(spec)
            assert (sg.edge_endpoints, sg.vertex_edges, sg.vertex_neighbors) \
                == loop_surface_incidence(spec)
            assert sg.face_boundaries == loop_face_boundaries(spec)

    def test_nullifiers_match_loops(self, boundary):
        # every accepted spec, planar 1 x 1 (one vertex, no edge) included;
        # the build warns nowhere and stays finite
        for spec in surface_graph_specs(boundary):
            sg = lattice.SurfaceGraph(spec)
            omega = engine.symplectic_form(sg.n_modes)
            for s in (0.7, 1.0, np.e):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    ns = gt.nullifier_vectors(sg, s)
                    table = gt.nullifier_commutators(ns)
                va, vf = (np.reshape(vecs, (len(vecs), 2 * sg.n_modes))
                          for vecs in (ns.vertex_nullifiers, ns.face_nullifiers))
                for got, ref in zip((va, vf), loop_nullifier_vectors(sg, s)):
                    ref = np.reshape(ref, got.shape)
                    assert np.isfinite(got).all()
                    assert np.abs(got - ref).max(initial=0.0) \
                        <= 1e-15 * np.abs(ref).max(initial=0.0)
                # the tables against i a Omega b^T with the dense Omega
                for key, rows, cols in (("vertex", va, va.conj()), ("face", vf, vf.conj()),
                                        ("cross", va, vf), ("cross_dagger", va, vf.conj())):
                    ref = 1j * rows @ omega @ cols.T
                    assert table[key].shape == ref.shape
                    assert np.abs(table[key] - ref).max(initial=0.0) <= 1e-14


class TestClusterGraph:
    def test_single_mode(self):
        g = gt.cluster_graph(gt.LatticeSpec(1, 1, "planar", np.log(2.0)))
        assert g.z_matrix[0, 0] == pytest.approx(0.25j)

    def test_two_mode_chain(self):
        g = gt.cluster_graph(gt.LatticeSpec(2, 1, "planar", 0.0))
        assert np.allclose(g.z_matrix, [[1j, 1.0], [1.0, 1j]])

    def test_purity(self, cluster_state):
        _, cov = cluster_state(4, 4, 0.5)
        spec = engine.symplectic_spectrum(cov, range(cov.n_modes))
        assert spec.values == pytest.approx(np.full(16, 0.5), abs=1e-9)


class TestMeasurementPattern:
    def test_2x2(self):
        q, p, kept = gt.measurement_pattern(gt.LatticeSpec(2, 2, "torus", 0.0))
        assert p == [0]
        assert q == [3]
        assert kept == [1, 2]

    def test_3x3(self):
        q, p, kept = gt.measurement_pattern(gt.LatticeSpec(3, 3, "planar", 0.0))
        assert len(p) == 4 and len(q) == 1 and len(kept) == 4

    def test_1x1(self):
        q, p, kept = gt.measurement_pattern(gt.LatticeSpec(1, 1, "planar", 0.0))
        assert p == [0] and q == [] and kept == []

    def test_partition(self):
        spec = gt.LatticeSpec(6, 8, "torus", 0.0)
        q, p, kept = gt.measurement_pattern(spec)
        assert sorted(q + p + kept) == list(range(spec.n_nodes))


class TestStencilArrays:
    """The numpy stencil builder against scipy's CSC constructor on the links
    of the per-site loops, byte for byte and dtype for dtype."""

    @staticmethod
    def assert_same_arrays(arrays, oracle):
        for got, want in zip((arrays.indptr, arrays.indices, arrays.data),
                             (oracle.indptr, oracle.indices, oracle.data)):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    def assert_same_entries(self, u, oracle):
        """CSC arrays as `assert_same_arrays`; a `CellStencil`'s entries of
        every column, sorted by column, then row, are the oracle's arrays,
        its values byte for byte."""
        if isinstance(u, engine.Csc):
            self.assert_same_arrays(u, oracle)
            return
        n = u.shape[0]
        rows, cols, values = u.entries(np.arange(n))
        order = np.lexsort((rows, cols))
        assert np.array_equal(np.bincount(cols, minlength=n).cumsum(), oracle.indptr[1:])
        assert np.array_equal(rows[order], oracle.indices)
        assert values.dtype == oracle.data.dtype
        assert values[order].tobytes() == oracle.data.tobytes()

    def assert_matches_scipy(self, spec):
        n = spec.n_nodes
        s = spec.s
        c, d = s ** 2, s ** -2 + 2 * s ** 2
        oracles = []
        for diagonals in (False, True):
            i, j = np.nonzero(loop_surface_code_adjacency(spec, diagonals))
            oracles.append(sp.csc_matrix((np.ones(i.size), (i, j)), shape=(n, n)))
        cluster, surface = oracles
        # U = s^2 A_SC + (s^-2 + 2 s^2) I as scipy sums it
        u = (c * surface + d * sp.identity(n, format="csc")).tocsc()
        self.assert_same_arrays(lattice._cluster_links(spec), cluster)
        self.assert_same_arrays(lattice._surface_code_links(spec), surface)
        self.assert_same_arrays(lattice._surface_code_links(spec, c, d), u)
        if spec.boundary == "planar" or min(spec.rows, spec.cols) >= 4:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # the planar closed form warns
                self.assert_same_entries(gt.surface_code_graph_analytic(spec)._u_sparse, u)

    @settings(max_examples=60)
    @given(shape=st.one_of(
               st.tuples(st.sampled_from(range(4, 21, 2)), st.sampled_from(range(4, 21, 2)),
                         st.just("torus")),
               st.tuples(st.integers(1, 12), st.integers(1, 12), st.just("planar"))),
           log_s=st.floats(-2.0, 3.25))
    def test_arrays_match_scipy(self, shape, log_s):
        self.assert_matches_scipy(gt.LatticeSpec(*shape, log_s=log_s))

    @pytest.mark.parametrize("rows,cols,boundary", [(36, 36, "torus"), (2, 2, "torus"),
                                                    (2, 3, "torus"), (3, 5, "torus")])
    def test_arrays_match_scipy_fixed(self, rows, cols, boundary):
        # 36 x 36 is the benchmark torus; 2- and 3-wide tori repeat links
        self.assert_matches_scipy(gt.LatticeSpec(rows, cols, boundary, 2.8))

    # the largest |log s| at which 8 s^4 and 8 s^-4 stay finite, up to rounding
    LOG_S_BOUND = np.log(np.finfo(float).max / 8) / 4

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf,
                                     pytest.param(LOG_S_BOUND + 1, id="bound+1"),
                                     pytest.param(-LOG_S_BOUND - 1, id="-bound-1")])
    def test_non_finite_entries_raise(self, bad):
        # a log s at which U's entries could leave the floats is refused where
        # it enters, so the builders never see it
        for boundary in lattice.BOUNDARIES:
            with pytest.raises(ValidationError, match="log s must be finite"):
                gt.LatticeSpec(4, 4, boundary, bad)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_entries_finite_inside_log_s_bound(self, sign):
        log_s = sign * self.LOG_S_BOUND * (1 - 1e-15)
        assert lattice.check_log_s(log_s) == log_s
        spec = gt.LatticeSpec(4, 4, "torus", log_s)
        s = spec.s
        u = lattice._surface_code_links(spec, s ** 2, s ** -2 + 2 * s ** 2)
        assert np.isfinite(u.data).all()
        if sign < 0:
            assert gt.surface_code_graph_analytic(spec)._cond == pytest.approx(1.0)
        else:
            # s^-2 rounds away against 2 s^2: a numerical failure, not an overflow
            with pytest.raises(IllConditionedGraphError):
                gt.surface_code_graph_analytic(spec)


class TestOneStencilPerCall:
    @pytest.mark.parametrize("build,specs", [
        (gt.map_cluster_to_surface, [(8, 8, "torus"), (5, 7, "planar"), (5, 5, "torus")]),
        (gt.kept_mode_adjacency, [(8, 8, "torus"), (5, 7, "planar"), (5, 5, "torus")]),
        (lattice.SurfaceGraph, [(8, 8, "torus"), (5, 7, "planar")]),
    ], ids=["map", "kept", "surface-graph"])
    def test_blocks_share_one_build(self, monkeypatch, build, specs):
        # B, A_PP, A_KK and A_QK are all sliced from one cluster stencil
        stencil = lattice._stencil_adjacency
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return stencil(*args, **kwargs)

        monkeypatch.setattr(lattice, "_stencil_adjacency", counted)
        for rows, cols, boundary in specs:
            calls.clear()
            build(gt.LatticeSpec(rows, cols, boundary, 1.0))
            assert len(calls) == 1


class TestSurfaceCodeGraph:
    def test_spectral_bounds(self):
        for log_s in (0.0, 1.0):
            spec = gt.LatticeSpec(8, 8, "torus", log_s)
            s = spec.s
            u = gt.surface_code_graph_analytic(spec).u_part
            ev = np.linalg.eigvalsh(u)
            assert ev.max() == pytest.approx(8 * s ** 2 + s ** -2, abs=1e-9)
            assert ev.min() == pytest.approx(s ** -2, abs=1e-9)

    def test_structural_cond_matches_two_norm_cond(self, monkeypatch):
        # even tori with sides >= 4 take PD and cond(U) from spec(A_SC) = [-2, 6]
        def no_eigvalsh(*args, **kwargs):
            raise AssertionError("an even torus with sides >= 4 needs no eigvalsh")

        sides = range(4, 17, 2)
        graphs = []
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "eigvalsh", no_eigvalsh)
            for rows in sides:
                for cols in sides:
                    for log_s in range(-2, 4):
                        spec = gt.LatticeSpec(rows, cols, "torus", log_s)
                        graphs.append(gt.surface_code_graph_analytic(spec))
        for graph in graphs:
            assert graph._cond == pytest.approx(np.linalg.cond(graph.u_part), rel=1e-9)

    @staticmethod
    def count_eigvalsh(monkeypatch):
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counted(*args, **kwargs):
            calls.append(1)
            return eigvalsh(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        return calls

    @pytest.mark.parametrize("rows,cols", [(2, 4), (4, 2), (2, 2), (3, 4), (5, 5)])
    def test_other_tori_refused(self, monkeypatch, rows, cols):
        # odd tori break the plaquette parity and 2-wide ones saturate wrapped
        # links: the closed form is not the surface code there
        calls = self.count_eigvalsh(monkeypatch)
        with pytest.raises(ValidationError, match="even sides >= 4"):
            gt.surface_code_graph_analytic(gt.LatticeSpec(rows, cols, "torus", 1.0))
        assert not calls

    def test_planar_bounds_need_no_eigvalsh(self, monkeypatch):
        # a planar A_SC is a principal submatrix of the A_SC of a larger even
        # torus, so by Cauchy interlacing its spectrum lies in [-2, 6]
        def no_eigvalsh(*args, **kwargs):
            raise AssertionError("the planar closed form needs no eigvalsh")

        graphs = []
        with monkeypatch.context() as patch, warnings.catch_warnings():
            patch.setattr(np.linalg, "eigvalsh", no_eigvalsh)
            warnings.simplefilter("ignore")  # the planar closed form warns
            for rows in range(1, 13):
                for cols in range(1, 13):
                    for log_s in (-2, 0, 3):
                        spec = gt.LatticeSpec(rows, cols, "planar", log_s)
                        graphs.append((spec.s, gt.surface_code_graph_analytic(spec)))
        for s, graph in graphs:
            c, d = s ** 2, s ** -2 + 2 * s ** 2
            ev = np.linalg.eigvalsh(graph.u_part)
            # slack for the rounding of the dense eigensolve
            slack = 1e-12 * (d + 6 * c)
            assert d - 2 * c - slack <= ev[0] and ev[-1] <= d + 6 * c + slack
            assert graph._cond >= np.linalg.cond(graph.u_part) * (1 - 1e-9)

    def test_json_graph_runs_eigvalsh(self, monkeypatch):
        calls = self.count_eigvalsh(monkeypatch)
        graph = gt.surface_code_graph_analytic(gt.LatticeSpec(4, 4, "torus", 1.0))
        assert not calls
        loaded = engine.GaussGraph.from_json(graph.to_json())
        assert len(calls) == 1
        assert loaded._cond == pytest.approx(graph._cond, rel=1e-9)

    def test_sparse_build_matches_dense(self, monkeypatch):
        # an even torus with sides >= 4 keeps U sparse; its dense parts, built
        # on first read, and its JSON record are those of the dense build
        digest = hashlib.sha256()
        graphs = []
        for rows in range(4, 17, 2):
            for cols in range(4, 17, 2):
                for log_s in range(-2, 4):
                    spec = gt.LatticeSpec(rows, cols, "torus", log_s)
                    graph = gt.surface_code_graph_analytic(spec)
                    assert graph._u is None and graph._v is None
                    s = spec.s
                    u = s ** 2 * gt.surface_code_adjacency(spec) + \
                        (s ** -2 + 2 * s ** 2) * np.eye(spec.n_nodes)
                    assert np.array_equal(graph.u_part, u)
                    assert not graph.v_part.any() and graph.v_part.shape == u.shape
                    for part in (graph.u_part, graph.v_part):
                        assert not part.flags.writeable
                    record = graph.to_json()
                    assert record == engine.GaussGraph(None, u).to_json()
                    digest.update(record.encode())
                    graphs.append((graph, record))
        # digest of the same 294 records written by the dense build
        assert digest.hexdigest() == \
            "57b15d81e27812cb4f94da4f7c0e54b9e706634329e10e96d29eb1d3ddd0b026"
        calls = self.count_eigvalsh(monkeypatch)
        for graph, record in graphs:
            assert engine.GaussGraph.from_json(record) == graph
        assert len(calls) == len(graphs)

    def test_unit_squeezing_diagonal(self):
        u = gt.surface_code_graph_analytic(gt.LatticeSpec(6, 6, "torus", 0.0)).u_part
        assert np.allclose(np.diag(u), 3.0)

    def test_degree_six(self):
        spec = gt.LatticeSpec(8, 8, "torus", 0.0)
        for adj in (gt.surface_code_adjacency(spec), gt.kept_mode_adjacency(spec)):
            assert (adj.sum(axis=0) == 6).all()

    def test_planar_warns(self):
        with pytest.warns(UserWarning):
            gt.surface_code_graph_analytic(gt.LatticeSpec(6, 6, "planar", 0.0))


# even tori 4..24 (rectangular ones too) and planar grids 1..12
SURFACE_SHAPES = st.one_of(
    st.tuples(st.sampled_from(range(4, 25, 2)), st.sampled_from(range(4, 25, 2)),
              st.just("torus")),
    st.tuples(st.integers(1, 12), st.integers(1, 12), st.just("planar")))


class TestSharedPattern:
    """U's pattern does not depend on log s: one pattern serves the graphs of
    every log s of a lattice, and each refill equals a fresh build."""

    @settings(max_examples=60)
    @given(shape=SURFACE_SHAPES, log_s=st.tuples(st.floats(-3.0, 3.25), st.floats(-3.0, 3.25)))
    def test_refill_equals_fresh_build(self, shape, log_s):
        rows, cols, boundary = shape
        spec = gt.LatticeSpec(rows, cols, boundary, log_s[1])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the planar closed form warns
            clear_lattice_memos()
            gt.surface_code_graph_analytic(gt.LatticeSpec(rows, cols, boundary, log_s[0]))
            pattern = lattice._surface_code_pattern(spec)
            graph = gt.surface_code_graph_analytic(spec)
            clear_lattice_memos()
            fresh = gt.surface_code_graph_analytic(spec)
        got, want = graph._u_sparse, fresh._u_sparse
        assert type(got) is type(want) is type(pattern)
        assert got.data.dtype == want.data.dtype and np.array_equal(got.data, want.data)
        # the same entries in the same places: the CSC arrays, or the
        # stencil's entries of every column
        every = np.arange(rows * cols)
        for a, b in zip(got.positions(every), want.positions(every)):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        if isinstance(got, engine.Csc):
            for name in ("indptr", "indices"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype and np.array_equal(a, b)
        assert (graph._cond, graph._torus) == (fresh._cond, fresh._torus)
        # the refill shares the pattern's arrays and plans, and keeps its values
        shared = ("indptr", "indices") if isinstance(got, engine.Csc) else ("_dr", "_dc")
        assert all(getattr(got, name) is getattr(pattern, name) for name in shared)
        assert got.plans is pattern.plans and want.plans is not pattern.plans
        assert np.array_equal(pattern.toarray(), np.eye(rows * cols))

    def test_pattern_keeps_the_checks(self):
        # on every call, also once the lattice's pattern is built
        for _ in range(2):
            with pytest.raises(ValidationError, match="even sides >= 4"):
                lattice._surface_code_pattern(gt.LatticeSpec(6, 7, "torus", 1.0))
            with pytest.warns(UserWarning, match="planar closed form"):
                lattice._surface_code_pattern(gt.LatticeSpec(6, 7, "planar", 1.0))


# every closed-form torus with sides 4..24, rectangular ones too, and every
# planar grid with sides 1..12 (1 x n and 2 x 3 among them)
RECORDED_SHAPES = ([(rows, cols, "torus") for rows in range(4, 25, 2) for cols in range(4, 25, 2)]
                   + [(rows, cols, "planar") for rows in range(1, 13) for cols in range(1, 13)])


class TestRecordedIncidence:
    """The closed-form pattern records the p-node incidence B of its lattice,
    and its U records the scale s^2 with U = s^2 B^T B off the diagonal, the
    fact its cuts are solved with."""

    @staticmethod
    def recorded_incidence(u):
        """The dense p-node x mode incidence B recorded with `u`."""
        ids = u.incidence(np.arange(u.shape[0]))
        assert ids.shape == (u.shape[0], 2) and ids.min() >= 0
        p_nodes, place = np.unique(ids, return_inverse=True)
        b = np.zeros((p_nodes.size, u.shape[0]))
        b[place.reshape(ids.shape), np.arange(u.shape[0])[:, None]] = 1.0
        return b

    @pytest.mark.parametrize("boundary", ["torus", "planar"])
    def test_off_diagonal_is_scaled_gram(self, boundary):
        log_s = 1.3
        for rows, cols, kind in RECORDED_SHAPES:
            if kind != boundary:
                continue
            spec = gt.LatticeSpec(rows, cols, boundary, log_s)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # the planar closed form warns
                u = gt.surface_code_graph_analytic(spec)._u_sparse
            assert u.incidence_scale == spec.s ** 2
            b = self.recorded_incidence(u)
            gram = b.T @ b
            off = ~np.eye(rows * cols, dtype=bool)
            # no two modes share two p-nodes, and U = s^2 B^T B off the diagonal
            assert gram[off].max(initial=0.0) <= 1.0
            assert np.array_equal(u.toarray()[off], u.incidence_scale * gram[off])
            # the recorded p-nodes are the even plaquettes, clipped to a planar grid
            assert (sorted(map(sorted, (np.flatnonzero(row) for row in b)))
                    == sorted(map(sorted, loop_plaquettes(spec))))

    def test_only_the_closed_form_records_it(self):
        # the pattern records B and no scale (its values are the identity);
        # the pipeline, a dense U and a refill without a scale record none
        spec = gt.LatticeSpec(8, 8, "torus", 1.0)
        pattern = lattice._surface_code_pattern(spec)
        assert pattern.incidence is not None and pattern.incidence_scale is None
        refill = gt.surface_code_graph_analytic(spec)._u_sparse.with_data(pattern.data)
        assert refill.incidence is pattern.incidence and refill.incidence_scale is None
        pipeline, _ = gt.map_cluster_to_surface(spec)
        dense = engine.GaussGraph(None, pipeline.u_part)
        for graph in (pipeline, dense):
            u = engine.covariance_from_graph(graph)._u
            assert u.incidence is None and u.incidence_scale is None


class TestPipeline:
    @pytest.mark.parametrize("rows,cols", [(6, 6), (6, 8)])
    def test_matches_closed_form(self, rows, cols):
        spec = gt.LatticeSpec(rows, cols, "torus", 1.0)
        graph, index_map = gt.map_cluster_to_surface(spec)
        s = spec.s
        expected = s ** 2 * gt.kept_mode_adjacency(spec) \
            + (s ** -2 + 2 * s ** 2) * np.eye(graph.n_modes)
        assert np.abs(graph.v_part).max() < 1e-9
        assert np.abs(graph.u_part - expected).max() < 1e-9
        assert len(index_map) == rows * cols // 2

    def test_index_map_mixed_parity(self):
        spec = gt.LatticeSpec(6, 6, "torus", 0.0)
        _, index_map = gt.map_cluster_to_surface(spec)
        assert all((r + c) % 2 == 1 for r, c in index_map)

    def test_planar_3x3_purity(self):
        graph, _ = gt.map_cluster_to_surface(gt.LatticeSpec(3, 3, "planar", 0.5))
        assert graph.n_modes == 4
        cov = engine.covariance_from_graph(graph)
        spec = engine.symplectic_spectrum(cov, range(4))
        assert spec.values == pytest.approx(np.full(4, 0.5), abs=1e-9)

    @settings(max_examples=60)
    @given(rows=st.integers(2, 8), cols=st.integers(2, 8),
           boundary=st.sampled_from(lattice.BOUNDARIES), log_s=st.floats(-1.0, 3.0))
    def test_block_matches_sequential(self, rows, cols, boundary, log_s):
        spec = gt.LatticeSpec(rows, cols, boundary, log_s)
        graph, index_map = gt.map_cluster_to_surface(spec)
        oracle, oracle_map = sequential_pipeline(spec)
        assert index_map == oracle_map
        scale = max(1.0, np.abs(oracle.u_part).max())
        tol = 1e-12 * scale
        if boundary == "torus" and not spec.even_parity:
            # p-sites wrap into adjacency, and the oracle eliminates them
            # without pivoting: up to 82 eps s^2 |U| on all odd tori in
            # 2..8 at 161 log s in [-1, 3] (see test_odd_torus_high_precision)
            tol += 1000 * np.finfo(float).eps * max(1.0, spec.s ** 2) * scale
        assert np.abs(graph.u_part - oracle.u_part).max() <= tol
        assert np.abs(graph.v_part - oracle.v_part).max() <= tol

    @pytest.mark.parametrize("log_s", [0.0, 1.0])
    def test_bit_identical_to_sequential(self, log_s):
        spec = gt.LatticeSpec(16, 32, "torus", log_s)
        graph, _ = gt.map_cluster_to_surface(spec)
        oracle, _ = sequential_pipeline(spec)
        assert np.array_equal(graph.u_part, oracle.u_part)
        assert np.array_equal(graph.v_part, oracle.v_part)

    def test_sparse_build_matches_dense_schur(self, monkeypatch):
        # with no two p-nodes adjacent, U = s^-2 I + s^2 B^T B is built sparse,
        # with no solve and no eigvalsh; U, V and the JSON record are those of
        # the dense solve, byte for byte
        def refused(*args, **kwargs):
            raise AssertionError("the sparse pipeline needs no solve or eigvalsh")

        specs = sparse_pipeline_specs()
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "solve", refused)
            patch.setattr(np.linalg, "eigvalsh", refused)
            graphs = [gt.map_cluster_to_surface(spec)[0] for spec in specs]
        digest = hashlib.sha256()
        for spec, graph in zip(specs, graphs):
            assert graph._u is None and graph._torus is None
            v, u = dense_schur_pipeline(spec)
            assert graph.u_part.shape == u.shape
            assert graph.u_part.tobytes() == u.tobytes()
            assert graph.v_part.tobytes() == v.tobytes()
            digest.update(graph.to_json().encode())
            # cond(U) from spec(B^T B) in [0, 8] is an upper bound, and exact
            # on even tori with sides >= 4, where that spectrum spans [0, 8]
            if not graph.n_modes:
                assert graph._cond == 1.0
                continue
            cond = np.linalg.cond(u)
            assert graph._cond >= cond * (1 - 1e-9)
            if spec.boundary == "torus" and min(spec.rows, spec.cols) >= 4:
                assert graph._cond == pytest.approx(cond, rel=1e-9)
        # digest of the same 1456 records written by the dense solve
        assert digest.hexdigest() == \
            "c63e0eb79edcc4779c6ec667a2ed3497f703efecb456e2596c417f74ce3f1683"

    def test_odd_torus_high_precision(self):
        mp = pytest.importorskip("mpmath")
        spec = gt.LatticeSpec(3, 3, "torus", 2.8)
        _, p_nodes, kept = gt.measurement_pattern(spec)
        z = gt.cluster_graph(spec).z_matrix
        with mp.workdps(40):
            def block(rows, cols):
                return mp.matrix([[mp.mpc(z[i, j]) for j in cols] for i in rows])
            z_pk = block(p_nodes, kept)
            ref = block(kept, kept) - z_pk.T * mp.inverse(block(p_nodes, p_nodes)) * z_pk
            ref = np.array(ref.tolist(), dtype=complex)
        graph, _ = gt.map_cluster_to_surface(spec)
        scale = np.abs(ref.imag).max()
        # the block form is within 1e-15 relative; the sequential loop
        # is 1.1e-12 off here
        assert np.abs(graph.u_part - ref.imag).max() <= 1e-14 * scale
        assert np.abs(graph.v_part - ref.real).max() <= 1e-14 * scale

    @pytest.mark.parametrize("pipeline", [gt.map_cluster_to_surface, sequential_pipeline])
    @pytest.mark.parametrize("log_s,error", [(14.0, SingularPivotError),
                                             (13.0, IllConditionedGraphError)])
    def test_error_paths(self, pipeline, log_s, error):
        # s^-2 = e^-28 is below the 1e-12 pivot tolerance; e^-26 passes it,
        # but the smallest eigenvalue of U, s^-2, is below eps * s^2, so U
        # loses positive definiteness to rounding
        with pytest.raises(error):
            pipeline(gt.LatticeSpec(4, 4, "torus", log_s))

    def test_reference_network_sigma(self):
        for s in (0.8, 1.0, np.e):
            g3 = star_pipeline_graph(s)
            assert g3.n_modes == 3
            cov = engine.covariance_from_graph(g3)
            sigma = engine.symplectic_spectrum(cov, [0]).values[0]
            s4 = s ** 4
            expected = 0.5 * np.sqrt((1 + 3 * s4 + 2 * s4 ** 2) / (1 + 3 * s4))
            assert sigma == pytest.approx(expected, abs=1e-10)


class TestRescaleGauge:
    def _weighted_graph(self, weight, eps):
        adj = gt.cluster_adjacency(gt.LatticeSpec(2, 2, "planar", 0.0))
        return engine.GaussGraph(weight * adj, eps * np.eye(4))

    def test_vacuum_equivalent(self):
        _, s_tilde = gt.rescale_gauge(self._weighted_graph(0.1, 0.1), 0.1, 0.1)
        assert s_tilde == pytest.approx(1.0)

    def test_quoted_arithmetic(self):
        out, s_tilde = gt.rescale_gauge(self._weighted_graph(0.25, 0.01), 0.25, 0.01)
        assert s_tilde == pytest.approx(5.0)
        assert np.allclose(out.u_part, 0.04 * np.eye(4), atol=1e-12)

    def test_entropy_invariant(self):
        g = self._weighted_graph(0.2, 0.05)
        out, _ = gt.rescale_gauge(g, 0.2, 0.05)
        before = engine.von_neumann_entropy(engine.symplectic_spectrum(
            engine.covariance_from_graph(g), [0, 1]))
        after = engine.von_neumann_entropy(engine.symplectic_spectrum(
            engine.covariance_from_graph(out), [0, 1]))
        assert after == pytest.approx(before, abs=1e-9)

    def test_range(self):
        g = self._weighted_graph(0.3, 0.05)
        with pytest.raises(ValidationError):
            gt.rescale_gauge(g, 0.3, 0.05)
        with pytest.raises(ValidationError):
            gt.rescale_gauge(g, 0.2, -1.0)


class TestSurfaceGraph:
    def test_requires_even_torus(self):
        with pytest.raises(ValidationError):
            lattice.SurfaceGraph(gt.LatticeSpec(5, 6, "torus", 0.0))

    @pytest.mark.parametrize("rows,cols", [(2, 2), (2, 4), (4, 2), (2, 10)])
    def test_refuses_two_wide_torus(self, rows, cols):
        # wrapped links coincide there and [eta, eta^dagger] = 1 fails
        with pytest.raises(ValidationError, match="even sides >= 4"):
            lattice.SurfaceGraph(gt.LatticeSpec(rows, cols, "torus", 0.0))

    def test_unit_diagonal_on_even_tori(self):
        for spec in surface_graph_specs("torus"):
            sg = lattice.SurfaceGraph(spec)
            for s in (0.7, 1.0, np.e):
                table = gt.nullifier_commutators(gt.nullifier_vectors(sg, s))
                assert np.abs(np.diag(table["vertex"]) - 1).max() < 1e-12
                assert np.abs(np.diag(table["face"]) - 1).max() < 1e-12

    def test_single_site_has_no_modes(self):
        # one vertex without an edge: a zero nullifier and a zero table
        sg = lattice.SurfaceGraph(gt.LatticeSpec(1, 1, "planar", 0.0))
        assert sg.n_modes == 0 and sg.valence(0) == 0 and sg.face_boundaries == []
        table = gt.nullifier_commutators(gt.nullifier_vectors(sg, 1.0))
        assert table["vertex"].shape == (1, 1) and not table["vertex"].any()
        assert table["face"].shape == (0, 0)
        assert table["cross"].shape == table["cross_dagger"].shape == (1, 0)

    def test_counts(self):
        sg = lattice.SurfaceGraph(gt.LatticeSpec(8, 8, "torus", 0.0))
        assert len(sg.vertices) == 16
        assert len(sg.faces) == 16
        assert sg.n_modes == 32
        assert all(sg.valence(v) == 4 for v in sg.vertices)

    def test_face_boundary_signs(self):
        sg = lattice.SurfaceGraph(gt.LatticeSpec(8, 8, "torus", 0.0))
        for fb in sg.face_boundaries:
            signs = sorted(sign for _, sign in fb)
            assert signs == [-1.0, -1.0, 1.0, 1.0]


@pytest.fixture(scope="module")
def setup():
    spec = gt.LatticeSpec(12, 12, "torus", 1.0)
    sg = lattice.SurfaceGraph(spec)
    return spec, sg


class TestNullifiers:
    def test_face_vector_support(self, setup):
        _, sg = setup
        s = 1.0
        ns = gt.nullifier_vectors(sg, s)
        vec = ns.face_nullifiers[0]
        n = sg.n_modes
        p_part = vec[n:]
        support = np.flatnonzero(p_part)
        assert support.size == 4
        assert sorted(np.sign(p_part[support].real)) == [-1, -1, 1, 1]
        assert np.abs(np.abs(p_part[support]) - s / np.sqrt(8)).max() < 1e-12

    def test_normalizations(self, setup):
        _, sg = setup
        ns = gt.nullifier_vectors(sg, 1.0)
        assert ns.norm_sprime == pytest.approx(np.sqrt(6.0))
        assert ns.norm_sv[0] == pytest.approx(np.sqrt(5.0))

    def test_unit_commutators(self, setup):
        _, sg = setup
        ns = gt.nullifier_vectors(sg, np.e)
        for vec in ns.vertex_nullifiers[:3] + ns.face_nullifiers[:3]:
            assert lattice.commutator(vec, vec) == pytest.approx(1.0, abs=1e-10)

    def test_tables_match_pairwise_commutators(self, setup):
        # reference: one commutator per pair; [a, b] = commutator(a, conj(b))
        _, sg = setup
        ns = gt.nullifier_vectors(sg, np.e)
        table = gt.nullifier_commutators(ns)
        va, vf = ns.vertex_nullifiers, ns.face_nullifiers
        for key, rows, cols in (("vertex", va, va), ("face", vf, vf),
                                ("cross", va, [np.conj(b) for b in vf]),
                                ("cross_dagger", va, vf)):
            ref = np.array([[lattice.commutator(a, b) for b in cols] for a in rows])
            assert np.abs(table[key] - ref).max() < 1e-13

    def test_brackets_match_dense_omega_on_random_vectors(self, cluster_state):
        # nullifier tables vanish or repeat by symmetry; random complex rows
        # tell every conjugation and sign apart
        rng = np.random.default_rng(3)
        _, cov = cluster_state(1, 5, 0.5, "planar")
        omega = engine.symplectic_form(5)
        va, vf = (rng.normal(size=(k, 10)) + 1j * rng.normal(size=(k, 10)) for k in (3, 4))
        table = gt.nullifier_commutators(lattice.NullifierSet(list(va), list(vf), 1.0, []))
        for key, rows, cols in (("vertex", va, va.conj()), ("face", vf, vf.conj()),
                                ("cross", va, vf), ("cross_dagger", va, vf.conj())):
            assert np.abs(table[key] - 1j * rows @ omega @ cols.T).max() < 1e-12
        for a, b in zip(va, vf):
            assert lattice.commutator(a, b) == pytest.approx(1j * a @ omega @ b.conj(), abs=1e-12)
            ref = np.real(a.conj() @ (cov.gamma + 0.5j * omega) @ a)
            assert gt.nullifier_expectation(cov, a) == pytest.approx(ref, abs=1e-12)

    @pytest.mark.parametrize("s", [1.0, np.e, np.e ** 2])
    def test_commutator_table(self, setup, s):
        _, sg = setup
        ns = gt.nullifier_vectors(sg, s)
        table = gt.nullifier_commutators(ns)
        for i in range(len(sg.vertices)):
            ci = sg.vertex_coords(i)
            for j in range(len(sg.vertices)):
                d = sg.lattice_distance(ci, sg.vertex_coords(j))
                assert abs(table["vertex"][i, j] - lattice.w_closed_form(d, s)) < 1e-12
        for i in range(len(sg.faces)):
            ci = sg.face_coords(i)
            for j in range(len(sg.faces)):
                d = sg.lattice_distance(ci, sg.face_coords(j))
                assert abs(table["face"][i, j] - lattice.x_closed_form(d)) < 1e-12
        assert np.abs(table["cross"]).max() < 1e-12
        assert np.abs(table["cross_dagger"]).max() < 1e-12

    def test_bicolor_zero_mode(self, setup):
        _, sg = setup
        ns = gt.nullifier_vectors(sg, np.e)
        total = np.zeros(2 * sg.n_modes, dtype=complex)
        for f in sg.faces:
            r, c = sg.face_coords(f)
            total += (-1) ** (r + c) * ns.face_nullifiers[f]
        assert np.abs(total).max() < 1e-12

    def test_annihilates_pipeline_state(self):
        spec = gt.LatticeSpec(8, 8, "torus", 0.8)
        graph, _ = gt.map_cluster_to_surface(spec)
        cov = engine.covariance_from_graph(graph)
        sg = lattice.SurfaceGraph(spec)
        ns = gt.nullifier_vectors(sg, spec.s)
        for vec in ns.vertex_nullifiers + ns.face_nullifiers:
            assert abs(gt.nullifier_expectation(cov, vec)) < 1e-9

    @pytest.mark.parametrize("boundary,shape", [("torus", (8, 8)), ("torus", (6, 10)),
                                                ("planar", (5, 7))])
    def test_u_native_expectation_builds_no_gamma(self, surface_state, boundary, shape):
        # the cell columns (torus) or the factor (planar) serve Gamma on the
        # support of each vector; the dense Gamma of a copy is the oracle
        spec, cov = surface_state(*shape, 0.8, boundary)
        cov = engine.thermal_scale(cov, 3.0)
        dense = engine.CovMatrix(engine.thermal_scale(cov, 1.0).gamma, kappa=cov.kappa)
        omega = engine.symplectic_form(cov.n_modes)
        rng = np.random.default_rng(7)
        for size in (1, 4, 9):
            vec = np.zeros(2 * cov.n_modes, dtype=complex)
            at = rng.choice(2 * cov.n_modes, size, replace=False)
            vec[at] = rng.normal(size=size) + 1j * rng.normal(size=size)
            ref = np.real(vec.conj() @ (dense.gamma + 0.5j * omega) @ vec)
            assert gt.nullifier_expectation(cov, vec) == pytest.approx(ref, rel=1e-12, abs=1e-12)
        assert cov._gamma is None and cov._q is None and cov._p is None

    def test_closed_form_values(self):
        assert lattice.w_closed_form(0, 2.0) == 1.0
        assert lattice.w_closed_form(1, 1.0) == pytest.approx(9 / 24)
        assert lattice.w_closed_form(3, 1.0) == 0.0
        assert lattice.x_closed_form(1) == 0.25
        assert lattice.x_closed_form(np.sqrt(2)) == 0.0


def bracket_tables(ns):
    """The four tables by `lattice._bracket` of the stacked vectors of `ns`."""
    width = ns.vertex_nullifiers[0].size  # every lattice has a vertex
    va, vf = (np.reshape(vecs, (len(vecs), width)) for vecs in (ns.vertex_nullifiers,
                                                                 ns.face_nullifiers))
    return {"vertex": lattice._bracket(va, va.conj()), "face": lattice._bracket(vf, vf.conj()),
            "cross": lattice._bracket(va, vf), "cross_dagger": lattice._bracket(va, vf.conj())}


class TestScatteredTables:
    """`nullifier_commutators` scatters the tables of the sets that
    `nullifier_vectors` built from the lattice's integer products; `_bracket`
    of the stacked vectors is the reference."""

    @settings(max_examples=80)
    @given(shape=st.one_of(
        st.tuples(st.integers(1, 12), st.integers(1, 12), st.just("planar")),
        st.tuples(st.sampled_from(range(4, 17, 2)), st.sampled_from(range(4, 17, 2)),
                  st.just("torus"))),
        log_s=st.floats(-3.0, 3.25))
    def test_match_bracket(self, shape, log_s):
        sg = lattice.SurfaceGraph(gt.LatticeSpec(*shape, log_s))
        ns = gt.nullifier_vectors(sg, float(np.exp(log_s)))
        table, ref = gt.nullifier_commutators(ns), bracket_tables(ns)
        assert list(table) == list(ref)
        for key in ref:
            assert table[key].shape == ref[key].shape and table[key].dtype == np.complex128
            assert np.abs(table[key] - ref[key]).max(initial=0.0) <= 1e-13

    @pytest.mark.parametrize("rows,cols,boundary", [(1, 1, "planar"), (1, 5, "planar"),
                                                    (2, 2, "planar"), (3, 3, "planar"),
                                                    (4, 4, "torus")])
    def test_small_lattices(self, rows, cols, boundary):
        sg = lattice.SurfaceGraph(gt.LatticeSpec(rows, cols, boundary, 0.0))
        for s in (0.05, 1.0, 25.0):
            ns = gt.nullifier_vectors(sg, s)
            table, ref = gt.nullifier_commutators(ns), bracket_tables(ns)
            for key in ref:
                assert table[key].shape == ref[key].shape
                assert np.abs(table[key] - ref[key]).max(initial=0.0) <= 1e-13

    def test_vectors_are_read_only(self):
        ns = gt.nullifier_vectors(lattice.SurfaceGraph(gt.LatticeSpec(8, 8, "torus", 0.0)), 2.0)
        for vec in ns.vertex_nullifiers + ns.face_nullifiers:
            assert not vec.flags.writeable
            with pytest.raises(ValueError):
                vec[0] = 1.0


class TestSqueezingChecked:
    """`nullifier_vectors` and the closed forms that take s take a real s > 0
    whose log passes `check_log_s` (`lattice.check_s`)."""

    @pytest.mark.parametrize("s", [0, 0.0, -1.0, -np.e, 1e-200, 1e200, float("nan"),
                                   float("inf"), float("-inf"), True, False, np.True_,
                                   1.0 + 0j, "1.0"])
    def test_refused(self, s):
        sg = lattice.SurfaceGraph(gt.LatticeSpec(4, 4, "torus", 0.0))
        for takes_s in (partial(gt.nullifier_vectors, sg), gt.dms_bound, gt.tee_upper_bound,
                        partial(gt.normal_modes, 4, 4), partial(gt.gap, 5, 5)):
            with pytest.raises(ValidationError):
                takes_s(s)

    @pytest.mark.parametrize("s", [2, np.float64(2.0), np.float32(2.0), np.int64(2)])
    def test_real_numbers_taken(self, s):
        sg = lattice.SurfaceGraph(gt.LatticeSpec(4, 4, "torus", 0.0))
        want = gt.nullifier_vectors(sg, 2.0)
        got = gt.nullifier_vectors(sg, s)
        assert np.array_equal(got.vertex_nullifiers, want.vertex_nullifiers)
        assert np.array_equal(got.face_nullifiers, want.face_nullifiers)
