"""Lattice geometry, cluster and surface-code graphs, nullifiers.

Cluster nodes are labelled 1-based (row, col) with node id
(row-1)*cols + (col-1).  The measurement pattern puts p-measurements on
(odd, odd) sites, q-measurements on (even, even) sites and keeps the
mixed-parity sites, which become the surface-code modes.

The surface-code lattice Lambda = (V, E, F) is recovered from an
even x even cluster: p-measured sites are the vertices, q-measured sites
the faces, kept sites the edges.
"""

import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .engine import GaussGraph
from .errors import SingularPivotError, ValidationError
from . import engine

BOUNDARIES = ("torus", "planar")


def check_log_s(log_s):
    """`log_s` as a float; ValidationError unless s = e^log_s keeps 8 s^4 and
    8 s^-4 finite, which holds for |log s| below ln(float max / 8) / 4 ~
    176.93 and fails for NaN and +-inf."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        s4 = np.exp(np.float64(log_s)) ** 4
        finite = np.isfinite(8.0 * s4) and np.isfinite(8.0 / s4)
    if not finite:
        raise ValidationError("log s must be finite with |log s| < ln(float max / 8) / 4"
                              " ~ 176.93, not %g" % log_s)
    return float(log_s)


@dataclass(frozen=True)
class LatticeSpec:
    """Square-lattice geometry and squeezing.

    Parameters
    ----------
    rows, cols : int
        Lattice dimensions.  Planar lattices allow dimensions down to 1;
        a torus needs at least 2 in each direction.
    boundary : str
        'torus' or 'planar'.
    log_s : float
        Base-e log of the squeezing parameter s, checked by `check_log_s`.
    """

    rows: int
    cols: int
    boundary: str = "torus"
    log_s: float = 0.0

    def __post_init__(self):
        if self.boundary not in BOUNDARIES:
            raise ValidationError("boundary must be one of %s" % (BOUNDARIES,))
        low = 2 if self.boundary == "torus" else 1
        if self.rows < low or self.cols < low:
            raise ValidationError("lattice dimensions too small for %s boundary" % self.boundary)
        check_log_s(self.log_s)

    @property
    def s(self):
        return float(np.exp(self.log_s))

    @property
    def n_nodes(self):
        return self.rows * self.cols

    @property
    def even_parity(self):
        """True when both dimensions are even (torus spectrum formulas)."""
        return self.rows % 2 == 0 and self.cols % 2 == 0

    def node_id(self, row, col):
        """0-based node id from 1-based (row, col) labels, with torus wrap."""
        if self.boundary == "torus":
            row = (row - 1) % self.rows + 1
            col = (col - 1) % self.cols + 1
        if not (1 <= row <= self.rows and 1 <= col <= self.cols):
            raise ValidationError("(%d, %d) outside the lattice" % (row, col))
        return (row - 1) * self.cols + (col - 1)


def wrapped_offsets(rows, cols, boundary, a, b):
    """|dx|, |dy| between coordinates a = (x, y) and b, scalars or broadcasting
    arrays; on a rows x cols torus each is reduced modulo the wrap."""
    dx = np.abs(np.subtract(a[0], b[0]))
    dy = np.abs(np.subtract(a[1], b[1]))
    if boundary == "torus":
        dx = np.minimum(dx, rows - dx)
        dy = np.minimum(dy, cols - dy)
    return dx, dy


# square-lattice links from each corner to its right and lower neighbor
_SQUARE = (((0, 0), (0, 1)), ((0, 0), (1, 0)))


def _stencil_adjacency(spec, links, off=1.0, diag=None):
    """Canonical CSC arrays (`engine.Csc`) of the symmetric matrix with `off`
    on the links repeated over the rows x cols grid and, unless None, `diag`
    on the diagonal.

    Each link ((a, b), mask) joins the sites at the non-negative offsets a
    and b from every corner (r, c) with mask[r, c] true.  Links wrap on a
    torus and are dropped when they leave a planar grid; repeated links are
    stored once (simple-graph convention).  No link closes on itself,
    because a torus is at least 2 wide and every link spans one step in some
    direction.  The column-major keys of both orientations are sorted and
    repeats masked (`engine._sorted_distinct`).
    """
    rows, cols = spec.rows, spec.cols
    n = rows * cols
    steps = np.array([ends for ends, _ in links]).reshape(-1, 2, 2)
    inside = np.array([mask for _, mask in links]).reshape(-1, rows, cols)
    # [link, end, row, col] by broadcasting (link, end, rows, 1) with (link, end, 1, cols)
    r = np.arange(rows)[:, None] + steps[:, :, 0, None, None]
    c = np.arange(cols) + steps[:, :, 1, None, None]
    if spec.boundary == "torus":
        r, c = r % rows, c % cols
    else:
        inside = inside & ((r < rows) & (c < cols)).all(axis=1)
    ids = r * cols + c
    i, j = ids[:, 0][inside], ids[:, 1][inside]
    keys = [j * n + i, i * n + j]
    if diag is not None:
        keys.append(np.arange(n) * (n + 1))
    key = engine._sorted_distinct(np.concatenate(keys))
    data = np.full(key.size, float(off))
    if diag is not None:
        data[key % (n + 1) == 0] = diag  # the keys col * (n + 1) of the diagonal
    return engine.Csc.from_keys(key, n, data)


def _cluster_links(spec):
    """A_d as `engine.Csc` arrays; `cluster_adjacency` is its dense form."""
    every = np.ones((spec.rows, spec.cols), dtype=bool)
    return _stencil_adjacency(spec, [(link, every) for link in _SQUARE])


def _kept_gram(adj, p_nodes, kept):
    """(gram, p_adjacent): `engine.Csc` arrays of B^T B for the incidence B
    of the `p_nodes` to the `kept` nodes, with every diagonal entry stored,
    and whether any two p-nodes are adjacent, read from the `engine.Csc`
    arrays `adj` of A_d.

    Entry (k, l) counts the p-nodes adjacent to both kept modes k and l,
    summed from the ordered pairs of kept neighbours of each p-node by
    their sorted keys.
    """
    n = len(kept)
    at = np.full(adj.shape[0], -1)
    at[kept] = np.arange(n)
    node, p_index, _ = adj.entries(np.asarray(p_nodes, dtype=np.intp))
    is_p = np.zeros(adj.shape[0], dtype=bool)
    is_p[p_nodes] = True
    mode = at[node]
    p_index, mode = p_index[mode >= 0], mode[mode >= 0]
    # table[p, slot]: the kept neighbours of p-node p, padded with -1
    degree = np.bincount(p_index, minlength=len(p_nodes))
    table = np.full((len(p_nodes), degree.max(initial=0)), -1)
    table[p_index, np.arange(mode.size) - np.repeat(np.cumsum(degree) - degree, degree)] = mode
    row, col = np.broadcast_arrays(table[:, :, None], table[:, None, :])
    pair = (row >= 0) & (col >= 0)
    pairs = col[pair] * n + row[pair]
    key = engine._sorted_distinct(np.concatenate([pairs, np.arange(n) * (n + 1)]))
    count = np.bincount(np.searchsorted(key, pairs), minlength=key.size).astype(float)
    return engine.Csc.from_keys(key, n, count), bool(is_p[node].any())


def cluster_adjacency(spec):
    """Square-lattice adjacency A_d (4-regular on a torus).

    Multi-edges from wrapping dims < 3 saturate at 1 (simple-graph
    convention).
    """
    return _lattice_of(spec).links.toarray()


def cluster_graph(spec):
    """Cluster-state graph Z = A_d + i s^-2 I."""
    s = spec.s
    return GaussGraph(cluster_adjacency(spec), s ** -2 * np.eye(spec.n_nodes))


def measurement_pattern(spec):
    """Return (q_nodes, p_nodes, kept_nodes) as sorted 0-based id lists."""
    return tuple(nodes.tolist() for nodes in _lattice_of(spec).sites)


def _surface_links(shape):
    """The links of A_SC over a grid of `shape`, as `_stencil_adjacency`
    takes them: the square lattice, and both diagonals through every
    plaquette whose lower-left corner (x, y) has x + y even."""
    every = np.ones(shape, dtype=bool)
    even = np.indices(shape).sum(axis=0) % 2 == 0
    return ([(link, every) for link in _SQUARE]
            + [(((0, 0), (1, 1)), even), (((1, 0), (0, 1)), even)])


def _surface_code_links(spec, off=1.0, diag=None):
    """`engine.Csc` arrays of off * A_SC + diag * I (A_SC alone for diag None);
    `surface_code_adjacency` is the dense A_SC."""
    return _stencil_adjacency(spec, _surface_links((spec.rows, spec.cols)), off, diag)


def _cell_stencil(spec, links):
    """`engine.CellStencil` with the pattern of the matrix that
    `_stencil_adjacency` builds from `links` and a diagonal on an even
    torus, for links whose masks are given on a 2 x 2 grid of corners,
    repeat over the torus and are kept by the translation (1, 1), holding
    the values of the identity.

    Both orientations of each link from each masked corner are an entry:
    the parity of the site of one end gives its column, and the step to
    the other end its row.  Each parity also has a diagonal entry.
    Repeated links are stored once, and on tori >= 4 wide no link closes
    on itself or on another's sites.
    """
    steps = np.array([ends for ends, _ in links])
    link, r, c = np.nonzero(np.array([mask for _, mask in links]))
    ends = steps[link] + np.column_stack([r, c])[:, None]  # [link corner, end, (r, c)]
    column, row = ends.reshape(-1, 2), ends[:, ::-1].reshape(-1, 2)
    key = np.append(column.sum(axis=1) % 2 * 9 + (row - column) @ [3, 1], (0, 9)) + 4
    key = engine._sorted_distinct(key)
    return engine.CellStencil((spec.rows, spec.cols), key, (key % 9 == 4).astype(float))


def surface_code_adjacency(spec):
    """Degree-6 surface-code mode adjacency A_SC on the rows x cols mode grid.

    Square lattice plus both diagonals through every plaquette whose
    lower-left corner (x, y) has x + y even.  The wrap is consistent only
    for even dimensions on a torus.
    """
    return _surface_code_links(spec).toarray()


def surface_code_graph_analytic(spec):
    """Closed-form surface-code graph V = 0, U = s^2 A_SC + (s^-2 + 2s^2) I.

    `spec` dimensions count surface-code modes.  On an even torus U is held
    as its stencil (`engine.CellStencil`: the 14 entries of the columns of
    the two sites of its cell), on a planar grid as CSC arrays (at most 7
    entries per column), both with numpy and no scipy; its dense form is
    built only when `u_part` is read.  U fills its values into the pattern
    of its lattice (`_surface_code_pattern`) and shares its arrays and plans.
    The closed form is the surface code on an even torus with both sides
    >= 4; any other torus raises ValidationError.  A planar spec returns the
    bulk pattern and warns that the boundary rows are approximate.
    """
    pattern = _surface_code_pattern(spec)
    s = spec.s
    c, d = s ** 2, s ** -2 + 2 * s ** 2
    u = pattern.with_data(np.where(pattern.data == 1.0, d, c))
    # U = s^-2 I + s^2 B^T B (B the p-to-kept incidence) with spec(B^T B) =
    # [0, 8], so spec(A_SC) = [-2, 6]: exact on the torus, and by Cauchy
    # interlacing on a planar grid, a principal submatrix of a larger torus
    return GaussGraph._with_extremes(u, d - 2 * c, d + 6 * c)


def _surface_code_pattern(spec):
    """The stored entries of U on the lattice of `spec` (`_Lattice.pattern`),
    after `surface_code_graph_analytic`'s checks and warning, which every call
    makes."""
    if spec.boundary == "torus" and not (spec.even_parity and min(spec.rows, spec.cols) >= 4):
        # odd tori break the plaquette parity; 2-wide ones saturate wrapped links
        raise ValidationError("the closed-form surface code needs a torus with even sides >= 4")
    if spec.boundary == "planar":
        warnings.warn("planar closed form is the bulk pattern; boundary modes are approximate")
    return _lattice_of(spec).pattern


class _Lattice:
    """What the rows x cols lattice of a boundary holds that does not depend
    on log s, each part built on its first read and then shared: read-only
    arrays and `engine.Csc` / `engine.CellStencil` patterns, whose `plans`
    every matrix filled into them shares.  `_lattice` keeps one per lattice.
    """

    def __init__(self, rows, cols, boundary):
        self.spec = LatticeSpec(rows, cols, boundary)

    @cached_property
    def links(self):
        """A_d (`_cluster_links`)."""
        return _cluster_links(self.spec)

    @cached_property
    def sites(self):
        """(q_nodes, p_nodes, kept_nodes) of the measurement pattern, as
        sorted read-only id arrays."""
        odd_row, odd_col = (np.indices((self.spec.rows, self.spec.cols)).reshape(2, -1) + 1) % 2
        return tuple(engine._read_only(np.flatnonzero(nodes)) for nodes in
                     ((odd_row | odd_col) == 0, odd_row & odd_col, odd_row != odd_col))

    @cached_property
    def index_map(self):
        """The 1-based (row, col) of each kept mode, in mode order."""
        row, col = np.divmod(self.sites[2], self.spec.cols)
        return tuple(zip((row + 1).tolist(), (col + 1).tolist()))

    @cached_property
    def kept_gram(self):
        """(gram, p_adjacent) of the kept modes (`_kept_gram`)."""
        _, p_nodes, kept = self.sites
        return _kept_gram(self.links, p_nodes, kept)

    @cached_property
    def pattern(self):
        """The stored entries of the closed-form U, holding the values of the
        identity (the entries off the diagonal stored as 0): on an even torus
        its `engine.CellStencil`, on a planar grid `engine.Csc` arrays.  Read
        through `_surface_code_pattern`, which checks the lattice."""
        if self.spec.boundary == "torus":
            return _cell_stencil(self.spec, _surface_links((2, 2)))
        return _surface_code_links(self.spec, 0.0, 1.0)


# the structure of the 8 lattices asked for last, kept per process: one
# process reads a few lattices over and over (a log s scan, a benchmark)
_lattice = lru_cache(maxsize=8)(_Lattice)


def _lattice_of(spec):
    """The `_Lattice` of the lattice of `spec`."""
    return _lattice(spec.rows, spec.cols, spec.boundary)


def _off_diagonal_support(mat):
    """0/1 float matrix of the nonzero off-diagonal entries of `mat`."""
    support = (mat != 0).astype(float)
    np.fill_diagonal(support, 0.0)
    return support


def kept_mode_adjacency(spec):
    """Surface-code adjacency on the kept cluster modes.

    Two kept modes are adjacent exactly when they neighbor a common
    p-measured node: the off-diagonal support of B^T B, B the p-to-kept
    incidence.  This is the graph the measurement pipeline produces;
    on a torus it is the same bulk graph as `surface_code_adjacency` with a
    diagonal torus identification.
    """
    gram = _lattice_of(spec).kept_gram[0]
    rows, cols = gram.indices, gram.columns()
    off = (rows != cols) & (gram.data != 0)
    adjacency = np.zeros(gram.shape)
    adjacency[rows[off], cols[off]] = 1.0
    return adjacency


def map_cluster_to_surface(spec):
    """Run the measurement pipeline on the cluster state.

    p-measuring the nodes P leaves the kept nodes K in one block Schur
    complement Z' = Z_KK - Z_KP Z_PP^-1 Z_PK of Z = A_d + i s^-2 I
    (SingularPivotError when the pivot s^-2 < 1e-12); the q-measured nodes
    are dropped, since deletion commutes with the p-eliminations.

    On planar grids and even tori no two p-nodes are adjacent, and then no
    two kept nodes are: Z_PP = i s^-2 I, and Z' = i U with V = 0 and the
    sparse U = s^-2 I + s^2 B^T B, B the p-to-kept incidence, summed from
    the pairs of kept neighbours of each p-node (`_kept_gram`).  U is
    positive definite by construction, with no eigvalsh: spec(B^T B) lies
    in [0, ||B||_1 ||B||_inf] = [0, 2 * 4].  On odd tori p-nodes wrap into
    adjacency, and the complement is solved dense.

    Returns
    -------
    graph : GaussGraph
        State of the kept modes.
    index_map : list of (row, col)
        1-based cluster coordinates of each kept mode, in mode order.
    """
    built = _lattice_of(spec)
    index_map = list(built.index_map)
    eps = spec.s ** -2
    if eps < engine.PIVOT_TOL:
        raise SingularPivotError("a p-node pivot Z[k,k] is below pivot tolerance")
    gram, p_adjacent = built.kept_gram
    if not p_adjacent:
        weight = 1.0 / eps  # s^2 as the dense solve divides it out
        on_diagonal = gram.indices == gram.columns()
        data = weight * gram.data
        data[on_diagonal] += eps
        # spec(U) lies in [min D, max D + 8 s^2] for the diagonal D = U - s^2
        # B^T B of the stored entries: s^-2, or 0 where s^-2 rounded away,
        # and then U fails as singular
        lam = data[on_diagonal] - weight * gram.data[on_diagonal]
        u = gram.with_data(data)
        return GaussGraph._with_extremes(u, lam.min(initial=np.inf),
                                         lam.max(initial=-np.inf) + 8 * weight), index_map
    adj, (_, p_nodes, kept) = built.links, built.sites
    z_pk, a_pp, a_kk = adj.block(p_nodes, kept), adj.block(p_nodes, p_nodes), adj.block(kept, kept)
    z_pp = a_pp + 1j * eps * np.eye(len(p_nodes))
    try:
        z_new = a_kk + 1j * eps * np.eye(len(kept)) - z_pk.T @ np.linalg.solve(z_pp, z_pk)
    except np.linalg.LinAlgError as exc:
        raise SingularPivotError("Z_PP is singular: %s" % exc) from exc
    # the solve leaves Z' symmetric only to rounding
    z_new = 0.5 * (z_new + z_new.T)
    return GaussGraph(z_new.real, z_new.imag), index_map


def rescale_gauge(graph, weight, eps):
    """Undo a uniform edge weight g by local q-squeezes.

    The input must have the form Z = weight * V0 + i eps I; the output is
    Z / weight = V0 + i (eps / weight) I together with the effective
    squeezing s_tilde = sqrt(weight / eps).

    Returns
    -------
    (GaussGraph, float)
    """
    if not 0.0 < weight <= 0.25:
        raise ValidationError("weight must lie in (0, 1/4]")
    if eps <= 0:
        raise ValidationError("eps must be positive")
    n = graph.n_modes
    u = graph.u_part
    if np.abs(u - eps * np.eye(n)).max() > 1e-10 * max(1.0, eps):
        raise ValidationError("graph does not have the form Z = w V0 + i eps I")
    root = np.sqrt(weight)
    a = root * np.eye(n)
    d = np.eye(n) / root
    zero = np.zeros((n, n))
    out = engine.apply_symplectic(graph, a, zero, zero, d)
    return out, float(np.sqrt(weight / eps))


class SurfaceGraph:
    """Oriented surface-code lattice Lambda = (V, E, F) from a cluster spec.

    Vertices are the p-measured cluster sites, faces the q-measured sites
    and edges the kept sites (the surface-code modes, indexed in kept-mode
    order so nullifier vectors act directly on pipeline states).  The
    lattice is held as two incidences sliced from the cluster stencil:
    `vertex_incidence` B (vertices x edges, 0/1) and `face_incidence` F
    (faces x edges, +1 on N/S edges and -1 on E/W edges, the sign pattern
    required by the positive commutator closed form on neighboring faces).
    A torus needs even sides >= 4, since on 2-wide tori wrapped links
    coincide.
    """

    def __init__(self, spec):
        if spec.boundary == "torus" and not (spec.even_parity and min(spec.rows, spec.cols) >= 4):
            raise ValidationError("torus surface graph requires even sides >= 4")
        self.spec = spec
        q_nodes, p_nodes, kept = measurement_pattern(spec)
        self.vertices = list(range(len(p_nodes)))
        self.faces = list(range(len(q_nodes)))
        self.edges = list(range(len(kept)))
        self._vertex_site = p_nodes
        self._face_site = q_nodes
        adj = _lattice_of(spec).links
        b, a_qk = adj.block(p_nodes, kept), adj.block(q_nodes, kept)
        # the N/S edges of a face are the kept sites on rows of vertices
        self.vertex_incidence = b
        self.face_incidence = np.where(np.array(kept) // spec.cols % 2 == 0, a_qk, -a_qk)
        self.edge_endpoints = [tuple(np.flatnonzero(col).tolist()) for col in b.T]
        self.vertex_edges = [np.flatnonzero(row).tolist() for row in b]
        self.vertex_neighbors = [set(np.flatnonzero(row).tolist())
                                 for row in _off_diagonal_support(b @ b.T)]
        # each face lists its edges N, S, W, E: their steps face - edge mod
        # (rows, cols) are (1, 0), (rows - 1, 0), (0, 1), (0, cols - 1), which
        # sort by column step, then row step, in that order
        face, edge = np.nonzero(self.face_incidence)
        face_r, face_c = np.divmod(np.take(q_nodes, face), spec.cols)
        edge_r, edge_c = np.divmod(np.take(kept, edge), spec.cols)
        order = np.lexsort(((face_r - edge_r) % spec.rows, (face_c - edge_c) % spec.cols, face))
        pairs = zip(edge[order].tolist(), self.face_incidence[face, edge][order].tolist())
        self.face_boundaries = [[next(pairs) for _ in range(size)]
                                for size in np.bincount(face, minlength=len(q_nodes))]

    @property
    def n_modes(self):
        return len(self.edges)

    def valence(self, v):
        """Vertex valence V(v)."""
        return len(self.vertex_edges[v])

    def vertex_coords(self, v):
        """Integer coordinates of vertex v on the unit-edge-length lattice."""
        k = self._vertex_site[v]
        return (k // self.spec.cols) // 2, (k % self.spec.cols) // 2

    def face_coords(self, f):
        """Integer coordinates of face f on the dual lattice."""
        k = self._face_site[f]
        return (k // self.spec.cols - 1) // 2, (k % self.spec.cols - 1) // 2

    def lattice_distance(self, coords_a, coords_b):
        """Euclidean distance between lattice coordinates, min over wraps."""
        spec = self.spec
        da, db = wrapped_offsets(spec.rows // 2, spec.cols // 2, spec.boundary,
                                 coords_a, coords_b)
        return float(np.hypot(da, db))


class NullifierSet:
    """Vertex and face nullifier coefficient vectors over (q.., p..).

    Each nullifier is eta = c . r with r = (q_1..q_N, p_1..p_N) and
    [eta, eta^dagger] = 1.
    """

    def __init__(self, vertex_nullifiers, face_nullifiers, norm_sprime, norm_sv):
        self.vertex_nullifiers = vertex_nullifiers
        self.face_nullifiers = face_nullifiers
        self.norm_sprime = norm_sprime
        self.norm_sv = norm_sv


def nullifier_vectors(sg, s):
    """Build the finitely squeezed nullifier set for a surface graph.

    Vertex nullifiers use the general form with next-nearest q-terms of
    weight s^2/s_v^2 (the inner sum over neighbor-incident edges includes
    the edges shared with v); face nullifiers carry the signed p - iq/s^2
    pattern.  Incomplete boundary vertices/faces simply omit missing modes.
    """
    b, f = sg.vertex_incidence, sg.face_incidence
    valence = b.sum(axis=1)
    s_v = np.sqrt(valence * s ** 2 + s ** -2)
    # a vertex with no edge has a zero row in b and in the next-nearest
    # terms; max(valence, 1) only keeps its unused prefactor finite
    pref = (s_v / np.sqrt(2 * np.maximum(valence, 1) * (1 + (s / s_v) ** 2)))[:, None]
    ratio = (s ** 2 / s_v ** 2)[:, None]
    next_nearest = _off_diagonal_support(b @ b.T) @ b
    vertex = np.hstack([pref * (b + ratio * next_nearest), 1j * pref / s_v[:, None] ** 2 * b])
    pref = s / np.sqrt(2 * np.abs(f).sum(axis=1))[:, None]
    face = np.hstack([-1j * pref * f / s ** 2, pref * f])
    return NullifierSet(list(vertex), list(face),
                        float(np.sqrt(5 * s ** 2 + s ** -2)), s_v.tolist())


def _bracket(a, b):
    """i (a_q . b_p^T - a_p . b_q^T) = i a Omega b^T for coefficient vectors,
    or stacks of them as rows, over (q.., p..)."""
    n = a.shape[-1] // 2
    return 1j * (a[..., :n] @ b[..., n:].T - a[..., n:] @ b[..., :n].T)


def commutator(vec_a, vec_b):
    """[eta_a, eta_b^dagger] for coefficient vectors over (q.., p..)."""
    return complex(_bracket(vec_a, np.conj(vec_b)))


def nullifier_commutators(ns):
    """All pairwise commutators of a nullifier set.

    Returns
    -------
    dict with keys 'vertex' ([a_v, a_v'^dag]), 'face' ([b_f, b_f'^dag]),
    'cross' ([a_v, b_f]) and 'cross_dagger' ([a_v, b_f^dag]).
    """
    stack = np.array(ns.vertex_nullifiers + ns.face_nullifiers)
    va, vf = np.split(stack, [len(ns.vertex_nullifiers)])
    return {"vertex": _bracket(va, va.conj()),
            "face": _bracket(vf, vf.conj()),
            "cross": _bracket(va, vf),
            "cross_dagger": _bracket(va, vf.conj())}


def nullifier_expectation(cov, vec):
    """<eta^dagger eta> on the state, from Gamma + (i/2) Omega; Gamma is read
    on the support of eta only (`CovMatrix.gamma_block`)."""
    vec_bar = np.conj(vec)
    support = np.flatnonzero(vec)
    quadratic = vec_bar[support] @ cov.gamma_block(support) @ vec[support]
    return float(np.real(quadratic + 0.5 * _bracket(vec_bar, vec)))


def w_closed_form(d, s):
    """Torus vertex-commutator closed form w(d), d the Euclidean distance.

    w(1) = (1 + 8 s^4) / (4 (1 + 5 s^4)), w(sqrt 2) = 2 s^4 / (4 (1 + 5 s^4))
    and w(2) = s^4 / (4 (1 + 5 s^4)), each divided through by s^4 so that no
    20 s^4 overflows."""
    t = s ** -4
    denom = 4 * (t + 5)
    if np.isclose(d, 0):
        return 1.0
    if np.isclose(d, 1):
        return (t + 8) / denom
    if np.isclose(d, np.sqrt(2)):
        return 2 / denom
    if np.isclose(d, 2):
        return 1 / denom
    return 0.0


def x_closed_form(d):
    """Torus face-commutator closed form x(d)."""
    if np.isclose(d, 0):
        return 1.0
    if np.isclose(d, 1):
        return 0.25
    return 0.0
