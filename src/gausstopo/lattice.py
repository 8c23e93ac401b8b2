"""Lattice geometry, cluster and surface-code graphs, nullifiers.

Cluster nodes are labelled 1-based (row, col) with node id
(row-1)*cols + (col-1).  The measurement pattern puts p-measurements on
(odd, odd) sites, q-measurements on (even, even) sites and keeps the
mixed-parity sites, which become the surface-code modes.

The surface-code lattice Lambda = (V, E, F) is recovered from an
even x even cluster: p-measured sites are the vertices, q-measured sites
the faces, kept sites the edges.
"""

import math
import numbers
import warnings
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial

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


def check_s(s):
    """`s` as a float; ValidationError unless it is a real number > 0, not
    a bool, whose log passes `check_log_s`."""
    if isinstance(s, (bool, np.bool_)) or not isinstance(s, numbers.Real) or not s > 0:
        raise ValidationError("s must be a real number > 0, not %r" % (s,))
    check_log_s(math.log(s))
    return float(s)


@dataclass(frozen=True)
class LatticeSpec:
    """Square-lattice geometry and squeezing.

    Parameters
    ----------
    rows, cols : int
        Lattice dimensions, integers and not bools.  Planar lattices allow
        dimensions down to 1; a torus needs at least 2 in each direction.
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
        if any(isinstance(side, bool) or not isinstance(side, (int, np.integer))
               for side in (self.rows, self.cols)):
            raise ValidationError("lattice dimensions must be integers, not %r x %r"
                                  % (self.rows, self.cols))
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


def _surface_code_links(spec, off=1.0, diag=None):
    """`engine.Csc` arrays of off * A_SC + diag * I (A_SC alone for diag None);
    `surface_code_adjacency` is the dense A_SC.  A_SC's links are the square
    lattice and both diagonals through every plaquette whose lower-left
    corner (x, y) has x + y even."""
    every = np.ones((spec.rows, spec.cols), dtype=bool)
    even = np.indices(every.shape).sum(axis=0) % 2 == 0
    links = ([(link, every) for link in _SQUARE]
             + [(((0, 0), (1, 1)), even), (((1, 0), (0, 1)), even)])
    return _stencil_adjacency(spec, links, off, diag)


def _cell_stencil(spec):
    """`engine.CellStencil` with the pattern of A_SC + I on the even torus of
    `spec`, holding the values of the identity.

    The cell is read off the columns of the sites (0, 0) and (0, 1) of the
    CSC arrays of the 4 x 4 torus, the smallest even torus on which no two
    entries of a column share a site: row site (r, c) of column p is the
    step (r, c - p), each coordinate in {-1, 0, 1} mod 4.
    """
    cell = _surface_code_links(LatticeSpec(4, 4, "torus"), 0.0, 1.0)
    rows, p, at = cell.positions(np.arange(2))
    r, c = np.divmod(rows, 4)
    key = 9 * p + 3 * ((r + 1) % 4) + (c - p + 1) % 4
    order = np.argsort(key)
    return engine.CellStencil((spec.rows, spec.cols), key[order], cell.data[at[order]])


def _even_plaquettes(rows, cols, torus, modes):
    """The ids of the two p-nodes of each of `modes` on the rows x cols mode
    grid of the closed-form surface code, as a (len(modes), 2) array, read
    from the mode's coordinates: the p-nodes are the even plaquettes (lower-
    left corner (x, y) with x + y even), and mode (r, c) lies in those of
    the corners (r, c) and (r - 1, c - 1) when r + c is even, (r - 1, c) and
    (r, c - 1) when it is odd.  On a torus the corner wraps and has id
    x * cols + y.  On a planar grid a plaquette is clipped to the grid, its
    corner ranging over [-1, rows) x [-1, cols), with id (x + 1) * (cols +
    1) + y + 1; one that holds a single mode couples none."""
    r, c = np.divmod(np.asarray(modes, dtype=np.intp), cols)
    odd = (r + c) % 2
    x, y = np.stack([r - odd, r - 1 + odd], axis=-1), np.stack([c, c - 1], axis=-1)
    if torus:
        return x % rows * cols + y % cols
    return (x + 1) * (cols + 1) + y + 1


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
    # off the diagonal U = s^2 B^T B for the p-node incidence B the pattern
    # records (`_even_plaquettes`), so U records s^2 as its incidence scale
    u = pattern.with_data(np.where(pattern.data == 1.0, d, c), incidence_scale=c)
    # U = s^-2 I + s^2 B^T B (B the p-to-kept incidence) with spec(B^T B) =
    # [0, 8], so spec(A_SC) = [-2, 6]: exact on the torus, and by Cauchy
    # interlacing on a planar grid, a principal submatrix of a larger torus
    return GaussGraph._with_extremes(u, d - 2 * c, d + 6 * c)


def _no_surface_code(spec):
    """Whether `spec` is a torus that holds no surface code, one without even
    sides >= 4: odd tori break the plaquette parity, and 2-wide ones
    saturate wrapped links."""
    return spec.boundary == "torus" and not (spec.even_parity and min(spec.rows, spec.cols) >= 4)


def _surface_code_pattern(spec):
    """The stored entries of U on the lattice of `spec` (`_Lattice.pattern`),
    after `surface_code_graph_analytic`'s checks and warning, which every call
    makes."""
    if _no_surface_code(spec):
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
    def b_t(self):
        """(edge, vertex, 1) arrays of the entries of B^T, B the incidence of
        the p-nodes (vertices) on the kept nodes (edges), by edge and then
        vertex, read-only: those of the kept columns of A_d in p-node rows."""
        _, p_nodes, kept = self.sites
        node, edge, _ = self.links.entries(kept)
        vertex_of = np.full(self.spec.n_nodes, -1)
        vertex_of[p_nodes] = np.arange(len(p_nodes))
        on_v = vertex_of[node] >= 0
        return tuple(map(engine._read_only, (edge[on_v], vertex_of[node[on_v]],
                                             np.ones(on_v.sum(), dtype=np.intp))))

    @cached_property
    def kept_gram(self):
        """(gram, p_adjacent): `engine.Csc` arrays of B^T B (every diagonal
        entry is stored: each kept node has a p-node neighbour), and whether
        any two p-nodes are adjacent."""
        _, p_nodes, kept = self.sites
        row, col, count = _gram(self.b_t, self.b_t, len(kept))
        # B^T B is symmetric, so its row-major keys are its column-major ones
        gram = engine.Csc.from_keys(row * len(kept) + col, len(kept), count.astype(float))
        is_p = np.zeros(self.spec.n_nodes, dtype=bool)
        is_p[p_nodes] = True
        return gram, bool(is_p[self.links.entries(p_nodes)[0]].any())

    @cached_property
    def pattern(self):
        """The stored entries of the closed-form U, holding the values of the
        identity (the entries off the diagonal stored as 0): on an even torus
        its `engine.CellStencil`, on a planar grid `engine.Csc` arrays.  It
        records as its `incidence` the p-nodes of each mode
        (`_even_plaquettes`), so no array of it grows with the torus.  Read
        through `_surface_code_pattern`, which checks the lattice."""
        rows, cols, boundary = self.spec.rows, self.spec.cols, self.spec.boundary
        if boundary == "torus":
            pattern = _cell_stencil(self.spec)
        else:
            pattern = _surface_code_links(self.spec, 0.0, 1.0)
        pattern.incidence = partial(_even_plaquettes, rows, cols, boundary == "torus")
        return pattern

    @cached_property
    def surface(self):
        """The surface-code lattice's incidences and their products
        (`_surface_lattice`); `SurfaceGraph` checks the lattice."""
        return _surface_lattice(self.spec, self.links, self.sites, self.b_t)


# the structure of the 8 lattices asked for last, kept per process: one
# process reads a few lattices over and over (a log s scan, a benchmark)
_lattice = lru_cache(maxsize=8)(_Lattice)


def _lattice_of(spec):
    """The `_Lattice` of the lattice of `spec`."""
    return _lattice(spec.rows, spec.cols, spec.boundary)


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
    sparse U = s^-2 I + s^2 B^T B, B the p-to-kept incidence, whose B^T B
    its lattice holds (`_Lattice.kept_gram`).  U is positive definite by
    construction, with no eigvalsh: spec(B^T B) lies in [0, ||B||_1
    ||B||_inf] = [0, 2 * 4].  On odd tori p-nodes wrap into adjacency, and
    the complement is solved dense.

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


def _gram(x, y, n_cols):
    """(row, col, value) arrays of the nonzero entries of X Y^T, by row and
    then col, for the integer matrices X and Y held as (row, mid, value)
    arrays of their entries, mid the index they share; Y has `n_cols` rows.

    Each entry of X meets the run of the entries of Y in its mid, and the
    products of a (row, col) pair are summed by their sorted keys."""
    (x_row, x_mid, x_val), (y_row, y_mid, y_val) = x, y
    order = np.argsort(y_mid, kind="stable")
    count = np.bincount(y_mid, minlength=x_mid.max(initial=-1) + 1)
    at, k = engine._runs((np.cumsum(count) - count)[x_mid], count[x_mid])
    at = order[at]
    key = x_row[k] * n_cols + y_row[at]
    distinct = engine._sorted_distinct(key)
    total = np.bincount(np.searchsorted(distinct, key), x_val[k] * y_val[at],
                        distinct.size).astype(np.intp)
    row, col = np.divmod(distinct[total != 0], n_cols)
    return row, col, total[total != 0]


# the surface-code lattice of a cluster lattice (`_surface_lattice`)
_Surface = namedtuple("_Surface",
                      "b valence endpoints neighbors f face_norm q bbt nbt fft bft nft")


def _surface_lattice(spec, links, sites, b_t):
    """The surface-code lattice of `spec` as a `_Surface` of read-only O(E)
    arrays, from the entries `b_t` of B^T (`_Lattice.b_t`) and the kept
    columns of the cluster stencil `links` (`engine.Csc` arrays of A_d) for
    the measurement pattern `sites`: vertices are the p-nodes, faces the
    q-nodes and edges the kept nodes.  It holds B (vertices x edges, 0/1), F
    (faces x edges, +1 on the N/S edges, the kept nodes on rows of
    vertices, and -1 on the E/W edges) and N, the vertex adjacency (the
    off-diagonal support of B B^T) times B, as:

    b: (vertex, edge) of B's entries, by vertex and then edge; valence: their
    count per vertex; endpoints: (vertex, degree), the vertices of each edge,
    by edge, and their count; neighbors: (vertex, count), the vertex
    neighbours of each vertex; f: (face, edge, sign) of F's entries, each
    face's edges in the order N, S, W, E; face_norm: |F_f|_1; q: (vertex,
    edge, b, n) of the entries of B + N and the values of B and N there;
    bbt, nbt, fft, bft, nft: (row, col, value) of the nonzero entries of
    B B^T, N B^T, F F^T, B F^T and N F^T (`_gram`).
    """
    q_nodes, p_nodes, kept = sites
    n_v, n_f, n_e = len(p_nodes), len(q_nodes), len(kept)
    by_vertex = np.argsort(b_t[1], kind="stable")
    b = (b_t[1][by_vertex], b_t[0][by_vertex], b_t[2])
    bbt = _gram(b, b, n_v)
    off = bbt[0] != bbt[1]
    adjacency = (bbt[0][off], bbt[1][off], np.ones(off.sum(), dtype=np.intp))
    n = _gram(adjacency, b_t, n_e)
    # each face lists its edges N, S, W, E: their steps face - edge mod
    # (rows, cols) are (1, 0), (rows - 1, 0), (0, 1), (0, cols - 1), which
    # sort by column step, then row step, in that order
    node, edge, _ = links.entries(kept)
    face_of = np.full(spec.n_nodes, -1)
    face_of[q_nodes] = np.arange(n_f)
    on_f = face_of[node] >= 0
    face, edge = face_of[node[on_f]], edge[on_f]
    face_r, face_c = np.divmod(q_nodes[face], spec.cols)
    edge_r, edge_c = np.divmod(kept[edge], spec.cols)
    order = np.lexsort(((face_r - edge_r) % spec.rows, (face_c - edge_c) % spec.cols, face))
    f = (face[order], edge[order], np.where(edge_r[order] % 2 == 0, 1.0, -1.0))
    # the entries of B + N and the values of B and of N at each
    b_key, n_key = b[0] * n_e + b[1], n[0] * n_e + n[1]
    key = engine._sorted_distinct(np.concatenate([b_key, n_key]))
    q_b, q_n = np.zeros((2, key.size), dtype=np.intp)
    q_b[np.searchsorted(key, b_key)] = 1
    q_n[np.searchsorted(key, n_key)] = n[2]
    arrays = dict(b=b[:2], valence=np.bincount(b[0], minlength=n_v),
                  endpoints=(b_t[1], np.bincount(b_t[0], minlength=n_e)),
                  neighbors=(adjacency[1], np.bincount(adjacency[0], minlength=n_v)),
                  f=f, face_norm=np.bincount(f[0], minlength=n_f),
                  q=np.divmod(key, n_e) + (q_b, q_n), bbt=bbt, nbt=_gram(n, b, n_v),
                  fft=_gram(f, f, n_f), bft=_gram(b, f, n_f), nft=_gram(n, f, n_f))
    return _Surface(**{name: (engine._read_only(value) if isinstance(value, np.ndarray)
                              else tuple(map(engine._read_only, value)))
                       for name, value in arrays.items()})


def _split(flat, counts):
    """The list `flat` cut into consecutive lists of `counts` entries."""
    ends = np.cumsum(counts).tolist()
    return [flat[start:end] for start, end in zip([0] + ends, ends)]


class SurfaceGraph:
    """Oriented surface-code lattice Lambda = (V, E, F) from a cluster spec.

    Vertices are the p-measured cluster sites, faces the q-measured sites
    and edges the kept sites (the surface-code modes, indexed in kept-mode
    order so nullifier vectors act directly on pipeline states).  The
    lattice is held as two incidences: `vertex_incidence` B (vertices x
    edges, 0/1) and `face_incidence` F (faces x edges, +1 on N/S edges and
    -1 on E/W edges, the sign pattern required by the positive commutator
    closed form on neighboring faces).  A torus needs even sides >= 4, since
    on 2-wide tori wrapped links coincide.  Each instance scatters its own
    arrays and lists from the lattice's `_Surface`, built once per lattice.
    """

    def __init__(self, spec):
        if _no_surface_code(spec):
            raise ValidationError("torus surface graph requires even sides >= 4")
        self.spec = spec
        built = _lattice_of(spec)
        q_nodes, p_nodes, kept = built.sites
        self._surface = surface = built.surface
        self.vertices = list(range(len(p_nodes)))
        self.faces = list(range(len(q_nodes)))
        self.edges = list(range(len(kept)))
        self._vertex_site = p_nodes.tolist()
        self._face_site = q_nodes.tolist()
        (vertex, edge), (face, face_edge, sign) = surface.b, surface.f
        self.vertex_incidence = np.zeros((len(p_nodes), len(kept)))
        self.vertex_incidence[vertex, edge] = 1.0
        self.face_incidence = np.zeros((len(q_nodes), len(kept)))
        self.face_incidence[face, face_edge] = sign
        self.edge_endpoints = list(map(tuple, _split(surface.endpoints[0].tolist(),
                                                     surface.endpoints[1])))
        self.vertex_edges = _split(edge.tolist(), surface.valence)
        self.vertex_neighbors = list(map(set, _split(surface.neighbors[0].tolist(),
                                                     surface.neighbors[1])))
        self.face_boundaries = _split(list(zip(face_edge.tolist(), sign.tolist())),
                                      surface.face_norm)

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

    # (vertex vectors, face vectors, the factors of their tables), recorded
    # by `nullifier_vectors` for `nullifier_commutators`
    _built = None

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
    The vectors are scattered from the lattice's `_Surface` that `sg`
    recorded, so edits to the fields of `sg` do not reach them, and they
    are read-only.  `s` is checked by `check_s`.
    """
    s, surface = check_s(s), sg._surface
    valence = surface.valence
    n_v, n_f, n_e = valence.size, surface.face_norm.size, surface.endpoints[1].size
    s_v = np.sqrt(valence * s ** 2 + s ** -2)
    # a vertex with no edge has no entry in B or N; max(valence, 1) only
    # keeps its unused prefactor finite
    pref = s_v / np.sqrt(2 * np.maximum(valence, 1) * (1 + (s / s_v) ** 2))
    ratio = s ** 2 / s_v ** 2
    # the vertex vectors, then the face vectors, as rows of one array
    vectors = np.zeros((n_v + n_f, 2 * n_e), dtype=complex)
    row, col, b, n = surface.q
    vectors[row, col] = pref[row] * (b + ratio[row] * n)
    row, col = surface.b
    vectors[row, n_e + col] = (1j * pref / s_v ** 2)[row]
    pf = s / np.sqrt(2 * surface.face_norm)
    row, col, sign = surface.f
    vectors[n_v + row, col] = -1j * pf[row] * sign / s ** 2
    vectors[n_v + row, n_e + col] = pf[row] * sign
    vectors = list(engine._read_only(vectors))
    vertex, face = vectors[:n_v], vectors[n_v:]
    ns = NullifierSet(list(vertex), list(face), float(np.sqrt(5 * s ** 2 + s ** -2)),
                      s_v.tolist())
    ns._built = (vertex, face, (surface, s, pref, pref / s_v ** 2, ratio, pf))
    return ns


def _bracket(a, b):
    """i (a_q . b_p^T - a_p . b_q^T) = i a Omega b^T for coefficient vectors,
    or stacks of them as rows, over (q.., p..)."""
    n = a.shape[-1] // 2
    return 1j * (a[..., :n] @ b[..., n:].T - a[..., n:] @ b[..., :n].T)


def commutator(vec_a, vec_b):
    """[eta_a, eta_b^dagger] for coefficient vectors over (q.., p..)."""
    return complex(_bracket(vec_a, np.conj(vec_b)))


def _table(shape, *parts):
    """The real `shape` table summing each part's (row, col, value) arrays,
    zero elsewhere."""
    row, col, value = (np.concatenate(arrays) for arrays in zip(*parts))
    return np.bincount(row * shape[1] + col, value, shape[0] * shape[1]).reshape(shape)


def _scattered_tables(surface, s, pref, c, ratio, pf):
    """`nullifier_commutators` of the vectors `nullifier_vectors` built with
    the per-row factors pref_v, c_v = pref_v / s_v^2, r_v = s^2 / s_v^2 and
    pf_f = s / sqrt(2 |F_f|_1), from the integer products of `surface`:

    vertex[v, w] = (pref_v c_w + c_v pref_w) BB^T[v, w]
                   + pref_v r_v c_w NB^T[v, w] + c_v pref_w r_w NB^T[w, v]
    face[f, g] = (2 / s^2) pf_f pf_g FF^T[f, g]
    cross[v, f] = i pf_f (pref_v (BF^T + r_v NF^T) - c_v BF^T / s^2)[v, f],
    and cross_dagger the same with + c_v BF^T / s^2.
    """
    n_v, n_f = pref.size, pf.size
    v, w, x = surface.bbt
    bb = (v, w, (pref[v] * c[w] + c[v] * pref[w]) * x)
    v, w, x = surface.nbt
    nb = pref[v] * ratio[v] * c[w] * x
    vertex = _table((n_v, n_v), bb, (v, w, nb), (w, v, nb))
    f, g, x = surface.fft
    face = _table((n_f, n_f), (f, g, 2 / s ** 2 * pf[f] * pf[g] * x))
    v, f, x = surface.nft
    nf = (v, f, pf[f] * pref[v] * ratio[v] * x)
    v, f, x = surface.bft
    bf_pref, bf_c = pf[f] * pref[v] * x, pf[f] * c[v] * x / s ** 2
    return {"vertex": vertex.astype(complex), "face": face.astype(complex),
            "cross": 1j * _table((n_v, n_f), (v, f, bf_pref - bf_c), nf),
            "cross_dagger": 1j * _table((n_v, n_f), (v, f, bf_pref + bf_c), nf)}


def nullifier_commutators(ns):
    """All pairwise commutators of a nullifier set.

    A set that holds exactly the vectors `nullifier_vectors` built gets its
    tables scattered from the integer products of its lattice
    (`_scattered_tables`); any other set, hand-built or with edited lists,
    gets `_bracket` of its stacked vectors.

    Returns
    -------
    dict with keys 'vertex' ([a_v, a_v'^dag]), 'face' ([b_f, b_f'^dag]),
    'cross' ([a_v, b_f]) and 'cross_dagger' ([a_v, b_f^dag]).
    """
    if ns._built is not None:
        vertex, face, factors = ns._built
        if all(len(got) == len(want) and all(a is b for a, b in zip(got, want))
               for got, want in ((ns.vertex_nullifiers, vertex), (ns.face_nullifiers, face))):
            return _scattered_tables(*factors)
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
