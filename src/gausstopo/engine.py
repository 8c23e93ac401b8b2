"""Core Gaussian-state algebra.

A zero-mean N-mode Gaussian pure state is represented by its graph
Z = V + iU with V, U real symmetric and U positive definite.  Covariance
matrices use the quadrature ordering (q_1..q_N, p_1..p_N) with symplectic
form Omega = [[0, I], [-I, 0]].  All objects are immutable after
construction and all operations are pure functions.
"""

import copy
import itertools
import json

import numpy as np

from .errors import (
    IllConditionedGraphError,
    SingularPivotError,
    SingularTransformError,
    UnsupportedStateError,
    ValidationError,
)

SERIALIZATION_VERSION = 1

_SYM_TOL = 1e-12
PIVOT_TOL = 1e-12  # smallest |Z_kk| a p-measurement divides by
_BATCH_PLANS = 16  # batch plans kept per pattern; the least recently used goes first


def _read_only(array):
    array.setflags(write=False)
    return array


def _sorted_distinct(values):
    """The distinct entries of the 1-d integer array `values`, sorted; repeats
    are masked, since np.unique takes a slower hash path."""
    values = np.sort(values)
    first = np.ones(values.size, dtype=bool)
    first[1:] = values[1:] != values[:-1]
    return values[first]


def _symmetrized(mat, name):
    """(mat + mat^T) / 2 of a dense `mat` that is finite and symmetric to
    within 1e-12 of its largest entry."""
    scale = np.abs(mat).max(initial=0.0)  # NaN propagates
    if not np.isfinite(scale):
        raise ValidationError("v_part and u_part must be finite")
    if np.abs(mat - mat.T).max(initial=0.0) > _SYM_TOL * max(1.0, scale):
        raise ValidationError("%s is not symmetric to within 1e-12" % name)
    return 0.5 * (mat + mat.T)


class _Stored:
    """A square matrix held as the pattern of its stored entries and one
    value per entry (`data`, read-only).  A subclass places the entries of
    a set of columns (`positions`); `entries`, `block`, `toarray` and
    `with_data` follow from that.

    numpy index arithmetic reads the entries (`_cut`, `block`,
    `p_entry`).  `plans` memoises what is read from the pattern alone: under
    "batches" the plans of the last `_BATCH_PLANS` batches of regions whose
    spectra were asked for together (`_batch_plan`: checked when it was
    planned), under "blocks" the block order of `BlockCholesky` and under
    "p_nodes" the p-node system of `PNodeFactor` (`_p_node_plan`).
    `with_data` gives the matrix of another set of values on the same
    pattern, which shares `plans`.

    A pattern may record an `incidence` B of p-nodes to its modes: a
    function of mode ids that gives the two p-nodes of each, as a (k, 2)
    id array.  A matrix of its values that its builder knows to be
    s * B^T B off the diagonal records that s as its `incidence_scale`;
    its cuts are then solved in the space of the p-nodes they cut
    (`_cut_product`), and off an even torus U^-1 through its p-nodes
    (`PNodeFactor`).
    """

    torus = None  # (rows, cols) of the even torus of a `CellStencil`
    incidence = None  # p-node ids of modes, recorded by the pattern's builder
    incidence_scale = None  # s with U = s * B^T B off the diagonal, or None

    def with_data(self, data, incidence_scale=None):
        """The matrix with this pattern and the values `data`, one per
        stored entry, and the `incidence_scale` its builder records; it
        shares the pattern's arrays and `plans`."""
        if data.shape != self.data.shape:
            raise ValidationError("values of shape %s for a pattern of %d entries"
                                  % (data.shape, self.data.size))
        twin = copy.copy(self)
        twin.data = _read_only(data)
        twin.incidence_scale = incidence_scale
        return twin

    def entries(self, cols):
        """Row ids, positions in `cols` and values of the stored entries of
        the columns `cols`."""
        rows, k, at = self.positions(cols)
        return rows, k, self.data[at]

    def block(self, rows, cols):
        """The dense block [rows, cols] for distinct ids `rows` and `cols`."""
        at = np.full(self.shape[0], -1)
        at[rows] = np.arange(len(rows))
        row, k, values = self.entries(np.asarray(cols, dtype=np.intp))
        inside = at[row] >= 0
        block = np.zeros((len(rows), len(cols)))
        block[at[row[inside]], k[inside]] = values[inside]
        return block

    def toarray(self):
        """The dense matrix."""
        ids = np.arange(self.shape[0])
        return self.block(ids, ids)


class Csc(_Stored):
    """Canonical CSC arrays of a square matrix: the row `indices` of each
    column of `indptr` sorted, with no duplicates, int32 while they fit.
    All three arrays are read-only.  `BlockCholesky` reads them directly.
    """

    def __init__(self, indptr, indices, data):
        self.indptr, self.indices, self.data = map(_read_only, (indptr, indices, data))
        self.shape = (indptr.size - 1,) * 2
        self.plans = {}

    @classmethod
    def from_keys(cls, key, n, data):
        """The arrays of the n x n matrix with `data` at the sorted, distinct
        column-major keys col * n + row."""
        col = key // n
        index = np.int32 if max(key.size, n) <= np.iinfo(np.int32).max else np.int64
        indptr = np.zeros(n + 1, dtype=index)
        np.cumsum(np.bincount(col, minlength=n), out=indptr[1:])
        return cls(indptr, (key - col * n).astype(index), data)

    @classmethod
    def from_dense(cls, mat):
        """The arrays of the nonzero entries of a dense square `mat`."""
        cols, rows = np.nonzero(mat.T)  # column-major, rows sorted in each column
        return cls.from_keys(cols * mat.shape[0] + rows, mat.shape[0], mat[rows, cols])

    def columns(self):
        """The column of each stored entry."""
        return np.repeat(np.arange(self.shape[1], dtype=self.indices.dtype), np.diff(self.indptr))

    def positions(self, cols):
        """Row ids, positions in `cols` and positions in `indices` and
        `data` of the stored entries of the columns `cols`, column by
        column."""
        starts = self.indptr[cols]
        at, k = _runs(starts, self.indptr[cols + 1] - starts)
        return self.indices[at], k, at


class CellStencil(_Stored):
    """A symmetric matrix on an even rows x cols torus of sites (id r * cols
    + c) that is invariant under the translations (a, b) with a + b even,
    held as the entries of the columns of its two cell sites (0, 0) and (0,
    1); every other column holds those of the cell site of its parity p =
    (r + c) mod 2, translated.  An entry is the key 9 * p + 3 * (dr + 1) +
    dc + 1 of that parity and of the step (dr, dc) in {-1, 0, 1}^2 from its
    column's site to its row's (`steps`).  `key` is sorted and distinct,
    with one value per key in `data`.  On tori >= 4 wide no two entries of
    a column land on one site.  The same translations let the U^-1 columns
    of the two cell sites serve every column (`_gather`).
    """

    def __init__(self, torus, key, data):
        self.torus = torus
        self.shape = (torus[0] * torus[1],) * 2
        self.data = _read_only(data)
        self.plans = {}
        parity, step = np.divmod(key, 9)
        dr, dc = np.divmod(step, 3)  # the step + 1
        count = np.bincount(parity, minlength=2)
        self._key, self._dr, self._dc, self._count, self._start = map(
            _read_only, (key, dr - 1, dc - 1, count, np.cumsum(count) - count))
        # phases[D + 1, k] = e^{-ikD} for D = -1, 0, 1 at the momenta that
        # `_cell_columns` solves; fftfreq holds -k as the exact negation of k,
        # so the phases at -k are the conjugates of those at k
        phases = [np.exp(-2j * np.pi * k) for k in (np.fft.fftfreq(torus[0]),
                                                     np.fft.rfftfreq(torus[1]))]
        self._phases = tuple(_read_only(np.stack([phase.conj(), np.ones_like(phase), phase]))
                             for phase in phases)

    def positions(self, cols):
        """Row ids, positions in `cols` and positions in `data` of the
        stored entries of the columns `cols`, column by column."""
        n_rows, n_cols = self.torus
        r, c = np.divmod(cols, n_cols)
        parity = (r + c) % 2
        at, k = _runs(self._start[parity], self._count[parity])
        rows = (r[k] + self._dr[at]) % n_rows * n_cols + (c[k] + self._dc[at]) % n_cols
        return rows, k, at

    def steps(self):
        """v[p, dr + 1, dc + 1] = U[site + (dr, dc), site] for a site of
        parity p, as a (2, 3, 3) array."""
        steps = np.zeros(18)
        steps[self._key] = self.data
        return steps.reshape(2, 3, 3)


def _runs(starts, counts):
    """The positions of runs of `counts` consecutive entries from `starts`,
    concatenated, and the run of each."""
    # the t-th position, entry e of run k, is starts[k] + e, and
    # t = e + (the entries of the runs before k)
    at = np.arange(counts.sum()) + np.repeat(starts - np.cumsum(counts) + counts, counts)
    return at, np.repeat(np.arange(counts.size), counts)


def symplectic_form(n_modes):
    """Return the 2N x 2N symplectic form for the (q..q, p..p) ordering."""
    eye = np.eye(n_modes)
    zero = np.zeros((n_modes, n_modes))
    return np.block([[zero, eye], [-eye, zero]])


class GaussGraph:
    """Graph representation Z = V + iU of an N-mode Gaussian pure state.

    Parameters
    ----------
    v_part : (N, N) array_like
        Real symmetric part of Z.  May be None for V = 0.
    u_part : (N, N) array_like
        Imaginary part of Z; must be symmetric positive definite.

    A graph may hold U as its stored entries (`_u_sparse`): CSC arrays
    (`Csc`: the planar analytic surface code and the measurement pipeline
    off odd tori) or, on an even torus, its stencil on the two sites of its
    cell (`CellStencil`); `u_part` and a zero `v_part` are then built on first
    read.
    """

    _cond = 1.0  # cond(U), or an upper bound on it; 1 for a graph of no modes
    # (rows, cols) of an even torus whose U is held as its `CellStencil`
    _torus = property(lambda self: None if self._u_sparse is None else self._u_sparse.torus)

    def __init__(self, v_part, u_part):
        u = np.atleast_2d(np.asarray(u_part, dtype=float))
        v = None if v_part is None else np.atleast_2d(np.asarray(v_part, dtype=float))
        if u.ndim != 2 or u.shape[0] != u.shape[1] or (v is not None and v.shape != u.shape):
            raise ValidationError("v_part and u_part must be square matrices of equal shape")
        self.n_modes = u.shape[0]
        self._u_sparse = None
        if u.size:
            v = None if v is None else _symmetrized(v, "v_part")
            u = _symmetrized(u, "u_part")
            w = np.linalg.eigvalsh(u)
            self._check_extremes(w[0], w[-1])
        self._u = _read_only(u)
        self._v = None if v is None else _read_only(v)

    @classmethod
    def _with_extremes(cls, u_sparse, lam_min, lam_max):
        """V = 0 graph of the stored entries `u_sparse` (`Csc` or
        `CellStencil`) of a U that its builder constructs finite and
        symmetric, with a spectrum it knows to lie in [lam_min, lam_max]
        (`_cond` is then an upper bound on cond(U)): only positive
        definiteness and cond(U) are checked, from those extremes."""
        graph = cls.__new__(cls)
        graph.n_modes = u_sparse.shape[0]
        graph._u_sparse = u_sparse
        graph._u = graph._v = None
        if graph.n_modes:
            graph._check_extremes(lam_min, lam_max)
        return graph

    def _check_extremes(self, lam_min, lam_max):
        """Positive definiteness and the 2-norm cond(U) from U's extreme
        eigenvalues."""
        if lam_min <= 0:
            # within rounding of singular: a numerical failure
            if -lam_min < self.n_modes * np.finfo(float).eps * lam_max:
                raise IllConditionedGraphError("u_part lost positive definiteness to rounding")
            raise ValidationError("u_part must be positive definite")
        self._cond = lam_max / lam_min  # read by covariance_from_graph

    @property
    def u_part(self):
        """Imaginary part U (dense, read-only)."""
        if self._u is None:
            self._u = _read_only(self._u_sparse.toarray())
        return self._u

    @property
    def v_part(self):
        """Real part V (dense, read-only)."""
        if self._v is None:
            self._v = _read_only(np.zeros((self.n_modes, self.n_modes)))
        return self._v

    @property
    def z_matrix(self):
        """Complex symmetric Z = V + iU."""
        return self.v_part + 1j * self.u_part

    def is_v_zero(self):
        return self._v is None or not self._v.any()

    def to_json(self):
        """Serialize to the JSON state record (dense row-major arrays)."""
        record = {
            "version": SERIALIZATION_VERSION,
            "n_modes": int(self.n_modes),
            "ordering": "qqpp",
            "kappa": 1.0,
            "v": None if self.is_v_zero() else self.v_part.ravel().tolist(),
            "u": self.u_part.ravel().tolist(),
        }
        return json.dumps(record)

    @classmethod
    def from_json(cls, text):
        """Load a `to_json` record.  Text that is not a JSON object, another
        version or ordering, a missing or non-integer n_modes, and u and v
        entries that do not match n_modes raise ValidationError."""
        try:
            record = json.loads(text)
        except ValueError as exc:
            raise ValidationError("state record is not JSON: %s" % exc) from exc
        if not isinstance(record, dict):
            raise ValidationError("state record must be a JSON object")
        if record.get("version") != SERIALIZATION_VERSION:
            raise ValidationError("unsupported state record version %r" % record.get("version"))
        n = record.get("n_modes")
        if not isinstance(n, int) or isinstance(n, bool) or n < 0:
            raise ValidationError("n_modes must be a non-negative integer, not %r" % (n,))
        if record.get("ordering", "qqpp") != "qqpp":
            raise ValidationError("unsupported quadrature ordering %r" % record.get("ordering"))
        if "u" not in record:
            raise ValidationError("state record has no u entries")
        v = record.get("v")
        try:
            u = np.asarray(record["u"], dtype=float).reshape(n, n)
            if v is not None:
                v = np.asarray(v, dtype=float).reshape(n, n)
        except (TypeError, ValueError) as exc:
            raise ValidationError("u and v need n_modes^2 = %d entries" % (n * n)) from exc
        return cls(v, u)

    def __eq__(self, other):
        if not isinstance(other, GaussGraph):
            return NotImplemented
        return (self.n_modes == other.n_modes
                and np.array_equal(self.v_part, other.v_part)
                and np.array_equal(self.u_part, other.u_part))


class CovMatrix:
    """Second-moment matrix Gamma in the (q..q, p..p) ordering.

    Parameters
    ----------
    gamma : (2N, 2N) array_like
        Real symmetric covariance matrix.
    kappa : float, optional
        Thermal scale, 1 for pure states.

    `covariance_from_graph` marks its result as a kappa-scaled pure state
    and `thermal_scale` keeps the mark; a hand-built CovMatrix is unmarked.
    A marked V = 0 state is U-native: it holds U's stored entries (`Csc`
    or `CellStencil`), kappa and, instead of gamma, what serves U^-1
    (`_u_inv`): on an even torus the U^-1 columns of the two sites of the
    cell of U's `CellStencil`, which also gives the torus, and one factor
    elsewhere (`PNodeFactor` or `BlockCholesky`, `covariance_from_graph`).
    It builds `gamma`, `q_block` and `p_block` on first read and keeps
    them, and memoises the pure-state spectra of its regions.
    """

    _scaled_pure = False
    _u = None  # stored entries of U of a U-native state; None when gamma is dense
    _cell = None  # N x 2 U^-1 columns of the sites (0, 0) and (0, 1) on an even torus
    block_diagonal = property(lambda self: self._block_diagonal,
                              doc="q-p cross block below 1e-12 max(1, max|gamma|), set once")

    def __init__(self, gamma, kappa=1.0):
        g = np.atleast_2d(np.asarray(gamma, dtype=float))
        if g.ndim != 2 or g.shape[0] != g.shape[1] or g.shape[0] % 2 != 0:
            raise ValidationError("gamma must be a square 2N x 2N matrix")
        self.kappa = _check_kappa(kappa)
        with np.errstate(invalid="ignore"):  # inf - inf; a non-finite gamma fails below
            asymmetry = np.abs(g - g.T).max(initial=0.0)
        if asymmetry > 1e-10 * max(1.0, np.abs(g).max(initial=0.0)):
            raise ValidationError("gamma is not symmetric")
        self._gamma = _read_only(0.5 * (g + g.T))
        self.n_modes = g.shape[0] // 2
        # max |gamma| = max(hi, -lo) without a copy; initial=0 covers N = 0
        hi, lo = self._gamma.max(initial=0.0), self._gamma.min(initial=0.0)
        if not (np.isfinite(hi) and np.isfinite(lo)):
            raise ValidationError("gamma must be finite")
        self._block_diagonal = bool(
            np.abs(self.qp_block).max(initial=0.0) <= 1e-12 * max(1.0, hi, -lo))

    @classmethod
    def _u_native(cls, u, factor=None, cell=None):
        """Marked U-native pure state of the graph V = 0, U (stored entries
        `u`), served by its `factor` (`PNodeFactor` or `BlockCholesky`) or,
        on an even torus, by its `cell` columns."""
        cov = cls.__new__(cls)
        cov.kappa = 1.0
        cov.n_modes = u.shape[0]
        cov._scaled_pure = cov._block_diagonal = True
        cov._u, cov._factor, cov._cell, cov._memo = u, factor, cell, {}
        cov._gamma = cov._q = cov._p = None
        return cov

    def _u_inv(self, rows, cols, gather=None):
        """U^-1[rows, cols] of a U-native state (`rows` may be a slice).

        On an even torus it is a gather from the cell columns (`_gather`,
        or the planned `gather` of these rows and columns).  Otherwise it is
        one solve with the factor for the smaller of `rows` and `cols`, as
        U^-1[rows, cols] = U^-1[cols, rows]^T.
        """
        cols = np.asarray(cols, dtype=int)
        if self._cell is None:
            row_ids = np.arange(self.n_modes)[rows]
            by_rows = row_ids.size < cols.size
            ids, wanted = (row_ids, cols) if by_rows else (cols, row_ids)
            rhs = np.zeros((self.n_modes, ids.size))
            rhs[ids, np.arange(ids.size)] = 1.0
            solved = self._factor.solve(rhs, wanted)
            return solved.T if by_rows else solved
        gather = _gather(self._u.torus, rows, cols) if gather is None else gather
        return np.take(self._cell, gather)

    @property
    def gamma(self):
        """The dense 2N x 2N covariance (read-only)."""
        if self._gamma is None:
            n = self.n_modes
            g = np.zeros((2 * n, 2 * n))
            g[:n, :n] = self.q_block
            g[n:, n:] = self.p_block
            self._gamma = _read_only(g)
        return self._gamma

    @property
    def q_block(self):
        n = self.n_modes
        if self._u is None:
            return self.gamma[:n, :n]
        if self._q is None:
            u_inv = self._u_inv(slice(None), np.arange(n))
            self._q = _read_only(0.5 * self.kappa * (0.5 * (u_inv + u_inv.T)))
        return self._q

    @property
    def p_block(self):
        n = self.n_modes
        if self._u is None:
            return self.gamma[n:, n:]
        if self._p is None:
            self._p = _read_only(0.5 * self.kappa * self._u.toarray())
        return self._p

    @property
    def qp_block(self):
        n = self.n_modes
        return self.gamma[:n, n:]

    def q_columns(self, cols):
        """Columns `cols` of the q block; a U-native state reads them from
        `_u_inv` and builds no block."""
        if self._u is None:
            return self.q_block[:, cols]
        # numpy's index rules, which the torus gather would wrap modulo N
        return 0.5 * self.kappa * self._u_inv(slice(None), np.arange(self.n_modes)[cols])

    def p_entry(self, i, j):
        """Entry (i, j) of the p block; a U-native state reads kappa/2 U[i, j]
        from the stored entries of column j of U and builds no block."""
        if self._u is None:
            return self.p_block[i, j]
        modes = range(self.n_modes)  # numpy's index rules: negatives wrap, others raise
        rows, _, values = self._u.entries(np.array([modes[j]]))
        return 0.5 * self.kappa * values[rows == modes[i]].sum()

    def gamma_block(self, ids):
        """gamma[ids, ids] for distinct `ids` over the (q.., p..) ordering.  A
        U-native state reads its q part from `_u_inv`, symmetrized and scaled
        as `q_block` is, and its p part from the stored entries of U, and
        builds no N x N block."""
        ids = np.asarray(ids, dtype=int)
        if self._u is None:
            return self.gamma[np.ix_(ids, ids)]
        n = self.n_modes
        q = ids < n
        block = np.zeros((ids.size, ids.size))
        u_inv = self._u_inv(ids[q], ids[q])
        block[np.ix_(q, q)] = 0.5 * self.kappa * (0.5 * (u_inv + u_inv.T))
        p = ids[~q] - n
        block[np.ix_(~q, ~q)] = 0.5 * self.kappa * self._u.block(p, p)
        return block


class SymplecticSpectrum:
    """Sorted positive symplectic eigenvalues of a reduced state.

    Parameters
    ----------
    values : array_like
        Positive symplectic eigenvalues; sorted descending on construction.
    """

    tol_half = 1e-9  # classification tolerance around sigma = 1/2
    # |dS| and |d'S| of a U-native pure-state spectrum and, where U records
    # its p-node incidence, |P|; the eigensolve has size min(|P|, |dS|, |d'S|)
    boundary = rim = p_nodes = None

    def __init__(self, values):
        vals = np.sort(np.asarray(values, dtype=float))[::-1]
        # validation scales with the spectral norm: eigensolver undershoot of
        # sigma = 1/2 grows with the covariance norm for strongly squeezed states
        scale = max(1.0, float(vals[0])) if vals.size else 1.0
        if vals.size and vals.min() < 0.5 - self.tol_half * scale:
            raise ValidationError("symplectic eigenvalue below 1/2 - tol_half")
        self.values = np.maximum(vals, 0.5)
        self.values.setflags(write=False)

    def __len__(self):
        return self.values.size

    @property
    def n_above(self):
        """Count of sigma > 1/2 + tol_half."""
        return int(np.count_nonzero(self.values > 0.5 + self.tol_half))

    @property
    def n_half(self):
        """Count of |sigma - 1/2| <= tol_half."""
        return len(self) - self.n_above

    def scaled(self, kappa):
        """Spectrum of the kappa-scaled state (sigma -> kappa * sigma); values
        within tol_half of 1/2 map to exactly kappa/2."""
        vals = np.where(self.values <= 0.5 + self.tol_half, 0.5, self.values)
        return SymplecticSpectrum(kappa * vals)


def _gather(torus, rows, cols):
    """Positions in the flattened N x 2 cell columns of an even `torus`
    (`_cell_columns`) of the entries U^-1[rows, cols] (`rows` may be a
    slice): the translation (r_j, c_j - p) with p = (r_j + c_j) mod 2 keeps
    U and takes site (0, p) to site j, so U^-1[i, j] is entry
    i - (r_j, c_j - p) of the column of (0, p)."""
    n_rows, n_cols = torus
    r_i, c_i = np.divmod(np.arange(n_rows * n_cols)[rows], n_cols)
    r_j, c_j = np.divmod(cols, n_cols)
    parity = (r_j + c_j) % 2
    at = (r_i[:, None] - r_j) % n_rows * n_cols + (c_i[:, None] - c_j + parity) % n_cols
    return 2 * at + parity


def _cell_columns(u):
    """U^-1 columns of the sites (0, 0) and (0, 1) of the even rows x cols
    torus of the `CellStencil` u, as an N x 2 array.

    With the steps v_p of parity p (`CellStencil.steps`), a = (v_0 + v_1) / 2
    and b = (v_0 - v_1) / 2, U is the convolution by a plus that by b after
    a product with (-1)^(r + c), which shifts momentum by Q = (pi, pi):
    (Uf)(k) = a(k) f(k) + b(k) f(k + Q).  So U couples only the pairs k,
    k + Q, and each is solved in closed form, x(k) = (a(k + Q) d(k) - b(k)
    d(k + Q)) / det(k) with det(k) = a(k) a(k + Q) - b(k) b(k + Q), for the
    source d = 1 of site (0, 0) and d(k) = -d(k + Q) = e^{-ik_y} of site
    (0, 1).  a(k + Q) and b(k + Q) are the symbols of (-1)^(dr + dc) a and
    (-1)^(dr + dc) b.  U is real, so only the momenta with k_y in [0, pi]
    are solved, and `irfft2` gives the columns.  det(k), the determinant of
    U on the plane waves k and k + Q, is positive for a positive definite U;
    an exact 0 raises IllConditionedGraphError.
    """
    rows, cols = u.torus
    phases = u._phases
    v = u.steps()
    a, b = 0.5 * (v[0] + v[1]), 0.5 * (v[0] - v[1])
    shift = (-1.0) ** np.add.outer(range(3), range(3))  # (-1)^(dr + dc)
    # the symbol of w at (kx, ky): sum_{dr, dc} e^{-i kx dr} w[dr, dc] e^{-i ky dc}
    a_k, b_k, a_q, b_q = (phases[0].T @ w @ phases[1] for w in (a, b, shift * a, shift * b))
    det = a_k * a_q - b_k * b_q
    if not det.all():
        raise IllConditionedGraphError("U is singular on a pair of momenta k, k + Q")
    # the two sources on a trailing axis, so the columns need no transpose
    half = np.empty(det.shape + (2,), dtype=complex)
    np.subtract(a_q, b_k, out=half[..., 0])
    np.add(a_q, b_k, out=half[..., 1])
    half[..., 1] *= phases[1][2]
    half /= det[..., None]
    del a_k, b_k, a_q, b_q, det  # freed before the inverse FFT
    return np.fft.irfft2(half, s=(rows, cols), axes=(0, 1)).reshape(rows * cols, 2)


def _level_sets(u):
    """Breadth-first level sets of the pattern of the symmetric `Csc` arrays
    `u`, restarted from the lowest unvisited mode of each connected
    component."""
    seen = np.zeros(u.shape[0], dtype=bool)
    levels = []
    for start in range(u.shape[0]):
        if seen[start]:
            continue
        frontier = np.array([start])
        seen[start] = True
        while frontier.size:
            levels.append(frontier)
            reached = _sorted_distinct(u.positions(frontier)[0])
            frontier = reached[~seen[reached]]
            seen[frontier] = True
    return levels


def _block_order(u):
    """(perm, sizes): an order of the modes of the symmetric `Csc` arrays `u`
    whose consecutive blocks of `sizes` modes make U block tridiagonal.

    Natural order cut every `bandwidth` modes (cols + 1 on a planar grid)
    or breadth-first level sets (19 levels of at most 136 modes on a 36 x 36
    torus read back from JSON, whose bandwidth is N - 1): the level sets
    when their sum of cubed block sizes, the cost of the factor, is strictly
    the smaller, and natural order on a tie.  Both are read from the
    sparsity pattern alone, once per pattern (`_block_plan`).
    """
    n = u.shape[0]
    width = max(int(np.abs(u.indices - u.columns()).max(initial=0)), 1)
    sizes = [width] * (n // width) + ([n % width] if n % width else [])
    levels = _level_sets(u)
    if sum(level.size ** 3 for level in levels) < sum(size ** 3 for size in sizes):
        return np.concatenate(levels), np.array([level.size for level in levels])
    return np.arange(n), np.array(sizes, dtype=int)


def _block_plan(u):
    """What `BlockCholesky` reads from the pattern of the `Csc` arrays `u`
    alone, memoised in `u.plans`: the block order (`_block_order`), each
    mode's place in it, the block bounds and sizes, the offsets of the
    diagonal and the sub-diagonal blocks, each row-major, in one flat buffer
    of the returned size, and for the stored entries on or below the
    diagonal blocks (the rest are their transposes) their positions in
    `u.data` and in that buffer."""
    if "blocks" not in u.plans:
        perm, sizes = _block_order(u)
        n, n_blocks = u.shape[0], sizes.size
        bounds = np.zeros(n_blocks + 1, dtype=int)
        np.cumsum(sizes, out=bounds[1:])
        square = sizes * sizes
        below = np.append(sizes[1:] * sizes[:-1], 0)
        diag_at = np.cumsum(square) - square
        sub_at = square.sum() + np.cumsum(below) - below
        block = np.repeat(np.arange(n_blocks), sizes)
        position = np.empty(n, dtype=int)
        position[perm] = np.arange(n)
        i, j = position[u.indices], position[u.columns()]
        bi, bj = block[i], block[j]
        li, lj = i - bounds[bi], j - bounds[bj]
        stored = np.flatnonzero(bi >= bj)
        at = np.where(bi == bj, diag_at[bi] + li * sizes[bi], sub_at[bj] + li * sizes[bj]) + lj
        u.plans["blocks"] = (perm, position, bounds, sizes.tolist(), diag_at.tolist(),
                             sub_at.tolist(), stored, at[stored], int(square.sum() + below.sum()))
    return u.plans["blocks"]


class BlockCholesky:
    """Cholesky factor U = L L^T of a symmetric positive definite U, held as
    `Csc` arrays, in the block-tridiagonal order of `_block_order`.

    With U's diagonal blocks A_k and sub-diagonal blocks C_k = U[block k +
    1, block k], L has diagonal blocks L_k = chol(A_k - L_{k,k-1}
    L_{k,k-1}^T) and sub-diagonal blocks L_{k+1,k} = C_k L_k^-T.  It keeps
    L_k^-1, from one solve with each L_k, which gives L_{k+1,k} by a product
    and serves the sweeps of `solve` as products too (numpy has no
    triangular solve, and its LU solve with L_k costs several times the
    product).  No Schur complement is inverted, and cond(L_k) is at most
    cond(U)^(1/2).  The cost is O(N b^2) for blocks of b modes.  A block
    that is not numerically positive definite raises
    IllConditionedGraphError.
    """

    def __init__(self, u):
        perm, position, bounds, sizes, diag_at, sub_at, stored, at, length = _block_plan(u)
        n_blocks = len(sizes)
        flat = np.zeros(length)
        flat[at] = u.data[stored]

        self._perm, self._position, self._bounds = perm, position, bounds
        self._inv, self._sub = [], []  # L_k^-1 and L_{k+1,k}
        try:
            for k, size in enumerate(sizes):
                a = flat[diag_at[k]:diag_at[k] + size * size].reshape(size, size)
                if k:
                    a = a - self._sub[-1] @ self._sub[-1].T
                self._inv.append(np.linalg.inv(np.linalg.cholesky(a)))
                if k + 1 < n_blocks:
                    c = flat[sub_at[k]:sub_at[k] + sizes[k + 1] * size].reshape(-1, size)
                    self._sub.append(c @ self._inv[-1].T)
        except np.linalg.LinAlgError:
            raise IllConditionedGraphError("block Cholesky factorization of U failed") from None

    def solve(self, rhs, rows=None):
        """U^-1 rhs for an (N, k) array `rhs`, or its rows `rows` only: a
        forward sweep with L and a backward sweep with L^T over the blocks.
        The forward sweep starts at the first block that holds a nonzero row
        of `rhs`, as the blocks before it stay 0, and the backward sweep
        stops at the first block that holds a row of `rows`."""
        x = rhs[self._perm]
        bounds = self._bounds
        blocks = [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]
        nonzero = np.flatnonzero(x.any(axis=1))
        first = np.searchsorted(bounds, nonzero.min(initial=bounds[-1]), "right") - 1
        for k in range(first, len(blocks)):
            if k > first:
                x[blocks[k]] -= self._sub[k - 1] @ x[blocks[k - 1]]
            x[blocks[k]] = self._inv[k] @ x[blocks[k]]
        at = self._position if rows is None else self._position[rows]
        last = np.searchsorted(bounds, at.min(initial=bounds[-1]), "right") - 1
        for k in range(len(blocks) - 1, last - 1, -1):
            if k + 1 < len(blocks):
                x[blocks[k]] -= self._sub[k].T @ x[blocks[k + 1]]
            x[blocks[k]] = self._inv[k].T @ x[blocks[k]]
        return x[at]


def _p_node_plan(u):
    """What `PNodeFactor` reads from the pattern of the `Csc` arrays `u`
    alone, memoised in `u.plans["p_nodes"]`, for a pattern that records its
    p-node `incidence` B (two p-nodes per mode) and stores every diagonal
    entry: the positions of U's diagonal in `u.data`, the two p-nodes of
    each mode (the p-nodes numbered in the order of their incidence ids),
    the `Csc` pattern of K^-1, whose `plans` keep the block order of its
    `BlockCholesky`, the positions in its data of the entries (a, a), (b,
    b), (b, a) and (a, b) of the p-nodes a, b of each mode, in turn, and of
    its diagonal.  None when the p-nodes are at least as many as the modes
    (a planar grid 1 wide, or 2 x 2, 2 x 3 or 2 x 4): the system is then no
    smaller, and with more p-nodes than modes B B^T is singular, so K^-1
    has the least eigenvalue 1/c while U may be far better conditioned,
    and the identity would lose digits that the factor of U keeps."""
    if "p_nodes" not in u.plans:
        n = u.shape[0]
        ids = u.incidence(np.arange(n))
        p_ids = _sorted_distinct(ids.ravel())
        m = p_ids.size
        plan = None
        if m < n:
            ends = np.searchsorted(p_ids, ids)
            a, b = ends.T
            keys = np.concatenate([a * (m + 1), b * (m + 1), a * m + b, b * m + a])
            diagonal = np.arange(m) * (m + 1)
            key = _sorted_distinct(np.concatenate([keys, diagonal]))
            plan = tuple(map(_read_only, (
                np.flatnonzero(u.indices == u.columns()), ends,
                np.searchsorted(key, keys), np.searchsorted(key, diagonal)))) + (
                Csc.from_keys(key, m, np.zeros(key.size)),)
        u.plans["p_nodes"] = plan
    return u.plans["p_nodes"]


class PNodeFactor:
    """U^-1 of U = D + c B^T B, D diagonal, for the `Csc` arrays of a U
    that record the p-node incidence B of their modes and the scale c
    (`incidence_scale`), served through the p-node system of its
    `_p_node_plan`.

    Every mode lies in two p-nodes, so D = diag(U) - 2c.  By the
    Sherman-Morrison-Woodbury identity U^-1 = D^-1 - D^-1 B^T K B D^-1 with
    K^-1 = c^-1 I + B D^-1 B^T, a matrix of the p-nodes: entry (p, q) off
    its diagonal is 1 / D_i of the one mode i in both.  K^-1 is held as one
    `BlockCholesky` factor, which raises IllConditionedGraphError if it
    fails, as that of U does.  D is positive: the closed form's builder
    refuses U unless its least eigenvalue bound diag(U) - 2c, the same
    difference, is.
    """

    def __init__(self, u, plan):
        on_diagonal, self._ends, at, diagonal, pattern = plan
        scale = u.incidence_scale
        self._d_inv = 1.0 / (u.data[on_diagonal] - 2.0 * scale)
        values = np.bincount(at, np.tile(self._d_inv, 4), pattern.data.size)
        values[diagonal] += 1.0 / scale
        self._size = pattern.shape[0]
        self._k = BlockCholesky(pattern.with_data(values))

    def solve(self, rhs, rows=None):
        """U^-1 rhs for an (N, k) array `rhs`, or its rows `rows` only.  B
        D^-1 rhs adds each nonzero entry of rhs, over D of its row's mode,
        into the rows of that mode's two p-nodes, and K is read only at the
        p-nodes of the rows wanted, so `BlockCholesky.solve` trims its
        sweeps as with U."""
        width = rhs.shape[1]
        at = np.flatnonzero(rhs != 0)  # as a mask: faster than nonzero on floats
        mode, col = np.divmod(at, width)
        weights = np.repeat(rhs.ravel()[at] * self._d_inv[mode], 2)
        summed = np.bincount((self._ends[mode] * width + col[:, None]).ravel(), weights,
                             self._size * width).astype(float, copy=False)  # int when empty
        summed = summed.reshape(self._size, width)
        rows = slice(None) if rows is None else rows
        ends = self._ends[rows]
        out, other = self._k.solve(summed, ends.T.ravel()).reshape(2, ends.shape[0], width)
        out += other
        np.subtract(rhs[rows], out, out=out)
        out *= self._d_inv[rows, None]
        return out


def covariance_from_graph(graph, cond_threshold=1e12):
    """Covariance matrix Gamma = 1/2 [[U^-1, U^-1 V], [V U^-1, U + V U^-1 V]].

    Parameters
    ----------
    graph : GaussGraph
    cond_threshold : float, optional
        Maximum allowed 2-norm condition number of U, taken from the extreme
        eigenvalues of GaussGraph's positive-definiteness check (an upper
        bound on planar analytic and on pipeline graphs).

    Returns
    -------
    CovMatrix
        Pure-state covariance (kappa = 1), marked as such.  For V = 0 it is
        U-native and holds no dense gamma: on an even torus recorded by the
        graph's builder it keeps the two cell columns of U^-1
        (`_cell_columns`).  Otherwise it keeps one factor: a `PNodeFactor`
        where U records its p-node incidence and scale and has more modes
        than p-nodes (`_p_node_plan`), as the planar closed form does, and a
        `BlockCholesky` factor of U elsewhere.
    """
    if graph._cond > cond_threshold:
        raise IllConditionedGraphError("condition number of U exceeds %g" % cond_threshold)
    if graph._torus is not None:
        u = graph._u_sparse
        return CovMatrix._u_native(u, cell=_cell_columns(u))
    if graph.is_v_zero():
        u = graph._u_sparse
        if u is None:
            u = Csc.from_dense(graph.u_part)
        plan = (None if u.incidence is None or u.incidence_scale is None
                else _p_node_plan(u))
        factor = BlockCholesky(u) if plan is None else PNodeFactor(u, plan)
        return CovMatrix._u_native(u, factor=factor)
    u = graph.u_part
    u_inv = np.linalg.inv(u)
    u_inv = 0.5 * (u_inv + u_inv.T)
    v = graph.v_part
    uv = u_inv @ v
    cov = CovMatrix(0.5 * np.block([[u_inv, uv], [uv.T, u + v @ uv]]))
    cov._scaled_pure = True
    return cov


def _factor_spectra(cov, regions):
    """Pure-state spectra of `regions` of a U-native state, memoised by each
    region's own tuple of mode ids.

    For a region S with complement L, (U^-1)_SS U_SS = I - (U^-1)_SL U_LS,
    and U_LS is zero outside the rows dS and the columns d'S of the cut
    (`_cut`).  So (U^-1)_SL U_LS is block lower-triangular, and its
    nonzero eigenvalues lambda are those of the smallest product of
    `_cut_product`: sigma = 1/2 sqrt(max(1, 1 - lambda)), with the rest of
    the distinct modes of S padded with exact 1/2 entries.  The regions not
    yet known form one batch, planned and checked on U's pattern the first
    time (`_batch_plan`); they take their cuts from that plan and share one
    block of U^-1 (`CovMatrix._u_inv`), the union of their rims by the
    union of their edges.  A key is kept only after its batch was planned,
    so a hit needs no check but that for bools (`_refuse_bools`).
    """
    memo = cov._memo
    keys = [tuple(region) for region in regions]
    _refuse_bools(keys)
    new = [key for key in dict.fromkeys(keys) if key not in memo]
    if new:
        u = cov._u
        rows, cols, gather, pairs, modes, p_cuts, cuts = _batch_plan(u, tuple(new))
        if p_cuts is None or u.incidence_scale is None:
            p_cuts = [None] * len(new)
        u_inv = cov._u_inv(rows, cols, gather)
        for key, pair, count, cut, p_cut in zip(new, pairs, modes, cuts, p_cuts):
            cross = _cut_product(u, u_inv[pair], cut, p_cut)
            sigma = 0.5 * np.sqrt(np.clip(1.0 - np.linalg.eigvals(cross).real, 1.0, None))
            memo[key] = SymplecticSpectrum(
                np.concatenate([sigma, np.full(count - sigma.size, 0.5)]))
            memo[key].boundary, memo[key].rim = cut[0].size, cut[1].size
            if p_cut is not None:
                memo[key].p_nodes = p_cut[0]
    return [memo[key] for key in keys]


def _cut_product(u, block, cut, p_cut):
    """The smallest square product whose nonzero eigenvalues are those of
    U^-1[d'S, dS] U[dS, d'S], for the block U^-1[d'S, dS] of a region of a
    batch plan (`_batch_plan`), its planned `cut` and, where U records its
    incidence B with the scale s (U = s B^T B off the diagonal), its
    straddling p-nodes `p_cut`, else None.

    U[dS, d'S] is that reverse product (`_coupling`) or, where U records
    B, s B[P, dS]^T B[P, d'S] with P the p-nodes with a mode in d'S and one
    in dS (any other p-node has no mode on one side), so the nonzero
    eigenvalues are also those of s B[P, d'S] U^-1[d'S, dS] B[P, dS]^T: of
    size |P| against min(|dS|, |d'S|).  A single mode has |P| = 2 and
    |d'S| = 1, so the size decides."""
    edge, rim = cut[0].size, cut[1].size
    if p_cut is not None and p_cut[0] < min(edge, rim):
        _, to_rim, to_edge = p_cut
        return u.incidence_scale * (to_rim @ block @ to_edge.T)
    coupling = _coupling(u, cut)
    return block @ coupling if rim < edge else coupling @ block


def _batch_plan(u, batch):
    """What the spectra of the regions `batch` (a tuple of mode-id tuples)
    read from U's pattern alone.  The batch is checked (`_region_ids`) when
    it is planned, and the plan is kept in `u.plans["batches"]`, which every
    `with_data` of the pattern shares, with the `_BATCH_PLANS` - 1 plans
    used last before it.  Its caller (`_factor_spectra`) refuses bool ids
    before a plan is served from there.  It holds the union of the regions'
    rims, the union of their edges, on an even torus the positions of that
    union block in the cell columns (`_gather`), and for each region, planned
    by itself, the index pair of its block in the union block, its count of
    distinct modes, its straddling p-nodes where the pattern records an
    incidence (`_straddling`; None otherwise) and its cut (`_cut`).
    """
    batches = u.plans.get("batches", {})
    if batch in batches:
        plan = batches.pop(batch)  # and put back last: the most recently used
    else:
        ids, sizes = _region_ids(batch, u.shape[0])
        regions = [_sorted_distinct(ids) for ids in np.split(ids, np.cumsum(sizes)[:-1])]
        cuts = [_cut(u, region) for region in regions]
        edges, rims = [cut[0] for cut in cuts], [cut[1] for cut in cuts]
        p_cuts = (None if u.incidence is None else
                  [_straddling(u.incidence, rim, edge) for rim, edge in zip(rims, edges)])
        # every graph of the pattern shares the plan: its arrays are read-only
        union_rows = _read_only(_sorted_distinct(np.concatenate(rims)))
        union_cols = _read_only(_sorted_distinct(np.concatenate(edges)))
        pairs = [np.ix_(_read_only(np.searchsorted(union_rows, rim)),
                        _read_only(np.searchsorted(union_cols, edge)))
                 for rim, edge in zip(rims, edges)]
        gather = None if u.torus is None else _read_only(_gather(u.torus, union_rows, union_cols))
        plan = union_rows, union_cols, gather, pairs, [r.size for r in regions], p_cuts, cuts
    batches = u.plans.setdefault("batches", {})
    if len(batches) >= _BATCH_PLANS:
        del batches[next(iter(batches))]
    batches[batch] = plan
    return plan


def _cut(u, region):
    """The cut of the sorted distinct mode ids `region` on U's pattern: its
    edge dS (the modes outside it coupled to it) and rim d'S (the modes of
    it coupled outside it), each sorted, and for the entries of U[dS, d'S]
    their flat row-major positions in that block and their positions in
    `u.data`, all read-only, from one read of the region's columns."""
    rows, k, at = u.positions(region)
    # the entries in rows that are not ids of the (sorted, non-empty) region
    out = region[np.minimum(np.searchsorted(region, rows), region.size - 1)] != rows
    rows, columns = rows[out], region[k[out]]
    edge, rim = _sorted_distinct(rows), _sorted_distinct(columns)
    flat = np.searchsorted(edge, rows) * rim.size + np.searchsorted(rim, columns)
    return tuple(map(_read_only, (edge, rim, flat, at[out])))


def _straddling(incidence, rim, edge):
    """(|P|, B[P, d'S], B[P, dS]) of a cut with the rim d'S and the edge dS:
    the count of its straddling p-nodes P, those of the `incidence` B with
    a mode in d'S and one in dS, in id order, and the 0/1 blocks of B on
    them, read-only."""
    ends = np.split(incidence(np.concatenate([rim, edge])), [rim.size])
    # the p-nodes on both sides: repeats of the sorted distinct p-nodes of
    # each side (as np.intersect1d, whose np.unique call imports numpy.ma at
    # its first use)
    both = np.sort(np.concatenate([_sorted_distinct(ids.ravel()) for ids in ends]))
    p_nodes = both[1:][both[1:] == both[:-1]]
    # B[p, i] is 1 where p is either p-node of mode i
    blocks = ((p_nodes[:, None] == ids[:, 0]) | (p_nodes[:, None] == ids[:, 1]) for ids in ends)
    return (p_nodes.size, *(_read_only(block.astype(float)) for block in blocks))


def _coupling(u, cut):
    """The dense block U[dS, d'S] of a planned `cut` (`_cut`) of the
    symmetric U of the stored entries `u` (`Csc` or `CellStencil`), filled
    from `u.data`."""
    edge, rim, flat, at = cut
    coupling = np.zeros(edge.size * rim.size)
    coupling[flat] = u.data[at]
    return coupling.reshape(edge.size, rim.size)


def _spectrum_block_diagonal(cov, region):
    """Spectrum of a dense q/p block-diagonal covariance from the
    symmetrized product of its reduced q and p blocks."""
    sel = np.ix_(region, region)
    w, vecs = np.linalg.eigh(cov.q_block[sel])
    root = (vecs * np.sqrt(np.clip(w, 0.0, None))) @ vecs.T
    lam = np.linalg.eigvalsh(root @ cov.p_block[sel] @ root)
    return np.sqrt(np.clip(lam, 0.0, None))


def _spectrum_general(gamma_red):
    """Positive eigenvalues of i Gamma^{1/2} Omega Gamma^{1/2} (Hermitian)."""
    n2 = gamma_red.shape[0]
    omega = symplectic_form(n2 // 2)
    w, vecs = np.linalg.eigh(gamma_red)
    w = np.clip(w, 0.0, None)
    root = (vecs * np.sqrt(w)) @ vecs.T
    herm = 1j * (root @ omega @ root)
    ev = np.linalg.eigvalsh(herm)
    return ev[ev > 0]


def _refuse_bools(regions):
    """ValidationError if an id of `regions` (each a sequence of ids) is a
    bool or np.bool_, which a memo keyed by tuples of ids would match to
    the ints 0 and 1."""
    kinds = set(map(type, itertools.chain.from_iterable(regions)))
    if bool in kinds or np.bool_ in kinds:
        raise ValidationError("region indices must be integers")


def _region_ids(regions, n):
    """The mode ids of `regions` (each a sequence of ids), concatenated as
    one integer array, and the size of each region: the one place regions
    are checked to be non-empty subsets of range(n).  Ids are integers or
    integer-valued floats; bools, strings and other objects are refused."""
    sizes = [len(region) for region in regions]
    if 0 in sizes:
        raise ValidationError("region must be non-empty")
    _refuse_bools(regions)
    arrays = [np.asarray(region) for region in regions]
    if any(a.dtype.kind not in "iuf" for a in arrays):
        raise ValidationError("region indices must be integers")
    ids = np.concatenate(arrays)
    if ids.dtype.kind == "f" and not (np.isfinite(ids).all() and (ids == np.trunc(ids)).all()):
        raise ValidationError("region indices must be integers")
    if ids.min() < 0 or ids.max() >= n:
        raise ValidationError("region indices out of range")
    return ids.astype(int, copy=False), sizes


def _checked_region(cov, region):
    """The sorted distinct mode ids of `region`, checked by `_region_ids` on
    its tuple of ids, as the U-native path reads a region."""
    return _sorted_distinct(_region_ids([tuple(region)], cov.n_modes)[0]).tolist()


def symplectic_spectra(cov, regions, force_general=False):
    """Symplectic spectra of the reductions of `cov` to each of `regions`.

    Parameters
    ----------
    cov : CovMatrix
    regions : iterable of iterables of int
        Mode indices to keep, one collection per region.
    force_general : bool, optional
        Skip the structured paths (used as a cross-check oracle).

    Returns
    -------
    list of SymplecticSpectrum
        A U-native state takes them from its memoised pure-state spectra,
        computed with one solve for all regions not yet known.  A dense
        q/p block-diagonal state uses its reduced blocks, any other the
        reduced gamma.
    """
    if cov._u is not None and not force_general:
        return [SymplecticSpectrum(cov.kappa * pure.values)
                for pure in _factor_spectra(cov, regions)]
    regions = [_checked_region(cov, region) for region in regions]
    n = cov.n_modes
    spectra = []
    for region in regions:
        if not force_general and cov.block_diagonal:
            sigma = _spectrum_block_diagonal(cov, region)
        else:
            idx = np.array(region + [n + i for i in region])
            sigma = _spectrum_general(cov.gamma[np.ix_(idx, idx)])
        spectra.append(SymplecticSpectrum(sigma))
    return spectra


def symplectic_spectrum(cov, region, force_general=False):
    """Symplectic spectrum of the reduction of `cov` to `region`: the
    one-region case of `symplectic_spectra`."""
    return symplectic_spectra(cov, [region], force_general)[0]


def _pure_spectra(cov, regions):
    """Spectra of `regions` of `cov` divided by `cov.kappa`: for a marked
    state, those of its pure state."""
    if cov._u is not None:
        return _factor_spectra(cov, regions)
    return [SymplecticSpectrum(spec.values / cov.kappa)
            for spec in symplectic_spectra(cov, regions)]


def von_neumann_entropy(spectrum):
    """Entropy in bits: sum (s+1/2)log2(s+1/2) - (s-1/2)log2(s-1/2).

    Each term is written as [log1p(a) + a log1p(1/a)] / ln 2 with a = s - 1/2,
    a sum of two positive terms, so it keeps full relative precision where
    the difference would cancel (all of it from sigma ~ 2^53).  Terms with
    sigma within tol_half of 1/2 contribute exactly 0.
    """
    sigma = spectrum.values
    a = sigma[sigma > 0.5 + spectrum.tol_half] - 0.5
    return float(np.sum(np.log1p(a) + a * np.log1p(1.0 / a)) / np.log(2.0))


def pure_log_negativity(spectrum, kappa):
    """Log-negativity (bits) across X|Xc of the kappa-scaled pure state whose
    region X has the pure-state `spectrum`: each sigma = cosh(2r)/2 above
    1/2 + tol_half is one two-mode squeezed pair across the cut (Botero &
    Reznik 2003) and adds max(0, 2r - ln kappa) / ln 2 (Vidal & Werner 2002).
    A pair within tol_half of 1/2 (2r < 2 sqrt(tol_half)) counts as product."""
    sigma = spectrum.values[spectrum.values > 0.5 + spectrum.tol_half]
    return float(np.sum(np.maximum(np.arccosh(2.0 * sigma) - np.log(kappa), 0.0)) / np.log(2.0))


def purity(spectrum):
    """Gaussian purity tr[rho^2] = prod (2 sigma_i)^-1."""
    return float(np.prod(1.0 / (2.0 * spectrum.values)))


def log_negativity(cov, region):
    """Log-negativity (bits) of a q/p block-diagonal state across `region`.

    A marked kappa-scaled pure state takes `pure_log_negativity` of the
    region's pure-state spectrum.  Otherwise N = -1/2 sum log2 min(1,
    lambda_i(4 Q mu P mu)) with Q and P the q and p covariance blocks and
    mu = -1 on the region, +1 on the complement.
    """
    if cov._scaled_pure and cov.block_diagonal:
        return pure_log_negativity(_pure_spectra(cov, [region])[0], cov.kappa)
    region = _checked_region(cov, region)
    if not cov.block_diagonal:
        raise UnsupportedStateError("log_negativity requires a q/p block-diagonal state")
    n = cov.n_modes
    if len(region) == n:
        return 0.0
    mu = np.ones(n)
    mu[region] = -1.0
    mpm = mu[:, None] * (2.0 * cov.p_block) * mu[None, :]
    # generalized symmetric problem (M 2Q M) x = lambda M x with M = mu 2P mu
    # = L L^T: its eigenvalues are those of 2Q M, and of L^T 2Q L
    low = np.linalg.cholesky(mpm)
    lam = np.linalg.eigvalsh(low.T @ (2.0 * cov.q_block) @ low)
    lam = lam[lam < 1.0]
    if lam.size == 0:
        return 0.0
    return float(-0.5 * np.sum(np.log2(np.clip(lam, 1e-300, 1.0))))


def _check_kappa(kappa):
    """kappa as a float; ValidationError unless 1 <= kappa < inf (NaN fails)."""
    if not 1.0 <= kappa < np.inf:
        raise ValidationError("kappa must be finite and >= 1")
    return float(kappa)


def thermal_scale(cov, kappa):
    """Scale the covariance by kappa (thermal cluster-state noise model): a copy
    of `cov` that keeps its mark and `block_diagonal`, as kappa * gamma stays
    symmetric.  A U-native copy shares its parent's factor or cell columns
    and its spectrum memo, since the pure-state spectra do not depend on
    kappa, and builds its own blocks when they are read."""
    kappa = _check_kappa(kappa)
    scaled = copy.copy(cov)
    scaled.kappa = kappa * cov.kappa
    if cov._u is None:
        scaled._gamma = _read_only(kappa * cov.gamma)
    else:
        scaled._gamma = scaled._q = scaled._p = None
    return scaled


def measure_q(graph, node):
    """Measure q on `node`: delete its row and column from V and U."""
    n = graph.n_modes
    node = int(node)
    if not 0 <= node < n:
        raise ValidationError("node %d out of range for %d modes" % (node, n))
    keep = [i for i in range(n) if i != node]
    sel = np.ix_(keep, keep)
    return GaussGraph(graph.v_part[sel], graph.u_part[sel])


def measure_p(graph, node):
    """Measure p on `node`: Schur complement Z' = Z_minor - z z^T / Z_kk."""
    n = graph.n_modes
    node = int(node)
    if not 0 <= node < n:
        raise ValidationError("node %d out of range for %d modes" % (node, n))
    z = graph.z_matrix
    zkk = z[node, node]
    if abs(zkk) < PIVOT_TOL:
        raise SingularPivotError("Z[%d,%d] is below pivot tolerance" % (node, node))
    keep = [i for i in range(n) if i != node]
    col = z[keep, node]
    z_new = z[np.ix_(keep, keep)] - np.outer(col, col) / zkk
    return GaussGraph(z_new.real, z_new.imag)


def apply_symplectic(graph, a, b, c, d):
    """Graph update Z' = (C + D Z)(A + B Z)^-1 for symplectic [[A,B],[C,D]].

    The blocks act on (q, p) with S (q, p)^T ordering; the symplectic
    condition S Omega S^T = Omega is checked to 1e-10.
    """
    n = graph.n_modes
    blocks = [np.asarray(m, dtype=float) for m in (a, b, c, d)]
    if any(m.shape != (n, n) for m in blocks):
        raise ValidationError("blocks must be N x N")
    a, b, c, d = blocks
    s = np.block([[a, b], [c, d]])
    omega = symplectic_form(n)
    if np.abs(s @ omega @ s.T - omega).max() > 1e-10:
        raise ValidationError("blocks do not satisfy the symplectic condition")
    z = graph.z_matrix
    denom = a + b @ z
    if n and np.linalg.cond(denom) > 1e14:
        raise SingularTransformError("(A + BZ) is numerically singular")
    z_new = (c + d @ z) @ np.linalg.inv(denom)
    z_new = 0.5 * (z_new + z_new.T)
    return GaussGraph(z_new.real, z_new.imag)
