"""Shared fixtures: cached lattice states and random-graph helpers."""

import warnings
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import settings

import gausstopo as gt
from gausstopo import engine, lattice, topo

# every property test is reproducible and leaves no example database behind
settings.register_profile("gausstopo", derandomize=True, deadline=None, database=None)
settings.load_profile("gausstopo")


# the per-process memos of what a lattice holds apart from log s
LATTICE_MEMOS = (lattice._lattice, topo._kp_sectors, topo._lw_annulus)


def clear_lattice_memos():
    """Empty every lattice memo, so that the next build of any lattice is
    fresh."""
    for memo in LATTICE_MEMOS:
        memo.cache_clear()


@pytest.fixture(autouse=True)
def fresh_lattices():
    """Every test starts from empty lattice memos: a test that counts the
    builds of a pattern or the checks of a batch sees its own."""
    clear_lattice_memos()


@lru_cache(maxsize=None)
def _surface_state(rows, cols, log_s, boundary="torus"):
    spec = gt.LatticeSpec(rows, cols, boundary, log_s)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        graph = gt.surface_code_graph_analytic(spec)
    return spec, engine.covariance_from_graph(graph)


@lru_cache(maxsize=None)
def _cluster_state(rows, cols, log_s, boundary="torus"):
    spec = gt.LatticeSpec(rows, cols, boundary, log_s)
    return spec, engine.covariance_from_graph(gt.cluster_graph(spec))


@pytest.fixture(scope="session")
def surface_state():
    """Factory: (spec, covariance) of the analytic surface-code state."""
    return _surface_state


@pytest.fixture(scope="session")
def cluster_state():
    """Factory: (spec, covariance) of the cluster state."""
    return _cluster_state


def random_graph(rng, n=None, max_modes=12):
    """Random well-conditioned Gaussian pure-state graph."""
    if n is None:
        n = int(rng.integers(2, max_modes + 1))
    v = rng.standard_normal((n, n))
    v = 0.5 * (v + v.T)
    m = rng.standard_normal((n, n))
    u = m @ m.T + 0.5 * np.eye(n)
    return engine.GaussGraph(v, u)


def dense_cut(u, region):
    """Edge dS (modes outside S coupled to S), rim d'S (modes of S coupled
    outside S) and U[dS, d'S] of `region` S, read from the dense U."""
    inside = np.zeros(len(u), dtype=bool)
    inside[region] = True
    coupled = u[np.ix_(~inside, inside)] != 0
    edge = np.flatnonzero(~inside)[coupled.any(axis=1)]
    rim = np.flatnonzero(inside)[coupled.any(axis=0)]
    return edge, rim, u[np.ix_(edge, rim)]


def loop_plaquettes(spec):
    """The mode sets of the p-nodes of the closed-form surface code of `spec`,
    by a loop over the even plaquettes (lower-left corner (x, y), x + y
    even): on a torus each wraps; on a planar grid the corners range over
    [-1, rows) x [-1, cols) and each plaquette keeps the corners on the grid."""
    torus = spec.boundary == "torus"
    low = 0 if torus else -1
    plaquettes = []
    for x in range(low, spec.rows):
        for y in range(low, spec.cols):
            if (x + y) % 2:
                continue
            modes = set()
            for a, b in ((x, y), (x + 1, y), (x, y + 1), (x + 1, y + 1)):
                if torus:
                    modes.add(a % spec.rows * spec.cols + b % spec.cols)
                elif 0 <= a < spec.rows and 0 <= b < spec.cols:
                    modes.add(a * spec.cols + b)
            plaquettes.append(modes)
    return plaquettes


def loop_straddling(spec, region):
    """The count of p-nodes (`loop_plaquettes`) with a mode in `region` and
    one outside it."""
    inside = set(map(int, region))
    return sum(1 for modes in loop_plaquettes(spec) if modes & inside and modes - inside)


def star_pipeline_graph(s):
    """3-mode network from measuring p on the hub of a 4-mode star."""
    adj = np.zeros((4, 4))
    adj[0, 1:] = 1.0
    adj[1:, 0] = 1.0
    hub = engine.GaussGraph(adj, s ** -2 * np.eye(4))
    return engine.measure_p(hub, 0)


@pytest.fixture
def factor_counts(monkeypatch):
    """Live {"factor": n, "solve": n} counts of the block Cholesky
    factorizations and of the solves with those factors, made after the
    fixture runs: of U, or of the p-node system K^-1 of a `PNodeFactor`,
    whose solves are one each.  The first build of a p-node factor adds a
    "p_nodes" count, and that of the U^-1 cell columns of an even torus a
    "cell" count, so a state that builds neither compares as before."""
    counts = {"factor": 0, "solve": 0}
    cell_columns = engine._cell_columns
    p_node_factor = engine.PNodeFactor

    class CountedFactor(engine.BlockCholesky):
        def __init__(self, u):
            counts["factor"] += 1
            super().__init__(u)

        def solve(self, rhs, rows=None):
            counts["solve"] += 1
            return super().solve(rhs, rows)

    def counted_cell(*args, **kwargs):
        counts["cell"] = counts.get("cell", 0) + 1
        return cell_columns(*args, **kwargs)

    def counted_p_nodes(*args):
        counts["p_nodes"] = counts.get("p_nodes", 0) + 1
        return p_node_factor(*args)

    monkeypatch.setattr(engine, "BlockCholesky", CountedFactor)
    monkeypatch.setattr(engine, "PNodeFactor", counted_p_nodes)
    monkeypatch.setattr(engine, "_cell_columns", counted_cell)
    return counts
