"""The per-process lattice memos: what a lattice holds apart from log s (U's
pattern, the pipeline structure, the KP and LW regions) is built once per
process, equals a fresh build, stays bounded and hands out nothing that a
caller can change under the next call."""

import os
import subprocess
import sys
import warnings
from functools import cached_property

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gausstopo as gt
from gausstopo import engine, lattice, topo
from gausstopo.errors import ValidationError

from conftest import LATTICE_MEMOS, clear_lattice_memos

SRC = os.path.dirname(os.path.dirname(os.path.abspath(gt.__file__)))

# even tori 4..24 (rectangular ones too) and planar grids 1..12
SURFACE_SHAPES = st.one_of(
    st.tuples(st.sampled_from(range(4, 25, 2)), st.sampled_from(range(4, 25, 2)),
              st.just("torus")),
    st.tuples(st.integers(1, 12), st.integers(1, 12), st.just("planar")))
LOG_S = st.tuples(st.floats(-3.0, 3.25), st.floats(-3.0, 3.25))


def outcome(build, *args, **kwargs):
    """What `build` returns, or the message of the ValidationError it raises."""
    try:
        return build(*args, **kwargs)
    except ValidationError as exc:
        return "ValidationError: %s" % exc


def region_record(regions):
    return regions if isinstance(regions, str) else (regions.kind, regions.regions,
                                                     regions.geometry)


def surface_outputs(spec):
    """Everything a surface-code state of `spec` gives that reads the
    lattice's structure: U's stored entries and extremes, the KP and LW
    regions, the spectra of their unions and of two fixed regions, and the
    kept-mode adjacency of the cluster lattice of the same shape."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the planar closed form warns
        graph = gt.surface_code_graph_analytic(spec)
    u = graph._u_sparse
    every = np.arange(spec.n_nodes)
    kp, lw = outcome(topo.kp_regions, spec), outcome(topo.lw_regions, spec, inner=2, width=1)
    regions = [list(range(spec.cols)), list(range(0, spec.n_nodes, 3))]
    if not isinstance(kp, str):
        regions += [list(union) for union in kp.kp_unions]
    if not isinstance(lw, str):
        regions += [lw.regions[name] for name in "ABCD"]
    cov = engine.covariance_from_graph(graph)
    return {"data": u.data, "positions": u.positions(every), "cond": graph._cond,
            "u": graph.u_part, "kp": region_record(kp), "lw": region_record(lw),
            "spectra": [spectrum.values for spectrum in engine.symplectic_spectra(cov, regions)],
            "kept": gt.kept_mode_adjacency(spec)}


SURFACE_GRAPH_FIELDS = ("vertices", "faces", "edges", "vertex_incidence", "face_incidence",
                        "edge_endpoints", "vertex_edges", "vertex_neighbors", "face_boundaries")


def surface_graph_outputs(spec):
    """Every public field of the surface graph of `spec`, its valences and
    coordinates, and the nullifier vectors and tables at s = e^log_s."""
    sg = gt.SurfaceGraph(spec)
    ns = gt.nullifier_vectors(sg, spec.s)
    return {"fields": [getattr(sg, name) for name in SURFACE_GRAPH_FIELDS],
            "n_modes": sg.n_modes, "valence": [sg.valence(v) for v in sg.vertices],
            "coords": ([sg.vertex_coords(v) for v in sg.vertices],
                       [sg.face_coords(f) for f in sg.faces]),
            "vectors": (list(ns.vertex_nullifiers), list(ns.face_nullifiers), ns.norm_sprime,
                        ns.norm_sv),
            "tables": gt.nullifier_commutators(ns)}


def pipeline_outputs(spec):
    """The measurement pipeline's graph, index map and region spectra, the
    kept-mode adjacency and the surface graph of `spec`
    (`surface_graph_outputs`)."""
    graph, index_map = gt.map_cluster_to_surface(spec)
    u = graph._u_sparse
    cov = engine.covariance_from_graph(graph)
    regions = [list(range(10)), list(range(5, graph.n_modes, 7))]
    return {"indptr": u.indptr, "indices": u.indices, "data": u.data, "cond": graph._cond,
            "index_map": index_map, "kept": gt.kept_mode_adjacency(spec),
            "pattern": gt.measurement_pattern(spec),
            "spectra": [spectrum.values for spectrum in engine.symplectic_spectra(cov, regions)],
            "surface": surface_graph_outputs(spec)}


def assert_equal(got, want):
    """`got` == `want`, arrays of the same dtype and values, recursively."""
    if isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray) and got.dtype == want.dtype
        assert np.array_equal(got, want)
    elif isinstance(want, dict):
        assert list(got) == list(want)
        for key in want:
            assert_equal(got[key], want[key])
    elif isinstance(want, (list, tuple)):
        assert type(got) is type(want) and len(got) == len(want)
        for a, b in zip(got, want):
            assert_equal(a, b)
    elif isinstance(want, set):
        assert type(got) is set and got == want and all(type(x) is int for x in got)
    else:
        assert type(got) is type(want) and got == want


class TestMemoEqualsFreshBuild:
    """What is served from a lattice's memo, after another log s built it,
    equals a build after the memos are emptied."""

    @settings(max_examples=40)
    @given(shape=SURFACE_SHAPES, log_s=LOG_S)
    def test_surface_code_state(self, shape, log_s):
        rows, cols, boundary = shape
        clear_lattice_memos()
        surface_outputs(gt.LatticeSpec(rows, cols, boundary, log_s[0]))
        spec = gt.LatticeSpec(rows, cols, boundary, log_s[1])
        served = surface_outputs(spec)
        clear_lattice_memos()
        assert_equal(served, surface_outputs(spec))

    @settings(max_examples=40)
    @given(shape=SURFACE_SHAPES, log_s=LOG_S)
    def test_surface_graph(self, shape, log_s):
        rows, cols, boundary = shape
        clear_lattice_memos()
        surface_graph_outputs(gt.LatticeSpec(rows, cols, boundary, log_s[0]))
        spec = gt.LatticeSpec(rows, cols, boundary, log_s[1])
        served = surface_graph_outputs(spec)
        clear_lattice_memos()
        assert_equal(served, surface_graph_outputs(spec))

    @pytest.mark.parametrize("rows,cols", [(8, 12), (16, 32)])
    @pytest.mark.parametrize("log_s", [(0.0, 1.0), (1.5, -0.5)])
    def test_pipeline(self, rows, cols, log_s):
        pipeline_outputs(gt.LatticeSpec(rows, cols, "torus", log_s[0]))
        spec = gt.LatticeSpec(rows, cols, "torus", log_s[1])
        served = pipeline_outputs(spec)
        clear_lattice_memos()
        assert_equal(served, pipeline_outputs(spec))

    def test_one_structure_per_lattice(self, monkeypatch):
        # every build of a lattice reads one pattern, one A_d, one B, one
        # Gram matrix and one surface structure, and its torus pattern reads
        # the cell off one 4 x 4 torus; the KP regions are built once per
        # geometry
        builds = []
        for name in ("_cell_stencil", "_stencil_adjacency", "_surface_lattice"):
            build = getattr(lattice, name)
            monkeypatch.setattr(lattice, name, lambda *a, _f=build, _n=name, **k:
                                builds.append(_n) or _f(*a, **k))
        for name in ("b_t", "kept_gram"):
            build = getattr(lattice._Lattice, name).func
            counted = cached_property(lambda self, _f=build, _n=name:
                                      builds.append(_n) or _f(self))
            counted.__set_name__(lattice._Lattice, name)
            monkeypatch.setattr(lattice._Lattice, name, counted)
        for log_s in (0.5, 1.0, 2.0):
            spec = gt.LatticeSpec(12, 12, "torus", log_s)
            cov = engine.covariance_from_graph(gt.surface_code_graph_analytic(spec))
            topo.tee_kp(cov, topo.kp_regions(spec))
            gt.map_cluster_to_surface(spec), gt.kept_mode_adjacency(spec)
            gt.nullifier_commutators(gt.nullifier_vectors(gt.SurfaceGraph(spec), spec.s))
        assert sorted(builds) == ["_cell_stencil", "_stencil_adjacency", "_stencil_adjacency",
                                  "_surface_lattice", "b_t", "kept_gram"]
        assert topo._kp_sectors.cache_info()[:2] == (2, 1)  # hits, misses


    def test_geometry_is_that_of_the_call(self):
        # one memo entry serves a geometry given as ints, floats or numpy
        # values, and each copy records the arguments of its own call
        spec = gt.LatticeSpec(12, 12, "torus", 1.0)
        forms = [((5, 6), 2), ((5.0, 6.0), 2.0), ((np.float64(5.0), np.int64(6)), np.array(2.0))]
        got = [topo.kp_regions(spec, center=center, radius=radius) for center, radius in forms]
        assert topo._kp_sectors.cache_info().currsize == 1
        for (center, radius), regions in zip(forms, got):
            assert regions.regions == got[0].regions
            assert [type(x) for x in regions.geometry["center"]] == [type(x) for x in center]
            assert regions.geometry == {"center": center, "radius": float(radius),
                                        "rows": 12, "cols": 12}


class TestMemoBounded:
    def test_batch_plans_capped(self):
        # a flood of distinct batches on one lattice keeps the last
        # _BATCH_PLANS plans, and a batch planned again, after its plan was
        # dropped, gives the values of a fresh build
        spec = gt.LatticeSpec(16, 16, "torus", 1.5)
        pattern = lattice._surface_code_pattern(spec)
        rng = np.random.default_rng(7)
        batches = [[rng.choice(spec.n_nodes, size=int(rng.integers(1, 30)), replace=False).tolist()
                    for _ in range(int(rng.integers(1, 4)))] for _ in range(500)]
        served = []
        for batch in batches:
            cov = engine.covariance_from_graph(gt.surface_code_graph_analytic(spec))
            served.append([spectrum.values for spectrum in engine.symplectic_spectra(cov, batch)])
            assert len(pattern.plans["batches"]) <= engine._BATCH_PLANS
        assert len(pattern.plans["batches"]) == engine._BATCH_PLANS
        assert list(pattern.plans["batches"]) == [tuple(map(tuple, batch))
                                                  for batch in batches[-engine._BATCH_PLANS:]]
        again = engine.covariance_from_graph(gt.surface_code_graph_analytic(spec))
        assert_equal([s.values for s in engine.symplectic_spectra(again, batches[0])], served[0])
        clear_lattice_memos()
        for k in (0, 1, 250, 499):
            cov = engine.covariance_from_graph(gt.surface_code_graph_analytic(spec))
            assert_equal([s.values for s in engine.symplectic_spectra(cov, batches[k])],
                         served[k])

    def test_plan_used_last_is_dropped_last(self):
        spec = gt.LatticeSpec(8, 8, "torus", 1.0)
        u = gt.surface_code_graph_analytic(spec)._u_sparse
        batches = [((k,), (k + 1, k + 2)) for k in range(engine._BATCH_PLANS + 1)]
        for batch in batches[:-1]:
            engine._batch_plan(u, batch)
        engine._batch_plan(u, batches[0])  # served, and so kept longest
        engine._batch_plan(u, batches[-1])
        assert list(u.plans["batches"]) == batches[2:-1] + [batches[0], batches[-1]]

    def test_lattices_and_regions_capped(self):
        for side in range(4, 40, 2):
            spec = gt.LatticeSpec(side, side, "torus", 1.0)
            gt.surface_code_graph_analytic(spec)
            for radius in (1.5, 2.0, 2.5):
                outcome(topo.kp_regions, spec, radius=radius)
        assert lattice._lattice.cache_info().currsize == lattice._lattice.cache_info().maxsize
        assert topo._kp_sectors.cache_info().currsize == topo._kp_sectors.cache_info().maxsize


class TestMemoSafe:
    """Nothing a memo holds reaches a caller in a form it can change."""

    def test_measurement_pattern_lists_are_fresh(self):
        spec = gt.LatticeSpec(8, 12, "torus", 1.0)
        first = gt.measurement_pattern(spec)
        want = [list(nodes) for nodes in first]
        for nodes in first:
            nodes.append(-1)
            nodes[0] = 99
        assert [list(nodes) for nodes in gt.measurement_pattern(spec)] == want

    def test_index_map_is_fresh(self):
        spec = gt.LatticeSpec(8, 12, "torus", 1.0)
        _, index_map = gt.map_cluster_to_surface(spec)
        want = list(index_map)
        index_map.clear()
        assert gt.map_cluster_to_surface(spec)[1] == want

    @pytest.mark.parametrize("build", [topo.kp_regions, topo.lw_regions])
    def test_regions_are_fresh(self, build):
        spec = gt.LatticeSpec(24, 24, "torus", 1.0)
        first = build(spec)
        regions = {name: list(ids) for name, ids in first.regions.items()}
        geometry = dict(first.geometry)
        unions = [first.union(*names) for names in topo.KP_SUBSETS] if first.kind == "KP" else []
        first.regions["A"].append(10 ** 6)
        first.regions["B"].clear()
        first.regions.pop("C")
        first.geometry["radius" if first.kind == "KP" else "inner"] = -1.0
        again = build(spec)
        assert again.regions == regions and again.geometry == geometry
        if unions:
            assert [list(union) for union in again.kp_unions] == unions

    def test_edited_regions_give_their_own_values(self):
        # a copy whose regions were edited before its first KP diagnostic
        # reads the unions of its own lists, not those of its memo
        spec = gt.LatticeSpec(24, 24, "torus", 1.0)
        cov = engine.covariance_from_graph(gt.surface_code_graph_analytic(spec))
        unedited = topo.kp_regions(spec)
        edits = [lambda r: r["A"].pop(), lambda r: r.update(B=r["B"][1:]),
                 lambda r: r["C"].append(0), lambda r: r.update(A=r["B"], B=r["A"])]
        for edit in edits:
            edited = topo.kp_regions(spec)
            edit(edited.regions)
            fresh = topo.RegionSet("KP", {name: list(ids) for name, ids in edited.regions.items()})
            assert edited.kp_unions == fresh.kp_unions != unedited.kp_unions
            for diagnostic in (topo.tee_kp, topo.tln_kp, topo.tmi, topo.tmi_lower_bound):
                assert diagnostic(cov, edited) == diagnostic(cov, fresh)
        assert topo.kp_regions(spec).kp_unions is unedited.kp_unions

    def test_shared_arrays_are_read_only(self):
        arrays = []
        for boundary in ("torus", "planar"):
            spec = gt.LatticeSpec(12, 12, boundary, 1.0)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # the planar closed form warns
                graph = gt.surface_code_graph_analytic(spec)
            u = graph._u_sparse
            engine.symplectic_spectra(engine.covariance_from_graph(graph), [[1, 2, 14], [30]])
            plan = next(iter(u.plans["batches"].values()))
            rows, cols, gather, pairs, _, p_cuts, cuts = plan
            arrays += [u.data, rows, cols] + [a for pair in pairs for a in pair]
            arrays += [a for cut in cuts for a in cut] + ([] if gather is None else [gather])
            arrays += [a for _, *maps in p_cuts for a in maps]
            arrays += ([u.indptr, u.indices] if boundary == "planar"
                       else [u._key, u._dr, u._dc, u._count, u._start, *u._phases])
        built = lattice._lattice(8, 12, "torus")
        gt.map_cluster_to_surface(gt.LatticeSpec(8, 12, "torus", 1.0))
        gram = built.kept_gram[0]
        arrays += list(built.sites) + [gram.indptr, gram.indices, gram.data, built.links.data]
        gt.SurfaceGraph(gt.LatticeSpec(8, 12, "torus", 1.0))
        arrays += [a for part in built.surface
                   for a in (part if isinstance(part, tuple) else [part])]
        for array in arrays:
            assert not array.flags.writeable

    def test_kept_adjacency_is_fresh(self):
        spec = gt.LatticeSpec(8, 12, "torus", 1.0)
        adjacency = gt.kept_mode_adjacency(spec)
        want = adjacency.copy()
        adjacency[:] = 7.0
        assert np.array_equal(gt.kept_mode_adjacency(spec), want)

    def test_surface_graph_is_fresh(self):
        # editing one instance's lists, sets and arrays reaches neither the
        # next instance nor its nullifiers
        spec = gt.LatticeSpec(8, 12, "torus", 1.0)
        want = surface_graph_outputs(spec)
        sg = gt.SurfaceGraph(spec)
        for name in ("vertices", "faces", "edges", "edge_endpoints"):
            getattr(sg, name).append(-1)
        sg.vertex_edges[0].append(99)
        sg.vertex_neighbors[1].add(99)
        sg.face_boundaries[2].pop()
        sg.face_boundaries[3].clear()
        sg.vertex_incidence[:] = 7.0
        sg.face_incidence[0, 0] = 7.0
        assert_equal(surface_graph_outputs(spec), want)
        ns = gt.nullifier_vectors(sg, spec.s)
        assert_equal([list(ns.vertex_nullifiers), list(ns.face_nullifiers)],
                     list(want["vectors"][:2]))

    def test_edited_nullifiers_give_their_own_tables(self):
        # a set whose lists were edited gets the tables of `_bracket` on the
        # vectors it holds, as a hand-built set with the same lists does
        sg = gt.SurfaceGraph(gt.LatticeSpec(8, 12, "torus", 1.0))
        unedited = gt.nullifier_commutators(gt.nullifier_vectors(sg, np.e))
        other = gt.nullifier_vectors(sg, 2.0)
        edits = [lambda ns: ns.vertex_nullifiers.pop(),
                 lambda ns: ns.face_nullifiers.append(ns.face_nullifiers[0]),
                 lambda ns: ns.vertex_nullifiers.__setitem__(3, other.vertex_nullifiers[3]),
                 lambda ns: ns.face_nullifiers.__setitem__(0, 2 * ns.face_nullifiers[0]),
                 lambda ns: ns.__setattr__("vertex_nullifiers", ns.face_nullifiers)]
        for edit in edits:
            edited = gt.nullifier_vectors(sg, np.e)
            edit(edited)
            fresh = lattice.NullifierSet(list(edited.vertex_nullifiers),
                                         list(edited.face_nullifiers), 1.0, [])
            tables, want = gt.nullifier_commutators(edited), gt.nullifier_commutators(fresh)
            assert_equal(tables, want)
            assert any(tables[key].shape != unedited[key].shape
                       or np.abs(tables[key] - unedited[key]).max() > 1e-3 for key in want)


class TestChecksOnEveryCall:
    """The memo holds only what was built without an error; every call
    makes the checks of its builder."""

    def test_closed_form_checks(self):
        for _ in range(2):
            with pytest.raises(ValidationError, match="even sides >= 4"):
                gt.surface_code_graph_analytic(gt.LatticeSpec(6, 7, "torus", 1.0))
            with pytest.warns(UserWarning, match="planar closed form"):
                gt.surface_code_graph_analytic(gt.LatticeSpec(6, 7, "planar", 1.0))

    @pytest.mark.parametrize("build,kwargs,message", [
        (topo.kp_regions, {"radius": 9.0}, "does not fit"),
        (topo.kp_regions, {"radius": -1.0}, "radius must be positive"),
        (topo.kp_regions, {"radius": 0.1}, "empty sector"),
        (topo.lw_regions, {"inner": 20}, "does not fit"),
        (topo.lw_regions, {"width": 0}, "width must be positive"),
        (topo.lw_regions, {"width": float("nan")}, "width must be positive"),
        (topo.lw_regions, {"inner": 0}, "annulus has an empty part"),
        (topo.lw_regions, {"inner": float("nan")}, "annulus has an empty part"),
    ])
    def test_region_errors_are_not_kept(self, build, kwargs, message):
        spec = gt.LatticeSpec(12, 12, "torus", 1.0)
        for _ in range(2):
            with pytest.raises(ValidationError, match=message):
                build(spec, **kwargs)
        assert topo._kp_sectors.cache_info().currsize == 0
        assert topo._lw_annulus.cache_info().currsize == 0


class TestBoolIds:
    """A bool id hashes and compares as the int 0 or 1, so the memo keys of
    spectra and batch plans would match it to an int region: it is refused
    before any memo is read."""

    @pytest.mark.parametrize("boundary", ["torus", "planar"])
    def test_bool_region_refused_after_its_int_twin(self, boundary):
        spec = gt.LatticeSpec(8, 8, boundary, 1.0)

        def state():
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # the planar closed form warns
                return engine.covariance_from_graph(gt.surface_code_graph_analytic(spec))

        cov = state()
        engine.symplectic_spectrum(cov, (1, 0))
        for target, bad in ((cov, [True, False]), (state(), [True, False]),
                            (state(), np.array([True, False])), (cov, [1, True]),
                            (engine.thermal_scale(cov, 2.0), (np.True_, np.False_))):
            with pytest.raises(ValidationError, match="region indices must be integers"):
                engine.symplectic_spectrum(target, bad)

    def test_bool_kp_regions_refused(self):
        spec = gt.LatticeSpec(12, 12, "torus", 1.0)
        cov = engine.covariance_from_graph(gt.surface_code_graph_analytic(spec))
        kp = topo.kp_regions(spec)
        topo.tee_kp(cov, kp)
        bad = topo.RegionSet("KP", {"A": [True], "B": [2], "C": [3]})
        with pytest.raises(ValidationError, match="region indices must be integers"):
            topo.tee_kp(cov, bad)
        # nor does a copy whose bool regions equal those of its memoised source
        source = topo.RegionSet("KP", {"A": (0,), "B": (1,), "C": (2,)})
        source.kp_unions
        bad = topo.RegionSet("KP", {"A": [False], "B": [True], "C": [2]}, {}, source)
        with pytest.raises(ValidationError, match="region indices must be integers"):
            topo.tee_kp(cov, bad)


class TestNothingAtImport:
    @pytest.mark.parametrize("argv", [[], ["--help"], ["sweep", "--help"]],
                             ids=["import", "help", "sweep-help"])
    def test_memos_empty(self, argv):
        # importing the package, or printing the command line help, builds
        # no lattice
        memos = ["%s.%s" % (module.__name__.split(".")[-1], name) for module in (lattice, topo)
                 for name, value in vars(module).items() if any(value is m for m in LATTICE_MEMOS)]
        assert len(memos) == len(LATTICE_MEMOS)
        script = "\n".join([
            "import contextlib, io",
            "import gausstopo",
            "from gausstopo import cli, lattice, topo",
            "if %r:" % (argv,),
            "    with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):",
            "        cli.main(%r)" % (argv,),
            "print([memo.cache_info().currsize for memo in (%s,)])" % ", ".join(memos),
        ])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC] + sys.path))
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=300, check=True)
        assert done.stdout.strip() == repr([0] * len(memos))

    def test_first_kp_pass_loads_no_masked_arrays(self):
        # np.unique without a return option, and so np.intersect1d, imports
        # numpy.ma (about 20 ms and 1 MB) at its first call: a first pass that
        # plans a batch of cuts on a torus and on a planar grid loads none
        script = "\n".join([
            "import sys, warnings",
            "import gausstopo as gt",
            "from gausstopo import engine, topo",
            "warnings.simplefilter('ignore')",
            "for boundary in ('torus', 'planar'):",
            "    spec = gt.LatticeSpec(12, 12, boundary, 2.0)",
            "    cov = engine.covariance_from_graph(gt.surface_code_graph_analytic(spec))",
            "    topo.tee_kp(cov, topo.kp_regions(spec))",
            "print('numpy.ma' in sys.modules)",
        ])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC] + sys.path))
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=300, check=True)
        assert done.stdout.strip() == "False"
