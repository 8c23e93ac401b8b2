"""The three benchmark workloads: inputs from a seed, timed passes, checks.

A workload object holds the inputs generated from the seed.  ``run(k)``
performs pass ``k`` through the package's public API (or the
``gausstopo sweep`` entry point) and returns the raw outputs; ``check``
turns one pass's outputs into named pass/fail results and ``check_run``
does the same for checks that need several passes.  Checks run outside the
timed region.  The seed only shifts squeezing values inside narrow ranges,
so every seed does the same amount of work.
"""

import csv
import math
import os
import warnings

import numpy as np

from gausstopo import cli, correlations, engine, lattice, topo

TEE_SLOPE = 2.0 / math.log(2.0)
# Same slack as the repository's acceptance gate (criterion 5).
ORDER_SLACK = 1e-6


def _shift(rng, centre, half_width=0.05):
    return float(centre + rng.uniform(-half_width, half_width))


def _order_checks(tee, tln, tmi1, tmi10, lower):
    return [
        ("lower<=tmi10<=tmi1", lower <= tmi10 + ORDER_SLACK and tmi10 <= tmi1 + ORDER_SLACK),
        ("tee<=tln", tee <= tln + ORDER_SLACK),
        ("tmi1==tee", abs(tmi1 - tee) < 1e-8),
    ]


def _slope_checks(points):
    """TEE slope in log s between the lowest and highest point seen."""
    if len(points) < 2:
        return []
    (lo, tee_lo), (hi, tee_hi) = min(points), max(points)
    slope = (tee_hi - tee_lo) / (hi - lo)
    return [("tee_slope", abs(slope - TEE_SLOPE) / TEE_SLOPE < 0.05)]


class Workload:
    """Defaults for workloads without run-level checks or recorded outputs.

    ``check`` returns ``outputs_per_pass`` results for every pass; a pass
    that raises counts as that many failed outputs.
    """

    def check_run(self, outs):
        return []

    def record(self, out):
        return {}


class Kp36(Workload):
    """KP diagnostics on a torus, one squeezing point per pass."""

    outputs_per_pass = 3

    def __init__(self, rng, small=False):
        self.size = 12 if small else 36
        # ordered so that two passes already span the slope interval
        self.points = [_shift(rng, c) for c in (2.4, 3.2, 2.8)]

    def run(self, k):
        log_s = self.points[k % len(self.points)]
        spec = lattice.LatticeSpec(self.size, self.size, "torus", log_s)
        graph = lattice.surface_code_graph_analytic(spec)
        cov = engine.covariance_from_graph(graph)
        regions = topo.kp_regions(spec)
        return {
            "log_s": log_s,
            "tee": topo.tee_kp(cov, regions),
            "tln": topo.tln_kp(cov, regions),
            "tmi1": topo.tmi(cov, regions),
            "tmi10": topo.tmi(engine.thermal_scale(cov, 10.0), regions),
            "lower": topo.tmi_lower_bound(cov, regions),
        }

    def check(self, out):
        return _order_checks(out["tee"], out["tln"], out["tmi1"], out["tmi10"], out["lower"])

    def check_run(self, outs):
        return _slope_checks(sorted({(o["log_s"], o["tee"]) for o in outs}))

    def record(self, out):
        return out


class PipelineCorr(Workload):
    """Measurement pipeline, nullifier tables, correlation fits, decay bound."""

    # 2 maps x (U, V), 2 tables, the fit, 3 bound points
    outputs_per_pass = 10

    def __init__(self, rng, small=False):
        self.map_shape = (4, 8) if small else (16, 32)
        self.table_size = 4 if small else 16
        # 20x20 is the smallest planar lattice whose fit converged at
        # every log s tried in [3.15, 3.25]; 16x16 fails at some
        self.corr_size = 20 if small else 36
        self.bound_size = 8 if small else 16
        self.map_log_s = [_shift(rng, c) for c in (0.0, 1.0)]
        self.table_s = [_shift(rng, c) for c in (1.0, np.e)]
        self.corr_log_s = _shift(rng, 3.2)
        self.bound_log_s = [_shift(rng, c) for c in (0.5, 1.0, 2.0)]
        self._distances = None

    def run(self, k):
        maps = []
        for log_s in self.map_log_s:
            spec = lattice.LatticeSpec(*self.map_shape, "torus", log_s)
            graph, _ = lattice.map_cluster_to_surface(spec)
            maps.append((spec.s, graph.u_part, graph.v_part,
                         lattice.kept_mode_adjacency(spec)))

        sg = lattice.SurfaceGraph(lattice.LatticeSpec(
            self.table_size, self.table_size, "torus", 1.0))
        tables = [(s, lattice.nullifier_commutators(lattice.nullifier_vectors(sg, s)))
                  for s in self.table_s]

        spec = lattice.LatticeSpec(self.corr_size, self.corr_size, "planar",
                                   self.corr_log_s)
        with warnings.catch_warnings():
            # the planar closed form warns that its boundary is approximate
            warnings.simplefilter("ignore")
            graph = lattice.surface_code_graph_analytic(spec)
        cov = engine.covariance_from_graph(graph)
        seps, vals = correlations.axis_samples(cov, spec,
                                               max_separation=13)
        fit = correlations.fit_correlation_length(seps, vals)
        alpha, _ = correlations.area_law_fit(cov, spec)

        violations = []
        for log_s in self.bound_log_s:
            spec = lattice.LatticeSpec(self.bound_size, self.bound_size, "torus", log_s)
            cov = engine.covariance_from_graph(lattice.surface_code_graph_analytic(spec))
            violations.append(correlations.verify_bound(cov, spec)["n_violations"])
        return {"maps": maps, "sg": sg, "tables": tables, "fit": fit,
                "alpha": alpha, "violations": violations}

    def _closed_form_distances(self, sg):
        if self._distances is None:
            def dist(coords):
                return np.array([[sg.lattice_distance(a, b) for b in coords]
                                 for a in coords])
            self._distances = (
                dist([sg.vertex_coords(v) for v in sg.vertices]),
                dist([sg.face_coords(f) for f in sg.faces]))
        return self._distances

    def check(self, out):
        results = []
        for s, u, v, adj in out["maps"]:
            expected = s ** 2 * adj + (s ** -2 + 2 * s ** 2) * np.eye(len(adj))
            results.append(("map_u", np.abs(u - expected).max() < 1e-9))
            results.append(("map_v", np.abs(v).max() < 1e-9))
        d_vertex, d_face = self._closed_form_distances(out["sg"])
        for s, table in out["tables"]:
            w = np.vectorize(lambda d: lattice.w_closed_form(d, s))(d_vertex)
            x = np.vectorize(lattice.x_closed_form)(d_face)
            worst = max(np.abs(table["vertex"] - w).max(),
                        np.abs(table["face"] - x).max(),
                        np.abs(table["cross"]).max(),
                        np.abs(table["cross_dagger"]).max())
            results.append(("commutator_table", worst < 1e-12))
        results.append(("fit_finite", bool(np.all(np.isfinite(out["fit"])))))
        results += [("verify_bound", n == 0) for n in out["violations"]]
        return results

    def record(self, out):
        # xi_a is criterion 7's documented miss: recorded, never checked
        a, xi_a, b, xi_b, residual = out["fit"]
        return {"xi_a": xi_a, "xi_b": xi_b, "fit_residual": residual,
                "area_alpha": out["alpha"], "bound_violations": out["violations"]}


class Sweep24(Workload):
    """`gausstopo sweep` in process: 4 log s points x kappa in {1, 10}."""

    KAPPAS = (1.0, 10.0)
    STEPS = 4
    # exit code, extra rows, 8 rows present, 3 invariants per log s
    outputs_per_pass = 2 + STEPS * len(KAPPAS) + STEPS * 3

    def __init__(self, rng, out_dir, small=False):
        self.size = 12 if small else 24
        self.log_s_min = _shift(rng, 2.4)
        self.log_s_max = _shift(rng, 3.2)
        self.out_dir = out_dir
        self.grid = ["%.12g" % x for x in np.linspace(self.log_s_min, self.log_s_max,
                                                      self.STEPS)]

    def run(self, k):
        # a fresh path per pass: an existing file would resume and skip points
        path = os.path.join(self.out_dir, "sweep-%d-%d.csv" % (os.getpid(), k))
        if os.path.exists(path):
            os.remove(path)
        argv = ["sweep", "--rows", str(self.size), "--cols", str(self.size),
                "--log-s-min", repr(self.log_s_min), "--log-s-max", repr(self.log_s_max),
                "--steps", str(self.STEPS), "--kappas", ",".join("%g" % k for k in self.KAPPAS),
                "--out", path]
        code = cli.main(argv)
        rows = []
        if os.path.exists(path):
            with open(path, encoding="utf-8", newline="") as fh:
                rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
            os.remove(path)
        return {"exit_code": code, "rows": rows}

    def check(self, out):
        expected = len(self.grid) * len(self.KAPPAS)
        results = [("exit_code", out["exit_code"] == 0),
                   ("extra_rows", len(out["rows"]) <= expected)]
        by_point = {(row["log_s"], float(row["kappa"])): row for row in out["rows"]}
        for log_s in self.grid:
            pure = by_point.get((log_s, 1.0))
            hot = by_point.get((log_s, 10.0))
            results += [("row_present", row is not None) for row in (pure, hot)]
            if pure is None or hot is None:
                # a lost row is one failure: the invariants that need it
                # are not checked and are not counted as failed again
                results += [("invariants_unchecked", True)] * 3
                continue
            results += _order_checks(float(pure["tee_kp"]), float(pure["tln"]),
                                     float(pure["tmi"]), float(hot["tmi"]),
                                     float(pure["tmi_lower"]))
        return results

    def record(self, out):
        return {"rows": len(out["rows"]), "exit_code": out["exit_code"]}


def set_up(name, seed, out_dir):
    """Generate the inputs from the seed, warm up on a small lattice and
    return the full-size workload."""
    make(name, np.random.default_rng(seed), out_dir, small=True).run(0)
    return make(name, np.random.default_rng(seed), out_dir)


def make(name, rng, out_dir, small=False):
    if name == "kp36":
        return Kp36(rng, small)
    if name == "pipeline_corr":
        return PipelineCorr(rng, small)
    return Sweep24(rng, out_dir, small)


def _offset_tee(out):
    if "rows" in out:
        for row in out["rows"]:
            row["tee_kp"] = repr(float(row["tee_kp"]) + 1e-3)
    else:
        out["tee"] += 1e-3


def _drop_row(out):
    out["rows"].pop()


def _offset_u(out):
    s, u, v, adj = out["maps"][0]
    u = u.copy()
    u[0, 0] += 1e-6
    out["maps"][0] = (s, u, v, adj)


# Deliberate perturbations of a pass's outputs, for checking the checks.
INJECTIONS = {
    "tee_offset": (("kp36", "sweep24"), _offset_tee),
    "drop_row": (("sweep24",), _drop_row),
    "u_offset": (("pipeline_corr",), _offset_u),
}
