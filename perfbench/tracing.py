"""In-memory span tracer for the per-layer metrics.

Spans are recorded from outside the package: each target function is
replaced, for the duration of a traced pass, by a wrapper installed at the
module attribute its callers look up (topo calls its own imported
``symplectic_spectrum``, lattice calls ``engine.measure_p``, cmd_sweep calls
the module-global ``_sweep_point``, and so on).  The wrappers start no
threads; spans opened in the sweep pool carry the pool thread's id.
"""

import contextlib
import itertools
import json
import statistics
import threading
import time
from collections import defaultdict

# (module key, attribute, span name).  Two entries may share a span name
# when the same function is looked up through two modules.
TARGETS = (
    ("engine", "covariance_from_graph", "engine.covariance_from_graph"),
    ("engine", "symplectic_spectrum", "engine.symplectic_spectrum"),
    ("topo", "symplectic_spectrum", "engine.symplectic_spectrum"),
    ("engine", "log_negativity", "engine.log_negativity"),
    ("engine", "thermal_scale", "engine.thermal_scale"),
    ("engine", "measure_p", "engine.measure_p"),
    ("engine", "measure_q", "engine.measure_q"),
    ("lattice", "surface_code_graph_analytic", "lattice.surface_code_graph_analytic"),
    ("lattice", "map_cluster_to_surface", "lattice.map_cluster_to_surface"),
    ("lattice", "kept_mode_adjacency", "lattice.kept_mode_adjacency"),
    ("lattice", "SurfaceGraph", "lattice.SurfaceGraph"),
    ("lattice", "nullifier_vectors", "lattice.nullifier_vectors"),
    ("lattice", "nullifier_commutators", "lattice.nullifier_commutators"),
    ("lattice", "commutator", "lattice.commutator"),
    ("topo", "kp_regions", "topo.kp_regions"),
    ("topo", "tee_kp", "topo.tee_kp"),
    ("topo", "tln_kp", "topo.tln_kp"),
    ("topo", "tmi", "topo.tmi"),
    ("topo", "tmi_lower_bound", "topo.tmi_lower_bound"),
    ("correlations", "verify_bound", "correlations.verify_bound"),
    ("correlations", "axis_samples", "correlations.axis_samples"),
    ("correlations", "fit_correlation_length", "correlations.fit_correlation_length"),
    ("correlations", "area_law_fit", "correlations.area_law_fit"),
    ("cli", "main", "cli.main"),
    ("cli", "_sweep_point", "cli._sweep_point"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in TARGETS))


def _modes(region):
    return len(set(region))


# Work counted alongside a span, from the call's arguments.
# bytes_computed is the size of the dense 2N x 2N float64 covariance.
QUANTITIES = {
    "engine.symplectic_spectrum": ("modes", lambda cov, region, *a, **k: _modes(region)),
    "engine.covariance_from_graph": (
        "bytes_computed", lambda graph, *a, **k: 8 * (2 * graph.n_modes) ** 2),
}


class Tracer:
    """Collects spans (id, name, start, end, parent, thread, quantity)."""

    def __init__(self, modules):
        self._modules = modules
        self._ids = itertools.count()
        self._local = threading.local()
        self.spans = []

    def _wrap(self, name, func):
        quantity = QUANTITIES.get(name, (None, None))[1]

        def traced(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            sid = next(self._ids)
            parent = stack[-1] if stack else None
            amount = quantity(*args, **kwargs) if quantity else 0
            stack.append(sid)
            start = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((sid, name, start, end, parent,
                                   threading.get_ident(), amount))
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every target while the context is open."""
        saved = []
        try:
            for key, attr, name in TARGETS:
                module = self._modules[key]
                original = getattr(module, attr)
                setattr(module, attr, self._wrap(name, original))
                saved.append((module, attr, original))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write(self, path):
        """Write the spans as JSON lines, one span per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, thread, amount in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "thread": thread, "amount": amount}) + "\n")


def _union_length(intervals):
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def layer_metrics(spans, passes, cpu_s, traced_wall_s, untraced_wall_s):
    """Per-pass per-layer metrics from the spans of `passes` traced passes.

    A span's self time is its duration minus the union of its children in
    the same thread.  ``cli.self_s`` is ``cli.main`` minus the union of every
    span inside it from any thread (pool waits and CSV writing remain).
    """
    children = defaultdict(list)
    for sid, _, start, end, parent, _, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    self_s = defaultdict(float)
    calls = defaultdict(int)
    amounts = defaultdict(int)
    for sid, name, start, end, _, _, amount in spans:
        self_s[name] += (end - start) - _union_length(children[sid])
        calls[name] += 1
        amounts[name] += amount

    main_ids = {sid for sid, name, *_ in spans if name == "cli.main"}
    cli_self = 0.0
    for sid, name, start, end, _, _, _ in spans:
        if name != "cli.main":
            continue
        inner = [(s, e) for other, _, s, e, parent, _, _ in spans
                 if other != sid and (parent is None or parent in main_ids)
                 and s >= start and e <= end]
        cli_self += (end - start) - _union_length(inner)
    latencies = [end - start for _, name, start, end, *_ in spans
                 if name == "cli._sweep_point"]

    out = {}
    for name in SPAN_NAMES:
        out[name + ".s"] = self_s[name] / passes
        out[name + ".calls"] = calls[name] / passes
        if name in QUANTITIES:
            out["%s.%s" % (name, QUANTITIES[name][0])] = amounts[name] / passes
    out["cli._sweep_point.latency_s"] = statistics.median(latencies) if latencies else 0.0
    out["cli.self_s"] = cli_self / passes
    out["process.cpu_per_wall"] = cpu_s / traced_wall_s
    out["trace_overhead"] = traced_wall_s / untraced_wall_s
    return out
