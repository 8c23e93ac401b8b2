"""Command-line driver.

Subcommands build states, run the measurement pipeline and evaluate the
topological diagnostics over squeezing sweeps.  Exit codes: 0 success,
2 validation error, 3 numerical failure, 4 threshold violation.
"""

import argparse
import contextlib
import csv
import functools
import json
import os
import sys
from datetime import datetime, timezone

import numpy as np

from . import correlations as corr
from . import engine, lattice, spectra, topo
from .errors import GaussTopoError, ValidationError

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_THRESHOLD = 4

SWEEP_COLUMNS = ("log_s", "tee_kp", "tee_lw", "tln", "tmi", "tmi_lower",
                 "tee_upper", "kappa")


@contextlib.contextmanager
def _csv_out(path, header, mode="w"):
    """(stream, csv writer) on `path`, or on stdout for None or '-'; a file
    is closed on exit.  A `header` row, unless None, follows the
    `# generated <timestamp>` comment line."""
    with contextlib.ExitStack() as stack:
        if path in (None, "-"):
            stream = sys.stdout
        else:
            stream = stack.enter_context(open(path, mode, encoding="utf-8", newline=""))
        writer = csv.writer(stream)
        if header is not None:
            stream.write("# generated %s\n" % datetime.now(timezone.utc).isoformat())
            writer.writerow(header)
        yield stream, writer


def _add_lattice_flags(parser, boundary_default="torus"):
    parser.add_argument("--rows", type=int, required=True)
    parser.add_argument("--cols", type=int, required=True)
    parser.add_argument("--boundary", choices=lattice.BOUNDARIES,
                        default=boundary_default)
    parser.add_argument("--log-s", type=float, default=1.0)


def _spec(args, boundary=None):
    return lattice.LatticeSpec(args.rows, args.cols,
                               boundary or args.boundary, args.log_s)


def _surface_cov(spec):
    graph = lattice.surface_code_graph_analytic(spec)
    return engine.covariance_from_graph(graph)


def _kp(spec, args):
    return topo.kp_regions(spec, radius=getattr(args, "radius", None))


def cmd_build(args):
    spec = _spec(args)
    if args.kind == "cluster":
        graph = lattice.cluster_graph(spec)
        index_map = None
    elif args.kind == "surface-analytic":
        graph = lattice.surface_code_graph_analytic(spec)
        index_map = None
    else:  # surface-pipeline
        # 2-wide tori saturate wrapped links, so they are no surface code either
        if spec.boundary == "torus" and not (spec.even_parity and min(spec.rows, spec.cols) >= 4):
            raise ValidationError("surface-pipeline on a torus needs even rows and cols >= 4")
        graph, index_map = lattice.map_cluster_to_surface(spec)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(graph.to_json())
    print("modes: %d" % graph.n_modes)
    print("state: %s" % args.out)
    if index_map is not None:
        map_path = args.out + ".map.json"
        with open(map_path, "w", encoding="utf-8") as fh:
            json.dump({"kept": index_map}, fh)
        print("index map: %s" % map_path)
    return EXIT_OK


def cmd_tee(args):
    spec = _spec(args)
    cov = _surface_cov(spec)
    if args.method == "kp":
        regions = _kp(spec, args)
        value = topo.tee_kp(cov, regions)
    else:
        regions = topo.lw_regions(spec, inner=args.inner, width=args.width)
        value = topo.tee_lw(cov, regions)
    print(json.dumps({"log_s": spec.log_s, "method": args.method,
                      "tee": value, "geometry": regions.geometry}))
    return EXIT_OK


def cmd_tln(args):
    spec = _spec(args)
    cov = _surface_cov(spec)
    regions = _kp(spec, args)
    value = topo.tln_kp(cov, regions)
    print(json.dumps({"log_s": spec.log_s, "tln": value,
                      "geometry": regions.geometry}))
    return EXIT_OK


def cmd_tmi(args):
    engine._check_kappa(args.kappa)
    spec = _spec(args)
    cov_pure = _surface_cov(spec)
    regions = _kp(spec, args)
    cov = engine.thermal_scale(cov_pure, args.kappa)
    record = {"log_s": spec.log_s, "kappa": args.kappa,
              "tmi": topo.tmi(cov, regions), "geometry": regions.geometry}
    if args.lower:
        record["tmi_lower"] = topo.tmi_lower_bound(cov_pure, regions)
    print(json.dumps(record))
    return EXIT_OK


def _sweep_point(spec_base, log_s, kappas, args, regions):
    """Reports for one log s, one per kappa in `kappas`, sharing one
    covariance and one set of KP spectra of the pure state.  `regions` is
    the pair (KP regions, LW regions or None) the sweep built once; every
    point's U fills its values into the pattern of the lattice, whose batch
    plans every point shares."""
    spec = lattice.LatticeSpec(spec_base.rows, spec_base.cols,
                               spec_base.boundary, log_s)
    kp, lw = regions
    graph = lattice.surface_code_graph_analytic(spec)
    cov_pure = engine.covariance_from_graph(graph)
    geometry = dict(kp.geometry)
    metrics = set(args.metrics.split(","))
    path = "dense" if cov_pure._u is None else "factor" if cov_pure._cell is None else "torus"
    meta = {"path": path, "cond_u": graph._cond}
    shared = {}
    entropies = {}
    if metrics & {"tee_kp", "tln", "tmi", "tmi_lower"}:
        # the seven KP union spectra, memoised on cov_pure for the calls below
        names = ["".join(subset) for subset in topo.KP_SUBSETS]
        unions = engine._pure_spectra(cov_pure, kp.kp_unions)
        meta["kp_unions"] = {
            name: {"boundary": union.boundary, "rim": union.rim,
                   "n_above": union.n_above, "n_half": union.n_half}
            for name, union in zip(names, unions)}
        # pure-state entropy of each KP union, from the reduction tee_kp sums
        entropies = dict(zip(names, topo._kp_entropies(topo._kp_values(cov_pure, kp),
                                                       1.0).tolist()))
    if "tee_kp" in metrics:
        shared["tee_kp"] = topo.tee_kp(cov_pure, kp)
    if "tee_lw" in metrics:
        shared["tee_lw"] = topo.tee_lw(cov_pure, lw)
        geometry.update({"inner": args.inner, "width": args.width})
    if "tmi_lower" in metrics:
        shared["tmi_lower"] = topo.tmi_lower_bound(cov_pure, kp)
    if "tee_upper" in metrics:
        shared["tee_upper"] = topo.tee_upper_bound(spec.s)
    scaled = [(kappa, engine.thermal_scale(cov_pure, kappa)) for kappa in kappas]
    return [topo.TopoReport(log_s=log_s, kappa=kappa, geometry=dict(geometry),
                            spectra_meta=meta, region_entropies=entropies,
                            tln_kp=topo.tln_kp(cov, kp) if "tln" in metrics else None,
                            tmi=topo.tmi(cov, kp) if "tmi" in metrics else None,
                            **shared)
            for kappa, cov in scaled]


def _existing_points(path):
    done = set()
    if path and path != "-" and os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            for row in csv.reader(line for line in fh if not line.startswith("#")):
                if row and row[0] != "log_s":
                    done.add((row[0], row[-1]))
    return done


def cmd_sweep(args):
    if args.steps < 1:
        raise ValidationError("steps must be >= 1")
    if args.log_s_min > args.log_s_max:
        raise ValidationError("log-s-min must not exceed log-s-max")
    spec_base = lattice.LatticeSpec(args.rows, args.cols, args.boundary,
                                    args.log_s_min)
    lattice.check_log_s(args.log_s_max)
    if args.steps == 1:
        grid = [args.log_s_min]
    else:
        grid = list(np.linspace(args.log_s_min, args.log_s_max, args.steps))
    metrics = set(args.metrics.split(","))
    unknown = metrics - set(SWEEP_COLUMNS[1:-1])
    if unknown:
        raise ValidationError("unknown metrics: %s" % ",".join(sorted(unknown)))
    try:
        kappas = [engine._check_kappa(float(k)) for k in args.kappas.split(",")]
    except ValueError:
        raise ValidationError("kappas must be comma-separated numbers")
    # the regions depend on the lattice only: built once, and a region that
    # does not fit, or a torus with no closed form, is refused before any
    # point runs; a sweep with no point left reads no pattern
    kp = _kp(spec_base, args)
    lw = (topo.lw_regions(spec_base, inner=args.inner, width=args.width)
          if "tee_lw" in metrics else None)
    # rows are keyed as printed, so each key runs once, at its first
    # (log s, kappa) in grid and --kappas order, and a rerun skips the rows
    # already in --out
    done = _existing_points(args.out)
    keys, pending = set(done), {}
    for log_s in grid:
        for kappa in kappas:
            key = ("%.12g" % log_s, "%.12g" % kappa)
            if key not in keys:
                keys.add(key)
                pending.setdefault(log_s, []).append(kappa)
    if pending:
        lattice._surface_code_pattern(spec_base)  # its checks, before any point

    mode = "a" if done else "w"
    failures = []
    with contextlib.ExitStack() as stack:
        stream, writer = stack.enter_context(
            _csv_out(args.out, None if done else SWEEP_COLUMNS, mode))
        json_stream = (stack.enter_context(open(args.json_out, mode, encoding="utf-8"))
                       if args.json_out else None)
        # the points run one after another, in grid order, and each point's
        # rows go out as soon as it is done, so an interrupted sweep keeps
        # them and a rerun resumes after them
        for log_s, ks in pending.items():
            try:
                reports = _sweep_point(spec_base, log_s, ks, args, (kp, lw))
            except (GaussTopoError, np.linalg.LinAlgError) as exc:
                failures.append((log_s, exc))
                continue
            for report in reports:
                record = report.to_dict()
                writer.writerow(["" if record[c] is None else "%.12g" % record[c]
                                 for c in SWEEP_COLUMNS])
                if json_stream:
                    json_stream.write(json.dumps(record) + "\n")
            stream.flush()
            if json_stream:
                json_stream.flush()
    for log_s, exc in failures:
        for kappa in pending[log_s]:
            print("point log_s=%.12g kappa=%.12g failed: %s" % (log_s, kappa, exc),
                  file=sys.stderr)
    return EXIT_NUMERICAL if failures else EXIT_OK


def cmd_spectrum(args):
    modes = spectra.normal_modes(args.n, args.m, np.exp(lattice.check_log_s(args.log_s)))
    asym = modes.gap_asymptotic
    ratio = modes.gap / asym if asym else float("nan")
    header = ["n", "m", "log_s", "gap", "gap_asymptotic", "ratio"]
    with _csv_out(args.out, header) as (_, writer):
        writer.writerow([args.n, args.m, "%.12g" % args.log_s, "%.12g" % modes.gap,
                         "%.12g" % asym, "%.12g" % ratio])
    return EXIT_OK


def cmd_correlations(args):
    spec = _spec(args)
    cov = _surface_cov(spec)
    bound = corr.dms_bound(spec.s)
    seps, vals = corr.axis_samples(cov, spec, max_separation=args.max_separation,
                                   axis=args.axis)
    with _csv_out(args.out, ["separation", "correlation", "bound_value"]) as (_, writer):
        for d, v in zip(seps, vals):
            writer.writerow(["%.12g" % d, "%.12g" % v, "%.12g" % bound.envelope(d)])
    if args.fit:
        a, xi_a, b, xi_b, residual = corr.fit_correlation_length(seps, vals)
        print(json.dumps({"a": a, "xi_a": xi_a, "b": b, "xi_b": xi_b,
                          "residual": residual, "axis": args.axis,
                          "log_s": spec.log_s}))
    return EXIT_OK


def cmd_bounds(args):
    spec = _spec(args)
    cov = _surface_cov(spec)
    report = corr.verify_bound(cov, spec)
    print(json.dumps(report))
    return EXIT_OK if report["n_violations"] == 0 else EXIT_THRESHOLD


def cmd_upper_bound(args):
    value = topo.tee_upper_bound(np.exp(lattice.check_log_s(args.log_s)))
    print(json.dumps({"log_s": args.log_s, "tee_upper": value}))
    return EXIT_OK


def _build_flags(p):
    _add_lattice_flags(p)
    p.add_argument("--kind", choices=("cluster", "surface-analytic",
                                      "surface-pipeline"), default="cluster")
    p.add_argument("--out", required=True)


def _map_flags(p):
    _add_lattice_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(kind="surface-pipeline")


def _tee_flags(p):
    _add_lattice_flags(p)
    p.add_argument("--method", choices=("kp", "lw"), default="kp")
    p.add_argument("--radius", type=float, default=None)
    p.add_argument("--inner", type=float, default=6)
    p.add_argument("--width", type=float, default=3)


def _tln_flags(p):
    _add_lattice_flags(p)
    p.add_argument("--radius", type=float, default=None)


def _tmi_flags(p):
    _add_lattice_flags(p)
    p.add_argument("--radius", type=float, default=None)
    p.add_argument("--kappa", type=float, default=1.0)
    p.add_argument("--lower", action="store_true")


def _sweep_flags(p):
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--cols", type=int, required=True)
    p.add_argument("--boundary", choices=lattice.BOUNDARIES, default="torus")
    p.add_argument("--log-s-min", type=float, required=True)
    p.add_argument("--log-s-max", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--kappas", default="1")
    p.add_argument("--radius", type=float, default=None)
    p.add_argument("--inner", type=float, default=6)
    p.add_argument("--width", type=float, default=3)
    p.add_argument("--metrics", default="tee_kp,tln,tmi,tmi_lower,tee_upper")
    p.add_argument("--out", default="-")
    p.add_argument("--json-out", default=None)


def _spectrum_flags(p):
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--log-s", type=float, default=0.0)
    p.add_argument("--out", default="-")


def _correlations_flags(p):
    _add_lattice_flags(p, boundary_default="planar")
    p.add_argument("--axis", choices=("row", "col", "diagonal", "antidiagonal"),
                   default="diagonal")
    p.add_argument("--max-separation", type=int, default=None)
    p.add_argument("--fit", action="store_true")
    p.add_argument("--out", default="-")


def _upper_bound_flags(p):
    p.add_argument("--log-s", type=float, required=True)


# subcommand: (help, handler, flags)
_COMMANDS = {
    "build": ("serialize a cluster or surface-code state", cmd_build, _build_flags),
    "map": ("run the measurement pipeline on a cluster", cmd_build, _map_flags),
    "tee": ("topological entanglement entropy", cmd_tee, _tee_flags),
    "tln": ("topological log-negativity", cmd_tln, _tln_flags),
    "tmi": ("topological mutual information", cmd_tmi, _tmi_flags),
    "sweep": ("evaluate diagnostics over a squeezing sweep", cmd_sweep, _sweep_flags),
    "spectrum": ("normal-mode gap of the torus Hamiltonian", cmd_spectrum, _spectrum_flags),
    "correlations": ("axis correlations and decay fit", cmd_correlations, _correlations_flags),
    "bounds": ("verify the analytic decay bound", cmd_bounds, _add_lattice_flags),
    "upper-bound": ("closed-form TEE upper bound", cmd_upper_bound, _upper_bound_flags),
}


def build_parser():
    parser = argparse.ArgumentParser(prog="gausstopo",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, func, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        flags(p)
        p.set_defaults(func=func)
    return parser


# built on first use, so importing the module builds no parser
_parser = functools.cache(build_parser)


def main(argv=None):
    args = _parser().parse_args(sys.argv[1:] if argv is None else list(argv))
    try:
        return args.func(args)
    except ValidationError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_VALIDATION
    except (GaussTopoError, np.linalg.LinAlgError) as exc:
        print("numerical failure: %s" % exc, file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
