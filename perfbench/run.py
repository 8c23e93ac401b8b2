"""gausstopo benchmark: one workload per process.

    python3 perfbench/run.py --workload kp36 --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from ./src.  setup_s
is the median of three set-ups, each a fresh interpreter timed from spawn to
exit that imports the package, generates the inputs from the seed and warms
up on a small lattice.  This process then does the same set-up untimed, and
the timed loop runs passes until --seconds have elapsed (at least one), checks every
pass's outputs outside the timed region and prints, as its last line, one
JSON object {"correct", "attempted", "failed", "metrics"}.  With --trace 0
the metrics are the end-to-end ones; with --trace 1 each pass is run once
untraced and once traced, and the metrics are the per-layer ones.
"""

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

WORKLOADS = ("kp36", "pipeline_corr", "sweep24")
SETUP_REPEATS = 3
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SET_UP = "import sys; sys.path[:0] = [%r, %r]; import workloads; workloads.set_up(%%r, %%d, %%r)" % (
    str(ROOT / "src"), str(HERE))


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject", default=None,
                        choices=("tee_offset", "drop_row", "u_offset"),
                        help="perturb every pass's outputs before checking them, "
                             "to show that the checks catch it")
    return parser.parse_args()


class Tally:
    """Outputs attempted and failed; each failed check is one, and an
    exception fails every output of its pass."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = {}

    def add(self, results):
        for name, ok in results:
            self.attempted += 1
            if not ok:
                self.failed += 1
                self.failures[name] = self.failures.get(name, 0) + 1


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def main():
    args = parse_args()
    if not (ROOT / "src" / "gausstopo" / "__init__.py").is_file():
        print("error: %s has no src/gausstopo to benchmark" % ROOT, file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    from gausstopo import cli, correlations, engine, lattice, topo
    import envinfo
    import tracing
    import workloads

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)

    inject = None
    if args.inject is not None:
        targets, inject = workloads.INJECTIONS[args.inject]
        if args.workload not in targets:
            print("error: %s does not apply to %s" % (args.inject, args.workload),
                  file=sys.stderr)
            return 2

    # Each repetition runs the whole set-up in a fresh interpreter, so every
    # one pays the cold first-call costs.
    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c",
                        SET_UP % (args.workload, args.seed, str(out_dir))], check=True)
        setup_times.append(time.perf_counter() - start)
    setup_s = statistics.median(setup_times)
    work = workloads.set_up(args.workload, args.seed, str(out_dir))

    tracer = tracing.Tracer({"engine": engine, "topo": topo, "lattice": lattice,
                             "correlations": correlations, "cli": cli})
    tally = Tally()
    outs = []
    walls = {False: [], True: []}
    traced_cpu = 0.0

    def one_pass(k, traced):
        nonlocal traced_cpu
        gc.collect()  # the previous pass's garbage is not this pass's cost
        cpu0 = time.process_time()
        start = time.perf_counter()
        try:
            if traced:
                with tracer.installed():
                    out = work.run(k)
            else:
                out = work.run(k)
        except Exception:
            traceback.print_exc()
            out = None
        walls[traced].append(time.perf_counter() - start)
        if traced:
            traced_cpu += time.process_time() - cpu0
        if out is None:
            tally.add([("exception", False)] * work.outputs_per_pass)
            return
        if inject is not None:
            inject(out)
        tally.add(work.check(out))
        outs.append(out)

    measure_start = time.perf_counter()
    k = 0
    while k == 0 or time.perf_counter() - measure_start < args.seconds:
        if args.trace:
            # alternate which side of a pair goes first, so warm-up effects
            # do not land on one side of trace_overhead
            for traced in ((False, True) if k % 2 == 0 else (True, False)):
                one_pass(k, traced)
        else:
            one_pass(k, traced=False)
        k += 1
    tally.add(work.check_run(outs))

    print("env " + json.dumps(envinfo.environment(ROOT)))
    if outs:
        print("outputs " + json.dumps(work.record(outs[-1]), default=float))
    if tally.failures:
        print("failed checks " + json.dumps(tally.failures))

    untraced = walls[False]
    if args.trace:
        tracer.write(out_dir / ("trace-%s.jsonl" % args.workload))
        metrics = tracing.layer_metrics(tracer.spans, len(walls[True]), traced_cpu,
                                        sum(walls[True]), sum(untraced))
    else:
        q1, q3 = _quartiles(untraced)
        failed_frac = tally.failed / tally.attempted
        print("%s pass_s median %.4f s, quartiles %.4f / %.4f s, %d passes (%s); "
              "failed_frac %.4g (%d of %d outputs)"
              % (args.workload, statistics.median(untraced), q1, q3, len(untraced),
                 " ".join("%.3f" % t for t in untraced), failed_frac, tally.failed,
                 tally.attempted))
        metrics = {
            "setup_s": setup_s,
            "pass_s": statistics.median(untraced),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": 1.0 - failed_frac,
        }
    declared = bench["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        raise RuntimeError("metrics differ from BENCHMARK.json: %s"
                           % sorted(set(units) ^ set(metrics)))
    for name, value in metrics.items():
        print("%-40s %14.6g %s" % (name, value, units[name]))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
