"""Run every workload of BENCHMARK.json, each in its own process, and print
its end-to-end metrics by name with their units, plus failed_frac.

    python3 perfbench/report.py --seed 1

Exits 1 when a workload fails to produce a result or reports a failed output.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_workload(workload, seed, seconds, *extra):
    """Run one workload in a child process; returns (exit code, result or None)."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    except json.JSONDecodeError:
        result = None
    if result is None:
        sys.stderr.write(proc.stderr)
    return proc.returncode, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    ok = True
    for workload in (w["name"] for w in BENCH["workloads"]):
        code, result = run_workload(workload, args.seed, BENCH["run_seconds"], "--trace", "0")
        if result is None:
            print("%-14s no result (exit code %d)" % (workload, code))
            ok = False
            continue
        for name, metric in result["metrics"].items():
            print("%-14s %-12s %14.6g %s" % (workload, name, metric["value"], metric["unit"]))
        print("%-14s %-12s %14.6g ratio (%d of %d outputs)"
              % (workload, "failed_frac", result["failed"] / result["attempted"],
                 result["failed"], result["attempted"]))
        ok &= result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
