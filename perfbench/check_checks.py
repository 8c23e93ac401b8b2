"""Check the benchmark's correctness checks: perturb real outputs on purpose
(a TEE offset by 1e-3, a dropped sweep CSV row, a pipeline U entry offset by
1e-6) and require that each run reports a failed output.

    python3 perfbench/check_checks.py

Exits 1 when a perturbation goes unnoticed.
"""

import sys

from report import run_workload

CASES = (("kp36", "tee_offset"), ("sweep24", "tee_offset"),
         ("sweep24", "drop_row"), ("pipeline_corr", "u_offset"))


def main():
    ok = True
    for workload, injection in CASES:
        code, result = run_workload(workload, 1, 1, "--trace", "0", "--inject", injection)
        caught = result is not None and result["failed"] > 0 and not result["correct"]
        print("%-14s %-11s %s (%s)" % (workload, injection, "caught" if caught else "MISSED",
                                       result and "%d of %d outputs failed"
                                       % (result["failed"], result["attempted"])))
        ok &= caught
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
