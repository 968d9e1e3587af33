"""Write perfbench/reference.json from the code in this checkout.

    python3 perfbench/capture_reference.py

Runs every workload cold once with CLI seed ``CLI_SEED`` and stores E0 and the
truncation (Ntr_used, or n_tr for compare cells) of each output row.  The
benchmark checks every later run against this file, within ``e0_rel_tol``,
so capture it only at a commit whose numbers are trusted.
"""

import json

from run import CLI_SEED, HERE, WORKLOADS, BenchError, git_state, measure, parse_rows

E0_REL_TOL = 1e-9


def main():
    reference = {"captured_at": git_state(), "cli_seed": CLI_SEED, "e0_rel_tol": E0_REL_TOL,
                 "workloads": {}}
    for workload in WORKLOADS:
        result = measure(workload, 0, 0.0)[1][0]
        rows = parse_rows(workload, result["stdout"]) if result["code"] == 0 else {}
        if not rows or any(status != "ok" for _, _, status in rows.values()):
            raise BenchError(f"{workload}: reference run failed (exit {result['code']})")
        reference["workloads"][workload] = {
            key: {"E0": e0, "Ntr_used": n_tr} for key, (e0, n_tr, _) in rows.items()
        }
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    main()
