"""dicke-ed benchmark: cold CLI invocations, checked against stored references.

    python3 perfbench/run.py --workload critical_solve --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  Each timed run is one fresh interpreter
(perfbench/worker.py) that imports ``dicke_ed.cli`` from ``src/`` and calls
``cli.main(argv)`` once with an empty result store, as a CLI user pays for it,
then repeats the same call against the store it filled (the cache-hit path).
The load is a closed loop: one invocation at a time, ``--workers 1``, one
BLAS thread.  The CLI gets the same Lanczos seed (``CLI_SEED``) in every
run, so every run does the same work; ``--seed`` only names the run's files.
A new timed run starts while less than ``--seconds`` have passed, so there
is at least one, and the metrics are medians over the runs; set-up is
sampled several times per invocation.

``--trace 1`` adds one traced cold run whose spans are written to
perfbench/out/ and reports the per-layer metrics instead of the end-to-end
ones.  The last line of stdout is the JSON result; exit code 1 means nothing
could be measured (no program in the checkout, or a run that was not cold).
"""

import argparse
import csv
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = {
    "critical_solve": ["solve", "--n-atoms", "1024", "--omega", "1", "--delta", "1",
                       "--lambda", "0.5"],
    "adiabatic_series": ["scaling", "--observable", "energy", "--D", "10", "--N", "16..128"],
    "basis_compare": ["compare", "--n-atoms", "32", "--lambdas", "0:2:0.2",
                      "--cases", "dcs:6,dfs:6,dfs:45,dfs:100"],
}
# The Lanczos start vector is seeded the same in every run: its seed changes
# the iteration count, and the reorthogonalization cost grows with its square.
CLI_SEED = 0
# A cache hit takes a few ms and its speed differs by about 10% from one
# interpreter to the next, so it is sampled briefly in many processes.
HIT_WORKERS = 10
HIT_SECONDS = 0.15
RUN_LIMIT_S = 170  # a whole invocation must end within 180 s
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# Per-layer shares the workloads were chosen for; each is printed as
# confirmed or refuted by the traced run.
PREDICTIONS = {
    "critical_solve": (
        ("eigen.solve_s >= 90% of wall", lambda m, w: m["eigen.solve_s"] >= 0.9 * w),
        ("eigen.solve_s + hamiltonian.matvec_s (Lanczos) >= 90% of wall",
         lambda m, w: m["eigen.solve_s"] + m["hamiltonian.matvec_s"] >= 0.9 * w),
        ("dcs_basis.kernel_s < 1% of wall", lambda m, w: m["dcs_basis.kernel_s"] < 0.01 * w),
    ),
    "adiabatic_series": (
        ("dcs_basis.kernel_s >= 25% of wall",
         lambda m, w: m["dcs_basis.kernel_s"] >= 0.25 * w),
    ),
    "basis_compare": (
        ("hamiltonian.to_dense_s >= 25% of wall",
         lambda m, w: m["hamiltonian.to_dense_s"] >= 0.25 * w),
        ("eigen.lanczos_solves == 0", lambda m, w: m["eigen.lanczos_solves"] == 0),
        ("dcs_basis.kernel_s < 1% of wall", lambda m, w: m["dcs_basis.kernel_s"] < 0.01 * w),
    ),
}
COMPUTED = ("eigen.reorth_gflop", "eigen.krylov_mb", "trace.overhead_est_s")


class BenchError(Exception):
    """The benchmark cannot produce a trustworthy result."""


def parse_rows(workload, text):
    """Output rows keyed as in reference.json: key -> (E0, n_tr, status)."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    rows = {}
    for row in csv.DictReader(lines):
        if workload == "critical_solve":
            rows[f"N={row['N']}"] = (float(row["E0"]), int(row["Ntr_used"]), "ok")
        elif workload == "adiabatic_series":
            # value = |E0/(N*D*omega) + 1/2| with omega = 1 and E0 below -N*D/2
            n, big_d = int(row["N"]), float(row["D"])
            e0 = -n * big_d * (0.5 + float(row["value"]))
            rows[f"N={row['N']}"] = (e0, int(row["ntr_used"]), "ok")
        else:
            key = f"lambda={row['lambda']},{row['basis']}:{row['n_tr']}"
            rows[key] = (float(row["E0"]), int(row["n_tr"]), row["status"])
    return rows


def count_failures(workload, run, reference):
    """Expected points of one run that are missing, not ok, or off reference."""
    expected = reference["workloads"][workload]
    tol = reference["e0_rel_tol"]
    try:
        got = parse_rows(workload, run["stdout"]) if run["code"] == 0 else {}
    except (KeyError, ValueError):
        got = {}
    failed = 0
    for key, want in expected.items():
        row = got.get(key)
        ok = (row is not None and row[2] == "ok" and row[1] == want["Ntr_used"]
              and abs(row[0] - want["E0"]) <= tol * max(abs(want["E0"]), 1.0))
        failed += not ok
    return failed, sorted(set(got) - set(expected))


def spawn(spec, deadline):
    """Start a worker; return (set-up seconds, its result dict)."""
    env = dict(os.environ, PYTHONPATH=str(SRC), **BLAS_THREADS)
    cmd = [sys.executable, str(HERE / "worker.py"), json.dumps(spec)]
    t0 = perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as proc:
        try:
            ready = proc.stdout.readline()
            setup = perf_counter() - t0
            out, err = proc.communicate(timeout=max(deadline - perf_counter(), 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"run did not end within {RUN_LIMIT_S} s") from None
    if ready != "ready\n" or proc.returncode != 0:
        raise BenchError(f"worker failed (exit {proc.returncode}): {err.strip()[-2000:]}")
    return setup, json.loads(out.splitlines()[-1])


def git_state():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=30)

    try:
        head = git("rev-parse", "HEAD")
        if head.returncode != 0:
            return {"commit": None, "dirty": None}
        dirty = git("status", "--porcelain", "--untracked-files=no").stdout.strip() != ""
        return {"commit": head.stdout.strip(), "dirty": dirty}
    except (OSError, subprocess.SubprocessError):
        return {"commit": None, "dirty": None}


def measure(workload, seed, seconds, trace=False):
    """Cold runs, started while less than ``seconds`` have passed (at least one);
    then HIT_WORKERS fresh interpreters that only repeat the last run against
    the store it filled; with ``trace``, one more cold run, traced.

    Returns (set-up samples, cold runs, hit-only runs, traced run or None).
    """
    argv = WORKLOADS[workload] + ["--seed", str(CLI_SEED), "--workers", "1"]
    deadline = perf_counter() + RUN_LIMIT_S
    OUT.mkdir(exist_ok=True)
    stores = []

    def run(mode, traced=False):
        if mode == "cold":
            stores.append(tempfile.mkdtemp(prefix=f"store-{workload}-", dir=OUT))
        return spawn({
            "mode": mode, "src": str(SRC), "store": stores[-1], "argv": argv,
            "trace": traced, "hit_seconds": 0.0 if traced else HIT_SECONDS,
            "span_file": str(OUT / f"spans-{workload}-seed{seed}.jsonl"),
        }, deadline)

    try:
        setups, runs, hits = [], [], []
        start = perf_counter()
        while not runs or perf_counter() - start < seconds:
            setup, result = run("cold")
            setups.append(setup)
            runs.append(result)
        for _ in range(HIT_WORKERS if runs[-1]["code"] == 0 else 0):
            setup, result = run("hits")
            setups.append(setup)
            hits.append(result)
        traced = run("cold", traced=True)[1] if trace else None
        return setups, runs, hits, traced
    finally:
        for store in stores:
            shutil.rmtree(store, ignore_errors=True)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "dicke_ed" / "cli.py").is_file():
        raise BenchError(f"no program to measure: {SRC / 'dicke_ed' / 'cli.py'} is missing")
    reference = json.loads((HERE / "reference.json").read_text())
    load_start = os.getloadavg()
    setups, runs, hits, traced = measure(args.workload, args.seed, args.seconds, args.trace)
    if traced and args.workload == "adiabatic_series" \
            and traced["layer_metrics"]["dcs_basis.kernel_cold"][0] == 0:
        raise BenchError("traced run built no overlap table; refusing a warm run")

    n_points = len(reference["workloads"][args.workload])
    attempted = failed = 0
    extra = []
    cold = runs + ([traced] if traced else [])
    for run in cold:
        f, x = count_failures(args.workload, run, reference)
        attempted += n_points
        failed += f
        extra += x
    hits_ok = all(r["hit_ok"] and r["hit_out"] == r["stdout"] for r in cold) and all(
        h["hit_ok"] and h["hit_out"] == runs[-1]["stdout"] for h in hits)
    hit_s = [t for r in runs + hits for t in r["hit_s"]]
    correct = failed == 0 and not extra and hits_ok

    env = {
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "loadavg_start": load_start, "loadavg_end": os.getloadavg(),
        **runs[0]["env"], "blas_threads": BLAS_THREADS,
        "git": git_state(),
    }
    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed}: {len(runs)} cold run(s), "
          f"{len(setups)} set-up samples, "
          f"{len(hit_s)} cache hits")
    if extra:
        print(f"unexpected output rows: {extra}")
    if not hits_ok:
        print("cache hit did not re-emit the cold run's output")
    for run in runs:
        if run["code"] != 0:
            print(f"run exit {run['code']}: {run['stderr'].strip()[-500:]}")

    walls = [r["wall_s"] for r in runs]
    wall = statistics.median(walls)
    print("cold runs wall_s " + " ".join(f"{w:.4f}" for w in walls))
    if not args.trace:
        metrics = {
            "wall_s": (wall, "s"),
            "points_per_s": (n_points / wall, "1/s"),
            "setup_s": (statistics.median(setups), "s"),
            "cache_hit_s": (statistics.median(hit_s) if hit_s else math.nan, "s"),
            "peak_rss_mb": (statistics.median(r["rss_mb"] for r in runs), "MB"),
        }
    else:
        metrics = dict(traced["layer_metrics"])
        metrics["trace.wall_s"] = (traced["wall_s"], "s")
        metrics["trace.overhead_s"] = (traced["wall_s"] - wall, "s")
    for name, (value, unit) in metrics.items():
        label = " (computed)" if name in COMPUTED else ""
        print(f"{name} {value:.6g} {unit}{label}")
    print(f"error_frac {failed / attempted:.6g} ({failed} of {attempted} points failed)")

    if args.trace:
        if traced["trace_missing"]:
            print(f"not traced (names gone): {', '.join(traced['trace_missing'])}")
        layer_self = traced["layer_self"]
        for layer, secs in layer_self.items():
            print(f"self {layer} {secs:.6g} s ({secs / traced['wall_s']:.1%} of traced wall)")
        print(f"self unaccounted {traced['wall_s'] - sum(layer_self.values()):.6g} s")
        plain = {k: v for k, (v, _) in metrics.items()}
        for text, holds in PREDICTIONS[args.workload]:
            verdict = "confirmed" if holds(plain, traced["wall_s"]) else "REFUTED"
            print(f"prediction {args.workload}: {text}: {verdict}")
        print(f"spans written to {OUT / f'spans-{args.workload}-seed{args.seed}.jsonl'}")

    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        sys.stderr.write(f"benchmark: {exc}\n")
        sys.exit(1)
