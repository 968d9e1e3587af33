"""Command-line front end: solve, compare, converge, scaling.

Every command is deterministic given its configuration and seed.  Results are
CSV-only (first line a schema comment, then a header row, floats at 12
significant digits) and are persisted through :class:`ResultStore` with
config-digest deduplication: re-running an identical configuration is a cache
hit that re-emits the stored bytes.

Exit codes: 0 success, 2 configuration error (including a result store or
output path that cannot be read or written), 3 solver/fit failure,
4 dimension cap exceeded.
"""

import argparse
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .errors import ConfigError, ConvergenceError, DimensionCapError, FitError
from .hamiltonian import assemble_dcs, assemble_dfs, dump_coo, project_parity
from .eigen import ground_state
from .model import ModelParams, critical_coupling, params_from_mapping
from .observables import CSV_COLUMNS, DEFAULT_SCHEDULE, OBSERVABLES, converge, result_row
from .scaling import (
    MIN_SERIES_POINTS,
    SCALING_SCHEDULE,
    berry_deviation_series,
    concurrence_deviation_series,
    energy_deviation_series,
    extrapolate_exponent,
)
from .store import CSV_SCHEMA_VERSION, ResultStore, config_digest

__all__ = ["main", "build_parser", "RunConfig"]

CSV_BANNER = f"# dicke-ed csv v{CSV_SCHEMA_VERSION}"


@dataclass(frozen=True)
class RunConfig:
    """One command invocation, fully serializable.

    ``digest`` covers everything that can change the numbers; the output
    directory and worker count are carried but excluded (worker count only
    affects wall time, never values).
    """

    command: str
    options: dict
    out_dir: str | None = None
    workers: int = 1

    @property
    def digest(self) -> str:
        return config_digest({"command": self.command, **self.options})

    def as_dict(self) -> dict:
        return {
            "command": self.command,
            "options": self.options,
            "out_dir": self.out_dir,
            "workers": self.workers,
        }


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def csv_text(columns, rows) -> str:
    lines = [CSV_BANNER, ",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(row[c]) for c in columns))
    return "\n".join(lines) + "\n"


def parse_float_list(text: str) -> list[float]:
    """Comma list '0.1,1,10' or inclusive range 'a:b:step'."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError(f"range must be start:stop:step, got {text!r}")
        start, stop, step = (float(p) for p in parts)
        if step <= 0 or stop < start:
            raise ConfigError(f"bad range {text!r}")
        count = int(round((stop - start) / step))
        grid = [start + i * step for i in range(count + 1)]
        if grid[-1] > stop + 1e-12:
            grid.pop()
        return grid
    try:
        return [float(p) for p in text.split(",") if p.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad float list {text!r}") from exc


def parse_n_list(text: str) -> list[int]:
    """Comma list of sizes, or 'a..b' meaning doublings from a through b."""
    text = text.strip()
    if ".." in text:
        lo_s, hi_s = text.split("..", 1)
        lo, hi = int(lo_s), int(hi_s)
        if lo < 1 or hi < lo:
            raise ConfigError(f"bad size range {text!r}")
        out = []
        n = lo
        while n <= hi:
            out.append(n)
            n *= 2
        return out
    try:
        values = [int(p) for p in text.split(",") if p.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad size list {text!r}") from exc
    if any(v < 1 for v in values) or any(b <= a for a, b in zip(values, values[1:])):
        raise ConfigError(f"sizes must be positive and strictly increasing: {text!r}")
    return values


def parse_schedule(text: str) -> tuple:
    try:
        values = tuple(int(p) for p in text.split(",") if p.strip())
    except ValueError as exc:
        raise ConfigError(f"bad truncation schedule {text!r}") from exc
    if not values or any(v < 0 for v in values) or any(
        b <= a for a, b in zip(values, values[1:])
    ):
        raise ConfigError(f"schedule must be strictly increasing and >= 0: {text!r}")
    return values


def parse_cases(text: str) -> list[tuple]:
    out = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        try:
            basis, ntr_s = item.split(":")
            basis = basis.strip().lower()
            ntr = int(ntr_s)
        except ValueError as exc:
            raise ConfigError(f"case must look like dcs:6 or dfs:100, got {item!r}") from exc
        if basis not in ("dcs", "dfs") or ntr < 0:
            raise ConfigError(f"bad case {item!r}")
        out.append((basis, ntr))
    if not out:
        raise ConfigError("empty case list")
    return out


def read_config_file(path: str) -> dict:
    """Flat key=value file; '#' comments; errors cite the line number."""
    mapping = {}
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value, got {raw.rstrip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ConfigError(f"{path}:{lineno}: empty key or value")
        if key in mapping:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        mapping[key] = value
    return mapping


_MODEL_KEYS = ("n_atoms", "omega", "delta", "lambda", "alpha")


def _params_from_args(args) -> ModelParams:
    mapping = {}
    if getattr(args, "config", None):
        file_map = read_config_file(args.config)
        unknown = set(file_map) - set(_MODEL_KEYS)
        if unknown:
            raise ConfigError(
                f"{args.config}: unknown key(s) {', '.join(sorted(unknown))}"
            )
        mapping.update(file_map)
    # explicit flags override the file
    if args.n_atoms is not None:
        mapping["n_atoms"] = args.n_atoms
    if args.omega is not None:
        mapping["omega"] = args.omega
    if args.delta is not None:
        mapping["delta"] = args.delta
    if args.lam is not None:
        mapping["lambda"] = args.lam
    if getattr(args, "alpha", None) is not None:
        if args.lam is not None:
            raise ConfigError("give either --lambda or --alpha, not both")
        mapping.pop("lambda", None)
        mapping["alpha"] = args.alpha
    return params_from_mapping(mapping)


def _add_common(sub):
    sub.add_argument("--out-dir", default=None,
                     help="result store root (default $DICKE_ED_RESULTS or ./results)")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--workers", type=int, default=os.cpu_count() or 1,
                     help="parallel parameter points; 1 = bit-exact reproducibility")
    sub.add_argument("--solver-tol", type=float, default=1e-10)
    sub.add_argument("--max-dim", type=int, default=None,
                     help="override the matrix dimension cap")
    sub.add_argument("--dense-oracle", action="store_true",
                     help="force dense diagonalization (small systems only)")


def _add_model(sub):
    sub.add_argument("--n-atoms", type=int, default=None)
    sub.add_argument("--omega", type=float, default=None)
    sub.add_argument("--delta", type=float, default=None)
    sub.add_argument("--lambda", dest="lam", type=float, default=None)
    sub.add_argument("--alpha", type=float, default=None)
    sub.add_argument("--config", default=None, help="flat key=value parameter file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dicke-ed",
        description="Exact diagonalization of the finite-size Dicke model "
                    "in a displaced-Fock basis.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    solve = subs.add_parser("solve", help="converge one parameter point, print a CSV row")
    _add_model(solve)
    _add_common(solve)
    solve.add_argument("--threshold", type=float, default=1e-6)
    solve.add_argument("--ntr-schedule", default=None,
                       help="comma list, default " + ",".join(map(str, DEFAULT_SCHEDULE)))
    solve.add_argument("--track", default="e0",
                       help="comma list of observables the truncation loop must "
                            "settle, from " + ", ".join(OBSERVABLES))
    solve.add_argument("--parity", choices=("even", "odd", "full"), default="even")
    solve.add_argument("--dump-matrix", default=None,
                       help="write the assembled matrix as 'row col value' lines")

    comp = subs.add_parser("compare", help="displaced vs bare basis over a coupling grid")
    _add_model(comp)
    _add_common(comp)
    comp.add_argument("--lambdas", required=True, help="comma list or start:stop:step")
    comp.add_argument("--cases", default="dcs:6,dfs:6,dfs:45,dfs:100",
                      help="comma list of basis:n_tr cells")
    comp.add_argument("--parity", choices=("even", "odd", "full"), default="even")

    conv = subs.add_parser("converge", help="truncation-convergence maps")
    _add_model(conv)
    _add_common(conv)
    conv.add_argument("--lambdas", default=None, help="coupling grid (fixed-N mode)")
    conv.add_argument("--ntr-list", default="4,6,8",
                      help="truncations whose deviation from converged is mapped")
    conv.add_argument("--at-critical", action="store_true",
                      help="sweep N at the critical coupling instead of sweeping lambda")
    conv.add_argument("--N", dest="n_range", default=None,
                      help="system sizes for --at-critical (comma list or a..b doublings)")
    conv.add_argument("--threshold", type=float, default=1e-6,
                      help="convergence target defining the required truncation")

    scal = subs.add_parser("scaling", help="finite-size scaling series and exponents")
    _add_common(scal)
    scal.add_argument("--observable", choices=("energy", "berry", "concurrence"),
                      required=True)
    scal.add_argument("--D", dest="big_d", required=True,
                      help="comma list of delta/omega ratios")
    scal.add_argument("--N", dest="n_range", default="16..1024",
                      help="system sizes (comma list or a..b doublings)")
    scal.add_argument("--omega", type=float, default=1.0)
    scal.add_argument("--threshold", type=float, default=None,
                      help="per-point convergence threshold (default 1e-8 energy, 1e-6 rest)")
    scal.add_argument("--c-inf", default="fit",
                      help="'fit' or an explicit thermodynamic concurrence value")
    return parser


def _emit(store: ResultStore, cfg: RunConfig, files: dict, wall_s: float) -> None:
    """Persist output files + manifest entry, then print the primary file.

    ``files`` maps file-name suffixes to contents, the primary file first.
    """
    stem = store.output_stem(cfg.command, cfg.digest)
    for suffix, text in files.items():
        store.write_text(stem + suffix, text)
    store.record(cfg.digest, cfg.command, [stem + suffix for suffix in files],
                 wall_s, cfg.as_dict())
    sys.stdout.write(next(iter(files.values())))


def _cache_hit(store: ResultStore, cfg: RunConfig) -> bool:
    entry = store.lookup(cfg.digest)
    if entry is None:
        return False
    primary = entry["files"][0]
    sys.stderr.write(f"cache hit: {cfg.digest} ({entry['timestamp']})\n")
    sys.stdout.write(store.read_text(primary))
    return True


def cmd_solve(args) -> int:
    params = _params_from_args(args)
    schedule = parse_schedule(args.ntr_schedule) if args.ntr_schedule else DEFAULT_SCHEDULE
    track = tuple(t.strip() for t in args.track.split(",") if t.strip())
    cfg = RunConfig(
        command="solve",
        options={
            "n_atoms": params.n_atoms, "omega": params.omega,
            "delta": params.delta, "lambda": params.lam,
            "threshold": args.threshold, "schedule": list(schedule),
            "track": list(track), "parity": args.parity, "seed": args.seed,
            "solver_tol": args.solver_tol, "dense": bool(args.dense_oracle),
        },
        out_dir=args.out_dir, workers=args.workers,
    )
    store = ResultStore(args.out_dir)
    if _cache_hit(store, cfg):
        return 0
    t0 = time.monotonic()
    res = converge(
        params, threshold=args.threshold, schedule=schedule, track=track,
        sector=args.parity, solver_tol=args.solver_tol, seed=args.seed,
        dense=args.dense_oracle, max_dim=args.max_dim,
    )
    text = csv_text(CSV_COLUMNS, [result_row(res)])
    if args.dump_matrix:
        h = assemble_dcs(params, res.n_tr_used, max_dim=args.max_dim)
        with open(args.dump_matrix, "w") as fh:
            dump_coo(h, fh)
    _emit(store, cfg, {".csv": text}, time.monotonic() - t0)
    return 0


def _compare_cell(job) -> dict:
    (n_atoms, omega, delta, lam, basis, n_tr, parity, seed, solver_tol,
     dense, max_dim) = job
    row = {
        "lambda": lam, "basis": basis, "n_tr": n_tr,
        "E0": math.nan, "E0_scaled": math.nan, "status": "ok",
    }
    try:
        params = ModelParams(n_atoms, omega, delta, lam)
        assemble = assemble_dcs if basis == "dcs" else assemble_dfs
        h = assemble(params, n_tr, max_dim=max_dim)
        if parity != "full":
            h = project_parity(h, parity)
        gs = ground_state(h, tol=solver_tol, seed=seed, dense=dense)
        row["E0"] = gs.energy
        row["E0_scaled"] = gs.energy / (params.j * params.delta)
    except (ConvergenceError, DimensionCapError, ValueError) as exc:
        row["status"] = f"error: {type(exc).__name__}"
    return row


def cmd_compare(args) -> int:
    params = _params_from_args(args)
    lambdas = parse_float_list(args.lambdas)
    cases = parse_cases(args.cases)
    cfg = RunConfig(
        command="compare",
        options={
            "n_atoms": params.n_atoms, "omega": params.omega,
            "delta": params.delta, "lambdas": lambdas,
            "cases": [list(c) for c in cases], "parity": args.parity,
            "seed": args.seed, "solver_tol": args.solver_tol,
            "dense": bool(args.dense_oracle),
        },
        out_dir=args.out_dir, workers=args.workers,
    )
    store = ResultStore(args.out_dir)
    if _cache_hit(store, cfg):
        return 0
    t0 = time.monotonic()
    jobs = [
        (params.n_atoms, params.omega, params.delta, lam, basis, n_tr,
         args.parity, args.seed, args.solver_tol, bool(args.dense_oracle),
         args.max_dim)
        for lam in lambdas for (basis, n_tr) in cases
    ]
    rows = _run_jobs(_compare_cell, jobs, args.workers)
    columns = ("lambda", "basis", "n_tr", "E0", "E0_scaled", "status")
    text = csv_text(columns, rows)
    _emit(store, cfg, {".csv": text}, time.monotonic() - t0)
    return 0


def _converge_lambda_point(job) -> list:
    (n_atoms, omega, delta, lam, ntr_list, threshold, seed, solver_tol) = job
    params = ModelParams(n_atoms, omega, delta, lam)
    ref = converge(
        params, threshold=min(threshold, 1e-8), schedule=SCALING_SCHEDULE,
        track=("e0",), solver_tol=solver_tol, seed=seed,
    )
    e_ref = ref.energy
    rows = []
    for n_tr in ntr_list:
        h = project_parity(assemble_dcs(params, n_tr), "even")
        gs = ground_state(h, tol=solver_tol, seed=seed)
        rows.append({
            "lambda": lam, "n_tr": n_tr, "E0": gs.energy, "E0_ref": e_ref,
            "rel_dev": abs((gs.energy - e_ref) / e_ref),
        })
    return rows


def cmd_converge(args) -> int:
    store = ResultStore(args.out_dir)
    t0 = time.monotonic()
    if args.at_critical:
        if not args.n_range:
            raise ConfigError("--at-critical needs --N")
        n_list = parse_n_list(args.n_range)
        omega = args.omega if args.omega is not None else 1.0
        delta = args.delta if args.delta is not None else 1.0
        cfg = RunConfig(
            command="converge",
            options={
                "mode": "at_critical", "omega": omega,
                "delta": delta, "n_list": n_list,
                "threshold": args.threshold, "seed": args.seed,
                "solver_tol": args.solver_tol,
            },
            out_dir=args.out_dir, workers=args.workers,
        )
        if _cache_hit(store, cfg):
            return 0
        lam_c = critical_coupling(omega, delta)
        rows = []
        for n in n_list:
            res = converge(
                ModelParams(n, omega, delta, lam_c),
                threshold=args.threshold, schedule=SCALING_SCHEDULE,
                track=("e0",), solver_tol=args.solver_tol, seed=args.seed,
            )
            rows.append({
                "N": n, "lambda": lam_c, "ntr_used": res.n_tr_used,
                "E0": res.energy,
            })
        text = csv_text(("N", "lambda", "ntr_used", "E0"), rows)
        _emit(store, cfg, {".csv": text}, time.monotonic() - t0)
        used = [r["ntr_used"] for r in rows]
        mono = all(b <= a for a, b in zip(used, used[1:]))
        sys.stderr.write(f"required n_tr {used} non-increasing: {mono}\n")
        return 0

    if not args.lambdas:
        raise ConfigError("converge needs --lambdas (or --at-critical with --N)")
    params = _params_from_args(args)
    lambdas = parse_float_list(args.lambdas)
    ntr_list = list(parse_schedule(args.ntr_list))
    cfg = RunConfig(
        command="converge",
        options={
            "mode": "lambda_map", "n_atoms": params.n_atoms,
            "omega": params.omega, "delta": params.delta,
            "lambdas": lambdas, "ntr_list": ntr_list,
            "threshold": args.threshold, "seed": args.seed,
            "solver_tol": args.solver_tol,
        },
        out_dir=args.out_dir, workers=args.workers,
    )
    if _cache_hit(store, cfg):
        return 0
    jobs = [
        (params.n_atoms, params.omega, params.delta, lam, ntr_list,
         args.threshold, args.seed, args.solver_tol)
        for lam in lambdas
    ]
    nested = _run_jobs(_converge_lambda_point, jobs, args.workers)
    rows = [row for group in nested for row in group]
    text = csv_text(("lambda", "n_tr", "E0", "E0_ref", "rel_dev"), rows)
    _emit(store, cfg, {".csv": text}, time.monotonic() - t0)
    lam_c = critical_coupling(params.omega, params.delta)
    for n_tr in ntr_list:
        sub = [r for r in rows if r["n_tr"] == n_tr]
        peak = max(sub, key=lambda r: r["rel_dev"])
        sys.stderr.write(
            f"deviation peak n_tr={n_tr}: lambda={peak['lambda']:.6g} "
            f"(lambda/lambda_c={peak['lambda'] / lam_c:.4f})\n"
        )
    return 0


_SERIES_BUILDERS = {
    "energy": energy_deviation_series,
    "berry": berry_deviation_series,
    "concurrence": concurrence_deviation_series,
}


def cmd_scaling(args) -> int:
    d_list = parse_float_list(args.big_d)
    n_list = parse_n_list(args.n_range)
    if len(n_list) < MIN_SERIES_POINTS:
        raise ConfigError(f"scaling needs at least {MIN_SERIES_POINTS} sizes, got {n_list}")
    if not d_list or not all(d > 0.0 for d in d_list) or not args.omega > 0.0:
        raise ConfigError(f"--D values and --omega must be positive, got {d_list}, {args.omega}")
    threshold = args.threshold
    if threshold is None:
        threshold = 1e-8 if args.observable == "energy" else 1e-6
    c_inf = args.c_inf
    if c_inf != "fit":
        try:
            c_inf = float(c_inf)
        except ValueError as exc:
            raise ConfigError(f"--c-inf must be 'fit' or a number, got {c_inf!r}") from exc
    cfg = RunConfig(
        command="scaling",
        options={
            "observable": args.observable, "D": d_list, "N": n_list,
            "omega": args.omega, "threshold": threshold,
            "c_inf": c_inf if isinstance(c_inf, str) else float(c_inf),
            "seed": args.seed, "solver_tol": args.solver_tol,
        },
        out_dir=args.out_dir, workers=args.workers,
    )
    store = ResultStore(args.out_dir)
    if _cache_hit(store, cfg):
        return 0
    t0 = time.monotonic()
    series_rows, slope_rows, summaries = [], [], []
    for big_d in d_list:
        kwargs = {"omega": args.omega, "threshold": threshold,
                  "seed": args.seed, "solver_tol": args.solver_tol,
                  "workers": args.workers}
        if args.observable == "concurrence":
            kwargs["c_inf"] = c_inf
        series = _SERIES_BUILDERS[args.observable](big_d, tuple(n_list), **kwargs)
        fit = extrapolate_exponent(series)
        for n, v, ntr in zip(series.n_values, series.values, series.meta["n_tr_used"]):
            series_rows.append({
                "observable": args.observable, "D": big_d,
                "lambda": series.coupling, "N": n, "value": v, "ntr_used": ntr,
            })
        for x, s in zip(fit.inv_n_mid, fit.slopes):
            slope_rows.append({
                "observable": args.observable, "D": big_d,
                "inv_n_mid": x, "slope": s,
            })
        extra = ""
        if args.observable == "energy":
            side = "below" if all(v < 0 for v in series.meta["signed"]) else "mixed"
            extra = f" approach={side}"
        if args.observable == "concurrence":
            extra = (f" c_inf={series.meta['c_inf']:.6g}"
                     f" fit_beta={series.meta.get('beta', float('nan')):.4f}")
        summaries.append(
            f"{args.observable} D={big_d:g}: exponent {fit.exponent:+.4f} "
            f"+- {fit.uncertainty:.4f} (correction_power={fit.correction_power:.2f},"
            f" power_law={fit.power_law_ok}){extra}"
        )
    files = {
        "-series.csv": csv_text(
            ("observable", "D", "lambda", "N", "value", "ntr_used"), series_rows),
        "-slopes.csv": csv_text(
            ("observable", "D", "inv_n_mid", "slope"), slope_rows),
    }
    _emit(store, cfg, files, time.monotonic() - t0)
    for line in summaries:
        sys.stderr.write(line + "\n")
    return 0


def _run_jobs(fn, jobs, workers):
    if workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, jobs))
    return [fn(job) for job in jobs]


_COMMANDS = {
    "solve": cmd_solve,
    "compare": cmd_compare,
    "converge": cmd_converge,
    "scaling": cmd_scaling,
}


def _check_tolerances(args) -> None:
    """Refuse a non-positive tolerance before any solve (compare would record
    it as a failed cell per point)."""
    for name in ("threshold", "solver_tol"):
        value = getattr(args, name, None)
        if value is not None and not value > 0.0:
            raise ConfigError(f"--{name.replace('_', '-')} must be positive, got {value!r}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_tolerances(args)
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2
    except (ConvergenceError, FitError) as exc:
        sys.stderr.write(f"solver failure: {exc}\n")
        return 3
    except DimensionCapError as exc:
        sys.stderr.write(f"resource cap: {exc}\n")
        return 4
    except OSError as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
