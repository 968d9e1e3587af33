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
import locale  # noqa: F401  (argparse's gettext imports it lazily, mid-run otherwise)
import math
import os
import sys
import time
from dataclasses import asdict, replace

from .errors import ConfigError, ConvergenceError, DimensionCapError, FitError
from .hamiltonian import assemble_dcs, assemble_dfs, dump_coo, project_parity
from .eigen import ground_state
from .model import CONFIG_KEYS, critical_coupling, params_from_mapping
from .observables import CSV_COLUMNS, DEFAULT_SCHEDULE, OBSERVABLES, converge, result_row
from .scaling import (
    MIN_SERIES_POINTS,
    SCALING_SCHEDULE,
    SERIES,
    deviation_series,
    extrapolate_exponent,
    observable_sweep,
    run_jobs,
)
from .store import CSV_SCHEMA_VERSION, ResultStore, config_digest

__all__ = ["main", "build_parser"]

CSV_BANNER = f"# dicke-ed csv v{CSV_SCHEMA_VERSION}"


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
    """Comma list '0.1,1,10' or inclusive range 'a:b:step' of finite numbers."""
    text = text.strip()
    try:
        values = [float(p) for p in text.split(":" if ":" in text else ",") if p.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad float list {text!r}") from exc
    if not all(map(math.isfinite, values)):
        raise ConfigError(f"bad float list {text!r}: every number must be finite")
    if ":" not in text:
        return values
    if len(values) != 3:
        raise ConfigError(f"range must be start:stop:step, got {text!r}")
    start, stop, step = values
    count = (stop - start) / step if step > 0 and stop >= start else math.inf
    if not math.isfinite(count):
        raise ConfigError(f"bad range {text!r}")
    grid = [start + i * step for i in range(round(count) + 1)]
    if grid[-1] > stop + 1e-12:
        grid.pop()
    return grid


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


def _model_mapping(args, unread=(), why: str = "") -> dict:
    """The model keys of ``--config``, overridden by the explicit flags.

    A key of ``unread`` exits 2, naming the flag or the config key: the
    command does not read it ``why``.
    """
    file_map = {}
    if args.config:
        file_map = read_config_file(args.config)
        unknown = set(file_map) - CONFIG_KEYS
        if unknown:
            raise ConfigError(
                f"{args.config}: unknown key(s) {', '.join(sorted(unknown))}"
            )
    flags = {"n_atoms": args.n_atoms, "omega": args.omega, "delta": args.delta,
             "lambda": getattr(args, "lam", None), "alpha": getattr(args, "alpha", None)}
    flags = {key: value for key, value in flags.items() if value is not None}
    for key in unread:
        if key in flags:
            raise ConfigError(f"--{key.replace('_', '-')} has no meaning {why}")
        if key in file_map:
            raise ConfigError(f"{args.config}: key {key!r} has no meaning {why}")
    if "alpha" in flags:
        if "lambda" in flags:
            raise ConfigError("give either --lambda or --alpha, not both")
        file_map.pop("lambda", None)
    # explicit flags override the file
    return {**file_map, **flags}


def _add_common(sub):
    sub.add_argument("--out-dir", default=None,
                     help="result store root (default $DICKE_ED_RESULTS or ./results)")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--workers", type=int, default=os.cpu_count() or 1,
                     help="parallel parameter points; the output does not depend on it")
    sub.add_argument("--solver-tol", type=float, default=1e-10)
    sub.add_argument("--max-dim", type=int, default=None,
                     help="override the matrix dimension cap")


def _add_model(sub, coupling: bool):
    sub.add_argument("--n-atoms", type=int, default=None)
    sub.add_argument("--omega", type=float, default=None)
    sub.add_argument("--delta", type=float, default=None)
    if coupling:
        sub.add_argument("--lambda", dest="lam", type=float, default=None)
        sub.add_argument("--alpha", type=float, default=None)
    sub.add_argument("--config", default=None, help="flat key=value parameter file")


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser, listing every subcommand but adding only ``command``'s
    arguments: a run parses one, and help and usage errors print the same."""
    parser = argparse.ArgumentParser(
        prog="dicke-ed",
        description="Exact diagonalization of the finite-size Dicke model "
                    "in a displaced-Fock basis.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    # no abbreviations: a flag a command lacks (--lambda) must not pass for
    # one it has (--lambdas)
    sub = {name: subs.add_parser(name, help=text, allow_abbrev=False)
           for name, (_, text) in _COMMANDS.items()}.get(command)
    if command in ("solve", "compare", "converge"):
        _add_model(sub, coupling=command == "solve")
    if sub is not None:
        _add_common(sub)
    if command in ("solve", "compare"):
        sub.add_argument("--dense-oracle", action="store_true",
                         help="force dense diagonalization (small systems only)")
    if command == "solve":
        sub.add_argument("--threshold", type=float, default=1e-6)
        sub.add_argument("--ntr-schedule", default=None,
                         help="comma list, default " + ",".join(map(str, DEFAULT_SCHEDULE)))
        sub.add_argument("--track", default="e0",
                         help="comma list of observables the truncation loop must "
                              "settle, from " + ", ".join(OBSERVABLES))
        sub.add_argument("--parity", choices=("even", "odd", "full"), default="even")
        sub.add_argument("--dump-matrix", default=None,
                         help="write the assembled matrix as 'row col value' lines")
    elif command == "compare":
        sub.add_argument("--lambdas", required=True, help="comma list or start:stop:step")
        sub.add_argument("--cases", default="dcs:6,dfs:6,dfs:45,dfs:100",
                         help="comma list of basis:n_tr cells")
        sub.add_argument("--parity", choices=("even", "odd", "full"), default="even")
    elif command == "converge":
        sub.add_argument("--lambdas", default=None, help="coupling grid (fixed-N mode)")
        sub.add_argument("--ntr-list", default=None,
                         help="truncations whose deviation from converged is mapped")
        sub.add_argument("--at-critical", action="store_true",
                         help="sweep N at the critical coupling instead of sweeping lambda")
        sub.add_argument("--N", dest="n_range", default=None,
                         help="system sizes for --at-critical (comma list or a..b doublings)")
        sub.add_argument("--threshold", type=float, default=1e-6,
                         help="convergence target defining the required truncation")
    elif command == "scaling":
        sub.add_argument("--observable", choices=tuple(SERIES), required=True)
        sub.add_argument("--D", dest="big_d", required=True,
                         help="comma list of delta/omega ratios")
        sub.add_argument("--N", dest="n_range", default="16..1024",
                         help="system sizes (comma list or a..b doublings)")
        sub.add_argument("--omega", type=float, default=1.0)
        sub.add_argument("--threshold", type=float, default=None,
                         help="per-point convergence threshold (default " + ", ".join(
                             f"{t:g} {obs}" for obs, (_, t) in SERIES.items()) + ")")
        sub.add_argument("--c-inf", default=None,
                         help="'fit' or an explicit thermodynamic concurrence value")
    return parser


def _run_cached(args, command: str, model: dict, settings: dict, compute) -> str:
    """Re-emit the stored run of this configuration, or compute and store it;
    return the primary file's text.

    ``compute(**settings)`` passes the settings on to the library call and
    returns the output files (file-name suffix -> text, the primary file
    first, which goes to stdout) and summary lines that go to stderr on a
    cold run only.  The digest covers ``command``, ``model`` and
    ``settings``, so nothing reaches the solve without entering it.  Only
    ``--out-dir``, ``--workers`` and ``--max-dim`` stay outside: they cannot
    change a printed digit, and are recorded with the configuration.
    """
    key = {"command": command, "model": model, **settings}
    digest = config_digest(key)
    store = ResultStore(args.out_dir)
    entry = store.lookup(digest)
    if entry is not None:
        sys.stderr.write(f"cache hit: {digest} ({entry['timestamp']})\n")
        text = store.read_text(entry["files"][0])
        sys.stdout.write(text)
        return text
    t0 = time.monotonic()
    files, notes = compute(**settings)
    wall_s = time.monotonic() - t0
    stem = store.output_stem(command, digest)
    for suffix, text in files.items():
        store.write_text(stem + suffix, text)
    config = {**key, "out_dir": args.out_dir, "workers": args.workers,
              "max_dim": args.max_dim}
    store.record(digest, command, [stem + suffix for suffix in files], wall_s, config)
    text = next(iter(files.values()))
    sys.stdout.write(text)
    for line in notes:
        sys.stderr.write(line + "\n")
    return text


def cmd_solve(args) -> None:
    params = params_from_mapping(_model_mapping(args))
    settings = {
        "threshold": args.threshold,
        "schedule": parse_schedule(args.ntr_schedule) if args.ntr_schedule else DEFAULT_SCHEDULE,
        "track": tuple(t.strip() for t in args.track.split(",") if t.strip()),
        "sector": args.parity, "seed": args.seed,
        "solver_tol": args.solver_tol, "dense": args.dense_oracle,
    }

    def compute(**solver):
        res = converge(params, max_dim=args.max_dim, **solver)
        return {".csv": csv_text(CSV_COLUMNS, [result_row(res)])}, []

    text = _run_cached(args, "solve", asdict(params), settings, compute)
    if args.dump_matrix:
        # the matrix needs only the model and Ntr_used, which a stored row holds too
        n_tr = int(text.splitlines()[2].split(",")[CSV_COLUMNS.index("Ntr_used")])
        with open(args.dump_matrix, "w") as fh:
            dump_coo(assemble_dcs(params, n_tr, max_dim=args.max_dim), fh)


def _couplings(text: str) -> list[float]:
    """The ``--lambdas`` grid: one or more non-negative couplings."""
    lambdas = parse_float_list(text)
    if not lambdas or not all(lam >= 0.0 for lam in lambdas):
        raise ConfigError(f"--lambdas must be one or more non-negative couplings, got {text!r}")
    return lambdas


def _compare_cell(cell: dict, *, params, sector: str, max_dim, solver_tol: float,
                  seed: int, dense: bool) -> dict:
    """One (lambda, basis, n_tr) cell of the compare table; a failed solve
    marks the cell instead of ending the run."""
    row = {**cell, "E0": math.nan, "E0_scaled": math.nan, "status": "ok"}
    try:
        params = replace(params, lam=cell["lambda"])
        assemble = assemble_dcs if cell["basis"] == "dcs" else assemble_dfs
        h = project_parity(assemble(params, cell["n_tr"], max_dim=max_dim), sector)
        gs = ground_state(h, tol=solver_tol, seed=seed, dense=dense)
        row["E0"] = gs.energy
        row["E0_scaled"] = gs.energy / (params.j * params.delta)
    except (ConvergenceError, DimensionCapError, ValueError) as exc:
        row["status"] = f"error: {type(exc).__name__}"
    return row


def cmd_compare(args) -> None:
    params = params_from_mapping(_model_mapping(
        args, ("lambda", "alpha"), "with compare (the couplings come from --lambdas)"))
    settings = {
        "lambdas": _couplings(args.lambdas), "cases": parse_cases(args.cases),
        "sector": args.parity, "seed": args.seed,
        "solver_tol": args.solver_tol, "dense": args.dense_oracle,
    }

    def compute(lambdas, cases, **cell):
        cells = [{"lambda": lam, "basis": basis, "n_tr": n_tr}
                 for lam in lambdas for (basis, n_tr) in cases]
        rows = run_jobs(_compare_cell, cells, args.workers, params=params,
                        max_dim=args.max_dim, **cell)
        columns = ("lambda", "basis", "n_tr", "E0", "E0_scaled", "status")
        return {".csv": csv_text(columns, rows)}, []

    _run_cached(args, "compare", asdict(params), settings, compute)


def _converge_lambda_point(lam: float, *, params, ntr_list: tuple, threshold: float,
                           seed: int, solver_tol: float, max_dim) -> list:
    params = replace(params, lam=lam)
    ref = converge(
        params, threshold=min(threshold, 1e-8), schedule=SCALING_SCHEDULE,
        track=("e0",), solver_tol=solver_tol, seed=seed, max_dim=max_dim,
    )
    e_ref = ref.ground.energy
    rows = []
    for n_tr in ntr_list:
        h = project_parity(assemble_dcs(params, n_tr, max_dim=max_dim), "even")
        gs = ground_state(h, tol=solver_tol, seed=seed)
        rows.append({
            "lambda": lam, "n_tr": n_tr, "E0": gs.energy, "E0_ref": e_ref,
            "rel_dev": abs((gs.energy - e_ref) / e_ref),
        })
    return rows


def _refuse_unused(args, why: str, *flags) -> None:
    """Exit 2 naming the first given flag of ``flags`` ((flag, dest) pairs):
    the chosen mode does not read it."""
    for flag, dest in flags:
        if getattr(args, dest) is not None:
            raise ConfigError(f"{flag} has no meaning {why}")


def cmd_converge(args) -> None:
    settings = {"threshold": args.threshold, "seed": args.seed, "solver_tol": args.solver_tol}
    if args.at_critical:
        _refuse_unused(args, "with --at-critical",
                       ("--lambdas", "lambdas"), ("--ntr-list", "ntr_list"))
        if not args.n_range:
            raise ConfigError("--at-critical needs --N")
        settings["n_list"] = parse_n_list(args.n_range)
        mapping = _model_mapping(args, ("n_atoms", "lambda", "alpha"), "with --at-critical")
        try:
            omega, delta = (float(mapping.get(key, 1.0)) for key in ("omega", "delta"))
        except ValueError as exc:
            raise ConfigError(f"{args.config}: omega and delta must be numbers") from exc
        _require_positive("--omega and --delta", omega, delta)

        def compute(n_list, **sweep):
            lam_c = critical_coupling(omega, delta)
            points = observable_sweep(delta, n_list, lam=lam_c, omega=omega,
                                      workers=args.workers, max_dim=args.max_dim, **sweep)
            rows = [{"N": n, "lambda": lam_c, "ntr_used": row["n_tr_used"], "E0": row["e0"]}
                    for n, row in zip(n_list, points)]
            used = [r["ntr_used"] for r in rows]
            mono = all(b <= a for a, b in zip(used, used[1:]))
            return ({".csv": csv_text(("N", "lambda", "ntr_used", "E0"), rows)},
                    [f"required n_tr {used} non-increasing: {mono}"])

        _run_cached(args, "converge", {"omega": omega, "delta": delta}, settings, compute)
        return

    _refuse_unused(args, "without --at-critical", ("--N", "n_range"))
    if not args.lambdas:
        raise ConfigError("converge needs --lambdas (or --at-critical with --N)")
    params = params_from_mapping(_model_mapping(
        args, ("lambda", "alpha"), "without --at-critical (the couplings come from --lambdas)"))
    settings["lambdas"] = _couplings(args.lambdas)
    settings["ntr_list"] = parse_schedule("4,6,8" if args.ntr_list is None else args.ntr_list)

    def compute(lambdas, **point):
        nested = run_jobs(_converge_lambda_point, lambdas, args.workers, params=params,
                          max_dim=args.max_dim, **point)
        rows = [row for group in nested for row in group]
        lam_c = critical_coupling(params.omega, params.delta)
        notes = []
        for n_tr in point["ntr_list"]:
            peak = max((r for r in rows if r["n_tr"] == n_tr), key=lambda r: r["rel_dev"])
            notes.append(f"deviation peak n_tr={n_tr}: lambda={peak['lambda']:.6g} "
                         f"(lambda/lambda_c={peak['lambda'] / lam_c:.4f})")
        return {".csv": csv_text(("lambda", "n_tr", "E0", "E0_ref", "rel_dev"), rows)}, notes

    _run_cached(args, "converge", asdict(params), settings, compute)


def cmd_scaling(args) -> None:
    d_list = parse_float_list(args.big_d)
    n_list = parse_n_list(args.n_range)
    if len(n_list) < MIN_SERIES_POINTS:
        raise ConfigError(f"scaling needs at least {MIN_SERIES_POINTS} sizes, got {n_list}")
    if not d_list:
        raise ConfigError(f"--D must be one or more ratios, got {args.big_d!r}")
    _require_positive("--D values and --omega", *d_list, args.omega)
    if args.observable != "concurrence":
        _refuse_unused(args, f"with --observable {args.observable}", ("--c-inf", "c_inf"))
    c_inf = "fit" if args.c_inf is None else args.c_inf
    if c_inf != "fit":
        try:
            c_inf = float(c_inf)
        except ValueError:
            c_inf = math.nan
        if not math.isfinite(c_inf):
            raise ConfigError(f"--c-inf must be 'fit' or a finite number, got {args.c_inf!r}")
    settings = {
        "observable": args.observable, "d_list": d_list, "n_list": tuple(n_list),
        "threshold": SERIES[args.observable][1] if args.threshold is None else args.threshold,
        "c_inf": c_inf, "seed": args.seed, "solver_tol": args.solver_tol,
    }

    def compute(observable, d_list, **series_settings):
        series_rows, slope_rows, notes = [], [], []
        for big_d in d_list:
            series = deviation_series(observable, big_d, omega=args.omega,
                                      workers=args.workers, max_dim=args.max_dim,
                                      **series_settings)
            fit = extrapolate_exponent(series)
            for n, v, ntr in zip(series.n_values, series.values, series.meta["n_tr_used"]):
                series_rows.append({
                    "observable": observable, "D": big_d,
                    "lambda": series.coupling, "N": n, "value": v, "ntr_used": ntr,
                })
            for x, s in zip(fit.inv_n_mid, fit.slopes):
                slope_rows.append({
                    "observable": observable, "D": big_d,
                    "inv_n_mid": x, "slope": s,
                })
            extra = ""
            if observable == "energy":
                side = "below" if all(v < 0 for v in series.meta["signed"]) else "mixed"
                extra = f" approach={side}"
            if observable == "concurrence":
                extra = (f" c_inf={series.meta['c_inf']:.6g}"
                         f" fit_beta={series.meta.get('beta', float('nan')):.4f}")
            notes.append(
                f"{observable} D={big_d:g}: exponent {fit.exponent:+.4f} "
                f"+- {fit.uncertainty:.4f} (correction_power={fit.correction_power:.2f},"
                f" power_law={fit.power_law_ok}){extra}"
            )
        files = {
            "-series.csv": csv_text(
                ("observable", "D", "lambda", "N", "value", "ntr_used"), series_rows),
            "-slopes.csv": csv_text(
                ("observable", "D", "inv_n_mid", "slope"), slope_rows),
        }
        return files, notes

    _run_cached(args, "scaling", {"omega": args.omega}, settings, compute)


# name -> (handler, help line)
_COMMANDS = {
    "solve": (cmd_solve, "converge one parameter point, print a CSV row"),
    "compare": (cmd_compare, "displaced vs bare basis over a coupling grid"),
    "converge": (cmd_converge, "truncation-convergence maps"),
    "scaling": (cmd_scaling, "finite-size scaling series and exponents"),
}


def _require_positive(what: str, *values) -> None:
    if not all(0.0 < value < math.inf for value in values):
        raise ConfigError(
            f"{what} must be positive and finite, got {', '.join(map(repr, values))}")


def _check_numbers(args) -> None:
    """Refuse a tolerance that is not positive and finite, a negative seed, or
    a worker count or dimension cap below 1 before any solve (compare would
    record a bad tolerance or seed as a failed cell per point)."""
    for name in ("threshold", "solver_tol"):
        value = getattr(args, name, None)
        if value is not None:
            _require_positive(f"--{name.replace('_', '-')}", value)
    if args.seed < 0:
        raise ConfigError(f"--seed must be non-negative, got {args.seed}")
    for name in ("workers", "max_dim"):
        value = getattr(args, name)
        if value is not None and value < 1:
            raise ConfigError(f"--{name.replace('_', '-')} must be at least 1, got {value}")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # the top-level parser takes no values, so its first positional names the command
    command = next((a for a in argv if not a.startswith("-")), None)
    args = build_parser(command).parse_args(argv)
    try:
        _check_numbers(args)
        _COMMANDS[args.command][0](args)
        return 0
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
