"""Outside-in tracing of the dicke_ed layers.

Each public function or method of a layer is replaced by a wrapper that
records one span per call: id, parent id, run id, name, start, end and a few
attributes read from the call's arguments or result.  A wrapper is installed
wherever the name is looked up -- every ``dicke_ed`` module global and
module-level dict entry that holds the original object -- because modules
import each other's functions by name (``from .eigen import ground_state``),
so patching the defining module alone would miss most calls.  Methods are
patched on their class.

Spans stay in memory; :meth:`Tracer.dump` writes them out at the end.
"""

import functools
import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter


def _first(args, kwargs, name):
    return args[0] if args else kwargs[name]


# (module, attribute or Class.method, note) -- ``note(args, kwargs, result)``
# returns the span attributes the per-layer metrics need.
TARGETS = (
    ("dicke_ed.dcs_basis", "overlap_kernel",
     lambda a, kw, r: {"g": r.delta, "n_tr": r.n_tr}),
    ("dicke_ed.hamiltonian", "assemble_dcs", lambda a, kw, r: {"dim": r.dim}),
    ("dicke_ed.hamiltonian", "assemble_dfs", lambda a, kw, r: {"dim": r.dim}),
    ("dicke_ed.hamiltonian", "project_parity", lambda a, kw, r: {"dim": r.dim}),
    ("dicke_ed.hamiltonian", "BlockHamiltonian.matvec", None),
    ("dicke_ed.hamiltonian", "BlockHamiltonian.to_dense", None),
    ("dicke_ed.hamiltonian", "ProjectedHamiltonian.matvec", None),
    ("dicke_ed.hamiltonian", "ProjectedHamiltonian.to_dense", None),
    ("dicke_ed.eigen", "ground_state",
     lambda a, kw, r: {"dim": _first(a, kw, "h").dim, "iterations": r.iterations,
                       "method": r.method, "residual": r.residual}),
    ("dicke_ed.observables", "converge", lambda a, kw, r: {"steps": len(r.history)}),
    ("dicke_ed.observables", "spin_expectations", None),
    ("dicke_ed.scaling", "energy_deviation_series", None),
    ("dicke_ed.scaling", "berry_deviation_series", None),
    ("dicke_ed.scaling", "concurrence_deviation_series", None),
    ("dicke_ed.scaling", "observable_sweep", lambda a, kw, r: {"points": len(r)}),
    ("dicke_ed.scaling", "extrapolate_exponent", None),
    ("dicke_ed.store", "describe_version", None),
    ("dicke_ed.store", "ResultStore.lookup", None),
    ("dicke_ed.store", "ResultStore.record", None),
    ("dicke_ed.store", "ResultStore.write_text", None),
    ("dicke_ed.store", "ResultStore.read_text", None),
)

LAYERS = ("cli", "store", "scaling", "observables", "eigen", "hamiltonian", "dcs_basis")

_MATVEC = ("hamiltonian.BlockHamiltonian.matvec", "hamiltonian.ProjectedHamiltonian.matvec")
_TO_DENSE = ("hamiltonian.BlockHamiltonian.to_dense", "hamiltonian.ProjectedHamiltonian.to_dense")
_ASSEMBLE = ("hamiltonian.assemble_dcs", "hamiltonian.assemble_dfs")
_SERIES = ("scaling.energy_deviation_series", "scaling.berry_deviation_series",
           "scaling.concurrence_deviation_series", "scaling.observable_sweep")


class Tracer:
    """Span recorder; spans are lists ``[id, parent, run, name, t0, t1, attrs]``."""

    def __init__(self):
        self.spans = []
        self.run_id = None
        self.patched = []
        self.missing = []
        self._stack = []

    def wrap(self, name, fn, note=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else None, self.run_id, name,
                    0.0, 0.0, None]
            spans.append(span)
            stack.append(span[0])
            span[4] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[5] = perf_counter()
                span[6] = {"error": type(exc).__name__}
                raise
            finally:
                stack.pop()
            span[5] = perf_counter()
            if note is not None:
                span[6] = note(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every target wherever a dicke_ed module looks it up.

        There is no undo: the worker process that installs a tracer exits
        after the traced run.
        """
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "dicke_ed" or n.startswith("dicke_ed.")]
        for modname, attr, note in TARGETS:
            name = modname.rsplit(".", 1)[1] + "." + attr
            owner = importlib.import_module(modname)
            cls_name, _, meth = attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name, None)
            orig = getattr(owner, meth, None)
            if orig is None:
                self.missing.append(name)
                continue
            wrapped = self.wrap(name, orig, note)
            if cls_name:
                setattr(owner, meth, wrapped)
                self.patched.append(f"{modname}.{attr}")
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)
                        self.patched.append(f"{mod.__name__}.{key}")
                    elif isinstance(value, dict):
                        for dkey, dval in list(value.items()):
                            if dval is orig:
                                value[dkey] = wrapped
                                self.patched.append(f"{mod.__name__}.{key}[{dkey!r}]")

    def dump(self, path, header):
        with open(path, "w") as fh:
            fh.write(json.dumps({"header": header, "patched": self.patched,
                                 "missing": self.missing}) + "\n")
            for sid, parent, run, name, t0, t1, attrs in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "run": run,
                                     "name": name, "start": t0, "end": t1,
                                     "attrs": attrs}) + "\n")


def wrapper_cost_s(calls=20000):
    """Seconds one tracing wrapper adds to a call, measured on a no-op."""
    def noop():
        pass

    wrapped = Tracer().wrap("probe", noop)
    t0 = perf_counter()
    for _ in range(calls):
        noop()
    t1 = perf_counter()
    for _ in range(calls):
        wrapped()
    return ((perf_counter() - t1) - (t1 - t0)) / calls


class _Stats:
    """Per-name aggregates over the spans of one run."""

    def __init__(self, spans, run_id):
        self.spans = [s for s in spans if s[2] == run_id]
        by_id = {s[0]: s for s in self.spans}
        child = defaultdict(float)
        for s in self.spans:
            if s[1] is not None:
                child[s[1]] += s[5] - s[4]
        self.parent_name = {s[0]: by_id[s[1]][3] if s[1] in by_id else None
                            for s in self.spans}
        self.self_s = {s[0]: (s[5] - s[4]) - child[s[0]] for s in self.spans}

    def named(self, *names):
        return [s for s in self.spans if s[3] in names]

    def count(self, *names):
        return len(self.named(*names))

    def self_time(self, *names):
        return sum(self.self_s[s[0]] for s in self.named(*names))

    def incl_time(self, *names, outermost=False):
        """Inclusive time; ``outermost`` skips spans nested in one of ``names``."""
        return sum(s[5] - s[4] for s in self.named(*names)
                   if not (outermost and self.parent_name[s[0]] in names))

    def attrs(self, *names):
        return [s[6] or {} for s in self.named(*names)]

    def layer_self(self):
        out = {layer: 0.0 for layer in LAYERS}
        for s in self.spans:
            out[s[3].split(".", 1)[0]] += self.self_s[s[0]]
        return out


def layer_metrics(spans, cold_run, hit_run):
    """Per-layer metrics of one traced cold run plus one traced cache hit.

    Values are ``(value, unit)``.  Everything comes from the cold run except
    ``store.lookup_s``, which is the lookup of the cache-hit invocation (the
    path that sets ``cache_hit_s``).  Also returns each layer's self time.
    """
    cold, hit = _Stats(spans, cold_run), _Stats(spans, hit_run)

    n_kernel = cold.count("dcs_basis.overlap_kernel")
    seen = set()
    cold_entries = 0
    for a in cold.attrs("dcs_basis.overlap_kernel"):
        key = (a.get("g"), a.get("n_tr"))
        if "n_tr" in a and key not in seen:
            seen.add(key)
            cold_entries += (key[1] + 1) ** 2

    solves = cold.attrs("eigen.ground_state")
    lanczos = [a for a in solves if a.get("method") == "lanczos"]
    steps = [a["steps"] for a in cold.attrs("observables.converge") if "steps" in a]
    n_converge = cold.count("observables.converge")

    m = {
        "dcs_basis.kernel_calls": (n_kernel, "count"),
        "dcs_basis.kernel_cold": (len(seen), "count"),
        "dcs_basis.kernel_hit_ratio": (
            (n_kernel - len(seen)) / n_kernel if n_kernel else 0.0, "ratio"),
        "dcs_basis.kernel_entries": (cold_entries, "count"),
        "dcs_basis.kernel_s": (cold.self_time("dcs_basis.overlap_kernel"), "s"),
        "hamiltonian.assemble_calls": (cold.count(*_ASSEMBLE), "count"),
        "hamiltonian.assemble_s": (cold.self_time(*_ASSEMBLE), "s"),
        "hamiltonian.project_s": (cold.incl_time("hamiltonian.project_parity"), "s"),
        "hamiltonian.matvec_calls": (
            sum(1 for s in cold.named(*_MATVEC) if cold.parent_name[s[0]] not in _MATVEC),
            "count"),
        "hamiltonian.matvec_s": (cold.incl_time(*_MATVEC, outermost=True), "s"),
        "hamiltonian.to_dense_s": (cold.incl_time(*_TO_DENSE, outermost=True), "s"),
        "hamiltonian.dim_max": (max((a.get("dim", 0) for a in solves), default=0), "count"),
        "eigen.solves": (len(solves), "count"),
        "eigen.dense_solves": (sum(a.get("method") == "dense" for a in solves), "count"),
        "eigen.lanczos_solves": (len(lanczos), "count"),
        "eigen.iterations": (sum(a.get("iterations", 0) for a in solves), "count"),
        "eigen.solve_s": (cold.self_time("eigen.ground_state"), "s"),
        "eigen.residual_max": (max((a.get("residual", 0.0) for a in solves), default=0.0),
                               "norm"),
        "eigen.failures": (sum("error" in a for a in solves), "count"),
        "eigen.reorth_gflop": (
            sum(4.0 * a["dim"] * a["iterations"] ** 2 for a in lanczos) / 1e9, "GFLOP"),
        "eigen.krylov_mb": (
            max((a["dim"] * a["iterations"] * 8 / 1e6 for a in lanczos), default=0.0), "MB"),
        "observables.converge_calls": (n_converge, "count"),
        "observables.schedule_steps": (sum(steps), "count"),
        "observables.steps_per_point": (sum(steps) / n_converge if n_converge else 0.0,
                                        "ratio"),
        "observables.converge_s": (cold.self_time("observables.converge"), "s"),
        "observables.spin_expectations_s": (
            cold.self_time("observables.spin_expectations"), "s"),
        "scaling.sweep_s": (cold.self_time(*_SERIES), "s"),
        "scaling.fit_s": (cold.incl_time("scaling.extrapolate_exponent"), "s"),
        "scaling.points": (sum(a.get("points", 0)
                               for a in cold.attrs("scaling.observable_sweep")), "count"),
        "cli.self_s": (cold.self_time("cli.main"), "s"),
        "store.lookup_s": (hit.incl_time("store.ResultStore.lookup"), "s"),
        "store.record_s": (cold.incl_time("store.ResultStore.record"), "s"),
        "store.write_s": (cold.incl_time("store.ResultStore.write_text"), "s"),
        "store.describe_version_s": (cold.incl_time("store.describe_version"), "s"),
        "trace.spans": (len(cold.spans), "count"),
    }
    return m, cold.layer_self()
