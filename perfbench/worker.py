"""One fresh interpreter: import the CLI, then either run one workload cold
and repeat it against the store the cold run filled (mode "cold"), or only
repeat it against a store an earlier cold run filled (mode "hits").

Started by run.py with a JSON spec as its only argument.  It prints
``ready`` once ``dicke_ed.cli`` is imported (the parent times set-up up to
that line) and then one JSON line with the result.  Exit code 1 means the
run could not be measured: the package did not come from the checkout, or
the run did not start cold.
"""

import contextlib
import io
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

spec = json.loads(sys.argv[1])
from dicke_ed import cli  # noqa: E402  (set-up ends here)

REPORT = sys.stdout


def fail(message):
    sys.stderr.write(f"worker: {message}\n")
    sys.exit(1)


def invoke(main, argv):
    """Run the CLI as a user would; return (exit code, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a traceback is a failed run, not a crash of the bench
            traceback.print_exc()
            code = f"exception: {type(exc).__name__}"
        wall = perf_counter() - t0
    return code, out.getvalue(), err.getvalue(), wall


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
    }


def hit_runs(main_fn, argv, seconds):
    """Repeat the call against a filled store for ``seconds`` (at least once)."""
    times, outputs, ok = [], set(), True
    end = perf_counter() + seconds
    while not times or perf_counter() < end:
        code, out, err, wall = invoke(main_fn, argv)
        times.append(wall)
        outputs.add(out)
        ok = ok and code == 0 and "cache hit:" in err
    return {"hit_s": times, "hit_ok": ok and len(outputs) == 1, "hit_out": outputs.pop()}


def cold_run(store, argv):
    """One cold invocation, then its cache hits; traced when the spec asks."""
    if any(store.iterdir()):
        fail(f"store {store} is not empty; refusing a warm run")
    tracer = None
    main_fn = cli.main
    if spec["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        main_fn = tracer.wrap("cli.main", cli.main)
        tracer.run_id = "cold"

    code, out, err, wall = invoke(main_fn, argv)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if "cache hit:" in err:
        fail("cold run reported a cache hit; refusing a warm run")
    sizes = {p.name: p.stat().st_size for p in store.iterdir() if p.is_file()}
    result = {"code": code, "stdout": out, "stderr": err[-4000:], "wall_s": wall,
              "rss_mb": rss_mb, "env": environment()}
    if tracer is not None:
        tracer.run_id = "hit"
    if code == 0:
        result.update(hit_runs(main_fn, argv, spec["hit_seconds"]))
    else:  # nothing was stored, so a repeat would be another cold run
        result.update({"hit_s": [], "hit_ok": False, "hit_out": None})

    if tracer is not None:
        from spans import layer_metrics, wrapper_cost_s

        metrics, result["layer_self"] = layer_metrics(tracer.spans, "cold", "hit")
        manifest = store / "manifest.jsonl"
        metrics["store.bytes_written"] = (sum(sizes.values()), "bytes")
        metrics["store.manifest_lines"] = (
            len(manifest.read_text().splitlines()) if manifest.exists() else 0, "count")
        metrics["trace.overhead_est_s"] = (
            metrics["trace.spans"][0] * wrapper_cost_s(), "s")
        result["layer_metrics"] = metrics
        result["trace_missing"] = tracer.missing
        tracer.dump(spec["span_file"], {"argv": argv, "wall_s": wall})
    return result


def main():
    REPORT.write("ready\n")
    REPORT.flush()
    src = Path(spec["src"]).resolve()
    if src not in Path(cli.__file__).resolve().parents:
        fail(f"dicke_ed imported from {cli.__file__}, not from {src}")
    store = Path(spec["store"])
    argv = spec["argv"] + ["--out-dir", str(store)]
    if spec["mode"] == "hits":
        result = hit_runs(cli.main, argv, spec["hit_seconds"])
    else:
        result = cold_run(store, argv)
    REPORT.write(json.dumps(result) + "\n")
    REPORT.flush()


if __name__ == "__main__":
    main()
