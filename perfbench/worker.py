"""One workload process: import rieszcone, validate the first spec, run the loop.

Started by ``run.py`` with ``PYTHONPATH=src`` and the BLAS thread pool pinned
to one thread.  It prints ``ready`` once ``import rieszcone`` is done and the
workload's first spec is validated; with ``--setup-only`` it stops there.
Otherwise it runs operations back to back (one client, closed loop) until
``--seconds`` have passed, checks each operation's output outside the timed
region, and prints one JSON object as its last line.  Operation times and
self times are scaled to the reference speed of ``calibrate.py``.

The first operation warms lazy set-up (and carries the once-per-run
determinism check); it is checked and counted as attempted, but left out of
the timings.  With ``--trace 1`` odd-numbered operations run with the layer
wrappers of ``tracing.py`` installed and even-numbered ones without, so the
tracing overhead is measured within the same run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

import calibrate

TAIL_BEYOND = 10


def import_package():
    import rieszcone

    src = os.path.join(os.getcwd(), "src")
    if not os.path.abspath(rieszcone.__file__).startswith(src + os.sep):
        raise SystemExit(f"rieszcone was imported from {rieszcone.__file__}, not {src}")
    return rieszcone


def tail(times):
    """Time at the highest percentile that still has TAIL_BEYOND operations beyond it.

    With fewer than TAIL_BEYOND + 1 operations this is the fastest one, and
    ``beyond`` says how many operations lie above it.
    """
    ordered = sorted(times)
    k = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return {"value": ordered[k], "percentile": 100.0 * (k + 1) / len(ordered),
            "beyond": len(ordered) - k - 1, "n": len(ordered)}


def run_facts(pkg):
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "rieszcone": pkg.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_thread_pin": {k: os.environ.get(k) for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def layer_metrics(tracer, traced_ops, traced_times, untraced_times):
    """Per-layer metrics from the spans of ``traced_ops`` ({op id: time scale})."""
    from tracing import LAYERS, OP_SPAN, median_over

    table = tracer.per_op(traced_ops)
    for op, scale in traced_ops.items():
        row = table[op]["self"]
        for name in row:
            row[name] *= scale

    def busy(*names):
        return median_over(table, lambda row: sum(row["self"].get(n, 0.0) for n in names))

    def calls(name):
        return median_over(table, lambda row: row["calls"].get(name, 0))

    def counted(key):
        return median_over(table, lambda row: row["counts"].get(key, 0))

    def layer_self(prefix):
        return median_over(table, lambda row: sum(
            v for n, v in row["self"].items() if n.startswith(prefix + ".")))

    traced_p50 = statistics.median(traced_times)
    untraced_p50 = statistics.median(untraced_times) if untraced_times else traced_p50
    metrics = {
        "gindikin.u_from_s.calls": calls("gindikin.u_from_s"),
        "gindikin.u_from_s.busy_s": busy("gindikin.u_from_s"),
        "gindikin.build_partition.busy_s": busy("gindikin.build_partition"),
        "algebra.spectral.calls": calls("algebra.spectral"),
        "algebra.spectral.busy_s": busy("algebra.spectral"),
        "algebra.minors.busy_s": busy("algebra.minors"),
        "algebra.generalized_power.busy_s": busy("algebra.generalized_power"),
        "sampling.spec_build.busy_s": busy("sampling.spec_build"),
        "sampling.sample_riesz.busy_s": busy("sampling.sample_riesz"),
        "sampling.draws": counted("sampling.draws"),
        "sampling.sample_riesz.cpu_ratio": tracer.cpu_ratio("sampling.sample_riesz"),
        "sampling.write_ndjson.busy_s": busy("sampling.write_ndjson"),
        "cli.main.self_s": busy("cli.main"),
        "cli.bytes_out": counted("cli.bytes_out"),
        "verify.laplace_mc.busy_s": busy("verify.laplace_mc"),
        "verify.rank_profile.busy_s": busy("verify.rank_profile"),
        "verify.psd_check.busy_s": busy("verify.psd_check"),
        "verify.laplace_exact.busy_s": busy("verify.laplace_exact"),
        "verify.identity_suite.busy_s": busy("verify.identity_suite"),
        "verify.quadrature.busy_s": busy("verify.quadrature_check_r2",
                                         "verify.quadrature_integral_r2"),
        "trace.traced_op_p50_s": traced_p50,
        "trace.untraced_op_p50_s": untraced_p50,
        "trace.overhead_s": traced_p50 - untraced_p50,
    }
    layers = {}
    for layer in LAYERS + ("bench",):
        value = layer_self(layer) if layer != "bench" else busy(OP_SPAN)
        metrics[f"layer.{layer}.self_s"] = value
        layers[layer] = {"self_s": value, "share_of_traced_op_p50": value / traced_p50}
    names = sorted({n for row in table.values() for n in row["self"]})
    spans = {n: {"self_s": busy(n), "calls": calls(n)} for n in names}
    return metrics, {"layers": layers, "spans": spans}


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--outdir", required=True)
    args = p.parse_args(argv)

    pkg = import_package()
    from workloads import WORKLOADS

    tmpdir = tempfile.mkdtemp(prefix="ops-", dir=args.outdir)
    try:
        wl = WORKLOADS[args.workload](args.seed, tmpdir)
        wl.first_spec()
        print("ready", flush=True)
        if args.setup_only:
            return 0
        result = run_loop(pkg, wl, args)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


def run_loop(pkg, wl, args):
    tracer = None
    if args.trace:
        from tracing import OP_SPAN, Tracer

        tracer = Tracer()
    times, raw_times, factors, traced_flags, failures = [], [], [], [], []
    draws = failed = 0
    ok_time = warmup = 0.0
    start = None
    i = 0
    while start is None or not times or time.perf_counter() - start < args.seconds:
        inp = wl.inputs(i)
        traced = tracer is not None and i % 2 == 1
        run = wl.run
        if traced:
            tracer.op = i
            tracer.install(pkg)
            run = tracer.span(OP_SPAN, wl.run)
        before = calibrate.loop_s()
        t0 = time.perf_counter()
        try:
            out = run(inp)
            fails = None
        except Exception:
            fails = [traceback.format_exc(limit=3)]
        wall = time.perf_counter() - t0
        scale = calibrate.factor(before, calibrate.loop_s())
        elapsed = wall * scale
        if traced:
            tracer.remove()
        if fails is None:
            if traced:
                tracer.count("cli.bytes_out", wl.bytes_out(inp))
            try:
                fails = wl.check(inp, out)
                if i == 0:
                    fails += wl.once_per_run(inp)
            except Exception:
                fails = [traceback.format_exc(limit=3)]
        wl.cleanup(inp)
        if fails:
            failed += 1
            failures.append({"op": i, "why": fails[:3]})
        if i == 0:
            # the first operation warms lazy set-up and is left out of the timings
            warmup = elapsed
            start = time.perf_counter()
        else:
            times.append(elapsed)
            raw_times.append(wall)
            factors.append(scale)
            traced_flags.append(traced)
            if not fails:
                draws += wl.draws(inp)
                ok_time += elapsed
        i += 1

    result = {
        "workload": wl.name,
        "seed": args.seed,
        "attempted": i,
        "failed": failed,
        "failures": failures[:10],
        "warmup_op_s": warmup,
        "op_times_s": times,
        "op_wall_s": raw_times,
        "op_scale": factors,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "facts": run_facts(pkg),
    }
    if tracer is None:
        result["op_tail"] = tail(times)
        result["metrics"] = {
            "op_p50_s": statistics.median(times),
            "op_tail_s": result["op_tail"]["value"],
            "draws_per_s": draws / ok_time if ok_time > 0 else 0.0,
            "peak_rss_mb": result["peak_rss_mb"],
        }
    else:
        traced_ops = {n + 1: s for n, (f, s) in enumerate(zip(traced_flags, factors)) if f}
        metrics, table = layer_metrics(
            tracer, traced_ops,
            [t for t, f in zip(times, traced_flags) if f],
            [t for t, f in zip(times, traced_flags) if not f])
        result["metrics"] = metrics
        result["self_time_table"] = table
        result["traced_ops"] = len(traced_ops)
        span_file = os.path.join(args.outdir, f"spans_{wl.name}_seed{args.seed}.jsonl.gz")
        tracer.write(span_file)
        result["span_file"] = os.path.relpath(span_file)
    return result


if __name__ == "__main__":
    sys.exit(main())
