"""The rieszcone benchmark: one command, three closed-loop workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload export_r4 --seed 1 --seconds 30 --trace 0

Workloads (one client each; it starts an operation only when the last one
has finished, and uses at most two threads):

* ``export_r4``      ``rieszcone sample`` of 5 000 draws of the README law
                     to a file, ndjson then csv, in process.
* ``verify_wide_r8`` ``RieszSpec.build``, ``sample_riesz(workers=2)`` of
                     5 000 draws at r=8, then ``laplace_mc``,
                     ``rank_profile`` and ``psd_check``.
* ``oracle_battery`` the sampler-free oracles: identity suite, quadrature,
                     admissibility round trips, r=32/48 builds and transforms.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median over six
fresh interpreters of the time from spawn to ``import rieszcone`` done and
the first spec validated), ``op_p50_s``, ``op_tail_s``, ``draws_per_s`` and
``peak_rss_mb``.  Times are scaled to the reference machine speed of
``calibrate.py``; raw wall times are kept in the result file.  ``error_rate`` is printed in the summary and carried by
``attempted``/``failed`` of the result line.  ``--trace 1`` prints the
per-layer metrics of a traced run (see ``tracing.py``); ``layers.json`` maps
each of them to the end-to-end metric and workload it should move.  Every operation's
output is checked; a failed check counts the operation as failed.

Workload processes run with ``PYTHONPATH=src`` and the BLAS thread pool
pinned to one thread, so that ``workers`` is the only concurrency.  Results,
span files and run facts go to ``perfbench/out/``; the last line of stdout is
the result object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import select
import statistics
import subprocess
import sys
import time

import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
OUTDIR = os.path.join(HERE, "out")
WORKLOADS = ("export_r4", "verify_wide_r8", "oracle_battery")
SETUP_SPAWNS = 6
IMPORTTIME_SPAWNS = 3
DEADLINE_S = 170.0
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    pass


def worker_env():
    return dict(os.environ, PYTHONPATH="src", **BLAS_PIN)


def stop(proc):
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def spawn_worker(args, deadline, setup_only=False):
    """Start a worker; return (process, wall seconds from spawn to its ``ready``)."""
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--outdir", OUTDIR]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=worker_env(), text=True)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], deadline - time.monotonic())
        line = proc.stdout.readline() if ready else ""
        setup = time.perf_counter() - t0
        if line.strip() != "ready":
            raise BenchError(f"worker did not get ready (exit {proc.poll()})")
    except BaseException:
        stop(proc)
        raise
    return proc, setup


def finish(proc, deadline):
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        stop(proc)
        raise BenchError("worker ran past the deadline")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    return out


def setup_times(args, deadline):
    """(scaled, wall) spawn-to-ready times of fresh set-up-only workers."""
    scaled, wall = [], []
    for _ in range(SETUP_SPAWNS):
        before = calibrate.loop_s()
        proc, setup = spawn_worker(args, deadline, setup_only=True)
        finish(proc, deadline)
        scaled.append(setup * calibrate.factor(before, calibrate.loop_s()))
        wall.append(setup)
    return scaled, wall


def import_times(deadline):
    """Median scaled ``import rieszcone`` and scipy share from ``-X importtime``."""
    totals, scipys = [], []
    for _ in range(IMPORTTIME_SPAWNS):
        before = calibrate.loop_s()
        done = subprocess.run([sys.executable, "-X", "importtime", "-c", "import rieszcone"],
                              env=worker_env(), capture_output=True, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
        if done.returncode != 0:
            raise BenchError("import rieszcone failed")
        scale = calibrate.factor(before, calibrate.loop_s())
        total, scipy = parse_importtime(done.stderr)
        totals.append(total * scale)
        scipys.append(scipy * scale)
    return statistics.median(totals), statistics.median(scipys)


def parse_importtime(text):
    """(rieszcone cumulative s, cumulative s of the outermost scipy imports)."""
    rows = []
    for line in text.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)", line)
        if m:
            rows.append((int(m.group(2)) * 1e-6, len(m.group(3)), m.group(4)))
    total = next(cum for cum, _, name in rows if name == "rieszcone")
    # children are printed before their parent, so walk backwards and keep
    # a scipy entry only when no enclosing entry is a scipy one
    scipy, stack = 0.0, []
    for cum, depth, name in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not any(s for _, s in stack):
            scipy += cum
        stack.append((depth, is_scipy))
    return total, scipy


def git_commit():
    if not os.path.isdir(".git"):
        return "unknown: not a git checkout"
    done = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                          timeout=30)
    return done.stdout.strip() or "unknown"


def src_lines():
    total = 0
    for root, _, files in os.walk("src"):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(root, name), "rb") as fh:
                    total += sum(1 for _ in fh)
    return total


def declared(kind):
    with open("BENCHMARK.json") as fh:
        units = {m["name"]: m["unit"] for m in json.load(fh)[kind]}
    if kind == "per_layer":
        with open(os.path.join(HERE, "layers.json")) as fh:
            mapped = set(json.load(fh))
        if mapped != set(units):
            raise BenchError(f"layers.json and BENCHMARK.json disagree on "
                             f"{sorted(mapped ^ set(units))}")
    return units


def measure(args):
    deadline = time.monotonic() + DEADLINE_S
    os.makedirs(OUTDIR, exist_ok=True)
    setups, setup_wall = setup_times(args, deadline) if not args.trace else ([], [])
    proc, _ = spawn_worker(args, deadline)
    result = json.loads(finish(proc, deadline).strip().splitlines()[-1])
    result["setup_s_samples"] = setups
    result["setup_wall_s"] = setup_wall
    result["facts"].update({"git_commit": git_commit(), "src_py_lines": src_lines(),
                            "workload_seed": args.seed})
    metrics = result["metrics"]
    if args.trace:
        metrics["import.rieszcone_s"], metrics["import.scipy_s"] = import_times(deadline)
    else:
        metrics["setup_s"] = statistics.median(setups)
    return result


def report(args, result):
    kind = "per_layer" if args.trace else "end_to_end"
    units = declared(kind)
    metrics = result["metrics"]
    if set(metrics) != set(units):
        raise BenchError(f"metrics {sorted(set(metrics) ^ set(units))} do not match "
                         f"the {kind} list of BENCHMARK.json")
    attempted, failed = result["attempted"], result["failed"]
    print(json.dumps({"facts": result["facts"]}))
    timed = len(result["op_times_s"])
    if args.trace:
        traced = result["traced_ops"]
        counts = {"import.rieszcone_s": IMPORTTIME_SPAWNS, "import.scipy_s": IMPORTTIME_SPAWNS,
                  "trace.untraced_op_p50_s": timed - traced}
    else:
        traced = timed
        counts = {"setup_s": len(result["setup_s_samples"]), "peak_rss_mb": 1}
    for name in sorted(units):
        extra = ""
        if name == "op_tail_s":
            tail = result["op_tail"]
            extra = f", p{tail['percentile']:.1f} with {tail['beyond']} beyond"
        elif name == "op_p50_s":
            extra = f", wall p50 {statistics.median(result['op_wall_s']):.4g} s"
        elif name == "setup_s":
            extra = f", wall p50 {statistics.median(result['setup_wall_s']):.4g} s"
        n = counts.get(name, traced)
        print(f"{args.workload} {name} = {metrics[name]:.6g} {units[name]} (n={n}{extra})")
    print(f"{args.workload} error_rate = {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} operations failed)")
    for f in result["failures"]:
        print(f"failed op {f['op']}: {f['why']}", file=sys.stderr)
    if args.trace:
        table = result["self_time_table"]["layers"]
        base = metrics["trace.traced_op_p50_s"]
        print(f"self time per layer, median per traced op (traced op p50 {base:.4f} s):")
        for layer, row in table.items():
            print(f"  {layer:9s} {row['self_s']:10.4f} s  {100 * row['share_of_traced_op_p50']:6.2f} %")
        print(f"tracing overhead {metrics['trace.overhead_s']:+.4f} s on an untraced "
              f"op p50 of {metrics['trace.untraced_op_p50_s']:.4f} s")
    path = os.path.join(OUTDIR, f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds is None:
        with open("BENCHMARK.json") as fh:
            args.seconds = json.load(fh)["run_seconds"]
    if not os.path.isfile(os.path.join("src", "rieszcone", "__init__.py")):
        print("run from the root of a rieszcone checkout: src/rieszcone is missing",
              file=sys.stderr)
        return 2
    try:
        report(args, measure(args))
    except BenchError as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
