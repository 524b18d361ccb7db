"""Run the benchmark once per workload and keep the result lines in BENCH_<label>.json.

    python3 bench.py --label after
    python3 bench.py --label after --checkout ../before --workload oracle_battery --seed 7

Each run is ``perfbench/run.py --workload W --seed S --trace 0`` inside the
checkout (default: this one), so the run length is the ``run_seconds`` of
the checkout's BENCHMARK.json, and the workloads default to the ones it
lists.  The run's last stdout line, the result object, is appended to
``BENCH_<label>.json`` beside this script, together with the workload, seed,
run length and the checkout's commit.  ``dirty`` is true when the checkout
has uncommitted changes to tracked files, i.e. the numbers are for the
working tree on top of ``commit``.  Repeat the command against two
checkouts, alternating, to collect paired runs in one file.

The run gets ``PYTHONDONTWRITEBYTECODE=1``, so that it leaves no bytecode
behind and each of its workers compiles rieszcone, as in a fresh checkout.
``pycache`` records whether ``src/rieszcone/__pycache__`` existed when the
run started; if it did, the workers imported cached bytecode, which moves
setup_s and peak_rss_mb, and a warning is printed.  Remove that directory
before measuring.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def git(checkout, *args):
    done = subprocess.run(["git", *args], cwd=checkout, capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def run_once(checkout, workload, seed):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, env=env)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"bench: {workload} exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--label", required=True, help="file name part: BENCH_<label>.json")
    p.add_argument("--checkout", default=HERE, help="checkout to measure (default: this one)")
    p.add_argument("--workload", action="append",
                   help="repeat to pick workloads (default: all in BENCHMARK.json)")
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args(argv)
    checkout = os.path.abspath(args.checkout)
    with open(os.path.join(checkout, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    commit = git(checkout, "rev-parse", "HEAD") or "unknown"
    dirty = bool(git(checkout, "status", "--porcelain", "--untracked-files=no"))
    path = os.path.join(HERE, f"BENCH_{args.label}.json")
    cache = os.path.join(checkout, "src", "rieszcone", "__pycache__")
    for workload in args.workload or [w["name"] for w in declared["workloads"]]:
        pycache = os.path.isdir(cache)
        if pycache:
            print(f"bench: warning: {cache} exists, so {workload} imports cached "
                  "bytecode; remove it to measure as a fresh checkout", file=sys.stderr)
        result = run_once(checkout, workload, args.seed)
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except FileNotFoundError:
            doc = {"label": args.label, "runs": []}
        doc["runs"].append({"commit": commit, "dirty": dirty, "pycache": pycache,
                            "workload": workload, "seed": args.seed,
                            "seconds": declared["run_seconds"], "result": result})
        with open(path + ".tmp", "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
        os.replace(path + ".tmp", path)
        value = result["metrics"]["op_p50_s"]["value"]
        print(f"{workload} seed {args.seed} commit {commit[:12]}{'+' if dirty else ''}: "
              f"op_p50_s {value:.4g}, failed {result['failed']} of {result['attempted']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
