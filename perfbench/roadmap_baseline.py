"""One-off re-measurement of the ROADMAP "Baseline at this re-anchor" rows.

Run from the root of a checkout:

    python3 perfbench/roadmap_baseline.py

Each row runs in a fresh interpreter with ``PYTHONPATH=src`` and the BLAS
thread pool pinned to one thread, ``REPEATS`` times; the median wall time is
written next to the ROADMAP figure to ``perfbench/roadmap_baseline.json``.
This is a report, not a workload: it has no bounds.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "roadmap_baseline.json")
SCRATCH = os.path.join(HERE, "out")
REPEATS = 3

# the ROADMAP does not name the law of its CLI rows; they use the README's
README_LAW = ("--u", "1.2,0,0.7,0")

# row -> ROADMAP figure in seconds
ROADMAP_S = {
    "sample_riesz_200k_half_half_workers1": 3.98,
    "sample_riesz_200k_half_half_workers4": 5.75,
    "cli_sample_100k_ndjson": 8.25,
    "cli_sample_100k_csv": 5.39,
    "import_rieszcone": 0.40,
    "cli_selftest_default": 10.9,
    "spectral_r64": 0.525,
    "spec_build_r64": 0.584,
    "laplace_exact_r64": 1.09,
}


def env():
    return dict(os.environ, PYTHONPATH="src", OPENBLAS_NUM_THREADS="1",
                OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")


def wall(cmd, stdout=subprocess.DEVNULL):
    t0 = time.perf_counter()
    subprocess.run(cmd, env=env(), stdout=stdout, stderr=subprocess.DEVNULL, check=True,
                   timeout=600)
    return time.perf_counter() - t0


def in_process(row):
    """Time one library row inside this (fresh) interpreter."""
    import numpy as np

    from rieszcone import algebra, sampling, verify
    from rieszcone.algebra import SymElement

    if row.startswith("sample_riesz"):
        spec = sampling.RieszSpec.build(s=[0.5, 0.5], seed=0, count=200_000)
        workers = int(row[-1])
        t0 = time.perf_counter()
        sampling.sample_riesz(spec, workers=workers)
        return time.perf_counter() - t0
    rng = np.random.default_rng(64)
    q, _ = np.linalg.qr(rng.standard_normal((64, 64)))
    neg = (q * np.linspace(0.5, 5.0, 64)) @ q.T
    theta = SymElement.from_dense(-0.5 * (neg + neg.T))
    s = [1.0] * 64
    call = {
        "spectral_r64": lambda: algebra.spectral(theta),
        "spec_build_r64": lambda: sampling.RieszSpec.build(u=s, theta=theta),
        "laplace_exact_r64": lambda: verify.laplace_exact(
            sampling.RieszSpec.build(u=s, theta=theta).param.s, theta),
    }[row]
    t0 = time.perf_counter()
    call()
    return time.perf_counter() - t0


def measure(row):
    py = sys.executable
    if row.startswith("cli_sample"):
        fmt = row.rsplit("_", 1)[-1]
        path = os.path.join(SCRATCH, f"baseline.{fmt}")
        try:
            return wall([py, "-m", "rieszcone.cli", "sample", *README_LAW, "--n", "100000",
                         "--format", fmt, "--out", path])
        finally:
            os.remove(path)
    if row == "import_rieszcone":
        return wall([py, "-c", "import rieszcone"])
    if row == "cli_selftest_default":
        return wall([py, "-m", "rieszcone.cli", "selftest"])
    done = subprocess.run([py, __file__, "--row", row], env=env(), capture_output=True,
                          text=True, check=True, timeout=600)
    return float(done.stdout.strip().splitlines()[-1])


def main():
    if len(sys.argv) == 3 and sys.argv[1] == "--row":
        print(in_process(sys.argv[2]))
        return
    os.makedirs(SCRATCH, exist_ok=True)
    rows = {}
    for row, roadmap in ROADMAP_S.items():
        samples = [measure(row) for _ in range(REPEATS)]
        rows[row] = {"median_s": statistics.median(samples), "samples_s": samples,
                     "roadmap_s": roadmap}
        print(f"{row:40s} {rows[row]['median_s']:8.3f} s  (ROADMAP {roadmap} s)", flush=True)
    commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
    report = {
        "what": "ROADMAP baseline rows re-measured; median of fresh-interpreter runs",
        "cli_sample_law": " ".join(README_LAW),
        "r64_tilt": "dense rotated, -theta eigenvalues linspace(0.5, 5, 64), u = 1",
        "git_commit": commit.stdout.strip() or "unknown",
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "blas_thread_pin": "OPENBLAS_NUM_THREADS=OMP_NUM_THREADS=MKL_NUM_THREADS=1",
        "repeats": REPEATS,
        "rows": rows,
    }
    with open(OUT, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
