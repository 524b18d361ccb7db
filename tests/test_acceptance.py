"""Acceptance gate: every advertised guarantee at its stated tolerance.

Each test covers one guarantee end to end and prints a single summary line
(run with -s to see them live):

    [PASS] <guarantee>: <measured figures> (bounds ...)

The bounds are pinned here, not in the library, so loosening one is a
deliberate, reviewable act.
"""

import json
import math
import time

import numpy as np
import pytest

from rieszcone import cli
from rieszcone.algebra import SymElement
from rieszcone.gindikin import (
    NotInGindikinSetError,
    build_partition,
    param_from_u,
    s_from_u,
    u_from_s,
)
from rieszcone.sampling import CHUNK, RieszSpec, sample_riesz
from rieszcone.verify import (
    _log_quadrature_r2,
    identity_suite,
    laplace_mc,
    quadrature_check_r2,
    rank_profile,
)


def report(label, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")


def test_identity_suite():
    """Nine two-route identities (package code against LAPACK), 500 trials
    per split level, ranks 2 through 6."""
    t0 = time.perf_counter()
    worst = 0.0
    all_ok = True
    for r in range(2, 7):
        for rep in identity_suite(r, trials=500, seed=0):
            worst = max(worst, rep.max_rel_error)
            all_ok = all_ok and rep.passed
    elapsed = time.perf_counter() - t0
    ok = all_ok and elapsed < 5.0
    report("structural identities r=2..6",
           ok, f"max rel err {worst:.3e} in {elapsed:.2f}s (bounds 1e-9, 5s)")
    assert all_ok, f"worst relative error {worst:.3e} exceeds 1e-9"
    assert elapsed < 5.0, f"identity sweep took {elapsed:.2f}s"


def test_admissible_roundtrip():
    """10^4 dyadic u vectors: exact inversion and exact block recomposition,
    plus the equal-components membership ladder at rank 3."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    for _ in range(10_000):
        r = int(rng.integers(1, 9))
        u = rng.integers(0, 161, size=r) / 32.0
        u[rng.random(size=r) < 0.4] = 0.0
        param = u_from_s(s_from_u(u))
        assert param.u == tuple(u)
        part = build_partition(param)
        total = np.zeros(r)
        for sb in part.s_blocks:
            total += np.asarray(sb)
        assert tuple(total) == param.s

    grid = {0.0: True, 0.25: False, 0.5: True, 0.75: False, 1.0: True,
            1.25: True}
    for p, expect in grid.items():
        try:
            u_from_s([p, p, p])
            got = True
        except NotInGindikinSetError:
            got = False
        assert got == expect, f"membership at p={p}: got {got}, want {expect}"
    elapsed = time.perf_counter() - t0
    ok = elapsed < 1.0
    report("parameter roundtrip + membership ladder",
           ok, f"10^4 exact roundtrips, grid of 6, in {elapsed:.2f}s (bound 1s)")
    assert ok, f"roundtrip sweep took {elapsed:.2f}s"


def test_quadrature_grid():
    """Rank-2 cone integral against the closed form on a 3x3 (s, theta) grid,
    anchored at the exact gamma-integral point."""
    t0 = time.perf_counter()
    s_grid = [(2.0, 1.0), (0.8, 0.8), (1.4, 0.9)]
    t_grid = [(-1.0, -1.0, 0.0), (-0.6, -2.0, 0.4), (-1.3, -0.7, -0.25)]
    worst = 0.0
    for s in s_grid:
        for t11, t22, t12 in t_grid:
            theta = SymElement.from_dense([[t11, t12], [t12, t22]])
            worst = max(worst, quadrature_check_r2(list(s), theta))
    anchor = math.exp(_log_quadrature_r2([2.0, 1.0],
                                         SymElement.from_dense(-np.eye(2)))[1])
    anchor_err = abs(anchor / 4.442882938158365 - 1.0)
    worst = max(worst, anchor_err)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 30.0
    report("rank-2 quadrature vs closed form",
           ok, f"max rel err {worst:.3e} on 3x3 grid + anchor "
               f"{anchor:.10f} in {elapsed:.2f}s (bounds 1e-6, 30s)")
    assert worst <= 1e-6
    assert elapsed < 30.0


def test_rank_one_gaussian_oracle():
    """s = (1/2,...,1/2) at tilt -e/2 must behave as z z^T with z standard
    normal: mean near the identity, transform ratios near the determinant
    form, at N = 2*10^5 for ranks 2 and 3."""
    t0 = time.perf_counter()
    worst_mean_z = 0.0
    worst_lap_z = 0.0
    route_gap = 0.0
    for r in (2, 3):
        theta = SymElement.from_dense(-0.5 * np.eye(r))
        spec = RieszSpec.build(s=[0.5] * r, theta=theta, seed=460 + r,
                               count=200_000)
        batch = sample_riesz(spec, workers=4)
        se = batch.matrices.std(axis=0, ddof=1) / math.sqrt(len(batch))
        mean_z = np.max(np.abs(batch.mean() - np.eye(r)) / se)
        worst_mean_z = max(worst_mean_z, mean_z)
        assert mean_z < 5.0, f"rank {r} mean off by {mean_z:.2f} SE"

        zetas = [
            -0.30 * np.eye(r), -0.45 * np.eye(r), -0.75 * np.eye(r),
            -1.50 * np.eye(r),
            -0.55 * np.eye(r) + 0.1 * (np.ones((r, r)) - np.eye(r)),
        ]
        for zd in zetas:
            zeta = SymElement.from_dense(zd)
            rep = laplace_mc(batch, zeta, z_threshold=4.0)
            det_form = float(np.linalg.det(
                np.eye(r) - 2.0 * (zd - theta.matrix))) ** -0.5
            # the generalized-power route and the Gaussian determinant
            # route must coincide before the Monte Carlo check means much
            route_gap = max(route_gap, abs(rep.exact / det_form - 1.0))
            assert route_gap < 1e-10
            lap_z = abs(rep.estimate - det_form) / rep.stderr
            worst_lap_z = max(worst_lap_z, lap_z)
            assert lap_z <= 4.0, f"rank {r} transform off by {lap_z:.2f} SE"
    elapsed = time.perf_counter() - t0
    ok = elapsed < 10.0
    report("rank-one law vs Gaussian oracle",
           ok, f"worst mean z {worst_mean_z:.2f} (bound 5), worst transform z "
               f"{worst_lap_z:.2f} (bound 4), route gap {route_gap:.1e}, "
               f"in {elapsed:.2f}s (bound 10s)")
    assert ok, f"rank-one oracle took {elapsed:.2f}s"


def test_generic_singular_law():
    """u = (1.2, 0, 0.7, 0) at rank 4: exact parameter recovery, transform
    ratio 0.8^3.9 at N = 2*10^5, and the full rank histogram."""
    t0 = time.perf_counter()
    param = param_from_u([1.2, 0.0, 0.7, 0.0])
    assert param.s == (1.2, 0.5, 1.2, 1.0)  # exact in binary floating point

    spec = RieszSpec.build(u=[1.2, 0.0, 0.7, 0.0], seed=91, count=200_000)
    batch = sample_riesz(spec, workers=4)
    zeta = SymElement.from_dense(-1.25 * np.eye(4))
    rep = laplace_mc(batch, zeta, z_threshold=4.0)
    want = 0.8 ** 3.9
    assert abs(want - 0.4188) < 1e-4
    assert rep.exact == pytest.approx(want, rel=1e-12)
    lap_z = abs(rep.estimate - want) / rep.stderr
    assert lap_z <= 4.0, f"transform ratio off by {lap_z:.2f} SE"

    prof = rank_profile(batch, expected=2)
    assert prof.frac_at_most == 1.0, "a draw exceeded the support rank"
    assert prof.frac_expected >= 0.999

    elapsed = time.perf_counter() - t0
    ok = elapsed < 15.0
    report("generic singular law",
           ok, f"ratio z {lap_z:.2f} (bound 4), rank=2 fraction "
               f"{prof.frac_expected:.4f} (bound 0.999), in {elapsed:.2f}s "
               f"(bound 15s)")
    assert ok, f"generic singular law took {elapsed:.2f}s"


def test_mean_identity():
    """At tilt -e the mean is diag(s), for one interior and one boundary
    parameter."""
    worst = 0.0
    for u in ([1.0, 0.8, 0.6], [1.2, 0.0, 0.7, 0.0]):
        spec = RieszSpec.build(u=u, seed=7, count=100_000)
        batch = sample_riesz(spec, workers=4)
        se = batch.matrices.std(axis=0, ddof=1) / math.sqrt(len(batch))
        se[se == 0] = 1e-30
        z = np.max(np.abs(batch.mean() - np.diag(spec.param.s)) / se)
        worst = max(worst, z)
        assert z < 5.0, f"mean at u={u} off by {z:.2f} SE"
    report("tilted mean identity", True,
           f"worst componentwise z {worst:.2f} (bound 5)")


def test_sampling_byte_determinism(capsys, tmp_path):
    """Identical sampling invocations produce byte-identical output,
    whatever the parallelism."""
    # two chunk boundaries and a partial last chunk; every chunk is drawn on
    # the calling thread, so the worker count must not change a bit
    n = str(2 * CHUNK + 7)
    ndjson_args = ["sample", "--u", "1.2,0,0.7,0", "--n", n, "--seed", "17"]
    outputs = []
    for extra in ([], [], ["--workers", "4"]):
        assert cli.main(ndjson_args + extra) == 0
        outputs.append(capsys.readouterr().out.encode())
    assert outputs[0] == outputs[1] == outputs[2]

    csv_bytes = []
    for i, extra in enumerate(([], ["--workers", "3"])):
        path = tmp_path / f"out{i}.csv"
        args = ["sample", "--s", "1.0,1.0", "--n", n, "--seed", "4",
                "--format", "csv", "--out", str(path)]
        assert cli.main(args + extra) == 0
        csv_bytes.append(path.read_bytes())
    capsys.readouterr()
    assert csv_bytes[0] == csv_bytes[1]

    with capsys.disabled():
        report("byte determinism", True,
               "ndjson x3 (workers 1,1,4) and csv x2 (workers 1,3) identical")
