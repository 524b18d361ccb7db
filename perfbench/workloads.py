"""The benchmark's three workloads: inputs, one operation, and output checks.

Every input (parameters, tilts, per-operation seeds) comes from the workload
seed and the operation index alone, so the same seed gives the same inputs
however many operations a run completes.  ``run`` is the timed part of an
operation; ``check`` and ``once_per_run`` run outside the timed region and
return a list of failure messages.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os

import numpy as np

from rieszcone import cli, gindikin, sampling, verify
from rieszcone.algebra import SymElement

SEED_BITS = 63


def op_rng(seed, index):
    return np.random.default_rng([seed, index])


def rotated_tilt(rng, r, lo=0.5, hi=5.0):
    """Dense tilt theta whose -theta has eigenvalues spread over [lo, hi]."""
    q, _ = np.linalg.qr(rng.standard_normal((r, r)))
    lam = np.sort(rng.uniform(lo, hi, r))
    lam[0], lam[-1] = lo, hi
    neg = (q * lam) @ q.T
    return -0.5 * (neg + neg.T)


def dyadic_u(rng, r, scale=4.0, zero_frac=0.4):
    """Random u on a 1/1024 grid, so that s_from_u and u_from_s are exact."""
    u = rng.integers(0, int(scale * 1024) + 1, size=r) / 1024.0
    u[rng.random(r) < zero_frac] = 0.0
    return u


def log_power_lapack(neg_theta, s):
    """log Delta_s((-theta)^{-1}) from LAPACK: slogdet of the leading blocks."""
    y = np.linalg.inv(neg_theta)
    logdet = np.array([np.linalg.slogdet(y[:k, :k])[1] for k in range(1, len(s) + 1)])
    s = np.asarray(s, dtype=float)
    exps = s - np.append(s[1:], 0.0)
    return float(exps @ logdet)


def mean_failures(mats, target, what):
    """Draw mean within 5 standard errors of ``target`` entry by entry."""
    se = mats.std(axis=0, ddof=1) / math.sqrt(len(mats))
    z = float(np.max(np.abs(mats.mean(axis=0) - target) / np.maximum(se, 1e-300)))
    return [] if z <= 5.0 else [f"{what}: mean is {z:.2f} SE from diag(s)"]


class ExportR4:
    """``rieszcone sample`` to a file, ndjson then csv, for the README law."""

    name = "export_r4"
    u = (1.2, 0.0, 0.7, 0.0)
    n = 5_000

    def __init__(self, seed, tmpdir):
        self.seed = seed
        self.tmpdir = tmpdir
        self.s = np.asarray(gindikin.s_from_u(self.u))

    def inputs(self, i):
        op_seed = int(op_rng(self.seed, i).integers(0, 1 << SEED_BITS))
        return {"seed": op_seed,
                "ndjson": os.path.join(self.tmpdir, f"op{i}.ndjson"),
                "csv": os.path.join(self.tmpdir, f"op{i}.csv")}

    def first_spec(self):
        return sampling.RieszSpec.build(u=list(self.u), seed=self.inputs(0)["seed"],
                                        count=self.n)

    def draws(self, inp):
        return 2 * self.n

    def _argv(self, inp, fmt):
        return ["sample", "--u", ",".join(map(repr, self.u)), "--n", str(self.n),
                "--seed", str(inp["seed"]), "--workers", "1",
                "--format", fmt, "--out", inp[fmt]]

    def run(self, inp):
        codes = []
        with contextlib.redirect_stderr(io.StringIO()):
            for fmt in ("ndjson", "csv"):
                codes.append(cli.main(self._argv(inp, fmt)))
        return codes

    def bytes_out(self, inp):
        return sum(os.path.getsize(inp[fmt]) for fmt in ("ndjson", "csv"))

    def check(self, inp, codes):
        fails = [f"exit code {c}" for c in codes if c != 0]
        if fails:
            return fails
        r = len(self.u)
        with open(inp["ndjson"]) as fh:
            header = json.loads(fh.readline())
            rows = [json.loads(line)["data"] for line in fh]
        mats = np.asarray(rows, dtype=float)
        if header["spec"]["n"] != self.n or mats.shape != (self.n, r, r):
            return [f"ndjson holds {mats.shape}, not {self.n} {r}x{r} draws"]
        if not np.array_equal(mats, np.swapaxes(mats, 1, 2)):
            fails.append("ndjson draw not symmetric")
        with open(inp["csv"], newline="") as fh:
            table = list(csv.reader(fh))
        width = r * (r + 1) // 2
        if len(table) != self.n + 1 or any(len(row) != width for row in table[1:]):
            return fails + [f"csv is not a header plus {self.n} rows of {width}"]
        packed = np.asarray(table[1:], dtype=float)
        if not all(v == repr(float(v)) for row in table[1:] for v in row):
            fails.append("csv values are not repr floats")
        rows_i, cols_i = np.triu_indices(r)
        if not np.array_equal(packed, mats[:, rows_i, cols_i]):
            fails.append("csv and ndjson hold different draws")
        return fails + mean_failures(mats, np.diag(self.s), "ndjson")

    def digest(self, inp):
        with open(inp["ndjson"], "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()

    def once_per_run(self, inp):
        """Repeat an operation: the output must be byte-identical."""
        before = self.digest(inp)
        again = dict(inp, ndjson=inp["ndjson"] + ".again", csv=inp["csv"] + ".again")
        codes = self.run(again)
        after = self.digest(again)
        self.cleanup(again)
        if codes != [0, 0] or before != after:
            return ["repeated export is not byte-identical"]
        return []

    def cleanup(self, inp):
        for fmt in ("ndjson", "csv"):
            with contextlib.suppress(FileNotFoundError):
                os.remove(inp[fmt])


class VerifyWideR8:
    """A library session: build, sample on two threads, then three oracles."""

    name = "verify_wide_r8"
    u = (1.5, 0.8, 0.0, 1.2, 0.6, 0.9, 0.0, 0.0)
    n = 5_000
    rank = 5
    probes = (1.1, 1.25)

    def __init__(self, seed, tmpdir):
        self.seed = seed

    def inputs(self, i):
        rng = op_rng(self.seed, i)
        return {"theta": rotated_tilt(rng, len(self.u)),
                "seed": int(rng.integers(0, 1 << SEED_BITS))}

    def first_spec(self):
        return self._spec(self.inputs(0))

    def _spec(self, inp):
        return sampling.RieszSpec.build(u=list(self.u),
                                        theta=SymElement.from_dense(inp["theta"]),
                                        seed=inp["seed"], count=self.n)

    def draws(self, inp):
        return self.n

    def run(self, inp):
        spec = self._spec(inp)
        batch = sampling.sample_riesz(spec, workers=2)
        # 5 SE, as in the export mean check: a run makes thousands of these
        # checks, and at 4 SE one in a few thousand would fail by chance.
        laplace = [verify.laplace_mc(batch, SymElement.from_dense(c * inp["theta"]),
                                     z_threshold=5.0) for c in self.probes]
        profile = verify.rank_profile(batch, expected=self.rank)
        psd_ok, _ = verify.psd_check(batch)
        return {"batch": batch, "laplace": laplace, "rank": profile, "psd": psd_ok}

    def bytes_out(self, inp):
        return 0

    def check(self, inp, out):
        fails = [f"laplace z = {rep.z:.2f} at probe {c} theta"
                 for c, rep in zip(self.probes, out["laplace"]) if not rep.passed]
        if not out["rank"].passed:
            fails.append(f"rank profile {out['rank'].counts}")
        if not out["psd"]:
            fails.append("psd_check failed")
        return fails

    def once_per_run(self, inp):
        """workers=1 and workers=2 must give identical matrices."""
        spec = self._spec(inp)
        one = sampling.sample_riesz(spec, workers=1).matrices
        two = sampling.sample_riesz(spec, workers=2).matrices
        return [] if one.tobytes() == two.tobytes() else ["workers change the draws"]

    def cleanup(self, inp):
        pass


class OracleBattery:
    """The sampler-free oracles: identities, quadrature, admissibility, r=32/48."""

    name = "oracle_battery"
    identity_ranks = (2, 3, 4, 5, 6)
    trials = 100
    roundtrips = 2_000
    big_ranks = (32, 48)
    # the selftest's quadrature grid
    quad_s = ((2.0, 1.0), (2.0, 2.0), (1.5, 0.8))
    quad_theta = (((-1.0, 0.0), (0.0, -1.0)),
                  ((-1.0, 0.0), (0.0, -2.0)),
                  ((-1.5, -0.4), (-0.4, -1.0)))

    def __init__(self, seed, tmpdir):
        self.seed = seed

    def inputs(self, i):
        rng = op_rng(self.seed, i)
        us = [dyadic_u(rng, int(rng.integers(1, 9))) for _ in range(self.roundtrips)]
        big = []
        for r in self.big_ranks:
            u = dyadic_u(rng, r)
            u[0] = max(u[0], 1.0)
            s = gindikin.s_from_u(u)
            theta = rotated_tilt(rng, r)
            # scale the tilt so that the transform is a normal float:
            # log Delta_s((-c theta)^{-1}) = log Delta_s((-theta)^{-1}) - sum(s) log c
            target = rng.uniform(-20.0, 20.0)
            log_c = (log_power_lapack(-theta, s) - target) / float(np.sum(s))
            big.append({"u": u, "theta": theta * math.exp(log_c)})
        return {"identity_seed": int(rng.integers(0, 1 << SEED_BITS)),
                "us": us, "big": big}

    def first_spec(self):
        b = self.inputs(0)["big"][0]
        return sampling.RieszSpec.build(u=b["u"], theta=SymElement.from_dense(b["theta"]))

    def draws(self, inp):
        """Random test points checked: identity trials and admissibility round trips."""
        levels = sum(r - 1 for r in self.identity_ranks)
        return len(verify.IDENTITY_NAMES) * levels * self.trials + len(inp["us"])

    def run(self, inp):
        identities = [rep for r in self.identity_ranks
                      for rep in verify.identity_suite(r, trials=self.trials,
                                                       seed=inp["identity_seed"])]
        quad = [verify.quadrature_check_r2(np.array(s), SymElement.from_dense(np.array(t)))
                for s in self.quad_s for t in self.quad_theta]
        roundtrip_ok = True
        for u in inp["us"]:
            param = gindikin.u_from_s(gindikin.s_from_u(u))
            part = gindikin.build_partition(param)
            roundtrip_ok &= np.array_equal(np.asarray(param.u), u)
            if part.k:
                total = np.sum(np.asarray(part.s_blocks), axis=0)
                roundtrip_ok &= np.array_equal(total, np.asarray(param.s))
        exact = []
        for b in inp["big"]:
            theta = SymElement.from_dense(b["theta"])
            spec = sampling.RieszSpec.build(u=b["u"], theta=theta)
            exact.append((spec.param.s, verify.laplace_exact(spec.param.s, theta)))
        return {"identities": identities, "quad": quad,
                "roundtrip": bool(roundtrip_ok), "exact": exact}

    def bytes_out(self, inp):
        return 0

    def check(self, inp, out):
        fails = [f"identity {rep.name} r={rep.r}: {rep.max_rel_error:.2e}"
                 for rep in out["identities"] if not rep.passed]
        fails += [f"quadrature rel err {q:.2e}" for q in out["quad"] if not q <= 1e-6]
        if not out["roundtrip"]:
            fails.append("u -> s -> u round trip or s-block recomposition not exact")
        for b, (s, value) in zip(inp["big"], out["exact"]):
            ref = log_power_lapack(-b["theta"], s)
            if not (value > 0 and abs(math.log(value) - ref) <= 1e-9):
                fails.append(f"laplace_exact r={len(s)}: {value!r} vs exp({ref!r})")
        return fails

    def once_per_run(self, inp):
        return []

    def cleanup(self, inp):
        pass


WORKLOADS = {w.name: w for w in (ExportR4, VerifyWideR8, OracleBattery)}

