"""Verification oracles: closed forms, identity sweeps, quadrature, ranks.

Every check here runs two genuinely independent routes and compares them:

* ``laplace_exact`` evaluates the closed-form transform (a generalized power
  of the negated inverse tilt, through the package's one-pass minors) while
  ``laplace_mc`` re-estimates the same ratio from sampler output by
  importance reweighting.
* ``quadrature_check_r2`` integrates the rank-2 density over the cone with
  an adaptive Gauss-Jacobi tensor rule and compares against the closed form.
* ``identity_suite`` realizes the structural identities behind the sampler
  (projection, half-space operators, pairing, commutation, positivity,
  minor/Schur complements) as numeric two-route checks on random batches.
* ``rank_profile`` checks the almost-sure rank of singular draws.

The suite holds the routes apart on purpose: the two minor identities put
this package's hand-rolled one-pass minors against stock LAPACK
determinants; the other seven compare two numpy routes on raw arrays
(Kronecker determinants, composed symmetrized products, eigenvalue signs).

Every whole-tilt check (the tilt of ``laplace_exact`` and
``quadrature_integral_r2``, the variance guard of ``laplace_mc``) goes
through ``algebra.require_negative_definite``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from . import algebra
from .algebra import SymElement
from .gindikin import log_gamma_omega, param_from_u, u_from_s
from .sampling import CHUNK, RieszSpec, SampleBatch, TiltError, sample_riesz

__all__ = [
    "VerifyError",
    "VarianceGuardError",
    "QuadratureError",
    "LaplaceReport",
    "IdentityReport",
    "RankProfile",
    "laplace_exact",
    "laplace_mc",
    "quadrature_integral_r2",
    "quadrature_check_r2",
    "identity_suite",
    "IDENTITY_NAMES",
    "rank_profile",
    "psd_check",
    "run_selftest",
]

_TINY = 1e-300
RANK_REL_TOL = 1e-8  # rank_profile: singular values above this * largest count
PSD_TOL = 1e-9  # psd_check: allowed min eigenvalue, relative to the Frobenius norm


class VerifyError(ValueError):
    pass


class VarianceGuardError(VerifyError):
    """The reweighting estimator would have infinite variance."""


class QuadratureError(VerifyError):
    pass


# -- Laplace transform oracle ----------------------------------------------


def laplace_exact(s, theta: SymElement) -> float:
    """Closed-form transform: the generalized power of (-theta)^{-1} at s.

    Requires s admissible (d = 1) and -theta positive definite.
    """
    param = u_from_s(s, d=1.0)
    if param.r != theta.r:
        raise VerifyError(
            f"parameter length {param.r} does not match tilt rank {theta.r}"
        )
    algebra.require_negative_definite(theta, TiltError, "tilt")
    neg_inv = SymElement(np.linalg.inv(-theta.matrix))
    return algebra.generalized_power(neg_inv, param.s)


@dataclass(frozen=True)
class LaplaceReport:
    n: int
    exact: float
    estimate: float
    stderr: float
    z: float
    threshold: float
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "exact": self.exact,
            "estimate": self.estimate,
            "stderr": self.stderr,
            "z": self.z,
            "threshold": self.threshold,
            "pass": self.passed,
        }


def laplace_mc(batch: SampleBatch, zeta: SymElement,
               z_threshold: float = 4.0) -> LaplaceReport:
    """Reweighting estimate of the transform ratio at zeta against theta.

    Estimates E[exp(<zeta - theta, X>)], whose exact value is the ratio of
    closed-form transforms at zeta and theta.  Refuses to run when
    -(2 zeta - theta) is not positive definite: the weight variance is
    infinite there and the z-score would be meaningless.
    """
    spec = batch.spec
    theta = spec.theta
    if zeta.r != theta.r:
        raise VerifyError("zeta rank does not match the batch")
    guard = SymElement(2.0 * zeta.matrix - theta.matrix)
    algebra.require_negative_definite(
        guard, VarianceGuardError, "2 zeta - theta (finite weight variance)")
    exact = laplace_exact(spec.param.s, zeta) / laplace_exact(spec.param.s, theta)
    diff = zeta.matrix - theta.matrix
    logw = np.einsum("nij,ij->n", batch.matrices, diff)
    w = np.exp(logw)
    est = float(w.mean())
    stderr = float(w.std(ddof=1) / math.sqrt(len(w))) if len(w) > 1 else 0.0
    if stderr == 0.0:
        z = 0.0 if est == exact else math.inf
    else:
        z = (est - exact) / stderr
    return LaplaceReport(
        n=len(w), exact=exact, estimate=est, stderr=stderr, z=z,
        threshold=z_threshold, passed=bool(abs(z) <= z_threshold),
    )


# -- adaptive quadrature over the rank-2 cone ------------------------------


def _jacobi_rule_01(n: int, alpha: float, beta: float):
    """Nodes/weights on [0, 1] for the weight t^beta (1-t)^alpha."""
    # imported here so that importing the package does not load scipy
    from scipy.special import roots_jacobi

    x, w = roots_jacobi(n, alpha, beta)
    return 0.5 * (x + 1.0), w * 0.5 ** (alpha + beta + 1.0)


def quadrature_integral_r2(s, theta: SymElement, moment=None,
                           n_start: int = 12, n_max: int = 192,
                           rtol: float = 1e-8) -> float:
    """Integral of Delta_{s-3/2}(x) e^{<theta,x>} [moment(a,b,c)] over the cone.

    Here x = [[a, b], [b, c]] ranges over the open rank-2 cone and the flat
    measure is the one induced by the trace inner product, i.e.
    dx = sqrt(2) da db dc.  The region is mapped to the unit cube by
    a = p/(1-p), c = q/(1-q), b = (2w - 1) sqrt(ac); the density's endpoint
    singularities p^{s1-1}, q^{s2-1}, (w(1-w))^{s2-3/2} are absorbed into
    Gauss-Jacobi weights.  The per-axis node count doubles from ``n_start``
    until two successive estimates agree to ``rtol`` relative.
    """
    s = np.asarray(s, dtype=float)
    if s.shape != (2,) or theta.r != 2:
        raise VerifyError("the quadrature oracle is specific to rank 2")
    s1, s2 = float(s[0]), float(s[1])
    if not (s1 > 0.0 and s2 > 0.5):
        raise VerifyError(
            f"need s1 > 0 and s2 > 1/2 for an integrable density, got {s.tolist()}"
        )
    td = theta.matrix
    algebra.require_negative_definite(theta, TiltError, "tilt")
    t11, t22, t12 = td[0, 0], td[1, 1], td[0, 1]
    alpha = s2 - 1.5
    prefactor = math.sqrt(2.0) * 2.0 * 4.0 ** alpha

    prev = None
    n = n_start
    while n <= n_max:
        p, wp = _jacobi_rule_01(n, 0.0, s1 - 1.0)
        q, wq = _jacobi_rule_01(n, 0.0, s2 - 1.0)
        w, ww = _jacobi_rule_01(n, alpha, alpha)
        a = p / (1.0 - p)
        c = q / (1.0 - q)
        ga = (1.0 - p) ** (-s1 - 1.0)
        gc = (1.0 - q) ** (-s2 - 1.0)
        amesh = a[:, None, None]
        cmesh = c[None, :, None]
        b = (2.0 * w - 1.0)[None, None, :] * np.sqrt(amesh * cmesh)
        with np.errstate(under="ignore"):
            f = np.exp(t11 * amesh + t22 * cmesh + 2.0 * t12 * b)
        f *= ga[:, None, None] * gc[None, :, None]
        if moment is not None:
            f = f * moment(amesh, b, cmesh)
        total = prefactor * float(np.einsum("i,j,k,ijk->", wp, wq, ww, f))
        if prev is not None and abs(total - prev) <= rtol * max(abs(total), _TINY):
            return total
        prev = total
        n *= 2
    raise QuadratureError(
        f"tensor rule did not stabilize to {rtol:.1e} by {n_max} nodes per axis"
    )


def quadrature_check_r2(s, theta: SymElement, **kw) -> float:
    """Relative discrepancy between the cone integral and its closed form."""
    integral = quadrature_integral_r2(s, theta, **kw)
    s = np.asarray(s, dtype=float)
    closed = math.exp(log_gamma_omega(s, 2, 1.0)) * laplace_exact(s, theta)
    return abs(integral / closed - 1.0)


# -- structural identity suite ----------------------------------------------


@dataclass(frozen=True)
class IdentityReport:
    name: str
    r: int
    trials: int
    max_rel_error: float
    threshold: float
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "r": self.r,
            "trials": self.trials,
            "max_rel_error": self.max_rel_error,
            "threshold": self.threshold,
            "pass": self.passed,
        }


def _cone_stack(rng, n, m):
    """Random interior points: X X^T shifted off the boundary."""
    x = rng.standard_normal((n, m, m))
    return x @ np.swapaxes(x, 1, 2) + 1e-3 * np.eye(m)


def _sym_stack(rng, n, m):
    x = rng.standard_normal((n, m, m))
    return 0.5 * (x + np.swapaxes(x, 1, 2))


def _embed_offdiag(b, r, l):
    """(n, l, r-l) coupling blocks -> symmetric (n, r, r) half-space points."""
    n = b.shape[0]
    out = np.zeros((n, r, r))
    out[:, :l, l:] = b
    out[:, l:, :l] = np.swapaxes(b, 1, 2)
    return out


def _embed_leading(a, r):
    n, l = a.shape[0], a.shape[1]
    out = np.zeros((n, r, r))
    out[:, :l, :l] = a
    return out


def _embed_trailing(z, r):
    n, m = z.shape[0], z.shape[1]
    out = np.zeros((n, r, r))
    out[:, r - m:, r - m:] = z
    return out


def _jp(x, y):
    """Batched symmetrized product (the generic route)."""
    return 0.5 * (x @ y + y @ x)


def _rel_scalar(lhs, rhs):
    denom = np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), _TINY)
    return float(np.max(np.abs(lhs - rhs) / denom))


def _rel_mat(lhs, rhs):
    diff = np.linalg.norm(lhs - rhs, axis=(-2, -1))
    denom = np.maximum(
        np.maximum(np.linalg.norm(lhs, axis=(-2, -1)),
                   np.linalg.norm(rhs, axis=(-2, -1))), _TINY)
    return float(np.max(diff / denom))


def _pd_violation(stack):
    """max(0, -lambda_min) / lambda_max per matrix; zero iff PSD."""
    ev = np.linalg.eigvalsh(stack)
    return float(np.max(np.maximum(0.0, -ev[..., 0]) /
                        np.maximum(np.abs(ev[..., -1]), _TINY)))


def _id_cone_projection(rng, r, l, n):
    # projecting an interior point lands in the sub-cone ...
    x = _cone_stack(rng, n, r)
    err = _pd_violation(x[:, :l, :l])
    # ... and the projection fixes sub-cone points shifted by the co-identity
    w = _embed_leading(_cone_stack(rng, n, l), r)
    proj = np.zeros((r, r))
    proj[:l, :l] = np.eye(l)
    shifted = w + (np.eye(r) - proj)
    back = proj @ shifted @ proj
    return max(err, _rel_mat(back, w))


def _id_half_space_determinant(rng, r, l, n):
    m = r - l
    a = _cone_stack(rng, n, l)
    big = np.einsum("nij,ab->niajb", a, np.eye(m)).reshape(n, l * m, l * m)
    return _rel_scalar(np.linalg.det(big), np.linalg.det(a) ** m)


def _id_half_space_inverse(rng, r, l, n):
    m = r - l
    a = _cone_stack(rng, n, l)
    v = _embed_offdiag(rng.standard_normal((n, l, m)), r, l)
    x = _embed_leading(a, r)
    xinv = _embed_leading(np.linalg.inv(a), r)
    roundtrip = 2.0 * _jp(xinv, 2.0 * _jp(x, v))
    return _rel_mat(roundtrip, v)


def _id_half_space_square(rng, r, l, n):
    m = r - l
    a = _sym_stack(rng, n, l)
    v = _embed_offdiag(rng.standard_normal((n, l, m)), r, l)
    x = _embed_leading(a, r)
    xsq = _embed_leading(a @ a, r)
    lhs = 4.0 * _jp(x, _jp(x, v))
    rhs = 2.0 * _jp(xsq, v)
    return _rel_mat(lhs, rhs)


def _id_quadratic_pairing(rng, r, l, n):
    m = r - l
    u1 = _embed_leading(_sym_stack(rng, n, l), r)
    z0 = _embed_trailing(_sym_stack(rng, n, m), r)
    v = _embed_offdiag(rng.standard_normal((n, l, m)), r, l)
    quad = v @ z0 @ v
    lhs = np.einsum("nij,nij->n", u1, quad)
    rhs = 2.0 * np.einsum("nij,nij->n", v, _jp(z0, _jp(u1, v)))
    return _rel_scalar(lhs, rhs)


def _id_mixed_commutation(rng, r, l, n):
    m = r - l
    u1 = _embed_leading(_sym_stack(rng, n, l), r)
    z0 = _embed_trailing(_sym_stack(rng, n, m), r)
    v = _embed_offdiag(rng.standard_normal((n, l, m)), r, l)
    return _rel_mat(_jp(z0, _jp(u1, v)), _jp(u1, _jp(z0, v)))


def _id_mixed_positivity(rng, r, l, n):
    m = r - l
    u1 = _embed_leading(_cone_stack(rng, n, l), r)
    z0 = _embed_trailing(_cone_stack(rng, n, m), r)
    basis = _embed_offdiag(np.eye(l * m).reshape(l * m, l, m), r, l)
    acted = _jp(u1[:, None], _jp(z0[:, None], basis[None]))
    op = acted[:, :, :l, l:].reshape(n, l * m, l * m)
    op = np.swapaxes(op, 1, 2)  # columns index the input basis element
    op = 0.5 * (op + np.swapaxes(op, 1, 2))
    return _pd_violation(op)


def _id_minor_complement(rng, r, l, n):
    y = _cone_stack(rng, n, r)
    inv = np.linalg.inv(y)
    lead = np.array([
        algebra.minors(SymElement(inv[i]))[l - 1] for i in range(n)
    ])
    rhs = np.linalg.det(y[:, l:, l:]) / np.linalg.det(y)
    return _rel_scalar(lead, rhs)


def _id_minor_ratios(rng, r, l, n):
    y = _cone_stack(rng, n, r)
    inv = np.linalg.inv(y)
    mins = np.array([algebra.minors(SymElement(inv[i])) for i in range(n)])
    inv_trail = np.linalg.inv(y[:, l:, l:])
    worst = 0.0
    for p in range(1, r - l + 1):
        lhs = mins[:, l + p - 1] / mins[:, l - 1]
        rhs = np.linalg.det(inv_trail[:, :p, :p])
        worst = max(worst, _rel_scalar(lhs, rhs))
    return worst


_IDENTITIES = [
    ("cone_projection", _id_cone_projection),
    ("half_space_determinant", _id_half_space_determinant),
    ("half_space_inverse", _id_half_space_inverse),
    ("half_space_square", _id_half_space_square),
    ("quadratic_pairing", _id_quadratic_pairing),
    ("mixed_commutation", _id_mixed_commutation),
    ("mixed_positivity", _id_mixed_positivity),
    ("minor_complement", _id_minor_complement),
    ("minor_ratios", _id_minor_ratios),
]

IDENTITY_NAMES = tuple(name for name, _ in _IDENTITIES)


def identity_suite(r: int, trials: int = 500, seed: int = 0,
                   threshold: float = 1e-9) -> list:
    """Run the nine structural identities at rank r over random batches.

    Every identity is swept over all split levels l in 1..r-1 with ``trials``
    fresh random points per level; the reported figure is the worst relative
    discrepancy (or positivity violation) seen.
    """
    if r < 2:
        raise VerifyError("the identity suite needs rank at least 2")
    reports = []
    for name, fn in _IDENTITIES:
        rng = np.random.default_rng([seed, r, IDENTITY_NAMES.index(name)])
        worst = 0.0
        for l in range(1, r):
            worst = max(worst, fn(rng, r, l, trials))
        reports.append(IdentityReport(
            name=name, r=r, trials=trials, max_rel_error=worst,
            threshold=threshold, passed=bool(worst <= threshold),
        ))
    return reports


# -- sample diagnostics ------------------------------------------------------


@dataclass(frozen=True)
class RankProfile:
    expected: int
    n: int
    counts: dict
    frac_expected: float
    frac_at_most: float
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "expected": self.expected,
            "n": self.n,
            "counts": {str(k): v for k, v in sorted(self.counts.items())},
            "frac_expected": self.frac_expected,
            "frac_at_most": self.frac_at_most,
            "pass": self.passed,
        }


def rank_profile(batch: SampleBatch, expected: int) -> RankProfile:
    """Numerical rank histogram: singular values above RANK_REL_TOL * largest."""
    sv = np.linalg.svd(batch.matrices, compute_uv=False)
    top = np.maximum(sv[:, :1], _TINY)
    ranks = (sv > RANK_REL_TOL * top).sum(axis=1)
    counts = {int(k): int(v) for k, v in zip(*np.unique(ranks, return_counts=True))}
    n = len(ranks)
    frac_expected = float((ranks == expected).sum() / n)
    frac_at_most = float((ranks <= expected).sum() / n)
    return RankProfile(
        expected=expected, n=n, counts=counts,
        frac_expected=frac_expected, frac_at_most=frac_at_most,
        passed=bool(frac_at_most == 1.0 and frac_expected >= 0.999),
    )


def psd_check(batch: SampleBatch):
    """(all_ok, worst ratio): min eigenvalue >= -PSD_TOL * Frobenius norm each."""
    ev = np.linalg.eigvalsh(batch.matrices)
    norms = np.maximum(np.linalg.norm(batch.matrices, axis=(1, 2)), _TINY)
    ratio = -ev[:, 0] / norms
    worst = float(np.max(ratio))
    return bool(worst <= PSD_TOL), worst


# -- aggregated self-test ----------------------------------------------------


def _dyadic_u(rng, r, scale=4.0, zero_frac=0.4):
    u = rng.integers(0, int(scale * 1024) + 1, size=r) / 1024.0
    u[rng.random(r) < zero_frac] = 0.0
    return u


def _selftest_admissibility(seed, rounds):
    rng = np.random.default_rng([seed, 101])
    from .gindikin import build_partition, s_from_u
    ok_roundtrip = True
    ok_recompose = True
    for _ in range(rounds):
        r = int(rng.integers(1, 9))
        u = _dyadic_u(rng, r)
        param = u_from_s(s_from_u(u))
        if not np.array_equal(np.asarray(param.u), u):
            ok_roundtrip = False
        part = build_partition(param)
        if part.k:
            total = np.sum(np.asarray(part.s_blocks), axis=0)
            if not np.array_equal(total, np.asarray(param.s)):
                ok_recompose = False
    grid = {}
    expected = {0.0: True, 0.25: False, 0.5: True, 0.75: False, 1.0: True, 1.25: True}
    ok_grid = True
    for p, want in expected.items():
        try:
            u_from_s([p, p, p])
            got = True
        except Exception:
            got = False
        grid[str(p)] = got
        ok_grid = ok_grid and (got == want)
    passed = ok_roundtrip and ok_recompose and ok_grid
    return {
        "pass": passed,
        "rounds": rounds,
        "roundtrip_exact": ok_roundtrip,
        "recomposition_exact": ok_recompose,
        "scalar_grid": grid,
    }


def _selftest_quadrature(full: bool):
    s_grid = [(2.0, 1.0), (2.0, 2.0), (1.5, 0.8)]
    th_grid = [
        np.array([[-1.0, 0.0], [0.0, -1.0]]),
        np.array([[-1.0, 0.0], [0.0, -2.0]]),
        np.array([[-1.5, -0.4], [-0.4, -1.0]]),
    ]
    points = []
    worst = 0.0
    pairs = [(s, t) for s in s_grid for t in th_grid] if full \
        else [(s_grid[0], th_grid[0])]
    for s, t in pairs:
        rel = quadrature_check_r2(np.array(s), SymElement(t))
        worst = max(worst, rel)
        points.append({"s": list(s), "theta_diag": np.diag(t).tolist(), "rel_err": rel})
    closed = math.exp(log_gamma_omega([2.0, 1.0], 2, 1.0))
    anchor_ok = abs(closed - math.sqrt(2.0 * math.pi) * math.sqrt(math.pi)) < 1e-12
    return {
        "pass": bool(worst <= 1e-6 and anchor_ok),
        "worst_rel_err": worst,
        "anchor_value": closed,
        "points": points,
    }


def _selftest_rank_one_law(seed, n):
    r = 2
    spec = RieszSpec.build(s=[0.5] * r, theta=SymElement(-0.5 * np.eye(r)),
                           seed=seed, count=n)
    batch = sample_riesz(spec)
    mean = batch.mean()
    se = batch.matrices.std(axis=0, ddof=1) / math.sqrt(n)
    mean_z = float(np.max(np.abs(mean - np.eye(r)) / np.maximum(se, _TINY)))
    zetas = [-0.55, -0.6, -0.75, -1.0, -1.25]
    zs = []
    ok = mean_z <= 5.0
    for c in zetas:
        rep = laplace_mc(batch, SymElement(c * np.eye(r)))
        diff = c * np.eye(r) - spec.theta.matrix
        det_form = float(np.linalg.det(np.eye(r) - 2.0 * diff) ** -0.5)
        agree = abs(rep.exact - det_form) <= 1e-12 * det_form
        zs.append(rep.z)
        ok = ok and rep.passed and agree
    profile = rank_profile(batch, expected=1)
    ok = ok and profile.passed
    return {
        "pass": bool(ok),
        "n": n,
        "mean_max_z": mean_z,
        "laplace_z": zs,
        "rank": profile.to_json_dict(),
    }


def _selftest_generic_law(seed, n):
    spec = RieszSpec.build(u=[1.2, 0.0, 0.7, 0.0], seed=seed, count=n)
    batch = sample_riesz(spec)
    rep = laplace_mc(batch, SymElement(-1.25 * np.eye(4)))
    profile = rank_profile(batch, expected=2)
    mean = batch.mean()
    se = batch.matrices.std(axis=0, ddof=1) / math.sqrt(n)
    mean_z = float(np.max(np.abs(mean - np.diag(spec.param.s)) / np.maximum(se, _TINY)))
    ok = rep.passed and profile.passed and mean_z <= 5.0
    return {
        "pass": bool(ok),
        "n": n,
        "laplace": rep.to_json_dict(),
        "rank": profile.to_json_dict(),
        "mean_max_z": mean_z,
    }


def _selftest_determinism(seed):
    """Repeat, worker and prefix invariance across chunk boundaries.

    The long run spans three full chunks and ends in a partial one; the
    short run ends part-way through the second chunk.
    """
    theta = SymElement.from_dense(
        [[-1.4, 0.2, 0.0], [0.2, -1.1, 0.15], [0.0, 0.15, -0.9]]
    )
    n, n_short = 3 * CHUNK + 5, CHUNK + 3
    spec = RieszSpec.build(s=[1.5, 1.0, 1.0], theta=theta, seed=seed, count=n)
    a = sample_riesz(spec, workers=1)
    b = sample_riesz(spec, workers=4)
    c = sample_riesz(spec, workers=1)
    same = (a.matrices.tobytes() == b.matrices.tobytes() ==
            c.matrices.tobytes())
    short = sample_riesz(replace(spec, count=n_short))
    prefix = short.matrices.tobytes() == a.matrices[:n_short].tobytes()
    return {"pass": bool(same and prefix), "n": n, "n_short": n_short,
            "chunk": CHUNK, "bitwise": same, "prefix": prefix}


def run_selftest(r_values=(2, 3, 4, 5, 6), trials: int = 500,
                 mc_samples: int = 200000, quad_full: bool = True,
                 seed: int = 0) -> dict:
    """Run every oracle family at the requested scale; aggregate to one verdict.

    Smoke scale (e.g. trials=50, mc_samples=20000, quad_full=False) finishes
    in a couple of seconds; the default desk scale stays under a minute.
    """
    t0 = time.time()
    sections = {}

    ident = {}
    ident_pass = True
    for r in r_values:
        reports = identity_suite(r, trials=trials, seed=seed)
        ident[str(r)] = {rep.name: rep.max_rel_error for rep in reports}
        failed = [rep.name for rep in reports if not rep.passed]
        if failed:
            ident_pass = False
            ident[str(r)]["failed"] = failed
    sections["identities"] = {"pass": ident_pass, "trials": trials,
                              "max_rel_err": ident}
    sections["admissibility"] = _selftest_admissibility(seed, rounds=10000)
    sections["quadrature"] = _selftest_quadrature(quad_full)
    sections["rank_one_law"] = _selftest_rank_one_law(seed, mc_samples)
    sections["generic_singular_law"] = _selftest_generic_law(seed, mc_samples)
    sections["determinism"] = _selftest_determinism(seed)

    overall = all(sec["pass"] for sec in sections.values())
    return {
        "pass": bool(overall),
        "elapsed_s": round(time.time() - t0, 3),
        "sections": sections,
    }
