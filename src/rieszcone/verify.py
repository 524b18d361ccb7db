"""Verification oracles: closed forms, identity sweeps, quadrature, ranks.

Every check here runs two genuinely independent routes and compares them:

* ``log_laplace_exact`` evaluates the closed-form transform in log space
  from the pivots of -theta, with no inverse, while ``laplace_mc_chunks``
  re-estimates a ratio of transforms from sampler output, chunk by chunk,
  by importance reweighting; ``laplace_mc`` folds an in-memory batch.
* ``quadrature_check_r2`` integrates the rank-2 density over the cone and
  compares against the closed form.  The rule is an adaptive tensor of
  generalized Gauss-Laguerre rules in the diagonal entries, each scaled to
  the rate (1 - rho)/2 |theta_ii| with rho the tilt's correlation
  |theta12| / sqrt(theta11 theta22), and Gauss-Jacobi in the off-diagonal
  angle, each rule built by Golub-Welsch on numpy's ``eigh``, so the package
  needs nothing beyond numpy.  Those rates leave a bounded residual that is
  never the rule's own weight, so even a diagonal tilt is genuinely
  integrated.  The rule converges for rho up to about 0.85 whatever the
  scaling of the diagonal, and raises ``QuadratureError`` as rho nears 1
  (see ``quadrature_integral_r2``).
* ``identity_suite`` checks the algebra behind the sampler on random
  batches: each of its nine identities puts this package's ``algebra`` or
  ``sampling`` code (minors, elimination pivots, a tilt's run plans, the
  Bartlett factors and their sum) against an independent LAPACK route.
* ``rank_profile`` checks the almost-sure rank of singular draws, and
  ``psd_check`` that every draw is finite and positive semidefinite, both
  from ``_support_cut``: one support-aware elimination per ``CHUNK`` of the
  batch (pivots where u_p > 0, residuals, 0 in exact arithmetic, where
  u_p = 0), computed once and kept while the batch lives.

Every whole-tilt check (the tilt of ``log_laplace_exact`` and
``quadrature_integral_r2``, the variance guard of ``laplace_mc_chunks``)
goes through ``algebra.require_negative_definite``.
"""

from __future__ import annotations

import functools
import math
import time
import weakref
from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np

from . import algebra, sampling
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
    "log_laplace_exact",
    "laplace_exact",
    "laplace_mc_chunks",
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
SUPPORT_TOL = 1e-5  # rank_profile, psd_check: residual cut, relative to x_pp,
GROWTH_TOL = 1e-15  # plus this times the draw's pivot growth (see _support_cut)
ESS_FLOOR = 1000  # laplace_mc_chunks: fewest effective draws when rho > 1


class VerifyError(ValueError):
    pass


class VarianceGuardError(VerifyError):
    """The reweighting estimator would have infinite variance."""


class QuadratureError(VerifyError):
    pass


# -- Laplace transform oracle ----------------------------------------------


def log_laplace_exact(s, theta: SymElement) -> float:
    """Closed-form log transform: log Delta_s((-theta)^{-1}).

    Requires s admissible (d = 1) and -theta positive definite.  With J the
    index reversal, pivot k of y^{-1} is 1 / pivot r+1-k of J y J, so with no
    inverse log Delta_s(y^{-1}) = -log Delta_{s*}(J y J), s* = (s_r, ..., s_1)
    (Faraut-Koranyi, ch. VII).  A tilt too close to singular for positive
    pivots is a ``TiltError`` too, which names the index of the failing pivot.
    """
    return _log_laplace(s, theta, "tilt")


def _log_laplace(s, theta: SymElement, what: str) -> float:
    """``log_laplace_exact``, with errors that call theta ``what``."""
    param = u_from_s(s, d=1.0)
    if param.r != theta.r:
        raise VerifyError(f"parameter length {param.r} does not match {what} rank {theta.r}")
    algebra.require_negative_definite(theta, TiltError, what)
    try:
        return -algebra.log_generalized_power(SymElement(-theta.matrix[::-1, ::-1]),
                                              param.s[::-1])
    except algebra.PowerDomainError as exc:
        raise TiltError(
            f"{what} is too close to singular for its closed form: index "
            f"{theta.r + 1 - exc.pivot} has pivot {exc.value:.6e}, eliminating "
            "from the last index") from None


def laplace_exact(s, theta: SymElement) -> float:
    """Closed-form transform Delta_s((-theta)^{-1}): exp of ``log_laplace_exact``."""
    return math.exp(log_laplace_exact(s, theta))


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
        fields = {k: v for k, v in vars(self).items() if k != "passed"}
        return {**fields, "pass": self.passed}


def laplace_mc_chunks(spec: RieszSpec, chunks, zeta: SymElement,
                      z_threshold: float = 4.0) -> LaplaceReport:
    """Reweighting estimate of L(zeta) / L(theta), with log L = ``log_laplace_exact``.

    ``chunks`` yields the ``spec.count`` draws of ``spec``, as ``sample_chunks``
    does; any other number of draws is a ``VerifyError``.  Each chunk adds
    its weights' relative deviations from the exact ratio,
    d = expm1(<zeta - theta, X> - log ratio), to n, sum d and sum d^2; the
    estimate is ratio (1 + mean d) and z is mean d over its standard error.
    Before any chunk is read, ``VarianceGuardError`` refuses a probe with
    -(2 zeta - theta) not positive definite (infinite weight variance), or
    whose relative weight variance rho = L(2 zeta - theta) L(theta) /
    L(zeta)^2 - 1 exceeds 1 and leaves count / (1 + rho) < ``ESS_FLOOR``
    effective draws (Kong 1992; Owen, *Monte Carlo theory, methods and
    examples*, ch. 9).
    """
    theta = spec.theta
    if zeta.r != theta.r:
        raise VerifyError("zeta rank does not match the spec")
    guard = SymElement(2.0 * zeta.matrix - theta.matrix)
    algebra.require_negative_definite(
        guard, VarianceGuardError, "2 zeta - theta (finite weight variance)")
    s = spec.param.s
    log_theta = _log_laplace(s, theta, "theta")
    log_ratio = _log_laplace(s, zeta, "zeta") - log_theta
    log1p_rho = _log_laplace(s, guard, "2 zeta - theta") - log_theta - 2.0 * log_ratio
    ess = spec.count * math.exp(-log1p_rho)
    if log1p_rho > math.log(2.0) and ess < ESS_FLOOR:
        raise VarianceGuardError(
            f"too few effective draws: the weights' relative variance is "
            f"exp({log1p_rho:.4g}) - 1, so {spec.count} draws are worth "
            f"{ess:.3g}, below ESS_FLOOR = {ESS_FLOOR}")
    diff = zeta.matrix - theta.matrix
    n, sum_d, sum_d2 = 0, 0.0, 0.0
    for chunk in chunks:
        d = np.expm1(np.einsum("nij,ij->n", chunk, diff) - log_ratio)
        n += len(d)
        sum_d += float(d.sum())
        sum_d2 += float(d @ d)
    if n != spec.count:
        raise VerifyError(f"chunks held {n} draws, but the spec has {spec.count}")
    mean = sum_d / n
    se = math.sqrt(max(sum_d2 - sum_d * mean, 0.0) / (n - 1) / n) if n > 1 else 0.0
    z = mean / se if se else (0.0 if mean == 0.0 else math.inf)
    exact = math.exp(log_ratio)
    return LaplaceReport(
        n=n, exact=exact, estimate=exact * (1.0 + mean), stderr=exact * se, z=z,
        threshold=z_threshold, passed=bool(abs(z) <= z_threshold),
    )


def laplace_mc(batch: SampleBatch, zeta: SymElement,
               z_threshold: float = 4.0) -> LaplaceReport:
    """``laplace_mc_chunks`` over the batch's ``CHUNK`` slices: the streamed report."""
    m = batch.matrices
    chunks = (m[i:i + CHUNK] for i in range(0, len(m), CHUNK))
    return laplace_mc_chunks(batch.spec, chunks, zeta, z_threshold)


# -- adaptive quadrature over the rank-2 cone ------------------------------


@functools.lru_cache(maxsize=256)
def _gauss_rule(jacobi: bool, n: int, exponent: float):
    """Read-only (nodes, weights) of an n-point rule, computed once per argument.

    Gauss-Jacobi(exponent, exponent) on (-1, 1) if ``jacobi``, else
    generalized Gauss-Laguerre for x^exponent e^{-x} on (0, inf).  Golub-Welsch
    (Math. Comp. 23, 1969): the nodes are the eigenvalues of the symmetric
    tridiagonal Jacobi matrix of the weight's monic three-term recurrence, and
    each weight is mu0, the weight's total mass, times the squared first
    component of the node's unit eigenvector.
    """
    a = exponent
    if jacobi:
        diag = np.zeros(n)
        k = np.arange(2.0, n)
        b = 2.0 * (k + a)
        off = np.sqrt(k * (k + 2.0 * a) / ((b - 1.0) * (b + 1.0)))
        # the k = 1 entry in closed form: the general one is 0/0 at a = -1/2
        off = np.concatenate(([math.sqrt(1.0 / (3.0 + 2.0 * a))], off))[:n - 1]
        mu0 = math.exp((2.0 * a + 1.0) * math.log(2.0) + 2.0 * math.lgamma(a + 1.0)
                       - math.lgamma(2.0 * a + 2.0))
    else:
        diag = 2.0 * np.arange(n) + a + 1.0
        k = np.arange(1.0, n)
        off = np.sqrt(k * (k + a))
        mu0 = math.gamma(a + 1.0)
    nodes, vectors = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    rule = (nodes, mu0 * vectors[0] ** 2)
    for arr in rule:
        arr.flags.writeable = False
    return rule


def quadrature_integral_r2(s, theta: SymElement, moment=None,
                           n_start: int = 12, n_max: int = 192,
                           rtol: float = 1e-8) -> float:
    """Integral of Delta_{s-3/2}(x) e^{<theta,x>} [moment(a,b,c)] over the cone.

    Here x = [[a, b], [b, c]] ranges over the open rank-2 cone and the flat
    measure is the one induced by the trace inner product, i.e.
    dx = sqrt(2) da db dc.  With b = v sqrt(ac) and alpha = s2 - 3/2 the
    integrand is

        sqrt(2) a^{s1-1} c^{s2-1} (1 - v^2)^alpha
            e^{theta11 a + theta22 c + 2 theta12 b}

    over a, c > 0 and -1 < v < 1.  The rule is a tensor of generalized
    Gauss-Laguerre rules in a and c, for the weights a^{s1-1} e^{-lambda_a a}
    and c^{s2-1} e^{-lambda_c c}, and Gauss-Jacobi(alpha, alpha) in v.  The
    rates are lambda_a = (1-rho)/2 (-theta11) and lambda_c =
    (1-rho)/2 (-theta22), with rho = |theta12| / sqrt(theta11 theta22) < 1
    (the tilt is checked to be negative definite first).  The residual
    e^{(theta11+lambda_a) a + (theta22+lambda_c) c + 2 theta12 b} is then at
    most 1, since ((1+rho)/2)^2 theta11 theta22 >= theta12^2, and it is never
    the rule's own weight: a diagonal tilt keeps a factor e^{theta_ii a / 2}
    on each axis, so the oracle stays a genuine integration.

    The per-axis node count doubles from ``n_start`` until two successive
    estimates agree to ``rtol`` relative, else ``QuadratureError``.  The
    residual gets harder to integrate as rho approaches 1.  Over random tilts
    with diagonal entries e^{U(-3,3)} and random s (20 per rho), every tilt
    with rho <= 0.85 converged, to within 3.1e-11 of the closed form, about
    a third did at rho = 0.9 and none at rho = 0.95.  What counts is rho,
    not the scaling or the condition number: a tilt of condition 100
    rotated by 0.1 rad (rho = 0.70) converges, and rotated by 45 degrees
    (rho = 0.98) it raises ``QuadratureError`` rather than return a number.
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
    rho = abs(t12) / math.sqrt(t11 * t22)
    lam_a = 0.5 * (1.0 - rho) * -t11
    lam_c = 0.5 * (1.0 - rho) * -t22
    alpha = s2 - 1.5
    prefactor = math.sqrt(2.0) * lam_a ** -s1 * lam_c ** -s2

    prev = None
    n = n_start
    while n <= n_max:
        xa, wa = _gauss_rule(False, n, s1 - 1.0)
        xc, wc = _gauss_rule(False, n, s2 - 1.0)
        v, wv = _gauss_rule(True, n, alpha)
        a, c = xa / lam_a, xc / lam_c
        root_ac = np.sqrt(np.multiply.outer(a, c))
        # the one (n, n, n) array: the residual's exponent, then the residual
        f = np.multiply.outer(root_ac, 2.0 * t12 * v)
        f += ((t11 + lam_a) * a)[:, None, None] + ((t22 + lam_c) * c)[None, :, None]
        with np.errstate(under="ignore"):
            np.exp(f, out=f)
        if moment is not None:
            f *= moment(a[:, None, None], np.multiply.outer(root_ac, v),
                        c[None, :, None])
        total = prefactor * float(wa @ (f @ wv) @ wc)
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


def _rel_error(lhs, rhs):
    """Worst |lhs - rhs| / max(|lhs|, |rhs|), entry by entry, or matrix by
    matrix in the Frobenius norm for (n, a, b) stacks; NaN if any is NaN."""
    axes = (-2, -1) if np.ndim(lhs) == 3 else ()
    diff, a, b = (np.sqrt(np.sum(x * x, axis=axes)) for x in (lhs - rhs, lhs, rhs))
    return float(np.max(diff / np.maximum(np.maximum(a, b), _TINY)))


def _gram(m):
    """M M^T of a stack.  Like the sampler's product, which it checks and so
    does not share, it multiplies by a copy of M^T: numpy sends M times a
    view of its own transpose to syrk, several times slower here than gemm."""
    return m @ np.ascontiguousarray(np.swapaxes(m, -1, -2))


def _ref_factor(theta, w, g, o, z):
    """(M, C) of a run of width w at the start of ``theta``, by LAPACK alone.

    M = [C T; K^T C T + L Z], with C C^T = (-theta)^{-1}[:w, :w],
    K^T = (-Theta0)^{-1} Theta21, L L^T = (1/2)(-Theta0)^{-1}, Theta0 = theta[w:, w:],
    and T the Bartlett triangle of the raw draws: sqrt(g) on its diagonal and
    o sqrt(1/2) below it, row by row.
    """
    t = np.zeros((len(g), w, w))
    t[:, np.arange(w), np.arange(w)] = np.sqrt(g)
    rows, cols = np.tril_indices(w, -1)
    t[:, rows, cols] = o * np.sqrt(0.5)
    c = np.linalg.cholesky(np.linalg.inv(-theta)[:w, :w])
    neg_t0 = -theta[w:, w:]
    coupling = np.linalg.solve(neg_t0, theta[w:, :w])
    noise = np.linalg.cholesky(0.5 * np.linalg.inv(neg_t0))
    return np.concatenate([c @ t, coupling @ (c @ t) + noise @ z], axis=1), c


def _identity_case(rng, r, l, n):
    """The random case that every identity reads at split level l.

    ``y``: n interior cone points, ``y_inv`` their inverses; ``t``: n lower-triangular
    matrices with a diagonal in [1/2, 2]; ``plans``: the package plans, on one
    rotated tilt of condition at most 4, of a run at 0 of width l and, when
    r - l >= 2, of a run at l + 1 that fills the rest.  ``raws``: n raw draws
    of each run from one stream; ``drawn``: ``_draw_sum`` on a replay of that
    stream; ``factor``: the package factor of the first run's raw draws;
    ``refs``: each run's ``_ref_factor``.  The sampler helpers are looked up
    on ``sampling`` at call time, so a test can substitute a faulty one.
    """
    y = _gram(rng.standard_normal((n, r, r))) + 1e-3 * np.eye(r)
    t = np.tril(rng.standard_normal((n, r, r)), -1)
    t[:, np.arange(r), np.arange(r)] = rng.uniform(0.5, 2.0, (n, r))
    q = np.linalg.qr(rng.standard_normal((r, r)))[0]
    theta = SymElement(-(q * rng.uniform(0.5, 2.0, r)) @ q.T).matrix
    runs = [(0, l)] + ([(l + 1, r - l - 1)] if r - l >= 2 else [])
    plans = [sampling._plan_block(theta, start, w, rng.uniform(1.0, 3.0, w))
             for start, w in runs]
    key = int(rng.integers(1 << 62))
    stream = np.random.default_rng(key)
    raws = [sampling._draw_block(plan, stream, n) for plan in plans]
    drawn = np.empty((n, r, r))
    sampling._draw_sum(plans, np.random.default_rng(key), drawn)
    return SimpleNamespace(
        r=r, l=l, y=y, y_inv=np.linalg.inv(y), t=t, plans=plans, raws=raws, drawn=drawn,
        factor=sampling._gram_factor(plans[0], *raws[0]),
        refs=[_ref_factor(theta[p.start:, p.start:], p.width, *raw)
              for p, raw in zip(plans, raws)])


def _id_minor_complement(c):
    lead = algebra.minors(c.y_inv)[:, c.l - 1]
    return _rel_error(lead, np.linalg.det(c.y[:, c.l:, c.l:]) / np.linalg.det(c.y))


def _id_minor_ratios(c):
    mins = algebra.minors(c.y_inv)
    inv_trail = np.linalg.inv(c.y[:, c.l:, c.l:])
    want = [np.linalg.det(inv_trail[:, :p, :p]) for p in range(1, c.r - c.l + 1)]
    return _rel_error(mins[:, c.l:] / mins[:, c.l - 1, None], np.stack(want, axis=1))


def _id_pivot_schur(c):
    # pivot l + 1 = Delta_{l+1} / Delta_l: y_ll's Schur complement against y[:l, :l]
    y, l = c.y, c.l
    lead = np.linalg.solve(y[:, :l, :l], y[:, :l, l:l + 1])[..., 0]
    schur = y[:, l, l] - np.einsum("ni,ni->n", y[:, l, :l], lead)
    return _rel_error(algebra._pivots(y)[0][:, l], schur)


def _id_pivot_reversal(c):
    # pivot r+1-l of J y J is a ratio of trailing minors of y, the identity
    # behind log_laplace_exact's inverse-free closed form
    y, l = c.y, c.l
    piv = algebra._pivots(y[:, ::-1, ::-1])[0][:, c.r - l]
    return _rel_error(piv, np.linalg.det(y[:, l - 1:, l - 1:]) / np.linalg.det(y[:, l:, l:]))


def _id_triangular_equivariance(c):
    # Delta_k(t y t^T) = (t_11 ... t_kk)^2 Delta_k(y) for lower-triangular t
    y, t, l = c.y, c.t, c.l
    piv = algebra._pivots(t @ y @ np.swapaxes(t, 1, 2))[0][:, l - 1]
    want = (t[:, l - 1, l - 1] ** 2 * np.linalg.det(y[:, :l, :l])
            / np.linalg.det(y[:, :l - 1, :l - 1]))
    return _rel_error(piv, want)


def _id_bartlett_pivots(c):
    # the core W W^T with W = C T lower triangular has pivots C_pp^2 g_p
    piv = algebra._pivots(_gram(c.factor[:, :c.l]))[0]
    return _rel_error(piv, np.diagonal(c.refs[0][1]) ** 2 * c.raws[0][0])


def _id_factor_gram(c):
    return _rel_error(_gram(c.factor), _gram(c.refs[0][0]))


def _id_factor_rank(c):
    # rank l: the tail block equals its projection through the core block
    g, l = _gram(c.factor), c.l
    return _rel_error(g[:, l:, l:], g[:, l:, :l] @ np.linalg.solve(g[:, :l, :l], g[:, :l, l:]))


def _id_run_placement(c):
    want = np.zeros_like(c.drawn)
    for plan, (m, _) in zip(c.plans, c.refs):
        want[:, plan.start:, plan.start:] += _gram(m)
    mirrored = np.array_equal(c.drawn, np.swapaxes(c.drawn, 1, 2))
    return _rel_error(c.drawn, want) if mirrored else math.inf


_IDENTITIES = [
    ("minor_complement", _id_minor_complement),
    ("minor_ratios", _id_minor_ratios),
    ("pivot_schur", _id_pivot_schur),
    ("pivot_reversal", _id_pivot_reversal),
    ("triangular_equivariance", _id_triangular_equivariance),
    ("bartlett_pivots", _id_bartlett_pivots),
    ("factor_gram", _id_factor_gram),
    ("factor_rank", _id_factor_rank),
    ("run_placement", _id_run_placement),
]

IDENTITY_NAMES = tuple(name for name, _ in _IDENTITIES)


def identity_suite(r: int, trials: int = 500, seed: int = 0,
                   threshold: float = 1e-9) -> list:
    """Run the nine structural identities at rank r over random batches.

    Each puts this package's ``algebra`` or ``sampling`` code against an
    independent LAPACK route.  Split level l in 1..r-1 draws one case of
    ``trials`` points from ``default_rng([seed, r, l])`` that all nine read
    (``_identity_case``); each reports its worst relative discrepancy over
    the levels, and a NaN fails.
    """
    if r < 2:
        raise VerifyError("the identity suite needs rank at least 2")
    cases = (_identity_case(np.random.default_rng([seed, r, l]), r, l, trials)
             for l in range(1, r))
    errors = np.array([[check(case) for _, check in _IDENTITIES] for case in cases])
    return [IdentityReport(name=name, r=r, trials=trials, max_rel_error=float(worst),
                           threshold=threshold, passed=bool(worst <= threshold))
            for name, worst in zip(IDENTITY_NAMES, errors.max(axis=0))]


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
        fields = {k: v for k, v in vars(self).items() if k != "passed"}
        counts = {str(k): v for k, v in sorted(self.counts.items())}
        return {**fields, "counts": counts, "pass": self.passed}


_CUTS = weakref.WeakKeyDictionary()  # batch -> its _support_cut


def _support_cut(batch: SampleBatch):
    """(active mask, d, diagonals x, cut on |d|, finite), read-only and kept while
    the batch, which must not change (see ``SampleBatch``), lives.

    A draw is S S^T, S lower triangular with zero columns where u_p = 0, so one
    pass of ``algebra._pivots`` a ``CHUNK`` at a time steps only where u_p > 0: d is
    the pivot there, elsewhere the residual against the earlier active indices
    (0 in exact arithmetic), 0 past a zero pivot and -inf at a zero pivot over a
    nonzero column.  The pass takes each chunk's x while it is in cache, and
    ``finite`` per draw, as the elimination never reads between inactive indices.
    The cut x_pp (SUPPORT_TOL + GROWTH_TOL g_p) multiplies, as a leading inactive
    x_pp is 0; g_p, the product of x_kk / d_k over the positive active pivots at
    k <= p, widens it where a tiny pivot (a small gamma draw) magnifies rounding.
    d, x and the cut are (count, r) and in Fortran order, so that the reductions
    over each draw's r entries read contiguous columns.
    """
    if batch in _CUTS:
        return _CUTS[batch]
    active = np.asarray(batch.spec.param.u) > 0.0
    d = np.empty(batch.matrices.shape[:2], order="F")
    x = np.empty_like(d)
    finite = np.empty(len(batch), dtype=bool)
    with np.errstate(invalid="ignore", over="ignore"):  # a non-finite draw fails anyway
        for i in range(0, len(batch), CHUNK):
            chunk = batch.matrices[i:i + CHUNK]
            piv, fallback_from = algebra._pivots(chunk, active)
            d[i:i + CHUNK] = piv if fallback_from is None else np.where(
                np.arange(len(active)) < fallback_from[:, None], piv, 0.0)
            x[i:i + CHUNK] = np.diagonal(chunk, axis1=1, axis2=2)
            ok = np.isfinite(chunk)  # per draw only if some entry is not finite: ~2.5x faster
            finite[i:i + CHUNK] = ok.all() or ok.all(axis=(1, 2))
        cut = np.ones_like(d)
        np.divide(x, d, out=cut, where=active & (d > 0.0))
        for p in range(1, cut.shape[1]):  # np.cumprod(axis=1)'s products, ~7x faster
            cut[:, p] *= cut[:, p - 1]
        cut *= GROWTH_TOL
        cut += SUPPORT_TOL
        cut *= x
    for arr in (active, d, x, cut, finite):
        arr.flags.writeable = False
    _CUTS[batch] = active, d, x, cut, finite
    return _CUTS[batch]


def rank_profile(batch: SampleBatch, expected: int) -> RankProfile:
    """Rank histogram: positive active pivots plus inactive residuals past ``_support_cut``;
    a non-finite draw fails the batch."""
    active, d, _, cut, finite = _support_cut(batch)
    ranks = np.where(active, d > 0.0, np.abs(d) > cut).sum(axis=1)
    counts = {k: int(v) for k, v in enumerate(np.bincount(ranks)) if v}
    n = len(ranks)
    frac_expected = float((ranks == expected).sum() / n)
    frac_at_most = float((ranks <= expected).sum() / n)
    return RankProfile(
        expected=expected, n=n, counts=counts,
        frac_expected=frac_expected, frac_at_most=frac_at_most,
        passed=bool(finite.all() and frac_at_most == 1.0 and frac_expected >= 0.999),
    )


def psd_check(batch: SampleBatch):
    """(all_ok, worst ratio): a draw fails if a d entry of ``_support_cut`` is below
    minus the cut, an x_pp is negative or an entry is not finite.  The worst ratio is
    a draw's most negative d or x_pp over its largest |x_pp|, or inf for a non-finite draw."""
    _, d, x, cut, finite = _support_cut(batch)
    if not finite.all():
        return False, math.inf
    ok = not ((d < -cut).any() or (x < 0.0).any())
    worst = -np.minimum(d, x).min(axis=1) / np.maximum(np.abs(x).max(axis=1), _TINY)
    return ok, float(worst.max())


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
        "seed": seed,
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
        "seed": seed,
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
        "seed": seed,
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
    return {"pass": bool(same and prefix), "seed": seed, "n": n, "n_short": n_short,
            "chunk": CHUNK, "bitwise": same, "prefix": prefix}


def _selftest_identities(r_values, trials, seed):
    ident = {}
    ident_pass = True
    for r in r_values:
        reports = identity_suite(r, trials=trials, seed=seed)
        ident[str(r)] = {rep.name: rep.max_rel_error for rep in reports}
        failed = [rep.name for rep in reports if not rep.passed]
        if failed:
            ident_pass = False
            ident[str(r)]["failed"] = failed
    return {"pass": ident_pass, "seed": seed, "trials": trials, "max_rel_err": ident}


def run_selftest(r_values=(2, 3, 4, 5, 6), trials: int = 500,
                 mc_samples: int = 200000, quad_full: bool = True,
                 seed: int = 0) -> dict:
    """Run every oracle family at the requested scale; aggregate to one verdict.

    Smoke scale (e.g. trials=50, mc_samples=20000, quad_full=False) finishes
    in a couple of seconds; the default desk scale stays under a minute.
    Each section reports its own ``elapsed_s``, and each seeded one the
    ``seed`` it ran with, so a failing section can be replayed alone
    through its ``_selftest_*`` function.  A section that raises fails with
    the run's ``seed`` and its ``error`` ("<type>: <message>"); the rest run.
    """
    t0 = time.perf_counter()
    runs = {
        "identities": lambda: _selftest_identities(r_values, trials, seed),
        "admissibility": lambda: _selftest_admissibility(seed, rounds=10000),
        "quadrature": lambda: _selftest_quadrature(quad_full),
        "rank_one_law": lambda: _selftest_rank_one_law(seed, mc_samples),
        "generic_singular_law": lambda: _selftest_generic_law(seed, mc_samples),
        "determinism": lambda: _selftest_determinism(seed),
    }
    sections = {}
    for name, section in runs.items():
        t = time.perf_counter()
        try:
            sections[name] = section()
        except Exception as exc:
            sections[name] = {"pass": False, "seed": seed, "error": f"{type(exc).__name__}: {exc}"}
        sections[name]["elapsed_s"] = round(time.perf_counter() - t, 3)

    overall = all(sec["pass"] for sec in sections.values())
    return {
        "pass": bool(overall),
        "elapsed_s": round(time.perf_counter() - t0, 3),
        "sections": sections,
    }
