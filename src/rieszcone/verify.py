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
  scaling of the tilt, and for s up to about 100 per entry (less as rho
  grows), and raises ``QuadratureError`` as rho nears 1 or s grows (see
  ``quadrature_check_r2``).  It holds O(n^2) values at n nodes per axis,
  contracting its n^3 residual a slab of nodes at a time.
* ``identity_suite`` checks the code behind the sampler and its verdicts on
  random batches: each of its nine identities puts ``algebra`` or ``sampling``
  code (elimination pivots, a tilt's run plans and their mean, the Bartlett
  factors and their sum, the support pass) against an independent LAPACK route.
  The three cone identities run once per rank, over every split level's pivot
  column at once; the six plan identities run once per split level.
* ``rank_profile`` checks the almost-sure rank of singular draws, and
  ``psd_check`` that every draw is finite and positive semidefinite, both
  from ``_support_fold``: one support-aware elimination per ``CHUNK`` of the
  batch (pivots where u_p > 0, residuals, 0 in exact arithmetic, where
  u_p = 0), folded chunk by chunk into a rank histogram, finiteness, PSD-ness
  and the worst ratio, the four of them kept while the batch lives.

Every whole-tilt check (the tilt of ``log_laplace_exact`` and
``quadrature_check_r2``, the variance guard of ``laplace_mc_chunks``) goes
through ``algebra.require_negative_definite``.
"""

from __future__ import annotations

import functools
import math
import numbers
import sys
import time
import weakref
from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np

from . import algebra, sampling
from .algebra import SymElement
from .gindikin import build_partition, log_gamma_omega, membership_report, s_from_u, u_from_s
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
    "quadrature_check_r2",
    "identity_suite",
    "IDENTITY_NAMES",
    "rank_profile",
    "psd_check",
    "run_selftest",
]

_TINY = 1e-300
_LOG_MAX = math.log(sys.float_info.max)  # exp of anything above it overflows
SUPPORT_TOL = 1e-5  # rank_profile, psd_check: residual cut, relative to x_pp,
GROWTH_TOL = 1e-15  # plus this times the draw's pivot growth (see _support_fold)
ESS_FLOOR = 1000  # laplace_mc_chunks: fewest effective draws when rho > 1
IDENTITY_TOL = 1e-9  # identity_suite: the worst relative error that passes
QUAD_N_START = 12  # quadrature_check_r2: first per-axis node count,
QUAD_N_MAX = 192  # the last one it may reach,
QUAD_RTOL = 1e-8  # and the relative change of two successive estimates that stops it
QUAD_SLAB = 1 << 14  # entries of the residual it forms at once, whole a-rows of n^2 each


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
    param = u_from_s(s, d=1.0)
    if param.r != theta.r:
        raise VerifyError(f"parameter length {param.r} does not match tilt rank {theta.r}")
    algebra.require_negative_definite(theta, TiltError, "tilt")
    return _log_laplace(param.s, theta, "tilt")


def _log_laplace(s: tuple, theta: SymElement, what: str) -> float:
    """The pivot path of ``log_laplace_exact``, for an s and theta the caller
    has checked; pivots too small for it are a ``TiltError`` naming ``what``."""
    try:
        return -algebra.log_generalized_power(SymElement(-theta.matrix[::-1, ::-1]), s[::-1])
    except algebra.PowerDomainError as exc:
        raise TiltError(
            f"{what} is too close to singular for its closed form: index "
            f"{theta.r + 1 - exc.pivot} has pivot {exc.value:.6e}, eliminating "
            "from the last index") from None


def laplace_exact(s, theta: SymElement) -> float:
    """Closed-form transform Delta_s((-theta)^{-1}): exp of ``log_laplace_exact``.

    A value past the largest float is a ``VerifyError`` that gives its log.
    """
    log_value = log_laplace_exact(s, theta)
    try:
        return math.exp(log_value)
    except OverflowError:
        raise VerifyError(
            f"the transform is exp({log_value:.6g}), past the largest float; "
            "log_laplace_exact gives its log") from None


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
    A draw with an inf or NaN entry makes them NaN, and the report fails.
    Before any chunk is read, a ``VerifyError`` refuses a ``z_threshold`` that
    is not a finite number above 0 (a bool is not one), and
    ``VarianceGuardError`` a probe with
    -(2 zeta - theta) not positive definite (infinite weight variance), or
    whose relative weight variance rho = L(2 zeta - theta) L(theta) /
    L(zeta)^2 - 1 exceeds 1 and leaves count / (1 + rho) < ``ESS_FLOOR``
    effective draws (Kong 1992; Owen, *Monte Carlo theory, methods and
    examples*, ch. 9), and a ``VerifyError`` one whose exact ratio is past
    the largest float.

    Each fact behind the three closed forms is checked once: theta by the
    spec and 2 zeta - theta by the variance guard.  Those two make -zeta
    positive definite too, as -zeta = (-(2 zeta - theta) + (-theta)) / 2, and
    a zeta that rounding still spoils is a ``TiltError`` from its pivots.  s
    is the spec's, which a ``zero_tol`` snap set with u: that of the law drawn.
    """
    if isinstance(z_threshold, bool) or not (
            isinstance(z_threshold, numbers.Real) and 0.0 < z_threshold < math.inf):
        raise VerifyError(f"z_threshold must be a finite number above 0, got {z_threshold!r}")
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
    if log_ratio > _LOG_MAX:
        raise VerifyError(f"the transform ratio is exp({log_ratio:.6g}), past the largest float")
    diff = zeta.matrix - theta.matrix
    n, sum_d, sum_d2 = 0, 0.0, 0.0
    for chunk in chunks:
        exponent = np.einsum("nij,ij->n", chunk, diff)
        d = np.expm1(exponent - log_ratio)
        n += len(d)
        # an inf or NaN entry makes its draw's exponent non-finite (inf * 0 is
        # NaN) and its weight meaningless, so the sum is NaN and the report
        # fails; an exponent of -inf would add an ordinary-looking d = -1
        sum_d += float(d.sum()) if np.isfinite(exponent).all() else math.nan
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


def _batch_chunks(batch: SampleBatch):
    """The batch's draws in ``CHUNK`` slices, as ``sample_chunks`` yields them."""
    m = batch.matrices
    return (m[i:i + CHUNK] for i in range(0, len(m), CHUNK))


def laplace_mc(batch: SampleBatch, zeta: SymElement,
               z_threshold: float = 4.0) -> LaplaceReport:
    """``laplace_mc_chunks`` over the batch's ``CHUNK`` slices: the streamed report."""
    return laplace_mc_chunks(batch.spec, _batch_chunks(batch), zeta, z_threshold)


# -- adaptive quadrature over the rank-2 cone ------------------------------


@functools.lru_cache(maxsize=256)
def _gauss_rule(jacobi: bool, n: int, exponent: float):
    """Read-only (nodes, weights) of an n-point rule, computed once per argument.

    Gauss-Jacobi(exponent, exponent) on (-1, 1) if ``jacobi``, else
    generalized Gauss-Laguerre for x^exponent e^{-x} on (0, inf).  Golub-Welsch
    (Math. Comp. 23, 1969): the nodes are the eigenvalues of the symmetric
    tridiagonal Jacobi matrix of the weight's monic three-term recurrence, and
    each weight is the squared first component of the node's unit eigenvector.
    The weights sum to 1, not to the weight's total mass, which for Laguerre is
    Gamma(exponent + 1), past the largest float from an exponent of about 171.
    """
    a = exponent
    if jacobi:
        diag = np.zeros(n)
        k = np.arange(2.0, n)
        b = 2.0 * (k + a)
        off = np.sqrt(k * (k + 2.0 * a) / ((b - 1.0) * (b + 1.0)))
        # the k = 1 entry in closed form: the general one is 0/0 at a = -1/2
        off = np.concatenate(([math.sqrt(1.0 / (3.0 + 2.0 * a))], off))[:n - 1]
    else:
        diag = 2.0 * np.arange(n) + a + 1.0
        k = np.arange(1.0, n)
        off = np.sqrt(k * (k + a))
    nodes, vectors = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    rule = (nodes, vectors[0] ** 2)
    for arr in rule:
        arr.flags.writeable = False
    return rule


def _log_quadrature_r2(s, theta: SymElement):
    """(s as a float pair, log of the cone integral of ``quadrature_check_r2``), by the rule."""
    s = np.asarray(s, dtype=float)
    if s.shape != (2,) or theta.r != 2:
        raise VerifyError("the quadrature oracle is specific to rank 2")
    s1, s2 = float(s[0]), float(s[1])
    if not (s1 > 0.0 and s2 > 0.5):
        raise VerifyError(
            f"need s1 > 0 and s2 > 1/2 for an integrable density, got {s.tolist()}"
        )
    top = max(s1, s2) - 1.0
    if top + 2.0 == top:  # the Laguerre diagonal 2k + s - 1 has lost its steps
        raise QuadratureError(f"s = {s.tolist()} is past what the rule's recurrence resolves")
    td = theta.matrix
    algebra.require_negative_definite(theta, TiltError, "tilt")
    t11, t22, t12 = float(td[0, 0]), float(td[1, 1]), float(td[0, 1])
    rho = abs(t12) / (math.sqrt(-t11) * math.sqrt(-t22))
    lam_a = 0.5 * (1.0 - rho) * -t11
    lam_c = 0.5 * (1.0 - rho) * -t22
    alpha = s2 - 1.5
    # sqrt(2) lam_a^-s1 lam_c^-s2 times the three rules' masses: Gamma(s1),
    # Gamma(s2) and 2^(2 alpha + 1) Gamma(alpha + 1)^2 / Gamma(2 alpha + 2)
    log_scale = ((2.0 * alpha + 1.5) * math.log(2.0) - s1 * math.log(lam_a)
                 - s2 * math.log(lam_c) + math.lgamma(s1) + math.lgamma(s2)
                 + 2.0 * math.lgamma(alpha + 1.0) - math.lgamma(2.0 * alpha + 2.0))

    prev = None
    n = QUAD_N_START
    while n <= QUAD_N_MAX:
        xa, wa = _gauss_rule(False, n, s1 - 1.0)
        xc, wc = _gauss_rule(False, n, s2 - 1.0)
        v, wv = _gauss_rule(True, n, alpha)
        # eigh sorts the nodes, so the last one over its rate is the largest
        if not (float(xa[-1]) / lam_a < math.inf and float(xc[-1]) / lam_c < math.inf):
            raise QuadratureError(f"the rule's nodes over its rates overflow for s = {s.tolist()}")
        a, c = xa / lam_a, xc / lam_c
        root_ac = np.multiply.outer(np.sqrt(a), np.sqrt(c))
        w = 2.0 * t12 * v
        base = ((t11 + lam_a) * a)[:, None] + ((t22 + lam_c) * c)[None, :]
        # the residual's exponent at node (a, c, v) is root_ac w + base; rounding is
        # monotone and root_ac >= 0, so its largest value sits at the largest w
        peak = float((root_ac * w.max() + base).max())
        # the residual, less that peak so that its own scale cannot underflow, is
        # formed and contracted with the v weights a slab of a-nodes at a time
        rows = max(1, QUAD_SLAB // (n * n))
        f = np.empty((min(rows, n), n, n))
        g = np.empty((n, n))
        with np.errstate(under="ignore"):
            for i in range(0, n, rows):
                h = f[:min(rows, n - i)]
                np.multiply(root_ac[i:i + rows, :, None], w, out=h)
                h += base[i:i + rows, :, None]
                h -= peak
                np.exp(h, out=h)
                np.matmul(h, wv, out=g[i:i + rows])
        total = float(wa @ g @ wc)
        if not total > 0.0:
            raise QuadratureError(
                f"the rule's weights and the residual underflow at every node for s = {s.tolist()}")
        log_total = log_scale + peak + math.log(total)
        change = math.inf if prev is None else abs(math.expm1(prev - log_total))
        if change <= QUAD_RTOL:
            return (s1, s2), log_total
        prev = log_total
        n *= 2
    raise QuadratureError(
        f"tensor rule did not stabilize to {QUAD_RTOL:.1e} by {QUAD_N_MAX} nodes per axis "
        f"(the last doubling changed the estimate by {change:.1e} relative)"
    )


def quadrature_check_r2(s, theta: SymElement) -> float:
    """Relative discrepancy between the cone integral of the rank-2 density
    and its closed form, Gamma_Omega(s) Delta_s((-theta)^{-1}), both on the
    log scale.

    The integral is that of Delta_{s-3/2}(x) e^{<theta,x>} over the cone.
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
    (1-rho)/2 (-theta22), with rho = |theta12| / (sqrt(-theta11) sqrt(-theta22)) < 1
    (the tilt is checked to be negative definite once, for both sides).  The residual
    e^{(theta11+lambda_a) a + (theta22+lambda_c) c + 2 theta12 b} is then at
    most 1, since ((1+rho)/2)^2 theta11 theta22 >= theta12^2, and it is never
    the rule's own weight: a diagonal tilt keeps a factor e^{theta_ii a / 2}
    on each axis, so the oracle stays a genuine integration.  The weights'
    masses, the rates' powers and the residual's largest value are taken on
    the log scale, rho and sqrt(a c) as products of square roots, so nothing
    over- or underflows at any scale of theta from 1e-300 to 1e300 (there a
    tilt reads as it does unscaled) with s up to 10^5 per entry, and the two
    sides are compared as logs, so an integral past the largest float is still
    checked.

    At n nodes per axis the residual has n^3 values, but they are never held
    at once.  Rounding is monotone and sqrt(a c) >= 0, so the residual's
    largest exponent is that at the largest coupling 2 theta12 v, taken on the
    (n, n) grid of (a, c); the residual is then formed, exponentiated and
    summed over v in slabs of whole a-rows, at most ``QUAD_SLAB`` values each.
    The working memory is O(n^2), about 1.3 MiB at ``QUAD_N_MAX`` where one
    tensor took 54 MiB, and every bit of the result is that of the one tensor.

    The per-axis node count doubles from ``QUAD_N_START`` until two successive
    estimates agree to ``QUAD_RTOL`` relative, else ``QuadratureError`` past
    ``QUAD_N_MAX``.  The residual gets harder to integrate as rho approaches
    1.  Over random tilts with diagonal entries e^{U(-3,3)} and random s (20
    per rho), every tilt with rho <= 0.85 converged, to within 3.1e-11 of the
    closed form, about a third did at rho = 0.9 and none at rho = 0.95.  What
    counts is rho, not the scaling or the condition number: a tilt of
    condition 100 rotated by 0.1 rad (rho = 0.70) converges, and rotated by 45
    degrees (rho = 0.98) it raises ``QuadratureError`` rather than return a
    number.  A large s narrows the domain too, as the weight's mass sits ever
    further from the integrand's: at theta = -I the rule converged at s =
    (120, 120) and (100, 2) and refused (140, 140) and (140, 2); at rho = 0.33
    it converged at (80, 80) and refused (100, 100).  Further out (s = (10^6, 10^6)
    at theta = -I, (2000, 2000) at rho = 0.85) the weighted residual
    underflows at every node, which is a ``QuadratureError`` too, as are a
    node over its rate past the largest float (from s = 10^8 at theta =
    -1e-300 I) and an s whose Laguerre diagonal 2k + s - 1 no longer moves
    with k (from about 10^16), where the rule would read a false 1.0.  A refusal
    past ``QUAD_N_MAX`` evaluates every node count up to it: at rho = 0.95 that
    took about 0.06 s with a 1.3 MiB tracemalloc peak (one BLAS thread, 2-core
    x86-64 host), where the self-test's nine points take about 3 ms together.
    """
    s, log_integral = _log_quadrature_r2(s, theta)
    log_closed = log_gamma_omega(s) + _log_laplace(s, theta, "tilt")
    return abs(math.expm1(log_integral - log_closed))


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


@functools.lru_cache(maxsize=None)
def _below_diagonal(w: int):
    """Read-only ``np.tril_indices(w, -1)``, once per width: a call costs about
    25 us.  Kept apart from ``sampling._strict_triangle``, which it checks."""
    pair = np.tril_indices(w, -1)
    for index in pair:
        index.flags.writeable = False
    return pair


def _ref_factor(theta, w, g, o, z):
    """(M, C) of a run of width w at the start of ``theta``, by LAPACK alone.

    M = [C T; K^T C T + L Z], with C C^T = (-theta)^{-1}[:w, :w],
    K^T = (-Theta0)^{-1} Theta21, L L^T = (1/2)(-Theta0)^{-1}, Theta0 = theta[w:, w:],
    and T the Bartlett triangle of the raw draws: sqrt(g) on its diagonal and
    o sqrt(1/2) below it, row by row.
    """
    t = np.zeros((len(g), w, w))
    t[:, np.arange(w), np.arange(w)] = np.sqrt(g)
    rows, cols = _below_diagonal(w)
    t[:, rows, cols] = o * np.sqrt(0.5)
    c = np.linalg.cholesky(np.linalg.inv(-theta)[:w, :w])
    neg_t0 = -theta[w:, w:]
    coupling = np.linalg.solve(neg_t0, theta[w:, :w])
    noise = np.linalg.cholesky(0.5 * np.linalg.inv(neg_t0))
    ct = c @ t
    return np.concatenate([ct, coupling @ ct + noise @ z], axis=1), c


def _chol_pivots(x):
    """Pivots Delta_k / Delta_{k-1} of a stack by LAPACK alone: the squared diagonals
    of its Cholesky factors.  ``LinAlgError`` if a matrix is not positive definite."""
    return np.diagonal(np.linalg.cholesky(x), axis1=1, axis2=2) ** 2


def _cone_identities(rng, r, n):
    """The three cone identities' worst errors at rank r, in ``IDENTITY_NAMES`` order.

    n interior cone points y and n lower-triangular t with a diagonal in [1/2, 2] are
    eliminated once, by ``algebra._pivots`` and by ``_chol_pivots``.  Split level l
    in 1..r-1 reads one column of each, so the worst over all those columns is the
    worst over the levels.
    """
    y = _gram(rng.standard_normal((n, r, r))) + 1e-3 * np.eye(r)
    t = np.tril(rng.standard_normal((n, r, r)), -1)
    diag = rng.uniform(0.5, 2.0, (n, r))
    t[:, np.arange(r), np.arange(r)] = diag
    flipped = y[:, ::-1, ::-1]
    ref = _chol_pivots(y)
    return (
        # columns 1..r-1: pivot l + 1 = Delta_{l+1} / Delta_l, y_ll's Schur complement
        # against y[:l, :l]
        _rel_error(algebra._pivots(y)[:, 1:], ref[:, 1:]),
        # columns 1..r-1: pivot r+1-l of J y J is det y[l-1:, l-1:] / det y[l:, l:], a
        # ratio of trailing minors of y, the identity behind log_laplace_exact's
        # inverse-free closed form
        _rel_error(algebra._pivots(flipped)[:, 1:], _chol_pivots(flipped)[:, 1:]),
        # columns 0..r-2: Delta_k(t y t^T) = (t_11 ... t_kk)^2 Delta_k(y) for
        # lower-triangular t, so pivot k of t y t^T is t_kk^2 times pivot k of y
        _rel_error(algebra._pivots(t @ y @ np.swapaxes(t, 1, 2))[:, :-1],
                   diag[:, :-1] ** 2 * ref[:, :-1]))


def _identity_case(rng, r, n, l):
    """The random plan case that the six plan identities read at split level l.

    ``plans``: the package plans, on ``theta``, a rotated tilt of condition at most 4,
    of a run at 0 of width l and, when r - l >= 2, of a run at l + 1 that fills the
    rest, with gamma shapes ``u`` (0 at l; ``active`` is u > 0).  ``raws``: n raw
    draws of each run from one stream; ``drawn``: ``_draw_sum`` on a replay of that
    stream, ``support`` its ``algebra._pivots`` at ``active``; ``factor``: the package
    factor of the first run's raw draws; ``refs``: each run's ``_ref_factor``.  The
    helpers are looked up at call time, so a test can substitute a faulty one.
    """
    q = np.linalg.qr(rng.standard_normal((r, r)))[0]
    theta = SymElement(-(q * rng.uniform(0.5, 2.0, r)) @ q.T).matrix
    u, plans = np.zeros(r), []
    for start, w in [(0, l)] + ([(l + 1, r - l - 1)] if r - l >= 2 else []):
        u[start:start + w] = rng.uniform(1.0, 3.0, w)
        plans.append(sampling._plan_block(theta, start, w, u[start:start + w]))
    key = int(rng.integers(1 << 62))
    stream = np.random.default_rng(key)
    raws = [sampling._draw_block(plan, stream, n) for plan in plans]
    drawn = np.empty((n, r, r))
    sampling._draw_sum(plans, np.random.default_rng(key), drawn)
    return SimpleNamespace(
        r=r, l=l, theta=theta, u=u, active=u > 0.0, plans=plans, raws=raws,
        drawn=drawn, support=algebra._pivots(drawn, u > 0.0),
        factor=sampling._gram_factor(plans[0], *raws[0]),
        refs=[_ref_factor(theta[p.start:, p.start:], p.width, *raw)
              for p, raw in zip(plans, raws)])


def _id_bartlett_pivots(c):
    # the core W W^T with W = C T lower triangular has pivots C_pp^2 g_p
    piv = algebra._pivots(_gram(c.factor[:, :c.l]))
    return _rel_error(piv, np.diagonal(c.refs[0][1]) ** 2 * c.raws[0][0])


def _id_factor_gram(c):
    return _rel_error(_gram(c.factor), _gram(c.refs[0][0]))


def _id_plan_mean(c):
    # the runs' means sum to E[X], the gradient in theta of the log transform (Gindikin):
    # E[X] = t diag(s) t^T with t the lower Cholesky factor of (-theta)^{-1}
    got = np.zeros((c.r, c.r))
    for p in c.plans:
        got[p.start:, p.start:] += sampling._run_mean(
            p.core_chol, p.coupling, p.noise_chol, p.shapes + 0.5 * np.arange(p.width))
    t = np.linalg.cholesky(np.linalg.inv(-c.theta))
    return _rel_error(got[None], ((t * s_from_u(c.u)) @ t.T)[None])


def _id_run_placement(c):
    want = np.zeros_like(c.drawn)
    for plan, (m, _) in zip(c.plans, c.refs):
        want[:, plan.start:, plan.start:] += _gram(m)
    mirrored = np.array_equal(c.drawn, np.swapaxes(c.drawn, 1, 2))
    return _rel_error(c.drawn, want) if mirrored else math.inf


def _id_support_pivots(c):
    # with A the active indices, the pivot at an active p is det X[A<=p] / det X[A<p];
    # a draw that LAPACK finds not positive definite on A is off the cone
    try:
        want = _chol_pivots(c.drawn[:, c.active][:, :, c.active])
    except np.linalg.LinAlgError:
        return math.inf
    return _rel_error(c.support[:, c.active], want)


def _id_support_residual(c):
    # an inactive residual, as a share of |x_qq|, is 0 in exact arithmetic
    idle = ~c.active
    return float(np.max(np.abs(c.support[:, idle]) / np.abs(c.drawn[:, idle, idle])))


_IDENTITIES = [  # the plan identities; _cone_identities gives the other three
    ("bartlett_pivots", _id_bartlett_pivots),
    ("factor_gram", _id_factor_gram),
    ("plan_mean", _id_plan_mean),
    ("run_placement", _id_run_placement),
    ("support_pivots", _id_support_pivots),
    ("support_residual", _id_support_residual),
]

IDENTITY_NAMES = ("pivot_schur", "pivot_reversal", "triangular_equivariance",
                  *(name for name, _ in _IDENTITIES))


def identity_suite(r: int, trials: int = 500, seed: int = 0) -> list:
    """Run the nine structural identities at rank r over random batches.

    Each puts this package's ``algebra`` or ``sampling`` code against an
    independent LAPACK route.  The three cone identities run once per rank, on
    ``trials`` cone points from ``default_rng([seed, r])``, over every split
    level's pivot column at once (``_cone_identities``); the six plan identities
    run once per split level l in 1..r-1, on its plan case from
    ``default_rng([seed, r, l])`` (``_identity_case``).  Each reports its worst
    relative discrepancy over the levels, which passes up to ``IDENTITY_TOL``; a
    NaN fails, and a draw off the cone on its active block reads inf.  r >= 2,
    trials >= 1 and seed in [0, 2**64) must be integers, else ``VerifyError``.
    """
    if not (all(map(sampling._is_int, (r, trials, seed)))
            and r >= 2 and trials >= 1 and 0 <= seed < 1 << 64):
        raise VerifyError(
            "identity_suite needs integers r >= 2, trials >= 1 and seed in [0, 2**64), "
            f"got {r!r}, {trials!r} and {seed!r}")
    cases = (_identity_case(np.random.default_rng([seed, r, l]), r, trials, l)
             for l in range(1, r))
    plan_errors = np.array([[check(case) for _, check in _IDENTITIES] for case in cases])
    errors = (*_cone_identities(np.random.default_rng([seed, r]), r, trials),
              *plan_errors.max(axis=0))
    return [IdentityReport(name=name, r=r, trials=trials, max_rel_error=float(worst),
                           threshold=IDENTITY_TOL, passed=bool(worst <= IDENTITY_TOL))
            for name, worst in zip(IDENTITY_NAMES, errors)]


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


_SUPPORT = weakref.WeakKeyDictionary()  # batch -> its _support_fold


def _support_fold(active, chunks):
    """(rank histogram, all finite, all PSD, worst ratio) of the draws in ``chunks``.

    A draw is S S^T, S lower triangular with zero columns where u_p = 0, so one
    ``algebra._pivots`` per chunk steps only at the ``active`` indices, u_p > 0: d is
    the pivot there, elsewhere the residual against the earlier active indices (0 in
    exact arithmetic), 0 past a zero pivot and -inf at a zero pivot over a nonzero
    column.  The cut x_pp (SUPPORT_TOL + GROWTH_TOL g_p) multiplies, as a leading
    inactive x_pp is 0; g_p, the product of x_kk / d_k over the positive active pivots
    at k <= p, widens it where a tiny pivot (a small gamma draw) magnifies rounding.
    A draw's rank counts its positive active pivots and inactive |d| past the cut; it
    is PSD unless a d is below minus the cut or an x_pp is negative; its ratio is its
    most negative d or x_pp over its largest |x_pp|.  Finiteness is read from the
    whole chunk, as the elimination never reads between inactive indices.  Each
    chunk's d (as ``algebra._pivots`` returns it) and x are in Fortran order, so that
    the reductions over a draw's r entries read contiguous columns.
    """
    hist = np.zeros(len(active) + 1, dtype=np.int64)
    finite, psd, worst = True, True, -math.inf
    with np.errstate(invalid="ignore", over="ignore"):  # a non-finite draw fails anyway
        for chunk in chunks:
            d = algebra._pivots(chunk, active)
            x = np.asfortranarray(np.diagonal(chunk, axis1=1, axis2=2))
            cut = np.ones_like(d)
            np.divide(x, d, out=cut, where=active & (d > 0.0))
            for p in range(1, len(active)):  # np.cumprod(axis=1)'s products, ~2x faster
                cut[:, p] *= cut[:, p - 1]
            cut *= GROWTH_TOL
            cut += SUPPORT_TOL
            cut *= x
            ranks = np.where(active, d > 0.0, np.abs(d) > cut).sum(axis=1)
            hist += np.bincount(ranks, minlength=len(hist))
            finite = finite and bool(np.isfinite(chunk).all())
            psd = psd and not ((d < -cut).any() or (x < 0.0).any())
            ratio = -np.minimum(d, x).min(axis=1) / np.maximum(np.abs(x).max(axis=1), _TINY)
            worst = np.maximum(worst, ratio.max())  # a NaN ratio stays NaN
    return hist, finite, psd, float(worst)


def _support(batch: SampleBatch):
    """``_support_fold`` of the batch, kept while the batch, which must not change
    (see ``SampleBatch``), lives."""
    if batch not in _SUPPORT:
        _SUPPORT[batch] = _support_fold(np.asarray(batch.spec.param.u) > 0.0,
                                        _batch_chunks(batch))
    return _SUPPORT[batch]


def rank_profile(batch: SampleBatch, expected: int) -> RankProfile:
    """The rank histogram of ``_support_fold``; a non-finite draw fails it, as does an
    integer ``expected`` outside 0..r, and any other ``expected`` is a ``VerifyError``."""
    if not sampling._is_int(expected):
        raise VerifyError(f"expected must be an integer rank, got {expected!r}")
    hist, finite, _, _ = _support(batch)
    counts = {k: int(v) for k, v in enumerate(hist) if v}
    n = len(batch)
    frac_expected = counts.get(expected, 0) / n
    frac_at_most = sum(v for k, v in counts.items() if k <= expected) / n
    return RankProfile(
        expected=expected, n=n, counts=counts,
        frac_expected=frac_expected, frac_at_most=frac_at_most,
        passed=bool(finite and frac_at_most == 1.0 and frac_expected >= 0.999),
    )


def psd_check(batch: SampleBatch):
    """(all PSD, worst ratio) of ``_support_fold``, or (False, inf) with a non-finite draw."""
    _, finite, ok, worst = _support(batch)
    return (ok, worst) if finite else (False, math.inf)


# -- aggregated self-test ----------------------------------------------------


def _selftest_admissibility(seed):
    """``rounds`` u -> s -> u round trips and s-block recompositions, exact on
    the dyadic u that one stream draws at once; the checks compare tuples."""
    rounds = 10000
    rng = np.random.default_rng([seed, 101])
    ends = np.cumsum(rng.integers(1, 9, size=rounds)).tolist()
    u = rng.integers(0, 4 * 1024 + 1, size=ends[-1]) / 1024.0
    u[rng.random(ends[-1]) < 0.4] = 0.0
    draws = u.tolist()
    ok_roundtrip = True
    ok_recompose = True
    for begin, end in zip([0] + ends, ends):
        u = tuple(draws[begin:end])
        param = u_from_s(s_from_u(u))
        ok_roundtrip = ok_roundtrip and param.u == u
        part = build_partition(param)
        if part.k:
            # dyadic entries: every partial sum is exact, in any order
            ok_recompose = ok_recompose and tuple(map(sum, zip(*part.s_blocks))) == param.s
    expected = {0.0: True, 0.25: False, 0.5: True, 0.75: False, 1.0: True, 1.25: True}
    # only a rejection reads as False: any other error fails the section
    grid = {str(p): membership_report(s=[p] * 3)["in_xi"] for p in expected}
    ok_grid = grid == {str(p): want for p, want in expected.items()}
    passed = ok_roundtrip and ok_recompose and ok_grid
    return {
        "pass": passed,
        "seed": seed,
        "rounds": rounds,
        "roundtrip_exact": ok_roundtrip,
        "recomposition_exact": ok_recompose,
        "scalar_grid": grid,
    }


def _selftest_quadrature():
    s_grid = [(2.0, 1.0), (2.0, 2.0), (1.5, 0.8)]
    th_grid = [
        np.array([[-1.0, 0.0], [0.0, -1.0]]),
        np.array([[-1.0, 0.0], [0.0, -2.0]]),
        np.array([[-1.5, -0.4], [-0.4, -1.0]]),
    ]
    points = []
    worst = 0.0
    for s in s_grid:
        for t in th_grid:
            rel = quadrature_check_r2(np.array(s), SymElement(t))
            worst = max(worst, rel)
            points.append({"s": list(s), "theta_diag": np.diag(t).tolist(), "rel_err": rel})
    closed = math.exp(log_gamma_omega([2.0, 1.0]))
    anchor_ok = abs(closed - math.sqrt(2.0 * math.pi) * math.sqrt(math.pi)) < 1e-12
    return {
        "pass": bool(worst <= 1e-6 and anchor_ok),
        "worst_rel_err": worst,
        "anchor_value": closed,
        "points": points,
    }


# the scalar-tilt laws: theta = -c I and probes zeta = -p I, where the transform
# ratio is (c / p)^(s_1 + ... + s_r) and the mean diag(s) / c (Gindikin's
# theorem); s = (1.2, 0.5, 1.2, 1.0) is u = (1.2, 0, 0.7, 0)
_LAWS = {
    "rank_one_law": {"s": (0.5, 0.5), "c": 0.5, "probes": (0.55, 0.6, 0.75, 1.0, 1.25)},
    "generic_singular_law": {"s": (1.2, 0.5, 1.2, 1.0), "c": 1.0, "probes": (1.25,)},
}


def _selftest_law(seed, n, s, c, probes):
    """n draws at theta = -c I: the mean within 5 SE of diag(s) / c, each probe
    zeta = -p I passing ``laplace_mc`` with its exact ratio (c / p)^sum(s), and
    the rank at ``rank_support``."""
    r = len(s)
    spec = RieszSpec.build(s=s, theta=SymElement(-c * np.eye(r)), seed=seed, count=n)
    batch = sample_riesz(spec)
    se = batch.matrices.std(axis=0, ddof=1) / math.sqrt(n)
    mean_z = float(np.max(np.abs(batch.mean() - np.diag(spec.param.s) / c)
                          / np.maximum(se, _TINY)))
    ok = mean_z <= 5.0
    reports = []
    for p in probes:
        rep = laplace_mc(batch, SymElement(-p * np.eye(r)))
        closed = (c / p) ** sum(spec.param.s)
        ok = ok and rep.passed and abs(rep.exact - closed) <= 1e-12 * closed
        reports.append(rep.to_json_dict())
    profile = rank_profile(batch, expected=spec.param.rank_support)
    return {
        "pass": bool(ok and profile.passed),
        "seed": seed,
        "n": n,
        "mean_max_z": mean_z,
        "laplace": reports,
        "rank": profile.to_json_dict(),
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


def run_selftest(r_values=(2, 3, 4, 5, 6), trials: int = 500, seed: int = 0) -> dict:
    """Run every oracle family at the scale ``trials`` sets; aggregate to one verdict.

    Each law takes min(200 000, max(2 000, 400 trials)) draws, so 200 000
    from 500 trials on, and the quadrature always runs its full 3 x 3 grid.
    Each section reports its own ``elapsed_s``, and each seeded one the
    ``seed`` it ran with, so a failing section can be replayed alone through
    its ``_selftest_*`` function: a law through ``_selftest_law`` with its row
    of ``_LAWS``.  A section that raises fails with the run's ``seed`` and its
    ``error`` ("<type>: <message>"); the rest run.
    """
    t0 = time.perf_counter()
    n = min(200_000, max(2_000, 400 * trials))
    runs = {
        "identities": lambda: _selftest_identities(r_values, trials, seed),
        "admissibility": lambda: _selftest_admissibility(seed),
        "quadrature": _selftest_quadrature,
        "rank_one_law": lambda: _selftest_law(seed, n, **_LAWS["rank_one_law"]),
        "generic_singular_law": lambda: _selftest_law(seed, n, **_LAWS["generic_singular_law"]),
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
