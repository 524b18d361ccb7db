"""Exact samplers for Riesz measures on the positive semidefinite cone.

A draw with admissible parameter s (multiplicity d = 1) and tilt theta is
the sum of independent factors, one per support run of the u coordinates:
a run of width w starting after ``start`` leading zeros contributes a rank-w
matrix supported on the trailing principal block at ``start``.  Inside that
block the factor is assembled from a w x w absolutely-continuous core A and
a Gaussian coupling B as ``[[A, sqrt(A) B], [B^T sqrt(A), B^T B]]``.

The core uses a triangular (Bartlett-type) construction: with C the lower
Cholesky factor of (-eta)^{-1} for the tilt's Schur complement eta, and T
lower triangular with T_pp^2 ~ Gamma(u_p) for the run's u coordinates and
subdiagonal entries N(0, 1/2), the core is (C T)(C T)^T.  The coupling rows
are Gaussian with mean sqrt(A) . Theta_12 (-Theta_0)^{-1} and row covariance
(1/2) (-Theta_0)^{-1}, where Theta_12, Theta_0 are the tilt blocks to the
right of / below the core.

That factor is ``N N^T`` with ``N = [sqrt(A); B^T]``, and the sampler builds
it as ``M M^T`` with ``M = [W; K^T W + L Z]``: W = C T (so W W^T = A),
K = Theta_12 (-Theta_0)^{-1} is the coupling mean map, L the lower Cholesky
factor of the row covariance, and Z a tail x w standard normal matrix.  As
W = sqrt(A) V with V orthogonal and a function of T alone, ``L Z V^T`` has
the law of ``L Z`` given T, so ``M V^T = N`` in law.  No matrix square root
is needed, and the rank is exactly w by construction.  A run's draws are
held side by side, so C T, K^T W and L Z are each one gemm per chunk.  The
runs' factors sit side by side in one stack S, each at its start, and the
chunk's draws are S S^T, one Gram product per chunk.

Determinism contract
--------------------
Draws are generated in fixed chunks of ``CHUNK`` consecutive indices.  Chunk
c (draws c*CHUNK .. c*CHUNK + CHUNK - 1) is generated entirely from its own
stream ``Generator(SFC64(SeedSequence(words)))``, ``words`` being the low and
high 32-bit halves of seed and then of c (``sample_stream``).  Within a chunk
the draw order is fixed: for each support run in order, (1) one array of
CHUNK gamma variates per diagonal index in index order (a shape below 1
consumes a gamma array and then a uniform array), (2) one normal array for
the triangular subdiagonals, (3) one normal array for the coupling block.
A full chunk is always drawn and assembled, then truncated to the requested
count.  Repeat runs therefore give identical bits, and a longer run extends
a shorter one.  The bits also depend on the order in which BLAS sums the
products.  They changed once, from versions that drew from Philox streams
keyed by (seed, c) and summed the runs' products one by one.
``sample_chunks`` is the only sampler: every draw, whatever its support,
goes through the chunk above.  It draws the chunks one at a time, in order,
on the calling thread, and ``sample_riesz`` has the same chunks drawn in
place into one batch.  Both accept a ``workers`` count for compatibility;
it changes neither the bits nor the speed.

The writers (``write_ndjson``, ``write_json``, ``write_csv``) consume the
chunks as they come and format each in slices of ``SLICE`` draws, so a run
of any length holds one chunk's floats and one slice's strings.  Each draw's
distinct entries (its packed upper triangle) are formatted once with
``repr``, and the mirrored lower triangle reuses those strings, which is
exact because draws are symmetric bit for bit.  The bytes written therefore
depend on the spec alone.  A non-finite entry is never a correct draw: the
writers raise ``SamplerError`` on the first chunk that holds one, before
writing any of it.

The per-run constants (Cholesky factors and coupling map, ``_BlockPlan``)
are derived from the tilt once, when a ``RieszSpec`` is constructed, so a
tilt the sampler cannot factor, or whose draws would overflow, is rejected
there and never mid-run.
"""

from __future__ import annotations

import functools
import hashlib
import json
import operator
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from . import algebra
from .algebra import SymElement
from .gindikin import (
    BlockPartition,
    GindikinError,
    GindikinParam,
    _check_zero_tol,
    build_partition,
    log_gamma_omega,
    param_from_u,
    u_from_s,
)

__all__ = [
    "CHUNK",
    "SamplerError",
    "TiltError",
    "NonSamplableError",
    "RieszSpec",
    "SampleBatch",
    "sample_stream",
    "sample_gamma",
    "sample_chunks",
    "sample_riesz",
    "log_density_ac",
    "write_ndjson",
    "write_json",
    "write_csv",
]

TILT_MARGIN = 1e-10
CHUNK = 512  # draws per stream in sample_riesz
SLICE = 128  # draws per template fill in the writers
# _plan_block: a run's draw scale times this must stay below the largest float.
# An entry beyond 1e3 times the scale needs a variate some 500 times its mean
# (or above 500 for a shape below 1), which no stream yields in practice:
# P(Gamma(1) > 500) = e^-500.
DRAW_HEADROOM = 1e3


class SamplerError(ValueError):
    pass


class TiltError(SamplerError):
    """The tilt is unreadable, of the wrong rank, not negative definite, or
    so small that the inverse the sampler needs, or its draws, overflow."""


class NonSamplableError(SamplerError):
    """The parameter is admissible but outside the sampled family (d != 1),
    or singular where a density is asked for."""


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def sample_stream(seed: int, index: int) -> np.random.Generator:
    """SFC64 stream seeded by a SeedSequence of (seed, index) as four 32-bit words.

    Both must be integers in [0, 2**64), else ``SamplerError``; each is split into its low
    and high words, so every pair keys its own stream: numpy would trim ``[seed, index]``
    to each int's own word count, and (2**32 + 5, 7) would meet (5, 1 + 7 * 2**32).
    ``sample_riesz`` keys one stream per chunk of ``CHUNK`` draws, with the
    chunk number as the index.
    """
    if not all(_is_int(v) and 0 <= v < 1 << 64 for v in (seed, index)):
        raise SamplerError(
            f"seed and index must be integers in [0, 2**64), got {seed!r} and {index!r}")
    words = np.array([seed & 0xFFFFFFFF, seed >> 32, index & 0xFFFFFFFF, index >> 32],
                     dtype=np.uint32)
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(words)))


def sample_gamma(shape: float, rng: np.random.Generator, size) -> np.ndarray:
    """``size`` Gamma(shape, scale=1) variates, exact for every positive shape.

    Shapes below 1 are drawn as Gamma(shape + 1) * U^(1/shape), which keeps
    the generator's gamma method out of its rejection-heavy small-shape
    regime and costs exactly two stream draws per variate (a gamma draw of
    ``size``, then a uniform draw of ``size``).
    """
    if not shape > 0:
        raise SamplerError(f"gamma shape must be positive, got {shape}")
    if shape < 1.0:
        g = rng.gamma(shape + 1.0, size=size)
        # a Python float quotient: for a shape below 1/(largest float) it is
        # inf without numpy's overflow warning, and U ** inf is 0
        return g * rng.random(size) ** (1.0 / float(shape))
    return rng.gamma(shape, size=size)


def _neg_inverse(a: np.ndarray, what: str) -> np.ndarray:
    """Symmetrized (-a)^{-1}; raises TiltError unless Cholesky accepts -a
    and the result is finite (it overflows for a tilt as small as 6e-309)."""
    try:
        np.linalg.cholesky(-a)
        inv = np.linalg.inv(-a)
    except np.linalg.LinAlgError as err:
        raise TiltError(f"{what} is not negative definite") from err
    with np.errstate(over="ignore"):
        inv = 0.5 * (inv + inv.T)
    if not np.isfinite(inv).all():
        raise TiltError(f"{what} has an inverse that overflows")
    return inv


@dataclass(frozen=True)
class _BlockPlan:
    """Per-run constants derived from the tilt (fixed across samples)."""

    start: int
    width: int
    tail: int
    shapes: np.ndarray       # gamma shapes for the triangular diagonal: the run's u
    core_chol: np.ndarray    # C with C C^T = (-eta)^{-1}
    coupling: np.ndarray     # Theta_12 (-Theta_0)^{-1}, shape (width, tail)
    noise_chol: np.ndarray   # L with L L^T = (1/2)(-Theta_0)^{-1}

    @property
    def n_tri(self) -> int:
        return self.width * (self.width - 1) // 2


def _plan_block(theta_dense: np.ndarray, start: int, width: int,
                shapes: np.ndarray) -> _BlockPlan:
    """The run's plan from the tilt's trailing block at ``start``: core t1,
    coupling t12 and trailing t0.  For a run that reaches the last index, t0
    is 0 x 0 and the same formulas give the Schur complement t1, a coupling
    of shape (width, 0) and a 0 x 0 noise factor."""
    sub = theta_dense[start:, start:]
    t1, t12 = sub[:width, :width], sub[:width, width:]
    neg_t0_inv = _neg_inverse(sub[width:, width:], "trailing tilt block")
    eta = t1 + t12 @ neg_t0_inv @ t12.T  # Schur complement t1 - t12 t0^{-1} t12^T
    coupling = t12 @ neg_t0_inv
    noise_chol = np.linalg.cholesky(0.5 * neg_t0_inv)
    core_chol = np.linalg.cholesky(_neg_inverse(eta, "tilt Schur complement"))
    _check_draw_scale(core_chol, coupling, noise_chol, shapes)
    return _BlockPlan(start, width, len(sub) - width, shapes, core_chol, coupling, noise_chol)


def _run_mean(core_chol, coupling, noise_chol, spread) -> np.ndarray:
    """A run's mean draw E[M M^T] = [[A, A K], [K^T A, K^T A K + w L L^T]], with
    A = C D C^T and D = E[T T^T] = diag(``spread``), spread_p = shape_p + p/2."""
    w = len(spread)
    out = np.empty((w + coupling.shape[1],) * 2)
    out[:w, :w] = (core_chol * spread) @ core_chol.T
    out[:w, w:] = out[:w, :w] @ coupling
    out[w:, :w] = out[:w, w:].T
    out[w:, w:] = coupling.T @ out[:w, w:] + w * noise_chol @ noise_chol.T
    return out


def _check_draw_scale(core_chol, coupling, noise_chol, shapes) -> None:
    """Raise TiltError if the run's draw scale times ``DRAW_HEADROOM`` passes the largest float.

    The scale is the largest diagonal entry of ``_run_mean`` with each shape raised
    to at least 1, so that the rare large variate of a small shape stays covered; NaN refuses."""
    spread = np.maximum(shapes, 1.0) + 0.5 * np.arange(len(shapes))
    with np.errstate(over="ignore", invalid="ignore"):
        scale = np.diagonal(_run_mean(core_chol, coupling, noise_chol, spread)).max()
    if not scale <= np.finfo(float).max / DRAW_HEADROOM:
        raise TiltError(
            f"tilt is too small for its draws: their scale {scale:.3e} times "
            f"the headroom {DRAW_HEADROOM:g} passes the largest float")


@functools.lru_cache(maxsize=None)
def _strict_triangle(n: int):
    """Read-only ``np.tril_indices(n, -1)``, computed once per size: each call
    costs about 25 us, a chunk needs one per run and one for its mirror."""
    pair = np.tril_indices(n, -1)
    for index in pair:
        index.flags.writeable = False
    return pair


def _draw_block(plan: _BlockPlan, rng: np.random.Generator, size: int):
    """Raw stream draws for ``size`` samples of one run, in the pinned order."""
    g = np.stack([sample_gamma(s, rng, size) for s in plan.shapes], axis=-1)
    o = rng.standard_normal((size, plan.n_tri))
    z = rng.standard_normal((size, plan.tail, plan.width))
    return g, o, z


def _contiguous(x: np.ndarray) -> np.ndarray:
    """x as a C-contiguous array, copied only if it is not one already.

    x's last axis must be contiguous.  Its rows along that axis are copied
    whole, as opaque items: numpy copies a stack of draws from one layout to
    the other several times faster that way than with only the few floats of
    a row in its innermost loop.
    """
    if x.flags.c_contiguous:
        return x
    rows = x.view(np.dtype((np.void, x.itemsize * x.shape[-1])))[..., 0]
    return np.ascontiguousarray(rows).view(x.dtype).reshape(x.shape)


def _each_draw(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b_i`` for every draw i, with the draws side by side: b is (k, n, p),
    b[:, i] draw i's k x p matrix, and so is the result, (len(a), n, p).

    It is one product of ``a`` by b viewed as a (k, n p) array.
    """
    k, n, p = b.shape
    return (a @ _contiguous(b).reshape(k, n * p)).reshape(len(a), n, p)


def _gram_factor(plan: _BlockPlan, g, o, z) -> np.ndarray:
    """Stack of factors M = [W; K^T W + L Z] of one run, shape (n, m, width).

    W = C T is the Bartlett factor of the core, so M M^T is the run's draw on
    the trailing block of size m = width + tail (see the module docstring).
    The draws are held side by side: T as (width, n, width), Z as
    (tail, n, width) and M as (m, n, width), so that ``_each_draw`` forms
    C T, K^T W and L Z as one product over the chunk each.  The stack
    returned is a view of the side-by-side M, which ``_draw_sum`` copies
    into its place in the chunk's stack S.  Width 1 and tail 0 take the same
    path: their empty triangle and empty coupling rows are zero-size products.
    """
    n, w = g.shape
    t = np.zeros((w, n, w))
    diag = np.arange(w)
    t[diag, :, diag] = np.sqrt(g).T
    rows, cols = _strict_triangle(w)
    t[rows, :, cols] = (o * np.sqrt(0.5)).T
    m = np.empty((w + plan.tail, n, w))
    m[:w] = _each_draw(plan.core_chol, t)
    m[w:] = (_each_draw(plan.coupling.T, m[:w])
             + _each_draw(plan.noise_chol, z.swapaxes(0, 1)))
    return m.swapaxes(0, 1)


def _draw_sum(plans, rng: np.random.Generator, out: np.ndarray) -> None:
    """Fill ``out`` (size, r, r) with draws of the sum of the runs' factors.

    Each run's factor M goes to rows ``start:`` of its own columns of one
    zeroed (size, r, sum of widths) stack S, so that the sum of the runs'
    M M^T is S S^T, one Gram product for the chunk.
    """
    n, r = len(out), out.shape[-1]
    factors = [_gram_factor(plan, *_draw_block(plan, rng, n)) for plan in plans]
    # S is allocated after the factors: allocated before them, it made them
    # about a fifth slower to form for one run of width 16 (one BLAS thread)
    s = np.zeros((n, r, sum(plan.width for plan in plans)))
    col = 0
    for plan, m in zip(plans, factors):
        s[:, plan.start:, col:col + plan.width] = m
        col += plan.width
    # keep the copy of S^T: given S and a view of its own transpose, numpy
    # calls syrk once per draw, up to twice as slow as the gemm the copy gets
    np.matmul(s, np.ascontiguousarray(s.swapaxes(1, 2)), out=out)
    # S S^T is symmetric in exact arithmetic, but nothing obliges a BLAS
    # product to round both triangles alike; mirroring the upper triangle
    # makes every stored draw symmetric bit for bit
    rows, cols = _strict_triangle(r)
    out[:, rows, cols] = out[:, cols, rows]


# -- batched sampling -------------------------------------------------------


@dataclass(frozen=True)
class RieszSpec:
    """A fully validated sampling request.

    ``param`` must be admissible with multiplicity d = 1; ``theta`` must be
    negative definite with margin (smallest eigenvalue of -theta above
    1e-10 times the Frobenius norm); ``count`` is the number of samples and
    ``seed``, in [0, 2**64), keys every per-chunk stream.  Construction also
    derives ``partition``, the parameter's support runs, and ``plans``, the
    per-run sampling constants, so every tilt error surfaces here.
    """

    param: GindikinParam
    theta: SymElement
    seed: int = 0
    count: int = 1
    partition: BlockPartition = field(init=False, repr=False, compare=False)
    plans: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.param.samplable:
            raise NonSamplableError(
                f"only multiplicity d = 1 is samplable, got d = {self.param.d}"
            )
        if not _is_int(self.count) or self.count < 1:
            raise SamplerError(f"count must be a positive integer, got {self.count!r}")
        if not _is_int(self.seed) or not 0 <= self.seed < 1 << 64:
            raise SamplerError(f"seed must be an integer in [0, 2**64), got {self.seed!r}")
        if self.theta.r != self.param.r:
            raise TiltError(
                f"tilt rank {self.theta.r} does not match parameter rank {self.param.r}"
            )
        algebra.require_negative_definite(self.theta, TiltError, "theta",
                                          margin=TILT_MARGIN)
        object.__setattr__(self, "partition", build_partition(self.param))
        object.__setattr__(self, "plans", tuple(
            _plan_block(self.theta.matrix, start, width,
                        np.array(self.param.u[start:start + width]))
            for start, width in zip(self.partition.starts, self.partition.lengths)
        ))

    @classmethod
    def build(cls, s=None, u=None, theta: SymElement | None = None,
              seed: int = 0, count: int = 1, d: float = 1.0,
              zero_tol: float = 0.0) -> "RieszSpec":
        """Convenience constructor: tilt defaults to minus the identity."""
        if (s is None) == (u is None):
            raise SamplerError("give exactly one of s or u")
        _check_zero_tol(zero_tol)
        param = param_from_u(u, d) if u is not None else u_from_s(s, d, zero_tol)
        if theta is None:
            theta = SymElement(np.diag(np.full(param.r, -1.0)))
        return cls(param=param, theta=theta, seed=seed, count=count)

    def to_json_dict(self) -> dict:
        return {
            "s": list(self.param.s),
            "u": list(self.param.u),
            "d": self.param.d,
            "r": self.param.r,
            "theta": self.theta.to_json_dict(),
            "seed": self.seed,
            "n": self.count,
        }

    def digest(self) -> str:
        """sha256 of the canonical (sorted-key, compact) spec JSON."""
        text = json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()

    @classmethod
    def from_json_dict(cls, obj: dict) -> "RieszSpec":
        """Spec from a JSON object that gives the parameter as "s" or "u".

        ``to_json_dict`` writes both, so an object with both is accepted
        when they name the same parameter and refused otherwise.  A key that
        ``to_json_dict`` does not write, or an "r" that is not the JSON
        integer len(s), is a ``SamplerError``: nothing is dropped unread.  A
        "theta" that is not a finite symmetric matrix object is a ``TiltError``.
        """
        if not isinstance(obj, dict) or ("s" not in obj and "u" not in obj):
            raise SamplerError('spec JSON must be an object with "s" or "u"')
        d = float(obj.get("d", 1.0))
        s, u = obj.get("s"), obj.get("u")
        if "s" in obj and "u" in obj:
            s, u = _exact_one_of(s, u, d)
        theta = obj.get("theta")
        if theta is not None:
            try:
                theta = SymElement.from_json_dict(theta)
            except (TypeError, ValueError) as err:
                raise TiltError(f"cannot load theta: {err}") from err
        # seed and n go through unconverted, so that construction rejects
        # anything but a JSON integer instead of truncating it
        spec = cls.build(s=s, u=u, theta=theta, seed=obj.get("seed", 0),
                         count=obj.get("n", 1), d=d)
        extra = sorted(set(obj) - set(spec.to_json_dict()))
        if extra:
            raise SamplerError(f"spec JSON has keys that a spec does not write: {extra}")
        r = obj.get("r", spec.param.r)
        if not _is_int(r) or r != spec.param.r:
            raise SamplerError(f'spec JSON gives "r" {r!r}, but s has length {spec.param.r}')
        return spec


def _exact_one_of(s, u, d: float):
    """Of a spec's "s" and "u", the one it was built from: (s, None) or (None, u).

    One of the two was derived from the other, and the derived one need not
    survive the way back bit for bit (u = (0.1, 0.3) gives an s whose u is
    not (0.1, 0.3)); reading the spec from the derived one would change its
    parameter and so its digest.  "s" is kept when its u is "u", "u" when
    its s is "s"; anything else names two parameters.
    """
    by_s = u_from_s(s, d)
    try:
        by_u = param_from_u(u, d)
    except GindikinError:
        by_u = None
    if by_u is not None and by_u.u == by_s.u:
        return s, None
    if by_u is not None and by_u.s == by_s.s:
        return None, u
    raise SamplerError('spec JSON gives "s" and "u" of different parameters')


class SampleBatch:
    """The ``spec.count`` draws of a spec, stacked in draw order.

    Draw i came from the stream of chunk ``i // CHUNK``.  ``matrices`` is a
    read-only view of the stack given, and the stack must not change after
    construction: what is derived from a batch, such as the folded support
    verdicts of ``verify``, may be kept while the batch lives.
    """

    def __init__(self, spec: RieszSpec, matrices: np.ndarray):
        if matrices.shape != (spec.count, spec.param.r, spec.param.r):
            raise SamplerError(f"matrix stack has shape {matrices.shape}")
        self.spec = spec
        self.matrices = matrices.view()
        self.matrices.flags.writeable = False

    def __len__(self) -> int:
        return self.matrices.shape[0]

    def mean(self) -> np.ndarray:
        return self.matrices.mean(axis=0)


def _chunks(spec: RieszSpec, buffer):
    """Yield the draws in order, chunk c drawn into ``buffer(c)``, (CHUNK, r, r)."""
    n = spec.count
    for c in range(-(-n // CHUNK)):
        out = buffer(c)
        _draw_sum(spec.plans, sample_stream(spec.seed, c), out)
        yield out[:n - c * CHUNK]


def _check_workers(workers) -> None:
    if not _is_int(workers) or workers < 1:
        raise SamplerError(f"workers must be a positive integer, got {workers!r}")


def sample_chunks(spec: RieszSpec, workers: int = 1):
    """Iterator over the ``spec.count`` draws in order, as (k, r, r) arrays, k <= CHUNK.

    Chunk c holds draws c*CHUNK onwards and comes from its own stream keyed
    by (seed, c); the last chunk is drawn in full and truncated.  Each chunk
    is drawn on the calling thread when it is asked for, so memory stays
    O(CHUNK * r^2) for any count, and a longer run extends a shorter one
    (see the module's determinism contract).  ``workers`` is validated and
    accepted for compatibility; it changes neither the bits nor the speed.
    """
    _check_workers(workers)
    r = spec.param.r
    return _chunks(spec, lambda c: np.empty((CHUNK, r, r)))


def sample_riesz(spec: RieszSpec, workers: int = 1) -> SampleBatch:
    """Draw ``spec.count`` independent samples of the tilted Riesz law.

    The chunks of ``sample_chunks`` are drawn in place into one preallocated
    stack of whole chunks, and the batch keeps its first ``spec.count``
    rows.  ``workers`` is validated and accepted for compatibility; it
    changes neither the bits nor the speed.
    """
    _check_workers(workers)
    r = spec.param.r
    stack = np.empty((-(-spec.count // CHUNK) * CHUNK, r, r))
    for _ in _chunks(spec, lambda c: stack[c * CHUNK:(c + 1) * CHUNK]):
        pass
    return SampleBatch(spec, stack[:spec.count])


# -- densities and serialization -------------------------------------------


def log_density_ac(s, x: SymElement, zero_tol: float = 0.0) -> float:
    """Log density of the untilted measure at x, absolutely continuous case.

    Defined only when every recovered u coordinate is strictly positive
    (equivalently s_p > (p-1)/2 for all p); the value is
    log Delta_{s - (r+1)/2}(x) - log Gamma_Omega(s) for x in the open cone.
    It alone refuses a singular parameter, with ``NonSamplableError``, also
    one that ``zero_tol`` (which snaps u as in ``u_from_s``) makes singular,
    and a log density past the largest float, with ``GindikinError``.
    """
    param = u_from_s(s, d=1.0, zero_tol=zero_tol)
    if param.r != x.r:
        raise SamplerError(f"parameter length {param.r} does not match rank {x.r}")
    if param.rank_support != param.r:
        raise NonSamplableError(
            "parameter is singular (some u_p = 0); the measure lives on the "
            "cone boundary and has no density")
    shift = np.asarray(param.s) - 0.5 * (x.r + 1)
    try:
        log_power = algebra.log_generalized_power(x, shift)
    except algebra.PowerDomainError:
        raise SamplerError("x is not in the open cone (nonpositive leading minor)") from None
    value = log_power - log_gamma_omega(param.s)
    if not np.isfinite(value):
        raise GindikinError(f"log density {value} at x: past the largest float")
    return value


def _header(spec: RieszSpec) -> dict:
    return {"spec": spec.to_json_dict(), "partition": spec.partition.to_json_dict()}


def _draw_template(r: int, dumps) -> tuple[str, tuple]:
    """``dumps`` of an r x r draw as a ``%`` template, and the packed entry of each field.

    Field f stands for entry ``index[f]`` of the packed upper triangle, and
    the mirrored lower triangle names the same entries, so each distinct
    entry is formatted once (draws are symmetric bit for bit).
    """
    rows, cols = np.triu_indices(r)
    field = {(int(i), int(j)): k for k, (i, j) in enumerate(zip(rows, cols))}
    index = tuple(field[min(i, j), max(i, j)] for i in range(r) for j in range(r))
    text = dumps({"r": r, "data": [["@"] * r for _ in range(r)]})
    return text.replace("%", "%%").replace('"@"', "%s"), index


def _write_chunks(fp, head: str, chunks, r: int, line: str, index: tuple,
                  sep: str, tail: str) -> None:
    """Write ``head``, each draw as ``line`` over its packed entries ``index``, ``tail``.

    Draws are joined by ``sep``.  A non-finite entry is never a correct
    draw: its chunk raises ``SamplerError`` before any of it is written.
    Each slice of up to ``SLICE`` draws is one ``%`` fill of ``line``
    repeated over the slice, with one ``repr`` per distinct entry and each
    draw's fields gathered by one ``itemgetter`` call.  Only one slice's
    strings are held at a time, and none while the next chunk is drawn.
    """
    rows, cols = np.triu_indices(r)
    m = len(rows)
    # csv, and every format at r = 1, takes the packed entries in order: the
    # gather is skipped there, as an itemgetter of one index returns no tuple
    gather = None if index == tuple(range(m)) else operator.itemgetter(*index)

    def fill(draws) -> str:
        # a function of its own, so that nothing of the slice is still held
        # while the next chunk is drawn
        # float.__repr__ is what repr() and json.dumps call for a float
        fields = tuple(map(float.__repr__, draws[:, rows, cols].ravel().tolist()))
        if gather is not None:
            fields = tuple(chain.from_iterable(map(gather, zip(*[iter(fields)] * m))))
        return sep.join([line] * len(draws)) % fields

    fp.write(head)
    lead, done = "", 0
    for chunk in chunks:
        finite = np.isfinite(chunk[:, rows, cols]).all(axis=1)
        if not finite.all():
            raise SamplerError(f"draw {done + int(np.argmin(finite))} has a non-finite entry")
        for lo in range(0, len(chunk), SLICE):
            fp.write(lead)
            fp.write(fill(chunk[lo:lo + SLICE]))
            lead = sep
        done += len(chunk)
    fp.write(tail)


def write_ndjson(spec: RieszSpec, chunks, fp) -> None:
    """Header line (spec + partition echo) then one JSON matrix per line."""
    compact = functools.partial(json.dumps, separators=(",", ":"))
    r = spec.param.r
    line, index = _draw_template(r, compact)
    _write_chunks(fp, compact(_header(spec)) + "\n", chunks, r, line + "\n", index, "", "")


def write_json(spec: RieszSpec, chunks, fp) -> None:
    """One indented JSON document: the header's fields plus ``"samples"``."""
    head, tail = json.dumps(dict(_header(spec), samples=["@S@"]), indent=2).split('"@S@"')
    r = spec.param.r
    line, index = _draw_template(r, functools.partial(json.dumps, indent=2))
    _write_chunks(fp, head, chunks, r, line.replace("\n", "\n    "), index,
                  ",\n    ", tail + "\n")


def write_csv(spec: RieszSpec, chunks, fp) -> None:
    """Header row ``x_i_j`` then each draw's packed upper triangle as repr floats."""
    r = spec.param.r
    rows, cols = np.triu_indices(r)
    head = ",".join(f"x_{i + 1}_{j + 1}" for i, j in zip(rows, cols)) + "\n"
    line = ",".join(["%s"] * len(rows)) + "\n"
    _write_chunks(fp, head, chunks, r, line, tuple(range(len(rows))), "", "")
