"""Exact samplers for Riesz measures on the positive semidefinite cone.

A draw with admissible parameter s (multiplicity d = 1) and tilt theta is
the sum of independent factors, one per support run of the u coordinates:
a run of width w starting after ``start`` leading zeros contributes a rank-w
matrix supported on the trailing principal block at ``start``.  Inside that
block the factor is assembled from a w x w absolutely-continuous core A and
a Gaussian coupling B as ``[[A, sqrt(A) B], [B^T sqrt(A), B^T B]]``.

The core uses a triangular (Bartlett-type) construction: with C the lower
Cholesky factor of (-eta)^{-1} for the tilt's Schur complement eta, and T
lower triangular with T_pp^2 ~ Gamma(u_p - (p-1)/2) and subdiagonal entries
N(0, 1/2), the core is (C T)(C T)^T.  The coupling rows are Gaussian with
mean sqrt(A) . Theta_12 (-Theta_0)^{-1} and row covariance
(1/2) (-Theta_0)^{-1}, where Theta_12, Theta_0 are the tilt blocks to the
right of / below the core.

The gamma shapes are computed from the run's block parameter as
(u_p + t/2) - t/2, with t the position in the run, so each keeps a relative
error of about 1e-16 * t / u_p against u_p; the draw bits are pinned to that
rounding.  Where it would give a shape <= 0 (an admissible u_p below about
1e-16 t, such as ``--u 1,1e-300``) the shape is u_p itself.

That factor is ``N N^T`` with ``N = [sqrt(A); B^T]``, and the sampler builds
it as ``M M^T`` with ``M = [W; K^T W + L Z]``: W = C T (so W W^T = A),
K = Theta_12 (-Theta_0)^{-1} is the coupling mean map, L the lower Cholesky
factor of the row covariance, and Z a tail x w standard normal matrix.  As
W = sqrt(A) V with V orthogonal and a function of T alone, ``L Z V^T`` has
the law of ``L Z`` given T, so ``M V^T = N`` in law.  No matrix square root
is needed, and the rank is exactly w by construction.

Determinism contract
--------------------
Draws are generated in fixed chunks of ``CHUNK`` consecutive indices.  Chunk
c (draws c*CHUNK .. c*CHUNK + CHUNK - 1) is generated entirely from its own
counter-based stream ``Generator(Philox(key=(seed, c)))``.  Within a chunk
the draw order is fixed: for each support run in order, (1) one array of
CHUNK gamma variates per diagonal index in index order (a shape below 1
consumes a gamma array and then a uniform array), (2) one normal array for
the triangular subdiagonals, (3) one normal array for the coupling block.
A full chunk is always drawn and assembled, then truncated to the requested
count.  Repeat runs therefore give identical bits, and a longer run extends
a shorter one.  ``sample_chunks`` is the only sampler: every draw, whatever
its support, goes through the chunk above.  It draws the chunks one at a
time, in order, on the calling thread, and ``sample_riesz`` has the same
chunks drawn in place into one batch.  Both accept a ``workers`` count for
compatibility; it changes neither the bits nor the speed.

The writers (``write_ndjson``, ``write_json``, ``write_csv``) consume the
chunks as they come, so a run of any length holds O(CHUNK * r^2) floats.
Each draw's distinct entries (its packed upper triangle) are formatted once
with ``repr``, and the mirrored lower triangle reuses those strings, which
is exact because draws are symmetric bit for bit.  The bytes written
therefore depend on the spec alone.  A non-finite entry is never a correct
draw: the writers raise ``SamplerError`` on the first chunk that holds one.

The per-run constants (Cholesky factors and coupling map, ``_BlockPlan``)
are derived from the tilt once, when a ``RieszSpec`` is constructed, so a
tilt the sampler cannot factor, or whose draws would overflow, is rejected
there and never mid-run.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass, field

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
CHUNK = 512  # draws per counter-based stream in sample_riesz
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
    """The parameter is admissible but outside the sampled family (d != 1)."""


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def sample_stream(seed: int, index: int) -> np.random.Generator:
    """Counter-based stream: Philox keyed by (seed, index).

    Both must lie in [0, 2**64).  ``sample_riesz`` keys one stream per chunk
    of ``CHUNK`` draws, with the chunk number as the index.
    """
    key = np.array([seed, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def sample_gamma(shape: float, rng: np.random.Generator, size=None):
    """Gamma(shape, scale=1) variates, exact for every positive shape.

    Shapes below 1 are drawn as Gamma(shape + 1) * U^(1/shape), which keeps
    the generator's gamma method out of its rejection-heavy small-shape
    regime and costs exactly two stream draws per variate (a gamma draw of
    ``size``, then a uniform draw of ``size``).  With ``size`` None the
    result is one float, otherwise an array of that shape.
    """
    if not shape > 0:
        raise SamplerError(f"gamma shape must be positive, got {shape}")
    if shape < 1.0:
        g = rng.gamma(shape + 1.0, size=size)
        u = rng.random(size)
        x = g * u ** (1.0 / shape)
    else:
        x = rng.gamma(shape, size=size)
    return float(x) if size is None else x


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


def _gamma_shapes(u_block, u_run) -> np.ndarray:
    """Gamma shapes u_p of a run's triangular diagonal, bit-stable.

    The shapes are computed as (u_p + t/2) - t/2 from the run's block
    parameter, t being p's position in the run, so they keep a relative
    error of about 1e-16 * t / u_p.  That rounding fixes the sampler's bits,
    so it stays; only where it gives a shape <= 0 (u_p below about 1e-16 t)
    is u_p itself, which is positive in a run, used instead.
    """
    shapes = np.asarray(u_block) - 0.5 * np.arange(len(u_block))
    return np.where(shapes > 0.0, shapes, np.asarray(u_run))


@dataclass(frozen=True)
class _BlockPlan:
    """Per-run constants derived from the tilt (fixed across samples)."""

    start: int
    width: int
    tail: int
    shapes: np.ndarray       # gamma shapes for the triangular diagonal
    core_chol: np.ndarray    # C with C C^T = (-eta)^{-1}
    coupling: np.ndarray     # Theta_12 (-Theta_0)^{-1}, shape (width, tail)
    noise_chol: np.ndarray   # L with L L^T = (1/2)(-Theta_0)^{-1}

    @property
    def n_tri(self) -> int:
        return self.width * (self.width - 1) // 2


def _plan_block(theta_dense: np.ndarray, start: int, width: int,
                shapes: np.ndarray) -> _BlockPlan:
    r = theta_dense.shape[0]
    m = r - start
    tail = m - width
    sub = theta_dense[start:, start:]
    t1 = sub[:width, :width]
    if tail > 0:
        t12 = sub[:width, width:]
        neg_t0_inv = _neg_inverse(sub[width:, width:], "trailing tilt block")
        eta = t1 + t12 @ neg_t0_inv @ t12.T  # Schur complement t1 - t12 t0^{-1} t12^T
        coupling = t12 @ neg_t0_inv
        noise_chol = np.linalg.cholesky(0.5 * neg_t0_inv)
    else:
        eta = t1
        coupling = np.zeros((width, 0))
        noise_chol = np.zeros((0, 0))
    core_chol = np.linalg.cholesky(_neg_inverse(eta, "tilt Schur complement"))
    _check_draw_scale(core_chol, coupling, noise_chol, shapes)
    return _BlockPlan(start, width, tail, shapes, core_chol, coupling, noise_chol)


def _check_draw_scale(core_chol, coupling, noise_chol, shapes) -> None:
    """Raise TiltError if the run's draw scale times ``DRAW_HEADROOM`` passes the largest float.

    The scale is the largest diagonal entry of the run's mean draw
    E[M M^T] = [[A, A K], [K^T A, K^T A K + w L L^T]], A = C D C^T, with
    D = E[T T^T] = diag(shape_p + p/2) and each shape raised to at least 1, so
    that the rare large variate of a small shape stays covered.
    """
    spread = np.maximum(shapes, 1.0) + 0.5 * np.arange(len(shapes))
    with np.errstate(over="ignore", invalid="ignore"):
        core = (core_chol * spread) @ core_chol.T
        tail = coupling.T @ core @ coupling + len(shapes) * noise_chol @ noise_chol.T
        scale = np.concatenate([np.diagonal(core), np.diagonal(tail)]).max()  # NaN refuses
    if not scale <= np.finfo(float).max / DRAW_HEADROOM:
        raise TiltError(
            f"tilt is too small for its draws: their scale {scale:.3e} times "
            f"the headroom {DRAW_HEADROOM:g} passes the largest float")


@functools.lru_cache(maxsize=None)
def _strict_triangle(n: int, lower: bool):
    """Read-only ``np.tril_indices(n, -1)`` (lower) or ``np.triu_indices(n, 1)``,
    computed once per size: each call costs about 25 us, a chunk needs three."""
    pair = np.tril_indices(n, -1) if lower else np.triu_indices(n, 1)
    for index in pair:
        index.flags.writeable = False
    return pair


def _draw_block(plan: _BlockPlan, rng: np.random.Generator, size: int):
    """Raw stream draws for ``size`` samples of one run, in the pinned order."""
    g = np.stack([sample_gamma(s, rng, size) for s in plan.shapes], axis=-1)
    o = rng.standard_normal((size, plan.n_tri))
    z = rng.standard_normal((size, plan.tail, plan.width))
    return g, o, z


def _gram_factor(plan: _BlockPlan, g, o, z) -> np.ndarray:
    """Stack of factors M = [W; K^T W + L Z] of one run, shape (n, m, width).

    W = C T is the Bartlett factor of the core, so M M^T is the run's draw on
    the trailing block of size m = width + tail (see the module docstring).
    """
    n, w = g.shape
    t = np.zeros((n, w, w))
    diag = np.arange(w)
    t[:, diag, diag] = np.sqrt(g)
    if w > 1:
        rows, cols = _strict_triangle(w, lower=True)
        t[:, rows, cols] = o * np.sqrt(0.5)
    m = np.empty((n, w + plan.tail, w))
    m[:, :w] = plan.core_chol @ t
    if plan.tail:
        m[:, w:] = plan.coupling.T @ m[:, :w] + plan.noise_chol @ z
    return m


def _draw_sum(plans, rng: np.random.Generator, out: np.ndarray) -> None:
    """Fill ``out`` (size, r, r) with draws of the sum of the runs' factors."""
    out[...] = 0.0
    for plan in plans:
        m = _gram_factor(plan, *_draw_block(plan, rng, len(out)))
        # Keep the copy of M^T: given M and a view of its own transpose,
        # numpy calls syrk once per draw, about 4x slower here than the one
        # gemm that the copy gets.  Both sum each entry's w products in the
        # same order, so the draws keep their bits (a test pins this).
        out[:, plan.start:, plan.start:] += m @ np.ascontiguousarray(np.swapaxes(m, -1, -2))
    # M M^T is symmetric in exact arithmetic, but nothing obliges a BLAS
    # product to round both triangles alike; mirroring the upper triangle
    # makes every stored draw symmetric bit for bit
    rows, cols = _strict_triangle(out.shape[-1], lower=False)
    out[:, cols, rows] = out[:, rows, cols]


# -- batched sampling -------------------------------------------------------


@dataclass(frozen=True)
class RieszSpec:
    """A fully validated sampling request.

    ``param`` must be admissible with multiplicity d = 1; ``theta`` must be
    negative definite with margin (smallest eigenvalue of -theta above
    1e-10 times the Frobenius norm); ``count`` is the number of samples and
    ``seed``, in [0, 2**64), keys every per-chunk stream.  Construction also
    derives ``plans``, the per-run sampling constants, so every tilt error
    surfaces here.
    """

    param: GindikinParam
    theta: SymElement
    seed: int = 0
    count: int = 1
    plans: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.param.d != 1.0:
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
        part = self.partition
        object.__setattr__(self, "plans", tuple(
            _plan_block(self.theta.matrix, start, width,
                        _gamma_shapes(ub, self.param.u[start:start + width]))
            for start, width, ub in zip(part.starts, part.lengths, part.u_blocks)
        ))

    @property
    def partition(self) -> BlockPartition:
        return build_partition(self.param)

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
        when they name the same parameter and refused otherwise.  A "theta"
        that is not a finite symmetric matrix object is a ``TiltError``.
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
        return cls.build(
            s=s,
            u=u,
            theta=theta,
            seed=obj.get("seed", 0),
            count=obj.get("n", 1),
            d=d,
        )


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
    construction: what is derived from a batch, such as the support verdicts
    of ``verify``, may be kept while the batch lives.
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
    if not isinstance(workers, int) or workers < 1:
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


def log_density_ac(s, x: SymElement) -> float:
    """Log density of the untilted measure at x, absolutely continuous case.

    Defined only when every recovered u coordinate is strictly positive
    (equivalently s_p > (p-1)/2 for all p); the value is
    log Delta_{s - (r+1)/2}(x) - log Gamma_Omega(s) for x in the open cone.
    """
    x_r = x.r
    param = u_from_s(s, d=1.0)
    if param.r != x_r:
        raise SamplerError(f"parameter length {param.r} does not match rank {x_r}")
    if param.rank_support != param.r:
        raise SamplerError(
            "parameter is singular (some u_p = 0): no Lebesgue density exists"
        )
    shift = np.asarray(param.s) - 0.5 * (x_r + 1)
    try:
        log_power = algebra.log_generalized_power(x, shift)
    except algebra.PowerDomainError:
        raise SamplerError("x is not in the open cone (nonpositive leading minor)") from None
    return log_power - log_gamma_omega(param.s, x_r, 1.0)


def _header(spec: RieszSpec) -> dict:
    return {"spec": spec.to_json_dict(), "partition": spec.partition.to_json_dict()}


def _draw_template(r: int, dumps) -> str:
    """``dumps`` of an r x r draw, as a ``str.format`` template.

    Field k stands for the k-th entry of the packed upper triangle, and the
    mirrored lower triangle names the same fields, so each distinct entry is
    formatted once (draws are symmetric bit for bit).
    """
    rows, cols = np.triu_indices(r)
    field = {(int(i), int(j)): k for k, (i, j) in enumerate(zip(rows, cols))}
    marks = [[f"@{field[min(i, j), max(i, j)]}@" for j in range(r)] for i in range(r)]
    text = dumps({"r": r, "data": marks}).replace("{", "{{").replace("}", "}}")
    for k in range(len(field)):
        text = text.replace(f'"@{k}@"', f"{{{k}}}")
    return text


def _write_chunks(fp, head: str, chunks, r: int, line: str, sep: str, tail: str) -> None:
    """Write ``head``, each draw as ``line`` over its packed entries, ``tail``.

    Draws are joined by ``sep``; each chunk is formatted in one pass, with
    one ``repr`` per distinct entry, and written in one call.  A non-finite
    entry is never a correct draw, so it raises ``SamplerError``.
    """
    rows, cols = np.triu_indices(r)
    fmt = line.format
    fp.write(head)
    lead, done = "", 0
    for chunk in chunks:
        packed = chunk[:, rows, cols]
        finite = np.isfinite(packed).all(axis=1)
        if not finite.all():
            raise SamplerError(f"draw {done + int(np.argmin(finite))} has a non-finite entry")
        # float.__repr__ is what repr() and json.dumps call for a float
        fp.write(lead + sep.join([fmt(*map(float.__repr__, row)) for row in packed.tolist()]))
        lead = sep
        done += len(packed)
    fp.write(tail)


def write_ndjson(spec: RieszSpec, chunks, fp) -> None:
    """Header line (spec + partition echo) then one JSON matrix per line."""
    compact = functools.partial(json.dumps, separators=(",", ":"))
    r = spec.param.r
    _write_chunks(fp, compact(_header(spec)) + "\n", chunks, r,
                  _draw_template(r, compact) + "\n", "", "")


def write_json(spec: RieszSpec, chunks, fp) -> None:
    """One indented JSON document: the header's fields plus ``"samples"``."""
    head, tail = json.dumps(dict(_header(spec), samples=["@S@"]), indent=2).split('"@S@"')
    r = spec.param.r
    line = _draw_template(r, functools.partial(json.dumps, indent=2)).replace("\n", "\n    ")
    _write_chunks(fp, head, chunks, r, line, ",\n    ", tail + "\n")


def write_csv(spec: RieszSpec, chunks, fp) -> None:
    """Header row ``x_i_j`` then each draw's packed upper triangle as repr floats."""
    r = spec.param.r
    rows, cols = np.triu_indices(r)
    head = ",".join(f"x_{i + 1}_{j + 1}" for i, j in zip(rows, cols)) + "\n"
    line = ",".join(f"{{{k}}}" for k in range(len(rows))) + "\n"
    _write_chunks(fp, head, chunks, r, line, "", "")
