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
count.  Repeat runs and any worker count therefore give identical bits, and
a longer run extends a shorter one.  ``sample_riesz`` is the only sampler:
every draw, whatever its support, goes through the chunk above.

The per-run constants (Cholesky factors and coupling map, ``_BlockPlan``)
are derived from the tilt once, when a ``RieszSpec`` is constructed, so a
tilt the sampler cannot factor is rejected there and never mid-run.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import algebra
from .algebra import AlgebraShape, SymElement
from .gindikin import BlockPartition, GindikinParam, build_partition, param_from_u, u_from_s

__all__ = [
    "CHUNK",
    "SamplerError",
    "TiltError",
    "NonSamplableError",
    "RieszSpec",
    "SampleBatch",
    "sample_stream",
    "sample_gamma",
    "sample_riesz",
    "log_density_ac",
    "write_ndjson",
]

TILT_MARGIN = 1e-10
CHUNK = 512  # draws per counter-based stream in sample_riesz


class SamplerError(ValueError):
    pass


class TiltError(SamplerError):
    """The tilt matrix is not negative definite (with margin)."""


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
    """Symmetrized (-a)^{-1}; raises TiltError unless Cholesky accepts -a."""
    try:
        np.linalg.cholesky(-a)
        inv = np.linalg.inv(-a)
    except np.linalg.LinAlgError as err:
        raise TiltError(f"{what} is not negative definite") from err
    return 0.5 * (inv + inv.T)


def _gamma_shapes(u_block: np.ndarray) -> np.ndarray:
    shapes = u_block - 0.5 * np.arange(len(u_block))
    if np.any(shapes <= 0):
        bad = int(np.argmax(shapes <= 0))
        raise SamplerError(
            f"core parameter u_{bad + 1} = {u_block[bad]} violates "
            f"u_p > (p-1)/2 (gamma shape {shapes[bad]:.6g})"
        )
    return shapes


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
                u_block: np.ndarray) -> _BlockPlan:
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
    return _BlockPlan(start, width, tail, _gamma_shapes(u_block),
                      core_chol, coupling, noise_chol)


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
        rows, cols = np.tril_indices(w, -1)
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
        out[:, plan.start:, plan.start:] += m @ np.swapaxes(m, -1, -2)
    # M M^T is symmetric in exact arithmetic, but nothing obliges a BLAS
    # product to round both triangles alike; mirroring the upper triangle
    # makes every stored draw symmetric bit for bit
    rows, cols = np.triu_indices(out.shape[-1], 1)
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
        if self.theta.shape.r != self.param.r:
            raise SamplerError(
                f"tilt rank {self.theta.shape.r} does not match parameter rank {self.param.r}"
            )
        algebra.require_negative_definite(self.theta, TiltError, "theta",
                                          margin=TILT_MARGIN)
        part = self.partition
        theta_dense = self.theta.dense()
        object.__setattr__(self, "plans", tuple(
            _plan_block(theta_dense, start, width, np.asarray(ub))
            for start, width, ub in zip(part.starts, part.lengths, part.u_blocks)
        ))

    @property
    def shape(self) -> AlgebraShape:
        return AlgebraShape(self.param.r, self.param.d)

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
        param = param_from_u(u, d) if u is not None else u_from_s(s, d, zero_tol)
        if theta is None:
            theta = SymElement._wrap(np.diag(np.full(param.r, -1.0)))
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

    @classmethod
    def from_json_dict(cls, obj: dict) -> "RieszSpec":
        if not isinstance(obj, dict) or "s" not in obj:
            raise SamplerError('spec JSON must be an object with at least "s"')
        theta = obj.get("theta")
        # seed and n go through unconverted, so that construction rejects
        # anything but a JSON integer instead of truncating it
        return cls.build(
            s=obj["s"],
            theta=None if theta is None else SymElement.from_json_dict(theta),
            seed=obj.get("seed", 0),
            count=obj.get("n", 1),
            d=float(obj.get("d", 1.0)),
        )


class SampleBatch:
    """The ``spec.count`` draws of a spec, stacked in draw order.

    Draw i came from the stream of chunk ``i // CHUNK``.
    """

    def __init__(self, spec: RieszSpec, matrices: np.ndarray):
        if matrices.shape != (spec.count, spec.param.r, spec.param.r):
            raise SamplerError(f"matrix stack has shape {matrices.shape}")
        self.spec = spec
        self.matrices = matrices

    def __len__(self) -> int:
        return self.matrices.shape[0]

    def element(self, i: int) -> SymElement:
        return SymElement._wrap(self.matrices[i])

    def elements(self):
        for i in range(len(self)):
            yield self.element(i)

    def packed(self) -> np.ndarray:
        """Packed upper triangles, shape (count, r(r+1)/2), row-major."""
        r = self.spec.param.r
        rows, cols = np.triu_indices(r)
        return self.matrices[:, rows, cols]

    def mean(self) -> np.ndarray:
        return self.matrices.mean(axis=0)


def sample_riesz(spec: RieszSpec, workers: int = 1) -> SampleBatch:
    """Draw ``spec.count`` independent samples of the tilted Riesz law.

    Draws are made a chunk of ``CHUNK`` at a time, each chunk from its own
    stream keyed by (seed, chunk number); the last chunk is drawn in full
    and truncated.  ``workers`` threads share out the chunks.  The result is
    bitwise independent of the worker count, and a longer run extends a
    shorter one (see the module's determinism contract).
    """
    if not isinstance(workers, int) or workers < 1:
        raise SamplerError(f"workers must be a positive integer, got {workers!r}")
    n = spec.count
    r = spec.param.r
    if not spec.plans:
        return SampleBatch(spec, np.zeros((n, r, r)))
    # whole chunks, each assembled in place; the batch keeps the first n rows
    n_chunks = -(-n // CHUNK)
    out = np.empty((n_chunks * CHUNK, r, r))

    def fill(c: int):
        _draw_sum(spec.plans, sample_stream(spec.seed, c), out[c * CHUNK:(c + 1) * CHUNK])

    if workers == 1 or n_chunks == 1:
        for c in range(n_chunks):
            fill(c)
    else:
        with ThreadPoolExecutor(max_workers=min(workers, n_chunks)) as pool:
            list(pool.map(fill, range(n_chunks)))
    return SampleBatch(spec, out[:n])


# -- densities and serialization -------------------------------------------


def log_density_ac(s, x: SymElement) -> float:
    """Log density of the untilted measure at x, absolutely continuous case.

    Defined only when every recovered u coordinate is strictly positive
    (equivalently s_p > (p-1)/2 for all p); the value is
    log Delta_{s - (r+1)/2}(x) - log Gamma_Omega(s) for x in the open cone.
    """
    x_r = x.shape.r
    param = u_from_s(s, d=1.0)
    if param.r != x_r:
        raise SamplerError(f"parameter length {param.r} does not match rank {x_r}")
    if param.rank_support != param.r:
        raise SamplerError(
            "parameter is singular (some u_p = 0): no Lebesgue density exists"
        )
    from .gindikin import log_gamma_omega

    # positive leading minors characterize the open cone; the generalized
    # power alone would not notice a negative trailing block whenever its
    # exponent lands on zero
    if np.min(algebra.minors(x)) <= 0.0:
        raise SamplerError("x is not in the open cone (nonpositive leading minor)")
    shift = np.asarray(param.s) - 0.5 * (x_r + 1)
    try:
        log_power = algebra.log_generalized_power(x, shift)
    except algebra.PowerDomainError as err:
        raise SamplerError(f"x is not in the open cone: {err}") from err
    return log_power - log_gamma_omega(param.s, x_r, 1.0)


def write_ndjson(batch: SampleBatch, fp) -> None:
    """Header line (spec + partition echo) then one JSON matrix per line."""
    header = {
        "spec": batch.spec.to_json_dict(),
        "partition": batch.spec.partition.to_json_dict(),
    }
    fp.write(json.dumps(header, separators=(",", ":")) + "\n")
    for el in batch.elements():
        fp.write(json.dumps(el.to_json_dict(), separators=(",", ":")) + "\n")
