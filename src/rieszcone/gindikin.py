"""Admissible-parameter arithmetic for Riesz measures on the symmetric cone.

A parameter vector s of length r is admissible exactly when the recursion

    u_1 = s_1,        u_i = s_i - (d/2) * #{ m < i : u_m > 0 }

recovers nonnegative u_i all the way down.  The u vector is the better
coordinate system: its support pattern cuts s into consecutive "blocks"
(maximal runs of nonzero u entries), and the measure with parameter s is the
convolution of one degenerate factor per block.  This module owns that
arithmetic: the s <-> u maps, the block partition bookkeeping, and the
log-scale cone gamma function that normalizes everything downstream.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

__all__ = [
    "GindikinError",
    "NotInGindikinSetError",
    "GammaPoleError",
    "GindikinParam",
    "BlockPartition",
    "s_from_u",
    "u_from_s",
    "param_from_u",
    "build_partition",
    "log_gamma_omega",
    "membership_report",
]


class GindikinError(ValueError):
    pass


class NotInGindikinSetError(GindikinError):
    """Raised when the recursion produces a negative u entry.

    ``index`` is the 1-based position of the first offending entry and
    ``value`` the recovered (negative) u value there.
    """

    def __init__(self, index: int, value: float, s):
        self.index = index
        self.value = value
        self.s = tuple(float(t) for t in s)
        super().__init__(
            f"s = {list(self.s)} is not admissible: recovered u_{index} = {value:.6g} < 0"
        )


class GammaPoleError(GindikinError):
    pass


def _as_float_vector(x, name: str) -> list:
    """``x`` as a nonempty list of finite Python floats.

    The recursions below run on Python floats: on 1 to 8 entries, numpy's
    per-call and per-scalar costs outweigh the arithmetic.
    """
    try:
        arr = np.asarray(x, dtype=float)
    except TypeError as err:
        raise GindikinError(f"{name} must be a sequence of numbers: {err}") from None
    if arr.ndim != 1 or arr.size == 0:
        raise GindikinError(f"{name} must be a nonempty 1-d sequence, got shape {arr.shape}")
    values = arr.tolist()
    if not all(map(math.isfinite, values)):
        raise GindikinError(f"{name} must be finite")
    return values


def _check_d(d: float):
    if not (math.isfinite(d) and d > 0):
        raise GindikinError(f"multiplicity d must be a positive real, got {d!r}")


def _check_zero_tol(zero_tol: float):
    if not zero_tol >= 0:  # NaN too: it would snap nothing and pass as 0
        raise GindikinError(f"zero_tol must be nonnegative, got {zero_tol}")


def s_from_u(u, d: float = 1.0) -> np.ndarray:
    """Forward map: s_i = u_i + (d/2) * (number of positive u before i)."""
    uu = _as_float_vector(u, "u")
    _check_d(d)
    half_d = 0.5 * float(d)
    s = []
    count = 0
    for i, ui in enumerate(uu):
        if ui < 0:
            raise GindikinError(f"u must be nonnegative, got u_{i + 1} = {ui}")
        s.append(ui + half_d * count)
        if ui > 0:
            count += 1
    return np.array(s)


class GindikinParam(NamedTuple):
    """An admissible parameter: s and its recovered u coordinates, of one law.

    A named tuple, immutable like every record here: an oracle builds
    thousands of them, and a tuple costs a quarter of a frozen dataclass.
    """

    r: int
    d: float
    s: tuple
    u: tuple

    @property
    def samplable(self) -> bool:
        """Only multiplicity d = 1 (real symmetric matrices) is sampled here."""
        return self.d == 1.0

    @property
    def rank_support(self) -> int:
        """Number of nonzero u entries = rank of a draw from the measure."""
        return sum(1 for t in self.u if t != 0.0)


def u_from_s(s, d: float = 1.0, zero_tol: float = 0.0) -> GindikinParam:
    """Invert the recursion, rejecting s that leave the admissible set.

    Each recovered u_i with |u_i| <= zero_tol is snapped to exactly 0, and s_i
    with it to (d/2) #{m < i : u_m > 0}, before the positivity indicator is
    read, so s and u name the law drawn.  A u_i below -zero_tol raises
    ``NotInGindikinSetError`` naming the first 1-based index and the s given.
    """
    ss = _as_float_vector(s, "s")
    _check_d(d)
    _check_zero_tol(zero_tol)
    half_d = 0.5 * float(d)
    u = []
    count = 0
    for i, si in enumerate(ss):
        ui = si - half_d * count
        if abs(ui) <= zero_tol:
            if ui:
                ss[i] = half_d * count
            ui = 0.0
        if ui < 0:  # named by the s given, not by the one snapped so far
            raise NotInGindikinSetError(i + 1, ui, s)
        u.append(ui)
        if ui > 0:
            count += 1
    return GindikinParam(r=len(ss), d=float(d), s=tuple(ss), u=tuple(u))


def param_from_u(u, d: float = 1.0) -> GindikinParam:
    """Build an admissible parameter directly from nonnegative u."""
    ss = s_from_u(u, d)
    uu = _as_float_vector(u, "u")
    return GindikinParam(r=len(uu), d=float(d), s=tuple(ss.tolist()), u=tuple(uu))


class BlockPartition(NamedTuple):
    """Support-run decomposition of an admissible parameter, a named tuple.

    ``starts[l]`` counts the entries strictly before the (l+1)-th run of
    nonzero u values (so it is also the run's 0-based start index), and
    ``lengths[l]`` is the run length.  ``index_sets`` holds the 1-based
    positions inside each run; ``gap_sets`` the 1-based positions of the
    zero gaps around the runs (k+1 of them, first and last possibly empty).
    ``u_blocks[l]`` is the run's core parameter, u_p + (d/2)(p - start) for
    p in the run (length lengths[l]), and ``s_blocks[l]`` the length-r
    parameter of the run's degenerate factor; the s_blocks sum to s entry
    by entry.
    """

    param: GindikinParam
    k: int
    starts: tuple
    lengths: tuple
    u_blocks: tuple
    s_blocks: tuple

    @property
    def index_sets(self) -> tuple:
        return tuple(tuple(range(i + 1, i + j + 1))
                     for i, j in zip(self.starts, self.lengths))

    @property
    def gap_sets(self) -> tuple:
        ends = [0] + [i + j for i, j in zip(self.starts, self.lengths)]
        begins = list(self.starts) + [self.param.r]
        return tuple(tuple(range(e + 1, b + 1)) for e, b in zip(ends, begins))

    def to_json_dict(self) -> dict:
        return {
            "in_xi": True,
            "s": list(self.param.s),
            "u": list(self.param.u),
            "d": self.param.d,
            "k": self.k,
            "i": list(self.starts),
            "j": list(self.lengths),
            "I": [list(t) for t in self.index_sets],
            "I_prime": [list(t) for t in self.gap_sets],
            "u_blocks": [list(t) for t in self.u_blocks],
            "s_blocks": [list(t) for t in self.s_blocks],
        }


def build_partition(param: GindikinParam) -> BlockPartition:
    """Cut u into maximal nonzero runs and derive the per-run parameters."""
    u = param.u
    r, half_d = param.r, 0.5 * param.d
    starts, lengths, u_blocks, s_blocks = [], [], [], []
    p = 0
    while p < r:
        if u[p] == 0.0:
            p += 1
            continue
        ub = []
        q = p
        while q < r and u[q] != 0.0:
            ub.append(u[q] + half_d * (q - p))
            q += 1
        starts.append(p)
        lengths.append(q - p)
        u_blocks.append(tuple(ub))
        s_blocks.append(tuple([0.0] * p + ub + [half_d * (q - p)] * (r - q)))
        p = q
    return BlockPartition(
        param=param,
        k=len(starts),
        starts=tuple(starts),
        lengths=tuple(lengths),
        u_blocks=tuple(u_blocks),
        s_blocks=tuple(s_blocks),
    )


def log_gamma_omega(s, *, d: float = 1.0) -> float:
    """Log of the cone gamma integral at parameter s, of rank r = len(s).

    log Gamma(s) = ((n - r)/2) log(2 pi) + sum_j log Gamma(s_j - (j-1) d/2)
    with n = r + (d/2) r (r-1).  Raises ``GammaPoleError`` whenever any
    shifted argument s_j - (j-1) d/2 is nonpositive (a pole of the integral),
    and ``GindikinError`` when the log is past the largest float.
    """
    ss = _as_float_vector(s, "s")
    _check_d(d)
    r = len(ss)
    args = np.asarray(ss) - 0.5 * d * np.arange(r)
    if np.any(args <= 0):
        bad = int(np.argmax(args <= 0))
        raise GammaPoleError(
            f"gamma argument s_{bad + 1} - {bad}*d/2 = {args[bad]:.6g} is not positive"
        )
    half_dim = 0.25 * d * r * (r - 1)  # (n - r) / 2
    try:
        value = half_dim * math.log(2.0 * math.pi) + sum(math.lgamma(a) for a in args)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise GindikinError(f"log Gamma_Omega(s) is past the largest float for s = {ss}")
    return value


def membership_report(s=None, u=None, d: float = 1.0, zero_tol: float = 0.0) -> dict:
    """Full membership verdict as a JSON-ready dict.

    Give exactly one of s or u.  On acceptance the report carries the law's
    coordinates (s as ``zero_tol`` snapped it) and its block partition; on
    rejection, in_xi = false, the s given and the first offending index.
    """
    if (s is None) == (u is None):
        raise GindikinError("give exactly one of s or u")
    _check_zero_tol(zero_tol)
    if u is not None:
        param = param_from_u(u, d)
    else:
        try:
            param = u_from_s(s, d, zero_tol)
        except NotInGindikinSetError as err:
            return {
                "in_xi": False,
                "s": list(err.s),
                "d": float(d),
                "first_bad_index": err.index,
                "recovered_value": err.value,
            }
    report = build_partition(param).to_json_dict()
    report["samplable"] = param.samplable
    return report
