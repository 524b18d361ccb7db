"""Euclidean Jordan algebra machinery for real symmetric matrices.

The ambient space is Sym(r, R) with the symmetrized product
``x o y = (xy + yx) / 2`` and the trace inner product ``<x, y> = tr(xy)``.
The package needs only a few primitives on it: validated symmetric matrices
that are symmetric bit for bit, the LAPACK eigenvalues that decide whether
a tilt is negative definite, and the hand-rolled leading principal
minors with the log generalized power that the closed-form transforms use.

The diagonal Jordan frame c_1, ..., c_r (standard basis projectors, in index
order) is fixed once and for all; every "leading block" below is leading with
respect to that frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "AlgebraError",
    "ShapeMismatchError",
    "NotSymmetricError",
    "PowerDomainError",
    "SymElement",
    "spectral",
    "require_negative_definite",
    "minors",
    "log_generalized_power",
]

SYMMETRY_TOL = 1e-12


class AlgebraError(ValueError):
    """Base class for algebra-level failures."""


class ShapeMismatchError(AlgebraError):
    pass


class NotSymmetricError(AlgebraError):
    pass


class PowerDomainError(AlgebraError):
    """Log generalized power requested where a minor it needs is not positive."""


@lru_cache(maxsize=None)
def _strict_lower(r: int) -> np.ndarray:
    """Read-only boolean mask of the entries below the diagonal, r x r."""
    mask = np.tri(r, r, -1, dtype=bool)
    mask.flags.writeable = False
    return mask


@dataclass(frozen=True, eq=False)
class SymElement:
    """A symmetric r x r matrix, held as one read-only float array.

    The constructor keeps the upper triangle of the square array it is given
    and mirrors it into the lower one, so the (i, j) and (j, i) entries of
    ``matrix`` are literally the same float; it does not check symmetry.  Use
    ``from_dense`` to validate and ingest an arbitrary square array and
    ``dense`` for a writable copy.
    """

    matrix: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.matrix, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ShapeMismatchError(f"expected a square matrix, got shape {a.shape}")
        m = np.where(_strict_lower(a.shape[0]), a.T, a)
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    # -- construction --------------------------------------------------

    @staticmethod
    def from_dense(arr) -> "SymElement":
        a = np.asarray(arr, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ShapeMismatchError(f"expected a square matrix, got shape {a.shape}")
        if a.size == 0:
            raise AlgebraError("rank must be a positive integer, got 0")
        if not np.all(np.isfinite(a)):
            raise AlgebraError("matrix entries must be finite")
        asym = np.max(np.abs(a - a.T))
        if asym > SYMMETRY_TOL:
            raise NotSymmetricError(
                f"matrix is not symmetric: max |a - a^T| = {asym:.3e} > {SYMMETRY_TOL:.1e}"
            )
        return SymElement(a)

    @staticmethod
    def from_json_dict(obj) -> "SymElement":
        if not isinstance(obj, dict) or "r" not in obj or "data" not in obj:
            raise AlgebraError('expected an object {"r": int, "data": [[...], ...]}')
        r = obj["r"]
        data = np.asarray(obj["data"], dtype=float)
        if not isinstance(r, int) or data.shape != (r, r):
            raise ShapeMismatchError(
                f'"data" must be an {r} x {r} array, got shape {data.shape}'
            )
        return SymElement.from_dense(data)

    # -- views ----------------------------------------------------------

    @property
    def r(self) -> int:
        return self.matrix.shape[0]

    def dense(self) -> np.ndarray:
        """A fresh, writable copy of the matrix."""
        return self.matrix.copy()

    def to_json_dict(self) -> dict:
        return {"r": self.r, "data": self.matrix.tolist()}

    def norm(self) -> float:
        """Frobenius norm (induced by the trace inner product).

        ``np.linalg.norm`` squares the entries, so it overflows to inf from
        about 1e154 and underflows to 0 below about 1e-162; only then is the
        norm taken again by ``math.hypot``, which scales, so every positive
        finite value keeps its bits.
        """
        with np.errstate(over="ignore"):
            norm = float(np.linalg.norm(self.matrix))
        return norm if 0.0 < norm < math.inf else math.hypot(*self.matrix.ravel().tolist())

    def __repr__(self):
        return f"SymElement(r={self.r}, data={self.matrix.tolist()})"


# -- eigenvalues -------------------------------------------------------------


def spectral(x: SymElement) -> np.ndarray:
    """Eigenvalues of x in descending order (LAPACK ``eigvalsh``)."""
    return np.linalg.eigvalsh(x.matrix)[::-1]


def require_negative_definite(x: SymElement, error: type, what: str,
                              margin: float = 0.0) -> None:
    """Raise ``error`` unless -x is positive definite with relative margin.

    The largest eigenvalue of x must lie strictly below ``-margin`` times
    the Frobenius norm of x, so the zero element never passes.  This is the
    one place that decides whether a whole tilt is admissible; each caller
    names the error type its own callers expect.
    """
    top = float(spectral(x)[0])
    bound = -margin * x.norm()
    if not top < bound:
        raise error(
            f"{what} must be negative definite: largest eigenvalue {top:.3e} "
            f"is not below {bound:.3e} (relative margin {margin:g})"
        )


# -- minors and the generalized power ---------------------------------------


def minors(x) -> np.ndarray:
    """All leading principal minors (Delta_1(x), ..., Delta_r(x)).

    ``x`` is a ``SymElement``, giving an ``(r,)`` array, or an ``(n, r, r)``
    stack, giving ``(n, r)``.  A stack first gets its upper triangle mirrored
    into the lower one, as ``SymElement`` does, so both kinds go through the
    same code: a ``SymElement`` is a stack of one.

    One pass of symmetric Gaussian elimination, vectorized over the stack:
    the k-th pivot equals Delta_k / Delta_{k-1}, and the pivots stay on the
    diagonal, so their running product yields every minor.  If a matrix's
    pivot is exactly zero the recursion is undefined past it, and that
    matrix's remaining minors fall back to direct determinants of its
    leading blocks; the other matrices are unaffected.
    """
    single = isinstance(x, SymElement)
    if single:
        sym = x.matrix[None]
    else:
        stack = np.asarray(x, dtype=float)
        if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
            raise ShapeMismatchError(
                f"expected an (n, r, r) stack, got shape {stack.shape}")
        sym = np.where(_strict_lower(stack.shape[1]), np.swapaxes(stack, 1, 2), stack)
    n, r = sym.shape[:2]
    a = sym.copy()
    fallback_from = None
    for k in range(r - 1):
        piv = a[:, k, k]
        if not piv.all():
            # a matrix that falls back keeps its zero pivot and takes no
            # further part: its trailing block becomes the identity, which
            # eliminates to itself, and its minors past this one are
            # overwritten below
            hit = piv == 0.0
            if fallback_from is None:
                fallback_from = np.full(n, r)
            fallback_from[hit] = k + 1
            a[hit, k + 1:, k] = 0.0
            a[hit, k + 1:, k + 1:] = np.eye(r - k - 1)
            piv = np.where(hit, 1.0, piv)
        a[:, k + 1:, k + 1:] -= (a[:, k + 1:, k, None] * a[:, None, k, k + 1:]
                                 / piv[:, None, None])
    out = np.cumprod(np.diagonal(a, axis1=1, axis2=2), axis=1)
    if fallback_from is not None:
        for k in range(int(fallback_from.min()), r):
            rows = np.flatnonzero(fallback_from <= k)
            out[rows, k] = np.linalg.det(sym[rows, : k + 1, : k + 1])
    return out[0] if single else out


def log_generalized_power(x: SymElement, s) -> float:
    """log Delta_s(x) = sum_k (s_k - s_{k+1}) log Delta_k(x), with s_{r+1} = 0.

    ``PowerDomainError`` unless every minor with a nonzero exponent is positive.
    The minors are products, so at an extreme scale of x one of them can
    underflow to 0 or overflow.  Only then are they taken of c x instead,
    with c the power of two that brings x's largest entry into [1/2, 1), so
    the scaling is exact, and log Delta_s(x) = log Delta_s(c x) - (sum_k s_k)
    log c.
    """
    r = x.r
    s = np.asarray(s, dtype=float)
    if s.shape != (r,):
        raise ShapeMismatchError(f"power parameter must have length {r}, got {s.shape}")
    e = np.append(s[:-1] - s[1:], s[-1])
    with np.errstate(over="ignore", invalid="ignore"):
        m = minors(x)
    log_c = 0.0
    needed = m[e != 0.0]
    if not (np.isfinite(needed) & (needed != 0.0)).all():
        top = math.frexp(float(np.max(np.abs(x.matrix))))[1]
        m = minors(SymElement(np.ldexp(x.matrix, -top)))
        log_c = -top * math.log(2.0)
    out = 0.0
    for k in range(r):
        if e[k] == 0.0:
            continue
        if m[k] <= 0.0:
            raise PowerDomainError(
                f"minor Delta_{k + 1} = {m[k]:.6e} must be positive for a log power"
            )
        out += e[k] * math.log(m[k])
    return out - float(s.sum()) * log_c
