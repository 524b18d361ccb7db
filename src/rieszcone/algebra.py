"""Euclidean Jordan algebra machinery for real symmetric matrices.

The ambient space is Sym(r, R) with the symmetrized product
``x o y = (xy + yx) / 2`` and the trace inner product ``<x, y> = tr(xy)``.
The package needs only a few primitives on it: validated symmetric matrices
that are symmetric bit for bit, one LAPACK eigendecomposition that decides
whether a tilt is negative definite, and the hand-rolled leading principal
minors and generalized power functions that the closed-form transforms use.

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
    "SpectralDecomp",
    "spectral",
    "require_negative_definite",
    "minors",
    "generalized_power",
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
    """Generalized power requested outside its real-valued domain."""


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
        """Frobenius norm (induced by the trace inner product)."""
        return float(np.linalg.norm(self.matrix))

    def __repr__(self):
        return f"SymElement(r={self.r}, data={self.matrix.tolist()})"


# -- spectral decomposition ------------------------------------------------


@dataclass(frozen=True)
class SpectralDecomp:
    """Eigenvalues in descending order with matching orthonormal columns."""

    eigenvalues: np.ndarray
    basis: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.basis * self.eigenvalues) @ self.basis.T


def spectral(x: SymElement) -> SpectralDecomp:
    """Full eigendecomposition (LAPACK ``eigh``), eigenvalues descending."""
    evals, vecs = np.linalg.eigh(x.matrix)
    return SpectralDecomp(evals[::-1], vecs[:, ::-1])


def require_negative_definite(x: SymElement, error: type, what: str,
                              margin: float = 0.0) -> None:
    """Raise ``error`` unless -x is positive definite with relative margin.

    The largest eigenvalue of x must lie strictly below ``-margin`` times
    the Frobenius norm of x, so the zero element never passes.  This is the
    one place that decides whether a whole tilt is admissible; each caller
    names the error type its own callers expect.
    """
    top = float(spectral(x).eigenvalues[0])
    bound = -margin * x.norm()
    if not top < bound:
        raise error(
            f"{what} must be negative definite: largest eigenvalue {top:.3e} "
            f"is not below {bound:.3e} (relative margin {margin:g})"
        )


# -- minors and power functions --------------------------------------------


def minors(x: SymElement) -> np.ndarray:
    """All leading principal minors (Delta_1(x), ..., Delta_r(x)).

    One pass of symmetric Gaussian elimination: the k-th pivot equals
    Delta_k / Delta_{k-1}, so the running pivot product yields every minor.
    If a pivot is exactly zero the recursion is undefined past it and the
    remaining minors fall back to direct determinants of the leading blocks.
    """
    r = x.r
    a = x.dense()
    out = np.empty(r)
    prefix = 1.0
    fallback_from = None
    for k in range(r):
        piv = a[k, k]
        prefix *= piv
        out[k] = prefix
        if k < r - 1:
            if piv == 0.0:
                fallback_from = k + 1
                break
            a[k + 1:, k + 1:] -= np.outer(a[k + 1:, k], a[k, k + 1:]) / piv
    if fallback_from is not None:
        d0 = x.matrix
        for k in range(fallback_from, r):
            out[k] = float(np.linalg.det(d0[: k + 1, : k + 1]))
    return out


def _power_exponents(s, r: int) -> np.ndarray:
    s = np.asarray(s, dtype=float)
    if s.shape != (r,):
        raise ShapeMismatchError(f"power parameter must have length {r}, got {s.shape}")
    e = np.empty(r)
    e[:-1] = s[:-1] - s[1:]
    e[-1] = s[-1]
    return e


def generalized_power(x: SymElement, s) -> float:
    """Generalized power Delta_s(x) = prod_k Delta_k(x)^(s_k - s_{k+1}).

    Positive minors go through logs; a nonpositive minor is only admissible
    when its exponent is a nonnegative integer (exact power), otherwise the
    value is not a real number and ``PowerDomainError`` is raised.
    """
    r = x.r
    e = _power_exponents(s, r)
    m = minors(x)
    log_acc = 0.0
    plain = 1.0
    for k in range(r):
        ek = e[k]
        if ek == 0.0:
            continue
        mk = m[k]
        if mk > 0.0:
            log_acc += ek * math.log(mk)
        elif ek >= 0.0 and float(ek).is_integer():
            plain *= mk ** int(ek)
        else:
            raise PowerDomainError(
                f"minor Delta_{k + 1} = {mk:.6e} is not positive and the "
                f"exponent {ek} is not a nonnegative integer"
            )
    return plain * math.exp(log_acc)


def log_generalized_power(x: SymElement, s) -> float:
    """log Delta_s(x) for x with positive leading minors wherever s matters."""
    r = x.r
    e = _power_exponents(s, r)
    m = minors(x)
    out = 0.0
    for k in range(r):
        if e[k] == 0.0:
            continue
        if m[k] <= 0.0:
            raise PowerDomainError(
                f"minor Delta_{k + 1} = {m[k]:.6e} must be positive for a log power"
            )
        out += e[k] * math.log(m[k])
    return out
