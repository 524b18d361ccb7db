"""Euclidean Jordan algebra machinery for real symmetric matrices.

The ambient space is Sym(r, R) with the symmetrized product
``x o y = (xy + yx) / 2`` and the trace inner product ``<x, y> = tr(xy)``.
The package needs only a few primitives on it: validated symmetric matrices
that are symmetric bit for bit, the LAPACK eigenvalues that decide whether
a tilt is negative definite, and one hand-rolled elimination whose pivots
give the log generalized power that the closed-form transforms use and,
stepping at a mask of indices, the support verdicts of ``verify``.

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
    """Outside the open cone: pivot ``pivot`` (from 1), the first not positive, is ``value``."""

    def __init__(self, pivot: int, value: float):
        super().__init__(f"pivot {pivot} is {value:.6e}: a log power needs every pivot positive")
        self.pivot, self.value = pivot, value


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
    ``from_dense`` to validate and ingest an arbitrary square array.
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
        if not isinstance(r, int) or isinstance(r, bool) or data.shape != (r, r):
            raise ShapeMismatchError(
                f'"r" must be an integer and "data" an r x r array, got r = {r!r} '
                f"and shape {data.shape}")
        return SymElement.from_dense(data)

    # -- views ----------------------------------------------------------

    @property
    def r(self) -> int:
        return self.matrix.shape[0]

    def to_json_dict(self) -> dict:
        return {"r": self.r, "data": self.matrix.tolist()}

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
    the Frobenius norm of x, ``math.hypot`` of its eigenvalues, which scales
    and so holds at any scale of x; the zero element never passes.  This is
    the one place that decides whether a whole tilt is admissible; each
    caller names the error type its own callers expect.
    """
    eigenvalues = spectral(x).tolist()
    top = eigenvalues[0]
    bound = -margin * math.hypot(*eigenvalues)
    if not top < bound:
        raise error(
            f"{what} must be negative definite: largest eigenvalue {top:.3e} "
            f"is not below {bound:.3e} (relative margin {margin:g})"
        )


# -- pivots and the generalized power ----------------------------------------


def _pivots(sym: np.ndarray, active=None):
    """Pivots p_k = Delta_k / Delta_{k-1} of every matrix in an (n, r, r) stack.

    One pass of symmetric Gaussian elimination over the stack held batch-last,
    dividing before multiplying, a_ij -= a_ik (a_kj / p_k): on a cone point no
    intermediate value exceeds sqrt(a_ii a_jj), at any scale.  A pivot that is exactly
    zero stays 0 and ends its matrix's elimination: every entry after it reads 0, as
    none of them is a pivot.  With a boolean mask ``active`` it steps at the active
    indices only; an inactive entry is the residual against them, and a zero pivot
    over a nonzero column, which no PSD matrix has, reads -inf.  Returns (n, r).
    """
    r = sym.shape[1]
    a = sym.transpose(1, 2, 0).copy()
    for k in range(r - 1) if active is None else np.flatnonzero(active[:r - 1]):
        piv = a[k, k]
        if not piv.all():
            hit = piv == 0.0
            if active is not None:
                a[k, k, hit & a[k + 1:, k].any(axis=0)] = -np.inf
            # the pivot's row, its column and the block after it, so all later entries read 0
            a[k, k + 1:, hit] = a[k + 1:, k:, hit] = 0.0
            piv = np.where(hit, 1.0, piv)
        a[k + 1:, k + 1:] -= a[k + 1:, k, None] * (a[None, k, k + 1:] / piv)
    return np.diagonal(a)


def log_generalized_power(x: SymElement, s) -> float:
    """log Delta_s(x) = sum_k s_k log p_k(x), with p_k = Delta_k / Delta_{k-1}.

    Defined on the open cone, where every elimination pivot p_k is positive;
    ``PowerDomainError`` anywhere else.  No minor is formed, so the value
    holds at any scale of x and for entries that span more than the float
    range.
    """
    s = np.asarray(s, dtype=float)
    if s.shape != (x.r,):
        raise ShapeMismatchError(f"power parameter must have length {x.r}, got {s.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        piv = _pivots(x.matrix[None])[0]
    if not (piv > 0.0).all():
        k = int(np.argmin(piv > 0.0))
        raise PowerDomainError(k + 1, float(piv[k]))
    return float(s @ np.log(piv))
