"""Dense nonnegative matrices and the entrywise (Hadamard) algebra.

``FiniteMatrix`` is the carrier of every finite-level inequality chain.
Values are immutable after construction; all operations return fresh
objects, so instances are safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeMismatchError
from .sequences import _fold_sum


class FiniteMatrix:
    """Immutable dense matrix with nonnegative real entries."""

    __slots__ = ("a",)

    def __init__(self, data):
        try:
            a = np.array(data, dtype=float)
        except (TypeError, ValueError) as exc:
            raise DomainError(f"matrix entries must be real numbers: {exc}") from None
        if a.ndim != 2 or a.size == 0:
            raise ShapeMismatchError(
                f"a matrix needs two axes, at least one row and one column, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise DomainError("matrix entries must be finite")
        if np.any(a < 0):
            raise DomainError("matrix entries must be nonnegative")
        a.flags.writeable = False
        self.a = a

    @property
    def rows(self) -> int:
        return self.a.shape[0]

    @property
    def cols(self) -> int:
        return self.a.shape[1]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def hadamard(self, other: "FiniteMatrix") -> "FiniteMatrix":
        if self.a.shape != other.a.shape:
            raise ShapeMismatchError(
                f"entrywise product needs equal shapes, got {self.a.shape} and {other.a.shape}"
            )
        with np.errstate(over="ignore"):
            return _checked(self.a * other.a, "entrywise product")

    def hpow(self, t: float) -> "FiniteMatrix":
        """Entrywise t-th power with the convention 0^t = 0."""
        return _wrap(_hpow(self.a, t))

    def __matmul__(self, other: "FiniteMatrix") -> "FiniteMatrix":
        if self.cols != other.rows:
            raise ShapeMismatchError(
                f"product needs conformable shapes, got {self.a.shape} and {other.a.shape}"
            )
        with np.errstate(over="ignore"):
            return _checked(self.a @ other.a, "matrix product")

    def __add__(self, other: "FiniteMatrix") -> "FiniteMatrix":
        if self.a.shape != other.a.shape:
            raise ShapeMismatchError(
                f"sum needs equal shapes, got {self.a.shape} and {other.a.shape}"
            )
        with np.errstate(over="ignore"):
            return _checked(self.a + other.a, "matrix sum")

    def scale(self, c: float) -> "FiniteMatrix":
        if not (c >= 0 and math.isfinite(c)):
            raise DomainError(f"scale factor must be finite and >= 0, got {c}")
        with np.errstate(over="ignore"):
            return _checked(self.a * c, "scaled matrix")

    def adjoint(self) -> "FiniteMatrix":
        """Transpose; the adjoint of a real nonnegative matrix.

        A copy of the transposed view in its own layout (Fortran-ordered for
        a C-ordered matrix), as the constructor copies it, without its scans:
        the entries are already checked.
        """
        return _wrap(np.array(self.a.T))

    def entry_sup(self) -> float:
        return float(self.a.max())

    def __eq__(self, other) -> bool:
        return isinstance(other, FiniteMatrix) and np.array_equal(self.a, other.a)

    def __hash__(self):
        return hash((self.a.shape, self.a.tobytes()))

    def __repr__(self):
        return f"FiniteMatrix({self.a.tolist()!r})"

    @classmethod
    def zeros(cls, rows: int, cols: int | None = None) -> "FiniteMatrix":
        return cls(np.zeros((rows, cols if cols is not None else rows)))

    @classmethod
    def identity(cls, n: int) -> "FiniteMatrix":
        return cls(np.eye(n))

    @classmethod
    def ones(cls, rows: int, cols: int | None = None) -> "FiniteMatrix":
        return cls(np.ones((rows, cols if cols is not None else rows)))


def _hpow(a: np.ndarray, t: float) -> np.ndarray:
    """The entrywise t-th power of a matrix or a stack of them, 0^t = 0, in
    its layout; the one power of ``FiniteMatrix.hpow`` and of matrix sets."""
    if not (t > 0 and math.isfinite(t)):
        raise DomainError(f"entrywise power requires t > 0, got {t}")
    with np.errstate(divide="ignore", over="ignore"):
        return _finite(np.where(a > 0, np.power(a, t), 0.0), "entrywise power")


def _finite(a: np.ndarray, what: str) -> np.ndarray:
    """The fresh result ``a`` of an operation on finite nonnegative matrices
    (one, or a stack), as it is.  Such a result can fail the FiniteMatrix
    checks only by overflowing to inf (or to nan, inf times zero), so it is
    tested for finite entries alone and not copied: it aliases no input, and
    its layout is the one the constructor's copy would keep."""
    if not np.isfinite(a).all():
        raise DomainError(f"{what} exceeds the float range")
    return a


def _checked(a: np.ndarray, what: str) -> FiniteMatrix:
    """``_finite(a, what)`` wrapped as a FiniteMatrix."""
    return _wrap(_finite(a, what))


def _wrap(a: np.ndarray) -> FiniteMatrix:
    """A FiniteMatrix around a fresh, checked float array, set read-only."""
    a.flags.writeable = False
    m = object.__new__(FiniteMatrix)
    m.a = a
    return m


# The slack of every "weights sum to at least 1" check: weights such as
# 1/3 are rounded, so their sum may fall just short of 1.
_SUM_SLACK = 1e-12


@dataclass(frozen=True)
class WeightVector:
    """Positive exponents for weighted geometric means.

    Every weight is positive and finite and the weights sum to at least 1
    (within ``_SUM_SLACK``).  A sum of exactly 1 gives the classical mean,
    dominated entrywise by the matching arithmetic mean; a larger sum is the
    relaxed form that the sequence-space inequalities allow.
    """

    weights: tuple[float, ...]

    def __post_init__(self):
        try:
            weights = tuple(float(w) for w in self.weights)
        except (TypeError, ValueError) as exc:
            raise DomainError(f"weights must be real numbers: {exc}") from None
        object.__setattr__(self, "weights", weights)
        if not self.weights:
            raise DomainError("weight vector must be nonempty")
        if any(not (w > 0 and math.isfinite(w)) for w in self.weights):
            raise DomainError("weights must be positive and finite")
        total = _fold_sum(self.weights)
        if total < 1.0 - _SUM_SLACK:
            raise DomainError(f"weights must sum to at least 1, got {total}")

    def __len__(self) -> int:
        return len(self.weights)

    def __iter__(self):
        return iter(self.weights)

    @classmethod
    def uniform(cls, m: int) -> "WeightVector":
        return cls((1.0 / m,) * m)

    @classmethod
    def of(cls, *weights: float) -> "WeightVector":
        return cls(weights)
