"""Finite sets of matrices or operator families, and their algebra.

Sets model the bounded collections over which joint and generalized radii
are taken.  Elements are kept as ordered lists and duplicates are never
removed: radii are max-based, so duplicates are harmless, and cardinality
stays predictable (|set_power(S, m)| = |S|**m exactly).
"""

from __future__ import annotations

import math
import numbers
from functools import reduce

from .errors import BudgetExceededError, DomainError, ShapeMismatchError
from .families import OperatorFamily
from .matrices import _SUM_SLACK, FiniteMatrix, WeightVector

MAX_SET_ELEMENTS = 200_000


class OperatorSet:
    """Nonempty homogeneous collection of matrices or operator families."""

    __slots__ = ("elements",)

    def __init__(self, elements):
        elems = tuple(elements)
        if not elems:
            raise DomainError("operator set must be nonempty")
        first = elems[0]
        if isinstance(first, FiniteMatrix):
            shape = (first.rows, first.cols)
            for e in elems:
                if not isinstance(e, FiniteMatrix) or (e.rows, e.cols) != shape:
                    raise ShapeMismatchError("matrix set elements must share one shape")
        elif isinstance(first, OperatorFamily):
            for e in elems:
                if not isinstance(e, OperatorFamily):
                    raise ShapeMismatchError("family set elements must all be operator families")
        else:
            raise DomainError(f"unsupported set element type {type(first).__name__}")
        if len(elems) > MAX_SET_ELEMENTS:
            raise BudgetExceededError(f"set has {len(elems)} elements (cap {MAX_SET_ELEMENTS})")
        self.elements = elems

    @property
    def kind(self) -> str:
        return "matrix" if isinstance(self.elements[0], FiniteMatrix) else "family"

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __getitem__(self, idx):
        return self.elements[idx]

    def map(self, fn) -> "OperatorSet":
        return OperatorSet([fn(e) for e in self.elements])

    def __repr__(self):
        return f"OperatorSet({len(self.elements)} x {self.kind})"


def _as_set(value) -> OperatorSet:
    if isinstance(value, OperatorSet):
        return value
    return OperatorSet([value])


def _guard_size(n: int):
    if n > MAX_SET_ELEMENTS:
        raise BudgetExceededError(f"set operation would produce {n} elements (cap {MAX_SET_ELEMENTS})")


def set_product(p, q) -> OperatorSet:
    """All ordered products {AB : A in P, B in Q}; duplicates retained."""
    p, q = _as_set(p), _as_set(q)
    _guard_size(len(p) * len(q))
    return OperatorSet([a @ b for a in p for b in q])


def set_product_many(sets) -> OperatorSet:
    sets = [_as_set(s) for s in sets]
    if not sets:
        raise DomainError("need at least one set to multiply")
    return reduce(set_product, sets)


def set_power(s, m: int) -> OperatorSet:
    """All length-m ordered products from S; cardinality |S|**m."""
    s = _as_set(s)
    if isinstance(m, bool) or not isinstance(m, numbers.Integral) or m < 1:
        raise DomainError(f"set power needs an integer >= 1, got {m!r}")
    m = int(m)
    _guard_size(len(s) ** m)
    return set_product_many([s] * m)


def set_sum(p, q) -> OperatorSet:
    p, q = _as_set(p), _as_set(q)
    _guard_size(len(p) * len(q))
    return OperatorSet([a + b for a in p for b in q])


def set_sum_many(sets) -> OperatorSet:
    sets = [_as_set(s) for s in sets]
    if not sets:
        raise DomainError("need at least one set to add")
    return reduce(set_sum, sets)


def set_hadamard_power(s, t: float) -> OperatorSet:
    """Elementwise Hadamard power {A^(t) : A in S}."""
    return _as_set(s).map(lambda a: a.hpow(t))


def weighted_geometric_mean(items, weights: WeightVector):
    """Entrywise product of items[k]^(weights[k]); a weight of 1 skips the power.

    Items are matrices or families alike: the mean is the one element of
    ``set_hadamard_mean`` over the singletons {items[k]}.
    """
    return set_hadamard_mean(items, weights).elements[0]


def set_hadamard_mean(sets, w: WeightVector) -> OperatorSet:
    """Weighted Hadamard geometric mean of sets: all cross-element means.

    Element order is that of ``itertools.product`` over the sets, and each
    element is associated left to right, ((x1^(a1) o x2^(a2)) o x3^(a3)) ...
    Each power is taken once per operand, not once per cross tuple: sum |S_k|
    ``hpow`` calls (none at weight 1.0) and one ``hadamard`` per element of
    every partial product.
    """
    sets = [_as_set(s) for s in sets]
    if len(sets) != len(w):
        raise ShapeMismatchError(f"{len(sets)} operands but {len(w)} weights")
    _guard_size(math.prod(len(s) for s in sets))
    powered = [[x if a == 1.0 else x.hpow(a) for x in s] for s, a in zip(sets, w.weights)]
    level = powered[0]
    for factors in powered[1:]:
        level = [acc.hadamard(y) for acc in level for y in factors]
    return OperatorSet(level)


def set_adjoint(s) -> OperatorSet:
    return _as_set(s).map(lambda a: a.adjoint())


def symmetrization(s, alpha: float, beta: float, q=None) -> OperatorSet:
    """Weighted geometric symmetrization {A^(a) o (B*)^(b) : A in S, B in Q}.

    Q defaults to S.  A and B range independently, so the result has
    |S| * |Q| elements, ordered with B varying fastest; for a singleton
    S = Q this collapses to the classical symmetrization of a single
    operator.  A zero weight drops its factor, and then a weight of 1.0
    skips its power.  When both weights are nonzero every factor is
    powered, at 1.0 too, so each element is bit for bit
    ``a.hpow(alpha).hadamard(b.adjoint().hpow(beta))``: on a family with a
    corner, ``hpow(1.0)`` re-rounds the corner's last bits.  Each
    operand's work is done once: at most |Q| adjoints, |S| + |Q| powers
    and |S| * |Q| hadamards.  Requires alpha + beta >= 1 so the mean stays
    bounded on l2.
    """
    if alpha < 0 or beta < 0:
        raise DomainError("symmetrization weights must be nonnegative")
    if alpha + beta < 1.0 - _SUM_SLACK:
        raise DomainError(f"symmetrization needs alpha + beta >= 1, got {alpha + beta}")
    s = _as_set(s)
    q = s if q is None else _as_set(q)
    _guard_size(len(s) * len(q))
    if beta == 0.0:
        left = [a.hpow(alpha) if alpha != 1.0 else a for a in s]
        return OperatorSet([x for x in left for _ in q])
    bstars = [b.adjoint() for b in q]
    if alpha == 0.0:
        right = [b.hpow(beta) if beta != 1.0 else b for b in bstars]
        return OperatorSet([y for _ in s for y in right])
    left = [a.hpow(alpha) for a in s]
    right = [b.hpow(beta) for b in bstars]
    return OperatorSet([x.hadamard(y) for x in left for y in right])
