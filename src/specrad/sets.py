"""Finite sets of matrices or operator families, and their algebra.

Sets model the bounded collections over which joint and generalized radii
are taken.  Duplicates are never removed: radii are max-based, so
duplicates are harmless, and cardinality stays predictable
(|set_power(S, m)| = |S|**m exactly).  A family set keeps its elements as
an ordered tuple, and its operations loop over them.  A matrix set keeps
its elements as one read-only (k, r, c) stack, in order, and each of its
operations is one broadcast over stacks, checked finite once.  The stack
is C-ordered, or a transposed view of a C-ordered stack when its elements
are Fortran-ordered, as adjoints are (``set_adjoint``): OpenBLAS rounds a
product with a Fortran-ordered operand differently at some sizes (n = 17
to 20, for one), and a stacked ``@`` gives each pair of elements the bits
of their own ``@`` when each keeps the layout it has alone.  Entrywise
broadcasts give each element the layout its own operation gives it too.
"""

from __future__ import annotations

import math
from functools import reduce

import numpy as np

from .errors import BudgetExceededError, DomainError, ShapeMismatchError, _integer, _real
from .families import OperatorFamily
from .matrices import _SUM_SLACK, FiniteMatrix, WeightVector, _finite, _hpow, _wrap

MAX_SET_ELEMENTS = 200_000


class OperatorSet:
    """Nonempty homogeneous collection of matrices or operator families.

    ``items`` is a matrix set's read-only (k, r, c) stack or a family set's
    tuple, and ``kind`` is "matrix" or "family".  The constructor checks every element and copies a matrix set's
    arrays into one C-ordered stack, or, when every array is
    Fortran-ordered, into the transposed view of one, so each element keeps
    its layout.  The set operations build their results with ``_set``,
    which skips the checks: their elements are homogeneous by construction,
    and each operation guards its size against ``MAX_SET_ELEMENTS`` first.
    """

    __slots__ = ("items", "kind")

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
        if isinstance(first, FiniteMatrix):
            arrays = [e.a for e in elems]
            if all(a.flags.f_contiguous and not a.flags.c_contiguous for a in arrays):
                elems = np.array([a.T for a in arrays]).transpose(0, 2, 1)
            else:
                elems = np.array(arrays)
            elems.flags.writeable = False
        self.items = elems
        self.kind = "matrix" if isinstance(first, FiniteMatrix) else "family"

    @property
    def elements(self) -> tuple:
        """The elements in order: views of the stack as FiniteMatrix, or the families."""
        return tuple(self)

    def __len__(self):
        return len(self.items)

    def __iter__(self):
        return map(_wrap, self.items) if self.kind == "matrix" else iter(self.items)

    def __getitem__(self, idx):
        item = self.items[idx]
        if self.kind == "family":
            return item
        return _wrap(item) if item.ndim == 2 else tuple(map(_wrap, item))

    def __repr__(self):
        return f"OperatorSet({len(self.items)} x {self.kind})"


def _set(items) -> OperatorSet:
    """An OperatorSet around a fresh stack, set read-only, or a list of
    families, with no checks."""
    s = object.__new__(OperatorSet)
    if isinstance(items, np.ndarray):
        items.flags.writeable = False
        s.items, s.kind = items, "matrix"
    else:
        s.items, s.kind = tuple(items), "family"
    return s


def _as_set(value) -> OperatorSet:
    if isinstance(value, OperatorSet):
        return value
    return OperatorSet([value])


def _stack(s: OperatorSet, what: str) -> np.ndarray:
    """The stack of a matrix set that is the second operand of ``what``."""
    if s.kind != "matrix":
        raise ShapeMismatchError(f"{what} needs two sets of matrices")
    return s.items


def _same_shapes(p: np.ndarray, q: np.ndarray, what: str):
    if p.shape[1:] != q.shape[1:]:
        raise ShapeMismatchError(f"{what} needs equal shapes, got {p.shape[1:]} and {q.shape[1:]}")


def _cross(op, p: np.ndarray, q: np.ndarray, what: str) -> np.ndarray:
    """op(p[i], q[j]) for every i, then every j, as one (k * l, r, c) stack
    from one broadcast, refused beyond the float range."""
    with np.errstate(over="ignore"):
        out = op(p[:, None], q[None])
    return _finite(out.reshape(-1, *out.shape[2:]), what)


def _guard_size(n: int):
    if n > MAX_SET_ELEMENTS:
        raise BudgetExceededError(f"set operation would produce {n} elements (cap {MAX_SET_ELEMENTS})")


def set_product(p, q) -> OperatorSet:
    """All ordered products {AB : A in P, B in Q}; duplicates retained."""
    p, q = _as_set(p), _as_set(q)
    _guard_size(len(p) * len(q))
    if p.kind == "family":
        return _set([a @ b for a in p.items for b in q.items])
    a, b = p.items, _stack(q, "product")
    if a.shape[2] != b.shape[1]:
        raise ShapeMismatchError(
            f"product needs conformable shapes, got {a.shape[1:]} and {b.shape[1:]}")
    return _set(_cross(np.matmul, a, b, "matrix product"))


def set_product_many(sets) -> OperatorSet:
    sets = [_as_set(s) for s in sets]
    if not sets:
        raise DomainError("need at least one set to multiply")
    return reduce(set_product, sets)


def set_power(s, m: int) -> OperatorSet:
    """All length-m ordered products from S; cardinality |S|**m.  S**1 is S."""
    s = _as_set(s)
    m = _integer(m, 1, "set power exponent")
    _guard_size(len(s) ** m)
    return set_product_many([s] * m)


def set_sum(p, q) -> OperatorSet:
    p, q = _as_set(p), _as_set(q)
    _guard_size(len(p) * len(q))
    if p.kind == "family":
        return _set([a + b for a in p.items for b in q.items])
    a, b = p.items, _stack(q, "sum")
    _same_shapes(a, b, "sum")
    return _set(_cross(np.add, a, b, "matrix sum"))


def set_sum_many(sets) -> OperatorSet:
    sets = [_as_set(s) for s in sets]
    if not sets:
        raise DomainError("need at least one set to add")
    return reduce(set_sum, sets)


def set_hadamard_power(s, t: float) -> OperatorSet:
    """Elementwise Hadamard power {A^(t) : A in S}."""
    s = _as_set(s)
    if s.kind == "family":
        return _set([x.hpow(t) for x in s.items])
    return _set(_hpow(s.items, t))


def weighted_geometric_mean(items, weights: WeightVector):
    """Entrywise product of items[k]^(weights[k]); a weight of 1 skips the power.

    Items are matrices or families alike, folded left to right,
    ((x1^(a1) o x2^(a2)) o x3^(a3)) ...: the one element that
    ``set_hadamard_mean`` gives over the singletons {items[k]}, without
    building those sets.
    """
    items = list(items)
    if len(items) != len(weights):
        raise ShapeMismatchError(f"{len(items)} operands but {len(weights)} weights")
    powered = [x if a == 1.0 else x.hpow(a) for x, a in zip(items, weights.weights)]
    return reduce(lambda acc, y: acc.hadamard(y), powered)


def set_hadamard_mean(sets, w: WeightVector) -> OperatorSet:
    """Weighted Hadamard geometric mean of sets: all cross-element means.

    Element order is that of ``itertools.product`` over the sets, and each
    element is associated left to right, ((x1^(a1) o x2^(a2)) o x3^(a3)) ...
    Each power is taken once per operand, not once per cross tuple, and
    every power before any product, none at weight 1.0: family sets take
    sum |S_k| ``hpow`` calls and one ``hadamard`` per element of every
    partial product, matrix sets one stacked power per operand and one
    broadcast product per partial product.
    """
    sets = [_as_set(s) for s in sets]
    if len(sets) != len(w):
        raise ShapeMismatchError(f"{len(sets)} operands but {len(w)} weights")
    _guard_size(math.prod(len(s) for s in sets))
    return reduce(_hadamard, [s if a == 1.0 else set_hadamard_power(s, a)
                              for s, a in zip(sets, w.weights)])


def _hadamard(p: OperatorSet, q: OperatorSet) -> OperatorSet:
    """{x o y : x in P, y in Q}, y varying fastest: one ``hadamard`` per
    pair of families, or one broadcast product of two matrix stacks."""
    if p.kind == "family":
        return _set([x.hadamard(y) for x in p.items for y in q.items])
    a, b = p.items, _stack(q, "entrywise product")
    _same_shapes(a, b, "entrywise product")
    return _set(_cross(np.multiply, a, b, "entrywise product"))


def set_adjoint(s) -> OperatorSet:
    """{A* : A in S}.  A matrix set's adjoints are one copy of its transposed
    stack that keeps the transposed layout, as ``FiniteMatrix.adjoint``
    keeps it for each element: a fresh stack, since a product of an array
    with a view of its own transpose would go to a symmetric update and
    round differently."""
    s = _as_set(s)
    if s.kind == "family":
        return _set([x.adjoint() for x in s.items])
    return _set(np.array(s.items.transpose(0, 2, 1)))


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
    operand's work is done once: for a family set at most |Q| adjoints,
    |S| + |Q| powers and |S| * |Q| hadamards; for a matrix set one adjoint
    stack, at most two stacked powers and one broadcast product.  Requires
    alpha + beta >= 1 so the mean stays bounded on l2.
    """
    alpha = _real(alpha, "symmetrization weight alpha")
    beta = _real(beta, "symmetrization weight beta")
    if alpha + beta < 1.0 - _SUM_SLACK:
        raise DomainError(f"symmetrization needs alpha + beta >= 1, got {alpha + beta}")
    s = _as_set(s)
    q = s if q is None else _as_set(q)
    _guard_size(len(s) * len(q))
    if beta == 0.0:
        return _repeat(s if alpha == 1.0 else set_hadamard_power(s, alpha), len(q), inner=True)
    bstars = set_adjoint(q)
    if alpha == 0.0:
        right = bstars if beta == 1.0 else set_hadamard_power(bstars, beta)
        return _repeat(right, len(s), inner=False)
    left = set_hadamard_power(s, alpha)
    return _hadamard(left, set_hadamard_power(bstars, beta))


def _repeat(s: OperatorSet, count: int, inner: bool) -> OperatorSet:
    """Each element of s ``count`` times in a row (``inner``), or all of s
    ``count`` times over; a matrix set by one index, which keeps its layout."""
    idx = np.arange(len(s))
    idx = np.repeat(idx, count) if inner else np.tile(idx, count)
    return _set(s.items[idx] if s.kind == "matrix" else [s.items[i] for i in idx.tolist()])
