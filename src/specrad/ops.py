"""Polymorphic algebra entry points.

These accept either dense matrices or operator families ("matrix-like"
operands); the set-valued counterparts live in :mod:`specrad.sets`.
"""

from __future__ import annotations

from .errors import ShapeMismatchError
from .matrices import WeightVector


def hadamard_product(a, b):
    """Entrywise product a(i,j) * b(i,j)."""
    return a.hadamard(b)


def hadamard_power(a, t: float):
    """Entrywise t-th power with 0^t = 0; requires t > 0."""
    return a.hpow(t)


def weighted_geometric_mean(items, weights: WeightVector):
    """Entrywise product of items[k]^(weights[k]); a weight of 1 skips the power."""
    items = list(items)
    if len(items) != len(weights):
        raise ShapeMismatchError(f"{len(items)} operands but {len(weights)} weights")
    w = weights.weights
    acc = items[0] if w[0] == 1.0 else items[0].hpow(w[0])
    for x, a in zip(items[1:], w[1:]):
        acc = acc.hadamard(x if a == 1.0 else x.hpow(a))
    return acc


def matrix_product(a, b):
    return a @ b


def matrix_sum(a, b):
    return a + b


def scale(a, c: float):
    return a.scale(c)


def adjoint(a):
    return a.adjoint()


def truncate(family, n: int):
    """Top-left n-by-n compression of a banded operator, as a dense matrix."""
    return family.truncate(n)


def tail_bound(family, n: int) -> float:
    """Certified upper bound on the l2 norm of rows at and beyond n."""
    return family.tail_norm_bound(n)
