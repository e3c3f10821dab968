"""Shared test oracles, independent of the estimator code paths."""

from __future__ import annotations

import math
from functools import reduce
from itertools import product

import numpy as np

from specrad import (
    Bracket,
    FiniteMatrix,
    OperatorFamily,
    essential_spectral_radius,
    spectral_radius,
)
from specrad.spectral import _ROUND_GUARD


def gamma_via_star(f: OperatorFamily) -> Bracket:
    """Independent route to the noncompactness measure through A*A.

    On l2 the essential radius of A*A equals gamma(A)^2, so the square
    root of the A*A bracket cross-checks hausdorff_mnc.
    """
    b = essential_spectral_radius(f.adjoint() @ f)
    return Bracket(math.sqrt(b.lo), math.sqrt(b.hi) * (1.0 + _ROUND_GUARD),
                   "star-identity", b.converged)


def perron_root_charpoly(a: np.ndarray) -> float:
    """Perron root via characteristic polynomial coefficients plus np.roots.

    Coefficients come from the Faddeev-LeVerrier trace recursion, so this
    path shares nothing with the Gelfand/Collatz-Wielandt bracket.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    coeffs = [1.0]
    m = np.array(a)
    c = -np.trace(m)
    coeffs.append(c)
    for k in range(2, n + 1):
        m = a @ (m + c * np.eye(n))
        c = -np.trace(m) / k
        coeffs.append(c)
    roots = np.roots(coeffs)
    return float(max(abs(roots))) if len(roots) else 0.0


def brute_geometric_mean(arrays, alphas) -> np.ndarray:
    """Entrywise weighted geometric mean evaluated element by element."""
    shape = arrays[0].shape
    out = np.zeros(shape)
    for i in range(shape[0]):
        for j in range(shape[1]):
            v = 1.0
            for arr, alpha in zip(arrays, alphas):
                base = arr[i, j]
                v *= base ** alpha if base > 0 else 0.0
            out[i, j] = v
    return out


def word_radius_lb(s, lengths) -> float:
    """Max of rho(P)^(1/n) over the length-n words P of a matrix set, n in lengths.

    One word per rotation class, since rotating the factors keeps the
    spectrum.  With lengths k, 2k, ..., mk this explores the same words as
    a depth-m search over S^k, so r(S^k) = r(S)^k holds on matched words.
    """
    mats = list(s)
    best = 0.0
    for n in lengths:
        for word in product(range(len(mats)), repeat=n):
            if any(word[i:] + word[:i] < word for i in range(1, n)):
                continue
            lo = spectral_radius(reduce(lambda a, b: a @ b, (mats[i] for i in word))).lo
            if lo > 0:
                best = max(best, lo ** (1.0 / n))
    return best


def dense_product_check(f: OperatorFamily, g: OperatorFamily, n: int) -> bool:
    """Product families must agree with dense truncation arithmetic.

    Columns of rows <= n reach at most n + spread, so truncating the
    factors at a padded size reproduces the exact top corner.
    """
    pad = n + f.spread + g.spread + max(f.corner_shape + g.corner_shape) + 1
    lhs = (f @ g).truncate(n).a
    rhs = (f.truncate(pad).a @ g.truncate(pad).a)[:n, :n]
    return np.allclose(lhs, rhs, atol=1e-12)


def random_family(rng, multiband: bool = False) -> OperatorFamily:
    """Small random family mixing leaf weight kinds; for property tests."""
    from specrad import Constant, EventuallyConstant, RationalFormula
    from specrad.families import OperatorFamily

    def seq():
        pick = rng.random()
        c = 0.5 + 1.5 * rng.random()
        a = -0.4 + 1.4 * rng.random()
        if pick < 0.5:
            return RationalFormula([a + c, c], [0.0, 1.0])
        if pick < 0.8:
            return EventuallyConstant([rng.random(), rng.random()], c)
        return Constant(c)

    bands = {1: seq()}
    if multiband and rng.random() < 0.8:
        bands[0] = seq()
    if multiband and rng.random() < 0.5:
        bands[-1] = seq()
    rank = rng.random((2, 2)) if rng.random() < 0.5 else None
    return OperatorFamily(bands, finite_rank=rank)
