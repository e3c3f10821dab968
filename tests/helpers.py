"""Shared test oracles, independent of the estimator code paths."""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce
from itertools import product

import numpy as np

from specrad import (
    Bracket,
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


def encloses_perron_root(a, lo, hi) -> bool:
    """True when lo <= rho(a) <= hi, decided in exact arithmetic.

    ``a`` is a square nonnegative matrix of degree <= 8 whose entries are
    floats or Fractions (a float is an exact dyadic rational); lo and hi
    are floats or Fractions.  Scaled by the common denominator D of its
    entries, a becomes an integer matrix N, whose characteristic
    polynomial Faddeev-LeVerrier gives exactly over the integers; its
    roots are D times those of a.  By Perron-Frobenius the Perron root is
    the largest real eigenvalue, so [lo, hi] encloses it exactly when no
    root lies above hi and at least one lies at or above lo.  A Sturm
    sequence of the square-free part counts the distinct real roots in
    (x, oo) as V(x) - V(oo), where V(x) is the number of sign changes
    along the sequence at x.  Uses the standard library only.
    """
    rows = [[Fraction(x) for x in row] for row in np.asarray(a, dtype=object).tolist()]
    n = len(rows)
    if not 1 <= n <= 8 or any(len(r) != n for r in rows):
        raise ValueError(f"the exact oracle takes square matrices of degree 1 to 8, got {n}")
    if any(x < 0 for r in rows for x in r):
        raise ValueError("the exact oracle takes nonnegative matrices")
    lo, hi = Fraction(lo), Fraction(hi)
    if lo > hi:
        return False
    d = math.lcm(*(x.denominator for r in rows for x in r))
    p = _charpoly([[int(x * d) for x in r] for r in rows])
    seq = _sturm(p)
    if len(seq[-1]) > 1:  # gcd(p, p') is not constant: divide out the repeated roots
        seq = _sturm(_exact_quotient(p, seq[-1]))
    at_inf = _sign_changes([q[0] for q in seq])
    if _sign_changes([_sign_at(q, hi * d) for q in seq]) > at_inf:
        return False
    return (_sign_at(seq[0], lo * d) == 0
            or _sign_changes([_sign_at(q, lo * d) for q in seq]) > at_inf)


def exact_gram(a) -> list[list[Fraction]]:
    """A*A of a real matrix in exact rationals; its Perron root is the
    square of the l2 norm of a."""
    rows = [[Fraction(x) for x in row] for row in np.asarray(a).tolist()]
    cols = range(len(rows[0]))
    return [[sum(r[i] * r[j] for r in rows) for j in cols] for i in cols]


def _charpoly(m: list[list[int]]) -> list[int]:
    """Coefficients, highest degree first, of det(xI - m) for an integer matrix.

    Faddeev-LeVerrier: M_1 = I, c_{n-k} = -tr(m M_k) / k and
    M_{k+1} = m M_k + c_{n-k} I; every M_k is an integer polynomial in m,
    so each division is exact.
    """
    n = len(m)
    coeffs = [1]
    mk = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        prod = [[sum(m[i][l] * mk[l][j] for l in range(n)) for j in range(n)] for i in range(n)]
        c, r = divmod(-sum(prod[i][i] for i in range(n)), k)
        assert r == 0
        coeffs.append(c)
        for i in range(n):
            prod[i][i] += c
        mk = prod
    return coeffs


def _sturm(p: list[int]) -> list[list[int]]:
    """Sturm sequence of an integer polynomial, highest degree first, each
    term scaled by a positive number to keep integer coefficients (a
    primitive pseudo-remainder sequence).  It ends at gcd(p, p'), which is
    constant exactly when p has no repeated root."""
    deg = len(p) - 1
    seq = [p, [c * (deg - i) for i, c in enumerate(p[:-1])]]
    while len(seq[-1]) > 1:
        a, b = list(seq[-2]), seq[-1]
        scale, sign = abs(b[0]), 1 if b[0] > 0 else -1
        while len(a) >= len(b):  # |lc(b)| a minus a multiple of b drops a's leading term
            f = a[0] * sign
            a = [c * scale - f * (b[i] if i < len(b) else 0) for i, c in enumerate(a)][1:]
        while a and a[0] == 0:
            a.pop(0)
        if not a:
            break
        g = math.gcd(*a)
        seq.append([-c // g for c in a])
    return seq


def _exact_quotient(p: list[int], g: list[int]) -> list[int]:
    """p / g for a divisor g of p, scaled to integer coefficients by a
    positive number."""
    a = [Fraction(c) for c in p]
    quot = []
    while len(a) >= len(g):
        f = a[0] / g[0]
        quot.append(f)
        a = [c - f * (g[i] if i < len(g) else 0) for i, c in enumerate(a)][1:]
    d = math.lcm(*(c.denominator for c in quot))
    return [int(c * d) for c in quot]


def _sign_at(p: list[int], x: Fraction) -> int:
    """The sign of p(x), read off v^deg p(u / v) = sum c_i u^(deg - i) v^i
    for x = u / v with v > 0."""
    u, v = x.numerator, x.denominator
    value, v_pow = 0, 1
    for c in p:
        value = value * u + c * v_pow
        v_pow *= v
    return (value > 0) - (value < 0)


def _sign_changes(values) -> int:
    signs = [v > 0 for v in values if v != 0]
    return sum(s != t for s, t in zip(signs, signs[1:]))


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
