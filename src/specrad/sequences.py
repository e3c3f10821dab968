"""Weight sequences for banded infinite operators.

A weight sequence assigns a nonnegative value ``w(i)`` to every row index
``i >= 1``.  Every sequence carries a bound on ``sup_{i>=n} w(i)`` for
each ``n`` and its limit, both computed in floats and rounded to nearest,
so neither is certified: ``tail_sup`` can fall below the exact sup.  All
constructible kinds converge, and the shift / product / power / sum
combinators needed by the operator algebra preserve convergence, so the
noncompactness of a banded family is the sum of its band limits.

Leaf kinds (the ones that appear in JSON inputs):

- ``Constant(c)``
- ``EventuallyConstant(prefix, tail)``
- ``RationalFormula(p, q)`` with ``w(i) = p(i)/q(i)``, both polynomials
  positive on the integer domain ``i >= 1`` and ``deg p <= deg q``
- ``PrefixWithLimit(prefix, limit)``, which continues past the prefix by
  halving the gap to the declared limit at every step

Derived sequences (shifts, products, powers, sums, restrictions) are
combinator nodes over these leaves.  Node counts are tracked so runaway
symbolic growth raises ``ClosureOverflowError`` instead of thrashing.
"""

from __future__ import annotations

import math

from .errors import ClosureOverflowError, DomainError

MAX_NODES = 50_000

# Window of integer points inspected before trusting a monotone tail.
_RATIONAL_WINDOW_CAP = 100_000


def _pow0(x: float, p: float) -> float:
    """x**p with 0**p = 0, for x >= 0 and p > 0; a DomainError beyond the float range."""
    try:
        return math.pow(x, p) if x > 0 else 0.0
    except OverflowError:
        raise DomainError(f"{x!r} ** {p!r} exceeds the float range") from None


def _check_nodes(nodes: int) -> int:
    if nodes > MAX_NODES:
        raise ClosureOverflowError(
            f"weight-sequence expression grew to {nodes} nodes (cap {MAX_NODES})"
        )
    return nodes


class WeightSeq:
    """Base class: a convergent nonnegative sequence with float tail bounds."""

    __slots__ = ("limit", "nodes")

    limit: float
    nodes: int

    def value(self, i: int) -> float:
        raise NotImplementedError

    def tail_sup(self, n: int) -> float:
        """sup of w(i) over i >= n from float values, rounded to nearest.

        Not certified: ``RationalFormula([1.0], [0.0, 3.0]).tail_sup(1)`` is
        fl(1/3) < 1/3.
        """
        raise NotImplementedError


class Constant(WeightSeq):
    __slots__ = ("c",)

    def __init__(self, c: float):
        c = float(c)
        if not (c >= 0.0 and math.isfinite(c)):
            raise DomainError(f"constant weight must be finite and >= 0, got {c}")
        self.c = c
        self.limit = c
        self.nodes = 1

    def value(self, i: int) -> float:
        return self.c

    def tail_sup(self, n: int) -> float:
        return self.c

    def __repr__(self):
        return f"Constant({self.c})"


class EventuallyConstant(WeightSeq):
    __slots__ = ("prefix", "tail")

    def __init__(self, prefix, tail: float):
        self.prefix = tuple(float(v) for v in prefix)
        self.tail = float(tail)
        if any(not (v >= 0.0 and math.isfinite(v)) for v in self.prefix):
            raise DomainError("prefix values must be finite and >= 0")
        if not (self.tail >= 0.0 and math.isfinite(self.tail)):
            raise DomainError("tail value must be finite and >= 0")
        self.limit = self.tail
        self.nodes = 1

    def value(self, i: int) -> float:
        if i <= len(self.prefix):
            return self.prefix[i - 1]
        return self.tail

    def tail_sup(self, n: int) -> float:
        rest = self.prefix[max(n - 1, 0):]
        return max(rest, default=self.tail) if not rest else max(max(rest), self.tail)

    def __repr__(self):
        return f"EventuallyConstant({list(self.prefix)}, {self.tail})"


def _poly_trim(coeffs) -> tuple[float, ...]:
    c = [float(x) for x in coeffs]
    while c and c[-1] == 0.0:
        c.pop()
    return tuple(c)


def _poly_eval(coeffs: tuple[float, ...], x: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _poly_deriv(coeffs: tuple[float, ...]) -> tuple[float, ...]:
    return _poly_trim(k * c for k, c in enumerate(coeffs) if k >= 1)


def _poly_mul(a: tuple[float, ...], b: tuple[float, ...]) -> tuple[float, ...]:
    if not a or not b:
        return ()
    out = [0.0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return _poly_trim(out)


def _poly_sub(a: tuple[float, ...], b: tuple[float, ...]) -> tuple[float, ...]:
    out = [0.0] * max(len(a), len(b))
    for i, ai in enumerate(a):
        out[i] += ai
    for i, bi in enumerate(b):
        out[i] -= bi
    return _poly_trim(out)


def _cauchy_root_bound(coeffs: tuple[float, ...]) -> float:
    """All real roots of the polynomial lie strictly below this bound."""
    if len(coeffs) <= 1:
        return 1.0
    lead = abs(coeffs[-1])
    return 1.0 + max(abs(c) for c in coeffs[:-1]) / lead


class RationalFormula(WeightSeq):
    """w(i) = p(i)/q(i) for polynomials positive on the integers i >= 1.

    Requires deg p <= deg q so the sequence is bounded.  Beyond a
    precomputed threshold (a root bound for the derivative numerator
    p'q - pq') the sequence is monotone, so the tail sup is attained in the
    window up to the threshold or at the limit; ``tail_sup`` takes the max
    of their float values, each rounded to nearest, so it is no certified
    upper bound.
    """

    __slots__ = ("p", "q", "threshold")

    def __init__(self, p, q):
        self.p = _poly_trim(p)
        self.q = _poly_trim(q)
        if not self.q:
            raise DomainError("denominator polynomial must be nonzero")
        if len(self.p) > len(self.q):
            raise DomainError("deg p must be <= deg q for a bounded weight sequence")
        h = _poly_sub(_poly_mul(_poly_deriv(self.p), self.q),
                      _poly_mul(self.p, _poly_deriv(self.q)))
        bound = max(_cauchy_root_bound(h), _cauchy_root_bound(self.p),
                    _cauchy_root_bound(self.q))
        self.threshold = int(math.ceil(bound)) + 1
        if self.threshold > _RATIONAL_WINDOW_CAP:
            raise DomainError("rational formula coefficients give an impractical root bound")
        for i in range(1, self.threshold + 1):
            if _poly_eval(self.q, i) <= 0.0:
                raise DomainError(f"denominator must be positive on i >= 1; fails at i={i}")
            if _poly_eval(self.p, i) < 0.0:
                raise DomainError(f"numerator must be >= 0 on i >= 1; fails at i={i}")
        if self.q[-1] <= 0.0:
            raise DomainError("denominator leading coefficient must be positive")
        if self.p and self.p[-1] < 0.0:
            raise DomainError("numerator leading coefficient must be >= 0")
        if not self.p:
            self.limit = 0.0
        elif len(self.p) < len(self.q):
            self.limit = 0.0
        else:
            self.limit = self.p[-1] / self.q[-1]
        self.nodes = 1

    def value(self, i: int) -> float:
        return _poly_eval(self.p, i) / _poly_eval(self.q, i)

    def tail_sup(self, n: int) -> float:
        n = max(n, 1)
        window = [self.value(i) for i in range(n, max(n, self.threshold) + 1)]
        return max(max(window), self.limit)

    def __repr__(self):
        return f"RationalFormula(p={list(self.p)}, q={list(self.q)})"


class PrefixWithLimit(WeightSeq):
    """Explicit prefix, then geometric approach to a declared limit.

    Past the prefix the gap to the limit halves at every index, so the
    tail is monotone and the declared limit is exact.
    """

    __slots__ = ("prefix", "_last")

    def __init__(self, prefix, limit: float):
        self.prefix = tuple(float(v) for v in prefix)
        if not self.prefix:
            raise DomainError("prefix must be nonempty; use Constant for a bare limit")
        if any(not (v >= 0.0 and math.isfinite(v)) for v in self.prefix):
            raise DomainError("prefix values must be finite and >= 0")
        limit = float(limit)
        if not (limit >= 0.0 and math.isfinite(limit)):
            raise DomainError("limit must be finite and >= 0")
        self.limit = limit
        self._last = self.prefix[-1]
        self.nodes = 1

    def value(self, i: int) -> float:
        P = len(self.prefix)
        if i <= P:
            return self.prefix[i - 1]
        return self.limit + (self._last - self.limit) * math.pow(0.5, i - P)

    def tail_sup(self, n: int) -> float:
        P = len(self.prefix)
        if n <= P:
            return max(max(self.prefix[n - 1:]), self.tail_sup(P + 1))
        return max(self.value(n), self.limit)

    def __repr__(self):
        return f"PrefixWithLimit({list(self.prefix)}, {self.limit})"


class Shifted(WeightSeq):
    """w(i) = inner(i + s).  Callers guard the domain via restriction."""

    __slots__ = ("inner", "s")

    def __init__(self, inner: WeightSeq, s: int):
        self.inner = inner
        self.s = int(s)
        self.limit = inner.limit
        self.nodes = _check_nodes(inner.nodes + 1)

    def value(self, i: int) -> float:
        j = i + self.s
        if j < 1:
            raise DomainError(f"shifted sequence evaluated below its domain (i={i}, s={self.s})")
        return self.inner.value(j)

    def tail_sup(self, n: int) -> float:
        return self.inner.tail_sup(max(1, n + self.s))


class Restricted(WeightSeq):
    """w(i) = 0 for i < start, inner(i) afterwards."""

    __slots__ = ("inner", "start")

    def __init__(self, inner: WeightSeq, start: int):
        self.inner = inner
        self.start = int(start)
        self.limit = inner.limit
        self.nodes = _check_nodes(inner.nodes + 1)

    def value(self, i: int) -> float:
        if i < self.start:
            return 0.0
        return self.inner.value(i)

    def tail_sup(self, n: int) -> float:
        return self.inner.tail_sup(max(n, self.start))


class ProductSeq(WeightSeq):
    __slots__ = ("a", "b")

    def __init__(self, a: WeightSeq, b: WeightSeq):
        self.a = a
        self.b = b
        self.limit = a.limit * b.limit
        self.nodes = _check_nodes(a.nodes + b.nodes + 1)

    def value(self, i: int) -> float:
        return self.a.value(i) * self.b.value(i)

    def tail_sup(self, n: int) -> float:
        return self.a.tail_sup(n) * self.b.tail_sup(n)


class PowerSeq(WeightSeq):
    __slots__ = ("inner", "t")

    def __init__(self, inner: WeightSeq, t: float):
        if not (t > 0.0 and math.isfinite(t)):
            raise DomainError(f"entrywise power requires t > 0, got {t}")
        self.inner = inner
        self.t = float(t)
        self.limit = _pow0(inner.limit, self.t)
        self.nodes = _check_nodes(inner.nodes + 1)

    def value(self, i: int) -> float:
        return _pow0(self.inner.value(i), self.t)

    def tail_sup(self, n: int) -> float:
        return _pow0(self.inner.tail_sup(n), self.t)


class SumSeq(WeightSeq):
    __slots__ = ("parts",)

    def __init__(self, parts):
        self.parts = tuple(parts)
        self.limit = sum(p.limit for p in self.parts)
        self.nodes = _check_nodes(sum(p.nodes for p in self.parts) + 1)

    def value(self, i: int) -> float:
        return sum(p.value(i) for p in self.parts)

    def tail_sup(self, n: int) -> float:
        return sum(p.tail_sup(n) for p in self.parts)


class ScaledSeq(WeightSeq):
    __slots__ = ("inner", "c")

    def __init__(self, inner: WeightSeq, c: float):
        if not (c >= 0.0 and math.isfinite(c)):
            raise DomainError(f"scale factor must be finite and >= 0, got {c}")
        self.inner = inner
        self.c = float(c)
        self.limit = self.c * inner.limit
        self.nodes = _check_nodes(inner.nodes + 1)

    def value(self, i: int) -> float:
        return self.c * self.inner.value(i)

    def tail_sup(self, n: int) -> float:
        return self.c * self.inner.tail_sup(n)



# Smart constructors: fold constants and collapse trivial nodes so the
# symbolic trees stay small under repeated algebra.

def seq_shift(w: WeightSeq, s: int) -> WeightSeq:
    if s == 0 or isinstance(w, Constant):
        return w
    if isinstance(w, Shifted):
        return seq_shift(w.inner, w.s + s)
    return Shifted(w, s)


def seq_restrict(w: WeightSeq, start: int) -> WeightSeq:
    if start <= 1:
        return w
    if isinstance(w, Restricted):
        return Restricted(w.inner, max(w.start, start))
    return Restricted(w, start)


def seq_product(a: WeightSeq, b: WeightSeq) -> WeightSeq:
    if isinstance(a, Constant):
        return seq_scale(b, a.c)
    if isinstance(b, Constant):
        return seq_scale(a, b.c)
    return ProductSeq(a, b)


def seq_power(w: WeightSeq, t: float) -> WeightSeq:
    if not (t > 0.0 and math.isfinite(t)):
        raise DomainError(f"entrywise power requires t > 0, got {t}")
    if t == 1.0:
        return w
    if isinstance(w, Constant):
        return Constant(_pow0(w.c, t))
    if isinstance(w, PowerSeq):
        return PowerSeq(w.inner, w.t * t)
    return PowerSeq(w, t)


def seq_scale(w: WeightSeq, c: float) -> WeightSeq:
    if c == 0.0:
        return Constant(0.0)
    if c == 1.0:
        return w
    if isinstance(w, Constant):
        return Constant(c * w.c)
    if isinstance(w, ScaledSeq):
        return ScaledSeq(w.inner, c * w.c)
    return ScaledSeq(w, c)


def seq_sum(parts) -> WeightSeq:
    flat: list[WeightSeq] = []
    const = 0.0
    for p in parts:
        if isinstance(p, SumSeq):
            inner = list(p.parts)
        else:
            inner = [p]
        for q in inner:
            if isinstance(q, Constant):
                const += q.c
            else:
                flat.append(q)
    if const > 0.0:
        flat.append(Constant(const))
    if not flat:
        return Constant(0.0)
    if len(flat) == 1:
        return flat[0]
    return SumSeq(flat)
