"""Catalog of machine-checkable inequality chains.

Finite-level entries (F1..F16) exercise spectral radii and operator norms
of Hadamard products, powers, and weighted geometric means of nonnegative
matrices, including the classical Zhan / Audenaert / Horn-Zhang / Huang /
Schep refinements and their set-valued forms.  Essential-level entries
(E1..E21) check the corresponding statements for the essential spectral
radius and the Hausdorff measure of noncompactness of banded operators on
l2, including sums, weighted geometric symmetrizations, and permutation-
indexed adjoint product words.

Verdict semantics live in :mod:`specrad.chains`; every term here is built
from certified brackets, so a ``fail`` verdict on hypothesis-satisfying
inputs localizes a toolkit bug, never a sharpness experiment.

Finite-level upper estimates inside one part are evaluated at matched
underlying depths, so whenever the proof of a chain rests on entrywise
domination of matched products (all of these do), the certified upper
bounds inherit the ordering and the part passes decisively.  Essential
upper estimates need no depth: the noncompactness measure is
multiplicative on banded families, so every depth gives the same bound.

Adding a chain
--------------
Write two functions and one declaration.  ``sample(rng, ens)`` draws
random inputs; ``build(inputs, ctx)`` turns inputs into parts of
labelled terms.  The declaration is one ``_chain(...)`` entry in
``_REGISTRY`` and holds:

- the catalog strings: id, title, level, description, and the hypothesis
  text that ``specrad catalog`` prints;
- ``operands``: the count of each operand kind, as an integer or as an
  expression over integer params ("m", "k*m", "m+1", "m + k*m").  The kinds
  are ``matrices`` (square), ``vectors`` (column vectors, passed in
  ``ChainInputs.matrices``), ``families``, ``matrix_sets`` and
  ``family_sets``;
- ``params``: the typed params in catalog order, each with its side
  condition: ``_Int`` (integer >= low, optionally odd or even), ``_Real``
  (finite real in a closed or open range), ``_Alpha`` (real >= c/m or >= c,
  with 1e-12 slack for the rounded bound), ``_Weights`` (m positive reals
  summing to at least 1) and ``_Perm`` (a permutation of 0..m-1);
- ``check``: an optional per-chain condition that fits no shared type.

The catalog ``arity`` and the chain's ``hypothesis`` both come from the
declaration.  The hypothesis rejects the inputs, and ``evaluate_chain``
raises ``HypothesisViolation``, unless every declared param is present
with its type and range, every operand count equals its declared count
exactly (an undeclared kind must be empty), every ``matrices`` operand is
square, and ``check`` passes.  A build therefore never sees a malformed
param.

``sample`` draws from ``rng`` in a fixed order, and that order is part of
every report: reports carry the digest and the params of each sampled
input, so reordering two draws changes the bytes of every report that
contains the chain.  Call ``sample`` and ``build`` only through their
``ChainSpec``; perfbench's tracer counts calls there and checks the count
against cProfile.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import reduce

from .chains import CHAIN, ENTRYWISE, EQUALITY, ChainInputs, ChainSpec, Part
from .ensembles import (
    sample_alpha_at_least,
    sample_beta,
    sample_family,
    sample_matrix,
    sample_weights_ge_one,
)
from .errors import DomainError, InputFormatError
from .families import _pow0
from .jsr import (
    gamma_level_max,
    gamma_set_bracket,
    gen_radius_lb,
    norm_level_max,
    norm_set_bracket,
    oracle_set_lb,
)
from .matrices import FiniteMatrix, WeightVector
from .sets import (
    OperatorSet,
    set_adjoint,
    set_hadamard_mean,
    set_hadamard_power,
    set_power,
    set_product,
    set_product_many,
    set_sum_many,
    symmetrization,
    weighted_geometric_mean,
)
from .spectral import (
    _ROUND_GUARD,
    Bracket,
    essential_spectral_radius,
    hausdorff_mnc,
    operator_norm,
    spectral_radius,
)


# ---------------------------------------------------------------------------
# term builders


def _fin_term(factors, u: int) -> Bracket:
    """Product of finite set radii, all bounded at one underlying depth.

    ``factors`` is a list of (set, power, sigma) where sigma counts how
    many base factors one element of the set embodies.  Evaluating every
    term of a part at the same underlying depth u keeps the upper bounds
    comparable: entrywise domination of matched products transfers to the
    norm maxima, so theorem-ordered terms stay ordered.
    """
    hi = 1.0
    lo = 1.0
    for S, p, sigma in factors:
        d = max(1, u // sigma)
        hi *= _pow0(norm_level_max(S, d), p / d)
        lo *= _pow0(gen_radius_lb(S, d), p)
    hi *= 1 + _ROUND_GUARD
    return Bracket(min(lo, hi), hi, "set-depth-ub/gen-lb")


def _ess_term(factors) -> Bracket:
    """Product of essential set radii of family sets.

    The upper end is the largest noncompactness measure over the set
    (certified for the joint essential radius, which dominates the
    generalized one).  Longer products cannot tighten it: gamma is
    multiplicative on banded families, so the depth-d root of the depth-d
    maximum equals the depth-1 maximum.  The lower end lifts per-element
    oracle values.
    """
    hi = 1.0
    lo = 1.0
    for S, p in factors:
        hi *= _pow0(gamma_level_max(S), p)
        lo *= _pow0(oracle_set_lb(S), p)
    hi *= 1 + _ROUND_GUARD
    return Bracket(min(lo, hi), hi, "ess-set-gamma-ub/oracle-lb")


def _bprod(brackets, powers) -> Bracket:
    lo = 1.0
    hi = 1.0
    conv = True
    for b, p in zip(brackets, powers):
        lo *= _pow0(b.lo, p)
        hi *= _pow0(b.hi, p)
        conv = conv and b.converged
    return Bracket(min(lo, hi), hi * (1 + _ROUND_GUARD), "product", conv)


# ---------------------------------------------------------------------------
# structural helpers


def _mean(items, alphas):
    """Hadamard weighted geometric mean of single matrices or families."""
    return weighted_geometric_mean(items, WeightVector.of(*alphas))


def _prod(items):
    return reduce(lambda a, b: a @ b, items)


def _smean(sets, alphas) -> OperatorSet:
    return set_hadamard_mean(sets, WeightVector.of(*alphas))


def _cyclic(seq, j):
    return list(seq[j:]) + list(seq[:j])


def _word_set(sets, pattern) -> OperatorSet:
    """Ordered product of sets, starring (adjoining) marked positions.

    pattern: list of (index, star) pairs into ``sets``.
    """
    parts = [set_adjoint(sets[i]) if star else sets[i] for i, star in pattern]
    return set_product_many(parts)


# ---------------------------------------------------------------------------
# sampling helpers


def _mats(rng, ens, count):
    return tuple(sample_matrix(rng, ens) for _ in range(count))


def _fams(rng, ens, count, offset=1):
    return tuple(sample_family(rng, ens, offset=offset) for _ in range(count))


def _mat_set(rng, ens, size=2):
    return OperatorSet([sample_matrix(rng, ens) for _ in range(size)])


def _fam_set(rng, ens, size=1, offset=1):
    return OperatorSet([sample_family(rng, ens, offset=offset) for _ in range(size)])


def _pick_offset(rng, ens) -> int:
    """Band offset consistent with the ensemble kind; mixed kinds vary it."""
    if ens.kind == "diagonal_family":
        return 0
    if ens.kind in ("shift_family", "shift_plus_rank"):
        return 1
    return 1 if rng.random() < 0.7 else 0


def _set_size_for(m: int) -> int:
    return 2 if m <= 2 else 1


def _perm(rng, m):
    return tuple(int(x) for x in rng.permutation(m))


# ---------------------------------------------------------------------------
# declarations: typed params, operand counts, and the shared validator

_SLACK = 1e-12


def _is_int(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _is_real(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)


@dataclass(frozen=True)
class _Int:
    """Integer param >= low, optionally odd or even."""

    name: str
    low: int = 1
    parity: str = ""  # "" | "odd" | "even"

    def doc(self) -> str:
        kind = f"{self.parity} integer" if self.parity else "integer"
        return f"{kind} {self.name} >= {self.low}"

    def holds(self, v, params) -> bool:
        return (_is_int(v) and v >= self.low
                and (not self.parity or (v % 2 == 1) == (self.parity == "odd")))


@dataclass(frozen=True)
class _Real:
    """Finite real param in [low, high], or in (low, high) when open."""

    name: str
    low: float
    high: float = math.inf
    open: bool = False

    def doc(self) -> str:
        if self.high == math.inf:
            return f"real {self.name} {'>' if self.open else '>='} {self.low:g}"
        lb, rb = "()" if self.open else "[]"
        return f"real {self.name} in {lb}{self.low:g}, {self.high:g}{rb}"

    def holds(self, v, params) -> bool:
        if not _is_real(v):
            return False
        if self.open:
            return self.low < v < self.high
        return self.low <= v <= self.high


@dataclass(frozen=True)
class _Alpha:
    """Real exponent >= num/den, where den is an integer or the param m.

    num/den is rounded (1/3, 1/m), so the bound is checked with 1e-12 slack.
    """

    name: str
    num: int
    den: int | str = "m"

    def doc(self) -> str:
        return f"real {self.name} >= {self.num}/{self.den}"

    def holds(self, v, params) -> bool:
        den = params["m"] if self.den == "m" else self.den
        return _is_real(v) and v >= self.num / den - _SLACK


@dataclass(frozen=True)
class _Weights:
    """m positive finite reals whose sum is at least 1."""

    name: str

    def doc(self) -> str:
        return f"{self.name}: m positive weights with sum >= 1"

    def holds(self, v, params) -> bool:
        return (isinstance(v, (list, tuple)) and len(v) == params["m"]
                and all(_is_real(a) and a > 0 for a in v) and sum(v) >= 1.0 - _SLACK)


@dataclass(frozen=True)
class _Perm:
    """A permutation of 0..m-1."""

    name: str

    def doc(self) -> str:
        return f"{self.name}: a permutation of 0..m-1"

    def holds(self, v, params) -> bool:
        return (isinstance(v, (list, tuple)) and len(v) == params["m"]
                and all(_is_int(x) for x in v) and sorted(v) == list(range(len(v))))


# declared operand kind -> (ChainInputs field, suffix of the catalog count)
_OPERANDS = {
    "matrices": ("matrices", ""),
    "vectors": ("matrices", " column vectors"),
    "families": ("families", ""),
    "matrix_sets": ("matrix_sets", ""),
    "family_sets": ("family_sets", ""),
}
_FIELDS = ("matrices", "families", "matrix_sets", "family_sets")


def _count(expr, params) -> int:
    """Evaluate an operand count: an int or a sum of products ("m + k*m")."""
    if isinstance(expr, int):
        return expr
    return sum(math.prod(int(f) if f.isdigit() else params[f] for f in term.split("*"))
               for term in expr.replace(" ", "").split("+"))


def _violation(inputs, operands, params, check) -> str | None:
    """Why ``inputs`` do not meet a declaration, or None when they do."""
    values = inputs.params
    for p in params:
        v = values.get(p.name)
        if not p.holds(v, values):
            return f"needs {p.doc()}, got {v!r}"
    want = dict.fromkeys(_FIELDS, 0)
    for kind, expr in operands.items():
        want[_OPERANDS[kind][0]] = _count(expr, values)
    for name, n in want.items():
        got = len(getattr(inputs, name))
        if got != n:
            return f"needs exactly {n} {name.replace('_', ' ')}, got {got}"
    if "matrices" in operands and not all(m.is_square for m in inputs.matrices):
        return "matrices must be square"
    return check(inputs) if check is not None else None


def _chain(cid, title, level, description, hypothesis_doc, operands, params,
           sample, build, check=None) -> ChainSpec:
    """A ChainSpec whose arity and hypothesis derive from one declaration."""
    arity = {}
    for kind, n in operands.items():
        field, suffix = _OPERANDS[kind]
        arity[field] = f"{n}{suffix}" if suffix else n
    if params:
        arity["params"] = [p.name for p in params]

    def hypothesis(inputs):
        return _violation(inputs, operands, params, check)

    return ChainSpec(cid, title, level, description, arity, hypothesis_doc,
                     sample, hypothesis, build)


# ---------------------------------------------------------------------------
# finite-level chains


def _pair_sample(rng, ens):
    return ChainInputs(matrices=_mats(rng, ens, 2))


def _zhan(middle_terms):
    """Build of a Zhan-style chain: rho(A o B) <= middle terms <= rho(AB)."""

    def build(inputs, ctx):
        a, b = inputs.matrices
        terms = [("rho(A o B)", spectral_radius(a.hadamard(b)))]
        terms += middle_terms(a, b)
        terms.append(("rho(AB)", spectral_radius(a @ b)))
        return [Part("chain", CHAIN, terms)]

    return build


def _f2_mid(a, b):
    return [("rho((AoA)(BoB))^1/2",
             spectral_radius(a.hadamard(a) @ b.hadamard(b)).power(0.5))]


def _f3_mid(a, b):
    return [("rho(AB o BA)^1/2",
             spectral_radius((a @ b).hadamard(b @ a)).power(0.5))]


def _f4_sample(rng, ens):
    m = int(rng.integers(1, 4))
    return ChainInputs(matrices=_mats(rng, ens, m), params={"m": m})


def _f4_build(inputs, ctx):
    mats = inputs.matrices
    return [Part("chain", CHAIN, [
        ("rho(A1 o ... o Am)", spectral_radius(_mean(mats, [1.0] * len(mats)))),
        ("rho(A1 ... Am)", spectral_radius(_prod(mats))),
    ])]


def _f5_mid(a, b):
    return [
        ("rho((AoA)(BoB))^1/2", spectral_radius(a.hadamard(a) @ b.hadamard(b)).power(0.5)),
        ("rho(AB o AB)^1/2", spectral_radius((a @ b).hadamard(a @ b)).power(0.5)),
    ]


def _f6_sample(rng, ens):
    return ChainInputs(matrices=_mats(rng, ens, 2),
                       params={"beta": sample_beta(rng)})


def _f6_build(inputs, ctx):
    a, b = inputs.matrices
    beta = inputs.params["beta"]
    ab, ba = a @ b, b @ a
    return [Part("chain", CHAIN, [
        ("rho(A o B)", spectral_radius(a.hadamard(b))),
        ("rho((AoA)(BoB))^1/2", spectral_radius(a.hadamard(a) @ b.hadamard(b)).power(0.5)),
        ("rho(ABoAB)^b/2 rho(BAoBA)^(1-b)/2",
         _bprod([spectral_radius(ab.hadamard(ab)), spectral_radius(ba.hadamard(ba))],
                [beta / 2, (1 - beta) / 2])),
        ("rho(AB)", spectral_radius(ab)),
    ])]


def _f7_mid(a, b):
    ab, ba = a @ b, b @ a
    return [
        ("rho(AB o BA)^1/2", spectral_radius(ab.hadamard(ba)).power(0.5)),
        ("rho(ABoAB)^1/4 rho(BAoBA)^1/4",
         _bprod([spectral_radius(ab.hadamard(ab)), spectral_radius(ba.hadamard(ba))],
                [0.25, 0.25])),
    ]


def _f8_sample(rng, ens):
    k = int(rng.integers(1, 4))
    m = int(rng.integers(1, 4))
    alphas = sample_weights_ge_one(rng, m)
    return ChainInputs(matrices=_mats(rng, ens, k * m),
                       params={"k": k, "m": m, "alphas": alphas})


def _f8_build(inputs, ctx):
    k, m = inputs.params["k"], inputs.params["m"]
    alphas = list(inputs.params["alphas"])
    grid = [list(inputs.matrices[i * m:(i + 1) * m]) for i in range(k)]
    a = _prod([_mean(row, alphas) for row in grid])
    cols = [_prod([grid[i][j] for i in range(k)]) for j in range(m)]
    mid = _mean(cols, alphas)
    return [
        Part("entrywise", ENTRYWISE, [("row-mean product", a), ("mean of column products", mid)]),
        Part("norms", CHAIN, [
            ("|A|", operator_norm(a)),
            ("|mean of col products|", operator_norm(mid)),
            ("prod |col product|^a_j", _bprod([operator_norm(c) for c in cols], alphas)),
        ]),
        Part("radii", CHAIN, [
            ("rho(A)", spectral_radius(a)),
            ("rho(mean of col products)", spectral_radius(mid)),
            ("prod rho(col product)^a_j", _bprod([spectral_radius(c) for c in cols], alphas)),
        ]),
    ]


def _f9_sample(rng, ens):
    m = int(rng.integers(1, 4))
    alphas = sample_weights_ge_one(rng, m)
    t = 1.0 + 2.0 * rng.random()
    return ChainInputs(matrices=_mats(rng, ens, m),
                       params={"m": m, "alphas": alphas, "t": t})


def _f9_build(inputs, ctx):
    mats = inputs.matrices
    alphas = list(inputs.params["alphas"])
    t = inputs.params["t"]
    mean = _mean(mats, alphas)
    powprod = _prod([x.hpow(t) for x in mats])
    prod = _prod(mats)
    return [
        Part("mean-norm", CHAIN, [
            ("|mean|", operator_norm(mean)),
            ("prod |A_j|^a_j", _bprod([operator_norm(x) for x in mats], alphas)),
        ]),
        Part("mean-radius", CHAIN, [
            ("rho(mean)", spectral_radius(mean)),
            ("prod rho(A_j)^a_j", _bprod([spectral_radius(x) for x in mats], alphas)),
        ]),
        Part("power-entrywise", ENTRYWISE, [
            ("A1^(t) ... Am^(t)", powprod),
            ("(A1 ... Am)^(t)", prod.hpow(t)),
        ]),
        Part("power-radius", CHAIN, [
            ("rho(A1^(t)...Am^(t))", spectral_radius(powprod)),
            ("rho(A1...Am)^t", spectral_radius(prod).power(t)),
        ]),
        Part("power-norm", CHAIN, [
            ("|A1^(t)...Am^(t)|", operator_norm(powprod)),
            ("|A1...Am|^t", operator_norm(prod).power(t)),
        ]),
    ]


def _f10_sample(rng, ens):
    t = 1.0 + 2.0 * rng.random()
    return ChainInputs(matrices=_mats(rng, ens, 1), params={"t": t})


def _f10_build(inputs, ctx):
    a = inputs.matrices[0]
    t = inputs.params["t"]
    s = a.entry_sup()
    c = _pow0(s, t - 1.0)
    return [
        Part("entrywise", ENTRYWISE, [
            ("A^(t)", a.hpow(t)),
            ("sup^(t-1) A", a.scale(c)),
        ]),
        Part("norm", CHAIN, [
            ("|A^(t)|", operator_norm(a.hpow(t))),
            ("sup^(t-1)|A|", operator_norm(a).scaled(c)),
        ]),
        Part("radius", CHAIN, [
            ("rho(A^(t))", spectral_radius(a.hpow(t))),
            ("sup^(t-1) rho(A)", spectral_radius(a).scaled(c)),
        ]),
    ]


def _f11_sample(rng, ens):
    m = 2 if rng.random() < 0.7 else 3
    size = _set_size_for(m)
    n = int(rng.integers(1, 3))
    alphas = sample_weights_ge_one(rng, m)
    t = 1.0 + 2.0 * rng.random()
    sets = tuple(_mat_set(rng, ens, size) for _ in range(m))
    return ChainInputs(matrix_sets=sets,
                       params={"m": m, "n": n, "alphas": alphas, "t": t})


def _f11_build(inputs, ctx):
    sets = list(inputs.matrix_sets)
    m = inputs.params["m"]
    n = inputs.params["n"]
    t = inputs.params["t"]
    alphas = list(inputs.params["alphas"])
    uniform = [1.0 / m] * m
    mean = _smean(sets, alphas)
    mean_n = _smean([set_power(s, n) for s in sets], alphas)
    un = n * ctx.set_m_max
    um = m * ctx.set_m_max
    return [
        Part("set-mean", CHAIN, [
            ("r(mean)", _fin_term([(mean, 1.0, 1)], un)),
            ("r(mean of n-powers)^1/n", _fin_term([(mean_n, 1.0 / n, n)], un)),
            ("prod r(S_j)^a_j", _fin_term([(s, a, 1) for s, a in zip(sets, alphas)], un)),
        ]),
        Part("geometric-mean-vs-product", CHAIN, [
            ("r(uniform mean)", _fin_term([(_smean(sets, uniform), 1.0, 1)], um)),
            ("r(S1...Sm)^1/m", _fin_term([(set_product_many(sets), 1.0 / m, m)], um)),
        ]),
        Part("set-power", CHAIN, [
            ("r(S^(t))", _fin_term([(set_hadamard_power(sets[0], t), 1.0, 1)], un)),
            ("r((S^n)^(t))^1/n",
             _fin_term([(set_hadamard_power(set_power(sets[0], n), t), 1.0 / n, n)], un)),
            ("r(S)^t", _fin_term([(sets[0], t, 1)], un)),
        ]),
    ]


def _f12_sample(rng, ens):
    k = int(rng.integers(1, 4))
    m = int(rng.integers(1, 4))
    d = int(rng.integers(2, 6))
    alphas = sample_weights_ge_one(rng, m)
    vecs = tuple(FiniteMatrix(rng.random((d, 1))) for _ in range(k * m))
    return ChainInputs(matrices=vecs, params={"k": k, "m": m, "alphas": alphas})


def _f12_build(inputs, ctx):
    k, m = inputs.params["k"], inputs.params["m"]
    alphas = list(inputs.params["alphas"])
    grid = [list(inputs.matrices[i * m:(i + 1) * m]) for i in range(k)]
    lhs = reduce(lambda a, b: a + b, [_mean(row, alphas) for row in grid])
    colsums = [reduce(lambda a, b: a + b, [grid[i][j] for i in range(k)])
               for j in range(m)]
    rhs = _mean(colsums, alphas)
    return [Part("entrywise", ENTRYWISE, [
        ("sum of row means", lhs), ("mean of column sums", rhs)])]


def _f13_sample(rng, ens):
    return ChainInputs(matrix_sets=(_mat_set(rng, ens, 2),))


def _f13_build(inputs, ctx):
    s = inputs.matrix_sets[0]
    sstar = set_adjoint(s)
    u = 2 * ctx.set_m_max
    return [Part("norm-identity", EQUALITY, [
        ("sup |T|", norm_set_bracket(s)),
        ("r(S*S)^1/2", _fin_term([(set_product(sstar, s), 0.5, 2)], u)),
        ("r(SS*)^1/2", _fin_term([(set_product(s, sstar), 0.5, 2)], u)),
    ])]


def _f14_sample(rng, ens):
    return ChainInputs(matrix_sets=(_mat_set(rng, ens, 2), _mat_set(rng, ens, 2)),
                       params={"beta": sample_beta(rng, open_interval=True)})


def _f14_build(inputs, ctx):
    p, q = inputs.matrix_sets
    beta = inputs.params["beta"]
    pq = set_product(p, q)
    qp = set_product(q, p)
    u = 2 * ctx.set_m_max
    return [Part("beta-split", CHAIN, [
        ("r(P o Q)", _fin_term([(_smean([p, q], [1.0, 1.0]), 1.0, 1)], u)),
        ("r(PQ o QP)^1/2", _fin_term([(_smean([pq, qp], [1.0, 1.0]), 0.5, 2)], u)),
        ("r((PQ)^(1/b))^b/2 r((QP)^(1/(1-b)))^(1-b)/2",
         _fin_term([(set_hadamard_power(pq, 1 / beta), beta / 2, 2),
                    (set_hadamard_power(qp, 1 / (1 - beta)), (1 - beta) / 2, 2)], u)),
        ("r(PQ)", _fin_term([(pq, 1.0, 2)], u)),
    ])]


def _f15_sample(rng, ens):
    m = int(rng.integers(2, 4))
    return ChainInputs(matrices=_mats(rng, ens, m), params={"m": m})


def _f15_build(inputs, ctx):
    mats = list(inputs.matrices)
    m = inputs.params["m"]
    uniform = [1.0 / m] * m
    cyc = [_prod(_cyclic(mats, j)) for j in range(m)]
    return [Part("cyclic-mean", CHAIN, [
        ("rho(mean(A_j))", spectral_radius(_mean(mats, uniform))),
        ("rho(mean(P_j))^1/m", spectral_radius(_mean(cyc, uniform)).power(1.0 / m)),
        ("rho(A1...Am)^1/m", spectral_radius(_prod(mats)).power(1.0 / m)),
    ])]


def _f16_build(inputs, ctx):
    a, b = inputs.matrices
    astar_b = a.adjoint() @ b
    bstar_a = b.adjoint() @ a
    return [
        Part("norm-chain", CHAIN, [
            ("|A^(1/2) o B^(1/2)|", operator_norm(_mean([a, b], [0.5, 0.5]))),
            ("rho((A*B)^(1/2) o (B*A)^(1/2))^1/2",
             spectral_radius(_mean([astar_b, bstar_a], [0.5, 0.5])).power(0.5)),
            ("rho(A*B)^1/2", spectral_radius(astar_b).power(0.5)),
        ]),
        Part("star-swap", EQUALITY, [
            ("rho(A*B)", spectral_radius(astar_b)),
            ("rho(AB*)", spectral_radius(a @ b.adjoint())),
        ]),
    ]


# ---------------------------------------------------------------------------
# essential-level chains


def _e1_sample(rng, ens):
    m = int(rng.integers(1, 4))
    off = _pick_offset(rng, ens)
    fams = _fams(rng, ens, m + 1, offset=off)
    t = 1.0 + 2.0 * rng.random()
    return ChainInputs(families=fams, params={"m": m, "t": t})


def _e1_build(inputs, ctx):
    t = inputs.params["t"]
    a = inputs.families[0]
    mats = list(inputs.families[1:])
    s = a.entry_sup()
    c = _pow0(s, t - 1.0)
    powprod = _prod([x.hpow(t) for x in mats])
    prod = _prod(mats)
    return [
        Part("gamma-power", CHAIN, [
            ("gamma(A^(t))", hausdorff_mnc(a.hpow(t))),
            ("gamma(A)^t", hausdorff_mnc(a).power(t)),
        ]),
        Part("ess-power", CHAIN, [
            ("ess(A^(t))", essential_spectral_radius(a.hpow(t))),
            ("ess(A)^t", essential_spectral_radius(a).power(t)),
        ]),
        Part("gamma-product-power", CHAIN, [
            ("gamma(A1^(t)...Am^(t))", hausdorff_mnc(powprod)),
            ("gamma(A1...Am)^t", hausdorff_mnc(prod).power(t)),
        ]),
        Part("ess-product-power", CHAIN, [
            ("ess(A1^(t)...Am^(t))", essential_spectral_radius(powprod)),
            ("ess(A1...Am)^t", essential_spectral_radius(prod).power(t)),
        ]),
        Part("gamma-sup-scaling", CHAIN, [
            ("gamma(A^(t))", hausdorff_mnc(a.hpow(t))),
            ("sup^(t-1) gamma(A)", hausdorff_mnc(a).scaled(c)),
        ]),
        Part("ess-sup-scaling", CHAIN, [
            ("ess(A^(t))", essential_spectral_radius(a.hpow(t))),
            ("sup^(t-1) ess(A)", essential_spectral_radius(a).scaled(c)),
        ]),
    ]


def _e2_sample(rng, ens):
    m = int(rng.integers(1, 4))
    off = _pick_offset(rng, ens)
    alphas = sample_weights_ge_one(rng, m)
    return ChainInputs(families=_fams(rng, ens, m, offset=off),
                       params={"m": m, "alphas": alphas})


def _e2_build(inputs, ctx):
    mats = list(inputs.families)
    alphas = list(inputs.params["alphas"])
    mean = _mean(mats, alphas)
    return [
        Part("gamma-mean", CHAIN, [
            ("gamma(mean)", hausdorff_mnc(mean)),
            ("prod gamma(A_j)^a_j", _bprod([hausdorff_mnc(x) for x in mats], alphas)),
        ]),
        Part("ess-mean", CHAIN, [
            ("ess(mean)", essential_spectral_radius(mean)),
            ("prod ess(A_j)^a_j", _bprod([essential_spectral_radius(x) for x in mats], alphas)),
        ]),
    ]


def _e3_sample(rng, ens):
    k = int(rng.integers(1, 3))
    m = int(rng.integers(1, 3))
    off = _pick_offset(rng, ens)
    alphas = sample_weights_ge_one(rng, m)
    return ChainInputs(families=_fams(rng, ens, k * m, offset=off),
                       params={"k": k, "m": m, "alphas": alphas})


def _e3_build(inputs, ctx):
    k, m = inputs.params["k"], inputs.params["m"]
    alphas = list(inputs.params["alphas"])
    grid = [list(inputs.families[i * m:(i + 1) * m]) for i in range(k)]
    a = _prod([_mean(row, alphas) for row in grid])
    cols = [_prod([grid[i][j] for i in range(k)]) for j in range(m)]
    mid = _mean(cols, alphas)
    return [
        Part("gamma-grid", CHAIN, [
            ("gamma(A)", hausdorff_mnc(a)),
            ("gamma(mean of col products)", hausdorff_mnc(mid)),
            ("prod gamma(col product)^a_j", _bprod([hausdorff_mnc(c) for c in cols], alphas)),
        ]),
        Part("ess-grid", CHAIN, [
            ("ess(A)", essential_spectral_radius(a)),
            ("ess(mean of col products)", essential_spectral_radius(mid)),
            ("prod ess(col product)^a_j",
             _bprod([essential_spectral_radius(c) for c in cols], alphas)),
        ]),
    ]


def _e4_sample(rng, ens):
    m = 2
    n = int(rng.integers(1, 3))
    k = 2
    off = _pick_offset(rng, ens)
    alphas = sample_weights_ge_one(rng, m)
    t = 1.0 + 2.0 * rng.random()
    sets = tuple(_fam_set(rng, ens, 2, offset=off) for _ in range(m))
    grid = tuple(_fam_set(rng, ens, 1, offset=off) for _ in range(k * m))
    return ChainInputs(family_sets=sets + grid,
                       params={"m": m, "n": n, "k": k, "alphas": alphas, "t": t})


def _e4_build(inputs, ctx):
    m, n, k = inputs.params["m"], inputs.params["n"], inputs.params["k"]
    alphas = list(inputs.params["alphas"])
    t = inputs.params["t"]
    sets = list(inputs.family_sets[:m])
    grid = [list(inputs.family_sets[m + i * m: m + (i + 1) * m]) for i in range(k)]
    mean = _smean(sets, alphas)
    mean_n = _smean([set_power(s, n) for s in sets], alphas)
    rowmeans = [_smean(row, alphas) for row in grid]
    cols = [set_product_many([grid[i][j] for i in range(k)]) for j in range(m)]
    colmean = _smean(cols, alphas)
    colmean_n = _smean([set_power(c, n) for c in cols], alphas)
    prod_all = set_product_many(sets)
    return [
        Part("set-mean", CHAIN, [
            ("r(mean)", _ess_term([(mean, 1.0)])),
            ("r(mean of n-powers)^1/n", _ess_term([(mean_n, 1.0 / n)])),
            ("prod r(S_j)^a_j", _ess_term([(s, a) for s, a in zip(sets, alphas)])),
        ]),
        Part("grid", CHAIN, [
            ("r(product of row means)", _ess_term([(set_product_many(rowmeans), 1.0)])),
            ("r(mean of col products)", _ess_term([(colmean, 1.0)])),
            ("r(mean of n-powered col products)^1/n",
             _ess_term([(colmean_n, 1.0 / n)])),
            ("prod r(col)^a_j", _ess_term([(c, a) for c, a in zip(cols, alphas)])),
        ]),
        Part("set-power", CHAIN, [
            ("r(prod of S_j^(t))",
             _ess_term([(set_product_many([set_hadamard_power(s, t) for s in sets]), 1.0)])),
            ("r((S1...Sm)^(t))", _ess_term([(set_hadamard_power(prod_all, t), 1.0)])),
            ("r(((S1...Sm)^n)^(t))^1/n",
             _ess_term([(set_hadamard_power(set_power(prod_all, n), t), 1.0 / n)])),
            ("r(S1...Sm)^t", _ess_term([(prod_all, t)])),
        ]),
    ]


def _e5_sample(rng, ens):
    k, m = 2, 2
    n = int(rng.integers(1, 3))
    off = _pick_offset(rng, ens)
    alphas = sample_weights_ge_one(rng, m)
    grid = tuple(_fam_set(rng, ens, 1, offset=off) for _ in range(k * m))
    return ChainInputs(family_sets=grid,
                       params={"k": k, "m": m, "n": n, "alphas": alphas})


def _e5_build(inputs, ctx):
    k, m, n = inputs.params["k"], inputs.params["m"], inputs.params["n"]
    alphas = list(inputs.params["alphas"])
    grid = [list(inputs.family_sets[i * m:(i + 1) * m]) for i in range(k)]
    rowmeans = [_smean(row, alphas) for row in grid]
    colsums = [set_sum_many([grid[i][j] for i in range(k)]) for j in range(m)]
    summean = _smean(colsums, alphas)
    summean_n = _smean([set_power(c, n) for c in colsums], alphas)
    return [Part("sum-of-means", CHAIN, [
        ("r(sum of row means)", _ess_term([(set_sum_many(rowmeans), 1.0)])),
        ("r(mean of column sums)", _ess_term([(summean, 1.0)])),
        ("r(mean of n-powered column sums)^1/n", _ess_term([(summean_n, 1.0 / n)])),
        ("prod r(col sum)^a_j",
         _ess_term([(c, a) for c, a in zip(colsums, alphas)])),
    ])]


def _e6_sample(rng, ens):
    m = 2
    size = 2 if rng.random() < 0.5 else 1
    s = 1.0 + 0.6 * rng.random()
    beta = min(sample_beta(rng), s)
    alpha = s - beta
    n = int(rng.integers(1, 3))
    sets = tuple(_fam_set(rng, ens, size, offset=_pick_offset(rng, ens)) for _ in range(m))
    psi = _fam_set(rng, ens, size, offset=_pick_offset(rng, ens))
    return ChainInputs(family_sets=(psi,) + sets,
                       params={"m": m, "n": n, "alpha": alpha, "beta": beta,
                               "size": size})


def _e6_check(inputs):
    if inputs.params["alpha"] + inputs.params["beta"] < 1.0 - _SLACK:
        return "symmetrization needs alpha + beta >= 1"
    return None


def _e6_build(inputs, ctx):
    m, n = inputs.params["m"], inputs.params["n"]
    a, b = inputs.params["alpha"], inputs.params["beta"]
    psi = inputs.family_sets[0]
    sets = list(inputs.family_sets[1:])
    fwd = set_product_many(sets)
    rev = set_product_many(list(reversed(sets)))
    sym_prod = set_product_many([symmetrization(s, a, b) for s in sets])
    sums = set_sum_many(sets)
    parts = [
        Part("product-of-symmetrizations", CHAIN, [
            ("r(S(P1)...S(Pm))", _ess_term([(sym_prod, 1.0)])),
            ("r((P1..Pm)^(a) o ((Pm..P1)*)^(b))",
             _ess_term([(symmetrization(fwd, a, b, rev), 1.0)])),
            ("r(n-powered cross)^1/n",
             _ess_term([(symmetrization(set_power(fwd, n), a, b, set_power(rev, n)),
                              1.0 / n)])),
            ("r(P1..Pm)^a r(Pm..P1)^b", _ess_term([(fwd, a), (rev, b)])),
        ]),
        Part("single-set", CHAIN, [
            ("r(S(P))", _ess_term([(symmetrization(psi, a, b), 1.0)])),
            ("r(S(P^n))^1/n", _ess_term([(symmetrization(set_power(psi, n), a, b), 1.0 / n)])),
            ("r(P)^(a+b)", _ess_term([(psi, a + b)])),
        ]),
        Part("sums", CHAIN, [
            ("r(S(P1)+...+S(Pm))",
             _ess_term([(set_sum_many([symmetrization(s, a, b) for s in sets]), 1.0)])),
            ("r(S(P1+...+Pm))", _ess_term([(symmetrization(sums, a, b), 1.0)])),
            ("r(S((P1+...+Pm)^n))^1/n",
             _ess_term([(symmetrization(set_power(sums, n), a, b), 1.0 / n)])),
            ("r(P1+...+Pm)^(a+b)", _ess_term([(sums, a + b)])),
        ]),
        Part("pair-product", CHAIN, [
            ("r(S(P1)S(P2))",
             _ess_term([(set_product(symmetrization(sets[0], a, b),
                                          symmetrization(sets[1], a, b)), 1.0)])),
            ("r((P1P2)^(a) o ((P2P1)*)^(b))",
             _ess_term([(symmetrization(set_product(sets[0], sets[1]), a, b,
                                             set_product(sets[1], sets[0])), 1.0)])),
            ("r(P1P2)^(a+b)", _ess_term([(set_product(sets[0], sets[1]), a + b)])),
        ]),
    ]
    n_levels = 4 if len(psi) == 1 else 2
    ladder = []
    for lv in range(n_levels + 1):
        p = 2 ** lv
        ladder.append((f"r(S(P^{p}))^(1/{p})",
                       _ess_term([(symmetrization(set_power(psi, p), a, b), 1.0 / p)])))
    ladder.append(("r(P)^(a+b)", _ess_term([(psi, a + b)])))
    parts.append(Part("dyadic-ladder", CHAIN, ladder))
    return parts


def _e7_sample(rng, ens):
    m = int(rng.integers(2, 4))
    size = _set_size_for(m)
    alpha = 1.0 + 0.01 + 2.0 * rng.random()
    n = int(rng.integers(1, 3))
    return ChainInputs(family_sets=(_fam_set(rng, ens, size, offset=_pick_offset(rng, ens)),),
                       params={"m": m, "n": n, "alpha": alpha})


def _e7_build(inputs, ctx):
    m, n, alpha = inputs.params["m"], inputs.params["n"], inputs.params["alpha"]
    psi = inputs.family_sets[0]
    psin = set_power(psi, n)
    ones = [1.0] * m
    return [
        Part("integer-power", CHAIN, [
            ("r(P^(m))", _ess_term([(set_hadamard_power(psi, float(m)), 1.0)])),
            ("r(P o ... o P)", _ess_term([(_smean([psi] * m, ones), 1.0)])),
            ("r(P^n o ... o P^n)^1/n", _ess_term([(_smean([psin] * m, ones), 1.0 / n)])),
            ("r(P)^m", _ess_term([(psi, float(m))])),
        ]),
        Part("real-power", CHAIN, [
            ("r(P^(a))", _ess_term([(set_hadamard_power(psi, alpha), 1.0)])),
            ("r(P^(a-1) o P)",
             _ess_term([(_smean([set_hadamard_power(psi, alpha - 1), psi], [1.0, 1.0]), 1.0)])),
            ("r((P^n)^(a-1) o P^n)^1/n",
             _ess_term([(_smean([set_hadamard_power(psin, alpha - 1), psin], [1.0, 1.0]),
                              1.0 / n)])),
            ("r(P)^a", _ess_term([(psi, alpha)])),
        ]),
    ]


def _e8_sample(rng, ens):
    m = 2 if rng.random() < 0.7 else 3
    size = _set_size_for(m)
    alpha = sample_alpha_at_least(rng, 1.0 / m)
    if rng.random() < 0.4:
        alpha = max(alpha, 1.0 + rng.random())
    n = int(rng.integers(1, 3))
    off = _pick_offset(rng, ens)
    sets = tuple(_fam_set(rng, ens, size, offset=off) for _ in range(m))
    return ChainInputs(family_sets=sets, params={"m": m, "n": n, "alpha": alpha})


def _e8_build(inputs, ctx):
    m, n, alpha = inputs.params["m"], inputs.params["n"], inputs.params["alpha"]
    sets = list(inputs.family_sets)
    am = alpha * m
    alphas = [alpha] * m
    phis = [set_product_many(_cyclic(sets, j)) for j in range(m)]
    powered = [set_hadamard_power(s, am) for s in sets]
    sigmas = [set_product_many(_cyclic(powered, j)) for j in range(m)]
    prod_all = set_product_many(sets)
    powprod = set_product_many(powered)
    lhs = ("r(mean_a(P_j))", _ess_term([(_smean(sets, alphas), 1.0)]))
    parts = [
        Part("cyclic", CHAIN, [
            lhs,
            ("r(mean_a(Phi_j))^1/m", _ess_term([(_smean(phis, alphas), 1.0 / m)])),
            ("r(mean_a(Phi_j^n))^1/mn",
             _ess_term([(_smean([set_power(p, n) for p in phis], alphas), 1.0 / (m * n))])),
            ("r(P1...Pm)^a", _ess_term([(prod_all, alpha)])),
        ]),
        Part("power-route", CHAIN, [
            lhs,
            ("r(P1^(am)...Pm^(am))^1/m", _ess_term([(powprod, 1.0 / m)])),
            ("r((P1...Pm)^(am))^1/m",
             _ess_term([(set_hadamard_power(prod_all, am), 1.0 / m)])),
            ("r(((P1...Pm)^n)^(am))^1/nm",
             _ess_term([(set_hadamard_power(set_power(prod_all, n), am), 1.0 / (n * m))])),
            ("r(P1...Pm)^a", _ess_term([(prod_all, alpha)])),
        ]),
        Part("sigma-route", CHAIN, [
            lhs,
            ("r(mean_1/m(Sig_j))^1/m",
             _ess_term([(_smean(sigmas, [1.0 / m] * m), 1.0 / m)])),
            ("r(mean_1/m(Sig_j^n))^1/mn",
             _ess_term([(_smean([set_power(s, n) for s in sigmas], [1.0 / m] * m),
                              1.0 / (m * n))])),
            ("r(P1^(am)...Pm^(am))^1/m", _ess_term([(powprod, 1.0 / m)])),
            ("r((P1...Pm)^(am))^1/m",
             _ess_term([(set_hadamard_power(prod_all, am), 1.0 / m)])),
            ("r(P1...Pm)^a", _ess_term([(prod_all, alpha)])),
        ]),
    ]
    if alpha >= 1.0:
        parts.append(Part("interleaved", CHAIN, [
            lhs,
            ("r(mean_a(Phi_j))^1/m", _ess_term([(_smean(phis, alphas), 1.0 / m)])),
            ("prod r((Phi_j^n)^(m))^(a/m^2 n)",
             _ess_term([(set_hadamard_power(set_power(p, n), float(m)),
                              alpha / (m * m * n)) for p in phis])),
            ("r(P1...Pm)^a", _ess_term([(prod_all, alpha)])),
        ]))
    return parts


def _e9_sample(rng, ens):
    off = _pick_offset(rng, ens)
    sets = (_fam_set(rng, ens, 2, offset=off), _fam_set(rng, ens, 2, offset=off))
    return ChainInputs(family_sets=sets,
                       params={"beta": sample_beta(rng),
                               "beta_open": sample_beta(rng, open_interval=True)})


def _e9_build(inputs, ctx):
    p, q = inputs.family_sets
    beta = inputs.params["beta"]
    bo = inputs.params["beta_open"]
    pq = set_product(p, q)
    qp = set_product(q, p)
    lhs = ("r(P o Q)", _ess_term([(_smean([p, q], [1.0, 1.0]), 1.0)]))
    return [
        Part("squares-route", CHAIN, [
            lhs,
            ("r(P^(2) Q^(2))^1/2",
             _ess_term([(set_product(set_hadamard_power(p, 2.0),
                                          set_hadamard_power(q, 2.0)), 0.5)])),
            ("r((PoP)(QoQ))^1/2",
             _ess_term([(set_product(_smean([p, p], [1.0, 1.0]),
                                          _smean([q, q], [1.0, 1.0])), 0.5)])),
            ("r(PQoPQ)^b/2 r(QPoQP)^(1-b)/2",
             _ess_term([(_smean([pq, pq], [1.0, 1.0]), beta / 2),
                             (_smean([qp, qp], [1.0, 1.0]), (1 - beta) / 2)])),
            ("r(PQ)", _ess_term([(pq, 1.0)])),
        ]),
        Part("cross-route", CHAIN, [
            lhs,
            ("r(PQ o QP)^1/2", _ess_term([(_smean([pq, qp], [1.0, 1.0]), 0.5)])),
            ("r((PQ)^(2))^1/4 r((QP)^(2))^1/4",
             _ess_term([(set_hadamard_power(pq, 2.0), 0.25),
                             (set_hadamard_power(qp, 2.0), 0.25)])),
            ("r(PQoPQ)^1/4 r(QPoQP)^1/4",
             _ess_term([(_smean([pq, pq], [1.0, 1.0]), 0.25),
                             (_smean([qp, qp], [1.0, 1.0]), 0.25)])),
            ("r(PQ)", _ess_term([(pq, 1.0)])),
        ]),
        Part("reciprocal-route", CHAIN, [
            lhs,
            ("r(PQ o QP)^1/2", _ess_term([(_smean([pq, qp], [1.0, 1.0]), 0.5)])),
            ("r((PQ)^(1/b))^b/2 r((QP)^(1/(1-b)))^(1-b)/2",
             _ess_term([(set_hadamard_power(pq, 1 / bo), bo / 2),
                             (set_hadamard_power(qp, 1 / (1 - bo)), (1 - bo) / 2)])),
            ("r(PQ)", _ess_term([(pq, 1.0)])),
        ]),
    ]


def _e10_sample(rng, ens):
    off = _pick_offset(rng, ens)
    fams = _fams(rng, ens, 2, offset=off)
    return ChainInputs(families=fams,
                       params={"beta": sample_beta(rng),
                               "beta_open": sample_beta(rng, open_interval=True)})


def _e10_build(inputs, ctx):
    a, b = inputs.families
    beta = inputs.params["beta"]
    bo = inputs.params["beta_open"]
    ab, ba = a @ b, b @ a
    return [
        Part("squares-route", CHAIN, [
            ("ess(A o B)", essential_spectral_radius(a.hadamard(b))),
            ("ess((AoA)(BoB))^1/2",
             essential_spectral_radius(a.hadamard(a) @ b.hadamard(b)).power(0.5)),
            ("ess(ABoAB)^b/2 ess(BAoBA)^(1-b)/2",
             _bprod([essential_spectral_radius(ab.hadamard(ab)),
                     essential_spectral_radius(ba.hadamard(ba))],
                    [beta / 2, (1 - beta) / 2])),
            ("ess(AB)", essential_spectral_radius(ab)),
        ]),
        Part("reciprocal-route", CHAIN, [
            ("ess(A o B)", essential_spectral_radius(a.hadamard(b))),
            ("ess(AB o BA)^1/2", essential_spectral_radius(ab.hadamard(ba)).power(0.5)),
            ("ess((AB)^(1/b))^b/2 ess((BA)^(1/(1-b)))^(1-b)/2",
             _bprod([essential_spectral_radius(ab.hpow(1 / bo)),
                     essential_spectral_radius(ba.hpow(1 / (1 - bo)))],
                    [bo / 2, (1 - bo) / 2])),
            ("ess(AB)", essential_spectral_radius(ab)),
        ]),
    ]


def _e11_sample(rng, ens):
    off = _pick_offset(rng, ens)
    alpha = sample_alpha_at_least(rng, 0.5)
    return ChainInputs(family_sets=(_fam_set(rng, ens, 2, offset=off),),
                       families=_fams(rng, ens, 1, offset=off),
                       params={"alpha": alpha})


def _e11_build(inputs, ctx):
    alpha = inputs.params["alpha"]
    psi = inputs.family_sets[0]
    a = inputs.families[0]
    pa = set_hadamard_power(psi, alpha)
    return [
        Part("set", CHAIN, [
            ("r(P^(a) o (P*)^(a))",
             _ess_term([(_smean([pa, set_adjoint(pa)], [1.0, 1.0]), 1.0)])),
            ("r(P^(a) o P^(a))", _ess_term([(_smean([pa, pa], [1.0, 1.0]), 1.0)])),
            ("r(P)^2a", _ess_term([(psi, 2 * alpha)])),
        ]),
        Part("singleton", CHAIN, [
            ("ess(A^(a) o (A*)^(a))",
             essential_spectral_radius(a.hpow(alpha).hadamard(a.adjoint().hpow(alpha)))),
            ("ess(A^(a) o A^(a))",
             essential_spectral_radius(a.hpow(alpha).hadamard(a.hpow(alpha)))),
            ("ess(A)^2a", essential_spectral_radius(a).power(2 * alpha)),
        ]),
    ]


def _e12_sample(rng, ens):
    t = sample_family(rng, ens, offset=_pick_offset(rng, ens))
    d = sample_family(rng, ens, offset=0, kind="diagonal_family")
    sigma = _fam_set(rng, ens, 2, offset=_pick_offset(rng, ens))
    return ChainInputs(families=(t, d), family_sets=(sigma,))


def _e12_check(inputs):
    bands = inputs.families[1].bands
    if len(bands) > 0 and set(bands) != {0}:
        return "second family must be diagonal (it plays the normal operator)"
    return None


def _e12_build(inputs, ctx):
    t, d = inputs.families
    sigma = inputs.family_sets[0]
    sstar = set_adjoint(sigma)
    tst = t.adjoint() @ t
    return [
        Part("star-square", EQUALITY, [
            ("ess(T*T)", essential_spectral_radius(tst)),
            ("gamma(T*T)", hausdorff_mnc(tst)),
            ("gamma(T)^2", hausdorff_mnc(t).power(2.0)),
        ]),
        Part("adjoint-gamma", EQUALITY, [
            ("gamma(T)", hausdorff_mnc(t)),
            ("gamma(T*)", hausdorff_mnc(t.adjoint())),
        ]),
        Part("normal-case", EQUALITY, [
            ("ess(D)", essential_spectral_radius(d)),
            ("gamma(D)", hausdorff_mnc(d)),
        ]),
        Part("set-star-identity", EQUALITY, [
            ("gamma(S)", gamma_set_bracket(sigma)),
            ("r(S*S)^1/2", _ess_term([(set_product(sstar, sigma), 0.5)])),
            ("r(SS*)^1/2", _ess_term([(set_product(sigma, sstar), 0.5)])),
        ]),
    ]


def _star_word_patterns(m: int):
    """(W1, W2) for even m: stars on even positions and its star-swap."""
    w1 = [(j, j % 2 == 0) for j in range(m)]
    w2 = [(j, j % 2 == 1) for j in range(m)]
    return w1, w2


def _long_word_pattern(m: int):
    """Length-2m pattern index p mod m, starred on odd positions (odd m)."""
    return [(p % m, p % 2 == 1) for p in range(2 * m)]


def _e13_sample(rng, ens):
    m = int(rng.integers(2, 5))
    size = _set_size_for(m)
    sets = tuple(_fam_set(rng, ens, size, offset=_pick_offset(rng, ens)) for _ in range(m))
    return ChainInputs(family_sets=sets, params={"m": m})


def _e13_build(inputs, ctx):
    m = inputs.params["m"]
    sets = list(inputs.family_sets)
    uniform = [1.0 / m] * m
    lhs = ("gamma(uniform mean)", gamma_set_bracket(_smean(sets, uniform)))
    if m % 2 == 0:
        w1, w2 = _star_word_patterns(m)
        rhs = ("(r(W) r(W-swap))^1/2m",
               _ess_term([(_word_set(sets, w1), 1.0 / (2 * m)),
                               (_word_set(sets, w2), 1.0 / (2 * m))]))
    else:
        rhs = ("r(long alternating word)^1/2m",
               _ess_term([(_word_set(sets, _long_word_pattern(m)), 1.0 / (2 * m))]))
    return [Part("mean-vs-word", CHAIN, [lhs, rhs])]


def _e14_sample(rng, ens):
    off = _pick_offset(rng, ens)
    sets = (_fam_set(rng, ens, 2, offset=off), _fam_set(rng, ens, 2, offset=off))
    fams = _fams(rng, ens, 2, offset=off)
    return ChainInputs(family_sets=sets, families=fams)


def _e14_build(inputs, ctx):
    p, q = inputs.family_sets
    a, b = inputs.families
    ps_q = set_product(set_adjoint(p), q)
    qs_p = set_product(set_adjoint(q), p)
    astar_b = a.adjoint() @ b
    bstar_a = b.adjoint() @ a
    return [
        Part("set", CHAIN, [
            ("gamma(P^(1/2) o Q^(1/2))", gamma_set_bracket(_smean([p, q], [0.5, 0.5]))),
            ("r((P*Q)^(1/2) o (Q*P)^(1/2))^1/2",
             _ess_term([(_smean([ps_q, qs_p], [0.5, 0.5]), 0.5)])),
            ("r(P*Q)^1/2", _ess_term([(ps_q, 0.5)])),
        ]),
        Part("set-star-swap", EQUALITY, [
            ("r(P*Q)", _ess_term([(ps_q, 1.0)])),
            ("r(PQ*)", _ess_term([(set_product(p, set_adjoint(q)), 1.0)])),
        ]),
        Part("singleton", CHAIN, [
            ("gamma(A^(1/2) o B^(1/2))", hausdorff_mnc(_mean([a, b], [0.5, 0.5]))),
            ("ess((A*B)^(1/2) o (B*A)^(1/2))^1/2",
             essential_spectral_radius(_mean([astar_b, bstar_a], [0.5, 0.5])).power(0.5)),
            ("ess(A*B)^1/2", essential_spectral_radius(astar_b).power(0.5)),
        ]),
        Part("singleton-star-swap", EQUALITY, [
            ("ess(A*B)", essential_spectral_radius(astar_b)),
            ("ess(AB*)", essential_spectral_radius(a @ b.adjoint())),
        ]),
    ]


def _e15_sample(rng, ens):
    m = int(rng.integers(2, 4))
    size = _set_size_for(m)
    alpha = sample_alpha_at_least(rng, 1.0 / m)
    alpha2 = sample_alpha_at_least(rng, 0.5)
    sets = tuple(_fam_set(rng, ens, size, offset=_pick_offset(rng, ens)) for _ in range(m))
    return ChainInputs(family_sets=sets,
                       params={"m": m, "alpha": alpha, "alpha2": alpha2})


def _e15_build(inputs, ctx):
    m = inputs.params["m"]
    alpha = inputs.params["alpha"]
    a2 = inputs.params["alpha2"]
    sets = list(inputs.family_sets)
    alphas = [alpha] * m
    lhs = ("gamma(mean_a)", gamma_set_bracket(_smean(sets, alphas)))
    if m % 2 == 0:
        w1, w2 = _star_word_patterns(m)
        rotations = [_word_set(sets, [((j + r) % m, star) for j, star in w1])
                     for r in range(m)]
        mid = ("r(mean_a(rotated words))^1/m",
               _ess_term([(_smean(rotations, alphas), 1.0 / m)]))
        last = ("(r(W) r(W-swap))^a/2",
                _ess_term([(_word_set(sets, w1), alpha / 2),
                                (_word_set(sets, w2), alpha / 2)]))
        main = Part("even", CHAIN, [lhs, mid, last])
    else:
        wl = _long_word_pattern(m)
        rotations = [_word_set(sets, _cyclic(wl, 2 * r)) for r in range(m)]
        main = Part("odd", CHAIN, [
            lhs,
            ("r(mean_a(rotated long words))^1/2m",
             _ess_term([(_smean(rotations, alphas), 1.0 / (2 * m))])),
            ("r(long word)^a/2", _ess_term([(_word_set(sets, wl), alpha / 2)])),
        ])
    p, q = sets[0], sets[1]
    ps_q = set_product(set_adjoint(p), q)
    qs_p = set_product(set_adjoint(q), p)
    pair = Part("pair", CHAIN, [
        ("gamma(P^(a2) o Q^(a2))",
         gamma_set_bracket(_smean([p, q], [a2, a2]))),
        ("r((P*Q)^(a2) o (Q*P)^(a2))^1/2",
         _ess_term([(_smean([ps_q, qs_p], [a2, a2]), 0.5)])),
        ("r(P*Q)^a2", _ess_term([(ps_q, a2)])),
    ])
    pair_matrix = Part("pair-matrix", CHAIN, [
        ("gamma(P^(a2) o Q^(a2))",
         gamma_set_bracket(_smean([p, q], [a2, a2]))),
        ("r((P*Q)^(a2) o (Q*P)^(a2))^1/2",
         _ess_term([(_smean([ps_q, qs_p], [a2, a2]), 0.5)])),
        ("r((P*Q)^(a2) o (P*Q)^(a2))^1/2",
         _ess_term([(_smean([ps_q, ps_q], [a2, a2]), 0.5)])),
        ("r(P*Q)^a2", _ess_term([(ps_q, a2)])),
    ])
    swap = Part("pair-star-swap", EQUALITY, [
        ("r(P*Q)", _ess_term([(ps_q, 1.0)])),
        ("r(PQ*)", _ess_term([(set_product(p, set_adjoint(q)), 1.0)])),
    ])
    return [main, pair, pair_matrix, swap]


def _cyclic_pairs(m: int):
    """The m cyclic pair patterns (j, j+1 mod m), first unstarred, second starred."""
    return [[(j, False), ((j + 1) % m, True)] for j in range(m)]


def _e16_sample(rng, ens):
    m = 3 if rng.random() < 0.8 else 5
    sets = tuple(_fam_set(rng, ens, 1, offset=_pick_offset(rng, ens)) for _ in range(m))
    return ChainInputs(family_sets=sets, params={"m": m})


def _e16_build(inputs, ctx):
    m = inputs.params["m"]
    sets = list(inputs.family_sets)
    uniform = [1.0 / m] * m
    pairs = [_word_set(sets, pat) for pat in _cyclic_pairs(m)]
    wl = _long_word_pattern(m)
    omegas = [_word_set(sets, _cyclic(wl, 2 * r)) for r in range(m)]
    return [Part("odd-pair-chain", CHAIN, [
        ("gamma(uniform mean)", gamma_set_bracket(_smean(sets, uniform))),
        ("r(mean(pair products))^1/2",
         _ess_term([(_smean(pairs, uniform), 0.5)])),
        ("r(mean(rotated long words))^1/2m",
         _ess_term([(_smean(omegas, uniform), 1.0 / (2 * m))])),
        ("r(long word)^1/2m", _ess_term([(_word_set(sets, wl), 1.0 / (2 * m))])),
    ])]


def _e17_sample(rng, ens):
    m = 3 if rng.random() < 0.8 else 5
    alpha = sample_alpha_at_least(rng, 1.0 / m)
    sets = tuple(_fam_set(rng, ens, 1, offset=_pick_offset(rng, ens)) for _ in range(m))
    return ChainInputs(family_sets=sets, params={"m": m, "alpha": alpha})


def _e17_build(inputs, ctx):
    m = inputs.params["m"]
    alpha = inputs.params["alpha"]
    sets = list(inputs.family_sets)
    alphas = [alpha] * m
    pairs = [_word_set(sets, pat) for pat in _cyclic_pairs(m)]
    wl = _long_word_pattern(m)
    omegas = [_word_set(sets, _cyclic(wl, 2 * r)) for r in range(m)]
    return [Part("odd-weighted-chain", CHAIN, [
        ("gamma(mean_a)", gamma_set_bracket(_smean(sets, alphas))),
        ("r(mean_a(pair products))^1/2",
         _ess_term([(_smean(pairs, alphas), 0.5)])),
        ("r(mean_a(rotated long words))^1/2m",
         _ess_term([(_smean(omegas, alphas), 1.0 / (2 * m))])),
        ("r(long word)^a/2", _ess_term([(_word_set(sets, wl), alpha / 2)])),
    ])]


def _e18_sample(rng, ens):
    alpha = sample_alpha_at_least(rng, 1.0 / 3.0)
    off = _pick_offset(rng, ens)
    sets = (_fam_set(rng, ens, 1, offset=off), _fam_set(rng, ens, 1, offset=off))
    return ChainInputs(family_sets=sets, params={"alpha": alpha})


def _e18_build(inputs, ctx):
    p, q = inputs.family_sets
    alpha = inputs.params["alpha"]

    def parts_for(a, name):
        weights = [a] * 3
        lhs = _smean([p, set_adjoint(q), p], weights)
        m1 = set_product(set_adjoint(p), set_adjoint(q))
        m2 = set_product(set_adjoint(p), p)
        m3 = set_product(q, p)
        w1 = set_product_many([set_adjoint(p), set_adjoint(q), set_adjoint(p), p, q, p])
        w2 = set_product_many([set_adjoint(p), p, q, p, set_adjoint(p), set_adjoint(q)])
        w3 = set_product_many([q, p, set_adjoint(p), set_adjoint(q), set_adjoint(p), p])
        pqp = set_product_many([p, q, p])
        return Part(name, CHAIN, [
            ("gamma(P^(a) o (Q*)^(a) o P^(a))", gamma_set_bracket(lhs)),
            ("r((P*Q*)^(a) o (P*P)^(a) o (QP)^(a))^1/2",
             _ess_term([(_smean([m1, m2, m3], weights), 0.5)])),
            ("r(mean_a(three 6-words))^1/6",
             _ess_term([(_smean([w1, w2, w3], weights), 1.0 / 6)])),
            ("gamma(PQP)^a", gamma_set_bracket(pqp).power(a)),
        ])

    return [parts_for(1.0 / 3.0, "third-weights"), parts_for(alpha, "alpha-weights")]


def _e19_sigmas(sets, tau):
    m = len(sets)
    half = m // 2
    sig = [set_product(set_adjoint(sets[tau[2 * j]]), sets[tau[2 * j + 1]])
           for j in range(half)]
    return sig + [set_adjoint(s) for s in sig]


def _e19_sample(rng, ens):
    m = 2 if rng.random() < 0.8 else 4
    size = _set_size_for(m)
    alpha = sample_alpha_at_least(rng, 1.0 / m)
    sets = tuple(_fam_set(rng, ens, size, offset=_pick_offset(rng, ens)) for _ in range(m))
    return ChainInputs(family_sets=sets,
                       params={"m": m, "alpha": alpha,
                               "tau": _perm(rng, m), "nu": _perm(rng, m)})


def _e19_build(inputs, ctx):
    m = inputs.params["m"]
    alpha = inputs.params["alpha"]
    tau = list(inputs.params["tau"])
    nu = list(inputs.params["nu"])
    sets = list(inputs.family_sets)
    sigmas = _e19_sigmas(sets, tau)
    nus = [sigmas[nu[i]] for i in range(m)]
    omegas = [set_product_many(_cyclic(nus, i)) for i in range(m)]
    nuprod = set_product_many(nus)

    def chain_for(a, name):
        weights = [a] * m
        return Part(name, CHAIN, [
            ("gamma(mean(P_j))", gamma_set_bracket(_smean(sets, weights))),
            ("r(mean(Sigma_j))^1/2", _ess_term([(_smean(sigmas, weights), 0.5)])),
            ("r(mean(Omega_i))^1/2m",
             _ess_term([(_smean(omegas, weights), 1.0 / (2 * m))])),
            ("r(Sigma_nu(1)...Sigma_nu(m))^a/2",
             _ess_term([(nuprod, a / 2)])),
        ])

    return [chain_for(1.0 / m, "uniform"), chain_for(alpha, "weighted")]


def _e20_sample(rng, ens):
    m = 2 if rng.random() < 0.8 else 4
    size = _set_size_for(m)
    alpha = sample_alpha_at_least(rng, 2.0 / m)
    sets = tuple(_fam_set(rng, ens, size, offset=_pick_offset(rng, ens)) for _ in range(m))
    return ChainInputs(family_sets=sets,
                       params={"m": m, "alpha": alpha, "tau": _perm(rng, m)})


def _e20_build(inputs, ctx):
    m = inputs.params["m"]
    alpha = inputs.params["alpha"]
    tau = list(inputs.params["tau"])
    sets = list(inputs.family_sets)
    half = m // 2
    sigmas = _e19_sigmas(sets, tau)
    first_half = sigmas[:half]
    thetas = [set_product_many(_cyclic(first_half, i)) for i in range(half)]
    halfprod = set_product_many(first_half)
    return [Part("half-chain", CHAIN, [
        ("gamma(mean_a(P_j))", gamma_set_bracket(_smean(sets, [alpha] * m))),
        ("r(mean_a(Sigma_j))^1/2", _ess_term([(_smean(sigmas, [alpha] * m), 0.5)])),
        ("r(mean_a(Sigma_1..Sigma_m/2))",
         _ess_term([(_smean(first_half, [alpha] * half), 1.0)])),
        ("r(mean_a(Theta_i))^2/m",
         _ess_term([(_smean(thetas, [alpha] * half), 2.0 / m)])),
        ("r(Sigma_1...Sigma_m/2)^a", _ess_term([(halfprod, alpha)])),
    ])]


def _sonce_perms(m: int):
    """Permutations that pair each operator with its cyclic successor."""
    tau = list(range(0, m, 2)) + list(range(1, m, 2))
    nu = [(t + 1) % m for t in tau]
    return tuple(tau), tuple(nu)


def _e21_sample(rng, ens):
    m = 2 if rng.random() < 0.6 else 3
    size = _set_size_for(m)
    alpha = sample_alpha_at_least(rng, 1.0 / m)
    sets = tuple(_fam_set(rng, ens, size, offset=_pick_offset(rng, ens)) for _ in range(m))
    return ChainInputs(family_sets=sets,
                       params={"m": m, "alpha": alpha,
                               "tau": _perm(rng, m), "nu": _perm(rng, m)})


def _e21_build(inputs, ctx):
    m = inputs.params["m"]
    alpha = inputs.params["alpha"]
    tau = list(inputs.params["tau"])
    nu = list(inputs.params["nu"])
    sets = list(inputs.family_sets)

    def chain_for(t, v, a, name):
        pairs = [set_product(set_adjoint(sets[t[j]]), sets[v[j]]) for j in range(m)]
        omegas = [set_product_many(_cyclic(pairs, j)) for j in range(m)]
        word = set_product_many(pairs)
        weights = [a] * m
        return Part(name, CHAIN, [
            ("gamma(mean(P_j))", gamma_set_bracket(_smean(sets, weights))),
            ("r(mean(tau/nu pairs))^1/2",
             _ess_term([(_smean(pairs, weights), 0.5)])),
            ("r(mean(Omega_j))^1/2m",
             _ess_term([(_smean(omegas, weights), 1.0 / (2 * m))])),
            ("r(pair word)^a/2",
             _ess_term([(word, a / 2)])),
        ])

    parts = [chain_for(tau, nu, 1.0 / m, "uniform"),
             chain_for(tau, nu, alpha, "weighted")]
    if m % 2 == 1:
        st, sv = _sonce_perms(m)
        parts.append(chain_for(list(st), list(sv), 1.0 / m, "consecutive-pairs"))
        word1 = [(st[j], True) if k == 0 else (sv[j], False)
                 for j in range(m) for k in (0, 1)]
        word2 = _long_word_pattern(m)
        parts.append(Part("word-swap", EQUALITY, [
            ("r(stars-first word)", _ess_term([(_word_set(sets, word1), 1.0)])),
            ("r(stars-second word)", _ess_term([(_word_set(sets, word2), 1.0)])),
        ]))
    return parts


# ---------------------------------------------------------------------------
# the catalog

_TWO_MATRICES = "two square nonnegative matrices of one size"
_M = _Int("m")
_N = _Int("n")
_K = _Int("k")
_T = _Real("t", 1.0)
_ALPHAS = _Weights("alphas")
_BETA = _Real("beta", 0.0, 1.0)
_BETA_OPEN = _Real("beta_open", 0.0, 1.0, open=True)

_REGISTRY = (
    _chain("F1", "hadamard-vs-product", "finite",
           "Spectral radius of the Hadamard product is dominated by that of the ordinary product.",
           _TWO_MATRICES, {"matrices": 2}, (),
           _pair_sample, _zhan(lambda a, b: [])),
    _chain("F2", "audenaert-refinement", "finite",
           "Audenaert's interpolation between the Hadamard and ordinary products.",
           _TWO_MATRICES, {"matrices": 2}, (),
           _pair_sample, _zhan(_f2_mid)),
    _chain("F3", "horn-zhang-refinement", "finite",
           "Horn and Zhang's interpolation through AB o BA.",
           _TWO_MATRICES, {"matrices": 2}, (),
           _pair_sample, _zhan(_f3_mid)),
    _chain("F4", "huang-multifactor", "finite",
           "Hadamard product of m factors versus their ordinary product.",
           "m >= 1 square nonnegative matrices", {"matrices": "m"}, (_M,),
           _f4_sample, _f4_build),
    _chain("F5", "schep-refinement", "finite",
           "Schep's two-step interpolation on sequence spaces.",
           _TWO_MATRICES, {"matrices": 2}, (),
           _pair_sample, _zhan(_f5_mid)),
    _chain("F6", "beta-interpolated-refinement", "finite",
           "Beta-weighted interpolation between the AB and BA Hadamard squares.",
           "two square matrices; beta in [0, 1]", {"matrices": 2}, (_BETA,),
           _f6_sample, _f6_build),
    _chain("F7", "quarter-power-refinement", "finite",
           "Interpolation through AB o BA and the quarter powers.",
           _TWO_MATRICES, {"matrices": 2}, (),
           _pair_sample, _zhan(_f7_mid)),
    _chain("F8", "grid-mean-factorization", "finite",
           "Products of row means dominated entrywise, in norm, and in radius "
           "by the mean of column products.",
           "k*m square matrices; positive weights with sum >= 1",
           {"matrices": "k*m"}, (_K, _M, _ALPHAS),
           _f8_sample, _f8_build),
    _chain("F9", "mean-and-power-bounds", "finite",
           "Weighted geometric means bounded by weighted products of norms and "
           "radii; entrywise powers of products dominate products of powers.",
           "m square matrices; weights sum >= 1; t >= 1",
           {"matrices": "m"}, (_M, _ALPHAS, _T),
           _f9_sample, _f9_build),
    _chain("F10", "power-sup-scaling", "finite",
           "Entrywise powers scale by a power of the entrywise supremum.",
           "one square matrix; t >= 1", {"matrices": 1}, (_T,),
           _f10_sample, _f10_build),
    _chain("F11", "set-mean-bounds", "finite",
           "Joint/generalized radii of weighted Hadamard means of matrix sets, "
           "with power refinements.",
           "m matrix sets; weights sum >= 1; n >= 1; t >= 1",
           {"matrix_sets": "m"}, (_M, _N, _ALPHAS, _T),
           _f11_sample, _f11_build),
    _chain("F12", "sum-of-means-pointwise", "finite",
           "Pointwise: sums of weighted geometric means are dominated by the "
           "mean of the sums.",
           "k*m nonnegative vectors; weights sum >= 1",
           {"vectors": "k*m"}, (_K, _M, _ALPHAS),
           _f12_sample, _f12_build),
    _chain("F13", "set-norm-star-identity", "finite",
           "The sup norm of a matrix set equals the square root of the radii "
           "of S*S and SS*.",
           "one matrix set", {"matrix_sets": 1}, (),
           _f13_sample, _f13_build),
    _chain("F14", "beta-split-refinement", "finite",
           "Set-level interpolation with reciprocal Hadamard powers.",
           "two matrix sets; beta strictly in (0, 1)",
           {"matrix_sets": 2}, (_Real("beta", 0.0, 1.0, open=True),),
           _f14_sample, _f14_build),
    _chain("F15", "cyclic-mean-refinement", "finite",
           "Uniform Hadamard mean refined through means of cyclic products.",
           "m >= 1 square matrices", {"matrices": "m"}, (_M,),
           _f15_sample, _f15_build),
    _chain("F16", "hilbert-mean-norm", "finite",
           "The l2 norm of the geometric mean is controlled through adjoint "
           "cross products.",
           "two square matrices", {"matrices": 2}, (),
           _pair_sample, _f16_build),
    _chain("E1", "essential-hadamard-power", "essential",
           "Noncompactness and essential radius of entrywise powers are "
           "dominated by powers of the originals.",
           "m+1 operator families; t >= 1", {"families": "m+1"}, (_M, _T),
           _e1_sample, _e1_build),
    _chain("E2", "essential-mean-bound", "essential",
           "Weighted Hadamard geometric means bounded by weighted products of "
           "noncompactness measures and essential radii.",
           "m operator families; weights sum >= 1", {"families": "m"}, (_M, _ALPHAS),
           _e2_sample, _e2_build),
    _chain("E3", "essential-grid-factorization", "essential",
           "Essential version of the grid mean factorization.",
           "k*m operator families; weights sum >= 1", {"families": "k*m"}, (_K, _M, _ALPHAS),
           _e3_sample, _e3_build),
    _chain("E4", "essential-set-mean-bounds", "essential",
           "Essential joint/generalized radii of Hadamard means of family "
           "sets, with grid and power refinements.",
           "family sets; weights sum >= 1; n >= 1; t >= 1",
           {"family_sets": "m + k*m"}, (_M, _N, _K, _ALPHAS, _T),
           _e4_sample, _e4_build),
    _chain("E5", "essential-sum-of-means", "essential",
           "Sums of Hadamard means of family sets against means of sums.",
           "k*m family sets; weights sum >= 1; n >= 1",
           {"family_sets": "k*m"}, (_K, _M, _N, _ALPHAS),
           _e5_sample, _e5_build),
    _chain("E6", "essential-symmetrization", "essential",
           "Weighted geometric symmetrizations of family sets: products, "
           "sums, and the monotone dyadic ladder.",
           "family sets on l2; alpha, beta >= 0 with alpha + beta >= 1",
           {"family_sets": "m+1"}, (_M, _N, _Real("alpha", 0.0), _Real("beta", 0.0)),
           _e6_sample, _e6_build, check=_e6_check),
    _chain("E7", "essential-hadamard-self-products", "essential",
           "Hadamard self-powers of a family set against repeated Hadamard "
           "products and radius powers.",
           "one family set; m >= 2; alpha > 1; n >= 1",
           {"family_sets": 1}, (_Int("m", 2), _N, _Real("alpha", 1.0, open=True)),
           _e7_sample, _e7_build),
    _chain("E8", "essential-cyclic-mean-routes", "essential",
           "Hadamard means of family sets refined through cyclic products, "
           "Hadamard power products, and their mixtures.",
           "m family sets; alpha >= 1/m (alpha >= 1 for the interleaved part)",
           {"family_sets": "m"}, (_M, _N, _Alpha("alpha", 1)),
           _e8_sample, _e8_build),
    _chain("E9", "essential-set-interpolations", "essential",
           "Essential set-level versions of the Hadamard product "
           "interpolations between PQ and QP.",
           "two family sets; beta in [0,1]; beta_open in (0,1)",
           {"family_sets": 2}, (_BETA, _BETA_OPEN),
           _e9_sample, _e9_build),
    _chain("E10", "essential-audenaert", "essential",
           "Essential versions of the Hadamard product interpolations for a "
           "single pair of operator families.",
           "two operator families; beta in [0,1]; beta_open in (0,1)",
           {"families": 2}, (_BETA, _BETA_OPEN),
           _e10_sample, _e10_build),
    _chain("E11", "essential-adjoint-mixing", "essential",
           "Mixing a set with its adjoints entrywise never beats mixing with "
           "itself.",
           "one family set and one family; alpha >= 1/2",
           {"family_sets": 1, "families": 1}, (_Alpha("alpha", 1, 2),),
           _e11_sample, _e11_build),
    _chain("E12", "hilbert-star-identities", "essential",
           "Essential norm identities through adjoints: gamma(T)^2 equals the "
           "essential radius of T*T, with the normal and set-valued cases.",
           "a family, a diagonal family, and a family set",
           {"families": 2, "family_sets": 1}, (),
           _e12_sample, _e12_build, check=_e12_check),
    _chain("E13", "noncompactness-of-uniform-means", "essential",
           "The noncompactness of a uniform Hadamard mean is bounded by "
           "roots of radii of star-alternating product words.",
           "m >= 2 family sets", {"family_sets": "m"}, (_Int("m", 2),),
           _e13_sample, _e13_build),
    _chain("E14", "essential-mean-norm", "essential",
           "Noncompactness of the geometric mean through adjoint cross "
           "products, for sets and single operators.",
           "two family sets and two families", {"family_sets": 2, "families": 2}, (),
           _e14_sample, _e14_build),
    _chain("E15", "weighted-mean-word-bounds", "essential",
           "Weighted Hadamard means bounded through rotated star-alternating "
           "words; the two-set corollaries with alpha >= 1/2.",
           "m >= 2 family sets; alpha >= 1/m; alpha2 >= 1/2",
           {"family_sets": "m"}, (_Int("m", 2), _Alpha("alpha", 1), _Alpha("alpha2", 1, 2)),
           _e15_sample, _e15_build),
    _chain("E16", "odd-cyclic-pair-bounds", "essential",
           "Odd-length uniform means refined through cyclic adjoint pairs "
           "and rotated double-length words.",
           "odd m >= 3 family sets", {"family_sets": "m"}, (_Int("m", 3, "odd"),),
           _e16_sample, _e16_build),
    _chain("E17", "odd-weighted-pair-bounds", "essential",
           "Weighted variant of the odd cyclic pair refinement.",
           "odd m >= 3 family sets; alpha >= 1/m",
           {"family_sets": "m"}, (_Int("m", 3, "odd"), _Alpha("alpha", 1)),
           _e17_sample, _e17_build),
    _chain("E18", "sandwich-word-bounds", "essential",
           "Three-factor sandwich means bounded through adjoint cross "
           "products and six-letter words.",
           "two family sets; alpha >= 1/3", {"family_sets": 2}, (_Alpha("alpha", 1, 3),),
           _e18_sample, _e18_build),
    _chain("E19", "even-permutation-pair-bounds", "essential",
           "Even-length means refined through permutation-paired adjoint "
           "products and their cyclic words.",
           "even m >= 2 family sets; alpha >= 1/m; permutations tau, nu",
           {"family_sets": "m"},
           (_Int("m", 2, "even"), _Alpha("alpha", 1), _Perm("tau"), _Perm("nu")),
           _e19_sample, _e19_build),
    _chain("E20", "even-half-word-bounds", "essential",
           "Even-length weighted means against products of the first half of "
           "the permutation pairs.",
           "even m >= 2 family sets; alpha >= 2/m; permutation tau",
           {"family_sets": "m"}, (_Int("m", 2, "even"), _Alpha("alpha", 2), _Perm("tau")),
           _e20_sample, _e20_build),
    _chain("E21", "permutation-pair-word-bounds", "essential",
           "General permutation-paired adjoint refinements, with the odd-m "
           "consecutive-pair case and its word identity.",
           "m >= 2 family sets; alpha >= 1/m; permutations tau, nu",
           {"family_sets": "m"},
           (_Int("m", 2), _Alpha("alpha", 1), _Perm("tau"), _Perm("nu")),
           _e21_sample, _e21_build),
)

if len({c.id for c in _REGISTRY}) != len(_REGISTRY):
    raise DomainError("duplicate chain ids in the registry")


def registry() -> list[ChainSpec]:
    """The immutable chain catalog, finite entries first."""
    return list(_REGISTRY)


def by_id(cid: str) -> ChainSpec:
    for spec in registry():
        if spec.id == cid:
            return spec
    raise InputFormatError(f"no chain with id {cid!r}")


def catalog_json() -> list[dict]:
    """Exportable catalog (id, title, level, hypothesis, arity) for docs."""
    return [c.catalog_entry() for c in registry()]
