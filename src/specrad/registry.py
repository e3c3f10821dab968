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
random inputs (a word chain on m family sets passes ``_Words(m_law)``,
which derives it from the params); ``build(inputs, **params)`` turns
inputs into parts of labelled terms and signs for exactly its declared
params, by name (E15: ``build(inputs, m, alpha, alpha2)``).  The
declaration is one ``_chain(...)`` entry in ``_REGISTRY`` and holds:

- the catalog strings: id, title, level, description, and the hypothesis
  text that ``specrad catalog`` prints;
- ``operands``: the count of each operand kind, as an integer or as an
  expression over integer params ("m", "k*m", "m+1", "m + k*m").  The kinds
  are ``matrices`` (square), ``vectors`` (column vectors, passed in
  ``ChainInputs.matrices``), ``families``, ``matrix_sets`` and
  ``family_sets``;
- ``params``: the typed params in catalog order, each with its side
  condition: ``_Int`` (integer >= low that converts to a float, optionally
  odd or even), ``_Real`` (finite real in a closed or open range), ``_Alpha``
  (real >= c/m or >= c, with 1e-12 slack for the rounded bound), ``_Weights``
  (m positive reals summing to at least 1) and ``_Perm`` (a permutation of
  0..m-1);
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
against cProfile by ``__code__``, so the ``ChainSpec.build`` that
``_chain`` wraps around a build is a plain function, not a ``partial``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import reduce
from typing import Callable

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
)
from .matrices import FiniteMatrix, WeightVector
from .serialize import _is_number
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

    Both essential set radii of S equal the largest gamma over its elements:
    each element's essential radius is its gamma (see
    ``essential_spectral_radius``), and gamma is multiplicative on banded
    families, so the largest gamma over length-m products is that maximum
    to the m-th power.  The product v of the powered maxima is padded by
    ``_ROUND_GUARD`` each way.
    """
    v = 1.0
    for S, p in factors:
        v *= _pow0(gamma_level_max(S), p)
    return Bracket(v * (1 - _ROUND_GUARD), v * (1 + _ROUND_GUARD), "ess-set-gamma")


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


def _sum(items):
    return reduce(lambda a, b: a + b, items)


def _smean(sets, alphas) -> OperatorSet:
    return set_hadamard_mean(sets, WeightVector.of(*alphas))


def _cyclic(seq, j):
    return list(seq[j:]) + list(seq[:j])


def _rotations(factors, step=1):
    """Products of ``factors`` rotated by 0, step, 2*step, ... places; unrotated first."""
    return [set_product_many(_cyclic(factors, j)) for j in range(0, len(factors), step)]


def _grid(items, k, m):
    """``items`` read row by row into k rows of m."""
    return [list(items[i * m:(i + 1) * m]) for i in range(k)]


def _grid_factorization(items, k, m, alphas):
    """(product of row means, column products, mean of column products)."""
    grid = _grid(items, k, m)
    a = _prod([_mean(row, alphas) for row in grid])
    cols = [_prod(col) for col in zip(*grid)]
    return a, cols, _mean(cols, alphas)


def _grid_terms(labels, f, a, cols, mid, alphas):
    """f(A) <= f(mean of column products) <= prod f(column product)^a_j."""
    return list(zip(labels, (f(a), f(mid), _bprod([f(c) for c in cols], alphas))))


def _adjoints(sets):
    return [set_adjoint(s) for s in sets]


def _word_set(sets, stars, pattern) -> OperatorSet:
    """Product along ``pattern``, (index, starred) pairs; starred takes ``stars[index]``."""
    return set_product_many([stars[i] if star else sets[i] for i, star in pattern])


def _star_word_patterns(m: int):
    """(W1, W2) for even m: stars on even positions and its star-swap."""
    return [(j, j % 2 == 0) for j in range(m)], [(j, j % 2 == 1) for j in range(m)]


def _long_word_pattern(m: int):
    """Length-2m pattern index p mod m, starred on odd positions (odd m)."""
    return [(p % m, p % 2 == 1) for p in range(2 * m)]


def _long_words(sets, stars):
    """The long alternating word rotated by 0, 2, ..., 2m-2 letters."""
    letters = [stars[i] if star else sets[i] for i, star in _long_word_pattern(len(sets))]
    return _rotations(letters, 2)


def _pair_word_part(name, labels, sets, a, pairs, words) -> Part:
    """gamma(mean_a(P_j)) <= r(mean_a(pairs))^1/2 <= r(mean_a(words))^1/2m <= r(W)^a/2,
    where ``words`` are the rotations of the word W, unrotated first."""
    m = len(sets)
    weights = [a] * m
    return Part(name, CHAIN, list(zip(labels, (
        gamma_set_bracket(_smean(sets, weights)),
        _ess_term([(_smean(pairs, weights), 0.5)]),
        _ess_term([(_smean(words, weights), 1.0 / (2 * m))]),
        _ess_term([(words[0], a / 2)])))))


def _star_pair(sets, stars):
    """(P*Q, Q*P, PQ*) for the first two sets P, Q and their adjoints."""
    p, q = sets[0], sets[1]
    return set_product(stars[0], q), set_product(stars[1], p), set_product(p, stars[1])


def _star_mean_terms(labels, sets, ps_q, qs_p, a):
    """gamma(P^(a) o Q^(a)) <= r((P*Q)^(a) o (Q*P)^(a))^1/2 <= r(P*Q)^a."""
    return list(zip(labels, (gamma_set_bracket(_smean(sets[:2], [a, a])),
                             _ess_term([(_smean([ps_q, qs_p], [a, a]), 0.5)]),
                             _ess_term([(ps_q, a)]))))


def _star_swap(name, ps_q, p_qs) -> Part:
    return Part(name, EQUALITY, [("r(P*Q)", _ess_term([(ps_q, 1.0)])),
                                 ("r(PQ*)", _ess_term([(p_qs, 1.0)]))])


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


def _fam_sets(rng, ens, m):
    """m family sets of ``_set_size_for(m)`` elements, each with its own band offset."""
    return tuple(_fam_set(rng, ens, _set_size_for(m), offset=_pick_offset(rng, ens))
                 for _ in range(m))


def _perm(rng, m):
    return tuple(int(x) for x in rng.permutation(m))


# ---------------------------------------------------------------------------
# declarations: typed params, operand counts, and the shared validator

_SLACK = 1e-12


def _is_int(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


@dataclass(frozen=True)
class _Int:
    """Integer param >= low that converts to a float, optionally odd or even."""

    name: str
    low: int = 1
    parity: str = ""  # "" | "odd" | "even"

    def doc(self) -> str:
        kind = f"{self.parity} integer" if self.parity else "integer"
        return f"{kind} {self.name} >= {self.low}"

    def holds(self, v, params) -> bool:
        return (_is_int(v) and _is_number(v) and v >= self.low
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
        if not (_is_number(v) and math.isfinite(v)):
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

    def bound(self, params) -> float:
        return self.num / (params["m"] if self.den == "m" else self.den)

    def holds(self, v, params) -> bool:
        return _is_number(v) and self.bound(params) - _SLACK <= v < math.inf


@dataclass(frozen=True)
class _Weights:
    """m positive finite reals whose sum is at least 1."""

    name: str

    def doc(self) -> str:
        return f"{self.name}: m positive weights with sum >= 1"

    def holds(self, v, params) -> bool:
        return (isinstance(v, (list, tuple)) and len(v) == params["m"]
                and all(_is_number(a) and 0 < a < math.inf for a in v)
                and sum(v) >= 1.0 - _SLACK)


@dataclass(frozen=True)
class _Perm:
    """A permutation of 0..m-1."""

    name: str

    def doc(self) -> str:
        return f"{self.name}: a permutation of 0..m-1"

    def holds(self, v, params) -> bool:
        return (isinstance(v, (list, tuple)) and len(v) == params["m"]
                and all(_is_int(x) for x in v) and sorted(v) == list(range(len(v))))


@dataclass(frozen=True)
class _Words:
    """A word chain's sampler, read off its declared params: m from ``m_law``,
    each ``_Alpha`` from its bound up, the m family sets, each ``_Perm``."""

    m_law: Callable

    def sampler(self, params):
        def sample(rng, ens):
            m = self.m_law(rng)
            values = {"m": m}
            for p in params:
                if isinstance(p, _Alpha):
                    values[p.name] = sample_alpha_at_least(rng, p.bound(values))
            sets = _fam_sets(rng, ens, m)
            values.update((p.name, _perm(rng, m)) for p in params if isinstance(p, _Perm))
            return ChainInputs(family_sets=sets, params=values)

        return sample


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
    if isinstance(sample, _Words):
        sample = sample.sampler(params)

    def hypothesis(inputs):
        return _violation(inputs, operands, params, check)

    def build_with_params(inputs):
        return build(inputs, **{p.name: inputs.params[p.name] for p in params})

    return ChainSpec(cid, title, level, description, arity, hypothesis_doc,
                     sample, hypothesis, build_with_params)


# ---------------------------------------------------------------------------
# finite-level chains


def _pair_sample(rng, ens):
    return ChainInputs(matrices=_mats(rng, ens, 2))


def _zhan(middle_terms):
    """Build of a Zhan-style chain: rho(A o B) <= middle_terms(a, b, AB, **params) <= rho(AB)."""

    def build(inputs, **params):
        a, b = inputs.matrices
        ab = a @ b
        return [Part("chain", CHAIN, [
            ("rho(A o B)", spectral_radius(a.hadamard(b))),
            *middle_terms(a, b, ab, **params),
            ("rho(AB)", spectral_radius(ab)),
        ])]

    return build


def _squares(a, b):
    return ("rho((AoA)(BoB))^1/2", spectral_radius(a.hadamard(a) @ b.hadamard(b)).power(0.5))


def _split(radius, ab, ba, beta) -> Bracket:
    """radius(AB o AB)^(beta/2) radius(BA o BA)^((1-beta)/2)."""
    return _bprod([radius(ab.hadamard(ab)), radius(ba.hadamard(ba))],
                  [beta / 2, (1 - beta) / 2])


def _f3_mid(a, b, ab):
    return [("rho(AB o BA)^1/2", spectral_radius(ab.hadamard(b @ a)).power(0.5))]


def _f4_sample(rng, ens):
    m = int(rng.integers(1, 4))
    return ChainInputs(matrices=_mats(rng, ens, m), params={"m": m})


def _f4_build(inputs, m):
    mats = inputs.matrices
    return [Part("chain", CHAIN, [
        ("rho(A1 o ... o Am)", spectral_radius(_mean(mats, [1.0] * m))),
        ("rho(A1 ... Am)", spectral_radius(_prod(mats))),
    ])]


def _f5_mid(a, b, ab):
    return [_squares(a, b),
            ("rho(AB o AB)^1/2", spectral_radius(ab.hadamard(ab)).power(0.5))]


def _f6_sample(rng, ens):
    return ChainInputs(matrices=_mats(rng, ens, 2),
                       params={"beta": sample_beta(rng)})


def _f6_mid(a, b, ab, beta):
    return [_squares(a, b),
            ("rho(ABoAB)^b/2 rho(BAoBA)^(1-b)/2", _split(spectral_radius, ab, b @ a, beta))]


def _f7_mid(a, b, ab):
    ba = b @ a
    return [("rho(AB o BA)^1/2", spectral_radius(ab.hadamard(ba)).power(0.5)),
            ("rho(ABoAB)^1/4 rho(BAoBA)^1/4", _split(spectral_radius, ab, ba, 0.5))]


def _f8_sample(rng, ens):
    k = int(rng.integers(1, 4))
    m = int(rng.integers(1, 4))
    alphas = sample_weights_ge_one(rng, m)
    return ChainInputs(matrices=_mats(rng, ens, k * m),
                       params={"k": k, "m": m, "alphas": alphas})


def _f8_build(inputs, k, m, alphas):
    a, cols, mid = _grid_factorization(inputs.matrices, k, m, alphas)
    return [
        Part("entrywise", ENTRYWISE, [("row-mean product", a), ("mean of column products", mid)]),
        Part("norms", CHAIN, _grid_terms(
            ("|A|", "|mean of col products|", "prod |col product|^a_j"),
            operator_norm, a, cols, mid, alphas)),
        Part("radii", CHAIN, _grid_terms(
            ("rho(A)", "rho(mean of col products)", "prod rho(col product)^a_j"),
            spectral_radius, a, cols, mid, alphas)),
    ]


def _f9_sample(rng, ens):
    m = int(rng.integers(1, 4))
    alphas = sample_weights_ge_one(rng, m)
    t = 1.0 + 2.0 * rng.random()
    return ChainInputs(matrices=_mats(rng, ens, m),
                       params={"m": m, "alphas": alphas, "t": t})


def _f9_build(inputs, m, alphas, t):
    mats = inputs.matrices
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


def _f10_build(inputs, t):
    a = inputs.matrices[0]
    c = _pow0(a.entry_sup(), t - 1.0)
    at = a.hpow(t)
    return [
        Part("entrywise", ENTRYWISE, [
            ("A^(t)", at),
            ("sup^(t-1) A", a.scale(c)),
        ]),
        Part("norm", CHAIN, [
            ("|A^(t)|", operator_norm(at)),
            ("sup^(t-1)|A|", operator_norm(a).scaled(c)),
        ]),
        Part("radius", CHAIN, [
            ("rho(A^(t))", spectral_radius(at)),
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


def _f11_build(inputs, m, n, alphas, t):
    sets = inputs.matrix_sets
    mean = _smean(sets, alphas)
    mean_n = _smean([set_power(s, n) for s in sets], alphas)
    return [
        Part("set-mean", CHAIN, [
            ("r(mean)", _fin_term([(mean, 1.0, 1)], n)),
            ("r(mean of n-powers)^1/n", _fin_term([(mean_n, 1.0 / n, n)], n)),
            ("prod r(S_j)^a_j", _fin_term([(s, a, 1) for s, a in zip(sets, alphas)], n)),
        ]),
        Part("geometric-mean-vs-product", CHAIN, [
            ("r(uniform mean)", _fin_term([(_smean(sets, [1.0 / m] * m), 1.0, 1)], m)),
            ("r(S1...Sm)^1/m", _fin_term([(set_product_many(sets), 1.0 / m, m)], m)),
        ]),
        Part("set-power", CHAIN, [
            ("r(S^(t))", _fin_term([(set_hadamard_power(sets[0], t), 1.0, 1)], n)),
            ("r((S^n)^(t))^1/n",
             _fin_term([(set_hadamard_power(set_power(sets[0], n), t), 1.0 / n, n)], n)),
            ("r(S)^t", _fin_term([(sets[0], t, 1)], n)),
        ]),
    ]


def _f12_sample(rng, ens):
    k = int(rng.integers(1, 4))
    m = int(rng.integers(1, 4))
    d = int(rng.integers(2, 6))
    alphas = sample_weights_ge_one(rng, m)
    vecs = tuple(FiniteMatrix(rng.random((d, 1))) for _ in range(k * m))
    return ChainInputs(matrices=vecs, params={"k": k, "m": m, "alphas": alphas})


def _f12_build(inputs, k, m, alphas):
    grid = _grid(inputs.matrices, k, m)
    lhs = _sum([_mean(row, alphas) for row in grid])
    rhs = _mean([_sum(col) for col in zip(*grid)], alphas)
    return [Part("entrywise", ENTRYWISE, [
        ("sum of row means", lhs), ("mean of column sums", rhs)])]


def _f13_sample(rng, ens):
    return ChainInputs(matrix_sets=(_mat_set(rng, ens, 2),))


def _f13_build(inputs):
    s = inputs.matrix_sets[0]
    sstar = set_adjoint(s)
    return [Part("norm-identity", EQUALITY, [
        ("sup |T|", norm_set_bracket(s)),
        ("r(S*S)^1/2", _fin_term([(set_product(sstar, s), 0.5, 2)], 2)),
        ("r(SS*)^1/2", _fin_term([(set_product(s, sstar), 0.5, 2)], 2)),
    ])]


def _f14_sample(rng, ens):
    return ChainInputs(matrix_sets=(_mat_set(rng, ens, 2), _mat_set(rng, ens, 2)),
                       params={"beta": sample_beta(rng, open_interval=True)})


def _f14_build(inputs, beta):
    p, q = inputs.matrix_sets
    pq = set_product(p, q)
    qp = set_product(q, p)
    return [Part("beta-split", CHAIN, [
        ("r(P o Q)", _fin_term([(_smean([p, q], [1.0, 1.0]), 1.0, 1)], 2)),
        ("r(PQ o QP)^1/2", _fin_term([(_smean([pq, qp], [1.0, 1.0]), 0.5, 2)], 2)),
        ("r((PQ)^(1/b))^b/2 r((QP)^(1/(1-b)))^(1-b)/2",
         _fin_term([(set_hadamard_power(pq, 1 / beta), beta / 2, 2),
                    (set_hadamard_power(qp, 1 / (1 - beta)), (1 - beta) / 2, 2)], 2)),
        ("r(PQ)", _fin_term([(pq, 1.0, 2)], 2)),
    ])]


def _f15_sample(rng, ens):
    m = int(rng.integers(2, 4))
    return ChainInputs(matrices=_mats(rng, ens, m), params={"m": m})


def _f15_build(inputs, m):
    mats = inputs.matrices
    uniform = [1.0 / m] * m
    cyc = [_prod(_cyclic(mats, j)) for j in range(m)]
    return [Part("cyclic-mean", CHAIN, [
        ("rho(mean(A_j))", spectral_radius(_mean(mats, uniform))),
        ("rho(mean(P_j))^1/m", spectral_radius(_mean(cyc, uniform)).power(1.0 / m)),
        ("rho(A1...Am)^1/m", spectral_radius(_prod(mats)).power(1.0 / m)),
    ])]


def _f16_build(inputs):
    a, b = inputs.matrices
    bstar = b.adjoint()
    astar_b = a.adjoint() @ b
    r = spectral_radius(astar_b)
    return [
        Part("norm-chain", CHAIN, [
            ("|A^(1/2) o B^(1/2)|", operator_norm(_mean([a, b], [0.5, 0.5]))),
            ("rho((A*B)^(1/2) o (B*A)^(1/2))^1/2",
             spectral_radius(_mean([astar_b, bstar @ a], [0.5, 0.5])).power(0.5)),
            ("rho(A*B)^1/2", r.power(0.5)),
        ]),
        Part("star-swap", EQUALITY, [("rho(A*B)", r), ("rho(AB*)", spectral_radius(a @ bstar))]),
    ]


# ---------------------------------------------------------------------------
# essential-level chains


def _e1_sample(rng, ens):
    m = int(rng.integers(1, 4))
    off = _pick_offset(rng, ens)
    fams = _fams(rng, ens, m + 1, offset=off)
    t = 1.0 + 2.0 * rng.random()
    return ChainInputs(families=fams, params={"m": m, "t": t})


def _e1_build(inputs, m, t):
    a, *mats = inputs.families
    c = _pow0(a.entry_sup(), t - 1.0)
    powprod = _prod([x.hpow(t) for x in mats])
    prod = _prod(mats)
    at = a.hpow(t)
    gamma_at, gamma_a = hausdorff_mnc(at), hausdorff_mnc(a)
    ess_at, ess_a = essential_spectral_radius(at), essential_spectral_radius(a)
    return [
        Part("gamma-power", CHAIN, [
            ("gamma(A^(t))", gamma_at),
            ("gamma(A)^t", gamma_a.power(t)),
        ]),
        Part("ess-power", CHAIN, [
            ("ess(A^(t))", ess_at),
            ("ess(A)^t", ess_a.power(t)),
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
            ("gamma(A^(t))", gamma_at),
            ("sup^(t-1) gamma(A)", gamma_a.scaled(c)),
        ]),
        Part("ess-sup-scaling", CHAIN, [
            ("ess(A^(t))", ess_at),
            ("sup^(t-1) ess(A)", ess_a.scaled(c)),
        ]),
    ]


def _e2_sample(rng, ens):
    m = int(rng.integers(1, 4))
    off = _pick_offset(rng, ens)
    alphas = sample_weights_ge_one(rng, m)
    return ChainInputs(families=_fams(rng, ens, m, offset=off),
                       params={"m": m, "alphas": alphas})


def _e2_build(inputs, m, alphas):
    mats = inputs.families
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


def _e3_build(inputs, k, m, alphas):
    a, cols, mid = _grid_factorization(inputs.families, k, m, alphas)
    return [
        Part("gamma-grid", CHAIN, _grid_terms(
            ("gamma(A)", "gamma(mean of col products)", "prod gamma(col product)^a_j"),
            hausdorff_mnc, a, cols, mid, alphas)),
        Part("ess-grid", CHAIN, _grid_terms(
            ("ess(A)", "ess(mean of col products)", "prod ess(col product)^a_j"),
            essential_spectral_radius, a, cols, mid, alphas)),
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


def _e4_build(inputs, m, n, k, alphas, t):
    sets = inputs.family_sets[:m]
    grid = _grid(inputs.family_sets[m:], k, m)
    mean = _smean(sets, alphas)
    mean_n = _smean([set_power(s, n) for s in sets], alphas)
    rowmeans = [_smean(row, alphas) for row in grid]
    cols = [set_product_many(col) for col in zip(*grid)]
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


def _e5_build(inputs, k, m, n, alphas):
    grid = _grid(inputs.family_sets, k, m)
    rowmeans = [_smean(row, alphas) for row in grid]
    colsums = [set_sum_many(col) for col in zip(*grid)]
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
                       params={"m": m, "n": n, "alpha": alpha, "beta": beta})


def _e6_check(inputs):
    if inputs.params["alpha"] + inputs.params["beta"] < 1.0 - _SLACK:
        return "symmetrization needs alpha + beta >= 1"
    return None


def _e6_build(inputs, m, n, alpha, beta):
    psi, *sets = inputs.family_sets
    fwd = set_product_many(sets)
    rev = set_product_many(sets[::-1])
    syms = [symmetrization(s, alpha, beta) for s in sets]
    sym_prod = set_product_many(syms)
    sums = set_sum_many(sets)
    p1p2 = set_product(sets[0], sets[1])
    psi_power = ("r(P)^(a+b)", _ess_term([(psi, alpha + beta)]))
    parts = [
        Part("product-of-symmetrizations", CHAIN, [
            ("r(S(P1)...S(Pm))", _ess_term([(sym_prod, 1.0)])),
            ("r((P1..Pm)^(a) o ((Pm..P1)*)^(b))",
             _ess_term([(symmetrization(fwd, alpha, beta, rev), 1.0)])),
            ("r(n-powered cross)^1/n",
             _ess_term([(symmetrization(set_power(fwd, n), alpha, beta, set_power(rev, n)),
                         1.0 / n)])),
            ("r(P1..Pm)^a r(Pm..P1)^b", _ess_term([(fwd, alpha), (rev, beta)])),
        ]),
        Part("single-set", CHAIN, [
            ("r(S(P))", _ess_term([(symmetrization(psi, alpha, beta), 1.0)])),
            ("r(S(P^n))^1/n",
             _ess_term([(symmetrization(set_power(psi, n), alpha, beta), 1.0 / n)])),
            psi_power,
        ]),
        Part("sums", CHAIN, [
            ("r(S(P1)+...+S(Pm))", _ess_term([(set_sum_many(syms), 1.0)])),
            ("r(S(P1+...+Pm))", _ess_term([(symmetrization(sums, alpha, beta), 1.0)])),
            ("r(S((P1+...+Pm)^n))^1/n",
             _ess_term([(symmetrization(set_power(sums, n), alpha, beta), 1.0 / n)])),
            ("r(P1+...+Pm)^(a+b)", _ess_term([(sums, alpha + beta)])),
        ]),
        Part("pair-product", CHAIN, [
            ("r(S(P1)S(P2))", _ess_term([(set_product(syms[0], syms[1]), 1.0)])),
            ("r((P1P2)^(a) o ((P2P1)*)^(b))",
             _ess_term([(symmetrization(p1p2, alpha, beta, set_product(sets[1], sets[0])),
                         1.0)])),
            ("r(P1P2)^(a+b)", _ess_term([(p1p2, alpha + beta)])),
        ]),
    ]
    ladder = [(f"r(S(P^{p}))^(1/{p})",
               _ess_term([(symmetrization(set_power(psi, p), alpha, beta), 1.0 / p)]))
              for p in (2 ** lv for lv in range(5 if len(psi) == 1 else 3))]
    return parts + [Part("dyadic-ladder", CHAIN, [*ladder, psi_power])]


def _e7_sample(rng, ens):
    m = int(rng.integers(2, 4))
    size = _set_size_for(m)
    alpha = 1.0 + 0.01 + 2.0 * rng.random()
    n = int(rng.integers(1, 3))
    return ChainInputs(family_sets=(_fam_set(rng, ens, size, offset=_pick_offset(rng, ens)),),
                       params={"m": m, "n": n, "alpha": alpha})


def _e7_build(inputs, m, n, alpha):
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


def _e8_build(inputs, m, n, alpha):
    sets = inputs.family_sets
    am = alpha * m
    alphas = [alpha] * m
    phis = _rotations(sets)
    powered = [set_hadamard_power(s, am) for s in sets]
    sigmas = _rotations(powered)
    prod_all = phis[0]
    lhs = ("r(mean_a(P_j))", _ess_term([(_smean(sets, alphas), 1.0)]))
    phi_mean = ("r(mean_a(Phi_j))^1/m", _ess_term([(_smean(phis, alphas), 1.0 / m)]))
    powprod = ("r(P1^(am)...Pm^(am))^1/m", _ess_term([(sigmas[0], 1.0 / m)]))
    prod_am = ("r((P1...Pm)^(am))^1/m",
               _ess_term([(set_hadamard_power(prod_all, am), 1.0 / m)]))
    rhs = ("r(P1...Pm)^a", _ess_term([(prod_all, alpha)]))
    parts = [
        Part("cyclic", CHAIN, [
            lhs,
            phi_mean,
            ("r(mean_a(Phi_j^n))^1/mn",
             _ess_term([(_smean([set_power(p, n) for p in phis], alphas), 1.0 / (m * n))])),
            rhs,
        ]),
        Part("power-route", CHAIN, [
            lhs,
            powprod,
            prod_am,
            ("r(((P1...Pm)^n)^(am))^1/nm",
             _ess_term([(set_hadamard_power(set_power(prod_all, n), am), 1.0 / (n * m))])),
            rhs,
        ]),
        Part("sigma-route", CHAIN, [
            lhs,
            ("r(mean_1/m(Sig_j))^1/m",
             _ess_term([(_smean(sigmas, [1.0 / m] * m), 1.0 / m)])),
            ("r(mean_1/m(Sig_j^n))^1/mn",
             _ess_term([(_smean([set_power(s, n) for s in sigmas], [1.0 / m] * m),
                         1.0 / (m * n))])),
            powprod,
            prod_am,
            rhs,
        ]),
    ]
    if alpha >= 1.0:
        parts.append(Part("interleaved", CHAIN, [
            lhs,
            phi_mean,
            ("prod r((Phi_j^n)^(m))^(a/m^2 n)",
             _ess_term([(set_hadamard_power(set_power(p, n), float(m)),
                         alpha / (m * m * n)) for p in phis])),
            rhs,
        ]))
    return parts


def _e9_sample(rng, ens):
    off = _pick_offset(rng, ens)
    sets = (_fam_set(rng, ens, 2, offset=off), _fam_set(rng, ens, 2, offset=off))
    return ChainInputs(family_sets=sets,
                       params={"beta": sample_beta(rng),
                               "beta_open": sample_beta(rng, open_interval=True)})


def _e9_build(inputs, beta, beta_open):
    p, q = inputs.family_sets
    ones = [1.0, 1.0]
    pq = set_product(p, q)
    qp = set_product(q, p)
    pqpq, qpqp = _smean([pq, pq], ones), _smean([qp, qp], ones)
    lhs = ("r(P o Q)", _ess_term([(_smean([p, q], ones), 1.0)]))
    cross = ("r(PQ o QP)^1/2", _ess_term([(_smean([pq, qp], ones), 0.5)]))
    rhs = ("r(PQ)", _ess_term([(pq, 1.0)]))
    return [
        Part("squares-route", CHAIN, [
            lhs,
            ("r(P^(2) Q^(2))^1/2",
             _ess_term([(set_product(set_hadamard_power(p, 2.0),
                                     set_hadamard_power(q, 2.0)), 0.5)])),
            ("r((PoP)(QoQ))^1/2",
             _ess_term([(set_product(_smean([p, p], ones), _smean([q, q], ones)), 0.5)])),
            ("r(PQoPQ)^b/2 r(QPoQP)^(1-b)/2",
             _ess_term([(pqpq, beta / 2), (qpqp, (1 - beta) / 2)])),
            rhs,
        ]),
        Part("cross-route", CHAIN, [
            lhs,
            cross,
            ("r((PQ)^(2))^1/4 r((QP)^(2))^1/4",
             _ess_term([(set_hadamard_power(pq, 2.0), 0.25),
                        (set_hadamard_power(qp, 2.0), 0.25)])),
            ("r(PQoPQ)^1/4 r(QPoQP)^1/4", _ess_term([(pqpq, 0.25), (qpqp, 0.25)])),
            rhs,
        ]),
        Part("reciprocal-route", CHAIN, [
            lhs,
            cross,
            ("r((PQ)^(1/b))^b/2 r((QP)^(1/(1-b)))^(1-b)/2",
             _ess_term([(set_hadamard_power(pq, 1 / beta_open), beta_open / 2),
                        (set_hadamard_power(qp, 1 / (1 - beta_open)), (1 - beta_open) / 2)])),
            rhs,
        ]),
    ]


def _e10_sample(rng, ens):
    off = _pick_offset(rng, ens)
    fams = _fams(rng, ens, 2, offset=off)
    return ChainInputs(families=fams,
                       params={"beta": sample_beta(rng),
                               "beta_open": sample_beta(rng, open_interval=True)})


def _e10_build(inputs, beta, beta_open):
    a, b = inputs.families
    ab, ba = a @ b, b @ a
    lhs = ("ess(A o B)", essential_spectral_radius(a.hadamard(b)))
    rhs = ("ess(AB)", essential_spectral_radius(ab))
    return [
        Part("squares-route", CHAIN, [
            lhs,
            ("ess((AoA)(BoB))^1/2",
             essential_spectral_radius(a.hadamard(a) @ b.hadamard(b)).power(0.5)),
            ("ess(ABoAB)^b/2 ess(BAoBA)^(1-b)/2",
             _split(essential_spectral_radius, ab, ba, beta)),
            rhs,
        ]),
        Part("reciprocal-route", CHAIN, [
            lhs,
            ("ess(AB o BA)^1/2", essential_spectral_radius(ab.hadamard(ba)).power(0.5)),
            ("ess((AB)^(1/b))^b/2 ess((BA)^(1/(1-b)))^(1-b)/2",
             _bprod([essential_spectral_radius(ab.hpow(1 / beta_open)),
                     essential_spectral_radius(ba.hpow(1 / (1 - beta_open)))],
                    [beta_open / 2, (1 - beta_open) / 2])),
            rhs,
        ]),
    ]


def _e11_sample(rng, ens):
    off = _pick_offset(rng, ens)
    alpha = sample_alpha_at_least(rng, 0.5)
    return ChainInputs(family_sets=(_fam_set(rng, ens, 2, offset=off),),
                       families=_fams(rng, ens, 1, offset=off),
                       params={"alpha": alpha})


def _e11_build(inputs, alpha):
    psi = inputs.family_sets[0]
    a = inputs.families[0]
    pa = set_hadamard_power(psi, alpha)
    aa = a.hpow(alpha)
    return [
        Part("set", CHAIN, [
            ("r(P^(a) o (P*)^(a))",
             _ess_term([(_smean([pa, set_adjoint(pa)], [1.0, 1.0]), 1.0)])),
            ("r(P^(a) o P^(a))", _ess_term([(_smean([pa, pa], [1.0, 1.0]), 1.0)])),
            ("r(P)^2a", _ess_term([(psi, 2 * alpha)])),
        ]),
        Part("singleton", CHAIN, [
            ("ess(A^(a) o (A*)^(a))",
             essential_spectral_radius(aa.hadamard(a.adjoint().hpow(alpha)))),
            ("ess(A^(a) o A^(a))", essential_spectral_radius(aa.hadamard(aa))),
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


def _e12_build(inputs):
    t, d = inputs.families
    sigma = inputs.family_sets[0]
    sstar = set_adjoint(sigma)
    tstar = t.adjoint()
    tst = tstar @ t
    gamma_t = hausdorff_mnc(t)
    return [
        Part("star-square", EQUALITY, [
            ("ess(T*T)", essential_spectral_radius(tst)),
            ("gamma(T*T)", hausdorff_mnc(tst)),
            ("gamma(T)^2", gamma_t.power(2.0)),
        ]),
        Part("adjoint-gamma", EQUALITY, [
            ("gamma(T)", gamma_t),
            ("gamma(T*)", hausdorff_mnc(tstar)),
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


def _e13_build(inputs, m):
    sets = inputs.family_sets
    stars = _adjoints(sets)
    lhs = ("gamma(uniform mean)", gamma_set_bracket(_smean(sets, [1.0 / m] * m)))
    if m % 2 == 0:
        w1, w2 = _star_word_patterns(m)
        rhs = ("(r(W) r(W-swap))^1/2m",
               _ess_term([(_word_set(sets, stars, w1), 1.0 / (2 * m)),
                          (_word_set(sets, stars, w2), 1.0 / (2 * m))]))
    else:
        rhs = ("r(long alternating word)^1/2m",
               _ess_term([(_word_set(sets, stars, _long_word_pattern(m)), 1.0 / (2 * m))]))
    return [Part("mean-vs-word", CHAIN, [lhs, rhs])]


def _e14_sample(rng, ens):
    off = _pick_offset(rng, ens)
    sets = (_fam_set(rng, ens, 2, offset=off), _fam_set(rng, ens, 2, offset=off))
    fams = _fams(rng, ens, 2, offset=off)
    return ChainInputs(family_sets=sets, families=fams)


def _e14_build(inputs):
    sets = inputs.family_sets
    ps_q, qs_p, p_qs = _star_pair(sets, _adjoints(sets))
    a, b = inputs.families
    bstar = b.adjoint()
    astar_b = a.adjoint() @ b
    r = essential_spectral_radius(astar_b)
    return [
        Part("set", CHAIN, _star_mean_terms(
            ("gamma(P^(1/2) o Q^(1/2))", "r((P*Q)^(1/2) o (Q*P)^(1/2))^1/2", "r(P*Q)^1/2"),
            sets, ps_q, qs_p, 0.5)),
        _star_swap("set-star-swap", ps_q, p_qs),
        Part("singleton", CHAIN, [
            ("gamma(A^(1/2) o B^(1/2))", hausdorff_mnc(_mean([a, b], [0.5, 0.5]))),
            ("ess((A*B)^(1/2) o (B*A)^(1/2))^1/2",
             essential_spectral_radius(_mean([astar_b, bstar @ a], [0.5, 0.5])).power(0.5)),
            ("ess(A*B)^1/2", r.power(0.5)),
        ]),
        Part("singleton-star-swap", EQUALITY,
             [("ess(A*B)", r), ("ess(AB*)", essential_spectral_radius(a @ bstar))]),
    ]


def _e15_build(inputs, m, alpha, alpha2):
    sets = inputs.family_sets
    stars = _adjoints(sets)
    alphas = [alpha] * m
    lhs = ("gamma(mean_a)", gamma_set_bracket(_smean(sets, alphas)))
    if m % 2 == 0:
        w1, w2 = _star_word_patterns(m)
        rotations = [_word_set(sets, stars, [((j + r) % m, star) for j, star in w1])
                     for r in range(m)]
        main = Part("even", CHAIN, [
            lhs,
            ("r(mean_a(rotated words))^1/m", _ess_term([(_smean(rotations, alphas), 1.0 / m)])),
            ("(r(W) r(W-swap))^a/2",
             _ess_term([(_word_set(sets, stars, w1), alpha / 2),
                        (_word_set(sets, stars, w2), alpha / 2)])),
        ])
    else:
        words = _long_words(sets, stars)
        main = Part("odd", CHAIN, [
            lhs,
            ("r(mean_a(rotated long words))^1/2m",
             _ess_term([(_smean(words, alphas), 1.0 / (2 * m))])),
            ("r(long word)^a/2", _ess_term([(words[0], alpha / 2)])),
        ])
    ps_q, qs_p, p_qs = _star_pair(sets, stars)
    gamma_mean, cross_mean, last = _star_mean_terms(
        ("gamma(P^(a2) o Q^(a2))", "r((P*Q)^(a2) o (Q*P)^(a2))^1/2", "r(P*Q)^a2"),
        sets, ps_q, qs_p, alpha2)
    return [
        main,
        Part("pair", CHAIN, [gamma_mean, cross_mean, last]),
        Part("pair-matrix", CHAIN, [
            gamma_mean,
            cross_mean,
            ("r((P*Q)^(a2) o (P*Q)^(a2))^1/2",
             _ess_term([(_smean([ps_q, ps_q], [alpha2, alpha2]), 0.5)])),
            last,
        ]),
        _star_swap("pair-star-swap", ps_q, p_qs),
    ]


def _odd_pair_part(name, labels, sets, a) -> Part:
    """The pair-word part over the cyclic pairs P_j P*_(j+1) and the long word (odd m)."""
    m = len(sets)
    stars = _adjoints(sets)
    pairs = [set_product(sets[j], stars[(j + 1) % m]) for j in range(m)]
    return _pair_word_part(name, labels, sets, a, pairs, _long_words(sets, stars))


def _e16_build(inputs, m):
    # the last power (1/m)/2 is 1/(2m) exactly: halving a float is exact
    return [_odd_pair_part(
        "odd-pair-chain",
        ("gamma(uniform mean)", "r(mean(pair products))^1/2",
         "r(mean(rotated long words))^1/2m", "r(long word)^1/2m"),
        inputs.family_sets, 1.0 / m)]


def _e17_build(inputs, m, alpha):
    return [_odd_pair_part(
        "odd-weighted-chain",
        ("gamma(mean_a)", "r(mean_a(pair products))^1/2",
         "r(mean_a(rotated long words))^1/2m", "r(long word)^a/2"),
        inputs.family_sets, alpha)]


def _e18_sample(rng, ens):
    alpha = sample_alpha_at_least(rng, 1.0 / 3.0)
    off = _pick_offset(rng, ens)
    sets = (_fam_set(rng, ens, 1, offset=off), _fam_set(rng, ens, 1, offset=off))
    return ChainInputs(family_sets=sets, params={"alpha": alpha})


def _e18_build(inputs, alpha):
    p, q = inputs.family_sets
    ps, qs = _adjoints((p, q))
    cross = [set_product(ps, qs), set_product(ps, p), set_product(q, p)]
    words = [set_product_many([ps, qs, ps, p, q, p]),
             set_product_many([ps, p, q, p, ps, qs]),
             set_product_many([q, p, ps, qs, ps, p])]
    gamma_pqp = gamma_set_bracket(set_product_many([p, q, p]))

    def part(a, name):
        weights = [a] * 3
        return Part(name, CHAIN, [
            ("gamma(P^(a) o (Q*)^(a) o P^(a))", gamma_set_bracket(_smean([p, qs, p], weights))),
            ("r((P*Q*)^(a) o (P*P)^(a) o (QP)^(a))^1/2",
             _ess_term([(_smean(cross, weights), 0.5)])),
            ("r(mean_a(three 6-words))^1/6", _ess_term([(_smean(words, weights), 1.0 / 6)])),
            ("gamma(PQP)^a", gamma_pqp.power(a)),
        ])

    return [part(1.0 / 3.0, "third-weights"), part(alpha, "alpha-weights")]


def _e19_sigmas(sets, tau):
    sig = [set_product(set_adjoint(sets[tau[2 * j]]), sets[tau[2 * j + 1]])
           for j in range(len(sets) // 2)]
    return sig + _adjoints(sig)


def _e19_build(inputs, m, alpha, tau, nu):
    sets = inputs.family_sets
    sigmas = _e19_sigmas(sets, tau)
    omegas = _rotations([sigmas[i] for i in nu])
    labels = ("gamma(mean(P_j))", "r(mean(Sigma_j))^1/2", "r(mean(Omega_i))^1/2m",
              "r(Sigma_nu(1)...Sigma_nu(m))^a/2")
    return [_pair_word_part(name, labels, sets, a, sigmas, omegas)
            for a, name in ((1.0 / m, "uniform"), (alpha, "weighted"))]


def _e20_build(inputs, m, alpha, tau):
    sets = inputs.family_sets
    half = m // 2
    sigmas = _e19_sigmas(sets, tau)
    first_half = sigmas[:half]
    thetas = _rotations(first_half)
    return [Part("half-chain", CHAIN, [
        ("gamma(mean_a(P_j))", gamma_set_bracket(_smean(sets, [alpha] * m))),
        ("r(mean_a(Sigma_j))^1/2", _ess_term([(_smean(sigmas, [alpha] * m), 0.5)])),
        ("r(mean_a(Sigma_1..Sigma_m/2))",
         _ess_term([(_smean(first_half, [alpha] * half), 1.0)])),
        ("r(mean_a(Theta_i))^2/m",
         _ess_term([(_smean(thetas, [alpha] * half), 2.0 / m)])),
        ("r(Sigma_1...Sigma_m/2)^a", _ess_term([(thetas[0], alpha)])),
    ])]


def _sonce_perms(m: int):
    """Permutations that pair each operator with its cyclic successor."""
    tau = list(range(0, m, 2)) + list(range(1, m, 2))
    nu = [(t + 1) % m for t in tau]
    return tau, nu


def _e21_build(inputs, m, alpha, tau, nu):
    sets = inputs.family_sets
    stars = _adjoints(sets)
    labels = ("gamma(mean(P_j))", "r(mean(tau/nu pairs))^1/2", "r(mean(Omega_j))^1/2m",
              "r(pair word)^a/2")

    def chains_for(t, v, weightings):
        """One part per (weight, name), all over the pairs P*_t(j) P_v(j)."""
        pairs = [set_product(stars[t[j]], sets[v[j]]) for j in range(m)]
        omegas = _rotations(pairs)
        return [_pair_word_part(name, labels, sets, a, pairs, omegas)
                for a, name in weightings]

    parts = chains_for(tau, nu, ((1.0 / m, "uniform"), (alpha, "weighted")))
    if m % 2 == 1:
        st, sv = _sonce_perms(m)
        parts += chains_for(st, sv, ((1.0 / m, "consecutive-pairs"),))
        word1 = [(st[j], True) if k == 0 else (sv[j], False)
                 for j in range(m) for k in (0, 1)]
        parts.append(Part("word-swap", EQUALITY, [
            ("r(stars-first word)", _ess_term([(_word_set(sets, stars, word1), 1.0)])),
            ("r(stars-second word)",
             _ess_term([(_word_set(sets, stars, _long_word_pattern(m)), 1.0)])),
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
           _pair_sample, _zhan(lambda a, b, ab: [])),
    _chain("F2", "audenaert-refinement", "finite",
           "Audenaert's interpolation between the Hadamard and ordinary products.",
           _TWO_MATRICES, {"matrices": 2}, (),
           _pair_sample, _zhan(lambda a, b, ab: [_squares(a, b)])),
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
           _f6_sample, _zhan(_f6_mid)),
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
           _Words(lambda rng: int(rng.integers(2, 5))), _e13_build),
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
           _Words(lambda rng: int(rng.integers(2, 4))), _e15_build),
    _chain("E16", "odd-cyclic-pair-bounds", "essential",
           "Odd-length uniform means refined through cyclic adjoint pairs "
           "and rotated double-length words.",
           "odd m >= 3 family sets", {"family_sets": "m"}, (_Int("m", 3, "odd"),),
           _Words(lambda rng: 3 if rng.random() < 0.8 else 5), _e16_build),
    _chain("E17", "odd-weighted-pair-bounds", "essential",
           "Weighted variant of the odd cyclic pair refinement.",
           "odd m >= 3 family sets; alpha >= 1/m",
           {"family_sets": "m"}, (_Int("m", 3, "odd"), _Alpha("alpha", 1)),
           _Words(lambda rng: 3 if rng.random() < 0.8 else 5), _e17_build),
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
           _Words(lambda rng: 2 if rng.random() < 0.8 else 4), _e19_build),
    _chain("E20", "even-half-word-bounds", "essential",
           "Even-length weighted means against products of the first half of "
           "the permutation pairs.",
           "even m >= 2 family sets; alpha >= 2/m; permutation tau",
           {"family_sets": "m"}, (_Int("m", 2, "even"), _Alpha("alpha", 2), _Perm("tau")),
           _Words(lambda rng: 2 if rng.random() < 0.8 else 4), _e20_build),
    _chain("E21", "permutation-pair-word-bounds", "essential",
           "General permutation-paired adjoint refinements, with the odd-m "
           "consecutive-pair case and its word identity.",
           "m >= 2 family sets; alpha >= 1/m; permutations tau, nu",
           {"family_sets": "m"},
           (_Int("m", 2), _Alpha("alpha", 1), _Perm("tau"), _Perm("nu")),
           _Words(lambda rng: 2 if rng.random() < 0.6 else 3), _e21_build),
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
