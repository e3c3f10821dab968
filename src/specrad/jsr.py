"""Joint and generalized spectral radii of finite operator sets.

Lower bounds come from spectral radii of explored products (valid for the
generalized radius at every depth), upper bounds from norm maxima over
complete product levels (valid by submultiplicativity and Fekete's lemma)
and from a branch-and-bound factorization argument with l1-norm pruning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product as _iterprod

import numpy as np

from .errors import BudgetExceededError, DomainError
from .families import _pow0
from .matrices import FiniteMatrix
from .sets import _as_set
from .spectral import (
    L2,
    _ROUND_GUARD,
    Bracket,
    hausdorff_mnc,
    operator_norm,
    oracle_ess_radius,
    spectral_radius,
)

_MAX_LEVEL = 4096


def _canonical(word: tuple[int, ...]) -> bool:
    """True when the word is the lexicographically minimal rotation.

    Radii of products are invariant under cyclic rotation of the factors,
    so one representative per necklace is enough for lower bounds.
    """
    return all(word <= word[i:] + word[:i] for i in range(1, len(word)))


def _word_product(mats, word):
    acc = mats[word[0]]
    for idx in word[1:]:
        acc = acc @ mats[idx]
    return acc


def gen_radius_lb(s, m_max: int) -> float:
    """Certified lower bound for the generalized radius of a matrix set.

    Max of rho(P)^(1/m) over canonical length-m words, m <= m_max.  The
    bound is non-decreasing in m_max.
    """
    s = _as_set(s)
    if s.kind != "matrix":
        raise DomainError("gen_radius_lb expects a set of finite matrices")
    if m_max < 1:
        raise DomainError("m_max must be >= 1")
    mats = list(s.elements)
    best = 0.0
    for m in range(1, m_max + 1):
        for word in _iterprod(range(len(mats)), repeat=m):
            if not _canonical(word):
                continue
            lo = spectral_radius(_word_product(mats, word)).lo
            if lo > 0:
                best = max(best, math.pow(lo, 1.0 / m))
    return best


def joint_radius_ub(s, m_max: int) -> float:
    """Certified upper bound for the joint radius of a matrix set.

    Min over m <= m_max of ``norm_level_max(S, m)^(1/m)``; valid by
    submultiplicativity.  Non-increasing in m_max.  Stops at the last depth
    whose level fits under the enumeration cap instead of raising; depth 1
    is always evaluated.
    """
    s = _as_set(s)
    if s.kind != "matrix":
        raise DomainError("joint_radius_ub expects a set of finite matrices")
    if m_max < 1:
        raise DomainError("m_max must be >= 1")
    best = math.inf
    for m in range(1, m_max + 1):
        if m > 1 and len(s) ** m > _MAX_LEVEL:
            break
        best = min(best, _pow0(norm_level_max(s, m), 1.0 / m))
    return best


@dataclass
class _Node:
    word: tuple[int, ...]
    mat: np.ndarray       # product normalized to unit max entry
    logscale: float       # log of the normalization factor
    logp: float           # log of the chained pruning bound


def gripenberg_bracket(s, delta: float, budget: int = 50_000,
                       space: str = L2) -> Bracket:
    """Branch-and-bound enclosure of the joint spectral radius.

    Grows the product tree level by level.  A word is pruned once its
    chained l1 bound p(w)^(1/|w|) falls to lb + delta; every infinite
    product then factors through pruned blocks and the surviving frontier,
    which yields a certified upper bound.  While no branch has been pruned
    the levels are exhaustive and also feed Fekete upper bounds in the
    requested norm.  Terminates with width <= delta unless the budget runs
    out first, in which case the widest certified bracket is returned with
    the converged flag cleared.
    """
    if delta <= 0:
        raise DomainError("delta must be positive")
    s = _as_set(s)
    if s.kind != "matrix":
        raise DomainError("gripenberg_bracket expects a set of finite matrices")
    mats = [np.array(m.a) for m in s.elements]
    letter_lognorm = []
    for m in mats:
        v = float(m.sum(axis=0).max())
        letter_lognorm.append(math.log(v) if v > 0 else -math.inf)

    alpha = 0.0
    fekete = math.inf
    spent = 0
    exhaustive = True  # no nonzero branch pruned yet: levels are complete

    def rho_of(node: _Node) -> float:
        b = spectral_radius(FiniteMatrix(node.mat))
        if b.lo <= 0:
            return 0.0
        return math.exp((math.log(b.lo) + node.logscale) / len(node.word))

    def level_fekete(nodes: list[_Node]) -> float:
        m = len(nodes[0].word)
        best = -math.inf
        for n in nodes:
            hi = operator_norm(FiniteMatrix(n.mat), space).hi
            if hi > 0:
                best = max(best, math.log(hi) + n.logscale)
        return math.exp(best / m) if best > -math.inf else 0.0

    frontier: list[_Node] = []
    for i, m in enumerate(mats):
        top = float(m.max())
        if top <= 0:
            continue  # a zero letter only yields zero products
        frontier.append(_Node((i,), m / top, math.log(top), letter_lognorm[i]))
    if not frontier:
        return Bracket(0.0, 0.0, "gripenberg")
    for node in frontier:
        alpha = max(alpha, rho_of(node))

    while True:
        if exhaustive:
            fekete = min(fekete, level_fekete(frontier))
        frontier_term = max(math.exp(n.logp / len(n.word)) for n in frontier)
        ub = min(fekete, max(alpha + delta, frontier_term * (1 + _ROUND_GUARD)))
        if ub - alpha <= delta:
            return Bracket(min(alpha, ub), ub, "gripenberg")
        if spent >= budget or len(frontier) * len(mats) > _MAX_LEVEL:
            return Bracket(min(alpha, ub), ub, "gripenberg", converged=False)

        survivors: list[_Node] = []
        for node in frontier:
            for i, m in enumerate(mats):
                spent += 1
                prod = node.mat @ m
                top = float(prod.max())
                if top <= 0:
                    continue  # zero product: prunable with bound 0
                child = _Node(node.word + (i,), prod / top,
                              node.logscale + math.log(top), 0.0)
                lognorm = math.log(float(prod.sum(axis=0).max())) + node.logscale
                child.logp = min(node.logp + letter_lognorm[i], lognorm)
                if math.exp(child.logp / len(child.word)) <= alpha + delta:
                    exhaustive = False
                    continue
                survivors.append(child)
        # radius evaluations are the expensive step: one canonical word per
        # necklace raises the lower bound just as well
        for child in survivors:
            if _canonical(child.word):
                alpha = max(alpha, rho_of(child))
        nxt = []
        for child in survivors:
            if math.exp(child.logp / len(child.word)) <= alpha + delta:
                exhaustive = False
                continue
            nxt.append(child)
        if not nxt:
            ub = min(fekete, alpha + delta)
            return Bracket(min(alpha, ub), ub, "gripenberg")
        frontier = nxt


def norm_level_max(s, depth: int) -> float:
    """Largest l2 norm upper bound over all length-``depth`` products from S.

    The depth-th root is a certified upper bound for both finite set radii;
    chains compare such values at matched underlying depths.  The cap
    bounds the products built, so depth 1, which builds none, never hits it.
    """
    s = _as_set(s)
    if s.kind != "matrix":
        raise DomainError("norm_level_max expects a set of finite matrices")
    if depth < 1:
        raise DomainError("depth must be >= 1")
    if depth > 1 and len(s) ** depth > _MAX_LEVEL:
        raise BudgetExceededError("norm level enumeration exceeded its cap")
    level = list(s.elements)
    for _ in range(depth - 1):
        level = [p @ a for p in level for a in s.elements]
    return max(operator_norm(p).hi for p in level)


def gamma_level_max(s) -> float:
    """Largest noncompactness upper bound over the elements of a family set.

    Depth 1 is enough for both essential set radii: gamma is multiplicative
    on banded families, so the largest gamma over length-m products is this
    value to the m-th power.
    """
    s = _as_set(s)
    if s.kind != "family":
        raise DomainError("gamma_level_max expects a set of operator families")
    if len(s) > _MAX_LEVEL:
        raise BudgetExceededError("gamma level enumeration exceeded its cap")
    return gamma_set_bracket(s).hi


def oracle_set_lb(s) -> float:
    """Certified lower bound for both essential set radii from element oracles."""
    s = _as_set(s)
    best = 0.0
    for f in s:
        v = oracle_ess_radius(f)
        if v is not None:
            best = max(best, v)
    return best


def gamma_set_bracket(s) -> Bracket:
    """sup of the noncompactness measure over the elements of a family set.

    Each element's measure is an exact point bracket, so the sup is one
    point too.
    """
    s = _as_set(s)
    if s.kind != "family":
        raise DomainError("gamma_set_bracket expects a set of operator families")
    g = max(0.0, *(hausdorff_mnc(f).hi for f in s))
    return Bracket(g, g, "gamma-sup")


def norm_set_bracket(s) -> Bracket:
    """sup of the l2 operator norm over the elements of a matrix set."""
    s = _as_set(s)
    if s.kind != "matrix":
        raise DomainError("norm_set_bracket expects a set of finite matrices")
    lo = 0.0
    hi = 0.0
    for m in s:
        b = operator_norm(m)
        lo = max(lo, b.lo)
        hi = max(hi, b.hi)
    return Bracket(min(lo, hi), hi, "norm-sup")
