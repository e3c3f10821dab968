"""Joint and generalized spectral radii of finite operator sets.

Lower bounds come from spectral radii of explored products (valid for the
generalized radius at every depth), upper bounds from norm maxima over
complete product levels (valid by submultiplicativity and Fekete's lemma)
and from a branch-and-bound factorization argument with l1-norm pruning.
Each level of products is built as one stack, and the radii and norms of
a level go through one batched estimator call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceededError, DomainError, ShapeMismatchError
from .families import _pow0
from .matrices import FiniteMatrix
from .sets import OperatorSet, _as_set
from .spectral import (
    L2,
    _ROUND_GUARD,
    Bracket,
    _l2_norms,
    _spectral_radii,
    hausdorff_mnc,
    operator_norm,
    oracle_ess_radius,
)

_MAX_LEVEL = 4096
_KIND_NAMES = {"matrix": "finite matrices", "family": "operator families"}


def _set_of(s, kind: str, who: str) -> OperatorSet:
    """s as an OperatorSet whose elements are of ``kind``; ``who`` names the caller."""
    s = _as_set(s)
    if s.kind != kind:
        raise DomainError(f"{who} expects a set of {_KIND_NAMES[kind]}")
    return s


def _finite(products):
    """The products, unless one of them lies beyond the float range."""
    if not np.isfinite(products).all():
        raise DomainError("a word product exceeds the float range")
    return products


def _canonical(word: tuple[int, ...]) -> bool:
    """True when the word is the lexicographically minimal rotation.

    Radii of products are invariant under cyclic rotation of the factors,
    so one representative per necklace is enough for lower bounds.
    """
    return all(word <= word[i:] + word[:i] for i in range(1, len(word)))


def _necklaces(k: int, m: int) -> list[int]:
    """Ranks, in lexicographic order, of the length-m words over k letters
    that are their least rotation.

    The FKM algorithm (Fredricksen, Kessler & Maiorana; Ruskey, Savage &
    Wang 1992) steps through the prenecklaces in order: raise the last
    letter below k - 1, repeat the prefix up to it periodically, and emit
    the word when its period divides m.  The rank of a word is its index
    in the level, sum of word[j] * k**(m - 1 - j).
    """
    a = [0] * m
    out = [0]
    while True:
        i = m - 1
        while i >= 0 and a[i] == k - 1:
            i -= 1
        if i < 0:
            return out
        a[i] += 1
        for j in range(i + 1, m):
            a[j] = a[j - i - 1]
        if m % (i + 1) == 0:
            rank = 0
            for x in a:
                rank = rank * k + x
            out.append(rank)


def _levels(letters: list[np.ndarray], depth: int):
    """Yield the products of all words of length 1..depth over the letters.

    Each level lists its words in lexicographic order and multiplies left
    to right, (w[0] @ w[1]) @ w[2] ..., so every product is the ``@`` that
    a one-word fold computes.  Level 1 is the letters themselves; later
    levels are C-ordered (K, n, n) stacks, k**m products at depth m.  Each
    letter stays in its own memory layout as a factor, because at some
    sizes (n = 17 to 20, for one) OpenBLAS rounds the products of C- and
    Fortran-ordered operands differently; the letters are never copied
    into one stack.  Run it under ``np.errstate(over="ignore",
    invalid="ignore")``: a product beyond the float range comes out
    non-finite, and the caller checks the products it reads.
    """
    n = letters[0].shape[0]
    if depth > 1 and letters[0].shape != (n, n):
        raise ShapeMismatchError(f"word products need square matrices, got {letters[0].shape}")
    level = letters
    for m in range(1, depth + 1):
        if m == 2:
            level = np.stack([p @ a for p in letters for a in letters])
        elif m > 2:
            level = np.stack([level @ a for a in letters], axis=1).reshape(-1, n, n)
        yield level


def gen_radius_lb(s, m_max: int) -> float:
    """Certified lower bound for the generalized radius of a matrix set.

    Max of rho(P)^(1/m) over the products P of length-m necklace words,
    m <= m_max: radii of products are invariant under cyclic rotation of
    the factors, so one word per rotation class is enough.  The bound is
    non-decreasing in m_max.  The radii of all the products go through one
    batched ``_spectral_radii`` call.  Building a level holds all k**m of
    its products in memory at once, so the cap of ``norm_level_max``
    applies to the deepest level.
    """
    s = _set_of(s, "matrix", "gen_radius_lb")
    if m_max < 1:
        raise DomainError("m_max must be >= 1")
    if m_max > 1 and len(s) ** m_max > _MAX_LEVEL:
        raise BudgetExceededError("word level enumeration exceeded its cap")
    letters = [m.a for m in s.elements]
    prods = []
    roots = []
    with np.errstate(over="ignore", invalid="ignore"):
        for m, level in enumerate(_levels(letters, m_max), 1):
            picked = _finite(np.asarray(level)[_necklaces(len(letters), m)])
            prods += list(picked)
            roots += [1.0 / m] * len(picked)
    best = 0.0
    for (lo, _, _), p in zip(_spectral_radii(prods), roots):
        if lo > 0:
            best = max(best, math.pow(lo, p))
    return best


def joint_radius_ub(s, m_max: int) -> float:
    """Certified upper bound for the joint radius of a matrix set.

    Min over m <= m_max of ``norm_level_max(S, m)^(1/m)``; valid by
    submultiplicativity.  Non-increasing in m_max.  Stops at the last depth
    whose level fits under the enumeration cap instead of raising; depth 1
    is always evaluated.  One walk over the levels serves every depth.
    """
    s = _set_of(s, "matrix", "joint_radius_ub")
    if m_max < 1:
        raise DomainError("m_max must be >= 1")
    depth = next(m for m in range(m_max, 0, -1) if m == 1 or len(s) ** m <= _MAX_LEVEL)
    levels = _levels([m.a for m in s.elements], depth)
    best = math.inf
    for m in range(1, depth + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            level = _finite(next(levels))
        best = min(best, _pow0(max(hi for _, hi, _ in _l2_norms(level)), 1.0 / m))
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
    if not 0 < delta < math.inf:
        raise DomainError(f"delta must be positive and finite, got {delta!r}")
    s = _set_of(s, "matrix", "gripenberg_bracket")
    mats = [m.a for m in s.elements]
    with np.errstate(over="ignore"):
        colsums = [float(m.sum(axis=0).max()) for m in mats]
    letter_lognorm = [math.log(v) if v > 0 else -math.inf for v in colsums]

    fekete = math.inf
    spent = 0
    exhaustive = True  # no nonzero branch pruned yet: levels are complete

    def lower_end(nodes: list[_Node]) -> float:
        """Largest rho(P)^(1/|w|) over the nodes' products, in one batched call."""
        best = 0.0
        for n, (lo, _, _) in zip(nodes, _spectral_radii([n.mat for n in nodes])):
            if lo > 0:
                try:
                    best = max(best, math.exp((math.log(lo) + n.logscale) / len(n.word)))
                except OverflowError:
                    raise DomainError("joint spectral radius exceeds the float range") from None
        return best

    def level_fekete(nodes: list[_Node]) -> float:
        m = len(nodes[0].word)
        if space == L2:
            his = [hi for _, hi, _ in _l2_norms([n.mat for n in nodes])]
        else:
            his = [operator_norm(FiniteMatrix(n.mat), space).hi for n in nodes]
        best = -math.inf
        for n, hi in zip(nodes, his):
            if hi > 0:
                best = max(best, math.log(hi) + n.logscale)
        return _exp_up(best / m) if best > -math.inf else 0.0

    frontier: list[_Node] = []
    for i, m in enumerate(mats):
        top = float(m.max())
        if top <= 0:
            continue  # a zero letter only yields zero products
        frontier.append(_Node((i,), m / top, math.log(top), letter_lognorm[i]))
    if not frontier:
        return Bracket(0.0, 0.0, "gripenberg")
    alpha = lower_end(frontier)

    while True:
        if exhaustive:
            fekete = min(fekete, level_fekete(frontier))
        frontier_term = max(_exp_up(n.logp / len(n.word)) for n in frontier)
        ub = min(fekete, max(alpha + delta, frontier_term * (1 + _ROUND_GUARD)))
        if ub - alpha <= delta:
            return Bracket(min(alpha, ub), ub, "gripenberg")
        if spent >= budget or len(frontier) * len(mats) > _MAX_LEVEL:
            return Bracket(min(alpha, ub), ub, "gripenberg", converged=False)

        children = []  # unpruned: (parent, letter, product, its largest entry, logp)
        with np.errstate(over="ignore"):
            for node in frontier:
                for i, m in enumerate(mats):
                    spent += 1
                    prod = node.mat @ m
                    top = float(prod.max())
                    if top <= 0:
                        continue  # zero product: prunable with bound 0
                    lognorm = math.log(float(prod.sum(axis=0).max())) + node.logscale
                    logp = min(node.logp + letter_lognorm[i], lognorm)
                    if _exp_up(logp / (len(node.word) + 1)) <= alpha + delta:
                        exhaustive = False
                        continue
                    children.append((node, i, prod, top, logp))
        _finite([top for _, _, _, top, _ in children])
        survivors = [_Node(node.word + (i,), prod / top, node.logscale + math.log(top), logp)
                     for node, i, prod, top, logp in children]
        # radius evaluations are the expensive step: one canonical word per
        # necklace raises the lower bound just as well
        alpha = max(alpha, lower_end([c for c in survivors if _canonical(c.word)]))
        nxt = []
        for child in survivors:
            if _exp_up(child.logp / len(child.word)) <= alpha + delta:
                exhaustive = False
                continue
            nxt.append(child)
        if not nxt:
            ub = min(fekete, alpha + delta)
            return Bracket(min(alpha, ub), ub, "gripenberg")
        frontier = nxt


def _exp_up(x: float) -> float:
    """exp(x) for an upper end: +inf beyond the float range."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def norm_level_max(s, depth: int) -> float:
    """Largest l2 norm upper bound over all length-``depth`` products from S.

    The depth-th root is a certified upper bound for both finite set radii;
    chains compare such values at matched underlying depths.  The cap
    bounds the products built, so depth 1, which builds none, never hits it.
    """
    s = _set_of(s, "matrix", "norm_level_max")
    if depth < 1:
        raise DomainError("depth must be >= 1")
    if depth > 1 and len(s) ** depth > _MAX_LEVEL:
        raise BudgetExceededError("norm level enumeration exceeded its cap")
    with np.errstate(over="ignore", invalid="ignore"):
        for level in _levels([m.a for m in s.elements], depth):
            _finite(level)
    return max(hi for _, hi, _ in _l2_norms(level))


def gamma_level_max(s) -> float:
    """Largest noncompactness upper bound over the elements of a family set.

    Depth 1 is enough for both essential set radii: gamma is multiplicative
    on banded families, so the largest gamma over length-m products is this
    value to the m-th power.
    """
    s = _set_of(s, "family", "gamma_level_max")
    if len(s) > _MAX_LEVEL:
        raise BudgetExceededError("gamma level enumeration exceeded its cap")
    return gamma_set_bracket(s).hi


def oracle_set_lb(s) -> float:
    """Certified lower bound for both essential set radii from element oracles."""
    values = map(oracle_ess_radius, _set_of(s, "family", "oracle_set_lb"))
    return max([0.0, *(v for v in values if v is not None)])


def gamma_set_bracket(s) -> Bracket:
    """sup of the noncompactness measure over the elements of a family set.

    Each element's measure is an exact point bracket, so the sup is one
    point too.
    """
    g = max(0.0, *(hausdorff_mnc(f).hi for f in _set_of(s, "family", "gamma_set_bracket")))
    return Bracket(g, g, "gamma-sup")


def norm_set_bracket(s) -> Bracket:
    """sup of the l2 operator norm over the elements of a matrix set, in one batch."""
    norms = _l2_norms([m.a for m in _set_of(s, "matrix", "norm_set_bracket")])
    lo = max(0.0, *(lo for lo, _, _ in norms))  # starting at +0.0 fixes the sign of zero
    hi = max(0.0, *(hi for _, hi, _ in norms))
    return Bracket(min(lo, hi), hi, "norm-sup")
