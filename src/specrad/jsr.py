"""Joint and generalized spectral radii of finite operator sets.

Lower bounds come from spectral radii of explored products (valid for the
generalized radius at every depth), upper bounds from norm maxima over
complete product levels (valid by submultiplicativity and Fekete's lemma)
and from a branch-and-bound factorization argument with l1-norm pruning.
One walk, ``_levels``, yields each level of products as one stack, and
the radii and norms of a level go through one batched estimator call.
The branch and bound builds each level's children the same way, as one
stack, and reduces, prunes and normalizes them stacked.
"""

from __future__ import annotations

import functools
import itertools
import math

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
    so one representative per necklace is enough for lower bounds.  In one
    pass: p is the period of the longest prenecklace prefix, and the word
    is a necklace when no letter falls below the one p places back and p
    divides the length (Cattell et al., J. Algorithms 2000).
    """
    p = 1
    for i in range(1, len(word)):
        if word[i] < word[i - p]:
            return False
        if word[i] > word[i - p]:
            p = i + 1
    return len(word) % p == 0


def _child_period(word: tuple[int, ...], p: int, c: int) -> int:
    """The prenecklace period of ``word + (c,)``, given the word's period p
    (0 when the word is no prenecklace): ``_canonical``'s scan, one letter on.

    The child is a necklace exactly when its period is positive and divides
    its length; a one-letter word has period 1.
    """
    if not p:
        return 0
    last = word[len(word) - p]
    return 0 if c < last else len(word) + 1 if c > last else p


@functools.cache
def _necklaces(k: int, m: int) -> list[int]:
    """Ranks (indices in the level), in order, of the length-m words over k
    letters that are their least rotation; cached, so never mutate the list."""
    return [r for r, w in enumerate(itertools.product(range(k), repeat=m)) if _canonical(w)]


def _levels(letters: list[np.ndarray], depth: int, clip: bool = False):
    """Products of all words of length 1..depth over the letters, yielded one
    level per length; level m holds all k**m products in lexicographic order.

    The depth is an integer >= 1.  A level past ``_MAX_LEVEL`` raises
    ``BudgetExceededError`` before any is yielded or, with ``clip``, ends the
    walk at the deepest level that fits; depth 1 builds no product.  Each
    product multiplies left to right, (w[0] @ w[1]) @ w[2] ..., as a
    one-word fold does.  Level 1 is the letters; later levels are
    C-ordered (K, n, n) stacks from ``_extend``, and only the level being
    extended is kept.  Each letter keeps its own memory layout, because at
    some sizes (n = 17 to 20, for one) OpenBLAS rounds products of C- and
    Fortran-ordered operands differently.  Each level is built under
    ``np.errstate(over="ignore", invalid="ignore")``, left before the level
    is yielded: a product beyond the float range comes out non-finite, and
    each caller checks the products it reads under its own error state.
    """
    if isinstance(depth, bool) or not isinstance(depth, (int, np.integer)) or depth < 1:
        raise DomainError(f"word depth must be an integer >= 1, got {depth!r}")
    fits = 1
    while fits < depth and len(letters) ** (fits + 1) <= _MAX_LEVEL:
        fits += 1
    if fits < depth and not clip:
        raise BudgetExceededError("word level enumeration exceeded its cap")
    n = letters[0].shape[0]
    if fits > 1 and letters[0].shape != (n, n):
        raise ShapeMismatchError(f"word products need square matrices, got {letters[0].shape}")
    level = letters
    yield level
    for _ in range(2, fits + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            level = _extend(level, letters)
        yield level


def _extend(level, letters: list[np.ndarray]) -> np.ndarray:
    """The children of a word level as one C-ordered (K * k, n, n) stack:
    child j * k + i is ``level[j] @ letters[i]``.

    A list level (the letters, or any products that keep their own layouts)
    multiplies one pair at a time, so each operand keeps its layout; a
    stacked level takes one stacked ``@`` per letter.  The caller sets the
    error state.
    """
    if isinstance(level, list):
        return np.stack([p @ a for p in level for a in letters])
    n = level.shape[-1]
    return np.stack([level @ a for a in letters], axis=1).reshape(-1, n, n)


def gen_radius_lb(s, m_max: int) -> float:
    """Certified lower bound for the generalized radius of a matrix set.

    Max of rho(P)^(1/m) over the products P of length-m necklace words
    (one word per rotation class), m <= m_max; non-decreasing in m_max.
    The radii of all the products go through one batched
    ``_spectral_radii`` call; ``_levels`` caps the deepest level.
    """
    s = _set_of(s, "matrix", "gen_radius_lb")
    prods, roots = [], []
    for m, level in enumerate(_levels([e.a for e in s.elements], m_max), 1):
        picked = _finite(np.asarray(level)[_necklaces(len(s), m)])
        prods += list(picked)
        roots += [1.0 / m] * len(picked)
    return max([math.pow(lo, p) for (lo, _, _), p in zip(_spectral_radii(prods), roots)
                if lo > 0], default=0.0)


def joint_radius_ub(s, m_max: int) -> float:
    """Certified upper bound for the joint radius of a matrix set.

    Min over m <= m_max of ``norm_level_max(S, m)^(1/m)``; valid by
    submultiplicativity.  Non-increasing in m_max.  Stops at the last depth
    whose level fits under the cap instead of raising, in one walk.
    """
    s = _set_of(s, "matrix", "joint_radius_ub")
    best = math.inf
    for m, level in enumerate(_levels([e.a for e in s.elements], m_max, clip=True), 1):
        best = min(best, _pow0(max(hi for _, hi, _ in _l2_norms(_finite(level))), 1.0 / m))
    return best


def gripenberg_bracket(s, delta: float, budget: int = 50_000,
                       space: str = L2) -> Bracket:
    """Branch-and-bound enclosure of the joint spectral radius.

    Grows the product tree level by level.  A word is pruned once its
    chained l1 bound p(w)^(1/|w|) falls to lb + delta; every infinite
    product then factors through pruned blocks and the surviving frontier,
    which yields a certified upper bound.  While no branch has been pruned
    the levels are exhaustive and also feed Fekete upper bounds in the
    requested norm.  Terminates with width <= delta unless the budget (an
    integer >= 0 of child products) runs out first, in which case the
    widest certified bracket is returned with the converged flag cleared.

    Each level's children form one C-ordered stack, built by ``_extend``
    as ``_levels`` builds a level; their largest entries and l1 norms (max
    column sums) come from two stacked reductions, the survivors are
    normalized in one stacked division, and the canonical ones go to
    ``lower_end`` as one slice of the stack.  A child is canonical when its prenecklace period,
    carried from its parent in constant time (``_child_period``), divides
    its length.  Logs and exponentials stay per element on ``math``.
    """
    if not 0 < delta < math.inf:
        raise DomainError(f"delta must be positive and finite, got {delta!r}")
    if isinstance(budget, bool) or not isinstance(budget, (int, np.integer)) or budget < 0:
        raise DomainError(f"budget must be an integer >= 0, got {budget!r}")
    s = _set_of(s, "matrix", "gripenberg_bracket")
    mats = [m.a for m in s.elements]
    with np.errstate(over="ignore"):
        colsums = [float(m.sum(axis=0).max()) for m in mats]
    letter_lognorm = [math.log(v) if v > 0 else -math.inf for v in colsums]

    fekete = math.inf
    spent = 0
    exhaustive = True  # no nonzero branch pruned yet: levels are complete

    def lower_end(m: int, prods: list, logscales: list) -> float:
        """Largest rho(P)^(1/m) over the length-m products, in one batched call."""
        best = 0.0
        for logscale, (lo, _, _) in zip(logscales, _spectral_radii(prods)):
            if lo > 0:
                try:
                    best = max(best, math.exp((math.log(lo) + logscale) / m))
                except OverflowError:
                    raise DomainError("joint spectral radius exceeds the float range") from None
        return best

    def level_fekete(m: int, prods: list, logscales: list) -> float:
        if space == L2:
            his = [hi for _, hi, _ in _l2_norms(prods)]
        else:
            his = [operator_norm(FiniteMatrix(p), space).hi for p in prods]
        best = max([math.log(hi) + logscale for logscale, hi in zip(logscales, his) if hi > 0],
                   default=-math.inf)
        return _exp_up(best / m) if best > -math.inf else 0.0

    tops = [float(a.max()) for a in mats]
    live = [i for i, top in enumerate(tops) if top > 0]  # a zero letter only yields zero products
    if not live:
        return Bracket(0.0, 0.0, "gripenberg")
    k = len(mats)
    # the frontier: words of one length m, their products normalized to unit
    # max entry, the logs of the normalization factors and of the pruning
    # bounds, and each word's prenecklace period (``_child_period``)
    words = [(i,) for i in live]
    prods = [mats[i] / tops[i] for i in live]
    logscales = [math.log(tops[i]) for i in live]
    logps = [letter_lognorm[i] for i in live]
    periods = [1] * len(live)
    alpha = lower_end(1, prods, logscales)

    while True:
        m = len(words[0])
        if exhaustive:
            fekete = min(fekete, level_fekete(m, prods, logscales))
        frontier_term = max(_exp_up(logp / m) for logp in logps)
        ub = min(fekete, max(alpha + delta, frontier_term * (1 + _ROUND_GUARD)))
        if ub - alpha <= delta:
            return Bracket(min(alpha, ub), ub, "gripenberg")
        if spent >= budget or len(words) * k > _MAX_LEVEL:
            return Bracket(min(alpha, ub), ub, "gripenberg", converged=False)

        # child j * k + i is word j followed by letter i; the level-1
        # products are a list, so they keep their letters' layouts
        spent += len(words) * k
        with np.errstate(over="ignore"):
            stack = _extend(prods, mats)
            colsums = stack.sum(axis=1).max(axis=1).tolist()
        children = []  # unpruned: (index in the stack, its largest entry, logp, period)
        for c, (top, colsum) in enumerate(zip(stack.max(axis=(1, 2)).tolist(), colsums)):
            if top <= 0:
                continue  # zero product: prunable with bound 0
            j, i = divmod(c, k)
            logp = min(logps[j] + letter_lognorm[i], math.log(colsum) + logscales[j])
            if _exp_up(logp / (m + 1)) <= alpha + delta:
                exhaustive = False
                continue
            children.append((c, top, logp, _child_period(words[j], periods[j], i)))
        _finite([top for _, top, _, _ in children])
        words, logscales, logps, periods = (
            [words[c // k] + (c % k,) for c, _, _, _ in children],
            [logscales[c // k] + math.log(top) for c, top, _, _ in children],
            [logp for _, _, logp, _ in children],
            [p for _, _, _, p in children])
        prods = stack[[c for c, _, _, _ in children]] / np.array(
            [top for _, top, _, _ in children]).reshape(-1, 1, 1)
        # radius evaluations are the expensive step: one canonical word per
        # necklace raises the lower bound just as well
        canon = [j for j, p in enumerate(periods) if p and (m + 1) % p == 0]
        alpha = max(alpha, lower_end(m + 1, prods[canon], [logscales[j] for j in canon]))
        keep = [j for j, logp in enumerate(logps) if _exp_up(logp / (m + 1)) > alpha + delta]
        exhaustive = exhaustive and len(keep) == len(words)
        if not keep:
            ub = min(fekete, alpha + delta)
            return Bracket(min(alpha, ub), ub, "gripenberg")
        words, logscales, logps, periods = (
            [col[j] for j in keep] for col in (words, logscales, logps, periods))
        prods = prods[keep]


def _exp_up(x: float) -> float:
    """exp(x) for an upper end: +inf beyond the float range."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def norm_level_max(s, depth: int) -> float:
    """Largest l2 norm upper bound over all length-``depth`` products from S.

    The depth-th root is a certified upper bound for both finite set radii;
    chains compare such values at matched underlying depths.
    """
    s = _set_of(s, "matrix", "norm_level_max")
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
