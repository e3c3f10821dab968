"""Joint and generalized spectral radii of finite operator sets.

Lower bounds come from spectral radii of explored products (valid for the
generalized radius at every depth), upper bounds from norm maxima over
complete product levels (valid by submultiplicativity and Fekete's lemma)
and from a branch-and-bound factorization argument with l1-norm pruning.
One walk, ``_levels``, yields each level of products as one stack, the
first being the set's own stack of letters, and the radii and norms of a
level go through one batched estimator call.  Those calls take the stacks
as they are: ``gen_radius_lb`` hands its necklace products on as one
stack, ``_set_bounds`` each walk's necklace products and deepest level,
and the branch and bound its levels, so a positive stack goes to the
Perron brackets with no copy and no component split, and the Gram
matrices of each are one stacked product.
``_set_bounds`` gives both finite bounds of many (set, depth) pairs from
one ``spectral._radii_norms`` call, which also brackets a caller's arrays.
The branch and bound builds each level's children the same way, as one
stack, and reduces, prunes and normalizes them stacked.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import (BudgetExceededError, DomainError, ShapeMismatchError, SpecradError,
                     _integer, _real)
from .families import _pow0
from .matrices import _finite
from .sets import OperatorSet, _as_set
from .spectral import (
    L2,
    _ROUND_GUARD,
    Bracket,
    _band_limit_sum,
    _check_space,
    _exp_up,
    _in_range,
    _norms,
    _radii_norms,
    _spectral_radii,
)

_MAX_LEVEL = 4096
_KIND_NAMES = {"matrix": "finite matrices", "family": "operator families"}


def _set_of(s, kind: str, who: str) -> OperatorSet:
    """s as an OperatorSet whose elements are of ``kind``; ``who`` names the caller."""
    s = _as_set(s)
    if s.kind != kind:
        raise DomainError(f"{who} expects a set of {_KIND_NAMES[kind]}")
    return s


def _letters(s, who: str) -> np.ndarray:
    """The (k, n, n) stack of a matrix set, as it is (C-ordered, or the
    transposed view of an adjoint set), refused for any other kind of set."""
    return _set_of(s, "matrix", who).items


def _child(word: tuple[int, tuple[int, ...]], m: int, c: int) -> tuple[int, tuple[int, ...]]:
    """The word w + (c,) as (period, head), from w as (p, head) and its
    length m: p is w's prenecklace period (0 when w is no prenecklace) and
    head its first p letters; a one-letter word is (1, (letter,)).

    Radii of products are invariant under cyclic rotation of the factors,
    so one representative per necklace is enough for lower bounds.  The
    period p of a word is that of its longest prenecklace prefix; the word
    is a necklace, its least rotation, when no letter falls below the one p
    places back and p divides its length (Cattell et al., J. Algorithms
    2000).  A prenecklace of period p is p-periodic, so the letter p places
    back, w[m - p], is head[m % p], and a child keeps its parent's head
    unless its period becomes its length, when the child is rebuilt from
    the head in full; a child that is no prenecklace is (0, ()).
    """
    p, head = word
    if not p:
        return word
    last = head[m % p]
    if c < last:
        return 0, ()
    if c > last:
        return m + 1, (head * (m // p + 1))[:m] + (c,)
    return word


@functools.cache
def _necklaces(k: int, m: int) -> list[int]:
    """Ranks (indices in the level), in order, of the length-m words over k
    letters that are their least rotation: each level's words are grown
    from the last with ``_child``, and a word is kept when its period
    divides m.  One letter makes one word per length, a necklace, so it
    needs no walk.  Cached, so never mutate the list."""
    if k == 1:
        return [0]
    words = [(1, (c,)) for c in range(k)]
    for j in range(1, m):
        words = [_child(w, j, c) for w in words for c in range(k)]
    return [r for r, (p, _) in enumerate(words) if p and m % p == 0]


def _levels(letters: np.ndarray, depth: int, clip: bool = False):
    """Products of all words of length 1..depth over the letters, yielded one
    level per length; level m holds all k**m products in lexicographic order.

    The depth is an integer >= 1.  A level past ``_MAX_LEVEL`` products, or
    a walk past ``2 * _MAX_LEVEL`` over all its levels (which binds a
    one-letter set alone), raises ``BudgetExceededError`` before any level
    is yielded or, with ``clip``, ends the walk at the deepest level that
    fits; depth 1 builds no product.  Each
    product multiplies left to right, (w[0] @ w[1]) @ w[2] ..., as a
    one-word fold does.  Level 1 is the letters' stack as it is; later
    levels are C-ordered (K, n, n) stacks from ``_extend``, and only the
    level being extended is kept.  The letters keep their set's memory
    layout, because at some sizes (n = 17 to 20, for one) OpenBLAS rounds
    products of C- and Fortran-ordered operands differently.  Each level is
    built under ``np.errstate(over="ignore", invalid="ignore")``, left
    before the level is yielded: a product beyond the float range comes out
    non-finite, and each caller checks the products it reads under its own
    error state.
    """
    depth = _integer(depth, 1, "word depth")
    k = len(letters)
    fits, total = 1, k  # the deepest level that fits, and the products up to it
    while fits < depth and k ** (fits + 1) <= min(_MAX_LEVEL, 2 * _MAX_LEVEL - total):
        fits += 1
        total += k ** fits
    if fits < depth and not clip:
        raise BudgetExceededError("word level enumeration exceeded its cap")
    n = letters.shape[1]
    if fits > 1 and letters.shape[1:] != (n, n):
        raise ShapeMismatchError(f"word products need square matrices, got {letters.shape[1:]}")
    level = letters
    yield level
    for _ in range(2, fits + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            level = _extend(level, letters)
        yield level


def _extend(level: np.ndarray, letters: np.ndarray) -> np.ndarray:
    """The children of a (K, n, n) word level as one C-ordered (K * k, n, n)
    stack: child j * k + i is ``level[j] @ letters[i]``, from one stacked
    ``@`` per letter, which multiplies each pair in its operands' layouts.
    The caller sets the error state.
    """
    n = level.shape[-1]
    return np.stack([level @ a for a in letters], axis=1).reshape(-1, n, n)


def gen_radius_lb(s, m_max: int) -> float:
    """Certified lower bound for the generalized radius of a matrix set.

    Max of rho(P)^(1/m) over the products P of length-m necklace words
    (one word per rotation class), m <= m_max; non-decreasing in m_max.
    The radii of all the products go through one batched
    ``_spectral_radii`` call as one stack; ``_levels`` caps the deepest
    level.
    """
    prods, roots, _ = _necklace_walk(_letters(s, "gen_radius_lb"), m_max)
    return _root_max(_spectral_radii([prods]), roots)


def _necklace_walk(letters: np.ndarray, depth: int, full: bool = False):
    """One ``_levels`` walk to ``depth``: (the products of every level's
    necklace words as one stack, their roots 1/m, the deepest level).

    The picked products are checked finite or, with ``full``, every product
    of every level, as ``norm_level_max`` checks them.
    """
    prods, roots = [], []
    for m, level in enumerate(_levels(letters, depth), 1):
        picked = level[_necklaces(len(letters), m)]
        _finite(level if full else picked, "a word product")
        prods.append(picked)
        roots += [1.0 / m] * len(picked)
    return np.concatenate(prods), roots, level


def _root_max(radii, roots) -> float:
    """The largest lo**root over the radii with a positive lower end, else
    0.0; a radius beyond the float range is a DomainError."""
    radii = _in_range(radii, "spectral radius")
    return max([math.pow(lo, p) for (lo, _, _), p in zip(radii, roots) if lo > 0], default=0.0)


def _norm_max(norms) -> float:
    """The largest upper end over a level's norms; a norm beyond the float
    range is a DomainError."""
    return max(hi for _, hi, _ in _in_range(norms, "operator norm"))


def _caught(f, *args):
    """f(*args), or the SpecradError it raises, as a value."""
    try:
        return f(*args)
    except SpecradError as exc:
        return exc


def _set_bounds(pairs, rhos, norms) -> tuple[dict, list, list]:
    """({(id(S), d): (gen_radius_lb(S, d), norm_level_max(S, d))}, radii,
    norms) for the (S, d) pairs, bit for bit, from one
    ``spectral._radii_norms`` call that also brackets the arrays of
    ``rhos`` (their radii) and ``norms`` (their l2 norms) after the walks'.

    Errors are values: each bound is a float or the SpecradError its
    estimator raises, and nothing here raises one.  A pair repeated (the
    same set object at the same depth) is walked once: each walk runs
    through ``_caught``, and ``walks`` keeps it (its necklace products,
    their roots and its deepest level) or its error under the pair's key.
    Every product of every level is checked finite, as ``norm_level_max``
    checks it, so a walk fails where ``norm_level_max`` fails first, and
    its error is both bounds of its pair.  The call's two lists hold the
    other walks' necklace products and deepest levels, one stack per walk
    as the walk built it, so each level's Gram matrices are one product,
    then the caller's arrays, whose (lo, hi, converged) come back in
    ``radii`` and ``norms``, with hi = +inf beyond the float range.
    """
    walks = {}
    for s, d in pairs:
        if (id(s), d) not in walks:
            walks[id(s), d] = _caught(
                lambda: _necklace_walk(_letters(s, "norm_level_max"), d, full=True))
    done = [walk for walk in walks.values() if not isinstance(walk, SpecradError)]
    radii, l2 = map(iter, _radii_norms([prods for prods, _, _ in done] + rhos,
                                       [level for _, _, level in done] + norms))
    bounds = {key: (walk, walk) if isinstance(walk, SpecradError) else
              (_caught(_root_max, [next(radii) for _ in walk[1]], walk[1]),
               _caught(_norm_max, [next(l2) for _ in range(len(walk[2]))]))
              for key, walk in walks.items()}
    return bounds, list(radii), list(l2)


def joint_radius_ub(s, m_max: int) -> float:
    """Certified upper bound for the joint radius of a matrix set.

    Min over m <= m_max of ``norm_level_max(S, m)^(1/m)``; valid by
    submultiplicativity.  Non-increasing in m_max.  Stops at the last depth
    that fits under the walk's caps instead of raising, in one walk.
    """
    levels = _levels(_letters(s, "joint_radius_ub"), m_max, clip=True)
    return min(_pow0(_norm_max(_norms(_finite(level, "a word product"))), 1.0 / m)
               for m, level in enumerate(levels, 1))


def gripenberg_bracket(s, delta: float, budget: int = 50_000,
                       space: str = L2) -> Bracket:
    """Branch-and-bound enclosure of the joint spectral radius.

    Grows the product tree level by level.  A word is pruned once its
    chained l1 bound p(w)^(1/|w|) falls to lb + delta; every infinite
    product then factors through pruned blocks and the surviving frontier,
    which yields a certified upper bound.  While no branch has been pruned
    the levels are exhaustive and also feed Fekete upper bounds in the
    requested norm.  One test ends each level: the bracket is returned,
    converged when its width is <= delta and otherwise with the converged
    flag cleared, once the width is <= delta, the budget (an integer >= 0
    of child products) is spent, or the next level would pass the
    ``_MAX_LEVEL`` cap; an upper end of +inf there is a DomainError.  When
    every child is pruned the frontier is empty, and the bracket
    [lb, lb + delta] (cut by the Fekete bound) is converged.

    The frontier is the stack of its words' products, each normalized to
    unit max entry, beside one list of records (logscale, logp, bound,
    word), one per product: the log of the product's normalization, the
    log of its chained l1 bound, that bound's |w|-th root and the word as
    its (period, head) pair (``_child``).  Each level's children form one
    C-ordered stack, built by ``_extend`` as ``_levels`` builds a level;
    their largest entries and l1 norms (max column sums) come from two
    stacked reductions, the unpruned children's records are built in one
    pass, their products normalized in one stacked division, and the
    canonical ones go to ``lower_end`` as one slice of the stack.  Records
    and products are then filtered once against the raised lower bound.
    Each word's bound is computed once, at the prune test, and serves the
    survivors' test and the frontier term.  Each level's norms in the
    requested space come from one ``spectral._norms`` call.  A child is
    canonical when its prenecklace period, carried from its parent with
    the word's first period letters, divides its length; the words
    themselves are never spelled out, so a child costs constant time
    unless its period becomes its length.  Logs and exponentials stay per
    element on ``math``.
    """
    delta = _real(delta, "delta", strict=True)
    budget = _integer(budget, 0, "budget")
    _check_space(space)
    mats = _letters(s, "gripenberg_bracket")
    with np.errstate(over="ignore"):
        colsums = [float(m.sum(axis=0).max()) for m in mats]
    letter_lognorm = [math.log(v) if v > 0 else -math.inf for v in colsums]

    fekete = math.inf
    spent = 0
    exhaustive = True  # no nonzero branch pruned yet: levels are complete

    def lower_end(m: int, prods: np.ndarray, logscales: list) -> float:
        """Largest rho(P)^(1/m) over the length-m products, in one batched call."""
        best = 0.0
        for logscale, (lo, _, _) in zip(logscales,
                                        _in_range(_spectral_radii([prods]), "spectral radius")):
            if lo > 0:
                try:
                    best = max(best, math.exp((math.log(lo) + logscale) / m))
                except OverflowError:
                    raise DomainError("joint spectral radius exceeds the float range") from None
        return best

    tops = [float(a.max()) for a in mats]
    live = [i for i, top in enumerate(tops) if top > 0]  # a zero letter only yields zero products
    if not live:
        return Bracket(0.0, 0.0, "gripenberg")
    k = len(mats)
    m = 1
    prods = mats[live] / np.array([tops[i] for i in live]).reshape(-1, 1, 1)
    frontier = [(math.log(tops[i]), letter_lognorm[i], _exp_up(letter_lognorm[i]), (1, (i,)))
                for i in live]
    alpha = lower_end(1, prods, [logscale for logscale, _, _, _ in frontier])

    while frontier:
        if exhaustive:
            his = [hi for _, hi, _ in _norms(prods, space)]
            best = max([math.log(hi) + logscale for (logscale, _, _, _), hi in zip(frontier, his)
                        if hi > 0], default=-math.inf)
            fekete = min(fekete, _exp_up(best / m) if best > -math.inf else 0.0)
        frontier_term = max(bound for _, _, bound, _ in frontier) * (1 + _ROUND_GUARD)
        ub = min(fekete, max(alpha + delta, frontier_term))
        if ub - alpha <= delta or spent >= budget or len(frontier) * k > _MAX_LEVEL:
            if ub == math.inf:
                raise DomainError("joint spectral radius upper bound exceeds the float range")
            return Bracket(min(alpha, ub), ub, "gripenberg", converged=ub - alpha <= delta)

        # child j * k + i is word j followed by letter i; the level-1
        # products keep their letters' layout
        spent += len(frontier) * k
        with np.errstate(over="ignore"):
            stack = _extend(prods, mats)
            colsums = stack.sum(axis=1).max(axis=1).tolist()
        children = []  # unpruned: (index in the stack, its largest entry, its record)
        for c, (top, colsum) in enumerate(zip(stack.max(axis=(1, 2)).tolist(), colsums)):
            if top <= 0:
                continue  # zero product: prunable with bound 0
            j, i = divmod(c, k)
            logscale, logp, _, word = frontier[j]
            logp = min(logp + letter_lognorm[i], math.log(colsum) + logscale)
            bound = _exp_up(logp / (m + 1))
            if bound <= alpha + delta:
                exhaustive = False
                continue
            children.append((c, top, (logscale + math.log(top), logp, bound, _child(word, m, i))))
        _finite([top for _, top, _ in children], "a word product")
        m += 1
        frontier = [record for _, _, record in children]
        prods = stack[[c for c, _, _ in children]] / np.array(
            [top for _, top, _ in children]).reshape(-1, 1, 1)
        # radius evaluations are the expensive step: one canonical word per
        # necklace raises the lower bound just as well
        canon = [j for j, (_, _, _, (p, _)) in enumerate(frontier) if p and m % p == 0]
        alpha = max(alpha, lower_end(m, prods[canon], [frontier[j][0] for j in canon]))
        keep = [j for j, (_, _, bound, _) in enumerate(frontier) if bound > alpha + delta]
        exhaustive = exhaustive and len(keep) == len(frontier)
        frontier, prods = [frontier[j] for j in keep], prods[keep]
    ub = min(fekete, alpha + delta)
    return Bracket(min(alpha, ub), ub, "gripenberg")


def norm_level_max(s, depth: int) -> float:
    """Largest l2 norm upper bound over all length-``depth`` products from S.

    The depth-th root is a certified upper bound for both finite set radii;
    chains compare such values at matched underlying depths.
    """
    for level in _levels(_letters(s, "norm_level_max"), depth):
        _finite(level, "a word product")
    return _norm_max(_norms(level))


def gamma_level_max(s) -> float:
    """Largest noncompactness upper bound over the elements of a family set.

    Depth 1 is enough for both essential set radii: gamma is multiplicative
    on banded families, so the largest gamma over length-m products is this
    value to the m-th power.
    """
    s = _set_of(s, "family", "gamma_level_max")
    if len(s) > _MAX_LEVEL:
        raise BudgetExceededError("gamma level enumeration exceeded its cap")
    return _gamma_max(s)


def gamma_set_bracket(s) -> Bracket:
    """sup of the noncompactness measure over the elements of a family set.

    Each element's measure is the point ``hausdorff_mnc(f).hi``, so the
    sup is one point too, taken without a bracket per element.
    """
    g = _gamma_max(_set_of(s, "family", "gamma_set_bracket"))
    return Bracket(g, g, "gamma-sup")


def _gamma_max(s: OperatorSet) -> float:
    """The largest ``hausdorff_mnc`` point over a checked family set, refused
    beyond the float range as there; starting at +0.0 fixes the sign of zero."""
    gammas = [_band_limit_sum(f) for f in s]
    if not all(map(math.isfinite, gammas)):
        raise DomainError("bracket endpoints must be finite")
    return max(0.0, *gammas)


def norm_set_bracket(s) -> Bracket:
    """sup of the l2 operator norm over the elements of a matrix set, in one batch."""
    return _norm_sup(_norms(_letters(s, "norm_set_bracket")))


def _norm_sup(norms) -> Bracket:
    """The ``norm_set_bracket`` of the elements' norms, (lo, hi, ...) each."""
    lo = max(0.0, *(n[0] for n in norms))  # starting at +0.0 fixes the sign of zero
    hi = max(0.0, *(n[1] for n in norms))
    return Bracket(min(lo, hi), hi, "norm-sup")
