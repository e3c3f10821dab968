"""Certified brackets for spectral radii, norms, and noncompactness.

Every estimator returns a ``Bracket`` with a ``method`` tag and a
``converged`` flag; the finite ones are certified at both ends.  The
finite spectral radius is the max over strongly connected components,
so reducible matrices also get tight lower bounds.  The components come
from the reachability closure of the sparsity pattern: R = (A != 0) | I
squared until it stops growing, after which i and j share a component
exactly when R[i, j] and R[j, i].  A batch's arrays are stacked by size
and each stack is split at once: one reduction finds the arrays with a
zero entry, and only those are squared, together.  A caller's (k, n, n)
stack goes in as it is, and a positive one (no zero entry) skips the
split: its blocks go straight to the Perron brackets.  The split comes
back as flat arrays that name each component's array, size and members,
so each block size is gathered from its stack by one fancy index, and
neither the split nor the gather loops in Python over arrays or
components.  One routine,
``_perron_brackets``, brackets a whole stack of equal-sized irreducible
blocks at once: the components of many matrices (word products of a set,
or their Gram matrices) are stacked by size, and ``spectral_radius`` is
the one-matrix case.  It takes each block's Perron vector x from one batched
``np.linalg.eig`` call and makes one Collatz-Wielandt check: the min and
max of fl(Ax)_i / x_i, widened by Higham's gamma_{n+1} with every rounded
step moved outward, enclose the Perron root for any x > 0.  A block whose
check is not certified (x not positive, a product below the normal range,
a ratio that overflows) or not within tol takes up to ``_POWER_STEPS``
power steps x <- Ax / max(Ax), batched over such blocks and each checked
the same way.  A block keeps the intersection of every bracket certified
for it, and converges once that is within tol.  What is left, and a block
whose x is not finite, whose power-of-two scaling is inexact or whose
scaled block has a nonzero entry no larger than the smallest normal
float, falls back on its own to ``_squeeze``, Gelfand upper and
Collatz-Wielandt lower bounds on repeated squarings, intersected with
the certified brackets.
When ``eig`` fails on a stack, each block is retried alone.  Every step
treats each block as it would treat it alone, so a bracket does not
depend on the batch it was computed in.  Nor does a batch raise for one
block: a radius or l2 norm beyond the float range comes back with an
upper end of +inf, and the public estimators refuse that mark with a
DomainError (``_in_range``), through the finishers ``_radius_bracket``
and ``_norm_bracket`` that also end ``registry``'s one pass.  One
routine, ``_norms``, gives the operator norms of a stack on every space:
the l1 and linf norms are column and row sums, one reduction, and the l2
norm widens its Gram radius by gamma_m, the rounding of A*A, whose
matrices are one stacked product.  A stack is
C-ordered or the transposed view of a C-ordered stack (a set of
adjoints, or a Fortran-ordered array), and numpy's stacked reductions
and ``@`` hand each array to the per-matrix kernel with its own strides,
so each norm has the bits of its array's alone.  On the infinite side,
the Hausdorff measure of noncompactness gamma of a banded family is the
sum of its band weight limits: every weight sequence converges, so
row-tail norm bounds decrease to that sum, and sliding window vectors
attain it from below.  A family is a Toeplitz operator with those
nonnegative limits on its bands plus a compact part, so its essential
radius is gamma too (see ``essential_spectral_radius``).  Both
brackets read the band limits rounded to nearest, so they are not
certified as the finite ones are.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, ShapeMismatchError, _real
from .families import OperatorFamily, _pow0
from .matrices import FiniteMatrix

L1 = "l1"
L2 = "l2"
LINF = "linf"
SPACES = (L1, L2, LINF)

# Relative guard applied to certified endpoints to absorb float rounding.
_ROUND_GUARD = 2e-13

DEFAULT_RHO_TOL = 1e-10
_POWER_STEPS = 8  # power steps for a block whose check at eig's vector fails
_MAX_SQUARINGS = 64  # the cap of the squeeze fallback

# Range of the largest entry in which the Gram matrix A*A is formed with no
# overflow and no subnormal rounding (for n below 2**100).  A matrix outside
# it is scaled by a power of two first.
_GRAM_MIN = 2.0 ** -400
_GRAM_MAX = 2.0 ** 400

_U = 2.0 ** -53  # unit roundoff of round to nearest
_TINY = sys.float_info.min  # smallest normal float


@dataclass(frozen=True)
class Bracket:
    """Certified enclosure lo <= value <= hi with a method tag."""

    lo: float
    hi: float
    method: str
    converged: bool = True

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise DomainError("bracket endpoints must be finite")
        if self.lo < 0 or self.hi < 0:
            raise DomainError("bracket endpoints must be nonnegative")
        if self.lo > self.hi:
            raise DomainError(f"bracket lower end {self.lo} exceeds upper end {self.hi}")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def contains(self, x: float, slack: float = 0.0) -> bool:
        return self.lo - slack <= x <= self.hi + slack

    def overlaps(self, other: "Bracket", slack: float = 0.0) -> bool:
        return self.lo <= other.hi + slack and other.lo <= self.hi + slack

    def power(self, p: float) -> "Bracket":
        """Endpointwise power; valid for p > 0 on nonnegative brackets."""
        p = _real(p, "bracket power exponent", strict=True)
        return replace(self, lo=_pow0(self.lo, p), hi=_pow0(self.hi, p))

    def scaled(self, c: float) -> "Bracket":
        c = _real(c, "bracket scale factor")
        return replace(self, lo=self.lo * c, hi=self.hi * c)


# -- finite spectral radius ------------------------------------------------


def _strong_components(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Strongly connected components of the digraph i -> j where a[i, j] != 0,
    for each array a of a C-ordered (k, n, n) stack, as flat arrays
    ``(owner, start, size, members)``: component c belongs to array
    ``owner[c]`` and has the ``size[c]`` members
    ``members[start[c]:start[c] + size[c]]``.

    One reduction tests the whole stack for a zero entry and, when it has
    one, another finds the arrays that do: an array with none is one
    component; only the others reach ``_closure``.  There
    R = (a != 0) | I holds 0/1 floats; each stacked squaring, clipped back
    to 1, doubles the path length R covers, so after at most
    ceil(log2 n) + 1 products no array's entry count grows and each R is
    its reachability closure.
    Products use BLAS: at n = 100 a boolean ``@`` is several times slower.
    The closure is exact 0/1 arithmetic, so an array's components do not
    depend on its stack.  Each index is labelled by the smallest index of
    its component (0 in an array with no zero entry); one stable
    ``argsort`` of the label matrix lays every array's components end to
    end, in order of their smallest index and each one sorted, and a
    component starts where its member equals its label.  When no array of
    the stack has a zero entry, or every closure is full, each array is
    one component and no labels are sorted.
    """
    k, n, _ = stack.shape
    if not stack.all():
        split = np.flatnonzero(~stack.reshape(k, -1).all(axis=1))
        r = ((stack if split.size == k else stack[split]) != 0).astype(float)
        r.reshape(split.size, -1)[:, ::n + 1] = 1.0
        r, count = _closure(r)
        if min(count) < n * n:
            labels = np.zeros((k, n), dtype=np.intp)
            # Row i of R * R.T marks i's component; its first one is the
            # component's smallest index, which labels it.
            labels[split] = (r * r.transpose(0, 2, 1)).argmax(axis=2)
            members = np.argsort(labels, axis=1, kind="stable")
            first = labels[np.arange(k)[:, None], members] == members
            cuts = np.flatnonzero(np.append(first, True))
            start = cuts[:-1]
            return start // n, start, cuts[1:] - start, members.ravel()
    return np.arange(k), np.arange(0, k * n, n), np.full(k, n), np.arange(k * n) % n


def _closure(r: np.ndarray) -> tuple[np.ndarray, list[float]]:
    """Reachability closure of each 0/1 (with ones on the diagonal) array of
    a (k, n, n) float stack, by stacked squaring clipped back to 1, and
    each closure's entry count."""
    n = r.shape[1]
    count = r.sum(axis=(1, 2)).tolist()
    while min(count) < n * n:
        r = r @ r
        np.minimum(r, 1.0, out=r)
        grown = r.sum(axis=(1, 2)).tolist()
        if grown == count:
            break
        count = grown
    return r, count


def _perron_brackets(stack: np.ndarray, tol: float) -> list[tuple[float, float, bool]]:
    """(lo, hi, converged) for the Perron root of each irreducible block of a
    C-ordered (k, n, n) stack, n >= 2: Collatz-Wielandt brackets at the
    Perron vector of one batched ``np.linalg.eig`` call, refined by power
    steps where that one fails, with ``_squeeze`` as the last resort.

    Each block A is scaled to B = 2**-e A, e the binary exponent of its
    largest entry.  x is |v| for the eigenvector v of the eigenvalue with
    the largest real part, and ``_cw_brackets`` checks it: min and max of
    (Bx)_i / x_i, widened by gamma_{n+1} and scaled back by 2**e, enclose
    the Perron root for any x > 0, so a poor eigenvector makes the bracket
    loose, never wrong.

    Every bracket certified for a block is kept, and the block's bracket is
    their intersection, converged once hi - lo <= tol * hi < inf.  The
    blocks that this first check leaves unconverged, whose x is finite,
    whose scaling is exact and whose nonzero entries b_ij all exceed the
    smallest normal float, take up to ``_POWER_STEPS`` batched steps
    x <- Bx / max(Bx) on their sub-stack, each checked by ``_cw_brackets``.
    Without an exact scaling no check passes, and with a nonzero
    b_ij <= ``_TINY`` no step's check does: a step's x is at most 1, so
    b_ij x_j <= b_ij never enters the normal range.  A step is a
    nonnegative product with no cancellation, so it gives an entry of x
    that eig left tiny or zero relative accuracy.  A block still
    unconverged goes to ``_squeeze``, which runs on it alone, and its
    bracket is the intersection of the squeeze's ends with the certified
    ones.  That is the path of a block whose scaled entries do not
    round-trip or have a nonzero one at or below ``_TINY``, whose x has a
    non-finite entry or stays with a zero one, whose nonzero products
    b_ij x_j stay below the normal range, or whose steps do not close
    within tol.  When ``eig`` raises ``LinAlgError`` on the stack, each
    block is retried alone and a block that fails alone has a NaN x, so no
    sibling decides the path of a block.  ``eig`` treats each matrix of a
    stack on its own and every other step is elementwise or a reduction
    along the last axis, so a bracket does not depend on the batch it was
    computed in.
    """
    k, n, _ = stack.shape
    exps = [math.frexp(t)[1] for t in np.maximum.reduce(stack, axis=(1, 2)).tolist()]
    e = np.array(exps).reshape(k, 1, 1)
    b = np.ldexp(stack, -e)
    exact = (np.ldexp(b, e) == stack).all(axis=(1, 2))
    x = _perron_vectors(b)
    out, y = _cw_brackets(b, x, exact, exps, tol)
    retry = [j for j, r in enumerate(out) if not r[2]]
    if not retry:
        return out
    live = np.array(retry)
    normal = ((b[live] == 0.0) | (b[live] > _TINY)).all(axis=(1, 2))
    live = live[exact[live] & normal & np.isfinite(x[live]).all(axis=1)]
    b, y = b[live], y[live]
    for _ in range(_POWER_STEPS):
        if not live.size:
            break
        with np.errstate(divide="ignore", invalid="ignore"):
            x = y / y.max(axis=1, keepdims=True)
        steps, y = _cw_brackets(b, x, exact[live], [exps[j] for j in live.tolist()], tol)
        keep = []
        for j, (lo, hi, _) in zip(live.tolist(), steps):
            lo, hi = max(lo, out[j][0]), min(hi, out[j][1])
            out[j] = (lo, hi, hi - lo <= tol * hi < math.inf)
            keep.append(not out[j][2])
        live, b, y = live[keep], b[keep], y[keep]
    for j in retry:
        lo, hi, ok = out[j]
        if not ok:
            slo, shi, _ = _squeeze(stack[j], tol)
            lo, hi = max(slo, lo), min(shi, hi)
            out[j] = (lo, hi, hi < math.inf and hi - lo <= tol * hi)
    return out


def _cw_brackets(b: np.ndarray, x: np.ndarray, exact: np.ndarray, exps: list[int],
                 tol: float) -> tuple[list[tuple[float, float, bool]], np.ndarray]:
    """(brackets, Bx): the certified Collatz-Wielandt (lo, hi, converged)
    of each block of A = 2**e B at x, e from ``exps``, converged when
    hi - lo <= tol * hi, and the (k, n) products Bx.  A block whose check
    fails gets the trivial (+0.0, +inf, False).

    With B, x >= 0 and every nonzero product b_ij x_j in the normal range,
    fl(Bx)_i = (Bx)_i (1 + theta) with |theta| <= gamma_n in any summation
    order, and the quotient by x_i rounds once more, so each computed ratio
    q_i lies within a factor 1 +- gamma_{n+1} of the exact one, where
    gamma_m = m u / (1 - m u) and u = 2**-53 (Higham, *Accuracy and
    Stability of Numerical Algorithms*, ch. 3).  So lo = min q / (1 +
    gamma_{n+1}) and hi = max q / (1 - gamma_{n+1}), each rounded step
    moved outward by ``math.nextafter``, and both ends are multiplied back
    by 2**e.  The check fails when B is not exactly 2**-e A (``exact``),
    when x has an entry that is not positive (NaN included), when a nonzero
    product lies below the normal range, or when hi leaves the float range
    (a ratio that overflows, or ``_times_pow2`` on the way back).
    """
    n = b.shape[1]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        p = b * x[:, None, :]
        y = np.add.reduce(p, axis=2)
        q = y / x
    good = exact & (x > 0.0).all(axis=1) & ((b == 0.0) | (p > _TINY)).all(axis=(1, 2))
    g = _gamma(n + 1)
    up, down = _up(1.0 + g), _down(1.0 - g)
    out = []
    for ok, qlo, qhi, ej in zip(good.tolist(), q.min(axis=1).tolist(), q.max(axis=1).tolist(),
                                exps):
        if ok:
            lo = _times_pow2(_down(qlo / up), ej, 0.0)
            hi = _times_pow2(_up(qhi / down), ej, math.inf)
            if hi < math.inf:
                out.append((lo, hi, hi - lo <= tol * hi < math.inf))
                continue
        out.append((0.0, math.inf, False))
    return out, y


def _perron_vectors(b: np.ndarray) -> np.ndarray:
    """|v| for the eigenvector v of each block's eigenvalue with the largest
    real part, as a (k, n) array; NaN for a block whose ``eig`` fails alone."""
    try:
        w, v = np.linalg.eig(b)
    except np.linalg.LinAlgError:
        if len(b) == 1:
            return np.full(b.shape[1:2], np.nan)[None]
        return np.concatenate([_perron_vectors(blk[None]) for blk in b])
    return np.abs(v[np.arange(len(b)), :, w.real.argmax(axis=1)])


def _squeeze(a: np.ndarray, tol: float) -> tuple[float, float, bool]:
    """Gelfand + Collatz-Wielandt (lo, hi, converged) for an irreducible
    C-ordered n x n block, n >= 2, by repeated squaring: the fallback of
    ``_perron_brackets``.

    Row sums of A^(2^j) are the Collatz-Wielandt ratios at the all-ones
    vector, so their min and max raised to 2^-j enclose the Perron root,
    and the 2^j-th root collapses the enclosure geometrically.  The lower
    end starts at the largest diagonal entry, since rho(A) >= a_ii for
    A >= 0: a row of the normalised block that underflows to zero keeps
    every min row sum at 0.  Each squaring is normalised by its largest
    entry, and logarithms and exponentials run on ``math``, because numpy's
    vector kernels may round them differently.

    The log scale L_j = 2 L_(j-1) + log(top_j) carries a bound on its
    rounding, one ulp for each libm ``log`` (assumed accurate to within an
    ulp) and each addition, doubled at every squaring, and both ends move
    outward by it before the 2^j-th root.  Untracked, that drift exceeded
    the pad below after some 40 squarings of a block near 2^740.  The best
    ends are then padded by ``_ROUND_GUARD``, which covers the products and
    the normalising divisions (within gamma_{n+1} of the root, below the
    guard for n < 1,800) and the final ``exp`` (the Perron-vector path of
    ``_perron_brackets`` needs no such pad).  The squeeze stops at the
    squaring cap, when a squaring leaves the float range, or once its
    padded ends are within tol relative to the upper end
    (hi - lo <= tol * hi), the test its converged flag reports.  An upper
    end beyond the float range counts as +inf, which the running minimum
    skips.  A root beyond the float range comes back as hi = +inf, not
    converged: the squeeze stops with lo = +inf when a lower end leaves the
    range, and otherwise ends with an upper end of +inf.
    """
    top = a.max().item()
    b = a / top
    s = math.log(top)
    err = math.ulp(s)  # bounds |s - its exact value|
    lo, hi = a.diagonal().max().item(), math.inf
    power = 1.0  # 2**j
    for step in range(_MAX_SQUARINGS):
        rs = b.sum(axis=1).tolist()
        mn = min(rs)
        mx = max(rs)  # >= 1: b has an entry equal to 1
        if mn > 0.0:
            t = math.log(mn)
            lo = max(lo, _exp_up((t + s - (err + 4.0 * math.ulp(abs(t) + abs(s)))) / power))
            if lo == math.inf:
                return lo, lo, False
        t = math.log(mx)
        hi = min(hi, _exp_up((t + s + (err + 4.0 * math.ulp(abs(t) + abs(s)))) / power))
        if step == _MAX_SQUARINGS - 1:
            break
        up = hi * (1.0 + _ROUND_GUARD)  # the padded upper end; +inf is returned as it is
        if hi < math.inf and (up == math.inf or up - lo * (1.0 - _ROUND_GUARD) <= tol * up):
            break
        b = b @ b
        top = b.max().item()
        if not 0.0 < top < math.inf:
            break
        s, t = 2.0 * s, math.log(top)
        err = 2.0 * err + 2.0 * math.ulp(abs(s) + abs(t))
        s += t
        b /= top
        power *= 2.0
    lo *= 1.0 - _ROUND_GUARD
    hi *= 1.0 + _ROUND_GUARD
    return lo, hi, hi < math.inf and hi - lo <= tol * hi


def _exp_up(x: float) -> float:
    """exp(x) for an upper end: +inf beyond the float range."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _spectral_radii(arrays, tol: float = DEFAULT_RHO_TOL) -> list[tuple[float, float, bool]]:
    """(lo, hi, converged) for the Perron root of each square nonnegative
    array of a list of arrays and (k, n, n) stacks, in order.  A root
    beyond the float range is not an error here: its hi is +inf and it is
    not converged, and the public estimators refuse it with ``_in_range``.
    So a batch raises for no array, and its other arrays keep the bits they
    get alone.

    The spectrum of a block-triangular matrix is the union over diagonal
    blocks, so a radius is the max over strongly connected components.  An
    empty list returns [] before any numpy call.  The stacks of each size,
    an array being a stack of one, are joined into one C-ordered stack by
    one ``np.concatenate``, made C-ordered by ``np.ascontiguousarray``: a
    copy that keeps no operand's layout (a stack of Fortran-ordered arrays
    keeps their strides, and ``_perron_brackets``' row sums would then add
    in another order than for the array alone).  A size with one C-ordered
    stack goes in as it is, neither iterated nor copied.  Each stack is
    split by one ``_strong_components`` call into flat component arrays.
    When the arrays are all of one size n >= 2 and each is one component
    (no zero entry), ``_perron_brackets``' list of that stack is the
    result: a positive block's ends are >= +0.0 already, so the scatter
    below would move no bit.  Otherwise a stack whose arrays are one
    component each goes on as it is, and the components of each size s of
    any other stack are gathered from it by one fancy index,
    ``stack[rows[:, None, None], idx[:, :, None], idx[:, None, :]]`` with
    each component's array in ``rows`` and its members in the rows of
    ``idx``, a C-ordered copy; whole arrays are the stack's row subset.  A
    singleton component is its diagonal entry; the blocks of each larger
    size, from every stack, go through one ``_perron_brackets`` call.  An
    array's radius is the max of its components' ends, taken by
    ``np.maximum.at`` from +0.0; adding +0.0 then turns a -0.0 that it kept
    (a -0.0 diagonal entry) into +0.0, as Python's ``max(0.0, -0.0)`` does.
    """
    sizes: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {}
    count = 0
    for s in arrays:
        s = s[None] if s.ndim == 2 else s
        if s.shape[1] != s.shape[2]:
            raise ShapeMismatchError("spectral radius needs a square matrix")
        sizes.setdefault(s.shape[1], []).append((np.arange(count, count + len(s)), s))
        count += len(s)
    if not count:
        return []
    stacks = [(owners, np.ascontiguousarray(s)) for owners, s in map(_joined, sizes.values())]
    parts: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {}
    for owners, stack in stacks:
        n = stack.shape[1]
        owner, start, size, members = _strong_components(stack)
        if len(owner) == len(stack):  # one component per array: the stack itself
            if n > 1 and len(stacks) == 1:  # a positive block's ends are >= +0.0 already
                return _perron_brackets(stack, tol)
            parts.setdefault(n, []).append((owners, stack))
            continue
        which = owners[owner]
        for s in set(size.tolist()):
            pick = size == s
            rows = owner[pick]
            if s == n:
                blocks = stack[rows]
            else:
                idx = members[start[pick, None] + np.arange(s)]
                blocks = stack[rows[:, None, None], idx[:, :, None], idx[:, None, :]]
            parts.setdefault(s, []).append((which[pick], blocks))
    radii = np.zeros((count, 2))
    ok = np.ones(count, dtype=bool)
    for s, pieces in parts.items():
        which, blocks = _joined(pieces)
        if s == 1:
            np.maximum.at(radii, which, blocks.reshape(-1, 1))
        else:
            r = np.array(_perron_brackets(blocks, tol))
            np.maximum.at(radii, which, r[:, :2])
            ok[which[r[:, 2] == 0.0]] = False
    radii += 0.0  # a -0.0 that ufunc.at kept becomes +0.0; nothing else moves
    return list(zip(*radii.T.tolist(), ok.tolist()))


def _joined(pieces: list[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    """(owners, arrays) pairs as one pair, each part joined by one concatenate."""
    return pieces[0] if len(pieces) == 1 else tuple(np.concatenate(x) for x in zip(*pieces))


def spectral_radius(m: FiniteMatrix, tol: float = DEFAULT_RHO_TOL) -> Bracket:
    """Certified bracket for the Perron root of a nonnegative matrix.

    The one-matrix case of ``_spectral_radii``: the max over strongly
    connected components, each irreducible one bracketed by
    ``_perron_brackets``.  ``tol`` is a finite number >= 0.
    """
    _real(tol, "tol")
    return _radius_bracket(_spectral_radii([m.a], tol)[0])


def operator_norm(m: FiniteMatrix, space: str = L2, tol: float = DEFAULT_RHO_TOL) -> Bracket:
    """Operator norm bracket on the requested sequence space: the one-matrix
    case of ``_norms``, with the method tag of its space.  ``tol`` is a
    finite number >= 0.  A norm beyond the float range is a DomainError."""
    _real(tol, "tol")
    return _norm_bracket(_norms(m.a[None], space, tol)[0], space)


def _radius_bracket(ends) -> Bracket:
    """The bracket of ``spectral_radius`` from its (lo, hi, converged) ends;
    an upper end of +inf, a radius beyond the float range, is a DomainError."""
    (lo, hi, ok), = _in_range([ends], "spectral radius")
    return Bracket(lo, hi, "gelfand-cw", ok)


def _norm_bracket(ends, space: str = L2) -> Bracket:
    """The bracket of ``operator_norm`` on ``space`` from its (lo, hi,
    converged) ends; an upper end of +inf is a DomainError."""
    (lo, hi, ok), = _in_range([ends], "operator norm")
    return Bracket(lo, hi, {L1: "colsum", L2: "sqrt-gram", LINF: "rowsum"}[space], ok)


def _check_space(space: str) -> None:
    """Refuse a space tag that is not one of ``SPACES``."""
    if space not in SPACES:
        raise DomainError(f"unknown space tag {space!r}; expected one of {SPACES}")


def _norms(stack: np.ndarray, space: str = L2, tol: float = DEFAULT_RHO_TOL) -> list:
    """(lo, hi, converged) for the operator norm of each nonnegative array
    of one (k, m, n) stack on the sequence space ``space``, refused as a
    DomainError beyond the float range.  The l1 norm is the largest column
    sum and the linf norm the largest row sum, from one reduction and
    padded by ``_ROUND_GUARD`` each way, always converged; the l2 norm is
    the norms-only case of ``_radii_norms``.

    The stack is C-ordered or the transposed view of a C-ordered stack (a
    set of adjoints, or a Fortran-ordered array a as ``a[None]``).  numpy's
    stacked reductions and ``@`` hand each array to the per-matrix kernel
    with its own strides, so on either layout each array gets the bits it
    gets alone.  A stack in another layout, such as a view with a negative
    stride, can be copied into C order on the way and lose that.
    """
    _check_space(space)
    if space == L2:
        return _in_range(_radii_norms([], [stack], tol)[1], "operator norm")
    with np.errstate(over="ignore"):
        sums = stack.sum(axis=-2 if space == L1 else -1).max(axis=-1).tolist()
    return _in_range([(v * (1 - _ROUND_GUARD), v * (1 + _ROUND_GUARD), True) for v in sums],
                     "operator norm")


def _in_range(ends, what: str):
    """The (lo, hi, ...) ends, unless an upper end is +inf, the mark of a
    radius or norm beyond the float range: then a DomainError names ``what``."""
    for e in ends:
        if e[1] == math.inf:
            raise DomainError(f"{what} exceeds the float range")
    return ends


def _radii_norms(rhos, norms, tol: float = DEFAULT_RHO_TOL) -> tuple[list, list]:
    """(radii, norms): (lo, hi, converged) for the Perron root of each array
    of ``rhos`` and for the l2 norm of each array of ``norms``, from one
    ``_spectral_radii`` call on the radius arrays followed by the Gram
    matrices of the norm arrays.  A radius does not depend on its batch, so
    each result has the bits of its array bracketed alone, and a result
    beyond the float range has hi = +inf, as in ``_spectral_radii``.
    ``rhos`` is a list of arrays and (k, n, n) stacks, and ``norms`` a list
    of arrays and (k, m, n) stacks, each taken in order; with no radius
    arrays, the Gram stack of one stack goes to ``_spectral_radii`` as it
    is.

    The norm is the square root of the spectral radius of A*A.  The Gram
    matrices of a stack S, an array being a stack of one, are one product
    ``S.transpose(0, 2, 1) @ S``.  S is C-ordered or the transposed view of
    a C-ordered stack (``_norms``); numpy's stacked ``@`` hands each pair to
    the per-matrix kernel with its array's own strides, so each Gram matrix
    has the bits of its array's own ``a.T @ a`` (numpy may form that with a
    symmetric rank-k update, which rounds differently from a general
    product), and the power-of-two scaling keeps either layout.  When an
    array's largest entry lies outside [_GRAM_MIN, _GRAM_MAX], A*A
    would overflow or lose its low bits to subnormal rounding, so the norm
    of 2**-e A is taken instead, where 2**e brackets that entry, and its
    endpoints are multiplied back by 2**e.  The last step, ``_l2_finish``,
    runs array by array: on the stacks a set's radii bring (a few dozen
    arrays) a stacked finish cost more than this loop.

    fl(A*A) lies within gamma_m (A*A) entrywise for A with m rows, since
    every term is nonnegative, and the Perron root is monotone in
    nonnegative entries and homogeneous, so each Gram radius is widened to
    [lo / (1 + gamma_m), hi / (1 - gamma_m)] before the square root; a
    singleton component, a rounded diagonal entry, is covered too.  Every
    rounded step (the two quotients, the square roots, a scaling below the
    normal range) moves one ulp outward.  Underflow in the scaled entries
    or in the Gram products moves the radius, which is at least the largest
    squared entry (>= 2**-802), by less than n * m * 2**-1074, below the
    one-ulp steps.
    """
    grams, exps, rows = [], [], []
    for s in norms:
        s = s[None] if s.ndim == 2 else s
        g, e = _gram(s)
        grams.append(g)
        exps += e
        rows += [s.shape[1]] * len(s)
    radii = _spectral_radii([*rhos, *grams], tol)
    k = len(radii) - len(exps)
    return radii[:k], [_l2_finish(m, e, r) for m, e, r in zip(rows, exps, radii[k:])]


def _gram(s: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """The first step of an l2 norm for each array of a (k, m, n) stack:
    (the stack of A*A, each e) for A = 2**-e times the array, where e = 0
    unless the array's largest entry lies outside [_GRAM_MIN, _GRAM_MAX]."""
    exps = [0 if top == 0.0 or _GRAM_MIN <= top <= _GRAM_MAX else math.frexp(top)[1]
            for top in np.maximum.reduce(s, axis=(1, 2)).tolist()]
    if any(exps):
        s = np.ldexp(s, -np.array(exps).reshape(-1, 1, 1))
    return s.transpose(0, 2, 1) @ s, exps


def _l2_finish(rows: int, e: int, radius: tuple[float, float, bool]) -> tuple[float, float, bool]:
    """The last step of an l2 norm: the norm (lo, hi, converged) of a
    matrix with ``rows`` rows from the Gram radius of its ``_gram``.  A norm
    scaled back beyond the float range has hi = +inf and is not converged."""
    lo, hi, ok = radius
    g = _gamma(rows)
    lo = _down(math.sqrt(_down(lo / _up(1.0 + g))))
    hi = _up(math.sqrt(_up(hi / _down(1.0 - g))))
    if e:
        lo, hi = _times_pow2(lo, e, 0.0), _times_pow2(hi, e, math.inf)
    return lo, hi, ok and hi < math.inf


def _down(x: float) -> float:
    """The next float toward zero: a lower end after one rounded step."""
    return math.nextafter(x, 0.0)


def _up(x: float) -> float:
    """The next float up, zero kept: an upper end after one rounded step
    (a rounded positive result is never zero)."""
    return math.nextafter(x, math.inf) if x else x


def _times_pow2(x: float, e: int, toward: float) -> float:
    """x * 2**e, moved one step toward ``toward`` when the product is below
    the normal range; +inf beyond the float range, the mark of an end that
    left it.

    A normal product is exact; a smaller one is rounded to nearest (possibly
    to zero), so the step keeps an endpoint on its side of the value it
    encloses.  Zero stays zero.
    """
    try:
        y = math.ldexp(x, e)
    except OverflowError:
        return math.inf
    return math.nextafter(y, toward) if x and y < _TINY else y


def _gamma(m: int) -> float:
    """An upper bound on Higham's gamma_m = m u / (1 - m u), u = 2**-53.

    m u and 1 - m u are exact for m < 2**52, so one step up covers the
    rounding of the quotient.
    """
    return math.nextafter(m * _U / (1.0 - m * _U), math.inf)


# -- noncompactness and essential radius ------------------------------------


def _band_limit_sum(f: OperatorFamily) -> float:
    """gamma as a float: the band limits added left to right in offset
    order from +0.0, the fold of ``sequences._fold_sum`` written inline."""
    g = 0.0
    for w in f.bands.values():
        g += w.limit
    return g


def hausdorff_mnc(f: OperatorFamily) -> Bracket:
    """Hausdorff measure of noncompactness on l2: the sum of band limits.

    The row-tail norm bound decreases to the sum of the band weight
    limits, and sliding window vectors realise that sum in the essential
    norm.  The point bracket is ``_band_limit_sum``: it sums the limits
    rounded to nearest, so it is not certified: one band of weights 1/3
    gets [fl(1/3), fl(1/3)] < 1/3.  The finite-rank corner is compact and
    drops out, so a family without bands gets the float bracket [+0, +0].
    """
    g = _band_limit_sum(f)
    return Bracket(g, g, "band-tail-limit")


def essential_spectral_radius(f: OperatorFamily) -> Bracket:
    """Bracket for the essential spectral radius: gamma at both ends.

    Every family here is the banded Toeplitz operator T whose band at
    offset d carries the constant c_d, the limit of its weights, plus a
    compact part: the weights minus their limits tend to zero, and the
    corner has finite rank.  A compact part leaves the essential spectrum
    alone, and sigma_ess(T) is the image of the unit circle under the
    symbol sum_d c_d z^d (Boettcher & Silbermann, *Analysis of Toeplitz
    Operators*, 2006).  With every c_d >= 0 its largest modulus is taken at
    z = 1, so r_ess = sum_d c_d = gamma.  The bracket is g =
    ``hausdorff_mnc(f).hi`` padded by ``_ROUND_GUARD`` each way.  The band
    limits are rounded to nearest, and the pad is a blanket guard for that
    rounding, not a derived error bound.
    """
    g = hausdorff_mnc(f).hi
    return Bracket(g * (1.0 - _ROUND_GUARD), g * (1.0 + _ROUND_GUARD), "toeplitz-gamma")
