"""Certified brackets for spectral radii, norms, and noncompactness.

Every estimator returns a ``Bracket`` with a ``method`` tag and a
``converged`` flag; the finite ones are certified at both ends.  The
finite spectral radius is the max over strongly connected components,
so reducible matrices also get tight lower bounds.  The components come
from the reachability closure of the sparsity pattern: R = (A != 0) | I
squared until it stops growing, after which i and j share a component
exactly when R[i, j] and R[j, i].  In a batch, the arrays of one shape
are tested for a zero entry in one stacked reduction, and each with none,
one component by itself, skips the closure.  One routine,
``_perron_brackets``, brackets a whole stack of equal-sized irreducible blocks at once: the
components of many matrices (word products of a set, or their Gram
matrices) are stacked by size, and ``spectral_radius`` is the one-matrix
case.  It takes each block's Perron vector x from one batched
``np.linalg.eig`` call and makes one Collatz-Wielandt check: the min and
max of fl(Ax)_i / x_i, widened by Higham's gamma_{n+1} with every rounded
step moved outward, enclose the Perron root for any x > 0.  A block whose
check is not certified (x not positive, a product below the normal range,
an inexact power-of-two scaling) or not within tol falls back, on its own,
to ``_squeeze``, Gelfand upper and Collatz-Wielandt lower bounds on
repeated squarings.  When ``eig`` fails on a stack, each block is retried
alone.  Every step treats each block as it would treat it alone, so a bracket
does not depend on the batch it was computed in.  The l2 norm widens its
Gram radius by gamma_m, the rounding of A*A.  On the
infinite side, the Hausdorff measure of noncompactness gamma of a banded
family is the sum of its band weight limits: every weight sequence
converges, so row-tail norm bounds decrease to that sum, and sliding
window vectors attain it from below.  A family is a Toeplitz operator with
those nonnegative limits on its bands plus a compact part, so its
essential radius is gamma too (see ``essential_spectral_radius``).  Both
brackets read the band limits rounded to nearest, so they are not
certified as the finite ones are.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, ShapeMismatchError
from .families import OperatorFamily, _pow0
from .matrices import FiniteMatrix

L1 = "l1"
L2 = "l2"
LINF = "linf"
SPACES = (L1, L2, LINF)

# Relative guard applied to certified endpoints to absorb float rounding.
_ROUND_GUARD = 2e-13

DEFAULT_RHO_TOL = 1e-10
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
        if p <= 0:
            raise DomainError("bracket power requires a positive exponent")
        return replace(self, lo=_pow0(self.lo, p), hi=_pow0(self.hi, p))

    def scaled(self, c: float) -> "Bracket":
        if c < 0:
            raise DomainError("brackets scale by nonnegative factors")
        return replace(self, lo=self.lo * c, hi=self.hi * c)


# -- finite spectral radius ------------------------------------------------


def _strong_components(a: np.ndarray) -> list[np.ndarray]:
    """Strongly connected components of the digraph i -> j where a[i, j] != 0.

    R = (a != 0) | I holds 0/1 floats; each squaring, clipped back to 1,
    doubles the path length R covers, so it stops growing after at most
    ceil(log2 n) + 1 products and is then the reachability closure.
    Products use BLAS: at n = 100 a boolean ``@`` is several times slower.
    Each component is its sorted indices; components come in order of
    their smallest index.  When R is all ones (an entrywise positive
    matrix, or a primitive one after a few squarings) the whole index
    range is one component.
    """
    n = a.shape[0]
    r = (a != 0).astype(float)
    np.fill_diagonal(r, 1.0)
    count = r.sum()
    while count < n * n:
        r = r @ r
        np.minimum(r, 1.0, out=r)
        grown = r.sum()
        if grown == count:
            # Row i of R * R.T marks i's component; its first one is the
            # component's smallest index, which labels it.
            labels = (r * r.T).argmax(axis=1)
            order = np.argsort(labels, kind="stable")
            cuts = [0, *(np.flatnonzero(np.diff(labels[order])) + 1).tolist(), n]
            return [order[i:j] for i, j in zip(cuts, cuts[1:])]
        count = grown
    return [np.arange(n)]


def _perron_brackets(stack: np.ndarray, tol: float) -> list[tuple[float, float, bool]]:
    """(lo, hi, converged) for the Perron root of each irreducible block of a
    C-ordered (k, n, n) stack, n >= 2: a Collatz-Wielandt bracket at the
    Perron vector of one batched ``np.linalg.eig`` call, with ``_squeeze``
    as the fallback for each block whose check fails.

    Each block A is scaled to B = 2**-e A, e the binary exponent of its
    largest entry.  x is |v| for the eigenvector v of the eigenvalue with
    the largest real part.  For every x > 0, min_i (Bx)_i / x_i <= rho(B)
    <= max_i (Bx)_i / x_i (Collatz-Wielandt).  With B, x >= 0 and every
    nonzero product b_ij x_j in the normal range, fl(Bx)_i =
    (Bx)_i (1 + theta) with |theta| <= gamma_n in any summation order, and
    the quotient by x_i rounds once more, so each computed ratio q_i lies
    within a factor 1 +- gamma_{n+1} of the exact one, where
    gamma_m = m u / (1 - m u) and u = 2**-53 (Higham, *Accuracy and
    Stability of Numerical Algorithms*, ch. 3).  So lo = min q / (1 +
    gamma_{n+1}) and hi = max q / (1 - gamma_{n+1}), each rounded step
    moved outward by ``math.nextafter``, and both ends are multiplied back
    by 2**e.  The bound holds for any positive x: a poor eigenvector makes
    the bracket loose, never wrong.

    A block goes to ``_squeeze``, which runs on it alone, when a scaled
    entry does not round-trip, when x has a zero or non-finite entry, when
    a nonzero product b_ij x_j lies below the normal range, when an end
    leaves the float range on the way back, or when hi - lo > tol * hi.  When ``eig`` raises
    ``LinAlgError`` on the stack, each block is retried alone and a block
    that fails alone falls back, so no sibling decides the path of a
    block.  ``eig`` treats each matrix of a stack on its own and every
    other step is elementwise or a reduction along the last axis, so a
    bracket does not depend on the batch it was computed in.
    """
    k, n, _ = stack.shape
    exps = [math.frexp(t)[1] for t in np.maximum.reduce(stack, axis=(1, 2)).tolist()]
    e = np.array(exps).reshape(k, 1, 1)
    b = np.ldexp(stack, -e)
    x = _perron_vectors(b)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        p = b * x[:, None, :]
        q = np.add.reduce(p, axis=2) / x
    good = ((np.ldexp(b, e) == stack).all(axis=(1, 2)) & (x > 0.0).all(axis=1)
            & ((b == 0.0) | (p > _TINY)).all(axis=(1, 2)))
    g = _gamma(n + 1)
    up, down = _up(1.0 + g), _down(1.0 - g)
    out = []
    for j, (ok, qlo, qhi, ej) in enumerate(zip(good.tolist(), q.min(axis=1).tolist(),
                                               q.max(axis=1).tolist(), exps)):
        if ok:
            try:
                lo = _times_pow2(_down(qlo / up), ej, 0.0)
                hi = _times_pow2(_up(qhi / down), ej, math.inf)
                if hi - lo <= tol * hi < math.inf:
                    out.append((lo, hi, True))
                    continue
            except OverflowError:
                pass
        out.append(_squeeze(stack[j], tol))
    return out


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
    skips; a lower end beyond it, or a final upper end of +inf, is a
    DomainError.
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
            try:
                x = math.exp((t + s - (err + 4.0 * math.ulp(abs(t) + abs(s)))) / power)
            except OverflowError:
                raise DomainError("spectral radius exceeds the float range") from None
            lo = max(lo, x)
        t = math.log(mx)
        try:
            x = math.exp((t + s + (err + 4.0 * math.ulp(abs(t) + abs(s)))) / power)
        except OverflowError:
            x = math.inf
        hi = min(hi, x)
        if step == _MAX_SQUARINGS - 1:
            break
        up = hi * (1.0 + _ROUND_GUARD)  # the padded upper end; +inf raises below
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
    if hi == math.inf:
        raise DomainError("spectral radius exceeds the float range")
    return lo, hi, hi - lo <= tol * hi


def _spectral_radii(arrays, tol: float = DEFAULT_RHO_TOL) -> list[tuple[float, float, bool]]:
    """(lo, hi, converged) for the Perron root of each square nonnegative array.

    The spectrum of a block-triangular matrix is the union over diagonal
    blocks, so a radius is the max over strongly connected components.  A
    singleton component is its diagonal entry.  The blocks of each larger
    size, gathered across all arrays as C-ordered copies, go through one
    ``_perron_brackets`` call.  An array with every entry nonzero is one
    component: when two or more arrays share its shape, n >= 2, it joins
    its size's group from one stacked test (``_full_blocks``) and skips
    ``_strong_components``.
    """
    out = []
    groups: dict[int, tuple[list[int], list[np.ndarray]]] = {}

    def add(i: int, block: np.ndarray) -> None:
        owners, blocks = groups.setdefault(len(block), ([], []))
        owners.append(i)
        blocks.append(block)

    full = _full_blocks(arrays) if len(arrays) > 1 else {}
    for i, a in enumerate(arrays):
        if a.shape[0] != a.shape[1]:
            raise ShapeMismatchError("spectral radius needs a square matrix")
        v = 0.0  # the largest singleton component, a diagonal entry
        if i in full:
            add(i, full[i])
        else:
            for comp in _strong_components(a):
                if comp.size == 1:
                    c = comp.item()
                    v = max(v, a.item(c, c))
                    continue
                add(i, np.ascontiguousarray(a) if comp.size == len(a) else a[np.ix_(comp, comp)])
        out.append([v, v, True])
    for owners, blocks in groups.values():
        stack = np.array(blocks) if len(blocks) > 1 else blocks[0][None]
        for i, (lo, hi, ok) in zip(owners, _perron_brackets(stack, tol)):
            r = out[i]
            r[0], r[1], r[2] = max(r[0], lo), max(r[1], hi), r[2] and ok
    return [tuple(r) for r in out]


def _full_blocks(arrays) -> dict[int, np.ndarray]:
    """{index: C-ordered copy} of the arrays with every entry nonzero, among
    the square n x n arrays, n >= 2, whose shape two or more arrays share.

    Each shape's arrays are copied into one C-ordered stack by ``np.array``
    of their list, a copy that keeps no operand's layout: ``np.stack`` keeps
    Fortran strides, and ``_perron_brackets``' row sums would then add in
    another order than for the array alone.
    """
    shapes: dict[tuple, list[int]] = {}
    for i, a in enumerate(arrays):
        shapes.setdefault(a.shape, []).append(i)
    full = {}
    for shape, owners in shapes.items():
        if len(owners) < 2 or shape != (shape[0], shape[0]) or shape[0] < 2:
            continue
        stack = np.array([arrays[i] for i in owners])
        for j in np.flatnonzero(stack.reshape(len(owners), -1).all(axis=1)).tolist():
            full[owners[j]] = stack[j]
    return full


def spectral_radius(m: FiniteMatrix, tol: float = DEFAULT_RHO_TOL) -> Bracket:
    """Certified bracket for the Perron root of a nonnegative matrix.

    The one-matrix case of ``_spectral_radii``: the max over strongly
    connected components, each irreducible one bracketed by
    ``_perron_brackets``.
    """
    lo, hi, ok = _spectral_radii([m.a], tol)[0]
    return Bracket(lo, hi, "gelfand-cw", ok)


def operator_norm(m: FiniteMatrix, space: str = L2, tol: float = DEFAULT_RHO_TOL) -> Bracket:
    """Operator norm bracket on the requested sequence space.

    l1 and linf norms are exact column/row sums; the l2 norm is the square
    root of the spectral radius of A*A (see ``_l2_norms``).  A norm beyond
    the float range is a DomainError.
    """
    if space == L1 or space == LINF:
        with np.errstate(over="ignore"):
            v = float(m.a.sum(axis=0 if space == L1 else 1).max())
        hi = v * (1 + _ROUND_GUARD)
        if hi == math.inf:
            raise DomainError("operator norm exceeds the float range")
        return Bracket(v * (1 - _ROUND_GUARD), hi, "colsum" if space == L1 else "rowsum")
    if space == L2:
        lo, hi, ok = _l2_norms([m.a], tol)[0]
        return Bracket(lo, hi, "sqrt-gram", ok)
    raise DomainError(f"unknown space tag {space!r}; expected one of {SPACES}")


def _l2_norms(arrays, tol: float = DEFAULT_RHO_TOL) -> list[tuple[float, float, bool]]:
    """(lo, hi, converged) for the l2 norm of each nonnegative array.

    The norm is the square root of the spectral radius of A*A, and the Gram
    radii of all arrays go through one ``_spectral_radii`` call.  Each Gram
    matrix is formed on its own array, since numpy may compute ``a.T @ a``
    with a symmetric rank-k update that rounds differently from a general
    product.  When the largest entry lies outside [_GRAM_MIN, _GRAM_MAX],
    A*A would overflow or lose its low bits to subnormal rounding, so the
    norm of 2**-e A is taken instead, where 2**e brackets that entry, and
    its endpoints are multiplied back by 2**e.

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
    grams = []
    exps = []
    for a in arrays:
        top = a.max().item()
        e = 0 if top == 0.0 or _GRAM_MIN <= top <= _GRAM_MAX else math.frexp(top)[1]
        if e:
            a = np.ldexp(a, -e)
        grams.append(a.T @ a)
        exps.append(e)
    out = []
    for a, e, (lo, hi, ok) in zip(arrays, exps, _spectral_radii(grams, tol)):
        g = _gamma(a.shape[0])
        lo = _down(math.sqrt(_down(lo / _up(1.0 + g))))
        hi = _up(math.sqrt(_up(hi / _down(1.0 - g))))
        if e:
            try:
                lo, hi = _times_pow2(lo, e, 0.0), _times_pow2(hi, e, math.inf)
            except OverflowError:
                raise DomainError("operator norm exceeds the float range") from None
        out.append((lo, hi, ok))
    return out


def _down(x: float) -> float:
    """The next float toward zero: a lower end after one rounded step."""
    return math.nextafter(x, 0.0)


def _up(x: float) -> float:
    """The next float up, zero kept: an upper end after one rounded step
    (a rounded positive result is never zero)."""
    return math.nextafter(x, math.inf) if x else x


def _times_pow2(x: float, e: int, toward: float) -> float:
    """x * 2**e, moved one step toward ``toward`` when the product is below
    the normal range; OverflowError beyond the float range.

    A normal product is exact; a smaller one is rounded to nearest (possibly
    to zero), so the step keeps an endpoint on its side of the value it
    encloses.  Zero stays zero.
    """
    y = math.ldexp(x, e)
    return math.nextafter(y, toward) if x and y < _TINY else y


def _gamma(m: int) -> float:
    """An upper bound on Higham's gamma_m = m u / (1 - m u), u = 2**-53.

    m u and 1 - m u are exact for m < 2**52, so one step up covers the
    rounding of the quotient.
    """
    return math.nextafter(m * _U / (1.0 - m * _U), math.inf)


# -- noncompactness and essential radius ------------------------------------


def hausdorff_mnc(f: OperatorFamily) -> Bracket:
    """Hausdorff measure of noncompactness on l2: the sum of band limits.

    The row-tail norm bound decreases to the sum of the band weight
    limits, and sliding window vectors realise that sum in the essential
    norm.  The point bracket sums the limits rounded to nearest, so it is
    not certified: one band of weights 1/3 gets [fl(1/3), fl(1/3)] < 1/3.
    The finite-rank corner is compact and drops out, so a family without
    bands gets the float bracket [0, 0].
    """
    g = sum((w.limit for w in f.bands.values()), 0.0)
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
