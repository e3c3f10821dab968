"""Certified brackets for spectral radii, norms, and noncompactness.

Every estimator returns a ``Bracket`` whose lower and upper endpoints are
both certified, with a ``method`` tag and a ``converged`` flag.  The
finite spectral radius combines Gelfand upper bounds with Collatz-Wielandt
lower bounds on repeated squarings, applied per strongly connected
component so reducible matrices also get tight lower bounds.  The
components come from the reachability closure of the sparsity pattern:
R = (A != 0) | I squared until it stops growing, after which i and j
share a component exactly when R[i, j] and R[j, i].  On the
infinite side, the Hausdorff measure of noncompactness of a banded family
is the sum of its band weight limits: every weight sequence converges, so
row-tail norm bounds decrease to that sum, and sliding window vectors
attain it from below.  Band limits multiply under operator products, so
gamma(A^j) = gamma(A)^j and the essential radius lim_j gamma(A^j)^(1/j)
is bounded above by gamma(A) itself, with no power sequence to explore.
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
_MAX_SQUARINGS = 64

# Range of the largest entry in which the Gram matrix A*A is formed with no
# overflow and no subnormal rounding (for n below 2**100).  A matrix outside
# it is scaled by a power of two first.
_GRAM_MIN = 2.0 ** -400
_GRAM_MAX = 2.0 ** 400


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


def _irreducible_bracket(a: np.ndarray, tol: float) -> tuple[float, float, bool]:
    """Gelfand + Collatz-Wielandt bracket for an irreducible block.

    Row sums of A^(2^k) are the Collatz-Wielandt ratios at the all-ones
    vector, so their min and max raised to 2^-k enclose the Perron root,
    and the 2^k-th root collapses the enclosure geometrically.
    """
    top = a.max().item()
    if top <= 0.0:
        return 0.0, 0.0, True
    b = a / top
    logscale = math.log(top)
    lo_best = 0.0
    hi_best = math.inf
    power = 1.0  # 2**k
    for _ in range(_MAX_SQUARINGS):
        rs = b.sum(axis=1).tolist()
        mn = min(rs)
        mx = max(rs)
        if mx <= 0.0:
            return 0.0, 0.0, True
        if mn > 0.0:
            lo_best = max(lo_best, math.exp((math.log(mn) + logscale) / power))
        hi_best = min(hi_best, math.exp((math.log(mx) + logscale) / power))
        if hi_best - lo_best <= tol * max(1.0, hi_best):
            break
        b = b @ b
        top = b.max().item()
        if top <= 0.0 or not math.isfinite(top):
            break
        b /= top
        logscale = 2.0 * logscale + math.log(top)
        power *= 2.0
    lo = lo_best * (1.0 - _ROUND_GUARD)
    hi = hi_best * (1.0 + _ROUND_GUARD)
    return lo, hi, hi - lo <= tol * max(1.0, hi)


def spectral_radius(m: FiniteMatrix, tol: float = DEFAULT_RHO_TOL) -> Bracket:
    """Certified bracket for the Perron root of a nonnegative matrix.

    The spectrum of a block-triangular matrix is the union over diagonal
    blocks, so the radius is the max over strongly connected components;
    each irreducible component gets the Gelfand/Collatz-Wielandt squeeze.
    """
    if not m.is_square:
        raise ShapeMismatchError("spectral radius needs a square matrix")
    lo = 0.0
    hi = 0.0
    conv = True
    for comp in _strong_components(m.a):
        if comp.size == 1:
            i = int(comp[0])
            v = float(m.a[i, i])
            lo, hi = max(lo, v), max(hi, v)
            continue
        sub = m.a[np.ix_(comp, comp)]
        clo, chi, ok = _irreducible_bracket(sub, tol)
        lo, hi = max(lo, clo), max(hi, chi)
        conv = conv and ok
    return Bracket(lo, hi, "gelfand-cw", conv)


def operator_norm(m: FiniteMatrix, space: str = L2, tol: float = DEFAULT_RHO_TOL) -> Bracket:
    """Operator norm bracket on the requested sequence space.

    l1 and linf norms are exact column/row sums; the l2 norm is the square
    root of the spectral radius of A*A.  When the largest entry lies outside
    [_GRAM_MIN, _GRAM_MAX], A*A would overflow or lose its low bits to
    subnormal rounding, so the norm of 2**-e A is taken instead, where 2**e
    brackets that entry, and its endpoints are multiplied back by 2**e.
    """
    if space == L1:
        v = float(m.a.sum(axis=0).max())
        return Bracket(v * (1 - _ROUND_GUARD), v * (1 + _ROUND_GUARD), "colsum")
    if space == LINF:
        v = float(m.a.sum(axis=1).max())
        return Bracket(v * (1 - _ROUND_GUARD), v * (1 + _ROUND_GUARD), "rowsum")
    if space == L2:
        top = m.a.max().item()
        if top == 0.0 or _GRAM_MIN <= top <= _GRAM_MAX:
            gram = FiniteMatrix(m.a.T @ m.a)
            b = spectral_radius(gram, tol)
            return Bracket(math.sqrt(b.lo), math.sqrt(b.hi), "sqrt-gram", b.converged)
        e = math.frexp(top)[1]
        b = operator_norm(FiniteMatrix(np.ldexp(m.a, -e)), L2, tol)
        return replace(b, lo=_times_pow2(b.lo, e, 0.0), hi=_times_pow2(b.hi, e, math.inf))
    raise DomainError(f"unknown space tag {space!r}; expected one of {SPACES}")


def _times_pow2(x: float, e: int, toward: float) -> float:
    """x * 2**e, moved one step toward ``toward`` when the product is subnormal.

    A normal product is exact; a subnormal one is rounded to nearest, so the
    step keeps an endpoint on its side of the value it encloses.
    """
    try:
        y = math.ldexp(x, e)
    except OverflowError:
        raise DomainError("operator norm exceeds the float range") from None
    return math.nextafter(y, toward) if 0.0 < y < sys.float_info.min else y


# -- noncompactness and essential radius ------------------------------------


def hausdorff_mnc(f: OperatorFamily) -> Bracket:
    """Hausdorff measure of noncompactness on l2: the sum of band limits.

    The row-tail norm bound decreases to the sum of the band weight
    limits, and sliding window vectors realise that sum in the essential
    norm, so the point bracket is exact.  The finite-rank corner is compact
    and drops out, so a family without bands gets the float bracket [0, 0].
    """
    g = sum((w.limit for w in f.bands.values()), 0.0)
    return Bracket(g, g, "band-tail-limit")


def oracle_ess_radius(f: OperatorFamily) -> float | None:
    """Exact essential radius for diagonal or single-band structure.

    The essential radius ignores the compact finite-rank corner.  For a
    diagonal it is the limit of the weights; for a single band at offset
    d it is the limit of geometric means of runs of weights, which for the
    convergent kinds equals the weight limit.  Returns None rather than
    guessing on richer structures.
    """
    if len(f.bands) == 0:
        return 0.0
    if len(f.bands) == 1:
        (w,) = f.bands.values()
        return w.limit
    return None


def essential_spectral_radius(f: OperatorFamily) -> Bracket:
    """Bracket for the essential spectral radius from noncompactness.

    r_ess(A) = lim_j gamma(A^j)^(1/j), and gamma is multiplicative on
    banded families (band limits multiply under products), so
    gamma(A^j) = gamma(A)^j and every power gives the same upper end
    gamma(A).  The lower end comes from the analytic oracle when the band
    structure supports one, else 0.
    """
    hi = hausdorff_mnc(f).hi * (1.0 + _ROUND_GUARD)
    lo = oracle_ess_radius(f)
    method = "gamma-powers+oracle" if lo is not None else "gamma-powers"
    lo = 0.0 if lo is None else min(lo, hi)
    return Bracket(lo, hi, method)


def gamma_via_star(f: OperatorFamily) -> Bracket:
    """Independent route to the noncompactness measure through A*A.

    On l2 the essential radius of A*A equals gamma(A)^2, so the square
    root of the A*A bracket cross-checks hausdorff_mnc.
    """
    b = essential_spectral_radius(f.adjoint() @ f)
    return Bracket(math.sqrt(b.lo), math.sqrt(b.hi) * (1.0 + _ROUND_GUARD),
                   "star-identity", b.converged)
