"""Structured infinite nonnegative matrices acting on l2.

An ``OperatorFamily`` is a finite collection of bands (offset ``d`` holds
``a[i, i+d] = w_d(i)``), plus an optional finite-rank correction embedded
in the top-left corner.  Band weights are :mod:`specrad.sequences` values,
so every family carries float tail bounds and per-band limits.
Finitely many bands with bounded weights always give a bounded operator,
and the algebra below (entrywise products and powers, operator products,
sums, adjoints) is closed on this class: offsets add under products, and
all boundary effects are absorbed into the corner, which stays finite and
nonnegative.  When symbolic growth would exceed the caps the operation
raises ``ClosureOverflowError`` rather than truncating silently.

The corner of a derived family (``hadamard``, ``hpow``, ``@``, ``+``,
``scale``, ``adjoint``) is computed on the first read of ``.corner``, not
by the operation: noncompactness and essential radii read band limits
only, so most derived corners are never needed.  Until that read,
``corner_shape`` is the box that bounds the corner; the operation checks
that box against ``MAX_CORNER``.  Operands with no corner box give a
result with no pending build.  Derived bands skip the constructor's
type checks; ``_normal_bands`` normalises every family's bands.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import ClosureOverflowError, DomainError, ShapeMismatchError
from .matrices import FiniteMatrix
from .sequences import (
    Constant,
    WeightSeq,
    _pow0,
    seq_power,
    seq_product,
    seq_restrict,
    seq_scale,
    seq_shift,
    seq_sum,
)

MAX_BANDS = 512
MAX_CORNER = 4096


def band_start(d: int) -> int:
    """First row index at which the band of offset d has an entry."""
    return max(1, 1 - d)


def _band_block(bands: dict[int, WeightSeq], rows: int, cols: int) -> np.ndarray:
    """Dense rows-by-cols block of the bands alone: w_d(i) at (i, i+d)."""
    out = np.zeros((rows, cols))
    for d, w in bands.items():
        i = np.arange(band_start(d), min(rows, cols - d) + 1)
        out[i - 1, i + d - 1] = [w.value(k) for k in i.tolist()]
    return out


def _corner_correction(bands: dict[int, WeightSeq], box: tuple[int, int], exact):
    """Corner = exact(rows, cols) operand block minus the result's band block.

    Outside the box both operands are pure bands, where the result band
    formula is already exact, so the correction is supported on the box.
    """
    rows, cols = box
    if rows == 0 or cols == 0:
        return None
    out = exact(rows, cols) - _band_block(bands, rows, cols)
    if np.any(out < -1e-9):
        raise DomainError("internal: negative corner correction")
    return np.maximum(out, 0.0)


def _as_corner(value) -> np.ndarray | None:
    if value is None:
        return None
    if isinstance(value, FiniteMatrix):
        arr = np.array(value.a)
    else:
        arr = np.array(value, dtype=float)
    if arr.ndim != 2:
        raise ShapeMismatchError("finite-rank corner must be a 2-d block")
    if not np.all(np.isfinite(arr)) or np.any(arr < 0):
        raise DomainError("finite-rank corner entries must be finite and nonnegative")
    if not arr.any():
        return None
    if max(arr.shape) > MAX_CORNER:
        raise ClosureOverflowError(f"finite-rank corner exceeds {MAX_CORNER} rows/cols")
    arr.flags.writeable = False
    return arr


class OperatorFamily:
    """Banded + diagonal + finite-rank nonnegative operator on l2.

    ``corner`` is the finite-rank block, or ``None`` when there is none.
    A family built from ``finite_rank=`` validates its corner at once.  A
    derived family keeps its operands and computes its corner on the first
    read of ``corner``; it then keeps the corner and lets the operands go.
    ``corner_shape`` is the corner's shape once read and the bounding box
    before.
    """

    __slots__ = ("bands", "_corner", "_box", "_pending")

    def __init__(self, bands=(), diagonal: WeightSeq | None = None, finite_rank=None):
        items = dict(bands)
        if diagonal is not None:
            if 0 in items:
                raise ShapeMismatchError("give the diagonal either as offset 0 or as diagonal=, not both")
            items[0] = diagonal
        for d, w in items.items():
            if not isinstance(d, numbers.Integral) or isinstance(d, bool):
                raise DomainError(f"band offsets must be integers, got {d!r}")
            if not isinstance(w, WeightSeq):
                raise DomainError(f"band weights must be WeightSeq values, got {type(w).__name__}")
        self.bands = _normal_bands({int(d): w for d, w in items.items()})
        self._corner = _as_corner(finite_rank)
        self._box = _shape(self._corner)
        self._pending = None  # (operands, build) until a derived corner is read

    # -- structure ----------------------------------------------------

    @property
    def corner(self) -> np.ndarray | None:
        if self._pending is not None:
            _realize(self)
        return self._corner

    @property
    def spread(self) -> int:
        return max((abs(d) for d in self.bands), default=0)

    @property
    def corner_shape(self) -> tuple[int, int]:
        return self._box

    # -- entry access ---------------------------------------------------

    def entry(self, i: int, j: int) -> float:
        """1-based entry a(i, j)."""
        if i < 1 or j < 1:
            raise DomainError("indices are 1-based")
        d = j - i
        w = self.bands.get(d)
        v = w.value(i) if w is not None and i >= band_start(d) else 0.0
        corner = self.corner
        if corner is not None and i <= corner.shape[0] and j <= corner.shape[1]:
            v += corner[i - 1, j - 1]
        return v

    def _block(self, rows: int, cols: int) -> np.ndarray:
        """Top-left rows-by-cols block: bands plus the corner overlay."""
        out = _band_block(self.bands, rows, cols)
        corner = self.corner
        if corner is not None:
            r = min(rows, corner.shape[0])
            c = min(cols, corner.shape[1])
            out[:r, :c] += corner[:r, :c]
        return out

    def truncate(self, n: int) -> FiniteMatrix:
        """Top-left n-by-n compression P_n A P_n as a dense matrix."""
        if n < 1:
            raise DomainError("truncation size must be >= 1")
        return FiniteMatrix(self._block(n, n))

    def tail_norm_bound(self, n: int) -> float:
        """Bound on the l2 norm of rows i >= n, computed in floats.

        Each band restricted to rows >= n is a partial weighted shift whose
        norm is the sup of the remaining weights; the triangle inequality
        over bands plus the norm of the remaining corner rows gives a bound
        that decreases to the essential norm as n grows.  It sums
        ``tail_sup`` values and an SVD norm, all rounded to nearest, so it
        is not certified.
        """
        if n < 1:
            raise DomainError("tail index must be >= 1")
        total = 0.0
        for d, w in self.bands.items():
            total += w.tail_sup(max(n, band_start(d)))
        corner = self.corner
        if corner is not None and n <= corner.shape[0]:
            total += float(np.linalg.norm(corner[n - 1:, :], 2))
        return total

    def entry_sup(self) -> float:
        """sup of all entries, from a covering truncation plus band tails."""
        cr, cc = _shape(self.corner)
        base = max(cr, cc) + self.spread + 1
        n = base + self.spread
        if n > MAX_CORNER:
            raise ClosureOverflowError("entry-sup truncation exceeded the size cap")
        best = self.truncate(n).entry_sup()
        for d, w in self.bands.items():
            best = max(best, w.tail_sup(max(base + 1, band_start(d))))
        return best

    # -- algebra ----------------------------------------------------------
    # Each operation builds its bands now.  With no operand corner box the
    # result is _plain; otherwise the operation hands _derived the box of
    # its corner, as a function of the operands' corner shapes, and the
    # corner itself, as a function of that box.

    def hadamard(self, other: "OperatorFamily") -> "OperatorFamily":
        if not isinstance(other, OperatorFamily):
            raise ShapeMismatchError("entrywise product needs two operator families")
        theirs = other.bands
        bands = {d: seq_product(w, theirs[d]) for d, w in self.bands.items() if d in theirs}
        if self._box == other._box == (0, 0):
            return _plain(bands)
        return _derived(
            bands, (self, other), lambda: _union_box(self.corner_shape, other.corner_shape),
            lambda box: _corner_correction(
                bands, box, lambda r, c: self._block(r, c) * other._block(r, c)))

    def hpow(self, t: float) -> "OperatorFamily":
        if not (t > 0 and math.isfinite(t)):
            raise DomainError(f"entrywise power requires t > 0, got {t}")
        bands = {d: seq_power(w, t) for d, w in self.bands.items()}
        if self._box == (0, 0):
            return _plain(bands)
        # math.pow per entry: np.power differs from it in the last bit
        return _derived(
            bands, (self,), lambda: self.corner_shape,
            lambda box: _corner_correction(bands, box, lambda r, c: np.array(
                [[_pow0(x, t) for x in row] for row in self._block(r, c).tolist()])))

    def __matmul__(self, other: "OperatorFamily") -> "OperatorFamily":
        if not isinstance(other, OperatorFamily):
            raise ShapeMismatchError("operator product needs two operator families")
        bands: dict[int, list[WeightSeq]] = {}
        for da, wa in self.bands.items():
            sa = band_start(da)
            for db, wb in other.bands.items():
                start = max(sa, band_start(db) - da, band_start(da + db))
                term = seq_restrict(seq_product(wa, seq_shift(wb, da)), start)
                bands.setdefault(da + db, []).append(term)
        merged = {d: seq_sum(parts) for d, parts in bands.items()}
        if self._box == other._box == (0, 0):
            return _plain(merged)
        return _derived(merged, (self, other), lambda: self._product_box(other),
                        lambda box: self._product_corner(other, box), "product corner")

    def _product_box(self, other: "OperatorFamily") -> tuple[int, int]:
        ra, ca = self.corner_shape
        rb, cb = other.corner_shape
        rows, cols = ra, cb
        if rb:
            rows = max(rows, max((rb - d for d in self.bands), default=0))
        if ra:
            cols = max(cols, max((ca + d for d in other.bands), default=0))
        return rows, cols

    def _product_corner(self, other: "OperatorFamily", box: tuple[int, int]):
        ra, ca = self.corner_shape
        rb, cb = other.corner_shape
        rows, cols = box
        if rows == 0 or cols == 0:
            return None
        out = np.zeros((rows, cols))
        # bands(self) . corner(other): rows lo..rb-d read corner rows lo+d..rb
        if other.corner is not None:
            for d, w in self.bands.items():
                lo = band_start(d)
                if lo <= rb - d:
                    vals = np.array([w.value(i) for i in range(lo, rb - d + 1)])
                    out[lo - 1:rb - d, :cb] += vals[:, None] * other.corner[lo + d - 1:, :]
        # corner(self) . bands(other): corner columns lo..ca land in lo+d..ca+d
        if self.corner is not None:
            for d, w in other.bands.items():
                lo = band_start(d)
                if lo <= ca:
                    vals = np.array([w.value(k) for k in range(lo, ca + 1)])
                    out[:ra, lo + d - 1:ca + d] += self.corner[:, lo - 1:] * vals
        # corner(self) . corner(other)
        if self.corner is not None and other.corner is not None:
            inner = max(ca, rb)
            a = np.zeros((ra, inner))
            a[:, :ca] = self.corner
            b = np.zeros((inner, cb))
            b[:rb, :] = other.corner
            out[:ra, :cb] += a @ b
        return out

    def __add__(self, other: "OperatorFamily") -> "OperatorFamily":
        if not isinstance(other, OperatorFamily):
            raise ShapeMismatchError("operator sum needs two operator families")
        bands = dict(self.bands)
        for d, w in other.bands.items():
            bands[d] = seq_sum([bands[d], w]) if d in bands else w
        if self._box == other._box == (0, 0):
            return _plain(bands)
        return _derived(bands, (self, other),
                        lambda: _union_box(self.corner_shape, other.corner_shape),
                        lambda box: _padded_sum(self.corner, other.corner))

    def scale(self, c: float) -> "OperatorFamily":
        if not (c >= 0 and math.isfinite(c)):
            raise DomainError(f"scale factor must be finite and >= 0, got {c}")
        bands = {d: seq_scale(w, c) for d, w in self.bands.items()}
        if self._box == (0, 0):
            return _plain(bands)
        return _derived(bands, (self,), lambda: self.corner_shape,
                        lambda box: None if self.corner is None else self.corner * c)

    def adjoint(self) -> "OperatorFamily":
        bands = {}
        for d, w in self.bands.items():
            bands[-d] = seq_restrict(seq_shift(w, -d), max(1, 1 + d))
        if self._box == (0, 0):
            return _plain(bands)
        return _derived(bands, (self,), lambda: self.corner_shape[::-1],
                        lambda box: None if self.corner is None else self.corner.T)

    def __repr__(self):
        parts = [f"{d}:{w!r}" for d, w in self.bands.items()]
        return f"OperatorFamily(bands={{{', '.join(parts)}}}, corner={self.corner_shape})"


def _shape(corner: np.ndarray | None) -> tuple[int, int]:
    return (0, 0) if corner is None else corner.shape


def _normal_bands(bands: dict[int, WeightSeq]) -> dict[int, WeightSeq]:
    """The bands in ascending offset order, zero constant bands dropped,
    capped at ``MAX_BANDS``."""
    clean = {}
    for d in sorted(bands):
        w = bands[d]
        if not (isinstance(w, Constant) and w.c == 0.0):
            clean[d] = w
    if len(clean) > MAX_BANDS:
        raise ClosureOverflowError(f"family has {len(clean)} bands (cap {MAX_BANDS})")
    return clean


def _plain(bands) -> OperatorFamily:
    """Corner-free family of these bands, built past the constructor."""
    f = OperatorFamily.__new__(OperatorFamily)
    f.bands = _normal_bands(bands)
    f._corner = None
    f._box = (0, 0)
    f._pending = None
    return f


def _derived(bands, operands, shape, build, what="corner correction") -> OperatorFamily:
    """Family of these bands whose corner is ``build(shape())`` on first read.

    Operations on operands with no corner box return ``_plain`` instead and
    never reach here, so a corner-free result carries no pending build.
    ``shape`` computes the corner box from the operands' ``corner_shape``:
    box bounds now, realized shapes when the corner is built.  Its
    arithmetic is monotone in those shapes and a realized shape never
    exceeds its box, so the corner fits in the box checked against
    ``MAX_CORNER`` here, at the operation.  ``build`` reads the operands'
    realized corners, so the corner equals the one an eager build gives,
    bit for bit, also when an operand's corner turned out all zero.

    An eager build differs in two ways.  First, an all-zero operand
    corner shows as ``None`` only once it is read, so until then a later
    box can be larger than the eager one, and an operation near
    ``MAX_CORNER`` can raise ``ClosureOverflowError`` where the eager build
    would not.  An overflow the eager build raises is always raised.
    Second, the errors of the corner arithmetic itself surface at the
    first read of ``corner``, or never if nothing reads it: a corner entry
    that overflows to inf (``_as_corner``'s ``DomainError``), an entry
    power beyond the float range under ``hpow`` (``_pow0``'s
    ``DomainError``) and the internal negative-correction check.
    Essential radii and noncompactness never read a corner, so on such an
    input they now give a bracket where the eager build refused the
    operation; the corner is compact, so that bracket is the one the
    operation's bands determine.
    """
    box = shape()
    live = box[0] > 0 and box[1] > 0
    if live and max(box) > MAX_CORNER:
        raise ClosureOverflowError(f"{what} exceeded the size cap")
    f = _plain(bands)
    if live:
        f._box = box
        f._pending = (operands, lambda: build(shape()))
    return f


def _realize(root: OperatorFamily) -> None:
    """Build the pending corners under root, operands first.

    An explicit stack, so that a deep expression does not meet the
    interpreter's recursion limit.
    """
    stack = [root]
    while stack:
        f = stack[-1]
        if f._pending is None:
            stack.pop()
            continue
        operands, build = f._pending
        waiting = [g for g in operands if g._pending is not None]
        if waiting:
            stack.extend(waiting)
            continue
        stack.pop()
        f._corner = _as_corner(build())
        f._box = _shape(f._corner)
        f._pending = None


def _union_box(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    return (max(a[0], b[0]), max(a[1], b[1]))


def _padded_sum(a: np.ndarray | None, b: np.ndarray | None):
    if a is None:
        return None if b is None else np.array(b)
    if b is None:
        return np.array(a)
    rows = max(a.shape[0], b.shape[0])
    cols = max(a.shape[1], b.shape[1])
    out = np.zeros((rows, cols))
    out[:a.shape[0], :a.shape[1]] += a
    out[:b.shape[0], :b.shape[1]] += b
    return out


def shift_family(weights: WeightSeq, offset: int = 1, finite_rank=None) -> OperatorFamily:
    """Single-band family: a(i, i+offset) = weights(i)."""
    if offset == 0:
        raise DomainError("offset 0 is a diagonal; use diagonal_family")
    return OperatorFamily({offset: weights}, finite_rank=finite_rank)


def diagonal_family(weights: WeightSeq, finite_rank=None) -> OperatorFamily:
    return OperatorFamily(diagonal=weights, finite_rank=finite_rank)


def finite_rank_family(block) -> OperatorFamily:
    return OperatorFamily(finite_rank=block)


def identity_family() -> OperatorFamily:
    return diagonal_family(Constant(1.0))
