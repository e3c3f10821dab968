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
result with no pending build.

Every family's bands are in one normal form: ascending offsets, no
constant band of +0.0, at most ``MAX_BANDS`` bands.  The public
constructor checks types and normalises through ``_normal_bands``, as do
``@`` and ``+``, which can list offsets out of order or add bands.  The
other operations emit their bands in normal form as they build them
(``_family`` says how), with no sort and no cap.
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
        self._pending = None  # (operands, shape, build) until a derived corner is read

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
    # Each operation builds its bands now, in normal form.  With no operand
    # corner box the result has no corner; otherwise the operation hands
    # _lazy_corner the function of its operands that computes the corner's
    # box, and the corner itself as a function of that box.

    def hadamard(self, other: "OperatorFamily") -> "OperatorFamily":
        if not isinstance(other, OperatorFamily):
            raise ShapeMismatchError("entrywise product needs two operator families")
        theirs = other.bands
        bands = {d: p for d, w in self.bands.items() if d in theirs
                 if not _is_zero(p := seq_product(w, theirs[d]))}
        if self._box == other._box == (0, 0):
            return _family(bands)
        return _family(bands, *_lazy_corner(
            (self, other), _union_box,
            lambda box: _corner_correction(
                bands, box, lambda r, c: self._block(r, c) * other._block(r, c))))

    def hpow(self, t: float) -> "OperatorFamily":
        if not (t > 0 and math.isfinite(t)):
            raise DomainError(f"entrywise power requires t > 0, got {t}")
        bands = {d: p for d, w in self.bands.items() if not _is_zero(p := seq_power(w, t))}
        if self._box == (0, 0):
            return _family(bands)
        # math.pow per entry: np.power differs from it in the last bit
        return _family(bands, *_lazy_corner(
            (self,), _own_box,
            lambda box: _corner_correction(bands, box, lambda r, c: np.array(
                [[_pow0(x, t) for x in row] for row in self._block(r, c).tolist()]))))

    def __matmul__(self, other: "OperatorFamily") -> "OperatorFamily":
        if not isinstance(other, OperatorFamily):
            raise ShapeMismatchError("operator product needs two operator families")
        bands: dict[int, list[WeightSeq]] = {}
        for da, wa in self.bands.items():
            # row i needs i >= band_start(da), i + da >= band_start(db) and
            # i >= band_start(da + db); the first and last imply the middle
            sa = band_start(da)
            for db, wb in other.bands.items():
                start = max(sa, band_start(da + db))
                term = seq_restrict(seq_product(wa, seq_shift(wb, da)), start)
                bands.setdefault(da + db, []).append(term)
        merged = {d: seq_sum(parts) for d, parts in bands.items()}
        if self._box == other._box == (0, 0):
            return _family(_normal_bands(merged))
        # the box is checked before the bands are capped, so a product over
        # both caps raises the corner's error; + keeps the same order
        box, pending = _lazy_corner((self, other), OperatorFamily._product_box,
                                    lambda box: self._product_corner(other, box), "product corner")
        return _family(_normal_bands(merged), box, pending)

    def _product_box(self, other: "OperatorFamily") -> tuple[int, int]:
        ra, ca = self._box
        rb, cb = other._box
        rows, cols = ra, cb
        if rb:
            rows = max(rows, max((rb - d for d in self.bands), default=0))
        if ra:
            cols = max(cols, max((ca + d for d in other.bands), default=0))
        return rows, cols

    def _product_corner(self, other: "OperatorFamily", box: tuple[int, int]):
        ra, ca = self._box
        rb, cb = other._box
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
            return _family(_normal_bands(bands))
        box, pending = _lazy_corner((self, other), _union_box,
                                    lambda box: _padded_sum(self.corner, other.corner))
        return _family(_normal_bands(bands), box, pending)

    def scale(self, c: float) -> "OperatorFamily":
        if not (c >= 0 and math.isfinite(c)):
            raise DomainError(f"scale factor must be finite and >= 0, got {c}")
        bands = {d: p for d, w in self.bands.items() if not _is_zero(p := seq_scale(w, c))}
        if self._box == (0, 0):
            return _family(bands)
        return _family(bands, *_lazy_corner(
            (self,), _own_box, lambda box: None if self.corner is None else self.corner * c))

    def adjoint(self) -> "OperatorFamily":
        # built in the operand's order, so a node-cap error is the same one,
        # then listed from the highest offset down: ascending in -d
        flipped = [(-d, seq_restrict(seq_shift(w, -d), max(1, 1 + d))) for d, w in self.bands.items()]
        bands = dict(reversed(flipped))
        if self._box == (0, 0):
            return _family(bands)
        return _family(bands, *_lazy_corner(
            (self,), _flipped_box, lambda box: None if self.corner is None else self.corner.T))

    def __repr__(self):
        parts = [f"{d}:{w!r}" for d, w in self.bands.items()]
        return f"OperatorFamily(bands={{{', '.join(parts)}}}, corner={self.corner_shape})"


def _shape(corner: np.ndarray | None) -> tuple[int, int]:
    return (0, 0) if corner is None else corner.shape


def _is_zero(w: WeightSeq) -> bool:
    """A constant weight that rounds to +0.0: a band that normal form drops."""
    return isinstance(w, Constant) and w.c == 0.0


def _normal_bands(bands: dict[int, WeightSeq]) -> dict[int, WeightSeq]:
    """The bands in ascending offset order, zero constant bands dropped,
    capped at ``MAX_BANDS``."""
    clean = {d: bands[d] for d in sorted(bands) if not _is_zero(bands[d])}
    if len(clean) > MAX_BANDS:
        raise ClosureOverflowError(f"family has {len(clean)} bands (cap {MAX_BANDS})")
    return clean


def _family(bands, box=(0, 0), pending=None) -> OperatorFamily:
    """Family of these bands, built past the constructor.

    The bands must already be in normal form: ascending offsets, no
    constant band of +0.0, at most ``MAX_BANDS``.  Only the public
    constructor, ``@`` and ``+`` sort and cap, through ``_normal_bands``,
    since only they can list offsets out of order or grow the band count.
    ``hadamard``, ``hpow`` and ``scale`` walk their operand's bands in
    ascending order and drop a constant band that rounds to +0.0, and
    ``adjoint`` lists the operand's bands from the highest offset down,
    which gives ascending offsets with no zero band.
    """
    f = OperatorFamily.__new__(OperatorFamily)
    f.bands = bands
    f._corner = None
    f._box = box
    f._pending = pending
    return f


def _lazy_corner(operands, shape, build, what="corner correction"):
    """(box, pending) of a derived family whose corner is built on first read.

    Operations on operands with no corner box call ``_family(bands)``
    instead and never reach here, so a corner-free result carries no
    pending build.  ``shape(*operands)`` computes the corner box from the
    operands' boxes: box bounds now, realized shapes when the corner is
    built.  A box with no rows or no columns gives ``((0, 0), None)``.
    Otherwise the pending entry is ``(operands, shape, build)``, and
    ``_realize`` sets the corner to ``build(shape(*operands))`` once the
    operands' corners are realized.  ``shape``'s arithmetic is monotone in
    the operands' boxes and a realized shape never exceeds its box, so the
    corner fits in the box checked against ``MAX_CORNER`` here, at the
    operation.  ``build`` reads the operands' realized corners, so the
    corner equals the one an eager build gives, bit for bit, also when an
    operand's corner turned out all zero.

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
    box = shape(*operands)
    if box[0] > 0 and box[1] > 0:
        if max(box) > MAX_CORNER:
            raise ClosureOverflowError(f"{what} exceeded the size cap")
        return box, (operands, shape, build)
    return (0, 0), None


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
        operands, shape, build = f._pending
        waiting = [g for g in operands if g._pending is not None]
        if waiting:
            stack.extend(waiting)
            continue
        stack.pop()
        f._corner = _as_corner(build(shape(*operands)))
        f._box = _shape(f._corner)
        f._pending = None


# Corner boxes as functions of the operands, read now for the operation's
# box and again at realization for the corner's.

def _own_box(f: OperatorFamily) -> tuple[int, int]:
    return f._box


def _flipped_box(f: OperatorFamily) -> tuple[int, int]:
    return f._box[::-1]


def _union_box(a: OperatorFamily, b: OperatorFamily) -> tuple[int, int]:
    return (max(a._box[0], b._box[0]), max(a._box[1], b._box[1]))


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
