import math

import numpy as np
import pytest

from helpers import dense_product_check, random_family
from specrad import (
    Constant,
    EvalContext,
    EventuallyConstant,
    FiniteMatrix,
    OperatorFamily,
    PrefixWithLimit,
    RationalFormula,
    diagonal_family,
    evaluate_chain,
    finite_rank_family,
    hausdorff_mnc,
    identity_family,
    shift_family,
    spectral_radius,
)
from specrad import families, sequences
from specrad.ensembles import EnsembleSpec, rng_for, sample_family
from specrad.errors import ClosureOverflowError, DomainError, InputFormatError, ShapeMismatchError
from specrad.families import _pow0, band_start
from specrad.registry import by_id
from specrad.serialize import canonical_dumps, family_from_json
from specrad.sequences import seq_power


def inv_index():
    return RationalFormula([1.0], [0.0, 1.0])  # 1/i


def test_truncate_shift_pattern():
    f = shift_family(Constant(1.0))
    assert f.truncate(3).a.tolist() == [[0, 1, 0], [0, 0, 1], [0, 0, 0]]


def test_entry_access_and_corner_overlay():
    f = shift_family(Constant(2.0), finite_rank=[[1.0, 3.0], [0.5, 0.0]])
    assert f.entry(1, 2) == pytest.approx(5.0)  # band 2 + corner 3
    assert f.entry(1, 1) == pytest.approx(1.0)
    assert f.entry(3, 4) == pytest.approx(2.0)
    with pytest.raises(DomainError):
        f.entry(0, 1)


def test_diagonal_and_zero_band_pruning():
    d = diagonal_family(Constant(0.0))
    assert d.bands == {}


_ONE = {"kind": "constant", "c": 1.0}


@pytest.mark.parametrize("make,error,message", [
    (lambda: EventuallyConstant(None, 1.0), DomainError, "prefix values must be a sequence"),
    (lambda: PrefixWithLimit(3, 1.0), DomainError, "prefix values must be a sequence"),
    (lambda: OperatorFamily(finite_rank="x"), DomainError, "matrix entries must be real numbers"),
    (lambda: OperatorFamily(finite_rank=[[1, 2], [3]]), DomainError,
     "matrix entries must be real numbers"),
    (lambda: OperatorFamily(finite_rank=np.zeros((0, 3))), ShapeMismatchError,
     "at least one row and one column"),
    (lambda: family_from_json({"bands": [{"offset": 0, "weights": _ONE}], "diagonal": _ONE}),
     InputFormatError, "family has two bands at offset 0"),
], ids=["prefix-none", "prefix-int", "corner-string", "corner-ragged", "corner-empty",
        "json-two-diagonals"])
def test_each_operator_input_is_refused_by_its_one_parser(make, error, message):
    """A prefix is read by ``errors._reals``, a corner by ``FiniteMatrix``,
    and a JSON "diagonal" as the band at offset 0."""
    with pytest.raises(error, match=message):
        make()


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("wrap", [FiniteMatrix, np.asarray], ids=["matrix", "array"])
def test_a_corner_keeps_its_values_and_layout(order, wrap):
    block = np.array([[1.0, 2.0, 0.0], [0.0, 3.0, 0.5]], order=order)
    given = wrap(block)
    corner = finite_rank_family(given).corner
    assert corner.tolist() == block.tolist()
    assert (corner.flags.c_contiguous, corner.flags.f_contiguous) == (order == "C", order == "F")
    assert not corner.flags.writeable and not np.shares_memory(corner, block)


@pytest.mark.parametrize("make", [
    lambda w: shift_family(w, offset=1.5),
    lambda w: OperatorFamily({"1": w}),
    lambda w: OperatorFamily({True: w}),
    lambda w: OperatorFamily({1.0: w}),
], ids=["float-shift", "str", "bool", "integral-float"])
def test_a_band_offset_that_is_not_an_integer_is_refused(make):
    with pytest.raises(DomainError, match="band offsets must be integers"):
        make(Constant(1.0))


def test_numpy_integer_band_offsets_are_accepted():
    f = OperatorFamily({np.int64(2): Constant(1.0)})
    assert list(f.bands) == [2] and type(next(iter(f.bands))) is int
    assert shift_family(Constant(1.0), offset=np.int32(-1)).truncate(2).a.tolist() == \
        [[0.0, 0.0], [1.0, 0.0]]


def test_adjoint_is_transpose_on_truncations():
    rng = np.random.default_rng(0)
    for _ in range(10):
        f = random_family(rng, multiband=True)
        assert np.allclose(f.adjoint().truncate(8).a, f.truncate(8).a.T)
    g = shift_family(EventuallyConstant([0.3, 0.7], 1.1), offset=2)
    assert set(g.adjoint().bands) == {-2}
    assert g.adjoint().adjoint().truncate(7) == g.truncate(7)


def test_products_match_dense_truncations():
    rng = np.random.default_rng(1)
    for _ in range(12):
        f = random_family(rng, multiband=True)
        g = random_family(rng, multiband=True)
        assert dense_product_check(f, g, 6)


def test_product_offsets_add():
    f = shift_family(Constant(2.0), offset=1)
    g = shift_family(Constant(3.0), offset=2)
    fg = f @ g
    assert set(fg.bands) == {3}
    assert fg.bands[3].limit == pytest.approx(6.0)


def test_hadamard_matches_dense():
    rng = np.random.default_rng(2)
    for _ in range(10):
        f = random_family(rng, multiband=True)
        g = random_family(rng, multiband=True)
        got = f.hadamard(g).truncate(7).a
        expect = f.truncate(7).a * g.truncate(7).a
        assert np.allclose(got, expect)


def test_hadamard_band_intersection():
    f = shift_family(Constant(1.0), offset=1)
    g = shift_family(Constant(1.0), offset=2)
    assert f.hadamard(g).bands == {}


def test_hpow_matches_dense():
    rng = np.random.default_rng(3)
    for t in (0.5, 1.0, 2.5):
        f = random_family(rng, multiband=True)
        got = f.hpow(t).truncate(7).a
        base = f.truncate(7).a
        expect = np.where(base > 0, base ** t, 0.0)
        assert np.allclose(got, expect)


def test_sum_and_scale_match_dense():
    rng = np.random.default_rng(4)
    f = random_family(rng, multiband=True)
    g = random_family(rng, multiband=True)
    assert np.allclose((f + g).truncate(7).a, f.truncate(7).a + g.truncate(7).a)
    assert np.allclose(f.scale(2.5).truncate(7).a, 2.5 * f.truncate(7).a)


def test_shift_product_boundary_rows():
    # down-shift times up-shift hits the row-1 boundary: a dropped term, not
    # a phantom value
    f = shift_family(EventuallyConstant([5.0, 1.0], 2.0), offset=-1)
    g = shift_family(Constant(3.0), offset=1)
    assert dense_product_check(f, g, 5)
    fg = f @ g
    assert fg.entry(1, 1) == 0.0  # row 1 of the down-shift is empty


def test_tail_bound_examples():
    rank_only = finite_rank_family([[1.0, 2.0], [3.0, 4.0]])
    assert rank_only.tail_norm_bound(3) == 0.0
    assert rank_only.tail_norm_bound(2) > 0.0
    d = diagonal_family(inv_index())
    assert d.tail_norm_bound(10) == pytest.approx(0.1)


def test_tail_bound_non_increasing():
    rng = np.random.default_rng(5)
    for _ in range(8):
        f = random_family(rng, multiband=True)
        vals = [f.tail_norm_bound(2 ** k) for k in range(8)]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


def _gamma(f):
    g = hausdorff_mnc(f)
    return g.lo, g.hi


def test_gamma_limits():
    assert _gamma(identity_family()) == (1.0, 1.0)
    assert _gamma(diagonal_family(inv_index())) == (0.0, 0.0)
    two = diagonal_family(Constant(1.0)) + shift_family(Constant(1.0))
    assert _gamma(two) == (2.0, 2.0)


def test_entry_sup():
    d = diagonal_family(RationalFormula([1.0, 1.0], [0.0, 1.0]))  # 1 + 1/i
    assert d.entry_sup() == pytest.approx(2.0)
    s = shift_family(Constant(0.7))
    assert s.entry_sup() == pytest.approx(0.7)
    r = shift_family(Constant(0.5), finite_rank=[[4.0]])
    assert r.entry_sup() == pytest.approx(4.0)


def test_entry_sup_caps_the_covering_truncation(monkeypatch):
    far = shift_family(Constant(1.0), offset=5000)

    def no_alloc(*args, **kwargs):
        raise AssertionError("allocated before the size check")

    monkeypatch.setattr(np, "zeros", no_alloc)
    with pytest.raises(ClosureOverflowError):
        far.entry_sup()


def test_band_start_convention():
    assert band_start(0) == 1
    assert band_start(3) == 1
    assert band_start(-2) == 3


def test_corner_cap_raises():
    with pytest.raises(ClosureOverflowError):
        finite_rank_family(np.ones((5000, 1)))


def test_negative_corner_rejected():
    with pytest.raises(DomainError):
        finite_rank_family([[-1.0]])


def test_family_algebra_methods():
    f = shift_family(Constant(2.0))
    g = diagonal_family(Constant(3.0))
    assert np.allclose((f + g).hadamard(f + g).truncate(5).a,
                       (f + g).truncate(5).a ** 2)
    assert np.allclose((f @ g).truncate(4).a,
                       f.truncate(5).a[:4, :4] @ g.truncate(4).a)
    assert g.tail_norm_bound(7) == pytest.approx(3.0)
    assert np.allclose(f.adjoint().truncate(4).a, f.truncate(4).a.T)


def test_nested_algebra_matches_dense():
    """Compound expressions must agree with dense arithmetic on truncations."""
    rng = np.random.default_rng(99)
    for _ in range(6):
        a = random_family(rng, multiband=True)
        b = random_family(rng, multiband=True)
        c = random_family(rng, multiband=True)
        expr = ((a @ b).hadamard(c.adjoint() + a)).hpow(1.5) @ (b @ b).adjoint()
        n = 6
        pad = 24  # covers every offset/corner interaction at this depth
        da = a.truncate(pad).a
        db = b.truncate(pad).a
        dc = c.truncate(pad).a
        step = (da @ db) * (dc.T + da)
        step = np.where(step > 0, step ** 1.5, 0.0)
        dense = (step @ (db @ db).T)[:n, :n]
        assert np.allclose(expr.truncate(n).a, dense, rtol=1e-12, atol=1e-12)


def test_nested_algebra_tail_and_gamma_consistent():
    rng = np.random.default_rng(100)
    for _ in range(6):
        a = random_family(rng, multiband=True)
        b = random_family(rng, multiband=True)
        expr = (a @ b).hadamard(a + b).hpow(0.5)
        lo, hi = _gamma(expr)
        assert 0.0 <= lo <= hi
        assert hi <= expr.tail_norm_bound(1) + 1e-9
        vals = [expr.tail_norm_bound(2 ** k) for k in range(9)]
        assert all(x >= y - 1e-12 for x, y in zip(vals, vals[1:]))
        assert vals[-1] >= hi - 1e-9


# Per-entry reference constructions of the result corners: the entrywise
# corner is exact(i, j) minus the result band entry, one entry at a time;
# the product corner walks the rows of bands(f) . corner(g) and the columns
# of corner(f) . bands(g), then adds corner(f) . corner(g).


def _ref_entrywise_corner(bands, exact, box):
    rows, cols = box
    if rows == 0 or cols == 0:
        return None
    out = np.zeros((rows, cols))
    for i in range(1, rows + 1):
        for j in range(1, cols + 1):
            d = j - i
            w = bands.get(d)
            band_v = w.value(i) if (w is not None and i >= band_start(d)) else 0.0
            out[i - 1, j - 1] = max(exact(i, j) - band_v, 0.0)
    return out


def _ref_product_corner(f, g):
    ra, ca = f.corner_shape
    rb, cb = g.corner_shape
    rows = max([0, ra] + ([rb - d for d in f.bands] if rb else []))
    cols = max([0, cb] + ([ca + d for d in g.bands] if ra else []))
    if rows == 0 or cols == 0:
        return None
    out = np.zeros((rows, cols))
    if g.corner is not None:
        for d, w in f.bands.items():
            for i in range(band_start(d), min(rows, rb - d) + 1):
                out[i - 1, :cb] += w.value(i) * g.corner[i + d - 1, :]
    if f.corner is not None:
        for d, w in g.bands.items():
            for k in range(band_start(d), ca + 1):
                j = k + d
                if 1 <= j <= cols:
                    out[:ra, j - 1] += f.corner[:, k - 1] * w.value(k)
    if f.corner is not None and g.corner is not None:
        inner = max(ca, rb)
        a = np.zeros((ra, inner))
        a[:, :ca] = f.corner
        b = np.zeros((inner, cb))
        b[:rb, :] = g.corner
        out[:ra, :cb] += a @ b
    return out


def _assert_matches_reference(got, ref_corner, n=12):
    ref = OperatorFamily(got.bands, finite_rank=ref_corner)
    if ref.corner is None:
        assert got.corner is None
    else:
        assert got.corner is not None and np.array_equal(got.corner, ref.corner)
    dense = np.array([[ref.entry(i, j) for j in range(1, n + 1)] for i in range(1, n + 1)])
    assert got.truncate(n).a.tobytes() == dense.tobytes()


def _reference_operands():
    rng = np.random.default_rng(7)
    ens = EnsembleSpec(kind="shift_plus_rank", seed=7)
    out = [random_family(rng, multiband=True) for _ in range(10)]
    out += [sample_family(rng, ens, offset=d) for d in (-2, -1, 0, 1, 2)]
    return out


def test_corners_match_per_entry_reference():
    ops = _reference_operands()
    for f in ops:
        for t in (0.5, 1.0, 1.5, 2.5):
            _assert_matches_reference(f.hpow(t), _ref_entrywise_corner(
                f.hpow(t).bands, lambda i, j: _pow0(f.entry(i, j), t), f.corner_shape))
        for g in ops:
            box = (max(f.corner_shape[0], g.corner_shape[0]),
                   max(f.corner_shape[1], g.corner_shape[1]))
            h = f.hadamard(g)
            _assert_matches_reference(h, _ref_entrywise_corner(
                h.bands, lambda i, j: f.entry(i, j) * g.entry(i, j), box))
            _assert_matches_reference(f @ g, _ref_product_corner(f, g))


# Lazy corners.  A derived family computes its corner on the first read of
# ``corner``; the tests below count that work, compare realized corners with
# an eager build, and check that the cap is still enforced at the operation.


def _count_corner_builds(monkeypatch):
    """Patch counters onto the two corner builders; returns the live count."""
    count = [0]
    entrywise = families._corner_correction
    product = OperatorFamily._product_corner

    def counted_entrywise(*args, **kwargs):
        count[0] += 1
        return entrywise(*args, **kwargs)

    def counted_product(*args, **kwargs):
        count[0] += 1
        return product(*args, **kwargs)

    monkeypatch.setattr(families, "_corner_correction", counted_entrywise)
    monkeypatch.setattr(OperatorFamily, "_product_corner", counted_product)
    return count


def test_essential_chains_compute_no_corner(monkeypatch):
    count = _count_corner_builds(monkeypatch)
    ens = EnsembleSpec(kind="shift_plus_rank", seed=3)
    for cid in ("E6", "E19", "E21"):
        spec = by_id(cid)
        for trial in range(3):
            inputs = spec.sample(rng_for(ens, trial, cid), ens)
            evaluate_chain(spec, inputs, EvalContext(), trial)
    assert count[0] == 0
    f = shift_family(Constant(2.0), finite_rank=[[1.0, 3.0], [0.5, 0.0]])
    g = f.hadamard(f)
    assert count[0] == 0
    first = g.corner
    assert count[0] == 1
    assert g.corner is first
    assert count[0] == 1


def _eager(f):
    """The family rebuilt from its realized corner, as an eager build leaves it."""
    return OperatorFamily(f.bands, finite_rank=f.corner)


def _build(expr, leaves, wrap, nodes):
    """Evaluate a nested (op, *args) expression over leaf indices.

    Every intermediate result passes through ``wrap`` and is appended to
    ``nodes`` after its operands, so ``nodes`` is in operands-first order.
    """
    if isinstance(expr, int):
        return leaves[expr]
    op, *args = expr
    x = _build(args[0], leaves, wrap, nodes)
    if op in ("hadamard", "matmul", "add"):
        y = _build(args[1], leaves, wrap, nodes)
        out = {"hadamard": x.hadamard, "matmul": x.__matmul__, "add": x.__add__}[op](y)
    else:
        out = {"hpow": x.hpow, "scale": x.scale}[op](args[1]) if len(args) > 1 else x.adjoint()
    out = wrap(out)
    nodes.append(out)
    return out


_EXPRESSIONS = (
    ("hpow", ("hadamard", ("matmul", 0, 1), ("add", ("adjoint", 2), 0)), 1.5),
    ("matmul", ("hpow", ("hadamard", ("matmul", 0, 1), ("add", ("adjoint", 2), 0)), 1.5),
     ("adjoint", ("matmul", 1, 1))),
    ("add", ("scale", ("matmul", ("adjoint", 0), ("hpow", 1, 0.5)), 2.5),
     ("hadamard", ("matmul", 2, 0), ("adjoint", ("scale", 1, 0.25)))),
    ("matmul", ("hadamard", ("hpow", ("adjoint", 0), 2.5), ("matmul", 1, ("adjoint", 2))),
     ("add", ("scale", 2, 0.0), ("hadamard", 0, 1))),
    # 3 o 4 has an all-zero corner: a lazily collapsed operand further in
    ("hpow", ("matmul", ("hadamard", 3, 4), ("add", 0, ("adjoint", ("hadamard", 3, 4)))), 2.0),
)


def _lazy_operands():
    ops = _reference_operands()
    collapse_f = shift_family(Constant(1.0), finite_rank=[[1.0]])
    collapse_g = shift_family(Constant(2.0))
    rng = np.random.default_rng(11)
    picks = rng.choice(len(ops), size=(6, 3))
    return [[ops[i] for i in row] + [collapse_f, collapse_g] for row in picks]


def test_lazy_corners_match_eager_in_either_read_order():
    """Realized corners equal an eager build's whichever node is read first.

    The eager reference rebuilds every intermediate from its realized
    corner, so each operation sees realized operand shapes, as an eager
    build does.  Outer-first reads the root before anything else, which
    realizes the whole expression at once; operands-first reads every
    intermediate right after its operands.  Realized corner shapes always
    match; the shapes before the read are the box bounds, which can only be
    larger.
    """
    for leaves in _lazy_operands():
        for expr in _EXPRESSIONS:
            ref_nodes, outer, inner = [], [], []
            _build(expr, leaves, _eager, ref_nodes)
            _build(expr, leaves, lambda f: f, outer)
            _build(expr, leaves, lambda f: f, inner)
            for got, ref in zip(outer, ref_nodes):
                assert all(b >= r for b, r in zip(got.corner_shape, ref.corner_shape))
            for f in reversed(outer):
                f.corner
            for f in inner:
                f.corner
            for nodes in (outer, inner):
                for got, ref in zip(nodes, ref_nodes):
                    assert got.corner_shape == ref.corner_shape
                    if ref.corner is None:
                        assert got.corner is None
                    else:
                        assert np.array_equal(got.corner, ref.corner)
                assert nodes[-1].truncate(12).a.tobytes() == ref_nodes[-1].truncate(12).a.tobytes()


def _random_expression(rng, leaves: int, depth: int):
    """A random nested (op, *args) expression for ``_build`` over leaf indices."""
    if depth == 0 or rng.random() < 0.2:
        return int(rng.integers(leaves))
    op = ("hadamard", "matmul", "add", "hpow", "scale", "adjoint")[int(rng.integers(6))]
    x = _random_expression(rng, leaves, depth - 1)
    if op in ("hadamard", "matmul", "add"):
        return op, x, _random_expression(rng, leaves, depth - 1)
    if op == "hpow":
        return op, x, float(rng.choice([0.5, 1.0, 1.5, 2.5]))
    if op == "scale":
        return op, x, float(rng.choice([0.0, 0.25, 1.0, 3.0]))  # 0.0 makes zero bands
    return op, x


def test_derived_bands_match_the_public_constructor():
    """Every derived family holds the bands the public constructor makes of
    them: the same offsets in ascending order with the same limit bits, and
    no zero constant band.  Operations on corner-free operands leave no
    corner box and no pending build."""
    rng = np.random.default_rng(19)
    for with_corners in (False, True):
        for _ in range(40):
            leaves = [random_family(rng, multiband=True) for _ in range(4)]
            if not with_corners:
                leaves = [OperatorFamily(f.bands) for f in leaves]
            nodes = []
            _build(_random_expression(rng, len(leaves), 3), leaves, lambda f: f, nodes)
            for f in nodes:
                ref = OperatorFamily(f.bands)
                assert list(f.bands) == list(ref.bands) == sorted(f.bands)
                assert ([w.limit.hex() for w in f.bands.values()]
                        == [w.limit.hex() for w in ref.bands.values()])
                assert not any(isinstance(w, Constant) and w.c == 0.0 for w in f.bands.values())
                if not with_corners:
                    assert f.corner_shape == (0, 0) and f._pending is None


@pytest.mark.parametrize("rank", [None, [[1.0, 0.5], [0.25, 2.0]]], ids=["corner-free", "corner"])
def test_lean_operations_emit_the_normal_form(rank):
    """hadamard, hpow, scale and adjoint neither sort nor filter through the
    public constructor's normalisation, so each drops a constant band that
    rounds to +0.0 and lists its offsets ascending by itself."""
    tiny = diagonal_family(Constant(1e-200), finite_rank=rank)
    assert tiny.hadamard(diagonal_family(Constant(1e-200))).bands == {}
    faint = diagonal_family(Constant(1e-300), finite_rank=rank)
    assert faint.hpow(2.0).bands == {}
    assert faint.scale(1e-300).bands == {}
    f = OperatorFamily({3: EventuallyConstant([2.0], 0.5), -2: Constant(1.0), 1: inv_index()},
                       finite_rank=rank)
    star = f.adjoint()
    assert list(star.bands) == list(OperatorFamily(star.bands).bands) == [-3, -1, 2]
    assert all(star.entry(i, j) == f.entry(j, i) for i in range(1, 7) for j in range(1, 7))


def test_band_cap_holds_on_corner_free_products():
    wide = OperatorFamily({d: Constant(1.0) for d in range(300)})
    gap = OperatorFamily({0: Constant(1.0), 300: Constant(1.0)})
    assert wide.corner_shape == gap.corner_shape == (0, 0)
    with pytest.raises(ClosureOverflowError, match=r"family has 600 bands \(cap 512\)"):
        wide @ gap


def test_essential_reports_match_an_eager_rebuild(monkeypatch):
    """E6, E8, E19 and E21 give byte-identical reports on all three family
    kinds when every algebra result is rebuilt through the public
    constructor, as ``_eager`` does."""
    def reports():
        out = []
        for kind in ("shift_family", "diagonal_family", "shift_plus_rank"):
            ens = EnsembleSpec(kind=kind, seed=5)
            for cid in ("E6", "E8", "E19", "E21"):
                spec = by_id(cid)
                for trial in range(3):
                    inputs = spec.sample(rng_for(ens, trial, cid), ens)
                    report = evaluate_chain(spec, inputs, EvalContext(), trial)
                    out.append(canonical_dumps(report.to_json()))
        return out

    lean = reports()
    for name in ("hadamard", "hpow", "__matmul__", "__add__", "scale", "adjoint"):
        op = getattr(OperatorFamily, name)
        monkeypatch.setattr(OperatorFamily, name,
                            lambda self, *args, _op=op: _eager(_op(self, *args)))
    assert reports() == lean


def test_all_zero_corner_correction_reads_as_none():
    f = shift_family(Constant(1.0), finite_rank=[[1.0]])
    g = shift_family(Constant(2.0))
    h = f.hadamard(g)  # the corner sits on the diagonal, where g is zero
    assert h.corner_shape == (1, 1)
    assert h.corner is None
    assert h.corner_shape == (0, 0)
    assert f.scale(0.0).corner is None


def test_closure_overflow_raises_at_the_operation(monkeypatch):
    """The cap is checked on the box, at the call; no corner is built first.

    An entrywise box is the union of its operand boxes, which are capped
    already, so the entrywise check is reached only under a lowered cap.
    """
    count = _count_corner_builds(monkeypatch)
    tall = finite_rank_family(np.ones((families.MAX_CORNER, 1))).scale(2.0)
    down = shift_family(Constant(1.0), offset=-1)
    with pytest.raises(ClosureOverflowError, match="product corner exceeded the size cap"):
        down @ tall
    f = shift_family(Constant(1.0), finite_rank=np.ones((4, 4)))
    small = f @ f
    monkeypatch.setattr(families, "MAX_CORNER", 3)
    with pytest.raises(ClosureOverflowError, match="corner correction exceeded the size cap"):
        small.hpow(2.0)
    with pytest.raises(ClosureOverflowError, match="corner correction exceeded the size cap"):
        small.hadamard(f)
    with pytest.raises(ClosureOverflowError, match="product corner exceeded the size cap"):
        small @ f
    assert count[0] == 0


def test_an_operation_over_both_caps_reports_the_corner_cap(monkeypatch):
    """@ and + check the corner box before they sort and cap their bands."""
    f = OperatorFamily({0: Constant(1.0), 1: Constant(1.0)}, finite_rank=np.ones((4, 4)))
    g = OperatorFamily({2: Constant(1.0), 3: Constant(1.0)}, finite_rank=np.ones((4, 4)))
    monkeypatch.setattr(families, "MAX_BANDS", 2)
    monkeypatch.setattr(families, "MAX_CORNER", 3)
    with pytest.raises(ClosureOverflowError, match="product corner exceeded the size cap"):
        f @ f
    with pytest.raises(ClosureOverflowError, match="corner correction exceeded the size cap"):
        f + g
    monkeypatch.setattr(families, "MAX_CORNER", 4096)
    with pytest.raises(ClosureOverflowError, match=r"family has 3 bands \(cap 2\)"):
        f @ f
    with pytest.raises(ClosureOverflowError, match=r"family has 4 bands \(cap 2\)"):
        f + g


def test_corner_arithmetic_errors_surface_at_the_read():
    """An entry that overflows is refused when the corner is read, not at the call."""
    f = shift_family(Constant(1.0), finite_rank=[[1e200]])
    with np.errstate(over="ignore"):
        product = f @ f
        assert product.corner_shape == (1, 2)
        assert hausdorff_mnc(product).hi == 1.0
        with pytest.raises(DomainError, match="matrix entries must be finite"):
            product.corner
    power = f.hpow(2.0)
    with pytest.raises(DomainError, match="exceeds the float range"):
        power.corner


@pytest.mark.parametrize("probe", [
    lambda: shift_family(Constant(10.0)).hpow(400.0),
    lambda: finite_rank_family([[10.0]]).hpow(400.0).corner,
    lambda: hausdorff_mnc(shift_family(RationalFormula([1e200, 0], [1.0])).hpow(2.0)),
    lambda: spectral_radius(FiniteMatrix([[1e200]])).power(2.0),
    lambda: seq_power(EventuallyConstant([1e200], 1.0), 2.0).value(1),
    lambda: seq_power(EventuallyConstant([1e200], 1.0), 2.0).tail_sup(1),
], ids=["constant-band", "corner", "band-limit", "bracket", "value", "tail-sup"])
def test_powers_beyond_the_float_range_are_domain_errors(probe):
    with pytest.raises(DomainError, match="exceeds the float range"):
        probe()


def test_one_pow0_serves_families_and_sequences():
    assert _pow0 is sequences._pow0
    assert _pow0(0.0, 2.5) == 0.0
    assert _pow0(3.0, 2.5) == math.pow(3.0, 2.5)


def test_deep_expression_realizes_without_recursion():
    f = shift_family(Constant(0.5), finite_rank=[[1.0, 2.0]])
    g = f
    for _ in range(5000):
        g = g.adjoint().scale(1.0)
    assert np.array_equal(g.corner, f.corner)
