import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import encloses_perron_root, exact_gram, gamma_via_star, random_family
from specrad import (
    Bracket,
    Constant,
    EventuallyConstant,
    FiniteMatrix,
    OperatorSet,
    RationalFormula,
    diagonal_family,
    essential_spectral_radius,
    finite_rank_family,
    hausdorff_mnc,
    identity_family,
    operator_norm,
    shift_family,
    spectral,
    spectral_radius,
)
from specrad.errors import DomainError, ShapeMismatchError
from specrad.jsr import norm_set_bracket
from specrad.spectral import (
    _GRAM_MAX,
    _GRAM_MIN,
    _ROUND_GUARD,
    DEFAULT_RHO_TOL,
    _gamma,
    _norms,
    _perron_brackets,
    _radii_norms,
    _spectral_radii,
    _squeeze,
    _strong_components,
)

GOLDEN_SQUARED = (3 + math.sqrt(5)) / 2  # Perron root of [[2,1],[1,1]]


def test_bracket_invariants():
    b = Bracket(1.0, 2.0, "x")
    assert b.width == 1.0 and b.mid == 1.5
    assert b.contains(1.5) and not b.contains(2.5)
    assert b.power(2.0).hi == 4.0
    assert b.scaled(3.0).lo == 3.0
    assert b.overlaps(Bracket(1.9, 5.0, "y"))
    assert not b.overlaps(Bracket(2.5, 3.0, "y"))
    with pytest.raises(DomainError):
        Bracket(2.0, 1.0, "bad")
    with pytest.raises(DomainError):
        Bracket(-1.0, 1.0, "bad")


def test_spectral_radius_examples():
    assert spectral_radius(FiniteMatrix([[0, 1], [1, 0]])).contains(1.0)
    tri = spectral_radius(FiniteMatrix([[1, 1], [0, 1]]))
    assert tri.contains(1.0) and tri.width <= 1e-10
    b = spectral_radius(FiniteMatrix([[2, 1], [1, 1]]))
    assert b.contains(GOLDEN_SQUARED)
    assert b.width <= 1e-10 * max(1.0, b.hi)
    assert spectral_radius(FiniteMatrix(np.zeros((3, 3)))).hi == 0.0
    with pytest.raises(ShapeMismatchError):
        spectral_radius(FiniteMatrix([[1, 2, 3]]))


def test_spectral_radius_reducible_tight():
    # block-triangular: radius is the max over diagonal blocks
    a = FiniteMatrix([[2.0, 5.0, 1.0], [0.0, 0.5, 3.0], [0.0, 0.0, 1.5]])
    b = spectral_radius(a)
    assert b.contains(2.0) and b.width <= 1e-9


def test_spectral_radius_vs_charpoly_oracle():
    rng = np.random.default_rng(11)
    for k in range(50):
        n = 2 + (k % 3)
        a = rng.random((n, n))
        if k % 4 == 0:
            a = a * (rng.random((n, n)) < 0.5)
        b = spectral_radius(FiniteMatrix(a))
        assert encloses_perron_root(a, b.lo, b.hi)


def test_spectral_radius_imprimitive_cycle():
    # weighted 3-cycle: Perron root is the geometric mean of the weights
    a = FiniteMatrix([[0, 0.3, 0], [0, 0, 1.7], [0.9, 0, 0]])
    b = spectral_radius(a)
    assert b.contains((0.3 * 1.7 * 0.9) ** (1 / 3), slack=1e-10)
    assert b.width <= 1e-9


# -- reference: the component split through scipy's strong components -----


def _scipy_components(a):
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    n, labels = connected_components(csr_matrix(a != 0), directed=True, connection="strong")
    return [np.flatnonzero(labels == c) for c in range(n)]


def _reference_spectral_radius(a, tol=DEFAULT_RHO_TOL):
    """spectral_radius through scipy's component split, each irreducible
    component bracketed alone by the same per-block routine."""
    lo = hi = 0.0
    conv = True
    for comp in _scipy_components(a):
        if comp.size == 1:
            i = int(comp[0])
            v = float(a[i, i])
            lo, hi = max(lo, v), max(hi, v)
            continue
        (clo, chi, ok), = _perron_brackets(a[np.ix_(comp, comp)][None], tol)
        lo, hi = max(lo, clo), max(hi, chi)
        conv = conv and ok
    return Bracket(lo, hi, "gelfand-cw", conv)


def _component_matrices(count, seed):
    """Zero and identity matrices, then ``count`` seeded nonnegative matrices.

    Sizes 1-14, densities 0.05-1 and scales 1e-200 to 1e200; in turn plain,
    with a zero diagonal, permuted block-triangular, and permuted
    imprimitive: every other time a weighted path or n-cycle, whose
    closure takes the most squarings, else block-cyclic with period 2 or 3.
    """
    for n in (1, 2, 5, 14):
        yield np.zeros((n, n))
        yield np.eye(n)
    rng = np.random.default_rng(seed)
    for k in range(count):
        n = int(rng.integers(1, 15))
        a = rng.random((n, n)) * (rng.random((n, n)) < rng.uniform(0.05, 1.0))
        shape = k % 4
        if shape == 1:
            np.fill_diagonal(a, 0.0)
        elif shape == 2:
            block = np.sort(rng.integers(0, 4, n))
            a[block[:, None] > block[None, :]] = 0.0
        elif shape == 3 and k % 8 == 3:
            a = np.diag(rng.random(n - 1) + 0.1, 1)
            if k % 16 == 3:
                a[-1, 0] = rng.random() + 0.1
        elif shape == 3:
            period = int(rng.integers(2, 4))
            block = rng.integers(0, period, n)
            a = (rng.random((n, n)) + 0.1) * (block[None, :] == (block[:, None] + 1) % period)
        if shape >= 2:
            p = rng.permutation(n)
            a = a[np.ix_(p, p)]
        yield a * 10.0 ** rng.uniform(-200.0, 200.0)


def _component_lists(stack):
    """``_strong_components``' flat return read back as one list of member
    arrays per array of the stack, components in their returned order.
    The flat arrays must lay the components end to end, array by array."""
    owner, start, size, members = _strong_components(stack)
    k, n, _ = stack.shape
    assert members.shape == (k * n,) and start.tolist() == (np.cumsum(size) - size).tolist()
    assert np.array_equal(owner, np.sort(owner)) and size.min() >= 1
    out = [[] for _ in range(k)]
    for j, a, b in zip(owner.tolist(), start.tolist(), (start + size).tolist()):
        out[j].append(members[a:b])
    return out


def test_strong_components_match_scipy():
    """Same partition as scipy's strong components; sorted, by smallest
    index.  Each array is split alone and in one stack with every other
    array of its size, so its split does not depend on its stack."""
    by_size = {}
    for a in _component_matrices(2400, seed=81):
        by_size.setdefault(len(a), []).append(a)
    for arrays in by_size.values():
        stacked = _component_lists(np.array(arrays))
        assert len(stacked) == len(arrays)
        for a, comps in zip(arrays, stacked):
            for split in (comps, _component_lists(a[None])[0]):
                assert {frozenset(c.tolist()) for c in split} == \
                    {frozenset(c.tolist()) for c in _scipy_components(a)}
                assert sum(c.size for c in split) == a.shape[0]
                assert all(np.array_equal(c, np.sort(c)) for c in split)
                assert [int(c[0]) for c in split] == sorted(int(c[0]) for c in split)


def test_spectral_radius_matches_scipy_split_reference():
    """Bit for bit the brackets of the scipy component split, its blocks
    bracketed one by one."""
    for a in _component_matrices(2400, seed=82):
        got = spectral_radius(FiniteMatrix(a))
        want = _reference_spectral_radius(a)
        assert (got.lo.hex(), got.hi.hex(), got.converged, got.method) == \
            (want.lo.hex(), want.hi.hex(), want.converged, want.method)


@st.composite
def _radius_batches(draw):
    """A few square nonnegative arrays of sizes 1-40 and scales 2^-1000 to
    2^1000: dense, 0.2-sparse, permuted block-triangular, with zero rows
    and columns, or a permuted weighted cycle or block cycle (imprimitive),
    in C or Fortran order.  Sizes repeat often, so blocks of one size share
    a stack."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    arrays = []
    for _ in range(draw(st.integers(1, 5))):
        n = draw(st.sampled_from([2, 3, 12]) | st.integers(1, 40))
        kind = draw(st.sampled_from(["dense", "sparse", "triangular", "zeros", "cycle"]))
        a = rng.random((n, n))
        if kind == "sparse":
            a *= rng.random((n, n)) < 0.2
        elif kind == "triangular":
            block = np.sort(rng.integers(0, 4, n))
            a[block[:, None] > block[None, :]] = 0.0
        elif kind == "zeros":
            dead = rng.random(n) < 0.4
            a[dead, :] = 0.0
            a[:, dead] = 0.0
        elif kind == "cycle":
            period = int(rng.integers(1, 4))
            phase = rng.integers(0, period, n) if period > 1 else np.arange(n)
            period = period if period > 1 else n
            a = (a + 0.1) * (phase[None, :] == (phase[:, None] + 1) % period)
        if kind != "dense":
            p = rng.permutation(n)
            a = a[np.ix_(p, p)]
        a = a * 2.0 ** draw(st.integers(-1000, 1000))
        arrays.append(np.asfortranarray(a) if draw(st.booleans()) else a)
    return arrays


def _bits(r):
    lo, hi, ok = r
    return lo.hex(), hi.hex(), ok


@settings(max_examples=60, deadline=None)
@given(_radius_batches())
def test_spectral_radii_bits_do_not_depend_on_the_batch(arrays):
    """Each array gets the same bits alone or batched with others in any
    order, and up to degree 8 its bracket encloses the exact Perron root."""
    batch = arrays + arrays[::-1]
    got = _spectral_radii(batch)
    for a, r, back in zip(arrays, got, got[::-1]):
        assert _bits(r) == _bits(back) == _bits(_spectral_radii([a])[0])
        if len(a) <= 8:
            assert encloses_perron_root(a, r[0], r[1])


def test_radii_and_norms_get_their_own_bits_in_one_mixed_batch():
    """``_radii_norms`` gives each radius the bits of ``_spectral_radii`` and
    each norm those of ``_norms`` on its array alone, whatever the order
    of the two lists: on C- and Fortran-ordered arrays, arrays scaled by
    2**600 and 2**-600 (the Gram scaling path), sparse reducible ones,
    1 x 1 and 18 x 18 ones, and one array that is in both lists."""
    rng = np.random.default_rng(67)
    for _ in range(30):
        arrays = []
        for n in rng.choice([1, 2, 3, 5, 18], size=int(rng.integers(2, 9))).tolist():
            a = rng.random((n, n))
            if rng.random() < 0.4:
                a = np.triu(a * (rng.random((n, n)) < 0.4))
            a = a * 2.0 ** int(rng.choice([-600, 0, 600]))
            arrays.append(np.asfortranarray(a) if rng.random() < 0.4 else a)
        side = rng.random(len(arrays)) < 0.5
        rhos = [arrays[0], *(a for a, r in zip(arrays[1:], side[1:]) if r)]
        norms = [arrays[0], *(a for a, r in zip(arrays[1:], side[1:]) if not r)]
        rhos = [rhos[i] for i in rng.permutation(len(rhos))]
        norms = [norms[i] for i in rng.permutation(len(norms))]
        want = ([_bits(_spectral_radii([a])[0]) for a in rhos],
                [_bits(_norms(a[None])[0]) for a in norms])
        radii, l2 = _radii_norms(rhos, norms)
        assert ([_bits(r) for r in radii], [_bits(r) for r in l2]) == want
        radii, l2 = _radii_norms(rhos[::-1], norms[::-1])
        assert ([_bits(r) for r in radii[::-1]], [_bits(r) for r in l2[::-1]]) == want


def test_radii_and_norms_of_stacks_are_each_arrays_own():
    """``_radii_norms`` takes lists of stacks and arrays, as ``jsr._set_bounds``
    hands it a walk's necklace products and deepest level beside a
    registry's single arrays: each radius has the bits of
    ``spectral_radius`` and each norm those of ``operator_norm`` on its array
    alone.  The pieces are C-ordered stacks, transposed stacks and
    Fortran-ordered arrays (one stacked Gram product each, in its own
    layout), of sizes 1 to 14, with some arrays' largest entries outside
    [_GRAM_MIN, _GRAM_MAX] beside others inside it."""
    rng = np.random.default_rng(1295)
    seen = {"C": 0, "transposed": 0, "fortran": 0, "scaled": 0}
    for _ in range(25):
        pieces = []
        for _ in range(int(rng.integers(2, 7))):
            n, k = int(rng.choice([1, 2, 3, 5, 12, 13, 14])), int(rng.integers(1, 5))
            s = rng.random((k, n, n)) * 2.0 ** rng.choice([-500, 0, 0, 500], size=(k, 1, 1))
            seen["scaled"] += bool((s.max(axis=(1, 2)) > _GRAM_MAX).any())
            kind = ("C", "transposed", "fortran")[int(rng.integers(0, 3))]
            seen[kind] += 1
            pieces.append(s if kind == "C" else s.transpose(0, 2, 1) if kind == "transposed"
                          else np.asfortranarray(s[0]))
        split = int(rng.integers(0, len(pieces) + 1))
        rhos, norms = pieces[:split], pieces[split:]

        def each(group):
            return [FiniteMatrix(a) for p in group for a in (p if p.ndim == 3 else [p])]

        radii, l2 = _radii_norms(rhos, norms)
        assert [_bits(r) for r in radii] == \
            [_bits((b.lo, b.hi, b.converged)) for b in map(spectral_radius, each(rhos))]
        assert [_bits(r) for r in l2] == \
            [_bits((b.lo, b.hi, b.converged)) for b in map(operator_norm, each(norms))]
    assert min(seen.values()) > 0


def test_fortran_ordered_positive_arrays_get_their_own_bits_in_a_batch():
    """Positive arrays of one shape are stacked in C order: at n = 10 and 14
    a Fortran-ordered one batched with C-ordered ones, with other
    Fortran-ordered ones, or as the only positive array of its shape, gets
    the bits it gets alone.  ``np.stack`` keeps Fortran strides, and its row
    sums would add in another order."""
    rng = np.random.default_rng(71)
    for n in (10, 14):
        for _ in range(10):
            fortran = [np.asfortranarray(rng.random((n, n)) + 0.01) for _ in range(2)]
            c_ordered = [rng.random((n, n)) + 0.01 for _ in range(2)]
            triangular = np.asfortranarray(np.triu(rng.random((n, n))))
            for batch in ([fortran[0], *c_ordered, fortran[1]], fortran,
                          [fortran[0], c_ordered[0][:3, :3], fortran[1]],
                          [fortran[0], triangular]):
                for a, r in zip(batch, _spectral_radii(batch)):
                    assert _bits(r) == _bits(_spectral_radii([a])[0])


def test_each_size_is_split_once_and_every_array_keeps_its_bits(monkeypatch):
    """One ``_spectral_radii`` call splits the arrays of each distinct size
    by one ``_strong_components`` call on a C-contiguous stack, and each
    array gets the bracket it gets alone: on Fortran-ordered positive
    arrays, an array whose corner entries are nonzero but which has a zero
    interior entry, 1 x 1 arrays, and a lone array."""
    stacks = []
    real = spectral._strong_components
    monkeypatch.setattr(spectral, "_strong_components",
                        lambda s: stacks.append((s.shape, s.flags.c_contiguous)) or real(s))
    rng = np.random.default_rng(72)
    hole = rng.random((3, 3)) + 0.1
    hole[1, 1] = 0.0  # nonzero corner entries, a zero interior entry
    batches = [
        [rng.random((3, 3)) + 0.1, np.triu(rng.random((3, 3))),
         np.asfortranarray(rng.random((3, 3)) + 0.1), np.array([[0.0, 2.0], [3.0, 0.0]]),
         np.ones((2, 2)), np.array([[2.5]]), np.array([[0.5]])],
        [np.triu(rng.random((3, 3))), rng.random((3, 3)) + 0.1, hole,
         np.asfortranarray(rng.random((3, 3)) + 0.1)],
        [np.asfortranarray(rng.random((4, 4)) + 0.1) for _ in range(3)],
        [np.asfortranarray(np.triu(rng.random((5, 5))))],
    ]
    for batch in batches:
        stacks.clear()
        got = _spectral_radii(batch)
        sizes = list(dict.fromkeys(len(a) for a in batch))
        assert stacks == [((sum(len(a) == n for a in batch), n, n), True) for n in sizes]
        for a, r in zip(batch, got):
            stacks.clear()
            assert _bits(r) == _bits(_spectral_radii([a])[0])
            assert stacks == [((1, len(a), len(a)), True)]
    stacks.clear()
    assert spectral_radius(FiniteMatrix(hole)) == Bracket(*_spectral_radii([hole])[0][:2],
                                                          "gelfand-cw")
    assert stacks == [((1, 3, 3), True)] * 2


def _closure_inputs(monkeypatch):
    """Record each array that ``_strong_components`` hands to ``_closure``."""
    closed = []
    real = spectral._closure
    monkeypatch.setattr(spectral, "_closure",
                        lambda r: closed.extend(m.tolist() for m in r) or real(r))
    return closed


def _reach_mask(a):
    return ((a != 0) | np.eye(len(a), dtype=bool)).astype(float).tolist()


def test_only_arrays_with_a_zero_entry_are_split_into_components(monkeypatch):
    """The arrays of one size are tested for a zero entry in one stacked
    reduction; only those that have one, in a batch or alone, reach the
    reachability closure."""
    closed = _closure_inputs(monkeypatch)
    rng = np.random.default_rng(72)
    sparse = [np.triu(rng.random((3, 3))), np.array([[0.0, 2.0], [3.0, 0.0]])]
    batch = [rng.random((3, 3)) + 0.1, sparse[0], np.asfortranarray(rng.random((3, 3)) + 0.1),
             sparse[1], np.ones((2, 2)), np.array([[2.5]]), np.array([[0.5]])]
    got = _spectral_radii(batch)
    assert closed == [_reach_mask(a) for a in sparse]
    closed.clear()
    alone = [_spectral_radii([a])[0] for a in batch]
    assert closed == [_reach_mask(a) for a in sparse]
    assert [_bits(r) for r in got] == [_bits(r) for r in alone]
    closed.clear()
    assert spectral_radius(FiniteMatrix(batch[0])) == Bracket(*got[0][:2], "gelfand-cw")
    assert closed == []


def test_a_shape_led_by_a_sparse_array_probes_each_array(monkeypatch):
    """When the first array of a shape has a zero entry, each array is
    still tested for one: the full ones skip the closure, an array with
    nonzero corner entries but a zero interior entry reaches it, and every
    bracket keeps its bits."""
    closed = _closure_inputs(monkeypatch)
    rng = np.random.default_rng(73)
    hole = rng.random((3, 3)) + 0.1
    hole[1, 1] = 0.0  # nonzero corner entries, a zero interior entry
    batch = [np.triu(rng.random((3, 3))), rng.random((3, 3)) + 0.1, hole,
             np.asfortranarray(rng.random((3, 3)) + 0.1)]
    got = _spectral_radii(batch)
    assert closed == [_reach_mask(batch[0]), _reach_mask(hole)]
    alone = [_spectral_radii([a])[0] for a in batch]
    assert [_bits(r) for r in got] == [_bits(r) for r in alone]


def _blocks(sizes, rng, perm=True):
    """A nonnegative array with irreducible diagonal blocks of the given
    sizes (a size 1 block is a diagonal entry), coupled one way only and
    permuted: its components are the blocks."""
    n = sum(sizes)
    a = np.zeros((n, n))
    at = 0
    for s in sizes:
        a[at:at + s, at:at + s] = rng.random((s, s)) + 0.1 if s > 1 else rng.random()
        a[at:at + s, at + s:] = rng.random((s, n - at - s)) * (rng.random((s, n - at - s)) < 0.3)
        at += s
    p = rng.permutation(n) if perm else np.arange(n)
    return a[np.ix_(p, p)]


def test_one_batch_mixes_every_component_shape(monkeypatch):
    """Sizes 1, 2, 3 and 12 in one batch: all-singleton arrays (-0.0
    diagonal entries among them), a 1 x 1 zero and a 1 x 1 -0.0, positive
    and reducible arrays, Fortran-ordered ones and transposed views, and
    12 x 12 arrays with two or more blocks of different sizes.  Each array
    keeps the bits it gets alone, ``_perron_brackets`` is called once per
    block size on a C-contiguous stack (never for an all-singleton array),
    and the split is scipy's partition."""
    rng = np.random.default_rng(91)
    singletons = [np.array([[-0.0, 1.0], [0.0, 2.0]]),
                  np.triu(rng.random((3, 3)) + 0.1) * np.where(np.eye(3), -0.0, 1.0),
                  np.zeros((12, 12)) + np.diag(rng.random(12)) + np.triu(rng.random((12, 12)), 1)]
    batch = [
        np.array([[2.5]]), np.array([[0.0]]), np.array([[-0.0]]), *singletons,
        np.array([[0.0, 2.0], [3.0, 0.0]]), rng.random((2, 2)) + 0.1,
        np.asfortranarray(rng.random((3, 3)) + 0.1), _blocks([2, 1], rng).T,
        _blocks([2, 3, 5, 1, 1], rng), np.asfortranarray(_blocks([3, 4, 5], rng)),
        _blocks([12], rng), _blocks([2, 2, 3, 3, 2], rng).T, _blocks([6, 6], rng),
        rng.random((12, 12)) + 0.1,
    ]
    calls = []
    real = spectral._perron_brackets
    monkeypatch.setattr(spectral, "_perron_brackets", lambda s, tol: calls.append(
        (s.shape, s.flags.c_contiguous)) or real(s, tol))
    got = _spectral_radii(batch)
    comps = [_scipy_components(a) for a in batch]
    sizes = {c.size for cs in comps for c in cs if c.size > 1}
    assert sorted(shape[1] for shape, _ in calls) == sorted(sizes) == [2, 3, 4, 5, 6, 12]
    assert all(contiguous for _, contiguous in calls)
    for a, r in zip(batch, got):
        calls.clear()
        assert _bits(r) == _bits(_spectral_radii([a])[0])
        if any(a is b for b in singletons):
            assert calls == [] and r[0] == r[1] == max(np.diagonal(a).max(), 0.0)
    assert [_bits(r) for r in got[:3]] == [_bits((2.5, 2.5, True)), _bits((0.0, 0.0, True)),
                                           _bits((0.0, 0.0, True))]
    for n in (1, 2, 3, 12):
        arrays = [a for a in batch if len(a) == n]
        for a, split in zip(arrays, _component_lists(np.array(arrays))):
            assert {frozenset(c.tolist()) for c in split} == \
                {frozenset(c.tolist()) for c in _scipy_components(a)}


def _stacks(rng):
    """(k, n, n) stacks of every kind ``_spectral_radii`` takes: empty ones,
    1 x 1 ones with -0.0 and 0.0, positive ones, ones with a zero entry or
    reducible arrays, and at n = 2-40 ones scaled by 2**+-900, each
    C-ordered and as a transposed and a reversed (non-contiguous) view."""
    stacks = [np.zeros((0, n, n)) for n in (1, 2, 5)]
    stacks += [np.array([[[-0.0]], [[2.5]], [[0.0]]]), np.array([[[-0.0]]]),
               rng.random((4, 1, 1)) * 2.0 ** 900]
    for n in range(2, 41):
        k = int(rng.integers(1, 6))
        positive = rng.random((k, n, n)) + 0.01
        holes = rng.random((k, n, n)) * (rng.random((k, n, n)) < 0.6)
        reducible = np.triu(rng.random((k, n, n)))
        for s in (positive, holes, reducible):
            s = s * 2.0 ** rng.choice([-900, 0, 900], size=(k, 1, 1))
            stacks += [s, s.transpose(0, 2, 1), s[:, ::-1, :]]
    return stacks


def test_a_stack_gets_the_bits_of_its_list():
    """``_spectral_radii`` gives a stack the bits it gives the list of its
    arrays, whatever its layout.  ``_norms`` gives each array of a stack in
    either layout of its contract, C-ordered or the transposed view of a
    C-ordered stack, the l2 bits of the array alone, and each stacked Gram
    matrix is the array's own 2-D product: this pins numpy handing each
    array of a stacked ``@`` to the per-matrix kernel with its own strides.
    The l2 norms cover largest entries outside [_GRAM_MIN, _GRAM_MAX]
    beside ones inside it."""
    mixed = {"above": 0, "below": 0}
    for s in _stacks(np.random.default_rng(1252)):
        assert [_bits(r) for r in _spectral_radii([s])] == \
            [_bits(r) for r in _spectral_radii(list(s))]
        if s.shape[1] == 1:  # a 1 x 1 array's radius is its entry, -0.0 as +0.0
            assert [_bits(r) for r in _spectral_radii([s])] == \
                [_bits((abs(v), abs(v), True)) for v in s.ravel().tolist()]
        if not (s.flags.c_contiguous or s.transpose(0, 2, 1).flags.c_contiguous):
            continue  # a reversed view: no caller makes one, and ``_norms`` may copy it
        assert [_bits(r) for r in _norms(s)] == [_bits(_norms(a[None])[0]) for a in s]
        for a, g, e in zip(s, *spectral._gram(s)):
            # one product per array, in its own layout, is the reference
            b = np.ldexp(a, -e) if e else a
            assert g.tobytes() == (b.T @ b).tobytes()
        tops = s.max(axis=(1, 2))
        inside = ((_GRAM_MIN <= tops) & (tops <= _GRAM_MAX)).any()
        mixed["above"] += bool(inside and (tops > _GRAM_MAX).any())
        mixed["below"] += bool(inside and (tops < _GRAM_MIN).any())
    assert min(mixed.values()) > 0  # stacks that scale some arrays and not others


def test_a_positive_stack_goes_to_the_perron_brackets_as_it_is(monkeypatch):
    """A C-ordered stack of positive arrays is handed to ``_perron_brackets``
    itself, neither copied nor split; a non-contiguous one is copied once
    into C order; an empty stack returns [] and reaches neither the split
    nor the brackets; a stack with a zero entry is still split."""
    calls = []
    split = spectral._strong_components
    real = spectral._perron_brackets
    monkeypatch.setattr(spectral, "_strong_components", lambda s: calls.append(("split", s))
                        or split(s))
    monkeypatch.setattr(spectral, "_perron_brackets", lambda s, tol: calls.append(("rho", s))
                        or real(s, tol))
    rng = np.random.default_rng(1253)
    s = rng.random((5, 3, 3)) + 0.1
    got = _spectral_radii([s])
    assert [(what, b is s) for what, b in calls] == [("split", True), ("rho", True)]
    assert got == real(s, DEFAULT_RHO_TOL)
    calls.clear()
    t = s.transpose(0, 2, 1)
    _spectral_radii([t])
    assert calls[0][1] is calls[1][1] and calls[0][1].flags.c_contiguous
    assert np.array_equal(calls[0][1], t)
    calls.clear()
    assert _spectral_radii([np.zeros((0, 4, 4))]) == [] and _norms(np.zeros((0, 4, 4))) == []
    assert calls == []
    monkeypatch.setattr(spectral, "np", None)  # an empty list makes no numpy call
    assert _spectral_radii([]) == []
    monkeypatch.undo()
    monkeypatch.setattr(spectral, "_strong_components", lambda s: calls.append(("split", s))
                        or split(s))
    monkeypatch.setattr(spectral, "_perron_brackets", lambda s, tol: calls.append(("rho", s))
                        or real(s, tol))
    holes = s.copy()
    holes[1, 0, 2] = 0.0  # still one component
    holes[3] = np.triu(holes[3])  # three singleton components
    _spectral_radii([holes])
    assert [(what, b.shape) for what, b in calls] == [("split", (5, 3, 3)), ("rho", (4, 3, 3))]


def test_a_stack_of_non_square_arrays_is_refused():
    for s in (np.ones((2, 3, 2)), np.ones((1, 1, 4))):
        with pytest.raises(ShapeMismatchError):
            _spectral_radii([s])


def test_stacked_sum_norms_are_the_per_array_sums():
    """The l1 and linf norms of a stack are the column and row sums of each
    array alone, padded as ``operator_norm`` pads them, from one reduction
    in either layout: a C-ordered stack, and the Fortran-ordered arrays of
    a transposed one.  There each array is summed in its own layout: at
    n >= 8 a Fortran-ordered column sum runs along contiguous memory, which
    numpy adds pairwise, and on these seeds it differs from the sum of a
    C-ordered copy."""
    rng = np.random.default_rng(1254)
    moved = 0
    for n in (*range(1, 41), 64, 100):
        s = rng.random((4, n, n)) * (rng.random((4, n, n)) < 0.7)
        s *= 2.0 ** int(rng.integers(-30, 31))
        fortran = np.ascontiguousarray(s.transpose(0, 2, 1)).transpose(0, 2, 1)
        assert all(a.flags.f_contiguous for a in fortran) and np.array_equal(fortran, s)
        for space, axis in (("l1", 0), ("linf", 1)):
            want = [float(a.sum(axis=axis).max()) for a in s]
            pad = [(v * (1 - _ROUND_GUARD), v * (1 + _ROUND_GUARD), True) for v in want]
            assert spectral._norms(s, space) == pad
            assert [operator_norm(FiniteMatrix(a), space).hi for a in s] == \
                [hi for _, hi, _ in pad]
            own = [float(a.sum(axis=axis).max()) for a in fortran]
            assert spectral._norms(fortran, space) == [
                (v * (1 - _ROUND_GUARD), v * (1 + _ROUND_GUARD), True) for v in own]
            moved += own != want
    assert moved
    with pytest.raises(DomainError, match="unknown space tag"):
        spectral._norms(s, "l3")


@pytest.mark.parametrize("estimate", [spectral_radius, lambda m, tol: operator_norm(m, "l2", tol),
                                      lambda m, tol: operator_norm(m, "l1", tol)],
                         ids=["rho", "l2", "l1"])
@pytest.mark.parametrize("tol", [-1.0, math.nan, math.inf, True, "x", None,
                                 pytest.param(10**400, id="10**400")])
def test_estimators_refuse_a_tol_that_is_not_a_finite_number_at_least_0(estimate, tol):
    """A negative or nan tol would throw every Perron-vector bracket away
    and return the squeeze's unconverged one; a tol that is no real number,
    or an int too large for a float, would raise a bare TypeError or
    OverflowError.  Each is a DomainError, on every space."""
    with pytest.raises(DomainError, match="^tol must be a finite number >= 0, got "):
        estimate(FiniteMatrix([[1.0, 2.0], [3.0, 4.0]]), tol)


def test_a_one_by_one_array_in_a_batch_is_its_entry():
    batch = [np.array([[2.5]]), np.ones((2, 2)), np.array([[0.0]]), np.full((2, 2), 2.0),
             np.array([[7.0]])]
    got = _spectral_radii(batch)
    assert [got[0], got[2], got[4]] == [(2.5, 2.5, True), (0.0, 0.0, True), (7.0, 7.0, True)]
    assert got[1][0] <= 2.0 <= got[1][1] and got[3][0] <= 4.0 <= got[3][1]


def test_a_failed_eig_on_one_block_does_not_move_its_siblings(monkeypatch):
    """When eig raises LinAlgError on a stack, each block is retried alone:
    the one that fails alone gets the squeeze, the others their own bits."""
    rng = np.random.default_rng(5)
    blocks = [rng.random((4, 4)) for _ in range(3)]
    alone = [_perron_brackets(b[None], DEFAULT_RHO_TOL)[0] for b in blocks]
    eig = np.linalg.eig
    bad = np.ldexp(blocks[1], -math.frexp(blocks[1].max())[1])

    def failing_eig(stack):
        if any(np.array_equal(m, bad) for m in stack):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eig(stack)

    monkeypatch.setattr(np.linalg, "eig", failing_eig)
    got = _perron_brackets(np.stack(blocks), DEFAULT_RHO_TOL)
    assert got[0] == alone[0] and got[2] == alone[2]
    assert got[1] == _squeeze(blocks[1], DEFAULT_RHO_TOL) != alone[1]
    assert got[::-1] == _perron_brackets(np.stack(blocks[::-1]), DEFAULT_RHO_TOL)
    assert all(encloses_perron_root(b, lo, hi) for b, (lo, hi, _) in zip(blocks, got))


@pytest.mark.parametrize("n", range(2, 9))
def test_perron_bracket_covers_the_rounding_of_ax(n):
    """Equal rows [1, d, ..., d] with d just under the unit roundoff: the
    Perron vector is the ones vector and the root is 1 + (n - 1) d, but a
    row sum can drop the d terms.  Only the gamma_{n+1} widening keeps the
    root inside at n = 3."""
    for frac in (0.9, 0.99):
        row = np.full(n, frac * 2.0 ** -53)
        row[0] = 1.0
        a = np.tile(row, (n, 1))
        b = spectral_radius(FiniteMatrix(a))
        assert b.converged and encloses_perron_root(a, b.lo, b.hi)


@pytest.mark.parametrize("a", [
    np.array([[1.0, 1.0], [5e-324, 1.0]]),        # 5e-324 / 2 does not round-trip
    np.array([[0.0, 1.0], [2.0 ** -1030, 0.0]]),  # b_10 x_0 falls below the normal range
    np.array([[1e308, 1e308], [1e-300, 0.0]]),    # the Perron vector's second entry is 0
])
def test_uncertified_blocks_go_to_the_squeeze(monkeypatch, a):
    calls = []
    squeeze = spectral._squeeze

    def counted(block, tol):
        calls.append(block.shape)
        return squeeze(block, tol)

    monkeypatch.setattr(spectral, "_squeeze", counted)
    (lo, hi, _), = _perron_brackets(a[None], DEFAULT_RHO_TOL)
    assert calls == [a.shape]
    assert encloses_perron_root(a, lo, hi)
    calls.clear()
    _perron_brackets(np.array([[2.0, 1.0], [1.0, 1.0]])[None], DEFAULT_RHO_TOL)
    assert calls == []


def test_a_block_with_an_entry_below_the_normal_range_skips_the_power_steps(monkeypatch):
    """A nonzero scaled entry b_ij <= the smallest normal float fails every
    power step's check, since a step's x is at most 1 and b_ij x_j <= b_ij:
    the block goes to the squeeze after the one check at eig's vector (one
    ``_cw_brackets`` call, where eight failed steps made nine), and keeps
    the bits it had after those steps."""
    calls = []
    cw = spectral._cw_brackets
    monkeypatch.setattr(spectral, "_cw_brackets", lambda *args: calls.append(1) or cw(*args))
    a = np.array([[0.0, 1.0], [2.0 ** -1030, 0.0]])
    (lo, hi, ok), = _perron_brackets(a[None], DEFAULT_RHO_TOL)
    assert len(calls) == 1
    assert (lo.hex(), hi.hex(), ok) == ("0x1.fffffffffed30p-516", "0x1.00000000009a1p-515", True)


_SLOW_BLOCK = np.array([  # two blocks coupled by 2^-10 and 2^-39: a slow squeeze
    [0.5118885911882057, 0.05407980327125794, 3.169733113226927e-13, 5.89688666377049e-14],
    [0.6199462567240359, 0.4050734207978558, 1.684810657597327e-13, 1.2567236550735902e-12],
    [0.0009129808054794562, 0.0008971459031747361, 0.9043507374669928, 0.08320725560747533],
    [0.00018988567173107722, 0.0008300086615326004, 0.7724312658821432, 0.050749842150798696],
])


@pytest.mark.parametrize("e", [-1000, -740, 0, 740, 1000])
def test_the_squeeze_encloses_a_slow_block_at_every_scale(e):
    """Some 40 squarings: the log scale's tracked rounding keeps the root
    inside at 2^740 (the fixed pad alone does not), and the block stops on
    the padded width it reports, so it is converged."""
    a = _SLOW_BLOCK * 2.0 ** e
    lo, hi, ok = _squeeze(a, DEFAULT_RHO_TOL)
    assert ok and encloses_perron_root(a, lo, hi)


def test_fallback_blocks_of_one_stack_each_get_their_own_squeeze(monkeypatch):
    """Three slow blocks at 2^-740, 2^0 and 2^740 fall back from one stack
    beside a block that eig certifies, and the power steps do not close
    them either; each gets the bits it gets alone, and its bracket is its
    own squeeze's intersected with the certified steps' ones."""
    blocks = [_SLOW_BLOCK * 2.0 ** -740, np.random.default_rng(5).random((4, 4)),
              _SLOW_BLOCK, _SLOW_BLOCK * 2.0 ** 740]
    calls = _count_squeezes(monkeypatch)
    got = _perron_brackets(np.stack(blocks), DEFAULT_RHO_TOL)
    slow = [0, 2, 3]
    assert [shape for shape, _ in calls] == [(4, 4)] * 3
    for j, (_, (lo, hi, ok)) in zip(slow, calls):
        assert ok and got[j][2] and lo <= got[j][0] <= got[j][1] <= hi
        assert (lo, hi, ok) == _squeeze(blocks[j], DEFAULT_RHO_TOL)
    for a, r in zip(blocks, got):
        assert r == _perron_brackets(a[None], DEFAULT_RHO_TOL)[0]
        assert encloses_perron_root(a, r[0], r[1])


def _count_squeezes(monkeypatch) -> list:
    """Patch ``spectral._squeeze`` to record (block shape, result) per call."""
    calls = []
    squeeze = spectral._squeeze

    def counted(block, tol):
        calls.append((block.shape, squeeze(block, tol)))
        return calls[-1][1]

    monkeypatch.setattr(spectral, "_squeeze", counted)
    return calls


def _blocks_that_fail_at_eigs_vector(seed: int, draws: int) -> list:
    """The irreducible n x n blocks, n = 2..8, among seeded sparse matrices
    with entries u**6 (half of them zero) and their Gram matrices, whose
    Collatz-Wielandt check at eig's vector is uncertified or wider than the
    default tol."""
    rng = np.random.default_rng(seed)
    found = []
    for _ in range(draws):
        n = int(rng.integers(2, 9))
        a = rng.random((n, n)) ** 6 * (rng.random((n, n)) < 0.5)
        for g in (a, np.ascontiguousarray(a.T @ a)):
            if len(_strong_components(g[None])[0]) > 1:
                continue
            e = math.frexp(g.max())[1]
            b = np.ldexp(g, -e)[None]
            exact = np.array([np.array_equal(np.ldexp(b[0], e), g)])
            (_, _, ok), = spectral._cw_brackets(b, spectral._perron_vectors(b), exact, [e],
                                                DEFAULT_RHO_TOL)[0]
            if not ok:
                found.append(g)
    return found


def test_power_steps_certify_blocks_that_fail_at_eigs_vector(monkeypatch):
    """Twenty blocks whose check at eig's vector fails are certified by the
    power steps, with no squeeze, alone and stacked by size, and each
    bracket encloses the exact Perron root."""
    blocks = _blocks_that_fail_at_eigs_vector(1, 120)
    assert len(blocks) == 20 and {len(a) for a in blocks} == set(range(3, 9))
    calls = _count_squeezes(monkeypatch)
    alone = [_perron_brackets(a[None], DEFAULT_RHO_TOL)[0] for a in blocks]
    for a, (lo, hi, ok) in zip(blocks, alone):
        assert ok and hi - lo <= DEFAULT_RHO_TOL * hi
        assert encloses_perron_root(a, lo, hi)
    for n in {len(a) for a in blocks}:
        pick = [j for j, a in enumerate(blocks) if len(a) == n]
        got = _perron_brackets(np.stack([blocks[j] for j in pick]), DEFAULT_RHO_TOL)
        assert got == [alone[j] for j in pick]
    assert calls == []


def test_a_zero_tol_bracket_lies_inside_the_default_one():
    """Each block keeps the intersection of its certified brackets, so at
    tol = 0, where no bracket converges and the squeeze runs its 64
    squarings, the result is no looser than the one at eig's vector."""
    m = FiniteMatrix(np.random.default_rng(1).random((3, 3)))
    tight, loose = spectral_radius(m, tol=0), spectral_radius(m)
    assert loose.converged and not tight.converged
    assert loose.lo <= tight.lo <= tight.hi <= loose.hi
    assert encloses_perron_root(m.a, tight.lo, tight.hi)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_the_squeeze_encloses_the_exact_root(data):
    a = _oracle_matrix(data.draw, data.draw(st.integers(2, 8)))
    if len(_component_lists(a[None])[0]) == 1:
        lo, hi, _ = _squeeze(np.ascontiguousarray(a), DEFAULT_RHO_TOL)
        assert encloses_perron_root(a, lo, hi)


def test_an_infinite_ratio_is_refined_by_a_power_step(monkeypatch):
    """A poor positive x with an entry near the bottom of the normal range
    passes the product check but overflows its ratio y_i / x_i; the block
    then takes a power step, to the ones vector, instead of reporting an
    infinite upper end, and needs no squeeze."""
    a = np.full((9, 9), 1.98)
    x = np.ones(9)
    x[8] = 1.02 * sys.float_info.min
    monkeypatch.setattr(spectral, "_perron_vectors", lambda b: x[None])
    calls = _count_squeezes(monkeypatch)
    (lo, hi, ok), = _perron_brackets(a[None], DEFAULT_RHO_TOL)
    assert ok and Fraction(lo) <= 9 * Fraction(1.98) <= Fraction(hi)
    assert calls == []


def _oracle_matrix(draw, n):
    """An n x n nonnegative matrix, n <= 8, at a scale from 2^-1000 to
    2^1000: dense, half-sparse, two epsilon-coupled blocks (reducible when
    one coupling is zero), or a permuted weighted cycle or block cycle,
    where several eigenvalues share the maximal modulus."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["dense", "half-sparse", "coupled", "cycle"]))
    a = rng.random((n, n))
    if kind == "half-sparse":
        a *= rng.random((n, n)) < 0.5
    elif kind == "coupled" and n >= 2:
        cut = int(rng.integers(1, n))
        down, up = (2.0 ** -draw(st.integers(0, 1000)) for _ in range(2))
        a[cut:, :cut] *= down if draw(st.booleans()) else 0.0
        a[:cut, cut:] *= up
    elif kind == "cycle":
        period = int(rng.integers(2, n + 1)) if n >= 2 else 1
        phase = rng.permutation(np.arange(n) % period)
        a = (a + 0.1) * (phase[None, :] == (phase[:, None] + 1) % period)
    return a * 2.0 ** draw(st.integers(-1000, 1000))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_spectral_radius_encloses_the_exact_root(data):
    a = _oracle_matrix(data.draw, data.draw(st.integers(1, 8)))
    b = spectral_radius(FiniteMatrix(a))
    assert encloses_perron_root(a, b.lo, b.hi)
    assert b.converged


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_l2_operator_norm_encloses_the_exact_norm(data):
    """lo^2 <= rho(A*A) <= hi^2 on the exact Gram matrix."""
    rows = data.draw(st.integers(1, 8))
    a = _oracle_matrix(data.draw, rows)[:, :data.draw(st.integers(1, rows))]
    b = operator_norm(FiniteMatrix(a))
    assert encloses_perron_root(exact_gram(a), Fraction(b.lo) ** 2, Fraction(b.hi) ** 2)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_norm_set_bracket_encloses_the_exact_sup_of_the_norms(data):
    """No element's exact l2 norm exceeds hi, and some element's reaches lo."""
    n = data.draw(st.integers(1, 8))
    mats = [_oracle_matrix(data.draw, n) for _ in range(data.draw(st.integers(1, 3)))]
    b = norm_set_bracket(OperatorSet([FiniteMatrix(a) for a in mats]))
    lo2, hi2 = Fraction(b.lo) ** 2, Fraction(b.hi) ** 2
    grams = [exact_gram(a) for a in mats]
    assert all(encloses_perron_root(g, 0, hi2) for g in grams)
    assert any(encloses_perron_root(g, lo2, hi2) for g in grams)


@settings(max_examples=100, deadline=None)
@given(st.data(), st.sampled_from(["l1", "linf"]))
def test_sum_norms_enclose_the_exact_column_or_row_sum(data, space):
    """The l1 norm is the largest column sum and the linf norm the largest
    row sum, summed here in exact rationals; n <= 64 at 2^-1074..2^1000."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    rows, cols = data.draw(st.integers(1, 64)), data.draw(st.integers(1, 64))
    a = rng.random((rows, cols))
    if data.draw(st.booleans()):
        a *= rng.random((rows, cols)) < 0.3
    a *= 2.0 ** data.draw(st.integers(-1074, 1000))
    exact = [[Fraction(x) for x in row] for row in a.tolist()]
    lines = exact if space == "linf" else zip(*exact)
    top = max(sum(line) for line in lines)
    b = operator_norm(FiniteMatrix(a), space)
    assert Fraction(b.lo) <= top <= Fraction(b.hi)


def test_spectral_radius_encloses_roots_near_the_top_of_the_float_range():
    # Perron root 1e308 + ~1e-300: the first row-sum upper end overflows,
    # and the second row underflows, so the lower end comes from a_00
    a = np.array([[1e308, 1e308], [1e-300, 0.0]])
    b = spectral_radius(FiniteMatrix(a))
    assert b.lo <= 1e308 < b.hi
    assert b.converged and encloses_perron_root(a, b.lo, b.hi)


def test_spectral_radius_beyond_the_float_range_is_a_domain_error():
    with pytest.raises(DomainError, match="spectral radius exceeds the float range"):
        spectral_radius(FiniteMatrix([[1e308, 1e308], [1e308, 1e308]]))


def test_a_radius_or_norm_beyond_the_float_range_has_an_infinite_upper_end():
    """``_spectral_radii`` and ``_radii_norms`` raise for no array: a radius
    or an l2 norm beyond the float range comes back with hi = +inf, not
    converged, the mark that ``spectral_radius`` and ``operator_norm``
    refuse, and the finite arrays of its batch keep the bits they get
    alone.  Beyond the range here: positive blocks (the Perron path falls
    back to the squeeze), a reducible array with one large block (the
    component split), a radius of exactly the largest float (its padded
    upper end is not a float) and a norm that the Gram scaling takes past
    the range."""
    rng = np.random.default_rng(1264)
    top = 1.5 * 2.0 ** 1022
    half = 2.0 ** 1023
    block = np.array([[half, half, 1.0], [half, half, 0.0], [0.0, 0.0, 2.0]])
    beyond = [np.full((3, 3), top), block, np.full((2, 2), sys.float_info.max / 2),
              np.full((2, 2), 2.0 ** 1023)]
    finite = [rng.random((n, n)) * (rng.random((n, n)) < 0.7) for n in (1, 2, 3, 3, 4)]
    batch = [beyond[0], finite[0], beyond[1], finite[1], finite[2], beyond[2], finite[3],
             beyond[3], finite[4]]
    stack = np.array([beyond[0], finite[2] + 0.1, finite[3] + 0.1])  # one positive stack
    norms = [finite[1], np.full((2, 2), 1.7e308), finite[4]]  # norm 3.4e308
    got_radii, got_norms = _radii_norms(batch, norms)
    out = {0, 2, 5, 7}  # the batch's arrays beyond the range
    for got, arrays, marked in ((_spectral_radii(batch), batch, out),
                                (_spectral_radii([stack]), stack, {0}), (got_radii, batch, out)):
        for j, (a, r) in enumerate(zip(arrays, got)):
            if j in marked:
                assert r[1] == math.inf and r[2] is False
            else:
                assert _bits(r) == _bits(_spectral_radii([a])[0])
    assert got_norms[1][1] == math.inf and got_norms[1][2] is False
    for j in (0, 2):
        assert _bits(got_norms[j]) == _bits(_norms(norms[j][None])[0])
    for a in beyond:
        with pytest.raises(DomainError, match="^spectral radius exceeds the float range$"):
            spectral_radius(FiniteMatrix(a))
    with pytest.raises(DomainError, match="^operator norm exceeds the float range$"):
        operator_norm(FiniteMatrix(norms[1]))


def test_import_and_registry_load_no_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(spectral_radius.__code__.co_filename)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys, specrad; specrad.registry(); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_operator_norms():
    assert operator_norm(FiniteMatrix([[1, 0], [0, 2]]), "l2").contains(2.0)
    ones = operator_norm(FiniteMatrix([[1, 1], [1, 1]]), "l2")
    assert ones.contains(2.0) and ones.width <= 1e-9
    assert operator_norm(FiniteMatrix([[1, 2], [3, 4]]), "l1").contains(6.0)
    assert operator_norm(FiniteMatrix([[1, 2], [3, 4]]), "linf").contains(7.0)
    with pytest.raises(DomainError):
        operator_norm(FiniteMatrix([[1]]), "l3")


def _reference_operator_norm_l2(m, tol=DEFAULT_RHO_TOL):
    """The l2 operator_norm without power-of-two scaling: the square root
    of rho(A*A) widened by gamma_m, each rounded step one ulp outward."""
    gram = FiniteMatrix(m.a.T @ m.a)
    b = spectral_radius(gram, tol)
    g = _gamma(m.a.shape[0])

    def down(x):
        return math.nextafter(x, 0.0)

    def up(x):
        return math.nextafter(x, math.inf) if x else x

    lo = down(math.sqrt(down(b.lo / up(1.0 + g))))
    hi = up(math.sqrt(up(b.hi / down(1.0 - g))))
    return Bracket(lo, hi, "sqrt-gram", b.converged)


def _norm_matrices(count, seed):
    """Rectangular nonnegative matrices whose largest entry is inside the
    unscaled range, and matrices whose largest entry is at either end of it."""
    for top in (_GRAM_MIN, _GRAM_MAX):
        yield np.full((2, 3), top)
        yield np.diag([top, 0.5 * top, 1e-30 * top])
    rng = np.random.default_rng(seed)
    for _ in range(count):
        rows, cols = (int(x) for x in rng.integers(1, 11, 2))
        a = rng.random((rows, cols)) * (rng.random((rows, cols)) < rng.uniform(0.05, 1.0))
        yield a * 10.0 ** rng.uniform(-115.0, 115.0)


def test_operator_norm_unscaled_range_is_bit_identical():
    """Inside [_GRAM_MIN, _GRAM_MAX] the bracket is the sqrt of rho(A*A), bit for bit."""
    count = 0
    for a in _norm_matrices(2400, seed=91):
        m = FiniteMatrix(a)
        got = operator_norm(m)
        want = _reference_operator_norm_l2(m)
        assert (got.lo.hex(), got.hi.hex(), got.converged, got.method) == \
            (want.lo.hex(), want.hi.hex(), want.converged, want.method)
        count += 1
    assert count >= 2000


def _encloses(b, norm_sq):
    """lo <= norm <= hi, checked exactly on squares: norm_sq is a Fraction."""
    return 0.0 <= b.lo and Fraction(b.lo) ** 2 <= norm_sq <= Fraction(b.hi) ** 2


def _known_norms(c):
    """(matrix, exact squared l2 norm) pairs whose entries are multiples of c."""
    x, y = 3.0 * c, 4.0 * c
    return [
        (np.diag([c, 0.25 * c]), Fraction(c) ** 2),                       # diagonal
        (np.full((3, 3), c), (3 * Fraction(c)) ** 2),                     # rank one, c * 1 1^T
        (np.array([[x, y], [0.0, 0.0]]), Fraction(x) ** 2 + Fraction(y) ** 2),  # rank one, a row
    ]


@pytest.mark.parametrize("exp10", range(-300, 301, 10))
def test_operator_norm_encloses_known_norms_at_every_scale(exp10):
    """Certified from 1e-300 to 1e300; the Gram matrix alone underflows
    below about 1e-154 and overflows above about 1e154."""
    for a, norm_sq in _known_norms(10.0 ** exp10):
        b = operator_norm(FiniteMatrix(a))
        assert 0.0 < b.lo and _encloses(b, norm_sq)


@pytest.mark.parametrize("c", [1e-28, 1e240])
def test_operator_norm_encloses_rank_one_column(c):
    """A diagonal Gram matrix splits into singleton components, rounded
    entries x*x + y*y, which the gamma_m widening covers."""
    x, y = 3.0 * c, 4.0 * c
    b = operator_norm(FiniteMatrix(np.array([[x, 0.0], [y, 0.0]])))
    assert _encloses(b, Fraction(x) ** 2 + Fraction(y) ** 2)


@pytest.mark.parametrize("c", [1e-120, 1e-300, 1.0, 1e120])
def test_small_brackets_meet_a_relative_tolerance(c):
    """Width within tol * hi at every scale, on both paths: a small matrix
    is no longer called converged with an absolute width of tol."""
    b = operator_norm(FiniteMatrix(np.array([[3.0 * c, 4.0 * c], [0.0, 0.0]])))
    assert b.converged and b.hi - b.lo <= DEFAULT_RHO_TOL * b.hi
    a = np.array([[2.0 * c, c], [c, c]])
    for lo, hi, ok in (_perron_brackets(a[None], DEFAULT_RHO_TOL)[0],
                       _squeeze(a, DEFAULT_RHO_TOL)):
        assert ok and hi - lo <= DEFAULT_RHO_TOL * hi
        assert encloses_perron_root(a, lo, hi)


def test_operator_norm_beyond_the_float_range_is_a_domain_error():
    with pytest.raises(DomainError, match="operator norm exceeds the float range"):
        operator_norm(FiniteMatrix(np.full((2, 2), 1.7e308)))


@pytest.mark.parametrize("space", ["l1", "linf"])
def test_row_and_column_sum_norms_beyond_the_float_range_are_domain_errors(space):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="operator norm exceeds the float range"):
            operator_norm(FiniteMatrix(np.full((2, 2), 1e308)), space)


@pytest.mark.parametrize("c", [1e-310, 5e-324])
def test_operator_norm_encloses_subnormal_norms(c):
    b = operator_norm(FiniteMatrix(np.diag([c, c])))
    assert b.lo <= c <= b.hi
    b = operator_norm(FiniteMatrix(np.array([[c, c], [0.0, 0.0]])))
    assert _encloses(b, 2 * Fraction(c) ** 2)


def test_entry_sup():
    assert FiniteMatrix([[1, 2], [3, 4]]).entry_sup() == 4.0
    assert shift_family(Constant(0.7)).entry_sup() == pytest.approx(0.7)
    d = diagonal_family(RationalFormula([1.0, 1.0], [0.0, 1.0]))
    assert d.entry_sup() == pytest.approx(2.0)


def test_hausdorff_examples():
    compact = hausdorff_mnc(finite_rank_family([[1, 2], [3, 4]]))
    assert compact.hi == 0.0
    assert type(compact.lo) is float and type(compact.hi) is float
    ident = hausdorff_mnc(identity_family())
    assert ident.lo == ident.hi == 1.0
    inv = hausdorff_mnc(diagonal_family(RationalFormula([1.0], [0.0, 1.0])))
    assert inv.hi == 0.0


_ROUNDED_LIMIT = pytest.mark.xfail(
    strict=True, reason="band limits are rounded to nearest, not enclosed")


@pytest.mark.parametrize("estimator,q", [
    pytest.param(hausdorff_mnc, 3, marks=_ROUNDED_LIMIT),  # [fl(1/3), fl(1/3)] < 1/3
    pytest.param(hausdorff_mnc, 10, marks=_ROUNDED_LIMIT),  # fl(0.1) > 1/10
    (essential_spectral_radius, 10),  # the lower end's pad covers fl(0.1) > 1/10
    (essential_spectral_radius, 3),  # the upper end's pad covers fl(1/3) < 1/3
])
def test_band_limit_brackets_enclose_the_exact_limit(estimator, q):
    """w(i) = i / (q i) = 1/q on one band: gamma and the essential radius are 1/q."""
    b = estimator(shift_family(RationalFormula([0, 1], [0, q])))
    assert Fraction(b.lo) <= Fraction(1, q) <= Fraction(b.hi)


def test_essential_examples():
    assert essential_spectral_radius(finite_rank_family([[2.0]])).hi == 0.0
    d = essential_spectral_radius(diagonal_family(RationalFormula([1.0, 1.0], [0.0, 1.0])))
    assert d.contains(1.0) and d.width <= 1e-6
    s = essential_spectral_radius(shift_family(Constant(0.7)))
    assert s.contains(0.7) and s.width <= 1e-6


def _power_loop_hi(f, j_max=6):
    """Upper end of the power-loop estimator: min over j <= j_max of gamma(f^j)^(1/j)."""
    hi = math.inf
    power = f
    for j in range(1, j_max + 1):
        g = hausdorff_mnc(power).hi
        hi = min(hi, (math.pow(g, 1.0 / j) if g > 0 else 0.0) * (1.0 + _ROUND_GUARD))
        if g == 0.0:
            break
        power = power @ f
    return hi


def test_essential_upper_end_matches_power_loop():
    # gamma(A^j) = gamma(A)^j on banded families, so no power tightens gamma(A)
    rng = np.random.default_rng(15)
    for _ in range(40):
        f = random_family(rng, multiband=True)
        hi = essential_spectral_radius(f).hi
        ref = _power_loop_hi(f)
        assert ref <= hi <= ref * (1.0 + 4 * 2.0 ** -52)


def test_essential_lower_end_examples():
    """The lower end is gamma too, padded down, on every band structure."""
    tail = essential_spectral_radius(diagonal_family(EventuallyConstant([1, 9], 3.0)))
    assert tail.contains(3.0)
    withrank = shift_family(Constant(0.7), finite_rank=[[1, 1], [1, 1]])
    assert essential_spectral_radius(withrank).lo == pytest.approx(0.7)
    zero = essential_spectral_radius(diagonal_family(RationalFormula([1.0], [0.0, 1.0])))
    assert (zero.lo, zero.hi) == (0.0, 0.0)
    b = essential_spectral_radius(identity_family() + shift_family(Constant(1.0)))
    assert b.lo < 2.0 < b.hi and b.width <= 1e-12  # I + S: r_ess = 1 + 1


@pytest.mark.parametrize("bands", [2, 3])
def test_multiband_essential_lower_end_encloses_the_exact_sum(bands):
    """w(i) = i / (10 i) = 1/10 on each band: r_ess is exactly bands/10."""
    w = RationalFormula([0, 1], [0, 10])
    f = diagonal_family(w)
    for d in range(1, bands):
        f = f + shift_family(w, offset=d)
    assert len(f.bands) == bands
    exact = bands * Fraction(w.p[-1]) / Fraction(w.q[-1])
    b = essential_spectral_radius(f)
    assert Fraction(b.lo) <= exact <= Fraction(b.hi)
    assert abs(Fraction(b.lo) - exact) <= Fraction(1e-12) * exact


def test_gamma_via_star_examples():
    assert gamma_via_star(finite_rank_family([[1.0]])).hi == 0.0
    ident = gamma_via_star(identity_family())
    assert ident.contains(1.0, slack=1e-9)
    s = gamma_via_star(shift_family(Constant(0.7)))
    assert s.contains(0.7, slack=1e-9) and s.hi <= 0.7 + 1e-6


def test_gamma_star_cross_check_on_random_families():
    rng = np.random.default_rng(12)
    for _ in range(30):
        f = random_family(rng, multiband=True)
        a = hausdorff_mnc(f)
        b = gamma_via_star(f)
        assert a.overlaps(b, slack=1e-9)


def test_gamma_algebra_consistency():
    rng = np.random.default_rng(13)
    tol = 1e-9
    for _ in range(20):
        f = random_family(rng, multiband=True)
        g = random_family(rng, multiband=True)
        gf, gg = hausdorff_mnc(f), hausdorff_mnc(g)
        assert hausdorff_mnc(f @ g).lo <= gf.hi * gg.hi + tol
        assert hausdorff_mnc(f + g).lo <= gf.hi + gg.hi + tol


def test_gamma_monotone_under_entrywise_domination():
    rng = np.random.default_rng(14)
    for _ in range(10):
        f = random_family(rng, multiband=True)
        g = f + random_family(rng, multiband=True)  # g >= f entrywise
        assert hausdorff_mnc(f).lo <= hausdorff_mnc(g).hi + 1e-9


def test_scale_homogeneity():
    rng = np.random.default_rng(15)
    for _ in range(10):
        f = random_family(rng, multiband=True)
        c = 0.3 + 2.0 * rng.random()
        a, b = hausdorff_mnc(f), hausdorff_mnc(f.scale(c))
        assert b.lo == pytest.approx(c * a.lo, rel=1e-12)
        e1, e2 = essential_spectral_radius(f), essential_spectral_radius(f.scale(c))
        assert e2.hi == pytest.approx(c * e1.hi, rel=1e-9)
    m = FiniteMatrix(np.random.default_rng(16).random((4, 4)))
    c = 1.7
    r1, r2 = spectral_radius(m), spectral_radius(m.scale(c))
    assert r2.mid == pytest.approx(c * r1.mid, rel=1e-9)


def test_adjoint_gamma_symmetry():
    rng = np.random.default_rng(17)
    for _ in range(10):
        f = random_family(rng, multiband=True)
        a, b = hausdorff_mnc(f), hausdorff_mnc(f.adjoint())
        assert abs(a.mid - b.mid) <= a.width + b.width + 1e-12


def test_compact_perturbation_invariance():
    rng = np.random.default_rng(18)
    for _ in range(10):
        f = random_family(rng)
        g = f + finite_rank_family(rng.random((3, 3)))
        assert essential_spectral_radius(f).overlaps(
            essential_spectral_radius(g), slack=1e-9)


def test_diagonal_families_are_normal():
    rng = np.random.default_rng(19)
    for _ in range(10):
        w = RationalFormula([rng.random(), 0.5 + rng.random()], [0.0, 1.0])
        d = diagonal_family(w)
        assert essential_spectral_radius(d).overlaps(hausdorff_mnc(d), slack=1e-9)
