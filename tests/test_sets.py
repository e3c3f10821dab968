import math
from itertools import product

import numpy as np
import pytest

from helpers import random_family
from specrad import (
    Constant,
    EventuallyConstant,
    FiniteMatrix,
    OperatorFamily,
    OperatorSet,
    PrefixWithLimit,
    WeightVector,
    diagonal_family,
    set_adjoint,
    set_hadamard_mean,
    set_hadamard_power,
    set_power,
    set_product,
    set_sum,
    shift_family,
    symmetrization,
    weighted_geometric_mean,
)
from specrad.errors import BudgetExceededError, DomainError, ShapeMismatchError
from specrad.sets import set_product_many, set_sum_many
from specrad.spectral import operator_norm


A = FiniteMatrix([[1, 1], [0, 1]])
B = FiniteMatrix([[1, 0], [1, 1]])
C = FiniteMatrix([[2, 0], [0, 2]])


def test_homogeneity_enforced():
    with pytest.raises(DomainError):
        OperatorSet([])
    with pytest.raises(ShapeMismatchError):
        OperatorSet([A, FiniteMatrix([[1, 2, 3]])])
    with pytest.raises(ShapeMismatchError):
        OperatorSet([A, shift_family(Constant(1.0))])


def test_a_matrix_set_operation_refuses_a_family_set():
    """A family set as the second operand of a matrix-set operation is a
    ShapeMismatchError, not a bare AttributeError."""
    s, f = OperatorSet([A]), OperatorSet([shift_family(Constant(1.0))])
    for op in (lambda: set_product(s, f), lambda: set_sum(s, f),
               lambda: set_hadamard_mean([s, f], WeightVector.uniform(2)),
               lambda: symmetrization(s, 0.5, 0.5, f)):
        with pytest.raises(ShapeMismatchError, match="needs two sets of matrices$"):
            op()


def test_set_power_cardinality_and_order():
    s = OperatorSet([A, B])
    sq = set_power(s, 2)
    assert len(sq) == 4
    assert [m.a.tolist() for m in sq] == [
        (A @ A).a.tolist(), (A @ B).a.tolist(),
        (B @ A).a.tolist(), (B @ B).a.tolist()]
    assert len(set_power(s, 3)) == 8
    single = set_power(OperatorSet([A]), 3)
    assert len(single) == 1 and single[0] == A @ A @ A
    with pytest.raises(DomainError):
        set_power(s, 0)


@pytest.mark.parametrize("m", [2.0, 2.5, True, "2"])
def test_set_power_refuses_a_count_that_is_not_an_integer(m):
    with pytest.raises(DomainError, match="set power exponent must be an integer >= 1"):
        set_power(OperatorSet([A, B]), m)


def test_set_power_takes_a_numpy_integer():
    s = OperatorSet([A, B])
    assert list(set_power(s, np.int64(2))) == list(set_power(s, 2))


def test_set_product_enumeration():
    got = set_product(OperatorSet([A]), OperatorSet([B, C]))
    assert len(got) == 2
    assert got[0] == A @ B and got[1] == A @ C


def test_duplicates_retained():
    s = OperatorSet([A, A])
    assert len(set_power(s, 2)) == 4


def test_set_sum_and_mean_singletons():
    assert set_sum(OperatorSet([A]), OperatorSet([B]))[0] == A + B
    got = set_hadamard_mean([OperatorSet([A]), OperatorSet([B])], WeightVector.uniform(2))
    assert len(got) == 1
    assert got[0] == A.hpow(0.5).hadamard(B.hpow(0.5))
    got = set_hadamard_mean([OperatorSet([A, B]), OperatorSet([C])], WeightVector.uniform(2))
    assert len(got) == 2


def test_set_sum_many_of_no_sets_is_refused_as_a_product_of_none_is():
    with pytest.raises(DomainError, match="^need at least one set to add$"):
        set_sum_many([])
    with pytest.raises(DomainError, match="^need at least one set to multiply$"):
        set_product_many([])
    assert set_sum_many([OperatorSet([A]), OperatorSet([B])])[0] == A + B


def test_set_hadamard_power_elementwise():
    s = OperatorSet([A, B])
    got = set_hadamard_power(s, 2.0)
    assert len(got) == 2 and got[0] == A.hpow(2.0)


def test_set_adjoint():
    s = OperatorSet([A, B])
    assert set_adjoint(s)[0] == A.adjoint()


def test_symmetrization_matrix_cases():
    sym = FiniteMatrix([[1, 2], [2, 1]])
    out = symmetrization(OperatorSet([sym]), 0.5, 0.5)
    assert len(out) == 1
    assert np.allclose(out[0].a, sym.a, rtol=1e-15)
    out = symmetrization(OperatorSet([A]), 1.0, 0.0)
    assert len(out) == 1 and out[0] == A
    out = symmetrization(OperatorSet([A, B]), 0.5, 0.5)
    assert len(out) == 4
    with pytest.raises(DomainError):
        symmetrization(OperatorSet([A]), 0.25, 0.25)
    with pytest.raises(DomainError):
        symmetrization(OperatorSet([A]), -0.5, 2.0)


def test_symmetrization_two_sets():
    """A second set Q pairs every A in S with every B* from Q; Q defaults to S."""
    out = symmetrization(OperatorSet([A, B]), 0.5, 0.5, OperatorSet([C]))
    cstar = C.adjoint().hpow(0.5)
    assert list(out) == [A.hpow(0.5).hadamard(cstar), B.hpow(0.5).hadamard(cstar)]
    s = OperatorSet([A, B])
    assert list(symmetrization(s, 0.5, 0.5, s)) == list(symmetrization(s, 0.5, 0.5))
    assert list(symmetrization(s, 0.0, 1.0, OperatorSet([C]))) == [C.adjoint()] * 2


def test_symmetrization_families():
    f = diagonal_family(Constant(2.0))
    out = symmetrization(OperatorSet([f]), 0.5, 0.5)
    assert np.allclose(out[0].truncate(4).a, f.truncate(4).a)


def test_size_guard():
    s = OperatorSet([A, B])
    with pytest.raises(BudgetExceededError):
        set_power(s, 30)


# -- one power and one adjoint per operand ---------------------------------


def _family_sets():
    """Three family sets with corners, sharing offsets so entrywise products keep bands."""
    p = OperatorSet([
        shift_family(EventuallyConstant([0.3, 0.7, 0.2], 0.5),
                     finite_rank=[[0.2, 0.1], [0.0, 0.4]]),
        diagonal_family(Constant(0.1), finite_rank=[[0.2]]),
    ])
    q = OperatorSet([
        OperatorFamily({1: PrefixWithLimit([0.9, 0.4], 0.6), 0: Constant(0.3)}),
        shift_family(Constant(0.8), offset=-1, finite_rank=[[0.0, 0.5], [0.3, 0.0]]),
        diagonal_family(EventuallyConstant([1.5], 0.7), finite_rank=[[0.1, 0.2, 0.3]]),
    ])
    r = OperatorSet([
        diagonal_family(Constant(0.6), finite_rank=[[0.7, 0.0], [0.0, 0.25]]),
        OperatorFamily({-1: Constant(0.2), 1: Constant(0.4)}),
    ])
    return [p, q, r]


def _matrix_sets():
    d = FiniteMatrix([[0.0, 3.0], [0.5, 0.1]])
    return [OperatorSet([A, B]), OperatorSet([C, d, B]), OperatorSet([d, A])]


def _reference_mean(sets, w):
    """The per-tuple construction: every power recomputed for every cross tuple."""
    out = []
    for combo in product(*sets):
        acc = None
        for x, a in zip(combo, w.weights):
            y = x if a == 1.0 else x.hpow(a)
            acc = y if acc is None else acc.hadamard(y)
        out.append(acc)
    return out


def _reference_symmetrization(s, alpha, beta, q):
    out = []
    for a in s:
        for b in q:
            bstar = b.adjoint()
            if beta == 0.0:
                out.append(a.hpow(alpha) if alpha != 1.0 else a)
            elif alpha == 0.0:
                out.append(bstar.hpow(beta) if beta != 1.0 else bstar)
            else:
                out.append(a.hpow(alpha).hadamard(bstar.hpow(beta)))
    return out


def _assert_bitwise_equal(got, want):
    """Equal bits and, for matrices, equal layouts: ``tobytes`` reads C order
    whatever the layout, and a Fortran-ordered operand rounds differently in
    a later product."""
    assert len(got) == len(want)
    for x, y in zip(got, want):
        if isinstance(y, FiniteMatrix):
            assert x.a.tobytes() == y.a.tobytes()
            assert (x.a.flags.c_contiguous, x.a.flags.f_contiguous) == \
                (y.a.flags.c_contiguous, y.a.flags.f_contiguous)
            continue
        assert tuple(x.bands) == tuple(y.bands)
        assert (x.corner is None) == (y.corner is None)
        if y.corner is not None:
            assert np.array_equal(x.corner, y.corner)
            assert x.corner.tobytes() == y.corner.tobytes()
        assert x.truncate(12).a.tobytes() == y.truncate(12).a.tobytes()


MEAN_WEIGHTS = [
    WeightVector.of(0.5, 0.5),
    WeightVector.of(1.0, 0.5),
    WeightVector.of(0.3, 1.0),
    WeightVector.of(0.5, 0.25, 0.25),
    WeightVector.of(1.0, 0.4, 1.0),
]


@pytest.mark.parametrize("make_sets", [_family_sets, _matrix_sets], ids=["family", "matrix"])
@pytest.mark.parametrize("w", MEAN_WEIGHTS, ids=lambda w: ",".join(map(str, w.weights)))
def test_set_hadamard_mean_matches_per_tuple_reference(make_sets, w):
    sets = make_sets()[:len(w)]
    _assert_bitwise_equal(list(set_hadamard_mean(sets, w)), _reference_mean(sets, w))


SYM_WEIGHTS = [(0.5, 0.5), (1.0, 0.0), (0.0, 1.0), (1.0, 0.5), (0.7, 1.0)]


@pytest.mark.parametrize("make_sets", [_family_sets, _matrix_sets], ids=["family", "matrix"])
@pytest.mark.parametrize("alpha,beta", SYM_WEIGHTS)
def test_symmetrization_matches_per_pair_reference(make_sets, alpha, beta):
    p, q, _ = make_sets()
    for s, other in ((p, q), (q, None)):
        want = _reference_symmetrization(s, alpha, beta, s if other is None else other)
        _assert_bitwise_equal(list(symmetrization(s, alpha, beta, other)), want)


@pytest.mark.parametrize("n", [*range(17, 21), *range(25, 29), *range(33, 37)])
def test_adjoint_sets_keep_each_elements_layout(n):
    """A matrix set's adjoints are the transposed view of a fresh C-ordered
    stack, so each element is Fortran-ordered as ``FiniteMatrix.adjoint``
    makes it, and every set operation gives each element the bits and the
    layout of its own operation.  At these n OpenBLAS rounds a product with
    a Fortran-ordered operand differently from one with its C-ordered copy,
    and a product of an array with a view of its own transpose (P* P)
    differently from one with a copy.  A set built from Fortran-ordered
    matrices keeps their layout too.  The l1 and linf norms of the adjoints,
    column and row sums in their own layout, keep their bits."""
    rng = np.random.default_rng([1294, n])
    p = OperatorSet([FiniteMatrix(a) for a in rng.random((3, n, n))])
    q = OperatorSet([FiniteMatrix(a) for a in rng.random((2, n, n))])
    stars = [a.adjoint() for a in p]  # each a fresh Fortran-ordered copy
    w = WeightVector.of(0.5, 0.75)
    for pstar in (set_adjoint(p), OperatorSet(stars)):
        _assert_bitwise_equal(list(pstar), stars)
        own = {id(pstar): stars, id(p): list(p), id(q): list(q)}
        for x, y in ((pstar, q), (q, pstar), (pstar, pstar), (pstar, p), (p, pstar)):
            xs, ys = own[id(x)], own[id(y)]
            _assert_bitwise_equal(list(set_product(x, y)), [a @ b for a in xs for b in ys])
            _assert_bitwise_equal(list(set_sum(x, y)), [a + b for a in xs for b in ys])
            _assert_bitwise_equal(list(set_hadamard_mean([x, y], w)), _reference_mean([xs, ys], w))
        _assert_bitwise_equal(list(set_power(pstar, 2)), [a @ b for a in stars for b in stars])
        _assert_bitwise_equal(list(set_hadamard_power(pstar, 1.5)), [a.hpow(1.5) for a in stars])
        _assert_bitwise_equal(list(set_adjoint(pstar)), [a.adjoint() for a in stars])
        for space in ("l1", "linf"):
            assert [operator_norm(x, space) for x in pstar] == \
                [operator_norm(a, space) for a in stars]


def test_hpow_one_rerounds_a_corner():
    """Why symmetrization keeps hpow(1.0) when both weights are nonzero."""
    f = diagonal_family(Constant(0.1), finite_rank=[[0.2]])
    assert f.hpow(1.0).corner[0, 0] != f.corner[0, 0]


def _count_calls(monkeypatch, *names):
    counts = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(OperatorFamily, name)

        def counted(self, *args, _name=name, _original=original):
            counts[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(OperatorFamily, name, counted)
    return counts


@pytest.mark.parametrize("w", MEAN_WEIGHTS, ids=lambda w: ",".join(map(str, w.weights)))
def test_set_hadamard_mean_powers_each_operand_once(monkeypatch, w):
    sets = _family_sets()[:len(w)]
    counts = _count_calls(monkeypatch, "hpow", "hadamard")
    out = set_hadamard_mean(sets, w)
    assert counts["hpow"] == sum(len(s) for s, a in zip(sets, w.weights) if a != 1.0)
    sizes = [len(s) for s in sets]
    assert counts["hadamard"] == sum(math.prod(sizes[:k + 1]) for k in range(1, len(sets)))
    assert len(out) == math.prod(sizes)


@pytest.mark.parametrize("alpha,beta,powers,adjoints", [
    (0.5, 0.5, 5, 3), (1.0, 0.5, 5, 3), (0.7, 1.0, 5, 3),
    (1.0, 0.0, 0, 0), (1.5, 0.0, 2, 0), (0.0, 1.0, 0, 3), (0.0, 1.5, 3, 3),
])
def test_symmetrization_work_counts(monkeypatch, alpha, beta, powers, adjoints):
    p, q, _ = _family_sets()
    counts = _count_calls(monkeypatch, "hpow", "adjoint", "hadamard")
    out = symmetrization(p, alpha, beta, q)
    assert len(out) == len(p) * len(q)
    assert counts["hpow"] == powers <= len(p) + len(q)
    assert counts["adjoint"] == adjoints <= len(q)
    assert counts["hadamard"] == (len(p) * len(q) if alpha and beta else 0)


def _fold_mean(items, weights):
    """The hpow/hadamard fold that weighted_geometric_mean ran before it became
    the singleton case of set_hadamard_mean."""
    w = weights.weights
    acc = items[0] if w[0] == 1.0 else items[0].hpow(w[0])
    for x, a in zip(items[1:], w[1:]):
        acc = acc.hadamard(x if a == 1.0 else x.hpow(a))
    return acc


def _random_weights(rng, m):
    w = rng.dirichlet(np.ones(m)) * (1.0 + rng.random())
    return WeightVector(tuple(1.0 if rng.random() < 0.25 else float(x) for x in w))


def _family_bits(f):
    """Every bit of a family that a report can read: band values at i = 1..29,
    band limits and the corner."""
    corner = f.corner
    return ([(d, [float(w.value(i)).hex() for i in range(1, 30)], float(w.limit).hex())
             for d, w in f.bands.items()],
            None if corner is None else (corner.shape, corner.tobytes()))


def test_weighted_geometric_mean_matches_the_fold_bit_for_bit():
    rng = np.random.default_rng(71)
    for _ in range(300):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(1, 5))
        arrays = [rng.random((n, n)) * (rng.random((n, n)) < 0.7) for _ in range(m)]
        w = _random_weights(rng, m)
        got = weighted_geometric_mean([FiniteMatrix(x) for x in arrays], w).a
        want = _fold_mean([FiniteMatrix(x) for x in arrays], w).a
        assert got.tobytes() == want.tobytes()
    for _ in range(60):
        m = int(rng.integers(1, 4))
        fams = [random_family(rng, multiband=True) for _ in range(m)]
        w = _random_weights(rng, m)
        assert _family_bits(weighted_geometric_mean(fams, w)) == _family_bits(_fold_mean(fams, w))
