import numpy as np
import pytest

from specrad import (
    Constant,
    FiniteMatrix,
    OperatorSet,
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
)
from specrad.errors import BudgetExceededError, DomainError, ShapeMismatchError


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
