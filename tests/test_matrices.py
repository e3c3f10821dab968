import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import brute_geometric_mean
from specrad import FiniteMatrix, WeightVector
from specrad.errors import DomainError, ShapeMismatchError
from specrad.sets import weighted_geometric_mean


def M(data):
    return FiniteMatrix(data)


def test_rejects_negative_and_empty():
    with pytest.raises(DomainError):
        M([[1.0, -0.1]])
    with pytest.raises(ShapeMismatchError):
        FiniteMatrix(np.zeros((0, 2)))


@pytest.mark.parametrize("make,error,match", [
    (lambda: FiniteMatrix([[1, 2], [3]]), DomainError, "matrix entries must be real numbers"),
    (lambda: FiniteMatrix("abc"), DomainError, "matrix entries must be real numbers"),
    (lambda: FiniteMatrix([[1 + 2j]]), DomainError, "matrix entries must be real numbers"),
    (lambda: FiniteMatrix([[{}]]), DomainError, "matrix entries must be real numbers"),
    (lambda: FiniteMatrix(np.ones((2, 2, 2))), ShapeMismatchError, r"shape \(2, 2, 2\)"),
    (lambda: WeightVector(("a",)), DomainError, "weights must be real numbers"),
    (lambda: WeightVector((None,)), DomainError, "weights must be real numbers"),
], ids=["ragged", "string", "complex", "dict", "three-axes", "weight-string", "weight-none"])
def test_constructors_refuse_unconvertible_data_with_a_typed_error(make, error, match):
    """Data that numpy cannot turn into a float matrix, or Python into float
    weights, raises a SpecradError that says why, not a bare numpy error."""
    with pytest.raises(error, match=match):
        make()


def test_hadamard_product_entrywise():
    a = M([[1, 2], [3, 4]])
    b = M([[2, 0], [1, 1]])
    assert a.hadamard(b) == M([[2, 0], [3, 4]])
    assert a.hadamard(FiniteMatrix.ones(2)) == a
    with pytest.raises(ShapeMismatchError):
        a.hadamard(M([[1, 2, 3]]))


def test_hadamard_power():
    assert M([[4, 9], [0, 1]]).hpow(0.5) == M([[2, 3], [0, 1]])
    a = M([[1, 2], [3, 4]])
    assert a.hpow(1.0) == a
    d = M([[2, 0], [0, 5]])
    assert d.hpow(3.0) == M([[8, 0], [0, 125]])
    with pytest.raises(DomainError):
        a.hpow(0.0)
    with pytest.raises(DomainError):
        a.hpow(-1.0)


def test_product_sum_scale_adjoint():
    a = M([[1, 1], [0, 1]])
    b = M([[1, 0], [1, 1]])
    assert a @ b == M([[2, 1], [1, 1]])
    assert a + FiniteMatrix.zeros(2) == a
    assert a.scale(2.0) == M([[2, 2], [0, 2]])
    assert a.adjoint().adjoint() == a
    assert (a @ b).adjoint() == b.adjoint() @ a.adjoint()
    with pytest.raises(ShapeMismatchError):
        a @ M([[1, 2, 3]]).adjoint() @ a  # 2x2 times 3x1
    with pytest.raises(DomainError):
        a.scale(-1.0)


@pytest.mark.parametrize("op,what", [
    (lambda a: a @ a, "matrix product"),
    (lambda a: a + a, "matrix sum"),
    (lambda a: a.scale(1e10), "scaled matrix"),
    (lambda a: a.hadamard(a), "entrywise product"),
    (lambda a: a.hpow(2.0), "entrywise power"),
])
def test_overflow_is_a_domain_error_without_a_runtime_warning(op, what):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=f"{what} exceeds the float range"):
            op(M(np.full((2, 2), 1.5e308)))


# (operation on FiniteMatrix operands, the same operation on their arrays)
_DERIVED = {
    "hadamard": (lambda x, y: x.hadamard(y), lambda a, b: a * b),
    "hpow": (lambda x, y: x.hpow(2.5), lambda a, b: np.where(a > 0, np.power(a, 2.5), 0.0)),
    "matmul": (lambda x, y: x @ y, lambda a, b: a @ b),
    "add": (lambda x, y: x + y, lambda a, b: a + b),
    "scale": (lambda x, y: x.scale(3.0), lambda a, b: a * 3.0),
    "adjoint": (lambda x, y: x.adjoint(), lambda a, b: a.T),
}


@pytest.mark.parametrize("name", list(_DERIVED))
def test_derived_matrices_are_fresh_read_only_copies(name):
    """A derived matrix is read-only, shares no memory with its operands or
    with the arrays they were built from, and has the bits and the C/F
    layout of the constructor-built copy of the same operation's result,
    for C- and Fortran-ordered operands."""
    op, raw = _DERIVED[name]
    rng = np.random.default_rng(7)
    for n in (1, 3, 18):
        for left, right in ((False, False), (True, True), (True, False), (False, True)):
            data = [rng.random((n, n)) * (rng.random((n, n)) < 0.7) for _ in range(2)]
            data = [np.asfortranarray(a) if f else a for a, f in zip(data, (left, right))]
            x, y = (M(a) for a in data)
            got = op(x, y).a
            want = M(raw(x.a, y.a)).a
            assert not got.flags.writeable
            assert not any(np.shares_memory(got, a) for a in (*data, x.a, y.a))
            assert (got.flags.c_contiguous, got.flags.f_contiguous) == \
                (want.flags.c_contiguous, want.flags.f_contiguous), (n, left, right)
            assert got.tobytes(order="A") == want.tobytes(order="A")
            assert got.dtype == want.dtype


@pytest.mark.parametrize("op,what", [
    (lambda a: a @ a, "matrix product"),
    (lambda a: a + a, "matrix sum"),
    (lambda a: a.scale(1e10), "scaled matrix"),
    (lambda a: a.hadamard(a), "entrywise product"),
    (lambda a: a.hpow(2.0), "entrywise power"),
])
def test_overflow_messages_hold_for_fortran_operands(op, what):
    with pytest.raises(DomainError, match=f"^{what} exceeds the float range$"):
        op(M(np.asfortranarray(np.triu(np.full((3, 3), 1.5e308)))))


def test_mean_idempotent_and_sqrt():
    a = M([[1, 4], [1, 1]])
    b = M([[4, 1], [1, 1]])
    half = WeightVector.uniform(2)
    assert weighted_geometric_mean([a, a], half) == a
    assert weighted_geometric_mean([a, b], half) == M([[2, 2], [1, 1]])
    with pytest.raises(ShapeMismatchError):
        weighted_geometric_mean([a, a], WeightVector.of(1.0))


def test_mean_matches_brute_force():
    rng = np.random.default_rng(3)
    for _ in range(20):
        arrays = [rng.random((3, 3)) for _ in range(3)]
        w = WeightVector.uniform(3)
        got = weighted_geometric_mean([FiniteMatrix(x) for x in arrays], w).a
        expect = brute_geometric_mean(arrays, w.weights)
        assert np.allclose(got, expect, rtol=1e-15, atol=1e-15)


def test_mean_am_gm_domination():
    rng = np.random.default_rng(4)
    for _ in range(25):
        arrays = [rng.random((4, 4)) for _ in range(3)]
        alphas = rng.dirichlet(np.ones(3))
        w = WeightVector(tuple(alphas))
        mean = weighted_geometric_mean([FiniteMatrix(x) for x in arrays], w).a
        arith = sum(a * x for a, x in zip(alphas, arrays))
        assert np.all(mean <= arith + 1e-12)


def test_sum_product_power_inequality_for_vectors():
    # sums of weighted geometric means against the mean of the sums
    rng = np.random.default_rng(5)
    for _ in range(25):
        k, m = rng.integers(1, 4), rng.integers(1, 4)
        grid = rng.random((k, m, 6))
        alphas = rng.dirichlet(np.ones(m)) * (1.0 + rng.random())
        lhs = sum(
            np.prod([grid[i, j] ** alphas[j] for j in range(m)], axis=0)
            for i in range(k))
        rhs = np.prod([grid[:, j].sum(axis=0) ** alphas[j] for j in range(m)], axis=0)
        assert np.all(lhs <= rhs * (1 + 1e-12) + 1e-12)


def test_power_product_entrywise_inequality():
    rng = np.random.default_rng(6)
    for _ in range(25):
        t = 1.0 + 2.0 * rng.random()
        mats = [rng.random((4, 4)) for _ in range(3)]
        lhs = np.linalg.multi_dot([np.where(x > 0, x ** t, 0.0) for x in mats])
        prod = np.linalg.multi_dot(mats)
        rhs = np.where(prod > 0, prod ** t, 0.0)
        assert np.all(lhs <= rhs * (1 + 1e-12))


@settings(max_examples=60, deadline=None)
@given(s=st.floats(0.1, 4.0), t=st.floats(0.1, 4.0))
def test_hadamard_power_composes(s, t):
    rng = np.random.default_rng(7)
    a = FiniteMatrix(rng.random((3, 3)))
    left = a.hpow(s).hpow(t).a
    right = a.hpow(s * t).a
    assert np.allclose(left, right, rtol=1e-12)


def test_weight_vector_rule():
    WeightVector((0.5, 0.5))
    WeightVector((1.0, 0.75))
    WeightVector((0.5, 0.5 - 5e-13))
    with pytest.raises(DomainError, match="sum to at least 1"):
        WeightVector((0.2, 0.3))
    with pytest.raises(DomainError, match="positive and finite"):
        WeightVector((0.5, -0.5))
    with pytest.raises(DomainError, match="positive and finite"):
        WeightVector((1.0, 0.0))
    assert [f.name for f in dataclasses.fields(WeightVector)] == ["weights"]
