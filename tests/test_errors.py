"""The scalar checks of ``specrad.errors`` at the public entry points."""

import json
import math

import numpy as np
import pytest

from specrad import (
    Bracket,
    Constant,
    EnsembleSpec,
    EvalContext,
    EventuallyConstant,
    FiniteMatrix,
    OperatorSet,
    PrefixWithLimit,
    WeightVector,
    set_hadamard_power,
    shift_family,
    symmetrization,
)
from specrad.errors import DomainError

A = FiniteMatrix([[1.0, 2.0], [0.5, 1.0]])
F = shift_family(Constant(0.5))
S = OperatorSet([A])
B = Bracket(1.0, 2.0, "test")

ENTRY_POINTS = {
    "FiniteMatrix.scale": A.scale,
    "FiniteMatrix.hpow": A.hpow,
    "OperatorFamily.scale": F.scale,
    "OperatorFamily.hpow": F.hpow,
    "set_hadamard_power": lambda v: set_hadamard_power(S, v),
    "symmetrization-alpha": lambda v: symmetrization(S, v, 1.0),
    "Bracket.power": B.power,
    "Bracket.scaled": B.scaled,
    "Constant": Constant,
    "EventuallyConstant-tail": lambda v: EventuallyConstant([1.0], v),
    "PrefixWithLimit-limit": lambda v: PrefixWithLimit([1.0], v),
}

NOT_FINITE_REALS = {"string": "2", "None": None, "True": True, "nan": math.nan,
                    "inf": math.inf, "10**400": 10 ** 400, "array": np.array([2.0, 3.0])}


@pytest.mark.parametrize("value", NOT_FINITE_REALS.values(), ids=NOT_FINITE_REALS)
@pytest.mark.parametrize("call", ENTRY_POINTS.values(), ids=ENTRY_POINTS)
def test_scalar_arguments_that_are_no_finite_real_are_domain_errors(call, value):
    """A numeric string or a bool is no number, and a value that does not
    convert to a finite float is refused, each with the shared message."""
    with pytest.raises(DomainError, match=r" must be a finite number >?=? ?0, got "):
        call(value)


COUNT_ENTRY_POINTS = {
    "OperatorFamily.entry": lambda v: F.entry(v, 1),
    "OperatorFamily.truncate": F.truncate,
    "OperatorFamily.tail_norm_bound": F.tail_norm_bound,
    "WeightVector.uniform": WeightVector.uniform,
}

NOT_POSITIVE_INTEGERS = {"float": 2.0, "string": "2", "None": None, "True": True, "zero": 0}


@pytest.mark.parametrize("value", NOT_POSITIVE_INTEGERS.values(), ids=NOT_POSITIVE_INTEGERS)
@pytest.mark.parametrize("call", COUNT_ENTRY_POINTS.values(), ids=COUNT_ENTRY_POINTS)
def test_count_arguments_that_are_no_positive_integer_are_domain_errors(call, value):
    with pytest.raises(DomainError, match=r" must be an integer >= 1, got "):
        call(value)


def test_numpy_counts_and_tolerances_are_stored_as_python_numbers():
    """A numpy integer size and a numpy float tolerance are accepted and
    kept as ``int`` and ``float``, so ``to_json`` stays JSON."""
    ens = EnsembleSpec(size=np.int64(4))
    assert type(ens.size) is int and ens.size == 4
    ctx = EvalContext(finite_tol=np.float32(1e-9))
    assert type(ctx.finite_tol) is float and ctx.finite_tol == float(np.float32(1e-9))
    json.dumps([ens.to_json(), ctx.to_json()])
    assert type(Constant(1).c) is float and Constant(1).c == 1.0
