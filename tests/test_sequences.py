import builtins
import math

import pytest

from specrad.errors import ClosureOverflowError, DomainError
from specrad.families import OperatorFamily
from specrad.sequences import (
    Constant,
    EventuallyConstant,
    PrefixWithLimit,
    RationalFormula,
    SumSeq,
    seq_power,
    seq_product,
    seq_restrict,
    seq_shift,
    seq_sum,
)
from specrad.serialize import seq_from_json, seq_to_json
from specrad.spectral import hausdorff_mnc


def brute_sup(seq, n, horizon=3000):
    return max(seq.value(i) for i in range(n, n + horizon))


def test_constant():
    w = Constant(2.5)
    assert w.value(1) == 2.5 and w.value(1000) == 2.5
    assert w.tail_sup(7) == 2.5
    assert w.limit == 2.5


def test_constant_rejects_negative():
    with pytest.raises(DomainError):
        Constant(-1.0)


def test_eventually_constant_tails():
    w = EventuallyConstant([3.0, 0.5], 1.0)
    assert w.value(1) == 3.0 and w.value(2) == 0.5 and w.value(3) == 1.0
    assert w.tail_sup(1) == 3.0
    assert w.tail_sup(2) == 1.0
    assert w.limit == 1.0


def test_rational_inverse_index():
    w = RationalFormula([1.0], [0.0, 1.0])  # 1/i
    assert w.value(4) == 0.25
    assert w.tail_sup(10) == pytest.approx(0.1, abs=0)
    assert w.limit == 0.0


def test_rational_shifted_law():
    # (c i + a)/i = c + a/i with a negative but positive values on i >= 1
    w = RationalFormula([-0.4, 0.6], [0.0, 1.0])
    assert w.value(1) == pytest.approx(0.2)
    assert w.limit == pytest.approx(0.6)
    hi = brute_sup(w, 3)
    assert w.tail_sup(3) >= hi - 1e-15
    # increasing sequence: tail sup equals the limit
    assert w.tail_sup(3) == pytest.approx(0.6)


def test_rational_rejects_unbounded_or_negative():
    with pytest.raises(DomainError):
        RationalFormula([0.0, 0.0, 1.0], [0.0, 1.0])  # deg p > deg q
    with pytest.raises(DomainError):
        RationalFormula([-1.0, 0.5], [0.0, 1.0])  # negative at i = 1
    with pytest.raises(DomainError):
        RationalFormula([1.0], [0.0])  # zero denominator


@pytest.mark.parametrize("p,q,message", [
    (["1"], [1.0], "numerator coefficient must be a finite number, got '1'"),
    ([True], [1.0], "numerator coefficient must be a finite number, got True"),
    ([math.nan], [1.0], "numerator coefficient must be a finite number, got nan"),
    ([1.0], [math.inf], "denominator coefficient must be a finite number, got inf"),
    ([1.0, 1.0], [0.0, math.inf], "denominator coefficient must be a finite number, got inf"),
    (None, [1.0], "numerator coefficients must be a sequence, got None"),
    ([1.0], [1e308, 1e-308], "impractical root bound"),  # the root bound overflows
    ([1e200, 1e200], [1e200, 1e200], "impractical root bound"),  # p'q - pq' is nan
], ids=["string", "bool", "nan", "inf", "inf-lead", "none", "inf-bound", "nan-bound"])
def test_rational_coefficients_are_finite_reals(p, q, message):
    with pytest.raises(DomainError, match=message):
        RationalFormula(p, q)


def test_prefix_with_limit():
    w = PrefixWithLimit([2.0, 1.8], 1.0)
    assert w.value(2) == 1.8
    assert w.value(3) == pytest.approx(1.4)
    assert w.value(4) == pytest.approx(1.2)
    assert w.limit == 1.0
    assert w.tail_sup(3) == pytest.approx(1.4)
    hi = brute_sup(w, 1)
    assert w.tail_sup(1) >= hi


@pytest.mark.parametrize("n", [1, 2, 5, 17])
def test_combinator_tail_bounds_cover_samples(n):
    a = RationalFormula([0.7, 1.1], [0.0, 1.0])
    b = EventuallyConstant([0.2, 2.0, 0.9], 1.3)
    combos = [
        seq_product(a, b),
        seq_sum([a, b]),
        seq_power(a, 1.7),
        seq_power(b, 0.5),
        seq_shift(a, 3),
        seq_restrict(b, 4),
        seq_product(seq_shift(a, 1), seq_power(b, 2.0)),
    ]
    for w in combos:
        hi = brute_sup(w, n)
        assert w.tail_sup(n) >= hi - 1e-12
        assert w.limit <= w.tail_sup(n) + 1e-12


_PREFIX = PrefixWithLimit([5.0, 1.0], 0.5)


@pytest.mark.parametrize("n", [-1, 0, 1])
@pytest.mark.parametrize("w", [
    Constant(2.5),
    EventuallyConstant([3.0, 0.5], 1.0),
    RationalFormula([0.7, 1.1], [0.0, 1.0]),
    _PREFIX,
    seq_product(_PREFIX, EventuallyConstant([0.2, 2.0], 1.3)),
    seq_shift(_PREFIX, 1),
], ids=["constant", "eventually-constant", "rational", "prefix", "product", "shifted"])
def test_tail_sup_below_the_first_index_is_the_sup_from_1(w, n):
    """A sequence starts at i = 1, so tail_sup(n) for n <= 1 is tail_sup(1),
    at least every value.  ``PrefixWithLimit([5, 1], 0.5).tail_sup(0)`` was
    1.0, below the sup 5.0."""
    assert w.tail_sup(n) == w.tail_sup(1) >= brute_sup(w, 1)


def test_combinator_limits_are_exact():
    a = RationalFormula([1.0, 2.0], [0.0, 1.0])  # -> 2
    b = Constant(3.0)
    assert seq_product(a, b).limit == pytest.approx(6.0)
    assert seq_sum([a, b]).limit == pytest.approx(5.0)
    assert seq_power(a, 2.0).limit == pytest.approx(4.0)
    assert seq_shift(a, 5).limit == pytest.approx(2.0)


def test_restrict_zeroes_prefix():
    w = seq_restrict(Constant(2.0), 4)
    assert w.value(3) == 0.0 and w.value(4) == 2.0
    assert w.tail_sup(2) == 2.0


def test_power_requires_positive_exponent():
    with pytest.raises(DomainError):
        seq_power(Constant(1.0), 0.0)


def test_node_growth_overflows():
    grown = EventuallyConstant([1.0], 1.0)
    with pytest.raises(ClosureOverflowError):
        for _ in range(40):
            grown = seq_product(grown, grown)


def test_json_roundtrip_leaves():
    leaves = [
        Constant(1.5),
        EventuallyConstant([1.0, 2.0], 0.5),
        RationalFormula([0.2, 1.0], [0.0, 1.0]),
        PrefixWithLimit([2.0], 1.0),
    ]
    for w in leaves:
        back = seq_from_json(seq_to_json(w))
        assert type(back) is type(w)
        assert [back.value(i) for i in range(1, 8)] == [w.value(i) for i in range(1, 8)]
    # the exact wire objects, keys in order: reports and digests read them
    assert [list(seq_to_json(w).items()) for w in leaves] == [
        [("kind", "constant"), ("c", 1.5)],
        [("kind", "eventually_constant"), ("prefix", [1.0, 2.0]), ("tail", 0.5)],
        [("kind", "rational"), ("p", [0.2, 1.0]), ("q", [0.0, 1.0])],
        [("kind", "prefix_with_limit"), ("prefix", [2.0]), ("limit", 1.0)],
    ]
    with pytest.raises(DomainError):
        seq_to_json(seq_product(leaves[1], leaves[2]))
    with pytest.raises(DomainError):
        seq_from_json({"kind": "mystery"})


def test_sums_of_weights_are_left_folds_on_every_python_version(monkeypatch):
    """Limits 0.1, 0.2 and 0.3 add left to right to 0.6000000000000001, as the
    builtin ``sum`` does up to Python 3.11.  A compensated ``sum`` (3.12 on)
    gives 0.6; it stands in for the builtin here, and neither a sum node
    (limit, value and tail bound) nor gamma moves."""
    monkeypatch.setattr(builtins, "sum", lambda xs, start=0: math.fsum([start, *xs]))
    assert sum([0.1, 0.2, 0.3]) == 0.6
    w = SumSeq([Constant(0.1), Constant(0.2), Constant(0.3)])
    assert w.limit == w.value(5) == w.tail_sup(5) == 0.6000000000000001
    f = OperatorFamily({-1: Constant(0.1), 0: Constant(0.2), 1: Constant(0.3)})
    assert hausdorff_mnc(f).hi == 0.6000000000000001
