import importlib.util
import json
import math
import tracemalloc
import warnings
from fractions import Fraction
from functools import reduce
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from helpers import random_family, word_radius_lb
from specrad import (
    Bracket,
    Constant,
    FiniteMatrix,
    OperatorSet,
    RationalFormula,
    diagonal_family,
    finite_rank_family,
    gen_radius_lb,
    gripenberg_bracket,
    hausdorff_mnc,
    joint_radius_ub,
    set_adjoint,
    set_power,
    shift_family,
    spectral_radius,
)
from specrad.errors import BudgetExceededError, DomainError, ShapeMismatchError
from specrad import jsr
from specrad.families import _pow0
from specrad.jsr import (
    _MAX_LEVEL,
    _child,
    _levels,
    _necklaces,
    _set_bounds,
    gamma_level_max,
    gamma_set_bracket,
    norm_level_max,
    norm_set_bracket,
)
from specrad.registry import _fin_term
from specrad.spectral import operator_norm

PHI = (1 + math.sqrt(5)) / 2

GOLDEN = OperatorSet([FiniteMatrix([[1, 1], [0, 1]]), FiniteMatrix([[1, 0], [1, 1]])])


def test_gen_radius_lb_examples():
    a = FiniteMatrix([[2, 1], [1, 1]])
    single = OperatorSet([a])
    rho = spectral_radius(a)
    assert gen_radius_lb(single, 3) == pytest.approx(rho.mid, rel=1e-9)
    nil = OperatorSet([FiniteMatrix([[0, 1], [0, 0]]), FiniteMatrix([[0, 0], [1, 0]])])
    assert gen_radius_lb(nil, 1) == 0.0
    assert gen_radius_lb(nil, 2) == pytest.approx(1.0, rel=1e-9)
    assert gen_radius_lb(GOLDEN, 2) == pytest.approx(PHI, rel=1e-9)
    with pytest.raises(DomainError):
        gen_radius_lb(GOLDEN, 0)


def test_joint_radius_ub_examples():
    assert joint_radius_ub(OperatorSet([FiniteMatrix([[2, 0], [0, 1]])]), 1) == \
        pytest.approx(2.0, rel=1e-9)
    assert joint_radius_ub(GOLDEN, 1) == pytest.approx(PHI, rel=1e-9)
    c = OperatorSet([FiniteMatrix.identity(3).scale(1.3)])
    assert joint_radius_ub(c, 2) == pytest.approx(1.3, rel=1e-9)


def _reference_joint_radius_ub(s, m_max):
    """The incremental level enumerator that joint_radius_ub replaced."""
    level = list(s.elements)
    best = math.inf
    for m in range(1, m_max + 1):
        top = max(operator_norm(p).hi for p in level)
        best = min(best, _pow0(top, 1.0 / m))
        if m < m_max:
            if len(level) * len(s) > _MAX_LEVEL:
                break
            level = [p @ a for p in level for a in s.elements]
    return best


def test_joint_radius_ub_matches_incremental_enumerator():
    rng = np.random.default_rng(33)
    for _ in range(40):
        n = int(rng.integers(1, 4))
        k = int(rng.integers(1, 4))
        scale = 10.0 ** rng.uniform(-20, 20)
        s = OperatorSet([FiniteMatrix(scale * rng.random((n, n)) * (rng.random((n, n)) < 0.6))
                         for _ in range(k)])
        for m_max in range(1, 5):
            assert joint_radius_ub(s, m_max).hex() == \
                _reference_joint_radius_ub(s, m_max).hex()
    # 64 elements: depth 2 has 4096 products and fits the cap, depth 3 does not
    s = OperatorSet([FiniteMatrix(rng.random((2, 2))) for _ in range(64)])
    with pytest.raises(BudgetExceededError):
        norm_level_max(s, 3)
    assert joint_radius_ub(s, 3) == joint_radius_ub(s, 2) == _reference_joint_radius_ub(s, 3)
    # more elements than the cap: depth 1 only, and no error
    values = rng.random(_MAX_LEVEL + 1)
    big = OperatorSet([FiniteMatrix([[v]]) for v in values])
    assert joint_radius_ub(big, 3) == _reference_joint_radius_ub(big, 3) == norm_level_max(big, 1)
    assert norm_level_max(big, 1) == pytest.approx(values.max(), rel=1e-12)


def test_gen_radius_lb_has_the_level_cap():
    """Level m holds all k**m products, so a level past the cap is a budget
    error before any level is built, not a failed allocation."""
    assert gen_radius_lb(GOLDEN, 12) == pytest.approx(PHI, rel=1e-9)  # 2**12 fits
    for depth in (13, 40):
        with pytest.raises(BudgetExceededError):
            gen_radius_lb(GOLDEN, depth)
    # more elements than the cap: depth 1 builds no product, and no error
    big = OperatorSet([FiniteMatrix([[v]]) for v in np.linspace(0.0, 1.0, _MAX_LEVEL + 1)])
    assert gen_radius_lb(big, 1) == 1.0


def test_sandwich_and_monotone_refinement():
    rng = np.random.default_rng(21)
    for _ in range(10):
        s = OperatorSet([FiniteMatrix(rng.random((3, 3))) for _ in range(2)])
        lbs = [gen_radius_lb(s, m) for m in range(1, 5)]
        ubs = [joint_radius_ub(s, m) for m in range(1, 5)]
        for lb, ub in zip(lbs, ubs):
            assert lb <= ub + 1e-9
        assert all(a <= b + 1e-12 for a, b in zip(lbs, lbs[1:]))
        assert all(a >= b - 1e-12 for a, b in zip(ubs, ubs[1:]))


def test_power_and_cyclic_identities():
    rng = np.random.default_rng(22)
    from specrad import set_product
    for _ in range(8):
        s = OperatorSet([FiniteMatrix(rng.random((2, 2))) for _ in range(2)])
        for k in (2, 3):
            for m in (1, 2):
                left = gen_radius_lb(set_power(s, k), m)
                right = word_radius_lb(s, [k * j for j in range(1, m + 1)]) ** k
                assert left == pytest.approx(right, rel=1e-9, abs=1e-12)
        p = OperatorSet([FiniteMatrix(rng.random((2, 2))) for _ in range(2)])
        a = gen_radius_lb(set_product(s, p), 2)
        b = gen_radius_lb(set_product(p, s), 2)
        assert a == pytest.approx(b, rel=1e-9, abs=1e-12)


def test_gripenberg_golden_pair():
    b = gripenberg_bracket(GOLDEN, 1e-6)
    assert b.converged
    assert b.width <= 1e-6
    assert b.contains(PHI, slack=1e-12)


@pytest.mark.parametrize("space", ["l1", "linf"])
def test_gripenberg_golden_pair_in_l1_and_linf(space):
    """The Fekete bounds of the exhaustive levels may come from l1 or linf.
    Pruning uses l1 bounds in every space, so these close a 1e-3 gap, while
    at 1e-6 only l2 (whose depth-2 bound is phi itself) converges."""
    b = gripenberg_bracket(GOLDEN, 1e-3, space=space)
    assert b.converged
    assert b.width <= 1e-3
    assert b.contains(PHI, slack=1e-12)


@pytest.mark.xfail(strict=True, reason="lower_end rounds exp(log(lo) + logscale) to nearest")
def test_gripenberg_golden_pair_in_l1_encloses_phi_exactly():
    """lo**2 - lo - 1 <= 0 <= hi**2 - hi - 1 in exact arithmetic.  The l1 run
    takes its lower end from deeper words than the l2 one and returns
    lo = fl(phi), which lies above phi."""
    b = gripenberg_bracket(GOLDEN, 1e-3, space="l1")
    lo, hi = Fraction(b.lo), Fraction(b.hi)
    assert lo * lo - lo - 1 <= 0 <= hi * hi - hi - 1


def test_gripenberg_singleton_and_zero():
    a = FiniteMatrix([[2, 1], [1, 1]])
    b = gripenberg_bracket(OperatorSet([a]), 1e-6)
    assert b.width <= 1e-6
    assert b.contains(spectral_radius(a).mid, slack=1e-9)
    z = FiniteMatrix.zeros(2)
    assert gripenberg_bracket(OperatorSet([z, z]), 1e-6).hi == 0.0
    with pytest.raises(DomainError):
        gripenberg_bracket(GOLDEN, 0.0)


def test_gripenberg_contains_lb_and_ub():
    rng = np.random.default_rng(23)
    for _ in range(6):
        s = OperatorSet([FiniteMatrix(rng.random((3, 3)) * (rng.random((3, 3)) < 0.6))
                         for _ in range(2)])
        g = gripenberg_bracket(s, 5e-3, budget=30_000)
        lb = gen_radius_lb(s, 3)
        ub = joint_radius_ub(s, 3)
        assert lb <= g.hi + 1e-9
        assert g.lo <= ub + 1e-9
        assert g.overlaps(Bracket(min(lb, ub), ub, "set-gen-lb/joint-ub"), slack=1e-9)


def test_gripenberg_budget_flag():
    rng = np.random.default_rng(24)
    s = OperatorSet([FiniteMatrix(rng.random((3, 3))) for _ in range(2)])
    b = gripenberg_bracket(s, 1e-12, budget=8)
    assert not b.converged
    assert b.lo <= b.hi


def test_ess_set_radii():
    """Depth 1 is enough: the largest gamma over length-m products is (max gamma)^m."""
    rng = np.random.default_rng(25)
    for _ in range(60):
        s = OperatorSet([random_family(rng, multiband=True)
                         for _ in range(int(rng.integers(1, 4)))])
        g = gamma_level_max(s)
        b = gamma_set_bracket(s)
        assert b.lo == b.hi == g and b.converged
        assert g == max(hausdorff_mnc(f).hi for f in s)
        for m in (1, 2, 3):
            root = gamma_level_max(set_power(s, m)) ** (1.0 / m)
            assert abs(root - g) <= 4 * m * 2.0 ** -52 * g
    assert gamma_level_max(OperatorSet([shift_family(Constant(0.8))])) == \
        pytest.approx(0.8, rel=1e-9)
    compact = OperatorSet([finite_rank_family([[1.0, 2.0], [0.5, 1.0]])])
    assert gamma_level_max(compact) == 0.0
    b = gamma_set_bracket(compact)
    assert (b.lo, b.hi) == (0.0, 0.0)
    assert math.copysign(1.0, b.lo) == math.copysign(1.0, b.hi) == 1.0  # +0.0
    pair = OperatorSet([
        diagonal_family(RationalFormula([-0.4, 1.0], [0.0, 1.0])),  # -> 1
        diagonal_family(RationalFormula([0.4, 2.0], [0.0, 1.0])),   # -> 2
    ])
    assert gamma_level_max(pair) == pytest.approx(2.0, rel=1e-9)


def test_gamma_set_bracket_is_the_largest_hausdorff_mnc_bit_for_bit():
    """One gamma sum serves both: the set sup equals the max of the
    per-element brackets' upper ends in its bits, and a set whose largest
    gamma is that of a band-free family reads +0.0, not -0.0."""
    rng = np.random.default_rng(31)
    band_free = finite_rank_family([[1.0, 2.0], [0.5, 1.0]])
    sets = [OperatorSet([random_family(rng, multiband=True)
                         for _ in range(int(rng.integers(1, 5)))]) for _ in range(40)]
    sets.append(OperatorSet([band_free, shift_family(Constant(0.5)) @ band_free]))
    sets.append(OperatorSet([band_free, shift_family(Constant(0.25)).adjoint()]))
    for s in sets:
        want = max(hausdorff_mnc(f).hi for f in s)
        got = gamma_set_bracket(s)
        assert got.hi.hex() == got.lo.hex() == want.hex()
        assert gamma_level_max(s).hex() == want.hex()
    zero = gamma_set_bracket(sets[-2])
    assert math.copysign(1.0, zero.hi) == math.copysign(1.0, zero.lo) == 1.0


def test_a_gamma_beyond_the_float_range_is_refused_by_the_set_sup_too():
    big = shift_family(RationalFormula([1e200, 0.0], [1.0]))
    inf_gamma = big.hadamard(big)  # limit 1e400 -> inf
    nan_gamma = inf_gamma.hadamard(shift_family(RationalFormula([1.0], [0.0, 1.0])))  # inf * 0
    for f in (inf_gamma, nan_gamma):
        s = OperatorSet([shift_family(Constant(1.0)), f])
        for fn in (hausdorff_mnc, lambda _: gamma_set_bracket(s), lambda _: gamma_level_max(s)):
            with pytest.raises(DomainError, match="must be finite"):
                fn(f)


def test_a_family_set_past_the_level_cap_is_refused():
    """``gamma_level_max`` takes a family set of ``_MAX_LEVEL`` elements and
    refuses one more with a BudgetExceededError."""
    f = shift_family(Constant(0.5))
    assert gamma_level_max(OperatorSet([f] * _MAX_LEVEL)) == 0.5
    with pytest.raises(BudgetExceededError, match="gamma level enumeration exceeded its cap"):
        gamma_level_max(OperatorSet([f] * (_MAX_LEVEL + 1)))


def test_gamma_set_and_level_helpers():
    pair = OperatorSet([shift_family(Constant(0.5)), shift_family(Constant(1.5))])
    g = gamma_set_bracket(pair)
    assert g.lo == g.hi == 1.5
    assert norm_level_max(GOLDEN, 1) == pytest.approx(PHI, rel=1e-9)
    assert norm_level_max(GOLDEN, 2) == pytest.approx(PHI ** 2, rel=1e-9)


# -- batched word levels ------------------------------------------------------

FIXTURES = Path(__file__).parent / "fixtures"


def _recorder():
    path = Path(__file__).resolve().parents[1] / "tools" / "record_set_radii_bits.py"
    spec = importlib.util.spec_from_file_location("record_set_radii_bits", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_set_radii_match_the_recorded_bits():
    """gen_radius_lb, norm_level_max and gripenberg_bracket reproduce, bit for
    bit, the values that tools/record_set_radii_bits.py recorded."""
    recorder = _recorder()
    cases = json.loads((FIXTURES / "set_radii_bits.json").read_text(encoding="utf-8"))
    assert len(cases) >= 40
    for i, case in enumerate(cases):
        assert recorder.outputs(case) == case["expected"], f"case {i}"


def test_the_last_recorded_sets_stop_at_the_frontier_cap():
    """The fixture's last three sets pin the branch and bound's exit at the
    ``_MAX_LEVEL`` frontier cap: each call is unconverged, and a budget far
    beyond the recorded one gives the same bracket, so the budget did not
    stop it, and neither a width <= delta nor an all-pruned level did."""
    recorder = _recorder()
    cases = json.loads((FIXTURES / "set_radii_bits.json").read_text(encoding="utf-8"))
    for case in cases[-3:]:
        s = recorder.operator_set(case)
        for delta, budget, space in case["grip"]:
            b = gripenberg_bracket(s, delta, budget=budget, space=space)
            assert not b.converged
            assert gripenberg_bracket(s, delta, budget=10 ** 9, space=space) == b


def _least_rotation(word):
    return all(word <= word[i:] + word[:i] for i in range(1, len(word)))


@pytest.mark.parametrize("k,m", [(k, m) for k in (1, 2, 3, 4) for m in range(1, 7)])
def test_necklaces_are_the_canonical_words_in_order(k, m):
    want = [r for r, w in enumerate(product(range(k), repeat=m)) if _least_rotation(w)]
    assert _necklaces(k, m) == want


def _period(word):
    """The prenecklace period of the word, grown one letter at a time with
    ``_child``: each step sees only the (period, head) pair and the length,
    and the head is checked against the word at every step."""
    w = (1, word[:1])
    for i in range(1, len(word)):
        w = _child(w, i, word[i])
        assert w[1] == word[:i + 1][:w[0]], (word[:i + 1], w)
    return w[0]


def _is_necklace(word):
    p = _period(word)
    return p > 0 and len(word) % p == 0


def test_canonical_is_the_least_rotation_test_on_long_and_periodic_words():
    """``_child``'s period divides the length exactly when the word is its
    least rotation, on random long words and on periodic ones."""
    rng = np.random.default_rng(41)
    for _ in range(3000):
        k, m, period = (int(v) for v in rng.integers(1, [4, 60, 8]))
        letters = rng.integers(0, k, period if rng.random() < 0.5 else m)
        word = tuple(int(v) for v in np.resize(letters, m))
        assert _is_necklace(word) == _least_rotation(word), word


def test_child_period_is_the_canonical_test_one_letter_at_a_time():
    """A word is its least rotation exactly when its incremental period is
    positive and divides its length: on every word with k <= 3 letters and
    length <= 10 (so on every prefix of each), and on long and periodic
    words of length below 400."""
    for k in (1, 2, 3):
        for m in range(1, 11):
            for word in product(range(k), repeat=m):
                assert _is_necklace(word) == _least_rotation(word), word
    rng = np.random.default_rng(43)
    for _ in range(300):
        k, m, period = (int(v) for v in rng.integers(1, [5, 400, 12]))
        word = tuple(int(v) for v in np.resize(rng.integers(0, k, period), m))
        assert _is_necklace(word) == _least_rotation(word), word


def _phi(d):
    return sum(1 for i in range(1, d + 1) if math.gcd(i, d) == 1)


_NECKLACE_PAIRS = [(k, m) for k in range(1, 65) for m in range(1, 13) if k ** m <= _MAX_LEVEL]


def test_necklace_counts_match_moreaus_formula():
    """Every level that fits the cap has (1/m) sum_{d|m} phi(d) k**(m/d)
    necklaces (Moreau), listed by strictly increasing rank."""
    assert len(_NECKLACE_PAIRS) == 174
    for k, m in _NECKLACE_PAIRS:
        ranks = _necklaces(k, m)
        count = sum(_phi(d) * k ** (m // d) for d in range(1, m + 1) if m % d == 0)
        assert count % m == 0 and len(ranks) == count // m, (k, m)
        assert all(a < b for a, b in zip(ranks, ranks[1:])), (k, m)
        assert ranks[0] == 0 and ranks[-1] < k ** m, (k, m)


@pytest.mark.parametrize("call", [gen_radius_lb, norm_level_max, joint_radius_ub])
@pytest.mark.parametrize("depth", [2.5, 2.0, True, 0, -1, math.nan, "2"])
def test_word_depths_are_integers_of_at_least_one(call, depth):
    with pytest.raises(DomainError, match="word depth must be an integer >= 1"):
        call(GOLDEN, depth)


def test_word_depths_may_be_numpy_integers():
    for call in (gen_radius_lb, norm_level_max, joint_radius_ub):
        assert call(GOLDEN, np.int64(3)) == call(GOLDEN, 3)


@pytest.mark.parametrize("budget", [math.nan, 2.5, True, -1, "10"])
def test_gripenberg_refuses_a_budget_that_is_not_a_count(budget):
    with pytest.raises(DomainError, match="budget must be an integer >= 0"):
        gripenberg_bracket(GOLDEN, 1e-2, budget=budget)


def test_gripenberg_refuses_an_unknown_space_up_front():
    """A set of zero letters, which builds no level, and the golden pair
    refuse an unknown space with the message ``operator_norm`` gives."""
    with pytest.raises(DomainError) as want:
        operator_norm(FiniteMatrix([[1.0]]), "l3")
    assert str(want.value).startswith("unknown space tag 'l3'; expected one of")
    for s in (OperatorSet([FiniteMatrix(np.zeros((2, 2)))]), GOLDEN):
        with pytest.raises(DomainError) as got:
            gripenberg_bracket(s, 1e-3, space="l3")
        assert str(got.value) == str(want.value)


def test_gripenberg_takes_a_zero_or_numpy_budget():
    assert not gripenberg_bracket(GOLDEN, 1e-12, budget=0).converged
    assert gripenberg_bracket(GOLDEN, 1e-2, budget=np.int64(100)) == \
        gripenberg_bracket(GOLDEN, 1e-2, budget=100)


def test_a_refused_overflowing_level_leaves_the_error_state_as_it_was():
    """The word levels ignore overflow only while they are built."""
    big = OperatorSet([FiniteMatrix(np.full((2, 2), 1e200))])
    for state in ({}, {"all": "raise"}, {"over": "warn", "invalid": "print"}):
        with np.errstate(**state):
            before = np.geterr()
            for call in (gen_radius_lb, norm_level_max, joint_radius_ub):
                with pytest.raises(DomainError, match="exceeds the float range"):
                    call(big, 3)
                assert np.geterr() == before


def test_a_caller_sees_its_own_error_state_between_levels():
    """Each level is built under its own error state, which is left before
    the level is yielded, so the caller's loop body runs under the caller's."""
    letters = np.array([np.full((2, 2), 1e200), np.eye(2)])
    for state in ({}, {"all": "raise"}, {"over": "warn", "invalid": "print"}):
        with np.errstate(**state):
            before = np.geterr()
            levels = 0
            for level in _levels(letters, 4):
                assert np.geterr() == before
                levels += 1
            assert levels == 4 and not np.isfinite(level).all()


def test_word_levels_keep_one_level_at_a_time():
    """A one-letter set walks one product per level, so a deep walk holds
    only the level it extends: at depth 5,000 the peak stays under 0.2 MiB
    (1.65 MiB when every level was kept)."""
    jordan = OperatorSet([FiniteMatrix([[1.0, 1.0], [0.0, 1.0]])])
    tracemalloc.start()
    try:
        joint_radius_ub(jordan, 5000)
        norm_level_max(jordan, 5000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.2 * 2 ** 20


def test_levels_are_left_folds_in_each_letter_layout():
    """Every level product is the ``@`` fold of its word, bit for bit, with
    the letters in either layout a set's stack has: C-ordered, or the
    transposed view of an adjoint set, whose letters are Fortran-ordered.
    At n = 18 OpenBLAS rounds C- and Fortran-ordered operands differently,
    so each letter of the fold is a copy in the layout of its stack's."""
    rng = np.random.default_rng(31)
    c = rng.random((3, 18, 18))
    for stack in (c, c.transpose(0, 2, 1)):
        letters = [np.array(a) for a in stack]  # each keeps its view's layout
        assert all(a.flags.c_contiguous == stack.flags.c_contiguous for a in letters)
        for m, level in enumerate(_levels(stack, 4), 1):
            words = list(product(range(3), repeat=m))
            assert len(level) == len(words)
            for word, p in zip(words, level):
                want = reduce(np.matmul, [letters[i] for i in word])
                assert np.array_equal(p, want)


def test_overflowing_word_products_are_domain_errors():
    """A product beyond the float range is a DomainError, with no numpy
    RuntimeWarning on the way."""
    big = OperatorSet([FiniteMatrix(np.full((2, 2), 1e200))])
    huge = OperatorSet([FiniteMatrix(np.full((2, 2), 1e308))])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="exceeds the float range"):
            gen_radius_lb(big, 3)
        with pytest.raises(DomainError, match="exceeds the float range"):
            norm_level_max(big, 3)
        with pytest.raises(DomainError, match="exceeds the float range"):
            joint_radius_ub(big, 3)
        with pytest.raises(DomainError, match="joint spectral radius exceeds the float range"):
            gripenberg_bracket(huge, 1e-2)
        # the letters fit, but the surviving child AB has an entry 2e308
        pair = OperatorSet([FiniteMatrix([[1e308, 1e308], [0.0, 0.0]]),
                            FiniteMatrix([[1e308, 0.0], [1e308, 0.0]])])
        with pytest.raises(DomainError, match="a word product exceeds the float range"):
            gripenberg_bracket(pair, 1e-2)


def test_non_square_sets_are_shape_errors():
    s = OperatorSet([FiniteMatrix([[1.0, 2.0, 0.5]]), FiniteMatrix([[0.5, 1.0, 1.0]])])
    assert norm_level_max(s, 1) == operator_norm(s[0]).hi
    for call in (lambda: gen_radius_lb(s, 1), lambda: gen_radius_lb(s, 3),
                 lambda: norm_level_max(s, 2), lambda: gripenberg_bracket(s, 1e-2)):
        with pytest.raises(ShapeMismatchError):
            call()


def test_gen_radius_lb_checks_only_the_necklace_products():
    """AB leaves the float range but is no necklace (BA is its rotation), so
    gen_radius_lb never reads it; norm_level_max reads every product."""
    b = FiniteMatrix([[0.0, 1e250], [0.0, 0.0]])
    a = FiniteMatrix([[1e100, 0.0], [0.0, 0.0]])
    s = OperatorSet([b, a])
    assert gen_radius_lb(s, 2) == 1e100
    with pytest.raises(DomainError, match="a word product exceeds the float range"):
        norm_level_max(s, 2)


def test_set_radii_refuse_the_wrong_kind_of_set():
    matrices = OperatorSet([FiniteMatrix([[1.0]])])
    families = OperatorSet([shift_family(Constant(0.5))])
    for fn in (gamma_set_bracket, gamma_level_max):
        with pytest.raises(DomainError, match=f"{fn.__name__} expects a set of operator families"):
            fn(matrices)
    for fn in (norm_set_bracket, lambda s: norm_level_max(s, 1),
               lambda s: gen_radius_lb(s, 1), lambda s: joint_radius_ub(s, 1),
               lambda s: gripenberg_bracket(s, 1e-2)):
        with pytest.raises(DomainError, match="expects a set of finite matrices"):
            fn(families)


@pytest.mark.parametrize("delta", [0.0, -1.0, math.nan, math.inf, True, "0.1",
                                   pytest.param(10**400, id="10**400")])
def test_gripenberg_refuses_a_delta_outside_the_positive_floats(delta):
    with pytest.raises(DomainError, match="delta must be positive"):
        gripenberg_bracket(GOLDEN, delta)


def _loop_norm_set_bracket(s):
    """The per-element loop that norm_set_bracket ran before its one batch."""
    lo = 0.0
    hi = 0.0
    for m in s:
        b = operator_norm(m)
        lo = max(lo, b.lo)
        hi = max(hi, b.hi)
    return Bracket(min(lo, hi), hi, "norm-sup")


def test_norm_set_bracket_matches_the_per_element_loop():
    rng = np.random.default_rng(57)
    for _ in range(200):
        rows, cols = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        scales = 2.0 ** rng.integers(-1000, 1000, size=int(rng.integers(1, 5)))
        mask = rng.random((len(scales), rows, cols)) < 0.7
        s = OperatorSet([FiniteMatrix(c * rng.random((rows, cols)) * keep)
                         for c, keep in zip(scales, mask)])
        got, want = norm_set_bracket(s), _loop_norm_set_bracket(s)
        assert (got.lo.hex(), got.hi.hex(), got.method, got.converged) == \
            (want.lo.hex(), want.hi.hex(), want.method, want.converged)


def _matrix_set(rng, n, size, scale, density, fortran):
    """A set of ``size`` random n x n matrices with entries up to ``scale``,
    each entry kept with probability ``density``, in C or Fortran order."""
    out = []
    for _ in range(size):
        a = scale * rng.random((n, n)) * (rng.random((n, n)) < density)
        out.append(FiniteMatrix(np.asfortranarray(a) if fortran else a))
    return OperatorSet(out)


def _ends(b):
    return b.lo, b.hi, b.converged


def _bits(brackets):
    """(lo, hi, converged) triples with their ends as hex strings."""
    return [(lo.hex(), hi.hex(), ok) for lo, hi, ok in brackets]


def test_depth_bounds_are_the_two_estimators_bit_for_bit():
    """One ``_set_bounds`` call gives (gen_radius_lb(S, d), norm_level_max(S,
    d)) for every pair, bit for bit: on dense and reducible sparse sets, with
    deepest products near 2**600 and 2**-600 (the Gram scaling path), with
    Fortran-ordered letters at n = 18 (where OpenBLAS rounds the two layouts
    apart), and with a set repeated in the list, at its depth and at
    another.  The caller's radius and norm arrays, C- and Fortran-ordered,
    get the bits of ``spectral_radius`` and ``operator_norm``."""
    rng = np.random.default_rng(61)
    for _ in range(40):
        pairs = []
        for _ in range(int(rng.integers(1, 5))):
            if pairs and rng.random() < 0.3:
                s, d = pairs[int(rng.integers(len(pairs)))]
                pairs.append((s, d if rng.random() < 0.5 else int(rng.integers(1, 4))))
                continue
            d = int(rng.integers(1, 4))
            n = 18 if rng.random() < 0.2 else int(rng.integers(1, 6))
            scale = 2.0 ** (int(rng.choice([-600, 0, 600])) // d)
            density = 1.0 if rng.random() < 0.5 else 0.3
            pairs.append((_matrix_set(rng, n, int(rng.integers(1, 4)), scale, density,
                                      rng.random() < 0.4), d))
        rhos, norms = ([x.a for x in _matrix_set(rng, int(rng.integers(1, 19)),
                                                  int(rng.integers(1, 4)), 2.0, 0.5,
                                                  rng.random() < 0.5)]
                       for _ in range(2))
        want = [(gen_radius_lb(s, d), norm_level_max(s, d)) for s, d in pairs]
        bounds, radii, l2 = _set_bounds(pairs, rhos, norms)
        got = [bounds[id(s), d] for s, d in pairs]
        assert [(lb.hex(), ub.hex()) for lb, ub in got] == \
            [(lb.hex(), ub.hex()) for lb, ub in want]
        assert _bits(radii) == _bits(_ends(spectral_radius(FiniteMatrix(a))) for a in rhos)
        assert _bits(l2) == _bits(_ends(operator_norm(FiniteMatrix(a))) for a in norms)


def test_gen_radius_lb_brackets_its_products_as_one_stack(monkeypatch):
    """All necklace products, Fortran-ordered letters among them, go to one
    ``_spectral_radii`` call as a list of one C-ordered stack."""
    seen = []
    real = jsr._spectral_radii
    monkeypatch.setattr(jsr, "_spectral_radii", lambda a: seen.append(a) or real(a))
    rng = np.random.default_rng(1256)
    s = OperatorSet([FiniteMatrix(np.asfortranarray(rng.random((3, 3)))),
                     FiniteMatrix(rng.random((3, 3)))])
    gen_radius_lb(s, 4)
    ((stack,),) = seen
    assert isinstance(stack, np.ndarray) and stack.flags.c_contiguous
    assert stack.shape == (2 + 3 + 4 + 6, 3, 3)  # the binary necklaces of lengths 1-4


@pytest.mark.parametrize("space", ["l1", "linf"])
def test_gripenberg_level_norms_are_each_products_own_norm(monkeypatch, space):
    """The l1/linf level norms come from one ``_norms`` call per level: the
    normalized letters as a stack in their set's layout, then one C-ordered
    stack per level.  A set built from mixed layouts is one C-ordered
    stack; an adjoint set's letters are the Fortran-ordered views of a
    transposed stack, which ``_norms`` sums in one reduction.  The
    bracket has the bits of a run that takes each product's
    ``operator_norm`` alone."""
    rng = np.random.default_rng(1257)
    real = jsr._norms
    golden = [np.array([[1.0, 1.0], [0.0, 1.0]]), np.array([[1.0, 0.0], [1.0, 1.0]])]
    for h in (1, 5, 6):  # the golden pair blown up to n = 2h, so no level is pruned early
        a, b = (np.kron(g, np.full((h, h), 1.0 / h)) + 1e-3 * rng.random((2 * h, 2 * h))
                for g in golden)
        mixed = OperatorSet([FiniteMatrix(np.asfortranarray(a)), FiniteMatrix(b)])
        for s in (mixed, set_adjoint(mixed)):
            seen = []
            monkeypatch.setattr(jsr, "_norms", lambda p, sp: seen.append(p) or real(p, sp))
            got = gripenberg_bracket(s, 1e-6, budget=200, space=space)
            monkeypatch.setattr(jsr, "_norms", lambda p, sp: [
                (0.0, operator_norm(FiniteMatrix(a), sp).hi, True) for a in p])
            assert got == gripenberg_bracket(s, 1e-6, budget=200, space=space)
            fortran = s is not mixed
            assert all(x.flags.f_contiguous == fortran != x.flags.c_contiguous for x in seen[0])
            assert len(seen) > 1 and all(isinstance(p, np.ndarray) and p.flags.c_contiguous
                                         for p in seen[1:])


def test_set_bounds_give_each_estimators_error_as_a_value(monkeypatch):
    """A bound that fails is the DomainError its estimator raises, as a
    value.  {[[1e308, 1e308], [1e308, 1e308]]} at depth 1 walks, and both
    of its bounds fail beyond the float range; at depth 2 the walk itself
    fails, and its error is both bounds.  {[[1.7e308, 1.7e308], [0, 0]]}
    has the lower bound 1.7e308 and the l2 norm's error as its upper
    bound, which ``registry._fin_term`` reads, and raises, first.  A pair
    repeated in the list is walked once, and the caller's arrays get the
    bits of ``spectral_radius`` and ``operator_norm``."""
    walked = []
    walk = jsr._necklace_walk
    monkeypatch.setattr(jsr, "_necklace_walk",
                        lambda letters, d, **kw: walked.append(d) or walk(letters, d, **kw))
    huge = OperatorSet([FiniteMatrix([[1e308, 1e308], [1e308, 1e308]])])
    row = OperatorSet([FiniteMatrix([[1.7e308, 1.7e308], [0.0, 0.0]])])
    rng = np.random.default_rng(63)
    rhos = [rng.random((3, 3)), np.asfortranarray(rng.random((4, 4)))]
    norms = [np.asfortranarray(rng.random((2, 2))), rng.random((5, 5))]
    pairs = [(huge, 1), (huge, 2), (row, 1), (huge, 2), (huge, 1), (row, 1)]
    bounds, radii, l2 = _set_bounds(pairs, rhos, norms)
    assert walked == [1, 2, 1]
    assert list(bounds) == [(id(huge), 1), (id(huge), 2), (id(row), 1)]

    def error(value):
        return type(value), str(value)

    lb, ub = bounds[id(huge), 1]
    assert error(lb) == (DomainError, "spectral radius exceeds the float range")
    assert error(ub) == (DomainError, "operator norm exceeds the float range")
    lb, ub = bounds[id(huge), 2]
    assert lb is ub and error(lb) == (DomainError, "a word product exceeds the float range")
    lb, ub = bounds[id(row), 1]
    assert lb == 1.7e308
    assert error(ub) == (DomainError, "operator norm exceeds the float range")
    with pytest.raises(DomainError, match="operator norm exceeds the float range"):
        _fin_term([(row, 1.0, 1)], bounds)
    for (s, d), (lb, ub) in zip([(huge, 1), (huge, 2), (row, 1)], bounds.values()):
        for got, estimator in ((lb, gen_radius_lb), (ub, norm_level_max)):
            if isinstance(got, float):
                assert got.hex() == estimator(s, d).hex()
                continue
            with pytest.raises(type(got)) as raised:
                estimator(s, d)
            assert str(raised.value) == str(got)
    assert _bits(radii) == _bits(_ends(spectral_radius(FiniteMatrix(a))) for a in rhos)
    assert _bits(l2) == _bits(_ends(operator_norm(FiniteMatrix(a))) for a in norms)
